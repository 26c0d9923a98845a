"""Schema building, encoding, discretization, splits, and synthetic data."""

import hashlib
import re

import numpy as np
import pytest

from fcn_ctr.features import (DataError, EncodedBatch, FieldSpec, OOV_ID,
                              OOV_TOKEN, build_schema, discretize_numeric,
                              encode, read_csv, split_indices, synth_interaction_data,
                              write_csv)
from fcn_ctr.numerics import Rng


def records_of(columns, rows):
    return [dict(zip(columns, row)) for row in rows]


class TestDiscretize:
    def test_at_two_is_one(self):
        assert discretize_numeric("2") == "1"

    def test_hundred(self):
        # (ln 100)^2 = 21.207..., floored
        assert discretize_numeric("100") == "21"

    def test_three(self):
        # (ln 3)^2 = 1.206..., floored
        assert discretize_numeric("3") == "1"

    def test_log2_mode(self):
        assert discretize_numeric("100", mode="log2") == "6"
        assert discretize_numeric("4", mode="log2") == "2"
        assert discretize_numeric("2", mode="log2") == "1"

    def test_non_finite_goes_oov(self):
        assert discretize_numeric("nan") == OOV_TOKEN
        assert discretize_numeric("inf") == OOV_TOKEN
        assert discretize_numeric("not-a-number") == OOV_TOKEN

    def test_negative_is_low_bucket(self):
        assert discretize_numeric("-5") == "1"


class TestBuildSchema:
    def test_min_count_threshold(self):
        rows = [{"a": "rare"}] * 9 + [{"a": "common"}] * 10
        schema = build_schema(rows, [FieldSpec("a", min_count=10)])
        assert schema.vocabs[0].get("rare", OOV_ID) == OOV_ID
        assert schema.vocabs[0]["common"] == 1

    def test_min_count_one_keeps_everything(self):
        rows = records_of(["a"], [["x"], ["y"], ["z"], ["x"]])
        schema = build_schema(rows, [FieldSpec("a")])
        ids = {schema.vocabs[0][t] for t in ("x", "y", "z")}
        assert ids == {1, 2, 3}
        assert schema.sizes == [4]  # plus the OOV slot

    def test_first_seen_order(self):
        rows = records_of(["a"], [["z"], ["y"], ["z"], ["x"]])
        schema = build_schema(rows, [FieldSpec("a")])
        assert schema.vocabs[0]["z"] == 1
        assert schema.vocabs[0]["y"] == 2
        assert schema.vocabs[0]["x"] == 3

    def test_fields_are_isolated(self):
        rows = records_of(["a", "b"], [["t1", "t2"], ["t2", "t1"]])
        schema = build_schema(rows, [FieldSpec("a"), FieldSpec("b")])
        assert schema.vocabs[0]["t1"] == 1 and schema.vocabs[0]["t2"] == 2
        assert schema.vocabs[1]["t2"] == 1 and schema.vocabs[1]["t1"] == 2

    def test_missing_field_names_record(self):
        rows = [{"a": "x"}, {"b": "y"}]
        with pytest.raises(DataError, match="record 1"):
            build_schema(rows, [FieldSpec("a")])

    def test_none_value_is_oov(self):
        rows = [{"a": None, "n": None}, {"a": "x", "n": "100"}, {"a": None, "n": "100"}]
        schema = build_schema(rows, [FieldSpec("a"), FieldSpec("n", kind="numeric")])
        assert schema.vocabs == [{OOV_TOKEN: 0, "x": 1}, {OOV_TOKEN: 0, "21": 1}]
        assert encode(rows, schema, require_labels=False).ids.tolist() == [[0, 0], [1, 1], [0, 1]]

    def test_numeric_field_counts_buckets(self):
        rows = records_of(["n"], [["100"], ["101"], ["3"]])
        schema = build_schema(rows, [FieldSpec("n", kind="numeric", min_count=2)])
        # 100 and 101 share bucket "21", which meets min_count 2; "1" does not
        assert schema.vocabs[0]["21"] == 1
        assert "1" not in schema.vocabs[0]
        # "1" reaches min_count 3 only as the sum of three raw values; "", "nan"
        # and None, however often seen, are never tokens
        rows = records_of(["n"], [["100"], ["2"], [""], ["3.0"], ["nan"], ["4"], [None],
                                  ["101"], ["102"], [""], ["nan"], [None]])
        for min_count in (1, 2, 3):
            schema = build_schema(rows, [FieldSpec("n", kind="numeric", min_count=min_count)])
            assert schema.vocabs[0] == {OOV_TOKEN: 0, "21": 1, "1": 2}, min_count
        schema = build_schema(rows, [FieldSpec("n", kind="numeric", min_count=4)])
        assert schema.vocabs[0] == {OOV_TOKEN: 0}

    @pytest.mark.parametrize("mode", ["lnsq", "log2"])
    def test_numeric_vocab_equals_a_per_value_reference(self, mode):
        # Criteo-shaped counts: heavy-tailed integers, 10% missing, and a few
        # floats and non-numbers; the reference discretizes every cell
        g = np.random.default_rng(11)
        cells = np.floor(g.lognormal(1.5, 2.0, 2000)).astype(np.int64).astype(str).astype(object)
        cells[g.random(2000) < 0.1] = ""
        cells[g.random(2000) < 0.02] = "2.5e3"
        cells[g.random(2000) < 0.01] = "inf"
        rows = [{"n": cell} for cell in cells]
        for min_count in (1, 5):
            counts = {}
            for cell in cells:
                tok = discretize_numeric(cell, mode)
                counts[tok] = counts.get(tok, 0) + 1
            kept = [tok for tok, n in counts.items() if n >= min_count and tok != OOV_TOKEN]
            schema = build_schema(rows, [FieldSpec("n", "numeric", min_count)], mode)
            assert list(schema.vocabs[0].items()) == list(
                {tok: i for i, tok in enumerate([OOV_TOKEN, *kept])}.items())
            assert len(schema.vocabs[0]) > 10


class TestEncode:
    def schema(self):
        rows = records_of(["a", "b", "label"],
                          [["x", "p", "1"], ["y", "q", "0"]])
        return rows, build_schema(rows, [FieldSpec("a"), FieldSpec("b")])

    def test_known_and_unknown_tokens(self):
        rows, schema = self.schema()
        batch = encode(rows + [{"a": "never-seen", "b": "p", "label": "1"}], schema)
        assert batch.ids[0, 0] == schema.vocabs[0]["x"]
        assert batch.ids[2, 0] == OOV_ID
        assert batch.ids[2, 1] == schema.vocabs[1]["p"]

    def test_labels_parsed(self):
        rows, schema = self.schema()
        batch = encode(rows, schema)
        np.testing.assert_array_equal(batch.labels, [1, 0])

    def test_bad_label_names_row(self):
        rows, schema = self.schema()
        rows[1]["label"] = "maybe"
        with pytest.raises(DataError, match="row 3"):
            encode(rows, schema)

    @pytest.mark.parametrize("first, later, message", [
        ("maybe", None, "row 1000: label must be 0 or 1, got 'maybe'"),
        (None, "maybe", "row 1000: missing label column 'label'")])
    def test_first_bad_or_missing_label_names_its_row(self, first, later, message):
        rows, schema = self.schema()
        rows = [dict(rows[i % 2]) for i in range(1200)]
        # data row 1000 is record 998 (the header is row 1); record 1100 is bad too
        for i, label in ((998, first), (1100, later)):
            if label is None:
                del rows[i]["label"]
            else:
                rows[i]["label"] = label
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            encode(rows, schema)

    def test_ids_always_below_vocab_size(self):
        rng = Rng(5)
        tokens = [f"t{i}" for i in range(20)]
        rows = [{"a": tokens[int(rng.integers(20))],
                 "b": tokens[int(rng.integers(20))],
                 "label": "0"} for _ in range(300)]
        schema = build_schema(rows[:150], [FieldSpec("a", min_count=3),
                                           FieldSpec("b", min_count=3)])
        batch = encode(rows, schema)
        for j, size in enumerate(schema.sizes):
            assert batch.ids[:, j].max() < size
            assert batch.ids[:, j].min() >= 0

    def test_roundtrip_ids_through_tokens(self):
        # distinct tokens map to distinct ids and back, per field
        rng = Rng(6)
        for _ in range(5):
            vocab_n = int(rng.integers(8)) + 2
            rows = [{"a": f"v{int(rng.integers(vocab_n))}", "label": "0"}
                    for _ in range(100)]
            schema = build_schema(rows, [FieldSpec("a")])
            id_to_token = {i: t for t, i in schema.vocabs[0].items()}
            rebuilt = [{"a": id_to_token[int(i)], "label": "0"}
                       for i in encode(rows, schema).ids[:, 0]]
            reencoded = encode(rebuilt, schema)
            np.testing.assert_array_equal(reencoded.ids, encode(rows, schema).ids)

    def test_zero_fields_and_zero_records(self):
        rows, schema = self.schema()
        none = build_schema(rows, [])
        assert none.sizes == [] and encode(rows, none).ids.shape == (2, 0)
        batch = encode([], schema, require_labels=False)
        assert batch.ids.shape == (0, 2) and batch.ids.dtype == np.int64

    def test_one_record_encode_equals_bulk(self, criteo_shaped):
        # the online request path: OOV tokens, empty, nan and 1e400 numerics included
        records, specs = criteo_shaped(2000, seed=5)
        schema = build_schema(records[:1000], specs)
        bulk = encode(records, schema, require_labels=False)
        assert (bulk.ids == OOV_ID).any(axis=0).all()
        for i, record in enumerate(records):
            one = encode([record], schema, require_labels=False)
            assert one.ids.shape == (1, len(specs)) and one.ids.dtype == np.int64
            assert np.array_equal(one.ids[0], bulk.ids[i]), i
            assert one.labels is not None and one.labels[0] == bulk.labels[i]
            assert one.sizes == bulk.sizes == schema.sizes

    def test_one_record_missing_field_message(self):
        rows, schema = self.schema()
        with pytest.raises(DataError, match=r"^record 0: missing field 'b'$"):
            encode([{"a": "x", "label": "1"}], schema)
        with pytest.raises(DataError, match=r"^record 0: missing field 'a'$"):
            encode([{"label": "1"}], schema, require_labels=False)

    def test_optional_labels_for_prediction(self):
        rows, schema = self.schema()
        unlabeled = [{"a": "x", "b": "p"}]
        batch = encode(unlabeled, schema, require_labels=False)
        assert batch.labels is None


class TestSplit:
    """Rows are cut as ``cli synth`` cuts them: ``split_indices``, then ``EncodedBatch.rows``."""

    def split(self, n, fractions, rng):
        ids = np.arange(n, dtype=np.int64)[:, None]
        batch = EncodedBatch(ids, np.zeros(n, dtype=np.int64), [n])
        return [batch.rows(index) for index in split_indices(n, fractions, rng)]

    def test_80_10_10(self):
        parts = self.split(100, (0.8, 0.1, 0.1), Rng(1))
        assert [p.n for p in parts] == [80, 10, 10]

    def test_deterministic(self):
        a = self.split(57, (0.5, 0.25, 0.25), Rng(9))
        b = self.split(57, (0.5, 0.25, 0.25), Rng(9))
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.ids, pb.ids)

    def test_disjoint_cover(self):
        parts = self.split(101, (0.6, 0.2, 0.2), Rng(2))
        seen = np.concatenate([p.ids[:, 0] for p in parts])
        assert sorted(seen) == list(range(101))

    def test_empty_part_rejected(self):
        with pytest.raises(DataError, match="empty"):
            self.split(3, (0.9, 0.05, 0.05), Rng(3))

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            self.split(10, (0.5, 0.2), Rng(0))


class TestSynthData:
    def test_order_one_is_single_field(self):
        records, truth = synth_interaction_data(4, 6, 1, 3000, Rng(123))
        labels = np.array([int(r["label"]) for r in records])
        latent = np.array([truth["latents"]["f0"][r["f0"]] for r in records])
        agree = ((latent > 0) == (labels == 1)).mean()
        assert agree > 0.9  # equals 1 - noise up to sampling error

    def test_positive_rate_balanced(self):
        records, _ = synth_interaction_data(8, 10, 4, 50000, Rng(40))
        rate = np.mean([int(r["label"]) for r in records])
        assert 0.48 <= rate <= 0.52

    def test_no_single_field_signal_for_high_order(self):
        records, truth = synth_interaction_data(8, 10, 4, 50000, Rng(41))
        labels = np.array([int(r["label"]) for r in records])
        for j in range(8):
            latent = truth["latents"][f"f{j}"]
            vals = np.array([latent[r[f"f{j}"]] for r in records])
            corr = abs(np.corrcoef(vals, labels)[0, 1])
            assert corr < 0.03, f"field f{j} leaks marginal signal: {corr}"

    def test_deterministic_under_seed(self):
        a, _ = synth_interaction_data(3, 4, 2, 50, Rng(77))
        b, _ = synth_interaction_data(3, 4, 2, 50, Rng(77))
        assert a == b

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            synth_interaction_data(3, 4, 5, 10, Rng(0))

    # sha256 of repr(([list(r.items()) for r in records], truth)): records, their key
    # order and the hidden assignment, frozen from the per-record f-string generator
    PINNED = [((8, 10, 4, 50000, 1),
               "db62ef73d913ddfc0d75458f35499248568ff8066b82785ddccf71e8edddda59"),
              ((3, 2, 1, 7, 5),
               "60a1f6a20a14bc4bf276fd9ccdb58531b8f4ba0a37ff154417a73f45925ebf58"),
              ((12, 37, 3, 1000, 9),
               "6228df372b89742add0c286c36de4ce0c88dc3c8d97e796f9408bd2c99db67cd")]

    @pytest.mark.parametrize("args,digest", PINNED)
    def test_output_is_pinned(self, args, digest):
        *shape, seed = args
        records, truth = synth_interaction_data(*shape, Rng(seed))
        text = repr(([list(r.items()) for r in records], truth))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_records_share_one_string_per_name_and_token(self):
        records, _ = synth_interaction_data(4, 5, 2, 400, Rng(8))
        first = records[0]
        for record in records:
            assert all(a is b for a, b in zip(record, first))  # keys, in order
        for key in first:  # per column, one object per distinct value
            assert len({id(r[key]) for r in records}) == len({r[key] for r in records})


class TestCsv:
    def test_roundtrip_with_quoting(self, tmp_path):
        path = tmp_path / "x.csv"
        rows = [{"a": 'he said "hi"', "b": "1,2", "label": "1"},
                {"a": "plain", "b": "line\nbreak", "label": "0"}]
        write_csv(path, ["a", "b", "label"], rows)
        columns, back = read_csv(path)
        assert columns == ["a", "b", "label"]
        assert back == rows

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,label\n\nx,1\n\n\ny,0\n\n")
        assert read_csv(path) == (["a", "label"], [{"a": "x", "label": "1"},
                                                   {"a": "y", "label": "0"}])

    @pytest.mark.parametrize("text,line", [
        ("a,b\n1,2\n1\n", 3),              # short
        ("a,b\n1,2\n\n1,2,3\n", 4),       # long, after a blank line
        ('a,b\n"x\ny",2\n3\n', 4),          # after a quoted line break
        ("a\n1\n,\n", 3),                  # a lone comma is two empty cells
    ])
    def test_wrong_width_names_the_line(self, tmp_path, text, line):
        path = tmp_path / "x.csv"
        path.write_text(text)
        message = f"{path}: row {line}: wrong number of columns"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            read_csv(path)

    def test_repeated_header_last_value_wins(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,a\n1,2,3\n")
        assert read_csv(path) == (["a", "b", "a"], [{"a": "3", "b": "2"}])

    def test_blank_header_has_no_columns(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("\n\n")
        assert read_csv(path) == ([], [])
        path.write_text("\nx\n")
        with pytest.raises(DataError, match="row 2: wrong number of columns"):
            read_csv(path)

    def test_equal_values_in_a_column_are_one_object(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,label\n" + "".join(f"v{i % 3},v{i % 2},{i % 2}\n"
                                                 for i in range(30)))
        columns, records = read_csv(path)
        assert all(a is b for a, b in zip(records[7], columns))  # keyed by the header's strings
        for column in columns:
            values = [r[column] for r in records]
            assert len({id(v) for v in values}) == len(set(values))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="header"):
            read_csv(path)
