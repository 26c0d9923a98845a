"""Checkpoint serialization: round trips, error taxonomy, golden file."""

import hashlib
import io
import os
import re
import struct
import threading
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import fcn_ctr.checkpoint as checkpoint_mod
from fcn_ctr.checkpoint import (BadMagicError, CheckpointError, ChecksumError,
                                FormatError, MAGIC, TruncatedCheckpointError,
                                UnsupportedVersionError, checkpoint_bytes,
                                load_checkpoint, parse_checkpoint,
                                save_checkpoint)
from fcn_ctr.features import (FeatureSchema, FieldSpec, OOV_TOKEN, build_schema, encode,
                              read_csv, split_indices, synth_interaction_data)
from fcn_ctr.model import (ModelConfig, ModelParams, dense_size, init_model_params,
                           named_tensors)
from fcn_ctr.numerics import Rng, derive_seed
from fcn_ctr.training import TrainConfig, predict_scores, train

GOLDEN_DIR = Path(__file__).parent / "golden"


def sample_schema():
    fields = [FieldSpec("color", "categorical", 2),
              FieldSpec("count", "numeric", 1)]
    vocabs = [{OOV_TOKEN: 0, "red": 1, "blue": 2},
              {OOV_TOKEN: 0, "1": 1, "21": 2}]
    return FeatureSchema(fields, vocabs, "lnsq")


def sample_state(seed=3):
    schema = sample_schema()
    config = ModelConfig(d=4, lcn_depth=1, ecn_depth=2, mask_mode="paper",
                         dropout_rate=0.1, ln_epsilon=1e-5, seed=seed)
    params = init_model_params(config, schema.sizes, derive_seed(seed, "init"))
    return params, config, schema


class TestRoundTrip:
    def test_bitwise_at_stored_precision(self, tmp_path):
        params, config, schema = sample_state()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, schema)
        loaded, lconfig, lschema = load_checkpoint(path)
        for a, b in zip(loaded.embeddings, params.embeddings):
            np.testing.assert_array_equal(a, b.astype(np.float32).astype(np.float64))
        for la, lb in zip(loaded.ecn_layers, params.ecn_layers):
            np.testing.assert_array_equal(la.w, lb.w.astype(np.float32).astype(np.float64))
        assert lconfig.d == config.d
        assert lconfig.mask_mode == config.mask_mode
        assert lconfig.dropout_rate == config.dropout_rate
        assert lschema.vocabs == schema.vocabs
        assert [f.name for f in lschema.fields] == [f.name for f in schema.fields]
        assert [f.kind for f in lschema.fields] == ["categorical", "numeric"]
        assert lschema.discretize == schema.discretize

    def test_save_load_save_is_byte_stable(self, tmp_path):
        params, config, schema = sample_state()
        data = checkpoint_bytes(params, config, schema)
        loaded = parse_checkpoint(data)
        again = checkpoint_bytes(*loaded)
        assert data == again

    def test_trained_params_round_trip_exactly(self, tmp_path):
        # training runs in float32, the stored precision: the file holds the
        # trained model itself, not a rounded copy of it
        records, _ = synth_interaction_data(3, 4, 2, 400, Rng(derive_seed(5, "synth")))
        schema = build_schema(records, [FieldSpec(f"f{j}") for j in range(3)])
        batch = encode(records, schema)
        tr, va = map(batch.rows, split_indices(batch.n, (0.8, 0.2), Rng(6)))
        config = ModelConfig(d=4, lcn_depth=1, ecn_depth=2, seed=5)
        params, _ = train(tr, va, config, TrainConfig(batch_size=64, max_epochs=2),
                          log=lambda s: None)
        assert params.dtype == np.float32
        save_checkpoint(tmp_path / "m.ckpt", params, config, schema)
        loaded, _, _ = load_checkpoint(tmp_path / "m.ckpt")
        assert loaded.dtype == np.float64
        assert loaded.table.tobytes() == params.table.astype(np.float64).tobytes()
        assert loaded.dense.tobytes() == params.dense.astype(np.float64).tobytes()

    def test_magic_prefix(self):
        params, config, schema = sample_state()
        assert checkpoint_bytes(params, config, schema)[:8] == MAGIC

    def test_parse_holds_no_copy_of_the_file(self):
        # the payloads and the checksummed span are read through views of the
        # bytes: what parsing allocates beyond the params and schema it returns
        # stays well under the file's size (a copy of the payloads or of the
        # checksummed span costs about the file's size each)
        rows, d = 20_000, 64
        config = ModelConfig(d=d, lcn_depth=1, ecn_depth=1)
        params = init_model_params(config, [rows] * 2, 1)
        vocab = {OOV_TOKEN: 0, **{str(i): i for i in range(1, rows)}}
        schema = FeatureSchema([FieldSpec("a"), FieldSpec("b")], [vocab] * 2, "lnsq")
        data = checkpoint_bytes(params, config, schema)
        del params
        tracemalloc.start()
        try:
            loaded = parse_checkpoint(data)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded[0].table.nbytes == 2 * rows * d * 8
        assert peak - kept < 0.5 * len(data), (peak - kept, len(data))


    def test_load_holds_no_copy_of_the_file(self, tmp_path):
        # a file is streamed: its header and schema through a buffer that fills
        # as the parse needs them, each payload in chunks straight into the
        # table, so the load never holds the file's bytes whole
        rows, d = 20_000, 64
        config = ModelConfig(d=d, lcn_depth=1, ecn_depth=1)
        params = init_model_params(config, [rows] * 2, 1)
        vocab = {OOV_TOKEN: 0, **{str(i): i for i in range(1, rows)}}
        schema = FeatureSchema([FieldSpec("a"), FieldSpec("b")], [vocab] * 2, "lnsq")
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, schema)
        del params
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded[0].table.nbytes == 2 * rows * d * 8
        assert peak - kept < 0.5 * os.path.getsize(path), (peak - kept, os.path.getsize(path))
        assert checkpoint_bytes(*loaded) == path.read_bytes()

    def test_failed_save_keeps_the_old_file(self, tmp_path, failing_writes):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"the checkpoint from before")
        with pytest.raises(OSError, match="No space left on device"):
            save_checkpoint(path, *sample_state())
        assert path.read_bytes() == b"the checkpoint from before"
        assert os.listdir(tmp_path) == ["m.ckpt"]

    def test_writer_holds_the_file_once(self):
        # the float32 payloads are cast into one preallocated buffer: a save
        # allocates about the file once, where a list of parts and their join took two
        rows, d = 20_000, 64
        config = ModelConfig(d=d, lcn_depth=1, ecn_depth=1)
        params = init_model_params(config, [rows] * 2, 1)
        vocab = {OOV_TOKEN: 0, **{str(i): i for i in range(1, rows)}}
        schema = FeatureSchema([FieldSpec("a"), FieldSpec("b")], [vocab] * 2, "lnsq")
        tracemalloc.start()
        try:
            data = checkpoint_bytes(params, config, schema)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(data), (peak, len(data))


def reference_bytes(params, config, schema) -> bytes:
    """The README's layout written one value and one token at a time."""
    out = bytearray(MAGIC) + struct.pack("<I", 1)
    out += struct.pack("<5I2dI", schema.num_fields, config.d, config.lcn_depth,
                       config.ecn_depth, ("paper", "no_ln", "identity").index(config.mask_mode),
                       config.dropout_rate, config.ln_epsilon,
                       ("lnsq", "log2").index(schema.discretize))
    for spec, vocab in zip(schema.fields, schema.vocabs):
        name = spec.name.encode("utf-8")
        out += struct.pack("<I", len(name)) + name
        out += struct.pack("<3I", ("categorical", "numeric").index(spec.kind),
                           spec.min_count, len(vocab))
        for i in range(len(vocab)):
            (tok,) = [t for t, j in vocab.items() if j == i]
            raw = tok.encode("utf-8")
            out += struct.pack("<I", len(raw)) + raw
    for _, tensor in named_tensors(params):
        out += struct.pack("<I", tensor.ndim)
        for dim in tensor.shape:
            out += struct.pack("<I", dim)
        for value in tensor.ravel():
            out += struct.pack("<f", value)
    return bytes(out + struct.pack("<I", zlib.crc32(out)))


class TestVocabCodec:
    def schema(self):
        long = "x" * 150 + "é" * 75  # 300 bytes: its length has a nonzero second byte
        fields = [FieldSpec("tokens"), FieldSpec("order", "numeric", 3), FieldSpec("oov")]
        vocabs = [{OOV_TOKEN: 0, "": 1, "é": 2, "日本": 3, "\U0001F600": 4, long: 5},
                  {"9": 2, OOV_TOKEN: 0, "12": 3, "1": 1},  # dict order is not id order
                  {OOV_TOKEN: 0}]
        return FeatureSchema(fields, vocabs, "log2")

    def state(self):
        schema = self.schema()
        config = ModelConfig(d=2, lcn_depth=1, ecn_depth=1, seed=5)
        return init_model_params(config, schema.sizes, 5), config, schema

    def test_bytes_match_a_per_token_encoder(self):
        params, config, schema = self.state()
        data = checkpoint_bytes(params, config, schema)
        assert data == reference_bytes(params, config, schema)
        assert struct.pack("<I", 300) + b"x" in data

    def test_round_trip_keeps_every_token_and_id(self):
        params, config, schema = self.state()
        data = checkpoint_bytes(params, config, schema)
        loaded = parse_checkpoint(data)
        assert loaded[2].vocabs == schema.vocabs
        for vocab in loaded[2].vocabs:  # read in id order
            assert list(vocab.values()) == list(range(len(vocab)))
        assert checkpoint_bytes(*loaded) == data


class TestErrorTaxonomy:
    def test_bad_magic(self):
        with pytest.raises(BadMagicError, match=r"^not a checkpoint: magic b'NOTACKPT'$"):
            parse_checkpoint(b"NOTACKPT" + b"\x00" * 64)

    def test_unsupported_version(self):
        params, config, schema = sample_state()
        data = bytearray(checkpoint_bytes(params, config, schema))
        data[8:12] = (99).to_bytes(4, "little")
        with pytest.raises(UnsupportedVersionError):
            parse_checkpoint(bytes(data))

    def test_truncation_at_many_offsets(self):
        params, config, schema = sample_state()
        data = checkpoint_bytes(params, config, schema)
        for cut in (9, 20, 40, len(data) // 2, len(data) - 5):
            with pytest.raises(TruncatedCheckpointError):
                parse_checkpoint(data[:cut])

    def test_truncation_at_every_cut_in_the_vocab_region(self):
        # multi-byte tokens: a token cut short must not be decoded at all
        params, config, schema = TestVocabCodec().state()
        data = checkpoint_bytes(params, config, schema)
        # the schema section runs from field 0's name to the first tensor's rank
        end = len(data) - 4 - sum(4 * (1 + t.ndim) + 4 * t.size for _, t in named_tensors(params))
        assert struct.unpack_from("<III", data, end) == (2, 6, 2)  # embeddings[0], 6 x 2
        for cut in range(NAME_AT, end + 1):
            with pytest.raises(TruncatedCheckpointError, match="^checkpoint truncated: "):
                parse_checkpoint(data[:cut])
        long_at = data.index(struct.pack("<I", 300)) + 4
        with pytest.raises(TruncatedCheckpointError, match=rf"^checkpoint truncated: needed 300 "
                                                           rf"bytes at offset {long_at}, file "
                                                           rf"has {long_at + 151}$"):
            parse_checkpoint(data[:long_at + 151])  # inside the second byte of an "é"

    def test_corrupt_vocab_size_is_refused_before_decoding(self):
        # field 0 claims 2**32 - 1 tokens: more than the bytes left could hold
        # at 4 bytes each, so nothing is decoded (parsing this file used to
        # decode every token of the file before it met bytes that were not UTF-8)
        rows = 20_000
        config = ModelConfig(d=4, lcn_depth=1, ecn_depth=1)
        params = init_model_params(config, [rows], 1)
        vocab = {OOV_TOKEN: 0, **{str(i): i for i in range(1, rows)}}
        data = bytearray(checkpoint_bytes(params, config,
                                          FeatureSchema([FieldSpec("a")], [vocab], "lnsq")))
        size_at = NAME_AT + len("a") + 8
        assert struct.unpack_from("<I", data, size_at) == (rows,)
        data[size_at:size_at + 4] = struct.pack("<I", 0xFFFFFFFF)
        data = with_crc(data)
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedCheckpointError,
                               match=rf"^checkpoint truncated: 4294967295 vocab tokens need "
                                     rf"at least 17179869180 bytes at offset {size_at + 4}, "
                                     rf"file has {len(data)}$"):
                parse_checkpoint(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_depth_the_file_cannot_hold_makes_no_layer(self):
        # with no field the model is 0 wide and a layer has no payload, only its four
        # tensor headers (36 bytes): for a depth the rest of the file cannot hold, no
        # params and no layer views are made, and the tensor that breaks is refused
        params = ModelParams(np.empty((0, 4)), [], np.zeros(dense_size(0, 1, 1)), 1, 1)
        data = bytearray(checkpoint_bytes(params, ModelConfig(d=4, lcn_depth=1, ecn_depth=1),
                                          FeatureSchema([], [], "lnsq")))
        struct.pack_into("<I", data, LCN_DEPTH_AT, 200_000)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=r"^tensor lcn_layers\[2\]\.w: expected rank 2"):
                parse_checkpoint(with_crc(data))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_corrupted_payload_fails_checksum(self):
        params, config, schema = sample_state()
        data = bytearray(checkpoint_bytes(params, config, schema))
        data[-40] ^= 0x55  # inside the last tensor payload
        with pytest.raises(ChecksumError):
            parse_checkpoint(bytes(data))

    def test_trailing_garbage_rejected(self):
        params, config, schema = sample_state()
        data = checkpoint_bytes(params, config, schema) + b"xx"
        with pytest.raises(ChecksumError):
            parse_checkpoint(data)


def with_crc(data: bytearray) -> bytes:
    """``data`` with its trailing CRC32 recomputed over the rest."""
    data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])) & 0xFFFFFFFF)
    return bytes(data)


# byte offsets in a sample_state() checkpoint: magic 8, version 4, then
# five u32 config fields, two f64, the discretize code, then field 0's name,
# its kind code and its min_count
LCN_DEPTH_AT = 20
MASK_CODE_AT = 28
DROPOUT_AT = 32
LN_EPSILON_AT = 40
NAME_AT = 56
MIN_COUNT_AT = NAME_AT + len("color") + 4


class TestFormatErrors:
    def test_invalid_mask_code(self):
        data = bytearray(checkpoint_bytes(*sample_state()))
        data[MASK_CODE_AT:MASK_CODE_AT + 4] = struct.pack("<I", 7)
        with pytest.raises(FormatError, match="invalid mask mode code 7"):
            parse_checkpoint(with_crc(data))

    @pytest.mark.parametrize("at, stored, value, name", [
        (DROPOUT_AT, 0.1, 1.5, "dropout_rate"), (LN_EPSILON_AT, 1e-5, -1.0, "ln_epsilon")])
    def test_config_value_the_model_refuses(self, at, stored, value, name):
        data = bytearray(checkpoint_bytes(*sample_state()))
        assert struct.unpack("<d", data[at:at + 8]) == (stored,)
        data[at:at + 8] = struct.pack("<d", value)
        with pytest.raises(FormatError, match=rf"{name} must be .*, got {value}"):
            parse_checkpoint(with_crc(data))

    def test_repeated_vocab_token(self):
        # field 0 of the golden file holds <OOV>, v0, v2, v1, v3: v2 becomes v0,
        # which would load as 4 tokens for 5 rows, id 1 unreachable
        data = bytearray((GOLDEN_DIR / "model.ckpt").read_bytes())
        at = data.index(struct.pack("<I", 2) + b"v2") + 5
        data[at] = ord("0")
        with pytest.raises(FormatError, match="field 'f0': vocab repeats a token"):
            parse_checkpoint(with_crc(data))

    def test_undecodable_token_in_the_middle_of_a_vocab(self):
        # field 0 of the golden file holds <OOV>, v0, v2, v1, v3: v2 is the third
        data = bytearray((GOLDEN_DIR / "model.ckpt").read_bytes())
        at = data.index(struct.pack("<I", 2) + b"v2") + 4
        data[at] = 0xFF
        with pytest.raises(FormatError, match=rf"^invalid UTF-8 string ending at offset {at + 2}$"):
            parse_checkpoint(with_crc(data))

    def test_zero_min_count(self):
        data = bytearray(checkpoint_bytes(*sample_state()))
        assert struct.unpack("<I", data[MIN_COUNT_AT:MIN_COUNT_AT + 4]) == (2,)
        data[MIN_COUNT_AT:MIN_COUNT_AT + 4] = struct.pack("<I", 0)
        with pytest.raises(FormatError, match="field 'color': invalid min_count 0"):
            parse_checkpoint(with_crc(data))

    def test_undecodable_name(self):
        data = bytearray(checkpoint_bytes(*sample_state()))
        assert data[NAME_AT:NAME_AT + 5] == b"color"
        data[NAME_AT] = 0xFF
        with pytest.raises(FormatError, match="UTF-8"):
            parse_checkpoint(with_crc(data))

    def test_rank_above_64(self):
        params, config, schema = sample_state()
        data = bytearray(checkpoint_bytes(params, config, schema))
        # the last tensor, b_shallow, is rank 1 with one float before the CRC
        rank_at = len(data) - 4 - 4 - 4 - 4
        assert struct.unpack("<II", data[rank_at:rank_at + 8]) == (1, 1)
        data[rank_at:rank_at + 4] = struct.pack("<I", 65)
        with pytest.raises(FormatError, match="rank 65"):
            parse_checkpoint(with_crc(data))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_payload(self, value):
        data = bytearray(checkpoint_bytes(*sample_state()))
        data[-8:-4] = struct.pack("<f", value)
        with pytest.raises(FormatError, match="heads.b_shallow"):
            parse_checkpoint(with_crc(data))

    @pytest.mark.parametrize("value", [1e39, -np.inf, np.nan])
    def test_save_refuses_non_finite_float32(self, value, tmp_path):
        params, config, schema = sample_state()
        params.ecn_layers[1].gain[2] = value
        with pytest.raises(ValueError, match=r"ecn_layers\[1\]\.gain"):
            save_checkpoint(tmp_path / "m.ckpt", params, config, schema)
        assert not (tmp_path / "m.ckpt").exists()

    def test_embedding_row_count_checked_against_vocab(self):
        params, config, schema = sample_state()
        params.embeddings[0] = params.embeddings[0][:2]   # vocab size is 3
        data = checkpoint_bytes(params, config, schema)    # CRC over the short table
        with pytest.raises(FormatError,
                           match=r"embeddings\[0\]: expected dims \(3, 4\), found \(2, 4\)"):
            parse_checkpoint(data)

    def test_transposed_layer_weight(self):
        data = bytearray(checkpoint_bytes(*sample_state()))
        # the first (4, 8) tensor is lcn_layers[0].w; the payload size stays
        at = data.index(struct.pack("<III", 2, 4, 8))
        data[at:at + 12] = struct.pack("<III", 2, 8, 4)
        with pytest.raises(FormatError,
                           match=r"lcn_layers\[0\]\.w: expected dims \(4, 8\), found \(8, 4\)"):
            parse_checkpoint(with_crc(data))

    def test_head_of_wrong_length(self):
        data = bytearray(checkpoint_bytes(*sample_state()))
        # the first rank-1 tensor of length 8 is heads.w_deep: drop its last float
        at = data.index(struct.pack("<II", 1, 8))
        data[at:at + 8] = struct.pack("<II", 1, 7)
        del data[at + 8 + 4 * 7:at + 8 + 4 * 8]
        with pytest.raises(FormatError,
                           match=r"heads\.w_deep: expected dims \(8,\), found \(7,\)"):
            parse_checkpoint(with_crc(data))

    def test_every_flipped_golden_byte_is_a_checkpoint_error(self):
        golden = (GOLDEN_DIR / "model.ckpt").read_bytes()
        kinds = {}
        for pos in range(len(golden)):
            for bits in (0x01, 0x80, 0xFF):
                data = bytearray(golden)
                data[pos] ^= bits
                try:
                    parse_checkpoint(bytes(data))
                except CheckpointError as exc:
                    kinds[type(exc)] = kinds.get(type(exc), 0) + 1
                else:
                    pytest.fail(f"byte {pos} ^ {bits:#04x} loaded without an error")
        assert sum(kinds.values()) == 3 * len(golden)
        # every class as it stands: a change to the order of the checks (such as
        # comparing the CRC before decoding) moves these counts on purpose
        assert {cls.__name__: n for cls, n in kinds.items()} == {
            "BadMagicError": 24, "ChecksumError": 4403, "FormatError": 799,
            "TruncatedCheckpointError": 189, "UnsupportedVersionError": 12}


def outcome(parse, data):
    """(class, message) of the error ``parse`` raises on ``data``, or the bytes
    its result saves back to."""
    try:
        return checkpoint_bytes(*parse(data))
    except CheckpointError as exc:
        return type(exc), str(exc)


class TestFileReader:
    """``load_checkpoint`` streams a file through the reader that
    ``parse_checkpoint`` runs over bytes: the same bytes give the same result."""

    @pytest.fixture(params=[None, 7], ids=["chunk-default", "chunk-7"])
    def load(self, request, tmp_path, monkeypatch):
        # a 7-byte chunk refills the buffer inside nearly every string and
        # reads each payload one float at a time
        if request.param:
            monkeypatch.setattr(checkpoint_mod, "_CHUNK", request.param)
        path = tmp_path / "m.ckpt"

        def load(data):
            path.write_bytes(data)
            return load_checkpoint(path)
        return load

    def test_golden_loads_from_the_file_as_from_its_bytes(self, load):
        data = (GOLDEN_DIR / "model.ckpt").read_bytes()
        assert outcome(load, data) == outcome(parse_checkpoint, data) == data

    def test_a_pipe_is_read_whole(self, tmp_path):
        # a pipe has no size to stream against: its bytes are read, then parsed
        data = (GOLDEN_DIR / "model.ckpt").read_bytes()
        fifo = tmp_path / "model.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        loaded = load_checkpoint(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert checkpoint_bytes(*loaded) == data

    def test_damage_is_classified_as_from_bytes(self, load):
        golden = (GOLDEN_DIR / "model.ckpt").read_bytes()
        damaged = []
        for k in np.random.default_rng(18).choice(3 * len(golden), 300, replace=False):
            data = bytearray(golden)
            data[k // 3] ^= (0x01, 0x80, 0xFF)[k % 3]
            damaged.append(bytes(data))
        params, config, schema = TestVocabCodec().state()
        vocabs = bytes(checkpoint_bytes(params, config, schema))
        end = len(vocabs) - 4 - sum(4 * (1 + t.ndim) + 4 * t.size
                                    for _, t in named_tensors(params))
        damaged += [vocabs[:cut] for cut in range(NAME_AT, end + 1)]
        counts = {}
        for data in damaged:
            got = outcome(load, data)
            assert got == outcome(parse_checkpoint, data)
            counts[got[0].__name__] = counts.get(got[0].__name__, 0) + 1
        # the sample holds every class, and a cut reports the size of its file
        assert set(counts) == {"BadMagicError", "ChecksumError", "FormatError",
                               "TruncatedCheckpointError", "UnsupportedVersionError"}, counts
        assert outcome(load, vocabs[:end - 1])[1].endswith(f"file has {end - 1}")

    @pytest.mark.parametrize("where", ["vocab", "payload"])
    def test_a_file_that_shrinks_while_it_is_read(self, load, where, monkeypatch):
        # the file is cut after the reader took its size, so the read that comes up
        # short is refused as a truncation, with the size the file had when opened
        params, config, schema = TestVocabCodec().state()
        data = bytes(checkpoint_bytes(params, config, schema))
        end = len(data) - 4 - sum(4 * (1 + t.ndim) + 4 * t.size
                                  for _, t in named_tensors(params))
        lo, hi = (NAME_AT, end) if where == "vocab" else (end + 12, end + 12 + 48)
        cut = (lo + hi) // 2  # inside the vocab, or inside embeddings[0]'s payload

        reads = []

        class Shrinking(io.BufferedReader):
            def read(self, n=-1):
                reads.append(n)  # a reader that misses the short read would read forever
                assert len(reads) < 10_000, "the reader kept reading a file that came up short"
                os.truncate(self.fileno(), cut)
                return super().read(n)

        monkeypatch.setattr(checkpoint_mod, "open", lambda path, mode: Shrinking(
            io.FileIO(path, "r+")), raising=False)
        with pytest.raises(TruncatedCheckpointError, match=rf"file has {len(data)}$") as exc:
            load(data)
        at = int(re.search(r"at offset (\d+)", str(exc.value))[1])
        assert lo <= at < hi, (at, lo, hi)


class TestGoldenFile:
    """A checkpoint committed to the repo must keep loading bit-for-bit and
    reproducing its frozen predictions on any platform."""

    def test_golden_loads_and_roundtrips(self):
        data = (GOLDEN_DIR / "model.ckpt").read_bytes()
        loaded = parse_checkpoint(data)
        assert checkpoint_bytes(*loaded) == data

    def test_golden_reproduces_frozen_predictions(self):
        params, config, schema = load_checkpoint(GOLDEN_DIR / "model.ckpt")
        _, records = read_csv(GOLDEN_DIR / "inputs.csv")
        batch = encode(records, schema, require_labels=False)
        y, y_deep, y_shallow = predict_scores(batch, params, config)
        _, want = read_csv(GOLDEN_DIR / "predictions.csv")
        for i, row in enumerate(want):
            assert abs(y[i] - float(row["y_hat"])) <= 1e-12
            assert abs(y_deep[i] - float(row["y_hat_deep"])) <= 1e-12
            assert abs(y_shallow[i] - float(row["y_hat_shallow"])) <= 1e-12

    def test_golden_checksum_pinned(self):
        # guards against accidental edits of the committed binary
        digest = hashlib.sha256((GOLDEN_DIR / "model.ckpt").read_bytes()).hexdigest()
        frozen = (GOLDEN_DIR / "model.ckpt.sha256").read_text().strip()
        assert digest == frozen
