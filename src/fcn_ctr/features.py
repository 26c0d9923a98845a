"""Tabular ingestion: schemas, vocabularies, encoding, splits, synthetic data.

Raw records are dicts of column name to raw string (as read from CSV).
Categorical fields use the raw string as the token; numeric fields are
discretized to a token first. Per field, token ids are dense in [0, s_i)
with id 0 reserved for out-of-vocabulary values in every field.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import math
import operator
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from fcn_ctr.numerics import Rng

OOV_TOKEN = "<OOV>"
OOV_ID = 0
LABEL_COLUMN = "label"
SYNTH_NOISE = 0.05  # share of synthetic labels flipped

DISCRETIZE_MODES = ("lnsq", "log2")
FIELD_KINDS = ("categorical", "numeric")  # in checkpoint code order


class DataError(Exception):
    """Malformed input data: missing fields, bad labels, degenerate sets."""


@dataclass
class FieldSpec:
    """One input column: its name, numeric/categorical kind, and the minimum
    occurrence count below which tokens fall back to the OOV id."""

    name: str
    kind: str = FIELD_KINDS[0]
    min_count: int = 1

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"field {self.name!r}: unknown kind {self.kind!r}")
        if self.min_count < 1:
            raise ValueError(f"field {self.name!r}: min_count must be >= 1")


@dataclass
class FeatureSchema:
    """Ordered field specs plus per-field token-to-id vocabularies."""

    fields: list[FieldSpec]
    vocabs: list[dict[str, int]]
    discretize: str = DISCRETIZE_MODES[0]

    @property
    def sizes(self) -> list[int]:
        """Each field's vocabulary size including the OOV slot, so every
        encoded id satisfies ``0 <= id < sizes[i]``."""
        return [len(v) for v in self.vocabs]

    @property
    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    @property
    def num_fields(self) -> int:
        return len(self.fields)

    @functools.cached_property
    def reader(self) -> tuple:
        """(an itemgetter of every field's value and the first field's again, so that it
        returns a tuple for one field too; the indices of the numeric fields): how
        ``_columns`` reads records, made on first use."""
        get = operator.itemgetter(*(spec.name for spec in self.fields), self.fields[0].name)
        return get, [j for j, spec in enumerate(self.fields) if spec.kind == "numeric"]


@dataclass
class EncodedBatch:
    """Integer-encoded rows: ids (n, f) int64 and optional binary labels (n,)."""

    ids: np.ndarray
    labels: np.ndarray | None
    sizes: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return int(self.ids.shape[0])

    def rows(self, index) -> "EncodedBatch":
        labels = None if self.labels is None else self.labels[index]
        return EncodedBatch(self.ids[index], labels, self.sizes)


def parse_number(raw) -> float | None:
    """The finite float a raw value holds, else None: what counts as a number, both
    when a column is detected as numeric and when a numeric value is discretized.
    ``float`` syntax applies, surrounding whitespace included."""
    try:
        x = float(raw)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) else None


def discretize_numeric(raw, mode: str = "lnsq") -> str:
    """Bucket one raw numeric value into a token.

    ``lnsq``: floor of the squared natural log for x > 2, else "1".
    ``log2``: floor of the base-2 log for x > 2, else "1".
    Non-finite or unparseable values map to the OOV token.
    """
    if mode not in DISCRETIZE_MODES:
        raise ValueError(f"unknown discretize mode {mode!r}")
    x = parse_number(raw)
    if x is None:
        return OOV_TOKEN
    if x <= 2.0:
        return "1"
    if mode == "lnsq":
        return str(math.floor(math.log(x) ** 2))
    return str(math.floor(math.log2(x)))


def _columns(records: list[dict], schema: FeatureSchema, raw: bool = False):
    """Per chunk of records, in order, each of the schema's fields' tokens; a missing field
    is a DataError, a categorical None stays None (OOV). With ``raw`` a numeric field
    yields its raw values. A chunk's records are read once for all fields: a pass per
    field missed the cache on shuffled records, one over all records held them all."""
    if not schema.fields:
        return
    get, numeric = schema.reader
    for lo in range(0, len(records), 1024):
        try:
            *columns, _ = zip(*map(get, records[lo:lo + 1024]))
        except KeyError:
            idx, name = next((lo + i, spec.name) for i, record in enumerate(records[lo:])
                             for spec in schema.fields if spec.name not in record)
            raise DataError(f"record {idx}: missing field {name!r}") from None
        for j in () if raw else numeric:
            columns[j] = map(discretize_numeric, columns[j], itertools.repeat(schema.discretize))
        yield columns


def build_schema(records: list[dict], field_specs: list[FieldSpec],
                 discretize: str = FeatureSchema.discretize) -> FeatureSchema:
    """Count tokens and assign ids per field.

    Tokens occurring at least ``min_count`` times get ids in first-seen order
    starting at 1; everything else (including tokens unseen at encode time)
    maps to id 0. Two fields never share a vocabulary.
    """
    if not records:
        raise DataError("build_schema: no records")
    names = [s.name for s in field_specs]
    if len(set(names)) != len(names):
        raise ValueError("build_schema: duplicate field names")
    if discretize not in DISCRETIZE_MODES:
        raise ValueError(f"unknown discretize mode {discretize!r}")

    schema = FeatureSchema(list(field_specs), [], discretize)
    columns = [Counter() for _ in field_specs]  # a Counter keeps first-seen order
    for chunk in _columns(records, schema, raw=True):
        for counts, values in zip(columns, chunk):
            counts.update(values)
    for spec, counts in zip(field_specs, columns):
        if spec.kind == "numeric":  # each distinct raw value is discretized once
            tokens = Counter()
            for raw, count in counts.items():
                tokens[discretize_numeric(raw, discretize)] += count
            counts = tokens
        kept = [tok for tok, count in counts.items()
                if count >= spec.min_count and tok not in (OOV_TOKEN, None)]
        schema.vocabs.append({tok: i for i, tok in enumerate([OOV_TOKEN, *kept])})  # OOV_ID is 0
    return schema


def parse_label(raw, row_number: int) -> int:
    value = (raw or "").strip()
    if value == "1":
        return 1
    if value == "0":
        return 0
    raise DataError(f"row {row_number}: label must be 0 or 1, got {raw!r}")


def encode(records: list[dict], schema: FeatureSchema,
           require_labels: bool = True) -> EncodedBatch:
    """Map raw records to an integer id matrix plus labels.

    Unknown tokens encode to id 0. Row numbers in error messages are
    1-based data rows (the header is row 1).
    """
    n, f = len(records), schema.num_fields
    # every record's tokens, row after row, each looked up in its field's vocab
    tokens = itertools.chain.from_iterable(itertools.chain.from_iterable(
        zip(*columns) for columns in _columns(records, schema)))
    ids = np.fromiter(map(dict.get, itertools.cycle(schema.vocabs), tokens,
                          itertools.repeat(OOV_ID)), np.int64, n * f)
    has_labels = require_labels or (n > 0 and LABEL_COLUMN in records[0])
    labels = np.zeros(n, dtype=np.int64) if has_labels else None
    for idx, record in enumerate(records if has_labels else []):
        if LABEL_COLUMN not in record:
            raise DataError(f"row {idx + 2}: missing label column {LABEL_COLUMN!r}")
        labels[idx] = parse_label(record[LABEL_COLUMN], idx + 2)
    return EncodedBatch(ids.reshape(n, f), labels, schema.sizes)


def split_indices(n: int, fractions, rng: Rng) -> tuple[np.ndarray, ...]:
    """Shuffle ``range(n)`` under ``rng`` and cut it into disjoint parts.

    Part sizes come from cumulative rounding of the fractions, so they cover
    every row exactly once. Raises if any part would be empty.
    """
    fractions = [float(x) for x in fractions]
    if any(x <= 0 for x in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must be positive and sum to 1, got {fractions}")
    perm = rng.permutation(n)
    bounds = [0, *(int(round(acc * n)) for acc in itertools.accumulate(fractions))]
    bounds[-1] = n
    parts = tuple(perm[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))
    if any(part.size == 0 for part in parts):
        raise DataError(f"split produced an empty part for fractions {fractions} on {n} rows")
    return parts


def synth_interaction_data(num_fields: int, cardinality: int, order: int,
                           rows: int, rng: Rng):
    """Generate a pure interaction-of-order-k classification workload.

    Every category of every field gets a hidden value in {-1, +1}, balanced
    within each field (as evenly as the cardinality allows). A row's clean
    label is 1 iff the product of the hidden values of its first ``order``
    fields is +1; labels are then flipped with probability ``SYNTH_NOISE``.
    Balanced assignments make every interaction of fewer than ``order``
    fields carry zero signal by construction.

    Returns ``(records, truth)`` where records are dicts with columns
    ``f0..f{num_fields-1}`` (tokens ``v0..v{cardinality-1}``) plus ``label``,
    and ``truth`` describes the hidden assignment for auditing.
    """
    if order < 1 or order > num_fields:
        raise ValueError(f"order must be in [1, {num_fields}], got {order}")
    if cardinality < 2:
        raise ValueError(f"cardinality must be >= 2, got {cardinality}")

    latents = []
    for _ in range(num_fields):
        vals = [1] * ((cardinality + 1) // 2) + [-1] * (cardinality // 2)
        rng.shuffle(vals)
        latents.append(np.array(vals, dtype=np.int64))

    cats = rng.integers(cardinality, size=(rows, num_fields))
    signs = np.ones(rows, dtype=np.int64)
    for j in range(order):
        signs *= latents[j][cats[:, j]]
    labels = (signs > 0).astype(np.int64)
    flips = rng.random(rows) < SYNTH_NOISE
    labels = np.where(flips, 1 - labels, labels)

    # every record refers to one string per column name, token and label
    names = [f"f{j}" for j in range(num_fields)]
    tokens = [f"v{c}" for c in range(cardinality)]
    columns, label_tokens = [*names, LABEL_COLUMN], ("0", "1")
    records = [dict(zip(columns, [*map(tokens.__getitem__, row), label_tokens[y]]))
               for row, y in zip(cats.tolist(), labels.tolist())]

    truth = {
        "order": order,
        "noise": SYNTH_NOISE,
        "latents": {name: dict(zip(tokens, latent.tolist()))
                    for name, latent in zip(names, latents)},
    }
    return records, truth


def read_csv(path) -> tuple[list[str], list[dict]]:
    """Read an RFC 4180 CSV with a header row into (columns, records), as
    ``csv.DictReader`` would: blank lines are skipped, and with a repeated
    column name the last value wins. Every record is keyed by the header's
    strings, and equal values in a column are one string object."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            columns = next(reader, None)
            if columns is None:
                raise DataError(f"{path}: empty file, expected a header row")
            seen = [{} for _ in columns]  # per column, each distinct value's first string
            records = []
            for row in filter(None, reader):
                if len(row) != len(columns):
                    raise DataError(f"{path}: row {reader.line_num}: wrong number of columns")
                records.append(dict(zip(columns, map(dict.setdefault, seen, row, row))))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return columns, records


@contextlib.contextmanager
def atomic_open(path, mode: str, **kwargs):
    """A file opened for writing under a new name beside ``path``, which replaces
    ``path`` once the block ends without an exception; on an exception it is removed
    and ``path`` keeps what it held."""
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, columns: list[str], records: list[dict]) -> None:
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)


def write_float_table(fh, header: list[str], rows, names=None) -> None:
    """Write ``header``, then one line per row of floats in ``.17g``, which reads
    back as the same float64, to ``fh``, a text file from ``atomic_open(path, "w",
    encoding="utf-8", newline="")``; with ``names`` each line starts with its row's
    name."""
    fh.write(",".join(header) + "\n")
    for i, row in enumerate(rows):
        line = ",".join(f"{v:.17g}" for v in row)
        fh.write(f"{line}\n" if names is None else f"{names[i]},{line}\n")
