"""Fixtures shared by the test modules."""

import builtins

import numpy as np
import pytest

import fcn_ctr.features as features_mod
from fcn_ctr.features import FieldSpec
import fcn_ctr.verification as verification_mod


@pytest.fixture
def flip_bias_gradient(monkeypatch):
    """Call the returned function to corrupt the gradient audit's backward
    pass: from then on it flips the sign of the first cross-layer bias
    gradient, a fault the audit must catch."""
    backward = verification_mod.backward

    def flipped(*args, **kwargs):
        grads = backward(*args, **kwargs)
        (grads.ecn_layers or grads.lcn_layers)[0].b *= -1.0
        return grads

    return lambda: monkeypatch.setattr(verification_mod, "backward", flipped)


@pytest.fixture
def nan_gradient(monkeypatch):
    """Call the returned function to make the gradient audit's backward pass
    return NaN for every dense gradient, a fault the audit must catch."""
    backward = verification_mod.backward

    def poisoned(*args, **kwargs):
        grads = backward(*args, **kwargs)
        grads.dense.fill(np.nan)
        return grads

    return lambda: monkeypatch.setattr(verification_mod, "backward", poisoned)


class HalfWrite:
    """A file whose first write writes half of its data, then raises ``OSError``
    (a disk that fills up partway through a save)."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def fail_writes_from(monkeypatch, first: int) -> None:
    """Files that ``features`` opens for writing fail as ``HalfWrite`` from the
    ``first``-th on, counting from 1; the ones before write as usual."""
    opened = 0

    def fake_open(path, mode="r", **kwargs):
        nonlocal opened
        fh = builtins.open(path, mode, **kwargs)
        if "w" not in mode:
            return fh
        opened += 1
        return HalfWrite(fh) if opened >= first else fh

    monkeypatch.setattr(features_mod, "open", fake_open, raising=False)


@pytest.fixture
def failing_writes(monkeypatch):
    """Every file that ``features`` opens for writing fails as ``HalfWrite``."""
    fail_writes_from(monkeypatch, 1)


@pytest.fixture
def failing_second_write(monkeypatch):
    """The first file that ``features`` opens for writing is written; every later
    one fails as ``HalfWrite``."""
    fail_writes_from(monkeypatch, 2)


CRITEO_NUMERIC = ("I1", "I2", "I3")
CRITEO_CATEGORICAL = ("C1", "C2", "C3", "C4", "C5")


@pytest.fixture
def criteo_shaped():
    """``make(n, seed)``: n raw records shaped like Criteo's columns, with a label:
    heavy-tailed integer counts with 10% empty and a few ``nan``, ``1e400``
    (inf as a float) and ``2.5e3`` cells, and Zipf-skewed hashed categoricals;
    and their field specs, under which a categorical token seen once is OOV."""

    def make(n: int, seed: int) -> tuple[list[dict], list[FieldSpec]]:
        g = np.random.default_rng(seed)
        columns = {}
        for j, name in enumerate(CRITEO_NUMERIC):
            cells = np.floor(g.lognormal(1.0 + j, 1.5, n)).astype(np.int64).astype(str)
            cells = cells.astype(object)
            cells[g.random(n) < 0.1] = ""
            for odd in ("nan", "1e400", "2.5e3"):
                cells[g.random(n) < 0.01] = odd
            columns[name] = cells
        for j, name in enumerate(CRITEO_CATEGORICAL):
            ranks = g.zipf(1.2, n) % 5000
            columns[name] = np.char.mod("%08x", ranks * 2654435761 % (1 << 32) + j).astype(object)
        columns["label"] = (g.random(n) < 0.25).astype(np.int64).astype(str).astype(object)
        specs = ([FieldSpec(name, "numeric") for name in CRITEO_NUMERIC]
                 + [FieldSpec(name, min_count=2) for name in CRITEO_CATEGORICAL])
        return [dict(zip(columns, row)) for row in zip(*columns.values())], specs

    return make
