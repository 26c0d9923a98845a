"""Deterministic random streams, parameter initialization, finite differences.

Conventions used across the package: vectors are 1-D numpy arrays, matrices
2-D row-major arrays, and a stack of K of either leads with a K axis. Model
arrays take the params' dtype: training runs in float32 (from float64 draws
cast once), loaded checkpoints, scoring and the oracles in float64. Uniforms
are float64 whatever the dtype, so every stream is the same. Every function
here is pure over caller-owned buffers and safe to call concurrently; ``Rng``
instances are single-owner and must not be shared between threads. A thread
gets its own ``Rng`` from ``Rng.split``, which hands it a stretch of the
stream exactly where the owner would have drawn it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_M64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One output of the splitmix64 sequence started at state ``x``."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _fnv1a64(s: str) -> int:
    h = 0xCBF29CE484222325
    for b in s.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _M64
    return h


def derive_seed(seed: int, stream: str) -> int:
    """Split one run seed into an independent child seed for a named stream.

    ``child = splitmix64(splitmix64(seed) XOR fnv1a64(stream))``. The named
    streams used by this package are ``"init"``, ``"shuffle"``, ``"dropout"``,
    and ``"synth"``; frozen values for common inputs live in the test suite so
    the scheme cannot drift silently.
    """
    return _splitmix64(_splitmix64(seed & _M64) ^ _fnv1a64(stream))


class Rng:
    """Deterministic random source backed by the counter-based Philox4x64-10.

    The raw 64-bit word stream for a given seed is fixed by the Philox
    definition and identical across platforms and numpy releases (numpy
    guarantees bit-generator stream stability); test vectors are frozen in
    ``tests/test_numerics.py``. Identical seed implies identical output
    stream. One instance per owner.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _M64
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def random(self, size=None, out: np.ndarray | None = None) -> np.ndarray:
        """Uniform float64 draws in [0, 1), one raw word each, into ``out``
        (of shape ``size``) when given: the same words either way."""
        return self._gen.random(size, out=out)

    def split(self, words: int) -> "Rng":
        """A copy of this stream at its current position, while this stream
        moves on by ``words`` raw words as if it had drawn them, so another
        thread can draw exactly those words from the copy. Philox is
        counter-based: after the rest of its 4-word buffer, whole blocks are
        skipped with ``advance`` (which empties the buffer), then the
        remainder is drawn."""
        bg = self._gen.bit_generator
        state = bg.state
        copy = Rng(self.seed)
        copy._gen.bit_generator.state = state
        buffered = min(words, 4 - state["buffer_pos"])
        bg.random_raw(buffered)
        rest = words - buffered
        if rest:
            bg.advance(rest // 4)
            bg.random_raw(rest % 4)
        return copy

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def standard_normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def integers(self, n: int, size=None) -> np.ndarray:
        """Uniform integers in [0, n)."""
        return self._gen.integers(0, n, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle of a Python list."""
        for i in range(len(seq) - 1, 0, -1):
            j = int(self._gen.integers(0, i + 1))
            seq[i], seq[j] = seq[j], seq[i]


def init_params(shape: tuple, rng: Rng, fan_in: int | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """A parameter tensor drawn i.i.d. from U(-1/sqrt(fan_in), +1/sqrt(fan_in)),
    where ``fan_in`` defaults to the last dimension for matrices and to the
    length for vectors, into ``out`` (C-contiguous float64 of ``shape``) when
    given. Draws are deterministic under a fixed ``rng`` seed: each value is
    ``rng.uniform``'s -bound + 2 bound u of one word, either way.
    """
    if any(s <= 0 for s in shape):
        raise ValueError(f"init_params: non-positive shape {shape}")
    bound = 1.0 / np.sqrt(shape[-1] if fan_in is None else fan_in)
    out = rng.random(shape, out)
    out *= 2 * bound
    out -= bound
    return out


def finite_diff_grad(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                     h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient ``(f(x + h e_i) - f(x - h e_i)) / 2h``.

    The workhorse oracle for auditing hand-derived gradients. ``f`` maps a
    (K, P) stack of points to their K values, and is called once, on the 2P
    probes: the rows x + h e_i, then the rows x - h e_i. Raises on any
    non-finite evaluation of ``f``.
    """
    if h <= 0:
        raise ValueError(f"finite_diff_grad: step must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    p, i = x.shape[0], np.arange(x.shape[0])
    probes = np.tile(x, (2 * p, 1))
    probes[i, i] += h
    probes[p + i, i] -= h
    fp, fm = np.asarray(f(probes), dtype=np.float64).reshape(2, p)
    bad = ~(np.isfinite(fp) & np.isfinite(fm))
    if bad.any():
        raise ValueError(f"finite_diff_grad: non-finite evaluation at coordinate "
                         f"{int(bad.argmax())}")
    return (fp - fm) / (2.0 * h)
