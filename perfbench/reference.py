"""Fixed computations, independent of fcn_ctr, that gauge machine speed.

The benchmark shares its machine with other work, and the machine's speed
drifts by 20-40% over seconds to minutes; a whole process can also run in a
slow or a fast state. So the benchmark times small reference computations in
the same process and scales its timings by how fast they ran. They follow
the kinds of code the program spends its time in:

- ``tiny``: a 2-row cross network in plain numpy, 5 passes (about 0.5 ms),
  where per-call overhead dominates, as in a batch-1 request;
- ``tiny_long``: the same network, 200 passes (about 12 ms), for operations
  of tens of milliseconds such as one 2-row gradient audit. The 10th
  percentile of a short reference catches the fast moments of a busy spell,
  which such operations are too long to catch;
- ``stream``: elementwise passes over 4096x128 float64 arrays, as in the
  cross layers at batch 4096;
- ``python``: a per-cell loop over small dict records into an id matrix, as
  in ``build_schema`` and ``encode``, which dominate set-up.

Each workload names the round references that match its operations; they
run at operation boundaries through the measured loop and scale the round
time. ``python`` runs just before and just after each set-up repeat and
scales that repeat alone, because set-up is short and Python-bound and its
speed follows the moment it ran in.

A change to the program does not change the references. A change that
leaves work running between operations would slow them and so flatter the
scaled figures; the unscaled ones are reported beside them.
"""

from __future__ import annotations

import time

import numpy as np

# Each reference's 10th-percentile time, in ms, on the machine the benchmark
# was tuned on (2 vCPUs, OpenBLAS 0.3.31, numpy 2.4.6). They only set the
# scale: scaled figures read as times on that machine at its usual speed.
NOMINAL_MS = {"tiny": 0.45, "tiny_long": 12.0, "stream": 2.0}
NOMINAL_PYTHON_MS = 4.5

# How often the round references run, at operation boundaries.
EVERY_S = 0.2

_PY_ROWS, _PY_FIELDS = 2000, 8


class Reference:
    def __init__(self, kinds: tuple[str, ...]):
        g = np.random.default_rng(0)
        self.kinds = kinds
        self._x2 = g.standard_normal((2, 8))
        self._layers = [(g.standard_normal((4, 8)), g.standard_normal(4)) for _ in range(3)]
        self._head = g.standard_normal(8)
        self._x = g.standard_normal((4096, 128))
        self._y = g.standard_normal((4096, 128))
        self._buf = np.empty((4096, 128))
        self._names = [f"f{j}" for j in range(_PY_FIELDS)]
        self._records = [dict(zip(self._names, map(str, row)))
                         for row in g.integers(0, 50, (_PY_ROWS, _PY_FIELDS)).tolist()]
        self._vocabs = [{str(i): i + 1 for i in range(50)} for _ in range(_PY_FIELDS)]
        self.samples: dict[str, list[float]] = {k: [] for k in self.kinds}

    def _tiny(self, passes: int = 5):
        # a 2-row, 3-layer cross network written out in plain numpy
        for _ in range(passes):
            x = self._x2
            for w, b in self._layers:
                c = x @ w.T + b
                centered = c - c.mean(axis=1)[:, None]
                std = np.sqrt((centered * centered).mean(axis=1))
                nrm = centered / np.maximum(std, 1e-5)[:, None]
                gate = np.concatenate([c, c * np.where(nrm > 0.0, nrm, 0.0)], axis=1)
                x = x * gate + x
            float((x @ self._head).sum())

    def _tiny_long(self):
        self._tiny(200)

    def _stream(self):
        np.multiply(self._x, self._y, out=self._buf)
        np.add(self._buf, self._x, out=self._buf)

    def _python(self):
        ids = np.zeros((_PY_ROWS, _PY_FIELDS), dtype=np.int64)
        for i, record in enumerate(self._records):
            for j, name in enumerate(self._names):
                ids[i, j] = self._vocabs[j].get(record[name].strip(), 0)

    def run(self) -> None:
        for kind in self.kinds:
            fn = getattr(self, "_" + kind)
            t0 = time.perf_counter()
            fn()
            self.samples[kind].append(time.perf_counter() - t0)

    def ms_p10(self, kind: str) -> float:
        s = self.samples[kind]
        return float(np.percentile(s, 10)) * 1e3 if s else NOMINAL_MS[kind]

    def scale(self) -> float:
        """Multiply a round duration measured in this run by this to get it
        at the usual speed of the tuning machine."""
        return sum(NOMINAL_MS[k] for k in self.kinds) / sum(self.ms_p10(k) for k in self.kinds)

    def python_ms(self) -> float:
        """The python reference now: the best of three, in ms."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            self._python()
            best = min(best, time.perf_counter() - t0)
        return best * 1e3
