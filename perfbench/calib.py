"""Frozen calibration kernels.

Each kernel does a fixed amount of the same kind of work as one part of
the benchmark (a library layer, or the library's import) and imports
nothing from `tuhyper`, so no change to the library can make it faster or
slower.  A measured interval is bracketed by kernel runs;
its calibrated time is its raw time scaled by ``nominal / measured kernel``.
This cancels the host's slow and fast phases (see README.md).

Do not edit the kernels or their nominal times: every calibrated figure the
benchmark reports is expressed in their units.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Search graph for the interpreted kernel: a 4x4 grid plus two chords, as
# size-2 edge bitmasks.
_GRID_W = 4
_EDGES: list[int] = []
for _i in range(_GRID_W):
    for _j in range(_GRID_W):
        _v = _i * _GRID_W + _j
        if _j + 1 < _GRID_W:
            _EDGES.append((1 << _v) | (1 << (_v + 1)))
        if _i + 1 < _GRID_W:
            _EDGES.append((1 << _v) | (1 << (_v + _GRID_W)))
_EDGES += [(1 << 0) | (1 << 5), (1 << 10) | (1 << 15)]
_N = _GRID_W * _GRID_W
_CYCLE_LENGTH = 5


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bitmask_search() -> int:
    """Count anchored cycles of one length by generator-based backtracking.

    The same style of work as the library's odd-cycle and tree-house
    searches: recursive generators, list concatenation, bitmask tests.
    """
    m = len(_EDGES)
    k = _CYCLE_LENGTH
    found = 0
    for anchor in range(_N):
        abit = 1 << anchor

        def grow(vs, ids, umask, forbid):
            c = vs[-1]
            cbit = 1 << c
            if len(vs) == k:
                for eid in range(m):
                    if eid not in ids and _EDGES[eid] & umask == cbit | abit:
                        yield vs
                return
            for eid in range(m):
                if eid in ids or _EDGES[eid] & umask != cbit:
                    continue
                for u in _bits(_EDGES[eid] & ~umask & ~forbid):
                    if u > anchor:
                        yield from grow(vs + [u], ids + [eid], umask | (1 << u),
                                        forbid | _EDGES[eid])

        for _ in grow([anchor], [], abit, 0):
            found += 1
    return found


_STACK = np.random.default_rng(20241116).integers(-1, 2, size=(1000, 7, 7), dtype=np.int64)


def int64_elimination() -> int:
    """Fraction-free elimination over a fixed int64 stack of 7x7 matrices.

    The same style of work as the library's batched subdeterminant
    enumeration: vectorised int64 arithmetic over a stack of small matrices.
    """
    a = _STACK.copy()
    b, n, _ = a.shape
    prev = np.ones(b, dtype=np.int64)
    alive = np.ones(b, dtype=bool)
    for i in range(n):
        nz = a[:, i:, i] != 0
        alive &= nz.any(axis=1)
        rel = nz.argmax(axis=1)
        need = np.nonzero(alive & (rel > 0))[0]
        if need.size:
            j = rel[need] + i
            tmp = a[need, j].copy()
            a[need, j] = a[need, i]
            a[need, i] = tmp
        if i < n - 1:
            pivot = np.where(alive, a[:, i, i], 1)
            a[:, i + 1:, i + 1:] = (
                a[:, i + 1:, i + 1:] * pivot[:, None, None]
                - a[:, i + 1:, i, None] * a[:, i, None, i + 1:]
            ) // prev[:, None, None]
            prev = pivot
    return int(np.abs(np.where(alive, a[:, n - 1, n - 1], 0)).sum())


def interpreter_start() -> int:
    """Start a fresh interpreter that imports numpy, and wait for it to end.

    The same kind of work as importing the library in a fresh process:
    process creation, interpreter start-up and numpy's import.
    """
    return subprocess.run([sys.executable, "-c", "import numpy"], check=False).returncode


# name -> (kernel, its result, nominal seconds)
KERNELS = {
    "bitmask": (bitmask_search, 8, 0.002),
    "int64": (int64_elimination, 10717, 0.004),
    "interpreter": (interpreter_start, 0, 0.2),
}


class Calibrator:
    """Times one kernel and turns raw seconds into calibrated seconds."""

    def __init__(self, name: str):
        self.name = name
        self.kernel, self.result, self.nominal = KERNELS[name]
        self.probes: list[float] = []

    def probe(self) -> float:
        """Run the kernel once; return its wall time in seconds."""
        t0 = time.perf_counter()
        got = self.kernel()
        dt = time.perf_counter() - t0
        if got != self.result:
            raise RuntimeError(f"calibration kernel {self.name} returned {got}, not {self.result}")
        self.probes.append(dt)
        return dt

    def factor(self, before: float, after: float) -> float:
        """Scale for an interval bracketed by two probes.

        The mean of the two tracks the host best: on this kind of host, 10-s
        windows of one repeated operation agreed within 0.8% (standard
        deviation) with the mean, against 3% with the faster probe alone.
        """
        return 2.0 * self.nominal / (before + after)
