"""Reference kernel that measures how fast the machine runs right now.

On a shared host the same code runs up to a third slower or faster from one
minute to the next, and process CPU time moves with wall time, so neither
tells a slower program from a slower machine.  run.py times this fixed
kernel before each invocation of a workload and after the last, while the
worker waits, and rescales the workload's times to a machine on which the
kernel takes ``NOMINAL_S`` seconds.  The kernel does not use opsyscheck and
its inputs never change, so a change of the program moves the calibrated
times and a change of the machine's speed does not.

The kernel mixes, in about equal shares, the kinds of work the workloads
do, because the host's swings slow them by different amounts: Python loops
(claim building, Nelder-Mead bookkeeping), tiny Hermitian eigensolves
(membership checks), 32x32 to 64x64 ones (certificates), and Python-level
lookups into a table larger than the core's 4 MiB L2 cache, like the
interpreter's walks over the objects of scipy and of the claim reports.  On
a 2-vCPU Xeon guest, a kernel of the cache-resident parts alone swung 1.1 to
1.4 times as much as the norm-search workload.  The kernel runs in the
benchmark's own process, so its table does not count towards the workload's
peak memory.
"""

from __future__ import annotations

import random
import time

import numpy as np

NOMINAL_S = 0.1  # calibrated times are seconds on a machine where one kernel pass takes this long
# Sizes of the four parts, each about a quarter of a pass.
LOOP_ROUNDS = 60
TINY_ROUNDS = 200
MEDIUM_ROUNDS = 24
TABLE_SIZE = 200_000  # about 20 MB of dict and objects
LOOKUPS = 40_000


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g + g.conj().T


def _inputs():
    rng = np.random.default_rng(20220418)
    tiny = [_hermitian(rng, n) for n in (2, 4, 8, 16)]
    medium = [_hermitian(rng, n) for n in (32, 48, 64)]
    table = {i * 7919: float(i) for i in range(TABLE_SIZE)}
    pick = random.Random(7919)
    keys = [pick.randrange(TABLE_SIZE) * 7919 for _ in range(LOOKUPS)]
    return tiny, medium, table, keys


_TINY, _MEDIUM, _TABLE, _KEYS = _inputs()


def _python_work(k: int) -> float:
    counts: dict[int, float] = {}
    items = []
    for j in range(400):
        key = (j * 7 + k) % 31
        counts[key] = counts.get(key, 0.0) + j * 0.5
        items.append((key, f"id.{key}"))
    items.sort()
    return sum(counts.values()) + len(items)


def kernel_seconds() -> float:
    """Time one pass of the reference kernel (CPU-bound, single thread)."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(LOOP_ROUNDS):
        acc += _python_work(k)
    for _ in range(TINY_ROUNDS):
        for m in _TINY:
            acc += float(np.linalg.eigvalsh(m)[-1]) + float(np.abs(m @ m).sum())
    for _ in range(MEDIUM_ROUNDS):
        for m in _MEDIUM:
            acc += float(np.linalg.eigvalsh(m)[-1])
    for key in _KEYS:
        acc += _TABLE[key]
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite value")
    return elapsed
