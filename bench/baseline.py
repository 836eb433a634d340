"""Reference timings behind the roadmap baseline; reported, never gated.

Runs the default ``opsyscheck suite`` once, then the public calls that
acceptance criteria 2, 3, 4 and 7 make, with the arguments those criteria
use.  The criteria's own assertions are not repeated: this measures time
against each criterion's budget only.  Run through ``run.py --baseline``.
"""

from __future__ import annotations

import time

import numpy as np

from opsyscheck import (
    MapId,
    MapKind,
    SystemId,
    boundary_margin,
    check_positivity_preserving,
    embed,
    estimate_map_norm,
    is_positive_by_criterion,
    swap_bound_domination,
)
from opsyscheck.cli import main
from opsyscheck.systems import LEMMA_KINDS, _draw_element, _draw_positive

BUDGETS_S = {"2": 30.0, "3": 30.0, "4": 20.0, "7": 30.0}


def criterion_2() -> None:
    for n in (2, 3, 4):
        estimate_map_norm(MapId(MapKind.OFFDIAG_SWAP_COMPLEX, n), restarts=200, rng_seed=0)
    for n in (2, 3, 4):
        swap_bound_domination(n, samples=10_000, rng_seed=0)


def criterion_3() -> None:
    for kind, sizes in ((MapKind.QUARTER_TRANSPOSE, (2, 5, 6, 8)), (MapKind.OFFDIAG_SWAP, (2, 4))):
        for n in sizes:
            estimate_map_norm(MapId(kind, n), restarts=50, rng_seed=0)


def criterion_4() -> None:
    for kind in LEMMA_KINDS:
        rng = np.random.default_rng(0)
        systems = [SystemId(kind, n) for n in range(1, 7)]
        for t in range(10_000):
            s = systems[t % 6]
            e = _draw_positive(s, rng) if t % 2 else _draw_element(s, rng, 1.0)
            if boundary_margin(e) <= 1e-6:
                continue
            M = embed(e)
            H = (M + M.conj().T) / 2.0
            np.linalg.eigvalsh(H)
            is_positive_by_criterion(e)


def criterion_7() -> None:
    positive = (
        MapKind.QUARTER_TRANSPOSE,
        MapKind.OFFDIAG_SWAP,
        MapKind.OFFDIAG_SWAP_COMPLEX,
        MapKind.CORNER_TRANSPOSE,
        MapKind.CORNER_TRANSPOSE_FULL,
    )
    for kind in positive:
        for n in (2, 4):
            check_positivity_preserving(MapId(kind, n), trials=10_000, rng_seed=0)
    for n in (2, 3, 4, 5, 8):
        check_positivity_preserving(MapId(MapKind.BLOCK_TRANSPOSE, n), trials=50, rng_seed=0)


def run(seed: int, out_dir) -> dict:
    start = time.perf_counter()
    code = main(["suite", "--output", "json", "--output-path", str(out_dir / "report0.json"), "--seed", str(seed)])
    suite_wall = time.perf_counter() - start
    suite_end_ns = time.perf_counter_ns()
    criteria = {}
    for name, fn in (("2", criterion_2), ("3", criterion_3), ("4", criterion_4), ("7", criterion_7)):
        start = time.perf_counter()
        fn()
        criteria[name] = {"seconds": time.perf_counter() - start, "budget_s": BUDGETS_S[name]}
    return {"codes": [code], "walls": [suite_wall], "suite_end_ns": suite_end_ns, "criteria": criteria}
