"""Unit tests for the six block maps: action, norms, positivity, identities."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from opsyscheck import (
    DomainViolationError,
    Field,
    MapId,
    MapKind,
    NonFiniteError,
    PreconditionError,
    ScalarDiagonalElement,
    SystemId,
    SystemKind,
    apply,
    block2x2,
    block_transpose,
    char_poly_swap_check,
    check_positivity_preserving,
    check_structural,
    complex_swap_witness,
    corner_square_identities,
    corner_witness,
    embed,
    estimate_map_norm,
    hermitian_eigenvalues,
    is_psd,
    kadison_schwarz_check,
    offdiag_swap_norm_bound,
    operator_norm,
    quarter_transpose_witness_norm,
    swap_bc_singular_check,
    swap_bound_domination,
)
from opsyscheck import maps
from opsyscheck.maps import (
    _FIRST_STEP,
    _P_BASE,
    _P_STAGES,
    _STAGE_END_STEP,
    _STAGE_STEPS,
    _STATIONARY,
    _blockwise,
    _schatten,
    _spectral_norms,
    _structured_starts,
)
from opsyscheck.systems import _draw_element, _draw_full, _draw_positive, project

ALL_MAPS = list(MapKind)
POSITIVE_MAPS = [
    MapKind.QUARTER_TRANSPOSE,
    MapKind.OFFDIAG_SWAP,
    MapKind.OFFDIAG_SWAP_COMPLEX,
    MapKind.CORNER_TRANSPOSE,
    MapKind.CORNER_TRANSPOSE_FULL,
]


def test_map_tokens():
    assert {m.token for m in ALL_MAPS} == {
        "phi",
        "upsilon",
        "upsilon-prime",
        "gamma",
        "psi-transpose",
        "psi-real-ext",
    }
    assert MapKind.QUARTER_TRANSPOSE.domain_kind is SystemKind.SCALAR_DIAGONAL
    assert MapKind.BLOCK_TRANSPOSE.domain_kind is None
    assert MapId(MapKind.OFFDIAG_SWAP, 3).domain == SystemId(SystemKind.TRANSPOSE_PAIRED, 3)
    assert MapId(MapKind.BLOCK_TRANSPOSE, 3).domain is None


def test_block_transpose_involution():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert np.array_equal(block_transpose(block_transpose(M)), M)


def test_golden_pair_frozen_values():
    """The 4 x 4 witness pair: spectra {0,0,3,3} -> {0,1,1,4}, norms sqrt(3) -> 2."""
    M, N = complex_swap_witness()
    assert M.shape == (4, 4) and N.shape == (4, 4)
    expect_M = np.array(
        [
            [1, 0, 1, 0],
            [0, 1, 1j, 0],
            [1, 1j, 0, 0],
            [0, 0, 0, 0],
        ],
        dtype=np.complex128,
    )
    expect_N = np.array(
        [
            [1, 0, 1, 1j],
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [1j, 0, 0, 0],
        ],
        dtype=np.complex128,
    )
    assert np.array_equal(M, expect_M)
    assert np.array_equal(N, expect_N)
    eig_in = np.sort(np.linalg.eigvalsh(M.conj().T @ M))
    eig_out = np.sort(np.linalg.eigvalsh(N.conj().T @ N))
    assert np.abs(eig_in - np.array([0.0, 0.0, 3.0, 3.0])).max() < 1e-10
    assert np.abs(eig_out - np.array([0.0, 1.0, 1.0, 4.0])).max() < 1e-10
    assert abs(operator_norm(M) - math.sqrt(3.0)) < 1e-12
    assert abs(operator_norm(N) - 2.0) < 1e-12


def test_golden_pair_is_the_map_image():
    """The rule table and layout send the paper's M to the paper's N, frozen by hand."""
    expect_N = np.array(
        [
            [1, 0, 1, 1j],
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [1j, 0, 0, 0],
        ],
        dtype=np.complex128,
    )
    M, N = complex_swap_witness()
    out = apply(MapId(MapKind.OFFDIAG_SWAP_COMPLEX, 2), M)
    assert np.array_equal(out, expect_N)
    assert np.array_equal(N, expect_N)


def test_apply_membership_gate():
    m = MapId(MapKind.QUARTER_TRANSPOSE, 2)
    with pytest.raises(DomainViolationError):
        apply(m, np.arange(16.0).reshape(4, 4))
    m_real = MapId(MapKind.CORNER_TRANSPOSE_FULL, 2)
    with pytest.raises(DomainViolationError):
        apply(m_real, 1j * np.eye(4))


def golden_case(kind: MapKind) -> tuple[np.ndarray, np.ndarray]:
    """(input, image) of the map at n = 2 on one fixed input, in its domain
    when it has one, with no symmetric block.  The image is written out
    block by block from the map's definition, not read from the rule
    table.  Entries are small Gaussian integers, so the quartered blocks
    are exact; complex maps get complex entries, so a conjugating rule
    shows too."""
    A, B, C, D = (np.arange(k, k + 4, dtype=float).reshape(2, 2) for k in (1, 5, 9, 13))
    if kind.field is Field.COMPLEX:
        A, B, C, D = A + 1j * B, B - 2j * C, C + 3j * D, D - 1j * A
    a, b, c, d = (2.0, 3.0, 5.0, 7.0) if kind.field is Field.REAL else (2 + 1j, 3 - 2j, 5 + 1j, 7 - 3j)
    I = np.eye(2)
    cases = {
        MapKind.QUARTER_TRANSPOSE: ((a * I, B, C, d * I), (a * I, B.T / 4, C.T / 4, d * I)),
        MapKind.OFFDIAG_SWAP: ((a * I, B, B.T, d * I), (a * I, B.T, B, d * I)),
        MapKind.OFFDIAG_SWAP_COMPLEX: ((a * I, B, B.T, d * I), (a * I, B.T, B, d * I)),
        MapKind.CORNER_TRANSPOSE: ((A, b * I, c * I, d * I), (A.T, b * I, c * I, d * I)),
        MapKind.BLOCK_TRANSPOSE: ((A, B, C, D), (A.T, B.T, C.T, D.T)),
        MapKind.CORNER_TRANSPOSE_FULL: ((A, B, C, D), (A.T, B, C, D)),
    }
    x, image = cases[kind]
    return block2x2(*x), block2x2(*image)


@pytest.mark.parametrize("kind", ALL_MAPS)
def test_rule_gives_the_definition_block_by_block(kind):
    x, image = golden_case(kind)
    out = apply(MapId(kind, 2), x)
    assert out.dtype == image.dtype
    assert np.array_equal(out, image)


def test_swap_maps_are_involutions_on_domain():
    for kind in (MapKind.OFFDIAG_SWAP, MapKind.OFFDIAG_SWAP_COMPLEX, MapKind.CORNER_TRANSPOSE):
        m = MapId(kind, 3)
        for seed in range(5):
            M = embed(_draw_element(m.domain, np.random.default_rng(seed), 1.0))
            assert np.array_equal(apply(m, apply(m, M)), M)


@pytest.mark.parametrize("kind", ALL_MAPS)
def test_structural_checks_pass(kind):
    rep = check_structural(MapId(kind, 3), trials=25, rng_seed=0)
    assert rep.passed
    assert rep.unital_residual == 0.0
    assert rep.self_adjoint_failures == 0
    assert rep.linear_failures == 0
    assert rep.linear_worst < 1e-9


def test_corner_witness_spectra():
    W = corner_witness(2)
    assert np.abs(hermitian_eigenvalues(W) - np.array([0.0, 0.0, 0.0, 2.0])).max() < 1e-12
    out = block_transpose(W)
    assert np.abs(hermitian_eigenvalues(out) - np.array([-1.0, 1.0, 1.0, 1.0])).max() < 1e-12
    with pytest.raises(ValueError):
        corner_witness(1)


@pytest.mark.parametrize("kind", POSITIVE_MAPS)
def test_positivity_preserved(kind):
    rep = check_positivity_preserving(MapId(kind, 3), trials=250, rng_seed=0)
    assert rep.violations == ()
    assert rep.trials == 250


def test_block_transpose_violates_positivity():
    rep = check_positivity_preserving(MapId(MapKind.BLOCK_TRANSPOSE, 2), trials=50, rng_seed=0)
    assert len(rep.violations) >= 1
    first = rep.violations[0]
    # the corner witness is probed first and its image has eigenvalue -1
    assert first.trial == 0
    assert abs(first.min_eigenvalue + 1.0) < 1e-10
    assert rep.min_output_eigenvalue <= -1.0 + 1e-10


def test_positivity_report_caps_stored_witnesses():
    rep = check_positivity_preserving(MapId(MapKind.BLOCK_TRANSPOSE, 2), trials=400, rng_seed=0)
    assert rep.violation_count > len(rep.violations)
    assert len(rep.violations) <= 16


@pytest.mark.parametrize("n", [2, 17])
def test_stored_violations_come_in_trial_order_as_copies(n):
    # at n = 17 a stack holds 28 trials, so 200 trials span several stacks
    m = MapId(MapKind.BLOCK_TRANSPOSE, n)
    rep = check_positivity_preserving(m, trials=200, rng_seed=0)
    assert len(rep.violations) == 16 and rep.violation_count > 16
    trials = [v.trial for v in rep.violations]
    assert trials[0] == 0 and trials == sorted(set(trials))
    assert np.array_equal(rep.violations[0].input, corner_witness(n))
    arrays = [x for v in rep.violations for x in (v.input, v.output)]
    for i, x in enumerate(arrays):
        assert x.shape == (2 * n, 2 * n) and x.base is None
        assert not any(np.shares_memory(x, y) for y in arrays[i + 1 :])
    for v in rep.violations:
        # each stored violation is what the single-matrix calls give on its input
        out = apply(m, v.input)
        verdict = is_psd(out)
        assert np.array_equal(out, v.output)
        assert not verdict.is_psd and verdict.min_eigenvalue == v.min_eigenvalue
        assert verdict.hermiticity_defect == v.hermiticity_defect


@pytest.mark.parametrize(
    "kind,n,expected",
    [
        (MapKind.QUARTER_TRANSPOSE, 2, 1.0),
        (MapKind.OFFDIAG_SWAP, 2, 1.0),
        (MapKind.OFFDIAG_SWAP_COMPLEX, 2, 2.0 / math.sqrt(3.0)),
        (MapKind.CORNER_TRANSPOSE, 2, 1.0),
    ],
)
def test_norm_estimates_hit_closed_forms(kind, n, expected):
    est = estimate_map_norm(MapId(kind, n), restarts=8, rng_seed=0)
    assert abs(est.lower_bound - expected) < 1e-7
    assert est.lower_bound <= expected + 1e-9


def test_norm_estimate_witness_invariants():
    est = estimate_map_norm(MapId(MapKind.OFFDIAG_SWAP_COMPLEX, 2), restarts=6, rng_seed=0)
    W = est.witness
    assert abs(operator_norm(W) - 1.0) < 1e-9
    img = apply(MapId(MapKind.OFFDIAG_SWAP_COMPLEX, 2), W)
    assert abs(operator_norm(img) - est.lower_bound) < 1e-9


@pytest.mark.parametrize(
    "kind,n", [(MapKind.OFFDIAG_SWAP_COMPLEX, 3), (MapKind.QUARTER_TRANSPOSE, 5)]
)
def test_norm_estimate_is_bit_reproducible(kind, n):
    # norm reports must give byte-identical claim arrays across runs
    first = estimate_map_norm(MapId(kind, n), restarts=20, rng_seed=3)
    second = estimate_map_norm(MapId(kind, n), restarts=20, rng_seed=3)
    assert first.lower_bound == second.lower_bound
    assert first.witness.dtype == second.witness.dtype
    assert first.witness.tobytes() == second.witness.tobytes()


@pytest.mark.parametrize("kind", [MapKind.BLOCK_TRANSPOSE, MapKind.CORNER_TRANSPOSE_FULL])
def test_norm_search_needs_a_domain(kind):
    with pytest.raises(ValueError, match="domain"):
        estimate_map_norm(MapId(kind, 2), restarts=3, rng_seed=0)


def _stack(rng, k, size, cplx):
    Y = rng.normal(size=(k, size, size))
    return Y + 1j * rng.normal(size=(k, size, size)) if cplx else Y


@pytest.mark.parametrize("cplx", [False, True])
def test_spectral_norms_match_singular_values(cplx):
    rng = np.random.default_rng(11)
    M = _stack(rng, 6, 5, cplx)
    M[2] = 0.0
    M[4] *= 1e-6
    want = np.linalg.svd(M, compute_uv=False)[..., 0]
    got = _spectral_norms(M)
    assert got.shape == (6,) and got[2] == 0.0
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def _schatten_by_svd(Y, p):
    # the full-SVD form of _schatten's sigma_1, objective and gradient
    U, s, Vh = np.linalg.svd(Y)
    s1 = s[:, 0]
    r = s / s1[:, None]
    q = r ** (p - 1.0)
    z = np.sum(q * r, axis=1)
    c = q / (s1 * z)[:, None]
    return s1, np.log(s1) + np.log(z) / p, (np.conj(U) * c[:, None, :]) @ np.conj(Vh)


@pytest.mark.parametrize("p", [16.0, 16.0**5])
@pytest.mark.parametrize("cplx", [False, True])
def test_schatten_matches_the_svd_formula(p, cplx):
    rng = np.random.default_rng(5)
    Y = _stack(rng, 5, 4, cplx)
    if cplx:
        # singular values sqrt(3), sqrt(3), 0, 0: a double top value, and
        # zeros that the Gram eigenvalues may round below 0
        M, _ = complex_swap_witness()
        Y = np.concatenate([Y, M[None], 0.3j * M[None]])
    s1, f, G = _schatten(Y, p)
    s1_ref, f_ref, G_ref = _schatten_by_svd(Y, p)
    assert np.all(np.isfinite(G))
    assert np.abs(s1 - s1_ref).max() <= 1e-12 * s1_ref.max()
    assert np.abs(f - f_ref).max() <= 1e-12
    # near a double top value the weights r^(p-1) turn a roundoff of eps in
    # r into a relative change of p eps, in either formula
    scale = np.abs(G_ref).max(axis=(1, 2))
    rel = 1e-12 + 8.0 * p * np.finfo(float).eps
    assert np.all(np.abs(G - G_ref).max(axis=(1, 2)) <= rel * scale)


@pytest.mark.parametrize("kind,n", [(MapKind.OFFDIAG_SWAP, 4), (MapKind.CORNER_TRANSPOSE, 2)])
def test_isometries_cost_one_evaluation_per_stage(kind, n, monkeypatch):
    # both maps keep every singular value, so each Schatten stage is flat and
    # every start ends it on the gradient it entered with: each stage
    # evaluates each start and its image exactly once
    rows = []

    def counting(Y, p):
        rows.append(len(Y))
        return _schatten(Y, p)

    monkeypatch.setattr(maps, "_schatten", counting)
    restarts = 10
    est = estimate_map_norm(MapId(kind, n), restarts=restarts, rng_seed=0)
    assert abs(est.lower_bound - 1.0) < 1e-12
    assert rows == [2 * restarts] * _P_STAGES


def _per_start_norm_search(m, restarts, rng_seed):
    # the search as a per-start stage machine: each start carries its own
    # stage index, step count and stage-end flag, and starts at different
    # stages share a round; returns the lower bound, the witness and the
    # number of matrices whose Schatten gradient it took
    dom = m.domain
    evaluated = []
    starts = _structured_starts(m)
    for k in range(len(starts), restarts):
        starts.append(project(dom, _draw_full(m.n, m.field, np.random.default_rng([rng_seed, k]))))
    x = np.array(starts)
    x /= np.linalg.norm(x, axis=(1, 2), keepdims=True)

    def ascent(x, stage):
        ratio, f, g = np.empty(len(x)), np.empty(len(x)), np.empty_like(x)
        for s in np.unique(stage):
            rows = stage == s
            y, k = x[rows], np.count_nonzero(rows)
            sv, log_s, G = _schatten(np.concatenate([y, _blockwise(m.kind, y)]), _P_BASE ** (s + 1.0))
            evaluated.append(2 * k)
            gr = project(dom, np.conj(_blockwise(m.kind, G[k:]) - G[:k]))
            gr -= np.sum((y.conj() * gr).real, axis=(1, 2))[:, None, None] * y
            ratio[rows], f[rows], g[rows] = sv[k:] / sv[:k], log_s[k:] - log_s[:k], gr
        return ratio, f, g

    stage = np.zeros(len(x), dtype=int)
    ratio, f, g = ascent(x, stage)
    best, best_x = ratio.copy(), x.copy()
    step = np.full(len(x), _FIRST_STEP)
    taken = np.zeros(len(x), dtype=int)
    for _ in range(_P_STAGES * _STAGE_STEPS):
        live = np.flatnonzero(step > 0.0)
        if live.size == 0:
            break
        flat = np.linalg.norm(g[live], axis=(1, 2)) <= _STATIONARY
        ending = np.zeros(len(x), dtype=bool)
        ending[live[flat]] = True
        live = live[~flat]
        if live.size:
            y = x[live] + step[live, None, None] * g[live]
            y /= np.linalg.norm(y, axis=(1, 2), keepdims=True)
            ratio_y, f_y, g_y = ascent(y, stage[live])
            better = ratio_y > best[live]
            best[live[better]] = ratio_y[better]
            best_x[live[better]] = y[better]
            up = f_y > f[live]
            moved = live[up]
            x[moved], f[moved], g[moved] = y[up], f_y[up], g_y[up]
            step[moved] *= 2.0
            step[live[~up]] *= 0.25
            taken[live] += 1
            ending[live[(taken[live] >= _STAGE_STEPS) | (step[live] < _STAGE_END_STEP)]] = True
        done = np.flatnonzero(ending)
        step[done[stage[done] == _P_STAGES - 1]] = 0.0
        done = done[stage[done] < _P_STAGES - 1]
        if done.size:
            stage[done] += 1
            step[done] = _FIRST_STEP
            taken[done] = 0
            _, f[done], g[done] = ascent(x[done], stage[done])
    W = best_x[int(np.argmax(best))]
    W = W / operator_norm(W)
    return operator_norm(_blockwise(m.kind, W)), W, sum(evaluated)


@pytest.mark.parametrize("kind", [k for k in ALL_MAPS if k.domain_kind is not None])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_lock_step_stages_match_the_per_start_stage_machine(kind, n, monkeypatch):
    # each start's path depends only on its own state, so running the stages
    # in lock-step changes no bit of the lower bound or the witness, and
    # evaluates each start as often
    rows = []

    def counting(Y, p):
        rows.append(len(Y))
        return _schatten(Y, p)

    monkeypatch.setattr(maps, "_schatten", counting)
    m = MapId(kind, n)
    for restarts in (1, 3, 10):
        for seed in (0, 7919):
            rows.clear()
            est = estimate_map_norm(m, restarts=restarts, rng_seed=seed)
            lower, W, evaluated = _per_start_norm_search(m, restarts, seed)
            assert est.lower_bound.hex() == lower.hex(), (restarts, seed)
            assert est.witness.dtype == W.dtype and est.witness.tobytes() == W.tobytes(), (restarts, seed)
            assert sum(rows) == evaluated, (restarts, seed)


@pytest.mark.parametrize("n", [2, 3])
def test_random_starts_alone_reach_the_complex_swap_norm(n, monkeypatch):
    monkeypatch.setattr(maps, "_structured_starts", lambda m: [])
    est = estimate_map_norm(MapId(MapKind.OFFDIAG_SWAP_COMPLEX, n), restarts=50, rng_seed=0)
    assert abs(est.lower_bound - 2.0 / math.sqrt(3.0)) < 1e-6


def test_swap_bound_at_the_witness():
    # the witness has scalar parts a = 1, b = 0; normalize by its norm sqrt(3)
    M, N = complex_swap_witness()
    root3 = math.sqrt(3.0)
    bound = offdiag_swap_norm_bound(1.0 / root3, 0.0, M[:2, 2:] / root3)
    # at the extremal element the bound is attained
    assert isinstance(bound, float)
    assert abs(bound - 2.0 / root3) < 1e-12
    assert abs(operator_norm(N) / operator_norm(M) - 2.0 / root3) < 1e-12
    # a stack holding the witness, i times the witness, and two smaller
    # elements gives, row by row, the scalar call's bound
    a = np.array([1.0 / root3, 1j / root3, 0.5, 0.1j])
    b = np.array([0.0, 0.0, -0.25, 0.3])
    corner = M[:2, 2:] / root3
    C = np.stack([corner, 1j * corner, 0.2 * np.eye(2), [[0.1, 0.2j], [0.0, -0.3]]])
    stacked = offdiag_swap_norm_bound(a, b, C)
    assert stacked.shape == (4,)
    for j in range(4):
        assert stacked[j] == offdiag_swap_norm_bound(a[j], b[j], C[j])
    assert abs(stacked[1] - 2.0 / root3) < 1e-12


def test_swap_bound_requires_unit_ball():
    with pytest.raises(PreconditionError):
        offdiag_swap_norm_bound(2.0, 0.0, np.zeros((2, 2)))
    # one row of a stack outside the unit ball fails the whole stack
    a = np.array([0.5, 0.5, 2.0])
    with pytest.raises(PreconditionError):
        offdiag_swap_norm_bound(a, np.zeros(3), np.zeros((3, 2, 2)))
    assert offdiag_swap_norm_bound(a[:2], np.zeros(2), np.zeros((2, 2, 2))).shape == (2,)


def test_swap_bound_refuses_non_finite_input():
    C = np.eye(2, dtype=np.complex128) * 0.1
    C[0, 1] = np.nan
    with warnings.catch_warnings():
        # refused up front, before any arithmetic warns on the bad entries
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            offdiag_swap_norm_bound(0.1, 0.0, C)
        with pytest.raises(NonFiniteError):
            offdiag_swap_norm_bound(np.array([0.1, np.inf]), 0.0, np.zeros((2, 2, 2)))


def test_swap_bound_dominates_sampled_norms():
    worst = swap_bound_domination(2, samples=1500, rng_seed=0)
    assert worst >= -1e-9


def test_swap_bound_memory_is_bounded_at_the_largest_size():
    # at n = 64 one embedded sample holds 128^2 complex entries (256 KiB),
    # so 48 samples drawn as one stack would hold 12 MiB in that stack alone
    n, samples = 64, 48
    tracemalloc.start()
    try:
        worst = swap_bound_domination(n, samples=samples, rng_seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert worst >= -1e-9
    one_stack = samples * (2 * n) ** 2 * 16
    assert peak < one_stack / 3, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "check,kind",
    [
        (check_positivity_preserving, MapKind.BLOCK_TRANSPOSE),
        (check_positivity_preserving, MapKind.CORNER_TRANSPOSE),
        (check_structural, MapKind.BLOCK_TRANSPOSE),
        (check_structural, MapKind.OFFDIAG_SWAP_COMPLEX),
    ],
)
def test_map_checks_memory_is_bounded_at_the_largest_size(check, kind):
    # at n = 64 one 128 x 128 complex matrix holds 256 KiB, so the 100
    # trials drawn as one stack would hold 25 MiB in that stack alone (500
    # trials: 131 MB); the 16 stored violations of the block transpose hold
    # 8 MiB of it
    n, trials = 64, 100
    tracemalloc.start()
    try:
        check(MapId(kind, n), trials=trials, rng_seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one_stack = trials * (2 * n) ** 2 * 16
    assert peak < one_stack / 2, f"peak {peak / 2**20:.1f} MiB"


def test_swap_bc_singular_values():
    for n in (1, 3):
        assert swap_bc_singular_check(n, trials=100, rng_seed=0) <= 1e-9


def test_char_poly_agreement():
    dev = char_poly_swap_check(3, instances=10, lambdas=10, rng_seed=0)
    assert dev <= 1e-8


def test_quarter_transpose_witness_norm_values():
    """The amplification witness gives n/4 and crosses 1 between n = 4 and 5."""
    for n in range(1, 7):
        assert abs(quarter_transpose_witness_norm(n) - n / 4.0) < 1e-10
    assert quarter_transpose_witness_norm(4) <= 1.0 + 1e-10
    assert quarter_transpose_witness_norm(5) > 1.0 + 1e-2


def test_kadison_schwarz_block_transpose():
    """On embedded corner elements the defect vanishes; generically it breaks."""
    m = MapId(MapKind.BLOCK_TRANSPOSE, 3)
    s = SystemId(SystemKind.FREE_CORNER, 3)
    rng = np.random.default_rng(0)
    for seed in range(8):
        e = _draw_element(s, np.random.default_rng(seed), 1.0)
        A = (e.A + e.A.conj().T) / 2.0
        c = complex(rng.normal(), rng.normal())
        sa = type(e)(s, A, np.conj(c), c, float(rng.normal()))
        rep = kadison_schwarz_check(m, embed(sa))
        assert rep.candidate == "map-itself"
        assert abs(rep.defect_min_eigenvalue) < 1e-12
    broke = False
    for _ in range(10):
        G = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        H = (G + G.conj().T) / 2.0
        if not kadison_schwarz_check(m, H).holds:
            broke = True
            break
    assert broke  # the unrestricted transpose is not a Schwarz map


def test_kadison_schwarz_gamma_elements():
    m = MapId(MapKind.CORNER_TRANSPOSE, 3)
    s = SystemId(SystemKind.FREE_CORNER, 3)
    rng = np.random.default_rng(1)
    for seed in range(10):
        e = _draw_element(s, np.random.default_rng(seed), 1.0)
        A = (e.A + e.A.conj().T) / 2.0
        c = complex(rng.normal(), rng.normal())
        sa = type(e)(s, A, np.conj(c), c, float(rng.normal()))
        rep = kadison_schwarz_check(m, sa)
        assert rep.candidate == "blockwise-transpose"
        assert rep.defect_min_eigenvalue >= -1e-10


def test_kadison_schwarz_quarter_map_holds_small_n():
    m = MapId(MapKind.QUARTER_TRANSPOSE, 3)
    s = SystemId(SystemKind.SCALAR_DIAGONAL, 3)
    for seed in range(10):
        e = _draw_element(s, np.random.default_rng(seed), 1.0)
        sa = type(e)(
            s,
            float(np.real(e.a)),
            float(np.real(e.d)),
            e.B,
            e.B.conj().T,
        )
        rep = kadison_schwarz_check(m, sa)
        assert rep.candidate == "trace-averaged-compression"
        assert rep.holds


def test_kadison_schwarz_quarter_map_breaks_at_17():
    """The trace-averaged candidate stops dominating once n exceeds 16."""
    n = 17
    m = MapId(MapKind.QUARTER_TRANSPOSE, n)
    s = SystemId(SystemKind.SCALAR_DIAGONAL, n)
    B = np.zeros((n, n), dtype=np.complex128)
    B[0, 1] = 1.0
    e = ScalarDiagonalElement(s, 0.5, 0.5, B, B.conj().T)
    rep = kadison_schwarz_check(m, e)
    expected = 1.0 / n - 1.0 / 16.0
    assert rep.defect_min_eigenvalue < -1e-6
    assert abs(rep.defect_min_eigenvalue - expected) < 1e-9


def test_kadison_schwarz_rejects_non_self_adjoint():
    m = MapId(MapKind.BLOCK_TRANSPOSE, 2)
    with pytest.raises(PreconditionError):
        kadison_schwarz_check(m, np.triu(np.ones((4, 4))))


def test_corner_square_identities_random():
    rng = np.random.default_rng(2)
    for _ in range(10):
        G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        A = (G + G.conj().T) / 2.0
        residual = corner_square_identities(A, complex(rng.normal(), rng.normal()), rng.normal())
        assert residual < 1e-12


def test_corner_square_identities_precondition():
    with pytest.raises(PreconditionError):
        corner_square_identities(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, 1.0)


def test_positive_images_of_positive_elements():
    """Spot check: each paired or corner map sends sampled PSD in to PSD out."""
    for kind in (MapKind.OFFDIAG_SWAP, MapKind.OFFDIAG_SWAP_COMPLEX, MapKind.CORNER_TRANSPOSE):
        m = MapId(kind, 2)
        for seed in range(20):
            e = _draw_positive(m.domain, np.random.default_rng(seed))
            out = apply(m, embed(e))
            assert hermitian_eigenvalues(out)[0] >= -1e-9
