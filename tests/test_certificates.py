"""Unit tests for the extension certificates and their verification helpers."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from opsyscheck import (
    MapId,
    MapKind,
    Outcome,
    Step,
    Verdict,
    block2x2,
    block_transpose,
    certify_corner_transpose,
    certify_offdiag_swap,
    certify_quarter_transpose,
    hermitian_eigenvalues,
    is_psd,
    lower_right_forcing_check,
    schur_implication,
    verify_verdict_invariants,
)
from opsyscheck import certificates, cli, systems
from opsyscheck.linalg import MEMBERSHIP_TOL, STACK_ENTRIES, hermiticity_defect, stack_chunks


def test_schur_implication_agrees_both_ways():
    rng = np.random.default_rng(0)
    for _ in range(30):
        G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        P = G @ G.conj().T
        X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rep = schur_implication(P, X)
        assert rep.agrees
        # the equivalence really separates: shrink X until the complement flips
        small = schur_implication(P, 1e-3 * X)
        assert small.block_psd and small.complement_psd


def test_schur_implication_detects_failure():
    P = np.eye(2)
    X = 2.0 * np.eye(2)
    rep = schur_implication(P, X)
    assert not rep.block_psd
    assert not rep.complement_psd
    assert rep.agrees


def test_schur_implication_keeps_the_field(monkeypatch):
    """Real P and X are eigensolved over the reals; either one complex
    promotes both sides of the step to complex."""
    eigvalsh = np.linalg.eigvalsh
    fields = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda X: fields.append(X.dtype) or eigvalsh(X))
    P = np.eye(2)
    X = np.array([[0.0, 0.25], [0.0, 0.0]])
    for P_in, X_in, field in (
        (P, X, np.float64),
        (np.eye(2, dtype=int), X, np.float64),
        (P, X.astype(np.complex128), np.complex128),
        (P.astype(np.complex128), X, np.complex128),
    ):
        fields.clear()
        rep = schur_implication(P_in, X_in)
        assert fields == [field, field]
        assert rep.block_psd and rep.complement_psd


@pytest.mark.parametrize("fields", ["real", "complex", "real-complex", "complex-real"])
def test_schur_implication_on_stacks_matches_each_pair(fields, monkeypatch):
    """A stack gets one report entry per pair, bit for bit the single
    pair's, from one batched eigensolve per side over the pair's field."""
    rng = np.random.default_rng(4)
    k, n = 6, 3

    def draw(field):
        G = rng.normal(size=(k, n, n))
        return G + 1j * rng.normal(size=(k, n, n)) if field == "complex" else G

    field_P, field_X = (fields.split("-") * 2)[:2]
    G = draw(field_P)
    P = G @ G.conj().swapaxes(-1, -2)
    # scaled so the stack holds pairs on both sides of the equivalence
    X = np.geomspace(1e-3, 10.0, k)[:, None, None] * draw(field_X)
    field = np.result_type(P, X)
    eigvalsh = np.linalg.eigvalsh
    solves = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: solves.append((M.dtype, M.shape)) or eigvalsh(M))
    rep = schur_implication(P, X)
    assert solves == [(field, (k, 2 * n, 2 * n)), (field, (k, n, n))]
    assert rep.block_psd.any() and not rep.block_psd.all()
    for t in range(k):
        one = schur_implication(P[t], X[t])
        assert rep.block_min_eigenvalue[t].tobytes() == np.float64(one.block_min_eigenvalue).tobytes()
        assert rep.complement_min_eigenvalue[t].tobytes() == np.float64(one.complement_min_eigenvalue).tobytes()
        assert (rep.block_psd[t], rep.complement_psd[t], rep.agrees[t]) == (
            one.block_psd,
            one.complement_psd,
            one.agrees,
        )
        assert type(one.block_min_eigenvalue) is float and type(one.agrees) is bool


def _forcing_steps_one_at_a_time(m):
    """The scaling certificates' forcing core checked by eigensolves, one
    certificate [[E_ii, E_ij], [E_ji, I]] at a time, by a double loop over
    (i, j), as a reference for the exact core."""
    n = m.n
    Z, I = np.zeros((n, n)), np.eye(n)

    def unit(i, j):
        E = np.zeros((n, n))
        E[i, j] = 1.0
        return E

    r_psd = r_decomp = r_schur = 0.0
    bound = np.zeros((n, n))
    for i in range(n):
        D = block2x2(unit(i, i), Z, Z, Z)
        r_decomp = max(r_decomp, abs(min(float(hermitian_eigenvalues(D)[0]), 0.0)))
        for j in range(n):
            S = block2x2(Z, unit(i, j), unit(j, i), I)
            r_psd = max(r_psd, abs(float(hermitian_eigenvalues(D + S)[0])))
            X = certificates._forced_corner(m, S)
            P = X.conj().T @ X
            rep = schur_implication(P, X, tol=MEMBERSHIP_TOL)
            r_schur = max(r_schur, abs(rep.block_min_eigenvalue), abs(rep.complement_min_eigenvalue))
            if j == 0:
                bound += P
    sum_D = sum(unit(i, i) for i in range(n))
    steps = [
        Step("each certificate [[E_ii, E_ij], [E_ji, I]] is positive semidefinite", r_psd),
        Step("certificate = PSD diagonal part + subspace part", r_decomp),
        Step("Schur step: each forced corner X_ij forces upper-left >= X_ij* X_ij", r_schur),
        Step("the diagonal parts resolve the upper-left identity", float(np.abs(sum_D - I).max())),
    ]
    return steps, bound


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17, 32])
@pytest.mark.parametrize("kind", [MapKind.QUARTER_TRANSPOSE, MapKind.OFFDIAG_SWAP])
def test_exact_forcing_steps_match_the_eigensolve_reference(kind, n):
    """The exact factors and the eigensolves both read 0.0 on every step,
    and the summed bounds agree bit for bit."""
    m = MapId(kind, n)
    steps, bound = certificates._corner_forcing_steps(m)
    ref_steps, ref_bound = _forcing_steps_one_at_a_time(m)
    assert [s.residual for s in steps] == [s.residual for s in ref_steps] == 4 * [0.0]
    assert _eigen_certificate_residual(n) == 0.0
    assert all(type(s.residual) is float for s in steps)
    assert "proved up to error 2^-44" in steps[2].description
    assert (bound.dtype, bound.tobytes()) == (ref_bound.dtype, ref_bound.tobytes())


def _raise(*args, **kwargs):
    raise AssertionError("np.linalg reached")


@pytest.mark.parametrize("certify", [certify_quarter_transpose, certify_offdiag_swap, certify_corner_transpose])
def test_certificates_make_no_linalg_call(certify, monkeypatch):
    """No eigensolve, SVD or other np.linalg routine decides a step: every
    callable of np.linalg raises, and every verdict still comes out clean."""
    for name in dir(np.linalg):
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, _raise)
    with pytest.raises(AssertionError, match="np.linalg reached"):
        np.linalg.eigvalsh(np.eye(2))
    for n in [*range(1, 9), 16, 17]:
        assert verify_verdict_invariants(certify(n)) == []


_BLOCKWISE = certificates._blockwise


def _bent_blockwise(kind, M):
    """The map's rule, with half of entry (1, n+1) of the input added to
    entry (n+1, 1) of the image: the forced corner of pair (1, 1) alone
    changes, and stays a corner that passes its own Schur step."""
    out = _BLOCKWISE(kind, M)
    n = M.shape[-1] // 2
    out[..., n + 1, 1] += 0.5 * M[..., 1, n + 1]
    return out


@pytest.mark.parametrize("certify, n", [(certify_quarter_transpose, 17), (certify_offdiag_swap, 4)])
def test_corner_off_its_relabeling_fails_the_schur_step(certify, n, monkeypatch):
    assert verify_verdict_invariants(certify(n)) == []
    monkeypatch.setattr(certificates, "_blockwise", _bent_blockwise)
    v = certify(n)
    # the bent entry fails the relabeling covariance at a random point, so
    # the residual is the size of that point's entry, not a fixed number
    problems = verify_verdict_invariants(v)
    assert len(problems) == 1 and problems[0].startswith("step 2 residual")
    assert v.narrative[2].residual > 0.0


def test_forcing_steps_memory_is_bounded():
    # the 4,096 certificates at n = 64 would hold 512 MiB as one stack
    n = 64
    tracemalloc.start()
    try:
        steps, _ = certificates._corner_forcing_steps(MapId(MapKind.OFFDIAG_SWAP, n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(s.ok for s in steps)
    one_stack = STACK_ENTRIES * 8
    assert peak < 16 * one_stack, f"peak {peak / 2**20:.1f} MiB"


def _eigen_certificate_residual(n: int) -> float:
    """The PSD step as it ran by eigensolve, on the representatives (0, 0)
    and (0, 1) of ``certificates._certificate_parts``: the largest |lambda_min|."""
    D, S = certificates._certificate_parts(n, np.zeros(min(n, 2), dtype=int), np.arange(min(n, 2)))
    return float(np.abs(is_psd(D + S).min_eigenvalue).max())


def _eigen_witness_residual(n: int) -> float:
    """Step 5 of the corner-transpose chain as it ran by eigensolve: the
    witness's spectrum against {2, 0} and its forced image's smallest
    eigenvalue against -1, with the image's hermiticity defect."""
    W = certificates.corner_witness(n)
    eigs = hermitian_eigenvalues(W)
    image = is_psd(block_transpose(W))
    return max(
        abs(float(eigs[-1]) - 2.0), float(np.abs(eigs[:-1]).max()),
        abs(image.min_eigenvalue + 1.0), image.hermiticity_defect,
    )


@pytest.mark.parametrize("n", [2, 3, 5, 16, 17, 32])
def test_exact_witness_step_matches_the_eigensolve(n):
    assert _eigen_witness_residual(n) == certify_corner_transpose(n).narrative[4].residual == 0.0


@pytest.mark.parametrize("n", range(1, 21))
def test_quarter_transpose_outcomes(n):
    v = certify_quarter_transpose(n)
    if n >= 17:
        assert v.outcome is Outcome.CONTRADICTION
        assert abs(v.margin - (n / 16.0 - 1.0)) < 1e-12
        assert len(v.witnesses) == 2
    else:
        assert v.outcome is Outcome.INCONCLUSIVE
        assert v.margin is None
        # the inconclusive narrative still records the amplified witness norm
        assert "amplified witness norm" in v.narrative[-1].description
    assert v.threshold_used == 16
    assert verify_verdict_invariants(v) == []


def test_quarter_transpose_witness_matrices():
    v = certify_quarter_transpose(17)
    names = [name for name, _ in v.witnesses]
    assert names == ["unital-cap", "forced-lower-bound"]
    cap, forced = (w for _, w in v.witnesses)
    assert np.array_equal(cap, np.eye(17))
    gap = hermitian_eigenvalues(cap - forced)[0]
    assert gap < -1e-6  # the forced bound really exceeds the cap


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_offdiag_swap_outcomes(n):
    v = certify_offdiag_swap(n)
    if n == 1:
        assert v.outcome is Outcome.EXTENSION_EXHIBITED
        assert v.witnesses[0][0] == "fixed-point"
    else:
        assert v.outcome is Outcome.CONTRADICTION
        assert abs(v.margin - (n - 1.0)) < 1e-12
    assert verify_verdict_invariants(v) == []


@pytest.mark.parametrize("n", range(2, 9))
def test_corner_transpose_contradictions(n):
    v = certify_corner_transpose(n)
    assert v.outcome is Outcome.CONTRADICTION
    assert v.margin is not None and v.margin >= 1.0 - 1e-12
    for step in v.narrative:
        assert step.ok, step.description
    # any positive extension would have to send the PSD witness to this image
    name, final = v.witnesses[-1]
    assert name == "forced-image"
    assert abs(hermitian_eigenvalues(final)[0] + 1.0) < 1e-10
    assert verify_verdict_invariants(v) == []


def test_corner_transpose_small_case():
    v = certify_corner_transpose(1)
    assert v.outcome is Outcome.EXTENSION_EXHIBITED
    assert verify_verdict_invariants(v) == []


def test_corner_transpose_witness_input_is_psd():
    v = certify_corner_transpose(3)
    name, W = v.witnesses[0]
    assert name == "positive-input"
    assert hermitian_eigenvalues(W)[0] >= -1e-12
    assert np.abs(block_transpose(W) - v.witnesses[-1][1]).max() < 1e-12


def _pinv_squeeze_residual(n: int) -> float:
    """Step 4 as it ran with pseudoinverses, over the stacks of rank-one
    projections: both squeeze bounds D^t (D^t)^+ D^t and I - J J^+ J,
    J = I - D^t, against D^t, with singular values below MEMBERSHIP_TOL
    (relative to the largest) cut, and the smallest eigenvalue of
    [[D^t, D^t], [D^t, D^t]], which is min(0, 2 lambda_min(D^t))."""
    worst = 0.0
    I = np.eye(n)
    for D in certificates._projection_stacks(n):
        Dt = D.swapaxes(-1, -2)
        J = I - Dt
        lower = Dt @ np.linalg.pinv(Dt, rcond=MEMBERSHIP_TOL) @ Dt
        upper = I - J @ np.linalg.pinv(J, rcond=MEMBERSHIP_TOL) @ J
        feas_min = min(0.0, 2.0 * float(is_psd(Dt).min_eigenvalue.min()))
        worst = max(worst, float(np.abs(lower - Dt).max()), float(np.abs(upper - Dt).max()), -feas_min)
    return worst


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_exact_squeeze_matches_the_pinv_reference(n):
    """The pseudoinverse squeeze pins the lower-right values to roundoff;
    the exact squeeze, on the same projections, to 0.0."""
    assert _pinv_squeeze_residual(n) <= 1e-15
    assert lower_right_forcing_check(n) == 0.0


def test_oblique_projections_fail_the_exact_squeeze(monkeypatch):
    """An idempotent that is not self-adjoint is not its own pseudoinverse:
    E = P + P N (I - P), N the shift, stays idempotent and fails the squeeze
    by its hermiticity defect, 1 for P = E_11."""
    stacks = certificates._projection_stacks
    N, I = np.eye(2, k=1), np.eye(2)
    monkeypatch.setattr(certificates, "_projection_stacks", lambda n: (P + P @ N @ (I - P) for P in stacks(n)))
    assert lower_right_forcing_check(2) == 1.0


@pytest.mark.parametrize("certify", [certify_quarter_transpose, certify_offdiag_swap, certify_corner_transpose])
@pytest.mark.parametrize("n", [*range(1, 9), 16, 17])
def test_every_step_residual_is_exact(certify, n):
    """Every step evaluates exact identities on integer or dyadic entries,
    so each residual is the float 0.0, and a step holds at 0.0 alone."""
    steps = certify(n).narrative
    assert [(type(s.residual), s.residual, s.ok) for s in steps] == len(steps) * [(float, 0.0, True)]


def _six_display_residual(n: int) -> float:
    """Step 1 as it ran before the phase symmetry: every projection checked
    at both c = 1 and c = i, one matrix at a time."""
    r_sq = 0.0
    for P in certificates._projection_stacks(n):
        for A in P:
            for c in (1.0 + 0.0j, 1.0j):
                for d in (0.0, 1.0, -1.0):
                    r_sq = max(r_sq, certificates.corner_square_identities(A, c, d))
    return r_sq


def _sign_flip_spanning_residual(n: int) -> float:
    """Step 2 as it ran on the spanning set: the sign flip on every stack
    of rank-one projections, at c = 1 and i."""
    r_flip = 0.0
    for P in certificates._projection_stacks(n):
        for c in (1.0 + 0.0j, 1.0j):
            flipped = certificates._forced_paired_image(P, c) + certificates._forced_paired_image(P, -c)
            r_flip = max(r_flip, float(np.abs(flipped).max()))
    return r_flip


def _rebuild_spanning_residual(n: int) -> float:
    """Step 3 as it ran on the spanning set: the Cartesian rebuild on the
    2n^2 corners E_kl and i E_kl, per stack."""
    r_rec = 0.0
    for start, k in stack_chunks(2 * n * n, 2 * n):
        t = np.arange(start, start + k)
        C = np.zeros((k, n, n), dtype=np.complex128)
        C[np.arange(k), t % (n * n) // n, t % n] = np.where(t < n * n, 1.0, 1.0j)
        Ch = C.conj().swapaxes(-1, -2)
        A = (C + Ch) / 2.0
        B = (C - Ch) / 2.0j
        lower_img = certificates._rebuilt_image(A) + 1.0j * certificates._rebuilt_image(B)
        r_rec = max(r_rec, float(hermiticity_defect(np.stack([A, B])).max()))
        r_rec = max(r_rec, float(np.abs(lower_img - certificates._forced_image(np.zeros_like(C), C)).max()))
    return r_rec


def _phase_spanning_residual(n: int) -> float:
    """Step 1's I (+) iI covariance as it ran on the spanning set: the
    corner transpose on A (+) 0 and the block transpose on A^2 (+) 0 and
    [[0, A], [A, 0]] for every rank-one projection A, and both on I (+) 0,
    0 (+) I and [[0, I], [I, 0]].  U X U* is X with its upper-right block
    times -i and its lower-left block times i."""

    def conjugated(X):
        out = X.astype(np.complex128)
        out[..., :n, n:] *= -1j
        out[..., n:, :n] *= 1j
        return out

    def defect(kind, X):
        T = certificates._blockwise
        return float(np.abs(T(kind, conjugated(X)) - conjugated(T(kind, X))).max())

    corner, block = MapKind.CORNER_TRANSPOSE, MapKind.BLOCK_TRANSPOSE
    fixed = np.zeros((3, 2 * n, 2 * n), dtype=np.complex128)
    fixed[0, :n, :n] = fixed[1, n:, n:] = fixed[2, :n, n:] = fixed[2, n:, :n] = np.eye(n)
    r_phase = max(defect(corner, fixed), defect(block, fixed))
    for P in certificates._projection_stacks(n):
        Z = np.zeros_like(P)
        r_phase = max(
            r_phase,
            defect(corner, block2x2(P, Z, Z, Z)),
            defect(block, block2x2(P @ P, Z, Z, Z)),
            defect(block, block2x2(Z, P, P, Z)),
        )
    return r_phase


def _relabeling_residual(kind: MapKind, n: int) -> float:
    """The Schur step's relabeling check alone: pi (+) pi for pi the
    transposition (0 1) and the n-cycle, at the seeded points (3, n) of the
    map's domain."""
    swap = np.arange(n)
    swap[:2] = swap[1::-1]
    relabelings = [(np.concatenate([pi, pi + n]), np.ones(2 * n)) for pi in (swap, np.roll(np.arange(n), 1))]
    X = systems._domain_points(MapId(kind, n).domain, systems._point_generator(3, n))
    return certificates._covariance_defect(kind, X, relabelings)


def _linear_steps(n: int, monkeypatch) -> tuple[Step, ...]:
    """Steps 1-3 of the corner-transpose chain with the spanning set
    emptied, so that step 1's residual is its I (+) iI covariance check
    alone and the squeeze checks nothing."""
    monkeypatch.setattr(certificates, "_projection_stacks", lambda n: iter(()))
    return certify_corner_transpose(n).narrative[:3]


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_randomized_steps_match_the_spanning_loops(n, monkeypatch):
    steps = certify_corner_transpose(n).narrative
    assert steps[1].residual == _sign_flip_spanning_residual(n) == 0.0
    assert steps[2].residual == _rebuild_spanning_residual(n) == 0.0
    phase = _phase_spanning_residual(n)
    assert _linear_steps(n, monkeypatch)[0].residual == phase == 0.0
    for kind in (MapKind.QUARTER_TRANSPOSE, MapKind.OFFDIAG_SWAP):
        assert _relabeling_residual(kind, n) == 0.0


def test_randomized_residuals_are_exact_at_n_64(monkeypatch):
    n = 64
    for kind in (MapKind.QUARTER_TRANSPOSE, MapKind.OFFDIAG_SWAP):
        assert _relabeling_residual(kind, n) == 0.0
    # step 1's phase check of both transposes, the sign flip and the rebuild
    for step in _linear_steps(n, monkeypatch):
        assert step.residual == 0.0
        assert "proved up to error 2^-44" in step.description


@pytest.mark.parametrize("n", [1, 2, 5])
def test_identity_points_are_seeded_integers(n):
    """The points depend on (step, n) alone, not on numpy's global
    generator, and every real part is an integer in [-2^10, 2^10)."""

    def phase_points():
        # step 1's points of all of M_2n
        rng = systems._point_generator(1, n)
        return systems._integer_points(rng, (2 * n, 2 * n), systems.Field.COMPLEX)

    def hermitian_points(step):
        return systems._hermitian_points(n, systems._point_generator(step, n))

    np.random.seed(1)
    H = hermitian_points(2)
    Z = phase_points()
    kinds = (MapKind.QUARTER_TRANSPOSE, MapKind.OFFDIAG_SWAP)
    X = {kind: systems._domain_points(MapId(kind, n).domain, systems._point_generator(3, n)) for kind in kinds}
    np.random.seed(2)
    assert np.array_equal(H, hermitian_points(2))
    assert not np.array_equal(H, hermitian_points(3))
    assert H.shape == (4, n, n) and float(hermiticity_defect(H).max()) == 0.0
    assert np.array_equal(Z, phase_points())
    assert Z.shape == (4, 2 * n, 2 * n) and Z.dtype == np.complex128
    assert X[MapKind.OFFDIAG_SWAP].dtype == np.float64
    for P in [H, Z, *X.values()]:
        parts = np.stack([P.real, P.imag])
        assert np.array_equal(parts, np.floor(parts))
        assert parts.min() >= -1024 and parts.max() < 1024
    for kind, points in X.items():
        s = MapId(kind, n).domain
        assert points.shape == (4, 2 * n, 2 * n)
        assert systems.contains(s, points).all()


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_corner_square_step_matches_the_six_display_loop(n):
    assert certify_corner_transpose(n).narrative[0].residual == _six_display_residual(n)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_corner_square_step_checks_c_one_only(n, monkeypatch):
    # c = i follows from c = 1 by conjugation with I (+) iI
    calls = []
    identities = certificates.corner_square_identities

    def counted(A, c, d):
        calls.append(c)
        return identities(A, c, d)

    monkeypatch.setattr(certificates, "corner_square_identities", counted)
    certify_corner_transpose(n)
    assert len(calls) == 3 * n * n
    assert all(c == 1 for c in calls)


def test_lower_right_forcing_check_memory_is_bounded():
    # the n^2 projections at n = 32 would hold 16 MiB as one stack, and each
    # product of the check as much again
    n = 32
    tracemalloc.start()
    try:
        worst = lower_right_forcing_check(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert worst == 0.0
    one_stack = n * n * (2 * n) ** 2 * 16
    assert peak < one_stack / 4, f"peak {peak / 2**20:.1f} MiB"


def test_verdict_invariants_flag_tampering():
    clean = certify_offdiag_swap(3)
    assert verify_verdict_invariants(clean) == []
    no_margin = dataclasses.replace(clean, margin=None)
    assert any("margin" in p for p in verify_verdict_invariants(no_margin))
    no_witness = dataclasses.replace(clean, witnesses=clean.witnesses[:1])
    assert any("witness" in p for p in verify_verdict_invariants(no_witness))
    # the smallest positive double fails: a step holds at 0.0 alone
    bad_step = dataclasses.replace(clean, narrative=clean.narrative + (Step("made-up residual", 5e-324),))
    assert verify_verdict_invariants(bad_step) == [f"step {len(clean.narrative)} residual 4.941e-324 is not 0"]
    assert not hasattr(Step("any", 0.0), "tolerance")


def _verdict_bits(v):
    margin = None if v.margin is None else float(v.margin).hex()
    witnesses = [(name, W.dtype.str, W.shape, W.tobytes()) for name, W in v.witnesses]
    steps = [(s.description, float(s.residual).hex()) for s in v.narrative]
    return v.outcome, v.threshold_used, margin, witnesses, steps


@pytest.mark.parametrize(
    "certify, n",
    [
        (certify_quarter_transpose, 5),
        (certify_quarter_transpose, 17),
        (certify_offdiag_swap, 3),
        (certify_corner_transpose, 4),
    ],
)
def test_verdicts_are_deterministic(certify, n):
    """Two calls give bit-identical verdicts, whatever numpy's global
    generator holds: the randomized steps seed their own."""
    first = _verdict_bits(certify(n))
    assert _verdict_bits(certify(n)) == first
    np.random.seed(7919)
    np.random.random(5)
    assert _verdict_bits(certify(n)) == first


@pytest.mark.parametrize("which, sizes", [("phi", "5,17"), ("upsilon", "1,3"), ("gamma", "2,4")])
def test_the_seed_reaches_no_certificate_claim(which, sizes, capsys):
    claims = []
    for seed in ("0", "7919"):
        assert cli.main(["certify", "--which", which, "--n", sizes, "--seed", seed, "--output", "json"]) == 0
        claims.append(json.loads(capsys.readouterr().out)["claims"])
    assert claims[0] and claims[0] == claims[1]


def test_verdict_outcome_wire_values():
    assert Outcome.CONTRADICTION.value == "contradiction"
    assert Outcome.INCONCLUSIVE.value == "inconclusive"
    assert Outcome.EXTENSION_EXHIBITED.value == "extension-exhibited"
    assert isinstance(certify_quarter_transpose(2), Verdict)
