"""Extension certificates: exact thresholds where positive extension fails.

Each certify_* routine replays a forcing argument numerically.  The logic is
always the same: assume some positive unital map on the full matrix algebra
agrees with the restricted map on its subspace, derive values the extension
is forced to take on specific PSD certificates, and compare the forced
values against what positivity allows.  The comparison reduces to an exact
integer threshold in the block size n; the narrative records every computed
residual along the way, and a Contradiction verdict carries the violating
witness pair together with its eigenvalue margin.

Nothing here proves an extension exists.  Below threshold the verdict is
Inconclusive, except in the degenerate sizes where the map is the identity
and the identity map of the algebra is exhibited as an extension.

The seeded search for a PSD input that the full block transpose, the forced
extension candidate, sends out of the PSD cone is
``maps.check_positivity_preserving`` on the psi-transpose map.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .linalg import (
    EXACT_TOL,
    IDENTITY_TOL,
    MARGIN,
    MEMBERSHIP_TOL,
    PSD_TOL,
    block2x2,
    hermitian_eigenvalues,
    hermitian_part_eigenvalues,
    matrix_unit,
)
from .maps import (
    MapId,
    MapKind,
    _blockwise,
    block_transpose,
    corner_square_identities,
    corner_witness,
    quarter_transpose_witness_norm,
)
from .systems import SystemId, SystemKind, _block, _embed_fields


class Outcome(enum.Enum):
    CONTRADICTION = "contradiction"
    INCONCLUSIVE = "inconclusive"
    EXTENSION_EXHIBITED = "extension-exhibited"


@dataclasses.dataclass(frozen=True)
class Step:
    """One verified link in a certificate chain."""

    description: str
    residual: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.tolerance


@dataclasses.dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    threshold_used: int | None
    witnesses: tuple[tuple[str, np.ndarray], ...]
    narrative: tuple[Step, ...]
    margin: float | None = None


@dataclasses.dataclass(frozen=True)
class SchurReport:
    """Both sides of the equivalence [[P, X*], [X, I]] PSD <=> P >= X*X."""

    block_min_eigenvalue: float
    complement_min_eigenvalue: float
    block_psd: bool
    complement_psd: bool
    agrees: bool


def schur_implication(P, X, tol: float = PSD_TOL) -> SchurReport:
    """Eigencheck both sides of the Schur-complement equivalence."""
    P = np.asarray(P, dtype=np.complex128)
    X = np.asarray(X, dtype=np.complex128)
    n = P.shape[0]
    big = block2x2(P, X.conj().T, X, np.eye(n, dtype=np.complex128))
    m_big = float(hermitian_part_eigenvalues(big)[0])
    comp = P - X.conj().T @ X
    m_comp = float(hermitian_part_eigenvalues(comp)[0])
    b_ok = m_big >= -tol
    c_ok = m_comp >= -tol
    return SchurReport(
        block_min_eigenvalue=m_big,
        complement_min_eigenvalue=m_comp,
        block_psd=b_ok,
        complement_psd=c_ok,
        agrees=b_ok == c_ok,
    )


def _paired_unit_certificate(n: int, i: int, j: int) -> np.ndarray:
    """The PSD certificate [[E_ii, E_ij], [E_ji, I]]."""
    return block2x2(matrix_unit(n, i, i), matrix_unit(n, i, j), matrix_unit(n, j, i), np.eye(n))


def _subsystem_part(n: int, i: int, j: int) -> np.ndarray:
    """[[0, E_ij], [E_ji, I]]: the part of the certificate [[E_ii, E_ij],
    [E_ji, I]] that lies in the map's domain."""
    return block2x2(np.zeros((n, n)), matrix_unit(n, i, j), matrix_unit(n, j, i), np.eye(n))


def _forced_corner(m: MapId, S: np.ndarray) -> np.ndarray:
    """The lower-left block of the map's image of S: the corner any
    extension is forced to take on a certificate with subsystem part S."""
    return _block(_blockwise(m.kind, S), m.n, (1, 0))


def _corner_forcing_steps(m: MapId) -> tuple[list[Step], np.ndarray]:
    """Shared narrative core of the two corner-scaling certificates.

    Verifies: the certificates are PSD, they decompose as a PSD diagonal
    part plus a subspace part S whose image the map gives, and the Schur
    step turns each forced corner X_ij (see ``_forced_corner``) into the
    lower bound X_ij* X_ij on the upper-left value.  Returns the steps and
    the summed bound sum_i X_i1* X_i1.
    """
    n = m.n
    r_psd = 0.0
    r_decomp = 0.0
    r_schur = 0.0
    I = np.eye(n)
    bound = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            Q = _paired_unit_certificate(n, i, j)
            r_psd = max(r_psd, abs(float(hermitian_eigenvalues(Q)[0])))
            D = block2x2(matrix_unit(n, i, i), np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n)))
            S = _subsystem_part(n, i, j)
            r_decomp = max(
                r_decomp,
                float(np.abs(Q - D - S).max()),
                abs(min(float(hermitian_eigenvalues(D)[0]), 0.0)),
            )
            X = _forced_corner(m, S)
            P = X.conj().T @ X
            rep = schur_implication(P, X, tol=MEMBERSHIP_TOL)
            r_schur = max(r_schur, abs(rep.block_min_eigenvalue), abs(rep.complement_min_eigenvalue))
            if j == 1:
                bound += P
    sum_D = sum(matrix_unit(n, i, i) for i in range(1, n + 1))
    steps = [
        Step("each certificate [[E_ii, E_ij], [E_ji, I]] is positive semidefinite", r_psd, EXACT_TOL),
        Step(
            "certificate = PSD diagonal part + subspace part, so the extension's"
            " value dominates the map's image of the subspace part",
            r_decomp,
            EXACT_TOL,
        ),
        Step(
            "Schur step: each forced corner X_ij, the lower-left block of that"
            " image, forces upper-left >= X_ij* X_ij",
            r_schur,
            MEMBERSHIP_TOL,
        ),
        Step(
            "the diagonal parts resolve the upper-left identity, capped by I"
            " since the extension is unital and positive",
            float(np.abs(sum_D - I).max()),
            1e-15,
        ),
    ]
    return steps, bound


def _scaling_certificate(m: MapId) -> Verdict:
    """Common core: summing n forced lower bounds against the unital cap.

    The forced corners X_i1 add up to the bound F = sum_i X_i1* X_i1 on the
    upper-left value, which must sit below I.  Each X_i1 is a matrix unit
    times the map's factor s, so F = n s^2 E_11 with dyadic entries for
    s = 1/4 or 1: the comparison against 1 is exact and gives a
    contradiction precisely above the threshold 1 / s^2.
    """
    n = m.n
    steps, F = _corner_forcing_steps(m)
    # the largest entry of a PSD matrix lies on its diagonal
    forced = float(F.max())
    # the largest n whose bound n s^2 stays within the cap: n / forced = 1 / s^2
    threshold = int(n // forced)
    steps.append(Step(f"summed forced bound sum_i X_i1* X_i1 = {forced:g} E_11 against the cap I", 0.0, 0.0))
    I = np.eye(n)
    if forced > 1.0:
        margin = forced - 1.0
        gap = abs(float(hermitian_eigenvalues(I - F)[0]) + margin)
        steps.append(Step("eigencheck of the violated inequality I >= forced E_11", gap, EXACT_TOL))
        witnesses = (("unital-cap", I), ("forced-lower-bound", F))
        return Verdict(Outcome.CONTRADICTION, threshold, witnesses, tuple(steps), margin=margin)
    meets = "stays below" if forced < 1.0 else "exactly meets"
    steps.append(Step(f"forced bound {meets} the cap; no obstruction at this size", 0.0, 0.0))
    return Verdict(Outcome.INCONCLUSIVE, threshold, (), tuple(steps))


def certify_quarter_transpose(n: int) -> Verdict:
    """No positive unital extension of the quarter transpose exists for n >= 17.

    The forced corners carry the factor 1/4, so each Schur step yields a
    lower bound of E_jj/16 and the n of them sum to (n/16) E_jj against the
    unital cap I.  Below the threshold the verdict is Inconclusive, with the
    amplified witness norm n/4 recorded: for n <= 4 it stays at most 1
    (consistent with extendability at those sizes), for 5 <= n <= 16 it
    exceeds 1 without settling the extension question at this level.
    """
    m = MapId(MapKind.QUARTER_TRANSPOSE, n)
    verdict = _scaling_certificate(m)
    if verdict.outcome is Outcome.INCONCLUSIVE:
        wn = quarter_transpose_witness_norm(n)
        # n times the factor s of the forced corners
        ns = n * float(np.abs(_forced_corner(m, _subsystem_part(n, 1, 1))).max())
        reading = (
            "<= 1, consistent with extendability at this size"
            if ns <= 1.0
            else "exceeds 1, but this certificate draws no conclusion below its threshold"
        )
        step = Step(f"amplified witness norm n s = {ns:g} {reading}", abs(wn - ns), MEMBERSHIP_TOL)
        verdict = dataclasses.replace(verdict, narrative=verdict.narrative + (step,))
    return verdict


def _identity_extension(reason: str, dtype) -> Verdict:
    """At n = 1 the map is the identity, and so is its extension: nothing is
    sampled, every residual is 0 at tolerance 0."""
    steps = (Step(reason, 0.0, 0.0), Step("the identity map of the full algebra extends it", 0.0, 0.0))
    return Verdict(
        outcome=Outcome.EXTENSION_EXHIBITED,
        threshold_used=1,
        witnesses=(("fixed-point", np.eye(2, dtype=dtype)),),
        narrative=steps,
        margin=None,
    )


def certify_offdiag_swap(n: int) -> Verdict:
    """The off-diagonal swap admits no positive unital extension for n >= 2.

    The forced corners are unscaled, so the summed bound is n E_jj against
    the cap I: contradiction for every n above 1.  At n = 1 the map is the
    identity and the identity of the algebra is an extension.
    """
    m = MapId(MapKind.OFFDIAG_SWAP, n)
    if n == 1:
        return _identity_extension(
            "at n = 1 transposition is trivial, so the map is the identity", np.float64
        )
    return _scaling_certificate(m)


def squeeze_bounds(D) -> tuple[np.ndarray, np.ndarray]:
    """Range-restricted Schur bounds forcing the lower-right value on D^t.

    For 0 <= D <= I, positivity of [[D^t, D^t], [D^t, X]] forces
    X >= D^t (D^t)^+ D^t and the complementary certificate built from I - D
    forces X <= I - (I - D^t)(I - D^t)^+(I - D^t); both sides collapse to
    D^t.  Pseudoinverses cut singular values below MEMBERSHIP_TOL (relative
    to the largest).
    """
    D = np.asarray(D, dtype=np.complex128)
    n = D.shape[0]
    Dt = D.T
    lower = Dt @ np.linalg.pinv(Dt, rcond=MEMBERSHIP_TOL) @ Dt
    J = np.eye(n, dtype=np.complex128) - Dt
    upper = np.eye(n, dtype=np.complex128) - J @ np.linalg.pinv(J, rcond=MEMBERSHIP_TOL) @ J
    return lower, upper


def lower_right_forcing_check(n: int, trials: int = 50, rng_seed: int = 0) -> float:
    """Worst residual of the squeeze X = D^t over random 0 <= D <= I draws."""
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for _ in range(trials):
        G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Q, _ = np.linalg.qr(G)
        D = Q @ np.diag(rng.uniform(0.0, 1.0, n)) @ Q.conj().T
        D = (D + D.conj().T) / 2.0
        lower, upper = squeeze_bounds(D)
        Dt = D.T
        feas = block2x2(Dt, Dt, Dt, Dt)
        feas_min = float(hermitian_part_eigenvalues(feas)[0])
        worst = max(
            worst,
            float(np.abs(lower - Dt).max()),
            float(np.abs(upper - Dt).max()),
            max(0.0, -feas_min),
        )
    return worst


def _hermitian_basis(n: int) -> list[np.ndarray]:
    """Matrix-unit symmetrizations spanning the self-adjoint n x n matrices."""
    basis: list[np.ndarray] = []
    for i in range(1, n + 1):
        basis.append(matrix_unit(n, i, i).astype(np.complex128))
        for j in range(i + 1, n + 1):
            basis.append((matrix_unit(n, i, j) + matrix_unit(n, j, i)).astype(np.complex128))
            basis.append(1j * (matrix_unit(n, i, j) - matrix_unit(n, j, i)))
    return basis


def certify_corner_transpose(n: int, rng_seed: int = 0) -> Verdict:
    """The corner transpose admits no positive unital extension for n >= 2.

    The chain forces any extension to act as the blockwise transpose: square
    expansions on a self-adjoint spanning set pin the off-diagonal images of
    Hermitian-paired corners, a sign flip and the Cartesian decomposition
    C = A + iB extend the pinning to arbitrary corners, and the squeeze pins
    the lower-right values.  The blockwise transpose then fails positivity
    on the rank-one corner witness, whose image has eigenvalue exactly -1.
    """
    MapId(MapKind.CORNER_TRANSPOSE, n)  # raises ValueError unless n >= 1
    if n == 1:
        return _identity_extension(
            "at n = 1 the upper-left block is a scalar, so the map is the identity", np.complex128
        )
    rng = np.random.default_rng(rng_seed)

    r_sq = 0.0
    for A in _hermitian_basis(n):
        for c in (1.0 + 0.0j, 1.0j):
            for d in (0.0, 1.0, float(rng.uniform(-1.0, 1.0))):
                r_sq = max(r_sq, corner_square_identities(A, c, d))
    step1 = Step(
        "square-expansion identities hold on the self-adjoint spanning set"
        " with c in {1, i}, pinning the images of Hermitian-paired corners",
        r_sq,
        MEMBERSHIP_TOL,
    )

    # the forced images are scalar-diagonal matrices with zero scalars
    s = SystemId(SystemKind.SCALAR_DIAGONAL, n)

    def forced_paired_image(A: np.ndarray, c: complex) -> np.ndarray:
        return _embed_fields(s, {"a": 0.0, "d": 0.0, "B": np.conj(c) * A.T, "C": c * A.T}, ())

    r_flip = 0.0
    for A in _hermitian_basis(n):
        for c in (1.0 + 0.0j, 1.0j):
            R_plus = forced_paired_image(A, c)
            R_minus = forced_paired_image(A, -c)
            r_flip = max(r_flip, float(np.abs(R_plus + R_minus).max()))
    step2 = Step(
        "sign flip c -> -c negates the forced image, so the pinning is linear"
        " in the corner",
        r_flip,
        EXACT_TOL,
    )

    r_rec = 0.0
    draws = [
        (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) for _ in range(10)
    ]
    E12 = matrix_unit(n, 1, 2).astype(np.complex128)
    for C in draws + [E12]:
        A = (C + C.conj().T) / 2.0
        B = (C - C.conj().T) / 2.0j
        r_rec = max(r_rec, float(np.abs(A - A.conj().T).max()), float(np.abs(B - B.conj().T).max()))
        lower_img = 0.5 * (forced_paired_image(A, 1.0) + (1.0 / 1.0j) * forced_paired_image(A, 1.0j))
        lower_img = lower_img + 1.0j * (
            0.5 * (forced_paired_image(B, 1.0) + (1.0 / 1.0j) * forced_paired_image(B, 1.0j))
        )
        target = _embed_fields(s, {"a": 0.0, "d": 0.0, "B": np.zeros((n, n)), "C": C.T}, ())
        r_rec = max(r_rec, float(np.abs(lower_img - target).max()))
    step3 = Step(
        "Cartesian decomposition C = A + iB rebuilds the forced image of an"
        " arbitrary lower corner as its blockwise transpose",
        r_rec,
        EXACT_TOL,
    )

    r_squeeze = lower_right_forcing_check(n, trials=50, rng_seed=rng_seed)
    step4 = Step(
        "PSD squeeze pins the extension's lower-right values (pseudoinverse"
        " restricted to the range)",
        r_squeeze,
        IDENTITY_TOL,
    )

    W = corner_witness(n)
    in_eigs = hermitian_eigenvalues(W)
    r_in = max(abs(float(in_eigs[-1]) - 2.0), float(np.abs(in_eigs[:-1]).max()))
    out = block_transpose(W)
    out_eigs = hermitian_eigenvalues(out)
    min_out = float(out_eigs[0])
    step5 = Step(
        "the forced blockwise transpose sends the rank-one corner witness"
        " (eigenvalues {2, 0}) to a matrix with eigenvalue -1",
        max(r_in, abs(min_out + 1.0)),
        MEMBERSHIP_TOL,
    )

    steps = (step1, step2, step3, step4, step5)
    return Verdict(
        outcome=Outcome.CONTRADICTION,
        threshold_used=1,
        witnesses=(("positive-input", W), ("forced-image", out)),
        narrative=steps,
        margin=-min_out,
    )


def verify_verdict_invariants(v: Verdict) -> list[str]:
    """Internal consistency failures of a verdict, empty when clean.

    Checks that every narrative residual is within its declared tolerance
    and that a contradiction carries witnesses with margin above the
    reporting threshold.
    """
    problems: list[str] = []
    for k, s in enumerate(v.narrative):
        if not s.ok:
            problems.append(
                f"step {k} residual {s.residual:.3e} exceeds tolerance {s.tolerance:.3e}"
            )
    if v.outcome is Outcome.CONTRADICTION:
        if v.margin is None or v.margin < MARGIN:
            problems.append(f"contradiction margin {v.margin} below {MARGIN}")
        if len(v.witnesses) < 2:
            problems.append("contradiction must carry a witness pair")
    return problems
