"""Extension certificates: exact thresholds where positive extension fails.

Each certify_* routine replays a forcing argument numerically and without
draws: a step that is not a linear identity runs on a finite spanning set,
and a linear identity at seeded integer points (below), so a verdict
depends on n alone.  The logic is always the same: assume some positive
unital map on the full matrix algebra agrees with the restricted map on
its subspace, derive values the extension is forced to take on specific
PSD certificates, and compare the forced values against what positivity
allows.  The comparison reduces to an exact integer threshold in the block
size n; the narrative records every computed residual along the way, and a
Contradiction verdict carries the violating witness pair together with its
eigenvalue margin.

Nothing here proves an extension exists.  Below threshold the verdict is
Inconclusive, except in the degenerate sizes where the map is the identity
and the identity map of the algebra is exhibited as an extension.

Two chains rest on a symmetry: where the map T commutes with conjugation
by a monomial unitary W, T(W X W*) = W T(X) W*, a step checked on X holds
on W X W* with the same spectrum and the same entrywise residual, and is
not checked again.  The n^2 certificates [[E_ii, E_ij], [E_ji, I]] of the
two corner-scaling certificates fall into two orbits under W = pi (+) pi,
one permutation of the indices applied to both diagonal blocks: (0, 0)
reaches every (i, i) and (0, 1) every (i, j) with i != j, so only the two
representatives are eigensolved, as in the symmetry reduction of PSD
certificates of Gatermann and Parrilo (J. Pure Appl. Algebra 192, 2004),
and covariance is checked for the two generators of S_n.  The
corner-transpose chain's square expansions take W = U = I (+) iI, which
sends M = [[A, cbar I], [c I, d I]] at c = 1 to M at c = i, so only c = 1
is computed, and covariance of both transposes is checked on all of M_2n.

Steps that check a linear identity do so by exact evaluation at random
points instead of on a spanning set (Schwartz, J. ACM 27, 1980; Zippel,
EUROSAM 1979): both covariances, and the corner-transpose chain's sign
flip (step 2) and Cartesian rebuild (step 3).  Each independent real
coordinate of a point is a uniform integer in [-2^10, 2^10); the map
factors are 1 and 1/4 and the phases 1 and i, so every value stays far
below 2^53, the arithmetic is exact, and a residual is 0.0 or a real
failure.  A nonzero identity of degree 1 vanishes at one point with
probability at most 2^-11, so four independent points prove it up to error
2^-44.  The points of step k at block size n come from numpy's default
generator seeded by (k, n) alone, so a verdict still depends on n alone.

The corner-transpose chain's square expansions (step 1) and squeeze (step
4) run on the n^2 rank-one projections of ``_projection_stacks``, whose
entries 0, 1, 1/2 and +-i/2 are exact, so they too check polynomial
identities exactly and are gated at 0.0: step 4 checks that each
transposed projection is orthogonal, and so its own pseudoinverse.

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
    MARGIN,
    MEMBERSHIP_TOL,
    PSD_TOL,
    _adjoint,
    _deviation,
    as_squares,
    block2x2,
    hermitian_eigenvalues,
    hermiticity_defect,
    is_psd,
    stack_chunks,
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
from .systems import _ELEMENT_CLASS, _LAYOUT, Field, Role, SystemId, SystemKind, _block, _embed_fields


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
    """Both sides of the equivalence [[P, X*], [X, I]] PSD <=> P >= X*X, for
    one pair or for each pair of a stack."""

    block_min_eigenvalue: float | np.ndarray
    complement_min_eigenvalue: float | np.ndarray
    block_psd: bool | np.ndarray
    complement_psd: bool | np.ndarray
    agrees: bool | np.ndarray


def schur_implication(P, X, tol: float = PSD_TOL) -> SchurReport:
    """Eigencheck both sides of the Schur-complement equivalence, over the
    field of P and X: real when both are real, complex when either is.

    Stacks of P and X of one shape get one report entry per pair, as arrays
    over the leading axes, from one batched eigensolve per side; a single
    pair gets floats and bools.
    """
    P, X = as_squares(P, "P"), as_squares(X, "X")
    field = np.result_type(P, X)
    P, X = P.astype(field, copy=False), X.astype(field, copy=False)
    I = np.broadcast_to(np.eye(P.shape[-1], dtype=field), P.shape)
    m_big = is_psd(block2x2(P, _adjoint(X), X, I)).min_eigenvalue
    m_comp = is_psd(P - _adjoint(X) @ X).min_eigenvalue
    b_ok = m_big >= -tol
    c_ok = m_comp >= -tol
    return SchurReport(
        block_min_eigenvalue=m_big,
        complement_min_eigenvalue=m_comp,
        block_psd=b_ok,
        complement_psd=c_ok,
        agrees=b_ok == c_ok,
    )


# Randomized identity steps: IDENTITY_POINTS exact evaluations, each real
# coordinate a uniform integer in [-POINT_BOUND, POINT_BOUND)
IDENTITY_POINTS = 4
POINT_BOUND = 1 << 10


def _proved(points: str, step: int) -> str:
    """The tag of a randomized step: its error bound (1/|S|)^r and its seed."""
    # |S| = 2 POINT_BOUND = 2^11
    bits = IDENTITY_POINTS * POINT_BOUND.bit_length()
    return f" (proved up to error 2^-{bits} at {IDENTITY_POINTS} {points} seeded by ({step}, n))"


def _point_generator(step: int, n: int) -> np.random.Generator:
    """The seed rule of every randomized step: numpy's default generator
    seeded by the step's number in its narrative, counted from 1, and n."""
    return np.random.default_rng((step, n))


def _integer_points(rng: np.random.Generator, shape: tuple[int, ...], field: Field) -> np.ndarray:
    """A stack of IDENTITY_POINTS arrays of the given shape over the field,
    each independent real part a uniform integer in [-2^10, 2^10), real
    parts before imaginary parts."""
    parts = 2 if field is Field.COMPLEX else 1
    x = rng.integers(-POINT_BOUND, POINT_BOUND, (parts, IDENTITY_POINTS) + shape).astype(np.float64)
    if parts == 1:
        return x[0]
    z = np.empty(x.shape[1:], dtype=np.complex128)
    z.real, z.imag = x
    return z


def _domain_points(s: SystemId, step: int) -> np.ndarray:
    """The (IDENTITY_POINTS, 2n, 2n) seeded integer points of a subsystem:
    every field of its layout drawn by ``_integer_points``."""
    rng = _point_generator(step, s.n)
    fields = {
        name: _integer_points(rng, () if role is Role.SCALAR else (s.n, s.n), s.field)
        for name, _, role in _LAYOUT[_ELEMENT_CLASS[s.kind]]
    }
    return _embed_fields(s, fields, (IDENTITY_POINTS,))


def _hermitian_points(n: int, step: int) -> np.ndarray:
    """The (IDENTITY_POINTS, n, n) seeded self-adjoint integer points: the
    real diagonal and the strict upper triangle drawn by
    ``_integer_points``, the lower triangle its conjugate mirror."""
    G = _integer_points(_point_generator(step, n), (n, n), Field.COMPLEX)
    H = np.triu(G, 1)
    H += _adjoint(H)
    diagonal = np.arange(n)
    H[:, diagonal, diagonal] = G.real[:, diagonal, diagonal]
    return H


def _forced_corner(m: MapId, S: np.ndarray) -> np.ndarray:
    """The lower-left block of the map's image of S, or of each matrix of a
    stack: the corner any extension is forced to take on a certificate with
    subsystem part S."""
    return _block(_blockwise(m.kind, S), m.n, (1, 0))


def _certificate_parts(n: int, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal parts D = E_ii (+) 0 and the subspace parts
    S = [[0, E_ij], [E_ji, I]] of the certificates of the pairs (i, j)."""
    rows = np.arange(i.size)
    D = np.zeros((i.size, 2 * n, 2 * n))
    D[rows, i, i] = 1.0
    S = np.zeros_like(D)
    S[rows, i, n + j] = S[rows, n + j, i] = 1.0
    S[:, n:, n:] = np.eye(n)
    return D, S


def _covariance_defect(kind: MapKind, X: np.ndarray, monomials: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """Largest deviation from T(W X W*) = W T(X) W* at the stack of points
    X, for T the map's rule and each monomial unitary W = diag(w) Pi, given
    as a pair (p, w) of a permutation p of range(2n) and a phase vector w:
    (W Y W*)_kl = w_k Y_p(k)p(l) conj(w_l).  The phases are 1 or i, so both
    sides move entries exactly, and the identity is linear in X."""
    TX = _blockwise(kind, X)
    worst = 0.0
    for p, w in monomials:
        phases = w[:, None] * np.conj(w)
        moved = _deviation(_blockwise(kind, phases * X[:, p[:, None], p]), phases * TX[:, p[:, None], p])
        worst = max(worst, float(moved.max()))
    return worst


def _corner_forcing_steps(m: MapId) -> tuple[list[Step], np.ndarray]:
    """Shared narrative core of the two corner-scaling certificates.

    Each certificate Q_ij = [[E_ii, E_ij], [E_ji, I]] is built as a
    diagonal part D_i = E_ii (+) 0 plus a subspace part
    S_ij = [[0, E_ij], [E_ji, I]] whose image the map gives.  A permutation
    pi of the indices with pi(0) = i and, for i != j, pi(1) = j, applied
    to both diagonal blocks, sends Q_00 to Q_ii, Q_01 to Q_ij (i != j)
    and D_0 to D_i.  These are placed by index, with no map involved, so
    each has its representative's spectrum, and only the representatives
    (0, 0) and (0, 1), just (0, 0) at n = 1, are eigensolved: their
    certificates and D_0 are PSD, and the Schur step turns their forced
    corners X (see ``_forced_corner``) into the lower bound X* X on the
    upper-left value.

    Where the map commutes with every such relabeling, each forced corner
    X_ij is its representative's relabeled, and its Schur step is a
    relabeling of the representative's.  ``_covariance_defect`` checks this
    for Pi = pi (+) pi, pi the transposition (0 1) and the n-cycle, which
    generate every permutation of range(n), at the seeded integer points of
    the map's domain.  Its residual joins the Schur step's, so a map that
    treats one index unlike another fails it.
    Returns the steps and the summed bound sum_i X_i1* X_i1 of the map's
    own n corners, built per stack of ``stack_chunks``.
    """
    n = m.n
    D, S = _certificate_parts(n, np.zeros(min(n, 2), dtype=int), np.arange(min(n, 2)))
    # the entries are 0 or 1, so the certificates D + S are exact
    r_psd = float(np.abs(is_psd(D + S).min_eigenvalue).max())
    r_decomp = abs(min(is_psd(D[0]).min_eigenvalue, 0.0))
    X_rep = _forced_corner(m, S)
    rep = schur_implication(_adjoint(X_rep) @ X_rep, X_rep, tol=MEMBERSHIP_TOL)
    r_schur = float(np.abs([rep.block_min_eigenvalue, rep.complement_min_eigenvalue]).max())
    swap = np.arange(n)
    swap[:2] = swap[1::-1]
    relabelings = [(np.concatenate([pi, pi + n]), np.ones(2 * n)) for pi in (swap, np.roll(np.arange(n), 1))]
    r_schur = max(r_schur, _covariance_defect(m.kind, _domain_points(m.domain, 3), relabelings))
    bound = np.zeros((n, n))
    sum_D = np.zeros((n, n))
    # the pairs (i, 0), indices from 0: the n distinct diagonal parts and
    # the corners X_i1 of the summed bound
    for start, k in stack_chunks(n, 2 * n):
        D, S = _certificate_parts(n, np.arange(start, start + k), np.zeros(k, dtype=int))
        X = _forced_corner(m, S)
        bound += (_adjoint(X) @ X).sum(axis=0)
        sum_D += D[:, :n, :n].sum(axis=0)
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
            " image, forces upper-left >= X_ij* X_ij; X_ij is a representative's"
            " relabeled, as the map commutes with relabeling both diagonal blocks"
            " by (0 1) and by the n-cycle" + _proved("(Gaussian-)integer points of its domain", 3),
            r_schur,
            MEMBERSHIP_TOL,
        ),
        # a sum of 0/1 matrices is exact
        Step(
            "the diagonal parts resolve the upper-left identity, capped by I"
            " since the extension is unital and positive",
            float(np.abs(sum_D - np.eye(n)).max()),
            0.0,
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
    steps.append(Step(f"summed forced bound sum_i X_i1* X_i1 = {forced:g} E_11 against the cap I", 0.0, 0.0))
    if forced == 0.0:
        steps.append(Step("forced bound vanishes; no obstruction at any size", 0.0, 0.0))
        return Verdict(Outcome.INCONCLUSIVE, None, (), tuple(steps))
    # the largest n whose bound n s^2 stays within the cap: n / forced = 1 / s^2
    threshold = int(n // forced)
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
        # n times the factor s of the forced corners, read off the subspace
        # part [[0, E_11], [E_11, I]] of the first certificate
        S = np.diag(np.repeat([0.0, 1.0], n))
        S[0, n] = S[n, 0] = 1.0
        ns = n * float(np.abs(_forced_corner(m, S)).max())
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


def _projection_stacks(n: int):
    """The n^2 rank-one projections onto e_k, (e_k + e_l)/sqrt(2) and
    (e_k + i e_l)/sqrt(2) for k < l, in stacks of ``stack_chunks`` at order
    2n.  They span the self-adjoint n x n matrices, and every entry is 0,
    1, 1/2 or +-i/2, so each is exact."""
    upper = np.triu_indices(n, 1)
    rows, cols = (np.concatenate([np.arange(n), x, x]) for x in upper)
    w = np.concatenate([np.zeros(n), np.ones(upper[0].size), np.full(upper[0].size, 1j)])
    for start, k in stack_chunks(n * n, 2 * n):
        part = slice(start, start + k)
        v = np.zeros((k, n), dtype=np.complex128)
        v[np.arange(k), rows[part]] = 1.0
        v[np.arange(k), cols[part]] += w[part]
        scale = 1.0 / (1.0 + np.abs(w[part]) ** 2)
        yield scale[:, None, None] * v[:, :, None] * v.conj()[:, None, :]


def lower_right_forcing_check(n: int) -> float:
    """Worst residual max(|D^t - (D^t)*|, |D^t D^t - D^t|) over the rank-one
    projections D of ``_projection_stacks``, 0.0 when each D^t is an
    orthogonal projection and so its own pseudoinverse (Penrose, Proc.
    Cambridge Philos. Soc. 51, 1955): both squeeze bounds D^t (D^t)^+ D^t
    and I - J J^+ J, J = I - D^t, are then D^t.  The projections span the
    self-adjoint matrices and the extension is linear, so pinning its
    values on them pins them on every 0 <= D <= I."""
    worst = 0.0
    for D in _projection_stacks(n):
        Dt = D.swapaxes(-1, -2)
        worst = max(worst, float(hermiticity_defect(Dt).max()), float(np.abs(Dt @ Dt - Dt).max()))
    return worst


def _forced_image(B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The table's blockwise transpose of [[0, B], [C, 0]], for stacks B and
    C: a scalar-diagonal matrix with zero scalars."""
    s = SystemId(SystemKind.SCALAR_DIAGONAL, C.shape[-1])
    fields = {"a": 0.0, "d": 0.0, "B": B, "C": C}
    return _blockwise(MapKind.BLOCK_TRANSPOSE, _embed_fields(s, fields, C.shape[:-2]))


def _forced_paired_image(A: np.ndarray, c: complex) -> np.ndarray:
    """The forced image of the Hermitian-paired corners cbar A and c A."""
    return _forced_image(np.conj(c) * A, c * A)


def _rebuilt_image(X: np.ndarray) -> np.ndarray:
    """The forced image of the lower corner X, for self-adjoint X, from its
    paired images at c = 1 and c = i."""
    return 0.5 * (_forced_paired_image(X, 1.0) + (1.0 / 1.0j) * _forced_paired_image(X, 1.0j))


def _sign_flip_step(n: int) -> Step:
    """Step 2 of the corner-transpose chain: F(P, c) + F(P, -c) = 0 for
    c = 1 and i, F the forced paired image, at the seeded self-adjoint
    points P.  The identity is linear in P."""
    P = _hermitian_points(n, 2)
    flips = (_forced_paired_image(P, c) + _forced_paired_image(P, -c) for c in (1.0 + 0.0j, 1.0j))
    return Step(
        "sign flip c -> -c negates the forced image, for c = 1 and i, so the"
        " pinning is linear in the corner" + _proved("self-adjoint Gaussian-integer points", 2),
        max(float(np.abs(F).max()) for F in flips),
        0.0,
    )


def _rebuild_step(n: int) -> Step:
    """Step 3 of the corner-transpose chain: the forced image of each seeded
    corner C, rebuilt from its Cartesian parts A = (C + C*)/2 and
    B = (C - C*)/2i, with the parts' deviation from self-adjointness.  The
    identity is real-linear in C, and halving integers is exact."""
    C = _integer_points(_point_generator(3, n), (n, n), Field.COMPLEX)
    Ch = _adjoint(C)
    A = (C + Ch) / 2.0
    B = (C - Ch) / 2.0j
    lower_img = _rebuilt_image(A) + 1.0j * _rebuilt_image(B)
    residual = max(
        float(hermiticity_defect(np.stack([A, B])).max()),
        float(np.abs(lower_img - _forced_image(np.zeros_like(C), C)).max()),
    )
    return Step(
        "Cartesian decomposition C = A + iB rebuilds the forced image of an"
        " arbitrary lower corner as its blockwise transpose" + _proved("Gaussian-integer corners C", 3),
        residual,
        0.0,
    )


def certify_corner_transpose(n: int) -> Verdict:
    """The corner transpose admits no positive unital extension for n >= 2.

    The chain forces any extension to act as the blockwise transpose: square
    expansions on a self-adjoint spanning set pin the off-diagonal images of
    Hermitian-paired corners, a sign flip and the Cartesian decomposition
    C = A + iB extend the pinning to arbitrary corners, and the squeeze pins
    the lower-right values.  The blockwise transpose then fails positivity
    on the rank-one corner witness, whose image has eigenvalue exactly -1.

    Step 1's square expansions and step 4's squeeze are checked exactly on
    the rank-one projections, which span the self-adjoint matrices, and
    linearity carries them to every input.  The linear identities, step 1's
    I (+) iI covariance and steps 2 and 3, are checked exactly at seeded
    integer points, of all of M_2n for step 1, self-adjoint ones for step 2
    and arbitrary corners for step 3, and hold up to error 2^-44.  Steps 1
    to 4 are gated at 0.0.  The seeds depend on the step and on n alone, so
    the verdict depends on n alone.
    """
    MapId(MapKind.CORNER_TRANSPOSE, n)  # raises ValueError unless n >= 1
    if n == 1:
        return _identity_extension(
            "at n = 1 the upper-left block is a scalar, so the map is the identity", np.complex128
        )
    # at c = 1 the corner transpose receives M = [[A, I], [I, dI]] and the
    # block transpose M^2, and U M U*, U = I (+) iI, is M at c = i.  Both
    # commute with X -> U X U* on all of M_2n, so the displays at c = i are
    # the U-conjugates of those at c = 1, with the same entrywise residual,
    # and need no call of their own
    X = _integer_points(_point_generator(1, n), (2 * n, 2 * n), Field.COMPLEX)
    U = [(np.arange(2 * n), np.repeat([1.0, 1.0j], n))]
    r_sq = max(_covariance_defect(kind, X, U) for kind in (MapKind.CORNER_TRANSPOSE, MapKind.BLOCK_TRANSPOSE))
    for P in _projection_stacks(n):
        # each display has degree at most 2 in d, so three values check it
        # for all d
        for A in P:
            for d in (0.0, 1.0, -1.0):
                r_sq = max(r_sq, corner_square_identities(A, 1.0, d))
    step1 = Step(
        "square-expansion identities hold on the self-adjoint spanning set"
        " with c = 1, and with c = i by conjugation with I (+) iI, which both"
        " transposes commute with" + _proved("Gaussian-integer points of M_2n", 1) + "; this pins the"
        " images of Hermitian-paired corners",
        r_sq,
        0.0,
    )
    step2, step3 = _sign_flip_step(n), _rebuild_step(n)

    step4 = Step(
        "PSD squeeze pins the extension's lower-right values: each D^t of the"
        " spanning set is an orthogonal projection, so (D^t)^+ = D^t, both"
        " bounds D^t (D^t)^+ D^t and I - J J^+ J (J = I - D^t) equal D^t, and"
        " [[D^t, D^t], [D^t, D^t]] is PSD since D^t = (D^t)* (D^t)",
        lower_right_forcing_check(n),
        0.0,
    )

    W = corner_witness(n)
    in_eigs = hermitian_eigenvalues(W)
    r_in = max(abs(float(in_eigs[-1]) - 2.0), float(np.abs(in_eigs[:-1]).max()))
    out = block_transpose(W)
    # an image that is not self-adjoint fails the step by its defect, not by raising
    image = is_psd(out)
    min_out = image.min_eigenvalue
    step5 = Step(
        "the forced blockwise transpose sends the rank-one corner witness"
        " (eigenvalues {2, 0}) to a matrix with eigenvalue -1",
        max(r_in, abs(min_out + 1.0), image.hermiticity_defect),
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
