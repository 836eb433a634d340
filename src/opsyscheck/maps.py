"""The six block-transpose maps and their numerical checks.

Each map acts on 2x2 block matrices by transposing some blocks, as the
table ``_RULES`` states:

* quarter-transpose (token "phi"): both off-diagonal blocks are transposed
  and scaled by 1/4; domain scalar-diagonal.
* offdiag-swap (token "upsilon"): off-diagonal blocks transposed; domain
  transpose-paired, real.
* offdiag-swap-complex (token "upsilon-prime"): complex-linear extension of
  the same rule to the complex span.
* corner-transpose (token "gamma"): upper-left block transposed; domain
  free-corner.
* block-transpose (token "psi-transpose"): every block transposed; defined
  on the full complex algebra.  Restricted to any of the four domains above
  (without the 1/4 scaling) it reproduces the corresponding map, which is
  why it appears as the forced extension candidate.
* corner-transpose-full (token "psi-real-ext"): upper-left block transposed,
  defined on the full real algebra.

Checks: structure (unital, self-adjointness, linearity), positivity on
seeded PSD inputs, multi-start norm estimation, a closed-form norm bound for
the complex swap, Kadison-Schwarz defects for forced extension candidates,
and the singular-value invariance when the two scalar corners of a
free-corner element trade places.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from .linalg import (
    EXACT_TOL,
    IDENTITY_TOL,
    MEMBERSHIP_TOL,
    PSD_TOL,
    DimensionMismatchError,
    SparseBasis,
    _adjoint,
    _require_finite,
    as_square,
    as_squares,
    block2x2,
    char_poly_block_eval,
    hermitian_part_eigenvalues,
    hermiticity_defect,
    is_psd,
    operator_norm,
    stack_chunks,
)
from .systems import (
    DomainViolationError,
    Field,
    PairedCornerElement,
    SystemElement,
    SystemId,
    SystemKind,
    _block,
    _draw_corner_tuple,
    _draw_fields,
    _draw_full,
    _draw_positive_fields,
    _draw_psd_rank_one,
    _draw_psd_wishart,
    _embed_fields,
    _require_contained,
    contains,
    embed,
    parameter_basis,
)


class PreconditionError(ValueError):
    """An input violates a documented precondition of the routine."""


class MapKind(enum.Enum):
    QUARTER_TRANSPOSE = ("phi", SystemKind.SCALAR_DIAGONAL, Field.COMPLEX)
    OFFDIAG_SWAP = ("upsilon", SystemKind.TRANSPOSE_PAIRED, Field.REAL)
    OFFDIAG_SWAP_COMPLEX = (
        "upsilon-prime",
        SystemKind.TRANSPOSE_PAIRED_COMPLEX,
        Field.COMPLEX,
    )
    CORNER_TRANSPOSE = ("gamma", SystemKind.FREE_CORNER, Field.COMPLEX)
    BLOCK_TRANSPOSE = ("psi-transpose", None, Field.COMPLEX)
    CORNER_TRANSPOSE_FULL = ("psi-real-ext", None, Field.REAL)

    def __init__(self, token: str, domain_kind, field: Field):
        self.token = token
        self.domain_kind = domain_kind
        self.field = field


MAP_KIND_BY_TOKEN = {k.token: k for k in MapKind}


@dataclasses.dataclass(frozen=True)
class MapId:
    """A map kind at a fixed block size n."""

    kind: MapKind
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"block size must be positive, got {self.n}")

    @property
    def field(self) -> Field:
        return self.kind.field

    @property
    def domain(self) -> SystemId | None:
        if self.kind.domain_kind is None:
            return None
        return SystemId(self.kind.domain_kind, self.n)


def block_transpose(M) -> np.ndarray:
    """Transpose each of the four blocks in place."""
    A = as_square(M)
    if A.shape[0] % 2 != 0:
        raise DimensionMismatchError(f"order {A.shape[0]} is odd, cannot split into blocks")
    return _blockwise(MapKind.BLOCK_TRANSPOSE, A)


# The one statement of each map: the blocks of the 2x2 grid it transposes,
# each with the real factor that scales the transposed block.  Every other
# block passes through unchanged.
_RULES: dict[MapKind, dict[tuple[int, int], float]] = {
    MapKind.QUARTER_TRANSPOSE: {(0, 1): 0.25, (1, 0): 0.25},
    MapKind.OFFDIAG_SWAP: {(0, 1): 1.0, (1, 0): 1.0},
    MapKind.OFFDIAG_SWAP_COMPLEX: {(0, 1): 1.0, (1, 0): 1.0},
    MapKind.CORNER_TRANSPOSE: {(0, 0): 1.0},
    MapKind.BLOCK_TRANSPOSE: {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0},
    MapKind.CORNER_TRANSPOSE_FULL: {(0, 0): 1.0},
}


def _blockwise(kind: MapKind, M: np.ndarray) -> np.ndarray:
    """The map's rule on a matrix, or on each matrix of a stack.

    A factor of 1 copies the transposed block as it is, so an unscaled
    transpose moves every entry bit for bit.
    """
    n = M.shape[-1] // 2
    out = M.copy()
    for block, factor in _RULES[kind].items():
        X = _block(M, n, block).swapaxes(-1, -2)
        _block(out, n, block)[...] = X if factor == 1.0 else factor * X
    return out


def apply(m: MapId, x) -> np.ndarray:
    """Apply a map to a 2n x 2n matrix, or to each matrix of a stack.

    The matrices are membership-checked against the domain first
    (full-algebra maps only check the field), raising DomainViolationError
    if any of them fails.  Elements of a domain go through ``embed`` first.
    """
    M = as_squares(x)
    dom = m.domain
    if M.shape[-1] != 2 * m.n:
        raise DomainViolationError(
            f"matrix order {M.shape[-1]} does not match map order {2 * m.n}"
        )
    if dom is not None:
        _require_contained(dom, M)
    elif m.field is Field.REAL and M.dtype.kind == "c":
        if np.abs(M.imag).max() > MEMBERSHIP_TOL:
            raise DomainViolationError("real-algebra map applied to a complex matrix")
        M = M.real
    return _blockwise(m.kind, M)


def _random_domain_matrices(m: MapId, rng: np.random.Generator, k: int) -> np.ndarray:
    """A (k, 2n, 2n) stack of seeded generic matrices of the map's domain."""
    dom = m.domain
    if dom is None:
        return _draw_full(m.n, m.field, rng, (k,))
    return _embed_fields(dom, _draw_fields(dom, rng, 1.0, k), (k,))


def _deviations(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation between each pair of matrices of two stacks."""
    return np.abs(X - Y).max(axis=(-2, -1))


@dataclasses.dataclass(frozen=True)
class StructuralReport:
    """Residuals for unitality, self-adjointness and linearity."""

    trials: int
    unital_residual: float
    self_adjoint_worst: float
    self_adjoint_failures: int
    linear_worst: float
    linear_failures: int
    passed: bool


def check_structural(m: MapId, trials: int = 25, rng_seed: int = 0) -> StructuralReport:
    """Verify the map is unital, self-adjointness-preserving and linear.

    Self-adjointness means apply(M*) = apply(M)* over the complex field and
    apply(M^t) = apply(M)^t over the real field.  Failures are counted and
    reported, never raised; a residual above IDENTITY_TOL is a failure.

    The trials run in stacks of at most 2^15 matrix entries: each stack
    draws its matrices M, then N, then the coefficient pairs (alpha, beta)
    of the linearity check, and applies the map once per stack and operand.
    """
    rng = np.random.default_rng(rng_seed)
    n2 = 2 * m.n
    I = np.eye(n2, dtype=m.field.dtype)
    unital_residual = float(np.abs(apply(m, I) - I).max())

    sa_worst = 0.0
    sa_fail = 0
    lin_worst = 0.0
    lin_fail = 0
    for _, k in stack_chunks(trials, n2):
        M = _random_domain_matrices(m, rng, k)
        N = _random_domain_matrices(m, rng, k)
        if m.field is Field.COMPLEX:
            coef = rng.normal(size=(k, 2, 2)).view(np.complex128)[..., 0]
        else:
            coef = rng.normal(size=(k, 2))
        alpha, beta = coef[:, 0, None, None], coef[:, 1, None, None]
        FM, FN = apply(m, M), apply(m, N)
        r = _deviations(apply(m, _adjoint(M)), _adjoint(FM))
        sa_worst = max(sa_worst, float(r.max()))
        sa_fail += int(np.count_nonzero(r > IDENTITY_TOL))
        r = _deviations(apply(m, alpha * M + beta * N), alpha * FM + beta * FN)
        lin_worst = max(lin_worst, float(r.max()))
        lin_fail += int(np.count_nonzero(r > IDENTITY_TOL))

    passed = unital_residual <= IDENTITY_TOL and sa_fail == 0 and lin_fail == 0
    return StructuralReport(
        trials=trials,
        unital_residual=unital_residual,
        self_adjoint_worst=sa_worst,
        self_adjoint_failures=sa_fail,
        linear_worst=lin_worst,
        linear_failures=lin_fail,
        passed=passed,
    )


def corner_witness(n: int) -> np.ndarray:
    """Rank-one PSD matrix vv* with v = e1 (+) e2, written in 2x2 block form.

    Its blockwise transpose has an eigenvalue of exactly -1, which is the
    closing violation in the corner-transpose certificate and the seeded
    counterexample for the full block transpose.  Requires n >= 2.
    """
    if n < 2:
        raise ValueError(f"corner witness needs n >= 2, got {n}")
    v = np.zeros(2 * n, dtype=np.complex128)
    v[0] = 1.0
    v[n + 1] = 1.0
    return np.outer(v, v.conj())


def _positive_samples(m: MapId, rng: np.random.Generator, start: int, k: int) -> np.ndarray:
    """Seeded PSD inputs of trials start, ..., start + k - 1, as a stack.

    A domain map gets draws of the domain's positive sampler.  A full-algebra
    map gets rank-one projections on even trials and Wishart matrices on odd
    ones (all projections of the stack drawn first); trial 0 of the full
    block transpose (n >= 2) is the corner witness instead.
    """
    if m.domain is not None:
        return _draw_positive_fields(m.domain, rng, k)[1]
    n = m.n
    S = np.empty((k, 2 * n, 2 * n), dtype=m.field.dtype)
    wishart = np.arange(start, start + k) % 2 == 1
    rank_one = ~wishart
    if m.kind is MapKind.BLOCK_TRANSPOSE and start == 0 and n >= 2:
        S[0] = corner_witness(n)
        rank_one[0] = False
    S[rank_one] = _draw_psd_rank_one(n, m.field, rng, (np.count_nonzero(rank_one),))
    S[wishart] = _draw_psd_wishart(n, m.field, rng, (np.count_nonzero(wishart),))
    return S


@dataclasses.dataclass(frozen=True)
class PositivityViolation:
    trial: int
    input: np.ndarray
    output: np.ndarray
    min_eigenvalue: float
    hermiticity_defect: float


@dataclasses.dataclass(frozen=True)
class PositivityReport:
    trials: int
    violation_count: int
    violations: tuple[PositivityViolation, ...]
    min_output_eigenvalue: float


_MAX_STORED_VIOLATIONS = 16


def check_positivity_preserving(m: MapId, trials: int = 1000, rng_seed: int = 0) -> PositivityReport:
    """Push seeded PSD inputs through the map and eigencheck the outputs.

    The first trial for the full block transpose (n >= 2) is the corner
    witness, so its violation is found deterministically.  At most 16
    violations are stored, the first ones in trial order; all are counted.

    The trials run in stacks of at most 2^15 matrix entries: each stack is
    drawn, applied and eigenchecked at once (see ``_positive_samples``).
    """
    rng = np.random.default_rng(rng_seed)
    violations: list[PositivityViolation] = []
    count = 0
    min_out = math.inf
    for start, k in stack_chunks(trials, 2 * m.n):
        S = _positive_samples(m, rng, start, k)
        out = apply(m, S)
        verdict = is_psd(out, PSD_TOL)
        min_out = min(min_out, float(verdict.min_eigenvalue.min()))
        bad = np.flatnonzero(~verdict.is_psd)
        count += bad.size
        for j in bad[: _MAX_STORED_VIOLATIONS - len(violations)]:
            violations.append(
                PositivityViolation(
                    trial=start + int(j),
                    input=S[j].copy(),
                    output=out[j].copy(),
                    min_eigenvalue=float(verdict.min_eigenvalue[j]),
                    hermiticity_defect=float(verdict.hermiticity_defect[j]),
                )
            )
    return PositivityReport(
        trials=trials,
        violation_count=count,
        violations=tuple(violations),
        min_output_eigenvalue=float(min_out),
    )


@dataclasses.dataclass(frozen=True)
class NormEstimate:
    """Certified-from-below norm estimate with a unit-norm witness."""

    lower_bound: float
    witness: np.ndarray


def _structured_starts(m: MapId, basis: SparseBasis) -> list[np.ndarray]:
    n = m.n
    starts = [basis.params(np.eye(2 * n, dtype=m.field.dtype))]
    if m.kind is MapKind.OFFDIAG_SWAP_COMPLEX:
        # the corner witness of the norm proposition, padded to size n
        C = np.zeros((n, n), dtype=np.complex128)
        C[0, 0] = 1.0
        if n >= 2:
            C[1, 0] = 1.0j
        starts.append(basis.params(embed(PairedCornerElement(m.domain, 1.0, 0.0, C))))
    return starts


def _schatten(Y: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma_1, log ||Y||_p and its gradient G for each matrix of a stack.

    d log ||Y||_p = Re sum_jk dY[j, k] G[j, k] with G = sum_i c_i conj(u_i) v_i^t
    over the singular triples (sigma_i, u_i, v_i), c_i = sigma_i^(p-1) / ||Y||_p^p.
    As p grows the weights concentrate on the top pair, whose term is the
    derivative d sigma_1(Y) = Re u_1* dY v_1 (Lewis, Math. Oper. Res. 1996;
    Overton, SIAM J. Matrix Anal. Appl. 1988).

    Everything comes from one Hermitian eigensolve of the Gram matrix
    Y* Y = V diag(lambda) V*, with lambda_i = sigma_i^2 clamped at 0 against
    roundoff.  No left singular vector is needed: u_i sigma_i = Y v_i, so
    G = conj(Y V diag(w) V*) with w_i = c_i / sigma_i
    = (lambda_i / lambda_1)^(p/2 - 1) / (lambda_1 z), where
    z = sum_i (lambda_i / lambda_1)^(p/2) and ||Y||_p^p = sigma_1^p z.
    """
    lam, V = np.linalg.eigh(Y.conj().swapaxes(-1, -2) @ Y)
    lam = np.maximum(lam, 0.0)
    lam1 = lam[:, -1]
    r = lam / lam1[:, None]
    q = r ** (p[:, None] / 2.0 - 1.0)
    z = np.sum(q * r, axis=1)
    w = q / (lam1 * z)[:, None]
    s1 = np.sqrt(lam1)
    G = np.conj(Y @ ((V * w[:, None, :]) @ V.conj().swapaxes(-1, -2)))
    return s1, np.log(s1) + np.log(z) / p, G


# Schatten exponents of the ascent: stage k uses p = _P_BASE^(k+1)
_P_BASE = 16.0
_P_STAGES = 5
# a stage ends after this many steps, once the step length drops below
# _STAGE_END_STEP, or once the sphere-projected gradient is at most
# _STATIONARY, below which the first-order gain of any step is under double
# precision's resolution of the objective; every stage starts at step length
# _FIRST_STEP
_STAGE_STEPS = 30
_STAGE_END_STEP = 1e-6
_STATIONARY = math.sqrt(np.finfo(float).eps)
_FIRST_STEP = 0.5


def estimate_map_norm(
    m: MapId, restarts: int = 50, rng_seed: int = 0, maxiter: int = 500
) -> NormEstimate:
    """Multi-start gradient ascent for the operator norm of the map.

    The norm is the largest ratio sigma_1(map(X)) / sigma_1(X) over a real
    parameterization X = sum_i x_i B_i of the domain; a map on the full
    algebra has none and raises ValueError.  At the extremal
    points sigma_1(X) is often multiple (the complex swap's witness has a
    double top singular value), where the ratio has a ridge that plain
    gradient ascent zigzags on and stalls short of.  The ascent therefore
    climbs log ||map(X)||_p - log ||X||_p with Schatten exponents p = 16,
    16^2, ..., 16^5, which tend to the operator norm as p grows.  Its
    gradient comes from one Hermitian eigensolve of the Gram matrices of X
    and of map(X), pulled back through the map and the basis B_i (see
    ``_schatten``).

    All starts ascend together as one stack, each on the unit sphere of
    parameters: a step moves along the gradient projected onto the sphere
    and renormalizes.  Each start keeps its own step length, doubled after
    a step that raised the objective and cut by four after one that did not
    (the start then stays where it was).  A start moves to the next exponent
    after 30 steps, once its step length falls below 1e-6, or, checked
    before each step, once its projected gradient has norm at most
    sqrt(machine epsilon): no step could then raise the objective by more
    than double precision resolves, so a flat stage (an isometry, a
    plateau) costs no evaluation beyond the one that entered it.  A start
    stops after the last exponent.  ``maxiter`` caps the number of rounds.

    Every evaluated ratio sigma_1(map(X)) / sigma_1(X) is tracked, so the
    returned lower bound is the best value seen anywhere, renormalized
    through the stored witness.  The first start is the identity; maps with
    a known extremal configuration get it as a second start; the remaining
    starts are seeded Gaussian draws.
    """
    if m.domain is None:
        raise ValueError(f"{m.kind.token} acts on the full algebra; the norm search needs a domain")
    basis = parameter_basis(m.domain)

    # structured starts always run; random restarts fill the remaining budget
    starts = _structured_starts(m, basis)
    for k in range(len(starts), restarts):
        rng = np.random.default_rng([rng_seed, k])
        starts.append(rng.normal(size=basis.dim))
    x = np.array(starts)
    x /= np.linalg.norm(x, axis=1, keepdims=True)

    def ascent(x: np.ndarray, stage: np.ndarray):
        """Ratio, objective and sphere-projected gradient at each row of x."""
        p = _P_BASE ** (stage + 1.0)
        X = basis.combine(x)
        s, log_s, G = _schatten(X, p)
        t, log_t, H = _schatten(_blockwise(m.kind, X), p)
        # each map moves entries within their blocks and scales them by reals,
        # so it is its own adjoint under Re sum_jk X[j, k] Y[j, k]
        g = basis.pair(_blockwise(m.kind, H)) - basis.pair(G)
        g -= np.sum(g * x, axis=1, keepdims=True) * x
        return t / s, log_t - log_s, g

    stage = np.zeros(len(x), dtype=int)
    ratio, f, g = ascent(x, stage)
    best, best_x = ratio.copy(), x.copy()
    step = np.full(len(x), _FIRST_STEP)
    taken = np.zeros(len(x), dtype=int)
    for _ in range(maxiter):
        live = np.flatnonzero(step > 0.0)
        if live.size == 0:
            break
        # a stationary start ends its stage before stepping, at no evaluation
        flat = np.linalg.norm(g[live], axis=1) <= _STATIONARY
        done, live = live[flat], live[~flat]
        if live.size:
            y = x[live] + step[live, None] * g[live]
            y /= np.linalg.norm(y, axis=1, keepdims=True)
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
            ended = (taken[live] >= _STAGE_STEPS) | (step[live] < _STAGE_END_STEP)
            done = np.union1d(done, live[ended])

        step[done[stage[done] == _P_STAGES - 1]] = 0.0
        done = done[stage[done] < _P_STAGES - 1]
        if done.size:
            stage[done] += 1
            step[done] = _FIRST_STEP
            taken[done] = 0
            _, f[done], g[done] = ascent(x[done], stage[done])

    W = basis.matrix(best_x[int(np.argmax(best))])
    W = W / operator_norm(W)
    return NormEstimate(lower_bound=operator_norm(_blockwise(m.kind, W)), witness=W)


def offdiag_swap_norm_bound(a, b, C) -> float | np.ndarray:
    """Closed-form upper bound (|a| + |b| + sqrt((|b|-|a|)^2 + 4||C||^2)) / 2
    on the image norm under the complex off-diagonal swap.

    Requires the embedded element [[aI, C], [C^t, bI]] to have norm at most
    1 + IDENTITY_TOL.  The formula is symmetric in |a| and |b|, so it also
    covers the element with the two scalars traded.  a, b and C may carry
    leading stack axes (C of shape (..., n, n)); the bound then comes back
    as an array over them, and PreconditionError is raised if any element
    leaves the unit ball.  Single elements give a float.  NaN or infinite
    entries in a, b or C raise NonFiniteError.
    """
    C = np.asarray(C, dtype=np.complex128)
    if C.ndim < 2 or C.shape[-1] != C.shape[-2] or C.shape[-1] == 0:
        raise DimensionMismatchError(f"C must be square, got shape {C.shape}")
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    for value in (a, b, C):
        _require_finite(value)
    lead = np.broadcast_shapes(a.shape, b.shape, C.shape[:-2])
    s = SystemId(SystemKind.TRANSPOSE_PAIRED_COMPLEX, C.shape[-1])
    nM = _spectral_norms(_embed_fields(s, {"a": a, "b": b, "C": C}, lead))
    if np.any(nM > 1.0 + IDENTITY_TOL):
        raise PreconditionError(f"element norm {np.max(nM):.6f} exceeds 1 + {IDENTITY_TOL:.1e}")
    nC = _spectral_norms(C)
    bound = 0.5 * (np.abs(a) + np.abs(b) + np.sqrt((np.abs(b) - np.abs(a)) ** 2 + 4.0 * nC * nC))
    return float(bound) if bound.ndim == 0 else bound


def _spectral_norms(M: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix of a stack: the square root of the top
    eigenvalue of the Gram matrix M* M, through one batched Hermitian
    eigensolve.  The top eigenvalue of a Gram matrix carries relative error
    of order machine epsilon, like the top singular value."""
    return np.sqrt(np.linalg.eigvalsh(M.conj().swapaxes(-1, -2) @ M)[..., -1])


def swap_bound_domination(n: int, samples: int = 10_000, rng_seed: int = 0) -> float:
    """Smallest margin of the closed-form bound over the true image norm.

    Draws seeded elements of the complex paired system, rescales each to
    norm at most 1, and returns min(bound - ||image||) across the draws
    (inf when every draw was numerically zero).  A nonnegative return
    (within roundoff) means the bound dominated every sample.

    The draws come in stacks of at most 2^15 matrix entries (one sample
    where a single sample holds more): each stack is drawn and embedded at
    once, then its odd-numbered samples draw their boundary-brushing factors.
    """
    s = SystemId(SystemKind.TRANSPOSE_PAIRED_COMPLEX, n)
    rng = np.random.default_rng(rng_seed)
    worst = math.inf
    for start, k in stack_chunks(samples, 2 * n):
        fields = _draw_fields(s, rng, 1.0, k)
        M = _embed_fields(s, fields, (k,))
        nm = _spectral_norms(M)
        live = nm >= EXACT_TOL
        # scale to the unit ball, brushing the boundary on half the draws
        factor = np.ones(k)
        brush = live & (np.arange(start, start + k) % 2 == 1)
        factor[brush] = rng.uniform(0.1, 1.0, np.count_nonzero(brush))
        scale = factor[live] / nm[live]
        matrix_scale = scale[:, None, None]
        bound = offdiag_swap_norm_bound(
            fields["a"][live] * scale, fields["b"][live] * scale, fields["C"][live] * matrix_scale
        )
        image = _spectral_norms(_blockwise(MapKind.OFFDIAG_SWAP_COMPLEX, M[live] * matrix_scale))
        worst = min(worst, float(np.min(bound - image, initial=math.inf)))
    return float(worst)


def _trace_average_diagonal(M: np.ndarray) -> np.ndarray:
    """Conditional-expectation step: diagonal blocks averaged to (tr/n) I."""
    n = M.shape[0] // 2
    fields = {"a": np.trace(M[:n, :n]) / n, "d": np.trace(M[n:, n:]) / n, "B": M[:n, n:], "C": M[n:, :n]}
    return _embed_fields(SystemId(SystemKind.SCALAR_DIAGONAL, n), fields, ())


@dataclasses.dataclass(frozen=True)
class SchwarzReport:
    """Minimum eigenvalue of candidate(M^2) - map(M)^2 on a self-adjoint M."""

    defect_min_eigenvalue: float
    holds: bool
    candidate: str


def kadison_schwarz_check(m: MapId, x) -> SchwarzReport:
    """Schwarz-inequality defect for a map's forced extension candidate.

    M^2 leaves the domain of the restricted maps, so the check evaluates a
    candidate extension there: the blockwise transpose for the four
    transpose-family maps it restricts to, and for the quarter-transpose the
    composition with the trace-averaging compression onto scalar-diagonal
    form.  Full-algebra maps are their own candidate.  The defect matrix is
    candidate(M^2) - (map(M))^2; the inequality holds when its smallest
    eigenvalue is >= -IDENTITY_TOL.
    """
    M = embed(x) if isinstance(x, SystemElement) else as_square(x)
    dom = m.domain
    if M.shape[0] != 2 * m.n:
        raise DomainViolationError("matrix order does not match the map")
    if dom is not None and not contains(dom, M):
        raise DomainViolationError(f"matrix is not in {dom.kind.token}")
    if hermiticity_defect(M) > 1e-8:
        raise PreconditionError("Schwarz check needs a self-adjoint input")
    Msq = M @ M
    if m.kind is MapKind.QUARTER_TRANSPOSE:
        evaluated = _blockwise(m.kind, _trace_average_diagonal(Msq))
        candidate = "trace-averaged-compression"
    elif dom is not None:
        evaluated = block_transpose(Msq)
        candidate = "blockwise-transpose"
    else:
        evaluated = _blockwise(m.kind, Msq)
        candidate = "map-itself"
    FM = _blockwise(m.kind, M)
    delta = evaluated - FM @ FM
    dmin = float(hermitian_part_eigenvalues(delta)[0])
    return SchwarzReport(defect_min_eigenvalue=dmin, holds=dmin >= -IDENTITY_TOL, candidate=candidate)


def corner_square_identities(A, c, d) -> float:
    """Residual of the three block-square displays for M = [[A, cbar I], [c I, d I]].

    For self-adjoint A, real d and complex c, checks entrywise that

        M^2            = [[A^2 + |c|^2 I, cbar (A + d I)], [c (A + d I), (|c|^2 + d^2) I]]
        blockT(M^2)    = the same with A and (A + d I) transposed
        (blockT(M))^2  = the same expression built from A^t

    and returns the largest deviation across the three.  M is a free-corner
    element, on which blockT is the corner transpose: the last display
    squares that map's image of M.
    """
    A = as_square(np.asarray(A, dtype=np.complex128), "A")
    if hermiticity_defect(A) > EXACT_TOL:
        raise PreconditionError("A must be self-adjoint")
    c = complex(c)
    d = float(d)
    n = A.shape[0]
    I = np.eye(n, dtype=np.complex128)
    M = _embed_fields(SystemId(SystemKind.FREE_CORNER, n), {"A": A, "b": np.conj(c), "c": c, "d": d}, ())

    def square_display(X: np.ndarray, X2: np.ndarray) -> np.ndarray:
        """The displayed square with X in the corner and X2 for its square."""
        return block2x2(
            X2 + abs(c) ** 2 * I, np.conj(c) * (X + d * I), c * (X + d * I), (abs(c) ** 2 + d * d) * I
        )

    r1 = float(np.abs(M @ M - square_display(A, A @ A)).max())
    r2 = float(np.abs(block_transpose(M @ M) - square_display(A.T, (A @ A).T)).max())
    GM = _blockwise(MapKind.CORNER_TRANSPOSE, M)
    r3 = float(np.abs(GM @ GM - square_display(A.T, A.T @ A.T)).max())
    return max(r1, r2, r3)


def swap_bc_singular_check(n: int, trials: int = 1000, rng_seed: int = 0) -> float:
    """Largest deviation between the sorted singular values of
    [[A, bI], [cI, dI]] and [[A, cI], [bI, dI]] over seeded random draws.

    The draws come in stacks of at most 2^15 matrix entries, each embedded
    twice (b and c traded) and put through one batched SVD per embedding.
    """
    s = SystemId(SystemKind.FREE_CORNER, n)
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for _, k in stack_chunks(trials, 2 * n):
        A, b, c, d = _draw_corner_tuple(n, rng, k)
        M = _embed_fields(s, {"A": A, "b": b, "c": c, "d": d}, (k,))
        N = _embed_fields(s, {"A": A, "b": c, "c": b, "d": d}, (k,))
        dev = np.abs(np.linalg.svd(M, compute_uv=False) - np.linalg.svd(N, compute_uv=False)).max()
        worst = max(worst, float(dev))
    return worst


def char_poly_swap_check(
    n: int, instances: int = 25, lambdas: int = 20, rng_seed: int = 0
) -> float:
    """Relative agreement of char_poly evaluations under the b-c swap.

    For each instance, compares det(M*M - lam I) against det(N*N - lam I)
    directly, and the reduced n x n evaluation against the direct 2n x 2n
    determinant, at ``lambdas`` random complex points.  Returns the largest
    relative deviation.
    """
    s = SystemId(SystemKind.FREE_CORNER, n)
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    I2n = np.eye(2 * n, dtype=np.complex128)
    for _ in range(instances):
        A, b, c, d = (x[0] for x in _draw_corner_tuple(n, rng, 1))
        M = _embed_fields(s, {"A": A, "b": b, "c": c, "d": d}, ())
        N = _embed_fields(s, {"A": A, "b": c, "c": b, "d": d}, ())
        GM = M.conj().T @ M
        GN = N.conj().T @ N
        for _ in range(lambdas):
            lam = complex(rng.normal(), rng.normal())
            pM = complex(np.linalg.det(GM - lam * I2n))
            pN = complex(np.linalg.det(GN - lam * I2n))
            pR = char_poly_block_eval(A, b, c, d, lam)
            scale = max(abs(pM), abs(pN), 1e-30)
            worst = max(worst, abs(pM - pN) / scale, abs(pR - pM) / scale)
    return worst


def quarter_transpose_witness_norm(n: int) -> float:
    """Norm of the amplified off-diagonal quarter transpose on its standard
    entangled witness; equals n/4, crossing 1 strictly between n=4 and n=5.

    The witness sum_ij E_ij (x) E_ij has its ones at the rows and columns
    k (n + 1), k < n; the map scales it by its off-diagonal factor.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    Y = np.zeros((n * n, n * n))
    ones = np.arange(n) * (n + 1)
    Y[np.ix_(ones, ones)] = _RULES[MapKind.QUARTER_TRANSPOSE][(1, 0)]
    return operator_norm(Y)


def complex_swap_witness() -> tuple[np.ndarray, np.ndarray]:
    """The norm-ratio witness of the complex off-diagonal swap at n = 2.

    Returns (M, N) with N the image of M: ||M|| = sqrt(3), ||N|| = 2, so the
    ratio attains 2/sqrt(3).
    """
    M = np.array(
        [
            [1, 0, 1, 0],
            [0, 1, 1j, 0],
            [1, 1j, 0, 0],
            [0, 0, 0, 0],
        ],
        dtype=np.complex128,
    )
    N = np.array(
        [
            [1, 0, 1, 1j],
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [1j, 0, 0, 0],
        ],
        dtype=np.complex128,
    )
    return M, N
