"""The lemma and Schwarz checks on stacks equal their one-element forms row
by row.

The stacked positivity criterion and boundary margin are held against a
reference copy of the per-element code they replaced, and stacked
membership against the per-block comparison it replaced.  The Schwarz and
block-square checks on a stack equal their one-element calls, and raise as
they do.  The lemma and Schwarz runners keep their memory bounded at the
largest size the CLI accepts.
"""

import math
import tracemalloc

import numpy as np
import pytest

from opsyscheck import suite
from opsyscheck.linalg import (
    EXACT_TOL,
    MEMBERSHIP_TOL,
    PSD_TOL,
    as_squares,
    char_poly_block_eval,
    hermiticity_defect,
    is_psd,
    operator_norm,
)
from opsyscheck.maps import (
    MapId,
    MapKind,
    PreconditionError,
    char_poly_swap_check,
    corner_square_identities,
    kadison_schwarz_check,
)
from opsyscheck.report import STATUS_PASS
from opsyscheck.systems import (
    _ELEMENT_CLASS,
    _LAYOUT,
    CORNER_KINDS,
    LEMMA_KINDS,
    DomainViolationError,
    Field,
    FreeCornerElement,
    Role,
    ScalarDiagonalElement,
    SystemId,
    SystemKind,
    _block,
    _criterion_fields,
    _draw_corner_tuple,
    _draw_fields,
    _draw_full,
    _draw_positive_fields,
    _draw_selfadjoint,
    _element_at,
    _embed_fields,
    _margin_fields,
    _spectrum_fields,
    boundary_margin,
    contains,
    is_positive_by_criterion,
)

SIZES = (1, 2, 3, 4, 5, 6, 17)
CRITERION_KINDS = LEMMA_KINDS + (SystemKind.SCALAR_DIAGONAL,)


def _bits(x) -> bytes:
    return np.ascontiguousarray(np.float64(x)).tobytes()


# ---------------------------------------------------------------------------
# Reference copies of the per-element code the stacked forms replaced.


def _reference_corners(e):
    if isinstance(e, ScalarDiagonalElement):
        return complex(e.a), complex(e.d), e.B, float(np.abs(e.C - e.B.conj().T).max())
    if np.iscomplexobj(e.C):
        return complex(e.a), complex(e.b), e.C.real, float(np.abs(e.C.imag).max())
    return complex(e.a), complex(e.b), e.C, 0.0


def _reference_criterion(e, tol: float = PSD_TOL) -> bool:
    if not isinstance(e, FreeCornerElement):
        a, b, K, defect = _reference_corners(e)
        if abs(a.imag) > tol or abs(b.imag) > tol or defect > tol:
            return False
        ar, br = a.real, b.real
        if ar < -tol or br < -tol:
            return False
        norm_k = operator_norm(K)
        ab = max(ar, 0.0) * max(br, 0.0)
        if ab <= tol * tol:
            return norm_k <= tol
        return norm_k <= math.sqrt(ab) + tol
    A, b, c, d = e.A, complex(e.b), complex(e.c), complex(e.d)
    if abs(c - np.conj(b)) > tol:
        return False
    if hermiticity_defect(A) > tol:
        return False
    if abs(d.imag) > tol:
        return False
    dr = d.real
    if dr < -tol:
        return False
    lam_min = is_psd(A).min_eigenvalue
    if lam_min < -tol:
        return False
    if dr <= tol:
        return abs(b) <= tol
    return dr * lam_min >= abs(b) ** 2 - tol


def _reference_margin(e) -> float:
    def herm_margin(vals):
        live = [v for v in vals if v > EXACT_TOL]
        return min(live) if live else math.inf

    if not isinstance(e, FreeCornerElement):
        a, b, K, defect = _reference_corners(e)
        parts = [abs(a.real), abs(b.real)]
        if a.real > 0 and b.real > 0:
            parts.append(abs(math.sqrt(a.real * b.real) - operator_norm(K)))
        return min(min(parts), herm_margin([abs(a.imag), abs(b.imag), defect]))
    A, b, c, d = e.A, complex(e.b), complex(e.c), complex(e.d)
    hm = herm_margin([abs(c - np.conj(b)), hermiticity_defect(A), abs(d.imag)])
    lam_min = is_psd(A).min_eigenvalue
    parts = [abs(lam_min), abs(d.real)]
    if d.real > 0 and lam_min > 0:
        parts.append(abs(d.real * lam_min - abs(b) ** 2))
    return min(min(parts), hm)


def _reference_contains(s: SystemId, M) -> bool:
    A = as_squares(M)
    if A.shape[-1] != 2 * s.n:
        return False
    ok = True
    if s.field is Field.REAL and A.dtype.kind == "c":
        ok = not (np.abs(A.imag).max() > MEMBERSHIP_TOL)
        A = A.real
    n = s.n
    diagonal = np.arange(n)
    for _, block, role in _LAYOUT[_ELEMENT_CLASS[s.kind]]:
        X = _block(A, n, block)
        if role is Role.SCALAR:
            X = X.copy()
            X[..., diagonal, diagonal] -= X[..., :1, 0]
            ok = ok and np.abs(X).max() <= MEMBERSHIP_TOL
        elif role is Role.TIED:
            mirrored = _block(A, n, block[::-1])
            ok = ok and np.abs(mirrored - X.swapaxes(-1, -2)).max() <= MEMBERSHIP_TOL
    return bool(ok)


# ---------------------------------------------------------------------------
# Field stacks that reach every branch of the criterion.

# offsets of a corner from the criterion's boundary: on it, either side of
# its tolerance, and either side of the margin filter
_BOUNDARY_OFFSETS = (0.0, 0.99 * PSD_TOL, 1.01 * PSD_TOL, -1e-6, 1e-6, -0.5, 0.5)


def _concat(parts: list[dict]) -> dict:
    return {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}


def _with(fields: dict, **values) -> dict:
    """The fields with some replaced, each broadcast to its old shape."""
    out = dict(fields)
    for name, value in values.items():
        out[name] = np.zeros_like(fields[name]) + value
    return out


def _scalar_shape_rows(s: SystemId, positive: dict) -> list[dict]:
    """Pinned scalars, zero corners, near-boundary corners and, on the
    complex paired kind, corners with an imaginary part."""
    second = "d" if s.kind is SystemKind.SCALAR_DIAGONAL else "b"
    corner = "B" if s.kind is SystemKind.SCALAR_DIAGONAL else "C"

    def with_corner(fields, K):
        if s.kind is SystemKind.SCALAR_DIAGONAL:
            return _with(fields, B=K, C=K.conj().swapaxes(-1, -2))
        return _with(fields, C=K)

    K = positive[corner].real if s.kind is SystemKind.TRANSPOSE_PAIRED_COMPLEX else positive[corner]
    K = K + (np.abs(K).max(axis=(-2, -1)) == 0.0)[:, None, None]  # a nonzero corner on every row
    norms = np.linalg.svd(K, compute_uv=False)[:, 0]
    root = np.sqrt(np.abs(positive["a"] * positive[second]).real)
    rows = [
        _with(positive, a=0.0),
        _with(positive, **{second: 0.0}),
        with_corner(positive, 0.0 * K),
        _with(with_corner(positive, 0.0 * K), a=0.0),
    ]
    for offset in _BOUNDARY_OFFSETS:
        scale = np.maximum(root + offset, 0.0) / norms
        rows.append(with_corner(positive, K * scale[:, None, None]))
    if s.kind is SystemKind.TRANSPOSE_PAIRED_COMPLEX:
        for size in (0.5 * PSD_TOL, 2.0 * PSD_TOL):
            rows.append(_with(positive, C=positive["C"] + 1j * size))
    return rows


def _free_corner_rows(s: SystemId, positive: dict) -> list[dict]:
    """Pinned d, zero corners and near-boundary corners b = conj(c)."""
    lam_min = np.linalg.eigvalsh(positive["A"])[:, 0]
    phase = np.exp(0.7j) if s.field is Field.COMPLEX else -1.0
    rows = [
        _with(positive, d=0.0),
        _with(positive, b=0.0, c=0.0),
        _with(positive, b=0.0, c=0.0, d=0.0),
    ]
    for offset in _BOUNDARY_OFFSETS:
        r = np.sqrt(np.maximum(positive["d"].real * lam_min + offset, 0.0))
        rows.append(_with(positive, b=r * phase, c=r * np.conj(phase)))
    return rows


def _criterion_rows(s: SystemId, rng: np.random.Generator, k: int = 8) -> dict:
    generic = _draw_fields(s, rng, 1.0, k)
    positive, _, _ = _draw_positive_fields(s, rng, k)
    shaped = _free_corner_rows if s.kind in CORNER_KINDS else _scalar_shape_rows
    return _concat([generic, positive] + shaped(s, positive))


@pytest.mark.parametrize("kind", CRITERION_KINDS, ids=lambda k: k.token)
@pytest.mark.parametrize("n", SIZES)
def test_stacked_criterion_and_margin_match_the_reference_rows(kind, n):
    s = SystemId(kind, n)
    fields = _criterion_rows(s, np.random.default_rng(n))
    k = len(fields["d" if "d" in fields else "b"])
    criterion = _criterion_fields(s, fields)
    margin = _margin_fields(s, fields)
    assert criterion.shape == margin.shape == (k,)
    # a spectrum taken once and handed to both changes no bit
    spectrum = _spectrum_fields(s, fields)
    assert _criterion_fields(s, fields, spectrum=spectrum).tolist() == criterion.tolist()
    assert _bits(_margin_fields(s, fields, spectrum)) == _bits(margin)
    for j in range(k):
        e = _element_at(s, fields, j)
        expected = _reference_criterion(e)
        assert criterion[j] == expected
        assert is_positive_by_criterion(e) is expected
        assert _bits(margin[j]) == _bits(_reference_margin(e))
        assert _bits(boundary_margin(e)) == _bits(margin[j])
    # the rows reach both verdicts, and both sides of the margin filter
    assert criterion.any() and not criterion.all()
    assert (margin <= 1e-6).any() and (margin > 1e-6).any()


def test_stacked_criterion_honours_its_tolerance_argument():
    s = SystemId(SystemKind.TRANSPOSE_PAIRED_COMPLEX, 3)
    fields = _criterion_rows(s, np.random.default_rng(7))
    for tol in (1e-9, 1e-3):
        got = _criterion_fields(s, fields, tol)
        assert got.tolist() == [_reference_criterion(_element_at(s, fields, j), tol) for j in range(len(got))]


@pytest.mark.parametrize("kind", LEMMA_KINDS, ids=lambda k: k.token)
@pytest.mark.parametrize("n", SIZES)
def test_boundary_probe_is_a_kept_non_psd_member(kind, n):
    # the probe that opens each lemma sweep: outside the cone, 0.06 from
    # the criterion's boundary, so the margin filter keeps it
    s = SystemId(kind, n)
    probe = suite._boundary_probe(s)
    M = _embed_fields(s, probe, (1,))
    assert contains(s, M).all()
    assert 0.05 < _margin_fields(s, probe)[0] < 0.07
    assert not _criterion_fields(s, probe)[0]
    assert not is_psd(M).is_psd[0]


# ---------------------------------------------------------------------------
# Membership at the tolerance boundary.


@pytest.mark.parametrize("kind", list(SystemKind), ids=lambda k: k.token)
@pytest.mark.parametrize("n", (1, 2, 3, 5))
def test_contains_matches_the_reference_at_the_tolerance(kind, n):
    s = SystemId(kind, n)
    rng = np.random.default_rng(100 + n)
    k = 64
    # drawn members, and zero matrices, where a move by the tolerance gives
    # a deviation of exactly the tolerance
    drawn = _embed_fields(s, _draw_fields(s, rng, 1.0, k // 2), (k // 2,))
    members = np.concatenate([drawn, np.zeros_like(drawn)])
    stacks = [members]
    rows = np.arange(k)
    for factor in (1.0 - 1e-6, 1.0, 1.0 + 1e-6):
        # one entry per row moved by about the tolerance, in one of four
        # directions of the complex plane
        i, j = rng.integers(0, 2 * n, size=(2, k))
        direction = np.array([1.0, -1.0, 1.0j, -1.0j])[rng.integers(0, 4, k)]
        X = members.astype(np.complex128)
        X[rows, i, j] += factor * MEMBERSHIP_TOL * direction
        stacks.append(X)
        if s.field is Field.REAL:
            Y = members.copy()
            Y[rows, i, j] += factor * MEMBERSHIP_TOL * direction.real
            stacks.append(Y)
    verdicts = []
    for S in stacks:
        got = contains(s, S)
        expected = [_reference_contains(s, M) for M in S]
        assert got.tolist() == expected
        assert [contains(s, M) for M in S] == expected
        verdicts += expected
    assert all(verdicts[:k])
    if n > 1 or s.field is Field.REAL:
        assert not all(verdicts)


# ---------------------------------------------------------------------------
# Schwarz and block-square checks on stacks.

SCHWARZ_MAPS = (MapKind.CORNER_TRANSPOSE, MapKind.QUARTER_TRANSPOSE, MapKind.BLOCK_TRANSPOSE)


def _selfadjoint_stack(m: MapId, rng: np.random.Generator, k: int) -> np.ndarray:
    if m.domain is None:
        G = _draw_full(m.n, Field.COMPLEX, rng, (k,))
        return (G + G.conj().swapaxes(-1, -2)) / 2.0
    return _embed_fields(m.domain, _draw_selfadjoint(m.domain, rng, k), (k,))


@pytest.mark.parametrize("kind", SCHWARZ_MAPS, ids=lambda k: k.token)
@pytest.mark.parametrize("n", (1, 2, 3, 5, 17))
def test_schwarz_check_on_a_stack_matches_its_rows(kind, n):
    m = MapId(kind, n)
    S = _selfadjoint_stack(m, np.random.default_rng(n), 6)
    rep = kadison_schwarz_check(m, S)
    assert rep.defect_min_eigenvalue.shape == rep.holds.shape == (len(S),)
    for j, M in enumerate(S):
        single = kadison_schwarz_check(m, M)
        assert type(single.defect_min_eigenvalue) is float
        assert _bits(rep.defect_min_eigenvalue[j]) == _bits(single.defect_min_eigenvalue)
        assert rep.holds[j] == single.holds
        assert rep.candidate == single.candidate


def test_schwarz_check_on_a_stack_raises_as_a_single_call_does():
    n = 2
    m = MapId(MapKind.CORNER_TRANSPOSE, n)
    S = _selfadjoint_stack(m, np.random.default_rng(0), 4)
    outsider = S.copy()
    outsider[2, 0, n + 1] += 1e-3  # off the diagonal of the scalar block b I
    not_adjoint = S.copy()
    not_adjoint[2, 0, n] += 1e-3  # b moves without c
    not_adjoint[2, 1, n + 1] += 1e-3
    for bad, error in ((outsider, DomainViolationError), (not_adjoint, PreconditionError)):
        with pytest.raises(error):
            kadison_schwarz_check(m, bad[2])
        with pytest.raises(error):
            kadison_schwarz_check(m, bad)
    assert contains(m.domain, not_adjoint).all()


@pytest.mark.parametrize("n", (1, 2, 3, 6))
def test_corner_square_identities_on_a_stack_match_their_rows(n):
    rng = np.random.default_rng(n)
    f = _draw_selfadjoint(SystemId(SystemKind.FREE_CORNER, n), rng, 6)
    residuals = corner_square_identities(f["A"], f["c"], f["d"].real)
    assert residuals.shape == (6,)
    for j in range(6):
        single = corner_square_identities(f["A"][j], f["c"][j], f["d"][j].real)
        assert type(single) is float
        assert _bits(residuals[j]) == _bits(single)
    bad = f["A"].copy()
    bad[3, 0, -1] += 1e-3 if n > 1 else 1e-3j
    with pytest.raises(PreconditionError):
        corner_square_identities(bad[3], f["c"][3], f["d"][3].real)
    with pytest.raises(PreconditionError):
        corner_square_identities(bad, f["c"], f["d"].real)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_corner_square_identities_broadcast_scalars_over_a_stack(n):
    # one c and d against a stack of A, and one A against a stack of c and d
    rng = np.random.default_rng(n)
    f = _draw_selfadjoint(SystemId(SystemKind.FREE_CORNER, n), rng, 4)
    A, c, d = f["A"], complex(f["c"][0]), float(f["d"][0].real)
    residuals = corner_square_identities(A, c, d)
    assert residuals.shape == (4,)
    for j in range(4):
        assert _bits(residuals[j]) == _bits(corner_square_identities(A[j], c, d))
    residuals = corner_square_identities(A[0], f["c"], f["d"].real)
    assert residuals.shape == (4,)
    for j in range(4):
        assert _bits(residuals[j]) == _bits(corner_square_identities(A[0], f["c"][j], f["d"][j].real))


# ---------------------------------------------------------------------------
# The characteristic-polynomial check draws its points at once.


def test_char_poly_points_follow_the_one_draw_per_part_stream():
    block, single = np.random.default_rng(5), np.random.default_rng(5)
    points = block.normal(size=(20, 2))
    assert np.array_equal(points, [[single.normal(), single.normal()] for _ in range(20)])


@pytest.mark.parametrize("n", (1, 2, 5))
def test_char_poly_check_matches_the_per_point_reference(n):
    s = SystemId(SystemKind.FREE_CORNER, n)
    rng = np.random.default_rng(3)
    worst = 0.0
    I2n = np.eye(2 * n, dtype=np.complex128)
    for _ in range(4):
        A, b, c, d = (x[0] for x in _draw_corner_tuple(n, rng, 1))
        M = _embed_fields(s, {"A": A, "b": b, "c": c, "d": d}, ())
        N = _embed_fields(s, {"A": A, "b": c, "c": b, "d": d}, ())
        GM, GN = M.conj().T @ M, N.conj().T @ N
        for _ in range(7):
            lam = complex(rng.normal(), rng.normal())
            pM = complex(np.linalg.det(GM - lam * I2n))
            pN = complex(np.linalg.det(GN - lam * I2n))
            pR = char_poly_block_eval(A, b, c, d, lam)
            scale = max(abs(pM), abs(pN), 1e-30)
            worst = max(worst, abs(pM - pN) / scale, abs(pR - pM) / scale)
    assert _bits(char_poly_swap_check(n, instances=4, lambdas=7, rng_seed=3)) == _bits(worst)


# ---------------------------------------------------------------------------
# Memory of the stacked runners at the largest size.


@pytest.mark.parametrize("target", ["lemma", "ks"])
def test_stacked_sweep_memory_is_bounded_at_the_largest_size(target):
    # at n = 64 one 128 x 128 complex matrix holds 256 KiB, so the 100
    # trials of one lemma kind, or the 100 quarter-transpose Schwarz inputs
    # of the ks run, checked as one stack would hold 25 MiB in that stack
    # alone; a stack of two and its temporaries hold under 5 MiB
    n, trials = 64, 100
    cfg = suite.RunConfig(command="verify", target=target, n_values=(n,), trials=trials)
    tracemalloc.start()
    try:
        claims = suite._RUNNERS[("verify", target)](cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert claims and all(c.status == STATUS_PASS for c in claims)
    one_stack = trials * (2 * n) ** 2 * 16
    assert peak < one_stack / 3, f"peak {peak / 2**20:.1f} MiB"
