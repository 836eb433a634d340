"""Unit tests for the structured subspaces and their positivity criteria."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsyscheck import (
    DomainViolationError,
    Field,
    FieldMismatchError,
    FreeCornerElement,
    PairedCornerElement,
    ScalarDiagonalElement,
    SystemId,
    SystemKind,
    UnsupportedSystemError,
    boundary_margin,
    contains,
    embed,
    extract,
    identity_element,
    is_positive_by_criterion,
    is_psd,
)
from opsyscheck.systems import (
    CORNER_KINDS,
    _draw_corner_tuple,
    _draw_element,
    _draw_fields,
    _draw_positive,
    _draw_positive_fields,
    _draw_psd_rank_one,
    _draw_psd_wishart,
    _draw_selfadjoint,
    _element_at,
    _embed_fields,
)
from opsyscheck.linalg import IDENTITY_TOL, MARGIN, PSD_TOL

ALL_KINDS = list(SystemKind)


def test_kind_tokens_and_fields():
    tokens = {k.token for k in ALL_KINDS}
    assert tokens == {
        "scalar-diagonal",
        "transpose-paired",
        "transpose-paired-complex",
        "free-corner",
        "free-corner-real",
    }
    assert SystemKind.TRANSPOSE_PAIRED.field is Field.REAL
    assert SystemKind.FREE_CORNER_REAL.field is Field.REAL
    assert SystemKind.SCALAR_DIAGONAL.field is Field.COMPLEX


def test_system_id_basics():
    s = SystemId(SystemKind.FREE_CORNER, 3)
    assert s.ambient_order == 6
    assert s.field is Field.COMPLEX
    with pytest.raises(ValueError):
        SystemId(SystemKind.FREE_CORNER, 0)


def test_identity_embeds_to_identity():
    for kind in ALL_KINDS:
        s = SystemId(kind, 3)
        M = embed(identity_element(s))
        assert np.array_equal(M, np.eye(6, dtype=M.dtype))


def test_scalar_coercion_and_field_gate():
    s = SystemId(SystemKind.TRANSPOSE_PAIRED, 2)
    e = PairedCornerElement(s, 1, 2, np.eye(2))
    assert isinstance(e.a, float) and isinstance(e.b, float)
    with pytest.raises(FieldMismatchError):
        PairedCornerElement(s, 1.0 + 0.5j, 2.0, np.eye(2))
    with pytest.raises(FieldMismatchError):
        PairedCornerElement(s, 1.0, 2.0, 1j * np.eye(2))
    # exactly-zero imaginary part is accepted into a real system
    e2 = PairedCornerElement(s, 1.0, 2.0, (1.0 + 0.0j) * np.eye(2))
    assert e2.C.dtype == np.float64


def test_embed_shapes():
    s = SystemId(SystemKind.SCALAR_DIAGONAL, 2)
    e = ScalarDiagonalElement(s, 1.0, 2.0, np.ones((2, 2)), np.zeros((2, 2)))
    M = embed(e)
    assert M.shape == (4, 4)
    assert np.array_equal(M[:2, :2], np.eye(2))
    assert np.array_equal(M[2:, 2:], 2.0 * np.eye(2))


def test_paired_embed_uses_plain_transpose():
    s = SystemId(SystemKind.TRANSPOSE_PAIRED_COMPLEX, 2)
    C = np.array([[1.0 + 2.0j, 0.0], [3.0j, 0.5]])
    M = embed(PairedCornerElement(s, 0.0, 0.0, C))
    # lower-left corner is C^t, not C*
    assert np.array_equal(M[2:, :2], C.T)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 4])
def test_embed_extract_round_trip(kind, n):
    """extract(embed(e)) reproduces every stored part bitwise."""
    s = SystemId(kind, n)
    for seed in range(12):
        e = _draw_element(s, np.random.default_rng(seed), 1.0)
        M = embed(e)
        assert contains(s, M)
        e2 = extract(s, M)
        for name in ("a", "b", "c", "d"):
            if hasattr(e, name):
                assert getattr(e, name) == getattr(e2, name)
        for name in ("A", "B", "C"):
            if hasattr(e, name):
                assert np.array_equal(getattr(e, name), getattr(e2, name))


def test_contains_rejects_off_pattern():
    n = 2
    s = SystemId(SystemKind.SCALAR_DIAGONAL, n)
    M = embed(_draw_element(s, np.random.default_rng(0), 1.0))
    bad = M.copy()
    bad[0, 0] += 1e-6  # breaks the scalar diagonal
    assert not contains(s, bad)

    sp = SystemId(SystemKind.TRANSPOSE_PAIRED, n)
    P = embed(_draw_element(sp, np.random.default_rng(1), 1.0))
    bad = P.copy()
    bad[n, 1] += 1e-6  # breaks the transpose pairing
    assert not contains(sp, bad)
    assert not contains(sp, P.astype(np.complex128) + 1e-6j * np.eye(2 * n))


def test_contains_dimension_gate():
    s = SystemId(SystemKind.FREE_CORNER, 2)
    assert not contains(s, np.eye(6))


def test_extract_raises_outside():
    s = SystemId(SystemKind.FREE_CORNER, 2)
    with pytest.raises(DomainViolationError):
        extract(s, np.arange(16.0).reshape(4, 4))


def test_random_element_deterministic():
    s = SystemId(SystemKind.FREE_CORNER, 3)
    e1 = _draw_element(s, np.random.default_rng(42), 1.0)
    e2 = _draw_element(s, np.random.default_rng(42), 1.0)
    assert np.array_equal(e1.A, e2.A)
    assert e1.b == e2.b and e1.c == e2.c and e1.d == e2.d
    e3 = _draw_element(s, np.random.default_rng(43), 1.0)
    assert not np.array_equal(e1.A, e3.A)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_random_positive_is_psd(kind):
    s = SystemId(kind, 3)
    for seed in range(30):
        e = _draw_positive(s, np.random.default_rng(seed))
        M = embed(e)
        assert is_psd(M, tol=1e-8).is_psd
        assert is_positive_by_criterion(e)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_positive_draw_comes_with_its_embedding(kind):
    # the embedded draw consumes the same stream as the element draw and
    # hands back exactly the matrix the element embeds to
    s = SystemId(kind, 3)
    for seed in range(5):
        rng_e, rng_m = np.random.default_rng(seed), np.random.default_rng(seed)
        e = _draw_positive(s, rng_e)
        fields, stack, _ = _draw_positive_fields(s, rng_m, 1)
        f, M = _element_at(s, fields, 0), stack[0]
        assert type(f) is type(e) and f.system == e.system
        assert np.array_equal(M, embed(e)) and np.array_equal(M, embed(f))
        assert M.dtype == embed(e).dtype
        assert rng_e.random() == rng_m.random()


def test_scalar_diagonal_criterion():
    """[[aI, B], [C, dI]] is PSD iff a, d >= 0, C = B* and ||B|| <= sqrt(ad)."""
    s = SystemId(SystemKind.SCALAR_DIAGONAL, 2)
    B = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    # the corner norm may reach sqrt(ad) exactly
    assert is_positive_by_criterion(ScalarDiagonalElement(s, 0.5, 2.0, B, B.conj().T))
    assert not is_positive_by_criterion(ScalarDiagonalElement(s, 0.5, 1.9, B, B.conj().T))
    # a = 0 forces B = 0
    Z = np.zeros((2, 2))
    assert is_positive_by_criterion(ScalarDiagonalElement(s, 0.0, 1.0, Z, Z))
    assert not is_positive_by_criterion(ScalarDiagonalElement(s, 0.0, 1.0, 0.1 * B, 0.1 * B.conj().T))
    # C must be B*, and the scalars real and nonnegative
    assert not is_positive_by_criterion(ScalarDiagonalElement(s, 1.0, 1.0, 0.5j * B, 0.5j * B.T))
    assert not is_positive_by_criterion(ScalarDiagonalElement(s, 1.0 + 0.1j, 1.0, Z, Z))
    assert not is_positive_by_criterion(ScalarDiagonalElement(s, -0.1, 1.0, Z, Z))
    for e in (
        ScalarDiagonalElement(s, 0.5, 2.0, B, B.conj().T),
        ScalarDiagonalElement(s, 1.0, 1.0, 0.5j * B, 0.5j * B.T),
    ):
        assert is_positive_by_criterion(e) == is_psd(embed(e)).is_psd
    near = ScalarDiagonalElement(s, 1.0, 1.0, (1.0 - 1e-9) * B, (1.0 - 1e-9) * B.conj().T)
    assert boundary_margin(near) < 1e-7
    assert boundary_margin(ScalarDiagonalElement(s, 4.0, 4.0, B, B.conj().T)) > 1.0


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_criterion_matches_eigenvalue_oracle(kind, n):
    """Closed-form positivity agrees with the spectrum away from the boundary."""
    s = SystemId(kind, n)
    checked = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        e = _draw_element(s, rng, 1.0) if seed % 2 else _draw_positive(s, rng)
        if boundary_margin(e) <= 1e-6:
            continue
        checked += 1
        M = embed(e)
        H = (M + M.conj().T) / 2.0
        defect = float(np.abs(M - M.conj().T).max())
        oracle = defect <= 1e-10 and float(np.linalg.eigvalsh(H)[0]) >= 0.0
        assert is_positive_by_criterion(e) == oracle
    assert checked > 100


SEEDS = st.integers(min_value=0, max_value=2**63 - 1)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", range(1, 7))
@settings(max_examples=25, deadline=None)
@given(seed=SEEDS)
def test_positive_draws_pass_criterion(kind, n, seed):
    e = _draw_positive(SystemId(kind, n), np.random.default_rng(seed))
    assert is_psd(embed(e), tol=1e-9).is_psd
    assert is_positive_by_criterion(e)


@pytest.mark.parametrize("field", list(Field))
@pytest.mark.parametrize("n", range(1, 7))
@settings(max_examples=25, deadline=None)
@given(seed=SEEDS)
def test_full_algebra_psd_draws(field, n, seed):
    rng = np.random.default_rng(seed)
    for draw in (_draw_psd_rank_one, _draw_psd_wishart):
        P = draw(n, field, rng)
        assert P.shape == (2 * n, 2 * n)
        assert P.dtype == field.dtype
        assert is_psd(P, tol=1e-9).is_psd


def test_paired_criterion_degenerate_scalar():
    s = SystemId(SystemKind.TRANSPOSE_PAIRED, 2)
    # a = 0 forces C = 0 for positivity
    assert is_positive_by_criterion(PairedCornerElement(s, 0.0, 1.0, np.zeros((2, 2))))
    assert not is_positive_by_criterion(PairedCornerElement(s, 0.0, 1.0, 0.1 * np.eye(2)))
    assert not is_positive_by_criterion(PairedCornerElement(s, -0.1, 1.0, np.zeros((2, 2))))


def test_corner_criterion_degenerate_scalar():
    s = SystemId(SystemKind.FREE_CORNER, 2)
    A = np.eye(2, dtype=np.complex128)
    # d = 0 forces the off-diagonal scalars to vanish
    assert is_positive_by_criterion(FreeCornerElement(s, A, 0.0, 0.0, 0.0))
    assert not is_positive_by_criterion(FreeCornerElement(s, A, 0.2, np.conj(0.2), 0.0))
    # c must be the conjugate of b
    assert not is_positive_by_criterion(FreeCornerElement(s, A, 0.2j, 0.2j, 1.0))
    assert is_positive_by_criterion(FreeCornerElement(s, A, 0.2j, -0.2j, 1.0))


def test_corner_criterion_boundary_equality():
    s = SystemId(SystemKind.FREE_CORNER, 2)
    A = np.diag([1.0, 2.0]).astype(np.complex128)
    # |b|^2 = d * lambda_min(A) sits exactly on the boundary
    e = FreeCornerElement(s, A, 1.0, 1.0, 1.0)
    assert is_positive_by_criterion(e)
    e2 = FreeCornerElement(s, A, 1.001, 1.001, 1.0)
    assert not is_positive_by_criterion(e2, tol=1e-7)


def test_boundary_margin_behaviour():
    s = SystemId(SystemKind.TRANSPOSE_PAIRED, 2)
    deep = PairedCornerElement(s, 4.0, 4.0, 0.1 * np.eye(2))
    near = PairedCornerElement(s, 4.0, 4.0, (4.0 - 1e-9) * np.eye(2))
    assert boundary_margin(deep) > 1.0
    assert boundary_margin(near) < 1e-7
    negative = PairedCornerElement(s, -3.0, 4.0, np.zeros((2, 2)))
    assert boundary_margin(negative) >= 3.0


def _reference_draw_element(s, rng, scale):
    """Reference one-element draw: one generator call per scalar part and
    per block part, fields in dataclass order."""
    n = s.n
    cplx = s.field is Field.COMPLEX

    def scalar():
        if cplx:
            return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        return float(rng.uniform(-scale, scale))

    def blk():
        if cplx:
            sd = scale / math.sqrt(2 * n)
            return rng.normal(0.0, sd, (n, n)) + 1j * rng.normal(0.0, sd, (n, n))
        return rng.normal(0.0, scale / math.sqrt(n), (n, n))

    template = identity_element(s)
    names = [f.name for f in dataclasses.fields(template)][1:]
    fields = {name: blk() if np.ndim(getattr(template, name)) else scalar() for name in names}
    return type(template)(s, **fields)


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


SCALES = st.floats(min_value=1e-3, max_value=1e3)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 17])
@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, scale=SCALES)
def test_single_draw_is_the_stacked_draw_at_k1(kind, n, seed, scale):
    s = SystemId(kind, n)
    ref_rng, rng, stack_rng = (np.random.default_rng(seed) for _ in range(3))
    want = _reference_draw_element(s, ref_rng, scale)
    got = _draw_element(s, rng, scale)
    fields = _draw_fields(s, stack_rng, scale, 1)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert stack_rng.bit_generator.state == ref_rng.bit_generator.state
    for f in dataclasses.fields(want)[1:]:
        value = getattr(want, f.name)
        assert type(getattr(got, f.name)) is type(value)
        assert _bits(getattr(got, f.name)) == _bits(value)
        assert _bits(fields[f.name][0]) == _bits(value)
    assert _bits(_embed_fields(s, fields, (1,))[0]) == _bits(embed(want))


def _reference_draw_fields(s, rng, scale, k):
    """Reference stacked draw: the parts of each field, in dataclass order,
    each part for all k elements by one generator call, real parts before
    imaginary parts."""
    n = s.n
    parts = 2 if s.field is Field.COMPLEX else 1
    template = identity_element(s)
    fields = {}
    for f in dataclasses.fields(template)[1:]:
        if np.ndim(getattr(template, f.name)):
            fields[f.name] = [rng.normal(0.0, scale / math.sqrt(parts * n), (k, n, n)) for _ in range(parts)]
        else:
            fields[f.name] = [rng.uniform(-scale, scale, k) for _ in range(parts)]
    return fields


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 17])
@pytest.mark.parametrize("k", [1, 2, 7])
@settings(max_examples=10, deadline=None)
@given(seed=SEEDS, scale=SCALES)
def test_stacked_draw_is_the_per_field_reference(kind, n, k, seed, scale):
    s = SystemId(kind, n)
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _reference_draw_fields(s, ref_rng, scale, k)
    got = _draw_fields(s, rng, scale, k)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert list(got) == list(want)
    for name, parts in want.items():
        assert got[name].dtype == s.field.dtype
        assert [_bits(part) for part in (got[name].real, got[name].imag)[: len(parts)]] == [
            _bits(part) for part in parts
        ]


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 5])
@settings(max_examples=10, deadline=None)
@given(seed=SEEDS, k=st.integers(min_value=2, max_value=12))
def test_stacked_draw_rows_are_members(kind, n, seed, k):
    s = SystemId(kind, n)
    fields = _draw_fields(s, np.random.default_rng(seed), 1.0, k)
    stack = _embed_fields(s, fields, (k,))
    assert stack.shape == (k, 2 * n, 2 * n)
    assert stack.dtype == s.field.dtype
    cls = type(identity_element(s))
    for j, M in enumerate(stack):
        assert contains(s, M)
        # each row is the embedding of the element made of that row's fields
        assert _bits(M) == _bits(embed(cls(s, **{name: value[j] for name, value in fields.items()})))


def _reference_draw_positive(s, rng):
    """Reference one-element positive draw: one generator call per value, in
    the order the stacked sampler must keep at k = 1."""
    n = s.n
    if s.kind not in CORNER_KINDS:
        cplx = s.kind is SystemKind.SCALAR_DIAGONAL
        a = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 2.0))
        b = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 2.0))
        if a * b == 0.0:
            K = np.zeros((n, n), dtype=np.complex128 if cplx else np.float64)
        else:
            G = rng.normal(size=(n, n))
            if cplx:
                G = G + 1j * rng.normal(size=(n, n))
            norm = float(np.linalg.svd(G, compute_uv=False)[0])
            K = G * (rng.uniform(0.0, 1.0) * math.sqrt(a * b) / max(norm, 1e-300))
        if cplx:
            return ScalarDiagonalElement(s, a, b, K, K.conj().T)
        return PairedCornerElement(s, a, b, K)
    G = rng.normal(size=(n, n))
    if s.field is Field.COMPLEX:
        G = G + 1j * rng.normal(size=(n, n))
    A = G @ G.conj().T / n
    d = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 2.0))
    if d == 0.0:
        b = 0.0 if s.field is Field.REAL else 0j
    else:
        lam_min = max(float(np.linalg.eigvalsh(A)[0]), 0.0)
        r = rng.uniform(0.0, 1.0) * math.sqrt(d * lam_min)
        if s.field is Field.COMPLEX:
            theta = rng.uniform(0.0, 2.0 * math.pi)
            b = r * complex(math.cos(theta), math.sin(theta))
        else:
            b = r if rng.random() < 0.5 else -r
    return FreeCornerElement(s, A, b, np.conj(b), d)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 17])
@settings(max_examples=25, deadline=None)
@given(seed=SEEDS)
def test_single_positive_draw_is_the_stacked_draw_at_k1(kind, n, seed):
    s = SystemId(kind, n)
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _reference_draw_positive(s, ref_rng)
    fields, stack, _ = _draw_positive_fields(s, rng, 1)
    got, M = _element_at(s, fields, 0), stack[0]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert type(got) is type(want)
    for f in dataclasses.fields(want)[1:]:
        value = getattr(want, f.name)
        assert type(getattr(got, f.name)) is type(value)
        assert _bits(getattr(got, f.name)) == _bits(value)
    assert M.dtype == s.field.dtype
    assert _bits(M) == _bits(embed(want))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 5])
@settings(max_examples=10, deadline=None)
@given(seed=SEEDS, k=st.integers(min_value=2, max_value=12))
def test_stacked_positive_draw_rows_are_positive_members(kind, n, seed, k):
    s = SystemId(kind, n)
    fields, stack, _ = _draw_positive_fields(s, np.random.default_rng(seed), k)
    assert stack.shape == (k, 2 * n, 2 * n) and stack.dtype == s.field.dtype
    assert contains(s, stack).all()
    assert is_psd(stack, tol=1e-9).is_psd.all()
    cls = type(identity_element(s))
    for j, M in enumerate(stack):
        e = cls(s, **{name: value[j] for name, value in fields.items()})
        assert is_positive_by_criterion(e)
        assert _bits(M) == _bits(embed(e))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_positive_draw_verdict_decides_as_is_psd(kind, n):
    # the lemma oracle reads a positive draw's PSD_TOL verdict off its
    # sampler's self-check instead of eigensolving the draw again
    s = SystemId(kind, n)
    for k in (1, 9):
        _, stack, verdict = _draw_positive_fields(s, np.random.default_rng(n + k), k)
        assert _bits(verdict.min_eigenvalue) == _bits(is_psd(stack, tol=IDENTITY_TOL).min_eigenvalue)
        for tol in (PSD_TOL, IDENTITY_TOL, MARGIN):
            assert verdict.at(tol).tolist() == [is_psd(M, tol=tol).is_psd for M in stack]


def _reference_draw_selfadjoint(s, rng):
    """Reference one-element self-adjoint draw, one generator call per
    value."""
    n = s.n
    if s.kind is SystemKind.SCALAR_DIAGONAL:
        B = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(n)
        a, d = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        return ScalarDiagonalElement(s, a, d, B, B.conj().T)
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    c = complex(rng.normal(), rng.normal())
    return FreeCornerElement(s, (G + G.conj().T) / 2.0, np.conj(c), c, float(rng.normal()))


SELFADJOINT_KINDS = (SystemKind.SCALAR_DIAGONAL, SystemKind.FREE_CORNER)


@pytest.mark.parametrize("kind", SELFADJOINT_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 17])
@settings(max_examples=25, deadline=None)
@given(seed=SEEDS)
def test_single_selfadjoint_draw_is_the_stacked_draw_at_k1(kind, n, seed):
    s = SystemId(kind, n)
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _reference_draw_selfadjoint(s, ref_rng)
    fields = _draw_selfadjoint(s, rng, 1)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    got = _element_at(s, fields, 0)
    for f in dataclasses.fields(want)[1:]:
        value = getattr(want, f.name)
        assert type(getattr(got, f.name)) is type(value)
        assert _bits(getattr(got, f.name)) == _bits(value)
        assert _bits(fields[f.name][0]) == _bits(value)


@pytest.mark.parametrize("kind", SELFADJOINT_KINDS)
@pytest.mark.parametrize("n", [1, 2, 5])
@settings(max_examples=10, deadline=None)
@given(seed=SEEDS, k=st.integers(min_value=2, max_value=12))
def test_stacked_selfadjoint_draw_rows_are_selfadjoint_members(kind, n, seed, k):
    s = SystemId(kind, n)
    stack = _embed_fields(s, _draw_selfadjoint(s, np.random.default_rng(seed), k), (k,))
    assert stack.shape == (k, 2 * n, 2 * n) and stack.dtype == np.complex128
    assert contains(s, stack).all()
    assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))


def test_selfadjoint_draw_refuses_other_systems():
    with pytest.raises(UnsupportedSystemError):
        _draw_selfadjoint(SystemId(SystemKind.TRANSPOSE_PAIRED, 2), np.random.default_rng(0), 3)


def _reference_corner_tuple(n, rng):
    """Reference (A, b, c, d) draw: A's parts, then each scalar's parts."""
    A = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2 * n)
    b, c, d = (complex(rng.normal(), rng.normal()) / math.sqrt(2) for _ in range(3))
    return A, b, c, d


@pytest.mark.parametrize("n", [1, 2, 3, 6, 17])
@settings(max_examples=25, deadline=None)
@given(seed=SEEDS)
def test_single_corner_tuple_is_the_stacked_draw_at_k1(n, seed):
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _reference_corner_tuple(n, ref_rng)
    got = _draw_corner_tuple(n, rng, 1)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert [x.shape for x in got] == [(1, n, n), (1,), (1,), (1,)]
    for x, w in zip(got, want):
        assert _bits(x[0]) == _bits(np.complex128(w))


@pytest.mark.parametrize("field", list(Field))
@pytest.mark.parametrize("n", [1, 2, 5])
def test_stacked_full_algebra_psd_draws(field, n):
    rng = np.random.default_rng(n)
    for draw in (_draw_psd_rank_one, _draw_psd_wishart):
        P = draw(n, field, rng, (7,))
        assert P.shape == (7, 2 * n, 2 * n)
        assert P.dtype == field.dtype
        assert is_psd(P, tol=1e-9).is_psd.all()
