"""Unit tests for the structured subspaces and their positivity criteria."""

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
    boundary_margin,
    contains,
    embed,
    extract,
    identity_element,
    is_positive_by_criterion,
    is_psd,
    random_element,
    random_positive_element,
)
from opsyscheck.systems import _draw_positive, _draw_psd_diagonal, _draw_psd_rank_one, _draw_psd_wishart

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
        e = random_element(s, rng_seed=seed)
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
    M = embed(random_element(s, rng_seed=0))
    bad = M.copy()
    bad[0, 0] += 1e-6  # breaks the scalar diagonal
    assert not contains(s, bad)

    sp = SystemId(SystemKind.TRANSPOSE_PAIRED, n)
    P = embed(random_element(sp, rng_seed=1))
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
    e1 = random_element(s, rng_seed=42)
    e2 = random_element(s, rng_seed=42)
    assert np.array_equal(e1.A, e2.A)
    assert e1.b == e2.b and e1.c == e2.c and e1.d == e2.d
    e3 = random_element(s, rng_seed=43)
    assert not np.array_equal(e1.A, e3.A)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_random_positive_is_psd(kind):
    s = SystemId(kind, 3)
    for seed in range(30):
        e = random_positive_element(s, rng_seed=seed)
        M = embed(e)
        assert is_psd(M, tol=1e-8).is_psd
        assert is_positive_by_criterion(e)


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
        e = random_element(s, rng_seed=seed) if seed % 2 else random_positive_element(s, rng_seed=seed)
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
    for draw in (_draw_psd_rank_one, _draw_psd_wishart, _draw_psd_diagonal):
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
