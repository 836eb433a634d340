"""Unit tests for the dense linear algebra helpers."""

import numpy as np
import pytest

from opsyscheck import (
    DimensionMismatchError,
    FieldMismatchError,
    NonFiniteError,
    NotHermitianError,
    block2x2,
    char_poly_block_eval,
    hermitian_eigenvalues,
    hermiticity_defect,
    is_psd,
    matrix_unit,
    operator_norm,
    singular_values,
)


def test_matrix_unit_entries():
    E = matrix_unit(3, 1, 2)
    assert E.shape == (3, 3)
    assert E.dtype == np.float64
    assert E[0, 1] == 1.0
    assert np.count_nonzero(E) == 1


def test_matrix_unit_bounds():
    with pytest.raises(IndexError):
        matrix_unit(2, 0, 1)
    with pytest.raises(IndexError):
        matrix_unit(2, 1, 3)
    with pytest.raises(DimensionMismatchError):
        matrix_unit(0, 1, 1)


def test_hermitian_eigenvalues_known():
    # [[0, 1], [1, 0]] has eigenvalues -1 and 1
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    vals = hermitian_eigenvalues(M)
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-12)


def test_hermitian_eigenvalues_rejects_non_hermitian():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(M)
    # symmetrizing within tolerance still works
    vals = hermitian_eigenvalues(M + M.T + 1e-12 * matrix_unit(2, 1, 2))
    assert vals.shape == (2,)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_eigenchecks_reject_non_finite(bad):
    """NaN or inf reaches neither a defect, an eigenvalue nor a PSD verdict,
    and is refused before any arithmetic on it."""
    M = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteError):
        hermiticity_defect(M)
    with pytest.raises(NonFiniteError):
        hermitian_eigenvalues(M)
    with pytest.raises(NonFiniteError):
        is_psd(M)


def test_hermiticity_defect_values():
    assert hermiticity_defect(np.eye(3)) == 0.0
    M = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert abs(hermiticity_defect(M) - 2.0) < 1e-15


def test_singular_values_descending_and_norm():
    rng = np.random.default_rng(0)
    for _ in range(25):
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        sv = singular_values(M)
        assert np.all(np.diff(sv) <= 1e-12)
        assert abs(operator_norm(M) - np.linalg.norm(M, 2)) < 1e-12


def test_is_psd_on_gram_and_indefinite():
    rng = np.random.default_rng(1)
    for k in range(20):
        G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        verdict = is_psd(G @ G.conj().T)
        assert verdict.is_psd
        assert verdict.min_eigenvalue >= -1e-10
    bad = np.diag([1.0, -0.5])
    v = is_psd(bad)
    assert not v.is_psd
    assert abs(v.min_eigenvalue + 0.5) < 1e-12


def test_is_psd_hermiticity_gate():
    # a large anti-Hermitian part fails the verdict even with positive spectrum
    M = np.eye(2) + np.array([[0.0, 1.0], [-1.0, 0.0]])
    v = is_psd(M, tol=1e-7)
    assert v.hermiticity_defect > 1e-7
    assert not v.is_psd


def test_block_assembly_round_trip():
    rng = np.random.default_rng(2)
    A, B, C, D = (rng.normal(size=(3, 3)) for _ in range(4))
    M = block2x2(A, B, C, D)
    assert np.array_equal(M[:3, :3], A)
    assert np.array_equal(M[:3, 3:], B)
    assert np.array_equal(M[3:, :3], C)
    assert np.array_equal(M[3:, 3:], D)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_block_assembly_matches_np_block(cplx, n):
    rng = np.random.default_rng(n)
    blocks = [rng.normal(size=(n, n)) for _ in range(4)]
    if cplx:
        blocks = [X + 1j * rng.normal(size=(n, n)) for X in blocks]
    M = block2x2(*blocks)
    want = np.block([blocks[:2], blocks[2:]])
    assert M.dtype == want.dtype
    assert M.tobytes() == want.tobytes()


def test_block_assembly_errors():
    with pytest.raises(DimensionMismatchError):
        block2x2(np.eye(2), np.eye(3), np.eye(2), np.eye(2))
    with pytest.raises(FieldMismatchError):
        block2x2(np.eye(2), 1j * np.eye(2), np.eye(2), np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_char_poly_block_eval_matches_direct(n):
    """The reduced n x n determinant equals det(M*M - lam I) built directly."""
    rng = np.random.default_rng(10 + n)
    I = np.eye(n, dtype=np.complex128)
    for _ in range(20):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b, c, d = (complex(rng.normal(), rng.normal()) for _ in range(3))
        M = np.block([[A, b * I], [c * I, d * I]])
        lam = complex(rng.normal(), rng.normal())
        direct = np.linalg.det(M.conj().T @ M - lam * np.eye(2 * n))
        reduced = char_poly_block_eval(A, b, c, d, lam)
        scale = max(abs(direct), abs(reduced), 1e-30)
        assert abs(direct - reduced) / scale < 1e-9


def test_char_poly_symmetric_in_bc():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b, c, d = 0.7 + 0.2j, -0.4 + 1.1j, 0.9 - 0.3j
    for _ in range(10):
        lam = complex(rng.normal(), rng.normal())
        p1 = char_poly_block_eval(A, b, c, d, lam)
        p2 = char_poly_block_eval(A, c, b, d, lam)
        scale = max(abs(p1), abs(p2), 1e-30)
        assert abs(p1 - p2) / scale < 1e-10


def test_char_poly_zero_matrix():
    # M = 0 gives det(-lam I) = lam^(2n); at lam = 1 that is 1
    assert abs(char_poly_block_eval(np.zeros((2, 2)), 0, 0, 0, 1.0) - 1.0) < 1e-14
