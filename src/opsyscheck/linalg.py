"""Dense linear-algebra helpers for 2x2 block matrices.

Everything downstream works with square complex or real matrices split into
four n x n blocks.  This module owns the low-level conventions: the
tolerance table every module decides with, eigenvalue and singular-value
computations, the PSD decision rule, generic block assembly and the
reduced characteristic polynomial for scalar-cornered block matrices.
"""

from __future__ import annotations

import dataclasses

import numpy as np

# The tolerance table: one threshold per kind of decision, shared by every
# module.  A threshold used at a single site stays next to that site.
# identities on matrices with small exact entries (units, 0/1 certificates)
EXACT_TOL = 1e-12
# numerically zero after a few arithmetic operations: subspace membership,
# rank cuts, forced values of the certificates
MEMBERSHIP_TOL = 1e-10
# identities after O(n^3) arithmetic: products, eigensolves, SVDs
IDENTITY_TOL = 1e-9
# sign of the smallest eigenvalue when deciding positive semidefiniteness
PSD_TOL = 1e-7
# an effect that is real, not roundoff: violation margins, boundary filters
MARGIN = 1e-6


class DimensionMismatchError(ValueError):
    """Shapes do not line up (non-square, unequal block sizes, odd order)."""


class NotHermitianError(ValueError):
    """A Hermitian-only routine received a matrix with too large a defect."""


class FieldMismatchError(ValueError):
    """Real and complex data were mixed where a single scalar field is required."""


class NonFiniteError(ValueError):
    """A matrix holds NaN or infinite entries where a finite one is required."""


# matrix entries a batched check holds per stack: 512 KiB of complex128, so
# memory stays bounded at every n the CLI accepts
STACK_ENTRIES = 1 << 15


def stack_size(order: int) -> int:
    """How many order x order matrices a stack holds: as many as fit in
    STACK_ENTRIES entries, and at least one."""
    return max(1, STACK_ENTRIES // (order * order))


def stack_chunks(total: int, order: int):
    """(start, k) of the consecutive stacks of order x order matrices that
    cover ``total`` matrices, each of ``stack_size(order)`` but the last."""
    chunk = stack_size(order)
    for start in range(0, total, chunk):
        yield start, min(chunk, total - start)


def as_square(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d square ndarray over float64 or complex128."""
    A = as_squares(M, name)
    if A.ndim != 2:
        raise DimensionMismatchError(f"{name} must be square, got shape {A.shape}")
    return A


def as_squares(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a square matrix, or a stack of them along leading axes,
    over float64 or complex128."""
    A = np.asarray(M)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] == 0:
        raise DimensionMismatchError(f"{name} must be square, got shape {A.shape}")
    if A.dtype.kind == "c":
        return A.astype(np.complex128, copy=False)
    if A.dtype.kind in "iufb":
        return A.astype(np.float64, copy=False)
    raise FieldMismatchError(f"{name} has unsupported dtype {A.dtype}")


def _require_finite(A: np.ndarray) -> None:
    # NaN or inf would give finite-looking eigenvalues, and a NaN defect
    # passes every ``defect > tol`` guard
    if not np.isfinite(A).all():
        raise NonFiniteError("matrix has NaN or infinite entries")


def _adjoint(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return A.conj().swapaxes(-1, -2)


def hermiticity_defect(M) -> float | np.ndarray:
    """Largest entrywise deviation of M from its conjugate transpose, for
    one matrix or for each matrix of a stack.

    Raises NonFiniteError on NaN or infinite entries.
    """
    A = as_squares(M)
    _require_finite(A)
    D = np.abs(A - _adjoint(A))
    return float(D.max()) if D.ndim == 2 else D.max(axis=(-2, -1))


def hermitian_part_eigenvalues(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian part (A + A*) / 2, ascending, of one
    matrix or of each matrix of a stack.

    Raises NonFiniteError on NaN or infinite entries.
    """
    _require_finite(A)
    return _eigvalsh_hermitian_part(A)


def _eigvalsh_hermitian_part(A: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((A + _adjoint(A)) / 2.0)


def hermitian_eigenvalues(M) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    Uses the symmetric/Hermitian-specialized solver; refuses input whose
    hermiticity defect exceeds IDENTITY_TOL, and NaN or infinite entries.
    """
    A = as_square(M)
    defect = hermiticity_defect(A)
    if defect > IDENTITY_TOL:
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds tol {IDENTITY_TOL:.3e}")
    return _eigvalsh_hermitian_part(A)


def singular_values(M) -> np.ndarray:
    """Singular values in descending order."""
    A = as_square(M)
    return np.linalg.svd(A, compute_uv=False)


def operator_norm(M) -> float:
    """Spectral norm, computed through the same SVD path as singular_values."""
    return float(singular_values(M)[0])


@dataclasses.dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a PSD test on the Hermitian part of a matrix."""

    is_psd: bool | np.ndarray
    min_eigenvalue: float | np.ndarray
    hermiticity_defect: float | np.ndarray


def is_psd(M, tol: float = PSD_TOL) -> PsdVerdict:
    """Decide positive semidefiniteness with a tolerance.

    The matrix is symmetrized first; the verdict is positive only when the
    hermiticity defect is at most ``tol`` and the smallest eigenvalue of the
    Hermitian part is at least ``-tol``.  The eigenvalue is reported either
    way so callers can see how a non-Hermitian input failed.  NaN or
    infinite entries raise NonFiniteError instead of reaching a verdict.

    A stack of matrices gets one verdict per matrix: the three fields then
    come back as arrays over the leading axes, through one batched
    eigensolve.  A single matrix gets a bool and two floats.
    """
    A = as_squares(M)
    defect = hermiticity_defect(A)
    min_eig = _eigvalsh_hermitian_part(A)[..., 0]
    if A.ndim == 2:
        min_eig = float(min_eig)
    ok = (defect <= tol) & (min_eig >= -tol)
    return PsdVerdict(is_psd=ok, min_eigenvalue=min_eig, hermiticity_defect=defect)


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    """The n x n matrix with a single 1 in row i, column j (1-based)."""
    if n < 1:
        raise DimensionMismatchError(f"order must be positive, got {n}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"matrix_unit indices ({i}, {j}) out of range for n={n}")
    E = np.zeros((n, n))
    E[i - 1, j - 1] = 1.0
    return E


def block2x2(A, B, C, D) -> np.ndarray:
    """Assemble [[A, B], [C, D]] from four n x n blocks over one field."""
    blocks = [as_square(X, f"block {name}") for X, name in ((A, "A"), (B, "B"), (C, "C"), (D, "D"))]
    n = blocks[0].shape[0]
    if any(X.shape[0] != n for X in blocks):
        raise DimensionMismatchError(
            "blocks must share one size, got " + str([X.shape[0] for X in blocks])
        )
    kinds = {X.dtype.kind for X in blocks}
    if len(kinds) != 1:
        raise FieldMismatchError("blocks mix real and complex entries")
    M = np.zeros((2 * n, 2 * n), dtype=blocks[0].dtype)
    M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:] = blocks
    return M


@dataclasses.dataclass(frozen=True)
class SparseBasis:
    """A stack of d matrices of order N, kept as their nonzero entries.

    Matrix i holds ``val[k]`` at flat position ``pos[k]`` for every k with
    ``par[k] == i``; entries run in order of ``par``, then of ``pos``.  The
    parameter bases have O(n^2) nonzero entries, where the dense stack would
    hold d N^2 = O(n^4).  ``matrix`` and ``params`` need unit entries (1, or
    i over the complex field) with each part of a matrix entry set by at
    most one basis matrix.
    """

    dim: int
    order: int
    par: np.ndarray
    pos: np.ndarray
    val: np.ndarray

    def combine(self, x: np.ndarray) -> np.ndarray:
        """sum_i x[b, i] B_i for each row b of x, as a (b, N, N) stack."""
        b, size = x.shape[0], self.order * self.order
        terms = x[:, self.par] * self.val
        flat = (np.arange(b)[:, None] * size + self.pos).ravel()
        out = np.bincount(flat, terms.real.ravel(), minlength=b * size)
        if terms.dtype.kind == "c":
            out = out + 1j * np.bincount(flat, terms.imag.ravel(), minlength=b * size)
        return out.reshape(b, self.order, self.order)

    def pair(self, G: np.ndarray) -> np.ndarray:
        """Re sum_jk B_i[j, k] G[b, j, k] for each matrix G[b], as a (b, d) array."""
        b = G.shape[0]
        terms = (G.reshape(b, -1)[:, self.pos] * self.val).real
        flat = (np.arange(b)[:, None] * self.dim + self.par).ravel()
        return np.bincount(flat, terms.ravel(), minlength=b * self.dim).reshape(b, self.dim)

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """sum_i x[i] B_i, with every part copied from its parameter (signed
        zeros included) instead of summed."""
        parts = np.zeros((self.order * self.order, 2))
        parts[self.pos, self._imaginary()] = x[self.par]
        if self.val.dtype.kind == "c":
            return parts.view(np.complex128).reshape(self.order, self.order)
        return parts[:, 0].reshape(self.order, self.order)

    def params(self, M: np.ndarray) -> np.ndarray:
        """The parameters of a matrix in the span, each read off the first
        entry of its basis matrix."""
        parts = np.stack([M.real.ravel(), M.imag.ravel()], axis=1)
        first = np.r_[True, self.par[1:] != self.par[:-1]]
        return parts[self.pos[first], self._imaginary()[first]]

    def _imaginary(self) -> np.ndarray:
        """1 for the entries that are i, 0 for those that are 1."""
        return (self.val.imag != 0).astype(np.intp)


def char_poly_block_eval(A, b, c, d, lam) -> complex:
    """Evaluate det(M*M - lam I) for M = [[A, bI], [cI, dI]].

    Because three of the four blocks are scalar, the 2n x 2n determinant
    reduces to an n x n one:

        det( A*A (|d|^2 - lam) - A conj(b) conj(c) d - A* b c conj(d)
             + (|bc|^2 - (|b|^2 + |c|^2 + |d|^2) lam + lam^2) I )

    The expression is symmetric under swapping b and c.
    """
    A = as_square(A, "A").astype(np.complex128, copy=False)
    n = A.shape[0]
    b = complex(b)
    c = complex(c)
    d = complex(d)
    lam = complex(lam)
    AH = A.conj().T
    scalar = abs(b * c) ** 2 - (abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2) * lam + lam * lam
    F = (
        AH @ A * (abs(d) ** 2 - lam)
        - A * (np.conj(b) * np.conj(c) * d)
        - AH * (b * c * np.conj(d))
        + scalar * np.eye(n, dtype=np.complex128)
    )
    return complex(np.linalg.det(F))
