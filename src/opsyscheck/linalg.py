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
    return _deviation(A, _adjoint(A))


def _deviation(A: np.ndarray, B: np.ndarray) -> float | np.ndarray:
    """max |A - B| over each matrix, a float for one pair and an array for
    a pair of stacks; exactly 0, with no pass over A - B, when the two are
    equal as a whole.  The hermiticity defect and the map residuals share it."""
    if np.array_equal(A, B):
        return 0.0 if A.ndim == 2 else np.zeros(A.shape[:-2])
    D = np.abs(A - B)
    return float(D.max()) if D.ndim == 2 else D.max(axis=(-2, -1))


def _spectrum(M) -> tuple:
    """(hermiticity defect, ascending eigenvalues of (A + A*) / 2) of one
    matrix, or of each matrix of a stack by one batched eigensolve: the
    package's one symmetrize-and-eigensolve.  A matrix or stack that equals
    its adjoint is its own Hermitian part and is eigensolved as it is.  NaN
    or infinite entries raise NonFiniteError."""
    A = as_squares(M)
    _require_finite(A)
    H = _adjoint(A)
    defect = _deviation(A, H)
    return defect, np.linalg.eigvalsh((A + H) / 2.0 if np.any(defect) else A)


def hermitian_eigenvalues(M) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    Uses the symmetric/Hermitian-specialized solver; refuses input whose
    hermiticity defect exceeds IDENTITY_TOL, and NaN or infinite entries.
    """
    defect, eigenvalues = _spectrum(as_square(M))
    if defect > IDENTITY_TOL:
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds tol {IDENTITY_TOL:.3e}")
    return eigenvalues


def singular_values(M) -> np.ndarray:
    """Singular values in descending order, of one matrix or of each matrix
    of a stack."""
    return np.linalg.svd(as_squares(M), compute_uv=False)


def operator_norm(M) -> float | np.ndarray:
    """Spectral norm, computed through the same SVD path as singular_values:
    a float for one matrix, an array over the leading axes of a stack."""
    top = singular_values(M)[..., 0]
    return float(top) if top.ndim == 0 else top


@dataclasses.dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a PSD test on the Hermitian part of a matrix."""

    is_psd: bool | np.ndarray
    min_eigenvalue: float | np.ndarray
    hermiticity_defect: float | np.ndarray

    def at(self, tol: float) -> bool | np.ndarray:
        """The verdict ``is_psd`` reaches at another tolerance, read off the
        same defect and smallest eigenvalue, with no second eigensolve."""
        return _psd_decision(self.hermiticity_defect, self.min_eigenvalue, tol)


def _psd_decision(defect, min_eig, tol: float):
    """The one PSD decision rule: defect at most tol, smallest eigenvalue at
    least -tol."""
    return (defect <= tol) & (min_eig >= -tol)


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
    defect, eigenvalues = _spectrum(M)
    min_eig = eigenvalues[..., 0]
    if min_eig.ndim == 0:
        min_eig = float(min_eig)
    return PsdVerdict(
        is_psd=_psd_decision(defect, min_eig, tol), min_eigenvalue=min_eig, hermiticity_defect=defect
    )


def block2x2(A, B, C, D) -> np.ndarray:
    """Assemble [[A, B], [C, D]] from four n x n blocks over one field, or
    each matrix of a stack from four stacks of blocks of one shape."""
    blocks = [as_squares(X, f"block {name}") for X, name in ((A, "A"), (B, "B"), (C, "C"), (D, "D"))]
    shape = blocks[0].shape
    if any(X.shape != shape for X in blocks):
        raise DimensionMismatchError("blocks must share one shape, got " + str([X.shape for X in blocks]))
    kinds = {X.dtype.kind for X in blocks}
    if len(kinds) != 1:
        raise FieldMismatchError("blocks mix real and complex entries")
    n = shape[-1]
    M = np.zeros(shape[:-2] + (2 * n, 2 * n), dtype=blocks[0].dtype)
    M[..., :n, :n], M[..., :n, n:], M[..., n:, :n], M[..., n:, n:] = blocks
    return M


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
