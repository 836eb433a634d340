"""Dense linear-algebra helpers for 2x2 block matrices.

Everything downstream works with square complex or real matrices split into
four n x n blocks.  This module owns the low-level conventions: eigenvalue
and singular-value computations, the PSD decision rule, block assembly and
extraction, the reduced characteristic polynomial for scalar-cornered block
matrices, and compression onto the span of a few vectors.
"""

from __future__ import annotations

import dataclasses

import numpy as np


class DimensionMismatchError(ValueError):
    """Shapes do not line up (non-square, unequal block sizes, odd order)."""


class NotHermitianError(ValueError):
    """A Hermitian-only routine received a matrix with too large a defect."""


class FieldMismatchError(ValueError):
    """Real and complex data were mixed where a single scalar field is required."""


class ZeroSpanError(ValueError):
    """All spanning vectors were (numerically) zero."""


class NonFiniteError(ValueError):
    """A matrix holds NaN or infinite entries where a finite one is required."""


def as_square(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d square ndarray over float64 or complex128."""
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
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


def hermiticity_defect(M) -> float:
    """Largest entrywise deviation of M from its conjugate transpose.

    Raises NonFiniteError on NaN or infinite entries.
    """
    A = as_square(M)
    _require_finite(A)
    return float(np.abs(A - A.conj().T).max())


def hermitian_part_eigenvalues(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian part (A + A*) / 2, ascending.

    Raises NonFiniteError on NaN or infinite entries.
    """
    _require_finite(A)
    return _eigvalsh_hermitian_part(A)


def _eigvalsh_hermitian_part(A: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((A + A.conj().T) / 2.0)


def hermitian_eigenvalues(M, tol: float = 1e-9) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    Uses the symmetric/Hermitian-specialized solver; refuses input whose
    hermiticity defect exceeds ``tol``, and NaN or infinite entries.
    """
    A = as_square(M)
    defect = hermiticity_defect(A)
    if defect > tol:
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds tol {tol:.3e}")
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

    is_psd: bool
    min_eigenvalue: float
    hermiticity_defect: float


def is_psd(M, tol: float = 1e-7) -> PsdVerdict:
    """Decide positive semidefiniteness with a tolerance.

    The matrix is symmetrized first; the verdict is positive only when the
    hermiticity defect is at most ``tol`` and the smallest eigenvalue of the
    Hermitian part is at least ``-tol``.  The eigenvalue is reported either
    way so callers can see how a non-Hermitian input failed.  NaN or
    infinite entries raise NonFiniteError instead of reaching a verdict.
    """
    A = as_square(M)
    defect = hermiticity_defect(A)
    min_eig = float(_eigvalsh_hermitian_part(A)[0])
    ok = defect <= tol and min_eig >= -tol
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


def _normalize_block(X, name: str) -> np.ndarray:
    A = np.asarray(X)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"block {name} must be square, got shape {A.shape}")
    if A.dtype.kind == "c":
        return A.astype(np.complex128, copy=False)
    if A.dtype.kind in "iufb":
        return A.astype(np.float64, copy=False)
    raise FieldMismatchError(f"block {name} has unsupported dtype {A.dtype}")


def block2x2(A, B, C, D) -> np.ndarray:
    """Assemble [[A, B], [C, D]] from four n x n blocks over one field."""
    blocks = [_normalize_block(X, name) for X, name in ((A, "A"), (B, "B"), (C, "C"), (D, "D"))]
    n = blocks[0].shape[0]
    if any(X.shape[0] != n for X in blocks):
        raise DimensionMismatchError(
            "blocks must share one size, got " + str([X.shape[0] for X in blocks])
        )
    kinds = {X.dtype.kind for X in blocks}
    if len(kinds) != 1:
        raise FieldMismatchError("blocks mix real and complex entries")
    return np.block([[blocks[0], blocks[1]], [blocks[2], blocks[3]]])


def blocks2x2(M) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split an even-order square matrix into its four blocks (copies)."""
    A = as_square(M)
    if A.shape[0] % 2 != 0:
        raise DimensionMismatchError(f"order {A.shape[0]} is odd, cannot split into blocks")
    n = A.shape[0] // 2
    return (
        A[:n, :n].copy(),
        A[:n, n:].copy(),
        A[n:, :n].copy(),
        A[n:, n:].copy(),
    )


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


@dataclasses.dataclass(frozen=True)
class Isometry:
    """Columns form an orthonormal family: V*V = I within 1e-12."""

    matrix: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.matrix)
        if V.ndim != 2 or V.shape[1] == 0 or V.shape[1] > V.shape[0]:
            raise DimensionMismatchError(f"isometry must be tall, got shape {V.shape}")
        gram = V.conj().T @ V
        if np.abs(gram - np.eye(V.shape[1])).max() > 1e-12:
            raise ValueError("columns are not orthonormal to 1e-12")
        object.__setattr__(self, "matrix", V)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return self.matrix.shape[1]

    @property
    def projection(self) -> np.ndarray:
        """Orthogonal projector conj(V) V^t onto the conjugated column span.

        This is the projector of the compression legs: the compression below
        is U* M U with U = diag(conj(V), conj(V)).
        """
        V = self.matrix
        return V.conj() @ V.T


def orthonormalize(vectors, drop_tol: float = 1e-10) -> np.ndarray:
    """Modified Gram-Schmidt with re-orthogonalization.

    Columns whose residual after projection falls below ``drop_tol`` are
    dropped.  Returns an n x k matrix; raises ZeroSpanError when k = 0.
    """
    cols: list[np.ndarray] = []
    length = None
    for v in vectors:
        w = np.asarray(v, dtype=np.complex128).ravel().copy()
        if length is None:
            length = w.shape[0]
        elif w.shape[0] != length:
            raise DimensionMismatchError("spanning vectors have unequal lengths")
        # second pass guards against loss of orthogonality in near-dependent input
        for _ in range(2):
            for q in cols:
                w = w - q * (q.conj() @ w)
        norm = float(np.linalg.norm(w))
        if norm > drop_tol:
            cols.append(w / norm)
    if not cols:
        raise ZeroSpanError("all spanning vectors are numerically zero")
    return np.array(cols).T


def compress_to_span(M, x1, x2, y1, y2, drop_tol: float = 1e-10) -> tuple[np.ndarray, Isometry]:
    """Compress a scalar-diagonal block matrix onto the span of four vectors.

    ``M`` must be [[a I, B], [C, d I]] of order 2n; the xs and ys are vectors
    in C^n.  An orthonormal basis V (n x k) of their span is extracted and the
    compression R' = U* M U with U = diag(conj(V), conj(V)) is returned; its
    blocks are (a I_k, V^t B conj(V), V^t C conj(V), d I_k).  The operator
    norm never increases under this compression.
    """
    A, B, C, D = blocks2x2(M)
    n = A.shape[0]
    for name, blk in (("upper-left", A), ("lower-right", D)):
        if np.abs(blk - blk[0, 0] * np.eye(n)).max() > 1e-9:
            raise ValueError(f"{name} block is not a scalar multiple of the identity")
    vs = []
    for name, v in (("x1", x1), ("x2", x2), ("y1", y1), ("y2", y2)):
        w = np.asarray(v).ravel()
        if w.shape[0] != n:
            raise DimensionMismatchError(f"vector {name} has length {w.shape[0]}, expected {n}")
        vs.append(w)
    V = orthonormalize(vs, drop_tol=drop_tol)
    iso = Isometry(V)
    k = iso.rank
    a = A[0, 0]
    d = D[0, 0]
    Ik = np.eye(k, dtype=np.complex128)
    Rp = np.block(
        [
            [a * Ik, V.T @ B @ V.conj()],
            [V.T @ C @ V.conj(), d * Ik],
        ]
    )
    return Rp, iso
