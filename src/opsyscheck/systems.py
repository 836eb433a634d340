"""Block-structured subspaces of 2n x 2n matrices and their elements.

Five subspaces appear throughout the checks, named by the shape of their
2x2 block pattern over M_n:

* scalar-diagonal:          [[a I, B], [C, d I]]      complex, B and C free
* transpose-paired:         [[a I, C], [C^t, b I]]    real
* transpose-paired-complex: [[a I, C], [C^t, b I]]    complex span of the same shape
* free-corner:              [[A, b I], [c I, d I]]    complex, A free
* free-corner-real:         [[A, b I], [c I, d I]]    real

Every block is a scalar multiple of I, a free block, or the transpose of
another block.  One table, ``_LAYOUT``, says which for each field of the
typed element classes, and embedding, membership, extraction, seeded random
sampling and the real parameter basis of the norm search all derive from
it.  All five shapes also carry a closed-form positivity criterion with a
matching eigenvalue oracle.

Every seeded draw of an element or of a 2n x 2n matrix lives here, one
sampler per distribution: generic, positive and self-adjoint elements, the
free-corner entry tuple of the scalar-swap checks, and the Gaussian,
rank-one and Wishart matrices of the full algebra.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math
from typing import NamedTuple

import numpy as np

from .linalg import (
    EXACT_TOL,
    IDENTITY_TOL,
    MEMBERSHIP_TOL,
    PSD_TOL,
    DimensionMismatchError,
    FieldMismatchError,
    SparseBasis,
    as_square,
    hermitian_part_eigenvalues,
    hermiticity_defect,
    is_psd,
    operator_norm,
)


class DomainViolationError(ValueError):
    """A matrix or element lies outside the subspace a routine requires."""


class UnsupportedSystemError(ValueError):
    """The requested operation is not defined for this subspace."""


class Field(enum.Enum):
    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self):
        return np.float64 if self is Field.REAL else np.complex128


class SystemKind(enum.Enum):
    SCALAR_DIAGONAL = ("scalar-diagonal", Field.COMPLEX)
    TRANSPOSE_PAIRED = ("transpose-paired", Field.REAL)
    TRANSPOSE_PAIRED_COMPLEX = ("transpose-paired-complex", Field.COMPLEX)
    FREE_CORNER = ("free-corner", Field.COMPLEX)
    FREE_CORNER_REAL = ("free-corner-real", Field.REAL)

    def __init__(self, token: str, field: Field):
        self.token = token
        self.field = field


PAIRED_KINDS = (SystemKind.TRANSPOSE_PAIRED, SystemKind.TRANSPOSE_PAIRED_COMPLEX)
CORNER_KINDS = (SystemKind.FREE_CORNER, SystemKind.FREE_CORNER_REAL)
LEMMA_KINDS = PAIRED_KINDS + CORNER_KINDS


@dataclasses.dataclass(frozen=True)
class SystemId:
    """A subspace kind together with the block size n."""

    kind: SystemKind
    n: int

    def __post_init__(self):
        if not isinstance(self.kind, SystemKind):
            raise TypeError(f"kind must be a SystemKind, got {self.kind!r}")
        if self.n < 1:
            raise DimensionMismatchError(f"block size must be positive, got {self.n}")

    @property
    def field(self) -> Field:
        return self.kind.field

    @property
    def ambient_order(self) -> int:
        return 2 * self.n


def _coerce_scalar(x, field: Field, name: str):
    z = complex(x)
    if field is Field.REAL:
        if z.imag != 0.0:
            raise FieldMismatchError(f"scalar {name} must be real, got {z}")
        return float(z.real)
    return z


def _coerce_block(X, field: Field, n: int, name: str) -> np.ndarray:
    A = np.asarray(X)
    if A.shape != (n, n):
        raise DimensionMismatchError(f"block {name} must be {n}x{n}, got {A.shape}")
    if field is Field.REAL:
        if A.dtype.kind == "c":
            if np.abs(A.imag).max() != 0.0:
                raise FieldMismatchError(f"block {name} must be real")
            A = A.real
        return np.array(A, dtype=np.float64)
    return np.array(A, dtype=np.complex128)


class _Element:
    """Coerces every field to the system's field, as its layout slot says."""

    def __post_init__(self):
        kind, n = self.system.kind, self.system.n
        if _ELEMENT_CLASS[kind] is not type(self):
            raise UnsupportedSystemError(f"wrong system kind {kind}")
        for name, _, role in _LAYOUT[type(self)]:
            value = getattr(self, name)
            if role is Role.SCALAR:
                value = _coerce_scalar(value, kind.field, name)
            else:
                value = _coerce_block(value, kind.field, n, name)
            object.__setattr__(self, name, value)


@dataclasses.dataclass(frozen=True, eq=False)
class ScalarDiagonalElement(_Element):
    """Element of the scalar-diagonal system: [[a I, B], [C, d I]]."""

    system: SystemId
    a: complex
    d: complex
    B: np.ndarray
    C: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class PairedCornerElement(_Element):
    """Element of a transpose-paired system: [[a I, C], [C^t, b I]]."""

    system: SystemId
    a: complex
    b: complex
    C: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class FreeCornerElement(_Element):
    """Element of a free-corner system: [[A, b I], [c I, d I]]."""

    system: SystemId
    A: np.ndarray
    b: complex
    c: complex
    d: complex


SystemElement = ScalarDiagonalElement | PairedCornerElement | FreeCornerElement


class Role(enum.Enum):
    """How an element field fills its block of the 2x2 pattern."""

    SCALAR = "scalar"  # the value times I
    FREE = "free"  # any n x n block
    TIED = "tied"  # any n x n block, whose transpose fills the mirrored block


class Slot(NamedTuple):
    """An element field, its (row, col) in the 2x2 block grid, and its role."""

    name: str
    block: tuple[int, int]
    role: Role


# The one description of each subspace: every field of the element class, in
# dataclass order.  Embedding, membership, extraction, draws and the
# parameter basis all walk it.
_LAYOUT: dict[type, tuple[Slot, ...]] = {
    ScalarDiagonalElement: (
        Slot("a", (0, 0), Role.SCALAR),
        Slot("d", (1, 1), Role.SCALAR),
        Slot("B", (0, 1), Role.FREE),
        Slot("C", (1, 0), Role.FREE),
    ),
    PairedCornerElement: (
        Slot("a", (0, 0), Role.SCALAR),
        Slot("b", (1, 1), Role.SCALAR),
        Slot("C", (0, 1), Role.TIED),
    ),
    FreeCornerElement: (
        Slot("A", (0, 0), Role.FREE),
        Slot("b", (0, 1), Role.SCALAR),
        Slot("c", (1, 0), Role.SCALAR),
        Slot("d", (1, 1), Role.SCALAR),
    ),
}

# Runs of consecutive scalar fields and of consecutive block fields of each
# class, in dataclass order: (is the run scalar, its field names).  Each run
# is one generator call of ``_draw_fields``.
_DRAW_RUNS: dict[type, tuple[tuple[bool, tuple[str, ...]], ...]] = {
    cls: tuple(
        (scalar, tuple(slot.name for slot in run))
        for scalar, run in itertools.groupby(slots, lambda slot: slot.role is Role.SCALAR)
    )
    for cls, slots in _LAYOUT.items()
}

_ELEMENT_CLASS: dict[SystemKind, type] = {
    SystemKind.SCALAR_DIAGONAL: ScalarDiagonalElement,
    SystemKind.TRANSPOSE_PAIRED: PairedCornerElement,
    SystemKind.TRANSPOSE_PAIRED_COMPLEX: PairedCornerElement,
    SystemKind.FREE_CORNER: FreeCornerElement,
    SystemKind.FREE_CORNER_REAL: FreeCornerElement,
}


def _block(M: np.ndarray, n: int, block: tuple[int, int]) -> np.ndarray:
    """View of one n x n block of a 2n x 2n matrix, or of each matrix of a stack."""
    r, c = block
    return M[..., r * n : (r + 1) * n, c * n : (c + 1) * n]


def identity_element(s: SystemId) -> SystemElement:
    """The element whose embedding is the 2n x 2n identity."""
    return extract(s, np.eye(2 * s.n, dtype=s.field.dtype))


def embed(e: SystemElement) -> np.ndarray:
    """The 2n x 2n matrix an element stands for."""
    return _embed_fields(e.system, vars(e), ())


def _embed_fields(s: SystemId, fields, lead: tuple[int, ...]) -> np.ndarray:
    """The (*lead, 2n, 2n) stack that field values stand for: scalar fields
    of shape ``lead`` (plain numbers when ``lead`` is empty) and block fields
    of shape (*lead, n, n)."""
    n = s.n
    dtype = s.field.dtype
    I = np.eye(n, dtype=dtype)
    M = np.zeros(lead + (2 * n, 2 * n), dtype=dtype)
    for name, block, role in _LAYOUT[_ELEMENT_CLASS[s.kind]]:
        value = fields[name]
        if role is Role.SCALAR:
            value = (value[..., None, None] if lead else value) * I
        _block(M, n, block)[...] = value
        if role is Role.TIED:
            _block(M, n, block[::-1])[...] = value.swapaxes(-1, -2)
    return M


def _is_scalar_block(X: np.ndarray) -> bool:
    n = X.shape[0]
    return bool(np.abs(X - X[0, 0] * np.eye(n)).max() <= MEMBERSHIP_TOL)


def contains(s: SystemId, M) -> bool:
    """Whether a matrix lies in the subspace, entrywise within MEMBERSHIP_TOL."""
    A = as_square(M)
    if A.shape[0] != 2 * s.n:
        return False
    if s.field is Field.REAL and A.dtype.kind == "c":
        if np.abs(A.imag).max() > MEMBERSHIP_TOL:
            return False
        A = A.real
    n = s.n
    for _, block, role in _LAYOUT[_ELEMENT_CLASS[s.kind]]:
        X = _block(A, n, block)
        if role is Role.SCALAR and not _is_scalar_block(X):
            return False
        if role is Role.TIED and not np.abs(_block(A, n, block[::-1]) - X.T).max() <= MEMBERSHIP_TOL:
            return False
    return True


def extract(s: SystemId, M) -> SystemElement:
    """Read an element back off its embedding.

    Scalars are taken from single matrix entries (never from averages), so
    embed(extract(s, embed(e))) reproduces the matrix bit for bit.
    """
    if not contains(s, M):
        raise DomainViolationError(f"matrix is not in {s.kind.token} at tol {MEMBERSHIP_TOL}")
    A = as_square(M)
    if s.field is Field.REAL and A.dtype.kind == "c":
        A = A.real
    cls = _ELEMENT_CLASS[s.kind]
    fields = {}
    for name, block, role in _LAYOUT[cls]:
        X = _block(A, s.n, block)
        fields[name] = X[0, 0] if role is Role.SCALAR else X
    return cls(s, **fields)


def parameter_basis(s: SystemId) -> SparseBasis:
    """The real basis the norm search moves the subspace's elements along.

    Scalar fields come first, in dataclass order, each as its real part
    then (over the complex field) its imaginary part, a 1 or an i along the
    diagonal of its block.  Block fields follow in dataclass order, each as
    its real entries then its imaginary entries, row-major; a tied block's
    parameter also sets the mirrored entry of the transposed block.
    """
    n, N = s.n, 2 * s.n
    units = (1.0, 1j) if s.field is Field.COMPLEX else (1.0,)
    idx = np.arange(n)
    diagonal = idx * (N + 1)
    entries = (idx[:, None] * N + idx).ravel()
    mirrored = (idx[:, None] + idx * N).ravel()
    slots = sorted(_LAYOUT[_ELEMENT_CLASS[s.kind]], key=lambda slot: slot.role is not Role.SCALAR)
    par, pos, val = [], [], []
    dim = 0
    for _, (r, c), role in slots:
        corner = r * n * N + c * n
        for unit in units:
            if role is Role.SCALAR:
                k, p = np.full(n, dim), corner + diagonal
                dim += 1
            else:
                k, p = dim + np.arange(n * n), corner + entries
                dim += n * n
            if role is Role.TIED:
                # each parameter's two entries in a row, the upper-right one first
                k = np.repeat(k, 2)
                p = np.stack([p, c * n * N + r * n + mirrored], axis=1).ravel()
            par.append(k)
            pos.append(p)
            val.append(np.full(k.size, unit, dtype=s.field.dtype))
    return SparseBasis(dim, N, np.concatenate(par), np.concatenate(pos), np.concatenate(val))


def _draw_fields(s: SystemId, rng: np.random.Generator, scale: float, k: int) -> dict[str, np.ndarray]:
    """Fields of k seeded generic elements: scalars uniform in [-scale, scale]
    (per part), blocks with i.i.d. entries of standard deviation
    scale/sqrt(n), split across the parts when complex.

    Fields are drawn in dataclass order, each for all k elements, real parts
    before imaginary parts; a run of consecutive scalar (or block) fields
    takes one generator call.  So k = 1 consumes the generator exactly as
    one draw per scalar part and per block part would.
    """
    n = s.n
    parts = 2 if s.field is Field.COMPLEX else 1
    fields = {}
    for scalar, names in _DRAW_RUNS[_ELEMENT_CLASS[s.kind]]:
        if scalar:
            x = rng.uniform(-scale, scale, (len(names), parts, k))
        else:
            x = rng.normal(0.0, scale / math.sqrt(parts * n), (len(names), parts, k, n, n))
        if parts == 2:
            z = np.empty(x[:, 0].shape, dtype=np.complex128)
            z.real, z.imag = x[:, 0], x[:, 1]
            x = z
        else:
            x = x[:, 0]
        fields.update(zip(names, x))
    return fields


def _draw_element(s: SystemId, rng: np.random.Generator, scale: float) -> SystemElement:
    """One seeded generic element: the k = 1 case of ``_draw_fields``."""
    fields = _draw_fields(s, rng, scale, 1)
    return _ELEMENT_CLASS[s.kind](s, **{name: value[0] for name, value in fields.items()})


def _draw_positive(s: SystemId, rng: np.random.Generator) -> SystemElement:
    """One seeded PSD element, verified before return."""
    return _draw_positive_embedded(s, rng)[0]


def _draw_positive_embedded(s: SystemId, rng: np.random.Generator) -> tuple[SystemElement, np.ndarray]:
    """One seeded PSD element and the matrix it embeds to, verified on that
    matrix before return."""
    n = s.n
    if s.kind not in CORNER_KINDS:
        # [[a I, K], [K*, b I]] with ||K|| <= sqrt(ab); a tenth of draws pin
        # a or b to 0, which forces K = 0.  K is complex on the scalar-diagonal
        # system and real on the paired ones, where K* = K^t.
        cplx = s.kind is SystemKind.SCALAR_DIAGONAL
        a = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 2.0))
        b = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 2.0))
        if a * b == 0.0:
            K = np.zeros((n, n), dtype=np.complex128 if cplx else np.float64)
        else:
            G = rng.normal(size=(n, n))
            if cplx:
                G = G + 1j * rng.normal(size=(n, n))
            K = G * (rng.uniform(0.0, 1.0) * math.sqrt(a * b) / max(operator_norm(G), 1e-300))
        e: SystemElement = (
            ScalarDiagonalElement(s, a, b, K, K.conj().T) if cplx else PairedCornerElement(s, a, b, K)
        )
    else:
        G = (
            rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            if s.field is Field.COMPLEX
            else rng.normal(size=(n, n))
        )
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
        e = FreeCornerElement(s, A, b, np.conj(b), d)
    M = embed(e)
    verdict = is_psd(M, tol=IDENTITY_TOL)
    if not verdict.is_psd:
        raise AssertionError(
            f"positive sampler produced min eigenvalue {verdict.min_eigenvalue:.3e}"
        )
    return e, M


def _draw_selfadjoint(s: SystemId, rng: np.random.Generator) -> SystemElement:
    """Self-adjoint element of the scalar-diagonal or the free-corner system:
    a Gaussian corner B with B* below it and uniform real scalars, or a
    Hermitian part of a Gaussian A with Gaussian c, conj(c) and real d."""
    n = s.n
    if s.kind is SystemKind.SCALAR_DIAGONAL:
        B = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(n)
        a, d = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        return ScalarDiagonalElement(s, a, d, B, B.conj().T)
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    c = complex(rng.normal(), rng.normal())
    return FreeCornerElement(s, (G + G.conj().T) / 2.0, np.conj(c), c, float(rng.normal()))


def _draw_corner_tuple(n: int, rng: np.random.Generator) -> tuple[np.ndarray, complex, complex, complex]:
    """Entries (A, b, c, d) of [[A, b I], [c I, d I]]: A with i.i.d. complex
    Gaussian entries of variance 1/n, b, c and d complex Gaussian of variance 1."""
    A = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2 * n)
    b, c, d = (complex(rng.normal(), rng.normal()) / math.sqrt(2) for _ in range(3))
    return A, b, c, d


def _draw_full(n: int, field: Field, rng: np.random.Generator) -> np.ndarray:
    """2n x 2n matrix of the full algebra with i.i.d. Gaussian entries of
    variance 1/(2n), split across the parts when complex."""
    if field is Field.COMPLEX:
        return (rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))) / math.sqrt(4 * n)
    return rng.normal(size=(2 * n, 2 * n)) / math.sqrt(2 * n)


def _draw_psd_rank_one(n: int, field: Field, rng: np.random.Generator) -> np.ndarray:
    """Projection v v* / |v|^2 onto a Gaussian vector of length 2n."""
    if field is Field.COMPLEX:
        v = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
    else:
        v = rng.normal(size=2 * n)
    return np.outer(v, v.conj()) / max(float(np.real(np.vdot(v, v))), 1e-300)


def _draw_psd_wishart(n: int, field: Field, rng: np.random.Generator) -> np.ndarray:
    """G G* for G drawn by ``_draw_full``."""
    G = _draw_full(n, field, rng)
    return G @ G.conj().T


def _scalar_corners(
    e: ScalarDiagonalElement | PairedCornerElement,
) -> tuple[complex, complex, np.ndarray, float]:
    """(a, b, K, defect) of an element [[a I, K], [L, b I]]: the corner K as
    the criterion measures it, and how far L is from K* entrywise."""
    if isinstance(e, ScalarDiagonalElement):
        return complex(e.a), complex(e.d), e.B, float(np.abs(e.C - e.B.conj().T).max())
    if np.iscomplexobj(e.C):
        # L = C^t, which is C* exactly when C is real
        return complex(e.a), complex(e.b), e.C.real, float(np.abs(e.C.imag).max())
    return complex(e.a), complex(e.b), e.C, 0.0


def is_positive_by_criterion(e: SystemElement, tol: float = PSD_TOL) -> bool:
    """Closed-form positivity test for every system.

    Scalar-diagonal and paired shapes, [[a I, K], [L, b I]]: a and b real
    and nonneg, L = K*, and ||K|| <= sqrt(ab); when ab <= tol^2 the corner
    must vanish (||K|| <= tol).  Free-corner shape: A PSD, d >= 0,
    c = conj(b), and d A >= |b|^2 I; when d <= tol this degenerates to
    |b| <= tol with A PSD.  Self-adjointness is required within tol.
    """
    if not isinstance(e, FreeCornerElement):
        a, b, K, defect = _scalar_corners(e)
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
    # free-corner shape
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
    lam_min = float(hermitian_part_eigenvalues(A)[0])
    if lam_min < -tol:
        return False
    if dr <= tol:
        return abs(b) <= tol
    return dr * lam_min >= abs(b) ** 2 - tol


def boundary_margin(e: SystemElement) -> float:
    """Distance of an element from the decision boundaries of the criterion.

    Used to filter random draws before comparing the criterion against the
    eigenvalue oracle: both can legitimately flip within a tolerance of the
    boundary.  Hermiticity defects contribute only when nonzero (an exactly
    self-adjoint element is not near the self-adjointness boundary).
    """
    def herm_margin(vals):
        live = [v for v in vals if v > EXACT_TOL]
        return min(live) if live else math.inf

    if not isinstance(e, FreeCornerElement):
        a, b, K, defect = _scalar_corners(e)
        parts = [abs(a.real), abs(b.real)]
        if a.real > 0 and b.real > 0:
            parts.append(abs(math.sqrt(a.real * b.real) - operator_norm(K)))
        return min(min(parts), herm_margin([abs(a.imag), abs(b.imag), defect]))
    A, b, c, d = e.A, complex(e.b), complex(e.c), complex(e.d)
    hm = herm_margin([abs(c - np.conj(b)), hermiticity_defect(A), abs(d.imag)])
    lam_min = float(hermitian_part_eigenvalues(A)[0])
    parts = [abs(lam_min), abs(d.real)]
    if d.real > 0 and lam_min > 0:
        parts.append(abs(d.real * lam_min - abs(b) ** 2))
    return min(min(parts), hm)
