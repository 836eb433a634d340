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
sampling and the orthogonal projection the norm search climbs through all
derive from it.  All five shapes also carry a closed-form positivity
criterion with a matching eigenvalue oracle.

Every seeded draw lives here, one sampler per distribution: generic,
positive and self-adjoint elements, the free-corner entry tuple of the
scalar-swap checks, the Gaussian, rank-one and Wishart matrices of the
full algebra, and the integer points of the exact identity tests, seeded by
(step, n) alone, at which the certificates prove their linear steps and
``maps.check_structural`` the maps' structure.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
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
    PsdVerdict,
    _adjoint,
    _spectrum,
    as_square,
    as_squares,
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
# projection all walk it.
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
    of shape (*lead, n, n).

    This is the one place a field enters a matrix.  A scalar field is
    written onto its block's diagonal and every other entry keeps its zero,
    so each value is copied bit for bit.
    """
    n = s.n
    diagonal = np.arange(n)
    M = np.zeros(lead + (2 * n, 2 * n), dtype=s.field.dtype)
    for name, block, role in _LAYOUT[_ELEMENT_CLASS[s.kind]]:
        value = fields[name]
        if role is Role.SCALAR:
            _block(M, n, block)[..., diagonal, diagonal] = np.asarray(value)[..., None]
        else:
            _block(M, n, block)[...] = value
        if role is Role.TIED:
            _block(M, n, block[::-1])[...] = value.swapaxes(-1, -2)
    return M


def _largest(X: np.ndarray):
    """Largest entry of each matrix of a stack, or a float for one matrix."""
    return X.max(axis=(-2, -1)) if X.ndim > 2 else float(X.max())


@functools.lru_cache(maxsize=None)
def _membership_entries(kind: SystemKind, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices into a 2n x 2n matrix of what membership compares:
    the entries that must vanish (off the diagonal of each scalar block),
    and pairs (lhs, rhs) that must agree (each diagonal entry of a scalar
    block with the block's first one, each entry of a tied block's mirror
    with the transposed entry of the tied block)."""
    index = np.arange(4 * n * n).reshape(2 * n, 2 * n)
    diagonal = np.arange(n)
    off_diagonal = ~np.eye(n, dtype=bool)
    zero, lhs, rhs = [], [], []
    for _, block, role in _LAYOUT[_ELEMENT_CLASS[kind]]:
        X = _block(index, n, block)
        if role is Role.SCALAR:
            zero.append(X[off_diagonal])
            lhs.append(X[diagonal, diagonal])
            rhs.append(np.full(n, X[0, 0]))
        elif role is Role.TIED:
            lhs.append(_block(index, n, block[::-1]).ravel())
            rhs.append(X.T.ravel())
    return np.concatenate(zero), np.concatenate(lhs), np.concatenate(rhs)


def contains(s: SystemId, M) -> bool | np.ndarray:
    """Whether a matrix lies in the subspace, entrywise within MEMBERSHIP_TOL.

    A stack of matrices gets one verdict per matrix, as a bool array over
    the leading axes.  The entries each comparison reads are gathered by
    flat index, so every row is decided by reductions over contiguous
    gathers, with no copy of a block.
    """
    A = as_squares(M)
    lead = A.shape[:-2]
    if A.shape[-1] != 2 * s.n:
        return np.zeros(lead, dtype=bool) if lead else False
    ok = np.True_
    if s.field is Field.REAL and A.dtype.kind == "c":
        ok = np.logical_not(_largest(np.abs(A.imag)) > MEMBERSHIP_TOL)
        A = A.real
    zero, lhs, rhs = _membership_entries(s.kind, s.n)
    flat = A.reshape(lead + (-1,))
    ok = ok & (np.abs(flat[..., lhs] - flat[..., rhs]).max(axis=-1) <= MEMBERSHIP_TOL)
    if zero.size:
        ok = ok & (np.abs(flat[..., zero]).max(axis=-1) <= MEMBERSHIP_TOL)
    return ok if lead else bool(ok)


def _require_contained(s: SystemId, M) -> None:
    """Raise DomainViolationError unless the matrix, or every matrix of a
    stack, lies in the subspace."""
    inside = contains(s, M)
    if not (inside if isinstance(inside, bool) else inside.all()):
        raise DomainViolationError(f"matrix is not in {s.kind.token} at tol {MEMBERSHIP_TOL}")


def extract(s: SystemId, M) -> SystemElement:
    """Read an element back off its embedding.

    Scalars are taken from single matrix entries (never from averages), so
    embed(extract(s, embed(e))) reproduces the matrix bit for bit.
    """
    _require_contained(s, M)
    A = as_square(M)
    if s.field is Field.REAL and A.dtype.kind == "c":
        A = A.real
    cls = _ELEMENT_CLASS[s.kind]
    fields = {}
    for name, block, role in _LAYOUT[cls]:
        X = _block(A, s.n, block)
        fields[name] = X[0, 0] if role is Role.SCALAR else X
    return cls(s, **fields)


# half the largest double: a halved mean held within it doubles back finite
_HALF_MAX = np.finfo(np.float64).max / 2.0


def project(s: SystemId, M) -> np.ndarray:
    """Orthogonal projection of a 2n x 2n matrix, or of each matrix of a
    stack, onto the subspace, for the real inner product Re tr(A* B).

    A scalar field becomes the mean of its block's diagonal, a free block is
    kept, and a tied block becomes the mean of itself and its mirror's
    transpose; over the real field imaginary parts are dropped first.  A
    matrix of the subspace is its own projection up to the roundoff of the
    means, at most n + 1 units in the last place.
    """
    A = as_squares(M)
    if s.field is Field.REAL and A.dtype.kind == "c":
        A = A.real
    n = s.n
    # half the mean of each block's diagonal, over the 2x2 block grid; each
    # term is scaled before the sum, so no finite input overflows
    half = np.einsum("...rici,i->...rc", A.reshape(A.shape[:-2] + (2, n, 2, n)), np.full(n, 0.5 / n))
    parts = half.view(np.float64)
    np.clip(parts, -_HALF_MAX, _HALF_MAX, out=parts)
    means = 2.0 * half
    fields = {}
    for name, block, role in _LAYOUT[_ELEMENT_CLASS[s.kind]]:
        X = _block(A, n, block)
        if role is Role.SCALAR:
            X = means[..., block[0], block[1]]
        elif role is Role.TIED:
            X = X / 2.0 + _block(A, n, block[::-1]).swapaxes(-1, -2) / 2.0
        fields[name] = X
    return _embed_fields(s, fields, A.shape[:-2])


def _draw_fields(s: SystemId, rng: np.random.Generator, scale: float, k: int) -> dict[str, np.ndarray]:
    """Fields of k seeded generic elements: scalars uniform in [-scale, scale]
    (per part), blocks with i.i.d. entries of standard deviation
    scale/sqrt(n), split across the parts when complex.

    Fields are drawn in dataclass order, each by one generator call for all
    k elements, real parts before imaginary parts.  So k = 1 consumes the
    generator exactly as one draw per scalar part and per block part would.
    """
    n = s.n
    parts = 2 if s.field is Field.COMPLEX else 1
    fields = {}
    for name, _, role in _LAYOUT[_ELEMENT_CLASS[s.kind]]:
        if role is Role.SCALAR:
            x = rng.uniform(-scale, scale, (parts, k))
        else:
            x = rng.normal(0.0, scale / math.sqrt(parts * n), (parts, k, n, n))
        fields[name] = _from_parts(x)
    return fields


def _from_parts(x: np.ndarray) -> np.ndarray:
    """The values with real parts x[0] and imaginary parts x[1], each part
    copied bit for bit, or x[0] when x holds one part."""
    if len(x) == 1:
        return x[0]
    z = np.empty(x.shape[1:], dtype=np.complex128)
    z.real, z.imag = x
    return z


def _rows(fields: dict[str, np.ndarray], index) -> dict[str, np.ndarray]:
    """The rows of a stack of field values that an index, a slice or a mask
    selects."""
    return {name: value[index] for name, value in fields.items()}


def _concat_fields(stacks: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Stacks of field values of one system, one after the other.  Each
    value is copied bit for bit; real values join complex ones exactly."""
    return {name: np.concatenate([fields[name] for fields in stacks]) for name in stacks[0]}


def _element_at(s: SystemId, fields: dict[str, np.ndarray], j: int) -> SystemElement:
    """The element made of row j of a stack of field values."""
    return _ELEMENT_CLASS[s.kind](s, **_rows(fields, j))


def _draw_element(s: SystemId, rng: np.random.Generator, scale: float) -> SystemElement:
    """One seeded generic element: the k = 1 case of ``_draw_fields``."""
    return _element_at(s, _draw_fields(s, rng, scale, 1), 0)


def _draw_positive(s: SystemId, rng: np.random.Generator) -> SystemElement:
    """One seeded PSD element, verified before return: the k = 1 case of
    ``_draw_positive_fields``."""
    return _element_at(s, _draw_positive_fields(s, rng, 1)[0], 0)


def _draw_positive_fields(
    s: SystemId, rng: np.random.Generator, k: int
) -> tuple[dict[str, np.ndarray], np.ndarray, PsdVerdict]:
    """Fields of k seeded PSD elements, the (k, 2n, 2n) stack they embed
    to, and the verdict of the PSD self-check made on that stack at
    IDENTITY_TOL before return.  The verdict carries each row's smallest
    eigenvalue, so ``verdict.at(tol)`` decides the rows at another
    tolerance without a second eigensolve.

    Each generator call covers the whole stack, in the order one element's
    draw makes them; a value only some elements need (a nonzero scalar, the
    corner it allows) is drawn once per such element.  So k = 1 consumes
    the generator exactly as one element's draw does.
    """
    n = s.n
    cplx = s.field is Field.COMPLEX

    def scalar():
        # uniform in [0.05, 2], pinned to 0 on a tenth of draws
        x = np.zeros(k)
        live = rng.random(k) >= 0.1
        x[live] = rng.uniform(0.05, 2.0, np.count_nonzero(live))
        return x

    def gaussian(count: int, complex_entries: bool) -> np.ndarray:
        G = rng.normal(size=(count, n, n))
        return G + 1j * rng.normal(size=(count, n, n)) if complex_entries else G

    if s.kind not in CORNER_KINDS:
        # [[a I, K], [K*, b I]] with ||K|| <= sqrt(ab); a pinned a or b
        # forces K = 0.  K is complex on the scalar-diagonal system and real
        # on the paired ones, where K* = K^t.
        sd = s.kind is SystemKind.SCALAR_DIAGONAL
        a, b = scalar(), scalar()
        ab = a * b
        live = ab != 0.0
        G = gaussian(np.count_nonzero(live), sd)
        K = np.zeros((k, n, n), dtype=G.dtype)
        norms = operator_norm(G)
        radius = rng.uniform(0.0, 1.0, len(G)) * np.sqrt(ab[live]) / np.maximum(norms, 1e-300)
        K[live] = G * radius[:, None, None]
        a, b = a.astype(s.field.dtype), b.astype(s.field.dtype)
        fields = {"a": a, "d": b, "B": K, "C": K.conj().swapaxes(-1, -2)} if sd else {"a": a, "b": b, "C": K}
    else:
        G = gaussian(k, cplx)
        A = G @ G.conj().swapaxes(-1, -2) / n
        d = scalar()
        live = d != 0.0
        lam_min = np.maximum(np.linalg.eigvalsh(A[live])[:, 0], 0.0)
        r = rng.uniform(0.0, 1.0, len(lam_min)) * np.sqrt(d[live] * lam_min)
        b = np.zeros(k, dtype=s.field.dtype)
        if cplx:
            theta = rng.uniform(0.0, 2.0 * math.pi, len(r))
            # libm's cos and sin per element, as the one-element draw took
            # them: numpy's vectorised ones may differ in the last bit
            b[live] = [ri * complex(math.cos(t), math.sin(t)) for ri, t in zip(r.tolist(), theta.tolist())]
        else:
            b[live] = np.where(rng.random(len(r)) < 0.5, r, -r)
        fields = {"A": A, "b": b, "c": np.conj(b), "d": d.astype(s.field.dtype)}
    M = _embed_fields(s, fields, (k,))
    verdict = is_psd(M, tol=IDENTITY_TOL)
    if not verdict.is_psd.all():
        raise AssertionError(
            f"positive sampler produced min eigenvalue {verdict.min_eigenvalue.min():.3e}"
        )
    return fields, M, verdict


def _draw_selfadjoint(s: SystemId, rng: np.random.Generator, k: int) -> dict[str, np.ndarray]:
    """Fields of k seeded self-adjoint elements of the scalar-diagonal or the
    free-corner system: a Gaussian corner B with B* below it and uniform
    real scalars, or the Hermitian part of a Gaussian A with Gaussian c,
    conj(c) and real d.

    Each generator call covers the whole stack, in the order one element's
    draw makes them, so k = 1 consumes the generator exactly as one
    element's draw does.
    """
    n = s.n
    if s.kind is SystemKind.SCALAR_DIAGONAL:
        B = (rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))) / math.sqrt(n)
        a, d = rng.uniform(-1, 1, (2, k)).astype(np.complex128)
        return {"a": a, "d": d, "B": B, "C": B.conj().swapaxes(-1, -2)}
    if s.kind is not SystemKind.FREE_CORNER:
        raise UnsupportedSystemError(f"no self-adjoint sampler for {s.kind.token}")
    G = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    # each element's c from its real and imaginary parts in turn
    c = rng.normal(size=(k, 2)).view(np.complex128)[:, 0]
    d = rng.normal(size=k).astype(np.complex128)
    return {"A": (G + G.conj().swapaxes(-1, -2)) / 2.0, "b": np.conj(c), "c": c, "d": d}


def _draw_corner_tuple(
    n: int, rng: np.random.Generator, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Entries (A, b, c, d) of k matrices [[A, b I], [c I, d I]], as stacks
    of shape (k, n, n) and (k,): A with i.i.d. complex Gaussian entries of
    variance 1/n, b, c and d complex Gaussian of variance 1.  The scalars of
    each element are drawn as the parts of b, c, d in turn, so k = 1
    consumes the generator as one draw per part would."""
    A = (rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))) / math.sqrt(2 * n)
    bcd = (rng.normal(size=(k, 3, 2)) / math.sqrt(2)).view(np.complex128)[..., 0]
    return A, bcd[:, 0], bcd[:, 1], bcd[:, 2]


def _draw_full(n: int, field: Field, rng: np.random.Generator, lead: tuple[int, ...] = ()) -> np.ndarray:
    """2n x 2n matrix of the full algebra with i.i.d. Gaussian entries of
    variance 1/(2n), split across the parts when complex; a stack of them
    over ``lead``."""
    shape = lead + (2 * n, 2 * n)
    if field is Field.COMPLEX:
        return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / math.sqrt(4 * n)
    return rng.normal(size=shape) / math.sqrt(2 * n)


def _draw_psd_rank_one(
    n: int, field: Field, rng: np.random.Generator, lead: tuple[int, ...] = ()
) -> np.ndarray:
    """Projection v v* / |v|^2 onto a Gaussian vector of length 2n; a stack
    of them over ``lead``."""
    shape = lead + (2 * n,)
    if field is Field.COMPLEX:
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    else:
        v = rng.normal(size=shape)
    norm2 = np.maximum(np.sum((v.conj() * v).real, axis=-1), 1e-300)
    return v[..., :, None] * v.conj()[..., None, :] / norm2[..., None, None]


def _draw_psd_wishart(
    n: int, field: Field, rng: np.random.Generator, lead: tuple[int, ...] = ()
) -> np.ndarray:
    """G G* for G drawn by ``_draw_full``; a stack of them over ``lead``."""
    G = _draw_full(n, field, rng, lead)
    return G @ G.conj().swapaxes(-1, -2)


# Exact randomized identity tests (Schwartz, J. ACM 27, 1980; Zippel, EUROSAM
# 1979): r = IDENTITY_POINTS exact evaluations, each real coordinate uniform
# in S = the integers in [-POINT_BOUND, POINT_BOUND)
IDENTITY_POINTS = 4
POINT_BOUND = 1 << 10


def _proved(points: str, step: int, degree: int = 1) -> str:
    """The tag of an identity checked at the seeded points: its seed and its
    error bound (degree / |S|)^r, the degree rounded up to a power of 2."""
    bits = IDENTITY_POINTS * (POINT_BOUND.bit_length() - (degree - 1).bit_length())
    return f" (proved up to error 2^-{bits} at {IDENTITY_POINTS} {points} seeded by ({step}, n))"


def _point_generator(step: int, n: int) -> np.random.Generator:
    """The seed rule of every identity test: numpy's default generator
    seeded by (step, n), with step a certificate step's number in its
    narrative, counted from 1, or 0 for ``maps.check_structural``."""
    return np.random.default_rng((step, n))


def _integer_points(rng: np.random.Generator, shape: tuple[int, ...], field: Field) -> np.ndarray:
    """A stack of IDENTITY_POINTS arrays of the given shape over the field,
    each independent real part a uniform integer in [-2^10, 2^10), real
    parts before imaginary parts."""
    parts = 2 if field is Field.COMPLEX else 1
    x = rng.integers(-POINT_BOUND, POINT_BOUND, (parts, IDENTITY_POINTS) + shape)
    return _from_parts(x.astype(np.float64))


def _domain_points(s: SystemId, rng: np.random.Generator) -> np.ndarray:
    """The (IDENTITY_POINTS, 2n, 2n) integer points of a subsystem: every
    field of its layout drawn by ``_integer_points``, in dataclass order."""
    fields = {
        name: _integer_points(rng, () if role is Role.SCALAR else (s.n, s.n), s.field)
        for name, _, role in _LAYOUT[_ELEMENT_CLASS[s.kind]]
    }
    return _embed_fields(s, fields, (IDENTITY_POINTS,))


def _hermitian_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """The (IDENTITY_POINTS, n, n) self-adjoint integer points: the real
    diagonal and the strict upper triangle drawn by ``_integer_points``,
    the lower triangle its conjugate mirror."""
    G = _integer_points(rng, (n, n), Field.COMPLEX)
    H = np.triu(G, 1)
    return H + _adjoint(H) + G.real * np.eye(n)


# One implementation of the criterion and the margin serves a stack of field
# values and one element's plain numbers alike.  The helpers below dispatch
# on the kind of value, since a ufunc call, or arithmetic on numpy scalars,
# costs more than all of one element's Python arithmetic.
def _where(condition, x, y):
    """np.where over a stack; the plain branch for one element."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, x, y)
    return x if condition else y


def _every(condition) -> bool:
    """Whether the condition holds on every row of a stack, or on the one element."""
    return bool(condition.all()) if isinstance(condition, np.ndarray) else bool(condition)


def _any(condition) -> bool:
    """Whether the condition holds on some row of a stack, or on the one element."""
    return bool(condition.any()) if isinstance(condition, np.ndarray) else bool(condition)


def _corner_spectrum(A) -> tuple:
    """(||A - A*||_max, lambda_min of the Hermitian part) of each matrix of a
    stack, or two floats for one matrix, off ``linalg._spectrum`` with no
    verdict built.  NaN or infinite entries raise NonFiniteError."""
    defect, eigenvalues = _spectrum(A)
    lam_min = eigenvalues[..., 0]
    return defect, (lam_min if lam_min.ndim else float(lam_min))


def _modulus(z):
    """|z| through hypot, as Python's abs takes it of one complex number:
    numpy's complex absolute may differ from it in the last bit."""
    return np.hypot(z.real, z.imag) if isinstance(z, np.ndarray) else abs(z)


def _corner_terms(s: SystemId, fields) -> tuple:
    """(a, b, K, defect) of scalar-cornered fields [[a I, K], [L, b I]], per
    row of a stack: the corner K as the criterion measures it, and how far L
    is from K* entrywise."""
    a, C = fields["a"], fields["C"]
    if s.kind is SystemKind.SCALAR_DIAGONAL:
        B = fields["B"]
        return a, fields["d"], B, _largest(np.abs(C - B.conj().swapaxes(-1, -2)))
    if s.field is Field.COMPLEX:
        # L = C^t, which is C* exactly when C is real
        return a, fields["b"], C.real, _largest(np.abs(C.imag))
    return a, fields["b"], C, 0.0


def _spectrum_fields(s: SystemId, fields) -> tuple:
    """What the criterion and the margin read off a spectrum, per row of a
    stack: (||K||,) of the corner on the scalar-cornered kinds, by one
    batched SVD, or ``_corner_spectrum(A)`` on the free-corner kinds, by one
    batched eigensolve.  A caller that needs both takes it once and hands
    it to each."""
    if s.kind in CORNER_KINDS:
        return _corner_spectrum(fields["A"])
    return (operator_norm(_corner_terms(s, fields)[2]),)


def _criterion_fields(s: SystemId, fields, tol: float = PSD_TOL, spectrum: tuple | None = None):
    """The closed-form positivity criterion on field values: a bool per row
    of a stack (scalar fields of shape (k,), block fields (k, n, n)), or one
    bool for one element's plain numbers and n x n blocks.  ``spectrum``,
    from ``_spectrum_fields`` of the same rows, saves its SVD or
    eigensolve; without it one batched SVD gives ||K||, or one batched
    eigensolve lambda_min(A), for the whole stack, skipped when the scalar
    checks refuse every row.

    Scalar-diagonal and paired shapes, [[a I, K], [L, b I]]: a and b real
    and nonneg, L = K*, and ||K|| <= sqrt(ab); when ab <= tol^2 the corner
    must vanish (||K|| <= tol).  Free-corner shape: A PSD, d >= 0,
    c = conj(b), and d A >= |b|^2 I; when d <= tol this degenerates to
    |b| <= tol with A PSD.  Self-adjointness is required within tol; NaN or
    infinite entries of A raise NonFiniteError unless the scalars already
    refuse every row.
    """
    if s.kind not in CORNER_KINDS:
        a, b, K, defect = _corner_terms(s, fields)
        ar, br = a.real, b.real
        refused = (abs(a.imag) > tol) | (abs(b.imag) > tol) | (defect > tol) | (ar < -tol) | (br < -tol)
        if _every(refused):  # False on every row, with no SVD
            return _where(refused, False, True)
        # negative parts count as 0 (a NaN stays NaN)
        ab = _where(ar < 0.0, 0.0, ar) * _where(br < 0.0, 0.0, br)
        bound = _where(ab <= tol * tol, 0.0, np.sqrt(ab)) + tol
        (norm,) = spectrum or (operator_norm(K),)
        return _where(refused, False, norm <= bound)
    A, b, d = fields["A"], fields["b"], fields["d"]
    dr = d.real
    refused = (_modulus(fields["c"] - b.conjugate()) > tol) | (abs(d.imag) > tol) | (dr < -tol)
    if _every(refused):  # False on every row, with no eigensolve
        return _where(refused, False, True)
    defect, lam_min = spectrum or _corner_spectrum(A)
    holds = _where(dr <= tol, _modulus(b) <= tol, dr * lam_min >= _modulus(b) ** 2 - tol)
    return _where(refused | (defect > tol) | (lam_min < -tol), False, holds)


def _margin_fields(s: SystemId, fields, spectrum: tuple | None = None):
    """Distance of field values from the decision boundaries of the
    criterion: a float per row of a stack, or one for one element's plain
    numbers, with at most one batched SVD or eigensolve per stack, and none
    when ``spectrum`` (``_spectrum_fields`` of the same rows) is given.

    Hermiticity defects contribute only when above EXACT_TOL (an exactly
    self-adjoint element is not near the self-adjointness boundary).
    """
    if s.kind not in CORNER_KINDS:
        a, b, K, defect = _corner_terms(s, fields)
        ar, br = a.real, b.real
        # the corner's boundary counts where both scalars are positive
        both = (ar > 0) & (br > 0)
        gap = math.inf
        if _any(both):
            root = np.sqrt(_where(both, ar * br, 0.0))
            (norm,) = spectrum or (operator_norm(K),)
            gap = _where(both, abs(root - norm), math.inf)
        parts = (abs(ar), abs(br), gap)
        defects = (abs(a.imag), abs(b.imag), defect)
    else:
        A, b, d = fields["A"], fields["b"], fields["d"]
        dr = d.real
        defect, lam_min = spectrum or _corner_spectrum(A)
        defects = (_modulus(fields["c"] - b.conjugate()), defect, abs(d.imag))
        gap = _where((dr > 0) & (lam_min > 0), abs(dr * lam_min - _modulus(b) ** 2), math.inf)
        parts = (abs(lam_min), abs(dr), gap)
    values = parts + tuple(_where(v > EXACT_TOL, v, math.inf) for v in defects)
    if isinstance(values[0], np.ndarray):
        return np.minimum.reduce(np.broadcast_arrays(*values))
    return min(values)


def is_positive_by_criterion(e: SystemElement, tol: float = PSD_TOL) -> bool:
    """Closed-form positivity test for every system: the one-element case of
    ``_criterion_fields``, which states the criterion."""
    return bool(_criterion_fields(e.system, vars(e), tol))


def boundary_margin(e: SystemElement) -> float:
    """Distance of an element from the decision boundaries of the criterion:
    the one-element case of ``_margin_fields``.

    Used to filter random draws before comparing the criterion against the
    eigenvalue oracle: both can legitimately flip within a tolerance of the
    boundary.
    """
    return float(_margin_fields(e.system, vars(e)))
