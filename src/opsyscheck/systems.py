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
it, the basis through the embedding.  All five shapes also carry a
closed-form positivity criterion with a matching eigenvalue oracle.

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
    as_squares,
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
    """Largest entry of each matrix of a stack (a scalar for one matrix)."""
    return X.max(axis=(-2, -1))


def contains(s: SystemId, M) -> bool | np.ndarray:
    """Whether a matrix lies in the subspace, entrywise within MEMBERSHIP_TOL.

    A stack of matrices gets one verdict per matrix, as a bool array over
    the leading axes.
    """
    A = as_squares(M)
    lead = A.shape[:-2]
    if A.shape[-1] != 2 * s.n:
        return np.zeros(lead, dtype=bool) if lead else False
    ok = np.True_
    if s.field is Field.REAL and A.dtype.kind == "c":
        ok = ~(_largest(np.abs(A.imag)) > MEMBERSHIP_TOL)
        A = A.real
    n = s.n
    diagonal = np.arange(n)
    for _, block, role in _LAYOUT[_ELEMENT_CLASS[s.kind]]:
        X = _block(A, n, block)
        if role is Role.SCALAR:
            X = X.copy()
            X[..., diagonal, diagonal] -= X[..., :1, 0]
            ok = ok & (_largest(np.abs(X)) <= MEMBERSHIP_TOL)
        elif role is Role.TIED:
            mirrored = _block(A, n, block[::-1])
            ok = ok & (_largest(np.abs(mirrored - X.swapaxes(-1, -2))) <= MEMBERSHIP_TOL)
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


def parameter_basis(s: SystemId) -> SparseBasis:
    """The real basis the norm search moves the subspace's elements along.

    Scalar fields come first, in dataclass order, then block fields, each as
    its real part then (over the complex field) its imaginary part: one
    parameter per scalar, one per block entry, row-major.  The basis is read
    off the embedding: the parameters are numbered from 1, each unit (1,
    then i) embeds the numbers of its parameters as field values, and
    basis matrix k holds that unit wherever number k + 1 lands.
    """
    n = s.n
    units = (1.0, 1j) if s.field is Field.COMPLEX else (1.0,)
    numbers = [{} for _ in units]
    dim = 0
    slots = sorted(_LAYOUT[_ELEMENT_CLASS[s.kind]], key=lambda slot: slot.role is not Role.SCALAR)
    for name, _, role in slots:
        size = 1 if role is Role.SCALAR else n * n
        for fields in numbers:
            value = np.arange(dim + 1.0, dim + size + 1.0)
            fields[name] = value[0] if role is Role.SCALAR else value.reshape(n, n)
            dim += size
    par, pos, val = [], [], []
    for unit, fields in zip(units, numbers):
        M = _embed_fields(s, fields, ()).real.ravel()
        p = np.flatnonzero(M)
        par.append(M[p].astype(np.intp) - 1)
        pos.append(p)
        val.append(np.full(p.size, unit, dtype=s.field.dtype))
    par, pos, val = (np.concatenate(x) for x in (par, pos, val))
    order = np.lexsort((pos, par))
    return SparseBasis(dim, 2 * n, par[order], pos[order], val[order])


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


def _element_at(s: SystemId, fields: dict[str, np.ndarray], j: int) -> SystemElement:
    """The element made of row j of a stack of field values."""
    return _ELEMENT_CLASS[s.kind](s, **{name: value[j] for name, value in fields.items()})


def _draw_element(s: SystemId, rng: np.random.Generator, scale: float) -> SystemElement:
    """One seeded generic element: the k = 1 case of ``_draw_fields``."""
    return _element_at(s, _draw_fields(s, rng, scale, 1), 0)


def _draw_positive(s: SystemId, rng: np.random.Generator) -> SystemElement:
    """One seeded PSD element, verified before return."""
    return _draw_positive_embedded(s, rng)[0]


def _draw_positive_embedded(s: SystemId, rng: np.random.Generator) -> tuple[SystemElement, np.ndarray]:
    """One seeded PSD element and the matrix it embeds to, verified on that
    matrix before return: the k = 1 case of ``_draw_positive_fields``."""
    fields, M = _draw_positive_fields(s, rng, 1)
    return _element_at(s, fields, 0), M[0]


def _draw_positive_fields(
    s: SystemId, rng: np.random.Generator, k: int
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Fields of k seeded PSD elements and the (k, 2n, 2n) stack they embed
    to, verified on that stack before return.

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
        norms = np.linalg.svd(G, compute_uv=False)[:, 0]
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
    return fields, M


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
