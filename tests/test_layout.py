"""Property tests for the block layout that every subspace routine derives from."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opsyscheck import Field, SystemId, SystemKind, contains, embed, extract, identity_element
from opsyscheck.systems import project

# Real dimensions of the subspaces, the domains of 4 + 4n^2 (phi), 2 + n^2
# (upsilon), 4 + 2n^2 (upsilon-prime) and 6 + 2n^2 (gamma); no map acts on
# free-corner-real, of dimension 3 + n^2.
CLOSED_FORM_DIM = {
    SystemKind.SCALAR_DIAGONAL: lambda n: 4 + 4 * n * n,
    SystemKind.TRANSPOSE_PAIRED: lambda n: 2 + n * n,
    SystemKind.TRANSPOSE_PAIRED_COMPLEX: lambda n: 4 + 2 * n * n,
    SystemKind.FREE_CORNER: lambda n: 6 + 2 * n * n,
    SystemKind.FREE_CORNER_REAL: lambda n: 3 + n * n,
}

CASES = [(kind, n) for kind in SystemKind for n in range(1, 7)]

# every finite double, signed zeros and subnormals included
FINITE = st.floats(allow_nan=False, allow_infinity=False)

# finite doubles near the largest one must not overflow in embedding,
# membership or projection: the test configuration turns any RuntimeWarning
# into an error
PROPERTY = settings(max_examples=25, deadline=None)


def bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def assert_within_ulps(got: np.ndarray, want: np.ndarray, ulps: int) -> None:
    """Each part of each entry of got lies within ulps units in the last
    place of the same part of want, the unit taken just below |want| (the
    spacing at the largest double itself would overflow)."""
    for part in (np.real, np.imag):
        unit = np.spacing(np.nextafter(np.abs(part(want)), 0.0))
        assert np.all(np.abs(part(got) - part(want)) <= ulps * unit)


def draw_complex(data, shape) -> np.ndarray:
    """A complex array whose parts are any finite doubles."""
    z = np.empty(shape, dtype=np.complex128)
    z.real, z.imag = data.draw(arrays(np.float64, (2,) + tuple(shape), elements=FINITE))
    return z


def draw_element(data, s: SystemId):
    """An element of s with every part of every field any finite double."""
    template = identity_element(s)
    fields = {}
    for f in dataclasses.fields(template)[1:]:
        shape = np.shape(getattr(template, f.name))
        if s.field is Field.COMPLEX:
            z = draw_complex(data, shape)
        else:
            z = data.draw(arrays(np.float64, shape, elements=FINITE))
        fields[f.name] = z if shape else z.item()
    return type(template)(s, **fields)


def as_real_vectors(M: np.ndarray) -> np.ndarray:
    """Each matrix of a stack as the real vector of its real and imaginary
    parts, in which Re tr(A* B) is the dot product."""
    M = np.asarray(M, dtype=np.complex128)
    return np.concatenate([M.real.reshape(len(M), -1), M.imag.reshape(len(M), -1)], axis=1)


@pytest.mark.parametrize("kind, n", CASES)
def test_projection_rank_matches_closed_form(kind, n):
    # the images of the ambient real basis, E_jk and i E_jk, span the subspace
    N = 2 * n
    units = np.eye(N * N).reshape(N * N, N, N)
    images = project(SystemId(kind, n), np.concatenate([units, 1j * units]))
    assert np.linalg.matrix_rank(as_real_vectors(images)) == CLOSED_FORM_DIM[kind](n)


@pytest.mark.parametrize("kind, n", CASES)
@PROPERTY
@given(data=st.data())
def test_projection_is_contained_and_idempotent(kind, n, data):
    s = SystemId(kind, n)
    P = project(s, draw_complex(data, (2 * n, 2 * n)))
    assert P.dtype == s.field.dtype
    assert np.isfinite(P).all()
    assert contains(s, P)
    # a scalar field's mean of n equal values is off by at most n + 1 ulps
    assert_within_ulps(project(s, P), P, n + 1)


@pytest.mark.parametrize("kind, n", CASES)
@PROPERTY
@given(data=st.data())
def test_projection_fixes_every_embedding(kind, n, data):
    M = embed(draw_element(data, SystemId(kind, n)))
    assert_within_ulps(project(SystemId(kind, n), M), M, n + 1)


@pytest.mark.parametrize("kind, n", CASES)
@PROPERTY
@given(data=st.data())
def test_extract_embed_is_bitwise_exact(kind, n, data):
    s = SystemId(kind, n)
    e = draw_element(data, s)
    e2 = extract(s, embed(e))
    for f in dataclasses.fields(e)[1:]:
        assert bits(np.asarray(getattr(e2, f.name))) == bits(np.asarray(getattr(e, f.name)))


def _embedded_unit_basis(s: SystemId) -> np.ndarray:
    """The embeddings of the elements with one unit (1, or i over the complex
    field) in one scalar field or one block entry, as real vectors."""
    template = identity_element(s)
    zero = {f.name: np.zeros_like(getattr(template, f.name)) for f in dataclasses.fields(template)[1:]}
    units = (1.0, 1j) if s.field is Field.COMPLEX else (1.0,)
    basis = []
    for name, value in zero.items():
        for index in np.ndindex(np.shape(value)):
            for unit in units:
                fields = {k: v.copy() for k, v in zero.items()}
                fields[name][index] = unit
                basis.append(embed(type(template)(s, **fields)))
    return as_real_vectors(np.array(basis))


@pytest.mark.parametrize("kind", list(SystemKind))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 17])
def test_projection_matches_dense_least_squares(kind, n):
    s = SystemId(kind, n)
    rng = np.random.default_rng(n)
    M = rng.normal(size=(3, 2 * n, 2 * n)) + 1j * rng.normal(size=(3, 2 * n, 2 * n))
    B = _embedded_unit_basis(s).T
    assert B.shape[1] == CLOSED_FORM_DIM[kind](n)
    want = B @ (np.linalg.pinv(B) @ as_real_vectors(M).T)
    got = as_real_vectors(project(s, M)).T
    assert np.abs(got - want).max() <= 1e-12
