"""Property tests for the block layout that every subspace routine derives from."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opsyscheck import Field, SystemId, SystemKind, contains, embed, extract, identity_element
from opsyscheck.linalg import SparseBasis
from opsyscheck.systems import _ELEMENT_CLASS, _LAYOUT, Role, parameter_basis

# Parameter counts of the norm search before the layout table existed:
# 4 + 4n^2 (phi), 2 + n^2 (upsilon), 4 + 2n^2 (upsilon-prime) and
# 6 + 2n^2 (gamma).  No map acts on free-corner-real; its count is 3 + n^2.
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

# finite doubles near the largest one must not overflow in embedding or
# membership: the test configuration turns any RuntimeWarning into an error
PROPERTY = settings(max_examples=25, deadline=None)


def bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def draw_params(data, basis) -> np.ndarray:
    return data.draw(arrays(np.float64, basis.dim, elements=FINITE))


@pytest.mark.parametrize("kind, n", CASES)
def test_basis_dimension_matches_closed_form(kind, n):
    assert parameter_basis(SystemId(kind, n)).dim == CLOSED_FORM_DIM[kind](n)


@pytest.mark.parametrize("kind, n", CASES)
@PROPERTY
@given(data=st.data())
def test_params_matrix_params_is_bitwise_exact(kind, n, data):
    s = SystemId(kind, n)
    basis = parameter_basis(s)
    x = draw_params(data, basis)
    M = basis.matrix(x)
    assert M.dtype == s.field.dtype
    assert bits(basis.params(M)) == bits(x)


@pytest.mark.parametrize("kind, n", CASES)
@PROPERTY
@given(data=st.data())
def test_every_basis_combination_is_contained(kind, n, data):
    s = SystemId(kind, n)
    basis = parameter_basis(s)
    x = draw_params(data, basis)
    M = basis.combine(x[None])[0]
    assert contains(s, M)
    # the search's sum and the witness read-back agree up to the sign of zeros
    assert np.array_equal(M, basis.matrix(x))


@pytest.mark.parametrize("kind, n", CASES)
@PROPERTY
@given(data=st.data())
def test_extract_embed_is_bitwise_exact(kind, n, data):
    s = SystemId(kind, n)
    template = identity_element(s)
    names = [f.name for f in dataclasses.fields(template)][1:]

    def part(shape):
        return data.draw(arrays(np.float64, shape, elements=FINITE))

    fields = {}
    for name in names:
        shape = np.shape(getattr(template, name))
        if s.field is Field.COMPLEX:
            z = np.empty(shape, dtype=np.complex128)
            z.real, z.imag = part(shape), part(shape)
        else:
            z = part(shape)
        fields[name] = z if shape else z.item()
    e = type(template)(s, **fields)
    e2 = extract(s, embed(e))
    for name in names:
        assert bits(np.asarray(getattr(e2, name))) == bits(np.asarray(getattr(e, name)))


def _index_arithmetic_basis(s: SystemId) -> SparseBasis:
    """Reference builder of the parameter basis by index arithmetic:
    diagonal, row-major and mirrored entries of each slot's block."""
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
                k = np.repeat(k, 2)
                p = np.stack([p, c * n * N + r * n + mirrored], axis=1).ravel()
            par.append(k)
            pos.append(p)
            val.append(np.full(k.size, unit, dtype=s.field.dtype))
    return SparseBasis(dim, N, np.concatenate(par), np.concatenate(pos), np.concatenate(val))


@pytest.mark.parametrize("kind", list(SystemKind))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 17])
def test_basis_read_off_the_embedding_matches_index_arithmetic(kind, n):
    s = SystemId(kind, n)
    got, want = parameter_basis(s), _index_arithmetic_basis(s)
    assert (got.dim, got.order) == (want.dim, want.order)
    for name in ("par", "pos", "val"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape and bits(a) == bits(b), name
