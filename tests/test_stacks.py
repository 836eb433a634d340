"""A stack of matrices is checked as its rows are: is_psd, contains and
apply on a stack equal the single-matrix calls row by row, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsyscheck import (
    DomainViolationError,
    Field,
    MapId,
    MapKind,
    NonFiniteError,
    SystemId,
    SystemKind,
    apply,
    contains,
    hermiticity_defect,
    is_psd,
)
from opsyscheck.systems import (
    _draw_fields,
    _draw_full,
    _draw_positive_fields,
    _draw_psd_rank_one,
    _draw_psd_wishart,
    _embed_fields,
)

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)
SIZES = range(1, 7)
# the map defined on each subspace; the free-corner-real subspace has none
DOMAIN_MAP = {k.domain_kind: k for k in MapKind if k.domain_kind is not None}
FULL_MAP = {Field.COMPLEX: MapKind.BLOCK_TRANSPOSE, Field.REAL: MapKind.CORNER_TRANSPOSE_FULL}


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def _subspace_stack(s: SystemId, rng: np.random.Generator, k: int) -> np.ndarray:
    """k generic members followed by k positive members of the subspace."""
    generic = _embed_fields(s, _draw_fields(s, rng, 1.0, k), (k,))
    return np.concatenate([generic, _draw_positive_fields(s, rng, k)[1]])


def _full_stack(n: int, field: Field, rng: np.random.Generator, k: int) -> np.ndarray:
    """k Gaussian, k rank-one and k Wishart matrices of the full algebra."""
    draws = (_draw_full, _draw_psd_rank_one, _draw_psd_wishart)
    return np.concatenate([draw(n, field, rng, (k,)) for draw in draws])


def _non_member(s: SystemId, M: np.ndarray) -> np.ndarray | None:
    """M with one entry moved off the subspace; None where every matrix of
    the field is a member (the complex subspaces at n = 1)."""
    if s.field is Field.REAL:
        X = M.astype(np.complex128)
        X[0, 0] += 1e-3j
        return X
    for i, j in np.ndindex(M.shape):
        X = M.copy()
        X[i, j] += 1e-3
        if not contains(s, X):
            return X
    return None


def _assert_is_psd_rows(S: np.ndarray) -> None:
    stacked = is_psd(S)
    assert stacked.is_psd.shape == stacked.min_eigenvalue.shape == (len(S),)
    for j, M in enumerate(S):
        single = is_psd(M)
        assert type(single.is_psd) is bool and type(single.min_eigenvalue) is float
        assert stacked.is_psd[j] == single.is_psd
        assert _bits(stacked.min_eigenvalue[j]) == _bits(np.float64(single.min_eigenvalue))
        assert _bits(stacked.hermiticity_defect[j]) == _bits(np.float64(single.hermiticity_defect))


def _assert_apply_rows(m: MapId, S: np.ndarray) -> None:
    out = apply(m, S)
    assert out.shape == S.shape
    for j, M in enumerate(S):
        assert _bits(out[j]) == _bits(apply(m, M))


def _assert_non_finite_row_refused(S: np.ndarray) -> None:
    bad = S.copy()
    bad[len(S) // 2, 0, 0] = np.nan
    with pytest.raises(NonFiniteError):
        is_psd(bad)
    with pytest.raises(NonFiniteError):
        hermiticity_defect(bad)


@pytest.mark.parametrize("kind", list(SystemKind))
@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, k=st.integers(min_value=1, max_value=4))
def test_subspace_stack_is_checked_row_by_row(kind, n, seed, k):
    s = SystemId(kind, n)
    rng = np.random.default_rng(seed)
    S = _subspace_stack(s, rng, k)
    outsider = _non_member(s, S[0])
    if outsider is not None:
        S = np.concatenate([S.astype(outsider.dtype), outsider[None]])

    _assert_is_psd_rows(S)
    inside = contains(s, S)
    assert inside.shape == (len(S),) and inside.dtype == bool
    assert inside.tolist() == [contains(s, M) for M in S]
    assert inside.tolist() == [True] * (2 * k) + [False] * (outsider is not None)
    assert contains(SystemId(kind, n + 1), S).tolist() == [False] * len(S)

    if kind in DOMAIN_MAP:
        m = MapId(DOMAIN_MAP[kind], n)
        _assert_apply_rows(m, S[: 2 * k])
        if outsider is not None:
            with pytest.raises(DomainViolationError):
                apply(m, S)
    _assert_non_finite_row_refused(S)


@pytest.mark.parametrize("field", list(Field))
@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, k=st.integers(min_value=1, max_value=4))
def test_full_algebra_stack_is_checked_row_by_row(field, n, seed, k):
    S = _full_stack(n, field, np.random.default_rng(seed), k)
    assert S.dtype == field.dtype
    _assert_is_psd_rows(S)
    m = MapId(FULL_MAP[field], n)
    _assert_apply_rows(m, S)
    if field is Field.REAL:
        with pytest.raises(DomainViolationError):
            apply(m, np.concatenate([S, 1e-3j * S[:1]]))
    _assert_non_finite_row_refused(S)
