"""Unit tests for the extension certificates and their verification helpers."""

import dataclasses

import numpy as np
import pytest

from opsyscheck import (
    Field,
    MapId,
    MapKind,
    Outcome,
    Step,
    Verdict,
    block_transpose,
    certify_corner_transpose,
    certify_offdiag_swap,
    certify_quarter_transpose,
    corner_witness,
    falsify_extension,
    hermitian_eigenvalues,
    lower_right_forcing_check,
    schur_implication,
    squeeze_bounds,
    verify_verdict_invariants,
)


def test_schur_implication_agrees_both_ways():
    rng = np.random.default_rng(0)
    for _ in range(30):
        G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        P = G @ G.conj().T
        X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rep = schur_implication(P, X)
        assert rep.agrees
        # the equivalence really separates: shrink X until the complement flips
        small = schur_implication(P, 1e-3 * X)
        assert small.block_psd and small.complement_psd


def test_schur_implication_detects_failure():
    P = np.eye(2)
    X = 2.0 * np.eye(2)
    rep = schur_implication(P, X)
    assert not rep.block_psd
    assert not rep.complement_psd
    assert rep.agrees


@pytest.mark.parametrize("n", range(1, 21))
def test_quarter_transpose_outcomes(n):
    v = certify_quarter_transpose(n)
    if n >= 17:
        assert v.outcome is Outcome.CONTRADICTION
        assert abs(v.margin - (n / 16.0 - 1.0)) < 1e-12
        assert len(v.witnesses) == 2
    else:
        assert v.outcome is Outcome.INCONCLUSIVE
        assert v.margin is None
        # the inconclusive narrative still records the amplified witness norm
        assert "amplified witness norm" in v.narrative[-1].description
    assert v.threshold_used == 16
    assert verify_verdict_invariants(v) == []


def test_quarter_transpose_witness_matrices():
    v = certify_quarter_transpose(17)
    names = [name for name, _ in v.witnesses]
    assert names == ["unital-cap", "forced-lower-bound"]
    cap, forced = (w for _, w in v.witnesses)
    assert np.array_equal(cap, np.eye(17))
    gap = hermitian_eigenvalues(cap - forced)[0]
    assert gap < -1e-6  # the forced bound really exceeds the cap


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_offdiag_swap_outcomes(n):
    v = certify_offdiag_swap(n)
    if n == 1:
        assert v.outcome is Outcome.EXTENSION_EXHIBITED
        assert v.witnesses[0][0] == "fixed-point"
    else:
        assert v.outcome is Outcome.CONTRADICTION
        assert abs(v.margin - (n - 1.0)) < 1e-12
    assert verify_verdict_invariants(v) == []


@pytest.mark.parametrize("n", range(2, 9))
def test_corner_transpose_contradictions(n):
    v = certify_corner_transpose(n)
    assert v.outcome is Outcome.CONTRADICTION
    assert v.margin is not None and v.margin >= 1.0 - 1e-12
    for step in v.narrative:
        assert step.ok, step.description
        assert step.residual <= 1e-9
    # any positive extension would have to send the PSD witness to this image
    name, final = v.witnesses[-1]
    assert name == "forced-image"
    assert abs(hermitian_eigenvalues(final)[0] + 1.0) < 1e-10
    assert verify_verdict_invariants(v) == []


def test_corner_transpose_small_case():
    v = certify_corner_transpose(1)
    assert v.outcome is Outcome.EXTENSION_EXHIBITED
    assert verify_verdict_invariants(v) == []


def test_corner_transpose_witness_input_is_psd():
    v = certify_corner_transpose(3)
    name, W = v.witnesses[0]
    assert name == "positive-input"
    assert hermitian_eigenvalues(W)[0] >= -1e-12
    assert np.abs(block_transpose(W) - v.witnesses[-1][1]).max() < 1e-12


def test_squeeze_bounds_pin_the_corner():
    """Both squeeze bounds collapse onto D^t for any PSD contraction D."""
    rng = np.random.default_rng(1)
    for _ in range(10):
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        D = Q @ np.diag(rng.uniform(0.0, 1.0, 4)) @ Q.conj().T
        lo, hi = squeeze_bounds(D)
        assert np.abs(lo - D.T).max() < 1e-9
        assert np.abs(hi - D.T).max() < 1e-9


def test_squeeze_bounds_degenerate_projector():
    D = np.diag([1.0, 0.0, 1.0])
    lo, hi = squeeze_bounds(D)
    assert np.abs(lo - D).max() < 1e-12
    assert np.abs(hi - D).max() < 1e-12


def test_lower_right_forcing_check():
    for n in (2, 4):
        assert lower_right_forcing_check(n, trials=25, rng_seed=0) <= 1e-9


def test_falsify_extension_finds_transpose_violation():
    viol = falsify_extension(block_transpose, n=2, trials=10, rng_seed=0)
    assert viol is not None
    assert viol.trial == 0
    assert abs(viol.min_output_eigenvalue + 1.0) < 1e-10
    assert np.array_equal(viol.input, corner_witness(2))


def test_falsify_extension_accepts_identity():
    assert falsify_extension(lambda M: M, n=2, trials=60, rng_seed=0) is None
    assert falsify_extension(lambda M: M, n=2, trials=60, rng_seed=0, field=Field.REAL) is None


def test_falsify_extension_flags_non_hermitian_output():
    shift = np.zeros((4, 4))
    shift[0, 1] = 1.0
    viol = falsify_extension(lambda M: M + np.trace(M) * shift, n=2, trials=10, rng_seed=0)
    assert viol is not None
    assert viol.hermiticity_defect > 1e-7


def test_falsify_extension_calls_candidate_once_per_probe():
    calls = []

    def identity(M):
        calls.append(M.shape)
        return M

    assert falsify_extension(identity, n=16, trials=3, rng_seed=0) is None
    assert calls == [(32, 32)] * 3


def test_falsify_extension_rejects_bad_n():
    with pytest.raises(ValueError):
        falsify_extension(lambda M: M, n=0)


def test_verdict_invariants_flag_tampering():
    clean = certify_offdiag_swap(3)
    assert verify_verdict_invariants(clean) == []
    no_margin = dataclasses.replace(clean, margin=None)
    assert any("margin" in p for p in verify_verdict_invariants(no_margin))
    no_witness = dataclasses.replace(clean, witnesses=clean.witnesses[:1])
    assert any("witness" in p for p in verify_verdict_invariants(no_witness))
    bad_step = dataclasses.replace(
        clean, narrative=clean.narrative + (Step("made-up residual", 1.0, 1e-12),)
    )
    assert any("exceeds tolerance" in p for p in verify_verdict_invariants(bad_step))


def test_verdicts_are_deterministic():
    v1 = certify_corner_transpose(4, rng_seed=3)
    v2 = certify_corner_transpose(4, rng_seed=3)
    assert [s.residual for s in v1.narrative] == [s.residual for s in v2.narrative]
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(v1.witnesses, v2.witnesses))


def test_verdict_outcome_wire_values():
    assert Outcome.CONTRADICTION.value == "contradiction"
    assert Outcome.INCONCLUSIVE.value == "inconclusive"
    assert Outcome.EXTENSION_EXHIBITED.value == "extension-exhibited"
    assert isinstance(certify_quarter_transpose(2), Verdict)
