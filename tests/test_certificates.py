"""Unit tests for the extension certificates and their verification helpers."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from opsyscheck import (
    Outcome,
    Step,
    Verdict,
    block_transpose,
    certify_corner_transpose,
    certify_offdiag_swap,
    certify_quarter_transpose,
    hermitian_eigenvalues,
    lower_right_forcing_check,
    schur_implication,
    squeeze_bounds,
    verify_verdict_invariants,
)
from opsyscheck import certificates
from opsyscheck.linalg import PSD_TOL


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


def test_schur_implication_keeps_the_field(monkeypatch):
    """Real P and X are eigensolved over the reals; either one complex
    promotes both sides of the step to complex."""
    eigvalsh = np.linalg.eigvalsh
    fields = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda X: fields.append(X.dtype) or eigvalsh(X))
    P = np.eye(2)
    X = np.array([[0.0, 0.25], [0.0, 0.0]])
    for P_in, X_in, field in (
        (P, X, np.float64),
        (np.eye(2, dtype=int), X, np.float64),
        (P, X.astype(np.complex128), np.complex128),
        (P.astype(np.complex128), X, np.complex128),
    ):
        fields.clear()
        rep = schur_implication(P_in, X_in)
        assert fields == [field, field]
        assert rep.block_psd and rep.complement_psd


def _complex_schur(P, X, tol=PSD_TOL):
    """The Schur step with both sides forced to complex128."""
    return schur_implication(np.asarray(P, dtype=np.complex128), np.asarray(X, dtype=np.complex128), tol)


@pytest.mark.parametrize("n", [1, 2, 4, 5, 16, 17])
def test_real_schur_steps_match_a_complex_reference(n, monkeypatch):
    verdicts = [fn(n) for fn in (certify_quarter_transpose, certify_offdiag_swap)]
    monkeypatch.setattr(certificates, "schur_implication", _complex_schur)
    for v, ref in zip(verdicts, (certify_quarter_transpose(n), certify_offdiag_swap(n))):
        assert (v.outcome, v.threshold_used, v.margin) == (ref.outcome, ref.threshold_used, ref.margin)
        assert [s.residual for s in v.narrative] == [s.residual for s in ref.narrative]


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
        assert lower_right_forcing_check(n) <= 1e-9


def test_squeeze_bounds_on_a_stack_match_single_calls():
    rng = np.random.default_rng(2)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4)))
    D = Q @ (rng.uniform(0.0, 1.0, (6, 4, 1)) * Q.conj().swapaxes(-1, -2))
    D[0] = np.diag([1.0, 0.0, 1.0, 0.0])
    lo, hi = squeeze_bounds(D)
    for k in range(len(D)):
        lo_k, hi_k = squeeze_bounds(D[k])
        assert np.array_equal(lo[k], lo_k)
        assert np.array_equal(hi[k], hi_k)


@pytest.mark.parametrize("n", range(2, 9))
def test_corner_transpose_spanning_set_residuals(n):
    """Steps 2 and 3 rebuild exact dyadic entries, and the squeeze on the
    rank-one projections is pinned to double precision."""
    steps = certify_corner_transpose(n).narrative
    assert steps[1].residual == 0.0
    assert steps[2].residual == 0.0
    assert steps[3].residual <= 1e-15


def test_lower_right_forcing_check_memory_is_bounded():
    # the n^2 feasibility blocks at n = 32 would hold 64 MiB as one stack
    n = 32
    tracemalloc.start()
    try:
        worst = lower_right_forcing_check(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert worst <= 1e-15
    one_stack = n * n * (2 * n) ** 2 * 16
    assert peak < one_stack / 4, f"peak {peak / 2**20:.1f} MiB"


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
    v1 = certify_corner_transpose(4)
    v2 = certify_corner_transpose(4)
    assert [s.residual for s in v1.narrative] == [s.residual for s in v2.narrative]
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(v1.witnesses, v2.witnesses))


def test_verdict_outcome_wire_values():
    assert Outcome.CONTRADICTION.value == "contradiction"
    assert Outcome.INCONCLUSIVE.value == "inconclusive"
    assert Outcome.EXTENSION_EXHIBITED.value == "extension-exhibited"
    assert isinstance(certify_quarter_transpose(2), Verdict)
