"""Mutation checks: each mutant of a map's rule, of the closed-form
positivity criterion, of the scaling certificates' summed bound or
certificate parts, of the squeeze's spanning set, of the corner witness, of
the block transpose that the corner-transpose chain forces or of the norm
search's reported bound makes a claim or a certificate step of its own
family fail.  The three rule mutants that pass every claim fail the
block-by-block image of ``test_maps.golden_case`` instead.  The structural
mutants (affine, anti-linear, half-transposed and rounding rules) fail both
the exact structural check and its Gaussian reference,
``test_maps._gaussian_structural_residuals``.

A mutant is installed with ``monkeypatch`` for one test only; nothing in the
package switches it on.  Each configuration also runs unmutated, where the
same claims pass, so every failure is the mutant's doing.
"""

import dataclasses
import json

import numpy as np
import pytest

from opsyscheck import certificates, cli, maps, suite, systems
from opsyscheck.linalg import EXACT_TOL, PSD_TOL
from opsyscheck.maps import MapId, MapKind
from opsyscheck.suite import RunConfig
from test_certificates import (
    _eigen_certificate_residual,
    _eigen_witness_residual,
    _phase_spanning_residual,
    _pinv_squeeze_residual,
    _rebuild_spanning_residual,
    _sign_flip_spanning_residual,
)
from test_maps import _gaussian_structural_residuals, golden_case


def statuses(runner, **config) -> dict[str, str]:
    return {c.id: c.status for c in runner(RunConfig(**config))}


def certify(target: str, n: int) -> dict:
    return dict(runner=suite.certify_claims, command="certify", target=target, n_values=(n,))


# (mutated map, its mutated rule, the run, the claim the mutant fails)
MAP_MUTANTS = {
    "phi-third": (
        MapKind.QUARTER_TRANSPOSE,
        {(0, 1): 1 / 3, (1, 0): 1 / 3},
        certify("phi", 16),
        "certify.phi.n=16.outcome",
    ),
    "phi-fifth": (
        MapKind.QUARTER_TRANSPOSE,
        {(0, 1): 1 / 5, (1, 0): 1 / 5},
        certify("phi", 17),
        "certify.phi.n=17.outcome",
    ),
    # the witness norm reads its factor through the map's rule, so the
    # unscaled lower-left block fails the claim instead of raising
    "phi-unscaled-lower-left": (
        MapKind.QUARTER_TRANSPOSE,
        {(0, 1): 0.25},
        certify("phi", 17),
        "certify.phi.n=17.outcome",
    ),
    # vanishing forced corners give no obstruction at any size: the verdict
    # is Inconclusive, with no threshold, instead of a division by zero
    "phi-zero-lower-left": (
        MapKind.QUARTER_TRANSPOSE,
        {(0, 1): 0.25, (1, 0): 0.0},
        certify("phi", 17),
        "certify.phi.n=17.outcome",
    ),
    "upsilon-identity": (MapKind.OFFDIAG_SWAP, {}, certify("upsilon", 2), "certify.upsilon.n=2.outcome"),
    "gamma-identity": (MapKind.CORNER_TRANSPOSE, {}, certify("gamma", 2), "certify.gamma.n=2.narrative"),
    "gamma-identity-ks": (
        MapKind.CORNER_TRANSPOSE,
        {},
        dict(runner=suite.ks_claims, command="verify", target="ks", n_values=(2,), trials=100),
        "ks.psi-transpose.free-corner.n=2",
    ),
    # a forced image that is not self-adjoint fails by its hermiticity defect
    "psi-transpose-untransposed-lower-left": (
        MapKind.BLOCK_TRANSPOSE,
        {(0, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0},
        certify("gamma", 2),
        "certify.gamma.n=2.final-witness",
    ),
    "psi-real-ext": (
        MapKind.CORNER_TRANSPOSE_FULL,
        {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0},
        dict(runner=suite.maps_claims, command="verify", target="maps", n_values=(2,), trials=100, field="real"),
        "maps.psi-real-ext.n=2.positive-inputs",
    ),
    "upsilon-prime-identity": (
        MapKind.OFFDIAG_SWAP_COMPLEX,
        {},
        dict(runner=suite.norm_claims, command="norm", target="upsilon-prime", n_values=(2,), restarts=10),
        "norm.upsilon-prime.n=2.lower-bound",
    ),
}


@pytest.mark.parametrize("mutated", [False, True], ids=["original", "mutant"])
@pytest.mark.parametrize("name", list(MAP_MUTANTS))
def test_map_rule_mutant_fails_its_family(name, mutated, monkeypatch):
    kind, rule, run, claim_id = MAP_MUTANTS[name]
    if mutated:
        monkeypatch.setitem(maps._RULES, kind, rule)
    assert statuses(**run)[claim_id] == ("fail" if mutated else "pass")


def test_vanishing_forced_bound_exits_one_with_a_report(monkeypatch, capsys):
    monkeypatch.setitem(maps._RULES, MapKind.QUARTER_TRANSPOSE, {(0, 1): 0.25, (1, 0): 0.0})
    assert cli.main(["certify", "--which", "phi", "--n", "17", "--output", "json"]) == 1
    out, err = capsys.readouterr()
    claims = {c["id"]: c["status"] for c in json.loads(out)["claims"]}
    assert claims["certify.phi.n=17.outcome"] == "fail"
    assert err == ""


# rule mutants that pass every claim of the suite at n = 1, 2 and 17: no
# claim applies them to an input whose block they get wrong
CLAIM_SURVIVORS = {
    "psi-real-ext-identity": (MapKind.CORNER_TRANSPOSE_FULL, {}),
    "psi-real-ext-both-diagonal-blocks": (MapKind.CORNER_TRANSPOSE_FULL, {(0, 0): 1.0, (1, 1): 1.0}),
    "psi-transpose-untransposed-lower-right": (
        MapKind.BLOCK_TRANSPOSE,
        {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0},
    ),
}


@pytest.mark.parametrize("mutated", [False, True], ids=["original", "mutant"])
@pytest.mark.parametrize("name", list(CLAIM_SURVIVORS))
def test_claim_survivor_fails_the_definition(name, mutated, monkeypatch):
    kind, rule = CLAIM_SURVIVORS[name]
    if mutated:
        monkeypatch.setitem(maps._RULES, kind, rule)
    x, image = golden_case(kind)
    assert np.array_equal(maps.apply(MapId(kind, 2), x), image) is not mutated


_CRITERION = systems._criterion_fields


def _mean_criterion(s, fields, tol: float = PSD_TOL, spectrum=None):
    """The stacked criterion with ||K|| <= (a + b)/2 in place of
    ||K|| <= sqrt(ab) on the scalar-diagonal and paired shapes; it takes
    its own SVD whether or not the caller hands it a spectrum."""
    if s.kind in systems.CORNER_KINDS:
        return _CRITERION(s, fields, tol, spectrum)
    a, b, K, defect = systems._corner_terms(s, fields)
    imaginary = np.maximum(np.maximum(np.abs(a.imag), np.abs(b.imag)), defect)
    refused = (imaginary > tol) | (np.minimum(a.real, b.real) < -tol)
    return ~refused & (np.linalg.svd(K, compute_uv=False)[..., 0] <= (a.real + b.real) / 2.0 + tol)


def _corner_mean_criterion(s, fields, tol: float = PSD_TOL, spectrum=None):
    """The stacked criterion with |b| <= (d + lambda_min(A))/2 in place of
    d lambda_min(A) >= |b|^2 on the free-corner shapes; it takes its own
    eigensolve whether or not the caller hands it a spectrum."""
    if s.kind not in systems.CORNER_KINDS:
        return _CRITERION(s, fields, tol, spectrum)
    A, b, c, d = fields["A"], fields["b"], fields["c"], fields["d"]
    adjoint = A.conj().swapaxes(-1, -2)
    lam_min = np.linalg.eigvalsh((A + adjoint) / 2.0)[..., 0]
    defect = np.abs(A - adjoint).max(axis=(-2, -1))
    refused = (np.abs(c - np.conj(b)) > tol) | (np.abs(d.imag) > tol) | (np.minimum(d.real, lam_min) < -tol)
    return ~(refused | (defect > tol)) & (np.abs(b) <= (d.real + lam_min) / 2.0 + tol)


# (the mutated criterion, the field of the run, the claim the mutant fails);
# the boundary probe that opens each lemma sweep lies between the geometric
# and the arithmetic mean, so each mutant fails from the first trial on
LEMMA_MUTANTS = {
    "paired": (_mean_criterion, "real", "lemma.transpose-paired.n=1.agreement"),
    "free-corner": (_corner_mean_criterion, "complex", "lemma.free-corner.n=1.agreement"),
}


@pytest.mark.parametrize("mutated", [False, True], ids=["original", "mutant"])
@pytest.mark.parametrize("trials", [1, 100, 500])
@pytest.mark.parametrize("name", list(LEMMA_MUTANTS))
def test_lemma_mean_criterion_mutant_fails_its_family(name, trials, mutated, monkeypatch):
    criterion, field, claim_id = LEMMA_MUTANTS[name]
    if mutated:
        monkeypatch.setattr(systems, "_criterion_fields", criterion)
    got = statuses(suite.lemma_claims, command="verify", target="lemma", n_values=(1,), trials=trials, field=field)
    assert got[claim_id] == ("fail" if mutated else "pass")


_FORCING_STEPS = certificates._corner_forcing_steps


def _halved_forcing_steps(m):
    """The scaling certificates' narrative core with its summed bound halved."""
    steps, bound = _FORCING_STEPS(m)
    return steps, bound / 2.0


@pytest.mark.parametrize("mutated", [False, True], ids=["original", "mutant"])
@pytest.mark.parametrize("target, n", [("phi", 17), ("upsilon", 2)])
def test_halved_forced_bound_mutant_fails_its_family(target, n, mutated, monkeypatch):
    if mutated:
        monkeypatch.setattr(certificates, "_corner_forcing_steps", _halved_forcing_steps)
    got = statuses(**certify(target, n))
    assert got[f"certify.{target}.n={n}.outcome"] == ("fail" if mutated else "pass")


_CERTIFICATE_PARTS = certificates._certificate_parts


def _doubled_unit_parts(n, i, j):
    """The certificate parts with each off-diagonal unit of S doubled: the
    representative [[E_00, 2 E_01], [2 E_10, I]] has eigenvalue -1."""
    D, S = _CERTIFICATE_PARTS(n, i, j)
    rows = np.arange(i.size)
    S[rows, i, n + j] = S[rows, n + j, i] = 2.0
    return D, S


@pytest.mark.parametrize("mutated", [False, True], ids=["original", "mutant"])
@pytest.mark.parametrize("target, n", [("phi", 1), ("phi", 17), ("upsilon", 2), ("upsilon", 3)])
def test_doubled_certificate_unit_fails_the_exact_psd_step(target, n, mutated, monkeypatch):
    if mutated:
        monkeypatch.setattr(certificates, "_certificate_parts", _doubled_unit_parts)
    steps, _ = certificates._corner_forcing_steps(MapId(maps.MAP_KIND_BY_TOKEN[target], n))
    assert steps[0].ok is not mutated
    # the eigensolve the exact factor replaces sees the same failure
    assert (_eigen_certificate_residual(n) > 0.0) is mutated
    assert statuses(**certify(target, n))[f"certify.{target}.n={n}.narrative"] == ("fail" if mutated else "pass")


@pytest.mark.parametrize("mutated", [False, True], ids=["original", "mutant"])
@pytest.mark.parametrize("n", [3, 17])
def test_unscaled_lower_left_fails_the_summed_bound_step(n, mutated, monkeypatch):
    # the lower-left block passes through untransposed: X_i1 = E_1i, so the
    # summed bound is I, not a multiple of E_11 as the step states
    if mutated:
        monkeypatch.setitem(maps._RULES, MapKind.QUARTER_TRANSPOSE, {(0, 1): 0.25})
    assert certificates.certify_quarter_transpose(n).narrative[4].ok is not mutated
    assert statuses(**certify("phi", n))[f"certify.phi.n={n}.narrative"] == ("fail" if mutated else "pass")


def _product_witness(n):
    """v v* with v = e_1 (+) e_1: PSD, and its own blockwise transpose."""
    v = np.zeros(2 * n, dtype=np.complex128)
    v[0] = v[n] = 1.0
    return np.outer(v, v.conj())


@pytest.mark.parametrize("mutated", [False, True], ids=["original", "mutant"])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_product_corner_witness_fails_step_5(n, mutated, monkeypatch):
    if mutated:
        monkeypatch.setattr(certificates, "corner_witness", _product_witness)
    steps = certificates.certify_corner_transpose(n).narrative
    assert [s.ok for s in steps] == [True, True, True, True, not mutated]
    assert (_eigen_witness_residual(n) > 0.0) is mutated
    got = statuses(**certify("gamma", n))
    for part in ("narrative", "margin", "final-witness"):
        assert got[f"certify.gamma.n={n}.{part}"] == ("fail" if mutated else "pass")


_PROJECTION_STACKS = certificates._projection_stacks


def _doubled_projection_stacks(n):
    """The squeeze's spanning set with each rank-one projection P doubled:
    2P is self-adjoint, but (2P)^2 = 4P, and I - 2P is not PSD."""
    return (2.0 * P for P in _PROJECTION_STACKS(n))


@pytest.mark.parametrize("mutated", [False, True], ids=["original", "mutant"])
def test_doubled_projection_mutant_fails_the_squeeze(mutated, monkeypatch):
    if mutated:
        monkeypatch.setattr(certificates, "_projection_stacks", _doubled_projection_stacks)
    # step 1's square expansions hold for any self-adjoint A, so only step 4 sees 2P
    steps = certificates.certify_corner_transpose(2).narrative
    assert [s.ok for s in steps] == [True, True, True, not mutated, True]
    assert statuses(**certify("gamma", 2))["certify.gamma.n=2.narrative"] == ("fail" if mutated else "pass")
    # the pseudoinverse form accepts 2P as well as P, since D D^+ D = D for every D
    assert _pinv_squeeze_residual(2) <= 1e-15


_BLOCKWISE = maps._blockwise


def _leaky_blockwise(kind, M):
    """The map's rule, with the block transpose also adding X_UR - X_LL of
    its input into the upper-left block of the image."""
    out = _BLOCKWISE(kind, M)
    if kind is MapKind.BLOCK_TRANSPOSE:
        n = M.shape[-1] // 2
        out[..., :n, :n] += M[..., :n, n:] - M[..., n:, :n]
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_leaky_block_transpose_keeps_every_c_one_display_exact(n, monkeypatch):
    # the squares at c = 1 have equal off-diagonal blocks, so no display
    # there sees the leak: only step 1's I (+) iI covariance check does
    # (``STEP_MUTANTS``)
    monkeypatch.setattr(maps, "_blockwise", _leaky_blockwise)
    for P in certificates._projection_stacks(n):
        for A in P:
            for d in (0.0, 1.0, -1.0):
                assert maps.corner_square_identities(A, 1.0, d) == 0.0


def _antilinear_blockwise(kind, M):
    """The map's rule, with the block transpose putting conj(C)^t for C^t
    in the lower-left block of the image: still odd in its input, so the
    sign flip holds, but only real-linear."""
    out = _BLOCKWISE(kind, M)
    if kind is MapKind.BLOCK_TRANSPOSE:
        n = M.shape[-1] // 2
        out[..., n:, :n] = np.conj(out[..., n:, :n])
    return out


def _affine_blockwise(kind, M):
    """The map's rule, with the block transpose also adding the matrix unit
    at entry (n, 0) of its image: the Cartesian rebuild carries the
    constant through, but the sign flip doubles it."""
    out = _BLOCKWISE(kind, M)
    if kind is MapKind.BLOCK_TRANSPOSE:
        n = M.shape[-1] // 2
        out[..., n, 0] += 1.0
    return out


# (mutated block transpose, the corner-transpose step it fails, counted from
# 1, and that step's spanning-set form, kept as a test reference)
STEP_MUTANTS = {
    "leaky-block-transpose": (_leaky_blockwise, 1, _phase_spanning_residual),
    "antilinear-block-transpose": (_antilinear_blockwise, 3, _rebuild_spanning_residual),
    "affine-block-transpose": (_affine_blockwise, 2, _sign_flip_spanning_residual),
}


@pytest.mark.parametrize("mutated", [False, True], ids=["original", "mutant"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", list(STEP_MUTANTS))
def test_block_transpose_mutant_fails_its_randomized_step(name, n, mutated, monkeypatch):
    blockwise, step, spanning = STEP_MUTANTS[name]
    if mutated:
        monkeypatch.setattr(certificates, "_blockwise", blockwise)
    assert certificates.certify_corner_transpose(n).narrative[step - 1].ok is not mutated
    assert (spanning(n) > EXACT_TOL) is mutated


def _rounded_blockwise(kind, M):
    """The map's rule, with the upper-left block of every image rounded to
    integers: exact wherever the input is an integer matrix."""
    out = _BLOCKWISE(kind, M)
    n = M.shape[-1] // 2
    out[..., :n, :n] = np.round(out[..., :n, :n])
    return out


# (mutated map, the mutated rule function or rule table); each breaks
# unitality, self-adjointness preservation or linearity
STRUCTURAL_MUTANTS = {
    # the rule plus the matrix unit at entry (n, 0) of the image
    "affine-block": (MapKind.BLOCK_TRANSPOSE, _affine_blockwise),
    # conj(X)^t in place of X^t in the lower-left block
    "antilinear-block": (MapKind.BLOCK_TRANSPOSE, _antilinear_blockwise),
    # only the upper-right off-diagonal block transposed
    "one-off-diagonal-block-transposed": (MapKind.BLOCK_TRANSPOSE, {(0, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0}),
    "rounded-block": (MapKind.QUARTER_TRANSPOSE, _rounded_blockwise),
}


def _install(mutant, kind, monkeypatch):
    if callable(mutant):
        monkeypatch.setattr(maps, "_blockwise", mutant)
    else:
        monkeypatch.setitem(maps._RULES, kind, mutant)


@pytest.mark.parametrize("mutated", [False, True], ids=["original", "mutant"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", list(STRUCTURAL_MUTANTS))
def test_structural_mutant_fails_the_exact_check_and_the_gaussian_reference(name, n, mutated, monkeypatch):
    kind, mutant = STRUCTURAL_MUTANTS[name]
    m = MapId(kind, n)
    if mutated:
        _install(mutant, kind, monkeypatch)
    rep = maps.check_structural(m)
    assert rep.passed is not mutated
    # a point counts as a failure exactly when its residual is nonzero
    assert (rep.self_adjoint_failures > 0) is (rep.self_adjoint_worst > 0.0)
    assert (rep.linear_failures > 0) is (rep.linear_worst > 0.0)
    assert (max(_gaussian_structural_residuals(m)) > 0.0) is mutated
    assert statuses(suite.maps_claims, command="verify", target="maps", n_values=(n,), trials=20)[
        f"maps.{kind.token}.n={n}.structural"
    ] == ("fail" if mutated else "pass")


def test_rounded_block_passes_at_integer_points(monkeypatch):
    # the dyadic scaling is what exposes it: unscaled, every point and every
    # combination of points is an integer matrix
    monkeypatch.setattr(maps, "_blockwise", _rounded_blockwise)
    m = MapId(MapKind.QUARTER_TRANSPOSE, 3)
    assert not maps.check_structural(m).passed
    monkeypatch.setattr(maps, "POINT_BOUND", 1)
    assert maps.check_structural(m).passed


_SEARCH = maps.estimate_map_norm


def _inflated_search(m, restarts=50, rng_seed=0):
    """The norm search with its reported bound 1e-7 above its witness's
    image norm: beyond the IDENTITY_TOL gate of both the lower-bound and
    the image-norm claims."""
    est = _SEARCH(m, restarts=restarts, rng_seed=rng_seed)
    return dataclasses.replace(est, lower_bound=est.lower_bound + 1e-7)


@pytest.mark.parametrize("mutated", [False, True], ids=["original", "mutant"])
def test_inflated_norm_bound_mutant_fails_image_norm(mutated, monkeypatch):
    if mutated:
        monkeypatch.setattr(maps, "estimate_map_norm", _inflated_search)
    got = statuses(suite.norm_claims, command="norm", target="upsilon", n_values=(2,), restarts=6)
    assert got["norm.upsilon.n=2.lower-bound"] == ("fail" if mutated else "pass")
    assert got["norm.upsilon.n=2.image-norm"] == ("fail" if mutated else "pass")
