"""Mutation checks: each mutant of a map's rule, or of the closed-form
positivity criterion, or of the scaling certificates' summed bound, makes a
claim of its own family fail.

A mutant is installed with ``monkeypatch`` for one test only; nothing in the
package switches it on.  Each configuration also runs unmutated, where the
same claims pass, so every failure is the mutant's doing.
"""

import pytest

from opsyscheck import certificates, maps, suite, systems
from opsyscheck.linalg import PSD_TOL, operator_norm
from opsyscheck.maps import MapKind
from opsyscheck.suite import RunConfig


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
    "upsilon-identity": (MapKind.OFFDIAG_SWAP, {}, certify("upsilon", 2), "certify.upsilon.n=2.outcome"),
    "gamma-identity": (MapKind.CORNER_TRANSPOSE, {}, certify("gamma", 2), "certify.gamma.n=2.narrative"),
    "gamma-identity-ks": (
        MapKind.CORNER_TRANSPOSE,
        {},
        dict(runner=suite.ks_claims, command="verify", target="ks", n_values=(2,), trials=100),
        "ks.psi-transpose.free-corner.n=2",
    ),
}


@pytest.mark.parametrize("mutated", [False, True], ids=["original", "mutant"])
@pytest.mark.parametrize("name", list(MAP_MUTANTS))
def test_map_rule_mutant_fails_its_family(name, mutated, monkeypatch):
    kind, rule, run, claim_id = MAP_MUTANTS[name]
    if mutated:
        monkeypatch.setitem(maps._RULES, kind, rule)
    assert statuses(**run)[claim_id] == ("fail" if mutated else "pass")


_CRITERION = systems.is_positive_by_criterion


def _mean_criterion(e, tol: float = PSD_TOL) -> bool:
    """The criterion with ||K|| <= (a + b)/2 in place of ||K|| <= sqrt(ab)
    on the scalar-diagonal and paired shapes."""
    if isinstance(e, systems.FreeCornerElement):
        return _CRITERION(e, tol)
    a, b, K, defect = systems._scalar_corners(e)
    if max(abs(a.imag), abs(b.imag), defect) > tol or min(a.real, b.real) < -tol:
        return False
    return operator_norm(K) <= (a.real + b.real) / 2.0 + tol


@pytest.mark.parametrize("mutated", [False, True], ids=["original", "mutant"])
def test_lemma_mean_criterion_mutant_fails_its_family(mutated, monkeypatch):
    # at 100 trials this mutant survives: no kept draw tells the two
    # criteria apart
    if mutated:
        monkeypatch.setattr(systems, "is_positive_by_criterion", _mean_criterion)
    got = statuses(suite.lemma_claims, command="verify", target="lemma", n_values=(1,), trials=500, field="real")
    assert got["lemma.transpose-paired.n=1.agreement"] == ("fail" if mutated else "pass")


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
