"""Claim-producing verification runs behind the command-line interface.

Each runner turns one family of checks into an ordered list of claims with
stable identifiers, so identical configurations serialize to byte-identical
claim arrays.  Claim ids use the short map tokens (phi, upsilon,
upsilon-prime, gamma, psi-transpose, psi-real-ext) that the external
interface speaks.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from . import certificates, maps, systems
from .certificates import Outcome, Verdict, verify_verdict_invariants
from .linalg import (
    IDENTITY_TOL,
    MARGIN,
    MEMBERSHIP_TOL,
    hermitian_eigenvalues,
    is_psd,
    operator_norm,
    stack_size,
)
from .maps import MapId, MapKind
from .report import Claim, MatrixPayload, Report, STATUS_FAIL, STATUS_PASS
from .systems import Field, LEMMA_KINDS, SystemId, SystemKind


class ConfigError(ValueError):
    """Unusable run configuration (bad sizes, unknown targets)."""


MIN_N = 1
MAX_N = 64

SUITE_DEFAULT_N = (1, 2, 3, 4, 8, 16, 17)

# per-map default sizes for the norm command
NORM_DEFAULT_N = {
    "phi": (2, 5, 6, 8),
    "upsilon": (2, 4),
    "upsilon-prime": (2, 3, 4),
    "gamma": (2, 4),
}

VERIFY_TARGETS = ("lemma", "maps", "swapbc", "ks")
CERTIFY_TARGETS = ("phi", "upsilon", "gamma")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    target: str | None = None
    n_values: tuple[int, ...] = (2,)
    field: str = "both"
    trials: int = 500
    restarts: int = 50
    seed: int = 0
    output: str = "text"
    output_path: str | None = None

    def __post_init__(self):
        for n in self.n_values:
            if not (MIN_N <= n <= MAX_N):
                raise ConfigError(f"n={n} outside [{MIN_N}, {MAX_N}]")
        if len(set(self.n_values)) < len(self.n_values):
            raise ConfigError(f"repeated block size in {list(self.n_values)}: claim ids would repeat")
        if self.trials < 1 or self.restarts < 1:
            raise ConfigError("trials and restarts must be positive")
        if self.field not in ("real", "complex", "both"):
            raise ConfigError(f"unknown field {self.field!r}")


def _seed(cfg: RunConfig, *salt: int) -> int:
    s = cfg.seed
    for v in salt:
        s = s * 1_000_003 + v + 12_289
    return abs(s) % (2**63)


def _field_allows(cfg: RunConfig, f: Field) -> bool:
    return cfg.field == "both" or cfg.field == f.value


def _pass_fail(ok: bool) -> str:
    return STATUS_PASS if ok else STATUS_FAIL


def _oracle_disagreements(crits: list[bool], matrices: list[np.ndarray]) -> int:
    """How many criterion verdicts the eigenvalue oracle contradicts, through
    one stacked PSD check; the lists are emptied."""
    if not matrices:
        return 0
    oracle = is_psd(np.stack(matrices)).is_psd
    disagreements = int(np.count_nonzero(oracle != np.array(crits)))
    crits.clear()
    matrices.clear()
    return disagreements


def lemma_claims(cfg: RunConfig) -> list[Claim]:
    """Criterion-versus-oracle agreement over margin-filtered seeded draws.

    The criterion runs per draw; the oracle runs on the kept draws' matrices
    in stacks of at most 2^15 entries.
    """
    claims: list[Claim] = []
    for kidx, kind in enumerate(LEMMA_KINDS):
        if not _field_allows(cfg, kind.field):
            continue
        for n in cfg.n_values:
            s = SystemId(kind, n)
            rng = np.random.default_rng(_seed(cfg, 1, kidx, n))
            disagreements = 0
            checked = 0
            crits: list[bool] = []
            matrices: list[np.ndarray] = []
            for t in range(cfg.trials):
                if t % 2 == 0:
                    e, M = systems._draw_element(s, rng, 1.0), None
                else:
                    e, M = systems._draw_positive_embedded(s, rng)
                if systems.boundary_margin(e) <= MARGIN:
                    continue
                checked += 1
                crits.append(systems.is_positive_by_criterion(e))
                matrices.append(systems.embed(e) if M is None else M)
                if len(matrices) == stack_size(2 * n):
                    disagreements += _oracle_disagreements(crits, matrices)
            disagreements += _oracle_disagreements(crits, matrices)
            claims.append(
                Claim(
                    id=f"lemma.{kind.token}.n={n}.agreement",
                    anchor=(
                        f"closed-form positivity criterion agrees with the eigenvalue"
                        f" oracle on {checked} margin-filtered draws"
                    ),
                    status=_pass_fail(disagreements == 0),
                    residual=float(disagreements),
                )
            )
    return claims


def maps_claims(cfg: RunConfig) -> list[Claim]:
    """Structure and positivity checks for all six maps."""
    claims: list[Claim] = []
    for kidx, kind in enumerate(MapKind):
        if not _field_allows(cfg, kind.field):
            continue
        for n in cfg.n_values:
            m = MapId(kind, n)
            rep = maps.check_structural(m, trials=25, rng_seed=_seed(cfg, 2, kidx, n))
            worst = max(rep.unital_residual, rep.self_adjoint_worst, rep.linear_worst)
            claims.append(
                Claim(
                    id=f"maps.{kind.token}.n={n}.structural",
                    anchor="map is unital, self-adjointness-preserving and linear",
                    status=_pass_fail(rep.passed),
                    residual=worst,
                )
            )
            prep = maps.check_positivity_preserving(m, trials=cfg.trials, rng_seed=_seed(cfg, 3, kidx, n))
            if kind is MapKind.BLOCK_TRANSPOSE and n >= 2:
                found = prep.violation_count >= 1 and prep.min_output_eigenvalue <= -MARGIN
                witness = (
                    MatrixPayload.from_matrix(prep.violations[0].input)
                    if prep.violations
                    else None
                )
                claims.append(
                    Claim(
                        id=f"maps.{kind.token}.n={n}.violation-found",
                        anchor=(
                            "full block transpose breaks positivity on a seeded"
                            " PSD input, as it must"
                        ),
                        status=_pass_fail(found),
                        residual=prep.min_output_eigenvalue,
                        witness=witness,
                    )
                )
            else:
                claims.append(
                    Claim(
                        id=f"maps.{kind.token}.n={n}.positive-inputs",
                        anchor=f"no positivity violation across {prep.trials} seeded PSD inputs",
                        status=_pass_fail(prep.violation_count == 0),
                        residual=max(0.0, -prep.min_output_eigenvalue),
                    )
                )
    return claims


def swapbc_claims(cfg: RunConfig) -> list[Claim]:
    """Singular values and the characteristic polynomial ignore the b-c swap."""
    claims: list[Claim] = []
    for n in cfg.n_values:
        dev = maps.swap_bc_singular_check(n, trials=cfg.trials, rng_seed=_seed(cfg, 4, n))
        claims.append(
            Claim(
                id=f"swapbc.n={n}.singular-values",
                anchor="sorted singular values are invariant under trading the two scalar corners",
                status=_pass_fail(dev <= IDENTITY_TOL),
                residual=dev,
            )
        )
        rel = maps.char_poly_swap_check(
            n,
            instances=max(5, cfg.trials // 40),
            lambdas=20,
            rng_seed=_seed(cfg, 5, n),
        )
        claims.append(
            Claim(
                id=f"swapbc.n={n}.char-poly",
                anchor=(
                    "det(M*M - lam I) is symmetric in the scalar corners and matches"
                    " the reduced n x n evaluation"
                ),
                status=_pass_fail(rel <= 1e-8),
                residual=rel,
            )
        )
    return claims


def ks_claims(cfg: RunConfig) -> list[Claim]:
    """Schwarz-inequality behavior of the forced extension candidates."""
    claims: list[Claim] = []
    for n in cfg.n_values:
        corner_sys = SystemId(SystemKind.FREE_CORNER, n)
        corner_map = MapId(MapKind.CORNER_TRANSPOSE, n)
        rng = np.random.default_rng(_seed(cfg, 6, n))
        worst = 0.0
        for _ in range(min(cfg.trials, 50)):
            f = systems._draw_selfadjoint(corner_sys, rng)
            worst = max(worst, maps.corner_square_identities(f.A, f.c, f.d.real))
            e = systems._draw_selfadjoint(corner_sys, rng)
            ks = maps.kadison_schwarz_check(corner_map, e)
            worst = max(worst, abs(ks.defect_min_eigenvalue))
        claims.append(
            Claim(
                id=f"ks.psi-transpose.free-corner.n={n}",
                anchor=(
                    "block-square displays hold entrywise and the blockwise-transpose"
                    " candidate has zero Schwarz defect on the free-corner system"
                ),
                status=_pass_fail(worst <= MEMBERSHIP_TOL),
                residual=worst,
            )
        )

        sd_sys = SystemId(SystemKind.SCALAR_DIAGONAL, n)
        sd_map = MapId(MapKind.QUARTER_TRANSPOSE, n)
        rng = np.random.default_rng(_seed(cfg, 7, n))
        worst_defect = math.inf
        for t in range(min(cfg.trials, 100)):
            if t == 0 and n >= 2:
                # structured probe: meets the threshold exactly where it breaks
                B = np.zeros((n, n), dtype=np.complex128)
                B[0, 1] = 1.0
                e = systems.ScalarDiagonalElement(sd_sys, 0.5, 0.5, B, B.conj().T)
            else:
                e = systems._draw_selfadjoint(sd_sys, rng)
            ks = maps.kadison_schwarz_check(sd_map, e)
            worst_defect = min(worst_defect, ks.defect_min_eigenvalue)
        if n <= 16:
            claims.append(
                Claim(
                    id=f"ks.phi.trace-averaged.n={n}",
                    anchor=(
                        "trace-averaged compression candidate satisfies the Schwarz"
                        " inequality on self-adjoint inputs"
                    ),
                    status=_pass_fail(worst_defect >= -IDENTITY_TOL),
                    residual=max(0.0, -worst_defect),
                )
            )
        else:
            claims.append(
                Claim(
                    id=f"ks.phi.trace-averaged.n={n}.breaks",
                    anchor=(
                        "above the threshold the compression candidate shows a"
                        " negative Schwarz defect, so it is no longer positive"
                    ),
                    status=_pass_fail(worst_defect <= -MARGIN),
                    residual=worst_defect,
                )
            )
    return claims


# the known norm of each map: what the search must reach, and what no
# sampled ratio may exceed
_EXPECTED_NORM = {
    "phi": lambda n: 1.0,
    "upsilon": lambda n: 1.0,
    "upsilon-prime": lambda n: 1.0 if n == 1 else 2.0 / math.sqrt(3.0),
    "gamma": lambda n: 1.0,
}

_NORM_TOL = {
    "phi": 1e-6,
    "upsilon": 1e-6,
    "upsilon-prime": 1e-4,
    "gamma": 1e-6,
}


def norm_claims(cfg: RunConfig) -> list[Claim]:
    token = cfg.target
    if token not in _EXPECTED_NORM:
        raise ConfigError(f"norm target must be one of {sorted(_EXPECTED_NORM)}, got {token!r}")
    kind = maps.MAP_KIND_BY_TOKEN[token]
    claims: list[Claim] = []
    for n in cfg.n_values:
        m = MapId(kind, n)
        est = maps.estimate_map_norm(m, restarts=cfg.restarts, rng_seed=_seed(cfg, 8, n))
        expected = _EXPECTED_NORM[token](n)
        tol = _NORM_TOL[token]
        claims.append(
            Claim(
                id=f"norm.{token}.n={n}.lower-bound",
                anchor=f"multi-start search reaches the known norm {expected:.7f}",
                status=_pass_fail(abs(est.lower_bound - expected) <= tol),
                residual=abs(est.lower_bound - expected),
                witness=MatrixPayload.from_matrix(est.witness),
            )
        )
        wn = operator_norm(est.witness)
        claims.append(
            Claim(
                id=f"norm.{token}.n={n}.witness-unit",
                anchor="stored witness has unit norm",
                status=_pass_fail(abs(wn - 1.0) <= IDENTITY_TOL),
                residual=abs(wn - 1.0),
            )
        )
        img = operator_norm(maps.apply(m, est.witness))
        claims.append(
            Claim(
                id=f"norm.{token}.n={n}.image-norm",
                anchor="witness image norm reproduces the reported lower bound",
                status=_pass_fail(abs(img - est.lower_bound) <= IDENTITY_TOL),
                residual=abs(img - est.lower_bound),
            )
        )
        over = max(0.0, est.lower_bound - expected)
        claims.append(
            Claim(
                id=f"norm.{token}.n={n}.upper-bound-respected",
                anchor="no sampled ratio exceeds the closed-form upper bound",
                status=_pass_fail(over <= IDENTITY_TOL),
                residual=over,
            )
        )
        if token == "upsilon-prime":
            margin = maps.swap_bound_domination(
                n, samples=min(cfg.trials * 4, 10_000), rng_seed=_seed(cfg, 9, n)
            )
            claims.append(
                Claim(
                    id=f"norm.{token}.n={n}.bound-dominates",
                    anchor="closed-form bound dominates the image norm on every sampled element",
                    status=_pass_fail(margin >= -IDENTITY_TOL),
                    residual=max(0.0, -margin),
                )
            )
    return claims


_CERTIFY_FN = {
    "phi": lambda n, seed: certificates.certify_quarter_transpose(n),
    "upsilon": lambda n, seed: certificates.certify_offdiag_swap(n),
    "gamma": lambda n, seed: certificates.certify_corner_transpose(n, rng_seed=seed),
}


def _expected_outcome(which: str, n: int) -> Outcome:
    if which == "phi":
        return Outcome.CONTRADICTION if n >= 17 else Outcome.INCONCLUSIVE
    # both corner certificates: identity extension at n = 1, contradiction beyond
    return Outcome.EXTENSION_EXHIBITED if n == 1 else Outcome.CONTRADICTION


def certify_claims(cfg: RunConfig) -> list[Claim]:
    which = cfg.target
    if which not in _CERTIFY_FN:
        raise ConfigError(f"certify target must be one of {sorted(_CERTIFY_FN)}, got {which!r}")
    claims: list[Claim] = []
    for n in cfg.n_values:
        v: Verdict = _CERTIFY_FN[which](n, _seed(cfg, 10, n))
        expected = _expected_outcome(which, n)
        witness = MatrixPayload.from_matrix(v.witnesses[0][1]) if v.witnesses else None
        claims.append(
            Claim(
                id=f"certify.{which}.n={n}.outcome",
                anchor=f"verdict is {v.outcome.value}; expected {expected.value} at this size",
                status=_pass_fail(v.outcome is expected),
                residual=None,
                witness=witness,
            )
        )
        problems = verify_verdict_invariants(v)
        worst = max((s.residual for s in v.narrative), default=0.0)
        claims.append(
            Claim(
                id=f"certify.{which}.n={n}.narrative",
                anchor=f"all {len(v.narrative)} narrative residuals within declared tolerances",
                status=_pass_fail(not problems),
                residual=worst,
            )
        )
        if v.outcome is Outcome.CONTRADICTION:
            claims.append(
                Claim(
                    id=f"certify.{which}.n={n}.margin",
                    anchor="violation margin clears the reporting threshold",
                    status=_pass_fail(v.margin is not None and v.margin >= MARGIN),
                    residual=v.margin,
                )
            )
        if which == "gamma" and v.outcome is Outcome.CONTRADICTION:
            image = v.witnesses[-1][1]
            min_eig = float(hermitian_eigenvalues(image)[0])
            claims.append(
                Claim(
                    id=f"certify.{which}.n={n}.final-witness",
                    anchor="forced image of the corner witness has eigenvalue exactly -1",
                    status=_pass_fail(abs(min_eig + 1.0) <= MEMBERSHIP_TOL),
                    residual=abs(min_eig + 1.0),
                )
            )
    return claims


def suite_claims(cfg: RunConfig) -> list[Claim]:
    """Everything: verifies and certificates at the configured sizes, norm
    searches at each map's default sizes."""
    claims: list[Claim] = []
    claims += lemma_claims(cfg)
    claims += maps_claims(cfg)
    claims += swapbc_claims(cfg)
    claims += ks_claims(cfg)
    for token, n_default in NORM_DEFAULT_N.items():
        sub = dataclasses.replace(cfg, target=token, n_values=n_default)
        claims += norm_claims(sub)
    for which in CERTIFY_TARGETS:
        sub = dataclasses.replace(cfg, target=which)
        claims += certify_claims(sub)
    return claims


_RUNNERS = {
    ("verify", "lemma"): lemma_claims,
    ("verify", "maps"): maps_claims,
    ("verify", "swapbc"): swapbc_claims,
    ("verify", "ks"): ks_claims,
}


def run(cfg: RunConfig) -> Report:
    """Execute a configuration and assemble the report."""
    start = time.perf_counter()
    if cfg.command == "verify":
        runner = _RUNNERS.get((cfg.command, cfg.target))
        if runner is None:
            raise ConfigError(f"verify target must be one of {VERIFY_TARGETS}, got {cfg.target!r}")
        claims = runner(cfg)
    elif cfg.command == "norm":
        claims = norm_claims(cfg)
    elif cfg.command == "certify":
        claims = certify_claims(cfg)
    elif cfg.command == "suite":
        claims = suite_claims(cfg)
    else:
        raise ConfigError(f"unknown command {cfg.command!r}")
    duration = time.perf_counter() - start
    config_echo = (
        ("command", cfg.command),
        ("field", cfg.field),
        ("n_values", list(cfg.n_values)),
        ("restarts", cfg.restarts),
        ("seed", cfg.seed),
        ("target", cfg.target),
        ("trials", cfg.trials),
    )
    return Report(config=config_echo, claims=tuple(claims), duration_seconds=duration)
