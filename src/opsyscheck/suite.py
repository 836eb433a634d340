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
import os
import time

import numpy as np

from . import certificates, maps, systems
from .certificates import Outcome, Verdict, verify_verdict_invariants
from .linalg import (
    IDENTITY_TOL,
    MARGIN,
    MEMBERSHIP_TOL,
    PSD_TOL,
    is_psd,
    operator_norm,
    stack_chunks,
)
from .maps import MapId, MapKind
from .report import Claim, MatrixPayload, Report, STATUS_FAIL, STATUS_PASS
from .systems import CORNER_KINDS, Field, LEMMA_KINDS, SystemId, SystemKind


class ConfigError(ValueError):
    """Unusable run configuration (bad sizes, unknown targets)."""


MIN_N = 1
MAX_N = 64

# default block sizes per command; the norm command takes them per map
DEFAULT_N = {"verify": (1, 2, 3, 4), "certify": (2,), "suite": (1, 2, 3, 4, 8, 16, 17)}
NORM_DEFAULT_N = {
    "phi": (2, 5, 6, 8),
    "upsilon": (2, 4),
    "upsilon-prime": (2, 3, 4),
    "gamma": (2, 4),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    target: str | None = None
    n_values: tuple[int, ...] = (2,)
    field: str = "both"
    trials: int = 500
    restarts: int = 50
    seed: int = 0

    def __post_init__(self):
        if (self.command, self.target) not in _RUNNERS:
            choices = targets(self.command)
            if not choices:
                raise ConfigError(f"unknown command {self.command!r}")
            raise ConfigError(f"{self.command} target must be one of {choices}, got {self.target!r}")
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


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _sweep_claims(sweep, jobs: list[tuple]) -> list[Claim]:
    """The claims of sweep(*job) for each job, concatenated in job order,
    with the jobs run on min(len(jobs), usable CPUs) threads.

    The first exception a job raises, in job order, reaches the caller.
    Each sweep draws from its own seeded generator and shares nothing with
    the others, so the claims do not depend on the number of threads.  The
    batched eigensolves and SVDs release the interpreter lock, so the
    threads overlap there.
    """
    workers = min(len(jobs), _usable_cpus())
    if workers <= 1:
        results = [sweep(*job) for job in jobs]
    else:
        # imported here: a serial run need not pay the milliseconds it takes
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(sweep, *zip(*jobs)))
    return [c for claims in results for c in claims]


def _claim(id: str, anchor: str, ok: bool, residual: float | None, witness: MatrixPayload | None = None) -> Claim:
    """The one place a check becomes a claim and its status is decided."""
    return Claim(id=id, anchor=anchor, status=STATUS_PASS if ok else STATUS_FAIL, residual=residual, witness=witness)


def _boundary_probe(s: SystemId) -> dict[str, np.ndarray]:
    """Fields of one non-PSD element 0.06 from the criterion's boundary, on
    the side where a mean would wrongly stand in for the geometric mean.

    Paired shapes: a = 1, b = 1/4 and K = 0.56 E_11, so
    sqrt(ab) < ||K|| < (a + b)/2.  Free-corner shapes: A = I, d = 1/4 and
    b = c = 0.56, so d lambda_min(A) < |b|^2 while |b| < (d + lambda_min(A))/2.
    """
    dtype = s.field.dtype
    if s.kind in CORNER_KINDS:
        scalars = {"b": 0.56, "c": 0.56, "d": 0.25}
        return {"A": np.eye(s.n, dtype=dtype)[None]} | {name: np.full(1, v, dtype) for name, v in scalars.items()}
    C = np.zeros((1, s.n, s.n), dtype=dtype)
    C[0, 0, 0] = 0.56
    return {"a": np.ones(1, dtype), "b": np.full(1, 0.25, dtype), "C": C}


def _lemma_stack(s: SystemId, rng: np.random.Generator, start: int, k: int) -> tuple[int, int]:
    """(margin-filtered rows, disagreements) of trials start .. start + k - 1
    of one lemma sweep.

    Trial 0 is the boundary probe; the other even trials draw generic
    elements and the odd ones positive elements, each kind as one stack.
    The oracle eigensolves the kept probe and generic rows, and decides the
    kept positive rows at PSD_TOL off the spectrum of their sampler's own
    self-check.
    """
    t = np.arange(start, start + k)
    drawn = [_boundary_probe(s)] if start == 0 else []
    drawn.append(systems._draw_fields(s, rng, 1.0, np.count_nonzero((t % 2 == 0) & (t > 0))))
    g = k - np.count_nonzero(t % 2)  # the probe and generic rows come first
    positive, _, verdict = systems._draw_positive_fields(s, rng, k - g)
    fields = systems._concat_fields(drawn + [positive])
    spectrum = systems._spectrum_fields(s, fields)
    kept = systems._margin_fields(s, fields, spectrum) > MARGIN
    solved = np.flatnonzero(kept[:g])
    oracle = np.concatenate(
        [
            is_psd(systems._embed_fields(s, systems._rows(fields, solved), (len(solved),))).is_psd,
            verdict.at(PSD_TOL)[kept[g:]],
        ]
    )
    criterion = systems._criterion_fields(
        s, systems._rows(fields, kept), spectrum=tuple(value[kept] for value in spectrum)
    )
    return int(np.count_nonzero(kept)), int(np.count_nonzero(oracle != criterion))


def _lemma_sweep(cfg: RunConfig, kidx: int, kind: SystemKind, n: int) -> list[Claim]:
    """The agreement claim of one (kind, n) lemma sweep."""
    s = SystemId(kind, n)
    rng = np.random.default_rng(_seed(cfg, 1, kidx, n))
    disagreements = 0
    checked = 0
    for start, k in stack_chunks(cfg.trials, 2 * n):
        kept, disagreed = _lemma_stack(s, rng, start, k)
        checked += kept
        disagreements += disagreed
    return [
        _claim(
            f"lemma.{kind.token}.n={n}.agreement",
            "closed-form positivity criterion agrees with the eigenvalue"
            f" oracle on {checked} margin-filtered draws",
            disagreements == 0,
            float(disagreements),
        )
    ]


def lemma_claims(cfg: RunConfig) -> list[Claim]:
    """Criterion-versus-oracle agreement over margin-filtered seeded draws.

    Each (kind, n) sweep starts with a boundary probe, then alternates
    generic and positive draws.  Draws, margin, criterion and oracle run
    per stack of at most ``linalg.STACK_ENTRIES`` matrix entries; the sweeps
    run as jobs of ``_sweep_claims``.
    """
    jobs = [
        (cfg, kidx, kind, n)
        for kidx, kind in enumerate(LEMMA_KINDS)
        if _field_allows(cfg, kind.field)
        for n in cfg.n_values
    ]
    return _sweep_claims(_lemma_sweep, jobs)


def _maps_sweep(cfg: RunConfig, kidx: int, kind: MapKind, n: int) -> list[Claim]:
    """The structural and positivity claims of one (kind, n) map sweep."""
    m = MapId(kind, n)
    rep = maps.check_structural(m, trials=25, rng_seed=_seed(cfg, 2, kidx, n))
    structural = _claim(
        f"maps.{kind.token}.n={n}.structural",
        "map is unital, self-adjointness-preserving and linear",
        rep.passed,
        max(rep.unital_residual, rep.self_adjoint_worst, rep.linear_worst),
    )
    prep = maps.check_positivity_preserving(m, trials=cfg.trials, rng_seed=_seed(cfg, 3, kidx, n))
    if kind is MapKind.BLOCK_TRANSPOSE and n >= 2:
        positivity = _claim(
            f"maps.{kind.token}.n={n}.violation-found",
            "full block transpose breaks positivity on a seeded PSD input, as it must",
            prep.violation_count >= 1 and prep.min_output_eigenvalue <= -MARGIN,
            prep.min_output_eigenvalue,
            MatrixPayload.from_matrix(prep.violations[0].input) if prep.violations else None,
        )
    else:
        positivity = _claim(
            f"maps.{kind.token}.n={n}.positive-inputs",
            f"no positivity violation across {prep.trials} seeded PSD inputs",
            prep.violation_count == 0,
            max(0.0, -prep.min_output_eigenvalue),
        )
    return [structural, positivity]


def maps_claims(cfg: RunConfig) -> list[Claim]:
    """Structure and positivity checks for all six maps, one job of
    ``_sweep_claims`` per (kind, n)."""
    jobs = [
        (cfg, kidx, kind, n)
        for kidx, kind in enumerate(MapKind)
        if _field_allows(cfg, kind.field)
        for n in cfg.n_values
    ]
    return _sweep_claims(_maps_sweep, jobs)


def _swapbc_sweep(cfg: RunConfig, n: int) -> list[Claim]:
    """The singular-value and characteristic-polynomial claims at one n."""
    dev = maps.swap_bc_singular_check(n, trials=cfg.trials, rng_seed=_seed(cfg, 4, n))
    rel = maps.char_poly_swap_check(
        n,
        instances=max(5, cfg.trials // 40),
        lambdas=20,
        rng_seed=_seed(cfg, 5, n),
    )
    return [
        _claim(
            f"swapbc.n={n}.singular-values",
            "sorted singular values are invariant under trading the two scalar corners",
            dev <= IDENTITY_TOL,
            dev,
        ),
        _claim(
            f"swapbc.n={n}.char-poly",
            "det(M*M - lam I) is symmetric in the scalar corners and matches the reduced n x n evaluation",
            rel <= 1e-8,
            rel,
        ),
    ]


def swapbc_claims(cfg: RunConfig) -> list[Claim]:
    """Singular values and the characteristic polynomial ignore the b-c
    swap; one job of ``_sweep_claims`` per n."""
    return _sweep_claims(_swapbc_sweep, [(cfg, n) for n in cfg.n_values])


def _ks_sweep(cfg: RunConfig, n: int) -> list[Claim]:
    """The two Schwarz claims at one n, each sweep on its own generator."""
    corner_sys = SystemId(SystemKind.FREE_CORNER, n)
    corner_map = MapId(MapKind.CORNER_TRANSPOSE, n)
    rng = np.random.default_rng(_seed(cfg, 6, n))
    worst = 0.0
    for _, k in stack_chunks(min(cfg.trials, 50), 2 * n):
        # the displays' elements f, then the Schwarz inputs e
        f = systems._draw_selfadjoint(corner_sys, rng, k)
        e = systems._draw_selfadjoint(corner_sys, rng, k)
        worst = max(worst, float(np.max(maps.corner_square_identities(f["A"], f["c"], f["d"].real))))
        ks = maps.kadison_schwarz_check(corner_map, systems._embed_fields(corner_sys, e, (k,)))
        worst = max(worst, float(np.max(np.abs(ks.defect_min_eigenvalue))))
    corner = _claim(
        f"ks.psi-transpose.free-corner.n={n}",
        "block-square displays hold entrywise and the blockwise-transpose"
        " candidate has zero Schwarz defect on the free-corner system",
        worst <= MEMBERSHIP_TOL,
        worst,
    )

    sd_sys = SystemId(SystemKind.SCALAR_DIAGONAL, n)
    sd_map = MapId(MapKind.QUARTER_TRANSPOSE, n)
    rng = np.random.default_rng(_seed(cfg, 7, n))
    worst_defect = math.inf
    for start, k in stack_chunks(min(cfg.trials, 100), 2 * n):
        inputs = []
        if start == 0 and n >= 2:
            # structured probe: meets the threshold exactly where it breaks
            B = np.zeros((1, n, n), dtype=np.complex128)
            B[0, 0, 1] = 1.0
            half = np.full(1, 0.5, dtype=np.complex128)
            inputs.append({"a": half, "d": half, "B": B, "C": B.conj().swapaxes(-1, -2)})
        inputs.append(systems._draw_selfadjoint(sd_sys, rng, k - len(inputs)))
        fields = systems._concat_fields(inputs)
        ks = maps.kadison_schwarz_check(sd_map, systems._embed_fields(sd_sys, fields, (k,)))
        worst_defect = min(worst_defect, float(np.min(ks.defect_min_eigenvalue)))
    if n <= 16:
        quarter = _claim(
            f"ks.phi.trace-averaged.n={n}",
            "trace-averaged compression candidate satisfies the Schwarz inequality on self-adjoint inputs",
            worst_defect >= -IDENTITY_TOL,
            max(0.0, -worst_defect),
        )
    else:
        quarter = _claim(
            f"ks.phi.trace-averaged.n={n}.breaks",
            "above the threshold the compression candidate shows a"
            " negative Schwarz defect, so it is no longer positive",
            worst_defect <= -MARGIN,
            worst_defect,
        )
    return [corner, quarter]


def ks_claims(cfg: RunConfig) -> list[Claim]:
    """Schwarz-inequality behavior of the forced extension candidates.

    Self-adjoint elements are drawn, and the block-square displays and the
    Schwarz defects checked, per stack of at most ``linalg.STACK_ENTRIES``
    matrix entries; one job of ``_sweep_claims`` per n.
    """
    return _sweep_claims(_ks_sweep, [(cfg, n) for n in cfg.n_values])


def norm_claims(cfg: RunConfig) -> list[Claim]:
    """The multi-start norm search against each map's known norm.

    The known norm, which the search must reach and no sampled ratio may
    exceed, is 2/sqrt(3) for upsilon-prime beyond n = 1 and 1 otherwise.
    """
    token = cfg.target
    kind = maps.MAP_KIND_BY_TOKEN[token]
    tol = 1e-4 if token == "upsilon-prime" else 1e-6
    claims: list[Claim] = []
    for n in cfg.n_values:
        m = MapId(kind, n)
        est = maps.estimate_map_norm(m, restarts=cfg.restarts, rng_seed=_seed(cfg, 8, n))
        expected = 2.0 / math.sqrt(3.0) if token == "upsilon-prime" and n > 1 else 1.0
        gap = abs(est.lower_bound - expected)
        wn = operator_norm(est.witness)
        # by the Gram eigensolve, not the SVD that gave the lower bound
        img = float(maps._spectral_norms(maps.apply(m, est.witness)))
        over = max(0.0, est.lower_bound - expected)
        claims += [
            _claim(
                f"norm.{token}.n={n}.lower-bound",
                f"multi-start search reaches the known norm {expected:.7f}",
                gap <= tol,
                gap,
                MatrixPayload.from_matrix(est.witness),
            ),
            _claim(
                f"norm.{token}.n={n}.witness-unit",
                "stored witness has unit norm",
                abs(wn - 1.0) <= IDENTITY_TOL,
                abs(wn - 1.0),
            ),
            _claim(
                f"norm.{token}.n={n}.image-norm",
                "witness image norm reproduces the reported lower bound",
                abs(img - est.lower_bound) <= IDENTITY_TOL,
                abs(img - est.lower_bound),
            ),
            _claim(
                f"norm.{token}.n={n}.upper-bound-respected",
                "no sampled ratio exceeds the closed-form upper bound",
                over <= IDENTITY_TOL,
                over,
            ),
        ]
        if token == "upsilon-prime":
            margin = maps.swap_bound_domination(
                n, samples=min(cfg.trials * 4, 10_000), rng_seed=_seed(cfg, 9, n)
            )
            claims.append(
                _claim(
                    f"norm.{token}.n={n}.bound-dominates",
                    "closed-form bound dominates the image norm on every sampled element",
                    margin >= -IDENTITY_TOL,
                    max(0.0, -margin),
                )
            )
    return claims


_CERTIFY_FN = {
    "phi": certificates.certify_quarter_transpose,
    "upsilon": certificates.certify_offdiag_swap,
    "gamma": certificates.certify_corner_transpose,
}


def _expected_outcome(which: str, n: int) -> Outcome:
    if which == "phi":
        return Outcome.CONTRADICTION if n >= 17 else Outcome.INCONCLUSIVE
    # both corner certificates: identity extension at n = 1, contradiction beyond
    return Outcome.EXTENSION_EXHIBITED if n == 1 else Outcome.CONTRADICTION


def certify_claims(cfg: RunConfig) -> list[Claim]:
    """Each certificate's verdict against the outcome expected at its size."""
    which = cfg.target
    claims: list[Claim] = []
    for n in cfg.n_values:
        v: Verdict = _CERTIFY_FN[which](n)
        expected = _expected_outcome(which, n)
        claims.append(
            _claim(
                f"certify.{which}.n={n}.outcome",
                f"verdict is {v.outcome.value}; expected {expected.value} at this size",
                v.outcome is expected,
                None,
                MatrixPayload.from_matrix(v.witnesses[0][1]) if v.witnesses else None,
            )
        )
        claims.append(
            _claim(
                f"certify.{which}.n={n}.narrative",
                f"all {len(v.narrative)} narrative residuals within declared tolerances",
                not verify_verdict_invariants(v),
                max((s.residual for s in v.narrative), default=0.0),
            )
        )
        if v.outcome is Outcome.CONTRADICTION:
            claims.append(
                _claim(
                    f"certify.{which}.n={n}.margin",
                    "violation margin clears the reporting threshold",
                    v.margin is not None and v.margin >= MARGIN,
                    v.margin,
                )
            )
        if which == "gamma" and v.outcome is Outcome.CONTRADICTION:
            # a forced image that is not self-adjoint fails by its defect, not by raising
            image = is_psd(v.witnesses[-1][1])
            residual = max(abs(image.min_eigenvalue + 1.0), image.hermiticity_defect)
            claims.append(
                _claim(
                    f"certify.{which}.n={n}.final-witness",
                    "forced image of the corner witness has eigenvalue exactly -1",
                    residual <= MEMBERSHIP_TOL,
                    residual,
                )
            )
    return claims


def suite_claims(cfg: RunConfig) -> list[Claim]:
    """Every other run in the table: verifies and certificates at the
    configured sizes, norm searches at each map's default sizes."""
    claims: list[Claim] = []
    for (command, target), runner in _RUNNERS.items():
        if command != "suite":
            n_values = NORM_DEFAULT_N[target] if command == "norm" else cfg.n_values
            claims += runner(dataclasses.replace(cfg, command=command, target=target, n_values=n_values))
    return claims


# every (command, target) pair the CLI accepts, with its runner; the suite
# runs the others in this order
_RUNNERS = {
    ("verify", "lemma"): lemma_claims,
    ("verify", "maps"): maps_claims,
    ("verify", "swapbc"): swapbc_claims,
    ("verify", "ks"): ks_claims,
    **{("norm", token): norm_claims for token in NORM_DEFAULT_N},
    **{("certify", which): certify_claims for which in _CERTIFY_FN},
    ("suite", None): suite_claims,
}


def targets(command: str) -> list[str | None]:
    """The targets of one command, in table order."""
    return [t for c, t in _RUNNERS if c == command]


def run(cfg: RunConfig) -> Report:
    """Execute a configuration and assemble the report."""
    start = time.perf_counter()
    claims = _RUNNERS[(cfg.command, cfg.target)](cfg)
    duration = time.perf_counter() - start
    return Report(config=tuple(sorted(vars(cfg).items())), claims=tuple(claims), duration_seconds=duration)
