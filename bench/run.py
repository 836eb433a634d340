"""Benchmark of opsyscheck: end-to-end and per-layer metrics per workload.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --baseline [--seed N]

A workload (see workloads.py) is a fixed list of CLI invocations.  One
repetition runs all of them, one after the other, in a fresh interpreter
(``worker.py``) through ``opsyscheck.cli.main``: a closed loop with one
caller and one command at a time.  The run repeats the workload for about
``--seconds`` seconds (at least three times) with the same seed and reports
medians.  Every repetition passes a correctness gate: exit code 0, reports
that parse as strict JSON, every claim ``pass``, claim ids equal to the
expected list, and claim arrays identical across repetitions.

``--trace 0`` reports the end-to-end metrics ``calibrated_wall_s`` (time
inside ``main`` until the JSON is written, summed over the invocations),
``setup_s`` (interpreter start through ``import opsyscheck``) and
``peak_rss_mb`` (peak resident memory of the workload process).  Both times
are rescaled to a nominal machine speed by a reference kernel that this
process times before each invocation and after the last, while the worker
waits (calibration.py).
``--trace 1`` alternates untraced and traced repetitions; the traced ones
wrap the package's functions (tracing.py) and give the per-layer metrics,
and the ratio of the two medians gives the tracing overhead.

``--baseline`` runs the default ``opsyscheck suite`` once with section
spans, then the calls of acceptance criteria 2, 3, 4 and 7 (baseline.py).
It takes a few minutes and is reported only, never gated.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (claims) and ``metrics``.  Details of
every run, including the environment, go to ``bench_results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import shutil
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracing import read_spans
from workloads import BLAS_THREADS, DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS, expected_claim_ids

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the reference kernel runs in this process, with the workload's BLAS threads
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

from calibration import NOMINAL_S, kernel_seconds  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
RESULTS = ROOT / "bench_results"

MIN_REPS = 3
MIN_TRACE_REPS = 4  # two untraced, two traced
DEADLINE_S = 150.0  # no repetition starts or runs past this point of a run
BASELINE_TIMEOUT_S = 1800.0
KERNEL_PASSES = 2  # reference-kernel passes each time the worker waits
# baseline section spans only, so the suite runs at nearly full speed
BASELINE_TRACE = ("suite.", "maps.norm_search", "certificates.certify")

END_TO_END_UNITS = {"calibrated_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (missing source, no completed run)."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------- correctness


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in JSON")


def claims_of(text: str) -> list[dict]:
    """The claim array of a report, parsed as strict JSON (no NaN/Infinity)."""
    doc = json.loads(text, parse_constant=_reject_constant)
    claims = doc.get("claims") if isinstance(doc, dict) else None
    if not isinstance(claims, list) or not all(isinstance(c, dict) for c in claims):
        raise ValueError("report has no claim array")
    return claims


@dataclasses.dataclass
class Gate:
    attempted: int
    failed: int
    claims: list | None  # per invocation, None when any invocation failed the gate
    problems: list[str]


def check_reports(commands: list[list[str]], codes: list[int] | None, texts: list[str | None]) -> Gate:
    """Gate one repetition.  An invocation with a nonzero exit, a missing or
    invalid report, or a wrong claim-id list counts all its claims failed."""
    attempted = failed = 0
    all_claims: list | None = []
    problems: list[str] = []
    for k, argv in enumerate(commands):
        expected = expected_claim_ids(argv)
        attempted += len(expected)
        problem = None
        if codes is None or k >= len(codes):
            problem = "did not run"
        elif codes[k] != 0:
            problem = f"exit code {codes[k]}"
        elif texts[k] is None:
            problem = "wrote no report"
        else:
            try:
                claims = claims_of(texts[k])
            except ValueError as exc:
                problem = f"invalid report: {exc}"
            else:
                if [c.get("id") for c in claims] != expected:
                    problem = "claim ids differ from the expected list"
        if problem is not None:
            failed += len(expected)
            problems.append(f"opsyscheck {' '.join(argv)}: {problem}")
            all_claims = None
            continue
        not_pass = [c["id"] for c in claims if c.get("status") != "pass"]
        failed += len(not_pass)
        problems += [f"claim {cid} is not pass" for cid in not_pass]
        if all_claims is not None:
            all_claims.append(claims)
    return Gate(attempted, failed, all_claims, problems)


# ---------------------------------------------------------------- processes


@dataclasses.dataclass
class Rep:
    traced: bool
    exit_code: int
    result: dict | None
    setup_s: float | None
    peak_rss_mb: float
    out_dir: Path
    kernels: list[float]  # reference-kernel times taken while the worker waited


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env  # with the BLAS thread variables set at import


def _serve(proc: subprocess.Popen, requests: int, replies: int, timeout_s: float) -> list[float]:
    """Time the reference kernel each time the worker asks and waits, until it
    exits; kill it if the timeout passes first."""
    deadline = _now() + timeout_s
    kernels = []
    while (remaining := deadline - _now()) > 0:
        if not select.select([requests], [], [], remaining)[0]:
            continue
        if not os.read(requests, 1):  # the worker exited
            break
        kernels += [kernel_seconds() for _ in range(KERNEL_PASSES)]
        try:
            os.write(replies, b"g")
        except BrokenPipeError:  # it died while waiting; the next read sees that
            pass
    else:
        proc.kill()
    return kernels


def _reap(proc: subprocess.Popen):
    """Wait for the worker to end; its exit code and resource usage."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_rep(job: dict, out_dir: Path, timeout_s: float) -> Rep:
    """Run one repetition in a fresh interpreter."""
    out_dir.mkdir(parents=True)
    requests, worker_requests = os.pipe()  # worker to benchmark: "time the kernel now"
    worker_replies, replies = os.pipe()  # benchmark to worker: "done, go on"
    job = dict(job, out_dir=str(out_dir), sync_fds=[worker_requests, worker_replies])
    job_path = out_dir / "job.json"
    job_path.write_text(json.dumps(job))
    try:
        with open(out_dir / "worker.log", "w") as log:
            start = _now()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), str(job_path)],
                cwd=ROOT,
                env=_worker_env(),
                stdout=log,
                stderr=subprocess.STDOUT,
                pass_fds=(worker_requests, worker_replies),
            )
            os.close(worker_requests)
            os.close(worker_replies)
            worker_requests = worker_replies = -1
            try:
                kernels = _serve(proc, requests, replies, timeout_s)
            except BaseException:  # interrupted: leave no worker behind
                proc.kill()
                _reap(proc)
                raise
            code, usage = _reap(proc)
    finally:
        for fd in (requests, replies, worker_requests, worker_replies):
            if fd >= 0:
                os.close(fd)
    result_path = out_dir / "result.json"
    result = json.loads(result_path.read_text()) if code == 0 and result_path.is_file() else None
    return Rep(
        traced=bool(job["trace"]),
        exit_code=code,
        result=result,
        setup_s=result["ready"] - start if result else None,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        out_dir=out_dir,
        kernels=kernels,
    )


def speed_factor(kernels: list[float]) -> float:
    """NOMINAL_S over the median of the reference-kernel times of a run.

    A time multiplied by it is the time on a machine that runs the kernel in
    NOMINAL_S.  The median over the whole run ignores the odd kernel pass
    that a burst of load on the host slowed down."""
    return NOMINAL_S / statistics.median(kernels)


def _report_texts(rep: Rep, count: int) -> list[str | None]:
    paths = [rep.out_dir / f"report{k}.json" for k in range(count)]
    return [p.read_text() if p.is_file() else None for p in paths]


# ---------------------------------------------------------------- per-layer metrics


def _keys(workload: str, flag: str) -> list[str]:
    """``<target>-n<n>`` for every size of every invocation of a workload."""
    return [
        f"{argv[argv.index(flag) + 1]}-n{n}"
        for argv in WORKLOADS[workload]
        for n in argv[argv.index("--n") + 1].split(",")
    ]


NORM_KEYS = _keys("norm-search", "--map")
CERTIFY_KEYS = _keys("certify-ladder", "--which")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name's suffix."""
    if name.endswith(("_us", "_us_p50")):
        return "us"
    if name.endswith("_s") or "_s." in name:
        return "s"
    for suffix, unit in (("_ratio", "ratio"), ("_bytes", "bytes"), ("_gap_max", "norm")):
        if name.endswith(suffix):
            return unit
    return "count"


def layer_metrics(spans: list[tuple], claims: list[list[dict]], json_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    A span is (name, key, start_ns, end_ns, parent, self_ns, value).  Layers
    the workload never reaches report zero calls and zero time.
    """
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[0]].append(span)

    def total_s(name, key=None):
        return sum(s[3] - s[2] for s in by_name[name] if key in (None, s[1])) / 1e9

    def values(name, key=None):
        return sum(s[6] for s in by_name[name] if key in (None, s[1]))

    def per_unit_us(seconds, count):
        return seconds * 1e6 / count if count else 0.0

    m: dict[str, float] = {"suite.self_s": sum(s[5] for s in spans if s[0].startswith("suite.")) / 1e9}
    for name in ("systems.draw", "systems.embed", "systems.contains", "systems.criterion", "maps.apply",
                 "maps.corner_square_identities", "linalg.is_psd", "linalg.hermitian_eigenvalues",
                 "certificates.schur_implication", "report.from_matrix"):
        selfs = [s[5] for s in by_name[name]]
        m[f"{name}.calls"] = len(selfs)
        m[f"{name}.self_us_p50"] = statistics.median(selfs) / 1e3 if selfs else 0.0
    margins = [s[6] for s in by_name["systems.margin"]]
    m["systems.margin.calls"] = len(margins)
    m["systems.margin_kept_ratio"] = sum(v > 1e-6 for v in margins) / len(margins) if margins else 0.0
    m["maps.positivity.trials"] = values("maps.positivity", "n4")
    m["maps.positivity.trial_us"] = per_unit_us(total_s("maps.positivity", "n4"), m["maps.positivity.trials"])
    for key in NORM_KEYS:
        m[f"maps.norm_search_s.{key}"] = total_s("maps.norm_search", key)
    m["maps.norm_search.restarts"] = values("maps.norm_search")
    m["maps.norm_search.evals"] = values("maps.minimize")
    m["maps.norm_search.eval_us"] = per_unit_us(total_s("maps.minimize"), m["maps.norm_search.evals"])
    gaps = [c["residual"] for cs in claims for c in cs if re.fullmatch(r"norm\..*\.lower-bound", c["id"])]
    m["maps.norm_gap_max"] = max(gaps, default=0.0)
    m["maps.swap_bound.samples"] = values("maps.swap_bound")
    m["maps.swap_bound.sample_us"] = per_unit_us(total_s("maps.swap_bound"), m["maps.swap_bound.samples"])
    m["linalg.operator_norm.calls"] = len(by_name["linalg.operator_norm"])
    for key in CERTIFY_KEYS:
        m[f"certificates.certify_s.{key}"] = total_s("certificates.certify", key)
    m["certificates.lower_right_forcing.calls"] = len(by_name["certificates.lower_right_forcing"])
    m["certificates.lower_right_forcing_s"] = total_s("certificates.lower_right_forcing")
    m["certificates.verify_invariants.calls"] = len(by_name["certificates.verify_invariants"])
    m["certificates.verify_invariants_s"] = total_s("certificates.verify_invariants")
    m["report.to_json.calls"] = len(by_name["report.to_json"])
    m["report.to_json_s"] = total_s("report.to_json")
    m["report.json_bytes"] = json_bytes
    m["trace.spans"] = len(spans)
    return m


# ---------------------------------------------------------------- runs


def environment() -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git not available)"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: str(BLAS_THREADS) for var in THREAD_VARS},
        "git_commit": commit,
    }


def run_workload(name: str, commands: list[list[str]], seed: int, seconds: float, trace: bool) -> dict:
    """Repeat a workload for about ``seconds``; gate and summarise every repetition."""
    run_dir = RESULTS / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    start = _now()
    reps: list[Rep] = []
    gates: list[Gate] = []
    reference = None
    while True:
        traced = trace and len(reps) % 2 == 1
        job = {
            "kind": "workload",
            "commands": commands,
            "seed": seed,
            "trace": [""] if traced else [],
            "run_id": f"{name}/seed{seed}/rep{len(reps)}",
            "environment": not reps,
        }
        rep = run_rep(job, run_dir / f"rep{len(reps)}", max(DEADLINE_S - (_now() - start), 1.0))
        codes = rep.result["codes"] if rep.result else None
        gate = check_reports(commands, codes, _report_texts(rep, len(commands)))
        if rep.exit_code != 0:  # no result, so check_reports counted every claim failed
            gate.problems.append(f"worker exited with code {rep.exit_code}, see {rep.out_dir / 'worker.log'}")
        if gate.claims is not None:
            canonical = json.dumps(gate.claims, sort_keys=True)
            if reference is None:
                reference = canonical
            elif canonical != reference:
                gate.failed = gate.attempted
                gate.problems.append("claim arrays differ from the first repetition with the same seed")
        reps.append(rep)
        gates.append(gate)
        elapsed = _now() - start
        projected = elapsed * (len(reps) + 1) / len(reps)
        if projected > DEADLINE_S or (len(reps) >= (MIN_TRACE_REPS if trace else MIN_REPS) and projected > seconds):
            break

    done = [(r, g) for r, g in zip(reps, gates) if r.result is not None]
    untraced = [r for r, _ in done if not r.traced]
    if not untraced:
        raise BenchmarkError(f"no repetition of {name} completed; see {run_dir}")
    summary = {
        "workload": name,
        "seed": seed,
        "commands": commands,
        "runs": len(untraced),
        "attempted": sum(g.attempted for g in gates),
        "failed": sum(g.failed for g in gates),
        "problems": sorted({p for g in gates for p in g.problems}),
        "environment": {**environment(), **(reps[0].result or {}).get("environment", {})},
        "reps": [
            {"traced": r.traced, "exit_code": r.exit_code, "setup_s": r.setup_s, "peak_rss_mb": r.peak_rss_mb,
             "wall_s": sum(r.result["walls"]) if r.result else None, "failed": g.failed}
            for r, g in zip(reps, gates)
        ],
        "kernel_s": [r.kernels for r in reps],
    }
    factor = speed_factor([k for r in reps for k in r.kernels])
    raw_wall = statistics.median(sum(r.result["walls"]) for r in untraced)
    raw_setup = statistics.median(r.setup_s for r in untraced)
    untraced_wall = raw_wall * factor
    # reported beside the metrics, to show how fast the machine ran
    summary["uncalibrated"] = {"wall_s": raw_wall, "setup_s": raw_setup, "kernel_s": NOMINAL_S / factor}
    if not trace:
        summary["metrics"] = {
            "calibrated_wall_s": untraced_wall,
            "setup_s": raw_setup * factor,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in untraced),
        }
        return summary
    traced = [(r, g) for r, g in done if r.traced and g.claims is not None]
    if not traced:
        raise BenchmarkError(f"no traced repetition of {name} passed the gate; see {run_dir}")
    per_rep = [
        layer_metrics(
            read_spans(r.out_dir / "spans.jsonl"),
            g.claims,
            sum(len(t) for t in _report_texts(r, len(commands))),
        )
        for r, g in traced
    ]
    metrics = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
    traced_wall = statistics.median(sum(r.result["walls"]) for r, _ in traced) * factor
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    summary["traced_runs"] = len(traced)
    summary["metrics"] = metrics
    return summary


def run_baseline(seed: int) -> dict:
    run_dir = RESULTS / f"baseline-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    job = {"kind": "baseline", "commands": [], "seed": seed, "trace": list(BASELINE_TRACE),
           "run_id": f"baseline/seed{seed}", "environment": True}
    rep = run_rep(job, run_dir, BASELINE_TIMEOUT_S)
    if rep.result is None:
        raise BenchmarkError(f"baseline run failed; see {run_dir / 'worker.log'}")
    claims = claims_of((run_dir / "report0.json").read_text())
    end = rep.result["suite_end_ns"]
    sections: dict[str, float] = defaultdict(float)
    for name, key, start_ns, end_ns, *_ in read_spans(run_dir / "spans.jsonl"):
        if end_ns > end:
            continue
        section = {"suite.norm": f"norm-{key}", "maps.norm_search": f"norm-{key}",
                   "suite.certify": f"certify-{key}", "certificates.certify": f"certify-{key}"}.get(
            name, name.removeprefix("suite."))
        sections[section] += (end_ns - start_ns) / 1e9
    return {
        "seed": seed,
        "suite_wall_s": rep.result["walls"][0],
        "suite_exit_code": rep.result["codes"][0],
        "claims": len(claims),
        "claims_not_pass": sum(c.get("status") != "pass" for c in claims),
        "sections_s": dict(sections),
        "criteria": rep.result["criteria"],
        "environment": {**environment(), **rep.result["environment"]},
    }


# ---------------------------------------------------------------- output


def _print_summary(summary: dict, unit) -> None:
    print(f"workload {summary['workload']}  seed {summary['seed']}")
    for key, value in summary["environment"].items():
        print(f"  env {key}: {value}")
    runs = summary["runs"]
    if "traced_runs" in summary:
        runs = f"{summary['traced_runs']} traced, {runs} untraced"
    for name, value in summary["metrics"].items():
        print(f"  {name:<48} {value:>16.6g} {unit(name):<6} median of {runs} runs")
    passes = sum(len(k) for k in summary["kernel_s"])
    for name, value in summary["uncalibrated"].items():
        count = f"{passes} passes" if name == "kernel_s" else f"{summary['runs']} runs"
        print(f"  {name + ' (uncalibrated)':<48} {value:>16.6g} s      median of {count}")
    ratio = summary["failed"] / summary["attempted"]
    print(f"  {'claim_fail_ratio':<48} {ratio:>16.6g} ratio  {summary['failed']} of {summary['attempted']} claims")
    for problem in summary["problems"]:
        print(f"  FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="opsyscheck benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"default {DEFAULT_SEED}, holdout {HOLDOUT_SEED}")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true", help="time the default suite and criteria 2, 3, 4, 7")
    args = parser.parse_args(argv)
    # turn termination into an exception, so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not args.baseline and args.workload is None:
        parser.error("give --workload or --baseline")
    if not (SRC / "opsyscheck" / "__init__.py").is_file():
        print(f"error: no opsyscheck source under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    try:
        if args.baseline:
            baseline = run_baseline(args.seed)
            (RESULTS / f"baseline-seed{args.seed}.json").write_text(json.dumps(baseline, indent=2))
            print(json.dumps(baseline, indent=2))
            return 0
        summary = run_workload(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(summary, indent=2))
    unit = layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    _print_summary(summary, unit)
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in summary["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
