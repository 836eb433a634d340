"""Self-test of the benchmark harness, on the workloads at tiny sizes.

Run from the repository root: ``python3 -m pytest bench/test_harness.py``
(about a minute).  Checks that every metric named in BENCHMARK.json is
emitted with its unit, that span self times are non-negative, and that the
correctness gate rejects corrupted reports.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from tracing import read_spans
from workloads import TINY_WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# the layer each workload exists to exercise
EXERCISED = {
    "verify-sweep": "systems.draw.calls",
    "norm-search": "maps.norm_search.evals",
    "certify-ladder": "linalg.hermitian_eigenvalues.calls",
}


@pytest.fixture(scope="module")
def summaries(tmp_path_factory):
    """Run each tiny workload untraced and traced once; results by (name, trace)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "RESULTS", tmp_path_factory.mktemp("results"))
        yield {
            (name, trace): run.run_workload(name, commands, seed=0, seconds=0, trace=trace)
            for name, commands in TINY_WORKLOADS.items()
            for trace in (False, True)
        }, run.RESULTS


@pytest.mark.parametrize("name", sorted(TINY_WORKLOADS))
def test_end_to_end_metrics(summaries, name):
    summary = summaries[0][(name, False)]
    assert summary["failed"] == 0, summary["problems"]
    assert summary["runs"] >= run.MIN_REPS
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: run.END_TO_END_UNITS[k] for k in summary["metrics"]} == expected
    assert all(v > 0 for v in summary["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY_WORKLOADS))
def test_times_are_calibrated_by_kernel_around_every_invocation(summaries, name):
    summary = summaries[0][(name, False)]
    # timed before each invocation and after the last
    passes = run.KERNEL_PASSES * (len(TINY_WORKLOADS[name]) + 1)
    assert [len(k) for k in summary["kernel_s"]] == [passes] * len(summary["reps"])
    assert all(k > 0 for ks in summary["kernel_s"] for k in ks)
    uncalibrated = summary["uncalibrated"]
    factor = run.NOMINAL_S / uncalibrated["kernel_s"]
    assert summary["metrics"]["calibrated_wall_s"] == pytest.approx(uncalibrated["wall_s"] * factor)
    assert summary["metrics"]["setup_s"] == pytest.approx(uncalibrated["setup_s"] * factor)


def test_speed_factor_is_nominal_over_median_kernel():
    nominal = run.NOMINAL_S
    assert run.speed_factor([nominal] * 3) == pytest.approx(1.0)
    # a machine at half speed, with one pass slowed further by a burst of load
    assert run.speed_factor([2 * nominal, 9 * nominal, 2 * nominal]) == pytest.approx(0.5)


@pytest.mark.parametrize("name", sorted(TINY_WORKLOADS))
def test_layer_metrics_and_spans(summaries, name):
    summary = summaries[0][(name, True)]
    assert summary["failed"] == 0, summary["problems"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: run.layer_unit(k) for k in summary["metrics"]} == expected
    assert summary["metrics"][EXERCISED[name]] > 0
    assert summary["metrics"]["suite.self_s"] > 0

    run_dir = summaries[1] / f"{name}-seed0-trace1"
    traced = [d for d in sorted(run_dir.iterdir()) if (d / "spans.jsonl").is_file()]
    assert len(traced) == summary["traced_runs"]
    for rep_dir in traced:
        spans = read_spans(rep_dir / "spans.jsonl")
        assert spans
        for span in spans:
            _, _, start, end, parent, self_ns, _ = span
            assert self_ns >= 0 and end >= start
            if parent >= 0:
                assert spans[parent][2] <= start and end <= spans[parent][3]


@pytest.fixture(scope="module")
def report(summaries):
    """A valid report text of the tiny verify-sweep, with its invocation."""
    path = summaries[1] / "verify-sweep-seed0-trace0" / "rep0" / "report0.json"
    return TINY_WORKLOADS["verify-sweep"][:1], path.read_text()


def test_gate_accepts_valid_report(report):
    commands, text = report
    gate = run.check_reports(commands, [0], [text])
    assert gate.failed == 0 and gate.attempted > 0 and gate.claims is not None


def _drop_last_claim(text):
    doc = json.loads(text)
    doc["claims"].pop()
    return json.dumps(doc)


@pytest.mark.parametrize(
    "corrupt, code, all_failed",
    [
        (lambda t: t.replace('"residual": 0.0', '"residual": NaN', 1), 0, True),
        (lambda t: t.replace('"residual": 0.0', '"residual": Infinity', 1), 0, True),
        (lambda t: t[: len(t) // 2], 0, True),
        (_drop_last_claim, 0, True),
        (lambda t: t, 1, True),
        (lambda t: t.replace('"status": "pass"', '"status": "fail"', 1), 0, False),
    ],
    ids=["nan", "infinity", "truncated", "dropped-claim", "nonzero-exit", "failed-claim"],
)
def test_gate_rejects_corrupted_report(report, corrupt, code, all_failed):
    commands, text = report
    bad = corrupt(text)
    assert bad != text or code != 0
    gate = run.check_reports(commands, [code], [bad])
    assert gate.failed == (gate.attempted if all_failed else 1)
    assert gate.problems


def test_gate_counts_missing_report(report):
    commands, _ = report
    gate = run.check_reports(commands, None, [None])
    assert gate.failed == gate.attempted


def test_refuses_to_run_without_source(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "verify-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
