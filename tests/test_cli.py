"""Tests for the run configuration, report serialization and the CLI."""

import importlib
import importlib.util
import inspect
import json
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opsyscheck.cli as cli
from opsyscheck import certificates, suite
from opsyscheck import (
    Claim,
    ConfigError,
    MatrixPayload,
    NonFiniteError,
    Report,
    RunConfig,
    claims_to_json,
    render_text,
    report_from_json,
    report_to_csv,
    report_to_json,
    run,
)
from opsyscheck.cli import build_parser, config_from_args, main, parse_n_values


def test_parse_n_values_forms():
    assert parse_n_values("4") == (4,)
    assert parse_n_values("2..5") == (2, 3, 4, 5)
    assert parse_n_values("1,2,4") == (1, 2, 4)
    assert parse_n_values("1,3..5") == (1, 3, 4, 5)


def test_parse_n_values_errors():
    for bad in ("", "a", "3..1", "2,,4", "1..x"):
        with pytest.raises(ConfigError):
            parse_n_values(bad)


def test_wide_size_range_is_refused_before_it_is_expanded():
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError):
            parse_n_values("1..1000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"
    with pytest.raises(ConfigError):
        parse_n_values("0..3")


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(command="verify", target="lemma", n_values=(0,))
    with pytest.raises(ConfigError):
        RunConfig(command="verify", target="lemma", n_values=(65,))
    with pytest.raises(ConfigError):
        RunConfig(command="verify", target="lemma", trials=0)
    with pytest.raises(ConfigError):
        RunConfig(command="norm", target="phi", restarts=-1)
    with pytest.raises(ConfigError):
        RunConfig(command="verify", target="lemma", field="quaternion")
    # unknown commands and targets surface when the run is dispatched
    with pytest.raises(ConfigError):
        run(RunConfig(command="bogus"))
    with pytest.raises(ConfigError):
        run(RunConfig(command="verify", target="nope"))


def test_config_defaults_per_command():
    parser = build_parser()
    cfg = config_from_args(parser.parse_args(["verify", "lemma"]))
    assert cfg.n_values == (1, 2, 3, 4)
    cfg = config_from_args(parser.parse_args(["norm", "--map", "upsilon-prime"]))
    assert cfg.target == "upsilon-prime"
    assert cfg.n_values == (2, 3, 4)
    cfg = config_from_args(parser.parse_args(["certify", "--which", "gamma"]))
    assert cfg.n_values == (2,)
    cfg = config_from_args(parser.parse_args(["suite"]))
    assert cfg.command == "suite" and cfg.target is None


def test_seed_resolution(monkeypatch):
    parser = build_parser()
    monkeypatch.delenv("OPSYS_SEED", raising=False)
    assert config_from_args(parser.parse_args(["verify", "lemma"])).seed == 0
    monkeypatch.setenv("OPSYS_SEED", "9")
    assert config_from_args(parser.parse_args(["verify", "lemma"])).seed == 9
    # the flag wins over the environment
    assert config_from_args(parser.parse_args(["verify", "lemma", "--seed", "5"])).seed == 5
    monkeypatch.setenv("OPSYS_SEED", "ten")
    with pytest.raises(ConfigError):
        config_from_args(parser.parse_args(["verify", "lemma"]))


def test_matrix_payload_round_trip_exact():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    p = MatrixPayload.from_matrix(M)
    assert p.field == "complex"
    back = p.to_matrix()
    assert np.array_equal(back, M)
    R = rng.normal(size=(2, 2))
    p2 = MatrixPayload.from_matrix(R)
    assert p2.field == "real"
    assert p2.to_matrix().dtype.kind == "f"
    assert np.array_equal(p2.to_matrix(), R)
    p3 = MatrixPayload.from_dict(p.to_dict())
    assert p3 == p


def test_claim_round_trip():
    c = Claim(id="x.y", anchor="some statement", status="pass", residual=1e-12)
    assert Claim.from_dict(c.to_dict()) == c
    w = MatrixPayload.from_matrix(np.eye(2))
    c2 = Claim(id="x.z", anchor="with witness", status="fail", residual=2.0, witness=w)
    assert Claim.from_dict(c2.to_dict()) == c2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_claim_rejects_non_finite_residual(bad):
    with pytest.raises(NonFiniteError):
        Claim(id="x.y", anchor="some statement", status="pass", residual=bad)


def test_claims_json_rejects_non_finite():
    w = MatrixPayload.from_matrix(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        claims_to_json((Claim(id="x.y", anchor="a", status="pass", witness=w),))


def test_report_json_rejects_non_finite():
    claims = (Claim(id="x.y", anchor="a", status="pass", residual=0.0),)
    with pytest.raises(ValueError):
        report_to_json(Report(config=(), claims=claims, duration_seconds=float("inf")))


def test_claims_json_deterministic():
    r1 = run(RunConfig(command="verify", target="swapbc", n_values=(2,), trials=60, seed=3))
    r2 = run(RunConfig(command="verify", target="swapbc", n_values=(2,), trials=60, seed=3))
    assert claims_to_json(r1.claims) == claims_to_json(r2.claims)
    r3 = run(RunConfig(command="verify", target="swapbc", n_values=(2,), trials=60, seed=4))
    assert claims_to_json(r1.claims) != claims_to_json(r3.claims) or (
        [c.status for c in r1.claims] == [c.status for c in r3.claims]
    )


def test_report_json_round_trip():
    r = run(RunConfig(command="certify", target="upsilon", n_values=(1, 2), seed=0))
    back = report_from_json(report_to_json(r))
    assert report_to_json(back) == report_to_json(r)
    d = json.loads(report_to_json(r))
    assert set(d) == {"version", "config", "claims", "summary", "duration_seconds"}
    assert d["summary"]["fail"] == 0


# finite doubles, with signed zeros, subnormals and the edges of the range
# drawn often
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def claims(draw):
    witness = None
    if draw(st.booleans()):
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        entries = draw(st.lists(st.tuples(FINITE, FINITE), min_size=rows * cols, max_size=rows * cols))
        field = draw(st.sampled_from(["real", "complex"]))
        witness = MatrixPayload(rows=rows, cols=cols, field=field, entries=tuple(entries))
    return Claim(
        id=draw(st.text(max_size=12)),
        anchor=draw(st.text(max_size=24)),
        status=draw(st.sampled_from(["pass", "fail", "inconclusive"])),
        residual=draw(st.none() | FINITE),
        witness=witness,
    )


@settings(max_examples=60, deadline=None)
@given(claim_list=st.lists(claims(), max_size=4), duration=FINITE, seed=st.integers(0, 2**63 - 1))
def test_report_json_round_trip_byte_identical(claim_list, duration, seed):
    """Re-serializing a parsed report reproduces its JSON byte for byte."""
    config = (("command", "suite"), ("n_values", [1, 2]), ("seed", seed), ("target", None))
    text = report_to_json(Report(config=config, claims=tuple(claim_list), duration_seconds=duration))
    assert report_to_json(report_from_json(text)) == text


def test_report_csv_and_text():
    r = run(RunConfig(command="verify", target="swapbc", n_values=(2,), trials=50, seed=0))
    csv_text = report_to_csv(r)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "id,status,residual,anchor"
    assert len(lines) == 1 + len(r.claims)
    text = render_text(r)
    assert "summary:" in text
    assert all(c.id in text for c in r.claims)


def test_report_counts_and_failed_flag():
    claims = (
        Claim(id="a", anchor="s", status="pass", residual=0.0),
        Claim(id="b", anchor="s", status="fail", residual=1.0),
        Claim(id="c", anchor="s", status="inconclusive", residual=None),
    )
    r = Report(config=(("command", "verify"),), claims=claims, duration_seconds=0.1)
    assert r.counts == {"pass": 1, "fail": 1, "inconclusive": 1}
    assert r.failed


def test_main_exit_zero_and_text_output(capsys):
    rc = main(["verify", "swapbc", "--n", "2", "--trials", "40"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "summary:" in captured.out
    assert "swapbc.n=2.singular-values" in captured.out


def test_main_exit_two_on_bad_config(capsys):
    rc = main(["verify", "lemma", "--n", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "configuration error" in captured.err


@pytest.mark.parametrize("sizes", ["2,2", "2..4,3"])
def test_main_exit_two_on_repeated_size(sizes, capsys):
    # a repeated size would emit the same claim id twice
    rc = main(["certify", "--which", "phi", "--n", sizes])
    captured = capsys.readouterr()
    assert rc == 2
    assert "repeated block size" in captured.err
    assert captured.out == ""


def test_main_exit_one_on_failure(monkeypatch, capsys):
    failing = Report(
        config=(("command", "verify"),),
        claims=(Claim(id="z", anchor="s", status="fail", residual=9.9),),
        duration_seconds=0.0,
    )
    monkeypatch.setattr(cli, "run", lambda cfg: failing)
    rc = main(["verify", "swapbc"])
    capsys.readouterr()
    assert rc == 1


def test_main_json_output(capsys):
    rc = main(["certify", "--which", "upsilon", "--n", "1,2", "--output", "json"])
    captured = capsys.readouterr()
    assert rc == 0
    d = json.loads(captured.out)
    assert d["config"]["target"] == "upsilon"
    ids = [c["id"] for c in d["claims"]]
    assert any(i.startswith("certify.upsilon.n=1") for i in ids)


def test_main_output_path(tmp_path, capsys):
    out = tmp_path / "claims.json"
    rc = main(
        ["verify", "swapbc", "--n", "2", "--trials", "40", "--output", "json",
         "--output-path", str(out)]
    )
    capsys.readouterr()
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["summary"]["fail"] == 0


def test_norm_claims_include_witness_payload():
    r = run(RunConfig(command="norm", target="upsilon", n_values=(2,), restarts=6, seed=0))
    by_id = {c.id: c for c in r.claims}
    lb = by_id["norm.upsilon.n=2.lower-bound"]
    assert lb.status == "pass"
    assert lb.witness is not None
    W = lb.witness.to_matrix()
    assert abs(np.linalg.norm(W, 2) - 1.0) < 1e-9


def test_suite_command_small():
    r = run(RunConfig(command="suite", n_values=(1, 2), trials=60, restarts=4, seed=0))
    assert not r.failed
    prefixes = {c.id.split(".")[0] for c in r.claims}
    assert {"lemma", "maps", "swapbc", "ks", "norm", "certify"} <= prefixes


@pytest.mark.parametrize("token", ["phi", "upsilon", "upsilon-prime", "gamma"])
def test_norm_claim_ids_are_pinned(token):
    r = run(RunConfig(command="norm", target=token, n_values=(1, 2), restarts=3, trials=20, seed=0))
    parts = ["lower-bound", "witness-unit", "image-norm", "upper-bound-respected"]
    if token == "upsilon-prime":
        parts.append("bound-dominates")
    assert [c.id for c in r.claims] == [f"norm.{token}.n={n}.{part}" for n in (1, 2) for part in parts]
    assert all(c.status == "pass" for c in r.claims), [c.id for c in r.claims if c.status != "pass"]


# the claim ids of each verify and certify target, written out from the
# claim-building rules rather than read off the program; each lemma kind and
# map in report order, with its field
LEMMA_FIELDS = {
    "transpose-paired": "real",
    "transpose-paired-complex": "complex",
    "free-corner": "complex",
    "free-corner-real": "real",
}
MAP_FIELDS = {
    "phi": "complex",
    "upsilon": "real",
    "upsilon-prime": "complex",
    "gamma": "complex",
    "psi-transpose": "complex",
    "psi-real-ext": "real",
}
PINNED_N = (1, 2, 17)


def _verify_ids(target, field):
    ns = PINNED_N
    if target == "lemma":
        return [f"lemma.{kind}.n={n}.agreement" for kind, f in LEMMA_FIELDS.items() if field in ("both", f) for n in ns]
    if target == "maps":
        ids = []
        for token in (t for t, f in MAP_FIELDS.items() if field in ("both", f)):
            for n in ns:
                last = "violation-found" if token == "psi-transpose" and n >= 2 else "positive-inputs"
                ids += [f"maps.{token}.n={n}.structural", f"maps.{token}.n={n}.{last}"]
        return ids
    if target == "swapbc":
        return [f"swapbc.n={n}.{part}" for n in ns for part in ("singular-values", "char-poly")]
    ids = []
    for n in ns:
        ids += [f"ks.psi-transpose.free-corner.n={n}", f"ks.phi.trace-averaged.n={n}" + (".breaks" if n > 16 else "")]
    return ids


@pytest.mark.parametrize(
    "target, field",
    [("lemma", f) for f in ("both", "real", "complex")]
    + [("maps", f) for f in ("both", "real", "complex")]
    + [("swapbc", "both"), ("ks", "both")],
)
def test_verify_claim_ids_are_pinned(target, field):
    cfg = RunConfig(command="verify", target=target, n_values=PINNED_N, field=field, trials=20, seed=0)
    claims = run(cfg).claims
    assert [c.id for c in claims] == _verify_ids(target, field)
    assert all(c.status == "pass" for c in claims), [c.id for c in claims if c.status != "pass"]


@pytest.mark.parametrize("which", ["phi", "upsilon", "gamma"])
def test_certify_claim_ids_are_pinned(which):
    ns = (1, 2, 16, 17)
    claims = run(RunConfig(command="certify", target=which, n_values=ns, seed=0)).claims
    expected = []
    for n in ns:
        contradiction = n >= 17 if which == "phi" else n >= 2
        parts = ["outcome", "narrative"] + ["margin"] * contradiction
        parts += ["final-witness"] * (contradiction and which == "gamma")
        expected += [f"certify.{which}.n={n}.{part}" for part in parts]
    assert [c.id for c in claims] == expected
    assert all(c.status == "pass" for c in claims), [c.id for c in claims if c.status != "pass"]


def test_benchmark_tracing_hooks_resolve():
    # bench/tracing.py wraps these names from outside the package; a renamed
    # or moved one would silently drop its spans to zero
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr, _, _ in tracing.TARGETS:
        if module_name.split(".")[0] != "opsyscheck":
            continue
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"
    # the tracer rebinds dispatch-table values that are the functions themselves
    for table, module in ((suite._RUNNERS, suite), (suite._CERTIFY_FN, certificates)):
        for key, fn in table.items():
            assert getattr(module, getattr(fn, "__name__", ""), None) is fn, key
    # the span label of the norm and certify sections reads the argument cfg
    for fn in (suite.norm_claims, suite.certify_claims):
        assert list(inspect.signature(fn).parameters) == ["cfg"], fn.__name__


# ---------------------------------------------------------------------------
# The verify sweeps on threads.


@pytest.mark.parametrize("target", ["lemma", "maps", "swapbc", "ks"])
def test_verify_claims_do_not_depend_on_the_cpu_count(target, monkeypatch):
    cfg = RunConfig(command="verify", target=target, n_values=(1, 2, 17), trials=50, seed=0)
    arrays = []
    for cpus in (1, 2):
        monkeypatch.setattr(suite, "_usable_cpus", lambda cpus=cpus: cpus)
        arrays.append(claims_to_json(run(cfg).claims))
    assert arrays[0] == arrays[1]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("jobs", [1, 2, 5])
def test_sweep_jobs_start_no_more_threads_than_jobs_or_cpus(jobs, cpus, monkeypatch):
    monkeypatch.setattr(suite, "_usable_cpus", lambda: cpus)
    before = threading.active_count()
    seen = []

    def sweep(j):
        seen.append((threading.get_ident(), threading.active_count()))
        time.sleep(0.01)  # lets an idle pool start another thread if it would
        return [j, -j]

    got = suite._sweep_claims(sweep, [(j,) for j in range(jobs)])
    assert got == [v for j in range(jobs) for v in (j, -j)]
    workers = min(jobs, cpus)
    idents = {ident for ident, _ in seen}
    assert len(idents) <= workers
    if workers == 1:  # serial, in the caller's thread
        assert idents == {threading.get_ident()}
    assert max(count for _, count in seen) <= before + (workers if workers > 1 else 0)


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(suite.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert suite._usable_cpus() == 1
    monkeypatch.delattr(suite.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(suite.os, "cpu_count", lambda: 3)
    assert suite._usable_cpus() == 3


def test_an_error_inside_a_sweep_job_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(suite, "_usable_cpus", lambda: 2)
    lemma_stack = suite._lemma_stack

    def failing_stack(s, rng, start, k):
        if s.n == 2:
            raise NonFiniteError("matrix has NaN or infinite entries")
        return lemma_stack(s, rng, start, k)

    monkeypatch.setattr(suite, "_lemma_stack", failing_stack)
    with pytest.raises(NonFiniteError):
        run(RunConfig(command="verify", target="lemma", n_values=(1, 2, 17), trials=20, seed=0))
