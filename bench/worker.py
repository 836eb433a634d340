"""One repetition of a workload, in a fresh interpreter started by run.py.

Usage: ``python3 bench/worker.py <job.json>`` with ``src`` on PYTHONPATH.
The job names the CLI invocations to run, the seed and the output directory;
the worker writes ``result.json`` there.  Before each invocation and after
the last it waits while run.py times its reference kernel, on the two pipe
descriptors the job names (``sync_fds``).  The clock reading right after
``import opsyscheck`` lets the parent measure interpreter start-up plus
import time on the same monotonic clock.
"""

import time

import opsyscheck  # noqa: F401  (the import is what set-up time measures)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from opsyscheck.cli import main  # noqa: E402

from tracing import Tracer  # noqa: E402


def environment() -> dict:
    """Library versions and BLAS build of this interpreter."""
    import importlib.metadata
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }


def wait_for_kernel(job: dict) -> None:
    """Ask run.py to time its reference kernel, and wait until it has."""
    requests, replies = job["sync_fds"]
    os.write(requests, b"k")
    os.read(replies, 1)


def run_commands(job: dict, out_dir: Path) -> dict:
    walls, codes = [], []
    for k, argv in enumerate(job["commands"]):
        argv = argv + ["--output", "json", "--output-path", str(out_dir / f"report{k}.json"), "--seed", str(job["seed"])]
        wait_for_kernel(job)
        start = time.perf_counter()
        codes.append(main(argv))
        walls.append(time.perf_counter() - start)
    wait_for_kernel(job)
    return {"walls": walls, "codes": codes}


def run_job(job: dict) -> None:
    out_dir = Path(job["out_dir"])
    tracer = None
    if job["trace"]:
        tracer = Tracer(job["run_id"])
        tracer.install(tuple(job["trace"]))
    if job["kind"] == "baseline":
        import baseline

        result = baseline.run(job["seed"], out_dir)
    else:
        result = run_commands(job, out_dir)
    result["ready"] = READY
    if tracer is not None:
        tracer.write(out_dir / "spans.jsonl")
    if job["environment"]:
        result["environment"] = environment()
    (out_dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    run_job(json.loads(Path(sys.argv[1]).read_text()))
