"""Workload definitions, seeds and the expected claim ids of each workload.

A workload is a list of CLI invocations (``opsyscheck <argv>``), run one after
the other in one fresh interpreter.  The benchmark appends
``--output json --output-path <file> --seed <seed>`` to each of them.

The expected claim ids are written out from the claim-building rules of the
CLI, independently of the program, so a report that drops, adds or renames
a claim fails the correctness gate.
"""

from __future__ import annotations

DEFAULT_SEED = 0
# A second seed kept out of tuning, so a later performance claim can be
# rechecked on inputs that were not used while the claim was written.
HOLDOUT_SEED = 7919

# BLAS and OpenMP threads given to every workload process (at most nproc).
BLAS_THREADS = 1

SWEEP_N = "1,2,3,4,8,16,17"

WORKLOADS: dict[str, list[list[str]]] = {
    # tiny eigensolves, draws, embeds and membership checks; no norm search,
    # no certificates
    "verify-sweep": [
        ["verify", target, "--n", SWEEP_N, "--trials", "100", "--field", "both"]
        for target in ("lemma", "maps", "swapbc", "ks")
    ],
    # Nelder-Mead norm searches; sampling only through swap_bound_domination
    "norm-search": [
        ["norm", "--map", token, "--n", sizes, "--restarts", "10"]
        for token, sizes in (("phi", "2,5"), ("upsilon", "2,4"), ("upsilon-prime", "2,3"), ("gamma", "2"))
    ],
    # certificates up to 64x64 eigensolves and 48x48 witnesses; no sampling
    # sweep, no norm search
    "certify-ladder": [
        ["certify", "--which", which, "--n", sizes]
        for which, sizes in (("phi", "16,17,32"), ("upsilon", "2,16,32"), ("gamma", "2,8,16,24"))
    ],
}

# The same workloads at the smallest sizes, for the harness self-test.
TINY_WORKLOADS: dict[str, list[list[str]]] = {
    "verify-sweep": [
        ["verify", target, "--n", "2", "--trials", "20", "--field", "both"]
        for target in ("lemma", "maps", "swapbc", "ks")
    ],
    "norm-search": [
        ["norm", "--map", token, "--n", "2", "--restarts", "3", "--trials", "20"]
        for token in ("phi", "upsilon", "upsilon-prime", "gamma")
    ],
    "certify-ladder": [["certify", "--which", which, "--n", "2"] for which in ("phi", "upsilon", "gamma")],
}

LEMMA_KINDS = ("transpose-paired", "transpose-paired-complex", "free-corner", "free-corner-real")
MAP_TOKENS = ("phi", "upsilon", "upsilon-prime", "gamma", "psi-transpose", "psi-real-ext")


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _sizes(argv: list[str]) -> list[int]:
    return [int(v) for v in _option(argv, "--n").split(",")]


def expected_claim_ids(argv: list[str]) -> list[str]:
    """Claim ids, in report order, that one invocation must produce.

    Covers the invocations the workloads use: explicit comma-separated
    ``--n`` and ``--field both``.
    """
    ns = _sizes(argv)
    ids: list[str] = []
    if argv[:2] == ["verify", "lemma"]:
        ids = [f"lemma.{kind}.n={n}.agreement" for kind in LEMMA_KINDS for n in ns]
    elif argv[:2] == ["verify", "maps"]:
        for token in MAP_TOKENS:
            for n in ns:
                last = "violation-found" if token == "psi-transpose" and n >= 2 else "positive-inputs"
                ids += [f"maps.{token}.n={n}.structural", f"maps.{token}.n={n}.{last}"]
    elif argv[:2] == ["verify", "swapbc"]:
        ids = [f"swapbc.n={n}.{part}" for n in ns for part in ("singular-values", "char-poly")]
    elif argv[:2] == ["verify", "ks"]:
        for n in ns:
            ids.append(f"ks.psi-transpose.free-corner.n={n}")
            ids.append(f"ks.phi.trace-averaged.n={n}" + (".breaks" if n > 16 else ""))
    elif argv[0] == "norm":
        token = _option(argv, "--map")
        for n in ns:
            parts = ["lower-bound", "witness-unit", "image-norm", "upper-bound-respected"]
            if token == "upsilon-prime":
                parts.append("bound-dominates")
            ids += [f"norm.{token}.n={n}.{part}" for part in parts]
    elif argv[0] == "certify":
        which = _option(argv, "--which")
        for n in ns:
            parts = ["outcome", "narrative"]
            contradiction = n >= 17 if which == "phi" else n >= 2
            if contradiction:
                parts.append("margin")
            if which == "gamma" and contradiction:
                parts.append("final-witness")
            ids += [f"certify.{which}.n={n}.{part}" for part in parts]
    else:
        raise ValueError(f"no expected claim ids for {argv}")
    return ids
