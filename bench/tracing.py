"""Span tracing of the package's layers, installed from outside the package.

The modules import each other's functions by name (``from .linalg import
is_psd``), so a wrapper is bound in place of the original in every loaded
``opsyscheck`` module that holds it, and in module-level dispatch tables,
not only in the defining module.

A span is ``(name, key, start_ns, end_ns, parent, self_ns, value)``: ``parent``
is the index of the enclosing span (-1 at top level), ``self_ns`` the
duration minus the time covered by direct child spans, ``key`` and ``value``
optional per-target annotations (for example the map and size of a norm
search and the number of evaluations it made).  Spans stay in memory until
the process writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


def _norm_key(a, r):
    return f"{a['m'].kind.token}-n{a['m'].n}", a["restarts"]


def _certify(which):
    return lambda a, r: (f"{which}-n{a['n']}", None)


def _target(a, r):
    return a["cfg"].target, None


# (module, attribute, span name, label) where label(arguments, result)
# returns the span's (key, value)
TARGETS = [
    ("opsyscheck.linalg", "is_psd", "linalg.is_psd", None),
    ("opsyscheck.linalg", "hermitian_eigenvalues", "linalg.hermitian_eigenvalues", None),
    ("opsyscheck.linalg", "operator_norm", "linalg.operator_norm", None),
    ("opsyscheck.systems", "_draw_element", "systems.draw", None),
    ("opsyscheck.systems", "_draw_positive", "systems.draw", None),
    ("opsyscheck.systems", "embed", "systems.embed", None),
    ("opsyscheck.systems", "contains", "systems.contains", None),
    ("opsyscheck.systems", "is_positive_by_criterion", "systems.criterion", None),
    ("opsyscheck.systems", "boundary_margin", "systems.margin", lambda a, r: ("", r)),
    ("opsyscheck.maps", "apply", "maps.apply", None),
    ("opsyscheck.maps", "check_structural", "maps.structural", None),
    (
        "opsyscheck.maps",
        "check_positivity_preserving",
        "maps.positivity",
        lambda a, r: (f"n{a['m'].n}", r.trials),
    ),
    ("opsyscheck.maps", "estimate_map_norm", "maps.norm_search", _norm_key),
    ("opsyscheck.maps", "swap_bound_domination", "maps.swap_bound", lambda a, r: ("", a["samples"])),
    ("opsyscheck.maps", "swap_bc_singular_check", "maps.swap_bc_singular_check", None),
    ("opsyscheck.maps", "char_poly_swap_check", "maps.char_poly_swap_check", None),
    ("opsyscheck.maps", "kadison_schwarz_check", "maps.kadison_schwarz_check", None),
    ("opsyscheck.maps", "corner_square_identities", "maps.corner_square_identities", None),
    ("scipy.optimize", "minimize", "maps.minimize", lambda a, r: ("", int(r.nfev))),
    ("opsyscheck.certificates", "certify_quarter_transpose", "certificates.certify", _certify("phi")),
    ("opsyscheck.certificates", "certify_offdiag_swap", "certificates.certify", _certify("upsilon")),
    ("opsyscheck.certificates", "certify_corner_transpose", "certificates.certify", _certify("gamma")),
    ("opsyscheck.certificates", "schur_implication", "certificates.schur_implication", None),
    ("opsyscheck.certificates", "lower_right_forcing_check", "certificates.lower_right_forcing", None),
    ("opsyscheck.certificates", "verify_verdict_invariants", "certificates.verify_invariants", None),
    ("opsyscheck.report", "report_to_json", "report.to_json", None),
    ("opsyscheck.report", "MatrixPayload.from_matrix", "report.from_matrix", None),
    ("opsyscheck.suite", "lemma_claims", "suite.lemma", None),
    ("opsyscheck.suite", "maps_claims", "suite.maps", None),
    ("opsyscheck.suite", "swapbc_claims", "suite.swapbc", None),
    ("opsyscheck.suite", "ks_claims", "suite.ks", None),
    ("opsyscheck.suite", "norm_claims", "suite.norm", _target),
    ("opsyscheck.suite", "certify_claims", "suite.certify", _target),
]


class Tracer:
    """Collects nested spans for one run of a workload."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple | None] = []
        self._stack: list[list[int]] = []  # [span index, child ns]

    def wrap(self, name: str, fn, label=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if label else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            stack.append(frame)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                key, value = "", None
                if label is not None and result is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    key, value = label(bound.arguments, result)
                spans[index] = (name, key, start, end, parent, end - start - frame[1], value)

        return traced

    def install(self, prefixes: tuple[str, ...] = ("",)) -> None:
        """Wrap every target whose span name starts with one of ``prefixes``.

        Call after ``import opsyscheck``; targets in modules that are not
        loaded are skipped.
        """
        package = [m for name, m in sys.modules.items() if name == "opsyscheck" or name.startswith("opsyscheck.")]
        for module_name, attr, name, label in TARGETS:
            if not name.startswith(prefixes) or module_name not in sys.modules:
                continue
            owner = sys.modules[module_name]
            if "." in attr:  # a static method
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method].__func__
                setattr(cls, method, staticmethod(self.wrap(name, original, label)))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, label)
            for module in package + [owner]:
                for k, v in list(vars(module).items()):
                    if v is original:
                        setattr(module, k, traced)
                    elif isinstance(v, dict):  # dispatch tables such as suite._RUNNERS
                        v.update({dk: traced for dk, dv in v.items() if dv is original})

    def write(self, path) -> None:
        """One JSON array per line: run id, then the span fields."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps([self.run_id, *span]) + "\n")


def read_spans(path) -> list[tuple]:
    """Spans written by ``Tracer.write``, without the run id."""
    with open(path) as fh:
        return [tuple(json.loads(line)[1:]) for line in fh]
