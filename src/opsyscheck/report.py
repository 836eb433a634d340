"""Structured results: claims, reports, and their JSON/CSV forms.

A claim is one named check with a pass/fail/inconclusive status, a numeric
residual, and an optional matrix witness.  Reports aggregate claims with the
configuration that produced them.  Serialization is deterministic: the same
claims always produce byte-identical JSON, with wall-clock duration kept
outside the claim array.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json

import numpy as np

# the package version: pyproject.toml and opsyscheck.__version__ read it here
VERSION = "0.1.0"

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_INCONCLUSIVE = "inconclusive"


@dataclasses.dataclass(frozen=True)
class MatrixPayload:
    """A matrix in wire form: row-major [re, im] pairs."""

    rows: int
    cols: int
    field: str
    entries: tuple[tuple[float, float], ...]

    @staticmethod
    def from_matrix(M) -> "MatrixPayload":
        A = np.asarray(M)
        field = "complex" if A.dtype.kind == "c" else "real"
        A = A.astype(np.complex128, copy=False)
        entries = tuple(
            (float(z.real), float(z.imag)) for z in A.ravel(order="C")
        )
        return MatrixPayload(rows=A.shape[0], cols=A.shape[1], field=field, entries=entries)

    def to_matrix(self) -> np.ndarray:
        flat = np.array([complex(re, im) for re, im in self.entries], dtype=np.complex128)
        A = flat.reshape(self.rows, self.cols)
        if self.field == "real":
            return A.real.copy()
        return A

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "field": self.field,
            "entries": [[re, im] for re, im in self.entries],
        }

    @staticmethod
    def from_dict(d: dict) -> "MatrixPayload":
        return MatrixPayload(
            rows=int(d["rows"]),
            cols=int(d["cols"]),
            field=str(d["field"]),
            entries=tuple((float(re), float(im)) for re, im in d["entries"]),
        )


@dataclasses.dataclass(frozen=True)
class Claim:
    """One named check outcome."""

    id: str
    anchor: str
    status: str
    residual: float | None = None
    witness: MatrixPayload | None = None

    def to_dict(self) -> dict:
        d: dict = {"id": self.id, "anchor": self.anchor, "status": self.status}
        d["residual"] = self.residual
        d["witness"] = self.witness.to_dict() if self.witness is not None else None
        return d

    @staticmethod
    def from_dict(d: dict) -> "Claim":
        w = d.get("witness")
        return Claim(
            id=str(d["id"]),
            anchor=str(d["anchor"]),
            status=str(d["status"]),
            residual=None if d.get("residual") is None else float(d["residual"]),
            witness=None if w is None else MatrixPayload.from_dict(w),
        )


@dataclasses.dataclass(frozen=True)
class Report:
    """Claims plus the configuration echo and timing."""

    config: tuple[tuple[str, object], ...]
    claims: tuple[Claim, ...]
    duration_seconds: float
    version: str = VERSION

    @property
    def counts(self) -> dict:
        c = {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_INCONCLUSIVE: 0}
        for claim in self.claims:
            c[claim.status] = c.get(claim.status, 0) + 1
        return c

    @property
    def failed(self) -> bool:
        return any(c.status == STATUS_FAIL for c in self.claims)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config": {k: v for k, v in self.config},
            "claims": [c.to_dict() for c in self.claims],
            "summary": self.counts,
            "duration_seconds": self.duration_seconds,
        }


def claims_to_json(claims: tuple[Claim, ...]) -> str:
    """Deterministic JSON of the claim array alone (no timing)."""
    return json.dumps([c.to_dict() for c in claims], sort_keys=True, indent=2)


def report_to_json(r: Report) -> str:
    return json.dumps(r.to_dict(), sort_keys=True, indent=2)


def report_from_json(s: str) -> Report:
    d = json.loads(s)
    config = tuple(sorted((str(k), v) for k, v in d.get("config", {}).items()))
    claims = tuple(Claim.from_dict(c) for c in d["claims"])
    return Report(
        config=config,
        claims=claims,
        duration_seconds=float(d.get("duration_seconds", 0.0)),
        version=str(d.get("version", VERSION)),
    )


def report_to_csv(r: Report) -> str:
    """Flat CSV of the claims; witnesses are omitted."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["id", "status", "residual", "anchor"])
    for c in r.claims:
        w.writerow([c.id, c.status, "" if c.residual is None else repr(c.residual), c.anchor])
    return buf.getvalue()


def render_text(r: Report) -> str:
    """Human-readable rendering: one line per claim plus a summary."""
    lines = []
    for c in r.claims:
        res = "" if c.residual is None else f" residual={c.residual:.3e}"
        lines.append(f"[{c.status.upper():>12}] {c.id}{res}  {c.anchor}")
    counts = r.counts
    lines.append(
        f"summary: {counts[STATUS_PASS]} pass, {counts[STATUS_FAIL]} fail,"
        f" {counts[STATUS_INCONCLUSIVE]} inconclusive"
        f" in {r.duration_seconds:.2f}s"
    )
    return "\n".join(lines) + "\n"
