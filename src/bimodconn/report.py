"""Machine-readable verdicts and deterministic reports.

Every identity the engine verifies produces a :class:`Verdict` carrying a
stable check id, a short anchor naming the identity, a status and, on
failure, an explicit counterexample witness.  Reports are ordered lists of
verdicts whose JSON form is byte-identical across runs on the same input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

PASS = "pass"
FAIL = "fail"
ABSENT = "absent"
UNAVAILABLE = "unavailable"


def rat_str(x: Fraction) -> str:
    """Serialize a rational as 'p/q' or 'p' (q = 1), sign on the numerator."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rationals(entries):
    """A vector or matrix of entries with each entry as a Fraction.

    Entries are ints when integral, but ``jsonable`` writes a bare int as a
    JSON number (as it must for counts and indices), so rational payloads
    go through here where they enter a :class:`Verdict`.
    """
    if isinstance(entries, list):
        return [rationals(x) for x in entries]
    return Fraction(entries)


def jsonable(obj):
    """Recursively convert Fractions to strings for JSON output."""
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    return obj


@dataclass
class Verdict:
    """Outcome of one identity check."""

    check_id: str
    anchor: str
    status: str
    witness: object = None
    dims: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def to_record(self) -> dict:
        rec = {"check_id": self.check_id, "paper_anchor": self.anchor,
               "status": self.status}
        if self.witness is not None:
            rec["witness"] = jsonable(self.witness)
        if self.dims is not None:
            rec["dims"] = jsonable(self.dims)
        return rec


def passed(check_id: str, anchor: str, dims: dict | None = None) -> Verdict:
    return Verdict(check_id, anchor, PASS, None, dims)


def failed(check_id: str, anchor: str, witness, dims: dict | None = None) -> Verdict:
    return Verdict(check_id, anchor, FAIL, witness, dims)


@dataclass
class Report:
    """Ordered collection of verdicts with a summary."""

    records: list[Verdict] = field(default_factory=list)

    def append(self, v: Verdict) -> Verdict:
        self.records.append(v)
        return v

    def extend(self, vs) -> None:
        for v in vs:
            self.append(v)

    @property
    def summary(self) -> str:
        if any(r.status == FAIL for r in self.records):
            return FAIL
        return PASS

    def to_dict(self) -> dict:
        return {"records": [r.to_record() for r in self.records],
                "summary": self.summary}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def to_text(self) -> str:
        lines = []
        for r in self.records:
            line = f"[{r.status.upper():^11}] {r.check_id} ({r.anchor})"
            if r.dims:
                line += "  dims=" + json.dumps(jsonable(r.dims), sort_keys=True)
            if r.witness is not None:
                line += "  witness=" + json.dumps(jsonable(r.witness))
            lines.append(line)
        lines.append(f"summary: {self.summary}")
        return "\n".join(lines)
