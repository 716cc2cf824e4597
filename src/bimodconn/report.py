"""Machine-readable verdicts and deterministic reports.

Every identity the engine verifies produces a :class:`Verdict` carrying a
stable check id, a short anchor naming the identity, a status and, on
failure, an explicit counterexample witness.  Reports are ordered lists of
verdicts whose JSON form is byte-identical across runs on the same input.

Both renderings are written in one pass over the verdicts.  ``to_json``
emits each record's fixed skeleton directly and each ``witness``/``dims``
payload with ``_indented``, a recursive writer of json's ``indent=2``
layout: strings by ``encode_basestring_ascii``, a Fraction as its quoted
``rat_str``, ints, bools and None as json writes them, and any other type
(a float, a non-str dict key) a TypeError rather than different bytes.
``to_text`` hands its compact payloads to json's C encoder, a Fraction
written as its ``rat_str`` by ``default``, with no ``jsonable`` pass.
Both equal the stdlib route, ``json.dumps`` of the ``jsonable`` form
(``to_dict``), which the tests pin byte for byte.  That route is not taken
here: with ``indent`` set, ``json.dumps`` runs its pure-Python encoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

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

    Entries are ints when integral, but a report writes a bare int as a
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


# The newline and indent of a record's fields in ``to_json``.
_RECORD = "\n      "


def _indented(x, nl: str) -> str:
    """``json.dumps(jsonable(x), indent=2)`` nested at the newline and
    indent ``nl``: each item of a nonempty list, tuple or dict on its own
    line two spaces in, the closing bracket back at ``nl``.  A type this
    does not write as that call would raises TypeError, a dict key that
    is not a str included (``_quote`` takes only str; the text route's
    encoder would write a bool or None key unlike ``str``)."""
    t = type(x)
    if t is int:
        return repr(x)
    if t is str:
        return _quote(x)
    if t is Fraction:
        return f'"{rat_str(x)}"'
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join(
            [_indented(v, inner) for v in x]) + nl + "]"
    if t is dict:
        if not x:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _indented(v, inner)
             for k, v in x.items()]) + nl + "}"
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    raise TypeError(f"a report does not write {t.__name__} {x!r}")


def _fraction(x) -> str:
    """``default`` of the text route's encoders: a Fraction as its
    ``rat_str``."""
    if type(x) is not Fraction:
        raise TypeError(f"a report does not write {type(x).__name__} {x!r}")
    return rat_str(x)


# The text route's compact payloads, by json's C encoder.
_compact = json.JSONEncoder(default=_fraction).encode
_compact_sorted = json.JSONEncoder(sort_keys=True, default=_fraction).encode


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

    def _json(self) -> str:
        """The record as ``to_json`` writes it, at indent level 2."""
        out = (f'{{\n      "check_id": {_quote(self.check_id)},'
               f'\n      "paper_anchor": {_quote(self.anchor)},'
               f'\n      "status": {_quote(self.status)}')
        if self.witness is not None:
            out += ',\n      "witness": ' + _indented(self.witness, _RECORD)
        if self.dims is not None:
            out += ',\n      "dims": ' + _indented(self.dims, _RECORD)
        return out + "\n    }"


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
        """The report as ``json.dumps`` takes it, each payload ``jsonable``:
        the stdlib route that ``to_json`` equals, read by the benchmark's
        structure metrics."""
        return {"records": [r.to_record() for r in self.records],
                "summary": self.summary}

    def to_json(self) -> str:
        summary = _quote(self.summary)
        if not self.records:
            return f'{{\n  "records": [],\n  "summary": {summary}\n}}'
        return ('{\n  "records": [\n    '
                + ",\n    ".join([r._json() for r in self.records])
                + f'\n  ],\n  "summary": {summary}\n}}')

    def to_text(self) -> str:
        lines = []
        for r in self.records:
            line = f"[{r.status.upper():^11}] {r.check_id} ({r.anchor})"
            if r.dims:
                line += "  dims=" + _compact_sorted(r.dims)
            if r.witness is not None:
                line += "  witness=" + _compact(r.witness)
            lines.append(line)
        lines.append(f"summary: {self.summary}")
        return "\n".join(lines)
