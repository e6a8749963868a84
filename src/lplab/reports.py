"""Structured run reports: canonical JSON, hashing, and exit-code mapping.

Every machine-readable artifact the laboratory emits goes through this
module so that two runs with the same seed produce byte-identical output.
A report is a small tree: metadata (tool version, seed, config hash,
timestamp) plus a list of named sections, each carrying structured records
and a pass/fail/info status.  Every record that carries ``ok`` is built by
``check``, which also states what the checked number is evidence of.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from . import __version__

__all__ = [
    "Section",
    "Report",
    "jsonable",
    "canonical_json",
    "config_hash",
    "build_timestamp",
    "EVIDENCE",
    "check",
    "section_status",
    "max_or_nan",
    "make_section",
    "make_report",
    "report_from_dict",
    "exit_code",
    "EXIT_OK",
    "EXIT_CHECK_FAILED",
    "EXIT_USAGE",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

_STATUSES = ("pass", "fail", "info")

# What a checked value is, relative to the quantity it stands for:
#   exact        the quantity itself, up to the rounding of its own arithmetic
#                (counts, integer identities, closed forms, exact norms);
#   lower/upper  a one-sided bound on the quantity;
#   bracket      the quantity lies within the record's stated bracket;
#   consistency  a necessary condition only: passing does not certify the claim.
EVIDENCE = ("exact", "lower", "upper", "bracket", "consistency")

# ok = value op bound, with the slack on the passing side
_OPS = {
    "<=": lambda v, b, s: v <= b + s,
    "<": lambda v, b, s: v < b + s,
    ">=": lambda v, b, s: v >= b - s,
    ">": lambda v, b, s: v > b - s,
    "==": lambda v, b, s: abs(v - b) <= s,
}
# A lower bound on a quantity cannot show that the quantity is small, nor an
# upper bound that it is large.
_UNCERTIFIABLE = {"lower": ("<=", "<", "=="), "upper": (">=", ">", "==")}


# ---------------------------------------------------------------------------
# canonical serialization


def jsonable(obj: Any) -> Any:
    """Convert obj to a tree of JSON-safe python values.

    Complex numbers become [re, im]; numpy scalars and arrays become python
    numbers and lists; tuples become lists; non-finite floats become the
    strings "nan", "inf", "-inf" so that canonical output never depends on
    the serializer's NaN handling.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if np.isnan(obj):
            return "nan"
        if np.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, complex):
        return [jsonable(obj.real), jsonable(obj.imag)]
    if isinstance(obj, np.generic):
        return jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Mapping):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        if isinstance(obj, (set, frozenset)):
            items = sorted(items, key=repr)
        return [jsonable(v) for v in items]
    if hasattr(obj, "to_dict"):
        return jsonable(obj.to_dict())
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, minimal separators, ASCII."""
    return json.dumps(
        jsonable(obj),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def config_hash(config: Any) -> str:
    """sha256 hex digest of the canonical JSON form of a configuration."""
    return hashlib.sha256(canonical_json(config).encode("ascii")).hexdigest()


def build_timestamp() -> str:
    """ISO-8601 UTC timestamp, pinned by SOURCE_DATE_EPOCH (default 0).

    Defaulting to the epoch keeps reports reproducible byte-for-byte; set
    SOURCE_DATE_EPOCH to a unix time to stamp real runs.
    """
    epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
    return datetime.fromtimestamp(epoch, tz=timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# sections and reports


def max_or_nan(acc: float, *vals: float) -> float:
    """``max(acc, *vals)``, except that a NaN among them is the result.

    The builtin ``max(0.0, nan)`` keeps 0.0, so a NaN residual would vanish
    from a running maximum and its record would pass.
    """
    for v in vals:
        if math.isnan(acc):
            break
        if math.isnan(v) or v > acc:
            acc = v
    return acc


def check(
    name: str,
    value: Any,
    evidence: str,
    op: str,
    bound: Any,
    slack: float = 0.0,
    **fields: Any,
) -> dict[str, Any]:
    """One checked number: ``ok`` is ``value op bound``, loosened by ``slack``.

    The record holds ``name``, ``value``, ``op``, ``bound``, ``slack``,
    ``evidence`` (one of ``EVIDENCE``) and ``ok``, plus ``fields``.  With
    ``==`` the test is ``|value - bound| <= slack``; otherwise the slack moves
    the bound toward the passing side.  A NaN value fails.  A comparison the
    evidence cannot certify (a ``lower`` value against an upper limit, an
    ``upper`` value against a lower one) raises ``ValueError``.
    """
    if evidence not in EVIDENCE:
        raise ValueError(f"{name}: unknown evidence {evidence!r}")
    if op not in _OPS:
        raise ValueError(f"{name}: unknown comparison {op!r}")
    if op in _UNCERTIFIABLE.get(evidence, ()):
        raise ValueError(f"{name}: a {evidence} bound cannot certify value {op} bound")
    if isinstance(value, np.generic):
        value = value.item()
    ok = not math.isnan(value) and bool(_OPS[op](value, bound, slack))
    return {
        **fields,
        "name": name,
        "value": value,
        "op": op,
        "bound": bound,
        "slack": slack,
        "evidence": evidence,
        "ok": ok,
    }


def _unlabelled_check(obj: Any) -> bool:
    """Does obj hold, at any depth, a record with ``ok`` but no evidence?"""
    if isinstance(obj, Mapping):
        if "ok" in obj and obj.get("evidence") not in EVIDENCE:
            return True
        return any(_unlabelled_check(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(_unlabelled_check(v) for v in obj)
    return False


def section_status(records: Sequence[Mapping[str, Any]]) -> str:
    """fail if any record with an "ok" field failed, pass if all passed,
    info when no record carries a check."""
    saw_check = False
    for rec in records:
        if "ok" in rec:
            saw_check = True
            if not rec["ok"]:
                return "fail"
    return "pass" if saw_check else "info"


@dataclass(frozen=True)
class Section:
    """Named group of records; status is derived from the contained checks."""

    name: str
    status: str
    records: tuple[dict[str, Any], ...]

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        derived = section_status(self.records)
        if derived == "fail" and self.status != "fail":
            raise ValueError(
                f"section {self.name!r} contains a failed check but claims "
                f"status {self.status!r}"
            )
        if derived != "fail" and self.status == "fail":
            raise ValueError(
                f"section {self.name!r} claims failure but every check passed"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "records": [jsonable(r) for r in self.records],
        }


def make_section(name: str, records: Iterable[Mapping[str, Any]]) -> Section:
    recs = tuple(dict(jsonable(r)) for r in records)
    return Section(name=name, status=section_status(recs), records=recs)


@dataclass(frozen=True)
class Report:
    """Top-level run artifact: meta block plus ordered sections."""

    meta: dict[str, Any]
    sections: tuple[Section, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(sec.status != "fail" for sec in self.sections)

    def section(self, name: str) -> Section:
        for sec in self.sections:
            if sec.name == name:
                return sec
        raise KeyError(name)

    def to_dict(self) -> dict[str, Any]:
        return {
            "meta": dict(self.meta),
            "sections": [sec.to_dict() for sec in self.sections],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def make_report(
    seed: int | None,
    config: Any,
    sections: Iterable[Section],
) -> Report:
    """Assemble a report with the standard meta block.

    A section holding a record with ``ok`` but no ``evidence`` label, at any
    depth, raises ``ValueError``: build check records with ``check``.
    """
    sections = tuple(sections)
    for sec in sections:
        for rec in sec.records:
            if _unlabelled_check(rec):
                raise ValueError(
                    f"section {sec.name!r}: record {rec.get('name')!r} has ok "
                    f"but no evidence label"
                )
    meta = {
        "tool_version": __version__,
        "seed": seed,
        "config_hash": config_hash(config),
        "timestamp": build_timestamp(),
    }
    return Report(meta=meta, sections=sections)


def report_from_dict(data: Mapping[str, Any]) -> Report:
    """Inverse of Report.to_dict; round-trips losslessly."""
    sections = tuple(
        Section(
            name=sec["name"],
            status=sec["status"],
            records=tuple(dict(r) for r in sec["records"]),
        )
        for sec in data["sections"]
    )
    return Report(meta=dict(data["meta"]), sections=sections)


def exit_code(report: Report) -> int:
    """0 when every section passed or is informational, 1 otherwise."""
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED
