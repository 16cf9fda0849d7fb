"""Structured experiment reports with measured-vs-bound verdicts.

Reports are plain data: every verdict pairs a measured value with the bound
it was checked against, so a report can be audited without re-running the
experiment. Serialization is deterministic (sorted keys, no timestamps) to
keep CLI output byte-reproducible.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any


def _plain(value: Any) -> Any:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


# the relations a check can assert; "=>" is implication between truth values
_RELATIONS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq,
              "=>": lambda premise, conclusion: not premise or conclusion}


@dataclass(frozen=True)
class BoundCheck:
    """One asserted relation: `measured relation bound`."""

    name: str
    measured: Any
    relation: str
    bound: Any
    passed: bool

    @classmethod
    def of(cls, name: str, measured: Any, relation: str, bound: Any) -> "BoundCheck":
        """The check whose verdict is `measured relation bound` itself."""
        passed = bool(_RELATIONS[relation](measured, bound))
        return cls(name, measured, relation, bound, passed)

    def format(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict}  {self.name}: {_plain(self.measured)} {self.relation} {_plain(self.bound)}"


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    parameters: dict[str, Any] = field(default_factory=dict)
    measured: dict[str, Any] = field(default_factory=dict)
    bounds: dict[str, Any] = field(default_factory=dict)
    checks: tuple[BoundCheck, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "parameters": _plain(self.parameters),
            "measured": _plain(self.measured),
            "bounds": _plain(self.bounds),
            "checks": [
                {
                    "name": c.name,
                    "measured": _plain(c.measured),
                    "relation": c.relation,
                    "bound": _plain(c.bound),
                    "passed": c.passed,
                }
                for c in self.checks
            ],
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def format_text(self) -> str:
        lines = [f"experiment: {self.name}"]
        for key in sorted(self.parameters):
            lines.append(f"  param {key} = {_plain(self.parameters[key])}")
        for key in sorted(self.measured):
            lines.append(f"  measured {key} = {_plain(self.measured[key])}")
        for key in sorted(self.bounds):
            lines.append(f"  bound {key} = {_plain(self.bounds[key])}")
        for c in self.checks:
            lines.append(f"  {c.format()}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"
