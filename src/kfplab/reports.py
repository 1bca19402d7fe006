"""Report carrier shared by every estimate checker.

One EstimateReport records one inequality measurement: the measured left
hand side, the itemized right hand side, the empirical constant
LHS / RHS, and the configured pass bound.  RHS terms are stored after
multiplication by their constants, so each item is a nonnegative addend
of the final RHS and the itemization sums to it exactly.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Optional

__all__ = ["EstimateReport", "build_report"]


@dataclasses.dataclass
class EstimateReport:
    statement_id: str
    lhs: float
    rhs: float
    rhs_terms: dict
    empirical_constant: Optional[float]
    rhs_zero: bool
    pass_bound: Optional[float]
    passed: Optional[bool]
    hypotheses_met: bool = True
    cylinders: list = dataclasses.field(default_factory=list)
    extras: dict = dataclasses.field(default_factory=dict)
    provenance: dict = dataclasses.field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = dataclasses.asdict(self)
        return json.loads(json.dumps(out, sort_keys=True, default=_coerce))

    def summary_row(self) -> dict:
        """Flat row for the CSV summary."""
        return {
            "statement_id": self.statement_id,
            "seed": self.provenance.get("seed", ""),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "empirical_constant": "" if self.empirical_constant is None else self.empirical_constant,
            "hypotheses_met": self.hypotheses_met,
            "passed": "" if self.passed is None else self.passed,
        }


def _coerce(obj):
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)


def build_report(statement_id, lhs, rhs_terms, pass_bound, *, cylinders=(),
                 hypotheses_met=True, extras=None, provenance=None) -> EstimateReport:
    """Assemble a report from the measured LHS and itemized RHS addends.

    rhs = sum of the itemized terms.  When the hypotheses of the
    statement are unmet no pass verdict is issued; the measurements are
    still recorded.  RHS = 0 is flagged and then the check passes only
    for LHS = 0.
    """
    lhs = float(lhs)
    if lhs < 0:
        raise ValueError("LHS of an estimate must be nonnegative")
    terms = {k: float(val) for k, val in rhs_terms.items()}
    for k, val in terms.items():
        if val < 0:
            raise ValueError(f"RHS term {k!r} is negative")
    rhs = float(sum(terms.values()))
    rhs_zero = rhs == 0.0
    constant = None if rhs_zero else lhs / rhs
    if not hypotheses_met:
        passed = None
    elif rhs_zero:
        passed = lhs == 0.0
    elif pass_bound is None:
        passed = None
    else:
        passed = constant <= pass_bound
    return EstimateReport(
        statement_id=statement_id,
        lhs=lhs,
        rhs=rhs,
        rhs_terms=terms,
        empirical_constant=constant,
        rhs_zero=rhs_zero,
        pass_bound=None if pass_bound is None else float(pass_bound),
        passed=passed,
        hypotheses_met=bool(hypotheses_met),
        cylinders=[c.describe() for c in cylinders],
        extras=dict(extras or {}),
        provenance=dict(provenance or {}),
    )
