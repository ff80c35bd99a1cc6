"""Artefacts attached to rule applications: justifications, plan steps,
validation records, and the closed set of rule identifiers."""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .model import ChangeExpr


class RuleId(str, enum.Enum):
    DELEGATION = "Delegation"
    KNOWN_SOLUTION = "KnownSolution"
    ENV_REFINE = "EnvRefine"
    NEED_REFINE = "NeedRefine"
    SOLN_REFINE = "SolnRefine"
    DOMAIN_ADD = "DomainAdd"
    DOMAIN_REMOVE = "DomainRemove"
    DOMAIN_REFINE = "DomainRefine"
    PARALLEL = "Parallel"
    SEQUENCE = "Sequence"
    SEQ_DOMAIN_REFINE_EQUIV = "SeqDomainRefineEquiv"
    SOLUTION_REFLECT = "SolutionReflect"


RULE_ARITY = {
    RuleId.DELEGATION: 1,
    RuleId.KNOWN_SOLUTION: 0,
    RuleId.ENV_REFINE: 1,
    RuleId.NEED_REFINE: 1,
    RuleId.SOLN_REFINE: 1,
    RuleId.DOMAIN_ADD: 1,
    RuleId.DOMAIN_REMOVE: 1,
    RuleId.DOMAIN_REFINE: 1,
    RuleId.PARALLEL: 2,
    RuleId.SEQUENCE: 2,
    RuleId.SEQ_DOMAIN_REFINE_EQUIV: 1,
    RuleId.SOLUTION_REFLECT: 1,
}


@dataclass(frozen=True)
class RiskItem:
    risk: str
    mitigation: str


@dataclass(frozen=True)
class Justification:
    """The rationale a rule application must carry.

    Which optional fields are required depends on the rule; the checker
    enforces the per-rule profile.
    """

    rule_rationale: str | None = None
    coordination_rationale: str | None = None
    integration_argument: str | None = None
    dependency_argument: str | None = None
    risk_register: tuple[RiskItem, ...] = ()
    feedback_cadence: str | None = None
    timeline_rationale: str | None = None
    validation_criteria: str | None = None
    resource_rationale: str | None = None


EMPTY_JUSTIFICATION = Justification()

# The keyword of each text field in a ``justify`` block, in document order.
JUSTIFICATION_FIELDS = {
    "rule": "rule_rationale",
    "coordination": "coordination_rationale",
    "integration": "integration_argument",
    "dependency": "dependency_argument",
    "feedback": "feedback_cadence",
    "timeline": "timeline_rationale",
    "criteria": "validation_criteria",
    "resources": "resource_rationale",
}


@dataclass(frozen=True)
class Deadline:
    """Either an absolute ISO date or a relative release tag."""

    kind: str  # "absolute" | "relative"
    value: str

    def __post_init__(self):
        if self.kind not in ("absolute", "relative"):
            raise ValueError(f"bad deadline kind {self.kind!r}")
        if self.kind == "absolute":
            datetime.date.fromisoformat(self.value)


@dataclass(frozen=True)
class PlanStep:
    """One schedulable action of an implementation plan."""

    id: str
    action: str
    installs: ChangeExpr
    after: tuple[str, ...] = ()
    parallel_ok: tuple[str, ...] = ()
    deadline: Deadline | None = None


class ValidationStatus(str, enum.Enum):
    PENDING = "pending"
    GRANTED = "granted"
    REJECTED = "rejected"
    STALE = "stale"


class ValidationTarget(str, enum.Enum):
    PROBLEM_VIEW = "problem-view"
    SOLUTION_PLAN = "solution+plan"
    GREENFIELD_DISCHARGE = "greenfield-discharge"


@dataclass(frozen=True)
class ValidationRecord:
    """A stakeholder's verdict on a problem view, a solution, or a
    greenfield discharge obligation.

    Granted records may later go stale, but are never deleted.
    """

    id: str
    stakeholder: str
    target: ValidationTarget
    subject: str
    status: ValidationStatus
    sequence: int
