"""Artefacts attached to rule applications: justifications, plan steps,
validation records, and the closed set of rule identifiers."""

from __future__ import annotations

import datetime
import enum
from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .model import ChangeExpr


class Record:
    """Base of the package's value classes.

    A subclass lists its fields, in order, in ``__slots__`` and assigns
    each of them in ``__init__``.  Instances compare equal when they are
    of the same class and their field tuples are equal; the hash is the
    hash of the field tuple, and the repr names each field.  A slot whose
    name starts with an underscore holds data derived from the fields,
    such as an index, and is not a field.

    Records are immutable by convention, not by a guard, so they can be
    shared and used as set members and dict keys.  Two kinds of record
    are assigned after ``__init__`` returns, and both are unhashable:
    ``macro.Workflow``, the fold's working state, and
    ``calculus.DerivationNode``, whose premises and alternatives
    ``calculus.build`` sets, only in nodes it has made and not yet
    returned.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._names = names
        if len(names) > 1:
            cls._values = attrgetter(*names)
        elif names:  # attrgetter of one name gives the bare value, not a 1-tuple
            get = attrgetter(names[0])
            cls._values = staticmethod(lambda obj: (get(obj),))
        else:
            cls._values = staticmethod(lambda obj: ())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{self.__class__.__qualname__}({fields})"


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


class RiskItem(Record):
    __slots__ = ("risk", "mitigation")

    def __init__(self, risk: str, mitigation: str):
        self.risk = risk
        self.mitigation = mitigation


class Justification(Record):
    """The rationale a rule application must carry.

    Which optional fields are required depends on the rule; the checker
    enforces the per-rule profile.
    """

    __slots__ = ("rule_rationale", "coordination_rationale", "integration_argument",
                 "dependency_argument", "risk_register", "feedback_cadence",
                 "timeline_rationale", "validation_criteria", "resource_rationale")

    def __init__(
        self,
        rule_rationale: str | None = None,
        coordination_rationale: str | None = None,
        integration_argument: str | None = None,
        dependency_argument: str | None = None,
        risk_register: tuple[RiskItem, ...] = (),
        feedback_cadence: str | None = None,
        timeline_rationale: str | None = None,
        validation_criteria: str | None = None,
        resource_rationale: str | None = None,
    ):
        self.rule_rationale = rule_rationale
        self.coordination_rationale = coordination_rationale
        self.integration_argument = integration_argument
        self.dependency_argument = dependency_argument
        self.risk_register = risk_register
        self.feedback_cadence = feedback_cadence
        self.timeline_rationale = timeline_rationale
        self.validation_criteria = validation_criteria
        self.resource_rationale = resource_rationale


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


class Deadline(Record):
    """Either an absolute ISO date or a relative release tag."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: str):
        if kind not in ("absolute", "relative"):
            raise ValueError(f"bad deadline kind {kind!r}")
        if kind == "absolute":
            datetime.date.fromisoformat(value)
        self.kind = kind  # "absolute" | "relative"
        self.value = value


class PlanStep(Record):
    """One schedulable action of an implementation plan."""

    __slots__ = ("id", "action", "installs", "after", "parallel_ok", "deadline")

    def __init__(
        self,
        id: str,
        action: str,
        installs: ChangeExpr,
        after: tuple[str, ...] = (),
        parallel_ok: tuple[str, ...] = (),
        deadline: Deadline | None = None,
    ):
        self.id = id
        self.action = action
        self.installs = installs
        self.after = after
        self.parallel_ok = parallel_ok
        self.deadline = deadline


class ValidationStatus(str, enum.Enum):
    PENDING = "pending"
    GRANTED = "granted"
    REJECTED = "rejected"
    STALE = "stale"


class ValidationTarget(str, enum.Enum):
    PROBLEM_VIEW = "problem-view"
    SOLUTION_PLAN = "solution+plan"
    GREENFIELD_DISCHARGE = "greenfield-discharge"


class ValidationRecord(Record):
    """A stakeholder's verdict on a problem view, a solution, or a
    greenfield discharge obligation.

    Granted records may later go stale, but are never deleted.
    """

    __slots__ = ("id", "stakeholder", "target", "subject", "status", "sequence")

    def __init__(self, id: str, stakeholder: str, target: ValidationTarget, subject: str,
                 status: ValidationStatus, sequence: int):
        self.id = id
        self.stakeholder = stakeholder
        self.target = target
        self.subject = subject
        self.status = status
        self.sequence = sequence
