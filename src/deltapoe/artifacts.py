"""Artefacts attached to rule applications: justifications, plan steps,
validation records, and the closed set of rule identifiers."""

from __future__ import annotations

import enum
from operator import attrgetter


class Record:
    """Base of the package's value classes.

    A subclass lists its fields, in order, in ``__slots__``.  Unless its
    body defines ``__init__``, the class gets one that takes the fields in
    slot order and assigns each of them, with the defaults of its trailing
    fields given by the class keyword ``defaults``, as in
    ``class PlanStep(Record, defaults={"deadline": None})``.  A class
    that validates or derives in ``__init__`` defines its own.  Instances
    compare equal when they are of the same class and their field tuples
    are equal; the hash is the hash of the field tuple, and the repr names
    each field.  A slot whose name starts with an underscore holds data
    derived from the fields, such as an index, and is not a field.

    Records are immutable by convention, not by a guard, so they can be
    shared and used as set members and dict keys.  Three kinds of record
    are assigned after ``__init__`` returns, and all are unhashable:
    ``macro.Workflow``, the fold's working state, ``macro.Folded``, which
    each append updates, and ``calculus.DerivationNode``, whose premises
    and alternatives ``calculus.build`` sets, only in nodes it has made
    and not yet returned.
    """

    __slots__ = ()

    def __init_subclass__(cls, defaults={}):
        super().__init_subclass__()
        names = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._names = names
        cls._index = {name: i for i, name in enumerate(names)}
        if len(names) > 1:
            cls._values = attrgetter(*names)
        elif names:  # attrgetter of one name gives the bare value, not a 1-tuple
            get = attrgetter(names[0])
            cls._values = staticmethod(lambda obj: (get(obj),))
        else:
            cls._values = staticmethod(lambda obj: ())
        if names and "__init__" not in cls.__dict__:
            params = ", ".join(f"{name}=_defaults[{name!r}]" if name in defaults else name
                               for name in names)
            body = "".join(f"\n    self.{name} = {name}" for name in names)
            space = {}
            exec(f"def __init__(self, {params}):{body}",
                 {"__name__": cls.__module__, "_defaults": defaults}, space)
            space["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = space["__init__"]

    def _replace(self, **fields):
        """A copy of this record with ``fields`` in place of its own."""
        values = list(self._values(self))
        for name, value in fields.items():
            values[self._index[name]] = value
        return type(self)(*values)

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


class Justification(Record, defaults={
        "rule_rationale": None, "coordination_rationale": None, "integration_argument": None,
        "dependency_argument": None, "risk_register": (), "feedback_cadence": None,
        "timeline_rationale": None, "validation_criteria": None, "resource_rationale": None}):
    """The rationale a rule application must carry.

    Which optional fields are required depends on the rule; the checker
    enforces the per-rule profile.
    """

    __slots__ = ("rule_rationale", "coordination_rationale", "integration_argument",
                 "dependency_argument", "risk_register", "feedback_cadence",
                 "timeline_rationale", "validation_criteria", "resource_rationale")


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
            import datetime  # here, not at the top: a process that parses no date skips it

            datetime.date.fromisoformat(value)
        self.kind = kind  # "absolute" | "relative"
        self.value = value


class PlanStep(Record, defaults={"after": (), "parallel_ok": (), "deadline": None}):
    """One schedulable action of an implementation plan."""

    __slots__ = ("id", "action", "installs", "after", "parallel_ok", "deadline")


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

    __slots__ = ("id", "stakeholder", "target", "status", "sequence")
