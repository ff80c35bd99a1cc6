"""The delegation workflow: change problem exploration, problem
validation, solution exploration, solution validation, implementation.

State is a pure fold over an append-only event log, one log per
workflow tree.  The fold is the gatekeeper: replaying a log either
reconstructs the identical state or fails at the first illegal event.
Over a ``Log`` of an open binary file the fold, and ``Log.check`` after
it, read the file in blocks of 8 KiB and decode the whole lines of each,
so that they hold the state and one block, or one line if a line is
longer, never the log's text or a list of its events.  Each event kind
has one handler, which the fold and the appending functions share;
equal name sets and stakeholder names in the state are one object each.
Validation verdicts are records that may later go stale when the
environment or need drifts; stale validations regress the workflow to
the step that must be redone, and are never deleted.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Mapping
from typing import TYPE_CHECKING, BinaryIO, NamedTuple

from .artifacts import Record, ValidationRecord, ValidationStatus, ValidationTarget

if TYPE_CHECKING:
    from . import model as m
    from .dsl import Model


class MacroError(Exception):
    """A workflow event that cannot be appended or replayed."""


class IllegalTransition(MacroError):
    def __init__(self, state, event, detail=""):
        extra = f" ({detail})" if detail else ""
        super().__init__(f"event {event!r} is not legal in state {state}{extra}")
        self.state = state
        self.event = event


class WrongStakeholder(MacroError):
    """A validation recorded by a party other than the owner."""


class TrustMissing(MacroError):
    """A delegation to a party the delegating one does not trust."""


class UnknownWorkflow(MacroError):
    def __init__(self, workflow_id):
        super().__init__(f"no workflow {workflow_id!r} in this log")
        self.workflow_id = workflow_id


class BadLog(MacroError):
    """A log line or logged event that is not a well-formed event."""


class CpsState(str, enum.Enum):
    CPS1 = "CPS1"  # change problem exploration
    CPS2 = "CPS2"  # change problem validation
    CPS3 = "CPS3"  # change solution exploration
    CPS4 = "CPS4"  # change solution validation
    CPS5 = "CPS5"  # change solution implementation
    DONE = "Done"


ORG = "*"  # workflow field of org-level (drift) events
_NO_NAMES: frozenset[str] = frozenset()  # the one empty name set of a folded state


class Event(NamedTuple):
    sequence: int
    workflow: str
    kind: str
    payload: dict

    def to_line(self) -> str:
        return json.dumps(
            {
                "sequence": self.sequence,
                "workflow": self.workflow,
                "event": self.kind,
                "payload": self.payload,
            },
            separators=(", ", ": "),
        )


def render_log(events: list[Event]) -> str:
    return "".join(e.to_line() + "\n" for e in events)


_raw_decode = json.JSONDecoder().raw_decode


_FIELDS = (("sequence", int, "an integer"), ("workflow", str, "a string"),
           ("event", str, "a string"), ("payload", dict, "an object"))


_BLOCK = 1 << 13  # bytes per read of a log file


def _pieces(source: str | BinaryIO):
    """A log's text, or the binary file that holds it read from its start
    and decoded as UTF-8, in pieces that each end at a line boundary, so
    that the lines ``str.splitlines`` finds in the pieces are the lines of
    the text.  The file is read in blocks of ``_BLOCK`` bytes, each cut
    after its last ``\\n``, which never falls inside a UTF-8 sequence or a
    ``\\r\\n`` pair; the bytes after the cut begin the next piece.  So a
    piece holds at most a block and the start of a line, or one line
    when a line is longer.  A byte that is not UTF-8 is a ``BadLog``
    named by its offset in the file."""
    if isinstance(source, str):
        yield from source.splitlines(True)
        return
    source.seek(0)
    offset, piece = 0, bytearray()
    while block := source.read(_BLOCK):
        cut = block.rfind(b"\n") + 1
        if not cut:  # within a line longer than a block
            piece += block
            continue
        piece += block[:cut]
        yield _decoded(piece, offset)
        offset += len(piece)
        piece = bytearray(block[cut:])
    if piece:
        yield _decoded(piece, offset)


def _decoded(piece: bytearray, offset: int) -> str:
    """``piece`` of a log file, which starts at byte ``offset``, decoded."""
    try:
        return piece.decode("utf-8")
    except UnicodeDecodeError as err:
        raise BadLog(f"not valid UTF-8: byte 0x{piece[err.start]:02x} "
                     f"at offset {offset + err.start}") from None


def parse_log(text: str) -> list[Event]:
    """The events of a log's text, as a list."""
    return list(iter(Log(text)))  # a bare Log would be counted first, for a length hint


class Log:
    """The events of a log, from its text or from the binary file that
    holds it, decoded line by line as they are read: a fold over a log
    holds one decoded event at a time, and over a file no more of the
    text than the piece ``_pieces`` read last, one 8 KiB block or one
    line if a line is longer.  ``len`` counts the lines that are
    not blank, which are the events of a log whose lines all decode,
    without decoding them.  Once all events are read, ``last`` is the
    sequence number of the last one, ``lines`` the number of lines, and
    ``torn`` whether the last line has no final newline (a final ``\\r``
    is one, as a file read in text mode gives it).  Each pass over a file,
    ``len`` among them, reads it from its start."""

    __slots__ = ("source", "last", "lines", "torn")

    def __init__(self, source: str | BinaryIO):
        self.source = source
        self.last = 0
        self.lines = 0
        self.torn = False

    def __iter__(self):
        """The events, one line at a time; blank lines are skipped.  A line
        that is one JSON value with no blanks around it, as ``to_line``
        writes it, is decoded in place; any other line goes through
        ``json.loads``, whose error (a number too long to convert among
        them) a ``BadLog`` names with the line's number, as it names a
        field of the wrong type, once the rest of the log has decoded."""
        new, event, lineno, piece = tuple.__new__, None, 0, ""
        pieces = _pieces(self.source)
        try:
            for piece in pieces:
                for line in piece.splitlines():
                    lineno += 1
                    try:
                        try:
                            raw, end = _raw_decode(line)
                        except json.JSONDecodeError:
                            end = -1
                        if end != len(line):
                            if not line or line.isspace():
                                continue
                            raw = json.loads(line)
                        fields = raw["sequence"], raw["workflow"], raw["event"], raw["payload"]
                    except (ValueError, KeyError, TypeError) as err:
                        raise BadLog(f"line {lineno}: {err}")
                    except RecursionError:  # the decoder recurses once per nesting level
                        raise BadLog(f"line {lineno}: JSON nested too deeply") from None
                    if (type(fields[0]) is not int or type(fields[1]) is not str
                            or type(fields[2]) is not str or type(fields[3]) is not dict):
                        key, _, what = next(f for f, value in zip(_FIELDS, fields) if type(value) is not f[1])
                        raise BadLog(f"line {lineno}: field {key!r} is not {what}")
                    event = new(Event, fields)
                    yield event
        except BadLog:
            for _ in pieces:  # the rest must decode: a byte that is not UTF-8 is raised first
                pass
            raise
        self.last = event.sequence if event else 0
        self.lines = lineno
        self.torn = bool(piece) and not piece.endswith(("\n", "\r"))

    def __len__(self) -> int:
        return sum(1 for piece in _pieces(self.source) for line in piece.splitlines()
                   if line and not line.isspace())

    def check(self) -> None:
        """Read the whole log, raising ``BadLog`` for a byte that is not
        UTF-8, or else for the first line that is not an event."""
        for _ in self:
            pass


class ProblemRefs(Record):
    """The names a problem mentions, used to key staleness on drift."""

    __slots__ = ("text", "domains", "phenomena", "needs")

    def __init__(self, text: str, domains: frozenset[str], phenomena: frozenset[str],
                 needs: frozenset[str]):
        self.text = text
        self.domains = domains
        self.phenomena = phenomena
        self.needs = needs

    def to_payload(self) -> dict:
        return {
            "text": self.text,
            "domains": sorted(self.domains),
            "phenomena": sorted(self.phenomena),
            "needs": sorted(self.needs),
        }

    @classmethod
    def from_payload(cls, raw: dict, shared: dict | None = None) -> "ProblemRefs":
        """The names of a logged problem, each set taken from ``shared``
        (see ``fold``) when an equal one is there."""
        shared = {} if shared is None else shared
        if type(raw) is not dict:
            raise BadLog("payload field 'problem' is not an object")
        text = raw.get("text", "")
        if type(text) is not str:
            raise BadLog("payload field 'text' is not a string")
        return cls(text, _names(raw, "domains", shared), _names(raw, "phenomena", shared),
                   _names(raw, "needs", shared))


def problem_refs(problem: m.Problem, text: str = "") -> ProblemRefs:
    from . import model as m

    return ProblemRefs(
        text,
        frozenset(problem.env.names()) | m.referenced_domains(problem.change),
        m.phenomena_universe(problem.env),
        m.need_atoms(problem.need),
    )


class Workflow(Record):
    """Folded state of one delegation.  The fold updates it in place, so
    unlike other records it is mutable and unhashable."""

    __slots__ = ("id", "owner", "delegate", "problem", "state", "children", "validations",
                 "solution_refs", "solution_text", "implementation_mode")
    __hash__ = None

    def __init__(
        self,
        id: str,
        owner: str,
        delegate: str,
        problem: ProblemRefs,
        state: CpsState = CpsState.CPS1,
        children: tuple[str, ...] = (),
        validations: tuple[ValidationRecord, ...] = (),
        solution_refs: frozenset[str] = _NO_NAMES,
        solution_text: str = "",
        implementation_mode: str | None = None,
    ):
        self.id = id
        self.owner = owner
        self.delegate = delegate
        self.problem = problem
        self.state = state
        self.children = children
        self.validations = validations
        self.solution_refs = solution_refs
        self.solution_text = solution_text
        self.implementation_mode = implementation_mode

    def pending(self) -> ValidationRecord | None:
        """The pending validation, if any.  It can only be the last
        record: only ``request-validation`` appends one, and it is refused
        while a validation is pending."""
        if self.validations and self.validations[-1].status is ValidationStatus.PENDING:
            return self.validations[-1]
        return None

    def effective(self, target: ValidationTarget) -> ValidationRecord | None:
        """Latest granted, non-stale validation for a target, found by
        scanning the records from the last."""
        for record in reversed(self.validations):
            if record.target is target and record.status is ValidationStatus.GRANTED:
                return record
        return None


class StalenessReport(Record):
    __slots__ = ("sequence", "touched", "stale", "regressions")

    def __init__(self, sequence: int, touched: frozenset[str],
                 stale: tuple[tuple[str, str, str], ...],
                 regressions: tuple[tuple[str, str, str], ...]):
        self.sequence = sequence
        self.touched = touched
        self.stale = stale  # (workflow, record id, target)
        self.regressions = regressions  # (workflow, from, to)

    @property
    def empty(self) -> bool:
        return not self.stale and not self.regressions


# --- the fold -------------------------------------------------------------------
#
# Each event kind has one handler in ``_HANDLERS``, which the fold, the
# appending functions and ``_apply_event`` share.  A handler checks the
# event against the workflows in the order of the errors it raises, then
# updates them in place; it takes the name sets and stakeholder names it
# adds to the state from ``shared`` (see ``fold``) when an equal one is
# there.  The enum members the handlers test are read as module names,
# which is faster than reading them as attributes of their enum classes.

_CPS1, _CPS2, _CPS3, _CPS4, _CPS5, _DONE = CpsState
_PENDING, _GRANTED, _REJECTED, _STALE = ValidationStatus
_SOLUTION_PLAN = ValidationTarget.SOLUTION_PLAN

_GATE_TARGET = {
    CpsState.CPS2: ValidationTarget.PROBLEM_VIEW,
    CpsState.CPS4: ValidationTarget.SOLUTION_PLAN,
}


def _workflow(workflows: dict[str, Workflow], event: Event) -> Workflow:
    """The workflow ``event`` steps."""
    wf = workflows.get(event.workflow)
    if wf is None:
        raise UnknownWorkflow(event.workflow)
    return wf


def _on_create(workflows: dict[str, Workflow], event: Event, shared: dict) -> None:
    if event.workflow in workflows:
        raise IllegalTransition("-", "create", f"workflow {event.workflow!r} already exists")
    payload = event.payload
    owner, delegate = _text(payload, "owner"), _text(payload, "delegate")
    workflows[event.workflow] = Workflow(
        event.workflow, shared.setdefault(owner, owner), shared.setdefault(delegate, delegate),
        ProblemRefs.from_payload(payload.get("problem", {}), shared))


def _on_submit_view(workflows: dict[str, Workflow], event: Event, shared: dict) -> None:
    wf = _workflow(workflows, event)
    if wf.state is not _CPS1:
        raise IllegalTransition(wf.state.value, "submit-view")
    wf.state = _CPS2


def _on_request_validation(workflows: dict[str, Workflow], event: Event, shared: dict) -> None:
    wf = _workflow(workflows, event)
    state, validations = wf.state, wf.validations
    target = _GATE_TARGET.get(state)
    if target is None:
        raise IllegalTransition(state.value, "request-validation")
    if validations and validations[-1].status is _PENDING:
        raise IllegalTransition(state.value, "request-validation", "a validation is already pending")
    sequence = event.sequence
    wf.validations = validations + (
        ValidationRecord(f"v{sequence}", wf.owner, target, wf.id, _PENDING, sequence),)


def _on_record_validation(workflows: dict[str, Workflow], event: Event, shared: dict) -> None:
    wf = _workflow(workflows, event)
    state, validations = wf.state, wf.validations
    if state is not _CPS2 and state is not _CPS4:
        raise IllegalTransition(state.value, "record-validation")
    if not validations or validations[-1].status is not _PENDING:
        raise IllegalTransition(state.value, "record-validation", "no validation is pending")
    payload = event.payload
    by = payload.get("by")
    if by != wf.owner:
        raise WrongStakeholder(
            f"only the owner {wf.owner!r} may validate workflow {wf.id!r}, not {by!r}"
        )
    status = payload.get("status")
    granted = status == "granted"
    if not granted and status != "rejected":
        raise IllegalTransition(state.value, "record-validation", "status must be granted or rejected")
    if granted and state is _CPS4:
        for child_id in wf.children:
            child = workflows[child_id]
            if (child.state is not _CPS5 and child.state is not _DONE
                    or child.effective(_SOLUTION_PLAN) is None):
                raise IllegalTransition(
                    state.value, "record-validation",
                    f"sub-delegation {child_id!r} has no validated solution yet",
                )
    wf.validations = validations[:-1] + (
        _with_status(validations[-1], _GRANTED if granted else _REJECTED, event.sequence),)
    if state is _CPS2:
        wf.state = _CPS3 if granted else _CPS1
    else:
        wf.state = _CPS5 if granted else _CPS3
        wf.implementation_mode = None


def _on_submit_solution(workflows: dict[str, Workflow], event: Event, shared: dict) -> None:
    wf = _workflow(workflows, event)
    if wf.state is not _CPS3:
        raise IllegalTransition(wf.state.value, "submit-solution")
    payload = event.payload
    wf.solution_text = _text(payload, "solution", "")
    wf.solution_refs = _names(payload, "refs", shared)
    wf.state = _CPS4


def _on_begin_implementation(workflows: dict[str, Workflow], event: Event, shared: dict) -> None:
    wf = _workflow(workflows, event)
    if wf.state is not _CPS5:
        raise IllegalTransition(wf.state.value, "begin-implementation")
    if wf.implementation_mode is not None:
        raise IllegalTransition(wf.state.value, "begin-implementation", "implementation already begun")
    mode = event.payload.get("mode")
    if mode not in ("self", "delegate"):
        raise IllegalTransition(wf.state.value, "begin-implementation", "mode must be self or delegate")
    wf.implementation_mode = mode


def _on_delegate(workflows: dict[str, Workflow], event: Event, shared: dict) -> None:
    wf = _workflow(workflows, event)
    state = wf.state
    if state is not _CPS3 and state is not _CPS5:
        raise IllegalTransition(state.value, "delegate")
    payload = event.payload
    child_id = _text(payload, "child")
    if child_id in workflows:
        raise IllegalTransition(state.value, "delegate", f"workflow {child_id!r} already exists")
    to = _text(payload, "to")
    workflows[child_id] = Workflow(
        child_id, wf.delegate if state is _CPS3 else wf.owner, shared.setdefault(to, to),
        ProblemRefs.from_payload(payload.get("problem", {}), shared))
    wf.children += (child_id,)


def _on_complete(workflows: dict[str, Workflow], event: Event, shared: dict) -> None:
    wf = _workflow(workflows, event)
    if wf.state is not _CPS5:
        raise IllegalTransition(wf.state.value, "complete")
    if wf.implementation_mode is None:
        raise IllegalTransition(
            wf.state.value, "complete", "choose self- or delegated implementation first"
        )
    for child_id in wf.children:
        if workflows[child_id].state is not _DONE:
            raise IllegalTransition(
                wf.state.value, "complete", f"sub-delegation {child_id!r} is not done"
            )
    wf.state = _DONE


def _on_unknown(workflows: dict[str, Workflow], event: Event, shared: dict) -> None:
    raise IllegalTransition(_workflow(workflows, event).state.value, event.kind, "unknown event kind")


def _text(payload: dict, key: str, default: str | None = None) -> str:
    """The string at ``key`` of a logged event's payload, or ``default``
    if the key is absent."""
    value = payload.get(key, default)
    if type(value) is not str:
        raise BadLog(f"payload field {key!r} is " + ("not a string" if key in payload else "missing"))
    return value


def _names(raw: dict, key: str, shared: dict) -> frozenset[str]:
    """The names listed at ``key`` of a logged event's payload, or of a
    part of it; none if the key is absent.  The set is the one in
    ``shared`` equal to it, if there is one, and is put there if not."""
    value = raw.get(key, [])
    try:
        if type(value) is list:
            "".join(value)  # refuses, faster than a loop, any item but a string
            if not value:
                return _NO_NAMES
            names = frozenset(value)
            return shared.setdefault(names, names)
    except TypeError:
        pass
    raise BadLog(f"payload field {key!r} is not a list of names")


def _with_status(record: ValidationRecord, status: ValidationStatus, sequence: int):
    return ValidationRecord(record.id, record.stakeholder, record.target, record.subject, status, sequence)


def _on_drift(workflows: dict[str, Workflow], event: Event, shared: dict) -> StalenessReport:
    """Stale every granted validation recorded before the drift whose
    references meet the touched names, then regress each workflow that
    lost a gate.  A problem-view record refers to the problem's domains,
    phenomena and needs; a solution record also to the solution's refs.
    ``touched`` is tested once per workflow against each name set.

    Only a touched workflow in CPS3 to CPS5 can regress: an untouched one
    keeps its records, so the gates it passed still hold.  A workflow
    regressed to CPS2 also loses its pending validation, which can only be
    a solution request made at CPS4: it goes stale, so that the owner must
    request a new problem-view validation and CPS3 is reached only through
    a live one (the gate invariant of ``tests/oracles.py::verify_gates``).
    """
    touched = _names(event.payload, "touched", {})
    if not touched:
        raise IllegalTransition("-", "drift", "a drift event must touch something")
    stale: list[tuple[str, str, str]] = []
    regressions: list[tuple[str, str, str]] = []
    sequence = event.sequence
    for wf in workflows.values():
        problem = wf.problem
        problem_hit = not (
            touched.isdisjoint(problem.domains)
            and touched.isdisjoint(problem.phenomena)
            and touched.isdisjoint(problem.needs)
        )
        if not problem_hit and touched.isdisjoint(wf.solution_refs):
            continue
        records = list(wf.validations)
        for index, record in enumerate(records):
            if (
                record.status is _GRANTED
                and record.sequence < sequence
                and (problem_hit or record.target is _SOLUTION_PLAN)
            ):
                records[index] = _with_status(record, _STALE, record.sequence)
                stale.append((wf.id, record.id, record.target.value))
        wf.validations = tuple(records)
        before = wf.state
        if before not in (_CPS3, _CPS4, _CPS5):
            continue
        if wf.effective(ValidationTarget.PROBLEM_VIEW) is None:
            wf.state = _CPS2
        elif before is _CPS5 and wf.effective(_SOLUTION_PLAN) is None:
            wf.state = _CPS4
        if wf.state is not before:
            wf.implementation_mode = None
            regressions.append((wf.id, before.value, wf.state.value))
            pending = wf.pending()
            if wf.state is _CPS2 and pending is not None:
                wf.validations = wf.validations[:-1] + (
                    _with_status(pending, _STALE, pending.sequence),
                )
                stale.append((wf.id, pending.id, pending.target.value))
    return StalenessReport(event.sequence, touched, tuple(stale), tuple(regressions))


_HANDLERS = {
    "create": _on_create,
    "submit-view": _on_submit_view,
    "request-validation": _on_request_validation,
    "record-validation": _on_record_validation,
    "submit-solution": _on_submit_solution,
    "begin-implementation": _on_begin_implementation,
    "delegate": _on_delegate,
    "complete": _on_complete,
    "drift": _on_drift,
}


def _apply_event(workflows: dict[str, Workflow], event: Event,
                 shared: dict | None = None) -> StalenessReport | None:
    """Apply ``event`` through its handler; a drift returns its report."""
    return _HANDLERS.get(event.kind, _on_unknown)(workflows, event, {} if shared is None else shared)


def _replay(workflows: dict[str, Workflow], events, last: int, shared: dict) -> None:
    """Apply ``events`` in order after the one numbered ``last``, each
    through its handler; a payload field at fault is named with the
    event's number."""
    handlers = _HANDLERS
    for event in events:
        sequence = event.sequence
        if sequence <= last:
            raise BadLog(f"sequence {sequence} does not increase (after {last})")
        try:
            handlers.get(event.kind, _on_unknown)(workflows, event, shared)
        except BadLog as err:
            raise BadLog(f"event {sequence}: {err}") from None
        last = sequence


def fold(events: list[Event] | Log) -> dict[str, Workflow]:
    """Replay a log into workflow states, validating every event.  Over a
    ``Log`` it stops at the first event it refuses, before the lines
    after that one are decoded.

    Equal name sets in the state are one object, and so are equal
    stakeholder names: ``shared`` maps each to the first one made, and
    lives for this fold only (hash-consing, as in Filliatre and Conchon,
    *Type-Safe Modular Hash-Consing*, 2006)."""
    workflows: dict[str, Workflow] = {}
    _replay(workflows, events, 0, {})
    return workflows


# --- appending --------------------------------------------------------------------
#
# Each appending function takes a log as a list of its events or as its
# ``Folded`` state.  Given a list, it folds it once; given the state, it
# folds nothing, and the new event updates the state in place.

class Folded(NamedTuple):
    """A log's workflow states and the sequence number of its last event
    (0 for a log with none), taken from one fold: all that appending to
    the log needs."""

    workflows: dict[str, Workflow]
    last: int


def next_sequence(events: list[Event] | Folded) -> int:
    if isinstance(events, Folded):
        return events.last + 1
    return events[-1].sequence + 1 if events else 1


def _folded(events: list[Event] | Folded) -> Folded:
    """The state of ``events``, folded once unless it is given."""
    return events if isinstance(events, Folded) else Folded(fold(events), next_sequence(events) - 1)


def _validated_append(events: list[Event] | Folded, event: Event) -> dict[str, Workflow]:
    """The workflow states after ``event`` is appended to ``events``."""
    workflows, last = _folded(events)
    _replay(workflows, (event,), last, {})
    return workflows


def create_workflow(
    events: list[Event] | Folded,
    workflow_id: str,
    owner: str,
    delegate: str,
    problem: ProblemRefs,
) -> Event:
    payload = {"owner": owner, "delegate": delegate, "problem": problem.to_payload()}
    event = Event(next_sequence(events), workflow_id, "create", payload)
    _validated_append(events, event)
    return event


def advance(
    events: list[Event] | Folded,
    workflow_id: str,
    kind: str,
    payload: dict | None = None,
) -> tuple[Event, Workflow]:
    """Validate and produce the next event; returns it with the workflow
    state after application."""
    event = Event(next_sequence(events), workflow_id, kind, payload or {})
    state = _validated_append(events, event)
    return event, state[workflow_id]


def delegate(
    events: list[Event] | Folded,
    workflow_id: str,
    to: str,
    child_id: str,
    problem: ProblemRefs,
    stakeholders: Model | dict,
) -> tuple[Event, Workflow]:
    """Create a sub-delegation; the delegating party must trust the new
    delegate."""
    folded = _folded(events)
    workflows = folded.workflows
    if workflow_id not in workflows:
        raise UnknownWorkflow(workflow_id)
    wf = workflows[workflow_id]
    delegating = wf.delegate if wf.state is CpsState.CPS3 else wf.owner
    trusts = _trusts_of(stakeholders, delegating)
    if to not in trusts:
        raise TrustMissing(f"no trust edge {delegating} -> {to}")
    payload = {"to": to, "child": child_id, "problem": problem.to_payload()}
    event = Event(next_sequence(folded), workflow_id, "delegate", payload)
    return event, _validated_append(folded, event)[child_id]


def _trusts_of(stakeholders, name: str) -> frozenset[str]:
    if isinstance(stakeholders, Mapping):
        return frozenset(stakeholders.get(name, ()))
    try:
        return stakeholders.stakeholder(name).trusts
    except KeyError:
        return frozenset()


def drift(
    events: list[Event] | Folded,
    touched: frozenset[str],
    description: str = "",
    origin: str = "environment",
) -> tuple[Event, StalenessReport]:
    """Record an external change of context and mark what it invalidates."""
    if origin not in ("environment", "need"):
        raise MacroError(f"drift origin must be environment or need, not {origin!r}")
    payload = {"touched": sorted(touched), "description": description, "origin": origin}
    event = Event(next_sequence(events), ORG, "drift", payload)
    report = _apply_event(_folded(events).workflows, event)
    return event, report
