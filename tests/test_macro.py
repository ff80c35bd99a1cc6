import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapoe import macro
from deltapoe.artifacts import ValidationStatus, ValidationTarget
from deltapoe.macro import (
    CpsState,
    Event,
    IllegalTransition,
    ProblemRefs,
    TrustMissing,
    WrongStakeholder,
    advance,
    create_workflow,
    delegate,
    drift,
    fold,
    parse_log,
    render_log,
)

from .oracles import fold_reference, verify_gates

REFS = ProblemRefs(
    "[OldAPI] (+) ?F |= G : UpdateAPI",
    frozenset({"OldAPI"}),
    frozenset({"api.call", "build.run"}),
    frozenset({"UpdateAPI"}),
)

TRUSTS = {"G": {"D"}, "D": {"Impl"}}


def log_with(*steps, start=None):
    """Build a log by applying (workflow, kind, payload) steps in order."""
    events = list(start or [])
    for workflow_id, kind, payload in steps:
        event = Event(macro.next_sequence(events), workflow_id, kind, payload)
        fold(events + [event])
        events.append(event)
    return events


@pytest.fixture
def created():
    return [create_workflow([], "w1", "G", "D", REFS)]


def granted_to_cps3(events):
    return log_with(
        ("w1", "submit-view", {}),
        ("w1", "request-validation", {}),
        ("w1", "record-validation", {"by": "G", "status": "granted"}),
        start=events,
    )


def granted_to_cps5(events):
    return log_with(
        ("w1", "submit-solution", {"solution": "!OldAPI", "refs": ["OldAPI", "OldAPI'"]}),
        ("w1", "request-validation", {}),
        ("w1", "record-validation", {"by": "G", "status": "granted"}),
        start=granted_to_cps3(events),
    )


def state_of(events, workflow_id="w1"):
    return fold(events)[workflow_id].state


# --- basic transitions ----------------------------------------------------------

def test_fresh_workflow_starts_in_cps1(created):
    assert state_of(created) is CpsState.CPS1


def test_submit_view_reaches_cps2(created):
    events = log_with(("w1", "submit-view", {}), start=created)
    assert state_of(events) is CpsState.CPS2


def test_rejection_at_cps2_returns_to_cps1(created):
    events = log_with(
        ("w1", "submit-view", {}),
        ("w1", "request-validation", {}),
        ("w1", "record-validation", {"by": "G", "status": "rejected"}),
        start=created,
    )
    assert state_of(events) is CpsState.CPS1


def test_granted_cps4_reaches_cps5(created):
    events = granted_to_cps5(created)
    assert state_of(events) is CpsState.CPS5


def test_rejection_at_cps4_returns_to_cps3(created):
    events = log_with(
        ("w1", "submit-solution", {"solution": "!OldAPI", "refs": []}),
        ("w1", "request-validation", {}),
        ("w1", "record-validation", {"by": "G", "status": "rejected"}),
        start=granted_to_cps3(created),
    )
    assert state_of(events) is CpsState.CPS3


def test_complete_requires_cps5(created):
    events = granted_to_cps3(created)
    with pytest.raises(IllegalTransition):
        advance(events, "w1", "complete")


def test_complete_requires_mode_choice(created):
    events = granted_to_cps5(created)
    with pytest.raises(IllegalTransition):
        advance(events, "w1", "complete")
    events = log_with(("w1", "begin-implementation", {"mode": "self"}), start=events)
    events = log_with(("w1", "complete", {}), start=events)
    assert state_of(events) is CpsState.DONE


def test_validation_by_non_owner_rejected(created):
    events = log_with(
        ("w1", "submit-view", {}),
        ("w1", "request-validation", {}),
        start=created,
    )
    with pytest.raises(WrongStakeholder):
        advance(events, "w1", "record-validation", {"by": "D", "status": "granted"})


def test_record_without_pending_rejected(created):
    events = log_with(("w1", "submit-view", {}), start=created)
    with pytest.raises(IllegalTransition):
        advance(events, "w1", "record-validation", {"by": "G", "status": "granted"})


# --- delegation --------------------------------------------------------------------

def test_delegation_creates_child_owned_by_delegating_party(created):
    events = granted_to_cps3(created)
    event, child = delegate(events, "w1", "Impl", "w1/1", REFS, TRUSTS)
    assert child.state is CpsState.CPS1
    assert child.owner == "D"  # the CPS3 delegating party is the delegate
    assert child.delegate == "Impl"


def test_delegation_without_trust_rejected(created):
    events = granted_to_cps3(created)
    with pytest.raises(TrustMissing):
        delegate(events, "w1", "Nobody", "w1/1", REFS, TRUSTS)


def test_delegation_only_during_solving_or_implementation(created):
    with pytest.raises(IllegalTransition):
        log_with(("w1", "delegate", {"to": "D", "child": "w1/1", "problem": {}}), start=created)


def test_parent_cps4_grant_blocked_by_unsolved_child(created):
    events = granted_to_cps3(created)
    events = log_with(
        ("w1", "delegate", {"to": "Impl", "child": "w1/1", "problem": REFS.to_payload()}),
        ("w1", "submit-solution", {"solution": "?F1", "refs": []}),
        ("w1", "request-validation", {}),
        start=events,
    )
    with pytest.raises(IllegalTransition) as err:
        advance(events, "w1", "record-validation", {"by": "G", "status": "granted"})
    assert "w1/1" in str(err.value)


def child_through(events, child_id, owner, *steps):
    return log_with(*[(child_id, kind, payload) for kind, payload in steps], start=events)


def test_three_level_implementation_chain(created):
    # w1 delegates implementation; each level must finish before its parent can
    events = granted_to_cps5(created)
    events = log_with(
        ("w1", "begin-implementation", {"mode": "delegate"}),
        ("w1", "delegate", {"to": "Impl", "child": "w1/i", "problem": REFS.to_payload()}),
        start=events,
    )
    with pytest.raises(IllegalTransition):
        advance(events, "w1", "complete")
    events = child_through(
        events, "w1/i", "G",
        ("submit-view", {}),
        ("request-validation", {}),
        ("record-validation", {"by": "G", "status": "granted"}),
        ("submit-solution", {"solution": "skip", "refs": []}),
        ("request-validation", {}),
        ("record-validation", {"by": "G", "status": "granted"}),
        ("begin-implementation", {"mode": "self"}),
        ("complete", {}),
    )
    events = log_with(("w1", "complete", {}), start=events)
    workflows = fold(events)
    assert workflows["w1"].state is CpsState.DONE
    assert workflows["w1/i"].state is CpsState.DONE


# --- drift and staleness --------------------------------------------------------------

def test_drift_untouched_model_is_empty(created):
    events = granted_to_cps5(created)
    _, report = drift(events, frozenset({"Unrelated"}))
    assert report.empty


def test_drift_on_solution_only_reference_regresses_to_cps4(created):
    events = granted_to_cps5(created)
    event, report = drift(events, frozenset({"OldAPI'"}))
    # OldAPI' appears only in the submitted solution, not the problem view
    assert ("w1", "CPS5", "CPS4") in report.regressions
    events = events + [event]
    workflows = fold(events)
    assert workflows["w1"].state is CpsState.CPS4
    assert workflows["w1"].effective(ValidationTarget.PROBLEM_VIEW) is not None


def test_drift_on_problem_reference_regresses_to_cps2(created):
    events = granted_to_cps5(created)
    event, report = drift(events, frozenset({"OldAPI"}))
    assert ("w1", "CPS5", "CPS2") in report.regressions
    stale_targets = {target for _, _, target in report.stale}
    assert stale_targets == {"problem-view", "solution+plan"}
    assert fold(events + [event])["w1"].state is CpsState.CPS2


def test_two_drifts_accumulate_and_regrant_has_later_sequence(created):
    events = granted_to_cps5(created)
    e1, _ = drift(events, frozenset({"OldAPI"}))
    events = events + [e1]
    e2, second = drift(events, frozenset({"api.call"}))
    events = events + [e2]
    workflows = fold(events)
    stale = [v for v in workflows["w1"].validations if v.status is ValidationStatus.STALE]
    assert len(stale) == 2
    # re-validate the problem view; the new grant postdates both drifts
    events = log_with(
        ("w1", "request-validation", {}),
        ("w1", "record-validation", {"by": "G", "status": "granted"}),
        start=events,
    )
    fresh = fold(events)["w1"].effective(ValidationTarget.PROBLEM_VIEW)
    assert fresh is not None and fresh.sequence > e2.sequence


def test_stale_records_are_kept(created):
    events = granted_to_cps5(created)
    event, _ = drift(events, frozenset({"OldAPI"}))
    workflows = fold(events + [event])
    assert len(workflows["w1"].validations) == 2
    assert all(v.status is ValidationStatus.STALE for v in workflows["w1"].validations)


def test_drift_checks_workflows_it_stales_nothing_of(created):
    """A drift that regresses a workflow from CPS4 to CPS2 stales its
    pending solution request, so that request can no longer be granted
    there: the owner must request a new problem-view validation."""
    events = log_with(
        ("w1", "submit-solution", {"solution": "!OldAPI", "refs": ["OldAPI'"]}),
        ("w1", "request-validation", {}),
        start=granted_to_cps3(created),
    )
    pending = fold(events)["w1"].pending()
    event, report = drift(events, frozenset({"OldAPI"}))
    assert report.regressions == (("w1", "CPS4", "CPS2"),)
    assert ("w1", pending.id, "solution+plan") in report.stale
    events = events + [event]
    assert fold(events)["w1"].pending() is None
    with pytest.raises(IllegalTransition, match="no validation is pending"):
        advance(events, "w1", "record-validation", {"by": "G", "status": "granted"})
    events = log_with(
        ("w1", "request-validation", {}),
        ("w1", "record-validation", {"by": "G", "status": "granted"}),
        start=events,
    )
    wf = fold(events)["w1"]
    assert wf.state is CpsState.CPS3
    assert wf.effective(ValidationTarget.PROBLEM_VIEW) is not None
    verify_gates(events)


# --- log round trip and determinism -----------------------------------------------------

def test_log_round_trips(created):
    events = granted_to_cps5(created)
    assert parse_log(render_log(events)) == events


def test_replay_is_deterministic(created):
    events = granted_to_cps5(created)
    assert fold(events) == fold(events)


def test_sequence_must_increase(created):
    events = granted_to_cps5(created)
    bad = events + [Event(1, "w1", "begin-implementation", {"mode": "self"})]
    with pytest.raises(macro.BadLog):
        fold(bad)


def test_appending_folds_the_log_once(created, monkeypatch):
    events = granted_to_cps3(created)
    calls = []

    def counting_fold(log):
        calls.append(len(log))
        return fold(log)

    monkeypatch.setattr(macro, "fold", counting_fold)
    event, child = delegate(events, "w1", "Impl", "w1/1", REFS, TRUSTS)
    assert calls == [len(events)] and child.owner == "D"
    events = events + [event]
    calls.clear()
    event, wf = advance(events, "w1", "submit-solution", {"solution": "!OldAPI", "refs": []})
    assert calls == [len(events)] and wf.state is CpsState.CPS4
    events = events + [event]
    calls.clear()
    event, report = drift(events, frozenset({"OldAPI"}))
    assert calls == [len(events)] and report.regressions == (("w1", "CPS4", "CPS2"),)


def test_appending_keeps_the_sequence_check(created):
    """The event a caller appends is checked against the log's last
    sequence number, as a fold of the whole log would."""
    events = granted_to_cps3(created)
    with pytest.raises(macro.BadLog):
        macro._validated_append(events, Event(1, "w1", "submit-solution", {}))


# --- randomized gate integrity -----------------------------------------------------------

LEGAL_MOVES = {
    CpsState.CPS1: [("submit-view", {})],
    CpsState.CPS2: [
        ("request-validation", {}),
        ("record-validation", {"by": "G", "status": "granted"}),
        ("record-validation", {"by": "G", "status": "rejected"}),
    ],
    CpsState.CPS3: [("submit-solution", {"solution": "?F", "refs": ["OldAPI'"]})],
    CpsState.CPS4: [
        ("request-validation", {}),
        ("record-validation", {"by": "G", "status": "granted"}),
        ("record-validation", {"by": "G", "status": "rejected"}),
    ],
    CpsState.CPS5: [("begin-implementation", {"mode": "self"}), ("complete", {})],
    CpsState.DONE: [],
}


DRIFT_MOVES = [
    ("drift", frozenset({"OldAPI"})),
    ("drift", frozenset({"OldAPI'"})),
    ("drift", frozenset({"Unrelated"})),
]


def legal_moves(wf):
    moves = [m for m in LEGAL_MOVES[wf.state]]
    if wf.state in (CpsState.CPS2, CpsState.CPS4):
        if wf.pending() is None:
            moves = [m for m in moves if m[0] == "request-validation"]
        else:
            moves = [m for m in moves if m[0] == "record-validation"]
    if wf.state is CpsState.CPS5:
        if wf.implementation_mode is None:
            moves = [m for m in moves if m[0] == "begin-implementation"]
        else:
            moves = [m for m in moves if m[0] == "complete"]
    return moves


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_random_legal_walks_keep_gates(data):
    """Legal moves interleaved with drifts on the problem's names, the
    solution's refs or names the workflow does not use.  Once the
    workflow is done only drifts are drawn: they stale its records but do
    not reopen a finished delegation."""
    events = [create_workflow([], "w1", "G", "D", REFS)]
    for _ in range(data.draw(st.integers(min_value=0, max_value=25))):
        wf = fold(events)["w1"]
        kind, payload = data.draw(st.sampled_from(legal_moves(wf) + DRIFT_MOVES))
        if kind == "drift":
            event, _ = drift(events, payload)
        else:
            event, _ = advance(events, "w1", kind, payload)
        events.append(event)
    verify_gates(events)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_random_illegal_event_always_fails(data):
    events = [create_workflow([], "w1", "G", "D", REFS)]
    for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
        wf = fold(events)["w1"]
        moves = legal_moves(wf)
        if not moves:
            break
        kind, payload = data.draw(st.sampled_from(moves))
        event, _ = advance(events, "w1", kind, payload)
        events.append(event)
    wf = fold(events)["w1"]
    legal_now = {m[0] for m in legal_moves(wf)}
    all_kinds = {
        "submit-view", "submit-solution", "begin-implementation", "complete",
        "request-validation", "record-validation",
    }
    illegal = sorted(all_kinds - legal_now)
    if not illegal:
        return
    kind = data.draw(st.sampled_from(illegal))
    payload = {
        "record-validation": {"by": "G", "status": "granted"},
        "begin-implementation": {"mode": "self"},
    }.get(kind, {})
    with pytest.raises(macro.MacroError):
        advance(events, "w1", kind, payload)


# --- the fold against the reference fold ----------------------------------------------

NAMES = ("P0", "P1", "P2", "S0", "S1", "U0")  # problem, solution and unrelated names
ALL_KINDS = ("submit-view", "request-validation", "record-validation", "submit-solution",
             "begin-implementation", "complete", "delegate", "no-such-event")


def problem_payload(draw):
    names = draw(st.lists(st.sampled_from(NAMES[:3]), max_size=2, unique=True))
    return {"text": "", "domains": names[:1], "phenomena": names[1:], "needs": names[2:]}


def draw_event(draw, workflows, sequence):
    """An event that the fold may accept or refuse, mostly one of the
    legal moves of some workflow."""
    people = ("G", "D", "Impl")
    roll = draw(st.sampled_from(range(16)))
    if roll == 0 or not workflows:
        wid = draw(st.sampled_from([f"w{len(workflows)}", "w0"]))
        payload = {"owner": draw(st.sampled_from(people)), "delegate": draw(st.sampled_from(people)),
                   "problem": problem_payload(draw)}
        return Event(sequence, wid, "create", payload)
    if roll == 1:
        touched = draw(st.lists(st.sampled_from(NAMES), max_size=2, unique=True))
        return Event(sequence, macro.ORG, "drift", {"touched": touched, "description": "",
                                                    "origin": "environment"})
    wf = workflows[draw(st.sampled_from(sorted(workflows)))]
    kind = draw(st.sampled_from(ALL_KINDS)) if roll == 2 else None
    if kind is None:
        moves = legal_moves(wf)
        if wf.state in (CpsState.CPS3, CpsState.CPS5):
            moves.append(("delegate", {}))
        if not moves:
            return Event(sequence, wf.id, "complete", {})
        kind = draw(st.sampled_from([m[0] for m in moves]))
    payload = {}
    if kind == "record-validation":
        payload = {"by": draw(st.sampled_from((wf.owner, wf.owner, "Nobody"))),
                   "status": draw(st.sampled_from(("granted", "granted", "rejected", "maybe")))}
    elif kind == "submit-solution":
        refs = draw(st.lists(st.sampled_from(NAMES[3:5]), max_size=2, unique=True))
        payload = {"solution": f"solution {sequence}", "refs": refs}
    elif kind == "begin-implementation":
        payload = {"mode": draw(st.sampled_from(("self", "delegate", "other")))}
    elif kind == "delegate":
        child = draw(st.sampled_from([f"w{len(workflows)}", wf.id]))
        payload = {"to": draw(st.sampled_from(people)), "child": child, "problem": problem_payload(draw)}
    return Event(sequence, wf.id, kind, payload)


def fold_with_reports(events):
    """The library's fold, and the report of every drift event, from the
    same event function the fold uses."""
    folded = fold(events)
    workflows, reports = {}, []
    for event in events:
        report = macro._apply_event(workflows, event)
        if report is not None:
            reports.append(report)
    assert workflows == folded
    return workflows, reports


def outcome(fold_fn, events):
    try:
        return fold_fn(events)
    except macro.MacroError as err:
        return type(err), str(err)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_fold_matches_the_reference_fold(data):
    """Logs of several workflows, with delegations, rejections, solutions
    resubmitted with new refs, DONE workflows and drifts on problem-only,
    solution-only and unrelated names: the fold gives the reference fold's
    workflows, records and staleness reports, and refuses each illegal
    event with the reference's exception and message."""
    events: list[Event] = []
    workflows: dict = {}
    for _ in range(data.draw(st.integers(min_value=1, max_value=60))):
        sequence = macro.next_sequence(events)
        if data.draw(st.sampled_from([False] * 30 + [True])):
            sequence = data.draw(st.integers(min_value=0, max_value=sequence - 1))
        event = draw_event(data.draw, workflows, sequence)
        expected = outcome(fold_reference, events + [event])
        assert outcome(fold_with_reports, events + [event]) == expected
        if isinstance(expected[0], dict):  # accepted, not (exception type, message)
            events.append(event)
            workflows = expected[0]
