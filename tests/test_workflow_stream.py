"""The workflow commands fold a log while they decode it.  They must give
the bytes, exit codes and log contents of the path that decodes the whole
log into a list first (``tests/oracles.py``), and hold the log's text and
the folded state rather than its events."""

import contextlib
import io
import json
import os
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from deltapoe import cli, macro

from .oracles import fold_reference, read_log_eager, run_workflow_eager
from .test_macro import NAMES, draw_event

# every line boundary of ``str.splitlines``
SEPARATORS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@given(st.lists(st.sampled_from(SEPARATORS + ("a", "é", " ", "\t", "{}", ""))).map("".join))
@settings(max_examples=500)
def test_lines_split_as_splitlines(text):
    assert list(macro._lines(text)) == text.splitlines()
    assert len(macro.Log(text)) == sum(1 for line in text.splitlines() if line.strip())


def test_parse_log_is_the_list_of_the_stream():
    text = "".join(macro.Event(n, "w", "k", {"n": n}).to_line() + "\n\n" for n in range(1, 4))
    events = macro.parse_log(text)
    assert type(events) is list and events == list(macro.Log(text)) and len(macro.Log(text)) == 3


# --- the commands against the eager path ----------------------------------------------

MODEL = ("model {\n  stakeholder G : problem-owner { trusts D, Impl }\n"
         "  stakeholder D : problem-owner { trusts G, Impl }\n"
         "  stakeholder Impl : problem-owner { trusts G, D }\n}\n")
BROKEN_MODEL = "model { stakeholder }\n"
INSERTED = ("\x0c", "\x1c", "\x85", "\u2028")
BLANKS = ("", " ", "\t", " \t ", "\x0c", "\x1c", "\x85", "\u2028")


def draw_lines(draw) -> list[list[str]]:
    """The lines of a log, each as [text, ending], from the reference
    fold's candidate events; an event the fold refuses is kept now and
    then, so that later lines follow an illegal event."""
    events, workflows = [], {}
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        event = draw_event(draw, workflows, macro.next_sequence(events))
        try:
            workflows = fold_reference(events + [event])[0]
        except macro.MacroError:
            if draw(st.sampled_from([False] * 5 + [True])):
                continue
        events.append(event)
    return [[event.to_line(), "\n"] for event in events]


def mutate(draw, lines: list[list[str]]) -> bytes:
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(("bad-json", "wrong-type", "blank", "inside", "between")))
        at = draw(st.integers(min_value=0, max_value=len(lines)))
        if kind == "blank" or at == len(lines):
            lines.insert(at, [draw(st.sampled_from(BLANKS)), "\n"])
        elif kind == "bad-json":
            lines[at][0] = draw(st.sampled_from(
                [f'{{"sequence": {at + 1}, oops}}', lines[at][0][:-1], lines[at][0] + " x"]))
        elif kind == "wrong-type":
            try:
                raw = json.loads(lines[at][0])
            except ValueError:  # a line already mutated
                continue
            if type(raw) is not dict or not raw:
                continue
            key = draw(st.sampled_from(sorted(raw)))
            raw[key] = draw(st.sampled_from([str(raw[key]), [raw[key]], None, 7]))
            lines[at][0] = json.dumps(raw)
        elif kind == "inside":
            text = lines[at][0]
            cut = draw(st.integers(min_value=0, max_value=len(text)))
            lines[at][0] = text[:cut] + draw(st.sampled_from(INSERTED)) + text[cut:]
        else:
            lines[at][1] = draw(st.sampled_from(SEPARATORS))
    text = "".join(line + ending for line, ending in lines)
    if text and draw(st.sampled_from([False] * 5 + [True])):
        text = text[:-1]  # a torn last line
    data = text.encode("utf-8")
    if draw(st.sampled_from([False] * 7 + [True])):
        cut = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3"])) + data[cut:]
    return data


def draw_argv(draw, model: Path, broken: Path) -> list[str]:
    kind = draw(st.sampled_from(("status", "advance", "drift", "delegate")))
    workflow = draw(st.sampled_from(("w0", "w1")))
    if kind == "status":
        return ["status"]
    if kind == "drift":
        return ["drift", "--touch", draw(st.sampled_from(NAMES))]
    if kind == "delegate":
        argv = ["delegate", "--workflow", workflow, "--to", draw(st.sampled_from(("G", "D", "Impl"))),
                "--child", draw(st.sampled_from(("w1", "c9")))]
        return argv + draw(st.sampled_from([[], ["--model", str(model)], ["--model", str(broken)]]))
    event = draw(st.sampled_from(("submit-view", "request-validation", "record-validation",
                                  "submit-solution", "begin-implementation", "complete")))
    argv = ["advance", "--workflow", workflow, "--event", event,
            "--by", "G", "--status", "granted", "--mode", "self", "--solution", "s", "--refs", "S0"]
    return argv + draw(st.sampled_from([[], ["--owner", "G", "--delegate", "D"]]))


def run_on(log: Path, data: bytes, argv: list[str]):
    """Exit code, stdout, stderr and the log's bytes after one command."""
    log.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["workflow", str(log), *argv])
    return code, out.getvalue(), err.getvalue(), log.read_bytes()


def run_eager(log: Path, data: bytes, argv: list[str]):
    with mock.patch.object(cli, "_read_log", read_log_eager), \
            mock.patch.object(cli, "_run_workflow", run_workflow_eager):
        return run_on(log, data, argv)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_commands_match_the_eager_path(data):
    """Logs of legal and illegal events, with bad JSON, fields of the
    wrong type, blank lines, line boundaries inside and between values, a
    torn last line or a byte that is not UTF-8: each command prints,
    exits and leaves the log as the eager path does."""
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        model, broken = scratch / "model.poed", scratch / "broken.poed"
        model.write_text(MODEL)
        broken.write_text(BROKEN_MODEL)
        log_bytes = mutate(data.draw, draw_lines(data.draw))
        argv = draw_argv(data.draw, model, broken)
        log = scratch / "wf.jsonl"
        assert run_on(log, log_bytes, argv) == run_eager(log, log_bytes, argv)


ILLEGAL_THEN_BAD = (
    '{"sequence": 1, "workflow": "w1", "event": "create", "payload": {"owner": "G", "delegate": "D"}}\n'
    '{"sequence": 2, "workflow": "w1", "event": "submit-solution", "payload": {}}\n'
    '{"sequence": 3, "workflow": "w1", "event": "submit-view", "payload": {}}\n'
    '{"sequence": 4, oops}\n'
)


def test_a_bad_line_after_an_illegal_event_is_reported(tmp_path):
    """Line 2 is illegal in CPS1 and line 4 is not JSON: the bad line is
    reported, with exit 2, as when every line is decoded before the fold."""
    log = tmp_path / "wf.jsonl"
    data = ILLEGAL_THEN_BAD.encode()
    argv = ["advance", "--workflow", "w1", "--event", "submit-view"]
    message = f"{log}: line 4: Expecting property name enclosed in double quotes: line 1 column 17 (char 16)\n"
    assert run_on(log, data, argv) == (2, "", message, data) == run_eager(log, data, argv)


def test_a_delegate_reads_its_model_before_the_fold_is_refused(tmp_path):
    """``delegate`` reports a model it cannot read before an event of the
    log that the fold refuses, and a bad line of the log before both."""
    log, broken = tmp_path / "wf.jsonl", tmp_path / "broken.poed"
    broken.write_text(BROKEN_MODEL)
    argv = ["delegate", "--workflow", "w1", "--to", "D", "--child", "c1", "--model", str(broken)]
    illegal = ILLEGAL_THEN_BAD.rsplit("{", 1)[0].encode()
    code, out, err, _ = run_on(log, illegal, argv)
    assert (code, out) == (2, "") and err.startswith(f"{broken}:") and "submit-solution" not in err
    assert run_on(log, illegal, argv) == run_eager(log, illegal, argv)
    code, out, err, _ = run_on(log, ILLEGAL_THEN_BAD.encode(), argv)
    assert (code, out, err) == (2, "", f"{log}: line 4: Expecting property name enclosed in double "
                                        "quotes: line 1 column 17 (char 16)\n")


# --- memory --------------------------------------------------------------------------

def status_peak(log: Path) -> tuple[int, str]:
    """The traced peak of ``workflow status`` on ``log``, and its output."""
    out = io.StringIO()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.reset_peak()
        assert cli.main(["workflow", str(log), "status"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    with contextlib.redirect_stdout(out):
        cli.main(["workflow", str(log), "status"])
    return peak, out.getvalue()


def test_status_holds_the_text_and_the_state_not_the_events(tmp_path):
    """Two logs fold to the same workflows; the second has 3,000 more
    drifts, on a name no workflow uses.  Folding it may cost more memory
    by about its extra text, not by the events decoded from that text (six
    times as much while each stays alive)."""
    events, sequence = [], 0
    for index in range(100):  # large folded state, so that the fold holds the peak
        sequence += 1
        problem = {"text": "", "domains": [f"D{index}_{k}" for k in range(300)], "phenomena": [],
                   "needs": []}
        events.append(macro.Event(sequence, f"w{index}", "create",
                                  {"owner": "G", "delegate": "D", "problem": problem}))
    drifts = [macro.Event(sequence + k, macro.ORG, "drift",
                          {"touched": ["Unrelated"], "description": "", "origin": "environment"})
              for k in range(1, 3001)]
    small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
    small.write_text(macro.render_log(events))
    large.write_text(macro.render_log(events + drifts))
    tracemalloc.start()
    try:
        status_peak(small)  # first use: imports and caches
        small_peak, small_out = status_peak(small)
        large_peak, large_out = status_peak(large)
    finally:
        tracemalloc.stop()
    assert small_out == large_out
    extra_text = large.stat().st_size - small.stat().st_size
    assert large_peak - small_peak < 1.5 * extra_text, (large_peak - small_peak) / extra_text
