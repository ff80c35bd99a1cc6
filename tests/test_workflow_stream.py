"""The workflow commands fold a log while they read it from the file, one
line at a time.  They must give the bytes, exit codes and log contents of
the path that decodes the whole log into a list first
(``tests/oracles.py``), hold the folded state and one line rather than the
log's text or its events, share equal name sets, and write a long report
in a few writes."""

import contextlib
import importlib
import io
import json
import os
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapoe import cli, cmd_workflow, macro

from .oracles import fold_reference, read_log_eager, run_workflow_eager
from .test_macro import NAMES, draw_event

# every line boundary of ``str.splitlines``
SEPARATORS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@given(st.lists(st.sampled_from(SEPARATORS + ("a", "é", " ", "\t", "{}", ""))).map("".join))
@settings(max_examples=500)
def test_lines_split_as_splitlines(text):
    """The pieces a log is read in, of its text or of the bytes of a file,
    hold the lines of the text; ``len`` counts those that are not blank."""
    for source in (text, io.BytesIO(text.encode())):
        assert [line for piece in macro._pieces(source) for line in piece.splitlines()] == text.splitlines()
        assert len(macro.Log(source)) == sum(1 for line in text.splitlines() if line.strip())


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
        event = draw_event(draw, workflows, len(events) + 1)
        try:
            workflows = fold_reference(events + [event])[0]
        except macro.MacroError:
            if draw(st.sampled_from([False] * 5 + [True])):
                continue
        events.append(event)
    return [[event.to_line(), "\n"] for event in events]


# where one scan of a line and ``json.loads`` of it could part ways: blanks around the
# value, a key given twice, a raw U+2028 (a line boundary) inside a string, and values
# that decode to no event field or do not decode at all
PARTINGS = ("blanks-around", "non-finite", "duplicate-key", "u2028-in-string", "long-integer", "deep")
DEEP = 100_000  # lists nested past any recursion limit


def mutate(draw, lines: list[list[str]]) -> bytes:
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(("bad-json", "wrong-type", "blank", "inside", "between") + PARTINGS))
        at = draw(st.integers(min_value=0, max_value=len(lines)))
        if kind == "blank" or at == len(lines):
            lines.insert(at, [draw(st.sampled_from(BLANKS)), "\n"])
        elif kind == "bad-json":
            lines[at][0] = draw(st.sampled_from(
                [f'{{"sequence": {at + 1}, oops}}', lines[at][0][:-1], lines[at][0] + " x"]))
        elif kind in ("wrong-type", "non-finite"):
            try:
                raw = json.loads(lines[at][0])
            except (ValueError, RecursionError):  # a line already mutated
                continue
            if type(raw) is not dict or not raw:
                continue
            fields = raw
            if kind == "non-finite" and type(raw.get("payload")) is dict and raw["payload"]:
                fields = draw(st.sampled_from((raw, raw["payload"])))  # a payload field is read by a handler
            key = draw(st.sampled_from(sorted(fields)))
            value = fields[key]
            fields[key] = draw(st.sampled_from([str(value), [value], None, 7] if kind == "wrong-type"
                                               else [float("nan"), float("inf"), [float("-inf")]]))
            lines[at][0] = json.dumps(raw)
        elif kind == "inside":
            text = lines[at][0]
            cut = draw(st.integers(min_value=0, max_value=len(text)))
            lines[at][0] = text[:cut] + draw(st.sampled_from(INSERTED)) + text[cut:]
        elif kind == "between":
            lines[at][1] = draw(st.sampled_from(SEPARATORS))
        else:
            lines[at][0] = parted(draw, kind, lines[at][0])
    text = "".join(line + ending for line, ending in lines)
    if text and draw(st.sampled_from([False] * 5 + [True])):
        text = text[:-1]  # a torn last line
    data = text.encode("utf-8")
    if draw(st.sampled_from([False] * 7 + [True])):
        cut = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3"])) + data[cut:]
    return data


def parted(draw, kind: str, text: str) -> str:
    """``text``, a line of a log, changed by one of ``PARTINGS``."""
    if kind == "blanks-around":
        return draw(st.sampled_from(("", " ", "\t"))) + text + draw(st.sampled_from((" ", "\t ", "")))
    if kind == "duplicate-key":
        if not (text.startswith("{") and text.endswith("}")):
            return text
        key = draw(st.sampled_from(("sequence", "workflow", "event", "payload")))
        pair = f'"{key}": ' + draw(st.sampled_from(('7', '"w0"', '"*"', '"complete"', '{}')))
        return draw(st.sampled_from(("{" + pair + ", " + text[1:], text[:-1] + ", " + pair + "}")))
    if kind == "u2028-in-string":
        start = text.find('": "')
        cut = start + 4 + draw(st.integers(min_value=0, max_value=1))
        return text if start < 0 else text[:cut] + "\u2028" + text[cut:]
    if kind == "long-integer":  # the limit of ``int`` conversion is 4,300 digits
        return re.sub(r"\d+", "1" * draw(st.sampled_from((4300, 4301))), text, count=1)
    return "[" * DEEP + text + "]" * DEEP


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
    with mock.patch.object(cmd_workflow, "_read_log", read_log_eager), \
            mock.patch.object(cmd_workflow, "_run_workflow", run_workflow_eager):
        return run_on(log, data, argv)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_commands_match_the_eager_path(data):
    """Logs of legal and illegal events, with bad JSON, fields of the
    wrong type, blank lines, line boundaries inside and between values,
    the lines of ``PARTINGS``, a torn last line or a byte that is not
    UTF-8: each command prints, exits and leaves the log as the eager path
    does."""
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


def test_an_illegal_event_before_a_bad_line_is_reported(tmp_path):
    """Line 2 is illegal in CPS1 and line 4 is not JSON: the illegal event,
    the first fault in the text, is reported with exit 2."""
    log = tmp_path / "wf.jsonl"
    data = ILLEGAL_THEN_BAD.encode()
    argv = ["advance", "--workflow", "w1", "--event", "submit-view"]
    message = f"{log}: event 'submit-solution' is not legal in state CPS1\n"
    assert run_on(log, data, argv) == (2, "", message, data) == run_eager(log, data, argv)


def test_a_delegate_reports_the_logs_fault_before_it_reads_its_model(tmp_path):
    """``delegate`` reports an event of the log that the fold refuses, and
    a bad line of the log, before a model it cannot read."""
    log, broken = tmp_path / "wf.jsonl", tmp_path / "broken.poed"
    broken.write_text(BROKEN_MODEL)
    argv = ["delegate", "--workflow", "w1", "--to", "D", "--child", "c1", "--model", str(broken)]
    illegal = ILLEGAL_THEN_BAD.rsplit("{", 1)[0].encode()
    message = f"{log}: event 'submit-solution' is not legal in state CPS1\n"
    assert run_on(log, illegal, argv) == (2, "", message, illegal) == run_eager(log, illegal, argv)
    bad_line = (CREATED + '{"sequence": 2, oops}\n').encode()
    assert run_on(log, bad_line, argv) == (
        2, "", f"{log}: line 2: Expecting property name enclosed in double quotes: line 1 column 17 "
               "(char 16)\n", bad_line)


TWO_LINES = ('{"sequence": 1, "workflow": "root", "event": "create", '
             '"payload": {"owner": "G", "delegate": "D"}}\n'
             '{"sequence": 2, "workflow": "root", "event": "complete", "payload": {}}\n')


@pytest.mark.parametrize("argv", [["status"], ["advance", "--workflow", "root", "--event", "submit-view"],
                                  ["delegate", "--workflow", "root", "--to", "E", "--child", "c"],
                                  ["drift", "--touch", "X"]],
                         ids=["status", "advance", "delegate", "drift"])
def test_a_stored_event_the_fold_refuses_is_invalid_input_to_every_subcommand(tmp_path, argv):
    """An illegal event already in the log is the log's fault, not the new
    event's: every subcommand exits 2, not 1, and leaves the log as it is.
    So is a drift of one workflow, where ``drift`` writes only the whole
    organisation's, ``*``."""
    log = tmp_path / "wf.jsonl"
    ghost = '{"sequence": 1, "workflow": "ghost", "event": "drift", "payload": {"touched": ["x"]}}\n'
    for text, message in ((TWO_LINES, "event 'complete' is not legal in state CPS1"),
                          (ghost, "event 1: field 'workflow' of a drift is not '*'")):
        data = text.encode()
        assert run_pinned(log, data, argv) == (2, "", f"{log}: {message}\n", data)


def events_text(count: int, start: int = 1) -> str:
    """``count`` legal drifts from sequence ``start`` on, about 100 bytes
    a line, after a log's ``create``."""
    return "".join(macro.Event(sequence, macro.ORG, "drift",
                               {"touched": ["Unrelated"], "description": "", "origin": "environment"}).to_line()
                   + "\n" for sequence in range(start, start + count))


CREATED = ('{"sequence": 1, "workflow": "w1", "event": "create", '
           '"payload": {"owner": "G", "delegate": "D"}}\n')
ADVANCE = ["advance", "--workflow", "w1", "--event", "submit-view"]
PINNED_ARGVS = [["status"], ADVANCE, ["drift", "--touch", "Other"]]


def run_pinned(log: Path, data: bytes, argv: list[str]):
    """The command's exit code, stdout, stderr and log bytes, which must
    be the eager path's."""
    result = run_on(log, data, argv)
    assert result == run_eager(log, data, argv)
    return result


@pytest.mark.parametrize("argv", PINNED_ARGVS, ids=["status", "advance", "drift"])
def test_a_byte_past_the_first_chunk_is_named_by_its_offset_in_the_file(tmp_path, argv):
    """The file is decoded in blocks of ``macro._BLOCK`` bytes as it is
    read; the offset is still the byte's offset in the whole file."""
    log, data = tmp_path / "wf.jsonl", (CREATED + events_text(150, start=2)).encode()
    offset = data.index(b"\n", 12_000) + 1
    data = data[:offset] + b"\xff" + data[offset:]
    assert run_pinned(log, data, argv) == (
        2, "", f"{log}: not valid UTF-8: byte 0xff at offset {offset}\n", data)


@pytest.mark.parametrize("argv", PINNED_ARGVS, ids=["status", "advance", "drift"])
def test_crlf_line_endings_are_read(tmp_path, argv):
    log, text = tmp_path / "wf.jsonl", CREATED + events_text(150, start=2)
    data = text.replace("\n", "\r\n").encode()
    code, out, err, after = run_pinned(log, data, argv)
    assert (code, err) == (0, "") and after.startswith(data)
    assert out == ("workflow w1: CPS1  (owner G, delegate D)\n", "workflow w1: CPS2\n",
                   "drift: nothing invalidated\n")[PINNED_ARGVS.index(argv)]


def test_advance_refuses_a_torn_last_line(tmp_path):
    log, data = tmp_path / "wf.jsonl", (CREATED + events_text(150, start=2)).encode()[:-1]
    assert run_pinned(log, data, ADVANCE) == (
        2, "", f"{log}: line 151: no final newline; the last write may be torn, so nothing is "
               "appended\n", data)


@pytest.mark.parametrize("argv", PINNED_ARGVS, ids=["status", "advance", "drift"])
def test_a_refused_event_far_before_a_bad_line_is_reported(tmp_path, argv):
    """The fold stops at the refused event on line 2, more than a block
    (``macro._BLOCK`` bytes) before the bad line; the refused event, the
    first fault in the text, is reported."""
    refused = '{"sequence": 2, "workflow": "w1", "event": "complete", "payload": {}}\n'
    text = CREATED + refused + events_text(100, start=3) + '{"sequence": 103, oops}\n'
    assert len(text.encode()) - len((CREATED + refused).encode()) > macro._BLOCK
    log, data = tmp_path / "wf.jsonl", text.encode()
    assert run_pinned(log, data, argv) == (
        2, "", f"{log}: event 'complete' is not legal in state CPS1\n", data)


@pytest.mark.parametrize("argv", PINNED_ARGVS, ids=["status", "advance", "drift"])
def test_a_bad_line_far_before_a_bad_byte_is_reported(tmp_path, argv):
    """Line 2 is not an event, and a byte that is not UTF-8 lies more than
    a block (``macro._BLOCK`` bytes) later: the bad line, the first fault
    in the text, is reported."""
    data = (CREATED + '{"sequence": 2, oops}\n' + events_text(100, start=3)).encode()
    offset = data.index(b"\n", 10_000) + 1
    data = data[:offset] + b"\xff" + data[offset:]
    log = tmp_path / "wf.jsonl"
    assert run_pinned(log, data, argv) == (
        2, "", f"{log}: line 2: Expecting property name enclosed in double quotes: line 1 column 17 "
               "(char 16)\n", data)


@pytest.mark.parametrize("argv", PINNED_ARGVS, ids=["status", "advance", "drift"])
@pytest.mark.parametrize("fault, message", [
    ('{"sequence": 3, "workflow": "w1", "event": "complete", "payload": {}}\n',
     "event 'complete' is not legal in state CPS1"),
    ('{"sequence": 3, oops}\n',
     "line 3: Expecting property name enclosed in double quotes: line 1 column 17 (char 16)"),
    ("", "not valid UTF-8: byte 0xff at offset {offset}"),
], ids=["refused", "bad-line", "none"])
def test_the_lines_before_a_bad_byte_in_their_block_are_read_first(tmp_path, fault, message, argv):
    """A byte that is not UTF-8 on the line after ``fault``, in the same
    block: the whole lines before the byte are read and folded first, so a
    fault among them is reported, and else the byte."""
    head = (CREATED + events_text(1, start=2) + fault).encode()
    data = head + b'{"sequence": 4, "workflow": "w1", "event": "\xff"}\n' + events_text(5, start=5).encode()
    offset = data.index(b"\xff")
    log = tmp_path / "wf.jsonl"
    assert run_pinned(log, data, argv) == (2, "", f"{log}: {message.format(offset=offset)}\n", data)


EDGE_LOGS = {
    "final-cr": CREATED[:-1] + "\r",
    "crlf-then-final-cr": CREATED.replace("\n", "\r\n") + events_text(1, start=2)[:-1] + "\r",
    "final-form-feed": CREATED + "\x0c",
    "empty": "",
    "blank-lines-only": "\n \n\t\r\n",
    "bom": "\ufeff" + CREATED,
    "cr-inside-a-line": CREATED[:40] + "\r" + CREATED[40:],
    "trailing-blank": CREATED + " ",
}


@pytest.mark.parametrize("argv", PINNED_ARGVS, ids=["status", "advance", "drift"])
@pytest.mark.parametrize("text", EDGE_LOGS.values(), ids=EDGE_LOGS.keys())
def test_line_ends_and_blanks_at_the_edges_read_as_the_eager_path(tmp_path, text, argv):
    """The file is read as bytes; each line still ends where the text
    read in text mode ends it, and a final ``\\r`` is a final newline."""
    run_pinned(tmp_path / "wf.jsonl", text.encode(), argv)


# --- the edges of the blocks a file is read in -----------------------------------------

def owner_log(owner: str, ending: str = "\n") -> bytes:
    """A log of w1's create, 50 drifts, w2's create, owned by ``owner``
    and written unescaped, and one more drift; its lines end in
    ``ending``."""
    line = json.dumps({"sequence": 52, "workflow": "w2", "event": "create",
                       "payload": {"owner": owner, "delegate": "D"}}, ensure_ascii=False)
    text = CREATED + events_text(50, start=2) + line + "\n" + events_text(1, start=53)
    return text.replace("\n", ending).encode()


def shifted_to(at: int, mark: bytes, tail: str = "", ending: str = "\n") -> tuple[str, bytes]:
    """An owner of padding and ``tail``, and its ``owner_log``, padded so
    that the first ``mark`` from the owner on starts at byte ``at``."""
    base = owner_log(tail, ending)
    start = base.rindex(b'"owner": "') + len(b'"owner": "')
    pad = at - base.index(mark, start)
    assert pad >= 0
    owner = "O" * pad + tail
    return owner, owner_log(owner, ending)


def read_as_the_eager_path(log: Path, data: bytes, argv: list[str], owner: str):
    """The command succeeds as on the eager path, and ``status`` shows
    w2's owner."""
    code, out, err, _ = run_pinned(log, data, argv)
    assert (code, err) == (0, "")
    assert f"(owner {owner}, " in out or argv != ["status"]


@pytest.mark.parametrize("argv", PINNED_ARGVS, ids=["status", "advance", "drift"])
@pytest.mark.parametrize("char", ["\u00e9", "\u20ac", "\U0001f600"], ids=["2-byte", "3-byte", "4-byte"])
def test_a_character_cut_by_a_block_read_is_decoded_whole(tmp_path, char, argv):
    """A character of several bytes that the end of a block cuts, after
    each of its bytes but the last, is decoded whole."""
    encoded = char.encode()
    for cut in range(1, len(encoded)):
        owner, data = shifted_to(macro._BLOCK - cut, encoded, char)
        assert data[macro._BLOCK - cut:macro._BLOCK - cut + len(encoded)] == encoded
        read_as_the_eager_path(tmp_path / "wf.jsonl", data, argv, owner)


@pytest.mark.parametrize("argv", PINNED_ARGVS, ids=["status", "advance", "drift"])
def test_a_crlf_cut_by_a_block_read_is_one_line_end(tmp_path, argv):
    """The ``\\r\\n`` after w2's create is cut by the end of the first
    block: it ends one line, so the bad line after the next is line 54."""
    _, data = shifted_to(macro._BLOCK - 1, b"\r", ending="\r\n")
    assert data[macro._BLOCK - 1:macro._BLOCK + 1] == b"\r\n"
    data += b'{"sequence": 54, oops}\r\n'
    log = tmp_path / "wf.jsonl"
    assert run_pinned(log, data, argv) == (
        2, "", f"{log}: line 54: Expecting property name enclosed in double quotes: line 1 column "
               "18 (char 17)\n", data)


@pytest.mark.parametrize("argv", PINNED_ARGVS, ids=["status", "advance", "drift"])
def test_a_line_longer_than_three_blocks_is_read(tmp_path, argv):
    owner = "O" * (3 * macro._BLOCK + 100)
    read_as_the_eager_path(tmp_path / "wf.jsonl", owner_log(owner), argv, owner)


@pytest.mark.parametrize("argv", PINNED_ARGVS, ids=["status", "advance", "drift"])
def test_a_torn_last_line_longer_than_a_block(tmp_path, argv):
    """w2's create, more than a block long, is the last line and has no
    final newline: ``status`` reads it, and the appending commands
    refuse the log."""
    owner = "O" * (macro._BLOCK + 100)
    data = owner_log(owner).rsplit(b"\n", 2)[0]
    log = tmp_path / "wf.jsonl"
    if argv == ["status"]:
        read_as_the_eager_path(log, data, argv, owner)
    else:
        assert run_pinned(log, data, argv) == (
            2, "", f"{log}: line 52: no final newline; the last write may be torn, so nothing is "
                   "appended\n", data)


@pytest.mark.parametrize("argv", PINNED_ARGVS, ids=["status", "advance", "drift"])
@pytest.mark.parametrize("where", ["last-of-first", "first-of-second", "second-of-second", "third"])
def test_a_byte_around_the_end_of_a_block_is_named_by_its_offset(tmp_path, where, argv):
    """A byte that is not UTF-8 in w2's create, which the end of the first
    block cuts, at or next to the start of the second block; or at the
    start of a line in the third block, after two pieces that each began
    with bytes carried from the block before: it is named by its offset
    in the file."""
    data = owner_log("O" * 2000) + events_text(150, start=54).encode()
    at = {"last-of-first": macro._BLOCK - 1, "first-of-second": macro._BLOCK,
          "second-of-second": macro._BLOCK + 1, "third": data.index(b"\n", 2 * macro._BLOCK) + 1}[where]
    assert data[macro._BLOCK - 100:macro._BLOCK + 100] == b"O" * 200
    data = data[:at] + b"\xff" + data[at + 1:]
    log = tmp_path / "wf.jsonl"
    assert run_pinned(log, data, argv) == (
        2, "", f"{log}: not valid UTF-8: byte 0xff at offset {at}\n", data)


# --- memory --------------------------------------------------------------------------

def command_peak(log: Path, data: bytes, argv: list[str]):
    """The traced peak of ``workflow LOG ARGV`` on a log of ``data``, and
    the exit code, stdout and stderr of the command, from a second run."""
    log.write_bytes(data)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        tracemalloc.reset_peak()
        cli.main(["workflow", str(log), *argv])
        peak = tracemalloc.get_traced_memory()[1]
    return peak, run_on(log, data, argv)[:3]


def peak_growth(log: Path, small: bytes, large: bytes, argv: list[str]):
    """How much more the traced peak of ``workflow LOG ARGV`` is on a log
    of ``large`` than on one of ``small``, how much longer ``large`` is,
    and the command's exit code, stdout and stderr on each."""
    tracemalloc.start()
    try:
        command_peak(log, small, argv)  # first use: imports and caches
        small_peak, small_result = command_peak(log, small, argv)
        large_peak, large_result = command_peak(log, large, argv)
    finally:
        tracemalloc.stop()
    return large_peak - small_peak, len(large) - len(small), small_result, large_result


def status_peak_growth(tmp_path) -> tuple[int, int]:
    """Two logs fold to the same workflows; the second has 3,000 more
    drifts, on a name no workflow uses.  How much more the traced peak of
    ``workflow status`` is on the second, and how much longer its text."""
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
    small, large = macro.render_log(events).encode(), macro.render_log(events + drifts).encode()
    growth, extra_text, small_result, large_result = peak_growth(tmp_path / "wf.jsonl", small, large,
                                                                 ["status"])
    assert small_result == large_result and small_result[0] == 0
    return growth, extra_text


def test_status_holds_the_text_and_the_state_not_the_events(tmp_path):
    """Folding the longer log may cost more memory by about its extra
    text, not by the events decoded from that text (six times as much
    while each stays alive)."""
    growth, extra_text = status_peak_growth(tmp_path)
    assert growth < 1.5 * extra_text, growth / extra_text


def test_status_holds_the_state_and_one_line_not_the_text(tmp_path):
    """Read from the file a line at a time, the longer log costs next to
    no more memory than the shorter: much less than its extra text."""
    growth, extra_text = status_peak_growth(tmp_path)
    assert growth < 0.2 * extra_text, growth / extra_text


REFUSED = '{"sequence": 2, "workflow": "w1", "event": "complete", "payload": {}}\n'


def refused_then(count: int) -> bytes:
    return (CREATED + REFUSED + events_text(count, start=3)).encode()


def torn_after(count: int) -> bytes:
    return (CREATED + events_text(count, start=2)).encode()[:-1]


def not_utf8_near_the_end(count: int) -> bytes:
    data = (CREATED + events_text(count, start=2)).encode()
    cut = data.rindex(b"\n", 0, -1) + 1
    return data[:cut] + b"\xff" + data[cut:]


@pytest.mark.parametrize("log_of, argv", [(refused_then, ["status"]),
                                          (refused_then, ["drift", "--touch", "Other"]),
                                          (torn_after, ADVANCE),
                                          (not_utf8_near_the_end, ["status"])],
                         ids=["refused-status", "refused-drift", "torn-advance", "not-utf8-status"])
def test_a_failing_command_holds_the_state_and_one_line_not_the_text(tmp_path, log_of, argv):
    """A log that the command refuses, for an event the fold refuses on
    line 2, a torn last line or a byte that is not UTF-8 near the end,
    costs next to no more memory with 30,000 more lines after that: the
    command reads it a line at a time on its error paths too."""
    growth, extra_text, small_result, large_result = peak_growth(
        tmp_path / "wf.jsonl", log_of(10), log_of(30_000), argv)
    assert small_result[0] == large_result[0] != 0 and small_result[1] == large_result[1] == ""
    assert growth < 0.2 * extra_text, growth / extra_text


def test_a_fold_shares_equal_name_sets_and_stakeholder_names():
    """1,000 workflows over a few names: each name set value, the empty
    one among them, is one object in the folded state, and so is each
    stakeholder name."""
    pool = [f"Name{k}" for k in range(6)]
    people = [f"Person{k}" for k in range(4)]
    events, sequence = [], 0
    for index in range(1000):
        picked = [pool[(index + k) % 6] for k in range(index % 3)]  # none, one or two names
        problem = {"text": "", "domains": picked, "phenomena": picked[::-1], "needs": []}
        payload = {"owner": people[index % 4], "delegate": people[index % 3], "problem": problem}
        wid = f"w{index}"
        steps = [("create", payload), ("submit-view", {}), ("request-validation", {}),
                 ("record-validation", {"by": payload["owner"], "status": "granted"}),
                 ("submit-solution", {"solution": "s", "refs": picked[:1]})][:2 + index % 4 * 2]
        for kind, step in steps:
            sequence += 1
            events.append(macro.Event(sequence, wid, kind, step))
    workflows = macro.fold(macro.Log(macro.render_log(events)))
    sets = [names for wf in workflows.values() for names in
            (wf.problem.domains, wf.problem.phenomena, wf.problem.needs, wf.solution_refs)]
    assert any(wf.solution_refs for wf in workflows.values())
    assert len({id(names) for names in sets}) == len(set(sets))
    assert len({id(names) for names in sets if not names}) == 1
    names = [name for wf in workflows.values() for name in (wf.owner, wf.delegate)]
    assert len({id(name) for name in names}) == len(set(names)) == 4


def test_a_fold_makes_few_python_calls_a_line(tmp_path, monkeypatch):
    """Folding the bench's workflow log makes at most 4.7 Python calls a
    line: a line is one resumption of ``Log``'s generator, which calls the
    C scanner itself, and one handler call, which finds its workflow in
    the dict and builds its records itself; the rest are the payload reads
    and constructors of the events that add to the state."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    path = importlib.import_module("families").WorkflowLog(1, 500, tmp_path).path
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    with open(path, "rb") as handle:
        log = macro.Log(handle)
        sys.setprofile(count)
        try:
            macro.fold(log)
        finally:
            sys.setprofile(None)
    assert log.lines > 2000 and calls <= 4.7 * log.lines, calls / log.lines


# --- writing the report ----------------------------------------------------------------

class CountingRaw(io.RawIOBase):
    """A raw stream that keeps what is written and the size of each write."""

    def __init__(self):
        self.data, self.sizes = bytearray(), []

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.data += data
        self.sizes.append(len(data))
        return len(data)


def test_status_is_written_in_a_few_writes(tmp_path):
    """Through an unbuffered stdout (as under ``PYTHONUNBUFFERED=1``), a
    report of 6,000 lines is a few writes of at most 64 KiB, with the
    bytes of one ``print`` per line."""
    events, sequence = [], 0
    for index in range(3000):
        for kind, payload in (("create", {"owner": "G", "delegate": "D"}), ("submit-view", {}),
                              ("request-validation", {})):
            sequence += 1
            events.append(macro.Event(sequence, f"w{index}", kind, payload))
    log, data = tmp_path / "wf.jsonl", macro.render_log(events).encode()
    log.write_bytes(data)
    raw = CountingRaw()
    with contextlib.redirect_stdout(io.TextIOWrapper(raw, encoding="utf-8", write_through=True)):
        assert cli.main(["workflow", str(log), "status"]) == 0
    assert raw.data.decode() == run_eager(log, data, ["status"])[1]
    assert max(raw.sizes) <= 1 << 16 and len(raw.sizes) <= len(raw.data) // (1 << 16) + 1, raw.sizes
