import contextlib
import errno
import gc
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapoe import cli, dsl, impact, macro, model

from .conftest import FIXTURES
from .oracles import bound_check_stored_paths, impact_doc_lists, print_impact_text, propagate_stored_paths
from .strategies import layered_org_text
from .test_workflow_stream import CountingRaw


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = FIXTURES / "api_upgrade.poed"
DOCS = FIXTURES / "api_upgrade_with_docs.poed"
CHAIN = FIXTURES / "chain.poed"
DEVENV = FIXTURES / "devenv.poed"
MUTATIONS = sorted((FIXTURES / "mutations").glob("*.poed"))


def test_check_golden_solved(capsys):
    code, out, _ = run(capsys, "check", GOLDEN)
    assert code == 0
    assert "Solved" in out
    assert "OldAPI ~> d[OldAPI'](NewAPI) ; !OldAPI'" in out


def test_check_model_only_file(capsys):
    code, out, _ = run(capsys, "check", CHAIN)
    assert code == 0
    assert "model ok" in out


def test_check_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "no/such/file.poed")
    assert code == 3
    assert "no such file" in err


def test_check_syntax_error_is_invalid(tmp_path, capsys):
    bad = tmp_path / "bad.poed"
    bad.write_text("model { domain }")
    code, _, err = run(capsys, "check", bad)
    assert code == 2
    assert "error" in err


def test_check_non_utf8_file_is_invalid(tmp_path, capsys):
    bad = tmp_path / "bad.poed"
    bad.write_bytes(GOLDEN.read_bytes() + b"# \xff\n")
    code, out, err = run(capsys, "check", bad)
    assert code == 2
    assert out == ""
    assert err == f"{bad}: not valid UTF-8: byte 0xff at offset {len(GOLDEN.read_bytes()) + 2}\n"


def test_check_non_ascii_digit_in_a_path_is_invalid(tmp_path, capsys):
    bad = tmp_path / "bad.poed"
    bad.write_text(GOLDEN.read_text().replace("apply NeedRefine at root.0 ", "apply NeedRefine at root.² "))
    code, out, err = run(capsys, "check", bad)
    assert (code, out) == (2, "")
    assert err == f"{bad}:38:28: error: unexpected character '²'\n"


def int_digit_limit() -> int:
    """The most digits ``int`` converts from a string; skips where no
    such limit is set."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    return limit


@pytest.mark.parametrize("path, column", [("root.{}", 28), ("root.0@{}", 30)], ids=["child", "alternative"])
def test_check_path_index_too_long_to_convert_is_invalid(tmp_path, capsys, path, column):
    digits = "9" * (int_digit_limit() + 700)
    bad = tmp_path / "bad.poed"
    bad.write_text(GOLDEN.read_text().replace("apply NeedRefine at root.0 ",
                                              f"apply NeedRefine at {path.format(digits)} "))
    code, out, err = run(capsys, "check", bad)
    assert (code, out) == (2, "")
    assert err == f"{bad}:38:{column}: error: path index of {len(digits)} digits is too long\n"


# (tail, exit code, the diagnostic's line:col and message, or None)
HOSTILE_TAILS = {
    "trailing spaces": (" " * 200_000, 0, None),
    "trailing blank lines and comments": ("  \t\n# note  \n" * 20_000 + " \t" * 50_000, 0, None),
    "blank run before a bad character": (" " * 200_000 + "|", 2, "{line}:200001: error: unexpected character '|'"),
    "unterminated strings": ('"\\' * 100_000, 2, "{line}:1: error: unterminated string"),
}


@pytest.mark.parametrize("case", HOSTILE_TAILS)
def test_check_lexes_hostile_tails_in_linear_time(tmp_path, case):
    """Each tail costs a lexer that retries a match at every position of a
    blank run, or reads a line again for every quote on it, minutes."""
    tail, exit_code, diagnostic = HOSTILE_TAILS[case]
    path = tmp_path / "chain.poed"
    path.write_text(CHAIN.read_text() + tail)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "deltapoe.cli", "check", str(path)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == exit_code, proc.stderr
    if diagnostic is None:
        assert (proc.stdout, proc.stderr) == (f"{path}: model ok\n", "")
    else:
        line = CHAIN.read_text().count("\n") + 1
        assert proc.stderr == f"{path}:{diagnostic.format(line=line)}\n"


@pytest.mark.parametrize("path", MUTATIONS, ids=lambda p: p.stem)
def test_every_mutation_rejected(path, capsys):
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert err.strip()


def test_check_mutation_reports_node_path(capsys):
    code, _, err = run(
        capsys, "check", FIXTURES / "mutations" / "m1_swapped_sequence_premises.poed"
    )
    assert code == 2
    assert "root.0.0.0.0.0" in err


def test_check_incomplete_exit(tmp_path, capsys):
    src = (GOLDEN.read_text().rsplit("  discharge at root.0.0.0.1.0.0", 1))[0] + "}\n"
    partial = tmp_path / "partial.poed"
    partial.write_text(src)
    code, out, err = run(capsys, "check", partial)
    assert code == 1
    assert "Incomplete" in out
    assert "greenfield obligation awaiting discharge" in err


def test_plan_text_stages(capsys):
    code, out, _ = run(capsys, "plan", GOLDEN)
    assert code == 0
    assert out.index("stage 1:") < out.index("s1") < out.index("stage 2:") < out.index("s2")
    assert "deadline 2024-11-01" in out


def test_plan_structured_is_json(capsys):
    code, out, _ = run(capsys, "plan", GOLDEN, "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert [s["id"] for s in doc["steps"]] == ["s1", "s2"]
    assert {"kind": "after", "step": "s2", "other": "s1"} in doc["constraints"]


def test_plan_unsolved_exit_one(tmp_path, capsys):
    src = (GOLDEN.read_text().rsplit("  discharge at root.0.0.0.1.0.0", 1))[0] + "}\n"
    partial = tmp_path / "partial.poed"
    partial.write_text(src)
    code, _, err = run(capsys, "plan", partial)
    assert code == 1
    assert "not solved" in err


@pytest.mark.parametrize("form", ["text", "structured"])
def test_plan_of_a_cyclic_plan_is_invalid(tmp_path, capsys, form):
    """Steps w1 and w2 each wait on the other: ``check`` finds the
    derivation invalid, ``lint`` reports the cycle, and ``plan`` refuses it
    as invalid input, not as a crash."""
    from .test_calculus import CYCLE_SCRIPT

    cyclic = tmp_path / "cyclic.poed"
    cyclic.write_text(CYCLE_SCRIPT)
    finding = "root: CyclicPlan: plan constraints form a cycle over: w1, w2"
    code, out, err = run(capsys, "check", cyclic)
    assert (code, err) == (2, f"{cyclic}: derivation tangled_plan: {finding}\n")
    assert out.endswith("derivation tangled_plan: Invalid\n")
    assert run(capsys, "lint", cyclic) == (1, f"{cyclic}: derivation tangled_plan: {finding}\n", "")
    assert run(capsys, "plan", cyclic, "--format", form) == (2, "", f"{cyclic}: {finding}\n")


STRAY_SCRIPT_TAIL = """
derivation stray_ref {
  problem p
  apply KnownSolution at root with { solution: +Lid } chosen
  justify { rule "adding the lid is enough" }
  plan { step a "add the lid" installs +Lid after b }
  validated by G granted
  apply KnownSolution at root with { solution: +Lid } alternative
  justify { rule "the same, by another step" }
  plan { step b "add the lid another way" installs +Lid }
  validated by G granted
}
"""


@pytest.mark.parametrize("form", ["text", "structured"])
def test_a_step_that_waits_on_an_alternative_s_step_is_invalid(tmp_path, capsys, form):
    """The chosen application's step ``a`` waits on ``b``, a step of an
    alternative that is not in the plan: every command refuses it as
    invalid input, and none crashes."""
    from .test_calculus import SMALL

    stray = tmp_path / "stray.poed"
    stray.write_text(SMALL + STRAY_SCRIPT_TAIL)
    finding = "root: UnknownStep: step 'a' references unknown step 'b'"
    code, out, err = run(capsys, "check", stray)
    assert (code, err) == (2, f"{stray}: derivation stray_ref: {finding}\n")
    assert out.endswith("derivation stray_ref: Invalid\n")
    assert run(capsys, "lint", stray) == (1, f"{stray}: derivation stray_ref: {finding}\n", "")
    assert run(capsys, "plan", stray, "--format", form) == (2, "", f"{stray}: {finding}\n")


def test_impact_chain_report(capsys):
    code, out, _ = run(capsys, "impact", CHAIN, "--edit", "C causes y -> c")
    assert code == 0
    assert "behavioural: D, E" in out


def test_impact_bound_violation_exit_one(capsys):
    code, out, _ = run(
        capsys, "impact", CHAIN, "--edit", "C causes y -> c", "--permitted", "C"
    )
    assert code == 1
    assert "bound: fail" in out
    assert "E: c -> D -> d -> E" in out


def test_impact_buffers_cut_propagation(capsys):
    code, out, _ = run(
        capsys, "impact", CHAIN, "--edit", "C causes y -> c", "--buffers", "D"
    )
    assert code == 0
    assert "behavioural: D\n" in out
    assert "E" not in out.split("paths:")[1]


def test_impact_unknown_domain_invalid(capsys):
    code, _, err = run(capsys, "impact", CHAIN, "--edit", "!Ghost")
    assert code == 2
    assert "Ghost" in err


def test_impact_of_a_self_link_is_invalid(capsys):
    """A link from a phenomenon to itself is refused as a model refuses it."""
    assert run(capsys, "impact", CHAIN, "--edit", "C causes c -> c") == (
        2, "", "causal link of 'C' relates 'c' to itself\n")


@pytest.mark.parametrize("flag", ["--buffers", "--permitted"])
def test_impact_flag_naming_an_unknown_domain_is_invalid(capsys, flag):
    code, out, err = run(capsys, "impact", CHAIN, "--edit", "!C", flag, "C,Nowhere", flag, "Elsewhere")
    assert (code, out) == (2, "")
    assert err == "no domain named 'Elsewhere' in the environment\n"


def test_impact_devenv_bound_pass(capsys):
    code, out, _ = run(
        capsys, "impact", DEVENV, "--edit", "!OldAPI", "--permitted", "OldAPI,Docs"
    )
    assert code == 0
    assert "bound: pass" in out


@pytest.mark.parametrize("edit", ["C causes y -> c", "!C"])
def test_impact_structured_is_the_report_document(capsys, edit):
    code, out, _ = run(capsys, "impact", CHAIN, "--edit", edit, "--format", "structured")
    mdl = dsl.parse_model(CHAIN.read_text())
    report = propagate_stored_paths(mdl.environment, impact.parse_edit(edit, mdl))
    assert code == 0
    assert out == json.dumps(impact_doc_lists(report, mdl.environment), indent=2) + "\n"


def test_impact_structured_large_report_is_the_report_document(tmp_path, capsys):
    org = tmp_path / "org.poed"
    org.write_text(layered_org_text(30, 10, 3, seed=2))
    code, out, _ = run(capsys, "impact", org, "--edit", "!O0_4", "--format", "structured",
                       "--buffers", "O3_1,O3_2")
    mdl = dsl.parse_model(org.read_text())
    report = propagate_stored_paths(mdl.environment, impact.parse_edit("!O0_4", mdl),
                                    frozenset({"O3_1", "O3_2"}))
    assert code == 0
    assert out == json.dumps(impact_doc_lists(report, mdl.environment), indent=2) + "\n"


def test_impact_permitted_output_extends_plain_output(tmp_path, capsys):
    org = tmp_path / "org.poed"
    org.write_text(layered_org_text(12, 6, 2, seed=3))
    for path, edit, permitted in ((CHAIN, "C causes y -> c", "C"), (org, "!O0_1", "O0_1,O5_2")):
        _, plain, _ = run(capsys, "impact", path, "--edit", edit)
        code, bounded, _ = run(capsys, "impact", path, "--edit", edit, "--permitted", permitted)
        assert code == 1
        assert bounded.startswith(plain)
        assert bounded[len(plain):].startswith("bound: fail\n")


def test_impact_text_is_written_in_a_few_writes(tmp_path):
    """Through an unbuffered stdout (as under ``PYTHONUNBUFFERED=1``), a
    long text report is a few writes of at most 64 KiB, with the bytes of
    one ``print`` per line."""
    org = tmp_path / "org.poed"
    org.write_text(layered_org_text(40, 10, 3, seed=2))
    raw = CountingRaw()
    with contextlib.redirect_stdout(io.TextIOWrapper(raw, encoding="utf-8", write_through=True)):
        assert cli.main(["impact", str(org), "--edit", "!O0_4", "--permitted", "O0_4"]) == 1
    mdl = dsl.parse_model(org.read_text())
    edit = impact.parse_edit("!O0_4", mdl)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        print_impact_text(propagate_stored_paths(mdl.environment, edit),
                          bound_check_stored_paths(mdl.environment, edit, frozenset({"O0_4"})))
    assert raw.data.decode() == printed.getvalue()
    assert len(raw.data) > 4 << 16
    assert max(raw.sizes) <= 1 << 16 and len(raw.sizes) <= len(raw.data) // (1 << 16) + 1, raw.sizes


def test_impact_structured_is_written_in_a_few_writes(tmp_path):
    """Through an unbuffered stdout, a long structured report is a few
    writes of at most 64 KiB, with the bytes of ``json.dumps(doc,
    indent=2)`` and a final newline."""
    org = tmp_path / "org.poed"
    org.write_text(layered_org_text(40, 10, 3, seed=2))
    raw = CountingRaw()
    with contextlib.redirect_stdout(io.TextIOWrapper(raw, encoding="utf-8", write_through=True)):
        assert cli.main(["impact", str(org), "--edit", "!O0_4", "--permitted", "O0_4",
                         "--format", "structured"]) == 1
    mdl = dsl.parse_model(org.read_text())
    edit = impact.parse_edit("!O0_4", mdl)
    report = propagate_stored_paths(mdl.environment, edit)
    bound = bound_check_stored_paths(mdl.environment, edit, frozenset({"O0_4"}))
    doc = impact_doc_lists(report, mdl.environment, bound)
    assert raw.data.decode() == json.dumps(doc, indent=2) + "\n"
    assert len(raw.data) > 4 << 16
    assert max(raw.sizes) <= 1 << 16 and len(raw.sizes) <= len(raw.data) // (1 << 16) + 1, raw.sizes


@st.composite
def impact_calls(draw):
    """A model text, an edit, and non-empty sets of buffers and of permitted
    domains, over the chain fixture or a small layered organisation."""
    if draw(st.booleans()):
        text = CHAIN.read_text()
        edit = draw(st.sampled_from(["C causes y -> c", "D causes c -> d", "!C", "!D", "!E"]))
    else:
        width = draw(st.integers(min_value=1, max_value=5))
        text = layered_org_text(draw(st.integers(min_value=1, max_value=7)), width,
                                draw(st.integers(min_value=1, max_value=width)),
                                seed=draw(st.integers(min_value=0, max_value=99)))
        edit = "!O0_" + str(draw(st.integers(min_value=0, max_value=width - 1)))
    names = dsl.parse_model(text).environment.names()
    buffers = draw(st.sets(st.sampled_from(names), min_size=1, max_size=3))
    permitted = draw(st.sets(st.sampled_from(names), min_size=1, max_size=3))
    return text, edit, frozenset(buffers), frozenset(permitted)


@given(impact_calls())
@settings(max_examples=60, deadline=None)
def test_impact_reports_are_the_bytes_of_the_eager_references(call):
    """The plain, ``--buffers``, ``--permitted``, structured and structured
    ``--permitted`` reports are, byte for byte, the text printed a line at
    a time and the document ``json.dumps`` writes with every path in a
    list, both from the propagation and bound check over stored paths."""
    text, edit_text, buffers, permitted = call
    mdl = dsl.parse_model(text)
    env, edit = mdl.environment, impact.parse_edit(edit_text, mdl)
    with tempfile.TemporaryDirectory() as scratch:
        model_path = Path(scratch) / "model.poed"
        model_path.write_text(text)
        for flags, kept, bounded in (
            ([], frozenset(), False),
            (["--buffers", ",".join(sorted(buffers))], buffers, False),
            (["--permitted", ",".join(sorted(permitted))], frozenset(), True),
            (["--format", "structured"], frozenset(), False),
            (["--permitted", ",".join(sorted(permitted)), "--format", "structured"], frozenset(), True),
        ):
            report = propagate_stored_paths(env, edit, kept)
            bound = bound_check_stored_paths(env, edit, permitted, kept) if bounded else None
            expected = io.StringIO()
            with contextlib.redirect_stdout(expected):
                if "structured" in flags:
                    print(json.dumps(impact_doc_lists(report, env, bound), indent=2))
                else:
                    print_impact_text(report, bound)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["impact", str(model_path), "--edit", edit_text, *flags])
            assert code == (0 if bound is None or bound.passed else 1), flags
            assert out.getvalue() == expected.getvalue(), flags


def test_lint_golden_clean(capsys):
    code, out, _ = run(capsys, "lint", GOLDEN)
    assert code == 0
    assert "lint: clean" in out


def test_lint_names_missing_field(capsys):
    code, out, _ = run(
        capsys, "lint", FIXTURES / "mutations" / "m5_missing_required_j_field.poed"
    )
    assert code == 1
    assert "coordination_rationale" in out
    assert "root" in out


def test_lint_missing_timeline(tmp_path, capsys):
    src = GOLDEN.read_text().replace(
        '    timeline "stage one ships in the next minor release; stage two one release later"\n',
        "",
    )
    mutated = tmp_path / "no_timeline.poed"
    mutated.write_text(src)
    code, out, _ = run(capsys, "lint", mutated)
    assert code == 1
    assert "timeline_rationale" in out


def workflow_steps(log, capsys, model):
    codes = []
    codes.append(run(capsys, "workflow", log, "advance", "--workflow", "root",
                     "--event", "submit-view", "--owner", "G", "--delegate", "D",
                     "--model", model, "--problem", "upgrade"))
    codes.append(run(capsys, "workflow", log, "advance", "--event", "request-validation"))
    codes.append(run(capsys, "workflow", log, "advance", "--event", "record-validation",
                     "--by", "G", "--status", "granted"))
    return codes


def test_workflow_fresh_log_advance(tmp_path, capsys):
    log = tmp_path / "wf.jsonl"
    code, out, _ = run(
        capsys, "workflow", log, "advance", "--workflow", "root",
        "--event", "submit-view", "--owner", "G", "--delegate", "D",
        "--model", DEVENV, "--problem", "upgrade",
    )
    assert code == 0
    assert "root: CPS2" in out


def test_workflow_rejection_regresses(tmp_path, capsys):
    log = tmp_path / "wf.jsonl"
    run(capsys, "workflow", log, "advance", "--workflow", "root",
        "--event", "submit-view", "--owner", "G", "--delegate", "D",
        "--model", DEVENV, "--problem", "upgrade")
    run(capsys, "workflow", log, "advance", "--event", "request-validation")
    code, out, _ = run(capsys, "workflow", log, "advance", "--event",
                       "record-validation", "--by", "G", "--status", "rejected")
    assert code == 0
    assert "root: CPS1" in out


def test_workflow_illegal_transition_exit_one(tmp_path, capsys):
    log = tmp_path / "wf.jsonl"
    run(capsys, "workflow", log, "advance", "--workflow", "root",
        "--event", "submit-view", "--owner", "G", "--delegate", "D",
        "--model", DEVENV, "--problem", "upgrade")
    code, _, err = run(capsys, "workflow", log, "advance", "--event", "complete")
    assert code == 1
    assert "'complete'" in err and "CPS2" in err


def test_workflow_drift_reports_stale(tmp_path, capsys):
    log = tmp_path / "wf.jsonl"
    for argv in (
        ["advance", "--workflow", "root", "--event", "submit-view", "--owner", "G",
         "--delegate", "D", "--model", str(DEVENV), "--problem", "upgrade"],
        ["advance", "--event", "request-validation"],
        ["advance", "--event", "record-validation", "--by", "G", "--status", "granted"],
        ["advance", "--event", "submit-solution", "--solution", "!OldAPI",
         "--refs", "OldAPI,OldAPI'"],
        ["advance", "--event", "request-validation"],
        ["advance", "--event", "record-validation", "--by", "G", "--status", "granted"],
    ):
        code, _, err = run(capsys, "workflow", log, *argv)
        assert code == 0, err
    code, out, _ = run(capsys, "workflow", log, "drift", "--touch", "OldAPI")
    assert code == 0
    assert "stale: root" in out
    assert "regressed: root CPS5 -> CPS2" in out
    code, out, _ = run(capsys, "workflow", log, "status")
    assert code == 0
    assert "CPS2" in out
    assert "stale" in out


def test_workflow_non_utf8_log_is_invalid(tmp_path, capsys):
    log = tmp_path / "wf.jsonl"
    log.write_bytes(b"\xff\n")
    code, out, err = run(capsys, "workflow", log, "status")
    assert code == 2
    assert out == ""
    assert err.startswith(f"{log}: not valid UTF-8")


def test_concurrent_drifts_append_one_after_another(tmp_path, capsys):
    """Eight processes drift one log at once: each reads, validates and
    appends under one lock, so no two events share a sequence number."""
    log = tmp_path / "wf.jsonl"
    payload = {"touched": ["X"], "description": "", "origin": "environment"}
    log.write_text(macro.render_log([macro.Event(k, macro.ORG, "drift", payload) for k in range(1, 2001)]))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "deltapoe.cli", "workflow", str(log), "drift", "--touch", f"D{k}"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for k in range(8)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    events = macro.parse_log(log.read_text())
    assert [e.sequence for e in events] == list(range(1, 2009))
    assert sorted(e.payload["touched"][0] for e in events[2000:]) == [f"D{k}" for k in range(8)]
    code, _, err = run(capsys, "workflow", log, "status")
    assert code == 0, err


LOADED_MODULES = """
import importlib.util, runpy, sys
from pathlib import Path
code = None
try:
    runpy.run_module("deltapoe.cli", run_name="__main__", alter_sys=True)
except SystemExit as exit_:
    code = exit_.code
files = {name: module.__file__ for name, module in sys.modules.items() if name.partition(".")[0] == "deltapoe"}
files["__main__"] = importlib.util.find_spec("deltapoe.cli").origin
lines = {name: len(Path(path).read_text(encoding="utf-8").splitlines()) for name, path in files.items()}
print(" ".join(f"{name}={lines.get(name, 0)}" for name in sorted({*sys.modules, *lines})))
sys.exit(code)
"""


def test_impact_and_workflow_do_not_load_the_calculus(tmp_path):
    """Each command imports what it uses: neither ``impact`` (in every
    format) nor the workflow commands load the calculus, and only a
    structured ``plan`` or ``impact`` loads the exports."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    log = tmp_path / "wf.jsonl"
    for expected, argv, loads in (
        (1, ["impact", CHAIN, "--edit", "C causes y -> c", "--permitted", "C", "--format", "structured"],
         {"dsl", "export"}),
        (1, ["impact", CHAIN, "--edit", "C causes y -> c", "--permitted", "C"], {"dsl"}),
        (0, ["plan", GOLDEN], {"dsl", "calculus"}),
        (0, ["plan", GOLDEN, "--format", "structured"], {"dsl", "calculus", "export"}),
        (0, ["workflow", log, "advance", "--event", "submit-view", "--owner", "G", "--delegate", "D"], set()),
        (0, ["workflow", log, "status"], set()),
    ):
        loaded = loaded_modules(env, expected, argv)
        for name in ("dsl", "calculus", "export"):
            assert (f"deltapoe.{name}" in loaded) is (name in loads), (argv, name)


def loaded_modules(env, expected: int, argv) -> dict[str, int]:
    """The modules a process running ``python -m deltapoe.cli argv``
    loads, each with the number of its source lines if it is deltapoe's
    (the entry point as ``__main__``), else 0."""
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == expected, proc.stderr
    loaded = dict(item.split("=") for item in proc.stdout.splitlines()[-1].split())
    assert "deltapoe.cli" not in loaded and "__main__" in loaded  # the entry point runs once
    return {name: int(lines) for name, lines in loaded.items()}


def test_workflow_commands_load_no_poed_code(tmp_path):
    """``workflow status``, ``advance``, ``drift`` and ``delegate``
    without ``--model``, and a call with no arguments, load neither the
    ``.poed`` front end nor any command module they do not use."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    log = tmp_path / "wf.jsonl"
    for expected, argv in (
        (0, ["workflow", log, "advance", "--event", "submit-view", "--owner", "G", "--delegate", "D",
             "--problem", "text only"]),
        (0, ["workflow", log, "advance", "--event", "request-validation"]),
        (0, ["workflow", log, "drift", "--touch", "X"]),
        (0, ["workflow", log, "status"]),
        (2, ["workflow", log, "delegate", "--to", "Impl", "--child", "c1"]),
        (3, []),
    ):
        loaded = loaded_modules(env, expected, argv)
        unused = {f"deltapoe.{name}" for name in ("dsl", "model", "printer", "calculus", "impact", "export")}
        assert unused.isdisjoint(loaded), (argv, loaded)


def staged_input(monkeypatch, tmp_path):
    """The bench's staged derivation, seed 1, at four stages."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    return importlib.import_module("families").StagedDerivation(1, 4, tmp_path).path


def test_each_process_loads_the_entry_point_and_its_own_command(tmp_path, monkeypatch):
    """A process loads the entry point, the helpers the commands share and
    the module of its own command's family, and no other command module.
    The exact count of the deltapoe source lines it loads, ``__main__``
    included, gates what it compiles, so a change that moves it is an edit
    here."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    staged = staged_input(monkeypatch, tmp_path)
    log = tmp_path / "wf.jsonl"
    log.write_text(CREATED)
    for expected, argv, family, lines in (
        (3, [], None, 363),
        (0, ["check", staged], "derivation", 3454),
        (0, ["plan", staged], "derivation", 3454),
        (0, ["lint", staged], "derivation", 3454),
        (0, ["impact", CHAIN, "--edit", "!C"], "impact", 2564),
        (0, ["impact", CHAIN, "--edit", "!C", "--format", "structured"], "impact", 2856),
        (0, ["workflow", log, "status"], "workflow", 1343),
    ):
        loaded = loaded_modules(env, expected, argv)
        commands = {name for name in loaded if name.startswith("deltapoe.cmd_")}
        assert commands == {"deltapoe.cmd_common", *([f"deltapoe.cmd_{family}"] if family else [])}, argv
        assert sum(loaded.values()) == lines, (argv, {name: n for name, n in loaded.items() if n})


def test_only_a_process_that_needs_them_loads_datetime_and_heapq(tmp_path, monkeypatch, capsys):
    """``datetime`` is loaded to read an absolute deadline and ``heapq`` to
    order a plan, and by no process that does neither; a deadline that is
    no date is still refused."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    staged = staged_input(monkeypatch, tmp_path)
    log = tmp_path / "wf.jsonl"
    log.write_text(CREATED)
    for argv, loads in (
        (["check", staged], set()),
        (["workflow", log, "status"], set()),
        (["plan", staged], {"heapq"}),
        (["check", GOLDEN], {"datetime"}),  # step s2 has deadline 2024-11-01
    ):
        loaded = loaded_modules(env, 0, argv)
        assert {"datetime", "heapq"} & loaded.keys() == loads, argv
    bad = tmp_path / "bad.poed"
    bad.write_text(GOLDEN.read_text().replace("after s1 deadline 2024-11-01", "after s1 deadline 2024-11-31"))
    code, out, err = run(capsys, "check", bad)
    assert (code, out) == (2, "")
    assert err == f"{bad}:81:86: error: bad date '2024-11-31'\n"


DSL_AT_FOLD = """
import sys
from deltapoe import cli, macro
fold = macro.fold
def probe(log):
    print("deltapoe.dsl" in sys.modules)
    return fold(log)
macro.fold = probe
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("subcommand", [
    ["delegate", "--to", "D", "--child", "c1"],
    ["advance", "--event", "request-validation"],
], ids=["delegate", "advance"])
def test_workflow_with_a_model_loads_the_front_end_before_the_fold(tmp_path, capsys, subcommand):
    """Given ``--model``, the workflow commands import the ``.poed`` front
    end before they fold the log, where reading the model after the fold
    would load it on top of the folded state."""
    log = tmp_path / "wf.jsonl"
    run(capsys, "workflow", log, "advance", "--event", "submit-view", "--owner", "G", "--delegate", "D")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for model, loaded in (([], "False"), (["--model", DEVENV], "True")):
        proc = subprocess.run([sys.executable, "-c", DSL_AT_FOLD, "workflow", str(log), *subcommand, *map(str, model)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.stdout.splitlines()[0] == loaded, (model, proc.stdout, proc.stderr)


CREATED = ('{"sequence": 1, "workflow": "w1", "event": "create", '
           '"payload": {"owner": "G", "delegate": "D"}}\n')
SUBMITTED = '{"sequence": 2, "workflow": "w1", "event": "submit-view", "payload": {}}'


@pytest.mark.parametrize("text, message", [
    (CREATED + "\n  \n" + SUBMITTED[:-1] + "\n",
     "line 4: Expecting ',' delimiter: line 1 column 72 (char 71)"),
    (CREATED + '[2, "w1", "submit-view", {}]\n', "line 2: list indices must be integers or slices, not str"),
    (CREATED + "\n" + SUBMITTED.replace(', "payload": {}', "") + "\n", "line 3: 'payload'"),
    (CREATED + "null\n", "line 2: 'NoneType' object is not subscriptable"),
    (CREATED + SUBMITTED + " x\n", "line 2: Extra data: line 1 column 74 (char 73)"),
    ("\ufeff" + CREATED, "line 1: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
], ids=["bad-json", "array", "no-payload", "null", "trailing-data", "bom"])
def test_bad_log_lines_are_named(tmp_path, capsys, text, message):
    log = tmp_path / "wf.jsonl"
    log.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "workflow", log, "status")
    assert (code, out, err) == (2, "", f"{log}: {message}\n")


def event_line(sequence=1, workflow="w1", event="create", payload=None):
    payload = {"owner": "G", "delegate": "D"} if payload is None else payload
    return json.dumps({"sequence": sequence, "workflow": workflow, "event": event,
                       "payload": payload}) + "\n"


IN_CPS3 = (CREATED + event_line(2, event="submit-view", payload={})
           + event_line(3, event="request-validation", payload={})
           + event_line(4, event="record-validation", payload={"by": "G", "status": "granted"}))


@pytest.mark.parametrize("text, message", [
    (event_line(payload=5), "line 1: field 'payload' is not an object"),
    (event_line(payload={"delegate": "D"}), "event 1: payload field 'owner' is missing"),
    (event_line(sequence="1"), "line 1: field 'sequence' is not an integer"),
    (event_line(workflow=["w"]), "line 1: field 'workflow' is not a string"),
    (event_line(payload={"owner": "G", "delegate": "D", "problem": 3}),
     "event 1: payload field 'problem' is not an object"),
    (CREATED + event_line(2, macro.ORG, "drift", {"touched": 7}),
     "event 2: payload field 'touched' is not a list of names"),
    (event_line(1, macro.ORG, "drift", {"touched": ["X"], "description": 5, "origin": "bogus"}),
     "event 1: payload field 'origin' is not environment or need"),
    (event_line(1, macro.ORG, "drift", {"touched": ["X"], "description": 5, "origin": "need"}),
     "event 1: payload field 'description' is not a string"),
    (event_line(1, "ghost", "drift", {"touched": ["x"]}), "event 1: field 'workflow' of a drift is not '*'"),
    (CREATED + event_line(2, event="submit-view", payload={})
     + event_line(3, event="request-validation", payload={})
     + event_line(4, event="record-validation", payload={"by": "G", "status": "granted"})
     + event_line(5, event="submit-solution", payload={"solution": 5}),
     "event 5: payload field 'solution' is not a string"),
    (IN_CPS3 + event_line(5, event="delegate", payload={"to": "D"}),
     "event 5: payload field 'child' is missing"),
    (IN_CPS3 + event_line(5, event="delegate", payload={"child": "c1", "to": 5}),
     "event 5: payload field 'to' is not a string"),
    (IN_CPS3 + event_line(5, event="delegate", payload={"child": "c1", "to": "D",
                                                         "problem": {"domains": "R1"}}),
     "event 5: payload field 'domains' is not a list of names"),
    (IN_CPS3 + event_line(5, event="delegate", payload={"child": "c1", "to": "D",
                                                         "problem": {"domains": ["R1", 2]}}),
     "event 5: payload field 'domains' is not a list of names"),
    (IN_CPS3 + event_line(5, event="submit-solution", payload={"solution": "s", "refs": "S0"}),
     "event 5: payload field 'refs' is not a list of names"),
    (CREATED + event_line(2, event="submit-view", payload={})
     + event_line(3, event="request-validation", payload={})
     + event_line(4, event="record-validation", payload={"by": "G", "status": "maybe"}),
     "event 'record-validation' is not legal in state CPS2 (status must be granted or rejected)"),
    (CREATED + event_line(2, event="delegate", payload={"to": "D"}),
     "event 'delegate' is not legal in state CPS1"),
    (IN_CPS3 + event_line(5, event="delegate", payload={"child": "w1"}),
     "event 'delegate' is not legal in state CPS3 (workflow 'w1' already exists)"),
    (CREATED + event_line(2, event="submit-solution", payload={"solution": 5}),
     "event 'submit-solution' is not legal in state CPS1"),
    (CREATED + event_line(2, payload={"delegate": "D"}),
     "event 'create' is not legal in state - (workflow 'w1' already exists)"),
    (CREATED + event_line(2, event="submit-view", payload={})
     + event_line(3, event="request-validation", payload={})
     + event_line(4, event="record-validation", payload={"by": "D", "status": "maybe"}),
     "only the owner 'G' may validate workflow 'w1', not 'D'"),
], ids=["payload", "no-owner", "sequence", "workflow", "problem", "touched", "drift-origin",
        "drift-description", "drift-workflow", "solution",
        "delegate-no-child", "delegate-to", "delegate-domains", "delegate-domain-item", "refs",
        "record-status", "delegate-state-first", "delegate-child-exists-first",
        "solution-state-first", "create-exists-first", "record-by-first"])
def test_malformed_events_are_named(tmp_path, capsys, text, message):
    log = tmp_path / "wf.jsonl"
    log.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "workflow", log, "status")
    assert (code, out, err) == (2, "", f"{log}: {message}\n")


def test_a_drift_without_origin_or_description_folds(tmp_path, capsys):
    log = tmp_path / "wf.jsonl"
    log.write_text(CREATED + event_line(2, macro.ORG, "drift", {"touched": ["X"]}), encoding="utf-8")
    code, out, err = run(capsys, "workflow", log, "status")
    assert (code, out, err) == (0, "workflow w1: CPS1  (owner G, delegate D)\n", "")


@pytest.mark.parametrize("argv", [
    ["status"],
    ["advance", "--workflow", "w1", "--event", "submit-view"],
    ["drift", "--touch", "OldAPI"],
])
def test_log_number_too_long_to_convert_is_a_bad_line(tmp_path, capsys, argv):
    digits = "9" * (int_digit_limit() + 700)
    with pytest.raises(ValueError) as refused:
        int(digits)
    log = tmp_path / "wf.jsonl"
    text = CREATED + SUBMITTED.replace('"sequence": 2', f'"sequence": {digits}') + "\n"
    log.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "workflow", log, *argv)
    assert (code, out, err) == (2, "", f"{log}: line 2: {refused.value}\n")
    assert log.read_text(encoding="utf-8") == text


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("line", [DEEP_JSON, " " + DEEP_JSON], ids=["in-place", "blank-before"])
@pytest.mark.parametrize("argv", [
    ["status"],
    ["advance", "--workflow", "w1", "--event", "submit-view"],
    ["drift", "--touch", "OldAPI"],
])
def test_deeply_nested_log_line_is_invalid(tmp_path, capsys, line, argv):
    """JSON nested deeper than the decoder can recurse is a bad line, and
    a refused append leaves the log's bytes as they were."""
    log = tmp_path / "wf.jsonl"
    log.write_text(CREATED + line + "\n", encoding="utf-8")
    before = log.read_bytes()
    code, out, err = run(capsys, "workflow", log, *argv)
    assert (code, out, err) == (2, "", f"{log}: line 2: JSON nested too deeply\n")
    assert log.read_bytes() == before


def test_blank_lines_and_blanks_around_a_line_are_read(tmp_path, capsys):
    log = tmp_path / "wf.jsonl"
    log.write_text("\n" + CREATED + "\n\t\n " + SUBMITTED + "  \n\n", encoding="utf-8")
    code, out, err = run(capsys, "workflow", log, "status")
    assert (code, out, err) == (0, "workflow w1: CPS2  (owner G, delegate D)\n", "")


@pytest.mark.parametrize("argv", [
    ["advance", "--event", "request-validation"],
    ["delegate", "--to", "D", "--child", "c1"],
    ["drift", "--touch", "OldAPI"],
])
def test_appends_refuse_a_log_without_a_final_newline(tmp_path, capsys, argv):
    log = tmp_path / "wf.jsonl"
    code, _, err = run(capsys, "workflow", log, "advance", "--workflow", "root",
                       "--event", "submit-view", "--owner", "G", "--delegate", "D",
                       "--model", DEVENV, "--problem", "upgrade")
    assert code == 0, err
    torn = log.read_bytes()[:-1]
    log.write_bytes(torn)
    code, out, err = run(capsys, "workflow", log, "status")
    assert code == 0, err
    code, out, err = run(capsys, "workflow", log, *argv)
    assert (code, out) == (2, "")
    assert err == (f"{log}: line 2: no final newline; "
                   "the last write may be torn, so nothing is appended\n")
    assert log.read_bytes() == torn


def test_workflow_log_in_missing_directory_is_usage_error(tmp_path, capsys):
    log = tmp_path / "no" / "wf.jsonl"
    code, out, err = run(capsys, "workflow", log, "drift", "--touch", "X")
    assert code == 3
    assert out == ""
    assert err.startswith(f"{log}: cannot open:")


REFUSED_ON_A_NEW_LOG = [
    ["advance", "--workflow", "root", "--event", "submit-view", "--owner", "G",
     "--delegate", "D", "--model", CHAIN, "--problem", "nope"],
    ["delegate", "--to", "D", "--child", "c1"],
]


@pytest.mark.parametrize("argv", REFUSED_ON_A_NEW_LOG, ids=["advance", "delegate"])
def test_refused_call_leaves_no_new_log(tmp_path, capsys, argv):
    log = tmp_path / "new.jsonl"
    code, out, err = run(capsys, "workflow", log, *argv)
    assert (code, out) == (2, ""), err
    assert not log.exists()
    log.touch()
    code, out, err = run(capsys, "workflow", log, *argv)
    assert (code, out) == (2, ""), err
    assert log.read_bytes() == b""


@pytest.mark.parametrize("argv", [
    ["advance", "--workflow", "root", "--event", "submit-view", "--owner", "G", "--delegate", "D"],
    ["delegate", "--workflow", "root", "--to", "D", "--child", "c1"],
], ids=["advance", "delegate"])
def test_a_model_that_fails_to_load_exits_with_the_loads_code(tmp_path, capsys, argv):
    """A ``--model`` that is missing exits 3 and one that does not parse
    exits 2, with what ``check`` of the file prints and nothing more, and
    the new log is removed."""
    unparsable = tmp_path / "bad.poed"
    unparsable.write_text("model {\n  domain\n}\n")
    for model, expected in ((tmp_path / "missing.poed", 3), (unparsable, 2)):
        log = tmp_path / "new.jsonl"
        loaded = run(capsys, "check", model)
        assert loaded[0] == expected and loaded[2]
        code, out, err = run(capsys, "workflow", log, *argv, "--model", model, "--problem", "P")
        assert (code, out, err) == loaded
        assert not log.exists()


def test_concurrent_calls_on_a_new_log_keep_every_accepted_event(tmp_path):
    """A refused call creates the log and holds its lock while it parses a
    large model; the calls that open the log meanwhile, accepted and
    refused, find it removed once they hold the lock and open it again, so
    the log at the path keeps every accepted event."""
    org = tmp_path / "org.poed"
    org.write_text(layered_org_text(30, 120, 3))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def start(log, argv):
        return subprocess.Popen([sys.executable, "-m", "deltapoe.cli", "workflow", str(log), *map(str, argv)],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    for round_ in range(4):
        log = tmp_path / f"wf{round_}.jsonl"
        creator = start(log, ["advance", "--workflow", "root", "--event", "submit-view", "--owner", "G",
                              "--delegate", "D", "--model", org, "--problem", "nope"])
        while not log.exists() and creator.poll() is None:
            time.sleep(0.001)
        drifts = [start(log, ["drift", "--touch", f"D{k}"]) for k in range(3)]
        refused = [creator, start(log, REFUSED_ON_A_NEW_LOG[1])]
        for proc in drifts + refused:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == (0 if proc in drifts else 2), err
        events = macro.parse_log(log.read_text())
        assert [e.sequence for e in events] == [1, 2, 3]
        assert sorted(e.payload["touched"][0] for e in events) == ["D0", "D1", "D2"]


def test_export_derivation_graph(tmp_path, capsys):
    out_path = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "export", GOLDEN, "--graph", out_path)
    assert code == 0
    text = out_path.read_text()
    assert text.count("[label=") >= 8
    assert "Delegation" in text and "Sequence" in text


def test_export_impact_graph_colors(tmp_path, capsys):
    code, out, _ = run(capsys, "impact", CHAIN, "--edit", "C causes y -> c",
                       "--format", "structured")
    report = tmp_path / "report.json"
    report.write_text(out)
    out_path = tmp_path / "impact.dot"
    code, _, _ = run(capsys, "export", report, "--graph", out_path)
    assert code == 0
    text = out_path.read_text()
    assert '"C" [fillcolor="lightcoral"]' in text
    assert '"D" [fillcolor="khaki"]' in text


def test_export_write_failure_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "export", GOLDEN, "--graph", tmp_path / "nodir" / "x.dot")
    assert code == 3


def test_export_non_utf8_report_is_invalid(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_bytes(b'{"changed": "\xff"}')
    code, _, err = run(capsys, "export", report, "--graph", tmp_path / "impact.dot")
    assert code == 2
    assert err.startswith(f"{report}: not valid UTF-8")
    assert not (tmp_path / "impact.dot").exists()


def commands_reading(source, graph):
    return (["check", source], ["plan", source], ["lint", source], ["impact", source, "--edit", "!C"],
            ["export", source, "--graph", graph])


@pytest.mark.parametrize("suffix", [".poed", ".json"])
def test_an_input_that_cannot_be_read_is_a_usage_error(tmp_path, monkeypatch, capsys, suffix):
    """A file that exists but cannot be read, here one its reader may not
    open, is named with the reason on one stderr line, and exits 3."""
    source = tmp_path / f"locked{suffix}"
    source.write_text("{}")

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(Path, "read_text", refuse)
    for argv in commands_reading(source, tmp_path / "out.dot"):
        if suffix == ".json" and argv[0] != "export":
            continue
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", f"{source}: cannot read: Permission denied\n"), argv
    assert not (tmp_path / "out.dot").exists()


@pytest.mark.skipif(not Path("/proc/self/mem").is_file(), reason="no /proc/self/mem here")
def test_an_input_whose_read_fails_is_a_usage_error(tmp_path, capsys):
    """Reading ``/proc/self/mem`` from its start fails with EIO."""
    for argv in commands_reading("/proc/self/mem", tmp_path / "out.dot"):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", "/proc/self/mem: cannot read: Input/output error\n"), argv


def test_a_workflow_log_whose_read_fails_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """A log that opens but cannot be read, here a disk that fails the
    read, is named with the reason on one stderr line and exits 3, for
    every subcommand, and is left as it was."""
    log = tmp_path / "wf.jsonl"
    log.write_text(CREATED)

    def fail(source):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(macro, "_pieces", fail)
    for argv in (["status"], ["advance", "--event", "request-validation"], ["drift", "--touch", "X"],
                 ["delegate", "--to", "Impl", "--child", "c1"]):
        code, out, err = run(capsys, "workflow", log, *argv)
        assert (code, out, err) == (3, "", f"{log}: cannot read: Input/output error\n"), argv
    assert log.read_text() == CREATED


@pytest.mark.skipif(not Path("/proc/self/mem").is_file(), reason="no /proc/self/mem here")
def test_a_workflow_log_whose_read_fails_from_its_start_is_a_usage_error(capsys):
    code, out, err = run(capsys, "workflow", "/proc/self/mem", "status")
    assert (code, out, err) == (3, "", "/proc/self/mem: cannot read: Input/output error\n")


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "not a JSON object"),
    ('{"structural": 5}', "'structural' is not a list of names"),
    ('{"domains": ["A", ["B"]]}', "'domains' is not a list of names"),
    ('{"paths": [["c", "D"], "E"]}', "'paths' is not a list of paths"),
], ids=["array", "structural", "domains", "paths"])
def test_export_of_json_that_is_no_impact_report_is_invalid(tmp_path, capsys, text, message):
    report = tmp_path / "report.json"
    report.write_text(text)
    code, out, err = run(capsys, "export", report, "--graph", tmp_path / "impact.dot")
    assert (code, out, err) == (2, "", f"{report}: not an impact report: {message}\n")
    assert not (tmp_path / "impact.dot").exists()


def test_export_of_deeply_nested_json_is_invalid(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(DEEP_JSON)
    code, out, err = run(capsys, "export", report, "--graph", tmp_path / "impact.dot")
    assert (code, out, err) == (2, "", f"{report}: JSON nested too deeply\n")
    assert not (tmp_path / "impact.dot").exists()


def test_outputs_are_deterministic(tmp_path, capsys):
    first = run(capsys, "check", GOLDEN, DOCS)
    second = run(capsys, "check", GOLDEN, DOCS)
    assert first == second
    g1 = tmp_path / "a.dot"
    g2 = tmp_path / "b.dot"
    run(capsys, "export", GOLDEN, "--graph", g1)
    run(capsys, "export", GOLDEN, "--graph", g2)
    assert g1.read_bytes() == g2.read_bytes()


def test_commands_do_not_mutate_inputs(capsys):
    before = GOLDEN.read_bytes()
    run(capsys, "check", GOLDEN)
    run(capsys, "plan", GOLDEN)
    run(capsys, "lint", GOLDEN)
    assert GOLDEN.read_bytes() == before


def test_config_file_defaults(tmp_path, capsys):
    config = tmp_path / "deltapoe.conf"
    config.write_text("format=structured\n")
    code, out, _ = run(capsys, "--config", config, "plan", GOLDEN)
    assert code == 0
    json.loads(out)


LINE_MODEL = (
    "model {\n  phenomenon a : event\n  phenomenon b : event\n  domain Src { controls a }\n"
    "  domain Mid { observes a controls b causes a -> b }\n  domain End { observes b }\n}\n"
)


CREATE_ROOT = ["--event", "submit-view", "--owner", "G", "--delegate", "D"]


def _flag_and_config_forms(tmp_path, capsys, monkeypatch, key, value, argv):
    """What ``argv`` with ``--key value`` gives, and what it gives with a
    ``key=value`` config line instead: exit code, output and the log.
    Unless ``argv`` creates the workflow itself, it runs on a log whose
    ``root`` workflow has reached CPS3."""
    results = []
    for form in ("flag", "config"):
        (tmp_path / form).mkdir()
        monkeypatch.chdir(tmp_path / form)
        Path("line.poed").write_text(LINE_MODEL)
        Path("deltapoe.conf").write_text(f"{key}={value}\n")
        if "--owner" not in argv:
            for advance in (CREATE_ROOT,
                            ["--event", "request-validation"],
                            ["--event", "record-validation", "--by", "G", "--status", "granted"]):
                run(capsys, "workflow", "wf.jsonl", "advance", "--workflow", "root", *advance)
        if form == "flag":
            result = run(capsys, *argv, f"--{key}", value)
        else:
            result = run(capsys, "--config", "deltapoe.conf", *argv)
        log = Path("wf.jsonl")
        results.append(result + (log.read_text() if log.exists() else None,))
    return results


@pytest.mark.parametrize("key, value, argv", [
    ("permitted", "Src,Mid,End", ["impact", "line.poed", "--edit", "!Src"]),
    ("buffers", "Mid", ["impact", "line.poed", "--edit", "!Src"]),
    ("refs", "OldAPI", ["workflow", "wf.jsonl", "advance", "--event", "submit-solution"]),
    ("workflow", "w2", ["workflow", "wf.jsonl", "advance", *CREATE_ROOT]),
    ("description", "Src moved", ["workflow", "wf.jsonl", "drift", "--touch", "Src"]),
    ("origin", "need", ["workflow", "wf.jsonl", "drift", "--touch", "Src"]),
])
def test_config_list_value_reads_like_one_flag(tmp_path, capsys, monkeypatch, key, value, argv):
    """A ``key=value`` line gives what one ``--key value`` gives, for a
    list option and for one whose default is neither None nor empty."""
    flag, config = _flag_and_config_forms(tmp_path, capsys, monkeypatch, key, value, argv)
    assert flag == config
    assert flag[0] == 0, flag


def test_config_value_is_checked_like_the_flag(tmp_path, capsys, monkeypatch):
    """A config value outside an option's choices is a usage error, the
    one the flag gives, and the log is left as it was."""
    argv = ["workflow", "wf.jsonl", "drift", "--touch", "Src"]
    flag, config = _flag_and_config_forms(tmp_path, capsys, monkeypatch, "origin", "bogus", argv)
    assert flag == config
    assert flag[0] == 3 and "invalid choice: 'bogus'" in flag[2]


def test_config_value_does_not_override_the_command_line(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("deltapoe.conf").write_text("workflow=w2\ndescription=from config\n")
    code, _, _ = run(capsys, "--config", "deltapoe.conf", "workflow", "wf.jsonl", "advance",
                     "--workflow", "root", *CREATE_ROOT)
    assert code == 0
    code, _, _ = run(capsys, "--config", "deltapoe.conf", "workflow", "wf.jsonl", "drift",
                     "--touch", "Src", "--description", "")
    assert code == 0
    events = [json.loads(line) for line in Path("wf.jsonl").read_text().splitlines()]
    assert [e["workflow"] for e in events[:2]] == ["root", "root"]
    assert events[-1]["payload"]["description"] == ""


def test_config_values_go_before_a_double_dash(tmp_path, capsys):
    """A config value fills an option even when the command line ends with
    ``-- FILE``: it is not taken for a file name."""
    config = tmp_path / "deltapoe.conf"
    config.write_text("derivation=api_upgrade\n")
    expected = run(capsys, "plan", GOLDEN, "--derivation", "api_upgrade")
    assert expected[0] == 0, expected
    assert run(capsys, "--config", config, "plan", "--", GOLDEN) == expected


def test_a_config_call_builds_the_parser_twice(tmp_path, capsys, monkeypatch):
    """A ``--config`` call parses and re-parses with one parser, and builds
    a second, with its defaults suppressed, to tell which options the
    command line gives."""
    config = tmp_path / "deltapoe.conf"
    config.write_text("derivation=api_upgrade\nformat=structured\n")
    built, make_parser = [], cli.make_parser
    monkeypatch.setattr(cli, "make_parser", lambda: built.append(1) or make_parser())
    code, out, _ = run(capsys, "--config", config, "plan", GOLDEN)
    assert (code, len(built)) == (0, 2)
    json.loads(out)


def test_config_key_of_no_option_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """A misspelt key is refused before anything is logged; a key that
    only another command takes is left unused."""
    monkeypatch.chdir(tmp_path)
    Path("typo.conf").write_text("worklfow=w2\n")
    code, out, err = run(capsys, "--config", "typo.conf", "workflow", "wf.jsonl", "advance", *CREATE_ROOT)
    assert (code, out, err) == (3, "", "--config: unknown option 'worklfow'\n")
    assert not Path("wf.jsonl").exists()
    Path("shared.conf").write_text("workflow=w2\nformat=structured\n")
    code, out, _ = run(capsys, "--config", "shared.conf", "workflow", "wf.jsonl", "advance", *CREATE_ROOT)
    assert (code, out) == (0, "workflow w2: CPS2\n")
    code, out, _ = run(capsys, "--config", "shared.conf", "impact", CHAIN, "--edit", "!C")
    assert code == 0 and json.loads(out)["edit"] == "!C"


@pytest.mark.parametrize("permitted, passed", [("C", False), ("D", False), ("C,D,E", True)])
def test_impact_structured_bound_is_one_json_document(tmp_path, capsys, permitted, passed):
    code, out, _ = run(capsys, "impact", CHAIN, "--edit", "!C", "--format", "structured",
                       "--permitted", permitted)
    assert code == (0 if passed else 1)
    doc = json.loads(out)
    assert list(doc)[-2:] == ["domains", "bound"]
    mdl = dsl.parse_model(CHAIN.read_text())
    report = impact.propagate(mdl.environment, model.Cancel("C"))
    bound = impact.bound_check(report, frozenset(permitted.split(",")))
    assert doc["bound"] == {
        "passed": passed,
        "violations": [{"domain": name, "path": list(path)} for name, path in bound.violations],
    }
    assert bool(doc["bound"]["violations"]) is not passed
    code, plain, _ = run(capsys, "impact", CHAIN, "--edit", "!C", "--format", "structured")
    del doc["bound"]
    assert json.loads(plain) == doc
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    code, _, _ = run(capsys, "export", report_path, "--graph", tmp_path / "impact.dot")
    assert code == 0
    assert '"C" [fillcolor="lightcoral"]' in (tmp_path / "impact.dot").read_text()


def test_parse_edit_tokenizes_the_edit_once(monkeypatch):
    calls = []
    tokenize = dsl.tokenize
    monkeypatch.setattr(dsl, "tokenize", lambda text: calls.append(text) or tokenize(text))
    mdl = dsl.parse_model(CHAIN.read_text())
    calls.clear()
    assert impact.parse_edit("!C", mdl) == model.Cancel("C")
    assert calls == ["!C"]


def test_delegate_loads_the_model_once(tmp_path, capsys, monkeypatch):
    log = tmp_path / "wf.jsonl"
    for argv in (["--workflow", "root", "--event", "submit-view", "--owner", "G", "--delegate", "D"],
                 ["--event", "request-validation"],
                 ["--event", "record-validation", "--by", "G", "--status", "granted"],
                 ["--event", "submit-solution"],
                 ["--event", "request-validation"],
                 ["--event", "record-validation", "--by", "G", "--status", "granted"]):
        code, _, err = run(capsys, "workflow", log, "advance", *argv)
        assert code == 0, err
    parsed = []
    parse_file = dsl.parse_file
    monkeypatch.setattr(dsl, "parse_file", lambda *a, **k: parsed.append(a[1]) or parse_file(*a, **k))
    code, out, err = run(capsys, "workflow", log, "delegate", "--to", "D", "--child", "c1",
                         "--model", DEVENV, "--problem", "upgrade")
    assert (code, out, err) == (0, "workflow c1: CPS1 (owner G, delegate D)\n", "")
    assert parsed == [str(DEVENV)]
    assert '"domains": ["Docs", "OldAPI"]' in log.read_text().splitlines()[-1]


DEEP_MODEL = (
    "model {\n  phenomenon y : event\n  domain C { controls y }\n"
    "  stakeholder G : problem-owner\n  need N \"a need\"\n}\n"
)


def deep_problem(name, change="skip", need="N"):
    return f"problem {name} {{\n  env [C]\n  change {change}\n  validator G\n  need {need}\n}}\n"


def nested(depth, atom):
    """``atom`` inside ``depth`` parentheses, alternating ``||`` and ``;``."""
    text = atom
    for k in range(depth):
        text = f"({atom} {';' if k % 2 else '||'} {text})"
    return text


def test_long_change_chains_parse(tmp_path, capsys):
    steps = 1200
    source = tmp_path / "long.poed"
    source.write_text(
        DEEP_MODEL
        + "".join(
            deep_problem(name, change=op.join(["skip"] * steps))
            + deep_problem(f"need_{name}", need=op.join(["N"] * steps))
            for name, op in (("seq", " ; "), ("par", " || "))
        )
    )
    with source.open("a") as text:
        for name, op in (("seq", " ; "), ("par", " || ")):
            text.write(f"derivation known_{name} {{\n  problem {name}\n"
                       f"  apply KnownSolution at root with {{ solution: {op.join(['skip'] * steps)} }}\n"
                       "  justify { rule \"known\" }\n  validated by G granted\n}\n")
    code, out, err = run(capsys, "check", source)
    assert code == 0, err
    for name in ("seq", "par", "need_seq", "need_par"):
        assert f"problem {name} ok" in out
    for name in ("seq", "par"):
        assert f"derivation known_{name}: Solved" in out
        code, _, err = run(capsys, "plan", source, "--derivation", f"known_{name}")
        assert code == 0, err
    for name in ("seq", "par", "need_seq", "need_par"):
        code, out, err = run(capsys, "workflow", tmp_path / f"{name}.jsonl", "advance",
                             "--workflow", "root", "--event", "submit-view", "--owner", "G",
                             "--delegate", "D", "--model", source, "--problem", name)
        assert (code, out) == (0, "workflow root: CPS2\n"), err


def test_solution_reflect_on_a_long_need_lints(tmp_path, capsys):
    source = tmp_path / "reflect.poed"
    source.write_text(
        DEEP_MODEL + deep_problem("p", change="?F", need=" ; ".join(["N"] * 1200))
        + "derivation reflect {\n  problem p\n  apply SolutionReflect at root with { shape: seq }\n"
        "  justify { rule \"one change per need\" }\n}\n"
    )
    code, out, err = run(capsys, "lint", source)
    assert (code, out, err) == (0, "lint: clean\n", "")


@pytest.mark.parametrize("where", ["change", "need"])
@pytest.mark.parametrize("shape", ["parens", "alternating"])
def test_nesting_beyond_the_limit_is_a_parse_error(tmp_path, capsys, where, shape):
    atom = "skip" if where == "change" else "N"
    text = "(" * 300 + atom + ")" * 300 if shape == "parens" else nested(300, atom)
    source = tmp_path / "deep.poed"
    source.write_text(DEEP_MODEL + deep_problem("p", **{where: text}))
    code, out, err = run(capsys, "check", source)
    assert code == 2
    assert out == ""
    line, prefix = (9, "  change ") if where == "change" else (11, "  need ")
    refused = [i for i, ch in enumerate(text) if ch == "("][dsl.MAX_NESTING]
    assert err == (
        f"{source}:{line}:{len(prefix) + refused + 1}: error: "
        f"parentheses nested deeper than {dsl.MAX_NESTING}\n"
    )


def test_nesting_at_the_limit_checks(tmp_path, capsys):
    depth = dsl.MAX_NESTING
    source = tmp_path / "deep.poed"
    source.write_text(
        DEEP_MODEL
        + deep_problem("parens", change="(" * depth + "skip" + ")" * depth,
                       need="(" * depth + "N" + ")" * depth)
        + deep_problem("alternating", change=nested(depth, "skip"), need=nested(depth, "N"))
    )
    code, out, err = run(capsys, "check", source)
    assert code == 0, err
    assert "problem parens ok" in out and "problem alternating ok" in out


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    def crash(args):
        raise RecursionError("maximum recursion depth exceeded\nwhile calling")

    monkeypatch.setitem(cli.COMMANDS, "check", crash)
    code, out, err = run(capsys, "check", GOLDEN)
    assert code == cli.INTERNAL == 70
    assert out == ""
    assert err == "internal: RecursionError: maximum recursion depth exceeded while calling\n"


# --- the collector pause ---------------------------------------------------------------

@pytest.mark.parametrize("argv, code", [
    (["check", str(GOLDEN)], 0),
    (["check", "--no-such-option"], cli.USAGE),
    (["check", "no/such/file.poed"], cli.USAGE),
    (["check", "crash"], cli.INTERNAL),
])
def test_main_pauses_the_collector_and_restores_it_on_each_exit(argv, code, monkeypatch, capsys):
    seen = []
    check = cli.COMMANDS["check"]

    def recording_check(args):
        seen.append(gc.isenabled())
        if args.files == ["crash"]:
            raise RuntimeError("boom")
        return check(args)

    monkeypatch.setitem(cli.COMMANDS, "check", recording_check)
    assert gc.isenabled()
    assert cli.main(argv) == code
    assert gc.isenabled()
    assert not any(seen)


def test_main_leaves_a_paused_collector_paused(capsys):
    gc.disable()
    try:
        assert cli.main(["check", str(GOLDEN)]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def workflow_log_text(count):
    """A log of ``count`` workflows past their problem-view gate, then one
    drift that regresses every other one."""
    events, sequence = [], 0
    for index in range(count):
        refs = macro.ProblemRefs(
            f"[D{index}] (+) ?F |= G : N{index}",
            frozenset({f"D{index}"}), frozenset({f"d{index}.p"}), frozenset({f"N{index}"}),
        )
        for kind, payload in (
            ("create", {"owner": "G", "delegate": "D", "problem": refs.to_payload()}),
            ("submit-view", {}),
            ("request-validation", {}),
            ("record-validation", {"by": "G", "status": "granted"}),
        ):
            sequence += 1
            events.append(macro.Event(sequence, f"w{index}", kind, payload))
    touched = sorted(f"D{index}" for index in range(0, count, 2))
    events.append(macro.Event(sequence + 1, macro.ORG, "drift",
                              {"touched": touched, "description": "", "origin": "environment"}))
    return macro.render_log(events)


def unreachable_after(argv):
    """How many objects in reference cycles one in-process command leaves."""
    gc.collect()
    gc.disable()
    try:
        assert cli.main(argv) == 0
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("command", ["impact", "workflow"])
def test_commands_build_no_cycles_that_grow_with_the_input(command, tmp_path, capsys):
    """The reason the collector may pause: whatever cycles ``impact`` and
    ``workflow status`` leave (argparse's own) do not grow with the input."""
    def argv(size):
        path = tmp_path / f"{command}{size}"
        if command == "impact":
            path.write_text(layered_org_text(size, 2 * size, 3, seed=1))
            return ["impact", str(path), "--edit", "!O0_0"]
        path.write_text(workflow_log_text(10 * size))
        return ["workflow", str(path), "status"]

    small, large = argv(4), argv(16)
    unreachable_after(small)  # first use: imports and caches
    assert unreachable_after(small) == unreachable_after(large)


# --- errors writing stdout -------------------------------------------------------------

def run_with_stdout(argv, stdout):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "deltapoe.cli", *map(str, argv)], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)


@pytest.mark.parametrize("command", ["status", "check"])
def test_stdout_closed_by_its_reader_ends_quietly(tmp_path, command):
    """A reader that goes away (``| head -1``) ends the command with 141
    and nothing on stderr, whether the write fails during the command
    (a long ``status``) or at the flush before exit (a short ``check``)."""
    log = tmp_path / "wf.jsonl"
    log.write_text(workflow_log_text(2000))
    argv = ["workflow", log, "status"] if command == "status" else ["check", GOLDEN]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_with_stdout(argv, write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("command", ["status", "check"])
def test_stdout_that_cannot_be_written_is_named(tmp_path, command):
    log = tmp_path / "wf.jsonl"
    log.write_text(workflow_log_text(2000))
    argv = ["workflow", log, "status"] if command == "status" else ["check", GOLDEN]
    with open("/dev/full", "w") as full:
        proc = run_with_stdout(argv, full)
    assert (proc.returncode, proc.stderr) == (74, "stdout: cannot write: No space left on device\n")


RETIRE_CAFE = """model {
  phenomenon a.x : event
  domain X { controls a.x }
  domain Y { observes a.x }
  stakeholder G : problem-owner
  need N "retire"
}
problem p { env [X, Y] change ?F validator G need N }
derivation d {
  problem p
  apply KnownSolution at root with { solution: !Y }
  justify { rule "retire" }
  validated by G granted
  plan { step s1 "retire café" installs !Y }
}
"""


@pytest.mark.parametrize("command", ["plan", "status", "config", "diagnostic"])
def test_output_is_utf8_whatever_the_locale(tmp_path, command):
    """A plan step, a logged solution, a ``--config`` value and a bad
    character that are not ASCII are read and written as UTF-8, to stdout
    and stderr, under the C locale with UTF-8 mode off: the exit code, the
    output and the log are those of a run in UTF-8 mode."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONIOENCODING"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for locale in ({"PYTHONUTF8": "1"}, {"LC_ALL": "C", "PYTHONUTF8": "0"}):
        work = tmp_path / locale["PYTHONUTF8"]
        work.mkdir()
        if command == "plan":
            (work / "cafe.poed").write_text(RETIRE_CAFE, encoding="utf-8")
            argv = ["plan", "cafe.poed"]
        elif command == "status":
            (work / "wf.jsonl").write_text(
                IN_CPS3 + event_line(5, event="submit-solution", payload={"solution": "café"}), encoding="utf-8")
            argv = ["workflow", "wf.jsonl", "status"]
        elif command == "config":
            (work / "config").write_text("description=café\n", encoding="utf-8")
            argv = ["--config", "config", "workflow", "wf.jsonl", "drift", "--touch", "X"]
        else:
            (work / "bad.poed").write_text("model {\n  phenomenon a.x : event é\n}\n", encoding="utf-8")
            argv = ["check", "bad.poed"]
        proc = subprocess.run([sys.executable, "-m", "deltapoe.cli", *argv], cwd=work, env={**env, **locale},
                              capture_output=True, timeout=120)
        log = work / "wf.jsonl"
        runs.append((proc.returncode, proc.stdout, proc.stderr, log.read_bytes() if log.exists() else None))
    assert runs[1] == runs[0]
    if command == "diagnostic":
        assert runs[0][:3] == (2, b"", "bad.poed:2:26: error: unexpected character 'é'\n".encode())
    elif command != "config":
        assert runs[0][0] == 0 and "café".encode() in runs[0][1]
    else:
        assert runs[0][0] == 0 and b'"description": "caf\\u00e9"' in runs[0][3]
