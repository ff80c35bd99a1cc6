import json

import pytest

from deltapoe import cli

from .conftest import FIXTURES


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


def test_impact_devenv_bound_pass(capsys):
    code, out, _ = run(
        capsys, "impact", DEVENV, "--edit", "!OldAPI", "--permitted", "OldAPI,Docs"
    )
    assert code == 0
    assert "bound: pass" in out


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
