"""Self-tests of the benchmark: seeded generators, oracles, exact counts.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from deltapoe import cli  # noqa: E402
from families import FAMILIES, StagedDerivation  # noqa: E402

SMALL = {"staged-derivation": 8, "impact-org": 10, "workflow-log": 120}
EXACT_COUNTS = ("calculus.rethread_visits", "model.apply_change_calls",
                "printer.env_str_calls", "impact.propagate_calls", "macro.events_folded")


def small_family(tmp: Path):
    def make(workload: str, seed: int, scale: float = 1.0, copy: str = ""):
        outdir = tmp / f"{workload}-x{scale}{copy}"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        return FAMILIES[workload](seed, max(2, round(SMALL[workload] * scale)), outdir)

    return make


def generated_bytes(workload: str, seed: int, outdir: Path) -> dict[str, bytes]:
    outdir.mkdir()
    FAMILIES[workload](seed, SMALL[workload], outdir)
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("workload", sorted(FAMILIES))
def test_same_seed_gives_same_bytes(workload, tmp_path):
    first = generated_bytes(workload, 7, tmp_path / "a")
    assert first == generated_bytes(workload, 7, tmp_path / "b")
    assert first != generated_bytes(workload, 8, tmp_path / "c")


def test_workflow_log_serves_one_round(tmp_path):
    family = FAMILIES["workflow-log"](4, SMALL["workflow-log"], tmp_path)
    family.round()
    with pytest.raises(RuntimeError):
        family.round()


def test_staged_uses_every_domain_rule(tmp_path):
    family = StagedDerivation(3, 9, tmp_path)
    assert sorted(set(family.rules)) == ["DomainAdd", "DomainRefine", "DomainRemove"]


@pytest.mark.parametrize("workload", sorted(FAMILIES))
def test_seed_program_passes_every_oracle(workload, tmp_path):
    session = layers.Session()
    for _ in range(3):
        session.round(small_family(tmp_path)(workload, 5), workload)
    assert session.problems == []
    assert session.attempted == 12


def cli_output(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload, label, old, new", [
    ("staged-derivation", "check", "Solved", "Incomplete"),
    ("staged-derivation", "check_invalid", "CancelMissing", "AddExisting"),
    ("staged-derivation", "plan", "stage 2:", "stage 3:"),
    ("impact-org", "impact", "behavioural: O", "behavioural: X"),
    ("impact-org", "impact_bound", "bound: fail", "bound: pass"),
    ("impact-org", "impact_buffered", "buffers: O2_", "buffers: O3_"),
    ("impact-org", "impact_structured", '"O2_', '"O9_'),
    ("workflow-log", "drift", "stale: ", "stale: x"),
    ("workflow-log", "status", "granted", "stale"),
])
def test_oracles_reject_wrong_output(workload, label, old, new, tmp_path):
    family = small_family(tmp_path)(workload, 2)
    for call in family.round():
        code, out, err = cli_output(call.argv)
        assert code == call.exit_code and call.check(out, err) is None
        if call.label == label:
            assert old in out + err
            assert call.check(out.replace(old, new, 1), err.replace(old, new, 1)) is not None


def test_traced_counts_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / ".bench_out").mkdir()
    runs = [layers.run("impact-org", 3, 0, small_family(tmp_path)) for _ in range(2)]
    for result in runs:
        assert result["correct"], result["rows"][-10:]
    first, second = ({k: r["metrics"][k]["value"] for k in EXACT_COUNTS} for r in runs)
    assert first == second
    assert first["impact.propagate_calls"] == 2
    assert runs[0]["metrics"]["model.apply_change_waste"]["value"] > 1


def test_metric_names_match_benchmark_json(tmp_path, monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.chdir(tmp_path)
    (tmp_path / ".bench_out").mkdir()
    traced = layers.run("workflow-log", 1, 0, small_family(tmp_path))["metrics"]
    assert list(traced) == [m["name"] for m in spec["per_layer"]]
    assert all(traced[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])
    runner = types.SimpleNamespace(peak_kib=1024)
    calls = {"setup": [0.2, 0.1, 0.2], "a": [1.0, 0.5, 9.0], "b": [2.0, 1.0, 2.0]}
    references = [[0.2] * 3, [0.1] * 3, [0.2] * 3]  # the second round ran on a host twice as fast
    e2e = run.Measurement(runner, calls, references).metrics()
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert all(e2e[m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])
    assert e2e["round_s"]["value"] == pytest.approx(3.0)  # median over rounds of 3, 3 and 11
    assert e2e["setup_s"]["value"] == pytest.approx(0.2)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "impact-org", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
