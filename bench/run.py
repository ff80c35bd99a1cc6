#!/usr/bin/env python3
"""End-to-end benchmark of the deltapoe CLI.

    python3 bench/run.py --workload staged-derivation --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it uses ``src/`` of that
checkout and installs nothing.  The workload's inputs are generated from
the seed under ``.bench_out/``.

With ``--trace 0`` every call is a separate ``python -m deltapoe.cli``
process, issued one at a time (a closed loop with one client).  A round
is one no-op CLI process (``setup_s``) followed by the workload's four
calls (``round_s`` is their sum), on freshly written inputs; rounds
repeat until ``--seconds`` is spent, and each metric is the median over
rounds of its time scaled to the host's speed (``bench/reference.py``).
Every call is checked against the workload's oracle.

With ``--trace 1`` the calls run in this process under wrappers that
time each layer (see ``bench/layers.py``); that run gives the per-layer
metrics.

``--workload all`` runs the three workloads in turn and prints one row
per workload with each metric under its command's name.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The sha256 of every call's
standard output goes to ``.bench_out/<workload>-seed<n>-stdout.json``, so
two commits' outputs can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from families import FAMILIES, Call  # noqa: E402
from reference import REFERENCE_LOOP, REFERENCE_S  # noqa: E402

# Full sizes: a staged check takes 1-3 s on a 2-core VM; the impact model
# is 120x30 = 3,600 domains (about 0.6 MB); the log holds about 20k events.
SIZES = {"staged-derivation": 40, "impact-org": 120, "workflow-log": 5000}
OUT = Path(".bench_out")
CALL_TIMEOUT_S = 120
SETUP = Call("setup", (), 3, lambda out, err: None if out == "" else "usage error wrote to stdout")


def make_family(workload: str, seed: int, scale: float = 1.0, copy: str = ""):
    """Write a fresh copy of the workload's inputs, in a directory of its
    own for each scale and copy name, and return its family."""
    outdir = OUT / "-".join([workload] + ([f"x{scale}"] if scale != 1.0 else []) + ([copy] if copy else []))
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    return FAMILIES[workload](seed, max(2, round(SIZES[workload] * scale)), outdir)


# Children are started by this small helper process rather than by the
# harness: a child's ru_maxrss includes the high-water mark of the process
# it was spawned from, and the harness grows past 80 MiB while it checks
# impact reports.  The helper stays near 10 MiB, below any CLI process.
SPAWNER = """
import json, os, signal, sys, threading, time
for line in sys.stdin:
    argv, out, err, timeout = json.loads(line)
    actions = [(os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    started = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    killer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
    killer.start()
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - started
    killer.cancel()
    print(json.dumps([seconds, os.waitstatus_to_exitcode(status), usage.ru_maxrss]), flush=True)
"""


class Runner:
    """Runs CLI calls as child processes, one at a time, and checks them."""

    def __init__(self, log_path: Path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        env.pop("DELTAPOE_COLOR", None)
        self.spawner = subprocess.Popen([sys.executable, "-S", "-c", SPAWNER], cwd=ROOT, env=env,
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.out_path, self.err_path = OUT / "call.stdout", OUT / "call.stderr"
        self.log_path = log_path
        self.digests: list[dict] = []
        self.peak_kib = 0
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def spawn(self, argv: list[str]) -> tuple[float, int, bytes, bytes, int]:
        """Run a child to completion: seconds, exit code, stdout, stderr and
        peak resident KiB."""
        request = [argv, str(ROOT / self.out_path), str(ROOT / self.err_path), CALL_TIMEOUT_S]
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process died")
        seconds, code, maxrss_kib = json.loads(reply)
        return seconds, code, self.out_path.read_bytes(), self.err_path.read_bytes(), maxrss_kib

    def reference(self) -> float:
        seconds, code, _, _, _ = self.spawn([sys.executable, "-c", REFERENCE_LOOP])
        if code != 0:
            raise RuntimeError(f"the reference loop exited {code}")
        return seconds

    def run(self, call: Call, round_index: int) -> float:
        """Run one CLI call, check it, and return its wall-clock seconds."""
        seconds, code, stdout, stderr, maxrss_kib = self.spawn(
            [sys.executable, "-m", "deltapoe.cli", *call.argv])
        self.peak_kib = max(self.peak_kib, maxrss_kib)
        self.attempted += 1
        self.digests.append({"round": round_index, "call": call.label, "exit": code,
                             "stdout_sha256": hashlib.sha256(stdout).hexdigest()})
        if code != call.exit_code:
            problem = f"exit {code}, expected {call.exit_code}"
        else:
            problem = call.check(stdout.decode("utf-8", "replace"), stderr.decode("utf-8", "replace"))
        if problem:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"round {round_index} {call.label}: {problem}")
        return seconds

    def write_digests(self) -> None:
        self.log_path.write_text(json.dumps(self.digests, indent=1) + "\n", encoding="utf-8")


@dataclass
class Measurement:
    """Raw seconds of one untraced run: per call label, one per round, and
    per round, the reference loops timed after each of its calls."""

    runner: Runner
    calls: dict[str, list[float]]
    references: list[list[float]]

    def per_round(self, labels) -> list[float]:
        """The labelled calls' seconds summed in each round, scaled by that
        round's reference loops."""
        return [sum(self.calls[label][i] for label in labels) * REFERENCE_S / statistics.fmean(refs)
                for i, refs in enumerate(self.references)]

    def median(self, *labels: str) -> float:
        """Median over rounds of the labelled calls' scaled seconds, per call."""
        return statistics.median(self.per_round(labels)) / len(labels)

    def metrics(self) -> dict:
        return {
            "setup_s": {"value": self.median("setup"), "unit": "s"},
            "round_s": {"value": statistics.median(self.per_round([k for k in self.calls if k != "setup"])),
                        "unit": "s"},
            "peak_rss_mib": {"value": self.runner.peak_kib / 1024, "unit": "MiB"},
        }


def measure(workload: str, seed: int, seconds: float) -> Measurement:
    """The untraced end-to-end run of one workload."""
    runner = Runner(OUT / f"{workload}-seed{seed}-stdout.json")
    calls: dict[str, list[float]] = {}
    references: list[list[float]] = []
    try:
        runner.run(SETUP, -1)  # compiles the bytecode cache; not timed
        started = time.perf_counter()
        index = 0
        last = 0.0
        while index < 3 or time.perf_counter() - started + last <= seconds:
            begun = time.perf_counter()
            references.append([])
            # every round starts from freshly written inputs (see WorkflowLog.round)
            for call in [SETUP] + make_family(workload, seed).round():
                calls.setdefault(call.label, []).append(runner.run(call, index))
                references[-1].append(runner.reference())
            last = time.perf_counter() - begun
            index += 1
    finally:
        runner.close()
    runner.write_digests()
    (OUT / f"{workload}-seed{seed}-samples.json").write_text(
        json.dumps({"calls": calls, "references": references}) + "\n", encoding="utf-8")
    return Measurement(runner, calls, references)


def report_rows(m: Measurement) -> list[str]:
    rows = [f"  {'round_s':24} {m.metrics()['round_s']['value']:.4f} s  (the four calls after setup, summed)"]
    for label, values in m.calls.items():
        rows.append(f"  {label + '_s':24} {m.median(label):.4f} s  (raw median {statistics.median(values):.4f},"
                    f" min {min(values):.4f}, max {max(values):.4f})  n={len(values)}")
    references = [r for refs in m.references for r in refs]
    rows.append(f"  {'reference loop':24} raw median {statistics.median(references):.4f} s"
                f"  n={len(references)}")
    rows.append(f"  {'peak_rss_mib':24} {m.runner.peak_kib / 1024:.2f} MiB (largest child)")
    rows.append(f"  {'fail_ratio':24} {m.runner.failed}/{m.runner.attempted}")
    first = "".join(d["stdout_sha256"] for d in m.runner.digests if d["round"] == 0)
    rows.append(f"  stdout sha256 of round 0: {hashlib.sha256(first.encode()).hexdigest()}"
                f"  (every call: {m.runner.log_path})")
    return rows + m.runner.problems


def table_row(workload: str, m: Measurement) -> str:
    cells = [f"{label}_s={m.median(label):.4f} s" for label in m.calls]
    if workload == "workflow-log":
        cells.append(f"append_s={m.median('advance', 'delegate'):.4f} s")
    cells.append(f"round_s={m.metrics()['round_s']['value']:.4f} s")
    cells.append(f"peak_rss_mib={m.runner.peak_kib / 1024:.2f} MiB")
    cells.append(f"fail_ratio={m.runner.failed / m.runner.attempted:.4f} failed/attempted")
    return f"{workload:18} " + "  ".join(cells)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(FAMILIES) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "deltapoe" / "cli.py").is_file():
        print(f"bench: no deltapoe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)

    if args.trace:
        sys.path.insert(0, str(ROOT / "src"))
        import layers

        result = layers.run(args.workload, args.seed, args.seconds, make_family)
        for line in result.pop("rows"):
            print(line)
        print(json.dumps(result))
        return 0

    workloads = sorted(FAMILIES) if args.workload == "all" else [args.workload]
    table = []
    failed = 0
    for workload in workloads:
        m = measure(workload, args.seed, args.seconds)
        print(f"{workload}  seed {args.seed}  rounds {len(m.calls['setup'])}")
        print("\n".join(report_rows(m)))
        table.append(table_row(workload, m))
        failed += m.runner.failed
    if args.workload == "all":
        print("\n".join(table))
        return 1 if failed else 0
    print(json.dumps({"correct": m.runner.failed == 0, "attempted": m.runner.attempted,
                      "failed": m.runner.failed, "metrics": m.metrics()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
