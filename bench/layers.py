"""Per-layer trace of the deltapoe kernel, run in one process.

The traced run imports deltapoe from ``src/`` and replaces module
attributes with timing wrappers, so nothing under ``src/`` changes.  Each
wrapper counts every call and records a span (name, start, end, parent)
around the outermost call of a recursive function; inner calls are
counted only.  Spans stay in memory and are written once, at the end, to
``.bench_out/<workload>-seed<n>-spans.json``.

Whatever ``--workload`` names, the traced run covers every family, so
each layer is measured on the family that exercises it.  After an
untimed warm-up round of each family at quarter size, it repeats reps
until ``--seconds`` is spent (at least MIN_REPS).  A rep runs, for each
family in turn:

* one round at full size, each call run twice, back to back, on two
  fresh copies of the inputs: untraced (``cli.main`` timed only), the
  base of ``trace.overhead``, and traced, which gives every other metric;
  which of the two goes first alternates from call to call;
* the round traced again at quarter size, right after, for the
  ``*_growth`` log-log slopes;
* the reference loop of ``bench/reference.py``, which scales the rep's
  times as the untraced run scales its own.

Times are medians over reps, scaled by the reference loop; slopes and
``trace.overhead`` are medians of ratios taken within a rep.  Counts come
from the first rep and are exact: the same seed gives the same counts on
every run.  Each ``*_growth`` time slope has a ``*_growth`` count slope
beside it that does not depend on the host's speed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from families import FAMILIES
from reference import REFERENCE_LOOP, REFERENCE_S

SMALL = 0.25  # size of the rounds that give the *_growth slopes
MIN_REPS = 2

# (module, attribute, span name).  The printer's env_str is wrapped where
# calculus imported it by name; wrapping printer.env_str would miss those
# calls.
WRAPPED = (
    ("dsl", "tokenize", "dsl.tokenize"),
    ("dsl", "parse_file", "dsl.parse_file"),
    ("calculus", "build", "calculus.build"),
    ("calculus", "rethread", "calculus.rethread"),
    ("calculus", "apply", "calculus.apply"),
    ("calculus", "check", "calculus.check"),
    ("calculus", "lint", "calculus.lint"),
    ("calculus", "extract_plan", "calculus.extract_plan"),
    ("model", "apply_change", "model.apply_change"),
    ("calculus", "env_str", "printer.env_str"),
    ("impact", "parse_edit", "impact.parse_edit"),
    ("impact", "propagate", "impact.propagate"),
    ("impact", "bound_check", "impact.bound_check"),
    ("export", "impact_doc", "export.impact_doc"),
    ("export", "to_json", "export.to_json"),
    ("macro", "parse_log", "macro.parse_log"),
    ("macro", "fold", "macro.fold"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """Spans and counts at the wrapped module boundaries."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, str]] = []  # name, start, end, parent, call
        self.stack: list[int] = []
        self.open = Counter()  # wrapped calls in progress, by name
        self.calls: Counter = Counter()  # (call label, name) -> calls
        self.label = ""
        self.facts: dict[tuple[str, str], int] = {}

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[self.label, name] += 1
            if name == "macro.fold":
                self.facts[self.label, "events_folded"] = self.facts.get((self.label, "events_folded"), 0) + len(args[0])
            if name == "model.apply_change":
                phase = "build" if self.open["calculus.build"] else "check" if self.open["calculus.check"] else "other"
                self.calls[self.label, f"model.apply_change@{phase}"] += 1
            if self.open[name]:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append((name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.label))
            self.stack.append(index)
            self.open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.open[name] -= 1
                self.stack.pop()
                _, start, _, parent, label = self.spans[index]
                self.spans[index] = (name, start, time.perf_counter_ns(), parent, label)
            self._note(name, result)
            return result

        return wrapper

    def _note(self, name: str, result) -> None:
        key = (self.label, name)
        if name == "dsl.tokenize":
            self.facts[self.label, "tokens"] = self.facts.get((self.label, "tokens"), 0) + len(result)
        elif name == "calculus.build":
            self.facts[key] = max(self.facts.get(key, 0), _nodes(result))
        elif name == "impact.propagate":
            self.facts[self.label, "reached"] = len(result.behavioural)
            self.facts[self.label, "path_hops"] = sum(len(p) - 1 for p in result.paths)
        elif name == "macro.parse_log":
            self.facts[self.label, "events_parsed"] = self.facts.get((self.label, "events_parsed"), 0) + len(result)

    def total(self, name: str, labels, self_time: bool = False) -> float:
        """Seconds in outermost spans of ``name`` during the given calls,
        less the time of their direct child spans when ``self_time``."""
        ns = 0
        picked = set()
        for i, (span, start, end, _, label) in enumerate(self.spans):
            if span == name and label in labels:
                ns += end - start
                picked.add(i)
        if self_time:
            ns -= sum(end - start for _, start, end, parent, _ in self.spans if parent in picked)
        return ns / 1e9

    def count(self, key: str, labels) -> int:
        return sum(v for (label, name), v in self.calls.items() if name == key and label in labels)

    def fact(self, key: str, labels) -> int:
        return sum(v for (label, name), v in self.facts.items() if name == key and label in labels)


def _nodes(root) -> int:
    return 1 + sum(_nodes(child) for child in root.premises + root.alternatives)


def _reference() -> float:
    """Seconds of the reference loop in a process of its own, as the
    untraced run times it."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_LOOP], check=True)
    return time.perf_counter() - started


class Session:
    """Runs calls in this process against the wrapped modules."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"deltapoe.{name}")
                        for name in ("dsl", "calculus", "model", "impact", "export", "macro", "cli")}
        self.originals = {(mod, attr): getattr(self.modules[mod], attr) for mod, attr, _ in WRAPPED}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    @contextlib.contextmanager
    def traced(self, tracer: Tracer):
        """Wrap the traced functions for the duration of the block."""
        for mod, attr, name in WRAPPED:
            setattr(self.modules[mod], attr, tracer.wrap(name, self.originals[mod, attr]))
        try:
            yield
        finally:
            for mod, attr, _ in WRAPPED:
                setattr(self.modules[mod], attr, self.originals[mod, attr])

    def call(self, call, label: str, tracer: Tracer | None = None) -> float:
        """Run one call, traced if a tracer is given, check it, and return
        its seconds."""
        out, err = io.StringIO(), io.StringIO()
        with self.traced(tracer) if tracer else contextlib.nullcontext():
            if tracer:
                tracer.label = label
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.modules["cli"].main(list(call.argv))
            except Exception as exc:  # a crash is a failed call, not a crashed benchmark
                code, err = None, io.StringIO(repr(exc))
            seconds = time.perf_counter() - started
        problem = (f"exit {code}, expected {call.exit_code}" if code != call.exit_code
                   else call.check(out.getvalue(), err.getvalue()))
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(f"{label}: {problem}")
        return seconds

    def round(self, family, tag: str, tracer: Tracer | None = None) -> dict[str, float]:
        """One round of the family's calls; returns seconds per call label."""
        return {f"{tag}:{call.label}": self.call(call, f"{tag}:{call.label}", tracer)
                for call in family.round()}


def run(workload: str, seed: int, seconds: float, make_family) -> dict:
    """The traced run: returns the result object, with ``rows`` to print."""
    started = time.perf_counter()
    session = Session()
    tracer = Tracer()
    order = sorted(FAMILIES)
    for name in order:  # warms imports and caches; not timed
        session.round(make_family(name, seed, SMALL), f"{name}/warm")
    labels: dict[str, list[str]] = {}  # call labels of each family
    base: dict[str, list[float]] = {name: [] for name in order}  # per rep, untraced
    traced: dict[str, list[float]] = {name: [] for name in order}  # per rep
    reference: dict[str, list[float]] = {name: [] for name in order}  # per rep
    ratio: dict[str, float] = {}
    reps, last = 0, 0.0
    while reps < MIN_REPS or time.perf_counter() - started + last <= seconds:
        begun = time.perf_counter()
        for name in order:
            # each call runs untraced on one fresh copy of the inputs and
            # traced on another, back to back, the order alternating from
            # call to call, so the host's drift hardly enters trace.overhead
            plain, family = make_family(name, seed, copy="untraced"), make_family(name, seed)
            pairs = list(zip(plain.round(), family.round()))
            base_s = traced_s = 0.0
            for i, (untraced, call) in enumerate(pairs):
                for traced_turn in ((False, True) if (i + reps) % 2 == 0 else (True, False)):
                    if traced_turn:
                        traced_s += session.call(call, f"{name}#{reps}:{call.label}", tracer)
                    else:
                        base_s += session.call(untraced, f"{name}:{call.label}")
            small = make_family(name, seed, SMALL)
            session.round(small, f"{name}/small#{reps}", tracer)
            base[name].append(base_s)
            traced[name].append(traced_s)
            labels[name] = [call.label for _, call in pairs]
            ratio[name] = family.size / small.size
            reference[name].append(_reference())
        last = time.perf_counter() - begun
        reps += 1

    def keys(names, rep: int = 0, small: bool = False, calls=None) -> list[str]:
        """Labels of the given families' calls in one rep: all of them, or
        those whose call label is in ``calls``."""
        tag = "/small" if small else ""
        return [f"{n}{tag}#{rep}:{c}" for n in names for c in labels[n] if calls is None or c in calls]

    def t(span: str, names, calls=None, self_time: bool = False) -> float:
        """Median over reps of the span's scaled seconds, totalled over the
        families' full-size calls."""
        return statistics.median(
            sum(tracer.total(span, keys([n], r, calls=calls), self_time) * REFERENCE_S / reference[n][r]
                for n in names)
            for r in range(reps))

    def c(name: str, names, calls=None) -> int:
        return tracer.count(name, keys(names, calls=calls))

    def f(key: str, names, calls=None) -> int:
        return tracer.fact(key, keys(names, calls=calls))

    def growth(span: str, name: str) -> float:
        """Log-log slope of a layer's time between small and full size;
        both rounds of a rep run back to back, so host drift mostly cancels."""
        return statistics.median(
            math.log(tracer.total(span, keys([name], r)) / tracer.total(span, keys([name], r, small=True)))
            for r in range(reps)) / math.log(ratio[name])

    def count_growth(value: int, small: int, name: str) -> float:
        return math.log(value / small) / math.log(ratio[name])

    def per_call(names, calls=None) -> float:
        """Scaled in-process ``cli.main`` seconds per call."""
        return t("cli.main", names, calls) / len(keys(names, calls=calls))

    staged, org, log = ["staged-derivation"], ["impact-org"], ["workflow-log"]
    build_calls = c("model.apply_change@build", staged)
    check_calls = c("model.apply_change@check", staged)
    rethreads = c("calculus.rethread", staged)
    hops = f("path_hops", org, ("impact",))
    folded = f("events_folded", log)
    tokenize_s = t("dsl.tokenize", order)
    metrics = {
        "dsl.tokenize_s": (tokenize_s, "s"),
        "dsl.parse_s": (t("dsl.parse_file", order, self_time=True), "s"),
        "dsl.tokens": (f("tokens", order), "count"),
        "dsl.tokens_per_s": (f("tokens", order) / tokenize_s, "1/s"),
        "calculus.build_s": (t("calculus.build", staged), "s"),
        "calculus.rethread_visits": (rethreads, "count"),
        "calculus.apply_calls": (c("calculus.apply", staged), "count"),
        "calculus.nodes": (tracer.fact("calculus.build", ["staged-derivation#0:check"]), "count"),
        "calculus.build_growth": (growth("calculus.build", "staged-derivation"), "slope"),
        "calculus.rethread_visits_growth": (count_growth(
            rethreads, tracer.count("calculus.rethread", keys(staged, small=True)), "staged-derivation"), "slope"),
        "calculus.check_s": (t("calculus.check", staged), "s"),
        "calculus.lint_s": (t("calculus.lint", staged), "s"),
        "calculus.extract_plan_s": (t("calculus.extract_plan", staged), "s"),
        "model.apply_change_calls": (c("model.apply_change", staged), "count"),
        "model.apply_change_s": (t("model.apply_change", staged), "s"),
        "model.apply_change_waste": (build_calls / check_calls, "ratio"),
        "printer.env_str_calls": (c("printer.env_str", staged), "count"),
        "printer.env_str_s": (t("printer.env_str", staged), "s"),
        "impact.parse_edit_s": (t("impact.parse_edit", org), "s"),
        "impact.propagate_calls": (c("impact.propagate", org, ("impact_bound",)), "count"),
        "impact.propagate_s": (t("impact.propagate", org), "s"),
        "impact.bound_check_s": (t("impact.bound_check", org, self_time=True), "s"),
        "impact.reached": (f("reached", org, ("impact",)), "count"),
        "impact.path_hops": (hops, "count"),
        "impact.propagate_growth": (growth("impact.propagate", "impact-org"), "slope"),
        "impact.path_hops_growth": (count_growth(
            hops, tracer.fact("path_hops", keys(org, small=True, calls=("impact",))), "impact-org"), "slope"),
        "export.impact_doc_s": (t("export.impact_doc", org), "s"),
        "export.to_json_s": (t("export.to_json", org), "s"),
        "macro.parse_log_s": (t("macro.parse_log", log), "s"),
        "macro.events_parsed": (f("events_parsed", log), "count"),
        "macro.fold_calls": (c("macro.fold", log), "count"),
        "macro.events_folded": (folded, "count"),
        "macro.fold_s": (t("macro.fold", log), "s"),
        "macro.fold_growth": (growth("macro.fold", "workflow-log"), "slope"),
        "macro.events_folded_growth": (count_growth(
            folded, tracer.fact("events_folded", keys(log, small=True)), "workflow-log"), "slope"),
        "cli.check_s": (per_call(staged, ("check", "check_invalid")), "s"),
        "cli.plan_s": (per_call(staged, ("plan",)), "s"),
        "cli.lint_s": (per_call(staged, ("lint",)), "s"),
        "cli.impact_s": (per_call(org), "s"),
        "cli.workflow_s": (per_call(log), "s"),
        "trace.overhead": (statistics.median(
            sum(traced[n][r] for n in order) / sum(base[n][r] for n in order) for r in range(reps)), "ratio"),
    }
    spans_path = Path(".bench_out") / f"{workload}-seed{seed}-spans.json"
    spans_path.write_text(json.dumps([list(s) for s in tracer.spans]) + "\n", encoding="utf-8")
    rows = [f"{name:32} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    rows.append(f"({reps} reps; times are medians over reps, counts are from the first)")
    rows += session.problems[:10]
    return {
        "rows": rows,
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
