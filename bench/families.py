"""Seeded input families for the deltapoe benchmark, and their oracles.

Each family writes its input files from a seed and then hands out rounds
of CLI calls.  A call carries the exit code and the output its oracle
expects.  The oracles come from the generators' own bookkeeping (the
stage list, the layer graph, a small simulation of the workflow fold);
nothing here imports deltapoe, so the benchmark checks the program
rather than itself.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its oracle expects of it."""

    label: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[str, str], str | None]  # (stdout, stderr) -> problem or None


def exact(stdout: str) -> Callable[[str, str], str | None]:
    """An oracle that knows the whole output and expects no diagnostics."""

    def check(out: str, err: str) -> str | None:
        if out != stdout:
            return "stdout differs from the oracle"
        if err:
            return "unexpected diagnostics"
        return None

    return check


# --- staged-derivation ---------------------------------------------------------

STAGE_RULES = ("DomainAdd", "DomainRemove", "DomainRefine")


class StagedDerivation:
    """An N-stage sequenced derivation, plus a copy whose last stage
    cancels a domain that does not exist.

    Shape: SolutionReflect at the root, then per stage Sequence ->
    SolnRefine -> a domain rule -> discharge.  The seed picks each stage's
    rule, so every ``apply_change`` atom path runs.
    """

    name = "staged-derivation"

    def __init__(self, seed: int, stages: int, outdir: Path):
        if stages < 2:
            raise ValueError("a staged derivation needs at least two stages")
        rng = random.Random(f"staged-{seed}")
        self.size = stages
        initial = [f"D{i}" for i in range(stages // 2 + 2)]
        declared = list(initial)
        free = list(initial)  # present, simple, and not part of a composite
        atoms: list[tuple[str, str]] = []
        # an even mix in seeded order keeps the cost of a seed close to
        # that of any other
        mix = [STAGE_RULES[k % 3] for k in range(stages)]
        rng.shuffle(mix)
        for rule in mix:
            rule = rule if free else "DomainAdd"
            if rule == "DomainAdd":
                name = f"D{len(declared)}"
                declared.append(name)
                free.append(name)
                atoms.append((rule, f"+{name}"))
            elif rule == "DomainRemove":
                atoms.append((rule, "!" + free.pop(rng.randrange(len(free)))))
            else:
                target = free.pop(rng.randrange(len(free)))
                kept, added = f"D{len(declared)}", f"D{len(declared) + 1}"
                declared += [kept, added]
                atoms.append((rule, f"{target} ~> d[{kept}]({added})"))
        self.rules = [rule for rule, _ in atoms]
        broken = atoms[:-1] + [("DomainRemove", "!Ghost")]
        self.path = str(outdir / "staged.poed")
        self.broken_path = str(outdir / "staged_broken.poed")
        text, _ = _staged_text(seed, declared, initial, atoms)
        broken_text, fail_line = _staged_text(seed, declared, initial, broken)
        Path(self.path).write_text(text, encoding="utf-8")
        Path(self.broken_path).write_text(broken_text, encoding="utf-8")

        solution = " ; ".join(atom for _, atom in atoms)
        head = f"{self.path}: model ok\n{self.path}: problem staged ok\n"
        self.check_out = f"{head}{self.path}: derivation staged: Solved\n  solution: {solution}\n"
        bhead = f"{self.broken_path}: model ok\n{self.broken_path}: problem staged ok\n"
        self.broken_out = f"{bhead}{self.broken_path}: derivation staged: Invalid\n"
        # the failure must be attributed to the last stage's domain rule,
        # by tree path or by source line
        self.broken_where = (f"{_stage_path(stages, stages)}.0:", f"{self.broken_path}:{fail_line}:")
        lines = []
        for k, (_, atom) in enumerate(atoms, start=1):
            after = f"; after s{k - 1}" if k > 1 else ""
            lines.append(f"stage {k}:\n  s{k}  deliver stage {k}  [installs {atom}{after}]\n")
        self.plan_out = "".join(lines)

    def _check_broken(self, out: str, err: str) -> str | None:
        if out != self.broken_out:
            return "stdout differs from the oracle"
        if "CancelMissing" not in err or not any(w in err for w in self.broken_where):
            return "CancelMissing is not reported at the last stage"
        return None

    def round(self) -> list[Call]:
        return [
            Call("check", ("check", self.path), 0, exact(self.check_out)),
            Call("check_invalid", ("check", self.broken_path), 2, self._check_broken),
            Call("plan", ("plan", self.path), 0, exact(self.plan_out)),
            Call("lint", ("lint", self.path), 0, exact("lint: clean\n")),
        ]


def _stage_path(k: int, stages: int) -> str:
    """Tree path of stage k's problem: the left premise of the k-th
    Sequence, or the right premise of the last one."""
    path = "root.0" + ".1" * (k - 1)
    return path + ".0" if k < stages else path


def _staged_text(seed, declared, initial, atoms) -> tuple[str, int]:
    stages = len(atoms)
    out = [f"# generated: {stages}-stage sequenced derivation, seed {seed}", "", "model {"]
    out.append("  phenomenon clock : event")
    out += [f"  phenomenon p{name[1:]} : event" for name in declared]
    out += [f"  domain {name} {{ observes clock  controls p{name[1:]} }}" for name in declared]
    out.append("  stakeholder G : problem-owner")
    out += [f'  need N{k} "stage {k} delivered"' for k in range(1, stages + 1)]
    out += ["}", "", "problem staged {", f"  env [{', '.join(initial)}]", "  change ?F",
            "  validator G", "  need " + " ; ".join(f"N{k}" for k in range(1, stages + 1)),
            "}", "", "derivation staged {", "  problem staged", ""]
    out += ["  apply SolutionReflect at root with { shape: seq }",
            '  justify { rule "one solution component per stage" }', ""]
    fail_line = 0
    for k, (rule, atom) in enumerate(atoms, start=1):
        at = _stage_path(k, stages)
        if k < stages:
            out += [f"  apply Sequence at {at[:-2]}",
                    f'  justify {{ rule "stage {k} before the rest" '
                    f'dependency "later stages build on stage {k}" '
                    f'timeline "stage {k} ships first" }}']
        out += [f"  apply SolnRefine at {at} with {{ change: {atom} }}",
                f'  justify {{ rule "stage {k} is {atom}" }}']
        fail_line = len(out) + 1
        out += [f"  apply {rule} at {at}.0",
                f'  justify {{ rule "install stage {k}" }}',
                f'  plan {{ step s{k} "deliver stage {k}" installs {atom}'
                + (f" after s{k - 1}" if k > 1 else "") + " }",
                f"  discharge at {at}.0.0",
                "  validated by G granted", ""]
    out.append("}")
    return "\n".join(out) + "\n", fail_line


# --- impact-org -------------------------------------------------------------------

WIDTH = 30  # domains per layer
FAN_IN = 3  # phenomena of the layer above that each domain observes


class ImpactOrg:
    """A layered organisation: L layers of W domains.  Each domain below
    the top observes k phenomena of the layer above and links each of
    them causally to the one phenomenon it controls.

    Every call cancels the same top-layer domain.
    """

    name = "impact-org"

    def __init__(self, seed: int, layers: int, outdir: Path):
        rng = random.Random(f"impact-{seed}")
        self.size = layers
        self.order: list[str] = []
        self.observed: dict[str, list[str]] = {}
        self.controls: dict[str, str] = {}
        lines = [f"# generated: {layers}x{WIDTH} layered organisation, k={FAN_IN}, seed {seed}",
                 "", "model {"]
        for layer in range(1, layers + 1):
            for w in range(WIDTH):
                lines.append(f"  phenomenon o{layer}_{w} : event")
        for layer in range(1, layers + 1):
            for w in range(WIDTH):
                name, own = f"O{layer}_{w}", f"o{layer}_{w}"
                above = [] if layer == 1 else sorted(
                    rng.sample(range(WIDTH), FAN_IN))
                seen = [f"o{layer - 1}_{a}" for a in above]
                self.order.append(name)
                self.observed[name] = seen
                self.controls[name] = own
                clauses = ([f"observes {', '.join(seen)}"] if seen else []) + [f"controls {own}"]
                clauses += [f"causes {p} -> {own}" for p in seen]
                lines.append(f"  domain {name} {{ " + "  ".join(clauses) + " }")
        lines.append("}")
        self.edges: dict[str, list[tuple[str, str]]] = {}  # cause -> (effect, domain)
        for name in self.order:
            for cause in self.observed[name]:
                self.edges.setdefault(cause, []).append((self.controls[name], name))
        self.path = str(outdir / "org.poed")
        Path(self.path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        # a top-layer domain of the widest reach: from some of them the
        # edit dies out within a few layers, which would make one seed's
        # work a fraction of another's
        reach = {f"O1_{w}": len(self._closure(f"O1_{w}", frozenset())[2]) for w in range(WIDTH)}
        self.target = rng.choice([name for name, n in reach.items() if n == max(reach.values())])
        self.buffers = [f"O2_{w}" for w in range(WIDTH)] if layers >= 2 else []
        self.plain = self._closure(self.target, frozenset())
        self.buffered = self._closure(self.target, frozenset(self.buffers))
        self._verified: dict[tuple[str, str], str | None] = {}

    def _closure(self, target: str, buffers: frozenset[str]) -> tuple[dict[str, int], set[str], list[str]]:
        """Brute-force reach: phenomenon depths by breadth-first search over
        the links of non-buffer domains, then the observers of what was
        reached."""
        depth = {self.controls[target]: 0}
        queue = deque(depth)
        while queue:
            phen = queue.popleft()
            for effect, via in self.edges.get(phen, ()):
                if via not in buffers and effect not in depth:
                    depth[effect] = depth[phen] + 1
                    queue.append(effect)
        reached = [name for name in self.order if name != target
                   and any(p in depth for p in self.observed[name])]
        return depth, set(buffers), reached

    def _path_ok(self, path: list[str], depth: dict[str, int], buffers: set[str]) -> bool:
        """A path alternates phenomena and domains, each hop a causal link
        of a non-buffer domain, ends at a domain observing the last
        phenomenon, and is as short as breadth-first search allows."""
        dom = path[-1]
        if len(path) % 2 or path[0] != self.controls[self.target] or path[-2] not in self.observed.get(dom, ()):
            return False
        for i in range(1, len(path) - 1, 2):
            via = path[i]
            if (via in buffers or path[i - 1] not in self.observed.get(via, ())
                    or self.controls.get(via) != path[i + 1]):
                return False
        best = min(depth[p] for p in self.observed[dom] if p in depth)
        return len(path) == 2 * best + 2

    def _check_report(self, behavioural, buffers_hit, paths, closure) -> str | None:
        depth, buffers, reached = closure
        if sorted(behavioural) != sorted(reached):
            return "behavioural set differs from the closure oracle"
        if sorted(buffers_hit) != sorted(set(reached) & buffers):
            return "reached buffers differ from the closure oracle"
        if sorted(p[-1] for p in paths) != sorted(reached):
            return "not one path per reached domain"
        if [(len(p), p[-1]) for p in paths] != sorted((len(p), p[-1]) for p in paths):
            return "paths are not ordered by length, then name"
        if not all(self._path_ok(p, depth, buffers) for p in paths):
            return "a path is not a shortest chain of causal links"
        return None

    def _check_text(self, out: str, closure, bound: bool) -> str | None:
        lines = out.split("\n")
        if lines[-1] != "":
            return "output does not end in a newline"
        lines.pop()

        def names(line, key):
            if not line.startswith(key + ": "):
                return None
            rest = line[len(key) + 2:]
            return [] if rest == "-" else rest.split(", ")

        if len(lines) < 4 or lines[0] != f"edit: !{self.target}":
            return "edit line differs from the oracle"
        if names(lines[1], "structural") != [self.target]:
            return "structural set differs from the oracle"
        behavioural, hit = names(lines[2], "behavioural"), names(lines[3], "buffers")
        if behavioural is None or hit is None:
            return "malformed report"
        rest = lines[4:]
        paths = []
        if rest and rest[0] == "paths:":
            rest.pop(0)
            while rest and rest[0].startswith("  "):
                paths.append(rest.pop(0)[2:].split(" -> "))
        problem = self._check_report(behavioural, hit, paths, closure)
        if problem or not bound:
            return problem or (None if not rest else "unexpected trailing lines")
        by_domain = {p[-1]: p for p in paths}
        violations = sorted(behavioural)
        expected = ["bound: fail" if violations else "bound: pass"]
        ranked = sorted(violations, key=lambda n: (len(by_domain[n]), n))
        expected += [f"  {n}: {' -> '.join(by_domain[n])}" for n in ranked]
        return None if rest == expected else "bound report differs from the oracle"

    def _check_json(self, out: str) -> str | None:
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return "structured output is not JSON"
        if (doc.get("edit") != f"!{self.target}" or doc.get("structural") != [self.target]
                or doc.get("domains") != self.order
                or doc.get("seed_phenomena") != [self.controls[self.target]]):
            return "structured report differs from the oracle"
        return self._check_report(doc.get("behavioural", []), doc.get("buffers", []),
                                  doc.get("paths", []), self.plain)

    def _memo(self, label: str, check: Callable[[str], str | None]):
        """Outputs repeat byte for byte across rounds, so each distinct
        output is verified once."""

        def run(out: str, err: str) -> str | None:
            if err:
                return "unexpected diagnostics"
            key = (label, out)
            if key not in self._verified:
                self._verified[key] = check(out)
            return self._verified[key]

        return run

    def round(self) -> list[Call]:
        edit = ("impact", self.path, "--edit", f"!{self.target}")
        bound_exit = 1 if self.plain[2] else 0
        return [
            Call("impact", edit, 0,
                 self._memo("plain", lambda out: self._check_text(out, self.plain, False))),
            Call("impact_bound", edit + ("--permitted", self.target), bound_exit,
                 self._memo("bound", lambda out: self._check_text(out, self.plain, True))),
            Call("impact_buffered", edit + ("--buffers", ",".join(self.buffers)), 0,
                 self._memo("buffered", lambda out: self._check_text(out, self.buffered, False))),
            Call("impact_structured", edit + ("--format", "structured"), 0,
                 self._memo("structured", self._check_json)),
        ]


# --- workflow-log ------------------------------------------------------------------

STAKEHOLDERS = ("S0", "S1", "S2", "S3")
REF_NAMES = 50  # drift keys; each workflow's problem names one of them
PV, SP = "problem-view", "solution+plan"


@dataclass
class _Record:
    id: str
    stakeholder: str
    target: str
    status: str
    sequence: int


@dataclass
class _Flow:
    """The oracle's own view of one workflow, kept in step with the log."""

    id: str
    owner: str
    delegate: str
    refs: frozenset[str]
    state: str = "CPS1"
    records: list[_Record] = field(default_factory=list)
    children: list[str] = field(default_factory=list)
    solution: str = ""
    solution_refs: frozenset[str] = frozenset()

    def effective(self, target: str) -> bool:
        return any(r.target == target and r.status == "granted" for r in self.records)


class WorkflowLog:
    """An append-only log of W workflows on a seeded delegation tree with
    mixed fan-out and one wide parent; workflows are spread over CPS1 to
    CPS5.  Each round appends with ``advance`` and ``delegate``, stales a
    known share of validations with ``drift``, and reads with ``status``.
    """

    name = "workflow-log"

    def __init__(self, seed: int, workflows: int, outdir: Path):
        self.rng = random.Random(f"workflow-{seed}")
        self.size = workflows
        self.flows: dict[str, _Flow] = {}
        self.lines: list[str] = []
        self.path = str(outdir / "workflows.jsonl")
        self.model_path = str(outdir / "stakeholders.poed")
        trusts = "\n".join(
            f"  stakeholder {s} : problem-owner {{ trusts {', '.join(o for o in STAKEHOLDERS if o != s)} }}"
            for s in STAKEHOLDERS)
        Path(self.model_path).write_text(f"model {{\n{trusts}\n}}\n", encoding="utf-8")

        rng = self.rng
        # w1 .. w{wide + 1} are children of the root, the wide parent; the
        # rest form a random recursive tree under w{wide + 1}, whose fan-out
        # is mixed
        wide = max(2, workflows // 10)
        parent = {f"w{i}": "w0" if i <= wide + 1 else f"w{rng.randrange(wide + 1, i)}"
                  for i in range(1, workflows)}
        kids: dict[str, list[str]] = {}
        for child, par in parent.items():
            kids.setdefault(par, []).append(child)
        leaves = [f"w{i}" for i in range(workflows) if f"w{i}" not in kids]
        mix = [("CPS1", "CPS2", "CPS3", "CPS4", "CPS5")[k % 5] for k in range(len(leaves))]
        rng.shuffle(mix)
        goals = dict(zip(leaves, mix))
        self._emit("w0", "create", {"owner": "S0", "delegate": "S1", "problem": self._refs_payload()})
        for i in range(workflows):
            wid = f"w{i}"
            goal = goals.get(wid) or rng.choice(("CPS3", "CPS5"))
            self._progress(wid, goal)
            for child in kids.get(wid, ()):
                flow = self.flows[wid]
                delegating = flow.delegate if flow.state == "CPS3" else flow.owner
                self._delegate(wid, child, rng.choice([s for s in STAKEHOLDERS if s != delegating]),
                               self._refs_payload())
        initial = rng.sample(range(REF_NAMES), 2)
        for k in initial:
            self._drift(f"R{k}")
        # the round drifts a name no drift has touched yet, so that it
        # stales a share of validations
        self.touched = f"R{rng.choice([k for k in range(REF_NAMES) if k not in initial])}"
        self.served = False
        Path(self.path).write_text("".join(self.lines), encoding="utf-8")

    # the log, in the program's own line format; the round's events are
    # appended by the CLI, and _emit only keeps the oracle's sequence numbers
    # and state in step

    def _refs_payload(self) -> dict:
        return {"text": "", "domains": [f"R{self.rng.randrange(REF_NAMES)}"],
                "phenomena": [], "needs": []}

    def _emit(self, workflow: str, kind: str, payload: dict) -> int:
        sequence = len(self.lines) + 1
        self.lines.append(json.dumps({"sequence": sequence, "workflow": workflow, "event": kind,
                                      "payload": payload}, separators=(", ", ": ")) + "\n")
        if kind == "create":
            self.flows[workflow] = _Flow(workflow, payload["owner"], payload["delegate"],
                                         frozenset(payload["problem"]["domains"]))
        return sequence

    def _progress(self, wid: str, goal: str) -> None:
        flow = self.flows[wid]
        steps = ("CPS1", "CPS2", "CPS3", "CPS4", "CPS5")
        while steps.index(flow.state) < steps.index(goal):
            if flow.state == "CPS1":
                self._emit(wid, "submit-view", {})
                flow.state = "CPS2"
            elif flow.state == "CPS3":
                refs = [f"R{self.rng.randrange(REF_NAMES)}"]
                self._emit(wid, "submit-solution", {"solution": f"solution of {wid}", "refs": refs})
                flow.solution, flow.solution_refs, flow.state = f"solution of {wid}", frozenset(refs), "CPS4"
            else:
                target = PV if flow.state == "CPS2" else SP
                seq = self._emit(wid, "request-validation", {})
                record = _Record(f"v{seq}", flow.owner, target, "pending", seq)
                flow.records.append(record)
                record.sequence = self._emit(wid, "record-validation", {"by": flow.owner, "status": "granted"})
                record.status = "granted"
                flow.state = "CPS3" if target == PV else "CPS5"

    def _delegate(self, wid: str, child: str, to: str, problem: dict) -> None:
        flow = self.flows[wid]
        owner = flow.delegate if flow.state == "CPS3" else flow.owner
        self._emit(wid, "delegate", {"to": to, "child": child, "problem": problem})
        self.flows[child] = _Flow(child, owner, to, frozenset(problem["domains"]))
        flow.children.append(child)

    def _drift(self, touched: str) -> str:
        """Stale granted validations whose references meet ``touched`` and
        regress the workflows that lost a gate; returns the CLI report."""
        seq = self._emit("*", "drift", {"touched": [touched], "description": "", "origin": "environment"})
        stale, regressed = [], []
        for flow in self.flows.values():
            for record in flow.records:
                refs = flow.refs | (flow.solution_refs if record.target == SP else frozenset())
                if record.status == "granted" and record.sequence < seq and touched in refs:
                    record.status = "stale"
                    stale.append(f"stale: {flow.id} {record.id} ({record.target})\n")
            before = flow.state
            if before in ("CPS3", "CPS4", "CPS5") and not flow.effective(PV):
                flow.state = "CPS2"
            elif before == "CPS5" and not flow.effective(SP):
                flow.state = "CPS4"
            if flow.state != before:
                regressed.append(f"regressed: {flow.id} {before} -> {flow.state}\n")
        return "".join(stale + regressed) or "drift: nothing invalidated\n"

    def _status(self) -> str:
        out = []
        for f in self.flows.values():
            out.append(f"workflow {f.id}: {f.state}  (owner {f.owner}, delegate {f.delegate})\n")
            out += [f"  validation {r.id}: {r.target} {r.status} (by {r.stakeholder}, seq {r.sequence})\n"
                    for r in f.records]
            if f.solution:
                out.append(f"  solution: {f.solution}\n")
            out += [f"  child: {c}\n" for c in f.children]
        return "".join(out)

    def round(self) -> list[Call]:
        # the round appends to the log, and each drift event makes every
        # later fold longer, so a log serves one round and each round gets
        # a fresh log: every round then does the same work
        if self.served:
            raise RuntimeError("a workflow log serves one round; generate a fresh one")
        self.served = True
        rng, log = self.rng, self.path
        fresh = sorted(f.id for f in self.flows.values() if f.state == "CPS1")
        wid = rng.choice(fresh)
        self._emit(wid, "submit-view", {})
        self.flows[wid].state = "CPS2"
        advance = Call("advance",
                       ("workflow", log, "advance", "--workflow", wid, "--event", "submit-view"),
                       0, exact(f"workflow {wid}: CPS2\n"))

        parents = sorted(f.id for f in self.flows.values() if f.state in ("CPS3", "CPS5"))
        par = self.flows[rng.choice(parents)]
        delegating = par.delegate if par.state == "CPS3" else par.owner
        to = rng.choice([s for s in STAKEHOLDERS if s != delegating])
        child = "r0"
        self._delegate(par.id, child, to, {"text": "", "domains": [], "phenomena": [], "needs": []})
        delegate = Call("delegate",
                        ("workflow", log, "delegate", "--workflow", par.id, "--to", to,
                         "--child", child, "--model", self.model_path),
                        0, exact(f"workflow {child}: CPS1 (owner {delegating}, delegate {to})\n"))

        drift = Call("drift", ("workflow", log, "drift", "--touch", self.touched),
                     0, exact(self._drift(self.touched)))
        status = Call("status", ("workflow", log, "status"), 0, exact(self._status()))
        return [advance, delegate, drift, status]


FAMILIES = {cls.name: cls for cls in (StagedDerivation, ImpactOrg, WorkflowLog)}
