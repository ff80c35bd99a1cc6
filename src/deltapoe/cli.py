"""Batch command-line front end.

Commands: check, plan, impact, lint, workflow, export.  Data goes to
standard output, diagnostics to standard error.  Exit codes: 0 for
success (solved, pass), 1 for incomplete or fail-with-report, 2 for
invalid input or parse errors, 3 for usage errors.  No command mutates
model or derivation files; only workflow logs are appended.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import calculus, dsl, export, impact, macro, printer
from . import model as m

OK, INCOMPLETE, INVALID, USAGE = 0, 1, 2, 3


def _err(message: str):
    print(message, file=sys.stderr)


def _color_enabled() -> bool:
    return os.environ.get("DELTAPOE_COLOR", "") == "always"


def _verdict_word(word: str) -> str:
    if _color_enabled():
        color = {"Solved": "32", "Incomplete": "33", "Invalid": "31"}.get(word, "0")
        return f"\x1b[{color}m{word}\x1b[0m"
    return word


def _read_config(path: str | None) -> dict:
    if not path:
        return {}
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line is not key=value: {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _not_utf8(path: str, err: UnicodeDecodeError) -> str:
    return f"{path}: not valid UTF-8: byte 0x{err.object[err.start]:02x} at offset {err.start}"


class Workspace:
    """Files parsed in order against one growing model."""

    def __init__(self):
        self.model = dsl.EMPTY_MODEL
        self.problems: dict[str, m.Problem] = {}
        self.files: list[tuple[str, dsl.ParsedFile]] = []

    def load(self, path: str):
        text = Path(path).read_text(encoding="utf-8")
        parsed = dsl.parse_file(text, path, base=self.model)
        self.model = parsed.model
        duplicates = set(parsed.problems) & set(self.problems)
        if duplicates:
            raise dsl.DslError(
                [dsl.ParseDiagnostic(1, 1, f"duplicate problem names: {sorted(duplicates)}")]
            )
        self.problems.update(parsed.problems)
        self.files.append((path, parsed))
        return parsed


def _load_workspace(paths: list[str]) -> tuple[Workspace | None, int]:
    workspace = Workspace()
    for path in paths:
        if not Path(path).is_file():
            _err(f"{path}: no such file")
            return None, USAGE
        try:
            workspace.load(path)
        except dsl.DslError as errs:
            for diag in errs.diagnostics:
                _err(f"{path}:{diag}")
            return None, INVALID
        except UnicodeDecodeError as err:
            _err(_not_utf8(path, err))
            return None, INVALID
    return workspace, OK


def _build_derivation(workspace: Workspace, script: dsl.DerivationScript, path: str):
    try:
        return calculus.build(script, workspace.model, workspace.problems), None
    except calculus.RuleError as err:
        where = dsl.path_str(err.path)
        kind = err.cause_kind or err.kind
        return None, f"{path}: derivation {script.name}: {where}: {kind}: {err}"


# --- check ------------------------------------------------------------------------

def cmd_check(args) -> int:
    workspace, status = _load_workspace(args.files)
    if workspace is None:
        return status
    worst = OK
    for path, parsed in workspace.files:
        if parsed.model is not dsl.EMPTY_MODEL and parsed.kind == "model":
            print(f"{path}: model ok")
        for name in parsed.problems:
            print(f"{path}: problem {name} ok")
        for script in parsed.derivations:
            root, failure = _build_derivation(workspace, script, path)
            if failure:
                _err(failure)
                print(f"{path}: derivation {script.name}: {_verdict_word('Invalid')}")
                worst = max(worst, INVALID)
                continue
            verdict = calculus.check(root, workspace.model)
            print(f"{path}: derivation {script.name}: {_verdict_word(verdict.kind)}")
            for diag in verdict.diagnostics:
                _err(f"{path}: derivation {script.name}: {diag}")
            for item in verdict.open_items:
                _err(f"{path}: derivation {script.name}: open: {item}")
            if verdict.kind == "Invalid":
                worst = max(worst, INVALID)
            elif verdict.kind == "Incomplete":
                worst = max(worst, INCOMPLETE)
            else:
                solution = calculus.solution_of(root)
                print(f"  solution: {printer.change_str(solution)}")
    return worst


# --- plan -------------------------------------------------------------------------

def _pick_derivation(workspace: Workspace, name: str | None):
    scripts = [
        (path, script)
        for path, parsed in workspace.files
        for script in parsed.derivations
    ]
    if not scripts:
        return None, None
    if name is None:
        return scripts[0]
    for path, script in scripts:
        if script.name == name:
            return path, script
    return None, None


def cmd_plan(args) -> int:
    workspace, status = _load_workspace(args.files)
    if workspace is None:
        return status
    path, script = _pick_derivation(workspace, args.derivation)
    if script is None:
        _err("no matching derivation found")
        return USAGE
    root, failure = _build_derivation(workspace, script, path)
    if failure:
        _err(failure)
        return INVALID
    verdict = calculus.check(root, workspace.model)
    if verdict.kind == "Invalid":
        for diag in verdict.diagnostics:
            _err(f"{path}: {diag}")
        return INVALID
    if verdict.kind == "Incomplete":
        for item in verdict.open_items:
            _err(f"{path}: open: {item}")
        _err(f"derivation {script.name} is not solved; no plan to extract")
        return INCOMPLETE
    plan = calculus.extract_plan(root)
    if args.format == "structured":
        doc = {
            "derivation": script.name,
            "steps": [
                dict(export._step_doc(entry.step), stage=entry.stage + 1)
                for entry in plan.entries
            ],
            "constraints": [
                {"kind": kind, "step": a, "other": b}
                for kind, a, b in sorted(plan.constraints)
            ],
        }
        print(export.to_json(doc), end="")
        return OK
    current = None
    for entry in plan.entries:
        if entry.stage != current:
            current = entry.stage
            print(f"stage {current + 1}:")
        step = entry.step
        notes = [f"installs {printer.change_str(step.installs)}"]
        for ref in step.after:
            notes.append(f"after {ref}")
        for ref in step.parallel_ok:
            notes.append(f"parallel_ok {ref}")
        if step.deadline:
            notes.append(f"deadline {printer.deadline_str(step.deadline)}")
        print(f"  {step.id}  {step.action}  [" + "; ".join(notes) + "]")
    return OK


# --- impact -----------------------------------------------------------------------

def _names_flag(values) -> frozenset[str]:
    out = set()
    for chunk in values or ():
        out.update(part.strip() for part in chunk.split(",") if part.strip())
    return frozenset(out)


def cmd_impact(args) -> int:
    workspace, status = _load_workspace(args.files)
    if workspace is None:
        return status
    env = workspace.model.environment
    try:
        edit = impact.parse_edit(args.edit, workspace.model)
    except dsl.DslError as errs:
        for diag in errs.diagnostics:
            _err(f"--edit: {diag}")
        return INVALID
    buffers = _names_flag(args.buffers)
    permitted = _names_flag(args.permitted) if args.permitted else None
    try:
        report = impact.propagate(env, edit, buffers)
    except impact.ImpactError as err:
        _err(str(err))
        return INVALID
    doc = export.impact_doc(report, env)
    if args.format == "structured":
        print(export.to_json(doc), end="")
    else:
        print(f"edit: {report.edit}")
        print("structural: " + (", ".join(sorted(report.structural)) or "-"))
        print("behavioural: " + (", ".join(sorted(report.behavioural)) or "-"))
        print("buffers: " + (", ".join(sorted(report.buffers)) or "-"))
        if report.paths:
            print("paths:")
            for path in report.paths:
                print("  " + impact.path_text(path))
    if permitted is None:
        return OK
    bound = impact.bound_check(env, edit, permitted, buffers)
    if bound.passed:
        print("bound: pass")
        return OK
    print("bound: fail")
    for name, path in bound.violations:
        print(f"  {name}: {impact.path_text(path)}")
    return INCOMPLETE


# --- lint -------------------------------------------------------------------------

def cmd_lint(args) -> int:
    workspace, status = _load_workspace(args.files)
    if workspace is None:
        return status
    worst = OK
    found = False
    for path, parsed in workspace.files:
        for script in parsed.derivations:
            if args.derivation and script.name != args.derivation:
                continue
            found = True
            root, failure = _build_derivation(workspace, script, path)
            if failure:
                _err(failure)
                return INVALID
            findings = calculus.lint(root)
            for diag in findings:
                print(f"{path}: derivation {script.name}: {diag}")
            if findings:
                worst = max(worst, INCOMPLETE)
    if not found:
        _err("no matching derivation found")
        return USAGE
    if worst == OK:
        print("lint: clean")
    return worst


# --- workflow ----------------------------------------------------------------------

def _load_log(path: str) -> list[macro.Event]:
    if not Path(path).exists():
        return []
    return macro.parse_log(Path(path).read_text(encoding="utf-8"))


def _append_events(path: str, events: list[macro.Event]):
    import fcntl

    with open(path, "a", encoding="utf-8") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            for event in events:
                handle.write(event.to_line() + "\n")
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def _workflow_problem_refs(args) -> macro.ProblemRefs:
    if args.model and args.problem:
        workspace, status = _load_workspace([args.model])
        if workspace is None:
            raise ValueError("cannot parse the model file")
        if args.problem not in workspace.problems:
            raise ValueError(f"no problem named {args.problem!r} in {args.model}")
        problem = workspace.problems[args.problem]
        return macro.problem_refs(problem, printer.problem_str(problem))
    return macro.ProblemRefs(args.problem or "", frozenset(), frozenset(), frozenset())


def _print_status(events: list[macro.Event]) -> None:
    workflows = macro.fold(events)
    if not workflows:
        print("no workflows")
        return
    for wf in workflows.values():
        print(f"workflow {wf.id}: {wf.state.value}  (owner {wf.owner}, delegate {wf.delegate})")
        for record in wf.validations:
            print(
                f"  validation {record.id}: {record.target.value} "
                f"{record.status.value} (by {record.stakeholder}, seq {record.sequence})"
            )
        if wf.solution_text:
            print(f"  solution: {wf.solution_text}")
        if wf.implementation_mode:
            print(f"  implementation: {wf.implementation_mode}")
        for child in wf.children:
            print(f"  child: {child}")


def cmd_workflow(args) -> int:
    log_path = args.log
    try:
        events = _load_log(log_path)
    except macro.BadLog as err:
        _err(f"{log_path}: {err}")
        return INVALID
    except UnicodeDecodeError as err:
        _err(_not_utf8(log_path, err))
        return INVALID

    if args.subcommand == "status":
        try:
            _print_status(events)
        except macro.MacroError as err:
            _err(f"{log_path}: {err}")
            return INVALID
        return OK

    try:
        if args.subcommand == "advance":
            new_events = []
            if not events and args.owner and args.delegate:
                refs = _workflow_problem_refs(args)
                new_events.append(
                    macro.create_workflow(events, args.workflow, args.owner, args.delegate, refs)
                )
            payload = {}
            if args.event == "record-validation":
                payload = {"by": args.by, "status": args.status}
            elif args.event == "begin-implementation":
                payload = {"mode": args.mode}
            elif args.event == "submit-solution":
                payload = {"solution": args.solution or "", "refs": sorted(_names_flag(args.refs))}
            event, wf = macro.advance(events + new_events, args.workflow, args.event, payload)
            new_events.append(event)
            _append_events(log_path, new_events)
            print(f"workflow {wf.id}: {wf.state.value}")
            return OK
        if args.subcommand == "delegate":
            refs = _workflow_problem_refs(args)
            stakeholders = dsl.EMPTY_MODEL
            if args.model:
                workspace, status = _load_workspace([args.model])
                if workspace is None:
                    return status
                stakeholders = workspace.model
            event, child = macro.delegate(
                events, args.workflow, args.to, args.child, refs, stakeholders
            )
            _append_events(log_path, [event])
            print(f"workflow {child.id}: {child.state.value} (owner {child.owner}, delegate {child.delegate})")
            return OK
        if args.subcommand == "drift":
            touched = _names_flag(args.touch)
            event, report = macro.drift(events, touched, args.description, args.origin)
            _append_events(log_path, [event])
            if report.empty:
                print("drift: nothing invalidated")
            else:
                for workflow_id, record_id, target in report.stale:
                    print(f"stale: {workflow_id} {record_id} ({target})")
                for workflow_id, before, after in report.regressions:
                    print(f"regressed: {workflow_id} {before} -> {after}")
            return OK
    except macro.IllegalTransition as err:
        _err(f"{log_path}: {err}")
        return INCOMPLETE
    except (macro.MacroError, ValueError) as err:
        _err(f"{log_path}: {err}")
        return INVALID
    _err(f"unknown workflow subcommand {args.subcommand!r}")
    return USAGE


# --- export -----------------------------------------------------------------------

def cmd_export(args) -> int:
    source = Path(args.input)
    if not source.is_file():
        _err(f"{args.input}: no such file")
        return USAGE
    if source.suffix == ".json":
        try:
            doc = json.loads(source.read_text(encoding="utf-8"))
        except UnicodeDecodeError as err:
            _err(_not_utf8(args.input, err))
            return INVALID
        except json.JSONDecodeError as err:
            _err(f"{args.input}: {err}")
            return INVALID
        text = export.impact_dot(doc, source.stem)
    else:
        workspace, status = _load_workspace([args.input])
        if workspace is None:
            return status
        _, parsed = workspace.files[0]
        if parsed.derivations:
            name = args.derivation or parsed.derivations[0].name
            path, script = _pick_derivation(workspace, name)
            if script is None:
                _err(f"no derivation named {name!r}")
                return USAGE
            root, failure = _build_derivation(workspace, script, path)
            if failure:
                _err(failure)
                return INVALID
            text = export.derivation_dot(root, script.name)
        else:
            text = export.model_dot(workspace.model, source.stem)
    try:
        Path(args.graph).write_text(text, encoding="utf-8")
    except OSError as err:
        _err(f"{args.graph}: {err}")
        return USAGE
    print(f"wrote {args.graph}")
    return OK


# --- entry point --------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltapoe",
        description="check models, problems and derivations; extract plans; "
        "analyse change impact; manage delegation workflow logs; export graphs",
    )
    parser.add_argument("--config", help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse files and replay derivations")
    p_check.add_argument("files", nargs="+")

    p_plan = sub.add_parser("plan", help="extract the implementation plan of a solved derivation")
    p_plan.add_argument("files", nargs="+")
    p_plan.add_argument("--derivation")
    p_plan.add_argument("--format", choices=("text", "structured"), default="text")

    p_imp = sub.add_parser("impact", help="propagate a change edit over the model")
    p_imp.add_argument("files", nargs="+")
    p_imp.add_argument("--edit", required=True, help="'!X', '+X', 'X ~> d[A](B)' or 'X causes y -> c'")
    p_imp.add_argument("--permitted", action="append", help="domains permitted to change")
    p_imp.add_argument("--buffers", action="append", help="declared change buffers")
    p_imp.add_argument("--format", choices=("text", "structured"), default="text")

    p_lint = sub.add_parser("lint", help="check justification profiles and plan fragments")
    p_lint.add_argument("files", nargs="+")
    p_lint.add_argument("--derivation")

    p_wf = sub.add_parser("workflow", help="inspect or append to a workflow log")
    p_wf.add_argument("log")
    wf_sub = p_wf.add_subparsers(dest="subcommand", required=True)
    w_status = wf_sub.add_parser("status")
    w_adv = wf_sub.add_parser("advance")
    w_adv.add_argument("--workflow", default="root")
    w_adv.add_argument(
        "--event",
        required=True,
        choices=(
            "submit-view",
            "request-validation",
            "record-validation",
            "submit-solution",
            "begin-implementation",
            "complete",
        ),
    )
    w_adv.add_argument("--by")
    w_adv.add_argument("--status", choices=("granted", "rejected"))
    w_adv.add_argument("--mode", choices=("self", "delegate"))
    w_adv.add_argument("--solution")
    w_adv.add_argument("--refs", action="append")
    w_adv.add_argument("--owner")
    w_adv.add_argument("--delegate")
    w_adv.add_argument("--model")
    w_adv.add_argument("--problem")
    w_del = wf_sub.add_parser("delegate")
    w_del.add_argument("--workflow", default="root")
    w_del.add_argument("--to", required=True)
    w_del.add_argument("--child", required=True)
    w_del.add_argument("--model")
    w_del.add_argument("--problem")
    w_drift = wf_sub.add_parser("drift")
    w_drift.add_argument("--touch", action="append", required=True)
    w_drift.add_argument("--description", default="")
    w_drift.add_argument("--origin", choices=("environment", "need"), default="environment")

    p_exp = sub.add_parser("export", help="write a graph description")
    p_exp.add_argument("input")
    p_exp.add_argument("--graph", required=True)
    p_exp.add_argument("--derivation")
    return parser


COMMANDS = {
    "check": cmd_check,
    "plan": cmd_plan,
    "impact": cmd_impact,
    "lint": cmd_lint,
    "workflow": cmd_workflow,
    "export": cmd_export,
}


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return USAGE if exit_.code not in (0, None) else 0
    try:
        defaults = _read_config(args.config)
    except (OSError, ValueError) as err:
        _err(f"--config: {err}")
        return USAGE
    for key, value in defaults.items():
        if hasattr(args, key) and getattr(args, key) in (None, "text"):
            setattr(args, key, value)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
