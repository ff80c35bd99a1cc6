"""The derivation commands: check, plan, lint and export."""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .cmd_common import (
    INCOMPLETE,
    INVALID,
    OK,
    USAGE,
    Workspace,
    _err,
    _load_workspace,
    _unreadable,
)

if TYPE_CHECKING:
    from . import dsl


def _verdict_word(word: str) -> str:
    if os.environ.get("DELTAPOE_COLOR", "") == "always":
        color = {"Solved": "32", "Incomplete": "33", "Invalid": "31"}.get(word, "0")
        return f"\x1b[{color}m{word}\x1b[0m"
    return word


def _build_derivation(workspace: Workspace, script: dsl.DerivationScript, path: str):
    from . import calculus, dsl

    try:
        return calculus.build(script, workspace.model, workspace.problems), None
    except calculus.RuleError as err:
        where = dsl.path_str(err.path)
        kind = err.cause_kind or err.kind
        return None, f"{path}: derivation {script.name}: {where}: {kind}: {err}"


# --- check ------------------------------------------------------------------------

def cmd_check(args) -> int:
    from . import calculus, dsl, printer

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
    """The file and script of the first derivation named ``name``, or of
    the first one if ``name`` is None; ``(None, None)`` if there is none."""
    return next(((path, script) for path, parsed in workspace.files for script in parsed.derivations
                 if name is None or script.name == name), (None, None))


def cmd_plan(args) -> int:
    from . import calculus, printer

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
        from . import export

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
        export.to_json(doc, sys.stdout)
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


# --- lint -------------------------------------------------------------------------

def cmd_lint(args) -> int:
    from . import calculus

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


# --- export -----------------------------------------------------------------------

def cmd_export(args) -> int:
    import json

    from . import export

    source = Path(args.input)
    if not source.is_file():
        _err(f"{args.input}: no such file")
        return USAGE
    if source.suffix == ".json":
        try:
            doc = json.loads(source.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as err:
            return _unreadable(args.input, err)
        except json.JSONDecodeError as err:
            _err(f"{args.input}: {err}")
            return INVALID
        except RecursionError:  # the decoder recurses once per nesting level
            _err(f"{args.input}: JSON nested too deeply")
            return INVALID
        try:
            text = export.impact_dot(doc, source.stem)
        except ValueError as err:
            _err(f"{args.input}: {err}")
            return INVALID
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
