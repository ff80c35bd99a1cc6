"""Batch command-line front end.

Commands: check, plan, impact, lint, workflow, export.  Data goes to
standard output, diagnostics to standard error.  Exit codes: 0 for
success (solved, pass), 1 for incomplete or fail-with-report, 2 for
invalid input or parse errors, 3 for usage errors, and 70 for an internal
error: an unexpected exception, reported on one line as ``internal: ...``
so that no crash reads as a verdict.  Stdout that cannot be written is
not a fault of the program: a reader that has gone away ends the command
quietly with 141, and any other error writing stdout is named on one
line with 74.  No command mutates model or derivation files; only
workflow logs are appended.

Each command imports only the modules it uses, so that a process loads
no more than its command needs: ``impact`` and ``workflow`` never load
the calculus, and ``workflow`` loads the ``.poed`` front end (lexer,
parser, model, printer) only for ``--model``.
"""

from __future__ import annotations

import argparse
import errno
import gc
import io
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from . import dsl, impact, macro
    from . import model as m

OK, INCOMPLETE, INVALID, USAGE = 0, 1, 2, 3
INTERNAL = 70  # EX_SOFTWARE of sysexits.h; outside the verdict codes
IO_ERROR = 74  # EX_IOERR of sysexits.h
BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell shows a writer whose reader went away


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
        from . import dsl

        self.model = dsl.EMPTY_MODEL
        self.problems: dict[str, m.Problem] = {}
        self.files: list[tuple[str, dsl.ParsedFile]] = []

    def load(self, path: str):
        from . import dsl

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
    from . import dsl

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
    from . import calculus, export, printer

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


# --- impact -----------------------------------------------------------------------

def _names_flag(values) -> frozenset[str]:
    out = set()
    for chunk in values:
        out.update(part.strip() for part in chunk.split(",") if part.strip())
    return frozenset(out)


def cmd_impact(args) -> int:
    from . import dsl, export, impact

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
        if permitted is not None:
            impact.check_domains(env, permitted)
    except impact.ImpactError as err:
        _err(str(err))
        return INVALID
    bound = None if permitted is None else impact.bound_check(report, permitted)
    if args.format == "structured":
        export.to_json(export.impact_doc(report, env, bound), sys.stdout)
    else:
        _write_lines(_impact_lines(report, bound))
    return OK if bound is None or bound.passed else INCOMPLETE


def _impact_lines(report: impact.ImpactReport, bound: impact.BoundReport | None):
    from . import impact

    yield f"edit: {report.edit}\n"
    yield "structural: " + (", ".join(sorted(report.structural)) or "-") + "\n"
    yield "behavioural: " + (", ".join(sorted(report.behavioural)) or "-") + "\n"
    yield "buffers: " + (", ".join(sorted(report.buffers)) or "-") + "\n"
    if report.hits:
        yield "paths:\n"
        for _, path in report.walk():
            yield "  " + impact.path_text(path) + "\n"
    if bound is not None:
        yield "bound: pass\n" if bound.passed else "bound: fail\n"
        for name, path in bound.violations:
            yield f"  {name}: {impact.path_text(path)}\n"


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


# --- workflow ----------------------------------------------------------------------

def _append_events(handle, events: list[macro.Event]):
    from . import macro

    handle.write(macro.render_log(events))
    handle.flush()
    os.fsync(handle.fileno())


def _workflow_problem_refs(args, workspace: Workspace | None) -> macro.ProblemRefs:
    """The names ``--problem`` mentions, from ``workspace``, the loaded
    ``--model``; without a model, the problem's name alone."""
    from . import macro

    if args.model and args.problem:
        from . import printer

        if workspace is None:
            raise ValueError("cannot parse the model file")
        if args.problem not in workspace.problems:
            raise ValueError(f"no problem named {args.problem!r} in {args.model}")
        problem = workspace.problems[args.problem]
        return macro.problem_refs(problem, printer.problem_str(problem))
    return macro.ProblemRefs(args.problem or "", frozenset(), frozenset(), frozenset())


_CHUNK = 1 << 16  # characters per write of a long report


def _write_lines(lines) -> None:
    """Write ``lines``, each ending in a newline, to stdout in a few
    writes of at most ``_CHUNK`` characters each (a longer line is one
    write), so that unbuffered stdout makes a few system calls, not two
    per line as ``print`` would."""
    write, chunk, size = sys.stdout.write, [], 0
    for line in lines:
        if size + len(line) > _CHUNK and chunk:
            write("".join(chunk))
            chunk, size = [], 0
        chunk.append(line)
        size += len(line)
    write("".join(chunk))


def _status_lines(workflows: dict[str, macro.Workflow]):
    if not workflows:
        yield "no workflows\n"
    for wf in workflows.values():
        yield f"workflow {wf.id}: {wf.state.value}  (owner {wf.owner}, delegate {wf.delegate})\n"
        for record in wf.validations:
            yield (f"  validation {record.id}: {record.target.value} "
                   f"{record.status.value} (by {record.stakeholder}, seq {record.sequence})\n")
        if wf.solution_text:
            yield f"  solution: {wf.solution_text}\n"
        if wf.implementation_mode:
            yield f"  implementation: {wf.implementation_mode}\n"
        for child in wf.children:
            yield f"  child: {child}\n"


def cmd_workflow(args) -> int:
    """Run a workflow subcommand with the log locked from the read to the
    append: shared for ``status``, exclusive (creating the log) otherwise,
    so concurrent writers append one after another, each to the log the
    one before it left.  A call that creates the log and appends nothing
    removes it again, under the lock; a call that finds the log it opened
    removed that way opens the log again."""
    import fcntl

    from . import macro

    reading = args.subcommand == "status"
    while True:
        created = not Path(args.log).exists()
        if reading and created:
            return _run_workflow(args, macro.Folded({}, 0), None)
        try:
            handle = open(args.log, "r" if reading else "a+", encoding="utf-8")
        except OSError as err:
            _err(f"{args.log}: cannot open: {err.strerror}")
            return USAGE
        fcntl.flock(handle, fcntl.LOCK_SH if reading else fcntl.LOCK_EX)
        if os.fstat(handle.fileno()).st_nlink:
            break
        handle.close()
    with handle:
        handle.seek(0)
        try:
            log = _read_log(handle, appending=not reading)
        except macro.BadLog as err:
            _err(f"{args.log}: {err}")
            return INVALID
        except UnicodeDecodeError as err:
            _err(_not_utf8(args.log, err))
            return INVALID
        try:
            return _run_workflow(args, log, handle)
        finally:
            if created and not os.fstat(handle.fileno()).st_size:
                os.unlink(args.log)


def _read_log(handle, appending: bool) -> macro.Folded | macro.MacroError:
    """The state of an open log, folded as its bytes are read from the
    file and decoded one line at a time, so that the command holds the
    folded state and one line, on every path; or the error of the first
    event the fold refuses, which the command raises where it reads the
    state.  Errors are raised in the order of the text: a byte that is not
    UTF-8, then the first line that is not an event, then a last line with
    no final newline when appending (it would run onto that line)."""
    from . import macro

    log = macro.Log(handle.buffer)
    try:
        result = macro.Folded(macro.fold(log), log.last)  # through the module, where a tracer may wrap it
    except macro.MacroError as err:
        log.check()
        result = err
    if appending and log.torn:
        raise macro.BadLog(f"line {log.lines}: no final newline; "
                           "the last write may be torn, so nothing is appended")
    return result


def _state(log: macro.Folded | macro.MacroError) -> macro.Folded:
    """The state ``_read_log`` folded, or the error its fold raised."""
    if isinstance(log, Exception):
        raise log
    return log


def _run_workflow(args, log: macro.Folded | macro.MacroError, handle) -> int:
    from . import macro

    log_path = args.log
    if args.subcommand == "status":
        try:
            _write_lines(_status_lines(_state(log).workflows))
        except macro.MacroError as err:
            _err(f"{log_path}: {err}")
            return INVALID
        return OK

    try:
        if args.subcommand == "advance":
            log, new_events = _state(log), []
            if not log.last and args.owner and args.delegate:
                workspace = _load_workspace([args.model])[0] if args.model and args.problem else None
                refs = _workflow_problem_refs(args, workspace)
                created = macro.create_workflow(log, args.workflow, args.owner, args.delegate, refs)
                log, new_events = [created], [created]
            payload = {}
            if args.event == "record-validation":
                payload = {"by": args.by, "status": args.status}
            elif args.event == "begin-implementation":
                payload = {"mode": args.mode}
            elif args.event == "submit-solution":
                payload = {"solution": args.solution or "", "refs": sorted(_names_flag(args.refs))}
            event, wf = macro.advance(log, args.workflow, args.event, payload)
            new_events.append(event)
            _append_events(handle, new_events)
            print(f"workflow {wf.id}: {wf.state.value}")
            return OK
        if args.subcommand == "delegate":
            workspace, status = _load_workspace([args.model]) if args.model else (None, OK)
            refs = _workflow_problem_refs(args, workspace)
            if args.model and workspace is None:
                return status
            event, child = macro.delegate(
                _state(log), args.workflow, args.to, args.child, refs, workspace.model if workspace else {}
            )
            _append_events(handle, [event])
            print(f"workflow {child.id}: {child.state.value} (owner {child.owner}, delegate {child.delegate})")
            return OK
        if args.subcommand == "drift":
            touched = _names_flag(args.touch)
            event, report = macro.drift(_state(log), touched, args.description, args.origin)
            _append_events(handle, [event])
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
    from . import export

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
    p_imp.add_argument("--permitted", action="append", default=[], help="domains permitted to change")
    p_imp.add_argument("--buffers", action="append", default=[], help="declared change buffers")
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
    w_adv.add_argument("--refs", action="append", default=[])
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
    # One process runs one command, and what the command builds (tokens,
    # model, a log's text and workflows) holds no reference cycles: reference
    # counting frees it, or it lives until the command ends. So cyclic
    # collections during the command free nothing and only cost time. The few cycles a command does leave (argparse's parsers, the
    # cells of recursive tree walkers) are freed when the caller's collector
    # runs again. Pause the collector for the command and restore the
    # caller's state after it, whatever the exit.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        status = _run(argv)
        sys.stdout.flush()  # so that an error writing stdout shows here, not at exit
        return status
    except Exception as err:  # last resort: a crash must not exit with a verdict code
        return _crashed(err)
    finally:
        if was_enabled:
            gc.enable()


def _crashed(err: Exception) -> int:
    """The exit code for an exception that no command handled.  An error
    writing stdout is not a fault of the program: a broken pipe means the
    reader has gone away (no command writes any other pipe), and the
    command ends quietly, as one that SIGPIPE stops; any other ``OSError``
    is stdout's when stdout cannot be written now either, and is named on
    one line.  Anything else is an internal error."""
    if isinstance(err, OSError) and (err.errno == errno.EPIPE or _unwritable_stdout()):
        _silence_stdout()
        if err.errno == errno.EPIPE:
            return BROKEN_PIPE
        _err(f"stdout: cannot write: {err.strerror}")
        return IO_ERROR
    detail = " ".join(str(err).split())
    _err(f"internal: {type(err).__name__}" + (f": {detail}" if detail else ""))
    return INTERNAL


def _unwritable_stdout() -> bool:
    """Whether stdout's buffered text cannot be flushed, or its descriptor
    refuses an empty write, as a full device does."""
    try:
        sys.stdout.flush()
        fd = sys.stdout.fileno()
    except io.UnsupportedOperation:  # a stream with no descriptor, flushed
        return False
    except OSError:
        return True
    try:
        os.write(fd, b"")
    except OSError:
        return True
    return False


def _silence_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the flush at
    exit does not fail again."""
    try:
        fd = sys.stdout.fileno()
    except OSError:  # a stream with no descriptor of its own
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _actions(parser: argparse.ArgumentParser):
    """The actions of ``parser`` and of all its subcommands' parsers."""
    parsers = [parser]
    while parsers:
        for action in parsers.pop()._actions:
            yield action
            if isinstance(action.choices, dict):  # the parsers of subcommands
                parsers.extend(action.choices.values())


def _given_options(argv) -> set[str]:
    """The destinations that ``argv`` sets itself rather than by default."""
    parser = make_parser()
    for action in _actions(parser):
        action.default = argparse.SUPPRESS
    return set(vars(parser.parse_args(argv)))


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
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
    if defaults:
        # a key must name an option of some command, so that a misspelt one
        # is not dropped without a word; one config serves every command
        options = {action.dest for action in _actions(parser)
                   if action.option_strings and action.dest != "help"}
        for key in defaults:
            if key not in options:
                _err(f"--config: unknown option {key!r}")
                return USAGE
        # a value fills each option of the command that the command line
        # does not give, as one ``--key value`` would, choices and all
        given = _given_options(argv)
        extra = [f"--{key}={value}" for key, value in defaults.items()
                 if hasattr(args, key) and key not in given]
        if extra:
            cut = argv.index("--") if "--" in argv else len(argv)  # after it, all are files
            try:
                args = make_parser().parse_args([*argv[:cut], *extra, *argv[cut:]])
            except SystemExit as exit_:
                return USAGE if exit_.code not in (0, None) else 0
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
