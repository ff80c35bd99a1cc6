"""The workflow command: inspect or append to a workflow log."""

from __future__ import annotations

import os
from pathlib import Path

from . import macro
from .cmd_common import (
    INCOMPLETE,
    INVALID,
    OK,
    USAGE,
    Workspace,
    _err,
    _load_workspace,
    _names_flag,
    _unreadable,
    _write_lines,
)


def _append_events(handle, events: list[macro.Event]):
    handle.write(macro.render_log(events))
    handle.flush()
    os.fsync(handle.fileno())


def _workflow_problem_refs(args, workspace: Workspace | None) -> macro.ProblemRefs:
    """The names ``--problem`` mentions, from ``workspace``, the loaded
    ``--model``; without a model, the problem's name alone."""
    if args.model and args.problem:
        from . import printer

        if args.problem not in workspace.problems:
            raise ValueError(f"no problem named {args.problem!r} in {args.model}")
        problem = workspace.problems[args.problem]
        return macro.problem_refs(problem, printer.problem_str(problem))
    return macro.ProblemRefs(args.problem or "", frozenset(), frozenset(), frozenset())


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

    if getattr(args, "model", None):
        # loaded before the fold fills the heap, so reading the model after it adds less
        from . import dsl  # noqa: F401
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
        except macro.MacroError as err:
            _err(f"{args.log}: {err}")
            return INVALID
        except OSError as err:
            return _unreadable(args.log, err)
        try:
            return _run_workflow(args, log, handle)
        finally:
            if created and not os.fstat(handle.fileno()).st_size:
                os.unlink(args.log)


def _read_log(handle, appending: bool) -> macro.Folded:
    """The state of an open log, folded as its bytes are read from the
    file in blocks and decoded a line at a time, so that the command holds
    the folded state and one block, or one line if a line is longer, on
    every path.  Reading stops at the first fault in the text, which is
    raised: a line that holds a byte that is not UTF-8, a line that is not
    an event, or an event the fold refuses; then, when appending, a last
    line with no final newline (the append would run onto that line)."""
    log = macro.Log(handle.buffer)
    folded = macro.Folded(macro.fold(log), log.last)  # through the module, where a tracer may wrap it
    if appending and log.torn:
        raise macro.BadLog(f"line {log.lines}: no final newline; "
                           "the last write may be torn, so nothing is appended")
    return folded


def _run_workflow(args, log: macro.Folded, handle) -> int:
    log_path = args.log
    if args.subcommand == "status":
        _write_lines(_status_lines(log.workflows))
        return OK

    try:
        if args.subcommand == "advance":
            new_events = []
            if not log.last and args.owner and args.delegate:
                workspace, status = _load_workspace([args.model]) if args.model and args.problem else (None, OK)
                if status != OK:
                    return status
                refs = _workflow_problem_refs(args, workspace)
                new_events.append(macro.create_workflow(log, args.workflow, args.owner, args.delegate, refs))
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
            if status != OK:
                return status
            refs = _workflow_problem_refs(args, workspace)
            trusts = {s.name: s.trusts for s in workspace.model.stakeholders} if workspace else {}
            event, child = macro.delegate(log, args.workflow, args.to, args.child, refs, trusts)
            _append_events(handle, [event])
            print(f"workflow {child.id}: {child.state.value} (owner {child.owner}, delegate {child.delegate})")
            return OK
        # drift, the last of the four subcommands the parser takes
        touched = _names_flag(args.touch)
        event, report = macro.drift(log, touched, args.description, args.origin)
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
