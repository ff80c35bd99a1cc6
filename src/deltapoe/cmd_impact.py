"""The impact command: propagate a change edit over a model."""

from __future__ import annotations

import sys

from . import dsl, impact
from .cmd_common import INCOMPLETE, INVALID, OK, _err, _load_workspace, _names_flag, _write_lines


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
        if permitted is not None:
            impact.check_domains(env, permitted)
    except impact.ImpactError as err:
        _err(str(err))
        return INVALID
    bound = None if permitted is None else impact.bound_check(report, permitted)
    if args.format == "structured":
        from . import export

        export.to_json(export.impact_doc(report, env, bound), sys.stdout)
    else:
        _write_lines(_impact_lines(report, bound))
    return OK if bound is None or bound.passed else INCOMPLETE


_ARROWS = impact.joined(" -> ")  # a path as the text report prints it


def _impact_lines(report: impact.ImpactReport, bound: impact.BoundReport | None):
    yield f"edit: {report.edit}\n"
    yield "structural: " + (", ".join(sorted(report.structural)) or "-") + "\n"
    yield "behavioural: " + (", ".join(sorted(report.behavioural)) or "-") + "\n"
    yield "buffers: " + (", ".join(sorted(report.buffers)) or "-") + "\n"
    if report.hits:
        yield "paths:\n"
        for _, text in report.walk(_ARROWS):
            yield f"  {text}\n"
    if bound is not None:
        yield "bound: pass\n" if bound.passed else "bound: fail\n"
        for name, text in bound.walk(_ARROWS):
            yield f"  {name}: {text}\n"
