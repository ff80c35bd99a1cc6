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

This module is the entry point alone.  The commands live in a module
per family (``cmd_derivation`` for check, plan, lint and export,
``cmd_impact`` and ``cmd_workflow``), imported when the command runs, so
a process compiles no other family's code; and each command imports only
the modules it uses: ``impact`` and ``workflow`` never load the calculus,
and ``workflow`` loads the ``.poed`` front end only for ``--model``.
"""

from __future__ import annotations

import argparse
import codecs
import errno
import gc
import io
import os
import sys
from importlib import import_module
from pathlib import Path

from .cmd_common import BROKEN_PIPE, INTERNAL, IO_ERROR, USAGE, _err


def _read_config(path: str | None) -> dict:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines() if path else ():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line is not key=value: {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


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
    w_adv.add_argument("--event", required=True, choices=(
        "submit-view", "request-validation", "record-validation",
        "submit-solution", "begin-implementation", "complete"))
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


def _command(module: str, name: str):
    """The command ``name`` of the command module ``module``, imported when
    it first runs, so that a process compiles no other command's code."""
    def command(args) -> int:
        return getattr(import_module(f"{__package__}.{module}"), name)(args)

    return command


COMMANDS = {name: _command(f"cmd_{family}", f"cmd_{name}") for name, family in (
    ("check", "derivation"), ("plan", "derivation"), ("impact", "impact"),
    ("lint", "derivation"), ("workflow", "workflow"), ("export", "derivation"))}


def main(argv=None) -> int:
    # One process runs one command, and what the command builds (tokens, model,
    # a log's text and workflows) holds no reference cycles: reference counting
    # frees it, or it lives until the command ends. So cyclic collections during
    # the command free nothing and only cost time. The few cycles a command does
    # leave (argparse's parsers; no tree walker recurses through a closure cell)
    # are freed when the caller's collector runs again. Pause the collector for the
    # command and restore the caller's state after it, whatever the exit.
    was_enabled = gc.isenabled()
    gc.disable()
    # stdout and stderr write UTF-8, as every input is read, whatever the locale
    recoded = []
    for out in (sys.stdout, sys.stderr):
        encoding, errors = getattr(out, "encoding", None), getattr(out, "errors", None)
        if encoding is not None and codecs.lookup(encoding).name != "utf-8":  # a StringIO has None
            out.reconfigure(encoding="utf-8", errors=errors)
            recoded.append((out, encoding, errors))
    try:
        status = _run(argv)
        sys.stdout.flush()  # so that an error writing stdout shows here, not at exit
        return status
    except Exception as err:  # last resort: a crash must not exit with a verdict code
        return _crashed(err)
    finally:
        for out, encoding, errors in recoded:
            out.reconfigure(encoding=encoding, errors=errors)
        if was_enabled:
            gc.enable()


def _crashed(err: Exception) -> int:
    """The exit code for an exception that no command handled.  A broken
    pipe means the reader has gone away (no command writes any other pipe),
    and the command ends quietly, as one that SIGPIPE stops; any other
    ``OSError`` is stdout's when stdout cannot be written now either, and is
    named on one line.  Anything else is an internal error."""
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
                args = parser.parse_args([*argv[:cut], *extra, *argv[cut:]])
            except SystemExit as exit_:
                return USAGE if exit_.code not in (0, None) else 0
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
