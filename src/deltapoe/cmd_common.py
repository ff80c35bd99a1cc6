"""What the command modules share: exit codes, errors, workspace, flags and output."""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

if TYPE_CHECKING:
    from . import dsl
    from . import model as m

OK, INCOMPLETE, INVALID, USAGE = 0, 1, 2, 3
INTERNAL = 70  # EX_SOFTWARE of sysexits.h; outside the verdict codes
IO_ERROR = 74  # EX_IOERR of sysexits.h
BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell shows a writer whose reader went away


def _err(message: str):
    print(message, file=sys.stderr)


def _unreadable(path: str, err: OSError | UnicodeDecodeError) -> int:
    if isinstance(err, OSError):
        _err(f"{path}: cannot read: {err.strerror}")
        return USAGE
    _err(f"{path}: not valid UTF-8: byte 0x{err.object[err.start]:02x} at offset {err.start}")
    return INVALID


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
        except (OSError, UnicodeDecodeError) as err:
            return None, _unreadable(path, err)
    return workspace, OK


def _names_flag(values) -> frozenset[str]:
    out = set()
    for chunk in values:
        out.update(part.strip() for part in chunk.split(",") if part.strip())
    return frozenset(out)


_CHUNK = 1 << 16  # characters per write of a long report or document


def _write_lines(texts, out: TextIO | None = None) -> None:
    """Write ``texts`` to ``out`` (stdout if None) in writes of at most
    ``_CHUNK`` characters (a longer text is one write), so that an
    unbuffered ``out`` makes a few system calls, not one or more per text."""
    write, chunk, size = (sys.stdout if out is None else out).write, [], 0
    for text in texts:
        if size + len(text) > _CHUNK and chunk:
            write("".join(chunk))
            chunk, size = [], 0
        chunk.append(text)
        size += len(text)
    write("".join(chunk))
