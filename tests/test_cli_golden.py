"""Byte identity of the command line: stdout, stderr, exit code and the
files each case writes, compared with ``tests/golden_cli.json``.

The cases are every fixture and every mutation through ``check``,
``lint``, ``plan`` (text and structured) and ``export --graph``; the
README's ``impact`` and ``workflow`` examples; and a colored ``check``.
Each case runs in a fresh directory that links ``fixtures`` in, so that
every path the commands print is relative.  A change that alters any
byte of this output must regenerate the data on purpose, from the
repository root::

    PYTHONPATH=src python -m tests.test_cli_golden
"""

import json
import os
import tempfile
from pathlib import Path

import pytest

from deltapoe import cli

from .conftest import FIXTURES

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

_POED = sorted(p.relative_to(FIXTURES.parent).as_posix() for p in FIXTURES.glob("*.poed"))
_MUTATIONS = sorted(
    p.relative_to(FIXTURES.parent).as_posix() for p in (FIXTURES / "mutations").glob("*.poed")
)


def _cases() -> dict[str, tuple[dict, list[list[str]]]]:
    """Case name -> (environment, commands run in order in one directory)."""
    cases = {}
    for path in _POED + _MUTATIONS:
        cases[path] = ({}, [
            ["check", path],
            ["lint", path],
            ["plan", path],
            ["plan", path, "--format", "structured"],
            ["export", path, "--graph", "out.dot"],
        ])
    cases["readme-impact"] = ({}, [
        ["impact", "fixtures/chain.poed", "--edit", "C causes y -> c", "--permitted", "C"],
        ["impact", "fixtures/chain.poed", "--edit", "!C", "--format", "structured"],
        ["export", "report.json", "--graph", "impact.dot"],
    ])
    cases["readme-workflow"] = ({}, [
        ["workflow", "log.jsonl", "advance", "--workflow", "root", "--event", "submit-view",
         "--owner", "G", "--delegate", "D", "--model", "fixtures/devenv.poed",
         "--problem", "upgrade"],
        ["workflow", "log.jsonl", "advance", "--event", "request-validation"],
        ["workflow", "log.jsonl", "advance", "--event", "record-validation", "--by", "G",
         "--status", "granted"],
        ["workflow", "log.jsonl", "drift", "--touch", "OldAPI", "--description",
         "upstream moved"],
        ["workflow", "log.jsonl", "status"],
    ])
    cases["color-check"] = ({"DELTAPOE_COLOR": "always"}, [
        ["check", "fixtures/api_upgrade.poed"],
    ])
    return cases


def _run_case(env: dict, commands: list[list[str]], capsys) -> dict:
    """Run one case in a fresh directory.  The structured ``impact``
    output is saved as ``report.json`` for the ``export`` after it."""
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.symlink(FIXTURES, Path(work) / "fixtures")
        os.chdir(work)
        saved = {key: os.environ.get(key) for key in env}
        os.environ.update(env)
        try:
            steps = []
            for argv in commands:
                code = cli.main(list(argv))
                out, err = capsys.readouterr()
                if argv[0] == "impact" and "structured" in argv:
                    Path("report.json").write_text(out, encoding="utf-8")
                steps.append({"argv": argv, "code": code, "stdout": out, "stderr": err})
            files = {
                p.name: p.read_text(encoding="utf-8")
                for p in sorted(Path(".").iterdir())
                if p.is_file()
            }
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            os.chdir(previous)
    return {"steps": steps, "files": files}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(_cases()))
def test_cli_output_is_byte_identical(name, capsys):
    env, commands = _cases()[name]
    assert _run_case(env, commands, capsys) == _golden()[name]


def test_golden_data_covers_exactly_the_cases():
    assert sorted(_golden()) == sorted(_cases())


class _Capture:
    """``capsys`` for running this module as a script."""

    def __init__(self):
        import io
        import sys

        self._sys = sys
        self._out, self._err = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()

    def readouterr(self):
        out, err = self._sys.stdout.getvalue(), self._sys.stderr.getvalue()
        self._sys.stdout.seek(0), self._sys.stdout.truncate()
        self._sys.stderr.seek(0), self._sys.stderr.truncate()
        return out, err

    def close(self):
        self._sys.stdout, self._sys.stderr = self._out, self._err


if __name__ == "__main__":
    capture = _Capture()
    try:
        data = {name: _run_case(env, cmds, capture) for name, (env, cmds) in _cases().items()}
    finally:
        capture.close()
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(Path.cwd())}")
