"""The library surface is declared, and the package holds nothing beyond it.

README.md's "Library" section lists the calls a caller may make, as
backticked ``module.name`` entries.  Every other public top-level name of
``src/deltapoe`` must be read somewhere in ``src/``: a function, class or
constant that only tests call is deleted, or moved to ``tests/oracles.py``.
A name counts as read where its own module reads it outside its own
definition, where a module imports it by name, where a module reads it as
an attribute of the module it imported, and, for the ``cmd_<name>``
functions, where ``cli.COMMANDS`` dispatches ``name`` to it by an f-string.
"""

import ast
import re
from pathlib import Path

from deltapoe import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "deltapoe"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def library() -> set[tuple[str, str]]:
    """The ``(module, name)`` entries of README's "Library" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(\w+)\.(\w+)`", section))


def top_level(body):
    """A module's statements, those under a top-level ``if`` or ``try`` included."""
    for stmt in body:
        if isinstance(stmt, (ast.If, ast.Try)):
            yield from top_level(stmt.body + stmt.orelse)
        else:
            yield stmt


def bound(stmt) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def public() -> set[tuple[str, str]]:
    return {(module, name) for module, tree in MODULES.items()
            for stmt in top_level(tree.body) for name in bound(stmt) if not name.startswith("_")}


def read_in_src() -> set[tuple[str, str]]:
    """The ``(module, name)`` pairs that the code of ``src/`` reads."""
    found = set()
    for module, tree in MODULES.items():
        imported = {}  # a name bound to a module of the package -> that module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "deltapoe"):
                source = node.module if node.level else node.module.partition(".")[2]
                for alias in node.names:
                    if source:
                        found.add((source, alias.name))
                    else:
                        imported[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported:
                found.add((imported[node.value.id], node.attr))
        for stmt in top_level(tree.body):
            own = bound(stmt)
            found.update((module, node.id) for node in ast.walk(stmt)
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own)
    for command in cli.COMMANDS:
        found.update((module, name) for module, name in public() if name == f"cmd_{command}")
    return found


def test_each_library_entry_is_a_public_name_of_its_module():
    listed = library()
    assert len(listed) >= 20
    assert sorted(listed - public()) == []


def test_each_command_is_one_function_of_a_command_module():
    for command in cli.COMMANDS:
        modules = [module for module, name in public() if name == f"cmd_{command}"]
        assert len(modules) == 1 and modules[0].startswith("cmd_"), (command, modules)


def test_every_public_name_is_library_or_read_in_src():
    """A public name that is neither listed nor read has no caller but
    the tests."""
    unused = public() - library() - read_in_src()
    assert sorted(f"{module}.{name}" for module, name in unused) == []
