"""Structured documents and graph-description exports.

Documents are JSON with a stable field layout, which :func:`to_json`
writes in a few large writes; :func:`impact_doc` makes the impact
report's.  Graphs are DOT text, one node per derivation step or per
domain.  Both are deterministic: equal inputs yield byte-identical
output.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from itertools import chain
from typing import TYPE_CHECKING, TextIO

from . import model as m
from .artifacts import PlanStep
from .cmd_common import _write_lines
from .dsl import Model
from .printer import change_str, problem_str

if TYPE_CHECKING:  # names for annotations; each module is imported in the function that calls it
    from .calculus import DerivationNode
    from .impact import BoundReport, ImpactReport


def _step_doc(step: PlanStep) -> dict:
    out = {
        "id": step.id,
        "action": step.action,
        "installs": change_str(step.installs),
    }
    if step.after:
        out["after"] = list(step.after)
    if step.parallel_ok:
        out["parallel_ok"] = list(step.parallel_ok)
    if step.deadline:
        out["deadline"] = {"kind": step.deadline.kind, "value": step.deadline.value}
    return out


_json_str = json.encoder.encode_basestring_ascii
_json_scalar = json.JSONEncoder().encode


class Rows:
    """A list member of a document that is made anew, by calling ``make``,
    each time it is read.  ``to_json`` writes its items as they are made,
    so no list of them is ever held.  Given ``encode``, ``to_json`` writes
    the texts ``encode(pad)`` makes instead: each the JSON text of one
    item, as ``to_json`` would write it on a line indented by ``pad``."""

    __slots__ = ("make", "encode")

    def __init__(self, make: Callable[[], Iterable],
                 encode: Callable[[str], Iterable[str]] | None = None):
        self.make = make
        self.encode = encode

    def __iter__(self) -> Iterator:
        return iter(self.make())


def to_json(doc, out: TextIO) -> None:
    """Write ``doc`` to ``out`` as the text of ``json.dumps(doc, indent=2)``
    with a final newline, a ``Rows`` member written as the list of its
    items.

    The text is made one container opening, member or list of strings at
    a time, and written through ``cmd_common._write_lines``, so the whole
    text is never held at once and an unbuffered ``out`` makes a few
    system calls, not one per fragment.  A ``Rows`` member is written an
    item at a time as it is made, or as its ``encode`` renders it.  A list
    or tuple of strings is made as one join of the stdlib's ASCII string
    escaper (in C where the interpreter has it); other scalars go to the
    stdlib encoder.  The writer recurses once per nesting level of
    ``doc``, as ``json.dumps`` does.  A key that is not a string raises
    ``TypeError``, as does a value the stdlib cannot encode; a container
    that holds itself raises ``RecursionError``.
    """
    _write_lines(chain(_json_texts(doc, "\n"), ["\n"]), out)


def _json_texts(value, pad: str) -> Iterator[str]:
    """The text of one value, in fragments; ``pad`` is the newline and
    indent of its line."""
    if isinstance(value, str):
        yield _json_str(value)
    elif isinstance(value, (list, tuple)):
        inner = pad + "  "
        try:
            text = ("," + inner).join(map(_json_str, value))
        except TypeError:  # not all strings
            yield from _item_texts(value, pad)
        else:
            yield "[" + inner + text + pad + "]" if value else "[]"
    elif isinstance(value, Rows):
        if value.encode is None:
            yield from _item_texts(value, pad)
        else:
            yield from _item_texts(value.encode(pad + "  "), pad, encoded=True)
    elif isinstance(value, dict):
        inner = pad + "  "
        sep = "{" + inner
        for key, item in value.items():
            yield sep + _json_str(key) + ": "  # TypeError if key is not a str
            yield from _json_texts(item, inner)
            sep = "," + inner
        yield pad + "}" if value else "{}"
    else:
        yield _json_scalar(value)


def _item_texts(items: Iterable, pad: str, encoded: bool = False) -> Iterator[str]:
    """The text of a list, one item at a time; ``encoded`` items are their
    JSON text already, and are given as they are."""
    inner = pad + "  "
    sep = "[" + inner
    for item in items:
        yield sep
        if encoded:
            yield item
        else:
            yield from _json_texts(item, inner)
        sep = "," + inner
    yield pad + "]" if sep[0] == "," else "[]"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def derivation_dot(root: DerivationNode, name: str = "derivation") -> str:
    """Graph description of a derivation tree, one node per step.  A
    node's edge to its parent follows the last line of its subtree."""
    from .calculus import preorder

    lines = [f'digraph "{_dot_escape(name)}" {{', "  rankdir=BT;", "  node [shape=box];"]
    branch: list[tuple[str, str]] = []  # ident and edge of each node down to the last one
    for node, path, _ in preorder(root):
        while len(branch) > len(path):
            lines.append(branch.pop()[1])
        if not path:
            ident, edge = "n_root", ""
        else:
            parent, seg = branch[-1][0], path[-1]
            stem = parent if len(path) > 1 else "n"
            if isinstance(seg, int):
                ident = f"{stem}_{seg}"
                edge = f"  {ident} -> {parent};"
            else:
                ident = f"{stem}_a{seg[1]}"
                edge = f'  {ident} -> {parent} [style=dotted, label="alt"];'
        rule = node.rule or ("discharged" if node.discharged else "open")
        label = f"{getattr(rule, 'value', rule)}\\n{_dot_escape(problem_str(node.conclusion))}"
        attrs = f'label="{label}"'
        if node.greenfield:
            attrs += ', style=filled, fillcolor="lightyellow"'
        elif node.rule is None:
            attrs += ', style=dashed'
        lines.append(f"  {ident} [{attrs}];")
        branch.append((ident, edge))
    lines.extend(edge for _, edge in reversed(branch[1:]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def model_dot(mdl: Model, name: str = "model") -> str:
    """Domains as nodes; an edge from controller to observer for every
    shared phenomenon, plus each domain's own causal links."""
    lines = [f'digraph "{_dot_escape(name)}" {{', "  node [shape=box];"]
    env = mdl.environment
    observers: dict[str, list[str]] = {}  # phenomenon -> observers, in env order
    for dom in env:
        lines.append(f'  "{_dot_escape(dom.name)}";')
        for phen in dom.observed:
            observers.setdefault(phen, []).append(dom.name)
    for dom in env:
        for phen in sorted(dom.controlled):
            for other in observers.get(phen, ()):
                if other != dom.name:
                    lines.append(
                        f'  "{_dot_escape(dom.name)}" -> "{_dot_escape(other)}"'
                        f' [label="{_dot_escape(phen)}"];'
                    )
        for link in sorted(dom.links, key=m.LINK_ORDER):
            lines.append(
                f'  "{_dot_escape(dom.name)}" -> "{_dot_escape(dom.name)}"'
                f' [label="{_dot_escape(link.cause)} -> {_dot_escape(link.effect)}", style=dashed];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def impact_doc(report: ImpactReport, env: m.Environment, bound: BoundReport | None = None) -> dict:
    """The structured impact report; with ``bound``, its bound check last.

    The paths and the violations are ``Rows``, walked from the reports
    each time they are read, so ``to_json`` writes them without holding
    them.  Read, their paths are tuples of names; ``to_json`` has each path
    rendered as JSON text by the walk, from its cause's text, so that each
    name is escaped once, where it enters a path.  ``impact_dot`` reads
    the document as it is; ``json.dumps`` encodes it given
    ``default=list``."""
    from .impact import joined

    def path_texts(pad: str) -> Iterator[str]:
        inner = pad + "  "
        for _, text in report.walk(joined("," + inner, _json_str)):
            yield f"[{inner}{text}{pad}]"

    doc = {
        "edit": report.edit,
        "structural": sorted(report.structural),
        "behavioural": sorted(report.behavioural),
        "buffers": sorted(report.buffers),
        "declared_buffers": sorted(report.declared_buffers),
        "seed_phenomena": sorted(report.seed_phenomena),
        "paths": Rows(lambda: (path for _, path in report.walk()), path_texts),
        "domains": list(env.names()),
    }
    if bound is not None:

        def violation_texts(pad: str) -> Iterator[str]:
            inner = pad + "  "
            names = inner + "  "
            for name, text in bound.walk(joined("," + names, _json_str)):
                yield (f'{{{inner}"domain": {_json_str(name)},{inner}"path": '
                       f'[{names}{text}{inner}]{pad}}}')

        doc["bound"] = {
            "passed": bound.passed,
            "violations": Rows(lambda: ({"domain": name, "path": path} for name, path in bound.walk()),
                               violation_texts),
        }
    return doc


def _is_names(value) -> bool:
    return type(value) is list and all(type(item) is str for item in value)


def impact_dot(doc: dict, name: str = "impact") -> str:
    """Domains colored by impact class; path hops as edges, buffers marked.

    ``doc`` is what ``impact_doc`` returns or what ``json.load`` reads back
    from ``to_json``'s text.  Raises ValueError if a field it reads is not
    as ``impact_doc`` writes it."""
    if type(doc) is not dict:
        raise ValueError("not an impact report: not a JSON object")
    for key in ("structural", "behavioural", "buffers", "domains"):
        if not _is_names(doc.get(key, [])):
            raise ValueError(f"not an impact report: {key!r} is not a list of names")
    paths = doc.get("paths", [])
    if type(paths) is Rows:  # as impact_doc made it: tuples of names
        paths = [list(path) for path in paths]
    if type(paths) is not list or not all(map(_is_names, paths)):
        raise ValueError("not an impact report: 'paths' is not a list of paths")
    structural = set(doc.get("structural", ()))
    behavioural = set(doc.get("behavioural", ()))
    buffers = set(doc.get("buffers", ()))
    lines = [f'digraph "{_dot_escape(name)}" {{', "  node [shape=box, style=filled];"]
    for dom in doc.get("domains", ()):
        if dom in buffers:
            color, extra = "lightblue", ', peripheries=2'
        elif dom in structural:
            color, extra = "lightcoral", ""
        elif dom in behavioural:
            color, extra = "khaki", ""
        else:
            color, extra = "white", ""
        lines.append(f'  "{_dot_escape(dom)}" [fillcolor="{color}"{extra}];')
    seed = sorted(structural)[0] if structural else None
    seen = set()
    for hops in paths:
        # a path alternates phenomena and the domains they reach:
        # p0, D1, p1, D2, ..., Dk; the seed phenomenon leaves the edit's domain
        previous = seed
        for i in range(0, len(hops) - 1, 2):
            phen, dom = hops[i], hops[i + 1]
            if previous is not None:
                key = (previous, dom, phen)
                if key not in seen:
                    seen.add(key)
                    lines.append(
                        f'  "{_dot_escape(previous)}" -> "{_dot_escape(dom)}"'
                        f' [label="{_dot_escape(phen)}"];'
                    )
            previous = dom
    lines.append("}")
    return "\n".join(lines) + "\n"
