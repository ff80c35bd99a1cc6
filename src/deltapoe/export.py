"""Structured documents and graph-description exports.

Documents are JSON with a stable field layout (conclusion, rule,
premises, evidence, plan, plus justification and validation details);
a derivation document renders each node's evidence as it is built, since
nodes store none.  Graphs are DOT text, one node per derivation step or
per domain.  Both are deterministic: equal inputs yield byte-identical
output.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from typing import TYPE_CHECKING, TextIO

from . import model as m
from .artifacts import JUSTIFICATION_FIELDS, Justification, PlanStep, ValidationRecord
from .dsl import Model
from .printer import change_str, problem_str

if TYPE_CHECKING:  # names for annotations; the calculus is imported in derivation_doc
    from .calculus import DerivationNode
    from .impact import BoundReport, ImpactReport


def _justification_doc(j: Justification) -> dict:
    out = {}
    for key, attr in JUSTIFICATION_FIELDS.items():
        if value := getattr(j, attr):
            out[key] = value
    if j.risk_register:
        out["risks"] = [
            {"risk": r.risk, "mitigation": r.mitigation} for r in j.risk_register
        ]
    return out


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


def _validation_doc(v: ValidationRecord) -> dict:
    return {
        "id": v.id,
        "stakeholder": v.stakeholder,
        "target": v.target.value,
        "subject": v.subject,
        "status": v.status.value,
        "sequence": v.sequence,
    }


def derivation_doc(node: DerivationNode) -> dict:
    """Structured-tree document for a derivation node."""
    from .calculus import evidence

    doc = {
        "conclusion": problem_str(node.conclusion),
        "rule": node.rule.value if node.rule else ("discharged" if node.discharged else "open"),
        "premises": [derivation_doc(p) for p in node.premises],
        "evidence": dict(sorted(evidence(node).items())),
        "plan": [_step_doc(s) for s in node.plan],
    }
    justification = _justification_doc(node.justification)
    if justification:
        doc["justification"] = justification
    if node.validations:
        doc["validations"] = [_validation_doc(v) for v in node.validations]
    if node.greenfield:
        doc["greenfield"] = True
    if node.marker:
        doc["marker"] = node.marker
    if node.alternatives:
        doc["alternatives"] = [derivation_doc(a) for a in node.alternatives]
    return doc


_json_str = json.encoder.encode_basestring_ascii
_json_scalar = json.JSONEncoder().encode


_CHUNK = 1 << 16  # characters per write of a document, as ``cli._write_lines`` writes a report


class Rows:
    """A list member of a document that is made anew, by calling ``make``,
    each time it is read.  ``to_json`` writes its items as they are made,
    so no list of them is ever held."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[], Iterable]):
        self.make = make

    def __iter__(self) -> Iterator:
        return iter(self.make())


def to_json(doc, out: TextIO) -> None:
    """Write ``doc`` to ``out`` as the text of ``json.dumps(doc, indent=2)``
    with a final newline, a ``Rows`` member written as the list of its
    items.

    The text is made one container opening, member or list of strings at
    a time, and written in writes of at most ``_CHUNK`` characters (a
    longer fragment is one write), so the whole text is never held at
    once and an unbuffered ``out`` makes a few system calls, not one per
    fragment.  A ``Rows`` member is written an item at a time as it is
    made.  A list or tuple of strings is made as one join of the stdlib's
    ASCII string escaper (in C where the interpreter has it); other
    scalars go to the stdlib encoder.  A key that is not a string raises
    ``TypeError``, as does a value the stdlib cannot encode; a container
    that holds itself raises ``RecursionError``.
    """
    chunk, size = [], 0

    def write(text: str) -> None:
        nonlocal chunk, size
        if size + len(text) > _CHUNK and chunk:
            out.write("".join(chunk))
            chunk, size = [], 0
        chunk.append(text)
        size += len(text)

    _write_json(doc, write, "\n")
    write("\n")
    out.write("".join(chunk))


def _write_json(value, write, pad: str) -> None:
    """Write one value; ``pad`` is the newline and indent of its line."""
    if isinstance(value, str):
        write(_json_str(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = pad + "  "
        try:
            text = ("," + inner).join(map(_json_str, value))
        except TypeError:  # not all strings
            _write_items(value, write, pad)
        else:
            write("[" + inner + text + pad + "]")
    elif isinstance(value, Rows):
        _write_items(value, write, pad)
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, item in value.items():
            write(sep + _json_str(key) + ": ")  # TypeError if key is not a str
            _write_json(item, write, inner)
            sep = "," + inner
        write(pad + "}")
    else:
        write(_json_scalar(value))


def _write_items(items: Iterable, write, pad: str) -> None:
    """Write a list, one item at a time."""
    inner = pad + "  "
    sep = "[" + inner
    for item in items:
        write(sep)
        _write_json(item, write, inner)
        sep = "," + inner
    write(pad + "]" if sep[0] == "," else "[]")


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
        rule = node.rule.value if node.rule else ("discharged" if node.discharged else "open")
        label = f"{rule}\\n{_dot_escape(problem_str(node.conclusion))}"
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
    them.  ``impact_dot`` reads the document as it is; ``json.dumps``
    encodes it given ``default=list``."""
    doc = {
        "edit": report.edit,
        "structural": sorted(report.structural),
        "behavioural": sorted(report.behavioural),
        "buffers": sorted(report.buffers),
        "declared_buffers": sorted(report.declared_buffers),
        "seed_phenomena": sorted(report.seed_phenomena),
        "paths": Rows(lambda: (path for _, path in report.walk())),
        "domains": list(env.names()),
    }
    if bound is not None:
        doc["bound"] = {
            "passed": bound.passed,
            "violations": Rows(lambda: ({"domain": name, "path": path} for name, path in bound.walk())),
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
