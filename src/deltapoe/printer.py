"""Canonical text rendering for models, problems, changes and needs.

``pretty`` is a pure function: equal values yield byte-identical text,
and the text reparses to an equal value.  One printer, :func:`change_str`,
serves the ``;``/``||`` compositions of both changes and needs; needs are
printed in their normalized form.  Domain sets are printed sorted;
domains themselves keep declaration order.
"""

from __future__ import annotations

from . import model as m
from .artifacts import Deadline
from .dsl import Model

_PAR, _SEQ, _ATOM = 1, 2, 3


def _escape(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    return out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")


def _quoted(text: str) -> str:
    return f'"{_escape(text)}"'


# the binding level of each composition: ``||`` binds loosest, atoms tightest
_level = {m.ChangePar: _PAR, m.NeedPar: _PAR, m.ChangeSeq: _SEQ, m.NeedSeq: _SEQ}


def change_str(change: m.ChangeExpr | m.Need, require: int = _PAR) -> str:
    """``change``, a change or a need, in surface syntax.  A chain that
    nests to the right under one operator is walked without recursion, so
    a long chain cannot exhaust the stack.  Nothing is normalised here: an
    operand nested to the left keeps its parentheses, so a need is printed
    by :func:`need_str`, which normalises it first."""
    level = _level.get(type(change), _ATOM)
    if isinstance(change, m.AtomicNeed):
        text = change.name
    elif isinstance(change, m.Unknown):
        text = f"?{change.placeholder}"
    elif isinstance(change, m.Add):
        text = f"+{change.domain.name}"
    elif isinstance(change, m.Cancel):
        text = f"!{change.domain_name}"
    elif isinstance(change, m.Nil):
        text = "skip"
    elif isinstance(change, m.Refine):
        retained = ", ".join(d.name for d in change.retained)
        added = ", ".join(d.name for d in change.added)
        text = f"{change.target} ~> d[{retained}]({added})"
    elif level != _ATOM:
        node, parts = type(change), []
        while isinstance(change, node):
            head, change = change._values(change)
            parts.append(change_str(head, level + 1))
        parts.append(change_str(change, level))
        text = (" ; " if level == _SEQ else " || ").join(parts)
    else:
        raise TypeError(f"not a change expression or need: {change!r}")
    if level < require:
        return f"({text})"
    return text


def need_str(need: m.Need) -> str:
    return change_str(m.normalize_need(need))


def env_str(env: m.Environment) -> str:
    parts = []
    for dom in env:
        if dom.is_composite:
            parts.append(f"{dom.name}:AStruct[{', '.join(dom.structure)}]")
        else:
            parts.append(dom.name)
    return "[" + ", ".join(parts) + "]"


def problem_str(problem: m.Problem) -> str:
    return (
        f"{env_str(problem.env)} (+) {change_str(problem.change)} "
        f"|= {problem.validator} : {need_str(problem.need)}"
    )


def domain_str(dom: m.Domain) -> str:
    clauses = []
    if dom.observed:
        clauses.append("observes " + ", ".join(sorted(dom.observed)))
    if dom.controlled:
        clauses.append("controls " + ", ".join(sorted(dom.controlled)))
    for link in sorted(dom.links, key=m.LINK_ORDER):
        clauses.append(f"causes {link.cause} -> {link.effect}")
    if dom.description:
        clauses.append(f"description {_quoted(dom.description)}")
    return f"domain {dom.name} {{ " + "  ".join(clauses) + " }" if clauses else f"domain {dom.name} {{ }}"


def model_str(model: Model) -> str:
    lines = ["model {"]
    for phen in model.phenomena:
        lines.append(f"  phenomenon {phen.name} : {phen.kind.value}")
    for dom in model.environment:
        lines.append("  " + domain_str(dom))
    for sk in model.stakeholders:
        line = f"  stakeholder {sk.name} : {sk.role.value}"
        if sk.trusts:
            line += " { trusts " + ", ".join(sorted(sk.trusts)) + " }"
        lines.append(line)
    for need in model.needs:
        lines.append(f"  need {need.name} {_quoted(need.description)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def deadline_str(deadline: Deadline) -> str:
    if deadline.kind == "absolute":
        return deadline.value
    return _quoted(deadline.value)


def pretty(value) -> str:
    """Canonical deterministic text for a model, environment, problem,
    change expression or need."""
    if isinstance(value, Model):
        return model_str(value)
    if isinstance(value, m.Environment):
        return env_str(value)
    if isinstance(value, m.Problem):
        return problem_str(value)
    if isinstance(value, (m.Unknown, m.Add, m.Cancel, m.Refine, m.ChangeSeq, m.ChangePar, m.Nil)):
        return change_str(value)
    if isinstance(value, (m.AtomicNeed, m.NeedSeq, m.NeedPar)):
        return need_str(value)
    raise TypeError(f"cannot pretty-print {type(value).__name__}")
