"""Test-only oracles: simple or earlier implementations that the tests
compare the library against.  None of this is used by the library."""

from collections import deque
from dataclasses import dataclass

from deltapoe.artifacts import ValidationStatus, ValidationTarget
from deltapoe.export import _dot_escape
from deltapoe.impact import BoundReport, UnknownDomain, _seed, edit_str
from deltapoe.macro import CpsState, _apply_event


# --- workflow gates -------------------------------------------------------------------

def verify_gates(events) -> None:
    """Assert the validation gates over every prefix of a log: CPS3 and
    beyond require a live problem-view validation, CPS5 and beyond a live
    solution validation."""
    workflows = {}
    for event in events:
        _apply_event(workflows, event)
        for wf in workflows.values():
            if wf.state in (CpsState.CPS3, CpsState.CPS4, CpsState.CPS5, CpsState.DONE):
                assert wf.effective(ValidationTarget.PROBLEM_VIEW) is not None, (
                    f"{wf.id} in {wf.state.value} without problem-view validation"
                )
            if wf.state in (CpsState.CPS5, CpsState.DONE):
                assert wf.effective(ValidationTarget.SOLUTION_PLAN) is not None, (
                    f"{wf.id} in {wf.state.value} without solution validation"
                )
            for v in wf.validations:
                if v.status is ValidationStatus.GRANTED:
                    assert v.stakeholder == wf.owner


# --- impact propagation with every path stored ---------------------------------------

@dataclass(frozen=True)
class StoredPathsReport:
    edit: str
    structural: frozenset
    behavioural: frozenset
    buffers: frozenset
    declared_buffers: frozenset
    seed_phenomena: frozenset
    paths: tuple  # one shortest path per reached domain, discovery order

    def path_to(self, domain):
        for path in self.paths:
            if path[-1] == domain:
                return path
        return None


def propagate_stored_paths(env, edit, buffers=frozenset()) -> StoredPathsReport:
    """The propagation that builds a full path for every observed affected
    phenomenon of every domain and stores one path per reached domain:
    O(N * depth), kept as the reference for paths and their order."""
    for name in buffers:
        if name not in env:
            raise UnknownDomain(name)
    structural, seeds = _seed(env, edit)

    edges = {}
    for dom in env:
        if dom.name in buffers:
            continue
        for link in sorted(dom.links):
            if link.cause in dom.observed:
                edges.setdefault(link.cause, []).append((link.effect, dom.name))

    parent = {}
    queue = deque()
    for phen in sorted(seeds):
        parent[phen] = None
        queue.append(phen)
    while queue:
        phen = queue.popleft()
        for effect, via in edges.get(phen, ()):
            if effect not in parent:
                parent[effect] = (phen, via)
                queue.append(effect)
    affected = set(parent)

    def chain(phen):
        out = [phen]
        at = phen
        while parent[at] is not None:
            cause, via = parent[at]
            out.extend([via, cause])
            at = cause
        return tuple(reversed(out))

    reached = []
    for dom in env:
        if dom.name in structural:
            continue
        hits = sorted(dom.observed & affected, key=lambda p: (len(chain(p)), p))
        if hits:
            path = chain(hits[0]) + (dom.name,)
            reached.append((len(path), dom.name, path))
    reached.sort(key=lambda item: (item[0], item[1]))

    behavioural = frozenset(name for _, name, _ in reached)
    return StoredPathsReport(
        edit=edit_str(edit),
        structural=structural,
        behavioural=behavioural,
        buffers=behavioural & buffers,
        declared_buffers=frozenset(buffers),
        seed_phenomena=seeds,
        paths=tuple(path for _, _, path in reached),
    )


def bound_check_stored_paths(env, edit, permitted, buffers=frozenset()) -> BoundReport:
    """Bound check over ``propagate_stored_paths``: one linear path search
    per violation, then a sort by path length and name."""
    report = propagate_stored_paths(env, edit, buffers)
    impacted = report.structural | report.behavioural
    violations = []
    for name in sorted(impacted - permitted):
        path = report.path_to(name) or (name,)
        violations.append((name, path))
    violations.sort(key=lambda v: (len(v[1]), v[0]))
    return BoundReport(not violations, impacted, tuple(violations))


# --- model graph ----------------------------------------------------------------------

def model_dot_scan(mdl, name="model") -> str:
    """``export.model_dot`` with its observers found by scanning every
    domain for every controlled phenomenon: O(N^2), the reference for the
    edge order."""
    lines = [f'digraph "{_dot_escape(name)}" {{', "  node [shape=box];"]
    env = mdl.environment
    for dom in env:
        lines.append(f'  "{_dot_escape(dom.name)}";')
    for dom in env:
        for phen in sorted(dom.controlled):
            for other in env:
                if other.name != dom.name and phen in other.observed:
                    lines.append(
                        f'  "{_dot_escape(dom.name)}" -> "{_dot_escape(other.name)}"'
                        f' [label="{_dot_escape(phen)}"];'
                    )
        for link in sorted(dom.links):
            lines.append(
                f'  "{_dot_escape(dom.name)}" -> "{_dot_escape(dom.name)}"'
                f' [label="{_dot_escape(link.cause)} -> {_dot_escape(link.effect)}", style=dashed];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
