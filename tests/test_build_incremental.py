"""``build`` against the simple path it replaces: rethreading the whole
derivation after every statement.

``build`` refreshes only the path a statement names; these tests require
the same tree, or the same first error, as the full rethread gives.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapoe import dsl, model
from deltapoe.artifacts import RuleId
from deltapoe.calculus import (
    BadPath,
    RuleError,
    _run_apply,
    _run_discharge,
    build,
    get_node,
    open_node,
    rethread,
    set_node,
)
from deltapoe.dsl import (
    ApplyStatement,
    DerivationScript,
    DischargeStatement,
    Model,
    ValidationMark,
)

from .conftest import FIXTURES


def rethread_every_statement(script, mdl, problems):
    """The reference: make each statement's node, set it into the tree and
    rethread the whole tree."""
    root = open_node(problems[script.problem_name])
    for index, stmt in enumerate(script.statements):
        try:
            target = get_node(root, stmt.path)
        except BadPath as err:
            raise err.at(stmt.path)
        if isinstance(stmt, ApplyStatement):
            updated = _run_apply(stmt, target, mdl, index)
        else:
            updated = _run_discharge(stmt, target, index)
        root = set_node(root, stmt.path, updated)
        try:
            root = rethread(root, mdl)
        except RuleError as err:
            if not err.path:
                err.at(stmt.path)
            raise
    return root


def outcome(make, script, mdl, problems):
    """The built tree, or the error as (type, cause kind, message, path)."""
    try:
        return make(script, mdl, problems)
    except RuleError as err:
        return type(err), err.cause_kind, str(err), err.path


def assert_same_build(script, mdl, problems):
    expected = outcome(rethread_every_statement, script, mdl, problems)
    assert outcome(build, script, mdl, problems) == expected


FIXTURE_DERIVATIONS = [
    (path, k)
    for path in sorted(FIXTURES.rglob("*.poed"))
    for k in range(len(dsl.parse_file(path.read_text(), str(path)).derivations))
]


@pytest.mark.parametrize(
    "path,which", FIXTURE_DERIVATIONS,
    ids=[f"{p.relative_to(FIXTURES)}#{k}" for p, k in FIXTURE_DERIVATIONS],
)
def test_fixture_derivations_build_as_full_rethread(path, which):
    parsed = dsl.parse_file(path.read_text(), str(path))
    assert_same_build(parsed.derivations[which], parsed.model, parsed.problems)


# --- generated staged derivations ------------------------------------------------

def _domain(index):
    return model.Domain(f"D{index}", controlled=frozenset({f"p{index}"}))


GRANTED = (ValidationMark("G", True),)


@st.composite
def staged_scripts(draw):
    """A SolutionReflect over a random tree of sequenced stages, each a
    SolnRefine and a DomainAdd, DomainRemove or DomainRefine closed by a
    discharge.  One stage may split its environment with Parallel, one may
    carry an alternative application, and one, the last or an earlier one,
    may cancel a missing domain.  The statements come in a random order
    that keeps every statement after the one creating its node, so later
    stages are often built while their environment is still provisional."""
    stages = draw(st.integers(min_value=2, max_value=5))
    initial = draw(st.integers(min_value=1, max_value=3))
    env = model.Environment(tuple(_domain(i) for i in range(initial)))
    fresh = itertools.count(initial)
    parallel = draw(st.sampled_from([None, *range(stages)]))
    alternative = draw(st.sampled_from([None, *range(stages)]))
    ghost = draw(st.sampled_from([None, *range(stages)]))

    def shape(leaves):
        if leaves == 1:
            return None
        split = draw(st.integers(min_value=1, max_value=leaves - 1))
        return shape(split), shape(leaves - split)

    def atom(names):
        kind = draw(st.sampled_from(["add", "remove", "refine"] if names else ["add"]))
        if kind == "add":
            return RuleId.DOMAIN_ADD, model.Add(_domain(next(fresh)))
        target = draw(st.sampled_from(names))
        if kind == "remove":
            return RuleId.DOMAIN_REMOVE, model.Cancel(target)
        kept, added = _domain(next(fresh)), _domain(next(fresh))
        return RuleId.DOMAIN_REFINE, model.Refine(target, (kept,), (added,))

    tasks = []  # (statement, index of the task it must follow)

    def add(stmt, after):
        tasks.append((stmt, after))
        return len(tasks) - 1

    def stage(path, rule, change, after, alternate):
        refined = add(ApplyStatement(RuleId.SOLN_REFINE, path, {"change": change}), after)
        if alternate:
            other = model.Add(_domain(next(fresh)))
            alt = add(ApplyStatement(RuleId.SOLN_REFINE, path, {"change": other},
                                     marker="alternative"), refined)
            add(ApplyStatement(RuleId.DOMAIN_ADD, path + (("alt", 1), 0), {}), alt)
        applied = add(ApplyStatement(rule, path + (0,), {}), refined)
        add(DischargeStatement(path + (0, 0), validations=GRANTED), applied)

    def lay(tree, path, after, leaf):
        """Statements for the stages under ``tree``, in stage order, with
        the environment each stage meets; returns the need and next leaf."""
        nonlocal env
        if tree is not None:
            seq = add(ApplyStatement(RuleId.SEQUENCE, path, {}), after)
            left, leaf = lay(tree[0], path + (0,), seq, leaf)
            right, leaf = lay(tree[1], path + (1,), seq, leaf)
            return model.NeedSeq(left, right), leaf
        # simple domains outside any composite: the ones stages remove or refine
        members = {n for d in env if d.is_composite for n in d.structure}
        alone = [d.name for d in env if not d.is_composite and d.name not in members]
        if leaf == parallel:
            left = draw(st.lists(st.sampled_from(alone), unique=True)) if alone else []
            right = [n for n in env.names() if n not in left]
            split = add(ApplyStatement(RuleId.PARALLEL, path,
                                       {"left": tuple(left), "right": tuple(right)}), after)
            (r1, c1), (r2, c2) = atom(left), atom([n for n in alone if n not in left])
            stage(path + (0,), r1, c1, split, False)
            stage(path + (1,), r2, c2, split, False)
            env = model.apply_change(env, model.ChangePar(c1, c2))
            need = model.NeedPar(model.AtomicNeed(f"N{leaf}a"), model.AtomicNeed(f"N{leaf}b"))
            return need, leaf + 1
        rule, change = atom(alone)
        if leaf == ghost:
            rule, change = RuleId.DOMAIN_REMOVE, model.Cancel("Ghost")
        else:
            env = model.apply_change(env, change)
        stage(path, rule, change, after, leaf == alternative)
        return model.AtomicNeed(f"N{leaf}"), leaf + 1

    problem_env = env
    reflect = add(ApplyStatement(RuleId.SOLUTION_REFLECT, (), {"shape": "seq"}), None)
    need, _ = lay(shape(stages), (0,), reflect, 0)

    done, order = set(), []
    while len(order) < len(tasks):
        ready = [i for i, (_, after) in enumerate(tasks)
                 if i not in done and (after is None or after in done)]
        pick = draw(st.sampled_from(ready))
        done.add(pick)
        order.append(tasks[pick][0])
    problem = model.Problem(problem_env, model.Unknown("F"), "G", need)
    return DerivationScript("staged", "p", tuple(order)), {"p": problem}


@settings(max_examples=300, deadline=None)
@given(staged_scripts())
def test_generated_staged_scripts_build_as_full_rethread(generated):
    script, problems = generated
    assert_same_build(script, Model(), problems)
