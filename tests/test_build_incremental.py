"""``build`` against the simple path it replaces: rethreading the whole
derivation after every statement.

``build`` refreshes only the path a statement names; these tests require
the same tree, or the same first error, as the full rethread gives, and
evidence rendered from the built tree equal to the evidence computed
beside its premises.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapoe import cli, dsl, model
from deltapoe.artifacts import RuleId
from deltapoe.calculus import (
    BadPath,
    RuleError,
    SideConditionViolated,
    _run_apply,
    _run_discharge,
    build,
    check,
    committed,
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
from .oracles import assert_evidence_as_eager


def set_statement(root, index, stmt, mdl):
    """``root`` with the node statement ``index`` makes set at its path."""
    try:
        target = get_node(root, stmt.path)
    except BadPath as err:
        raise err.at(stmt.path)
    if isinstance(stmt, ApplyStatement):
        updated = _run_apply(stmt, target, mdl, index)
    else:
        updated = _run_discharge(stmt, target, index)
    return set_node(root, stmt.path, updated)


def rethread_every_statement(script, mdl, problems):
    """The reference: make each statement's node, set it into the tree and
    rethread the whole tree."""
    root = open_node(problems[script.problem_name])
    for index, stmt in enumerate(script.statements):
        root = set_statement(root, index, stmt, mdl)
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


def assert_alternatives_share_conclusions(root):
    """Each alternative has its node's conclusion and provisional
    environment, so it resolves when its node does."""
    stack = [root]
    while stack:
        node = stack.pop()
        for alt in node.alternatives:
            assert (alt.conclusion, alt.env_provisional) == (node.conclusion, node.env_provisional)
        stack += node.premises + node.alternatives


def assert_same_build(script, mdl, problems):
    expected = outcome(rethread_every_statement, script, mdl, problems)
    got = outcome(build, script, mdl, problems)
    assert got == expected
    if not isinstance(got, tuple):
        assert_evidence_as_eager(got)
        assert_alternatives_share_conclusions(got)


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


WAITING_ALTERNATIVE = """
model {
  domain Box { }
  domain Lid { }
  stakeholder G : problem-owner
  need Sorted "sorted"
  need Tidied "tidied"
}

problem p {
  [Box] (+) ?F |= G : Sorted ; Tidied
}

derivation d {
  problem p
  apply SolutionReflect at root with { shape: seq }
  justify { rule "one solution component per stage" }
  apply Sequence at root.0
  justify { rule "sort, then tidy" dependency "tidying needs the lid" timeline "one after the other" }
"""

STAGE_ONE = """  apply KnownSolution at root.0.0 with { solution: +Lid }
  justify { rule "a lid sorts the box" }
  validated by G granted
"""

STAGE_TWO = """  apply KnownSolution at root.0.1 with { solution: skip } chosen
  justify { rule "nothing left to tidy" }
  validated by G granted
  apply KnownSolution at root.0.1 with { solution: skip } alternative
  justify { rule "the same, explored" }
  validated by G granted
"""


@pytest.mark.parametrize("stages", [(STAGE_TWO, STAGE_ONE), (STAGE_ONE, STAGE_TWO)],
                         ids=["stage-one-last", "stage-one-first"])
def test_alternative_explored_in_a_waiting_stage_resolves_with_its_node(tmp_path, capsys, stages):
    """An alternative explored while its stage still waits on stage one
    takes the stage's environment once stage one commits."""
    text = WAITING_ALTERNATIVE + "".join(stages) + "}\n"
    parsed = dsl.parse_file(text, "alt.poed")
    assert_same_build(parsed.derivations[0], parsed.model, parsed.problems)
    root = build(parsed.derivations[0], parsed.model, parsed.problems)
    assert check(root, parsed.model).kind == "Solved"
    source = tmp_path / "alt.poed"
    source.write_text(text)
    assert cli.main(["check", str(source)]) == 0
    assert f"{source}: derivation d: Solved\n" in capsys.readouterr().out


def test_first_stage_error_of_the_outermost_sequence_comes_first():
    """One statement commits the first stages of two nested Sequences.  The
    inner second stage's DomainRemove no longer applies, and neither does
    the outer first stage's solution: rethreading the whole tree meets the
    outer Sequence first, so ``build`` must raise its error too."""
    env = model.Environment((model.Domain("X"),))
    need = model.NeedSeq(model.NeedSeq(model.AtomicNeed("A"), model.AtomicNeed("B")), model.AtomicNeed("C"))
    problems = {"p": model.Problem(env, model.Unknown("F"), "G", need)}
    statements = (
        ApplyStatement(RuleId.SOLUTION_REFLECT, (), {"shape": "seq"}),
        ApplyStatement(RuleId.SEQUENCE, (0,), {}),
        ApplyStatement(RuleId.SEQUENCE, (0, 0), {}),
        ApplyStatement(RuleId.SOLN_REFINE, (0, 0, 1), {"change": model.Cancel("X")}),
        ApplyStatement(RuleId.DOMAIN_REMOVE, (0, 0, 1, 0), {}),
        ApplyStatement(RuleId.KNOWN_SOLUTION, (0, 0, 0), {"solution": model.Cancel("X")}),
    )
    script = DerivationScript("nested", "p", statements)
    expected = outcome(rethread_every_statement, script, Model(), problems)
    assert outcome(build, script, Model(), problems) == expected
    kind, cause, message, path = expected
    assert (kind, cause, path) == (SideConditionViolated, "CancelMissing", (0, 0, 0))
    assert message.startswith("stage one's solution does not apply: ")


# --- generated staged derivations ------------------------------------------------

def _domain(index):
    return model.Domain(f"D{index}", controlled=frozenset({f"p{index}"}))


GRANTED = (ValidationMark("G", True),)


@st.composite
def staged_scripts(draw):
    """A SolutionReflect over a random tree of sequenced stages, each a
    SolnRefine and a DomainAdd, DomainRemove or DomainRefine closed by a
    discharge.  One stage may split its environment with Parallel, one may
    carry an alternative application (a SolnRefine with a DomainAdd below
    it, or a KnownSolution), and one, the last or an earlier one, may
    cancel a missing domain.  The statements come in a random order
    that keeps every statement after the one creating its node, so later
    stages are often built while their environment is still provisional."""
    stages = draw(st.integers(min_value=2, max_value=5))
    initial = draw(st.integers(min_value=1, max_value=3))
    env = model.Environment(tuple(_domain(i) for i in range(initial)))
    fresh = itertools.count(initial)
    parallel = draw(st.sampled_from([None, *range(stages)]))
    alternative = draw(st.sampled_from([None, *range(stages)]))
    alternate = draw(st.sampled_from(["refine", "known"]))
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
        if alternate == "refine":
            other = model.Add(_domain(next(fresh)))
            alt = add(ApplyStatement(RuleId.SOLN_REFINE, path, {"change": other},
                                     marker="alternative"), refined)
            add(ApplyStatement(RuleId.DOMAIN_ADD, path + (("alt", 1), 0), {}), alt)
        elif alternate == "known":
            add(ApplyStatement(RuleId.KNOWN_SOLUTION, path, {"solution": change},
                               marker="alternative"), refined)
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
            stage(path + (0,), r1, c1, split, None)
            stage(path + (1,), r2, c2, split, None)
            env = model.apply_change(env, model.ChangePar(c1, c2))
            need = model.NeedPar(model.AtomicNeed(f"N{leaf}a"), model.AtomicNeed(f"N{leaf}b"))
            return need, leaf + 1
        rule, change = atom(alone)
        if leaf == ghost:
            rule, change = RuleId.DOMAIN_REMOVE, model.Cancel("Ghost")
        else:
            env = model.apply_change(env, change)
        stage(path, rule, change, after, alternate if leaf == alternative else None)
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


def commitments(root):
    """What every node of the tree commits to, in one fixed walk order."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(committed(node))
        stack += node.premises + node.alternatives
    return out


@settings(max_examples=300, deadline=None)
@given(staged_scripts())
def test_rethread_keeps_what_every_node_commits(generated):
    """Rethreading recomputes environments only, so one top-down pass
    resolves every second stage its first stage's solution determines."""
    script, problems = generated
    root = open_node(problems[script.problem_name])
    for index, stmt in enumerate(script.statements):
        try:
            root = set_statement(root, index, stmt, Model())
            rethreaded = rethread(root, Model())
        except RuleError:
            return
        assert commitments(rethreaded) == commitments(root)
        root = rethreaded
