"""``check`` and ``rethread`` read one replay, ``calculus._replay``, which
keeps its own stack.

``check`` is compared with the recursive walk it replaced, kept in
``tests/oracles.py``, on generated trees, on built trees with tampered
premises, arities, alternatives and markings, and on hand-built ones:
whole ``Verdict``s, diagnostics and open items in order.  No function of
the calculus calls itself, and derivations far deeper than the recursion
limit check, rethread and plan.
"""

import ast
import copy
import importlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapoe import calculus, cli, dsl, export, model
from deltapoe.artifacts import Justification, RuleId
from deltapoe.calculus import (
    DerivationNode,
    RuleError,
    _replay,
    check,
    open_node,
    preorder,
    rethread,
)
from deltapoe.dsl import Model

from .conftest import FIXTURES
from .oracles import check_walk_recursive, rethread_recursive
from .test_build_incremental import FIXTURE_DERIVATIONS, set_statement, staged_scripts
from .test_calculus import PLAN_PROBLEM, plan_trees, solution_trees

ROOT = Path(__file__).resolve().parent.parent


def built_prefix(script, mdl, problems):
    """The tree the script's statements build up to its first error."""
    root = open_node(problems[script.problem_name])
    for index, stmt in enumerate(script.statements):
        try:
            root = rethread_recursive(set_statement(root, index, stmt, mdl), mdl)
        except RuleError:
            break
    return root


TAMPERINGS = ("conclusion", "env", "greenfield", "provisional", "drop", "extra", "alternative",
              "chosen", "unmarked", "rule", "args", "discharged", "validations")


def tamper(draw, root):
    """Change a few fields of nodes of ``root`` in place, each drawn from
    ``TAMPERINGS``; a node put at a second place is a copy, so the tree
    stays finite."""
    nodes = [node for node, _, _ in preorder(root)]
    problems = [node.conclusion for node in nodes]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        node = draw(st.sampled_from(nodes))
        kind = draw(st.sampled_from(TAMPERINGS))
        if kind == "conclusion":
            node.conclusion = draw(st.sampled_from(problems))
        elif kind == "env":
            node.conclusion = node.conclusion._replace(env=draw(st.sampled_from(problems)).env)
        elif kind in ("greenfield", "discharged"):
            setattr(node, kind, not getattr(node, kind))
        elif kind == "provisional":
            node.env_provisional = not node.env_provisional
        elif kind == "drop":
            node.premises = node.premises[:-1]
        elif kind == "extra":
            node.premises += (copy.deepcopy(draw(st.sampled_from(nodes))),)
        elif kind == "alternative":
            node.alternatives += (copy.deepcopy(draw(st.sampled_from(nodes))),)
        elif kind == "chosen" and node.alternatives:
            k = draw(st.integers(min_value=0, max_value=len(node.alternatives) - 1))
            node.alternatives = tuple(alt._replace(marker="chosen") if i == k else alt
                                      for i, alt in enumerate(node.alternatives))
        elif kind == "unmarked":
            node.marker = None
        elif kind == "rule":
            node.rule = draw(st.sampled_from([None, *RuleId]))
        elif kind == "args":
            node.args = {}
        elif kind == "validations":
            node.validations = ()
    return root


@st.composite
def tampered_staged_trees(draw):
    script, problems = draw(staged_scripts())
    return tamper(draw, built_prefix(script, Model(), problems)), Model()


@st.composite
def tampered_fixture_trees(draw):
    path, which = draw(st.sampled_from(FIXTURE_DERIVATIONS))
    parsed = PARSED[path]
    root = built_prefix(parsed.derivations[which], parsed.model, parsed.problems)
    return tamper(draw, root), parsed.model


PARSED = {path: dsl.parse_file(path.read_text(), str(path)) for path, _ in FIXTURE_DERIVATIONS}

generated_trees = st.one_of(
    tampered_staged_trees(),
    tampered_fixture_trees(),
    plan_trees().map(lambda root: (root, Model())),
    solution_trees().map(lambda root: (root, Model())),
)


@settings(max_examples=300, deadline=None)
@given(generated_trees)
def test_check_gives_the_verdict_of_the_recursive_walk(case):
    root, mdl = case
    assert check(root, mdl) == check_walk_recursive(root, mdl)


@pytest.mark.parametrize(
    "path,which", FIXTURE_DERIVATIONS,
    ids=[f"{p.relative_to(FIXTURES)}#{k}" for p, k in FIXTURE_DERIVATIONS],
)
def test_fixture_derivations_check_as_the_recursive_walk(path, which):
    parsed = PARSED[path]
    root = built_prefix(parsed.derivations[which], parsed.model, parsed.problems)
    assert check(root, parsed.model) == check_walk_recursive(root, parsed.model)


OTHER = model.Problem(model.Environment((model.Domain("X"),)), model.Unknown("H"), "V",
                      model.AtomicNeed("M"))


RATIONALE = Justification("r")


def refined(problem, change, premises=None, alternatives=()):
    """A SolnRefine node at ``problem``, with its rationale, whose premise
    is the one the rule makes, unless ``premises`` are given."""
    if premises is None:
        premises = (open_node(problem._replace(change=change)),)
    return DerivationNode(problem, RuleId.SOLN_REFINE, premises, args={"change": change},
                          justification=RATIONALE, alternatives=alternatives)


def test_an_alternatives_note_follows_the_subtree_of_the_one_before():
    """The first alternative carries a wrong premise and the second a
    conclusion of its own, with a wrong arity below that: the second's
    note comes after the first's subtree, and before its own findings."""
    tampered = refined(PLAN_PROBLEM, model.Nil(), (open_node(OTHER),))
    stranger = refined(OTHER, model.Nil(), premises=())
    root = refined(PLAN_PROBLEM, model.Nil(), alternatives=(tampered, stranger))
    verdict = check(root, Model())
    assert verdict == check_walk_recursive(root, Model())
    assert [(d.path, d.kind) for d in verdict.diagnostics] == [
        ("root@1.0", "ThreadingMismatch"),
        ("root@2", "PremiseMismatch"),
        ("root@2", "ArityMismatch"),
    ]
    assert verdict.diagnostics[1].message == "alternative does not share the node's conclusion"
    assert verdict.open_items == ("root: alternatives exist but none is marked chosen", "root.0: open leaf")


def test_a_refused_rule_or_a_wrong_arity_stops_the_replay_below_it():
    """Below a node whose rule is refused, or that carries another number
    of premises, nothing is compared: its premises are not entered."""
    below = refined(PLAN_PROBLEM, model.Nil(), (open_node(OTHER),))
    refused = DerivationNode(PLAN_PROBLEM, RuleId.SOLN_REFINE, (below,), justification=RATIONALE)
    crowded = refined(PLAN_PROBLEM, model.Nil(), (below, below))
    for root, kind, found in ((refused, "RuleError", RuleError), (crowded, "ArityMismatch", int)):
        visits = [(path, found) for _, path, _, found in _replay(root, Model())]
        assert [path for path, _ in visits] == [(), ()]
        assert visits[0][1] is root and type(visits[1][1]) is found
        verdict = check(root, Model())
        assert verdict == check_walk_recursive(root, Model())
        assert [d.kind for d in verdict.diagnostics] == [kind]


def test_a_hand_built_tree_of_a_wrong_arity_is_reported_not_raised():
    """A Sequence with one premise, and a Sequence whose first stage is a
    SolnRefine with none: ``lint`` finds only what the nodes lack,
    ``check`` gives Invalid with ArityMismatch, as the recursive walk
    does, and there is no solution or plan to extract."""
    problem = model.Problem(model.Environment(()), model.ChangeSeq(model.Unknown("F"), model.Unknown("H")),
                            "G", model.NeedSeq(model.AtomicNeed("N"), model.AtomicNeed("M")))
    first = open_node(problem._replace(change=model.Unknown("F"), need=model.AtomicNeed("N")))
    second = open_node(problem._replace(change=model.Unknown("H"), need=model.AtomicNeed("M")))
    lone = DerivationNode(problem, RuleId.SEQUENCE, (first,), justification=RATIONALE)
    bare = DerivationNode(problem, RuleId.SEQUENCE,
                          (refined(first.conclusion, model.Nil(), premises=()), second),
                          justification=RATIONALE)
    for root, where in ((lone, "root"), (bare, "root.0")):
        assert {d.kind for d in calculus.lint(root)} == {"MissingJustification"}
        verdict = check(root, Model())
        assert verdict == check_walk_recursive(root, Model())
        assert verdict.kind == "Invalid"
        assert (where, "ArityMismatch") in [(d.path, d.kind) for d in verdict.diagnostics]
        for extract in (calculus.solution_of, calculus.extract_plan):
            with pytest.raises(calculus.UnsolvedTree):
                extract(root)


@pytest.mark.parametrize("premises", [(), (open_node(PLAN_PROBLEM),)])
def test_a_hand_built_node_of_an_unknown_rule_is_refused_not_raised(premises):
    """A rule that is not in ``RULES``, with or without premises: ``check``
    gives Invalid with the refusal ``apply`` raises; ``lint`` finds nothing
    the node lacks, there is no solution or plan to extract, and the node
    establishes no evidence."""
    root = DerivationNode(PLAN_PROBLEM, "Bogus", premises, justification=RATIONALE)
    verdict = check(root, Model())
    assert verdict.kind == "Invalid"
    assert [(d.path, d.kind, d.message) for d in verdict.diagnostics] == [
        ("root", "RuleError", "unknown rule 'Bogus'")]
    assert calculus.lint(root) == []
    for extract in (calculus.solution_of, calculus.extract_plan):
        with pytest.raises(calculus.UnsolvedTree):
            extract(root)
    assert calculus.evidence(root) == {}
    with pytest.raises(RuleError, match="unknown rule 'Bogus'"):
        calculus.apply("Bogus", open_node(PLAN_PROBLEM), {}, Model())


def test_a_hand_built_node_of_an_unknown_rule_is_named_by_its_rule():
    """The DOT export labels the node with its rule as given, and ``apply``
    at it refuses it as a node whose rule is applied already."""
    root = DerivationNode(PLAN_PROBLEM, "Bogus", justification=RATIONALE)
    assert '  n_root [label="Bogus\\n' in export.derivation_dot(root, "d")
    with pytest.raises(calculus.NotOpen) as err:
        calculus.apply(RuleId.KNOWN_SOLUTION, root, {}, Model())
    assert f"{type(err.value).__name__}: {err.value}" == "NotOpen: rule already applied here: Bogus"


def test_the_replay_visits_each_node_twice_in_the_order_check_reports():
    leaf = open_node(PLAN_PROBLEM._replace(change=model.Nil()))
    alt = refined(PLAN_PROBLEM, model.Nil())
    root = refined(PLAN_PROBLEM, model.Nil(), (leaf,), alternatives=(alt,))
    visits = [(node, path, in_alternative, found)
              for node, path, in_alternative, found in _replay(root, Model())]
    assert [(path, in_alternative) for _, path, in_alternative, _ in visits] == [
        ((), False), ((("alt", 1),), True), ((("alt", 1),), True),
        ((("alt", 1), 0), True), ((("alt", 1), 0), True), ((), False), ((0,), False), ((0,), False),
    ]
    carriers = [visits[i][3] for i in (0, 1, 3, 6)]
    assert [a is b for a, b in zip(carriers, [root, root, alt.premises[0], leaf])] == [True] * 4
    assert visits[2][3] == [alt.premises[0]] and visits[5][3] == [leaf]
    assert visits[4][3] is None and visits[7][3] is None


# --- no recursion in the calculus -------------------------------------------------------

def _self_calls(tree):
    """The names of the functions of ``tree`` that call themselves by name."""
    found = []
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                   and call.func.id == function.name for call in ast.walk(function)):
                found.append(function.name)
    return found


def test_no_function_of_the_calculus_calls_itself():
    source = Path(calculus.__file__).read_text(encoding="utf-8")
    assert _self_calls(ast.parse(source)) == []
    oracles = (ROOT / "tests" / "oracles.py").read_text(encoding="utf-8")
    assert {"rethread_recursive", "walk"} <= set(_self_calls(ast.parse(oracles)))


def test_check_and_rethread_read_the_one_replay():
    tree = ast.parse(Path(calculus.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("check", "rethread"):
        called = {call.func.id for call in ast.walk(functions[name])
                  if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
        assert "_replay" in called and "_expected" not in called, name
        assert not [node for node in ast.walk(functions[name])
                    if isinstance(node, ast.FunctionDef) and node.name == "walk"], name


# --- deep derivations -----------------------------------------------------------------

DEEP = 3000


def refine_chain(depth=DEEP):
    """``depth`` SolnRefine nodes, each refining the change to itself,
    above an open leaf."""
    problem = PLAN_PROBLEM
    root = open_node(problem)
    for _ in range(depth):
        root = refined(problem, problem.change, (root,))
    return root


def test_check_and_rethread_take_a_tree_deeper_than_the_recursion_limit():
    root = refine_chain()
    bottom = "root" + ".0" * DEEP
    assert check(root, Model()) == calculus.Verdict("Incomplete", (), (f"{bottom}: open leaf",))
    with pytest.raises(RecursionError):
        check_walk_recursive(root, Model())
    nodes = [node for node, _, _ in preorder(root)]
    for node in nodes[1:]:
        node.env_provisional = True
    assert rethread(root, Model()) is root
    assert [node for node, _, _ in preorder(root)] == nodes
    assert not any(node.env_provisional for node in nodes)


def test_cli_check_and_plan_take_a_long_staged_derivation(tmp_path, monkeypatch, capsys):
    """500 stages, beyond the 330 at which ``check`` and ``plan`` used to
    overflow the stack comparing the root's mirrored change."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    staged = importlib.import_module("families").StagedDerivation(1, 500, tmp_path)
    assert cli.main(["check", staged.path]) == 0
    assert "Solved" in capsys.readouterr().out
    assert cli.main(["plan", staged.path]) == 0
    assert capsys.readouterr().err == ""

