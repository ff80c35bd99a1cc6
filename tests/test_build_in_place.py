"""``build`` assembles its tree in place: each statement's node is put into
its parent, and the Sequences it commits are settled from the top down.

These tests require that the nodes ``build`` writes are its own (no node
at two places, none shared between builds, its inputs untouched), that it
makes a number of nodes linear in the script, and that the first error
among several nested Sequences is the one a full rethread meets first.
"""

import copy
import importlib
from pathlib import Path

import pytest
from hypothesis import given, settings

from deltapoe import dsl, model
from deltapoe.artifacts import RuleId
from deltapoe.calculus import DerivationNode, SideConditionViolated, build, open_node, preorder
from deltapoe.dsl import ApplyStatement, DerivationScript, Model

from .conftest import FIXTURES
from .test_build_incremental import (
    FIXTURE_DERIVATIONS,
    outcome,
    rethread_every_statement,
    staged_scripts,
)


def test_derivation_nodes_are_unhashable():
    with pytest.raises(TypeError):
        hash(open_node(model.Problem(model.Environment(()), model.Nil(), "G", model.AtomicNeed("N"))))


def assert_builds_own_their_nodes(script, mdl, problems):
    """Each node of a built tree sits at one place, two builds share no
    node, and ``build`` leaves its problems and statements as they were."""
    problems_before = copy.deepcopy(problems)
    statements_before = copy.deepcopy(script.statements)
    first, second = [outcome(build, script, mdl, problems) for _ in range(2)]
    assert problems == problems_before
    assert script.statements == statements_before
    assert first == second
    if isinstance(first, DerivationNode):
        ids = [id(node) for node, _, _ in preorder(first)]
        assert len(ids) == len(set(ids))
        assert not set(ids) & {id(node) for node, _, _ in preorder(second)}


@pytest.mark.parametrize(
    "path,which", FIXTURE_DERIVATIONS,
    ids=[f"{p.relative_to(FIXTURES)}#{k}" for p, k in FIXTURE_DERIVATIONS],
)
def test_fixture_builds_own_their_nodes(path, which):
    parsed = dsl.parse_file(path.read_text(), str(path))
    assert_builds_own_their_nodes(parsed.derivations[which], parsed.model, parsed.problems)


@settings(max_examples=100, deadline=None)
@given(staged_scripts())
def test_generated_builds_own_their_nodes(generated):
    script, problems = generated
    assert_builds_own_their_nodes(script, Model(), problems)


def test_build_makes_a_number_of_nodes_linear_in_the_stages(tmp_path, monkeypatch):
    """Four times the stages make at most five times the nodes; copying
    the path above every statement's target makes about eleven times."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    staged = importlib.import_module("families").StagedDerivation
    made = [0]
    init = DerivationNode.__init__

    def counting(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    counts = []
    for stages in (20, 80):
        outdir = tmp_path / str(stages)
        outdir.mkdir()
        family = staged(1, stages, outdir)
        parsed = dsl.parse_file(Path(family.path).read_text(), family.path)
        made[0] = 0
        with monkeypatch.context() as patch:
            patch.setattr(DerivationNode, "__init__", counting)
            build(parsed.derivations[0], parsed.model, parsed.problems)
        counts.append(made[0])
    assert counts[1] <= 5 * counts[0], counts


@pytest.mark.parametrize("outer,fails_first", [
    (("X", "Y", "Z"), "Y"),  # the outer stage applies; the middle fails before the inner
    (("X", "Y"), "Z"),  # all three fail; the outer comes first
], ids=["middle-and-inner-fail", "all-three-fail"])
def test_first_error_among_three_nested_sequences_one_statement_commits(outer, fails_first):
    """One KnownSolution commits the first stages of three nested
    Sequences, each under its own environment (an EnvRefine sits between
    them): the outer sees ``outer``, the middle {X}, the inner nothing.
    The committed stages cancel X, then Y, then Z, so each Sequence that
    fails names another domain; ``build`` must raise the error a full
    rethread meets first."""
    def env(*names):
        return model.Environment(tuple(model.Domain(name) for name in names))

    atoms = [model.AtomicNeed(name) for name in "ABCD"]
    need = model.NeedSeq(model.NeedSeq(model.NeedSeq(atoms[0], atoms[1]), atoms[2]), atoms[3])
    problems = {"p": model.Problem(env(*outer), model.Unknown("F"), "G", need)}
    middle, inner = (0, 0, 0), (0, 0, 0, 0, 0)
    statements = (
        ApplyStatement(RuleId.SOLUTION_REFLECT, (), {"shape": "seq"}),
        ApplyStatement(RuleId.SEQUENCE, (0,), {}),
        ApplyStatement(RuleId.ENV_REFINE, (0, 0), {"env": env("X")}),
        ApplyStatement(RuleId.SEQUENCE, middle, {}),
        ApplyStatement(RuleId.ENV_REFINE, middle + (0,), {"env": env()}),
        ApplyStatement(RuleId.SEQUENCE, inner, {}),
        ApplyStatement(RuleId.KNOWN_SOLUTION, inner + (1,), {"solution": model.Cancel("Y")}),
        ApplyStatement(RuleId.KNOWN_SOLUTION, middle + (1,), {"solution": model.Cancel("Z")}),
        ApplyStatement(RuleId.KNOWN_SOLUTION, inner + (0,), {"solution": model.Cancel("X")}),
    )
    script = DerivationScript("nested", "p", statements)
    expected = outcome(rethread_every_statement, script, Model(), problems)
    assert outcome(build, script, Model(), problems) == expected
    kind, cause, message, path = expected
    assert (kind, cause, path) == (SideConditionViolated, "CancelMissing", inner + (0,))
    assert message.startswith("stage one's solution does not apply: ")
    assert f"domain {fails_first!r}" in message
