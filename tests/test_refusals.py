"""Every refusal of the calculus, pinned by an input that trips it.

Each CLI case is a one-problem derivation over ``MODEL`` and the line
``check`` writes to stderr for it, with exit code 2.  A refusal that the
parser stops first (a rule the grammar does not name, a validator no
model declares, a composite domain before any refinement) is a library
case, which pins the error's kind and message.
:func:`test_every_refusal_has_a_case` lists the ``raise`` statements of
the rule functions with ``ast`` and fails when no case raises one."""

import ast
import inspect
import textwrap
from typing import NamedTuple

import pytest

from deltapoe import calculus, cli, dsl
from deltapoe import model as m
from deltapoe.artifacts import RuleId
from deltapoe.calculus import RuleError, apply, open_node

MODEL = """model {
  phenomenon a : event
  phenomenon b : event
  domain A { controls a }
  domain B { observes a }
  domain C { controls b }
  domain E { }
  stakeholder G : problem-owner { trusts D }
  stakeholder D : problem-solving-delegate
  need N "one need"
  need M "another need"
}
"""


class Case(NamedTuple):
    env: str
    change: str
    need: str
    statements: str
    where: str
    kind: str
    message: str

    @property
    def text(self) -> str:
        return (MODEL + f"problem p {{ env {self.env} change {self.change} validator G need {self.need} }}\n"
                f"derivation d {{\n  problem p\n  {self.statements}\n}}\n")


CLI_CASES = {
    "delegation-without-delegate": Case(
        "[A]", "?F", "N", "apply Delegation at root",
        "root", "RuleError", "Delegation needs a 'delegate' argument"),
    "delegation-without-trust": Case(
        "[A]", "?F", "N",
        "apply Delegation at root with { delegate: D }\n  apply Delegation at root.0 with { delegate: G }",
        "root.0", "TrustMissing", "no trust edge D -> G"),
    "known-solution-with-placeholders": Case(
        "[A]", "?F", "N", "apply KnownSolution at root",
        "root", "SideConditionViolated", "known solution still contains placeholders: F"),
    "env-refine-without-env": Case(
        "[A]", "?F", "N", "apply EnvRefine at root",
        "root", "RuleError", "EnvRefine needs an 'env' argument"),
    "need-refine-without-need": Case(
        "[A]", "?F", "N", "apply NeedRefine at root",
        "root", "RuleError", "NeedRefine needs a 'need' argument"),
    "soln-refine-without-change": Case(
        "[A]", "?F", "N", "apply SolnRefine at root",
        "root", "RuleError", "SolnRefine needs a 'change' argument"),
    "reflect-a-solved-change": Case(
        "[A]", "+E", "N ; M", "apply SolutionReflect at root",
        "root", "SideConditionViolated",
        "SolutionReflect introduces structure into an unsolved change; found +E"),
    "reflect-an-atomic-need": Case(
        "[A]", "?F", "N", "apply SolutionReflect at root",
        "root", "SideConditionViolated", "SolutionReflect needs a composite need to mirror"),
    "reflect-the-wrong-composition": Case(
        "[A]", "?F", "N ; M", "apply SolutionReflect at root with { shape: par }",
        "root", "SideConditionViolated", "need composes by 'seq', not 'par'"),
    "sequence-an-unsequenced-change": Case(
        "[A]", "?F", "N ; M", "apply Sequence at root",
        "root", "SideConditionViolated", "Sequence expects a sequenced change, found ?F"),
    "sequence-an-unsequenced-need": Case(
        "[A]", "+E ; !A", "N", "apply Sequence at root",
        "root", "SideConditionViolated", "Sequence expects a sequenced need, found N"),
    "sequence-stage-one-does-not-apply": Case(
        "[A]", "?F", "N ; M",
        "apply SolutionReflect at root\n  apply Sequence at root.0\n"
        "  apply KnownSolution at root.0.0 with { solution: !E }",
        "root.0.0", "CancelMissing",
        "stage one's solution does not apply: cannot cancel domain 'E': no such domain in the environment"),
    "parallel-an-unparallel-need": Case(
        "[A]", "?F", "N", "apply Parallel at root with { left: [A], right: [] }",
        "root", "SideConditionViolated", "Parallel expects a parallel need, found N"),
    "parallel-without-split": Case(
        "[A]", "?F", "N || M", "apply Parallel at root",
        "root", "RuleError", "Parallel needs 'left' and 'right' domain lists"),
    "parallel-split-overlaps": Case(
        "[A, C]", "?F", "N || M", "apply Parallel at root with { left: [A], right: [A, C] }",
        "root", "SideConditionViolated", "environment split overlaps: A"),
    "parallel-split-short": Case(
        "[A, C]", "?F", "N || M", "apply Parallel at root with { left: [A], right: [] }",
        "root", "SideConditionViolated",
        "environment split must cover the environment exactly; mismatched: C"),
    "parallel-split-shares-phenomena": Case(
        "[A, B]", "?F", "N || M", "apply Parallel at root with { left: [A], right: [B] }",
        "root", "SideConditionViolated", "the split contexts are not phenomenally disjoint; shared: a"),
    "parallel-an-unparallel-change": Case(
        "[A, C]", "+E", "N || M", "apply Parallel at root with { left: [A], right: [C] }",
        "root", "SideConditionViolated", "Parallel expects a parallel or unsolved change, found +E"),
    "domain-add-the-wrong-atom": Case(
        "[A]", "?F", "N", "apply DomainAdd at root",
        "root", "SideConditionViolated", "DomainAdd expects a add atom, found ?F"),
    "domain-remove-the-wrong-atom": Case(
        "[A]", "?F", "N", "apply DomainRemove at root",
        "root", "SideConditionViolated", "DomainRemove expects a cancel atom, found ?F"),
    "domain-refine-the-wrong-atom": Case(
        "[A]", "!A", "N", "apply DomainRefine at root",
        "root", "SideConditionViolated", "DomainRefine expects a refine atom, found !A"),
    "domain-remove-a-missing-domain": Case(
        "[A]", "!E", "N", "apply DomainRemove at root",
        "root", "CancelMissing", "cannot cancel domain 'E': no such domain in the environment"),
    "fuse-no-pair": Case(
        "[A]", "+E", "N", "apply SeqDomainRefineEquiv at root with { direction: fuse }",
        "root", "SideConditionViolated",
        "fusing needs two sequenced refinements of one domain; found +E"),
    "split-no-refinement": Case(
        "[A]", "+E", "N", "apply SeqDomainRefineEquiv at root with { direction: split }",
        "root", "SideConditionViolated", "splitting needs a single refinement, found +E"),
    "split-without-stage": Case(
        "[A]", "A ~> d[B](E)", "N", "apply SeqDomainRefineEquiv at root with { direction: split }",
        "root", "RuleError", "splitting needs 'retained' and 'added' for the intermediate stage"),
    "rewrite-without-direction": Case(
        "[A]", "+E", "N", "apply SeqDomainRefineEquiv at root",
        "root", "RuleError", "SeqDomainRefineEquiv needs direction: fuse or split"),
    "rewrite-a-provisional-environment": Case(
        "[A]", "+E ; A ~> d[B]() ; A ~> d[C]()", "N ; M",
        "apply Sequence at root\n  apply SeqDomainRefineEquiv at root.1 with { direction: fuse }",
        "root.1", "SideConditionViolated", "cannot verify the rewrite: environment not yet determined"),
    "rewrite-a-missing-domain": Case(
        "[A]", "E ~> d[B]() ; E ~> d[C]()", "N", "apply SeqDomainRefineEquiv at root with { direction: fuse }",
        "root", "RefineMissing", "cannot refine domain 'E': no such domain in the environment"),
}


def _problem(env=(m.Domain("A"),), change=m.Unknown("F"), validator="G"):
    return m.Problem(m.Environment(tuple(env)), change, validator, m.AtomicNeed("N"))


# The first refinement installs a composite whose member Z the environment
# already holds, and the second removes the composite's members with it; the
# fused rewrite, the second refinement alone, leaves Z.
_FUSABLE = m.ChangeSeq(m.Refine("A", (m.Domain("Q", structure=("Z",)),), ()), m.Refine("A", (), ()))

# id -> (the call, the error's kind, its message)
LIBRARY_CASES = {
    "unknown-rule": (
        lambda mdl: apply("Bogus", open_node(_problem()), {}, mdl),
        "RuleError", "unknown rule 'Bogus'"),
    "delegation-from-an-undeclared-validator": (
        lambda mdl: apply(RuleId.DELEGATION, open_node(_problem(validator="X")), {"delegate": "D"}, mdl),
        "RuleError", "validator 'X' is not a declared stakeholder"),
    "rewrite-not-a-no-op": (
        lambda mdl: apply(RuleId.SEQ_DOMAIN_REFINE_EQUIV,
                          open_node(_problem((m.Domain("A"), m.Domain("Z")), _FUSABLE)), {"direction": "fuse"}, mdl),
        "SideConditionViolated", "rewrite is not a semantic no-op here: [A:AStruct[]] vs [A:AStruct[], Z]"),
}


@pytest.fixture(scope="module")
def mdl():
    return dsl.parse_file(MODEL).model


@pytest.mark.parametrize("name", CLI_CASES)
def test_check_refuses(name, tmp_path, capsys):
    case = CLI_CASES[name]
    path = tmp_path / "case.poed"
    path.write_text(case.text)
    code = cli.main(["check", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == f"{path}: derivation d: {case.where}: {case.kind}: {case.message}\n"
    assert out.endswith(f"{path}: derivation d: Invalid\n")


@pytest.mark.parametrize("name", LIBRARY_CASES)
def test_library_refuses(name, mdl):
    call, kind, message = LIBRARY_CASES[name]
    with pytest.raises(RuleError) as err:
        call(mdl)
    assert (err.value.cause_kind or err.value.kind, str(err.value)) == (kind, message)


def rule_functions():
    """The functions that hold the rules' refusals: each rule's premises
    function, and the dispatch that refuses a rule with none."""
    premises = {rule.premises.__code__: rule.premises for rule in calculus.RULES.values()}
    return [calculus._expected, *premises.values()]


def raise_sites() -> dict[int, int]:
    """The first line of each ``raise`` statement of the rule functions,
    keyed by each of its lines."""
    sites = {}
    for function in rule_functions():
        lines, start = inspect.getsourcelines(function)
        for node in ast.walk(ast.parse(textwrap.dedent("".join(lines)))):
            if isinstance(node, ast.Raise):
                first = start + node.lineno - 1
                for line in range(first, start + node.end_lineno):
                    sites[line] = first
    return sites


def raised_at(err: RuleError) -> int:
    """The line of the calculus where ``err`` was raised."""
    tb, line = err.__traceback__, None
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == calculus.__file__:
            line = tb.tb_lineno
        tb = tb.tb_next
    return line


def test_every_refusal_has_a_case(mdl):
    sites = raise_sites()
    raised = []
    for case in CLI_CASES.values():
        parsed = dsl.parse_file(case.text)
        with pytest.raises(RuleError) as err:
            calculus.build(parsed.derivations[0], parsed.model, parsed.problems)
        raised.append(raised_at(err.value))
    for call, _, _ in LIBRARY_CASES.values():
        with pytest.raises(RuleError) as err:
            call(mdl)
        raised.append(raised_at(err.value))
    assert all(line in sites for line in raised), "a case is refused outside the rule functions"
    missing = sorted(set(sites.values()) - {sites[line] for line in raised})
    assert not missing, f"no case raises the refusal at calculus.py line(s) {missing}"
