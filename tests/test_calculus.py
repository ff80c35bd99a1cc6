import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapoe import dsl, model, printer
from deltapoe.artifacts import Justification, RuleId
from deltapoe.calculus import (
    CycleDetected,
    DerivationNode,
    ImplementationPlan,
    NotOpen,
    RuleError,
    SideConditionViolated,
    TrustMissing,
    UnsolvedTree,
    _mirror_need_shape,
    apply,
    build,
    check,
    committed,
    discharge_environments,
    evidence,
    extract_plan,
    lint,
    open_node,
    seq_refine_equiv,
    solution_of,
    tangles,
)

from .conftest import FIXTURES
from .oracles import get_node, set_node


def load(name):
    return dsl.parse_file((FIXTURES / name).read_text(), name)


def build_derivation(name, which=0):
    parsed = load(name)
    script = parsed.derivations[which]
    root = build(script, parsed.model, parsed.problems)
    return parsed, root


@pytest.fixture(scope="module")
def golden():
    parsed, root = build_derivation("api_upgrade.poed")
    return parsed, root


@pytest.fixture(scope="module")
def docs_variant():
    parsed, root = build_derivation("api_upgrade_with_docs.poed")
    return parsed, root


# --- the golden two-stage upgrade -------------------------------------------------

def test_golden_checks_solved(golden):
    parsed, root = golden
    verdict = check(root, parsed.model)
    assert verdict.kind == "Solved", verdict


def test_golden_solution_string(golden):
    _, root = golden
    assert printer.pretty(solution_of(root)) == "OldAPI ~> d[OldAPI'](NewAPI) ; !OldAPI'"


def test_golden_solution_transforms_devenv(golden):
    parsed, root = golden
    problem = parsed.problems["upgrade"]
    final = model.apply_change(problem.env, solution_of(root))
    assert final == model.Environment((parsed.model.domain("NewAPI"),))


def test_golden_discharge_environments(golden):
    parsed, root = golden
    first, second = discharge_environments(root)
    composite = first.domain("OldAPI")
    assert composite.structure == ("OldAPI'", "NewAPI")
    assert set(first.names()) == {"OldAPI", "OldAPI'", "NewAPI"}
    assert second == model.Environment((parsed.model.domain("NewAPI"),))


def test_golden_plan_two_stages(golden):
    _, root = golden
    plan = extract_plan(root)
    assert plan.step_ids() == ("s1", "s2")
    assert [e.stage for e in plan.entries] == [0, 1]
    assert ("after", "s2", "s1") in plan.constraints
    s1, s2 = plan.entries[0].step, plan.entries[1].step
    assert s1.deadline.kind == "relative" and s1.deadline.value == "10.3.2"
    assert s2.deadline.kind == "absolute" and s2.deadline.value == "2024-11-01"


def test_golden_plan_is_topological(golden):
    _, root = golden
    plan = extract_plan(root)
    position = {sid: i for i, sid in enumerate(plan.step_ids())}
    for kind, later, earlier in plan.constraints:
        if kind == "after":
            assert position[earlier] < position[later]


def test_golden_threading_mutation_detected(golden):
    parsed, root = golden
    seq_path = (0, 0, 0)
    seq_node = get_node(root, seq_path)
    second = seq_node.premises[1]
    problem = second.conclusion
    stale = DerivationNode(
        model.Problem(root.conclusion.env, problem.change, problem.validator, problem.need),
        second.rule, second.premises, second.args, second.justification, second.plan,
        second.validations, second.greenfield, second.discharged, second.env_provisional,
        second.marker, second.alternatives,
    )
    mutated = set_node(root, seq_path + (1,), stale)
    verdict = check(mutated, parsed.model)
    assert verdict.kind == "Invalid"
    assert any(d.kind == "ThreadingMismatch" for d in verdict.diagnostics)


def test_single_open_root_is_incomplete(golden):
    parsed, _ = golden
    verdict = check(open_node(parsed.problems["upgrade"]), parsed.model)
    assert verdict.kind == "Incomplete"
    assert len(verdict.open_items) == 1


# --- the documentation variant ----------------------------------------------------

def test_docs_variant_solved(docs_variant):
    parsed, root = docs_variant
    assert check(root, parsed.model).kind == "Solved"


def test_docs_variant_solution_is_parallel_chains(docs_variant):
    _, root = docs_variant
    text = printer.pretty(solution_of(root))
    assert text == (
        "OldAPI ~> d[OldAPI'](NewAPI) ; !OldAPI'"
        " || "
        "OldDoc ~> d[OldDoc'](NewDoc) ; !OldDoc'"
    )


def test_docs_variant_solution_applies(docs_variant):
    parsed, root = docs_variant
    problem = parsed.problems["upgrade_with_docs"]
    final = model.apply_change(problem.env, solution_of(root))
    assert set(final.names()) == {"NewAPI", "NewDoc"}


def test_docs_variant_plan_keeps_internal_order_and_marks_parallel(docs_variant):
    _, root = docs_variant
    plan = extract_plan(root)
    order = plan.step_ids()
    assert order.index("a1") < order.index("a2")
    assert order.index("d1") < order.index("d2")
    marks = {(a, b) for kind, a, b in plan.constraints if kind == "parallel_ok"}
    assert {("d1", "a1"), ("d1", "a2"), ("d2", "a1"), ("d2", "a2")} <= marks


def test_parallel_split_rejected_with_shared_set():
    parsed = load("mutations/m4_parallel_shared_phenomena.poed")
    with pytest.raises(SideConditionViolated) as err:
        build(parsed.derivations[0], parsed.model, parsed.problems)
    assert err.value.shared == {"api.call"}


# --- mutation suite ------------------------------------------------------------------

def reject(name):
    parsed = load(f"mutations/{name}")
    try:
        root = build(parsed.derivations[0], parsed.model, parsed.problems)
    except RuleError as err:
        return err
    verdict = check(root, parsed.model)
    assert verdict.kind == "Invalid", f"{name} was not rejected: {verdict}"
    return verdict


def test_mutation_swapped_sequence_premises():
    err = reject("m1_swapped_sequence_premises.poed")
    assert isinstance(err, SideConditionViolated)
    assert err.cause_kind == "CancelMissing"
    assert dsl.path_str(err.path) == "root.0.0.0.0.0"


def test_mutation_known_solution_unvalidated():
    verdict = reject("m2_known_solution_unvalidated.poed")
    assert any(d.kind == "MissingValidation" for d in verdict.diagnostics)


def test_mutation_delegation_without_trust():
    err = reject("m3_delegation_without_trust.poed")
    assert isinstance(err, TrustMissing)


def test_mutation_parallel_shared_phenomena():
    err = reject("m4_parallel_shared_phenomena.poed")
    assert isinstance(err, SideConditionViolated)
    assert err.shared == {"api.call"}


def test_mutation_missing_required_j_field():
    verdict = reject("m5_missing_required_j_field.poed")
    assert any(
        d.kind == "MissingJustification" and "coordination_rationale" in d.message
        for d in verdict.diagnostics
    )


def test_mutation_cancel_missing_domain():
    verdict = reject("m6_cancel_missing_domain.poed")
    assert any(d.kind == "CancelMissing" for d in verdict.diagnostics)


# --- rule application unit behaviour ---------------------------------------------------

SMALL = """
model {
  phenomenon box.out : event
  domain Box { controls box.out }
  domain Lid { }
  stakeholder G : problem-owner { trusts D }
  stakeholder D : problem-solving-delegate
  need Sorted "things sorted"
  need Tidied "things tidied"
}
problem p { env [Box] change ?F validator G need Sorted }
"""


@pytest.fixture
def small():
    parsed = dsl.parse_file(SMALL)
    return parsed.model, parsed.problems["p"]


def test_apply_is_rejected_on_non_open_node(small):
    mdl, problem = small
    node = apply(RuleId.DELEGATION, open_node(problem), {"delegate": "D"}, mdl)
    with pytest.raises(NotOpen):
        apply(RuleId.DELEGATION, node, {"delegate": "D"}, mdl)


def test_delegation_requires_trust(small):
    mdl, problem = small
    flipped = model.Problem(problem.env, problem.change, "D", problem.need)  # D trusts nobody
    with pytest.raises(TrustMissing):
        apply(RuleId.DELEGATION, open_node(flipped), {"delegate": "G"}, mdl)


def test_delegation_records_trust_edge(small):
    mdl, problem = small
    node = apply(RuleId.DELEGATION, open_node(problem), {"delegate": "D"}, mdl)
    assert evidence(node) == {"trust": "G->D"}
    assert node.premises[0].conclusion.validator == "D"


def test_known_solution_rejects_placeholders(small):
    mdl, problem = small
    with pytest.raises(SideConditionViolated):
        apply(RuleId.KNOWN_SOLUTION, open_node(problem), {}, mdl)


def test_known_solution_without_validation_fails_check(small):
    mdl, problem = small
    node = apply(
        RuleId.KNOWN_SOLUTION,
        open_node(problem),
        {"solution": model.Add(mdl.domain("Lid"))},
        mdl,
    )
    assert node.justification == Justification() and not node.plan and not node.validations
    node = DerivationNode(node.conclusion, node.rule, node.premises, node.args,
                          Justification(rule_rationale="known"))
    verdict = check(node, mdl)
    assert verdict.kind == "Invalid"
    assert any(d.kind == "MissingValidation" for d in verdict.diagnostics)


def test_solution_reflect_mirrors_need_shape(small):
    mdl, problem = small
    shaped = model.Problem(
        problem.env, problem.change, problem.validator,
        model.NeedSeq(mdl.need("Sorted"), mdl.need("Tidied")),
    )
    node = apply(RuleId.SOLUTION_REFLECT, open_node(shaped), {"shape": "seq"}, mdl)
    premise_change = node.premises[0].conclusion.change
    assert premise_change == model.ChangeSeq(model.Unknown("F1"), model.Unknown("F2"))
    assert evidence(node) == {"shape": "seq"}


def test_solution_reflect_rejects_atomic_need(small):
    mdl, problem = small
    with pytest.raises(SideConditionViolated):
        apply(RuleId.SOLUTION_REFLECT, open_node(problem), {}, mdl)


def test_solution_of_passes_known_solution_through(small):
    mdl, problem = small
    explicit = model.Add(mdl.domain("Lid"))
    node = apply(RuleId.KNOWN_SOLUTION, open_node(problem), {"solution": explicit}, mdl)
    assert solution_of(node) == explicit


def test_solution_of_unsolved_raises(small):
    _, problem = small
    with pytest.raises(UnsolvedTree):
        solution_of(open_node(problem))


def test_extract_plan_unsolved_raises(small):
    _, problem = small
    with pytest.raises(UnsolvedTree):
        extract_plan(open_node(problem))


# --- alternatives ------------------------------------------------------------------------

ALT_SCRIPT = SMALL + """
derivation alt_demo {
  problem p
  apply KnownSolution at root with { solution: +Lid } %s
  justify { rule "adding the lid is enough" }
  validated by G granted
  apply SolnRefine at root with { change: !Box } alternative
  justify { rule "considered removing the box instead" }
}
"""


def test_chosen_alternative_solves():
    parsed = dsl.parse_file(ALT_SCRIPT % "chosen")
    root = build(parsed.derivations[0], parsed.model, parsed.problems)
    assert len(root.alternatives) == 1
    assert check(root, parsed.model).kind == "Solved"
    assert solution_of(root) == model.Add(parsed.model.domain("Lid"))


def test_unmarked_choice_stays_incomplete():
    parsed = dsl.parse_file(ALT_SCRIPT % "")
    root = build(parsed.derivations[0], parsed.model, parsed.problems)
    verdict = check(root, parsed.model)
    assert verdict.kind == "Incomplete"
    assert any("chosen" in item for item in verdict.open_items)


def test_invalid_alternative_invalidates_tree():
    parsed = dsl.parse_file(
        ALT_SCRIPT % "chosen"
        + """
derivation bad_alt {
  problem p
  apply KnownSolution at root with { solution: +Lid } chosen
  justify { rule "adding the lid is enough" }
  validated by G granted
  apply KnownSolution at root with { solution: !Ghost } alternative
  justify { rule "cancel something that is not there" }
  validated by G granted
}
"""
    )
    root = build(parsed.derivations[1], parsed.model, parsed.problems)
    verdict = check(root, parsed.model)
    assert verdict.kind == "Invalid"
    assert any(d.kind == "CancelMissing" for d in verdict.diagnostics)


# --- plan constraint handling ---------------------------------------------------------

CYCLE_SCRIPT = SMALL + """
derivation tangled_plan {
  problem p
  apply KnownSolution at root with { solution: +Lid }
  justify {
    rule "one addition, two steps that wait on each other"
    risk "deadlocked schedule" mitigation "none"
  }
  plan {
    step w1 "first half" installs +Lid after w2
    step w2 "second half" installs !Lid after w1
  }
  validated by G granted
}
"""


def test_cyclic_plan_constraints_detected():
    parsed = dsl.parse_file(CYCLE_SCRIPT)
    root = build(parsed.derivations[0], parsed.model, parsed.problems)
    with pytest.raises(CycleDetected):
        extract_plan(root)


SINGLETON_SCRIPT = SMALL + """
derivation one_step {
  problem p
  apply KnownSolution at root with { solution: +Lid }
  justify { rule "adding the lid is enough" }
  plan { step only "install the lid" installs +Lid }
  validated by G granted
}
"""


def test_single_known_solution_yields_one_step_plan():
    parsed = dsl.parse_file(SINGLETON_SCRIPT)
    root = build(parsed.derivations[0], parsed.model, parsed.problems)
    plan = extract_plan(root)
    assert plan.step_ids() == ("only",)
    assert [e.stage for e in plan.entries] == [0]


def test_multi_step_fragment_requires_risk_register():
    parsed = dsl.parse_file(
        SMALL
        + """
derivation riskless {
  problem p
  apply KnownSolution at root with { solution: +Lid }
  justify { rule "two steps, no risks recorded" }
  plan {
    step one "install" installs +Lid
    step two "check fit" installs skip after one
  }
  validated by G granted
}
"""
    )
    root = build(parsed.derivations[0], parsed.model, parsed.problems)
    findings = lint(root)
    assert any(
        d.kind == "MissingJustification" and "risk register" in d.message
        for d in findings
    )


def test_wrong_validator_on_discharge_detected():
    src = (FIXTURES / "api_upgrade.poed").read_text()
    mutated = src.replace("  discharge at root.0.0.0.1.0.0\n  validated by D granted",
                          "  discharge at root.0.0.0.1.0.0\n  validated by G granted")
    assert mutated != src
    parsed = dsl.parse_file(mutated)
    root = build(parsed.derivations[0], parsed.model, parsed.problems)
    verdict = check(root, parsed.model)
    assert verdict.kind == "Invalid"
    kinds = {d.kind for d in verdict.diagnostics}
    assert "WrongValidator" in kinds and "MissingValidation" in kinds


def test_apply_rejected_on_greenfield_obligation(golden):
    parsed, root = golden
    leaf = get_node(root, (0, 0, 0, 0, 0, 0))
    assert leaf.greenfield
    with pytest.raises(NotOpen):
        reopened = DerivationNode(leaf.conclusion, leaf.rule, leaf.premises, leaf.args,
                                  leaf.justification, leaf.plan, leaf.validations,
                                  leaf.greenfield, False, leaf.env_provisional, leaf.marker,
                                  leaf.alternatives)
        apply(RuleId.KNOWN_SOLUTION, reopened, {}, parsed.model)


# --- tangles ------------------------------------------------------------------------------

def test_phone_upgrade_tangle():
    parsed = load("phone_upgrade.poed")
    problems = [
        parsed.problems["affordability"],
        parsed.problems["transfer"],
        parsed.problems["timing"],
    ]
    report = tangles(problems)
    assert len(report) == 3
    for pair in report:
        assert pair.tangled
        assert pair.shared_symbols() == {"Phone", "F", "G"}


def test_disjoint_problems_do_not_tangle():
    parsed = dsl.parse_file(
        """
model {
  phenomenon a.x : event
  phenomenon b.x : event
  domain A { controls a.x }
  domain B { controls b.x }
  stakeholder G : problem-owner
  stakeholder H : problem-owner
  need NA "na"
  need NB "nb"
}
problem pa { env [A] change ?FA validator G need NA }
problem pb { env [B] change ?FB validator H need NB }
"""
    )
    (pair,) = tangles([parsed.problems["pa"], parsed.problems["pb"]])
    assert not pair.tangled


def test_api_docs_tangle_through_phenomena():
    parsed = load("devenv.poed")
    api = dsl.parse_problem("[OldAPI] (+) ?FA |= G : UpdateAPI", parsed.model)
    docs = dsl.parse_problem("[Docs] (+) ?FD |= D : UpdateAPI", parsed.model)
    (pair,) = tangles([api, docs])
    assert pair.tangled
    assert pair.phenomena == {"api.call"}
    assert pair.shared_symbols() == frozenset()


# --- sequential domain refinement equivalence ------------------------------------------------

@st.composite
def refine_chains(draw):
    base = model.Domain("Base", controlled=frozenset({"base.out"}))
    target = model.Domain("T", controlled=frozenset({"t.out"}))
    env = model.Environment((base, target))
    pool = [model.Domain(f"S{i}", controlled=frozenset({f"s{i}.out"})) for i in range(6)]
    take = iter(pool)

    def group(max_size):
        k = draw(st.integers(min_value=1, max_value=max_size))
        return tuple(next(take) for _ in range(k))

    first = model.Refine("T", group(2), group(1))
    second = model.Refine("T", group(1), group(2))
    return env, model.ChangeSeq(first, second)


@given(refine_chains())
@settings(max_examples=60)
def test_seq_refine_equiv_is_semantic_noop(case):
    env, chain = case
    fused = seq_refine_equiv(env, chain, "fuse")
    assert isinstance(fused, model.Refine)
    assert model.apply_change(env, chain) == model.apply_change(env, fused)
    back = seq_refine_equiv(
        env, fused, "split",
        retained=chain.first.retained, added=chain.first.added,
    )
    assert back == chain
    assert model.apply_change(env, back) == model.apply_change(env, fused)


def test_seq_refine_equiv_rejects_mismatched_targets():
    a = model.Domain("A")
    b = model.Domain("B")
    env = model.Environment((a, b))
    chain = model.ChangeSeq(
        model.Refine("A", (model.Domain("A1"),), ()),
        model.Refine("B", (model.Domain("B1"),), ()),
    )
    with pytest.raises(SideConditionViolated):
        seq_refine_equiv(env, chain, "fuse")


# --- committed solutions of partial trees ----------------------------------------------------

def test_committed_is_none_while_open(small):
    mdl, problem = small
    node = apply(RuleId.DELEGATION, open_node(problem), {"delegate": "D"}, mdl)
    assert committed(node) is None


# --- nested staging: a three-stage rollout ------------------------------------------------------

THREE_STAGE = """
model {
  phenomenon base.run : event
  phenomenon m1.out : event
  phenomenon m2.out : event
  phenomenon m3.out : event
  domain Base { controls base.run }
  domain M1 { controls m1.out }
  domain M2 { controls m2.out }
  domain M3 { controls m3.out }
  stakeholder G : problem-owner
  need N1 "first milestone"
  need N2 "second milestone"
  need N3 "third milestone"
}

problem rollout { env [Base] change ?F validator G need N1 ; N2 ; N3 }

derivation three_stages {
  problem rollout

  apply SolutionReflect at root
  justify { rule "one component per milestone" }

  apply Sequence at root.0
  justify { rule "milestones land in order"
            dependency "each milestone builds on the previous install"
            timeline "one release apart" }

  apply SolnRefine at root.0.0 with { change: +M1 }
  justify { rule "milestone one installs M1" }
  apply DomainAdd at root.0.0.0
  justify { rule "M1 is new" }
  plan { step q1 "install M1" installs +M1 }
  discharge at root.0.0.0.0
  validated by G granted

  apply Sequence at root.0.1
  justify { rule "the remaining milestones stay ordered"
            dependency "M3 assumes M2 is serving"
            timeline "back to back releases" }

  apply SolnRefine at root.0.1.0 with { change: +M2 }
  justify { rule "milestone two installs M2" }
  apply DomainAdd at root.0.1.0.0
  justify { rule "M2 is new" }
  plan { step q2 "install M2" installs +M2 after q1 }
  discharge at root.0.1.0.0.0
  validated by G granted

  apply SolnRefine at root.0.1.1 with { change: +M3 }
  justify { rule "milestone three installs M3" }
  apply DomainAdd at root.0.1.1.0
  justify { rule "M3 is new" }
  plan { step q3 "install M3" installs +M3 after q2 }
  discharge at root.0.1.1.0.0
  validated by G granted
}
"""


def test_three_stage_nested_sequencing():
    parsed = dsl.parse_file(THREE_STAGE)
    root = build(parsed.derivations[0], parsed.model, parsed.problems)
    verdict = check(root, parsed.model)
    assert verdict.kind == "Solved", verdict

    solution = solution_of(root)
    assert printer.pretty(solution) == "+M1 ; +M2 ; +M3"

    final = model.apply_change(parsed.problems["rollout"].env, solution)
    assert final.names() == ("Base", "M1", "M2", "M3")
    # nested stage environments threaded one milestone at a time
    envs = discharge_environments(root)
    assert [e.names() for e in envs] == [
        ("Base", "M1"),
        ("Base", "M1", "M2"),
        ("Base", "M1", "M2", "M3"),
    ]
    assert final == envs[-1]

    plan = extract_plan(root)
    assert plan.step_ids() == ("q1", "q2", "q3")
    assert [e.stage for e in plan.entries] == [0, 1, 2]


def test_docs_solution_par_is_order_independent(docs_variant):
    parsed, root = docs_variant
    solution = solution_of(root)
    env = parsed.problems["upgrade_with_docs"].env
    swapped = model.ChangePar(solution.right, solution.left)
    assert model.apply_change(env, solution) == model.apply_change(env, swapped)


# --- parallel acceptance matches phenomenal disjointness ---------------------------------------

from .strategies import environments  # noqa: E402


@given(environments(max_domains=8), st.data())
@settings(max_examples=120, deadline=None)
def test_parallel_accepts_iff_contexts_share_nothing(env, data):
    names = list(env.names())
    if len(names) < 2:
        return
    split = data.draw(st.integers(min_value=1, max_value=len(names) - 1))
    left, right = names[:split], names[split:]
    mdl = dsl.Model(environment=env, needs=(model.AtomicNeed("L"), model.AtomicNeed("R")))
    problem = model.Problem(
        env,
        model.Unknown("F"),
        "G",
        model.NeedPar(model.AtomicNeed("L"), model.AtomicNeed("R")),
    )
    e_left = model.Environment(tuple(d for d in env if d.name in left))
    e_right = model.Environment(tuple(d for d in env if d.name in right))
    shared = model.shared_phenomena(e_left, e_right)
    try:
        node = apply(
            RuleId.PARALLEL,
            open_node(problem),
            {"left": tuple(left), "right": tuple(right)},
            mdl,
        )
    except SideConditionViolated as err:
        assert err.shared == shared and shared
        return
    assert shared == frozenset()
    assert evidence(node)["shared"] == []


# --- evidence rendered on demand against the evidence computed with the premises ------
# (every fixture, mutation and generated tree is compared in test_build_incremental)

from .oracles import eager_evidence  # noqa: E402


def test_evidence_of_rules_no_fixture_reaches():
    a = model.Domain("A", controlled=frozenset({"a"}))
    b = model.Domain("B", observed=frozenset({"x"}))
    c = model.Domain("C")
    env = model.Environment((a, b))
    need = model.NeedPar(model.AtomicNeed("L"), model.AtomicNeed("R"))
    mdl = dsl.Model(environment=env)

    split = apply(RuleId.PARALLEL, open_node(model.Problem(env, model.Unknown("F"), "G", need)),
                  {"left": ("B", "A", "B"), "right": ()}, mdl)
    assert evidence(split) == {"shared": [], "left": ["A", "B"], "right": []}

    narrowed = apply(RuleId.ENV_REFINE, open_node(model.Problem(env, model.Unknown("F"), "G", need)),
                     {"env": model.Environment((a,))}, mdl)
    assert evidence(narrowed) == {}

    d = model.Domain("D", controlled=frozenset({"a"}))
    two = model.ChangeSeq(model.Refine("A", (c,), (d,)), model.Refine("A", (d,), ()))
    fused = apply(RuleId.SEQ_DOMAIN_REFINE_EQUIV, open_node(model.Problem(env, two, "G", need)),
                  {"direction": "fuse"}, mdl)
    split_up = apply(RuleId.SEQ_DOMAIN_REFINE_EQUIV, open_node(model.Problem(env, two.second, "G", need)),
                     {"direction": "split", "retained": (c,), "added": (d,)}, mdl)
    for node in (split, narrowed, fused, split_up):
        assert evidence(node) == eager_evidence(node)
    assert evidence(fused)["after"] == printer.change_str(two.second)


# --- a refinement that installs one name twice ------------------------------------------

DUPLICATE_REFINE = """
model {
  phenomenon x : event
  domain X { controls x }
  domain A { observes x }
  stakeholder G : problem-owner
  need N "a need"
}
problem p { env [X] change ?F validator G need N }
derivation d {
  problem p
  apply SolnRefine at root with { change: %s }
  apply DomainRefine at root.0
}
"""


@pytest.mark.parametrize("change,name", [("X ~> d[A](A)", "A"), ("X ~> d[X]()", "X")])
def test_refine_installing_a_name_twice_violates_side_condition(change, name):
    parsed = dsl.parse_file(DUPLICATE_REFINE % change)
    with pytest.raises(SideConditionViolated) as err:
        build(parsed.derivations[0], parsed.model, parsed.problems)
    assert err.value.cause_kind == "ModelError"
    assert str(err.value) == f"duplicate domain name {name!r} in environment"
    assert err.value.path == (0,)


from .oracles import mirror_need_shape_recursive  # noqa: E402
from .strategies import needs  # noqa: E402


@given(needs(max_leaves=10))
def test_mirror_walk_matches_the_recursive_one(need):
    assert _mirror_need_shape(need, "F") == mirror_need_shape_recursive(need, "F")


def test_mirror_walk_handles_a_long_need():
    steps = 1200
    need = model.AtomicNeed("N")
    for _ in range(steps - 1):
        need = model.NeedSeq(model.AtomicNeed("N"), need)
    change = _mirror_need_shape(need, "F")
    for k in range(1, steps):
        assert change.first == model.Unknown(f"F{k}")
        change = change.second
    assert change == model.Unknown(f"F{steps}")


# --- read-only passes over one stack-based walk ------------------------------------------

import heapq  # noqa: E402
import itertools  # noqa: E402

from deltapoe import export  # noqa: E402
from deltapoe.artifacts import PlanStep, RiskItem  # noqa: E402
from deltapoe.calculus import RULES, _plan_graph, _plan_order, preorder  # noqa: E402

from .oracles import (  # noqa: E402
    committed_recursive,
    derivation_dot_recursive,
    discharge_environments_recursive,
    extract_plan_reference,
    lint_recursive,
    plan_fragments_recursive,
    plan_order_reference,
)

PLAN_PROBLEM = model.Problem(model.Environment(()), model.Unknown("F"), "G", model.AtomicNeed("N"))
OTHER_PROBLEM = model.Problem(model.Environment((model.Domain("X"),)), model.Unknown("H"), "V",
                              model.AtomicNeed("M"))
STEP_IDS = ("s0", "s1", "s2", "s3", "s4")
JUSTIFICATIONS = (
    Justification(),
    Justification(rule_rationale="r"),
    Justification(rule_rationale="r", dependency_argument="d", timeline_rationale="t",
                  coordination_rationale="c", validation_criteria="v",
                  risk_register=(RiskItem("risk", "mitigation"),)),
)


@st.composite
def plan_trees(draw, depth=4):
    """Trees of Sequence, Parallel, one-premise and leaf nodes, with
    nested alternatives and subtrees that sit at two places, whose plan
    steps share ids and refer to each other and to unknown ids; the
    read-only passes read no more."""
    rule = draw(st.sampled_from([None, RuleId.SEQUENCE, RuleId.PARALLEL, RuleId.SOLN_REFINE,
                                 RuleId.DELEGATION] if depth else [None]))
    arity = {None: 0, RuleId.SOLN_REFINE: 1, RuleId.DELEGATION: 1}.get(rule, 2)
    premises = []
    for _ in range(arity):
        fresh = plan_trees(depth - 1)
        premises.append(draw(st.one_of(fresh, st.sampled_from(premises)) if premises else fresh))
    alternatives = tuple(draw(st.lists(plan_trees(depth - 1), max_size=1 if depth > 1 else 0)))
    refs = st.lists(st.sampled_from(STEP_IDS + ("ghost",)), max_size=2).map(tuple)
    steps = draw(st.lists(st.builds(PlanStep, st.sampled_from(STEP_IDS), st.just("act"),
                                    st.just(model.Unknown("F")), refs, refs), max_size=2))
    return DerivationNode(
        draw(st.sampled_from([PLAN_PROBLEM, OTHER_PROBLEM])), rule, tuple(premises),
        justification=draw(st.sampled_from(JUSTIFICATIONS)), plan=tuple(steps),
        greenfield=rule is None and draw(st.booleans()), discharged=draw(st.booleans()),
        alternatives=alternatives,
    )


def plan_order_outcome(order):
    """What ``order()`` gives: what it places, or the ids of the cycle it raises."""
    try:
        return order()
    except CycleDetected as err:
        return err.stuck


def assert_graph_orders_as_every_pair(root):
    """The plan graph holds the entries of the recursive walk, and its
    edges place them in the order, or leave the same steps in a cycle, as
    every pair of stages does."""
    _, entries, _, edges, _, _, _ = _plan_graph(root)
    expected_entries, constraints = plan_fragments_recursive(root)
    assert entries == expected_entries
    placed = plan_order_outcome(lambda: _plan_order(entries, edges, heapq.heappush, heapq.heappop))
    expected = plan_order_outcome(lambda: plan_order_reference(expected_entries, constraints))
    assert (placed if isinstance(placed, tuple) else [e.step.id for e in placed]) == expected


@st.composite
def solved_plan_trees(draw):
    """``plan_trees`` with each premise a subtree of its own, each open leaf
    a greenfield obligation, so that the tree commits a solution, and each
    plan step an id of its own, which the references name: plans that are
    extracted or that wait on each other in a cycle."""
    number = itertools.count()

    def fresh(node):
        steps = tuple(step._replace(id=f"t{next(number)}") for step in node.plan)
        return node._replace(premises=tuple(map(fresh, node.premises)), plan=steps,
                             alternatives=tuple(map(fresh, node.alternatives)),
                             greenfield=node.rule is None)

    root = fresh(draw(plan_trees()))
    ids = [f"t{k}" for k in range(next(number))]  # the next number is how many were made
    names = st.lists(st.sampled_from(ids * 8 + ["ghost"]), max_size=2).map(tuple)

    def refer(node):
        steps = tuple(step._replace(after=draw(names), parallel_ok=draw(names)) for step in node.plan)
        return node._replace(premises=tuple(map(refer, node.premises)), plan=steps,
                             alternatives=tuple(map(refer, node.alternatives)))

    return refer(root)


@given(st.one_of(plan_trees(), solved_plan_trees()))
@settings(deadline=None)
def test_plan_graph_orders_as_the_recursive_walk(root):
    assert_graph_orders_as_every_pair(root)


def plan_outcome(root):
    """``extract_plan``'s plan, or the kind and message of its refusal."""
    try:
        return extract_plan(root)
    except (UnsolvedTree, CycleDetected) as err:
        return type(err).__name__, str(err)


STEP_FINDINGS = {"DuplicateStep", "UnknownStep", "CyclicPlan"}


@given(st.one_of(plan_trees(), solved_plan_trees()))
@settings(max_examples=150, deadline=None)
def test_lint_finds_a_cycle_exactly_when_the_plan_cannot_be_ordered(root):
    """``lint`` reports CyclicPlan exactly when ordering every pair of
    stages leaves steps in a cycle; with no finding on its steps, a tree's
    plan is extracted or refused as unsolved, and a plan the reference
    extracts is the same entries, order and constraints."""
    kinds = {d.kind for d in lint(root)}
    every_pair = plan_order_outcome(lambda: plan_order_reference(*plan_fragments_recursive(root)))
    assert ("CyclicPlan" in kinds) == isinstance(every_pair, tuple)
    got = plan_outcome(root)
    if not kinds & STEP_FINDINGS:
        assert isinstance(got, ImplementationPlan) or got == (
            "UnsolvedTree", "cannot extract a plan from an unsolved derivation")
    try:
        expected = extract_plan_reference(root)
    except (UnsolvedTree, CycleDetected):
        return
    assert got == expected


def test_extract_plan_matches_the_reference_on_the_fixtures(golden, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    staged = importlib.import_module("families").StagedDerivation(1, 40, tmp_path)
    parsed = dsl.parse_file(Path(staged.path).read_text(), staged.path)
    for root in (golden[1], build(parsed.derivations[0], parsed.model, parsed.problems)):
        plan = extract_plan(root)
        assert plan == extract_plan_reference(root)
        assert plan.entries


def test_a_plan_step_id_used_twice_is_refused_by_name():
    steps = (PlanStep("a", "act", model.Unknown("F")), PlanStep("a", "again", model.Unknown("F")))
    root = DerivationNode(PLAN_PROBLEM, greenfield=True, plan=steps)
    with pytest.raises(UnsolvedTree, match="plan step id 'a' is used twice"):
        extract_plan(root)
    with pytest.raises(CycleDetected, match="cycle over: $"):
        extract_plan_reference(root)


@pytest.mark.parametrize("stages", [20, 80])
def test_the_plan_graph_of_a_staged_derivation_is_linear(stages, monkeypatch, tmp_path):
    """Each stage's step waits on the one before, as declared and as the
    Sequence above it orders them: at most two edges a stage, where every
    pair of stages made stages * (stages - 1) / 2."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    staged = importlib.import_module("families").StagedDerivation(1, stages, tmp_path)
    parsed = dsl.parse_file(Path(staged.path).read_text(), staged.path)
    root = build(parsed.derivations[0], parsed.model, parsed.problems)
    _, entries, _, edges, _, _, _ = _plan_graph(root)
    assert len(entries) == stages
    assert len(edges) <= 2 * stages


@given(plan_trees())
@settings(max_examples=150, deadline=None)
def test_read_only_passes_match_the_recursive_ones(root):
    assert [str(d) for d in lint(root)] == [str(d) for d in lint_recursive(root)]
    assert discharge_environments(root) == discharge_environments_recursive(root)
    assert export.derivation_dot(root, "t") == derivation_dot_recursive(root, "t")


def test_preorder_visits_premises_before_alternatives_and_shared_nodes_twice():
    leaf = DerivationNode(PLAN_PROBLEM)
    alt = DerivationNode(PLAN_PROBLEM, RuleId.SOLN_REFINE, (leaf,))
    root = DerivationNode(PLAN_PROBLEM, RuleId.SEQUENCE, (leaf, leaf), alternatives=(alt,))
    assert [(node is leaf, path, in_alt) for node, path, in_alt in preorder(root)] == [
        (False, (), False),
        (True, (0,), False),
        (True, (1,), False),
        (False, (("alt", 1),), True),
        (True, (("alt", 1), 0), True),
    ]


def test_shared_subtrees_give_the_recursive_results():
    first = DerivationNode(PLAN_PROBLEM, plan=(PlanStep("a", "act", model.Unknown("F")),))
    second = DerivationNode(PLAN_PROBLEM, plan=(PlanStep("b", "act", model.Unknown("F"),
                                                         parallel_ok=("a",)),),
                            greenfield=True)
    inner = DerivationNode(PLAN_PROBLEM, RuleId.SEQUENCE, (first, second),
                           justification=JUSTIFICATIONS[1])
    root = DerivationNode(PLAN_PROBLEM, RuleId.PARALLEL, (inner, inner), alternatives=(inner,))
    findings = lint(root)
    assert [str(d) for d in findings] == [str(d) for d in lint_recursive(root)]
    assert {d.kind for d in findings} >= {"DuplicateStep", "MissingConstraint", "ConflictingConstraint"}
    assert_graph_orders_as_every_pair(root)
    assert discharge_environments(root) == discharge_environments_recursive(root)
    assert export.derivation_dot(root) == derivation_dot_recursive(root)


def test_a_stage_with_no_step_passes_its_sibling_s_ends_on():
    """A Sequence one of whose stages has no step begins and ends where
    the other one does, so a Sequence above it still orders that stage's
    steps: ``a`` comes before ``c`` by the stages, and waits on it."""
    def leaf(*steps):
        return DerivationNode(PLAN_PROBLEM, greenfield=True, plan=steps)

    def sequence(first, second):
        return DerivationNode(PLAN_PROBLEM, RuleId.SEQUENCE, (first, second))

    a = leaf(PlanStep("a", "act", model.Unknown("F"), after=("c",)))
    c = leaf(PlanStep("c", "act", model.Unknown("F")))
    for root in (sequence(sequence(a, leaf()), c), sequence(sequence(leaf(), sequence(a, leaf())), c)):
        assert "CyclicPlan" in {d.kind for d in lint(root)}
        for extract in (extract_plan, extract_plan_reference):
            with pytest.raises(CycleDetected, match="cycle over: a, c$"):
                extract(root)
    a = leaf(PlanStep("a", "act", model.Unknown("F")))
    c = leaf(PlanStep("c", "act", model.Unknown("F"), after=("a",)))
    root = sequence(c, sequence(leaf(), a))
    assert "CyclicPlan" in {d.kind for d in lint(root)}
    with pytest.raises(CycleDetected, match="cycle over: a, c$"):
        extract_plan(root)


DEEP = 3000
DEEP_RULES = (RuleId.SEQUENCE, RuleId.PARALLEL, RuleId.SOLN_REFINE)


def deep_chain(rule, depth=DEEP):
    """``depth`` nodes of ``rule``, each Sequence or Parallel node's first
    premise one shared greenfield leaf, above a leaf whose step names an
    unknown step."""
    step = PlanStep("s", "act", model.Unknown("F"), after=("ghost",))
    side = DerivationNode(PLAN_PROBLEM, greenfield=True)
    root = DerivationNode(PLAN_PROBLEM, plan=(step,), greenfield=True)
    for _ in range(depth):
        premises = (root,) if rule is RuleId.SOLN_REFINE else (side, root)
        root = DerivationNode(PLAN_PROBLEM, rule, premises, justification=JUSTIFICATIONS[2])
    bottom = (0,) * depth if rule is RuleId.SOLN_REFINE else (1,) * depth
    return root, step, bottom


def test_plan_graph_handles_a_deep_tree():
    for rule in DEEP_RULES:
        root, step, bottom = deep_chain(rule)
        order, entries, _, edges, _, _, findings = _plan_graph(root)
        stage = DEEP if rule is RuleId.SEQUENCE else 0
        assert [(e.step, e.stage) for e in entries] == [(step, stage)], rule
        assert edges == [("s", "ghost")]
        (index, found), = ((index, found) for index, found in enumerate(findings) if found)
        assert order[index][1] == bottom
        assert found == [("UnknownStep", "step 's' references unknown step 'ghost'")]


@pytest.mark.parametrize("rule", DEEP_RULES, ids=lambda rule: rule.value)
def test_read_only_passes_handle_a_deep_tree(rule):
    root, _, bottom = deep_chain(rule)
    assert [str(d) for d in lint(root)] == [f"{dsl.path_str(bottom)}: UnknownStep: "
                                            "step 's' references unknown step 'ghost'"]
    greenfield = 1 if rule is RuleId.SOLN_REFINE else DEEP + 1
    assert discharge_environments(root) == (PLAN_PROBLEM.env,) * greenfield
    text = export.derivation_dot(root)
    nodes = 1 + DEEP * (1 if rule is RuleId.SOLN_REFINE else 2)
    assert text.count("[label=") == nodes and text.count(" -> ") == nodes - 1
    ident = "n_" + "_".join(map(str, bottom))
    assert f"  {ident} [label=" in text
    assert f"  {ident} -> {ident[:-2]};" in text
    assert text.endswith(f"  n_{bottom[0]} -> n_root;\n}}\n")


# --- committed solutions over one stack-based walk -------------------------------------

CHANGES = (model.Unknown("F"), model.Nil(), model.ChangeSeq(model.Unknown("F"), model.Nil()))


@st.composite
def solution_trees(draw, depth=4):
    """Trees of every rule, each node with its rule's number of premises,
    whose conclusions and known solutions are a few changes;
    ``committed`` reads no more."""
    rule = draw(st.sampled_from([None] + [rule for rule in RuleId if depth or not RULES[rule].arity]))
    premises = tuple(draw(solution_trees(depth - 1)) for _ in range(RULES[rule].arity if rule else 0))
    problem = model.Problem(model.Environment(()), draw(st.sampled_from(CHANGES)), "G",
                            model.AtomicNeed("N"))
    args = {"solution": draw(st.sampled_from(CHANGES))} if draw(st.booleans()) else {}
    return DerivationNode(problem, rule, premises, args=args,
                          greenfield=rule is None and draw(st.booleans()))


@given(solution_trees())
@settings(deadline=None)
def test_committed_matches_the_recursive_one(root):
    assert committed(root) == committed_recursive(root)


@pytest.mark.parametrize("rule", DEEP_RULES, ids=lambda rule: rule.value)
def test_committed_handles_a_deep_tree(rule):
    """Each of the chain's greenfield leaves commits the identity change,
    and the chain combines them, deeper than the recursion limit."""
    root, _, _ = deep_chain(rule)
    change = solution_of(root)
    if rule is not RuleId.SOLN_REFINE:
        combine = model.ChangeSeq if rule is RuleId.SEQUENCE else model.ChangePar
        side, below = combine.__slots__
        for _ in range(DEEP):
            assert type(change) is combine and getattr(change, side) == model.Nil()
            change = getattr(change, below)
    assert change == model.Nil()


# --- the rule table ---------------------------------------------------------------------

import importlib  # noqa: E402
import re  # noqa: E402
from pathlib import Path  # noqa: E402

from deltapoe import calculus  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_grammar_names_exactly_the_rules_of_the_table():
    grammar = (ROOT / "docs" / "poed-grammar.md").read_text()
    production = re.search(r"^rule +=(.*?)\n(?!\s+\|)", grammar, re.M | re.S).group(1)
    assert sorted(re.findall(r'"(\w+)"', production)) == sorted(rule.value for rule in RULES)
    assert set(RULES) == set(RuleId)


def test_check_renders_a_path_only_for_a_finding_or_an_open_item(golden, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    staged = importlib.import_module("families").StagedDerivation(1, 40, tmp_path)
    parsed = dsl.parse_file(Path(staged.path).read_text(), staged.path)
    trees = [golden, (parsed, build(parsed.derivations[0], parsed.model, parsed.problems))]
    mdl, root = golden[0].model, golden[1]
    second_stage = (0, 0, 0, 1)
    opened = set_node(root, second_stage, open_node(get_node(root, second_stage).conclusion))
    rendered = []
    monkeypatch.setattr(calculus, "path_str", lambda path: rendered.append(path) or dsl.path_str(path))
    for parsed_file, tree in trees:
        assert check(tree, parsed_file.model).solved
    assert rendered == []
    assert check(opened, mdl).open_items == ("root.0.0.0.1: open leaf",)
    assert rendered == [second_stage]
