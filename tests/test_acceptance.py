"""Acceptance suite: one test per criterion, run at the stated sizes.

Each test prints through the terminal-summary hook in conftest.py, one
pass/fail line per criterion.  Randomized criteria use a fixed seed so
the run is reproducible.
"""

import random
import time

import pytest

from deltapoe import calculus, dsl, impact, macro, model, printer
from deltapoe.artifacts import ValidationTarget
from deltapoe.calculus import RuleError, SideConditionViolated, TrustMissing

from .conftest import FIXTURES
from .oracles import folded, verify_gates

SEED = 20240601


def load(name):
    return dsl.parse_file((FIXTURES / name).read_text(), name)


def build_first(parsed):
    return calculus.build(parsed.derivations[0], parsed.model, parsed.problems)


# --- criterion 1: the golden two-stage API upgrade -----------------------------------

def test_criterion_1_golden_api_upgrade():
    started = time.perf_counter()
    parsed = load("api_upgrade.poed")
    root = build_first(parsed)
    verdict = calculus.check(root, parsed.model)
    assert verdict.kind == "Solved", verdict

    solution = calculus.solution_of(root)
    assert printer.pretty(solution) == "OldAPI ~> d[OldAPI'](NewAPI) ; !OldAPI'"

    problem = parsed.problems["upgrade"]
    final = model.apply_change(problem.env, solution)
    assert final == model.Environment((parsed.model.domain("NewAPI"),))

    stage1_env, stage2_env = calculus.discharge_environments(root)
    assert stage1_env.domain("OldAPI").structure == ("OldAPI'", "NewAPI")
    assert stage2_env == final

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"golden derivation took {elapsed:.2f}s"


# --- criterion 2: the documentation variant -------------------------------------------

def test_criterion_2_documentation_variant():
    parsed = load("api_upgrade_with_docs.poed")
    root = build_first(parsed)
    assert calculus.check(root, parsed.model).kind == "Solved"
    assert printer.pretty(calculus.solution_of(root)) == (
        "OldAPI ~> d[OldAPI'](NewAPI) ; !OldAPI'"
        " || "
        "OldDoc ~> d[OldDoc'](NewDoc) ; !OldDoc'"
    )
    # splitting the environment into API and documentation contexts is
    # rejected: they share api.call
    shaped = model.Problem(
        parsed.problems["upgrade_with_docs"].env,
        model.Unknown("F"),
        "D",
        model.NeedPar(parsed.model.need("UpdateAPI"), parsed.model.need("UpdateDocs")),
    )
    with pytest.raises(SideConditionViolated) as err:
        calculus.apply(
            calculus.RuleId.PARALLEL,
            calculus.open_node(shaped),
            {"left": ("OldAPI",), "right": ("OldDoc",)},
            parsed.model,
        )
    assert err.value.shared == {"api.call"}


# --- criterion 3: the mutation suite ----------------------------------------------------

MUTATION_EXPECTATIONS = {
    "m1_swapped_sequence_premises.poed": ("build", "CancelMissing"),
    "m2_known_solution_unvalidated.poed": ("check", "MissingValidation"),
    "m3_delegation_without_trust.poed": ("build", "TrustMissing"),
    "m4_parallel_shared_phenomena.poed": ("build", "SideConditionViolated"),
    "m5_missing_required_j_field.poed": ("check", "MissingJustification"),
    "m6_cancel_missing_domain.poed": ("check", "CancelMissing"),
}


def test_criterion_3_mutation_suite():
    rejected = 0
    assert len(MUTATION_EXPECTATIONS) >= 6
    for name, (phase, expected) in MUTATION_EXPECTATIONS.items():
        parsed = load(f"mutations/{name}")
        try:
            root = build_first(parsed)
        except RuleError as err:
            assert phase == "build", f"{name} failed at build unexpectedly"
            kinds = {err.kind, err.cause_kind}
            if isinstance(err, TrustMissing):
                kinds.add("TrustMissing")
            assert expected in kinds, f"{name}: {kinds} lacks {expected}"
            rejected += 1
            continue
        verdict = calculus.check(root, parsed.model)
        assert phase == "check" and verdict.kind == "Invalid", f"{name} was not rejected"
        assert any(d.kind == expected for d in verdict.diagnostics), (
            f"{name}: no {expected} among {[d.kind for d in verdict.diagnostics]}"
        )
        rejected += 1
    assert rejected == len(MUTATION_EXPECTATIONS)  # 100% rejection


# --- criterion 4: the phone-upgrade tangle ------------------------------------------------

def test_criterion_4_phone_upgrade_tangle():
    parsed = load("phone_upgrade.poed")
    problems = [
        parsed.problems["affordability"],
        parsed.problems["transfer"],
        parsed.problems["timing"],
    ]
    pairs = calculus.tangles(problems)
    assert len(pairs) == 3
    for pair in pairs:
        assert pair.shared_symbols() == {"Phone", "F", "G"}
        assert pair.tangled


# --- criterion 5: impact analysis against a brute-force oracle ------------------------------

def random_environment(rng, max_domains=10, max_links=30):
    n_dom = rng.randint(1, max_domains)
    phens = [f"p{i}" for i in range(rng.randint(1, 3 * max_domains))]
    owner = {p: rng.randrange(-1, n_dom) for p in phens}
    budget = max_links
    domains = []
    for i in range(n_dom):
        name = f"d{i}"
        controlled = frozenset(p for p, o in owner.items() if o == i)
        rest = [p for p in phens if p not in controlled]
        observed = frozenset(p for p in rest if rng.random() < 0.35)
        universe = sorted(controlled | observed)
        links = set()
        if len(universe) >= 2:
            for _ in range(rng.randint(0, min(4, budget))):
                cause, effect = rng.choice(universe), rng.choice(universe)
                if cause != effect:
                    links.add(model.CausalLink(cause, effect, name))
        budget -= len(links)
        domains.append(
            model.Domain(name, observed=observed, controlled=controlled, links=frozenset(links))
        )
    return model.Environment(tuple(domains))


def closure_oracle(env, seeds, structural, buffers):
    edges = set()
    for dom in env:
        if dom.name in buffers:
            continue
        for link in dom.links:
            if link.cause in dom.observed:
                edges.add((link.cause, link.effect))
    affected = set(seeds)
    while True:
        grown = {q for p, q in edges if p in affected}
        if grown <= affected:
            break
        affected |= grown
    return {
        d.name for d in env if d.name not in structural and d.observed & affected
    }


def test_criterion_5_impact_oracle():
    started = time.perf_counter()
    rng = random.Random(SEED)
    for case in range(100):
        env = random_environment(rng)
        names = list(env.names())
        buffers = frozenset(n for n in names if rng.random() < 0.25)
        target = rng.choice(names)
        dom = env.domain(target)
        pool = sorted(dom.phenomena())
        if len(pool) >= 2 and rng.random() < 0.5:
            cause, effect = rng.sample(pool, 2)
            edit = impact.NewLink(target, cause, effect)
        else:
            edit = model.Cancel(target)
        report = impact.propagate(env, edit, buffers)
        expected = closure_oracle(env, report.seed_phenomena, report.structural, buffers)
        assert report.behavioural == expected, f"case {case} diverged from the oracle"

    chain = dsl.parse_model((FIXTURES / "chain.poed").read_text()).environment
    report = impact.propagate(chain, impact.NewLink("C", "y", "c"))
    assert report.behavioural == {"D", "E"}
    buffered = impact.propagate(chain, impact.NewLink("C", "y", "c"), frozenset({"D"}))
    assert buffered.behavioural == {"D"}

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"impact suite took {elapsed:.2f}s"


# --- criterion 6: parser round trip ------------------------------------------------------------

_KINDS = list(model.PhenomenonKind)
_DESC_CHARS = 'abcdefghijklmnop "\\\n\t\r.;!?~>|'


def _random_name(rng, base):
    name = f"{base}{rng.randrange(100)}"
    if rng.random() < 0.2:
        name += "'"
    if rng.random() < 0.2:
        name = f"ns.{name}"
    return name


def _random_text(rng):
    return "".join(rng.choice(_DESC_CHARS) for _ in range(rng.randint(0, 18)))


def random_model(rng):
    phens = []
    names = set()
    for _ in range(rng.randint(1, 8)):
        name = _random_name(rng, "ph")
        if name in names:
            continue
        names.add(name)
        phens.append(model.Phenomenon(name, rng.choice(_KINDS)))
    phen_names = [p.name for p in phens]
    owner = {p: rng.randrange(-1, 4) for p in phen_names}
    domains = []
    dom_names = set()
    for i in range(rng.randint(1, 4)):
        name = _random_name(rng, "Dom")
        if name in dom_names:
            continue
        dom_names.add(name)
        controlled = frozenset(p for p, o in owner.items() if o == i)
        rest = [p for p in phen_names if p not in controlled]
        observed = frozenset(p for p in rest if rng.random() < 0.4)
        universe = sorted(controlled | observed)
        links = set()
        if len(universe) >= 2 and rng.random() < 0.5:
            cause, effect = rng.sample(universe, 2)
            links.add(model.CausalLink(cause, effect, name))
        domains.append(
            model.Domain(name, _random_text(rng), observed, controlled, frozenset(links))
        )
    sk_names = [f"S{i}" for i in range(rng.randint(1, 3))]
    stakeholders = tuple(
        model.Stakeholder(
            n,
            rng.choice(list(model.Role)),
            frozenset(x for x in sk_names if rng.random() < 0.4),
        )
        for n in sk_names
    )
    needs = tuple(
        model.AtomicNeed(f"N{i}", _random_text(rng)) for i in range(rng.randint(1, 3))
    )
    return dsl.Model(tuple(phens), model.Environment(tuple(domains)), stakeholders, needs)


def random_change(rng, mdl, depth=0, allow_unknown=True):
    names = list(mdl.environment.names())
    if depth >= 3 or rng.random() < 0.45:
        pick = rng.random()
        if allow_unknown and pick < 0.2:
            return model.Unknown(_random_name(rng, "F").replace("ns.", ""))
        if pick < 0.4:
            return model.Add(mdl.domain(rng.choice(names)))
        if pick < 0.6:
            return model.Cancel(rng.choice(names))
        if pick < 0.8:
            target = rng.choice(names)
            pool = [n for n in names if n != target]
            rng.shuffle(pool)
            cut = rng.randint(0, len(pool))
            retained = tuple(mdl.domain(n) for n in pool[:cut][:2])
            added = tuple(mdl.domain(n) for n in pool[cut:][:2])
            return model.Refine(target, retained, added)
        return model.Nil()
    left = random_change(rng, mdl, depth + 1, allow_unknown)
    right = random_change(rng, mdl, depth + 1, allow_unknown)
    ctor = model.ChangeSeq if rng.random() < 0.5 else model.ChangePar
    return ctor(left, right)


def random_need(rng, mdl, depth=0):
    if depth >= 3 or rng.random() < 0.5:
        return rng.choice(mdl.needs)
    left = random_need(rng, mdl, depth + 1)
    right = random_need(rng, mdl, depth + 1)
    ctor = model.NeedSeq if rng.random() < 0.5 else model.NeedPar
    return ctor(left, right)


def random_problem(rng, mdl):
    names = list(mdl.environment.names())
    rng.shuffle(names)
    chosen = names[: rng.randint(1, len(names))]
    env = model.Environment(tuple(mdl.domain(n) for n in sorted(chosen, key=names.index)))
    return model.Problem(
        env,
        random_change(rng, mdl),
        rng.choice([s.name for s in mdl.stakeholders]),
        model.normalize_need(random_need(rng, mdl)),
    )


def test_criterion_6_parser_round_trip():
    rng = random.Random(SEED)
    failures = 0
    total = 0
    for _ in range(250):
        mdl = random_model(rng)
        cases = [
            (mdl, lambda text: dsl.parse_model(text)),
            (random_problem(rng, mdl), lambda text: dsl.parse_problem(text, mdl)),
            (random_change(rng, mdl), lambda text: dsl.parse_change(text, mdl)),
            (
                model.normalize_need(random_need(rng, mdl)),
                lambda text: dsl.parse_need(text, mdl),
            ),
        ]
        for value, reparse in cases:
            total += 1
            if reparse(printer.pretty(value)) != value:
                failures += 1
    assert total >= 1000
    assert failures == 0


# --- criterion 7: sequential domain refinement equivalence ---------------------------------------

def test_criterion_7_seq_domain_refine_equivalence():
    rng = random.Random(SEED)
    for case in range(200):
        extras = tuple(
            model.Domain(f"X{i}", controlled=frozenset({f"x{i}.out"}))
            for i in range(rng.randint(0, 3))
        )
        target = model.Domain("T", controlled=frozenset({"t.out"}))
        env = model.Environment(extras + (target,))
        pool = [model.Domain(f"S{i}", controlled=frozenset({f"s{i}.out"})) for i in range(8)]
        rng.shuffle(pool)
        take = iter(pool)

        def group(limit):
            return tuple(next(take) for _ in range(rng.randint(1, limit)))

        chain = model.ChangeSeq(
            model.Refine("T", group(2), group(2)),
            model.Refine("T", group(2), group(2)),
        )
        fused = calculus.seq_refine_equiv(env, chain, "fuse")
        assert model.apply_change(env, chain) == model.apply_change(env, fused), case
        back = calculus.seq_refine_equiv(
            env, fused, "split",
            retained=chain.first.retained, added=chain.first.added,
        )
        assert back == chain
        assert model.apply_change(env, back) == model.apply_change(env, fused)


# --- criterion 8: workflow gate integrity ----------------------------------------------------------

REFS = macro.ProblemRefs(
    "[OldAPI] (+) ?F |= G : UpdateAPI",
    frozenset({"OldAPI"}),
    frozenset({"api.call", "build.run"}),
    frozenset({"UpdateAPI"}),
)

ALL_EVENT_KINDS = (
    "submit-view",
    "request-validation",
    "record-validation",
    "submit-solution",
    "begin-implementation",
    "complete",
)


def legal_moves(wf):
    state = wf.state
    if state is macro.CpsState.CPS1:
        return [("submit-view", {})]
    if state in (macro.CpsState.CPS2, macro.CpsState.CPS4):
        if wf.pending() is None:
            return [("request-validation", {})]
        return [
            ("record-validation", {"by": "G", "status": "granted"}),
            ("record-validation", {"by": "G", "status": "rejected"}),
        ]
    if state is macro.CpsState.CPS3:
        return [("submit-solution", {"solution": "!OldAPI", "refs": ["OldAPI'"]})]
    if state is macro.CpsState.CPS5:
        if wf.implementation_mode is None:
            return [("begin-implementation", {"mode": "self"})]
        return [("complete", {})]
    return []


def random_walk(rng, max_steps):
    events = [macro.create_workflow(macro.Folded({}, 0), "w1", "G", "D", REFS)]
    for _ in range(rng.randint(0, max_steps)):
        wf = macro.fold(events)["w1"]
        moves = legal_moves(wf)
        if not moves:
            break
        kind, payload = rng.choice(moves)
        event, _ = macro.advance(folded(events), "w1", kind, payload)
        events.append(event)
    return events


def test_criterion_8_workflow_gate_integrity():
    rng = random.Random(SEED)
    for _ in range(500):
        events = random_walk(rng, 20)
        verify_gates(events)

    injected_failures = 0
    for _ in range(500):
        events = random_walk(rng, 12)
        wf = macro.fold(events)["w1"]
        legal_now = {kind for kind, _ in legal_moves(wf)}
        illegal = sorted(set(ALL_EVENT_KINDS) - legal_now)
        if not illegal:
            continue
        kind = rng.choice(illegal)
        payload = {
            "record-validation": {"by": "G", "status": "granted"},
            "begin-implementation": {"mode": "self"},
        }.get(kind, {})
        with pytest.raises(macro.MacroError):
            macro.advance(folded(events), "w1", kind, payload)
        injected_failures += 1
    assert injected_failures >= 450  # nearly every walk admits an illegal event

    # drift scenario: a granted solution validation referencing OldAPI goes
    # stale after drift touching OldAPI; the workflow regresses
    events = [macro.create_workflow(macro.Folded({}, 0), "w1", "G", "D", REFS)]
    for kind, payload in (
        ("submit-view", {}),
        ("request-validation", {}),
        ("record-validation", {"by": "G", "status": "granted"}),
        ("submit-solution", {"solution": "!OldAPI ; +NewAPI", "refs": ["OldAPI", "NewAPI"]}),
        ("request-validation", {}),
        ("record-validation", {"by": "G", "status": "granted"}),
    ):
        event, _ = macro.advance(folded(events), "w1", kind, payload)
        events.append(event)
    drift_event, report = macro.drift(folded(events), frozenset({"OldAPI"}), "upstream change")
    assert any(target == "solution+plan" for _, _, target in report.stale)
    assert report.regressions and report.regressions[0][0] == "w1"
    workflows = macro.fold(events + [drift_event])
    assert workflows["w1"].state is macro.CpsState.CPS2
    assert workflows["w1"].effective(ValidationTarget.SOLUTION_PLAN) is None


# --- criterion 9: the organisation update ------------------------------------------------------------

def test_criterion_9_organisation_update():
    parsed = load("api_upgrade.poed")
    root = build_first(parsed)
    solution = calculus.solution_of(root)
    need = parsed.model.need("UpdateAPI")
    org = model.Organisation(parsed.problems["upgrade"].env, frozenset({need}))
    updated = model.execute_solution(org, need, solution)
    assert updated.current_problems == frozenset()
    assert updated.state == model.Environment((parsed.model.domain("NewAPI"),))
