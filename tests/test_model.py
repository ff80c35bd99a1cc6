import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltapoe import model, printer
from deltapoe.model import (
    Add,
    AddExisting,
    AtomicNeed,
    Cancel,
    CancelMissing,
    ChangePar,
    ChangeSeq,
    DanglingControl,
    Domain,
    Environment,
    NeedNotCurrent,
    NeedPar,
    NeedSeq,
    Nil,
    Organisation,
    ParConflict,
    Refine,
    RefineMissing,
    Unknown,
    UnknownChange,
    apply_change,
    execute_solution,
    normalize_need,
    phenomena_universe,
    shared_phenomena,
)

from .oracles import (
    apply_atoms_recursive,
    apply_change_list,
    change_str_recursive,
    is_unknown_free_recursive,
    need_atoms_recursive,
    need_name_hint_recursive,
    need_str_recursive,
    placeholders_recursive,
    referenced_domains_recursive,
)
from .strategies import changes, edit_cases, environments, models, needs


def named(*names):
    return Environment(tuple(Domain(n) for n in names))


# --- construction invariants -------------------------------------------------

def test_domain_rejects_overlapping_observed_controlled():
    with pytest.raises(model.ModelError):
        Domain("X", observed=frozenset({"a"}), controlled=frozenset({"a"}))


def test_domain_rejects_link_outside_universe():
    with pytest.raises(model.ModelError):
        Domain(
            "X",
            observed=frozenset({"a"}),
            links=frozenset({model.CausalLink("a", "b", "X")}),
        )


def test_causal_link_rejects_self_loop():
    with pytest.raises(model.ModelError):
        model.CausalLink("a", "a", "X")


def test_environment_rejects_duplicate_names():
    with pytest.raises(model.ModelError):
        Environment((Domain("X"), Domain("X")))


def test_environment_rejects_shared_control():
    with pytest.raises(model.ModelError):
        Environment(
            (
                Domain("X", controlled=frozenset({"p"})),
                Domain("Y", controlled=frozenset({"p"})),
            )
        )


# --- phenomena_universe / shared_phenomena ------------------------------------

def test_universe_single_domain():
    env = Environment(
        (Domain("X", observed=frozenset({"a"}), controlled=frozenset({"b"})),)
    )
    assert phenomena_universe(env) == {"a", "b"}


def test_universe_empty_environment():
    assert phenomena_universe(Environment()) == frozenset()


def test_universe_devenv(devenv):
    # manual union over the fixture: api.call, build.run
    assert phenomena_universe(devenv) == {"api.call", "build.run"}


def test_shared_disjoint():
    e1 = Environment((Domain("X", controlled=frozenset({"a"})),))
    e2 = Environment((Domain("Y", controlled=frozenset({"b"})),))
    assert shared_phenomena(e1, e2) == frozenset()


def test_shared_devenv_split(devenv):
    api_side = Environment((devenv.domain("OldAPI"),))
    docs_side = Environment((devenv.domain("Docs"),))
    # manual intersection: only the API call event is common
    assert shared_phenomena(api_side, docs_side) == {"api.call"}


@given(environments())
def test_shared_with_self_is_universe(env):
    assert shared_phenomena(env, env) == phenomena_universe(env)


# --- apply_change -------------------------------------------------------------

def org_departments(*names):
    return named(*names)


def test_add_marketing_team():
    env = org_departments("sales", "HR", "finance")
    out = apply_change(env, Add(Domain("marketingTeam")))
    assert out.names() == ("sales", "HR", "finance", "marketingTeam")


def test_cancel_redundant_department():
    env = org_departments("sales", "redundantDepartment", "HR", "finance")
    out = apply_change(env, Cancel("redundantDepartment"))
    assert out.names() == ("sales", "HR", "finance")


def test_refine_sales_installs_composite():
    env = org_departments("sales", "ITStructure", "HR", "finance")
    out = apply_change(
        env,
        Refine("sales", (Domain("restructuredSales"),), (Domain("customerSupport"),)),
    )
    composite = out.domain("sales")
    assert composite.structure == ("restructuredSales", "customerSupport")
    assert "restructuredSales" in out and "customerSupport" in out
    assert out.names()[0] == "sales"
    assert set(out.names()) == {
        "sales",
        "restructuredSales",
        "customerSupport",
        "ITStructure",
        "HR",
        "finance",
    }


def api_upgrade_pieces():
    old_api = Domain(
        "OldAPI",
        description="v1 endpoints",
        observed=frozenset({"build.run"}),
        controlled=frozenset({"api.call"}),
    )
    shim = Domain(
        "OldAPI'",
        description="v1 endpoints warning on use",
        observed=frozenset({"build.run"}),
        controlled=frozenset({"api.deprecated"}),
    )
    new_api = Domain(
        "NewAPI",
        description="v2 endpoints",
        observed=frozenset({"build.run"}),
        controlled=frozenset({"api.call.v2"}),
    )
    return old_api, shim, new_api


def test_two_stage_api_upgrade():
    old_api, shim, new_api = api_upgrade_pieces()
    env = Environment((old_api,))
    change = ChangeSeq(
        Refine("OldAPI", (shim,), (new_api,)),
        Cancel("OldAPI'"),
    )
    assert apply_change(env, change) == Environment((new_api,))


def test_refine_then_cancel_collapses_singleton_composite():
    old_api, shim, new_api = api_upgrade_pieces()
    env = Environment((old_api,))
    mid = apply_change(env, Refine("OldAPI", (shim,), (new_api,)))
    assert mid.domain("OldAPI").structure == ("OldAPI'", "NewAPI")
    out = apply_change(mid, Cancel("OldAPI'"))
    assert out == Environment((new_api,))


def test_empty_sequence_is_identity(devenv):
    assert apply_change(devenv, Nil()) == devenv


def test_add_existing_rejected():
    env = named("X")
    with pytest.raises(AddExisting):
        apply_change(env, Add(Domain("X")))


def test_cancel_missing_rejected():
    with pytest.raises(CancelMissing):
        apply_change(named("X"), Cancel("Y"))


def test_refine_missing_rejected():
    with pytest.raises(RefineMissing):
        apply_change(named("X"), Refine("Y", (Domain("A"),), ()))


def test_unknown_change_rejected(devenv):
    with pytest.raises(UnknownChange):
        apply_change(devenv, Unknown("F"))


def test_dangling_control_reports_orphans():
    controller = Domain("Ctl", controlled=frozenset({"sig"}))
    watcher = Domain("Watch", observed=frozenset({"sig"}))
    env = Environment((controller, watcher))
    with pytest.raises(DanglingControl) as err:
        apply_change(env, Cancel("Ctl"))
    assert err.value.orphans == {"sig"}


def test_dangling_allowed_when_rehomed_by_end_of_change():
    controller = Domain("Ctl", controlled=frozenset({"sig"}))
    watcher = Domain("Watch", observed=frozenset({"sig"}))
    replacement = Domain("Ctl2", controlled=frozenset({"sig"}))
    env = Environment((controller, watcher))
    out = apply_change(env, ChangeSeq(Cancel("Ctl"), Add(replacement)))
    assert set(out.names()) == {"Watch", "Ctl2"}


def test_par_conflict_on_common_domain():
    env = named("X", "Y")
    with pytest.raises(ParConflict) as err:
        apply_change(env, ChangePar(Cancel("X"), Cancel("X")))
    assert err.value.shared == {"X"}


def test_par_merges_disjoint_edits():
    env = named("X", "Y")
    out = apply_change(env, ChangePar(Cancel("X"), Add(Domain("Z"))))
    assert out.names() == ("Y", "Z")


# --- execute_solution -----------------------------------------------------------

def test_execute_solution_clears_need():
    old_api, shim, new_api = api_upgrade_pieces()
    need = AtomicNeed("UpdateAPI")
    org = Organisation(Environment((old_api,)), frozenset({need}))
    change = ChangeSeq(Refine("OldAPI", (shim,), (new_api,)), Cancel("OldAPI'"))
    out = execute_solution(org, need, change)
    assert out.current_problems == frozenset()
    assert out.state == Environment((new_api,))


def test_execute_solution_requires_current_need(devenv):
    org = Organisation(devenv, frozenset())
    with pytest.raises(NeedNotCurrent):
        execute_solution(org, AtomicNeed("Ghost"), Nil())


def test_execute_solution_leaves_other_needs(devenv):
    keep, solve = AtomicNeed("Keep"), AtomicNeed("Solve")
    org = Organisation(devenv, frozenset({keep, solve}))
    out = execute_solution(org, solve, Nil())
    assert out.current_problems == {keep}


@given(environments(max_domains=6), st.integers(0, 5))
def test_execute_solution_shrinks_by_exactly_one(env, extra):
    needs_set = frozenset(AtomicNeed(f"n{i}") for i in range(extra)) | {AtomicNeed("target")}
    org = Organisation(env, needs_set)
    out = execute_solution(org, AtomicNeed("target"), Nil())
    assert len(out.current_problems) == len(needs_set) - 1


# --- properties -----------------------------------------------------------------

@given(environments(max_domains=6))
def test_apply_change_deterministic(env):
    change = ChangeSeq(Add(Domain("fresh1")), Add(Domain("fresh2")))
    assert apply_change(env, change) == apply_change(env, change)


@given(environments(max_domains=6), st.data())
def test_cancel_after_add_is_identity(env, data):
    name = data.draw(st.sampled_from(["freshA", "freshB"]))
    dom = Domain(name, controlled=frozenset({f"{name}.out"}))
    out = apply_change(env, ChangeSeq(Add(dom), Cancel(name)))
    assert out == env


@st.composite
def par_edit_pairs(draw):
    """An environment plus two change branches touching disjoint domains."""
    env = draw(environments(max_domains=8))
    names = list(env.names())
    assume(len(names) >= 2)
    split = draw(st.integers(min_value=1, max_value=len(names) - 1))
    group_a, group_b = names[:split], names[split:]

    def branch(group, tag):
        kind = draw(st.sampled_from(["cancel", "add", "refine", "both"]))
        target = draw(st.sampled_from(group))
        add = Add(Domain(f"new_{tag}"))
        if kind == "cancel":
            return Cancel(target)
        if kind == "add":
            return add
        refine = Refine(target, (Domain(f"kept_{tag}"),), (Domain(f"extra_{tag}"),))
        if kind == "refine":
            return refine
        return ChangeSeq(refine, add)

    return env, branch(group_a, "a"), branch(group_b, "b")


@given(par_edit_pairs())
@settings(max_examples=200)
def test_par_is_order_independent(case):
    env, left, right = case
    try:
        forward = apply_change(env, ChangePar(left, right))
    except model.ChangeError:
        with pytest.raises(model.ChangeError):
            apply_change(env, ChangePar(right, left))
        return
    assert apply_change(env, ChangePar(right, left)) == forward


@given(environments(max_domains=6), st.data())
def test_wellformedness_preserved_or_error(env, data):
    target = data.draw(st.sampled_from(list(env.names())))
    change = data.draw(
        st.sampled_from(
            [
                Cancel(target),
                Refine(target, (Domain("keep"),), (Domain("grow"),)),
                Add(Domain("grow")),
            ]
        )
    )
    try:
        out = apply_change(env, change)
    except (model.ChangeError, model.ModelError):
        return
    # reconstructing from parts re-runs every invariant
    assert Environment(out.domains) == out


# --- the name-keyed working set against the list it replaced ----------------------

def outcome(apply, env, change):
    """The environment, or the error as (type, message)."""
    try:
        return apply(env, change)
    except (model.ChangeError, model.ModelError) as err:
        return type(err), str(err)


def installs_a_name_twice(change) -> bool:
    if isinstance(change, Refine):
        names = [change.target] + [d.name for d in change.retained + change.added]
        return len(set(names)) < len(names)
    if isinstance(change, ChangeSeq):
        return installs_a_name_twice(change.first) or installs_a_name_twice(change.second)
    if isinstance(change, ChangePar):
        return installs_a_name_twice(change.left) or installs_a_name_twice(change.right)
    return False


@given(edit_cases())
@settings(max_examples=400, deadline=None)
def test_apply_change_matches_list_oracle(case):
    env, change = case
    got = outcome(apply_change, env, change)
    expected = outcome(apply_change_list, env, change)
    if got != expected and installs_a_name_twice(change):
        # The list kept both domains of a name a refinement installs twice
        # until the final environment rejected them, so a later step's
        # error came first (or a later cancel or parallel merge hid the
        # duplicate).  The refinement itself is now refused.
        assert got[0] is model.ModelError
        return
    assert got == expected


def walk_outcome(walk, env, change):
    """The working set after ``walk`` applies ``change`` to ``env``, with
    its keys, counter and touched names, or the error it raised."""
    entries = model._Entries({d.name: (((i, ""),), d) for i, d in enumerate(env.domains)})
    try:
        walk(entries, change)
    except (model.ChangeError, model.ModelError) as err:
        return type(err), str(err), getattr(err, "shared", None)
    return list(entries.domains.items()), entries.counter, entries.touched


@given(edit_cases())
@settings(max_examples=400, deadline=None)
def test_apply_walk_matches_the_recursive_one(case):
    env, change = case
    assert walk_outcome(model._apply_atoms, env, change) == walk_outcome(apply_atoms_recursive, env, change)


@st.composite
def long_mixed_chains(draw):
    """A 50- to 250-step chain of additions, cancellations, refinements and
    skips over three domains, each step joined by ``;`` or ``||``, nested
    to the left or to the right; parallel steps often touch one domain."""
    env = named("X", "Y", "Z")
    steps = draw(st.integers(min_value=50, max_value=250))
    fresh = iter(range(steps))

    def atom():
        kind = draw(st.sampled_from(["add", "add", "nil", "cancel", "refine"]))
        if kind == "add":
            return Add(Domain(f"f{next(fresh)}"))
        if kind == "nil":
            return Nil()
        target = draw(st.sampled_from(["X", "Y", "Z"]))
        if kind == "cancel":
            return Cancel(target)
        return Refine(target, (Domain(f"f{next(fresh)}"),), ())

    atoms = [atom() for _ in range(steps)]
    ops = draw(st.lists(st.sampled_from([ChangeSeq, ChangePar]), min_size=steps - 1, max_size=steps - 1))
    if draw(st.booleans()):
        change = atoms[0]
        for op, right in zip(ops, atoms[1:]):
            change = op(change, right)
    else:
        change = atoms[-1]
        for op, left in zip(reversed(ops), reversed(atoms[:-1])):
            change = op(left, change)
    return env, change


@given(long_mixed_chains())
@settings(max_examples=100, deadline=None)
def test_apply_walk_matches_the_recursive_one_on_long_chains(case):
    env, change = case
    assert walk_outcome(model._apply_atoms, env, change) == walk_outcome(apply_atoms_recursive, env, change)


@pytest.mark.parametrize("node", [ChangeSeq, ChangePar])
def test_apply_change_takes_long_chains(node):
    env = named("X")
    change = Nil()
    for k in range(1200):
        change = node(Add(Domain(f"f{k:04}")) if k % 3 else Nil(), change)
    applied = apply_change(env, change)
    assert applied.names()[0] == "X" and len(applied.names()) == 801


def test_cancel_removes_nested_composites():
    env = apply_change(named("X", "Y"), Refine("X", (Domain("A"),), (Domain("B"),)))
    env = apply_change(env, Refine("A", (Domain("C"),), (Domain("D"),)))
    assert env.names() == ("X", "A", "C", "D", "B", "Y")
    for change in (Cancel("X"), Refine("X", (Domain("E"),), ())):
        assert apply_change(env, change) == apply_change_list(env, change)
    assert apply_change(env, Cancel("X")) == named("Y")


@pytest.mark.parametrize("env,change,name", [
    (named("X"), Refine("X", (Domain("A", controlled=frozenset({"a"})),) * 2, ()), "A"),
    (named("Y", "X"), Refine("X", (Domain("X"),), (Domain("B"),)), "X"),
], ids=["repeated-member", "member-named-like-target"])
def test_refine_installing_a_name_twice_is_a_duplicate(env, change, name):
    assert outcome(apply_change, env, change) == outcome(apply_change_list, env, change)
    with pytest.raises(model.ModelError) as err:
        apply_change(env, change)
    assert str(err.value) == f"duplicate domain name {name!r} in environment"


def test_refine_with_repeated_member_is_refused_where_it_happens():
    """The list accepted these: the cancel removed one of the two A's and
    dissolved X; the parallel merge kept one A under X's structure (A, A)."""
    env, twice = named("X"), Refine("X", (Domain("A"),), (Domain("A"),))
    for change in (ChangeSeq(twice, Cancel("A")), ChangePar(twice, Nil())):
        assert isinstance(apply_change_list(env, change), Environment)
        with pytest.raises(model.ModelError, match="duplicate domain name 'A'"):
            apply_change(env, change)


# --- need normalization -----------------------------------------------------------

def test_normalize_par_commutes():
    a, b = AtomicNeed("a"), AtomicNeed("b")
    assert normalize_need(NeedPar(a, b)) == normalize_need(NeedPar(b, a))


def test_normalize_keeps_seq_order():
    a, b = AtomicNeed("a"), AtomicNeed("b")
    assert normalize_need(NeedSeq(b, a)) == NeedSeq(b, a)


def test_normalize_reassociates_seq():
    a, b, c = AtomicNeed("a"), AtomicNeed("b"), AtomicNeed("c")
    assert normalize_need(NeedSeq(NeedSeq(a, b), c)) == NeedSeq(a, NeedSeq(b, c))


@given(needs())
def test_normalize_idempotent(need):
    once = normalize_need(need)
    assert normalize_need(once) == once


@given(needs(), needs())
def test_normalize_par_commutative_everywhere(n1, n2):
    assert normalize_need(NeedPar(n1, n2)) == normalize_need(NeedPar(n2, n1))


@given(needs(max_leaves=8))
def test_need_walkers_match_the_recursive_ones(need):
    assert model.need_atoms(need) == need_atoms_recursive(need)
    assert model.need_name_hint(need) == need_name_hint_recursive(need)
    assert printer.need_str(need) == need_str_recursive(normalize_need(need))


@pytest.mark.parametrize("node,op", [(NeedSeq, " ; "), (NeedPar, " || ")])
def test_need_walkers_take_long_chains(node, op):
    names = [f"N{k:04}" for k in range(1200)]
    need = AtomicNeed(names[-1])
    for name in reversed(names[:-1]):
        need = node(AtomicNeed(name), need)
    assert model.need_atoms(need) == frozenset(names)
    assert model.need_name_hint(need) == op.join(names)
    assert printer.need_str(need) == op.join(names)


@given(models().flatmap(lambda mdl: changes(mdl, max_leaves=8)))
def test_change_walkers_match_the_recursive_ones(change):
    """Over ``;``/``||`` changes nested to the left and to the right."""
    assert printer.change_str(change) == change_str_recursive(change)
    assert model.referenced_domains(change) == referenced_domains_recursive(change)
    assert model.is_unknown_free(change) == is_unknown_free_recursive(change)
    assert model.placeholders(change) == placeholders_recursive(change)


@pytest.mark.parametrize("node,op", [(ChangeSeq, " ; "), (ChangePar, " || ")])
def test_change_walkers_take_long_chains(node, op):
    names = [f"D{k:04}" for k in range(1200)]
    change = Cancel(names[-1])
    for name in reversed(names[:-1]):
        change = node(Cancel(name), change)
    assert printer.change_str(change) == op.join(f"!{name}" for name in names)
    assert model.referenced_domains(change) == frozenset(names)
    assert model.is_unknown_free(change)
    assert model.placeholders(node(change, Unknown("F"))) == {"F"}
    # changes are not normalised: a chain nested to the left keeps its parentheses
    assert printer.change_str(node(node(Nil(), Nil()), Nil())) == f"(skip{op}skip){op}skip"
