import contextlib
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapoe import cli, dsl, impact, model
from deltapoe.impact import NewLink, UnknownDomain, UnknownPhenomenon, bound_check, propagate

from .conftest import FIXTURES
from .oracles import bound_check_stored_paths, path_from_parent, path_to, propagate_stored_paths
from .strategies import environments, layered_org_text


def oracle_behavioural(env, seeds, structural, buffers):
    """Reference result: transitive closure of the observer-then-link
    relation over phenomena, with buffer domains' edges removed."""
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
        dom.name
        for dom in env
        if dom.name not in structural and dom.observed & affected
    }


@pytest.fixture
def chain_model():
    return dsl.parse_model((FIXTURES / "chain.poed").read_text())


def test_chain_propagates_through_both_hops(chain_model):
    env = chain_model.environment
    report = propagate(env, NewLink("C", "y", "c"))
    assert report.structural == {"C"}
    assert report.behavioural == {"D", "E"}
    assert dict(report.walk()) == {"D": ("c", "D"), "E": ("c", "D", "d", "E")}


def test_chain_buffer_absorbs(chain_model):
    env = chain_model.environment
    report = propagate(env, NewLink("C", "y", "c"), buffers=frozenset({"D"}))
    assert report.behavioural == {"D"}
    assert report.buffers == {"D"}
    assert "E" not in report.behavioural


def test_isolated_edit_reaches_nothing():
    env = model.Environment(
        (
            model.Domain("Island", controlled=frozenset({"sig"})),
            model.Domain("Elsewhere", observed=frozenset({"other"}),
                         controlled=frozenset({"other2"})),
        )
    )
    report = propagate(env, model.Cancel("Island"))
    assert report.behavioural == frozenset()
    assert report.paths == ()


def test_unknown_domain_rejected(chain_model):
    with pytest.raises(UnknownDomain):
        propagate(chain_model.environment, model.Cancel("Ghost"))
    with pytest.raises(UnknownDomain):
        propagate(chain_model.environment, NewLink("C", "y", "c"), buffers=frozenset({"Ghost"}))


def test_unknown_phenomenon_rejected(chain_model):
    with pytest.raises(UnknownPhenomenon):
        propagate(chain_model.environment, NewLink("C", "ghost", "c"))


def test_refine_seeds_only_unrehomed_phenomena():
    keeper = model.Domain("Keeper", controlled=frozenset({"kept", "lost"}))
    heir = model.Domain("Heir", controlled=frozenset({"kept"}))
    watcher_kept = model.Domain("WatchKept", observed=frozenset({"kept"}))
    watcher_lost = model.Domain("WatchLost", observed=frozenset({"lost"}))
    env = model.Environment((keeper, watcher_kept, watcher_lost))
    report = propagate(env, model.Refine("Keeper", (heir,), ()))
    assert report.seed_phenomena == {"lost"}
    assert report.behavioural == {"WatchLost"}
    assert report.structural == {"Keeper", "Heir"}


def test_bound_check_devenv_pass(devenv):
    report = bound_check(propagate(devenv, model.Cancel("OldAPI")), frozenset({"OldAPI", "Docs"}))
    assert report.passed


def test_bound_check_chain_violations(chain_model):
    env = chain_model.environment
    report = bound_check(propagate(env, NewLink("C", "y", "c")), frozenset({"C"}))
    assert not report.passed
    assert [v[0] for v in report.violations] == ["D", "E"]
    assert report.violations[0][1] == ("c", "D")
    assert report.violations[1][1] == ("c", "D", "d", "E")


def test_bound_check_superset_always_passes(chain_model):
    env = chain_model.environment
    report = bound_check(propagate(env, NewLink("C", "y", "c")), frozenset(env.names()))
    assert report.passed


def test_parse_edit_forms(chain_model):
    assert impact.parse_edit("!C", chain_model) == model.Cancel("C")
    assert impact.parse_edit("C causes y -> c", chain_model) == NewLink("C", "y", "c")
    with pytest.raises(dsl.DslError):
        impact.parse_edit("!C ; !D", chain_model)


# --- randomized agreement with the oracle -------------------------------------------

@st.composite
def impact_cases(draw):
    env = draw(environments(max_domains=10, max_links=30))
    names = list(env.names())
    target = draw(st.sampled_from(names))
    buffers = frozenset(draw(st.sets(st.sampled_from(names), max_size=len(names))))
    dom = env.domain(target)
    link_pool = sorted(dom.phenomena())
    if link_pool and draw(st.booleans()):
        cause = draw(st.sampled_from(link_pool))
        effect = draw(st.sampled_from(link_pool))
        if cause != effect:
            return env, NewLink(target, cause, effect), buffers
    return env, model.Cancel(target), buffers


@given(impact_cases())
@settings(max_examples=150, deadline=None)
def test_propagate_matches_oracle(case):
    env, edit, buffers = case
    report = propagate(env, edit, buffers)
    expected = oracle_behavioural(
        env, report.seed_phenomena, report.structural, buffers
    )
    assert report.behavioural == expected


@given(impact_cases())
@settings(max_examples=80, deadline=None)
def test_buffers_never_enlarge_impact(case):
    env, edit, buffers = case
    wide = propagate(env, edit, frozenset())
    narrow = propagate(env, edit, buffers)
    assert narrow.behavioural <= wide.behavioural
    assert narrow.structural == wide.structural


@given(environments(max_domains=8), st.data())
@settings(max_examples=100, deadline=None)
def test_monotone_in_seeds(env, data):
    # refining away only part of a domain's control seeds a subset of what
    # cancelling it seeds; the impact may not grow when the seeds shrink
    target = data.draw(st.sampled_from(list(env.names())))
    controlled = sorted(env.domain(target).controlled)
    kept = set(data.draw(st.sets(st.sampled_from(controlled)))) if controlled else set()
    heir = model.Domain("heir", controlled=frozenset(kept))
    partial = propagate(env, model.Refine(target, (heir,), ()))
    full = propagate(env, model.Cancel(target))
    assert partial.seed_phenomena <= full.seed_phenomena
    assert partial.behavioural <= full.behavioural


def test_cyclic_links_terminate():
    a = model.Domain(
        "A",
        observed=frozenset({"q"}),
        controlled=frozenset({"p"}),
        links=frozenset({model.CausalLink("q", "p", "A")}),
    )
    b = model.Domain(
        "B",
        observed=frozenset({"p"}),
        controlled=frozenset({"q"}),
        links=frozenset({model.CausalLink("p", "q", "B")}),
    )
    env = model.Environment((a, b))
    report = propagate(env, model.Cancel("A"))
    assert report.behavioural == {"B"}


def test_report_is_deterministic(chain_model):
    env = chain_model.environment
    first = propagate(env, NewLink("C", "y", "c"))
    second = propagate(env, NewLink("C", "y", "c"))
    assert first == second


# --- differential agreement with the stored-paths propagation -------------------------

@st.composite
def differential_cases(draw):
    env = draw(environments(max_domains=10, max_links=30))
    names = list(env.names())
    target = env.domain(draw(st.sampled_from(names)))
    universe = sorted(model.phenomena_universe(env))
    kind = draw(st.sampled_from(["cancel", "link", "refine", "add"]))
    if kind == "link" and len(universe) >= 2:
        cause, effect = draw(st.lists(st.sampled_from(universe), min_size=2, max_size=2, unique=True))
        edit = NewLink(target.name, cause, effect)
    elif kind == "refine":
        kept = draw(st.sets(st.sampled_from(sorted(target.controlled)))) if target.controlled else set()
        edit = model.Refine(target.name, (model.Domain("heir", controlled=frozenset(kept)),), ())
    elif kind == "add":
        controlled = draw(st.sets(st.sampled_from(universe), max_size=3)) if universe else set()
        edit = model.Add(model.Domain("newcomer", controlled=frozenset(controlled)))
    else:
        edit = model.Cancel(target.name)
    buffers = frozenset(draw(st.sets(st.sampled_from(names))))
    permitted = frozenset(draw(st.sets(st.sampled_from(names + ["heir", "newcomer"]))))
    return env, edit, buffers, permitted


def assert_same_report(env, edit, buffers, permitted):
    new = propagate(env, edit, buffers)
    old = propagate_stored_paths(env, edit, buffers)
    for field in ("edit", "structural", "behavioural", "buffers", "declared_buffers", "seed_phenomena"):
        assert getattr(new, field) == getattr(old, field), field
    assert new.paths == old.paths
    for name in set(env.names()) | new.structural | {"Ghost"}:
        assert path_to(new, name) == old.path_to(name), name
    bound, stored = bound_check(new, permitted), bound_check_stored_paths(env, edit, permitted, buffers)
    assert bound.passed == stored.passed
    assert bound.violations == stored.violations
    assert tuple(bound.walk()) == stored.violations


@given(differential_cases())
@settings(max_examples=200, deadline=None)
def test_paths_and_violations_match_stored_paths_propagation(case):
    assert_same_report(*case)


def test_layered_org_matches_stored_paths_propagation():
    # many domains at equal depth, each with several hits: exercises the
    # (depth, name) tie-breaks at a size hypothesis does not reach
    env = dsl.parse_model(layered_org_text(12, 8, 3, seed=5)).environment
    names = list(env.names())
    assert_same_report(env, model.Cancel("O0_3"), frozenset(), frozenset({"O0_3"}))
    assert_same_report(env, model.Cancel("O0_3"), frozenset(names[8:16]), frozenset(names[40:]))


def test_long_chain_path_is_rendered_on_demand():
    n = 20_000
    domains = [model.Domain("D0", controlled=frozenset({"p0"}))] + [
        model.Domain(
            f"D{i}",
            observed=frozenset({f"p{i - 1}"}),
            controlled=frozenset({f"p{i}"}),
            links=frozenset({model.CausalLink(f"p{i - 1}", f"p{i}", f"D{i}")}),
        )
        for i in range(1, n)
    ]
    report = propagate(model.Environment(tuple(domains)), model.Cancel("D0"))
    assert len(report.behavioural) == n - 1
    assert list(report.hits)[-1] == f"D{n - 1}"
    path = path_to(report, f"D{n - 1}")
    assert len(path) == 2 * (n - 1)
    assert path[:4] == ("p0", "D1", "p1", "D2") and path[-2:] == (f"p{n - 2}", f"D{n - 1}")


# --- walk(): every path built from its cause's path -------------------------------------

def assert_walk_matches(env, edit, buffers):
    """``walk`` yields each hit once, in report order, with the path that
    ``path_from_parent`` reads back for that hit alone, and
    ``paths`` is the stored-paths propagation's tuple."""
    report = propagate(env, edit, buffers)
    walked = list(report.walk())
    assert walked == [(name, path_from_parent(report, name, phen))
                      for name, phen in report.hits.items()]
    assert report.paths == tuple(path for _, path in walked)
    assert report.paths == propagate_stored_paths(env, edit, buffers).paths
    return walked


@given(differential_cases())
@settings(max_examples=200, deadline=None)
def test_walk_matches_per_hit_paths_and_stored_paths(case):
    env, edit, buffers, _ = case
    assert_walk_matches(env, edit, buffers)


@pytest.mark.parametrize("seed", range(6))
def test_walk_on_layered_orgs(seed):
    env = dsl.parse_model(layered_org_text(10, 6, 3, seed=seed)).environment
    names = list(env.names())
    observed = min(env.domain("O4_0").observed)  # so the new link's effect has an observer
    cases = [
        (model.Cancel("O0_1"), frozenset()),
        (model.Cancel("O0_1"), frozenset(names[12:15])),
        (model.Cancel("O4_2"), frozenset(names[40:42])),
        (NewLink("O5_0", "o0_0", observed), frozenset()),
        (model.Add(model.Domain("newcomer", controlled=frozenset({"o1_3"}))), frozenset(names[30:36])),
    ]
    for edit, buffers in cases:
        walked = assert_walk_matches(env, edit, buffers)
        # the domains observing a seed are hit at depth 0, with two-entry paths
        assert walked and len(walked[0][1]) == 2, edit
        assert [len(path) for _, path in walked] == sorted(len(path) for _, path in walked)


def test_walk_of_a_report_with_no_hits_is_empty():
    lonely = propagate(model.Environment((model.Domain("A", controlled=frozenset({"a"})),)),
                       model.Cancel("A"))
    assert list(lonely.walk()) == [] and lonely.paths == ()


# --- memory --------------------------------------------------------------------------

def impact_peak(org, argv: list[str]) -> tuple[int, int]:
    """The traced peak of ``impact ORG --edit !O0_0 ARGV``, its output
    discarded, and its exit code."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.reset_peak()
        code = cli.main(["impact", str(org), "--edit", "!O0_0", *argv])
        return tracemalloc.get_traced_memory()[1], code


def test_bound_and_structured_reports_hold_no_more_than_the_plain_one(tmp_path):
    """On a chain of 2,000 domains the paths hold about 4,000,000 names in
    all, against at most 4,000 on one path.  The text report writes them as
    they are walked; the bound check and the structured report must too,
    so that neither costs much more memory than the plain text report."""
    org = tmp_path / "chain.poed"
    org.write_text(layered_org_text(2000, 1, 1))
    tracemalloc.start()
    try:
        impact_peak(org, [])  # first use: imports and caches
        plain, plain_code = impact_peak(org, [])
        bound, bound_code = impact_peak(org, ["--permitted", "O0_0"])
        structured, structured_code = impact_peak(org, ["--format", "structured"])
    finally:
        tracemalloc.stop()
    assert (plain_code, bound_code, structured_code) == (0, 1, 0)
    assert bound < 1.5 * plain, bound / plain
    assert structured < 1.5 * plain, structured / plain
