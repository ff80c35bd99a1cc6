"""The record classes: equality, hashing, ordering and repr as the
field tuple defines them, the environment's name index, and an import
path that loads neither ``dataclasses`` nor ``inspect``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapoe import calculus, dsl, impact, macro, model
from deltapoe.artifacts import Deadline, Record
from deltapoe.calculus import DerivationNode

from .conftest import FIXTURES
from .strategies import changes, environments, models, needs, problems

ROOT = Path(__file__).resolve().parent.parent


def test_importing_every_module_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "import_guard.py")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert str(ROOT / "src" / "deltapoe") in done.stdout


def fields(record):
    """The field tuple of a record, read off its class's ``__slots__``."""
    return tuple(getattr(record, name) for name in type(record).__slots__
                 if not name.startswith("_"))


def records_in(*values):
    """Every record reachable from ``values`` through fields, tuples,
    sets and dict values."""
    found, stack = [], list(values)
    while stack:
        value = stack.pop()
        if isinstance(value, Record):
            found.append(value)
            stack.extend(fields(value))
        elif isinstance(value, (tuple, list, frozenset, set)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value.values())
    return found


def _fixture_records():
    parsed = dsl.parse_file((FIXTURES / "api_upgrade.poed").read_text(), "api_upgrade.poed")
    root = calculus.build(parsed.derivations[0], parsed.model, parsed.problems)
    problem = next(iter(parsed.problems.values()))
    report = impact.propagate(parsed.model.environment, model.Cancel("OldAPI"))
    events = [macro.create_workflow([], "w1", "G", "D", macro.ProblemRefs(
        "p", frozenset({"OldAPI"}), frozenset({"api.call"}), frozenset({"UpdateAPI"})))]
    events.append(macro.advance(events, "w1", "submit-view", {})[0])
    events.append(macro.drift(events, frozenset({"OldAPI"}))[0])
    return records_in(
        parsed, root, calculus.check(root, parsed.model), calculus.extract_plan(root),
        calculus.tangles([problem, problem]), report,
        impact.bound_check(report, frozenset()), macro.fold(events),
        macro.drift(events, frozenset({"OldAPI"}))[1],
        dsl.ParseDiagnostic(1, 2, "m"), Deadline("relative", "R1"), model.Nil(),
        model.Organisation(parsed.model.environment, frozenset(parsed.model.needs)),
        dsl.parse_file((FIXTURES / "api_upgrade_with_docs.poed").read_text(), "docs"),
        dsl.parse_file((FIXTURES / "chain.poed").read_text(), "chain"),
        calculus.CheckDiagnostic("root", "Kind", "m"), impact.NewLink("A", "a", "b"),
        calculus.RULES,
        model.ChangePar(model.Add(model.Domain("A")), model.Cancel("B")),
        model.NeedPar(model.AtomicNeed("n1"), model.AtomicNeed("n2")),
    )


FIXTURE_RECORDS = _fixture_records()


def test_the_fixture_pool_holds_every_record_class():
    missing = set(Record.__subclasses__()) - {type(r) for r in FIXTURE_RECORDS}
    assert not missing, sorted(c.__name__ for c in missing)


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as err:
        return type(err)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_equality_and_hash_follow_class_and_fields(data):
    mdl = data.draw(models())
    drawn = records_in(mdl, data.draw(problems(mdl)), data.draw(changes(mdl)), data.draw(needs()))
    pool = drawn + FIXTURE_RECORDS
    others = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=25))
    for a in pool:
        twin = type(a)(*fields(a))
        assert a == twin and not a != twin
        for b in others + [twin]:
            same = type(a) is type(b) and fields(a) == fields(b)
            assert (a == b) is same, (a, b)
            assert (a != b) is not same, (a, b)
            if same and b.__hash__ is not None:
                assert _hash_or_error(a) == _hash_or_error(b)
        if type(a).__hash__ is None:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert _hash_or_error(a) == _hash_or_error(fields(a))


@given(environments(), needs())
def test_sibling_classes_with_equal_fields_are_unequal(env, need):
    left, right = model.Add(env.domains[0]), model.Cancel(env.domains[0].name)
    pairs = [
        (model.NeedSeq(need, need), model.NeedPar(need, need)),
        (model.ChangeSeq(left, right), model.ChangePar(left, right)),
        (model.Unknown("x"), model.Cancel("x")),
        (model.Cancel("x"), ("x",)),
    ]
    for a, b in pairs:
        assert a != b and b != a
        assert hash(a) == hash(fields(a))
    assert len({model.NeedSeq(need, need), model.NeedPar(need, need)}) == 2


links = st.tuples(st.sampled_from("abc"), st.sampled_from("abcd"), st.sampled_from("XY")).filter(
    lambda t: t[0] != t[1]).map(lambda t: model.CausalLink(*t))


@given(st.lists(links, max_size=12))
def test_causal_links_order_by_cause_effect_owner(drawn):
    key = lambda link: (link.cause, link.effect, link.owner)  # noqa: E731
    assert sorted(drawn) == sorted(drawn, key=key)
    for a in drawn[:4]:
        for b in drawn[:4]:
            assert (a < b, a <= b, a > b, a >= b) == (key(a) < key(b), key(a) <= key(b),
                                                      key(a) > key(b), key(a) >= key(b))
    with pytest.raises(TypeError):
        model.CausalLink("a", "b", "X") < ("a", "b", "X")


def test_repr_names_the_class_and_each_field():
    assert repr(model.Cancel("x")) == "Cancel(domain_name='x')"
    assert repr(model.Nil()) == "Nil()"
    env = model.Environment((model.Domain("A"),))
    assert repr(env) == ("Environment(domains=(Domain(name='A', description='', "
                         "observed=frozenset(), controlled=frozenset(), links=frozenset(), "
                         "structure=None),))")
    assert repr(dsl.EMPTY_MODEL).startswith("Model(phenomena=(), environment=Environment(")
    assert "_stakeholders" not in repr(dsl.EMPTY_MODEL)


def test_defaults_and_keywords_construct_as_before():
    problem = next(r for r in FIXTURE_RECORDS if isinstance(r, model.Problem))
    first, second = DerivationNode(problem), DerivationNode(conclusion=problem)
    assert first == second and first.args == {} and first.args is not second.args
    assert model.Domain(name="A") == model.Domain("A", "", frozenset(), frozenset(),
                                                  frozenset(), None)
    with pytest.raises(TypeError):
        model.Domain("A", colour="red")
    with pytest.raises(model.ModelError, match="phenomenon name must be non-empty"):
        model.Phenomenon("", model.PhenomenonKind.EVENT)
    with pytest.raises(ValueError, match="bad deadline kind 'soon'"):
        Deadline("soon", "x")


def _linear_domain(env, name):
    for dom in env.domains:
        if dom.name == name:
            return dom
    raise KeyError(name)


@given(environments(), st.lists(st.sampled_from(["d0", "d1", "d3", "d9", "x", ""]), max_size=6))
def test_environment_index_agrees_with_a_linear_scan(env, names):
    for name in names + list(env.names()):
        assert (name in env) == any(d.name == name for d in env.domains)
        try:
            expected = _linear_domain(env, name)
        except KeyError as err:
            with pytest.raises(KeyError) as raised:
                env.domain(name)
            assert raised.value.args == err.args == (name,)
        else:
            assert env.domain(name) is expected
