"""The record classes: constructors generated from the fields, equality,
hashing, ordering and repr as the field tuple defines them, the
environment's name index, and an import path that loads neither
``dataclasses`` nor ``inspect`` nor, from any module but itself, the
entry point."""

import ast
import copy
import inspect
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapoe import calculus, dsl, impact, macro, model
from deltapoe.artifacts import EMPTY_JUSTIFICATION, Deadline, Record
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


def test_the_import_guard_refuses_a_module_that_imports_the_entry_point(tmp_path):
    """Under ``python -m deltapoe.cli`` the entry point is ``__main__``, so
    a command module that imported ``deltapoe.cli`` would compile it twice."""
    package = tmp_path / "deltapoe"
    shutil.copytree(ROOT / "src" / "deltapoe", package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "cmd_impact.py", "a", encoding="utf-8") as module:
        module.write("from . import cli  # noqa: E402,F401\n")
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "import_guard.py")],
                          env=dict(os.environ, PYTHONPATH=str(tmp_path)), capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout) == (1, f"importing deltapoe.cmd_impact ({package}) loads deltapoe.cli\n")


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
    state = macro.Folded({}, 0)
    events = [macro.create_workflow(state, "w1", "G", "D", macro.ProblemRefs(
        "p", frozenset({"OldAPI"}), frozenset({"api.call"}), frozenset({"UpdateAPI"})))]
    events.append(macro.advance(state, "w1", "submit-view", {})[0])
    events.append(macro.drift(state, frozenset({"OldAPI"}))[0])
    return records_in(
        parsed, root, calculus.check(root, parsed.model), calculus.extract_plan(root),
        calculus.tangles([problem, problem]), report,
        impact.bound_check(report, frozenset()), macro.fold(events),
        macro.drift(state, frozenset({"OldAPI"}))[1], state,
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


def field_equal(a, b):
    """Record equality as the field tuples define it, recursing into each
    field that is a record."""
    if isinstance(a, Record) or isinstance(b, Record):
        return type(a) is type(b) and all(map(field_equal, fields(a), fields(b)))
    return a == b


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_chain_equality_agrees_with_comparing_field_tuples(data):
    mdl = data.draw(models())
    draw_value = st.one_of(needs(), changes(mdl))
    a = data.draw(draw_value)
    b = data.draw(st.one_of(draw_value, st.just(copy.deepcopy(a)), st.just(a)))
    for x, y in ((a, b), (b, a)):
        assert (x == y) is field_equal(x, y), (x, y)
        assert (x != y) is not field_equal(x, y), (x, y)
        if field_equal(x, y):
            assert hash(x) == hash(y)


LONG = 5000


def long_chain(combine, atom, last):
    """``LONG`` operands combined by ``combine``, nested to the right, the
    last one ``atom(last)``, each a new object."""
    chain = atom(last)
    for k in range(LONG - 1):
        chain = combine(atom(f"a{k % 7}"), chain)
    return chain


@pytest.mark.parametrize("combine,atom", [
    (model.NeedSeq, model.AtomicNeed), (model.NeedPar, model.AtomicNeed),
    (model.ChangeSeq, model.Unknown), (model.ChangePar, model.Unknown),
], ids=["NeedSeq", "NeedPar", "ChangeSeq", "ChangePar"])
def test_long_chains_built_apart_compare_along_their_spine(combine, atom):
    """Far longer than the recursion limit: the spine is walked in a loop."""
    assert sys.getrecursionlimit() < LONG
    first, second = long_chain(combine, atom, "z"), long_chain(combine, atom, "z")
    other = long_chain(combine, atom, "y")
    assert first is not second
    assert first == second and not first != second
    assert first != other and not first == other and other != first


@pytest.mark.parametrize("combine,atom", [
    (model.NeedSeq, model.AtomicNeed), (model.NeedPar, model.AtomicNeed),
    (model.ChangeSeq, model.Unknown), (model.ChangePar, model.Unknown),
], ids=["NeedSeq", "NeedPar", "ChangeSeq", "ChangePar"])
def test_long_chains_hash_along_their_spine(combine, atom):
    """Equal chains built apart hash equal, and as their field tuples do,
    far beyond the recursion limit; so they are set members and dict keys."""
    first, second = long_chain(combine, atom, "z"), long_chain(combine, atom, "z")
    other = long_chain(combine, atom, "y")
    assert hash(first) == hash(second)
    assert hash(first) == hash(fields(first)) and hash(other) == hash(fields(other))
    assert hash(first) != hash(other)  # not promised, but a collision here would be a bug
    assert {first: 1}[second] == 1 and len({first, second, other}) == 2


def test_a_mixed_spine_hashes_in_a_loop():
    """A change chain whose spine alternates ``;`` and ``||`` hashes as its
    field tuple, each level of the spine by its own class's fields."""
    out = model.Unknown("z")
    for k in range(LONG):
        out = (model.ChangeSeq if k % 2 else model.ChangePar)(model.Nil(), out)
    assert hash(out) == hash(fields(out))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_equal_chains_hash_equal(data):
    """``a == b`` implies ``hash(a) == hash(b)``, for values drawn apart,
    deep copies and the value itself; and each hashes as its field tuple."""
    mdl = data.draw(models())
    draw_value = st.one_of(needs(), changes(mdl))
    a = data.draw(draw_value)
    b = data.draw(st.one_of(draw_value, st.just(copy.deepcopy(a)), st.just(a)))
    if a == b:
        assert hash(a) == hash(b), (a, b)
    for x in (a, b):
        if isinstance(x, Record):
            assert hash(x) == hash(fields(x)), x


def test_a_mixed_spine_compares_in_a_loop():
    """A change chain whose spine alternates ``;`` and ``||``."""
    def chain(last):
        out = model.Unknown(last)
        for k in range(LONG):
            out = (model.ChangeSeq if k % 2 else model.ChangePar)(model.Nil(), out)
        return out
    assert chain("z") == chain("z") and chain("z") != chain("y")
    swapped = model.ChangePar(model.Nil(), chain("z").second)
    assert swapped != chain("z") and chain("z") != swapped


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


# Each record's constructor parameters, as the hand-written ``__init__``s
# took them: a name, or a (name, default) pair.  All are positional-or-keyword.
SIGNATURES = {
    "Add": ("domain",),
    "ApplyStatement": ("rule", "path", "args", ("marker", None), ("justification", None),
                       ("plan", ()), ("validations", ()), ("token", 0)),
    "AtomicNeed": ("name", ("description", "")),
    "BoundReport": ("report", "permitted"),
    "Cancel": ("domain_name",),
    "CausalLink": ("cause", "effect", "owner"),
    "ChangePar": ("left", "right"),
    "ChangeSeq": ("first", "second"),
    "CheckDiagnostic": ("path", "kind", "message"),
    "Deadline": ("kind", "value"),
    "DerivationNode": ("conclusion", ("rule", None), ("premises", ()), ("args", None),
                       ("justification", EMPTY_JUSTIFICATION), ("plan", ()), ("validations", ()),
                       ("greenfield", False), ("discharged", False), ("env_provisional", False),
                       ("marker", None), ("alternatives", ())),
    "DerivationScript": ("name", "problem_name", "statements"),
    "DischargeStatement": ("path", ("justification", None), ("validations", ()), ("token", 0)),
    "Folded": ("workflows", "last"),
    "Domain": ("name", ("description", ""), ("observed", frozenset()), ("controlled", frozenset()),
               ("links", frozenset()), ("structure", None)),
    "Environment": (("domains", ()),),
    "ImpactReport": ("edit", "structural", "behavioural", "buffers", "declared_buffers",
                     "seed_phenomena", "parent", "hits"),
    "ImplementationPlan": ("entries", "constraints"),
    "Justification": (("rule_rationale", None), ("coordination_rationale", None),
                      ("integration_argument", None), ("dependency_argument", None),
                      ("risk_register", ()), ("feedback_cadence", None), ("timeline_rationale", None),
                      ("validation_criteria", None), ("resource_rationale", None)),
    "Model": (("phenomena", ()), ("environment", model.Environment()), ("stakeholders", ()),
              ("needs", ())),
    "NeedPar": ("left", "right"),
    "NeedSeq": ("left", "right"),
    "NewLink": ("domain", "cause", "effect"),
    "Nil": (),
    "Organisation": ("state", ("current_problems", frozenset())),
    "ParseDiagnostic": ("line", "column", "message"),
    "ParsedFile": ("kind", "model", "problems", "derivations"),
    "Phenomenon": ("name", "kind"),
    "PlanEntry": ("step", "stage"),
    "PlanStep": ("id", "action", "installs", ("after", ()), ("parallel_ok", ()), ("deadline", None)),
    "Problem": ("env", "change", "validator", "need"),
    "ProblemRefs": ("text", "domains", "phenomena", "needs"),
    "Refine": ("target", "retained", "added"),
    "RiskItem": ("risk", "mitigation"),
    "Rule": ("arity", "premises", "evidence", ("required", ())),
    "StalenessReport": ("sequence", "touched", "stale", "regressions"),
    "Stakeholder": ("name", "role", ("trusts", frozenset())),
    "TanglePair": ("first", "second", "domains", "placeholders", "validators", "phenomena"),
    "Unknown": ("placeholder",),
    "ValidationMark": ("stakeholder", "granted"),
    "ValidationRecord": ("id", "stakeholder", "target", "status", "sequence"),
    "Verdict": ("kind", ("diagnostics", ()), ("open_items", ())),
    "Workflow": ("id", "owner", "delegate", "problem", ("state", macro.CpsState.CPS1),
                 ("children", ()), ("validations", ()), ("solution_refs", frozenset()),
                 ("solution_text", ""), ("implementation_mode", None)),
}


def test_every_record_takes_the_parameters_it_took_by_hand():
    records = {cls.__name__: cls for cls in Record.__subclasses__()}
    assert records.keys() == SIGNATURES.keys()
    for name, cls in records.items():
        parameters = inspect.signature(cls).parameters.values()
        assert {p.kind for p in parameters} <= {inspect.Parameter.POSITIONAL_OR_KEYWORD}, name
        got = tuple(p.name if p.default is p.empty else (p.name, type(p.default), p.default)
                    for p in parameters)
        assert got == tuple(p if isinstance(p, str) else (p[0], type(p[1]), p[1])
                            for p in SIGNATURES[name]), name
    with pytest.raises(TypeError) as raised:
        model.Cancel()
    assert str(raised.value) == "Cancel.__init__() missing 1 required positional argument: 'domain_name'"


def _assigns_its_parameter(statement):
    return (isinstance(statement, ast.Assign) and len(statement.targets) == 1
            and isinstance(statement.targets[0], ast.Attribute)
            and isinstance(statement.targets[0].value, ast.Name)
            and statement.targets[0].value.id == "self"
            and isinstance(statement.value, ast.Name) and statement.value.id == statement.targets[0].attr)


def test_only_a_record_that_validates_or_derives_writes_its_own_init():
    records = {cls.__name__ for cls in Record.__subclasses__()}
    own = {}
    for path in sorted((ROOT / "src" / "deltapoe").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name in records:
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and method.name == "__init__":
                        own[node.name] = all(map(_assigns_its_parameter, method.body))
    assert not [name for name, assigns_only in own.items() if assigns_only]
    assert own.keys() == {"Phenomenon", "CausalLink", "Domain", "Environment", "Deadline", "Model",
                          "DerivationNode"}


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
