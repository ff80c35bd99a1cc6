import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapoe import calculus, dsl, export, impact, model
from deltapoe.impact import NewLink

from .conftest import FIXTURES
from .oracles import bound_check_stored_paths, impact_doc_lists, model_dot_scan
from .strategies import layered_org_text


def golden_root():
    parsed = dsl.parse_file((FIXTURES / "api_upgrade.poed").read_text())
    return parsed, calculus.build(parsed.derivations[0], parsed.model, parsed.problems)


def test_structured_tree_has_stable_field_names():
    _, root = golden_root()
    doc = export.derivation_doc(root)
    for field in ("conclusion", "rule", "premises", "evidence", "plan"):
        assert field in doc
    assert doc["rule"] == "Delegation"
    assert doc["evidence"] == {"trust": "G->D"}
    node = doc
    while node["premises"]:
        node = node["premises"][0]
        for field in ("conclusion", "rule", "premises", "evidence", "plan"):
            assert field in node


def test_structured_tree_is_json_and_deterministic():
    _, root = golden_root()
    first, second = io.StringIO(), io.StringIO()
    export.to_json(export.derivation_doc(root), first)
    export.to_json(export.derivation_doc(root), second)
    assert first.getvalue() == second.getvalue()
    json.loads(first.getvalue())


def test_derivation_dot_one_node_per_step():
    _, root = golden_root()
    text = export.derivation_dot(root, "api_upgrade")

    def count(node):
        return 1 + sum(count(p) for p in node.premises) + sum(
            count(a) for a in node.alternatives
        )

    assert text.count("[label=") == count(root)
    assert text.count(" -> ") == count(root) - 1


def test_empty_derivation_exports_single_open_node():
    parsed = dsl.parse_file((FIXTURES / "api_upgrade.poed").read_text())
    lone = calculus.open_node(parsed.problems["upgrade"])
    text = export.derivation_dot(lone, "empty")
    assert text.count("[label=") == 1
    assert "open" in text


def test_impact_doc_round_trips_to_dot():
    chain = dsl.parse_model((FIXTURES / "chain.poed").read_text())
    report = impact.propagate(chain.environment, NewLink("C", "y", "c"), frozenset({"D"}))
    doc = export.impact_doc(report, chain.environment)
    text = export.impact_dot(doc)
    assert '"D" [fillcolor="lightblue", peripheries=2];' in text
    assert '"C" [fillcolor="lightcoral"];' in text
    assert '"E" [fillcolor="white"];' in text
    # the same graph from the document as written and read back, as
    # ``export --graph`` reads a report file, and from the eager document
    out = io.StringIO()
    export.to_json(doc, out)
    assert export.impact_dot(json.loads(out.getvalue())) == text
    assert export.impact_dot(impact_doc_lists(report, chain.environment)) == text


def test_impact_doc_is_the_eager_document():
    """``impact_doc``'s lazy members read as the eager document's lists,
    directly and through ``json.dumps`` with ``default=list``, as often
    as they are read."""
    mdl = dsl.parse_model(layered_org_text(12, 4, 3, seed=2))
    report = impact.propagate(mdl.environment, model.Cancel("O0_0"))
    bound = impact.bound_check(report, frozenset({"O0_0", "O1_1"}))
    doc = export.impact_doc(report, mdl.environment, bound)
    eager = impact_doc_lists(report, mdl.environment, bound_check_stored_paths(
        mdl.environment, model.Cancel("O0_0"), frozenset({"O0_0", "O1_1"})))
    for _ in range(2):
        assert json.dumps(doc, indent=2, default=list) == json.dumps(eager, indent=2)
        assert [list(path) for path in doc["paths"]] == eager["paths"]


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.rglob("*.poed")), ids=lambda p: str(p.relative_to(FIXTURES))
)
def test_model_dot_matches_scan_on_fixtures(path):
    mdl = dsl.parse_file(path.read_text(), str(path)).model
    assert export.model_dot(mdl, path.stem) == model_dot_scan(mdl, path.stem)


def test_model_dot_matches_scan_on_layered_model():
    mdl = dsl.parse_model(layered_org_text(10, 12, 3, seed=7))
    text = export.model_dot(mdl)
    assert text == model_dot_scan(mdl)
    edges = [line for line in text.splitlines() if "[label=" in line and "dashed" not in line]
    assert len(edges) == 9 * 12 * 3


class WriteLog(io.StringIO):
    """A text stream that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_to_json_stream_writes_the_same_text():
    mdl = dsl.parse_model(layered_org_text(30, 10, 3, seed=1))
    report = impact.propagate(mdl.environment, model.Cancel("O0_0"))
    out = WriteLog()
    export.to_json(export.impact_doc(report, mdl.environment), out)
    text = out.getvalue()
    assert text == json.dumps(impact_doc_lists(report, mdl.environment), indent=2) + "\n"
    # streamed in writes of at most 64 KiB, as few as the text allows
    assert max(out.sizes) <= 1 << 16
    assert 1 < len(out.sizes) <= len(text) // (1 << 16) + 1, out.sizes


# any JSON value, with strings of any code point (control characters and
# lone surrogates included) and tuples, which JSON writes as arrays
json_text = st.text(st.characters(exclude_categories=()), max_size=12)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | json_text,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.lists(json_text, max_size=5) | st.dictionaries(json_text, inner, max_size=5)),
    max_leaves=40,
)


@given(json_values)
@settings(max_examples=400, deadline=None)
def test_to_json_matches_the_stdlib_indent_encoder(value):
    out = io.StringIO()
    export.to_json(value, out)
    assert out.getvalue() == json.JSONEncoder(indent=2).encode(value) + "\n"


@given(st.lists(json_values, max_size=5))
@settings(max_examples=100, deadline=None)
def test_to_json_writes_rows_as_the_list_of_their_items_each_time(items):
    """A ``Rows`` member is made anew each time it is read, so a document
    holding one is written again with the same text."""
    doc = {"rows": export.Rows(lambda: iter(items)), "nested": [export.Rows(lambda: ())]}
    expected = json.JSONEncoder(indent=2).encode({"rows": items, "nested": [[]]}) + "\n"
    for _ in range(2):
        out = io.StringIO()
        export.to_json(doc, out)
        assert out.getvalue() == expected


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": [{None: 1}]}, {"a": {1.5: 1}}, {True: []}])
def test_to_json_refuses_keys_that_are_not_strings(doc):
    """Documents are keyed by names; the stdlib's conversion of int, float,
    bool and None keys to strings is not copied."""
    json.dumps(doc)
    with pytest.raises(TypeError, match="must be a string"):
        export.to_json(doc, io.StringIO())


@pytest.mark.parametrize("doc", [{"a": {1, 2}}, [b"bytes"], {"a": object()}])
def test_to_json_refuses_what_the_stdlib_refuses(doc):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        json.dumps(doc)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        export.to_json(doc, io.StringIO())
