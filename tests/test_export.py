import importlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapoe import calculus, cli, cmd_common, dsl, export, impact, model
from deltapoe.impact import NewLink

from .conftest import FIXTURES
from .oracles import (
    bound_check_stored_paths,
    derivation_dot_recursive,
    impact_doc_lists,
    model_dot_scan,
    propagate_stored_paths,
)
from .strategies import layered_org_text
from .test_build_incremental import FIXTURE_DERIVATIONS
from .test_replay import built_prefix


def golden_root():
    parsed = dsl.parse_file((FIXTURES / "api_upgrade.poed").read_text())
    return parsed, calculus.build(parsed.derivations[0], parsed.model, parsed.problems)


def plan_document(capsys) -> str:
    """The structured ``plan`` document of the golden fixture, as written."""
    assert cli.main(["plan", str(FIXTURES / "api_upgrade.poed"), "--format", "structured"]) == 0
    return capsys.readouterr().out


def test_structured_plan_has_stable_field_names(capsys):
    doc = json.loads(plan_document(capsys))
    assert list(doc) == ["derivation", "steps", "constraints"]
    assert doc["derivation"] == "api_upgrade"
    for step in doc["steps"]:
        for field in ("id", "action", "installs", "stage"):
            assert field in step
    for constraint in doc["constraints"]:
        assert list(constraint) == ["kind", "step", "other"]


def test_structured_plan_is_the_stdlib_text_and_deterministic(capsys):
    first, second = plan_document(capsys), plan_document(capsys)
    assert first == second == json.dumps(json.loads(first), indent=2) + "\n"


def test_derivation_dot_one_node_per_step():
    _, root = golden_root()
    text = export.derivation_dot(root, "api_upgrade")

    def count(node):
        return 1 + sum(count(p) for p in node.premises) + sum(
            count(a) for a in node.alternatives
        )

    assert text.count("[label=") == count(root)
    assert text.count(" -> ") == count(root) - 1


@pytest.mark.parametrize(
    "path,which", FIXTURE_DERIVATIONS,
    ids=[f"{p.relative_to(FIXTURES)}#{k}" for p, k in FIXTURE_DERIVATIONS],
)
def test_derivation_dot_is_the_recursive_graph_on_fixtures(path, which):
    """Every fixture derivation, built up to its first refused statement,
    alternatives, markers and open leaves included."""
    parsed = dsl.parse_file(path.read_text(), str(path))
    root = built_prefix(parsed.derivations[which], parsed.model, parsed.problems)
    assert export.derivation_dot(root, path.stem) == derivation_dot_recursive(root, path.stem)


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
    eager = impact_doc_lists(propagate_stored_paths(mdl.environment, model.Cancel("O0_0")), mdl.environment,
                             bound_check_stored_paths(mdl.environment, model.Cancel("O0_0"),
                                                      frozenset({"O0_0", "O1_1"})))
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
    eager = impact_doc_lists(propagate_stored_paths(mdl.environment, model.Cancel("O0_0")), mdl.environment)
    assert text == json.dumps(eager, indent=2) + "\n"
    # streamed in writes of at most 64 KiB, as few as the text allows
    assert max(out.sizes) <= 1 << 16
    assert 1 < len(out.sizes) <= len(text) // (1 << 16) + 1, out.sizes


def greedy_chunks(texts, limit):
    """The writes ``cmd_common._write_lines`` makes of ``texts``: each
    the join of the next texts while it stays within ``limit``, and at
    least one text."""
    chunks, chunk = [], []
    for text in texts:
        if chunk and len("".join(chunk)) + len(text) > limit:
            chunks.append("".join(chunk))
            chunk = []
        chunk.append(text)
    return chunks + ["".join(chunk)]


@given(st.lists(st.text(max_size=12), max_size=20), st.integers(1, 16))
@settings(max_examples=200, deadline=None)
def test_write_lines_writes_the_texts_in_as_few_chunks_as_fit(texts, limit):
    """A text longer than a chunk is one write of its own, never split."""
    out = WriteLog()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cmd_common, "_CHUNK", limit)
        cmd_common._write_lines(iter(texts), out)
    assert out.getvalue() == "".join(texts)
    expected = greedy_chunks(texts, limit)
    assert out.sizes == [len(chunk) for chunk in expected]
    assert all(size <= limit or chunk in texts for size, chunk in zip(out.sizes, expected))


def test_write_lines_writes_to_stdout_by_default(capsys):
    cmd_common._write_lines(["a\n", "b" * (cmd_common._CHUNK + 1), "\n"])
    assert capsys.readouterr().out == "a\n" + "b" * (cmd_common._CHUNK + 1) + "\n"


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


def test_structured_paths_escape_each_name_once_where_it_enters_a_path(tmp_path, monkeypatch):
    """On the seed-1 bench organisation (120 layers of 30 domains) the
    paths hold 428,314 names, each escaped on its own before paths were
    rendered from their cause's text.  Now a seed costs one escape, any
    other reached phenomenon two (the domain whose link reached it, then
    itself) and a path one (its domain): 10,612 in all."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    org = importlib.import_module("families").ImpactOrg(1, 120, tmp_path)
    mdl = dsl.parse_model(Path(org.path).read_text())
    report = impact.propagate(mdl.environment, model.Cancel(org.target))
    assert sum(map(len, report.paths)) == 428_314
    escaped = []

    def escape(name):
        escaped.append(name)
        return json.encoder.encode_basestring_ascii(name)

    monkeypatch.setattr(export, "_json_str", escape)
    out = io.StringIO()
    export.to_json({"paths": export.impact_doc(report, mdl.environment)["paths"]}, out)
    assert escaped[0] == "paths"  # the key
    seeds = sum(step is None for step in report.parent.values())
    assert len(escaped) - 1 == seeds + 2 * (len(report.parent) - seeds) + len(report.hits) == 10_612
    assert out.getvalue() == json.dumps({"paths": [list(path) for path in report.paths]}, indent=2) + "\n"
