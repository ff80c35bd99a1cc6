import importlib
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltapoe import dsl, model
from deltapoe import printer
from deltapoe.model import (
    AtomicNeed,
    Cancel,
    ChangeSeq,
    NeedSeq,
    Refine,
    Unknown,
)

from . import strategies as gen
from .oracles import Token, parse_file_by_peek, tokenize_scan, tokenize_tuples

DEPARTMENTS = """
model {
  phenomenon revenue : value
  domain sales   { controls revenue  description "sells things" }
  domain HR      { }
  domain finance { observes revenue }
  stakeholder Manager : problem-owner
  need IncreasedRevenue "more money"
}
"""

DEVENV = """
model {
  phenomenon api.call : event
  phenomenon build.run : event
  domain DevEnv.OldAPI { controls api.call  observes build.run  description "v1 endpoints" }
  domain Docs          { observes api.call  description "developer docs" }
  stakeholder G : problem-owner { trusts D }
  stakeholder D : problem-solving-delegate
  need UpdateAPI "all clients on the new API"
  need UpdateAPI_dep "deprecate old, introduce new"
}
"""


def test_parse_departments_model():
    mdl = dsl.parse_model(DEPARTMENTS)
    assert mdl.environment.names() == ("sales", "HR", "finance")
    assert mdl.domain("sales").controlled == {"revenue"}
    assert mdl.stakeholder("Manager").role is model.Role.PROBLEM_OWNER


def test_empty_input_reports_expected_model():
    with pytest.raises(dsl.DslError) as err:
        dsl.parse_model("")
    assert "expected 'model'" in str(err.value)


def test_duplicate_domain_positions_at_second_occurrence():
    src = 'model {\n  domain X { }\n  domain X { }\n}\n'
    with pytest.raises(dsl.DslError) as err:
        dsl.parse_model(src)
    diag = err.value.diagnostics[0]
    assert (diag.line, diag.column) == (3, 10)
    assert "duplicate domain name 'X'" in diag.message


def test_undeclared_phenomenon_rejected():
    src = 'model { domain X { observes ghost } }'
    with pytest.raises(dsl.DslError) as err:
        dsl.parse_model(src)
    assert "undeclared phenomenon 'ghost'" in str(err.value)


def test_parse_problem_block():
    mdl = dsl.parse_model(DEVENV)
    src = "problem upgrade { env [DevEnv.OldAPI] change ?F validator G need UpdateAPI }"
    problem = dsl.parse_problem(src, mdl)
    assert problem.env.names() == ("DevEnv.OldAPI",)
    assert problem.change == Unknown("F")
    assert problem.validator == "G"
    assert problem.need == AtomicNeed("UpdateAPI", "all clients on the new API")


def test_parse_problem_sequent_form():
    mdl = dsl.parse_model(DEVENV)
    block = dsl.parse_problem(
        "problem p { env [Docs] change skip validator D need UpdateAPI }", mdl
    )
    sequent = dsl.parse_problem("[Docs] (+) skip |= D : UpdateAPI", mdl)
    assert block == sequent


def test_undeclared_validator_rejected():
    mdl = dsl.parse_model(DEVENV)
    with pytest.raises(dsl.DslError) as err:
        dsl.parse_problem("[Docs] (+) ?F |= Ghost : UpdateAPI", mdl)
    assert "undeclared stakeholder 'Ghost'" in str(err.value)


def test_need_sequence_parses_to_seq():
    mdl = dsl.parse_model(DEVENV)
    need = dsl.parse_need("UpdateAPI_dep ; UpdateAPI", mdl)
    assert isinstance(need, NeedSeq)
    assert need.left.name == "UpdateAPI_dep"
    assert need.right.name == "UpdateAPI"


def test_change_expression_shapes():
    mdl = dsl.parse_model(DEPARTMENTS)
    change = dsl.parse_change("sales ~> d[HR](finance) ; !HR || +finance", mdl)
    # ';' binds tighter than '||'
    assert isinstance(change, model.ChangePar)
    assert isinstance(change.left, ChangeSeq)
    assert isinstance(change.left.first, Refine)
    assert change.left.second == Cancel("HR")


def test_parens_override_precedence():
    mdl = dsl.parse_model(DEPARTMENTS)
    change = dsl.parse_change("(!sales || !HR) ; +finance", mdl)
    assert isinstance(change, ChangeSeq)
    assert isinstance(change.first, model.ChangePar)


def test_syntax_error_position_is_inside_offending_token():
    mdl = dsl.parse_model(DEPARTMENTS)
    with pytest.raises(dsl.DslError) as err:
        dsl.parse_change("!sales ;; +HR", mdl)
    diag = err.value.diagnostics[0]
    assert (diag.line, diag.column) == (1, 9)


def test_comments_and_crlf_are_normalized():
    src = DEPARTMENTS.replace("\n", "\r\n").replace(
        "domain HR", "# interlude\r\n  domain HR"
    )
    assert dsl.parse_model(src) == dsl.parse_model(DEPARTMENTS)


def test_primed_identifiers():
    src = """
    model {
      phenomenon api.call : event
      domain OldAPI' { controls api.call }
    }
    """
    mdl = dsl.parse_model(src)
    assert dsl.parse_change("!OldAPI'", mdl) == Cancel("OldAPI'")
    assert printer.change_str(Cancel("OldAPI'")) == "!OldAPI'"


def test_refine_prints_in_surface_form():
    mdl = dsl.parse_model(DEPARTMENTS)
    change = Refine("sales", (model.Domain("restructuredSales"),), (model.Domain("customerSupport"),))
    assert printer.change_str(change) == "sales ~> d[restructuredSales](customerSupport)"


# --- round trips -----------------------------------------------------------------

@given(gen.models())
@settings(max_examples=150, deadline=None)
def test_model_round_trip(mdl):
    assert dsl.parse_model(printer.pretty(mdl)) == mdl


@pytest.mark.parametrize("text", ["a\rb", "\r\n", "\n\r"])
def test_a_description_with_a_carriage_return_round_trips(text):
    """A carriage return in a domain's or a need's description is printed
    as its escape, so that the lexer, which reads a carriage return as a
    line ending, does not see one when the text reparses."""
    mdl = dsl.Model(environment=model.Environment((model.Domain("A", text),)),
                    needs=(model.AtomicNeed("N", text),))
    assert dsl.parse_model(printer.pretty(mdl)) == mdl


@given(gen.models().flatmap(lambda mdl: gen.changes(mdl).map(lambda c: (mdl, c))))
@settings(max_examples=200, deadline=None)
def test_change_round_trip(case):
    mdl, change = case
    assert dsl.parse_change(printer.pretty(change), mdl) == change


@given(gen.models().flatmap(lambda mdl: gen.problems(mdl).map(lambda p: (mdl, p))))
@settings(max_examples=150, deadline=None)
def test_problem_round_trip(case):
    mdl, problem = case
    assert dsl.parse_problem(printer.pretty(problem), mdl) == problem


@given(gen.needs())
@settings(max_examples=150)
def test_need_print_parse_normalizes(need):
    mdl = dsl.Model(needs=tuple(model.AtomicNeed(f"n{i}") for i in range(1, 5)))
    normalized = model.normalize_need(need)
    assert dsl.parse_need(printer.need_str(need), mdl) == normalized


@given(gen.models())
@settings(max_examples=50, deadline=None)
def test_pretty_is_deterministic(mdl):
    assert printer.pretty(mdl) == printer.pretty(mdl)


@pytest.mark.parametrize(
    "fixture",
    ["api_upgrade.poed", "api_upgrade_with_docs.poed", "phone_upgrade.poed",
     "chain.poed", "devenv.poed"],
)
def test_every_fixture_round_trips(fixture, fixtures_dir):
    parsed = dsl.parse_file((fixtures_dir / fixture).read_text(), fixture)
    assert dsl.parse_model(printer.pretty(parsed.model)) == parsed.model
    for problem in parsed.problems.values():
        assert dsl.parse_problem(printer.pretty(problem), parsed.model) == problem


# --- the lexer against the lexers it replaced ---------------------------------------

def lexed(tokenize, src):
    """The token list, or the text of the lexer's error."""
    try:
        return tokenize(src)
    except dsl.DslError as err:
        return str(err)


def token_kind(text):
    """A token's kind, read off its first character as the parser reads it."""
    first = text[:1]
    if first in dsl.IDENT_START:
        return "ident"
    if first in dsl.DIGITS:
        return "int"
    if first == '"':
        return "string"
    return "symbol" if first else "eof"


def derived_tokens(src):
    """``dsl.tokenize``'s texts as ``Token`` tuples, with each kind, value
    and position derived from the text on demand."""
    locate = dsl._locator(dsl._normalized(src))
    return [Token(token_kind(text), dsl.token_value(text), *locate(i))
            for i, text in enumerate(dsl.tokenize(src))]


def error_offset(src, error):
    """The offset in ``src`` (newlines normalized) an error points at."""
    line, column = map(int, error.split(":", 2)[:2])
    return sum(len(text) + 1 for text in src.split("\n")[:line - 1]) + column - 1


def escapes_a_newline(src, quote):
    """Whether the string opened at ``quote`` holds a backslash-escaped
    newline, read the way the old scanner reads it."""
    j = quote + 1
    while j < len(src) and src[j] not in '"\n':
        if src[j] == "\\" and j + 1 < len(src):
            if src[j + 1] == "\n":
                return True
            j += 1
        j += 1
    return False


def documented_difference(src, new, old):
    """The documented class that explains ``new != old``, or None."""
    src = src.replace("\r\n", "\n").replace("\r", "\n")
    if isinstance(new, str):
        offset = error_offset(src, new)
        if lexed(derived_tokens, src[:offset]) != lexed(tokenize_scan, src[:offset]):
            return None
        char = src[offset]
        if new.endswith(f"unexpected character {char!r}") and char.isdigit() and not char.isascii():
            return "non-ASCII digit"
        if new.endswith("unterminated string") and char == '"' and escapes_a_newline(src, offset):
            return "escaped newline"
        return None
    last_line = src.rsplit("\n", 1)[-1]
    if (
        isinstance(old, list)
        and new[:-1] == old[:-1]
        and new[-1].line == old[-1].line
        and new[-1].column == len(last_line) + 1
        and last_line[old[-1].column - 1] == "#"
    ):
        return "column after a trailing comment"
    return None


LEXER_PIECES = (
    list("aZ_'09²٣\"\\#\t\r\n\f é.")
    + list(dsl.SYMBOLS)
    + ["root", "a.b", "need", "\\n", "\\\n", "  \n", "\t\n", " \t ", "\n \n"]
)


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(LEXER_PIECES), max_size=30).map("".join))
@example('root.² "a\\\nb" # note')
@example("need \t\n  \n\t\nskip \t")
def test_lexer_matches_the_scanner_outside_documented_differences(src):
    new, old = lexed(derived_tokens, src), lexed(tokenize_scan, src)
    assert new == old or documented_difference(src, new, old) is not None


# long runs exercise the pattern's gap, the quadratic spot of earlier lexers
BLANK_RUNS = [" " * 60, "\t" * 30, "\n" * 40, " \t\n" * 20, "# note\n" * 15, "# a # b  \n  " * 8]


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(LEXER_PIECES + BLANK_RUNS), max_size=30).map("".join))
@example('skip "a" "\\"')
@example('skip "\\"\\"\\" ² "')
@example('skip "a\n² "b')
@example('skip ² "a\n|')
@example("x" + " " * 60 + "|")
@example("skip\n  skip  # a\n\nskip ²\n|")  # an unexpected character in a later slice
@example('skip\nskip\n  need "a\nb" ²\n')  # an unterminated string in a later slice
def test_lexer_matches_the_tuple_lexer(src):
    """Kinds, values, positions and the first error are those of the
    lexer that built a tuple for each token, whether the source is lexed
    in one slice or cut into slices of a few characters and the rest of
    their line."""
    expected = lexed(tokenize_tuples, src)
    assert lexed(derived_tokens, src) == expected
    for size in (1, 2, 5):
        with mock.patch.object(dsl, "_SLICE", size):
            assert lexed(derived_tokens, src) == expected, size


def test_equal_token_texts_are_one_object():
    """Across slices too; and so the model's names are shared."""
    src = gen.layered_org_text(12, 8, 3, seed=1)
    for size in (dsl._SLICE, 40):
        with mock.patch.object(dsl, "_SLICE", size):
            texts = dsl.tokenize(src)
        assert len({id(t) for t in texts}) == len(set(texts)) < len(texts) // 4
    env = dsl.parse_model(src).environment
    names = [name for dom in env for name in (dom.name, *dom.observed, *dom.controlled)]
    names += [name for dom in env for link in dom.links for name in (link.cause, link.effect)]
    assert len({id(name) for name in names}) == len(set(names))


@pytest.mark.parametrize("digit", ["²", "٣", "٠"])
def test_non_ascii_digit_is_an_unexpected_character(digit):
    src = f"apply Sequence at root.0.{digit}"
    assert tokenize_scan(src)[-2] == Token("int", digit, 1, 26)
    with pytest.raises(dsl.DslError) as err:
        dsl.tokenize(src)
    assert str(err.value) == f"1:26: error: unexpected character {digit!r}"
    assert documented_difference(src, lexed(derived_tokens, src), lexed(tokenize_scan, src))


def test_escaped_newline_leaves_a_string_unterminated():
    src = 'model {\n  need N "a\\\nb"\n  need M "c"\n}'
    assert tokenize_scan(src)[4:6] == [
        Token("string", "a\nb", 2, 10),
        Token("ident", "need", 3, 3),  # on line 4
    ]
    with pytest.raises(dsl.DslError) as err:
        dsl.tokenize(src)
    assert str(err.value) == "2:10: error: unterminated string"
    assert derived_tokens(src.replace("\\\n", "\\n"))[4] == Token("string", "a\nb", 2, 10)


def test_string_escapes():
    assert dsl.token_value(dsl.tokenize(r'"a\"b\\c\nd\te\q"')[0]) == 'a"b\\c\nd\teq'


def test_eof_after_a_trailing_comment_is_past_the_comment():
    src = "skip\nskip  # note"
    assert derived_tokens(src)[-1] == Token("eof", "", 2, 13)
    assert tokenize_scan(src)[-1] == Token("eof", "", 2, 7)


# --- the parser against the one that read every token through peek ---------------

KEYWORDS = {"phenomenon", "domain", "stakeholder", "need", "observes", "controls",
            "causes", "description", "trusts"}
LIST_STARTS = {",", "[", "observes", "controls", "trusts"}


def _declared(tokens, keyword):
    return [tokens[k + 1].value for k, tok in enumerate(tokens) if tok.value == keyword and tok.kind == "ident"]


def _undeclared_phenomenon(tokens, i):
    tok = tokens[i]
    if tok.value in _declared(tokens, "phenomenon") and tokens[i - 1].value != "phenomenon":
        return tok.value + "_undeclared"


def _duplicate_domain(tokens, i):
    first = _declared(tokens, "domain")[:1]
    if tokens[i - 1].value == "domain" and [tokens[i].value] != first:
        return first[0]


def _trailing_comma(tokens, i):
    tok = tokens[i]
    if tok.kind == "ident" and tokens[i - 1].value in LIST_STARTS and tokens[i + 1].value != ",":
        return tok.value + ","


# mutation -> the text that replaces token i, or None where it does not apply
MUTATIONS = {
    "undeclared phenomenon": _undeclared_phenomenon,
    "missing comma": lambda tokens, i: "" if tokens[i].value == "," else None,
    "trailing comma": _trailing_comma,
    "duplicate domain": _duplicate_domain,
    "misspelt keyword": lambda tokens, i: tokens[i].value[:-1] if tokens[i].value in KEYWORDS else None,
    "missing }": lambda tokens, i: "" if tokens[i].value == "}" else None,
    "string for a name": lambda tokens, i: f'"{tokens[i].value}"' if tokens[i].kind == "ident" else None,
    "string for a symbol": lambda tokens, i: f'"{tokens[i].value}"' if tokens[i].kind == "symbol" else None,
}


def mutate(src, mutation, pick):
    """``src`` with one mutation at the ``pick``-th place (modulo their
    number) where it applies, or ``src`` when it applies nowhere."""
    tokens = tokenize_tuples(src)
    places = [(i, text) for i in range(1, len(tokens) - 1)
              if tokens[i].kind != "string" and (text := MUTATIONS[mutation](tokens, i)) is not None]
    if not places:
        return src
    i, text = places[pick % len(places)]
    line_starts = [0] + [k + 1 for k, char in enumerate(src) if char == "\n"]
    start = line_starts[tokens[i].line - 1] + tokens[i].column - 1
    return src[:start] + text + src[start + len(tokens[i].value):]


def parsed(parse, src):
    """The parsed file, or the text of the parser's error."""
    try:
        return parse(src)
    except dsl.DslError as err:
        return str(err)


def model_file(mdl, problem):
    return printer.model_str(mdl) + f"problem p {{ {printer.problem_str(problem)} }}\n"


MUTABLE = """model {
  phenomenon a : event
  phenomenon b : state
  domain X { controls a  observes b }
  domain Y { controls b  observes a  causes a -> b }
  stakeholder G : problem-owner { trusts D, G }
  stakeholder D : problem-solving-delegate
  need N "a need"
}
problem p { [X, Y] (+) ?F |= G : N }
"""


@settings(max_examples=400, deadline=None)
@given(
    gen.models().flatmap(lambda mdl: gen.problems(mdl).map(lambda p: model_file(mdl, p))),
    st.sampled_from([None, *MUTATIONS]),
    st.integers(min_value=0, max_value=10**6),
)
def test_parser_matches_the_peek_parser(src, mutation, pick):
    if mutation:
        src = mutate(src, mutation, pick)
    assert parsed(dsl.parse_file, src) == parsed(parse_file_by_peek, src)


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_each_mutation_is_a_parse_error_both_parsers_report_alike(mutation):
    """At every place the mutation applies to in a small file."""
    assert isinstance(parsed(dsl.parse_file, MUTABLE), dsl.ParsedFile)
    for pick in range(len(dsl.tokenize(MUTABLE))):
        src = mutate(MUTABLE, mutation, pick)
        error = parsed(dsl.parse_file, src)
        assert isinstance(error, str), src
        assert error == parsed(parse_file_by_peek, src)


def staged_sources(monkeypatch, tmp_path):
    """The bench's staged derivation and its broken copy, seed 1."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    staged = importlib.import_module("families").StagedDerivation(1, 40, tmp_path)
    return [Path(staged.path).read_text(), Path(staged.broken_path).read_text()]


def test_statement_positions_match_the_peek_parser(fixtures_dir, monkeypatch, tmp_path):
    sources = [path.read_text() for path in sorted(fixtures_dir.glob("*.poed"))]
    sources += staged_sources(monkeypatch, tmp_path)
    for src in sources:
        new, old = dsl.parse_file(src), parse_file_by_peek(src)
        assert new == old
        locate, tokens = dsl._locator(dsl._normalized(src)), tokenize_tuples(src)
        assert [locate(s.token) for d in new.derivations for s in d.statements] \
            == [(tokens[s.token].line, tokens[s.token].column)
                for d in old.derivations for s in d.statements]
    assert sum(len(d.statements) for d in dsl.parse_file(sources[-1]).derivations) > 100
