"""Concrete syntax for `.poed` files: lexer and parser.

Three top-level forms share one file format:

    model { phenomenon a.b : event  domain X {...}  stakeholder G : role  need N "..." }
    problem name { env [X, Y] change ?F validator G need N }
    derivation name { problem name  apply Rule at root.0 with {...} ... }

Change expressions use one printable token per operator: ``+X`` adds a
domain, ``!X`` cancels one, ``X ~> d[A](B)`` refines, ``;`` sequences,
``||`` runs in parallel, ``?F`` is an unsolved placeholder and ``skip``
the identity change.  A problem can also be written in sequent form:
``[X] (+) ?F |= G : N``.  Comments run from ``#`` to end of line.

The lexer is one compiled pattern; each match takes the blanks before a
token, newline or comment along with it, so blanks cost no match of
their own.  The parser is a plain recursive descent that reads the
tokens by index; it is reentrant and keeps no global state.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import model as m
from .artifacts import (
    JUSTIFICATION_FIELDS, Deadline, Justification, PlanStep, Record, RiskItem, RuleId,
)

SYMBOLS = ("(+)", "||", "~>", "->", "|=", "{", "}", "[", "]", "(", ")",
           ":", ";", ",", "?", "+", "!", "-", ".", "@", "=")

ROLE_WORDS = {r.value: r for r in m.Role}

PHENOMENON_KINDS = {k.value: k for k in m.PhenomenonKind}

# Deepest parenthesis nesting a change or need may use; deeper input is a
# parse error, not a stack overflow in the parser or the checker.
MAX_NESTING = 100


class ParseDiagnostic(Record):
    __slots__ = ("line", "column", "message")

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message

    def __str__(self):
        return f"{self.line}:{self.column}: error: {self.message}"


class DslError(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class Token(NamedTuple):
    kind: str  # ident | int | string | symbol | eof
    value: str
    line: int
    column: int


# One alternative per token kind, after the blanks before it, so that each
# match yields one token, newline or comment.  No two kinds start with the
# same character, except that a string wins over the lone quote that opens
# an unterminated one, so the order is free elsewhere: frequent kinds come
# first.  Symbols are listed longest first, so "(+)" wins over "(".
# ``bad``, last, takes any other character but a blank, so a match fails
# only on the blanks that end the input, where the scan stops.
_TOKEN = re.compile(r"[ \t]*(?:" + "|".join((
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_']*(?:\.[A-Za-z_][A-Za-z0-9_']*)*)",
    "(?P<symbol>" + "|".join(map(re.escape, SYMBOLS)) + ")",
    r"(?P<newline>\n)",
    r"(?P<int>[0-9]+)",
    r"(?P<comment>#[^\n]*)",
    r'(?P<string>"(?:[^"\\\n]|\\[^\n])*")',
    r'(?P<unterminated>")',
    r"(?P<bad>[^ \t])",
)) + ")")

_ESCAPE = re.compile(r"\\(.)")
_ESCAPED = {"n": "\n", "t": "\t"}


def _unescape(escape: re.Match) -> str:
    return _ESCAPED.get(escape[1], escape[1])


def tokenize(src: str) -> list[Token]:
    src = src.replace("\r\n", "\n").replace("\r", "\n")
    new = tuple.__new__  # skips the Python-level Token.__new__
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for found in _TOKEN.finditer(src):
        kind = found.lastgroup
        if kind == "ident" or kind == "symbol" or kind == "int":
            text = found[kind]
            append(new(Token, (kind, text, line, found.end() - len(text) - line_start + 1)))
        elif kind == "newline":
            line, line_start = line + 1, found.end()
        elif kind != "comment":
            column = found.start(kind) - line_start + 1
            if kind == "string":
                append(new(Token, (kind, _ESCAPE.sub(_unescape, found[kind][1:-1]), line, column)))
            elif kind == "unterminated":
                raise DslError([ParseDiagnostic(line, column, "unterminated string")])
            else:
                raise DslError([ParseDiagnostic(line, column, f"unexpected character {found[kind]!r}")])
    append(Token("eof", "", line, len(src) - line_start + 1))
    return tokens


# --- model aggregate ----------------------------------------------------------

class Model(Record):
    """Everything a model block declares: the phenomenon vocabulary, the
    domain library, stakeholders and named needs, the last two also
    indexed by name."""

    __slots__ = ("phenomena", "environment", "stakeholders", "needs", "_stakeholders", "_needs")

    def __init__(
        self,
        phenomena: tuple[m.Phenomenon, ...] = (),
        environment: m.Environment = m.Environment(),
        stakeholders: tuple[m.Stakeholder, ...] = (),
        needs: tuple[m.AtomicNeed, ...] = (),
    ):
        self.phenomena = phenomena
        self.environment = environment
        self.stakeholders = stakeholders
        self.needs = needs
        self._stakeholders = {s.name: s for s in stakeholders}
        self._needs = {n.name: n for n in needs}

    def stakeholder(self, name: str) -> m.Stakeholder:
        return self._stakeholders[name]

    def need(self, name: str) -> m.AtomicNeed:
        return self._needs[name]

    def domain(self, name: str) -> m.Domain:
        return self.environment.domain(name)


EMPTY_MODEL = Model()


# --- derivation script records --------------------------------------------------

PathSeg = int | tuple[str, int]
NodePath = tuple[PathSeg, ...]


class ValidationMark(Record):
    __slots__ = ("stakeholder", "granted")

    def __init__(self, stakeholder: str, granted: bool):
        self.stakeholder = stakeholder
        self.granted = granted


class ApplyStatement(Record):
    __slots__ = ("rule", "path", "args", "marker", "justification", "plan", "validations",
                 "line", "column")

    def __init__(
        self,
        rule: RuleId,
        path: NodePath,
        args: dict,
        marker: str | None = None,  # None | "alternative" | "chosen"
        justification: Justification | None = None,
        plan: tuple[PlanStep, ...] = (),
        validations: tuple[ValidationMark, ...] = (),
        line: int = 0,
        column: int = 0,
    ):
        self.rule = rule
        self.path = path
        self.args = args
        self.marker = marker
        self.justification = justification
        self.plan = plan
        self.validations = validations
        self.line = line
        self.column = column


class DischargeStatement(Record):
    __slots__ = ("path", "justification", "validations", "line", "column")

    def __init__(
        self,
        path: NodePath,
        justification: Justification | None = None,
        validations: tuple[ValidationMark, ...] = (),
        line: int = 0,
        column: int = 0,
    ):
        self.path = path
        self.justification = justification
        self.validations = validations
        self.line = line
        self.column = column


Statement = ApplyStatement | DischargeStatement


class DerivationScript(Record):
    __slots__ = ("name", "problem_name", "statements")

    def __init__(self, name: str, problem_name: str, statements: tuple[Statement, ...]):
        self.name = name
        self.problem_name = problem_name
        self.statements = statements


class ParsedFile(Record):
    __slots__ = ("kind", "model", "problems", "derivations")

    def __init__(self, kind: str, model: Model, problems: dict,
                 derivations: tuple[DerivationScript, ...]):
        self.kind = kind
        self.model = model
        self.problems = problems
        self.derivations = derivations


def _amended(stmt: Statement, **fields) -> Statement:
    """A copy of ``stmt`` with ``fields`` in place of its own."""
    return type(stmt)(**dict(zip(stmt._names, stmt._values(stmt)), **fields))


def path_str(path: NodePath) -> str:
    out = "root"
    for seg in path:
        if isinstance(seg, int):
            out += f".{seg}"
        else:
            out += f"@{seg[1]}"
    return out


# --- parser ---------------------------------------------------------------------

ARG_KEYS = {
    "delegate", "need", "change", "solution", "env", "left", "right",
    "shape", "direction", "retained", "added",
}


class _Parser:
    def __init__(self, tokens: list[Token], model: Model):
        self.tokens = tokens
        self.pos = 0
        self.model = model
        self.depth = 0  # parentheses open around the expression being parsed

    # token plumbing

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (value is None or tok.value == value)

    def at_word(self, word: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.value == word and tok.kind == "ident"

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.tokens[self.pos]
        raise DslError([ParseDiagnostic(tok.line, tok.column, message)])

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            self.fail(f"expected {want!r}, found {tok.value or tok.kind!r}")
        if kind != "eof":
            self.pos += 1
        return tok

    def expect_word(self, word: str) -> Token:
        return self.expect("ident", word)

    def ident(self, what="identifier") -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "ident":
            self.fail(f"expected {what}, found {tok.value or tok.kind!r}")
        self.pos += 1
        return tok

    # name lists

    def name_list(self) -> list[Token]:
        tokens, pos = self.tokens, self.pos
        if tokens[pos].kind != "ident":
            return []
        names = [tokens[pos]]
        pos += 1
        while tokens[pos].value == "," and tokens[pos].kind == "symbol":
            self.pos = pos + 1
            names.append(self.ident("name"))
            pos += 2
        self.pos = pos
        return names

    def bracketed_names(self) -> list[Token]:
        self.expect("symbol", "[")
        names = self.name_list()
        self.expect("symbol", "]")
        return names

    # model form

    def parse_model_block(self, base: Model) -> Model:
        self.expect_word("model")
        self.expect("symbol", "{")
        phenomena = list(base.phenomena)
        domains = list(base.environment.domains)
        stakeholders = list(base.stakeholders)
        needs = list(base.needs)
        phen_names = {p.name for p in phenomena}
        dom_names = {d.name for d in domains}
        sk_names = {s.name for s in stakeholders}
        need_names = {n.name for n in needs}
        trust_refs: list[tuple[Token, str]] = []
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            word = tok.value if tok.kind == "ident" else None
            if word == "phenomenon":
                self.pos += 1
                name = self.ident("phenomenon name")
                self.expect("symbol", ":")
                kind = self.ident("phenomenon kind")
                if kind.value not in PHENOMENON_KINDS:
                    self.fail(
                        f"unknown phenomenon kind {kind.value!r}; one of "
                        + ", ".join(sorted(PHENOMENON_KINDS)),
                        kind,
                    )
                if name.value in phen_names:
                    self.fail(f"duplicate phenomenon name {name.value!r}", name)
                phen_names.add(name.value)
                phenomena.append(m.Phenomenon(name.value, PHENOMENON_KINDS[kind.value]))
            elif word == "domain":
                self.pos += 1
                name = self.ident("domain name")
                if name.value in dom_names:
                    self.fail(f"duplicate domain name {name.value!r}", name)
                dom_names.add(name.value)
                domains.append(self.domain_body(name, phen_names))
            elif word == "stakeholder":
                self.pos += 1
                name = self.ident("stakeholder name")
                if name.value in sk_names:
                    self.fail(f"duplicate stakeholder name {name.value!r}", name)
                sk_names.add(name.value)
                self.expect("symbol", ":")
                role = self.role()
                trusts: list[str] = []
                if self.at("symbol", "{"):
                    self.advance()
                    self.expect_word("trusts")
                    for tok in self.name_list():
                        trust_refs.append((tok, name.value))
                        trusts.append(tok.value)
                    self.expect("symbol", "}")
                stakeholders.append(m.Stakeholder(name.value, role, frozenset(trusts)))
            elif word == "need":
                self.pos += 1
                name = self.ident("need name")
                if name.value in need_names:
                    self.fail(f"duplicate need name {name.value!r}", name)
                need_names.add(name.value)
                desc = self.expect("string")
                needs.append(m.AtomicNeed(name.value, desc.value))
            elif tok.value == "}" and tok.kind == "symbol":
                break
            else:
                self.fail(
                    "expected 'phenomenon', 'domain', 'stakeholder', 'need' or '}'"
                )
        self.expect("symbol", "}")
        for tok, owner in trust_refs:
            if tok.value not in sk_names:
                self.fail(f"stakeholder {owner!r} trusts undeclared {tok.value!r}", tok)
        try:
            env = m.Environment(tuple(domains))
        except m.ModelError as err:
            self.fail(str(err))
        return Model(tuple(phenomena), env, tuple(stakeholders), tuple(needs))

    def domain_body(self, name: Token, phen_names: set) -> m.Domain:
        self.expect("symbol", "{")
        observed: list[str] = []
        controlled: list[str] = []
        links: list[m.CausalLink] = []
        description = ""
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            word = tok.value if tok.kind == "ident" else None
            if word == "observes" or word == "controls":
                self.pos += 1
                names = observed if word == "observes" else controlled
                for tok in self.name_list():
                    self.check_phenomenon(tok, phen_names)
                    names.append(tok.value)
            elif word == "causes":
                self.pos += 1
                cause = self.ident("phenomenon name")
                self.check_phenomenon(cause, phen_names)
                self.expect("symbol", "->")
                effect = self.ident("phenomenon name")
                self.check_phenomenon(effect, phen_names)
                try:
                    links.append(m.CausalLink(cause.value, effect.value, name.value))
                except m.ModelError as err:
                    self.fail(str(err), cause)
            elif word == "description":
                self.pos += 1
                description = self.expect("string").value
            elif tok.value == "}" and tok.kind == "symbol":
                break
            else:
                self.fail("expected 'observes', 'controls', 'causes', 'description' or '}'")
        self.expect("symbol", "}")
        try:
            return m.Domain(
                name.value,
                description,
                frozenset(observed),
                frozenset(controlled),
                frozenset(links),
            )
        except m.ModelError as err:
            self.fail(str(err), name)

    def check_phenomenon(self, tok: Token, phen_names: set):
        if tok.value not in phen_names:
            self.fail(f"undeclared phenomenon {tok.value!r}", tok)

    def role(self) -> m.Role:
        first = self.ident("stakeholder role")
        words = [first.value]
        while self.at("symbol", "-"):
            self.advance()
            words.append(self.ident("role word").value)
        joined = "-".join(words)
        if joined not in ROLE_WORDS:
            self.fail(
                f"unknown role {joined!r}; one of " + ", ".join(sorted(ROLE_WORDS)),
                first,
            )
        return ROLE_WORDS[joined]

    # needs and change expressions

    def chain(self, operand, symbol: str, node):
        """``operand (symbol operand)*``, grouped to the right, built
        without recursion so a long chain cannot exhaust the stack."""
        items = [operand()]
        while self.at("symbol", symbol):
            self.advance()
            items.append(operand())
        out = items.pop()
        while items:
            out = node(items.pop(), out)
        return out

    def group(self, expr):
        """``( expr )``, refusing nesting deeper than MAX_NESTING."""
        if self.depth == MAX_NESTING:
            self.fail(f"parentheses nested deeper than {MAX_NESTING}")
        self.advance()
        self.depth += 1
        inner = expr()
        self.depth -= 1
        self.expect("symbol", ")")
        return inner

    def need_expr(self) -> m.Need:
        return self.chain(self.need_seq, "||", m.NeedPar)

    def need_seq(self) -> m.Need:
        return self.chain(self.need_atom, ";", m.NeedSeq)

    def need_atom(self) -> m.Need:
        if self.at("symbol", "("):
            return self.group(self.need_expr)
        tok = self.ident("need name")
        try:
            return self.model.need(tok.value)
        except KeyError:
            self.fail(f"undeclared need {tok.value!r}", tok)

    def change_expr(self) -> m.ChangeExpr:
        return self.chain(self.change_seq, "||", m.ChangePar)

    def change_seq(self) -> m.ChangeExpr:
        return self.chain(self.change_atom, ";", m.ChangeSeq)

    def resolve_domain(self, tok: Token) -> m.Domain:
        try:
            return self.model.domain(tok.value)
        except KeyError:
            self.fail(f"undeclared domain {tok.value!r}", tok)

    def change_atom(self) -> m.ChangeExpr:
        if self.at("symbol", "("):
            return self.group(self.change_expr)
        if self.at("symbol", "?"):
            self.advance()
            return m.Unknown(self.ident("placeholder name").value)
        if self.at("symbol", "+"):
            self.advance()
            return m.Add(self.resolve_domain(self.ident("domain name")))
        if self.at("symbol", "!"):
            self.advance()
            return m.Cancel(self.ident("domain name").value)
        if self.at_word("skip"):
            self.advance()
            return m.Nil()
        tok = self.ident("change expression")
        self.expect("symbol", "~>")
        self.expect_word("d")
        retained = tuple(self.resolve_domain(t) for t in self.bracketed_names())
        self.expect("symbol", "(")
        added_names = self.name_list()
        self.expect("symbol", ")")
        added = tuple(self.resolve_domain(t) for t in added_names)
        return m.Refine(tok.value, retained, added)

    # problems

    def parse_problem_body(self) -> m.Problem:
        if self.at("symbol", "["):
            return self.sequent_body()
        self.expect_word("env")
        env = self.env_ref()
        self.expect_word("change")
        change = self.change_expr()
        self.expect_word("validator")
        validator = self.validator_ref()
        self.expect_word("need")
        need = m.normalize_need(self.need_expr())
        return m.Problem(env, change, validator, need)

    def sequent_body(self) -> m.Problem:
        env = self.env_ref()
        self.expect("symbol", "(+)")
        change = self.change_expr()
        self.expect("symbol", "|=")
        validator = self.validator_ref()
        self.expect("symbol", ":")
        need = m.normalize_need(self.need_expr())
        return m.Problem(env, change, validator, need)

    def env_ref(self) -> m.Environment:
        names = self.bracketed_names()
        domains = []
        for tok in names:
            domains.append(self.resolve_domain(tok))
        try:
            return m.Environment(tuple(domains))
        except m.ModelError as err:
            self.fail(str(err))

    def validator_ref(self) -> str:
        tok = self.ident("stakeholder name")
        try:
            self.model.stakeholder(tok.value)
        except KeyError:
            self.fail(f"undeclared stakeholder {tok.value!r}", tok)
        return tok.value

    # derivations

    def parse_derivation_block(self) -> DerivationScript:
        self.expect_word("derivation")
        name = self.ident("derivation name")
        self.expect("symbol", "{")
        self.expect_word("problem")
        problem_name = self.ident("problem name").value
        statements: list[Statement] = []
        while not self.at("symbol", "}"):
            if self.at_word("apply"):
                statements.append(self.apply_statement())
            elif self.at_word("discharge"):
                statements.append(self.discharge_statement())
            elif self.at_word("justify"):
                self.attach(statements, justification=self.justify_block())
            elif self.at_word("plan"):
                self.attach(statements, plan=self.plan_block())
            elif self.at_word("validated"):
                self.attach(statements, validation=self.validated_clause())
            else:
                self.fail(
                    "expected 'apply', 'discharge', 'justify', 'plan', 'validated' or '}'"
                )
        self.expect("symbol", "}")
        return DerivationScript(name.value, problem_name, tuple(statements))

    def attach(self, statements: list, justification=None, plan=None, validation=None):
        if not statements:
            self.fail("clause must follow an 'apply' or 'discharge' statement")
        last = statements[-1]
        if justification is not None:
            if last.justification is not None:
                self.fail("statement already has a justify block")
            statements[-1] = _amended(last, justification=justification)
        if plan is not None:
            if isinstance(last, DischargeStatement):
                self.fail("discharge statements carry no plan")
            statements[-1] = _amended(last, plan=last.plan + plan)
        if validation is not None:
            statements[-1] = _amended(last, validations=last.validations + (validation,))

    def apply_statement(self) -> ApplyStatement:
        kw = self.expect_word("apply")
        rule_tok = self.ident("rule name")
        try:
            rule = RuleId(rule_tok.value)
        except ValueError:
            self.fail(f"unknown rule {rule_tok.value!r}", rule_tok)
        self.expect_word("at")
        path = self.node_path()
        args: dict = {}
        if self.at_word("with"):
            self.advance()
            args = self.arg_block(rule)
        marker = None
        if self.at_word("alternative") or self.at_word("chosen"):
            marker = self.advance().value
        return ApplyStatement(
            rule, path, args, marker, line=kw.line, column=kw.column
        )

    def discharge_statement(self) -> DischargeStatement:
        kw = self.expect_word("discharge")
        self.expect_word("at")
        path = self.node_path()
        return DischargeStatement(path, line=kw.line, column=kw.column)

    def node_path(self) -> NodePath:
        self.expect_word("root")
        segs: list[PathSeg] = []
        while True:
            if self.at("symbol", "."):
                self.advance()
                segs.append(int(self.expect("int").value))
            elif self.at("symbol", "@"):
                self.advance()
                segs.append(("alt", int(self.expect("int").value)))
            else:
                break
        return tuple(segs)

    def arg_block(self, rule: RuleId) -> dict:
        self.expect("symbol", "{")
        args: dict = {}
        while not self.at("symbol", "}"):
            key = self.ident("argument name")
            if key.value not in ARG_KEYS:
                self.fail(f"unknown argument {key.value!r}", key)
            if key.value in args:
                self.fail(f"duplicate argument {key.value!r}", key)
            self.expect("symbol", ":")
            args[key.value] = self.arg_value(key.value)
            if self.at("symbol", ","):
                self.advance()
        self.expect("symbol", "}")
        return args

    def arg_value(self, key: str):
        if key == "delegate":
            return self.validator_ref()
        if key == "need":
            return m.normalize_need(self.need_expr())
        if key in ("change", "solution"):
            return self.change_expr()
        if key == "env":
            return self.env_ref()
        if key in ("left", "right"):
            return tuple(t.value for t in self.bracketed_names())
        if key in ("retained", "added"):
            return tuple(self.resolve_domain(t) for t in self.bracketed_names())
        if key == "shape":
            tok = self.ident("shape")
            if tok.value not in ("seq", "par"):
                self.fail("shape must be 'seq' or 'par'", tok)
            return tok.value
        if key == "direction":
            tok = self.ident("direction")
            if tok.value not in ("fuse", "split"):
                self.fail("direction must be 'fuse' or 'split'", tok)
            return tok.value
        raise AssertionError(key)

    def justify_block(self) -> Justification:
        self.expect_word("justify")
        self.expect("symbol", "{")
        values: dict = {}
        risks: list[RiskItem] = []
        while not self.at("symbol", "}"):
            key = self.ident("justification field")
            if key.value == "risk":
                risk = self.expect("string").value
                self.expect_word("mitigation")
                mitigation = self.expect("string").value
                risks.append(RiskItem(risk, mitigation))
            elif key.value in JUSTIFICATION_FIELDS:
                field = JUSTIFICATION_FIELDS[key.value]
                if field in values:
                    self.fail(f"duplicate field {key.value!r}", key)
                values[field] = self.expect("string").value
            else:
                self.fail(
                    f"unknown justification field {key.value!r}; one of "
                    + ", ".join(sorted(JUSTIFICATION_FIELDS) + ["risk"]),
                    key,
                )
        self.expect("symbol", "}")
        return Justification(risk_register=tuple(risks), **values)

    def plan_block(self) -> tuple[PlanStep, ...]:
        self.expect_word("plan")
        self.expect("symbol", "{")
        steps: list[PlanStep] = []
        seen: set[str] = set()
        while not self.at("symbol", "}"):
            self.expect_word("step")
            step_id = self.ident("step id")
            if step_id.value in seen:
                self.fail(f"duplicate step id {step_id.value!r}", step_id)
            seen.add(step_id.value)
            action = self.expect("string").value
            self.expect_word("installs")
            installs = self.change_atom()
            if not isinstance(installs, (m.Add, m.Cancel, m.Refine, m.Nil)):
                self.fail("a step installs a single change atom")
            after: list[str] = []
            parallel_ok: list[str] = []
            deadline = None
            while True:
                if self.at_word("after"):
                    self.advance()
                    after.append(self.ident("step id").value)
                elif self.at_word("parallel_ok"):
                    self.advance()
                    parallel_ok.append(self.ident("step id").value)
                elif self.at_word("deadline"):
                    tok = self.advance()
                    if deadline is not None:
                        self.fail("duplicate deadline", tok)
                    deadline = self.deadline_value()
                else:
                    break
            steps.append(
                PlanStep(
                    step_id.value,
                    action,
                    installs,
                    tuple(after),
                    tuple(parallel_ok),
                    deadline,
                )
            )
        self.expect("symbol", "}")
        return tuple(steps)

    def deadline_value(self) -> Deadline:
        if self.at("string"):
            return Deadline("relative", self.advance().value)
        year = self.expect("int")
        self.expect("symbol", "-")
        month = self.expect("int").value
        self.expect("symbol", "-")
        day = self.expect("int").value
        text = f"{year.value}-{month}-{day}"
        try:
            return Deadline("absolute", text)
        except ValueError:
            self.fail(f"bad date {text!r}", year)

    def validated_clause(self) -> ValidationMark:
        self.expect_word("validated")
        self.expect_word("by")
        stakeholder = self.validator_ref()
        verdict = self.ident("'granted' or 'rejected'")
        if verdict.value not in ("granted", "rejected"):
            self.fail("expected 'granted' or 'rejected'", verdict)
        return ValidationMark(stakeholder, verdict.value == "granted")

    # file level

    def parse_file(self, base: Model) -> ParsedFile:
        kind = None
        model = base
        problems: dict = {}
        derivations: list[DerivationScript] = []
        if self.at("eof"):
            self.fail("expected 'model', 'problem' or 'derivation'")
        while not self.at("eof"):
            if self.at_word("model"):
                kind = kind or "model"
                model = self.parse_model_block(model)
                self.model = model
            elif self.at_word("problem"):
                kind = kind or "problem"
                self.advance()
                name = self.ident("problem name")
                if name.value in problems:
                    self.fail(f"duplicate problem name {name.value!r}", name)
                self.expect("symbol", "{")
                problems[name.value] = self.parse_problem_body()
                self.expect("symbol", "}")
            elif self.at_word("derivation"):
                kind = kind or "derivation"
                derivations.append(self.parse_derivation_block())
            else:
                self.fail("expected 'model', 'problem' or 'derivation'")
        return ParsedFile(kind, model, problems, tuple(derivations))


# --- public entry points ----------------------------------------------------------

def parse_model(src: str) -> Model:
    """Parse a source containing model block(s) into the model aggregate."""
    parser = _Parser(tokenize(src), EMPTY_MODEL)
    parsed = parser.parse_file(EMPTY_MODEL)
    if parsed.kind != "model" or parsed.problems or parsed.derivations:
        raise DslError([ParseDiagnostic(1, 1, "expected 'model'")])
    return parsed.model


def parse_problem(src: str, model: Model) -> m.Problem:
    """Parse one problem, given the model its names resolve against.

    Accepts either a ``problem name { ... }`` block or a bare body
    (keyword or sequent form)."""
    parser = _Parser(tokenize(src), model)
    if parser.at_word("problem"):
        parsed = parser.parse_file(model)
        if len(parsed.problems) != 1 or parsed.derivations:
            raise DslError([ParseDiagnostic(1, 1, "expected exactly one problem block")])
        return next(iter(parsed.problems.values()))
    problem = parser.parse_problem_body()
    parser.expect("eof")
    return problem


def parse_change(src: str, model: Model) -> m.ChangeExpr:
    parser = _Parser(tokenize(src), model)
    change = parser.change_expr()
    parser.expect("eof")
    return change


def parse_need(src: str, model: Model) -> m.Need:
    parser = _Parser(tokenize(src), model)
    need = parser.need_expr()
    parser.expect("eof")
    return need


def parse_file(src: str, path: str = "<string>", base: Model = EMPTY_MODEL) -> ParsedFile:
    """Parse a full `.poed` file: any mix of model, problem and derivation
    blocks, resolved in order against ``base`` extended by the file's own
    model blocks."""
    parser = _Parser(tokenize(src), base)
    return parser.parse_file(base)
