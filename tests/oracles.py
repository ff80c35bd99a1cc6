"""Test-only oracles: simple or earlier implementations that the tests
compare the library against.  None of this is used by the library."""

import json
import re
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from deltapoe import cli, macro
from deltapoe import model as m
from deltapoe.artifacts import (
    JUSTIFICATION_FIELDS,
    Deadline,
    Justification,
    PlanStep,
    RiskItem,
    RuleId,
    ValidationRecord,
    ValidationStatus,
    ValidationTarget,
)
from deltapoe.calculus import RULES, CheckDiagnostic, PlanEntry, _first_stage, evidence
from deltapoe.dsl import (
    ARG_KEYS,
    EMPTY_MODEL,
    MAX_NESTING,
    PHENOMENON_KINDS,
    ROLE_WORDS,
    SYMBOLS,
    ApplyStatement,
    DerivationScript,
    DischargeStatement,
    DslError,
    Model,
    NodePath,
    ParsedFile,
    ParseDiagnostic,
    PathSeg,
    Statement,
    ValidationMark,
    _amended,
    path_str,
)
from deltapoe.export import _dot_escape
from deltapoe.impact import UnknownDomain, _seed, edit_str, path_text
from deltapoe.macro import (
    _GATE_TARGET,
    BadLog,
    CpsState,
    IllegalTransition,
    ProblemRefs,
    StalenessReport,
    UnknownWorkflow,
    Workflow,
    WrongStakeholder,
    _apply_event,
)
from deltapoe.printer import (
    _PAR, _SEQ, _change_level, _need_level, change_str, env_str, problem_str,
)


# --- the lexer that built a tuple per token ---------------------------------------------

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


def tokenize_tuples(src: str) -> list[Token]:
    """The lexer ``dsl.tokenize`` replaced: one ``Token`` per token, with
    its kind, value and position worked out as it is lexed.  Its time is
    quadratic in the blanks that end the input, so keep those short."""
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


# --- the character-by-character lexer ---------------------------------------------------

IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
IDENT_CONT = IDENT_START | set("0123456789'")


def tokenize_scan(src: str) -> list[Token]:
    """The scanner ``tokenize_tuples`` replaced.  It differs in three ways:
    it reads any character ``str.isdigit`` accepts as a digit, it lets a
    backslash escape a newline inside a string, and it does not advance
    the column over a comment."""
    src = src.replace("\r\n", "\n").replace("\r", "\n")
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch in IDENT_START:
            j = i + 1
            while j < n and src[j] in IDENT_CONT:
                j += 1
            # dot-qualified names: merge "." only when an identifier follows
            while j + 1 < n and src[j] == "." and src[j + 1] in IDENT_START:
                j += 1
                while j < n and src[j] in IDENT_CONT:
                    j += 1
            tokens.append(Token("ident", src[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(Token("int", src[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            out = []
            while j < n and src[j] != '"':
                if src[j] == "\\" and j + 1 < n:
                    esc = src[j + 1]
                    out.append({"n": "\n", "t": "\t"}.get(esc, esc))
                    j += 2
                elif src[j] == "\n":
                    raise DslError([ParseDiagnostic(start_line, start_col, "unterminated string")])
                else:
                    out.append(src[j])
                    j += 1
            if j >= n:
                raise DslError([ParseDiagnostic(start_line, start_col, "unterminated string")])
            tokens.append(Token("string", "".join(out), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        for sym in SYMBOLS:
            if src.startswith(sym, i):
                tokens.append(Token("symbol", sym, start_line, start_col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise DslError([ParseDiagnostic(line, col, f"unexpected character {ch!r}")])
    tokens.append(Token("eof", "", line, col))
    return tokens


# --- the parser before it indexed its tokens directly -----------------------------------

class PeekParser:
    """The parser over ``Token`` tuples, as it was before it indexed its
    tokens directly: every token goes through ``peek``, ``at`` and
    ``advance``."""

    def __init__(self, tokens: list[Token], model: Model):
        self.tokens = tokens
        self.pos = 0
        self.model = model
        self.depth = 0  # parentheses open around the expression being parsed

    # token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def at_word(self, word: str) -> bool:
        return self.at("ident", word)

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.tokens[self.pos]
        raise DslError([ParseDiagnostic(tok.line, tok.column, message)])

    def expect(self, kind: str, value: str | None = None) -> Token:
        if not self.at(kind, value):
            want = value if value is not None else kind
            got = self.peek().value or self.peek().kind
            self.fail(f"expected {want!r}, found {got!r}")
        return self.advance()

    def expect_word(self, word: str) -> Token:
        return self.expect("ident", word)

    def ident(self, what="identifier") -> Token:
        if not self.at("ident"):
            self.fail(f"expected {what}, found {self.peek().value or self.peek().kind!r}")
        return self.advance()

    # name lists

    def name_list(self) -> list[Token]:
        names = []
        if self.at("ident"):
            names.append(self.advance())
            while self.at("symbol", ","):
                self.advance()
                names.append(self.ident("name"))
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
        while not self.at("symbol", "}"):
            if self.at_word("phenomenon"):
                self.advance()
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
            elif self.at_word("domain"):
                self.advance()
                name = self.ident("domain name")
                if name.value in dom_names:
                    self.fail(f"duplicate domain name {name.value!r}", name)
                dom_names.add(name.value)
                domains.append(self.domain_body(name, phen_names))
            elif self.at_word("stakeholder"):
                self.advance()
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
            elif self.at_word("need"):
                self.advance()
                name = self.ident("need name")
                if name.value in need_names:
                    self.fail(f"duplicate need name {name.value!r}", name)
                need_names.add(name.value)
                desc = self.expect("string")
                needs.append(m.AtomicNeed(name.value, desc.value))
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
        while not self.at("symbol", "}"):
            if self.at_word("observes"):
                self.advance()
                for tok in self.name_list():
                    self.check_phenomenon(tok, phen_names)
                    observed.append(tok.value)
            elif self.at_word("controls"):
                self.advance()
                for tok in self.name_list():
                    self.check_phenomenon(tok, phen_names)
                    controlled.append(tok.value)
            elif self.at_word("causes"):
                self.advance()
                cause = self.ident("phenomenon name")
                self.check_phenomenon(cause, phen_names)
                self.expect("symbol", "->")
                effect = self.ident("phenomenon name")
                self.check_phenomenon(effect, phen_names)
                try:
                    links.append(m.CausalLink(cause.value, effect.value, name.value))
                except m.ModelError as err:
                    self.fail(str(err), cause)
            elif self.at_word("description"):
                self.advance()
                description = self.expect("string").value
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
        start = self.pos
        self.expect_word("apply")
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
        return ApplyStatement(rule, path, args, marker, token=start)

    def discharge_statement(self) -> DischargeStatement:
        start = self.pos
        self.expect_word("discharge")
        self.expect_word("at")
        return DischargeStatement(self.node_path(), token=start)

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


def parse_file_by_peek(src: str) -> ParsedFile:
    return PeekParser(tokenize_tuples(src), EMPTY_MODEL).parse_file(EMPTY_MODEL)


# --- need walkers that recurse once per chain step -------------------------------------

def need_name_hint_recursive(need) -> str:
    if isinstance(need, m.AtomicNeed):
        return need.name
    op = ";" if isinstance(need, m.NeedSeq) else "||"
    return f"{need_name_hint_recursive(need.left)} {op} {need_name_hint_recursive(need.right)}"


def need_atoms_recursive(need) -> frozenset[str]:
    if isinstance(need, m.AtomicNeed):
        return frozenset({need.name})
    return need_atoms_recursive(need.left) | need_atoms_recursive(need.right)


def need_str_recursive(need, require: int = _PAR) -> str:
    """The surface form of any need, normalised or not."""
    level = _need_level(need)
    if isinstance(need, m.AtomicNeed):
        text = need.name
    elif isinstance(need, m.NeedSeq):
        text = f"{need_str_recursive(need.left, _SEQ + 1)} ; {need_str_recursive(need.right, _SEQ)}"
    else:
        text = f"{need_str_recursive(need.left, _PAR + 1)} || {need_str_recursive(need.right, _PAR)}"
    if level < require:
        return f"({text})"
    return text


# --- change walkers that recurse once per chain step -----------------------------------

def change_str_recursive(change, require: int = _PAR) -> str:
    level = _change_level(change)
    if isinstance(change, m.ChangeSeq):
        text = f"{change_str_recursive(change.first, _SEQ + 1)} ; {change_str_recursive(change.second, _SEQ)}"
    elif isinstance(change, m.ChangePar):
        text = f"{change_str_recursive(change.left, _PAR + 1)} || {change_str_recursive(change.right, _PAR)}"
    else:
        return change_str(change)
    if level < require:
        return f"({text})"
    return text


def mirror_need_shape_recursive(need, base: str, counter: list | None = None):
    counter = [0] if counter is None else counter
    if isinstance(need, m.AtomicNeed):
        counter[0] += 1
        return m.Unknown(f"{base}{counter[0]}")
    left = mirror_need_shape_recursive(need.left, base, counter)
    right = mirror_need_shape_recursive(need.right, base, counter)
    if isinstance(need, m.NeedSeq):
        return m.ChangeSeq(left, right)
    return m.ChangePar(left, right)


def is_unknown_free_recursive(change) -> bool:
    if isinstance(change, m.Unknown):
        return False
    if isinstance(change, m.ChangeSeq):
        return is_unknown_free_recursive(change.first) and is_unknown_free_recursive(change.second)
    if isinstance(change, m.ChangePar):
        return is_unknown_free_recursive(change.left) and is_unknown_free_recursive(change.right)
    return True


def placeholders_recursive(change) -> frozenset[str]:
    if isinstance(change, m.Unknown):
        return frozenset({change.placeholder})
    if isinstance(change, m.ChangeSeq):
        return placeholders_recursive(change.first) | placeholders_recursive(change.second)
    if isinstance(change, m.ChangePar):
        return placeholders_recursive(change.left) | placeholders_recursive(change.right)
    return frozenset()


def referenced_domains_recursive(change) -> frozenset[str]:
    if isinstance(change, m.Add):
        return frozenset({change.domain.name})
    if isinstance(change, m.Cancel):
        return frozenset({change.domain_name})
    if isinstance(change, m.Refine):
        parts = {change.target}
        parts.update(d.name for d in change.retained)
        parts.update(d.name for d in change.added)
        return frozenset(parts)
    if isinstance(change, m.ChangeSeq):
        return referenced_domains_recursive(change.first) | referenced_domains_recursive(change.second)
    if isinstance(change, m.ChangePar):
        return referenced_domains_recursive(change.left) | referenced_domains_recursive(change.right)
    return frozenset()

# --- workflow gates -------------------------------------------------------------------

def verify_gates(events) -> None:
    """Assert the validation gates over every prefix of a log: CPS3 and
    beyond require a live problem-view validation, CPS5 and beyond a live
    solution validation.  DONE is checked at the event that enters it
    only: a drift stales a finished workflow's records but, by design,
    does not reopen it."""
    workflows = {}
    for event in events:
        done = {wf.id for wf in workflows.values() if wf.state is CpsState.DONE}
        _apply_event(workflows, event)
        for wf in workflows.values():
            for v in wf.validations:
                if v.status is ValidationStatus.GRANTED:
                    assert v.stakeholder == wf.owner
            if wf.id in done:
                continue
            if wf.state in (CpsState.CPS3, CpsState.CPS4, CpsState.CPS5, CpsState.DONE):
                assert wf.effective(ValidationTarget.PROBLEM_VIEW) is not None, (
                    f"{wf.id} in {wf.state.value} without problem-view validation"
                )
            if wf.state in (CpsState.CPS5, CpsState.DONE):
                assert wf.effective(ValidationTarget.SOLUTION_PLAN) is not None, (
                    f"{wf.id} in {wf.state.value} without solution validation"
                )


# --- the workflow fold as it was before the gate lookups went O(1) ---------------------
#
# ``pending`` scans every record, ``effective`` keeps the last match of a forward
# scan, a record is replaced by id with a copy built field by field, and drift builds
# each record's reference set by union and checks every workflow for regression.

def _pending_scan(wf):
    for record in wf.validations:
        if record.status is ValidationStatus.PENDING:
            return record
    return None


def _effective_scan(wf, target):
    best = None
    for record in wf.validations:
        if record.target is target and record.status is ValidationStatus.GRANTED:
            best = record
    return best


def _replace_record_by_id(wf, record, status, sequence=None):
    wf.validations = tuple(
        ValidationRecord(v.id, v.stakeholder, v.target, v.subject, status,
                         v.sequence if sequence is None else sequence)
        if v.id == record.id else v
        for v in wf.validations
    )


def _apply_event_reference(workflows, event):
    kind, payload = event.kind, event.payload
    if kind == "drift":
        return _apply_drift_reference(workflows, event)
    if kind == "create":
        if event.workflow in workflows:
            raise IllegalTransition("-", kind, f"workflow {event.workflow!r} already exists")
        workflows[event.workflow] = Workflow(
            id=event.workflow,
            owner=payload["owner"],
            delegate=payload["delegate"],
            problem=ProblemRefs.from_payload(payload.get("problem", {})),
        )
        return None
    if event.workflow not in workflows:
        raise UnknownWorkflow(event.workflow)
    wf = workflows[event.workflow]

    if kind == "submit-view":
        if wf.state is not CpsState.CPS1:
            raise IllegalTransition(wf.state.value, kind)
        wf.state = CpsState.CPS2
        return None

    if kind == "request-validation":
        if wf.state not in _GATE_TARGET:
            raise IllegalTransition(wf.state.value, kind)
        if _pending_scan(wf) is not None:
            raise IllegalTransition(wf.state.value, kind, "a validation is already pending")
        wf.validations += (
            ValidationRecord(
                id=f"v{event.sequence}",
                stakeholder=wf.owner,
                target=_GATE_TARGET[wf.state],
                subject=wf.id,
                status=ValidationStatus.PENDING,
                sequence=event.sequence,
            ),
        )
        return None

    if kind == "record-validation":
        if wf.state not in _GATE_TARGET:
            raise IllegalTransition(wf.state.value, kind)
        pending = _pending_scan(wf)
        if pending is None:
            raise IllegalTransition(wf.state.value, kind, "no validation is pending")
        by = payload.get("by")
        if by != wf.owner:
            raise WrongStakeholder(
                f"only the owner {wf.owner!r} may validate workflow {wf.id!r}, not {by!r}"
            )
        status = payload.get("status")
        if status not in ("granted", "rejected"):
            raise IllegalTransition(wf.state.value, kind, "status must be granted or rejected")
        granted = status == "granted"
        if granted and wf.state is CpsState.CPS4:
            for child_id in wf.children:
                child = workflows[child_id]
                solution = _effective_scan(child, ValidationTarget.SOLUTION_PLAN)
                if child.state not in (CpsState.CPS5, CpsState.DONE) or solution is None:
                    raise IllegalTransition(
                        wf.state.value,
                        kind,
                        f"sub-delegation {child_id!r} has no validated solution yet",
                    )
        _replace_record_by_id(
            wf,
            pending,
            status=ValidationStatus.GRANTED if granted else ValidationStatus.REJECTED,
            sequence=event.sequence,
        )
        if wf.state is CpsState.CPS2:
            wf.state = CpsState.CPS3 if granted else CpsState.CPS1
        else:
            wf.state = CpsState.CPS5 if granted else CpsState.CPS3
            wf.implementation_mode = None
        return None

    if kind == "submit-solution":
        if wf.state is not CpsState.CPS3:
            raise IllegalTransition(wf.state.value, kind)
        wf.solution_text = payload.get("solution", "")
        wf.solution_refs = frozenset(payload.get("refs", ()))
        wf.state = CpsState.CPS4
        return None

    if kind == "begin-implementation":
        if wf.state is not CpsState.CPS5:
            raise IllegalTransition(wf.state.value, kind)
        if wf.implementation_mode is not None:
            raise IllegalTransition(wf.state.value, kind, "implementation already begun")
        mode = payload.get("mode")
        if mode not in ("self", "delegate"):
            raise IllegalTransition(wf.state.value, kind, "mode must be self or delegate")
        wf.implementation_mode = mode
        return None

    if kind == "delegate":
        if wf.state not in (CpsState.CPS3, CpsState.CPS5):
            raise IllegalTransition(wf.state.value, kind)
        child_id = payload["child"]
        if child_id in workflows:
            raise IllegalTransition(wf.state.value, kind, f"workflow {child_id!r} already exists")
        delegating = wf.delegate if wf.state is CpsState.CPS3 else wf.owner
        workflows[child_id] = Workflow(
            id=child_id,
            owner=delegating,
            delegate=payload["to"],
            problem=ProblemRefs.from_payload(payload.get("problem", {})),
        )
        wf.children += (child_id,)
        return None

    if kind == "complete":
        if wf.state is not CpsState.CPS5:
            raise IllegalTransition(wf.state.value, kind)
        if wf.implementation_mode is None:
            raise IllegalTransition(
                wf.state.value, kind, "choose self- or delegated implementation first"
            )
        for child_id in wf.children:
            if workflows[child_id].state is not CpsState.DONE:
                raise IllegalTransition(
                    wf.state.value, kind, f"sub-delegation {child_id!r} is not done"
                )
        wf.state = CpsState.DONE
        return None

    raise IllegalTransition(wf.state.value, kind, "unknown event kind")


def _refs_for(wf, target):
    refs = wf.problem.domains | wf.problem.phenomena | wf.problem.needs
    if target is ValidationTarget.SOLUTION_PLAN:
        refs |= wf.solution_refs
    return refs


def _apply_drift_reference(workflows, event):
    touched = frozenset(event.payload.get("touched", ()))
    if not touched:
        raise IllegalTransition("-", "drift", "a drift event must touch something")
    stale = []
    regressions = []
    for wf in workflows.values():
        for record in wf.validations:
            if (
                record.status is ValidationStatus.GRANTED
                and record.sequence < event.sequence
                and _refs_for(wf, record.target) & touched
            ):
                _replace_record_by_id(wf, record, status=ValidationStatus.STALE)
                stale.append((wf.id, record.id, record.target.value))
        if wf.state is CpsState.DONE:
            continue
        before = wf.state
        view_ok = _effective_scan(wf, ValidationTarget.PROBLEM_VIEW) is not None
        solution_ok = _effective_scan(wf, ValidationTarget.SOLUTION_PLAN) is not None
        if wf.state in (CpsState.CPS3, CpsState.CPS4, CpsState.CPS5) and not view_ok:
            wf.state = CpsState.CPS2
        elif wf.state is CpsState.CPS5 and not solution_ok:
            wf.state = CpsState.CPS4
        if wf.state is not before:
            wf.implementation_mode = None
            regressions.append((wf.id, before.value, wf.state.value))
            pending = _pending_scan(wf)
            if wf.state is CpsState.CPS2 and pending is not None:
                _replace_record_by_id(wf, pending, status=ValidationStatus.STALE)
                stale.append((wf.id, pending.id, pending.target.value))
    return StalenessReport(event.sequence, touched, tuple(stale), tuple(regressions))


def fold_reference(events):
    """Replay a log as the library's ``fold`` does, with the scans above;
    returns the workflows and the report of every drift event."""
    workflows, reports = {}, []
    last = 0
    for event in events:
        if event.sequence <= last:
            raise BadLog(f"sequence {event.sequence} does not increase (after {last})")
        report = _apply_event_reference(workflows, event)
        if report is not None:
            reports.append(report)
        last = event.sequence
    return workflows, reports


# --- the workflow commands as they decoded the whole log before folding it ------------
#
# ``macro.parse_log``, ``cli._read_log`` and ``cli._run_workflow`` as they were while
# the log was read into a list of events: ``str.splitlines`` cuts the text, every line
# is decoded, then the torn last line is checked, then the appending functions fold
# the list.

def parse_log_eager(text: str) -> list:
    events = []
    append, new = events.append, tuple.__new__
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            try:
                raw, end = macro._raw_decode(line)
            except json.JSONDecodeError:
                end = -1
            if end != len(line):
                if not line.strip():
                    continue
                raw = json.loads(line)
            fields = raw["sequence"], raw["workflow"], raw["event"], raw["payload"]
        except (json.JSONDecodeError, KeyError, TypeError) as err:
            raise macro.BadLog(f"line {lineno}: {err}")
        except RecursionError:  # the decoder recurses once per nesting level
            raise macro.BadLog(f"line {lineno}: JSON nested too deeply") from None
        if (type(fields[0]) is not int or type(fields[1]) is not str
                or type(fields[2]) is not str or type(fields[3]) is not dict):
            key, _, what = next(f for f, value in zip(macro._FIELDS, fields) if type(value) is not f[1])
            raise macro.BadLog(f"line {lineno}: field {key!r} is not {what}")
        append(new(macro.Event, fields))
    return events


def read_log_eager(handle, appending: bool) -> list:
    try:
        text = handle.read()
    except UnicodeDecodeError as err:  # the whole file is decoded at once: the offset is the file's
        raise macro.BadLog(f"not valid UTF-8: byte 0x{err.object[err.start]:02x} "
                           f"at offset {err.start}") from None
    events = parse_log_eager(text)
    if appending and text and not text.endswith("\n"):
        raise macro.BadLog(f"line {len(text.splitlines())}: no final newline; "
                           "the last write may be torn, so nothing is appended")
    return events


def _print_status_eager(events) -> None:
    workflows = macro.fold(events)
    if not workflows:
        print("no workflows")
        return
    for wf in workflows.values():
        print(f"workflow {wf.id}: {wf.state.value}  (owner {wf.owner}, delegate {wf.delegate})")
        for record in wf.validations:
            print(
                f"  validation {record.id}: {record.target.value} "
                f"{record.status.value} (by {record.stakeholder}, seq {record.sequence})"
            )
        if wf.solution_text:
            print(f"  solution: {wf.solution_text}")
        if wf.implementation_mode:
            print(f"  implementation: {wf.implementation_mode}")
        for child in wf.children:
            print(f"  child: {child}")


def run_workflow_eager(args, events, handle) -> int:
    log_path = args.log
    if args.subcommand == "status":
        try:
            _print_status_eager(events)
        except macro.MacroError as err:
            cli._err(f"{log_path}: {err}")
            return cli.INVALID
        return cli.OK

    try:
        if args.subcommand == "advance":
            new_events = []
            if not events and args.owner and args.delegate:
                workspace = cli._load_workspace([args.model])[0] if args.model and args.problem else None
                refs = cli._workflow_problem_refs(args, workspace)
                new_events.append(
                    macro.create_workflow(events, args.workflow, args.owner, args.delegate, refs)
                )
            payload = {}
            if args.event == "record-validation":
                payload = {"by": args.by, "status": args.status}
            elif args.event == "begin-implementation":
                payload = {"mode": args.mode}
            elif args.event == "submit-solution":
                payload = {"solution": args.solution or "", "refs": sorted(cli._names_flag(args.refs))}
            event, wf = macro.advance(events + new_events, args.workflow, args.event, payload)
            new_events.append(event)
            cli._append_events(handle, new_events)
            print(f"workflow {wf.id}: {wf.state.value}")
            return cli.OK
        if args.subcommand == "delegate":
            workspace, status = cli._load_workspace([args.model]) if args.model else (None, cli.OK)
            refs = cli._workflow_problem_refs(args, workspace)
            if args.model and workspace is None:
                return status
            event, child = macro.delegate(
                events, args.workflow, args.to, args.child, refs, workspace.model if workspace else {}
            )
            cli._append_events(handle, [event])
            print(f"workflow {child.id}: {child.state.value} (owner {child.owner}, delegate {child.delegate})")
            return cli.OK
        if args.subcommand == "drift":
            touched = cli._names_flag(args.touch)
            event, report = macro.drift(events, touched, args.description, args.origin)
            cli._append_events(handle, [event])
            if report.empty:
                print("drift: nothing invalidated")
            else:
                for workflow_id, record_id, target in report.stale:
                    print(f"stale: {workflow_id} {record_id} ({target})")
                for workflow_id, before, after in report.regressions:
                    print(f"regressed: {workflow_id} {before} -> {after}")
            return cli.OK
    except macro.IllegalTransition as err:
        cli._err(f"{log_path}: {err}")
        return cli.INCOMPLETE
    except (macro.MacroError, ValueError) as err:
        cli._err(f"{log_path}: {err}")
        return cli.INVALID
    cli._err(f"unknown workflow subcommand {args.subcommand!r}")
    return cli.USAGE


# --- impact paths, one at a time ------------------------------------------------------

def path_from_parent(report, domain, phen):
    """The path to ``domain`` through its hit ``phen``, read back from
    ``report.parent`` for that hit alone: the reference for
    ``ImpactReport.walk``."""
    out = [domain, phen]
    step = report.parent[phen]
    while step is not None:
        cause, via = step
        out += (via, cause)
        step = report.parent[cause]
    return tuple(reversed(out))


def path_to(report, domain):
    """The path to ``domain``, or None if the edit does not reach it."""
    phen = report.hits.get(domain)
    return None if phen is None else path_from_parent(report, domain, phen)


# --- impact propagation with every path stored ---------------------------------------

@dataclass(frozen=True)
class StoredPathsReport:
    edit: str
    structural: frozenset
    behavioural: frozenset
    buffers: frozenset
    declared_buffers: frozenset
    seed_phenomena: frozenset
    paths: tuple  # one shortest path per reached domain, discovery order

    def path_to(self, domain):
        for path in self.paths:
            if path[-1] == domain:
                return path
        return None


def propagate_stored_paths(env, edit, buffers=frozenset()) -> StoredPathsReport:
    """The propagation that builds a full path for every observed affected
    phenomenon of every domain and stores one path per reached domain:
    O(N * depth), kept as the reference for paths and their order."""
    for name in buffers:
        if name not in env:
            raise UnknownDomain(name)
    structural, seeds = _seed(env, edit)

    edges = {}
    for dom in env:
        if dom.name in buffers:
            continue
        for link in sorted(dom.links):
            if link.cause in dom.observed:
                edges.setdefault(link.cause, []).append((link.effect, dom.name))

    parent = {}
    queue = deque()
    for phen in sorted(seeds):
        parent[phen] = None
        queue.append(phen)
    while queue:
        phen = queue.popleft()
        for effect, via in edges.get(phen, ()):
            if effect not in parent:
                parent[effect] = (phen, via)
                queue.append(effect)
    affected = set(parent)

    def chain(phen):
        out = [phen]
        at = phen
        while parent[at] is not None:
            cause, via = parent[at]
            out.extend([via, cause])
            at = cause
        return tuple(reversed(out))

    reached = []
    for dom in env:
        if dom.name in structural:
            continue
        hits = sorted(dom.observed & affected, key=lambda p: (len(chain(p)), p))
        if hits:
            path = chain(hits[0]) + (dom.name,)
            reached.append((len(path), dom.name, path))
    reached.sort(key=lambda item: (item[0], item[1]))

    behavioural = frozenset(name for _, name, _ in reached)
    return StoredPathsReport(
        edit=edit_str(edit),
        structural=structural,
        behavioural=behavioural,
        buffers=behavioural & buffers,
        declared_buffers=frozenset(buffers),
        seed_phenomena=seeds,
        paths=tuple(path for _, _, path in reached),
    )


@dataclass(frozen=True)
class StoredBoundReport:
    passed: bool
    violations: tuple  # (domain, path) pairs, by path length, then name


def bound_check_stored_paths(env, edit, permitted, buffers=frozenset()) -> StoredBoundReport:
    """Bound check over ``propagate_stored_paths``: one linear path search
    per violation, then a sort by path length and name.  The bound report
    as it was before it rendered its violations when they are read."""
    report = propagate_stored_paths(env, edit, buffers)
    impacted = report.structural | report.behavioural
    violations = []
    for name in sorted(impacted - permitted):
        path = report.path_to(name) or (name,)
        violations.append((name, path))
    violations.sort(key=lambda v: (len(v[1]), v[0]))
    return StoredBoundReport(not violations, tuple(violations))


def impact_doc_lists(report, env, bound=None) -> dict:
    """``export.impact_doc`` as it was before its paths and violations
    were walked as they are written: every one held in a list, the
    document ``json.dumps`` writes as the structured report."""
    doc = {
        "edit": report.edit,
        "structural": sorted(report.structural),
        "behavioural": sorted(report.behavioural),
        "buffers": sorted(report.buffers),
        "declared_buffers": sorted(report.declared_buffers),
        "seed_phenomena": sorted(report.seed_phenomena),
        "paths": [list(path) for path in report.paths],
        "domains": list(env.names()),
    }
    if bound is not None:
        doc["bound"] = {
            "passed": bound.passed,
            "violations": [{"domain": name, "path": list(path)} for name, path in bound.violations],
        }
    return doc


# --- model graph ----------------------------------------------------------------------

def model_dot_scan(mdl, name="model") -> str:
    """``export.model_dot`` with its observers found by scanning every
    domain for every controlled phenomenon: O(N^2), the reference for the
    edge order."""
    lines = [f'digraph "{_dot_escape(name)}" {{', "  node [shape=box];"]
    env = mdl.environment
    for dom in env:
        lines.append(f'  "{_dot_escape(dom.name)}";')
    for dom in env:
        for phen in sorted(dom.controlled):
            for other in env:
                if other.name != dom.name and phen in other.observed:
                    lines.append(
                        f'  "{_dot_escape(dom.name)}" -> "{_dot_escape(other.name)}"'
                        f' [label="{_dot_escape(phen)}"];'
                    )
        for link in sorted(dom.links):
            lines.append(
                f'  "{_dot_escape(dom.name)}" -> "{_dot_escape(dom.name)}"'
                f' [label="{_dot_escape(link.cause)} -> {_dot_escape(link.effect)}", style=dashed];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- apply_change over a list of entries searched by name -----------------------------

_ADDED = 10**9


class ListEntries:
    """The working set ``apply_change`` kept as a list of (key, domain)
    pairs, found by a linear search.  A repeated name stays in the list
    until the final environment rejects it."""

    def __init__(self, pairs, counter=0):
        self.pairs = pairs
        self.counter = counter
        self.touched = set()

    def names(self):
        return {d.name for _, d in self.pairs}

    def find(self, name):
        for i, (_, d) in enumerate(self.pairs):
            if d.name == name:
                return i
        return None

    def to_env(self):
        ordered = sorted(self.pairs, key=lambda kv: kv[0])
        return m.Environment(tuple(d for _, d in ordered))


def _list_prune_composites(entries, removed):
    for i, (key, dom) in enumerate(list(entries.pairs)):
        if dom.structure is not None and removed in dom.structure:
            remaining = tuple(n for n in dom.structure if n != removed)
            entries.touched.add(dom.name)
            if len(remaining) <= 1:
                entries.pairs.pop(i)
            else:
                entries.pairs[i] = (key, m.Domain(dom.name, dom.description, structure=remaining))
            return


def _list_remove_composite(entries, index):
    key, dom = entries.pairs.pop(index)
    entries.touched.add(dom.name)
    for member in dom.structure or ():
        j = entries.find(member)
        if j is not None:
            if entries.pairs[j][1].is_composite:
                _list_remove_composite(entries, j)
            else:
                entries.touched.add(member)
                entries.pairs.pop(j)


def _list_apply_atoms(entries, change):
    if isinstance(change, m.Nil):
        return
    if isinstance(change, m.Unknown):
        raise m.UnknownChange(change.placeholder)
    if isinstance(change, m.Add):
        if change.domain.name in entries.names():
            raise m.AddExisting(change.domain.name)
        entries.counter += 1
        entries.touched.add(change.domain.name)
        entries.pairs.append((((_ADDED + entries.counter, ""),), change.domain))
        return
    if isinstance(change, m.Cancel):
        index = entries.find(change.domain_name)
        if index is None:
            raise m.CancelMissing(change.domain_name)
        if entries.pairs[index][1].is_composite:
            _list_remove_composite(entries, index)
        else:
            entries.touched.add(change.domain_name)
            entries.pairs.pop(index)
        _list_prune_composites(entries, change.domain_name)
        return
    if isinstance(change, m.Refine):
        index = entries.find(change.target)
        if index is None:
            raise m.RefineMissing(change.target)
        key, old = entries.pairs[index]
        members = change.retained + change.added
        if old.is_composite:
            _list_remove_composite(entries, index)
        else:
            entries.pairs.pop(index)
        existing = entries.names()
        for member in members:
            if member.name in existing:
                raise m.AddExisting(member.name)
        entries.touched.add(change.target)
        composite = m.Domain(change.target, old.description, structure=tuple(d.name for d in members))
        entries.pairs.insert(index, (key, composite))
        for offset, member in enumerate(members, start=1):
            entries.touched.add(member.name)
            entries.pairs.append((key + ((offset, ""),), member))
        return
    if isinstance(change, m.ChangeSeq):
        _list_apply_atoms(entries, change.first)
        _list_apply_atoms(entries, change.second)
        return
    if isinstance(change, m.ChangePar):
        _list_apply_par(entries, change)
        return
    raise TypeError(f"unsupported change expression: {change!r}")


def _list_rekey_additions(entries):
    for i, (key, dom) in enumerate(entries.pairs):
        if key[0][0] >= _ADDED:
            entries.pairs[i] = ((((_ADDED, dom.name),) + key[1:]), dom)


def _list_apply_par(entries, change):
    base_pairs = list(entries.pairs)
    left = ListEntries(list(base_pairs), entries.counter)
    right = ListEntries(list(base_pairs), entries.counter)
    _list_apply_atoms(left, change.left)
    _list_apply_atoms(right, change.right)
    shared = left.touched & right.touched
    if shared:
        raise m.ParConflict(frozenset(shared))
    _list_rekey_additions(left)
    _list_rekey_additions(right)
    base_names = {d.name for _, d in base_pairs}
    merged = {}
    for side, other in ((left, right), (right, left)):
        for key, dom in side.pairs:
            if dom.name in base_names and dom.name not in side.touched:
                if dom.name in other.touched:
                    continue
            merged[dom.name] = (key, dom)
    entries.pairs = list(merged.values())
    entries.counter = max(left.counter, right.counter)
    entries.touched |= left.touched | right.touched


def apply_change_list(env, change):
    """``model.apply_change`` over ``ListEntries``: the reference for the
    name-keyed working set."""
    entries = ListEntries([(((i, ""),), d) for i, d in enumerate(env.domains)])
    _list_apply_atoms(entries, change)
    result = entries.to_env()
    orphans = (m.controlled_phenomena(env) - m.controlled_phenomena(result)) & m.observed_phenomena(result)
    if orphans:
        raise m.DanglingControl(frozenset(orphans))
    return result


# --- apply_change recursing once per chain step ---------------------------------------

def apply_atoms_recursive(entries, change):
    """``model._apply_atoms`` as it was before it looped over chain spines:
    one call per ``;`` node, and each ``||`` node a binary merge of its
    operands.  Atoms go to ``model._apply_atoms``."""
    if isinstance(change, m.ChangeSeq):
        apply_atoms_recursive(entries, change.first)
        apply_atoms_recursive(entries, change.second)
        return
    if not isinstance(change, m.ChangePar):
        m._apply_atoms(entries, change)
        return
    base = entries.domains
    left = m._Entries(dict(base), entries.counter)
    right = m._Entries(dict(base), entries.counter)
    apply_atoms_recursive(left, change.left)
    apply_atoms_recursive(right, change.right)
    shared = left.touched & right.touched
    if shared:
        raise m.ParConflict(frozenset(shared))
    m._rekey_additions(left)
    m._rekey_additions(right)
    merged = {}
    for side, other in ((left, right), (right, left)):
        for name, pair in side.domains.items():
            if name in base and name not in side.touched:
                if name in other.touched:
                    continue
            merged[name] = pair
    entries.domains = merged
    entries.counter = max(left.counter, right.counter)
    entries.touched |= left.touched | right.touched


# --- evidence computed beside the premises ---------------------------------------------

def eager_evidence(node):
    """The evidence each rule application stored when it was made,
    recomputed from the node's conclusion and arguments the way the
    premises are (the Sequence's intermediate and the installed
    environment through ``apply_change``), not read off the premises."""
    problem, args, rule = node.conclusion, node.args, node.rule
    env, change = problem.env, problem.change
    if rule is RuleId.DELEGATION:
        return {"trust": f"{problem.validator}->{args['delegate']}"}
    if rule is RuleId.KNOWN_SOLUTION:
        return {"solution": change_str(args.get("solution", change))}
    if rule is RuleId.SOLUTION_REFLECT:
        return {"shape": "seq" if isinstance(problem.need, m.NeedSeq) else "par"}
    if rule is RuleId.SEQUENCE:
        first = _first_stage(node)
        return {"intermediate_env": env_str(env if first is None else m.apply_change(env, first))}
    if rule is RuleId.PARALLEL:
        left, right = set(args["left"]), set(args["right"])
        shared = m.shared_phenomena(
            m.Environment(tuple(d for d in env if d.name in left)),
            m.Environment(tuple(d for d in env if d.name in right)),
        )
        return {"shared": sorted(shared), "left": sorted(left), "right": sorted(right)}
    if rule in (RuleId.DOMAIN_ADD, RuleId.DOMAIN_REMOVE, RuleId.DOMAIN_REFINE):
        if node.env_provisional:
            return {}
        return {"installed_env": env_str(m.apply_change(env, change))}
    if rule is RuleId.SEQ_DOMAIN_REFINE_EQUIV:
        if args["direction"] == "fuse":
            rewritten = change.second
        else:
            retained, added = tuple(args["retained"]), tuple(args["added"])
            rewritten = m.ChangeSeq(m.Refine(change.target, retained, added), change)
        return {"before": change_str(change), "after": change_str(rewritten)}
    return {}


def assert_evidence_as_eager(node) -> None:
    """Assert ``evidence`` equals ``eager_evidence`` at every rule
    application of a tree, alternatives included."""
    if node.rule is not None:
        assert evidence(node) == eager_evidence(node), node.rule
    for child in node.premises + node.alternatives:
        assert_evidence_as_eager(child)


# --- read-only tree passes that recursed once per tree level --------------------------

def committed_recursive(node):
    """``calculus.committed`` as it recursed once per tree level."""
    if node.rule is None:
        return m.Nil() if node.greenfield else None
    if node.rule is RuleId.KNOWN_SOLUTION:
        return node.args.get("solution", node.conclusion.change)
    if node.rule in (RuleId.DOMAIN_ADD, RuleId.DOMAIN_REMOVE, RuleId.DOMAIN_REFINE):
        return node.conclusion.change
    if node.rule is RuleId.SEQUENCE:
        first = committed_recursive(node.premises[0])
        second = committed_recursive(node.premises[1])
        if first is None or second is None:
            return None
        return m.ChangeSeq(first, second)
    if node.rule is RuleId.PARALLEL:
        left = committed_recursive(node.premises[0])
        right = committed_recursive(node.premises[1])
        if left is None or right is None:
            return None
        return m.ChangePar(left, right)
    # single-premise rules pass their premise's solution through
    return committed_recursive(node.premises[0])


def subtree_steps_recursive(node):
    """The plan steps of ``node``'s subtree outside alternatives, in
    pre-order."""
    steps = list(node.plan)
    for child in node.premises:
        steps.extend(subtree_steps_recursive(child))
    return steps


def lint_recursive(root):
    """``calculus.lint`` as two recursive walks that render every node's
    path and gather a subtree's steps again at each Sequence and
    Parallel node."""
    diagnostics = []
    all_steps = {}

    def collect(node, path):
        for step in node.plan:
            if step.id in all_steps:
                diagnostics.append(CheckDiagnostic(
                    path_str(path), "DuplicateStep",
                    f"step id {step.id!r} already used at {all_steps[step.id]}",
                ))
            else:
                all_steps[step.id] = path_str(path)
        for i, child in enumerate(node.premises):
            collect(child, path + (i,))
        for k, alt in enumerate(node.alternatives):
            collect(alt, path + (("alt", k + 1),))

    collect(root, ())

    def walk(node, path):
        where = path_str(path)
        if node.rule is not None:
            if not node.justification.rule_rationale:
                diagnostics.append(CheckDiagnostic(where, "MissingJustification", "ruleRationale is required"))
            for fld in RULES[node.rule].required:
                if not getattr(node.justification, fld):
                    diagnostics.append(CheckDiagnostic(
                        where, "MissingJustification", f"{fld} is required for {node.rule.value}"))
        if len(node.plan) >= 2 and not node.justification.risk_register:
            diagnostics.append(CheckDiagnostic(
                where, "MissingJustification",
                "a risk register is required for plan fragments of two or more steps"))
        for step in node.plan:
            for ref in step.after + step.parallel_ok:
                if ref not in all_steps:
                    diagnostics.append(CheckDiagnostic(
                        where, "UnknownStep", f"step {step.id!r} references unknown step {ref!r}"))
        if node.rule in (RuleId.SEQUENCE, RuleId.PARALLEL):
            first_steps = subtree_steps_recursive(node.premises[0])
            second_steps = subtree_steps_recursive(node.premises[1])
            first = {s.id for s in first_steps}
            second = {s.id for s in second_steps}
            crossing = [
                (s.id, ref)
                for s in (*node.plan, *first_steps, *second_steps)
                for ref in s.parallel_ok
                if (s.id in first and ref in second) or (s.id in second and ref in first)
            ]
            if node.rule is RuleId.PARALLEL:
                if first and second and not crossing:
                    diagnostics.append(CheckDiagnostic(
                        where, "MissingConstraint",
                        "parallel branches must mark cross-branch steps parallel_ok"))
            else:
                ordered = any(ref in first for s in second_steps for ref in s.after)
                if first and second and not ordered:
                    diagnostics.append(CheckDiagnostic(
                        where, "MissingConstraint",
                        "sequenced stages must carry an 'after' constraint "
                        "from the second stage onto the first"))
                if crossing:
                    a, b = crossing[0]
                    diagnostics.append(CheckDiagnostic(
                        where, "ConflictingConstraint",
                        f"steps {a!r} and {b!r} are in different stages and cannot "
                        "be marked parallel_ok"))
        for i, child in enumerate(node.premises):
            walk(child, path + (i,))
        for k, alt in enumerate(node.alternatives):
            walk(alt, path + (("alt", k + 1),))

    walk(root, ())
    return diagnostics


def discharge_environments_recursive(root):
    """The environments of the greenfield obligations outside
    alternatives, in derivation order."""
    out = []

    def walk(node):
        if node.greenfield and node.rule is None:
            out.append(node.conclusion.env)
        for child in node.premises:
            walk(child)

    walk(root)
    return tuple(out)


def derivation_dot_recursive(root, name="derivation"):
    """``export.derivation_dot`` as one recursive walk that renders each
    node's identifier from its whole path."""
    lines = [f'digraph "{_dot_escape(name)}" {{', "  rankdir=BT;", "  node [shape=box];"]

    def ident(path):
        return "n_" + "_".join(
            str(seg) if isinstance(seg, int) else f"a{seg[1]}" for seg in path
        ) if path else "n_root"

    def walk(node, path):
        rule = node.rule.value if node.rule else ("discharged" if node.discharged else "open")
        label = f"{rule}\\n{_dot_escape(problem_str(node.conclusion))}"
        attrs = f'label="{label}"'
        if node.greenfield:
            attrs += ', style=filled, fillcolor="lightyellow"'
        elif node.rule is None:
            attrs += ', style=dashed'
        lines.append(f"  {ident(path)} [{attrs}];")
        for i, child in enumerate(node.premises):
            walk(child, path + (i,))
            lines.append(f"  {ident(path + (i,))} -> {ident(path)};")
        for k, alt in enumerate(node.alternatives):
            apath = path + (("alt", k + 1),)
            walk(alt, apath)
            lines.append(f'  {ident(apath)} -> {ident(path)} [style=dotted, label="alt"];')

    walk(root, ())
    lines.append("}")
    return "\n".join(lines) + "\n"


def plan_fragments_recursive(root):
    """The plan entries and constraints of a tree, as ``extract_plan``
    collected them with one recursive call per tree level."""
    entries, constraints = [], set()

    def walk(node, stage, path):
        for step in node.plan:
            entries.append(PlanEntry(step, stage, path_str(path)))
            for ref in step.after:
                constraints.add(("after", step.id, ref))
            for ref in step.parallel_ok:
                constraints.add(("parallel_ok", step.id, ref))
        if node.rule is RuleId.SEQUENCE:
            first_steps = [s.id for s in subtree_steps_recursive(node.premises[0])]
            second_steps = [s.id for s in subtree_steps_recursive(node.premises[1])]
            for later in second_steps:
                for earlier in first_steps:
                    constraints.add(("after", later, earlier))
            walk(node.premises[0], stage, path + (0,))
            walk(node.premises[1], stage + 1, path + (1,))
            return
        for i, child in enumerate(node.premises):
            walk(child, stage, path + (i,))

    walk(root, 0, ())
    return entries, constraints


# --- the impact text report as it was printed a line at a time ------------------------

def print_impact_text(report, bound) -> None:
    """``cli.cmd_impact``'s text report, one ``print`` per line."""
    print(f"edit: {report.edit}")
    print("structural: " + (", ".join(sorted(report.structural)) or "-"))
    print("behavioural: " + (", ".join(sorted(report.behavioural)) or "-"))
    print("buffers: " + (", ".join(sorted(report.buffers)) or "-"))
    if report.hits:
        print("paths:")
        for _, path in report.walk():
            print("  " + path_text(path))
    if bound is not None:
        print("bound: pass" if bound.passed else "bound: fail")
        for name, path in bound.violations:
            print(f"  {name}: {path_text(path)}")
