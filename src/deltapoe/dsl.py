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

The lexer is a ``findall`` of one compiled pattern over each slice of
about 64 KiB, cut just after a newline: it returns the token texts, and
nothing else, each equal text one shared object.  A token's kind is read
off its first character, and a string keeps its quotes until the parser
consumes it, so a symbol test is a plain string comparison.  Where a
token is, ``line:column``, is worked out only for a diagnostic, by
scanning the source once more; a statement keeps the index of its first
token.  The parser is a plain
recursive descent that reads the texts by index; it is reentrant and
keeps no global state.
"""

from __future__ import annotations

import re
from bisect import bisect_left

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


# One alternative per token kind, then the blanks and comments after the
# token, so that each match yields one token text.  No two kinds start
# with the same character, except that a string wins over a quote that
# opens none; such a quote takes the rest of the input, which no longer
# matters once it is an error, and so no later quote on its line is read
# to the line's end again.  Symbols are listed longest first, so "(+)"
# wins over "(".  Any other character is a text of its own, and the empty
# text at the end of the input is the eof token.  The gap after a token
# matches one way only, and nothing after it can fail, so no position is
# matched twice: lexing is linear in the input, whatever the input holds.
_GAP = r"[ \t\n]*(?:#[^\n]*[ \t\n]*)*"
_STRING = r'"(?:[^"\\\n]|\\[^\n])*"'
_TOKEN = re.compile("(" + "|".join((
    r"[A-Za-z_][A-Za-z0-9_']*(?:\.[A-Za-z_][A-Za-z0-9_']*)*",
    "|".join(map(re.escape, SYMBOLS)),
    r"[0-9]+",
    _STRING,
    r'"(?s:.*)',
    r"(?s:.)",
    r"\Z",
)) + ")" + _GAP)
_LEADING_GAP = re.compile(_GAP)
_WHOLE_STRING = re.compile(_STRING)
_NEWLINE = re.compile("\n")

IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
DIGITS = frozenset("0123456789")  # str.isdigit would take "²" too
_ONE_CHAR_TOKENS = IDENT_START | DIGITS | {s for s in SYMBOLS if len(s) == 1}

_ESCAPE = re.compile(r"\\(.)")
_ESCAPED = {"n": "\n", "t": "\t"}


def _unescape(escape: re.Match) -> str:
    return _ESCAPED.get(escape[1], escape[1])


def token_value(text: str) -> str:
    """A string token's contents, unescaped; any other token's text."""
    if text[:1] != '"':
        return text
    return _ESCAPE.sub(_unescape, text[1:-1]) if "\\" in text else text[1:-1]


def _shown(text: str) -> str:
    """A token as a diagnostic names it: its value, or its kind when empty."""
    return token_value(text) or ("string" if text else "eof")


def _normalized(src: str) -> str:
    return src.replace("\r\n", "\n").replace("\r", "\n")


_SLICE = 1 << 16  # characters ``tokenize`` lexes at a time, up to the next newline


def tokenize(src: str) -> list[str]:
    """The token texts of ``src``, ending with the eof token ``""``.

    The source is lexed in slices of ``_SLICE`` characters and the rest of
    their last line.  No token, string or comment runs past a newline, so
    a cut there splits none, and each slice's texts are those the whole
    source would give.  Each text goes through a table of the texts met so
    far, so equal texts are one object, and the fresh strings of at most
    one slice exist at a time.

    Raises DslError at the first character that starts no token, or at
    the quote of a string that does not end on its line."""
    src = _normalized(src)
    texts: list[str] = []
    shared: dict[str, str] = {}
    start, size = 0, len(src)
    while True:
        end = src.find("\n", start + _SLICE) + 1 or size
        part = _TOKEN.findall(src, _LEADING_GAP.match(src, start, end).end(), end)
        bad = {text for text in set(part) if len(text) == 1} - _ONE_CHAR_TOKENS
        tail = part[-2] if len(part) > 1 else ""  # a quote that opens no string takes the rest
        if tail[:1] == '"' and not _WHOLE_STRING.fullmatch(tail):
            bad.add(tail)
        if bad:
            index = min(map(part.index, bad))
            text = part[index]
            message = "unterminated string" if text[0] == '"' else f"unexpected character {text!r}"
            raise DslError([ParseDiagnostic(*_locator(src)(len(texts) + index), message)])
        if end < size:
            del part[-1]  # the empty text at a slice's end is no eof
        texts += map(shared.setdefault, part, part)
        if end == size:
            return texts
        start = end


def _locator(src: str):
    """A function from a token's index to its ``(line, column)`` in the
    normalized ``src``.  Making it scans the source once more."""
    starts = list(map(re.Match.start, _TOKEN.finditer(src, _LEADING_GAP.match(src).end())))
    newlines = list(map(re.Match.start, _NEWLINE.finditer(src)))

    def locate(index: int) -> tuple[int, int]:
        offset = starts[index]
        line = bisect_left(newlines, offset)  # newlines before the token
        return line + 1, offset - (newlines[line - 1] if line else -1)

    return locate


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
    """A rule application; ``token`` is the index of its first token in
    the file's token list, which :func:`_locator` turns into a position."""

    __slots__ = ("rule", "path", "args", "marker", "justification", "plan", "validations",
                 "token")

    def __init__(
        self,
        rule: RuleId,
        path: NodePath,
        args: dict,
        marker: str | None = None,  # None | "alternative" | "chosen"
        justification: Justification | None = None,
        plan: tuple[PlanStep, ...] = (),
        validations: tuple[ValidationMark, ...] = (),
        token: int = 0,
    ):
        self.rule = rule
        self.path = path
        self.args = args
        self.marker = marker
        self.justification = justification
        self.plan = plan
        self.validations = validations
        self.token = token


class DischargeStatement(Record):
    """A discharge; ``token`` is as in :class:`ApplyStatement`."""

    __slots__ = ("path", "justification", "validations", "token")

    def __init__(
        self,
        path: NodePath,
        justification: Justification | None = None,
        validations: tuple[ValidationMark, ...] = (),
        token: int = 0,
    ):
        self.path = path
        self.justification = justification
        self.validations = validations
        self.token = token


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
    def __init__(self, src: str, model: Model):
        self.src = src
        self.tokens = tokenize(src)
        self.pos = 0
        self.model = model
        self.depth = 0  # parentheses open around the expression being parsed

    # token plumbing

    def fail(self, message: str, index: int | None = None):
        locate = _locator(_normalized(self.src))
        raise DslError([ParseDiagnostic(*locate(self.pos if index is None else index), message)])

    def advance(self) -> str:
        text = self.tokens[self.pos]
        if text:  # eof is never passed
            self.pos += 1
        return text

    def at(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    def expect(self, text: str):
        """Consume the symbol or word ``text``."""
        if self.tokens[self.pos] != text:
            self.fail(f"expected {text!r}, found {_shown(self.tokens[self.pos])!r}")
        self.pos += 1

    def expect_eof(self):
        if self.tokens[self.pos]:
            self.fail(f"expected 'eof', found {_shown(self.tokens[self.pos])!r}")

    def ident(self, what="identifier") -> str:
        text = self.tokens[self.pos]
        if text[:1] not in IDENT_START:
            self.fail(f"expected {what}, found {_shown(text)!r}")
        self.pos += 1
        return text

    def string(self) -> str:
        """Consume a string token; its contents, unescaped."""
        text = self.tokens[self.pos]
        if text[:1] != '"':
            self.fail(f"expected 'string', found {_shown(text)!r}")
        self.pos += 1
        return token_value(text)

    def number(self) -> str:
        text = self.tokens[self.pos]
        if text[:1] not in DIGITS:
            self.fail(f"expected 'int', found {_shown(text)!r}")
        self.pos += 1
        return text

    def index(self) -> int:
        """Consume a number token of a node path; its value."""
        at = self.pos
        text = self.number()
        try:
            return int(text)
        except ValueError:  # more digits than ``int`` converts from a string
            self.fail(f"path index of {len(text)} digits is too long", at)

    # name lists

    def name_list(self) -> range:
        """``[ident ("," ident)*]``; the indexes of its names."""
        tokens, start = self.tokens, self.pos
        if tokens[start][:1] not in IDENT_START:
            return range(start, start)
        pos = start + 1
        while tokens[pos] == ",":
            self.pos = pos + 1
            self.ident("name")
            pos += 2
        self.pos = pos
        return range(start, pos, 2)

    def bracketed_names(self) -> range:
        self.expect("[")
        names = self.name_list()
        self.expect("]")
        return names

    # model form

    def parse_model_block(self, base: Model) -> Model:
        self.expect("model")
        self.expect("{")
        phenomena = list(base.phenomena)
        domains = list(base.environment.domains)
        stakeholders = list(base.stakeholders)
        needs = list(base.needs)
        phen_names = {p.name for p in phenomena}
        dom_names = {d.name for d in domains}
        sk_names = {s.name for s in stakeholders}
        need_names = {n.name for n in needs}
        trust_refs: list[tuple[int, str]] = []  # (index of the trusted name, truster)
        tokens = self.tokens
        while True:
            word = tokens[self.pos]
            at = self.pos + 1  # the name a declaration declares
            if word == "phenomenon":
                self.pos = at
                name = self.ident("phenomenon name")
                self.expect(":")
                kind = self.ident("phenomenon kind")
                if kind not in PHENOMENON_KINDS:
                    self.fail(
                        f"unknown phenomenon kind {kind!r}; one of "
                        + ", ".join(sorted(PHENOMENON_KINDS)),
                        at + 2,
                    )
                if name in phen_names:
                    self.fail(f"duplicate phenomenon name {name!r}", at)
                phen_names.add(name)
                phenomena.append(m.Phenomenon(name, PHENOMENON_KINDS[kind]))
            elif word == "domain":
                self.pos = at
                name = self.ident("domain name")
                if name in dom_names:
                    self.fail(f"duplicate domain name {name!r}", at)
                dom_names.add(name)
                domains.append(self.domain_body(at, phen_names))
            elif word == "stakeholder":
                self.pos = at
                name = self.ident("stakeholder name")
                if name in sk_names:
                    self.fail(f"duplicate stakeholder name {name!r}", at)
                sk_names.add(name)
                self.expect(":")
                role = self.role()
                trusts: list[str] = []
                if self.at("{"):
                    self.pos += 1
                    self.expect("trusts")
                    for i in self.name_list():
                        trust_refs.append((i, name))
                        trusts.append(tokens[i])
                    self.expect("}")
                stakeholders.append(m.Stakeholder(name, role, frozenset(trusts)))
            elif word == "need":
                self.pos = at
                name = self.ident("need name")
                if name in need_names:
                    self.fail(f"duplicate need name {name!r}", at)
                need_names.add(name)
                needs.append(m.AtomicNeed(name, self.string()))
            elif word == "}":
                self.pos += 1
                break
            else:
                self.fail(
                    "expected 'phenomenon', 'domain', 'stakeholder', 'need' or '}'"
                )
        for i, owner in trust_refs:
            if tokens[i] not in sk_names:
                self.fail(f"stakeholder {owner!r} trusts undeclared {tokens[i]!r}", i)
        try:
            env = m.Environment(tuple(domains))
        except m.ModelError as err:
            self.fail(str(err))
        return Model(tuple(phenomena), env, tuple(stakeholders), tuple(needs))

    def domain_body(self, at: int, phen_names: set) -> m.Domain:
        """The body of the domain whose name is the token at ``at``."""
        self.expect("{")
        name = self.tokens[at]
        observed: list[str] = []
        controlled: list[str] = []
        links: list[m.CausalLink] = []
        description = ""
        tokens = self.tokens
        while True:
            word = tokens[self.pos]
            if word == "observes" or word == "controls":
                self.pos += 1
                names = observed if word == "observes" else controlled
                for i in self.name_list():
                    if tokens[i] not in phen_names:
                        self.fail(f"undeclared phenomenon {tokens[i]!r}", i)
                    names.append(tokens[i])
            elif word == "causes":
                self.pos += 1
                at_cause = self.pos
                cause = self.phenomenon(phen_names)
                self.expect("->")
                effect = self.phenomenon(phen_names)
                try:
                    links.append(m.CausalLink(cause, effect, name))
                except m.ModelError as err:
                    self.fail(str(err), at_cause)
            elif word == "description":
                self.pos += 1
                description = self.string()
            elif word == "}":
                break
            else:
                self.fail("expected 'observes', 'controls', 'causes', 'description' or '}'")
        self.pos += 1
        try:
            return m.Domain(
                name,
                description,
                frozenset(observed),
                frozenset(controlled),
                frozenset(links),
            )
        except m.ModelError as err:
            self.fail(str(err), at)

    def phenomenon(self, phen_names: set) -> str:
        """The name of a declared phenomenon."""
        text = self.tokens[self.pos]
        if text not in phen_names:
            self.ident("phenomenon name")
            self.fail(f"undeclared phenomenon {text!r}", self.pos - 1)
        self.pos += 1
        return text

    def role(self) -> m.Role:
        first = self.pos
        words = [self.ident("stakeholder role")]
        while self.at("-"):
            self.advance()
            words.append(self.ident("role word"))
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
        while self.at(symbol):
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
        self.expect(")")
        return inner

    def need_expr(self) -> m.Need:
        return self.chain(self.need_seq, "||", m.NeedPar)

    def need_seq(self) -> m.Need:
        return self.chain(self.need_atom, ";", m.NeedSeq)

    def need_atom(self) -> m.Need:
        if self.at("("):
            return self.group(self.need_expr)
        at = self.pos
        name = self.ident("need name")
        try:
            return self.model.need(name)
        except KeyError:
            self.fail(f"undeclared need {name!r}", at)

    def change_expr(self) -> m.ChangeExpr:
        return self.chain(self.change_seq, "||", m.ChangePar)

    def change_seq(self) -> m.ChangeExpr:
        return self.chain(self.change_atom, ";", m.ChangeSeq)

    def resolve_domain(self, index: int) -> m.Domain:
        try:
            return self.model.domain(self.tokens[index])
        except KeyError:
            self.fail(f"undeclared domain {self.tokens[index]!r}", index)

    def change_atom(self) -> m.ChangeExpr:
        word = self.tokens[self.pos]
        if word == "(":
            return self.group(self.change_expr)
        if word == "?":
            self.advance()
            return m.Unknown(self.ident("placeholder name"))
        if word == "+":
            self.advance()
            at = self.pos
            self.ident("domain name")
            return m.Add(self.resolve_domain(at))
        if word == "!":
            self.advance()
            return m.Cancel(self.ident("domain name"))
        if word == "skip":
            self.advance()
            return m.Nil()
        target = self.ident("change expression")
        self.expect("~>")
        self.expect("d")
        retained = tuple(map(self.resolve_domain, self.bracketed_names()))
        self.expect("(")
        added_names = self.name_list()
        self.expect(")")
        added = tuple(map(self.resolve_domain, added_names))
        return m.Refine(target, retained, added)

    # problems

    def parse_problem_body(self) -> m.Problem:
        if self.at("["):
            return self.sequent_body()
        self.expect("env")
        env = self.env_ref()
        self.expect("change")
        change = self.change_expr()
        self.expect("validator")
        validator = self.validator_ref()
        self.expect("need")
        need = m.normalize_need(self.need_expr())
        return m.Problem(env, change, validator, need)

    def sequent_body(self) -> m.Problem:
        env = self.env_ref()
        self.expect("(+)")
        change = self.change_expr()
        self.expect("|=")
        validator = self.validator_ref()
        self.expect(":")
        need = m.normalize_need(self.need_expr())
        return m.Problem(env, change, validator, need)

    def env_ref(self) -> m.Environment:
        domains = tuple(map(self.resolve_domain, self.bracketed_names()))
        try:
            return m.Environment(domains)
        except m.ModelError as err:
            self.fail(str(err))

    def validator_ref(self) -> str:
        at = self.pos
        name = self.ident("stakeholder name")
        try:
            self.model.stakeholder(name)
        except KeyError:
            self.fail(f"undeclared stakeholder {name!r}", at)
        return name

    # derivations

    def parse_derivation_block(self) -> DerivationScript:
        self.expect("derivation")
        name = self.ident("derivation name")
        self.expect("{")
        self.expect("problem")
        problem_name = self.ident("problem name")
        statements: list[Statement] = []
        while not self.at("}"):
            word = self.tokens[self.pos]
            if word == "apply":
                statements.append(self.apply_statement())
            elif word == "discharge":
                statements.append(self.discharge_statement())
            elif word == "justify":
                self.attach(statements, justification=self.justify_block())
            elif word == "plan":
                self.attach(statements, plan=self.plan_block())
            elif word == "validated":
                self.attach(statements, validation=self.validated_clause())
            else:
                self.fail(
                    "expected 'apply', 'discharge', 'justify', 'plan', 'validated' or '}'"
                )
        self.expect("}")
        return DerivationScript(name, problem_name, tuple(statements))

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
        self.expect("apply")
        at = self.pos
        rule_name = self.ident("rule name")
        try:
            rule = RuleId(rule_name)
        except ValueError:
            self.fail(f"unknown rule {rule_name!r}", at)
        self.expect("at")
        path = self.node_path()
        args: dict = {}
        if self.at("with"):
            self.advance()
            args = self.arg_block(rule)
        marker = None
        if self.at("alternative") or self.at("chosen"):
            marker = self.advance()
        return ApplyStatement(rule, path, args, marker, token=start)

    def discharge_statement(self) -> DischargeStatement:
        start = self.pos
        self.expect("discharge")
        self.expect("at")
        return DischargeStatement(self.node_path(), token=start)

    def node_path(self) -> NodePath:
        self.expect("root")
        segs: list[PathSeg] = []
        while True:
            if self.at("."):
                self.advance()
                segs.append(self.index())
            elif self.at("@"):
                self.advance()
                segs.append(("alt", self.index()))
            else:
                break
        return tuple(segs)

    def arg_block(self, rule: RuleId) -> dict:
        self.expect("{")
        args: dict = {}
        while not self.at("}"):
            at = self.pos
            key = self.ident("argument name")
            if key not in ARG_KEYS:
                self.fail(f"unknown argument {key!r}", at)
            if key in args:
                self.fail(f"duplicate argument {key!r}", at)
            self.expect(":")
            args[key] = self.arg_value(key)
            if self.at(","):
                self.advance()
        self.expect("}")
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
            return tuple(self.tokens[i] for i in self.bracketed_names())
        if key in ("retained", "added"):
            return tuple(map(self.resolve_domain, self.bracketed_names()))
        if key == "shape":
            at = self.pos
            shape = self.ident("shape")
            if shape not in ("seq", "par"):
                self.fail("shape must be 'seq' or 'par'", at)
            return shape
        if key == "direction":
            at = self.pos
            direction = self.ident("direction")
            if direction not in ("fuse", "split"):
                self.fail("direction must be 'fuse' or 'split'", at)
            return direction
        raise AssertionError(key)

    def justify_block(self) -> Justification:
        self.expect("justify")
        self.expect("{")
        values: dict = {}
        risks: list[RiskItem] = []
        while not self.at("}"):
            at = self.pos
            key = self.ident("justification field")
            if key == "risk":
                risk = self.string()
                self.expect("mitigation")
                risks.append(RiskItem(risk, self.string()))
            elif key in JUSTIFICATION_FIELDS:
                field = JUSTIFICATION_FIELDS[key]
                if field in values:
                    self.fail(f"duplicate field {key!r}", at)
                values[field] = self.string()
            else:
                self.fail(
                    f"unknown justification field {key!r}; one of "
                    + ", ".join(sorted(JUSTIFICATION_FIELDS) + ["risk"]),
                    at,
                )
        self.expect("}")
        return Justification(risk_register=tuple(risks), **values)

    def plan_block(self) -> tuple[PlanStep, ...]:
        self.expect("plan")
        self.expect("{")
        steps: list[PlanStep] = []
        seen: set[str] = set()
        while not self.at("}"):
            self.expect("step")
            at = self.pos
            step_id = self.ident("step id")
            if step_id in seen:
                self.fail(f"duplicate step id {step_id!r}", at)
            seen.add(step_id)
            action = self.string()
            self.expect("installs")
            installs = self.change_atom()
            if not isinstance(installs, (m.Add, m.Cancel, m.Refine, m.Nil)):
                self.fail("a step installs a single change atom")
            after: list[str] = []
            parallel_ok: list[str] = []
            deadline = None
            while True:
                if self.at("after"):
                    self.advance()
                    after.append(self.ident("step id"))
                elif self.at("parallel_ok"):
                    self.advance()
                    parallel_ok.append(self.ident("step id"))
                elif self.at("deadline"):
                    if deadline is not None:
                        self.fail("duplicate deadline")
                    self.advance()
                    deadline = self.deadline_value()
                else:
                    break
            steps.append(
                PlanStep(
                    step_id,
                    action,
                    installs,
                    tuple(after),
                    tuple(parallel_ok),
                    deadline,
                )
            )
        self.expect("}")
        return tuple(steps)

    def deadline_value(self) -> Deadline:
        if self.tokens[self.pos][:1] == '"':
            return Deadline("relative", self.string())
        at = self.pos
        year = self.number()
        self.expect("-")
        month = self.number()
        self.expect("-")
        day = self.number()
        text = f"{year}-{month}-{day}"
        try:
            return Deadline("absolute", text)
        except ValueError:
            self.fail(f"bad date {text!r}", at)

    def validated_clause(self) -> ValidationMark:
        self.expect("validated")
        self.expect("by")
        stakeholder = self.validator_ref()
        at = self.pos
        verdict = self.ident("'granted' or 'rejected'")
        if verdict not in ("granted", "rejected"):
            self.fail("expected 'granted' or 'rejected'", at)
        return ValidationMark(stakeholder, verdict == "granted")

    # file level

    def parse_file(self, base: Model) -> ParsedFile:
        kind = None
        model = base
        problems: dict = {}
        derivations: list[DerivationScript] = []
        if not self.tokens[self.pos]:
            self.fail("expected 'model', 'problem' or 'derivation'")
        while self.tokens[self.pos]:
            word = self.tokens[self.pos]
            if word == "model":
                kind = kind or "model"
                model = self.parse_model_block(model)
                self.model = model
            elif word == "problem":
                kind = kind or "problem"
                self.advance()
                at = self.pos
                name = self.ident("problem name")
                if name in problems:
                    self.fail(f"duplicate problem name {name!r}", at)
                self.expect("{")
                problems[name] = self.parse_problem_body()
                self.expect("}")
            elif word == "derivation":
                kind = kind or "derivation"
                derivations.append(self.parse_derivation_block())
            else:
                self.fail("expected 'model', 'problem' or 'derivation'")
        return ParsedFile(kind, model, problems, tuple(derivations))


# --- public entry points ----------------------------------------------------------

def parse_model(src: str) -> Model:
    """Parse a source containing model block(s) into the model aggregate."""
    parser = _Parser(src, EMPTY_MODEL)
    parsed = parser.parse_file(EMPTY_MODEL)
    if parsed.kind != "model" or parsed.problems or parsed.derivations:
        raise DslError([ParseDiagnostic(1, 1, "expected 'model'")])
    return parsed.model


def parse_problem(src: str, model: Model) -> m.Problem:
    """Parse one problem, given the model its names resolve against.

    Accepts either a ``problem name { ... }`` block or a bare body
    (keyword or sequent form)."""
    parser = _Parser(src, model)
    if parser.at("problem"):
        parsed = parser.parse_file(model)
        if len(parsed.problems) != 1 or parsed.derivations:
            raise DslError([ParseDiagnostic(1, 1, "expected exactly one problem block")])
        return next(iter(parsed.problems.values()))
    problem = parser.parse_problem_body()
    parser.expect_eof()
    return problem


def parse_change(src: str, model: Model) -> m.ChangeExpr:
    parser = _Parser(src, model)
    change = parser.change_expr()
    parser.expect_eof()
    return change


def parse_need(src: str, model: Model) -> m.Need:
    parser = _Parser(src, model)
    need = parser.need_expr()
    parser.expect_eof()
    return need


def parse_file(src: str, path: str = "<string>", base: Model = EMPTY_MODEL) -> ParsedFile:
    """Parse a full `.poed` file: any mix of model, problem and derivation
    blocks, resolved in order against ``base`` extended by the file's own
    model blocks."""
    parser = _Parser(src, base)
    return parser.parse_file(base)
