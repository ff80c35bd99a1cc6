"""Test-only oracles: simple or earlier implementations that the tests
compare the library against.  None of this is used by the library."""

from collections import deque
from dataclasses import dataclass

from deltapoe import model as m
from deltapoe.artifacts import RuleId, ValidationRecord, ValidationStatus, ValidationTarget
from deltapoe.calculus import PlanEntry, _first_stage, _subtree_steps, evidence
from deltapoe.dsl import (
    EMPTY_MODEL,
    PHENOMENON_KINDS,
    SYMBOLS,
    DslError,
    Model,
    ParsedFile,
    ParseDiagnostic,
    Token,
    _Parser,
    path_str,
    tokenize,
)
from deltapoe.export import _dot_escape
from deltapoe.impact import BoundReport, UnknownDomain, _seed, edit_str
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
from deltapoe.printer import _PAR, _SEQ, _change_level, _need_level, change_str, env_str


# --- the character-by-character lexer ---------------------------------------------------

IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
IDENT_CONT = IDENT_START | set("0123456789'")


def tokenize_scan(src: str) -> list[Token]:
    """The scanner ``dsl.tokenize`` replaced.  It differs in three ways:
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

class PeekParser(_Parser):
    """``dsl._Parser`` with the token checks, name lists and model
    declaration loops it had before they indexed its tokens directly:
    every token goes through ``peek``, ``at`` and ``advance``."""

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def at_word(self, word: str) -> bool:
        return self.at("ident", word)

    def expect(self, kind: str, value: str | None = None) -> Token:
        if not self.at(kind, value):
            want = value if value is not None else kind
            got = self.peek().value or self.peek().kind
            self.fail(f"expected {want!r}, found {got!r}")
        return self.advance()

    def ident(self, what="identifier") -> Token:
        if not self.at("ident"):
            self.fail(f"expected {what}, found {self.peek().value or self.peek().kind!r}")
        return self.advance()

    def name_list(self) -> list[Token]:
        names = []
        if self.at("ident"):
            names.append(self.advance())
            while self.at("symbol", ","):
                self.advance()
                names.append(self.ident("name"))
        return names

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


def parse_file_by_peek(src: str) -> ParsedFile:
    return PeekParser(tokenize(src), EMPTY_MODEL).parse_file(EMPTY_MODEL)


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


def bound_check_stored_paths(env, edit, permitted, buffers=frozenset()) -> BoundReport:
    """Bound check over ``propagate_stored_paths``: one linear path search
    per violation, then a sort by path length and name."""
    report = propagate_stored_paths(env, edit, buffers)
    impacted = report.structural | report.behavioural
    violations = []
    for name in sorted(impacted - permitted):
        path = report.path_to(name) or (name,)
        violations.append((name, path))
    violations.sort(key=lambda v: (len(v[1]), v[0]))
    return BoundReport(not violations, tuple(violations))


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


# --- plan fragments collected by recursion --------------------------------------------

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
            first_steps = [s.id for s in _subtree_steps(node.premises[0])]
            second_steps = [s.id for s in _subtree_steps(node.premises[1])]
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
