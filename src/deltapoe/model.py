"""Core domain types for change engineering.

Everything downstream (parser, calculus, impact analysis, workflows) is
built on the values defined here: phenomena, domains, environments,
needs, change expressions, stakeholders, problems and the organisation
pair.  All values are immutable after construction; the operations are
pure functions, so sharing across threads is safe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ModelError(ValueError):
    """A value violates a structural invariant at construction time."""


class ChangeError(Exception):
    """Base class for change-application failures."""

    kind = "ChangeError"


class AddExisting(ChangeError):
    kind = "AddExisting"

    def __init__(self, name: str):
        super().__init__(f"cannot add domain {name!r}: a domain of that name already exists")
        self.name = name


class CancelMissing(ChangeError):
    kind = "CancelMissing"

    def __init__(self, name: str):
        super().__init__(f"cannot cancel domain {name!r}: no such domain in the environment")
        self.name = name


class RefineMissing(ChangeError):
    kind = "RefineMissing"

    def __init__(self, name: str):
        super().__init__(f"cannot refine domain {name!r}: no such domain in the environment")
        self.name = name


class DanglingControl(ChangeError):
    kind = "DanglingControl"

    def __init__(self, orphans: frozenset[str]):
        listed = ", ".join(sorted(orphans))
        super().__init__(
            "change removes control of phenomena still observed afterwards "
            f"without re-homing them: {listed}"
        )
        self.orphans = orphans


class ParConflict(ChangeError):
    kind = "ParConflict"

    def __init__(self, shared: frozenset[str]):
        listed = ", ".join(sorted(shared))
        super().__init__(f"parallel change branches touch common domains: {listed}")
        self.shared = shared


class UnknownChange(ChangeError):
    kind = "UnknownChange"

    def __init__(self, placeholder: str):
        super().__init__(f"change still contains the unsolved placeholder ?{placeholder}")
        self.placeholder = placeholder


class NeedNotCurrent(ChangeError):
    kind = "NeedNotCurrent"

    def __init__(self, need: "Need"):
        super().__init__(f"need {need_name_hint(need)!r} is not among the organisation's current problems")
        self.need = need


class PhenomenonKind(str, enum.Enum):
    ENTITY = "entity"
    EVENT = "event"
    VALUE = "value"
    ROLE = "role"
    STATE = "state"
    TRUTH = "truth"


@dataclass(frozen=True)
class Phenomenon:
    """An observable element of the world, identified by a qualified name."""

    name: str
    kind: PhenomenonKind

    def __post_init__(self):
        if not self.name:
            raise ModelError("phenomenon name must be non-empty")


@dataclass(frozen=True, order=True)
class CausalLink:
    """A causal edge cause -> effect asserted by the owning domain."""

    cause: str
    effect: str
    owner: str

    def __post_init__(self):
        if self.cause == self.effect:
            raise ModelError(f"causal link of {self.owner!r} relates {self.cause!r} to itself")


@dataclass(frozen=True)
class Domain:
    """A named collection of phenomena with observed and controlled sets.

    ``structure`` is present only on composite domains produced by a
    refinement: it lists the sub-domain names installed in place of the
    refined original.  Composites carry no phenomena of their own.
    """

    name: str
    description: str = ""
    observed: frozenset[str] = frozenset()
    controlled: frozenset[str] = frozenset()
    links: frozenset[CausalLink] = frozenset()
    structure: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.name:
            raise ModelError("domain name must be non-empty")
        clash = self.observed & self.controlled
        if clash:
            raise ModelError(
                f"domain {self.name!r} both observes and controls: {', '.join(sorted(clash))}"
            )
        universe = self.observed | self.controlled
        for link in self.links:
            if link.owner != self.name:
                raise ModelError(f"domain {self.name!r} holds a link owned by {link.owner!r}")
            for endpoint in (link.cause, link.effect):
                if endpoint not in universe:
                    raise ModelError(
                        f"domain {self.name!r} asserts a link over {endpoint!r}, "
                        "which it neither observes nor controls"
                    )
        if self.structure is not None and (self.observed or self.controlled):
            raise ModelError(f"composite domain {self.name!r} may not carry phenomena itself")

    @property
    def is_composite(self) -> bool:
        return self.structure is not None

    def phenomena(self) -> frozenset[str]:
        return self.observed | self.controlled


@dataclass(frozen=True)
class Environment:
    """An ordered collection of uniquely named domains."""

    domains: tuple[Domain, ...] = ()

    def __post_init__(self):
        seen: set[str] = set()
        controllers: dict[str, str] = {}
        names = {d.name for d in self.domains}
        for dom in self.domains:
            if dom.name in seen:
                raise ModelError(f"duplicate domain name {dom.name!r} in environment")
            seen.add(dom.name)
            for phen in dom.controlled:
                if phen in controllers:
                    raise ModelError(
                        f"phenomenon {phen!r} is controlled by both "
                        f"{controllers[phen]!r} and {dom.name!r}"
                    )
                controllers[phen] = dom.name
            if dom.structure is not None:
                for member in dom.structure:
                    if member not in names:
                        raise ModelError(
                            f"composite {dom.name!r} lists missing member {member!r}"
                        )

    def __iter__(self):
        return iter(self.domains)

    def __contains__(self, name: str) -> bool:
        return any(d.name == name for d in self.domains)

    def domain(self, name: str) -> Domain:
        for dom in self.domains:
            if dom.name == name:
                return dom
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.domains)


# --- needs ------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicNeed:
    name: str
    description: str = ""


@dataclass(frozen=True)
class NeedSeq:
    left: "Need"
    right: "Need"


@dataclass(frozen=True)
class NeedPar:
    left: "Need"
    right: "Need"


Need = AtomicNeed | NeedSeq | NeedPar


def need_name_hint(need: Need) -> str:
    if isinstance(need, AtomicNeed):
        return need.name
    op = ";" if isinstance(need, NeedSeq) else "||"
    return f"{need_name_hint(need.left)} {op} {need_name_hint(need.right)}"


def need_atoms(need: Need) -> frozenset[str]:
    if isinstance(need, AtomicNeed):
        return frozenset({need.name})
    return need_atoms(need.left) | need_atoms(need.right)


def _flatten_seq(need: Need) -> list[Need]:
    if isinstance(need, NeedSeq):
        return _flatten_seq(need.left) + _flatten_seq(need.right)
    return [need]


def _flatten_par(need: Need) -> list[Need]:
    if isinstance(need, NeedPar):
        return _flatten_par(need.left) + _flatten_par(need.right)
    return [need]


def _need_key(need: Need) -> str:
    # Stable sort key for parallel branches; mirrors the printed form.
    if isinstance(need, AtomicNeed):
        return need.name
    if isinstance(need, NeedSeq):
        return "(" + " ; ".join(_need_key(p) for p in _flatten_seq(need)) + ")"
    return "(" + " || ".join(_need_key(p) for p in _flatten_par(need)) + ")"


def _rebuild(parts: list[Need], ctor) -> Need:
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = ctor(part, out)
    return out


def normalize_need(need: Need) -> Need:
    """Canonical form: sequence chains re-associate to the right, parallel
    chains additionally sort their branches (parallel composition is
    commutative, sequencing is not)."""
    if isinstance(need, AtomicNeed):
        return need
    if isinstance(need, NeedSeq):
        parts = [normalize_need(p) for p in _flatten_seq(need)]
        return _rebuild(parts, NeedSeq)
    parts = [normalize_need(p) for p in _flatten_par(need)]
    parts.sort(key=_need_key)
    return _rebuild(parts, NeedPar)


# --- change expressions -----------------------------------------------------

@dataclass(frozen=True)
class Unknown:
    """Placeholder for a change still to be found."""

    placeholder: str


@dataclass(frozen=True)
class Add:
    domain: Domain


@dataclass(frozen=True)
class Cancel:
    domain_name: str


@dataclass(frozen=True)
class Refine:
    target: str
    retained: tuple[Domain, ...]
    added: tuple[Domain, ...]


@dataclass(frozen=True)
class ChangeSeq:
    first: "ChangeExpr"
    second: "ChangeExpr"


@dataclass(frozen=True)
class ChangePar:
    left: "ChangeExpr"
    right: "ChangeExpr"


@dataclass(frozen=True)
class Nil:
    """The identity change; applying it leaves the environment untouched."""


ChangeExpr = Unknown | Add | Cancel | Refine | ChangeSeq | ChangePar | Nil
ChangeAtom = Add | Cancel | Refine


def is_unknown_free(change: ChangeExpr) -> bool:
    if isinstance(change, Unknown):
        return False
    if isinstance(change, ChangeSeq):
        return is_unknown_free(change.first) and is_unknown_free(change.second)
    if isinstance(change, ChangePar):
        return is_unknown_free(change.left) and is_unknown_free(change.right)
    return True


def placeholders(change: ChangeExpr) -> frozenset[str]:
    if isinstance(change, Unknown):
        return frozenset({change.placeholder})
    if isinstance(change, ChangeSeq):
        return placeholders(change.first) | placeholders(change.second)
    if isinstance(change, ChangePar):
        return placeholders(change.left) | placeholders(change.right)
    return frozenset()


def referenced_domains(change: ChangeExpr) -> frozenset[str]:
    """All domain names a change expression mentions."""
    if isinstance(change, Add):
        return frozenset({change.domain.name})
    if isinstance(change, Cancel):
        return frozenset({change.domain_name})
    if isinstance(change, Refine):
        parts = {change.target}
        parts.update(d.name for d in change.retained)
        parts.update(d.name for d in change.added)
        return frozenset(parts)
    if isinstance(change, ChangeSeq):
        return referenced_domains(change.first) | referenced_domains(change.second)
    if isinstance(change, ChangePar):
        return referenced_domains(change.left) | referenced_domains(change.right)
    return frozenset()


# --- stakeholders, problems, the organisation -------------------------------

class Role(str, enum.Enum):
    PROBLEM_OWNER = "problem-owner"
    PROBLEM_SOLVING_DELEGATE = "problem-solving-delegate"
    IMPLEMENTATION_DELEGATE = "implementation-delegate"


@dataclass(frozen=True)
class Stakeholder:
    name: str
    role: Role
    trusts: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Problem:
    """A change problem: find changes so the updated environment meets the
    need to the validator's satisfaction."""

    env: Environment
    change: ChangeExpr
    validator: str
    need: Need


@dataclass(frozen=True)
class Organisation:
    state: Environment
    current_problems: frozenset[Need] = frozenset()


# --- operations ---------------------------------------------------------------

def phenomena_universe(env: Environment) -> frozenset[str]:
    """Union of observed and controlled phenomena over all domains."""
    out: set[str] = set()
    for dom in env:
        out |= dom.phenomena()
    return frozenset(out)


def shared_phenomena(e1: Environment, e2: Environment) -> frozenset[str]:
    return phenomena_universe(e1) & phenomena_universe(e2)


def controlled_phenomena(env: Environment) -> frozenset[str]:
    out: set[str] = set()
    for dom in env:
        out |= dom.controlled
    return frozenset(out)


def observed_phenomena(env: Environment) -> frozenset[str]:
    out: set[str] = set()
    for dom in env:
        out |= dom.observed
    return frozenset(out)


# Entries are kept with explicit sort keys while a change is evaluated, so
# that parallel branches merge into one deterministic, order-independent
# result.  A key is a tuple of (int, str) pairs; base entries carry their
# original index, refinement products hang off the target's key, and fresh
# additions sort after everything else.
_Key = tuple[tuple[int, str], ...]
_ADDED = 10**9


class _Entries:
    def __init__(self, pairs: list[tuple[_Key, Domain]], counter: int = 0):
        self.pairs = pairs
        self.counter = counter
        self.touched: set[str] = set()

    @classmethod
    def from_env(cls, env: Environment) -> "_Entries":
        return cls([(((i, ""),), d) for i, d in enumerate(env.domains)])

    def names(self) -> set[str]:
        return {d.name for _, d in self.pairs}

    def find(self, name: str) -> int | None:
        for i, (_, d) in enumerate(self.pairs):
            if d.name == name:
                return i
        return None

    def to_env(self) -> Environment:
        ordered = sorted(self.pairs, key=lambda kv: kv[0])
        return Environment(tuple(d for _, d in ordered))


def _prune_composites(entries: _Entries, removed: str) -> None:
    """Drop a cancelled member from composite structures; a composite with a
    single remaining member dissolves into it."""
    for i, (key, dom) in enumerate(list(entries.pairs)):
        if dom.structure is not None and removed in dom.structure:
            remaining = tuple(n for n in dom.structure if n != removed)
            entries.touched.add(dom.name)
            if len(remaining) <= 1:
                entries.pairs.pop(i)
            else:
                entries.pairs[i] = (key, Domain(dom.name, dom.description, structure=remaining))
            return


def _remove_composite(entries: _Entries, index: int) -> None:
    """Remove a composite and, recursively, the members it lists."""
    key, dom = entries.pairs.pop(index)
    entries.touched.add(dom.name)
    for member in dom.structure or ():
        j = entries.find(member)
        if j is not None:
            if entries.pairs[j][1].is_composite:
                _remove_composite(entries, j)
            else:
                entries.touched.add(member)
                entries.pairs.pop(j)


def _apply_atoms(entries: _Entries, change: ChangeExpr) -> None:
    if isinstance(change, Nil):
        return
    if isinstance(change, Unknown):
        raise UnknownChange(change.placeholder)
    if isinstance(change, Add):
        if change.domain.name in entries.names():
            raise AddExisting(change.domain.name)
        entries.counter += 1
        entries.touched.add(change.domain.name)
        entries.pairs.append((((_ADDED + entries.counter, ""),), change.domain))
        return
    if isinstance(change, Cancel):
        index = entries.find(change.domain_name)
        if index is None:
            raise CancelMissing(change.domain_name)
        if entries.pairs[index][1].is_composite:
            _remove_composite(entries, index)
        else:
            entries.touched.add(change.domain_name)
            entries.pairs.pop(index)
        _prune_composites(entries, change.domain_name)
        return
    if isinstance(change, Refine):
        index = entries.find(change.target)
        if index is None:
            raise RefineMissing(change.target)
        key, old = entries.pairs[index]
        members = change.retained + change.added
        if old.is_composite:
            _remove_composite(entries, index)
        else:
            entries.pairs.pop(index)
        existing = entries.names()
        for member in members:
            if member.name in existing:
                raise AddExisting(member.name)
        entries.touched.add(change.target)
        composite = Domain(
            change.target,
            old.description,
            structure=tuple(d.name for d in members),
        )
        entries.pairs.insert(index, (key, composite))
        for offset, member in enumerate(members, start=1):
            entries.touched.add(member.name)
            entries.pairs.append((key + ((offset, ""),), member))
        return
    if isinstance(change, ChangeSeq):
        _apply_atoms(entries, change.first)
        _apply_atoms(entries, change.second)
        return
    if isinstance(change, ChangePar):
        _apply_par(entries, change)
        return
    raise TypeError(f"unsupported change expression: {change!r}")


def _rekey_additions(entries: _Entries) -> None:
    # Fresh additions in parallel branches have no order between them;
    # give them name-derived keys so the merge is commutative.
    for i, (key, dom) in enumerate(entries.pairs):
        if key[0][0] >= _ADDED:
            entries.pairs[i] = ((((_ADDED, dom.name),) + key[1:]), dom)


def _apply_par(entries: _Entries, change: ChangePar) -> None:
    base_pairs = list(entries.pairs)
    left = _Entries(list(base_pairs), entries.counter)
    right = _Entries(list(base_pairs), entries.counter)
    _apply_atoms(left, change.left)
    _apply_atoms(right, change.right)
    shared = left.touched & right.touched
    if shared:
        raise ParConflict(frozenset(shared))
    _rekey_additions(left)
    _rekey_additions(right)
    base_names = {d.name for _, d in base_pairs}
    merged: dict[str, tuple[_Key, Domain]] = {}
    for side, other in ((left, right), (right, left)):
        for key, dom in side.pairs:
            if dom.name in base_names and dom.name not in side.touched:
                # untouched by this side; defer to the side that touched it
                if dom.name in other.touched:
                    continue
            merged[dom.name] = (key, dom)
    entries.pairs = list(merged.values())
    entries.counter = max(left.counter, right.counter)
    entries.touched |= left.touched | right.touched


def apply_change(env: Environment, change: ChangeExpr) -> Environment:
    """Apply a fully determined change expression to an environment.

    Additions insert a new domain, cancellations remove one, refinements
    replace the target with a composite carrying the retained and added
    sub-domains.  Sequencing threads the environment left to right;
    parallel composition requires the branches to touch disjoint domains
    and merges their effects order-independently.

    Removing control of a phenomenon that is still observed once the whole
    change has been applied is an error unless some surviving domain
    controls it again (the change must re-home what it orphans).
    """
    entries = _Entries.from_env(env)
    _apply_atoms(entries, change)
    result = entries.to_env()
    orphans = (
        controlled_phenomena(env)
        - controlled_phenomena(result)
    ) & observed_phenomena(result)
    if orphans:
        raise DanglingControl(frozenset(orphans))
    return result


def execute_solution(org: Organisation, need: Need, change: ChangeExpr) -> Organisation:
    """Install a validated solution: update the state and retire the need."""
    if need not in org.current_problems:
        raise NeedNotCurrent(need)
    new_state = apply_change(org.state, change)
    return Organisation(new_state, org.current_problems - {need})
