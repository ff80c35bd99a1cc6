"""Core domain types for change engineering.

Everything downstream (parser, calculus, impact analysis, workflows) is
built on the values defined here: phenomena, domains, environments,
needs, change expressions, stakeholders, problems and the organisation
pair.  All values are immutable after construction (see
:class:`~deltapoe.artifacts.Record`): no code assigns their fields, and
the derivation nodes over them are written only by ``calculus.build``,
in nodes it has made and not yet returned.  The operations are pure
functions, so sharing across threads is safe.
"""

from __future__ import annotations

import enum
from operator import attrgetter

from .artifacts import Record


class ModelError(ValueError):
    """A value violates a structural invariant at construction time."""


class ChangeError(Exception):
    """Base class for change-application failures."""


class AddExisting(ChangeError):
    def __init__(self, name: str):
        super().__init__(f"cannot add domain {name!r}: a domain of that name already exists")
        self.name = name


class CancelMissing(ChangeError):
    def __init__(self, name: str):
        super().__init__(f"cannot cancel domain {name!r}: no such domain in the environment")
        self.name = name


class RefineMissing(ChangeError):
    def __init__(self, name: str):
        super().__init__(f"cannot refine domain {name!r}: no such domain in the environment")
        self.name = name


class DanglingControl(ChangeError):
    def __init__(self, orphans: frozenset[str]):
        listed = ", ".join(sorted(orphans))
        super().__init__(
            "change removes control of phenomena still observed afterwards "
            f"without re-homing them: {listed}"
        )
        self.orphans = orphans


class ParConflict(ChangeError):
    def __init__(self, shared: frozenset[str]):
        listed = ", ".join(sorted(shared))
        super().__init__(f"parallel change branches touch common domains: {listed}")
        self.shared = shared


class UnknownChange(ChangeError):
    def __init__(self, placeholder: str):
        super().__init__(f"change still contains the unsolved placeholder ?{placeholder}")
        self.placeholder = placeholder


class NeedNotCurrent(ChangeError):
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


class Phenomenon(Record):
    """An observable element of the world, identified by a qualified name."""

    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: PhenomenonKind):
        if not name:
            raise ModelError("phenomenon name must be non-empty")
        self.name = name
        self.kind = kind


class CausalLink(Record):
    """A causal edge cause -> effect asserted by the owning domain.
    Links order by (cause, effect, owner)."""

    __slots__ = ("cause", "effect", "owner")

    def __init__(self, cause: str, effect: str, owner: str):
        if cause == effect:
            raise ModelError(f"causal link of {owner!r} relates {cause!r} to itself")
        self.cause = cause
        self.effect = effect
        self.owner = owner

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) < self._values(other)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) <= self._values(other)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) > self._values(other)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) >= self._values(other)
        return NotImplemented


# The order of one domain's links, which all share its owner: that of
# ``CausalLink.__lt__``, with no Python call per comparison.
LINK_ORDER = attrgetter("cause", "effect")


class Domain(Record):
    """A named collection of phenomena with observed and controlled sets.

    ``structure`` is present only on composite domains produced by a
    refinement: it lists the sub-domain names installed in place of the
    refined original.  Composites carry no phenomena of their own.
    """

    __slots__ = ("name", "description", "observed", "controlled", "links", "structure")

    def __init__(
        self,
        name: str,
        description: str = "",
        observed: frozenset[str] = frozenset(),
        controlled: frozenset[str] = frozenset(),
        links: frozenset[CausalLink] = frozenset(),
        structure: tuple[str, ...] | None = None,
    ):
        if not name:
            raise ModelError("domain name must be non-empty")
        clash = observed & controlled
        if clash:
            raise ModelError(
                f"domain {name!r} both observes and controls: {', '.join(sorted(clash))}"
            )
        universe = observed | controlled
        for link in links:
            if link.owner != name:
                raise ModelError(f"domain {name!r} holds a link owned by {link.owner!r}")
            for endpoint in (link.cause, link.effect):
                if endpoint not in universe:
                    raise ModelError(
                        f"domain {name!r} asserts a link over {endpoint!r}, "
                        "which it neither observes nor controls"
                    )
        if structure is not None and (observed or controlled):
            raise ModelError(f"composite domain {name!r} may not carry phenomena itself")
        self.name = name
        self.description = description
        self.observed = observed
        self.controlled = controlled
        self.links = links
        self.structure = structure

    @property
    def is_composite(self) -> bool:
        return self.structure is not None

    def phenomena(self) -> frozenset[str]:
        return self.observed | self.controlled


class Environment(Record):
    """An ordered collection of uniquely named domains, indexed by name."""

    __slots__ = ("domains", "_by_name")

    def __init__(self, domains: tuple[Domain, ...] = ()):
        by_name = {d.name: d for d in domains}
        seen: set[str] = set()
        controllers: dict[str, str] = {}
        for dom in domains:
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
                    if member not in by_name:
                        raise ModelError(
                            f"composite {dom.name!r} lists missing member {member!r}"
                        )
        self.domains = domains
        self._by_name = by_name

    def __iter__(self):
        return iter(self.domains)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def domain(self, name: str) -> Domain:
        return self._by_name[name]

    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.domains)


# --- needs ------------------------------------------------------------------

class AtomicNeed(Record):
    __slots__ = ("name", "description")

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description


class NeedSeq(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: Need, right: Need):
        self.left = left
        self.right = right


class NeedPar(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: Need, right: Need):
        self.left = left
        self.right = right


Need = AtomicNeed | NeedSeq | NeedPar


def need_name_hint(need: Need) -> str:
    if isinstance(need, AtomicNeed):
        return need.name
    node = type(need)
    op = " ; " if node is NeedSeq else " || "
    return op.join(need_name_hint(part) for part in _flatten(need, node))


def need_atoms(need: Need) -> frozenset[str]:
    return frozenset(atom.name for atom in _flatten(need, (NeedSeq, NeedPar)))


def _flatten(need: Need, node: type | tuple[type, ...]) -> list[Need]:
    """The operands of a chain of ``node`` compositions, left to right,
    found without recursion so a long chain cannot exhaust the stack."""
    parts, stack = [], [need]
    while stack:
        part = stack.pop()
        if isinstance(part, node):
            stack += (part.right, part.left)
        else:
            parts.append(part)
    return parts


def _need_key(need: Need) -> str:
    # Stable sort key for parallel branches; mirrors the printed form.
    if isinstance(need, AtomicNeed):
        return need.name
    if isinstance(need, NeedSeq):
        return "(" + " ; ".join(_need_key(p) for p in _flatten(need, NeedSeq)) + ")"
    return "(" + " || ".join(_need_key(p) for p in _flatten(need, NeedPar)) + ")"


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
        parts = [normalize_need(p) for p in _flatten(need, NeedSeq)]
        return _rebuild(parts, NeedSeq)
    parts = [normalize_need(p) for p in _flatten(need, NeedPar)]
    parts.sort(key=_need_key)
    return _rebuild(parts, NeedPar)


# --- change expressions -----------------------------------------------------

class Unknown(Record):
    """Placeholder for a change still to be found."""

    __slots__ = ("placeholder",)

    def __init__(self, placeholder: str):
        self.placeholder = placeholder


class Add(Record):
    __slots__ = ("domain",)

    def __init__(self, domain: Domain):
        self.domain = domain


class Cancel(Record):
    __slots__ = ("domain_name",)

    def __init__(self, domain_name: str):
        self.domain_name = domain_name


class Refine(Record):
    __slots__ = ("target", "retained", "added")

    def __init__(self, target: str, retained: tuple[Domain, ...], added: tuple[Domain, ...]):
        self.target = target
        self.retained = retained
        self.added = added


class ChangeSeq(Record):
    __slots__ = ("first", "second")

    def __init__(self, first: ChangeExpr, second: ChangeExpr):
        self.first = first
        self.second = second


class ChangePar(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: ChangeExpr, right: ChangeExpr):
        self.left = left
        self.right = right


class Nil(Record):
    """The identity change; applying it leaves the environment untouched."""

    __slots__ = ()


ChangeExpr = Unknown | Add | Cancel | Refine | ChangeSeq | ChangePar | Nil
ChangeAtom = Add | Cancel | Refine


def _change_atoms(change: ChangeExpr) -> list[ChangeExpr]:
    """The operands of a change's ``;`` and ``||`` compositions, left to
    right, found without recursion so a long chain cannot exhaust the
    stack."""
    parts, stack = [], [change]
    while stack:
        part = stack.pop()
        if isinstance(part, ChangeSeq):
            stack += (part.second, part.first)
        elif isinstance(part, ChangePar):
            stack += (part.right, part.left)
        else:
            parts.append(part)
    return parts


def is_unknown_free(change: ChangeExpr) -> bool:
    return not any(isinstance(atom, Unknown) for atom in _change_atoms(change))


def placeholders(change: ChangeExpr) -> frozenset[str]:
    return frozenset(atom.placeholder for atom in _change_atoms(change) if isinstance(atom, Unknown))


def referenced_domains(change: ChangeExpr) -> frozenset[str]:
    """All domain names a change expression mentions."""
    names = set()
    for atom in _change_atoms(change):
        if isinstance(atom, Add):
            names.add(atom.domain.name)
        elif isinstance(atom, Cancel):
            names.add(atom.domain_name)
        elif isinstance(atom, Refine):
            names.add(atom.target)
            names.update(d.name for d in atom.retained)
            names.update(d.name for d in atom.added)
    return frozenset(names)


# --- stakeholders, problems, the organisation -------------------------------

class Role(str, enum.Enum):
    PROBLEM_OWNER = "problem-owner"
    PROBLEM_SOLVING_DELEGATE = "problem-solving-delegate"
    IMPLEMENTATION_DELEGATE = "implementation-delegate"


class Stakeholder(Record):
    __slots__ = ("name", "role", "trusts")

    def __init__(self, name: str, role: Role, trusts: frozenset[str] = frozenset()):
        self.name = name
        self.role = role
        self.trusts = trusts


class Problem(Record):
    """A change problem: find changes so the updated environment meets the
    need to the validator's satisfaction."""

    __slots__ = ("env", "change", "validator", "need")

    def __init__(self, env: Environment, change: ChangeExpr, validator: str, need: Need):
        self.env = env
        self.change = change
        self.validator = validator
        self.need = need


class Organisation(Record):
    __slots__ = ("state", "current_problems")

    def __init__(self, state: Environment, current_problems: frozenset[Need] = frozenset()):
        self.state = state
        self.current_problems = current_problems


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
    """The domains of an environment under change, by name, each with its
    sort key; ``touched`` names every domain the change has affected."""

    def __init__(self, domains: dict[str, tuple[_Key, Domain]], counter: int = 0):
        self.domains = domains
        self.counter = counter
        self.touched: set[str] = set()

    def to_env(self) -> Environment:
        return _sorted_env(self.domains.values())


def _sorted_env(pairs) -> Environment:
    return Environment(tuple(d for _, d in sorted(pairs, key=lambda kv: kv[0])))


def _prune_composites(entries: _Entries, removed: str) -> None:
    """Drop a cancelled member from composite structures; a composite with a
    single remaining member dissolves into it."""
    for name, (key, dom) in entries.domains.items():
        if dom.structure is not None and removed in dom.structure:
            remaining = tuple(n for n in dom.structure if n != removed)
            entries.touched.add(name)
            if len(remaining) <= 1:
                del entries.domains[name]
            else:
                entries.domains[name] = (key, Domain(name, dom.description, structure=remaining))
            return


def _remove(entries: _Entries, name: str) -> None:
    """Remove a domain and, if it is a composite, the members it lists."""
    _, dom = entries.domains.pop(name)
    entries.touched.add(name)
    for member in dom.structure or ():
        if member in entries.domains:
            _remove(entries, member)


def _apply_atoms(entries: _Entries, change: ChangeExpr) -> None:
    while isinstance(change, ChangeSeq):
        # a ``;`` chain nests to the right: walk its spine in a loop
        _apply_atoms(entries, change.first)
        change = change.second
    if isinstance(change, Nil):
        return
    if isinstance(change, Unknown):
        raise UnknownChange(change.placeholder)
    if isinstance(change, Add):
        if change.domain.name in entries.domains:
            raise AddExisting(change.domain.name)
        entries.counter += 1
        entries.touched.add(change.domain.name)
        entries.domains[change.domain.name] = (((_ADDED + entries.counter, ""),), change.domain)
        return
    if isinstance(change, Cancel):
        if change.domain_name not in entries.domains:
            raise CancelMissing(change.domain_name)
        _remove(entries, change.domain_name)
        _prune_composites(entries, change.domain_name)
        return
    if isinstance(change, Refine):
        if change.target not in entries.domains:
            raise RefineMissing(change.target)
        key, old = entries.domains[change.target]
        _remove(entries, change.target)
        members = change.retained + change.added
        for member in members:
            if member.name in entries.domains:
                raise AddExisting(member.name)
        composite = Domain(change.target, old.description, structure=tuple(d.name for d in members))
        installed = [(key, composite)]
        installed += [(key + ((offset, ""),), d) for offset, d in enumerate(members, start=1)]
        if len({d.name for _, d in installed}) < len(installed):
            # a repeated member, or one named like the target: refused here
            # with the error the environment holding both would raise
            _sorted_env([*entries.domains.values(), *installed])
        for pair in installed:
            entries.touched.add(pair[1].name)
            entries.domains[pair[1].name] = pair
        return
    if isinstance(change, ChangePar):
        _apply_par(entries, change)
        return
    raise TypeError(f"unsupported change expression: {change!r}")


def _rekey_additions(entries: _Entries) -> None:
    # Fresh additions in parallel branches have no order between them;
    # give them name-derived keys so the merge is commutative.
    for name, (key, dom) in entries.domains.items():
        if key[0][0] >= _ADDED:
            entries.domains[name] = ((((_ADDED, name),) + key[1:]), dom)


def _apply_par(entries: _Entries, change: ChangePar) -> None:
    """Apply each operand of a right-nested ``||`` chain to its own copy of
    the working set, in order, then merge the copies right to left: the
    errors, conflicts, keys and counter of the nested binary merges."""
    operands = []
    while isinstance(change, ChangePar):
        operands.append(change.left)
        change = change.right
    operands.append(change)
    base = entries.domains
    sides = []
    for operand in operands:
        sides.append(_Entries(dict(base), entries.counter))
        _apply_atoms(sides[-1], operand)
    right = sides.pop()
    while sides:
        left = sides.pop()
        shared = left.touched & right.touched
        if shared:
            raise ParConflict(frozenset(shared))
        _rekey_additions(left)
        _rekey_additions(right)
        merged: dict[str, tuple[_Key, Domain]] = {}
        for side, other in ((left, right), (right, left)):
            for name, pair in side.domains.items():
                if name in base and name not in side.touched:
                    # untouched by this side; defer to the side that touched it
                    if name in other.touched:
                        continue
                merged[name] = pair
        right.domains = merged
        right.counter = max(left.counter, right.counter)
        right.touched |= left.touched
    entries.domains, entries.counter = right.domains, right.counter
    entries.touched |= right.touched


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
    entries = _Entries({d.name: (((i, ""),), d) for i, d in enumerate(env.domains)})
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
