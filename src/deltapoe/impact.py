"""Phenomena-based change propagation.

A change seeds a set of affected phenomena.  Any domain observing an
affected phenomenon changes behaviourally (new occurrences reach it
without altering its description), and its own causal links carry the
effect onward; the analysis runs this to a fixpoint.  Domains the
analyst declares as change buffers absorb what reaches them: they are
reported, but their outgoing links are not followed.

Classification is by reachability over observed phenomena and causal
links only; no occurrence-level behaviour is modelled.

Propagation is one breadth-first search, linear in the phenomena,
domains and links of the environment.  The report keeps the search's
parent map rather than one path per reached domain; paths are rendered
from it only when they are read.  ``ImpactReport.walk`` renders them all
one depth at a time, each phenomenon's path its cause's path extended by
one hop, so a full report takes time linear in its output, and holds
only one depth's paths at a time.  A bound check stores no paths either:
``BoundReport.walk`` renders its violations from the report's walk.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from . import dsl, model as m
from .artifacts import Record
from .printer import change_str


class ImpactError(Exception):
    """An edit that cannot be propagated over the environment."""


class UnknownDomain(ImpactError):
    def __init__(self, name: str):
        super().__init__(f"no domain named {name!r} in the environment")
        self.name = name


class UnknownPhenomenon(ImpactError):
    def __init__(self, name: str):
        super().__init__(f"no phenomenon named {name!r} in the environment")
        self.name = name


class NewLink(Record):
    """A description-level edit: the domain gains a causal link."""

    __slots__ = ("domain", "cause", "effect")

    def __init__(self, domain: str, cause: str, effect: str):
        self.domain = domain
        self.cause = cause
        self.effect = effect


EditSpec = m.Add | m.Cancel | m.Refine | NewLink


def edit_str(edit: EditSpec) -> str:
    if isinstance(edit, NewLink):
        return f"{edit.domain} causes {edit.cause} -> {edit.effect}"
    return change_str(edit)


# A path alternates phenomena and the domains they reach:
# ("c", "D", "d", "E") reads "c -> D -> d -> E".
Path = tuple[str, ...]


def path_text(path: Path) -> str:
    return " -> ".join(path)


class ImpactReport(Record):
    """The reach of an edit.

    Paths are not stored.  ``parent`` maps each affected phenomenon to the
    cause and the domain whose link reached it (``None`` for a seed), and
    ``hits`` maps each behaviourally impacted domain to the affected
    phenomenon it observes on a shortest path, in report order: by path
    length, then by name.  ``walk`` and ``paths`` render every path from
    these, extending each cause's path by one hop, one depth at a time.
    ``buffers`` holds the declared buffers that were actually reached.
    """

    __slots__ = ("edit", "structural", "behavioural", "buffers", "declared_buffers",
                 "seed_phenomena", "parent", "hits")

    def __init__(
        self,
        edit: str,
        structural: frozenset[str],
        behavioural: frozenset[str],
        buffers: frozenset[str],
        declared_buffers: frozenset[str],
        seed_phenomena: frozenset[str],
        parent: dict[str, tuple[str, str] | None],
        hits: dict[str, str],
    ):
        self.edit = edit
        self.structural = structural
        self.behavioural = behavioural
        self.buffers = buffers
        self.declared_buffers = declared_buffers
        self.seed_phenomena = seed_phenomena
        self.parent = parent
        self.hits = hits

    @property
    def paths(self) -> tuple[Path, ...]:
        """One shortest path per reached domain, in report order."""
        return tuple(path for _, path in self.walk())

    def walk(self) -> Iterator[tuple[str, Path]]:
        """Each reached domain and its path, in report order.

        ``parent`` is in breadth-first order, so depth never decreases
        along it, and a phenomenon's path is its cause's path, one depth
        less, plus ``(via, phenomenon)``.  Hits are ordered by depth too:
        those of a depth are yielded once its paths are all built, and
        then only that depth's paths are kept as prefixes for the next.
        """
        hits = iter(self.hits.items())
        hit = next(hits, None)
        older: dict[str, Path] = {}  # the paths of the depth before ``newer``'s
        newer: dict[str, Path] = {}
        for phen, step in self.parent.items():
            if step is None:
                newer[phen] = (phen,)
                continue
            cause, via = step
            if cause in newer:  # the first phenomenon one depth further
                while hit is not None and hit[1] in newer:
                    domain, at = hit
                    yield domain, newer[at] + (domain,)
                    hit = next(hits, None)
                older, newer = newer, {}
            newer[phen] = older[cause] + (via, phen)
        while hit is not None:  # the deepest hits
            domain, at = hit
            yield domain, newer[at] + (domain,)
            hit = next(hits, None)


class BoundReport(Record):
    """The bound check of an impact ``report`` against the domains
    ``permitted`` to change.

    Violations are not stored.  ``walk`` renders them from the report, as
    ``ImpactReport.walk`` renders its paths, and ``violations`` renders
    them all again on each read.  As a record it compares, hashes and
    prints by its fields, the report and the permitted set, not by its
    outcome: two checks with the same violations but different permitted
    sets are unequal, and hashing one raises ``TypeError``, as hashing its
    ``ImpactReport`` does.  Compare ``passed`` and ``violations`` to
    compare outcomes.
    """

    __slots__ = ("report", "permitted")

    def __init__(self, report: ImpactReport, permitted: frozenset[str]):
        self.report = report
        self.permitted = permitted

    @property
    def passed(self) -> bool:
        """Whether every domain the report finds impacted is permitted."""
        report, permitted = self.report, self.permitted
        return permitted.issuperset(report.structural) and permitted.issuperset(report.behavioural)

    @property
    def violations(self) -> tuple[tuple[str, Path], ...]:
        """Each impacted domain that is not permitted, and its path,
        rendered anew by ``walk``."""
        return tuple(self.walk())

    def walk(self) -> Iterator[tuple[str, Path]]:
        """The violations by path length, then name: first the structural
        domains, whose path is their name alone, then the hits in report
        order, which is already by length, then name."""
        for name in sorted(self.report.structural - self.permitted):
            yield name, (name,)
        for name, path in self.report.walk():
            if name not in self.permitted:
                yield name, path


def _seed(env: m.Environment, edit: EditSpec) -> tuple[frozenset[str], frozenset[str]]:
    """structural domains and seed phenomena of an edit"""
    if isinstance(edit, m.Cancel):
        if edit.domain_name not in env:
            raise UnknownDomain(edit.domain_name)
        target = env.domain(edit.domain_name)
        return frozenset({target.name}), frozenset(target.controlled)
    if isinstance(edit, m.Refine):
        if edit.target not in env:
            raise UnknownDomain(edit.target)
        target = env.domain(edit.target)
        rehomed = frozenset().union(
            *(d.controlled for d in edit.retained + edit.added)
        ) if edit.retained + edit.added else frozenset()
        structural = {target.name}
        structural.update(d.name for d in edit.retained + edit.added)
        return frozenset(structural), frozenset(target.controlled - rehomed)
    if isinstance(edit, m.Add):
        return frozenset({edit.domain.name}), frozenset(edit.domain.controlled)
    if isinstance(edit, NewLink):
        if edit.domain not in env:
            raise UnknownDomain(edit.domain)
        universe = m.phenomena_universe(env)
        for phen in (edit.cause, edit.effect):
            if phen not in universe:
                raise UnknownPhenomenon(phen)
        return frozenset({edit.domain}), frozenset({edit.effect})
    raise TypeError(f"not an edit: {edit!r}")


def check_domains(env: m.Environment, names: frozenset[str]) -> None:
    """Raise UnknownDomain for the first of ``names``, in name order, that
    ``env`` does not declare."""
    unknown = sorted(names.difference(env.names()))
    if unknown:
        raise UnknownDomain(unknown[0])


def propagate(
    env: m.Environment,
    edit: EditSpec,
    buffers: frozenset[str] = frozenset(),
) -> ImpactReport:
    """Trace an edit's reach through observation and causal links.

    Affected phenomena grow through the links of non-buffer domains that
    observe an affected cause; every domain observing an affected
    phenomenon is behaviourally impacted.  Deterministic: paths are
    discovered breadth-first, ties broken by name.
    """
    check_domains(env, buffers)
    structural, seeds = _seed(env, edit)

    # phenomenon-level edges through observing, non-buffer domains
    edges: dict[str, list[tuple[str, str]]] = {}
    for dom in env:
        if dom.name in buffers:
            continue
        for link in sorted(dom.links, key=m.LINK_ORDER):
            if link.cause in dom.observed:
                edges.setdefault(link.cause, []).append((link.effect, dom.name))

    parent: dict[str, tuple[str, str] | None] = {}
    depth: dict[str, int] = {}
    queue: deque[str] = deque()
    for phen in sorted(seeds):
        parent[phen] = None
        depth[phen] = 0
        queue.append(phen)
    while queue:
        phen = queue.popleft()
        for effect, via in edges.get(phen, ()):
            if effect not in parent:
                parent[effect] = (phen, via)
                depth[effect] = depth[phen] + 1
                queue.append(effect)

    # a path through phenomenon p has 2 * depth[p] + 2 entries, so the
    # shortest hit, ties broken by name, is the least (depth, name)
    reached: list[tuple[int, str, str]] = []
    for dom in env:
        if dom.name in structural:
            continue
        hits = [p for p in dom.observed if p in depth]
        if hits:
            hit_depth, hit = min((depth[p], p) for p in hits)
            reached.append((hit_depth, dom.name, hit))
    reached.sort()

    behavioural = frozenset(name for _, name, _ in reached)
    return ImpactReport(
        edit=edit_str(edit),
        structural=structural,
        behavioural=behavioural,
        buffers=behavioural & buffers,
        declared_buffers=frozenset(buffers),
        seed_phenomena=seeds,
        parent=parent,
        hits={name: hit for _, name, hit in reached},
    )


def bound_check(report: ImpactReport, permitted: frozenset[str]) -> BoundReport:
    """Pass iff every domain the ``report`` finds impacted is permitted to
    change.  The violations are rendered when they are read."""
    return BoundReport(report, frozenset(permitted))


def parse_edit(text: str, mdl: dsl.Model) -> EditSpec:
    """Parse an edit given on the command line.

    Accepts a change atom (``+X``, ``!X``, ``X ~> d[A](B)``) or a new
    causal link (``X causes y -> c``)."""
    parser = dsl._Parser(text, mdl)
    tokens = parser.tokens
    if len(tokens) >= 2 and tokens[0][:1] in dsl.IDENT_START and tokens[1] == "causes":
        owner = parser.ident("domain name")
        parser.expect("causes")
        cause = parser.ident("phenomenon name")
        parser.expect("->")
        effect = parser.ident("phenomenon name")
        parser.expect_eof()
        return NewLink(owner, cause, effect)
    change = parser.change_expr()
    parser.expect_eof()
    if not isinstance(change, (m.Add, m.Cancel, m.Refine)):
        raise dsl.DslError(
            [dsl.ParseDiagnostic(1, 1, "an impact edit is a single change atom or a new link")]
        )
    return change
