"""Shared hypothesis strategies for randomized environments and expressions."""

import random

from hypothesis import strategies as st

from deltapoe import model
from deltapoe.dsl import Model

DESC_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    ".,:;!?()[]{}'\"\\/\n\t+-~>|=#@"
)

descriptions = st.text(alphabet=DESC_ALPHABET, max_size=40)


@st.composite
def environments(draw, max_domains=10, max_links=30, max_phenomena=None):
    """A well-formed environment: unique names, unique control, links over
    each owner's own phenomena."""
    n_dom = draw(st.integers(min_value=1, max_value=max_domains))
    n_phen = draw(st.integers(min_value=1, max_value=max_phenomena or 3 * max_domains))
    phens = [f"p{i}" for i in range(n_phen)]
    owner_of = {
        p: draw(st.integers(min_value=-1, max_value=n_dom - 1)) for p in phens
    }
    budget = max_links
    domains = []
    for i in range(n_dom):
        controlled = frozenset(p for p, o in owner_of.items() if o == i)
        candidates = [p for p in phens if p not in controlled]
        observed = frozenset(
            draw(st.sets(st.sampled_from(candidates), max_size=len(candidates)))
            if candidates
            else set()
        )
        universe = sorted(controlled | observed)
        links = set()
        if len(universe) >= 2 and budget > 0:
            wanted = draw(st.integers(min_value=0, max_value=min(4, budget)))
            for _ in range(wanted):
                cause = draw(st.sampled_from(universe))
                effect = draw(st.sampled_from(universe))
                if cause != effect:
                    links.add(model.CausalLink(cause, effect, f"d{i}"))
            budget -= len(links)
        domains.append(
            model.Domain(
                f"d{i}",
                observed=observed,
                controlled=controlled,
                links=frozenset(links),
            )
        )
    return model.Environment(tuple(domains))


def fresh_domain(name, controlled=(), observed=()):
    return model.Domain(
        name, controlled=frozenset(controlled), observed=frozenset(observed)
    )


@st.composite
def needs(draw, atom_names=("n1", "n2", "n3", "n4"), max_leaves=6, atoms=None):
    """An arbitrary (not necessarily normalized) need tree."""
    leaves = draw(st.integers(min_value=1, max_value=max_leaves))
    pool = atoms if atoms is not None else [model.AtomicNeed(n) for n in atom_names]

    def build(k):
        if k == 1:
            return draw(st.sampled_from(pool))
        split = draw(st.integers(min_value=1, max_value=k - 1))
        left, right = build(split), build(k - split)
        if draw(st.booleans()):
            return model.NeedSeq(left, right)
        return model.NeedPar(left, right)

    return build(leaves)


_DOMAIN_BASES = ["Core", "Sales", "Docs", "api.v1", "Ops'", "Billing", "Edge.cache"]
_STAKEHOLDER_NAMES = ["G", "D", "Impl", "Lead'"]


@st.composite
def models(draw, max_domains=6):
    """A random model aggregate: vocabulary, domain library, stakeholders
    and named needs. Always well-formed."""
    n_phen = draw(st.integers(min_value=1, max_value=12))
    kinds = list(model.PhenomenonKind)
    phenomena = tuple(
        model.Phenomenon(f"ph.x{i}", draw(st.sampled_from(kinds))) for i in range(n_phen)
    )
    phen_names = [p.name for p in phenomena]
    n_dom = draw(st.integers(min_value=1, max_value=max_domains))
    dom_names = [
        f"{draw(st.sampled_from(_DOMAIN_BASES))}{i}" for i in range(n_dom)
    ]
    owner_of = {
        p: draw(st.integers(min_value=-1, max_value=n_dom - 1)) for p in phen_names
    }
    domains = []
    for i, name in enumerate(dom_names):
        controlled = frozenset(p for p, o in owner_of.items() if o == i)
        candidates = [p for p in phen_names if p not in controlled]
        observed = frozenset(
            draw(st.sets(st.sampled_from(candidates), max_size=4)) if candidates else set()
        )
        universe = sorted(controlled | observed)
        links = set()
        if len(universe) >= 2:
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                cause = draw(st.sampled_from(universe))
                effect = draw(st.sampled_from(universe))
                if cause != effect:
                    links.add(model.CausalLink(cause, effect, name))
        domains.append(
            model.Domain(
                name,
                draw(descriptions),
                observed,
                controlled,
                frozenset(links),
            )
        )
    n_sk = draw(st.integers(min_value=1, max_value=len(_STAKEHOLDER_NAMES)))
    sk_names = _STAKEHOLDER_NAMES[:n_sk]
    stakeholders = tuple(
        model.Stakeholder(
            name,
            draw(st.sampled_from(list(model.Role))),
            frozenset(draw(st.sets(st.sampled_from(sk_names), max_size=n_sk))),
        )
        for name in sk_names
    )
    n_needs = draw(st.integers(min_value=1, max_value=4))
    need_decls = tuple(
        model.AtomicNeed(f"Need{i}", draw(descriptions)) for i in range(n_needs)
    )
    return Model(phenomena, model.Environment(tuple(domains)), stakeholders, need_decls)


@st.composite
def changes(draw, mdl, max_leaves=5, allow_unknown=True):
    """A change expression over the model's domain library."""
    dom_names = list(mdl.environment.names())
    leaves = draw(st.integers(min_value=1, max_value=max_leaves))

    def atom():
        options = ["add", "cancel", "refine", "nil"]
        if allow_unknown:
            options.append("unknown")
        kind = draw(st.sampled_from(options))
        if kind == "unknown":
            return model.Unknown(draw(st.sampled_from(["F", "F1", "F2", "Fx'"])))
        if kind == "nil":
            return model.Nil()
        if kind == "add":
            return model.Add(mdl.domain(draw(st.sampled_from(dom_names))))
        if kind == "cancel":
            return model.Cancel(draw(st.sampled_from(dom_names)))
        target = draw(st.sampled_from(dom_names))
        pool = [n for n in dom_names if n != target]
        retained = tuple(
            mdl.domain(n) for n in draw(st.lists(st.sampled_from(pool), max_size=2, unique=True))
        ) if pool else ()
        added = tuple(
            mdl.domain(n) for n in draw(st.lists(st.sampled_from(pool), max_size=2, unique=True))
        ) if pool else ()
        return model.Refine(target, retained, added)

    def build(k):
        if k == 1:
            return atom()
        split = draw(st.integers(min_value=1, max_value=k - 1))
        left, right = build(split), build(k - split)
        if draw(st.booleans()):
            return model.ChangeSeq(left, right)
        return model.ChangePar(left, right)

    return build(leaves)


@st.composite
def problems(draw, mdl):
    all_names = list(mdl.environment.names())
    chosen = draw(st.lists(st.sampled_from(all_names), unique=True, min_size=1))
    env = model.Environment(tuple(mdl.domain(n) for n in chosen))
    change = draw(changes(mdl))
    validator = draw(st.sampled_from([s.name for s in mdl.stakeholders]))
    need = model.normalize_need(draw(needs(atoms=list(mdl.needs))))
    return model.Problem(env, change, validator, need)


def layered_org_text(layers, width, fan_in, seed=0):
    """Model text of a layered organisation: every domain below the top
    observes ``fan_in`` phenomena of the layer above and links each of them
    to the one phenomenon it controls."""
    rng = random.Random(seed)
    lines = ["model {"]
    lines += [f"  phenomenon o{k}_{w} : event" for k in range(layers) for w in range(width)]
    for k in range(layers):
        for w in range(width):
            seen = [] if k == 0 else [f"o{k - 1}_{a}" for a in sorted(rng.sample(range(width), fan_in))]
            clauses = [f"observes {', '.join(seen)}"] if seen else []
            clauses.append(f"controls o{k}_{w}")
            clauses += [f"causes {p} -> o{k}_{w}" for p in seen]
            lines.append(f"  domain O{k}_{w} {{ " + "  ".join(clauses) + " }")
    lines.append("}")
    return "\n".join(lines) + "\n"


@st.composite
def edit_cases(draw):
    """An environment, possibly holding nested composites, and a change over it:
    additions, cancellations (of members and of missing domains too),
    refinements (nested, of composites, with repeated members or a member
    named like the target), sequenced and parallel, with the odd
    placeholder.  Installed domains may take over or observe phenomena of
    the environment, so orphaned control and control clashes occur."""
    env = draw(environments(max_domains=5, max_links=4, max_phenomena=6))
    phens = sorted(model.phenomena_universe(env)) or ["p0"]
    fresh = ["f0", "f1", "f2", "f3"]

    def domain(name):
        controlled = draw(st.sets(st.sampled_from(phens), max_size=1))
        observed = draw(st.sets(st.sampled_from(phens), max_size=2)) - controlled
        return model.Domain(name, controlled=frozenset(controlled), observed=frozenset(observed))

    def refine(names):
        target = draw(st.sampled_from(names + ["ghost"]))
        pool = fresh + names + [target]
        members = draw(st.lists(st.sampled_from(pool), max_size=3))
        split = draw(st.integers(min_value=0, max_value=len(members)))
        return model.Refine(
            target,
            tuple(domain(n) for n in members[:split]),
            tuple(domain(n) for n in members[split:]),
        )

    if draw(st.booleans()):
        # a composite, and maybe a composite among its members
        target = draw(st.sampled_from(list(env.names())))
        for level in range(draw(st.integers(min_value=1, max_value=2))):
            members = [domain(f"g{level}{k}") for k in range(draw(st.integers(1, 2)))]
            try:
                env = model.apply_change(env, model.Refine(target, tuple(members[:1]), tuple(members[1:])))
            except (model.ChangeError, model.ModelError):
                break
            target = members[0].name
    names = list(env.names())

    def atom():
        kind = draw(st.sampled_from(["add", "cancel", "cancel", "refine", "refine", "nil", "unknown"]))
        if kind == "add":
            return model.Add(domain(draw(st.sampled_from(fresh + names))))
        if kind == "cancel":
            return model.Cancel(draw(st.sampled_from(names + fresh[:1] + ["ghost"])))
        if kind == "refine":
            return refine(names + fresh[:2])
        if kind == "nil":
            return model.Nil()
        return model.Unknown("F")

    def build(k):
        if k == 1:
            return atom()
        split = draw(st.integers(min_value=1, max_value=k - 1))
        left, right = build(split), build(k - split)
        if draw(st.booleans()):
            return model.ChangeSeq(left, right)
        return model.ChangePar(left, right)

    return env, build(draw(st.integers(min_value=1, max_value=6)))
