#!/usr/bin/env python3
"""Audit the propagation engine against a brute-force closure oracle on
randomized environments, and time it.

For every case it checks that the behavioural set equals the closure,
that each reported path is a real chain of observations and causal links
from a seed phenomenon that is as short as any such chain can be, and
that the structured report ``export.to_json`` writes is the text of
``json.dumps(doc, indent=2)``.  Exits 1 on any disagreement.

    python3 scripts/impact_audit.py [cases] [seed]
"""

import io
import json
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from deltapoe import export, impact, model  # noqa: E402


def random_environment(rng, max_domains=10, max_links=30):
    n_dom = rng.randint(1, max_domains)
    phens = [f"p{i}" for i in range(rng.randint(1, 3 * max_domains))]
    owner = {p: rng.randrange(-1, n_dom) for p in phens}
    budget = max_links
    domains = []
    for i in range(n_dom):
        name = f"d{i}"
        controlled = frozenset(p for p, o in owner.items() if o == i)
        rest = [p for p in phens if p not in controlled]
        observed = frozenset(p for p in rest if rng.random() < 0.35)
        universe = sorted(controlled | observed)
        links = set()
        if len(universe) >= 2:
            for _ in range(rng.randint(0, min(4, budget))):
                cause, effect = rng.choice(universe), rng.choice(universe)
                if cause != effect:
                    links.add(model.CausalLink(cause, effect, name))
        budget -= len(links)
        domains.append(
            model.Domain(name, observed=observed, controlled=controlled, links=frozenset(links))
        )
    return model.Environment(tuple(domains))


def closure_oracle(env, seeds, structural, buffers):
    edges = {
        (link.cause, link.effect)
        for dom in env
        if dom.name not in buffers
        for link in dom.links
        if link.cause in dom.observed
    }
    affected = set(seeds)
    while True:
        grown = {q for p, q in edges if p in affected}
        if grown <= affected:
            break
        affected |= grown
    return {d.name for d in env if d.name not in structural and d.observed & affected}


def edge_domains(env, buffers):
    """(cause, effect) -> domains whose observed cause is linked to effect"""
    edges = {}
    for dom in env:
        if dom.name not in buffers:
            for link in dom.links:
                if link.cause in dom.observed:
                    edges.setdefault((link.cause, link.effect), set()).add(dom.name)
    return edges


def distances(seeds, edges):
    """Fewest causal links from a seed to each affected phenomenon."""
    dist = dict.fromkeys(seeds, 0)
    frontier, level = set(seeds), 0
    while frontier:
        level += 1
        frontier = {q for p, q in edges if p in frontier and q not in dist}
        dist.update(dict.fromkeys(frontier, level))
    return dist


def path_problem(env, report, buffers):
    """None if every path is a real chain and as short as BFS allows."""
    edges = edge_domains(env, buffers)
    dist = distances(report.seed_phenomena, edges)
    observed = {dom.name: dom.observed for dom in env}
    paths = report.paths
    order = [(len(p), p[-1]) for p in paths]
    if sorted(p[-1] for p in paths) != sorted(report.behavioural) or order != sorted(order):
        return "paths are not one per reached domain, by length then name"
    for path in paths:
        phens, vias = path[0:-1:2], path[1:-1:2]
        if phens[0] not in report.seed_phenomena or phens[-1] not in observed[path[-1]]:
            return f"path {path} does not run from a seed to an observer"
        if any(via not in edges.get(step, ()) for via, step in zip(vias, zip(phens, phens[1:]))):
            return f"path {path} follows a link that does not exist"
        shortest = min(dist[p] for p in observed[path[-1]] if p in dist)
        if len(path) != 2 * shortest + 2:
            return f"path {path} is longer than {2 * shortest + 2}"
    return None


def structured_problem(env, report) -> bool:
    """Whether the structured report differs from the stdlib's text of the
    document with its paths, which ``to_json`` writes as they are walked,
    held in a list."""
    doc = export.impact_doc(report, env)
    out = io.StringIO()
    export.to_json(doc, out)
    held = dict(doc, paths=[list(path) for path in doc["paths"]])
    return out.getvalue() != json.dumps(held, indent=2) + "\n"


def main() -> int:
    cases = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = random.Random(seed)
    started = time.perf_counter()
    disagreements = 0
    reached_total = 0
    for _ in range(cases):
        env = random_environment(rng)
        names = list(env.names())
        buffers = frozenset(n for n in names if rng.random() < 0.25)
        target = rng.choice(names)
        pool = sorted(env.domain(target).phenomena())
        if len(pool) >= 2 and rng.random() < 0.5:
            cause, effect = rng.sample(pool, 2)
            edit = impact.NewLink(target, cause, effect)
        else:
            edit = model.Cancel(target)
        report = impact.propagate(env, edit, buffers)
        expected = closure_oracle(env, report.seed_phenomena, report.structural, buffers)
        reached_total += len(report.behavioural)
        if report.behavioural != expected:
            disagreements += 1
            print(f"disagreement on seed={seed}: {report} vs {sorted(expected)}")
        elif problem := path_problem(env, report, buffers):
            disagreements += 1
            print(f"disagreement on seed={seed}: {problem}")
        elif structured_problem(env, report):
            disagreements += 1
            print(f"disagreement on seed={seed}: structured report of {report.edit!r} "
                  "is not the stdlib's JSON text")
    elapsed = time.perf_counter() - started
    print(
        f"{cases} cases, {disagreements} disagreements, "
        f"{reached_total} domains reached, {elapsed:.2f}s"
    )
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
