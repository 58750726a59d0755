"""Shared builders and independent oracles for the test suite.

The oracles deliberately re-derive results from first principles (numeric
quadrature, exhaustive path and draw-order enumeration) instead of reusing
package code. The CSV reference writer is the exception: it is the slow path
the array writer replaced, kept to pin its bytes.
"""

import itertools

import numpy as np
from hypothesis import strategies as st
from scipy.integrate import quad

from oniontrust import (
    AttributeProfile,
    FriendLink,
    FuzzyRuleSet,
    Rule,
    SocialGraph,
    ValueClass,
    propagate,
)

# -- rule sets ----------------------------------------------------------------


def default_rules() -> FuzzyRuleSet:
    """Weak Major, strong Relationship, equal-weight freq/time."""
    return FuzzyRuleSet(
        qualitative={
            "Major": (Rule.LARGE, Rule.SMALL),
            "Relationship": (Rule.LARGEST, Rule.SMALLEST),
        },
        weights={"freq": 0.5, "time": 0.5},
    )


# -- quadrature oracle ----------------------------------------------------------

# Output memberships re-stated independently: (lo, hi, slope, intercept).
ORACLE_SEGMENTS = {
    1: ((0.75, 1.00, 4.0, -3.0),),
    2: ((0.50, 0.75, 4.0, -2.0), (0.75, 1.00, -4.0, 4.0)),
    3: ((0.25, 0.50, 4.0, -1.0), (0.50, 0.75, -4.0, 3.0)),
    4: ((0.00, 0.25, 4.0, 0.0), (0.25, 0.50, -4.0, 2.0)),
    5: ((0.00, 0.25, -4.0, 1.0),),
}
ORACLE_DENSITY = {1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 2.0}
# rule -> (input class, output class); input grades per class below.
ORACLE_RULES = {
    Rule.LARGEST: (1, 1),
    Rule.LARGE: (1, 2),
    Rule.MEDIUM: (2, 3),
    Rule.SMALL: (3, 4),
    Rule.SMALLEST: (3, 5),
}


def oracle_grade(input_class: int, e: float) -> float:
    if input_class == 1:
        return e
    if input_class == 3:
        return 1.0 - e
    return min(e, 1.0 - e)


def quad_truncated(rule: Rule, e: float):
    """(MP, M) of one rule by adaptive quadrature, split at the kinks."""
    input_class, output_class = ORACLE_RULES[rule]
    grade = oracle_grade(input_class, e)
    rho = ORACLE_DENSITY[output_class]
    mp = 0.0
    m = 0.0
    for lo, hi, slope, intercept in ORACLE_SEGMENTS[output_class]:
        cuts = [lo, hi]
        crossing = (grade - intercept) / slope
        if lo < crossing < hi:
            cuts.insert(1, crossing)

        def truncated(tv):
            return rho * min(grade, slope * tv + intercept)

        for x0, x1 in zip(cuts, cuts[1:]):
            m += quad(truncated, x0, x1, epsabs=1e-13, epsrel=1e-13)[0]
            mp += quad(lambda tv: tv * truncated(tv), x0, x1,
                       epsabs=1e-13, epsrel=1e-13)[0]
    return mp, m


def quad_trust_value(rules, e: float) -> float:
    mp = 0.0
    m = 0.0
    for rule in rules:
        rule_mp, rule_m = quad_truncated(rule, e)
        mp += rule_mp
        m += rule_m
    return mp / m


# -- sampling law --------------------------------------------------------------


def exact_order_probability(weights, order):
    """Chance that sequential no-replacement draws return order, in order."""
    left, q = sum(weights), 1.0
    for k in order:
        q *= weights[k] / left
        left -= weights[k]
    return q


def exact_subset_probability(weights, subset):
    """Chance that sequential no-replacement draws return exactly subset."""
    return sum(
        exact_order_probability(weights, order)
        for order in itertools.permutations(subset)
    )


# -- graphs ---------------------------------------------------------------------


def scored_link(source, target, tv, network=1):
    """A link with a preset trust value and a placeholder profile."""
    link = FriendLink(
        source,
        target,
        network,
        AttributeProfile({"freq": 1.0}, {"Major": ValueClass.POSITIVE}),
    )
    link.trust_value = tv
    return link


def graph_from_trust_links(triples, bandwidths=None) -> SocialGraph:
    """Graph from (source, target, tv) triples; entities appear as needed."""
    graph = SocialGraph()
    ids = sorted({i for a, b, _ in triples for i in (a, b)})
    for eid in ids:
        bw = bandwidths.get(eid, 1000.0) if bandwidths else 1000.0
        graph.add_entity(eid, bw)
    for a, b, tv in triples:
        graph.add_link(scored_link(a, b, tv))
    return graph


def random_trust_graph(rng: np.random.Generator, max_nodes=10, max_links=30) -> SocialGraph:
    """Random scored multigraph, occasionally with parallel-network links."""
    n = int(rng.integers(2, max_nodes + 1))
    graph = SocialGraph()
    for eid in range(1, n + 1):
        graph.add_entity(eid, float(rng.uniform(1.0, 100.0)))
    n_links = int(rng.integers(1, max_links + 1))
    for _ in range(n_links):
        a = int(rng.integers(1, n + 1))
        b = int(rng.integers(1, n + 1))
        if a == b:
            continue
        network = int(rng.integers(1, 3))
        tv = float(rng.choice([0.0, 1.0, rng.random(), rng.random()]))
        graph.add_link(scored_link(a, b, tv, network=network))
    return graph


def enumerate_best_paths(graph: SocialGraph, source: int, max_hops: int):
    """Exhaustive acyclic-path oracle.

    Returns {target: (value, hops, path)} where value is the best product,
    hops the fewest links among best-product paths and path the
    lexicographically smallest of those.
    """
    merged = {}
    for link in graph.links():
        row = merged.setdefault(link.source, {})
        row[link.target] = max(row.get(link.target, -1.0), link.trust_value)

    best = {}

    def dfs(node, product, path, visited):
        if len(path) - 1 == max_hops:
            return
        for nbr in sorted(merged.get(node, {})):
            if nbr in visited:
                continue
            extended = product * merged[node][nbr]
            entry = (-extended, len(path), tuple(path) + (nbr,))
            if nbr not in best or entry < best[nbr]:
                best[nbr] = entry
            dfs(nbr, extended, path + [nbr], visited | {nbr})

    dfs(source, 1.0, [source], {source})
    return {
        target: (-neg, hops, path) for target, (neg, hops, path) in best.items()
    }


TRUST = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def scored_graphs(draw):
    """A scored graph over gapped ids; some entities may stay isolated."""
    ids = sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=9)))
    graph = SocialGraph()
    for eid in ids:
        graph.add_entity(eid, draw(st.floats(1.0, 100.0)))
    links = draw(
        st.lists(
            st.tuples(
                st.sampled_from(ids), st.sampled_from(ids), st.integers(1, 3), TRUST
            ),
            max_size=30,
        )
    )
    for a, b, network, tv in links:
        if a != b:
            graph.add_link(scored_link(a, b, tv, network=network))
    return graph


# -- CSV reference --------------------------------------------------------------


def reference_cell(value) -> str:
    """A CSV cell as the row-at-a-time writers formatted it."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_trust_scores_csv(graph: SocialGraph, max_hops: int) -> bytes:
    """trust_scores.csv row by row over per-source propagate tables."""
    lines = ["source,target,ts,hops"]
    for source in graph.entity_ids():
        table = propagate(graph, source, max_hops, keep_paths=False)
        for target in table.targets():
            score = table.scores[target]
            lines.append(
                ",".join(
                    reference_cell(cell)
                    for cell in (source, target, score.value, score.hops)
                )
            )
    return ("\n".join(lines) + "\n").encode("utf-8")
