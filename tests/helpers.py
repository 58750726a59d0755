"""Shared builders and independent oracles for the test suite.

The oracles deliberately re-derive results from first principles (numeric
quadrature, exhaustive path and draw-order enumeration) instead of reusing
package code. The heap search, the dense propagation loop, the matmul
circle sizes and calibration loop, the CSV reference writer, the
whole-array score writer, the per-group scoring loop, the dict-based
candidate and correlation references, the binary-search sampler, the
round-by-round simulation loop with numpy's own round streams, the 1-D
keyed flag draw and the widen-and-concatenate link merge are the
exception: they are the slow paths the current code replaced, kept to pin
its bits. The graph-file parser keeps its own slow path, the per-line
loop, in the package as its error reporter.
"""

import dataclasses
import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np
from hypothesis import strategies as st
from scipy.integrate import quad

from oniontrust import (
    AttributeProfile,
    CorrelationCase,
    FriendLink,
    FuzzyRuleSet,
    Rule,
    SelectionMode,
    SocialGraph,
    TrustScore,
    TrustScoreTable,
    ValueClass,
    link_trust,
)
import oniontrust.graph
from oniontrust.errors import DomainError, EmptyCandidateSetError, GeneratorParamsError
from oniontrust.graph import _sample_rows
from oniontrust.selection import weighted_picks
from oniontrust.simulation import RoundReport, _Prepared, _ROUND_KEY

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


# -- heap-search oracle -----------------------------------------------------------


def _search(
    adjacency: Dict[int, Dict[int, float]],
    source: int,
    max_hops: int,
) -> Dict[int, TrustScore]:
    """Max-product Dijkstra over (node, hops) states.

    Heap keys are (-product, hops, path) so pops come out product-descending,
    then fewest hops, then lexicographically smallest path; the first pop per
    node is its final score. Walks that would re-enter the source are skipped,
    and any walk that first reaches a node is beaten (or tied and out-hopped)
    by its cycle-free reduction, so recorded witnesses are acyclic.

    Witness choice among equally strong paths is deterministic: the search
    extends only the strongest prefix per (node, hops) state, breaking exact
    prefix ties lexicographically. That picks the lexicographically smallest
    optimal path except when a zero-trust link downstream collapses two
    different prefix products into the same final score.
    """
    scores: Dict[int, TrustScore] = {}
    settled = set()
    heap = [(-1.0, 0, (source,))]
    last = 1.0
    while heap:
        neg, hops, seq = heapq.heappop(heap)
        product = -neg
        assert product <= last, "heap popped an increasing product"
        last = product
        node = seq[-1]
        if (node, hops) in settled:
            continue
        settled.add((node, hops))
        if node != source and node not in scores:
            scores[node] = TrustScore(product, hops, seq)
        if hops == max_hops:
            continue
        for nbr, tv in adjacency[node].items():
            if nbr == source or (nbr, hops + 1) in settled:
                continue
            heapq.heappush(heap, (-(product * tv), hops + 1, seq + (nbr,)))
    return scores


def heap_search(graph: SocialGraph, source: int, max_hops: int) -> TrustScoreTable:
    """propagate as the heap search computed it: scores, hops and witnesses.

    The heap keys are a total order, so the neighbour dicts' order cannot
    change a result.
    """
    ids, src, tgt, tv = graph.pair_arrays(trust=True)
    adjacency: Dict[int, Dict[int, float]] = {eid: {} for eid in ids}
    for s, t, value in zip(src.tolist(), tgt.tolist(), tv.tolist()):
        adjacency[ids[s]][ids[t]] = value
    return TrustScoreTable(source, _search(adjacency, source, max_hops))


@dataclass(frozen=True)
class FriendshipCircle:
    """Entities reachable from a source over short acyclic paths.

    members_by_hop[r - 1] holds the entities with an acyclic r-link path
    from the source; the same entity may appear at several hop counts.
    """

    source: int
    members_by_hop: Tuple[frozenset, ...]

    @property
    def members(self) -> frozenset:
        return frozenset().union(*self.members_by_hop)

    @property
    def size(self) -> int:
        return len(self.members)

    def hop(self, r: int) -> frozenset:
        if not 1 <= r <= len(self.members_by_hop):
            raise DomainError("hop must be 1..%d" % len(self.members_by_hop))
        return self.members_by_hop[r - 1]


def friendship_circle(graph: SocialGraph, source: int, max_hops: int = 2) -> FriendshipCircle:
    """Per-hop circle reference: every entity on an acyclic path of <= max_hops links.

    Enumerates simple paths, so cost grows quickly with max_hops.
    """
    nbrs = {eid: set() for eid in graph.entity_ids()}
    for link in graph.links():
        nbrs[link.source].add(link.target)
    by_hop = [set() for _ in range(max_hops)]
    on_path = {source}

    def walk(node, depth):
        for nbr in nbrs[node]:
            if nbr in on_path:
                continue
            by_hop[depth].add(nbr)
            if depth + 1 < max_hops:
                on_path.add(nbr)
                walk(nbr, depth + 1)
                on_path.discard(nbr)

    walk(source, 0)
    return FriendshipCircle(source, tuple(frozenset(s) for s in by_hop))


TRUST = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def scored_graphs(draw, trust=TRUST):
    """A scored graph over gapped ids; some entities may stay isolated.

    Link trust values come from trust; a None leaves a link unscored.
    """
    ids = sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=9)))
    graph = SocialGraph()
    for eid in ids:
        graph.add_entity(eid, draw(st.floats(1.0, 100.0)))
    links = draw(
        st.lists(
            st.tuples(
                st.sampled_from(ids), st.sampled_from(ids), st.integers(1, 3), trust
            ),
            max_size=30,
        )
    )
    for a, b, network, tv in links:
        if a != b:
            graph.add_link(scored_link(a, b, tv, network=network))
    return graph


QUANTITY = st.one_of(st.sampled_from([1.0, 2.5]), st.floats(0.1, 10.0))
ZEROED = st.sampled_from([(), ("freq",), ("time",), ("freq", "time")])


@st.composite
def profiled_graphs(draw):
    """(graph, added): a graph whose links carry drawn freq/time values,
    classes and trust values, and the links in the order they were added.

    Few gapped ids and three networks make parallel links and replaced
    links common; a later link on the same (source, target, network)
    replaces the earlier one. A link may zero some attributes once its
    source already has a link on that network, so groups of one source's
    links on one network often mix zeros with positive values. A group
    holds zeros only when a replacement removed its positive link.
    """
    ids = sorted(draw(st.sets(st.integers(1, 40), min_size=2, max_size=5)))
    graph = SocialGraph()
    for eid in ids:
        graph.add_entity(eid, draw(st.floats(1.0, 100.0)))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(list(itertools.permutations(ids, 2))),
                st.integers(1, 3),
                st.fixed_dictionaries({"freq": QUANTITY, "time": QUANTITY}),
                ZEROED,
                st.sampled_from(list(ValueClass)),
                st.sampled_from(list(ValueClass)),
                TRUST,
            ),
            min_size=3,
            max_size=30,
        )
    )
    added = []
    groups = set()
    for (a, b), network, values, zeroed, major, relationship, tv in rows:
        if (a, network) in groups:
            values.update(dict.fromkeys(zeroed, 0.0))
        groups.add((a, network))
        profile = AttributeProfile(
            values, {"Major": major, "Relationship": relationship}
        )
        link = FriendLink(a, b, network, profile, tv)
        graph.add_link(link)
        added.append(link)
    return graph, added


def copy_graph(graph: SocialGraph, flags=None) -> SocialGraph:
    """A copy with its own link objects (the profiles stay shared).

    flags, {entity: malicious}, replaces the malicious flags when given.
    """
    out = SocialGraph()
    for eid in graph.entity_ids():
        malicious = graph.is_malicious(eid) if flags is None else flags[eid]
        out.add_entity(eid, graph.bandwidth(eid), malicious)
    for link in graph.links():
        out.add_link(dataclasses.replace(link))
    return out


def assert_same_graph_bits(got: SocialGraph, want: SocialGraph):
    """The same entities in the same order, and link columns equal bit for
    bit (NaN and -0.0 included), names and dtypes too."""
    assert list(got._entities.values()) == list(want._entities.values())
    assert_same_column_bits(got.link_columns(), want.link_columns())


def assert_same_column_bits(a, b):
    """LinkColumns equal bit for bit (NaN and -0.0 included), names and
    dtypes too."""
    assert (a.quant_names, a.qual_names) == (b.quant_names, b.qual_names)
    for name in ("source", "target", "network", "quant", "present", "qual", "trust"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


def reference_merged(old, new):
    """old then new as LinkColumns sorted by (source, target, network), a
    later link on a key replacing the earlier one: both batches widened to
    the merged names, concatenated, stably sorted, the last row of each key
    kept. The slow path graph._merged replaced for an empty old."""
    quant_names = tuple(sorted(set(old.quant_names) | set(new.quant_names)))
    qual_names = tuple(sorted(set(old.qual_names) | set(new.qual_names)))
    old, new = old.widen(quant_names, qual_names), new.widen(quant_names, qual_names)
    both = dataclasses.replace(
        old,
        **{
            name: np.concatenate([getattr(old, name), getattr(new, name)])
            for name in oniontrust.graph._LINK_ARRAYS
        },
    )
    order = np.lexsort((both.network, both.target, both.source))
    source, target, network = both.source[order], both.target[order], both.network[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (
        (source[1:] != source[:-1]) | (target[1:] != target[:-1]) | (network[1:] != network[:-1])
    )
    return both.take(order[last])


# -- scoring reference ------------------------------------------------------------


def reference_trust_values(graph: SocialGraph, rules: FuzzyRuleSet, scores=None) -> dict:
    """The per-(source, network) scoring loop the grouped pass replaced.

    It queried the graph once per source for its networks and once per
    (source, network) for the links, in target order; here both queries
    filter graph.links(). Normalizers take only values above zero, so an
    all-zero attribute has none. Returns the scores keyed by (source,
    target, network), filling scores (a dict) when given, so the scores
    made before an error stay readable.
    """
    scores = {} if scores is None else scores
    links = graph.links()
    for source in graph.entity_ids():
        networks = sorted({link.network for link in links if link.source == source})
        for network in networks:
            group = [
                link for link in links
                if link.source == source and link.network == network
            ]
            normalizers = {}
            for link in group:
                for name, value in link.profile.quantitative.items():
                    if value > normalizers.get(name, 0.0):
                        normalizers[name] = value
            for link in group:
                key = (link.source, link.target, link.network)
                scores[key] = link_trust(link, normalizers, rules)
    return scores


def scalar_trust_values(graph: SocialGraph, rules: FuzzyRuleSet, scores=None) -> dict:
    """The one-link-at-a-time pass the column scorer replaced.

    One pass over graph.links() splits each source's links by network,
    targets ascending; each group, networks ascending, takes its maxima
    (zero included) and then scores its links with link_trust. Returns the
    scores keyed by (source, target, network), filling scores (a dict)
    when given, so the scores made before an error stay readable.
    """
    scores = {} if scores is None else scores
    for _, outgoing in itertools.groupby(graph.links(), key=lambda link: link.source):
        by_network = {}
        for link in outgoing:
            by_network.setdefault(link.network, []).append(link)
        for network in sorted(by_network):
            group = by_network[network]
            normalizers = {}
            for link in group:
                for name, value in link.profile.quantitative.items():
                    if value > normalizers.setdefault(name, 0.0):
                        normalizers[name] = value
            for link in group:
                key = (link.source, link.target, link.network)
                scores[key] = link_trust(link, normalizers, rules)
    return scores


# -- CSV reference --------------------------------------------------------------


def reference_cell(value) -> str:
    """A CSV cell as the row-at-a-time writers formatted it."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_cdf_points(values):
    """cdf_points as a walk over sorted(values) took them."""
    ordered = sorted(values)
    total = len(ordered)
    points = []
    for k, value in enumerate(ordered, start=1):
        if k == total or ordered[k] != value:
            points.append((value, k / total))
    return points


def reference_write_trust_scores(path, arrays) -> None:
    """write_trust_scores as it wrote whole TrustArrays: 32 sources per
    write, the hop-cell table sized by hops.max()."""
    from oniontrust import cells

    id_cells = cells.text_cells(list(map(str, arrays.ids)))
    hop_cells = cells.text_cells(list(map(str, range(int(arrays.hops.max(initial=0)) + 1))))

    def blocks():
        for lo in range(0, len(id_cells), 32):
            block = slice(lo, lo + 32)
            hops = arrays.hops[block]
            scored = np.flatnonzero(hops)
            rows, cols = np.unravel_index(scored, hops.shape)
            yield (
                np.take(id_cells, rows + lo, axis=0),
                np.take(id_cells, cols, axis=0),
                cells.float_cells(arrays.best[block].ravel()[scored]),
                np.take(hop_cells, hops.ravel()[scored], axis=0),
            )

    cells.write_csv(path, ("source", "target", "ts", "hops"), blocks())


def reference_circle(arrays) -> float:
    """TrustArrays.mean_circle_size as it read whole arrays."""
    rows = _sample_rows(len(arrays.ids))
    return np.count_nonzero(arrays.hops[rows]) / len(rows)


def reference_trust_scores_csv(graph: SocialGraph, max_hops: int) -> bytes:
    """trust_scores.csv row by row over per-source heap_search tables."""
    lines = ["source,target,ts,hops"]
    for source in graph.entity_ids():
        table = heap_search(graph, source, max_hops)
        for target in table.targets():
            score = table.scores[target]
            lines.append(
                ",".join(
                    reference_cell(cell)
                    for cell in (source, target, score.value, score.hops)
                )
            )
    return ("\n".join(lines) + "\n").encode("utf-8")


# -- dict-based selection references ----------------------------------------------


def reference_candidates(bandwidth: dict, scores, source: int, policy):
    """(ids, weights) as the per-candidate build_candidates formed them.

    bandwidth is {entity: bandwidth} over every entity of the graph.
    """
    if policy.mode is SelectionMode.BANDWIDTH_ONLY:
        kept = [
            (eid, 0.0, bandwidth[eid])
            for eid in sorted(bandwidth)
            if eid != source
        ]
    else:
        kept = [
            (eid, scores.scores[eid].value, bandwidth[eid])
            for eid in scores.targets()
            if scores.scores[eid].value >= policy.ts_threshold
        ]
    if not kept:
        raise EmptyCandidateSetError("no candidates for entity %d" % source)
    if policy.mode is SelectionMode.BANDWIDTH_ONLY:
        return [eid for eid, _, _ in kept], np.array([b for _, _, b in kept])
    top = max(b for _, _, b in kept)
    w = policy.omega
    weights = np.array([(1.0 - w) * ts + w * (b / top) for _, ts, b in kept])
    return [eid for eid, _, _ in kept], weights


def reference_correlation(graph: SocialGraph, case, scores, rng) -> dict:
    """{entity: bandwidth} as the dict-based correlation step set them."""
    ids = graph.entity_ids()
    if case is CorrelationCase.NONE:
        return {eid: graph.bandwidth(eid) for eid in ids}
    insiders = sorted(
        scores.targets(), key=lambda eid: (-scores.scores[eid].value, eid)
    )
    inside = set(insiders)
    outsiders = [eid for eid in ids if eid not in inside]
    values = sorted((graph.bandwidth(eid) for eid in ids), reverse=True)
    k = len(insiders)
    if case is CorrelationCase.BEST:
        inside_block, outside_block = values[:k], values[k:]
    else:
        outside_block, low = values[: len(values) - k], values[len(values) - k:]
        inside_block = low[::-1]
    mapping = dict(zip(insiders, inside_block))
    order = rng.permutation(len(outsiders))
    for pos, eid in enumerate(outsiders):
        mapping[eid] = outside_block[int(order[pos])]
    return mapping


# -- binary-search sampler reference ---------------------------------------------


def reference_picks(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """weighted_picks as it searched cum by binary search, for valid inputs.

    Same walk over earlier picks and same corner walk; the pick is
    searchsorted(cum, value, side="right"), the index the indexed search
    must return for every value.
    """
    rows, length = u.shape
    n = len(weights)
    total = weights.sum()
    cum = np.cumsum(weights)
    picks = np.empty((rows, length), dtype=np.intp)
    starts = np.concatenate(([0.0], cum[:-1])) if length > 1 else None
    left = total
    for k in range(length):
        value = u[:, k] * left
        for earlier in np.sort(picks[:, :k], axis=1).T:
            value = value + (starts[earlier] <= value) * weights[earlier]
        pick = np.searchsorted(cum, value, side="right")
        for row in np.flatnonzero(pick == n):
            i = n - 1
            while weights[i] == 0.0 or i in picks[row, :k]:
                i -= 1
            pick[row] = i
        picks[:, k] = pick
        if k + 1 < length:
            left = np.maximum(left - weights[pick], 0.0)
    return picks


# -- round-by-round reference ---------------------------------------------------


def reference_round_streams(seed: int, index: int):
    """(flag, draw) generators of round index: the two children that
    SeedSequence(seed, spawn_key=(_ROUND_KEY, index)).spawn(2) would make,
    built directly by numpy, one round at a time."""
    return tuple(
        np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(_ROUND_KEY, index, child))
        )
        for child in (0, 1)
    )


def reference_weighted_draw(weights: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """m distinct rows drawn one by one with probability proportional to
    weights >= 0, the zero-weight rows uniformly once the others run out:
    the top m keys of u = 1 - rng.random(n) in (0, 1] (Efraimidis and
    Spirakis), u ** (1 / w) for a positive weight, u - 1 <= 0 for a zero.
    One round, one 1-D draw."""
    u = 1.0 - rng.random(len(weights))
    keys = u - 1.0
    positive = weights > 0.0
    keys[positive] = u[positive] ** (1.0 / weights[positive])
    return np.argpartition(-keys, m - 1)[:m]


def reference_rounds(graph: SocialGraph, scenario, circuits: bool, mean_trust=None, arrays=None):
    """(reports, circle size, trustworthy size) as the per-round loop made them.

    One scenario, one round at a time: the round's flag mask from its own
    flag stream, then `draws` rows of picks from its draw stream, both
    built by numpy's SeedSequence.
    """
    prep = _Prepared(graph, scenario, mean_trust, arrays)
    plan = prep.flags
    length = scenario.circuit_length if circuits else 1
    reports = []
    for r in range(scenario.rounds):
        flag_rng, draw_rng = reference_round_streams(scenario.seed, r)
        flag_mask = np.zeros(len(prep.ids), dtype=bool)
        if plan.weights is None:
            flag_mask[plan.fixed] = True
        else:
            flag_mask[reference_weighted_draw(plan.weights, plan.m, flag_rng)] = True
        u = draw_rng.random((scenario.draws, length))
        picked = prep.cand_idx[weighted_picks(prep.weights, u)]
        hit = flag_mask[picked]
        reports.append(
            RoundReport(
                index=r,
                r_mr=float(hit.mean()),
                r_mc=float(hit.any(axis=1).mean()) if circuits else None,
                avg_bandwidth=float(prep.bw[picked].min(axis=1).mean()),
                draws=scenario.draws,
            )
        )
    return reports, prep.circle_size, prep.trustworthy_size


# -- dense propagation reference ------------------------------------------------


def reference_arrays(
    graph: SocialGraph, max_hops: int, combine=np.multiply
) -> Tuple[np.ndarray, np.ndarray]:
    """(best, hops) of propagate_arrays, every layer a dense layer.

    Every layer r takes, for each target j, the fmax over its in-neighbours
    k of combine(best[k, i], t[k, j]) on [target, source] arrays; hops is
    set to r where that strictly beats best. The result is transposed to
    [source, target] at the end, unreached cells read 0.0 and hops is int64.
    """
    ids, src, tgt, tv = graph.pair_arrays(trust=True)
    n = len(ids)
    best = np.full((n, n), -np.inf)
    best[tgt, src] = tv
    hops = (best >= 0).astype(np.int64)
    order = np.argsort(tgt, kind="stable")
    in_src, in_tv = src[order], tv[order]
    bounds = np.searchsorted(tgt[order], np.arange(n + 1)).tolist()
    extended = np.full_like(best, -np.inf)
    for r in range(2, max_hops + 1):
        with np.errstate(invalid="ignore"):  # -inf * 0.0 is NaN, skipped by fmax
            for j in range(n):
                lo, hi = bounds[j], bounds[j + 1]
                if lo < hi:
                    prefix = combine(best[in_src[lo:hi]], in_tv[lo:hi, None])
                    np.fmax.reduce(prefix, axis=0, out=extended[j])
        np.fill_diagonal(extended, -np.inf)  # walks back to the source
        hops[extended > best] = r
        np.fmax(best, extended, out=best)
    np.maximum(best, 0.0, out=best)
    return best.T.copy(), hops.T.copy()


# -- matmul reachability reference ----------------------------------------------


def link_mask(graph: SocialGraph) -> np.ndarray:
    """Boolean (n, n) adjacency over the entity_ids() rows."""
    ids, src, tgt, _ = graph.pair_arrays()
    mask = np.zeros((len(ids), len(ids)), dtype=bool)
    mask[src, tgt] = True
    return mask


def reference_circle_sizes(mask: np.ndarray, rows: np.ndarray, max_hops: int) -> np.ndarray:
    """||F_i|| of each source row: entities within max_hops links, itself excluded.

    Within a hop budget, reachability over walks equals reachability over
    acyclic paths, so each step widens the reach by one link: a float32
    matmul of the reach with the adjacency, whose entries count
    predecessors exactly and whose sign alone is read. The source is
    dropped from its own reach at the end, whatever the mask's diagonal.
    """
    link = mask.astype(np.float32)
    reach = mask[rows]
    for _ in range(max_hops - 1):
        reach |= (reach.astype(np.float32) @ link) > 0.0
    reach[np.arange(len(rows)), rows] = False
    return reach.sum(axis=1)


def reference_calibration(u: np.ndarray, params) -> float:
    """The calibrated edge probability as the bisection found it, one
    matmul circle size of the thresholded u per step, under the package's
    CALIBRATION_TOL as it is when called."""
    tol = oniontrust.graph.CALIBRATION_TOL
    rows = _sample_rows(params.n)
    target = params.value * params.n
    lo, hi = 0.0, 1.0
    best_p, best_size = 1.0, float("inf")
    for _ in range(60):
        mid = (lo + hi) / 2.0
        size = int(reference_circle_sizes(u < mid, rows, params.max_hops).sum()) / len(rows)
        if abs(size - target) <= tol:
            return mid
        if abs(size - target) < abs(best_size - target):
            best_p, best_size = mid, size
        if size < target:
            lo = mid
        else:
            hi = mid
    raise GeneratorParamsError(
        "calibration missed mean circle size %g within %g: closest was %g at p = %r"
        % (target, tol, best_size, best_p)
    )
