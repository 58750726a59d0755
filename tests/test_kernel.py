"""Array reachability and propagation kernel against the slow paths.

Random small multi-network graphs with parallel links, zero-trust links,
gapped ids and isolated entities; every fast result must equal its slow
counterpart exactly, not approximately.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oniontrust import (
    GeneratorParams,
    generate_graph,
    mean_circle_size,
    mean_trust_scores,
    propagate,
)
from oniontrust.graph import circle_sizes
from oniontrust.propagation import propagate_arrays

from helpers import scored_graphs as graphs

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

def set_bfs_circle(nbrs, source, max_hops):
    """Reference circle size: BFS over Python sets, source excluded."""
    reached = set(nbrs[source])
    frontier = reached
    for _ in range(max_hops - 1):
        nxt = set()
        for j in frontier:
            nxt |= nbrs[j]
        frontier = nxt - reached
        reached |= nxt
    reached.discard(source)
    return len(reached)


@PROPERTY
@given(graphs(), st.integers(1, 4))
def test_arrays_equal_the_search(graph, max_hops):
    arrays = propagate_arrays(graph, max_hops)
    assert arrays.ids == graph.entity_ids()
    for si, source in enumerate(arrays.ids):
        slow = propagate(graph, source, max_hops, keep_paths=False)
        cols = np.flatnonzero(arrays.reached[si])
        assert [arrays.ids[t] for t in cols] == slow.targets()
        for t in cols:
            score = slow.get(arrays.ids[t])
            assert arrays.best[si, t] == score.value
            assert arrays.hops[si, t] == score.hops
        outside = ~arrays.reached[si]
        assert not arrays.best[si, outside].any()
        assert not arrays.hops[si, outside].any()


@PROPERTY
@given(graphs(), st.integers(1, 4))
def test_circle_sizes_equal_set_bfs(graph, max_hops):
    ids = graph.entity_ids()
    nbrs = {eid: {l.target for l in graph.links_from(eid)} for eid in ids}
    want = [set_bfs_circle(nbrs, eid, max_hops) for eid in ids]
    got = circle_sizes(graph.link_mask(), np.arange(len(ids)), max_hops)
    assert got.tolist() == want
    assert mean_circle_size(graph, max_hops) == sum(want) / len(want)


def test_mean_circle_size_samples_evenly_spaced_sources_in_large_graphs():
    # 301 and 450 entities: more than CIRCLE_SAMPLE, so the mean is over 300
    # evenly spaced sources, the first and the last included.
    for n in (301, 450):
        graph = generate_graph(GeneratorParams(n=n, edge_prob=3.0 / n), seed=n)
        ids = graph.entity_ids()
        nbrs = {eid: {l.target for l in graph.links_from(eid)} for eid in ids}
        rows = [k * (n - 1) // 299 for k in range(300)]
        want = [set_bfs_circle(nbrs, ids[r], 2) for r in rows]
        assert mean_circle_size(graph, 2) == sum(want) / 300


@PROPERTY
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n)
    ),
    st.integers(1, 4),
    st.data(),
)
def test_reachability_on_raw_masks_equals_set_bfs(cells, max_hops, data):
    n = int(round(len(cells) ** 0.5))
    mask = np.array(cells, dtype=bool).reshape(n, n)
    np.fill_diagonal(mask, False)
    nbrs = {i: set(np.flatnonzero(mask[i]).tolist()) for i in range(n)}
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    want = [set_bfs_circle(nbrs, int(i), max_hops) for i in rows]
    assert circle_sizes(mask, rows, max_hops).tolist() == want


@PROPERTY
@given(graphs(), st.integers(1, 4))
def test_array_mean_trust_equals_the_table_loop(graph, max_hops):
    tables = {
        source: propagate(graph, source, max_hops, keep_paths=False)
        for source in graph.entity_ids()
    }
    fast = mean_trust_scores(graph, max_hops)
    slow = mean_trust_scores(graph, max_hops, tables=tables)
    assert list(fast) == list(slow)
    for eid in fast:
        assert fast[eid].hex() == slow[eid].hex()
