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
    compute_trust_values,
    generate_graph,
    mean_circle_size,
    mean_trust_scores,
)
from oniontrust.graph import circle_sizes
from oniontrust.propagation import propagate, propagate_arrays

from helpers import default_rules, graph_from_trust_links, heap_search
from helpers import scored_graphs as graphs

PROPERTY = settings(max_examples=200)

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
        slow = heap_search(graph, source, max_hops)
        cols = np.flatnonzero(arrays.hops[si] > 0)
        assert [arrays.ids[t] for t in cols] == slow.targets()
        for t in cols:
            score = slow.get(arrays.ids[t])
            assert arrays.best[si, t] == score.value
            assert arrays.hops[si, t] == score.hops
        outside = arrays.hops[si] == 0
        assert not arrays.best[si, outside].any()
        assert not arrays.hops[si, outside].any()
    # no source scores its own cell
    assert not np.diagonal(arrays.best).any()
    assert not np.diagonal(arrays.hops).any()


def test_no_source_scores_itself_and_zero_trust_still_reaches():
    # 1 <-> 2 at full trust is a cycle back to each source; 2 -> 3 -> 4 is
    # reached only through a zero-trust link.
    graph = graph_from_trust_links([(1, 2, 1.0), (2, 1, 1.0), (2, 3, 0.0), (3, 4, 0.5)])
    arrays = propagate_arrays(graph, 3)
    want = {
        1: {2: (1.0, 1), 3: (0.0, 2), 4: (0.0, 3)},
        2: {1: (1.0, 1), 3: (0.0, 1), 4: (0.0, 2)},
        3: {4: (0.5, 1)},
        4: {},
    }
    for row, source in enumerate(arrays.ids):
        table = arrays.table(row)
        assert {t: (s.value, s.hops) for t, s in table.scores.items()} == want[source]
        witnessed = propagate(graph, source, 3)
        assert {t: (s.value, s.hops) for t, s in witnessed.scores.items()} == want[source]
    assert arrays.best.tolist() == [
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.5],
        [0.0, 0.0, 0.0, 0.0],
    ]
    assert arrays.hops.tolist() == [[0, 1, 2, 3], [1, 0, 1, 2], [0, 0, 0, 1], [0, 0, 0, 0]]


@PROPERTY
@given(graphs(), st.integers(1, 4))
def test_circle_sizes_equal_set_bfs(graph, max_hops):
    ids = graph.entity_ids()
    links = graph.links()
    nbrs = {eid: {l.target for l in links if l.source == eid} for eid in ids}
    want = [set_bfs_circle(nbrs, eid, max_hops) for eid in ids]
    got = circle_sizes(graph.link_mask(), np.arange(len(ids)), max_hops)
    assert got.tolist() == want
    assert mean_circle_size(graph, max_hops) == sum(want) / len(want)
    assert propagate_arrays(graph, max_hops).mean_circle_size() == sum(want) / len(want)


def test_mean_circle_size_samples_evenly_spaced_sources_in_large_graphs():
    # 301 and 450 entities: more than CIRCLE_SAMPLE, so the mean is over 300
    # evenly spaced sources, the first and the last included.
    for n in (301, 450):
        graph = generate_graph(GeneratorParams(n=n, kind="er", value=3.0 / n), seed=n)
        compute_trust_values(graph, default_rules())
        ids = graph.entity_ids()
        links = graph.links()
        nbrs = {eid: {l.target for l in links if l.source == eid} for eid in ids}
        rows = [k * (n - 1) // 299 for k in range(300)]
        for max_hops in (2, 3):
            want = [set_bfs_circle(nbrs, ids[r], max_hops) for r in rows]
            assert mean_circle_size(graph, max_hops) == sum(want) / 300
            # the sweep and trust summaries read the same sample off the arrays
            arrays = propagate_arrays(graph, max_hops)
            assert arrays.mean_circle_size() == sum(want) / 300


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
    if data.draw(st.booleans()):  # else self loops stay: a source never reaches itself
        np.fill_diagonal(mask, False)
    nbrs = {i: set(np.flatnonzero(mask[i]).tolist()) for i in range(n)}
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    want = [set_bfs_circle(nbrs, int(i), max_hops) for i in rows]
    assert circle_sizes(mask, rows, max_hops).tolist() == want


@PROPERTY
@given(graphs(), st.integers(1, 4))
def test_array_mean_trust_equals_the_table_loop(graph, max_hops):
    tables = {
        source: heap_search(graph, source, max_hops)
        for source in graph.entity_ids()
    }
    fast = mean_trust_scores(graph, max_hops)
    slow = mean_trust_scores(graph, max_hops, tables=tables)
    assert list(fast) == list(slow)
    for eid in fast:
        assert fast[eid].hex() == slow[eid].hex()
