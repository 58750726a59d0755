"""Array reachability and propagation kernel against the slow paths.

Random small multi-network graphs with parallel links, zero-trust links,
gapped ids and isolated entities; every fast result must equal its slow
counterpart exactly, not approximately.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oniontrust.graph
from oniontrust import (
    GeneratorParams,
    compute_trust_values,
    generate_graph,
    mean_circle_size,
    mean_trust_scores,
)
from oniontrust.fileio import read_rules
from oniontrust.graph import (
    _bottleneck_widths,
    _kernel,
    _links_below,
    _mean_circle_size,
    _sample_rows,
)
from oniontrust.propagation import propagate, propagate_arrays, propagate_blocks

from helpers import (
    default_rules,
    graph_from_trust_links,
    heap_search,
    link_mask,
    reference_arrays,
    reference_circle_sizes,
)
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
    got = reference_circle_sizes(link_mask(graph), np.arange(len(ids)), max_hops)
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
    assert reference_circle_sizes(mask, rows, max_hops).tolist() == want


#: Edge weights and thresholds on one coarse grid, so that many a threshold
#: p equals some link's u, where u < p must leave that link out.
U_GRID = [k / 8 for k in range(9)]


@PROPERTY
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.lists(st.sampled_from(U_GRID), min_size=n * n, max_size=n * n)
    ),
    st.integers(1, 4),
    st.sampled_from(U_GRID[1:]),
)
def test_bottleneck_widths_give_the_matmul_circle_sizes(cells, max_hops, h):
    n = int(round(len(cells) ** 0.5))
    # the diagonal is drawn too: a self loop below p must change nothing
    u = np.array(cells).reshape(n, n)
    widths = _bottleneck_widths(n, _links_below(u, h), max_hops)
    for p in [k / 16 for k in range(1, 17) if k / 16 <= h]:
        want = reference_circle_sizes(u < p, np.arange(n), max_hops)
        assert np.count_nonzero(widths > -p, axis=1).tolist() == want.tolist()
        assert _mean_circle_size(widths, p) == int(want.sum()) / n


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


# Layer modes for layers 2..5: all delta, all dense and both alternations.
LAYER_MODES = [(True,) * 4, (False,) * 4, (True, False) * 2, (False, True) * 2]
SIGNED_TRUST = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


def forced_layers(modes):
    """A stand-in for the layer-mode rule that answers modes in turn."""
    layers = iter(modes)
    return lambda work, n, links: next(layers)


@PROPERTY
@given(
    graphs(trust=SIGNED_TRUST),
    st.integers(1, 5),
    st.sampled_from(LAYER_MODES),
    # small chunks split a delta layer, so a prefix read from best instead
    # of the layer's snapshot would pick up an earlier chunk's raise
    st.sampled_from([1, 3, oniontrust.graph.DELTA_CHUNK]),
)
# 1 -> 2 -> 3 raises (1, 3) in layer 2 in the chunk before (1, 3)'s own;
# extending (1, 3) from its raised value would reach 4 at 1.0, a 3-link walk
@example(graph_from_trust_links([(1, 2, 1.0), (1, 3, 0.1), (2, 3, 1.0), (3, 4, 1.0)]),
         2, LAYER_MODES[0], 1)
# 1 -> 2 -> 1 and 1 -> 3 -> 4 -> 1 walk back to source 1 at layers 2 and 3,
# one candidate per chunk; its own cell must stay unreached, -inf and 0 hops
@example(graph_from_trust_links([(1, 2, 1.0), (2, 1, 1.0), (1, 3, 0.5), (3, 4, 1.0), (4, 1, 1.0)]),
         4, LAYER_MODES[0], 1)
def test_every_layer_mode_gives_the_dense_bits(graph, max_hops, modes, chunk):
    best, hops = reference_arrays(graph, max_hops)
    with mock.patch.object(oniontrust.graph, "DELTA_CHUNK", chunk):
        with mock.patch.object(oniontrust.graph, "_delta_layer_wins", forced_layers(modes)):
            arrays = propagate_arrays(graph, max_hops)
        assert arrays.best.view(np.int64).tolist() == best.view(np.int64).tolist()
        assert arrays.hops.tolist() == hops.tolist()
        # each source's row, as propagate runs it, under the same layer modes
        for row, source in enumerate(arrays.ids):
            with mock.patch.object(oniontrust.graph, "_delta_layer_wins", forced_layers(modes)):
                table = propagate(graph, source, max_hops)
            cols = np.flatnonzero(hops[row])
            assert table.targets() == [arrays.ids[t] for t in cols]
            for t in cols.tolist():
                assert table.get(arrays.ids[t]).value == best[row, t]
                assert table.get(arrays.ids[t]).hops == hops[row, t]
        # the same layers in the bottleneck semiring, as calibration runs them
        ids, src, tgt, tv = graph.pair_arrays(trust=True)
        with mock.patch.object(oniontrust.graph, "_delta_layer_wins", forced_layers(modes)):
            for widths, width_hops in _kernel(
                len(ids), src, tgt, tv, np.arange(len(ids)), max_hops, np.minimum
            ):
                pass
        best, hops = reference_arrays(graph, max_hops, np.minimum)
        np.maximum(widths, 0.0, out=widths)
        assert widths.view(np.int64).tolist() == best.view(np.int64).tolist()
        assert width_hops.tolist() == hops.tolist()


@PROPERTY
@given(
    graphs(trust=SIGNED_TRUST),
    st.integers(1, 4),
    st.sampled_from(LAYER_MODES),
    st.integers(1, 4),
    # one target per dense chunk, several, and the default
    st.sampled_from([1, 5, oniontrust.graph.DENSE_CHUNK]),
)
def test_blocks_of_sources_stack_to_the_dense_bits(graph, max_hops, modes, block_rows, chunk):
    best, hops = reference_arrays(graph, max_hops)
    n = len(graph)
    with mock.patch.object(oniontrust.graph, "DENSE_CHUNK", chunk):
        layers = itertools.cycle(modes)
        with mock.patch.object(oniontrust.graph, "_delta_layer_wins", lambda *_: next(layers)):
            blocks = list(propagate_blocks(graph, max_hops, block_rows))
    assert [block.first for block in blocks] == list(range(0, n, block_rows))
    assert all(block.ids == graph.entity_ids() for block in blocks)
    got = np.concatenate([block.best for block in blocks])
    assert got.view(np.int64).tolist() == best.view(np.int64).tolist()
    assert np.concatenate([block.hops for block in blocks]).tolist() == hops.tolist()
    rows = _sample_rows(n)
    assert sum(block.sampled_circles() for block in blocks) == np.count_nonzero(hops[rows])


def test_blocks_keep_the_layer_modes_of_whole_passes(monkeypatch):
    # A full pass, calibration's 300-source pass and a one-source pass at
    # budget 2 choose every layer as the rule did when it weighed n * links,
    # whatever its rows; a block of a full pass weighs its own rows.
    calls = []
    wins = oniontrust.graph._delta_layer_wins

    def logged(work, rows, links):
        calls.append((work, links, wins(work, rows, links)))
        return calls[-1][2]

    def modes(n):
        got = [delta for _, _, delta in calls]
        assert got == [4 * work < n * links for work, links, _ in calls]
        calls.clear()
        return got

    monkeypatch.setattr(oniontrust.graph, "_delta_layer_wins", logged)
    for n in (500, 1000):
        graph = generate_graph(GeneratorParams(n=n, kind="calibrated", value=0.8), seed=11)
        assert modes(n) == [True]
        compute_trust_values(graph, read_rules())
        propagate_arrays(graph, 3)
        assert modes(n) == [True, False]
        propagate(graph, graph.entity_ids()[0], 2)
        assert modes(n) == [True]
    # each block of the streamed pass keeps those modes, where weighing
    # n * links would run its last layer as a delta layer
    blocks = 0
    for _ in propagate_blocks(graph, 3):
        blocks += 1
        assert [delta for _, _, delta in calls] == [True, False]
        calls.clear()
    assert blocks == 9


def test_an_all_sources_pass_holds_its_result_and_one_square_buffer():
    graph = generate_graph(GeneratorParams(n=1000, kind="calibrated", value=0.8), seed=7)
    compute_trust_values(graph, read_rules())
    tracemalloc.start()
    try:
        arrays = propagate_arrays(graph, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(arrays.ids)
    assert arrays.hops.itemsize == 1
    # the result plus one (n, n) float64 buffer; the old dense layers, an
    # int64 hops and the final transposes took 26.2 MiB against 22.9 MiB
    assert peak <= arrays.best.nbytes + arrays.hops.nbytes + n * n * 8
