"""Max-product trust propagation against the exhaustive path and heap-search oracles."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings

from oniontrust import mean_circle_size, propagate, propagate_all, propagation, trust_distance
from oniontrust.errors import (
    CyclicPathError,
    DisconnectedPathError,
    DomainError,
    UnknownEntityError,
)

from helpers import (
    enumerate_best_paths,
    graph_from_trust_links,
    heap_search,
    random_trust_graph,
    scored_graphs,
    scored_link,
)


def test_trust_distance_products():
    links = [scored_link(1, 2, 0.9), scored_link(2, 3, 0.9), scored_link(3, 4, 0.8)]
    assert trust_distance(links) == pytest.approx(0.648)
    assert trust_distance([]) == 1.0
    assert trust_distance(links[:1]) == 0.9


def test_trust_distance_rejects_bad_paths():
    with pytest.raises(DisconnectedPathError):
        trust_distance([scored_link(1, 2, 0.9), scored_link(3, 4, 0.9)])
    with pytest.raises(CyclicPathError):
        trust_distance(
            [scored_link(1, 2, 0.9), scored_link(2, 3, 0.9), scored_link(3, 1, 0.9)]
        )
    with pytest.raises(CyclicPathError):
        trust_distance([scored_link(1, 2, 0.9), scored_link(2, 1, 0.9)])
    from oniontrust import AttributeProfile, FriendLink

    with pytest.raises(DomainError):
        trust_distance([FriendLink(1, 2, 1, AttributeProfile())])


def test_chain_with_detour_prefers_stronger_product():
    # direct hop is weaker than the three-hop detour
    g = graph_from_trust_links(
        [
            (1, 2, 0.9),
            (2, 3, 0.9),
            (3, 4, 0.8),
            (1, 4, 0.5),
        ]
    )
    table = propagate(g, 1, max_hops=3)
    score = table.get(4)
    assert score.value == pytest.approx(0.648)
    assert score.path == (1, 2, 3, 4)
    assert score.hops == 3
    # with only two hops allowed, the direct link wins
    assert propagate(g, 1, max_hops=2).value(4) == 0.5


def test_matches_exhaustive_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(60):
        g = random_trust_graph(rng)
        # With a zero-trust link two different prefixes can collapse to the
        # same final score, and the witness is then deterministic but not
        # necessarily the lexicographically smallest optimal path. Only
        # require lexicographic agreement when that cannot happen.
        has_zero = any(
            g.merge_trust(l.source, l.target) == 0.0 for l in g.links()
        )
        for max_hops in (1, 2, 3):
            for source in g.entity_ids():
                table = propagate(g, source, max_hops=max_hops)
                want = enumerate_best_paths(g, source, max_hops)
                assert set(table.targets()) == set(want)
                for target, (value, hops, path) in want.items():
                    got = table.get(target)
                    assert got.value == value
                    assert got.hops == hops
                    assert_valid_witness(g, source, target, got)
                    if not has_zero:
                        assert got.path == path


def assert_valid_witness(g, source, target, score):
    path = score.path
    assert path[0] == source and path[-1] == target
    assert len(path) - 1 == score.hops
    assert len(set(path)) == len(path)
    product = 1.0
    for a, b in zip(path, path[1:]):
        product *= g.merge_trust(a, b)
    assert product == score.value


def test_zero_trust_targets_are_still_reached():
    g = graph_from_trust_links([(1, 2, 0.0), (2, 3, 0.5)])
    table = propagate(g, 1, max_hops=2)
    assert table.get(2).value == 0.0
    assert table.get(3).value == 0.0
    assert table.value(9) == 0.0  # unreached defaults to zero
    assert table.get(9) is None


def test_a_negative_zero_link_scores_positive_zero_as_the_arrays_do():
    g = graph_from_trust_links([(1, 2, -0.0), (2, 3, 0.5)])
    arrays = propagation.propagate_arrays(g, 2)
    table = propagate(g, 1, max_hops=2)
    for t in (2, 3):
        row = arrays.ids.index(t)
        assert math.copysign(1, table.get(t).value) == math.copysign(1, arrays.best[0, row]) == 1.0


def test_scores_never_drop_with_more_hops():
    rng = np.random.default_rng(77)
    for _ in range(30):
        g = random_trust_graph(rng)
        source = g.entity_ids()[0]
        previous = {}
        for max_hops in (1, 2, 3, 4):
            table = propagate(g, source, max_hops=max_hops)
            for target, score in previous.items():
                assert table.value(target) >= score
            previous = {t: table.value(t) for t in table.targets()}


def test_propagate_all_matches_per_source():
    rng = np.random.default_rng(31)
    for _ in range(25):
        g = random_trust_graph(rng)
        for max_hops in (1, 2, 3):
            tables = propagate_all(g, max_hops=max_hops)
            assert set(tables) == set(g.entity_ids())
            for source, table in tables.items():
                slow = heap_search(g, source, max_hops)
                assert set(table.targets()) == set(slow.targets())
                for target in slow.targets():
                    fast = table.get(target)
                    assert fast.value == slow.get(target).value
                    assert fast.hops == slow.get(target).hops


@settings(max_examples=200)
@given(scored_graphs())
# an exact tie between two witnesses, (1, 2, 4) and (1, 3, 4)
@example(graph_from_trust_links([(1, 2, 0.5), (1, 3, 0.5), (2, 4, 0.5), (3, 4, 0.5)]))
# a zero-trust link behind state (4, 2): 5's witness extends its stronger
# prefix (1, 3, 4), not the lexicographically smaller (1, 2, 4)
@example(
    graph_from_trust_links([(1, 2, 0.5), (1, 3, 0.9), (2, 4, 0.5), (3, 4, 0.5), (4, 5, 0.0)])
)
def test_propagate_equals_the_heap_search(graph):
    # zero-trust and parallel links included: value, hops and witness path
    for max_hops, source in itertools.product(range(1, 6), graph.entity_ids()):
        got = propagate(graph, source, max_hops).scores
        want = heap_search(graph, source, max_hops).scores
        assert got == want


def test_propagation_is_deterministic_under_ties():
    # two equally strong paths: the lexicographically smaller witness wins
    g = graph_from_trust_links(
        [(1, 2, 0.5), (1, 3, 0.5), (2, 4, 0.5), (3, 4, 0.5)]
    )
    for _ in range(5):
        score = propagate(g, 1, max_hops=2).get(4)
        assert score.value == 0.25
        assert score.path == (1, 2, 4)


def test_propagate_rejects_bad_inputs():
    g = graph_from_trust_links([(1, 2, 0.5)])
    with pytest.raises(UnknownEntityError):
        propagate(g, 42)
    with pytest.raises(DomainError):
        propagate(g, 1, max_hops=0)
    with pytest.raises(DomainError):
        propagate_all(g, max_hops=0)
    # one max_hops check: below 1 or not an integer fails naming the value
    for call, bad in [
        (lambda h: mean_circle_size(g, h), 0),
        (lambda h: mean_circle_size(g, h), -2),
        (lambda h: propagate(g, 1, h), 2.5),
        (lambda h: propagate_all(g, h), 2.5),
        (lambda h: propagate_all(g, h), True),
    ]:
        message = "max_hops must be an integer >= 1, got %r" % bad
        with pytest.raises(DomainError, match=re.escape(message)):
            call(bad)


def test_an_unknown_row_id_is_named_as_given():
    table = propagation.TrustScoreTable(1, {2.5: propagation.TrustScore(0.5, 1)})
    with pytest.raises(UnknownEntityError, match=r"^unknown entity 2\.5$"):
        table.row([1, 2, 3])


def test_propagate_makes_one_kernel_pass(monkeypatch):
    calls = []

    kernel = propagation._kernel

    def counted(n, src, tgt, tv, rows, max_hops, combine):
        calls.append(max_hops)
        return kernel(n, src, tgt, tv, rows, max_hops, combine)

    monkeypatch.setattr(propagation, "_kernel", counted)
    g = graph_from_trust_links([(1, 2, 0.9), (2, 3, 0.8), (3, 4, 0.7), (4, 5, 0.6)])
    assert propagate(g, 1, 4).get(5).path == (1, 2, 3, 4, 5)
    assert calls == [4]


def test_a_hop_budget_past_uint8_is_exact_and_a_path_ends_the_pass_early(monkeypatch):
    layers = []
    kernel = propagation._kernel

    def counted(*args):
        for state in kernel(*args):
            layers.append(len(layers) + 1)
            yield state

    monkeypatch.setattr(propagation, "_kernel", counted)
    for n in (6, 300):
        layers.clear()
        g = graph_from_trust_links([(i, i + 1, 0.5) for i in range(1, n)])
        arrays = propagation.propagate_arrays(g, 300)
        # a layer past the path's end has no candidates, so the pass stops
        assert layers == list(range(1, n))
        # entity i + 1 reaches j + 1 > i + 1 in j - i links, past 255 for n = 300
        hops = np.triu(np.arange(n)[None, :] - np.arange(n)[:, None])
        assert arrays.hops.tolist() == hops.tolist()
        assert arrays.best.tolist() == np.where(hops > 0, 0.5**hops, 0.0).tolist()
        far = propagate(g, 1, 300).get(n)
        assert (far.hops, far.path) == (n - 1, tuple(range(1, n + 1)))
