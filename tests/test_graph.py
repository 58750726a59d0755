"""Graph container, friendship circles and the synthetic generator."""

import re

import numpy as np
import pytest
from hypothesis import given, settings

from oniontrust import (
    AttributeProfile,
    FriendLink,
    GeneratorParams,
    SocialGraph,
    ValueClass,
    generate_graph,
    mean_circle_size,
)
from oniontrust.errors import (
    DomainError,
    FrozenGraphError,
    GeneratorParamsError,
    NoLinkError,
    SelfLinkError,
    UnknownEntityError,
)
import oniontrust.graph

from helpers import (
    friendship_circle,
    graph_from_trust_links,
    profiled_graphs,
    random_trust_graph,
    scored_link,
)


def test_entities_and_links_basics():
    g = SocialGraph()
    g.add_entity(1, 100.0)
    g.add_entity(2, 200.0)
    g.add_link(scored_link(1, 2, 0.5))
    assert len(g) == 2
    assert g.entity_ids() == [1, 2]
    assert g.bandwidth(2) == 200.0
    assert not g.is_malicious(1)
    assert g.link(1, 2, 1).trust_value == 0.5
    with pytest.raises(NoLinkError):
        g.link(2, 1, 1)
    with pytest.raises(UnknownEntityError):
        g.bandwidth(9)
    with pytest.raises(UnknownEntityError):
        g.add_link(scored_link(1, 9, 0.5))
    with pytest.raises(SelfLinkError):
        g.add_link(scored_link(1, 1, 0.5))
    with pytest.raises(DomainError):
        g.add_entity(3, 0.0)


@pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), float("-inf")])
def test_add_entity_rejects_non_finite_bandwidth(bandwidth):
    g = SocialGraph()
    with pytest.raises(DomainError, match="positive and finite"):
        g.add_entity(1, bandwidth)
    assert len(g) == 0


@pytest.mark.parametrize("trust", [1.5, -0.5, float("inf")])
def test_links_reject_trust_outside_the_unit_interval(trust):
    message = "link 1->2 network 1: trust value must be in [0, 1], got %r" % trust
    g = graph_from_trust_links([(1, 2, 0.5)])
    with pytest.raises(DomainError, match=re.escape(message)):
        g.add_link(scored_link(1, 2, trust))
    rows = oniontrust.graph.LinkRows()
    rows.append(2, 1, 1, {}, {}, 0.5)
    rows.append(1, 2, 1, {}, {}, trust)
    with pytest.raises(DomainError, match=re.escape(message)):
        g.add_links(rows.columns())
    assert g.link(1, 2, 1).trust_value == 0.5 and g.link_count() == 1
    # NaN and None still mean unscored; the ends of the interval are scores
    for unscored in (float("nan"), None):
        g.add_link(scored_link(1, 2, unscored))
        assert g.link(1, 2, 1).trust_value is None
    rows = oniontrust.graph.LinkRows()
    rows.append(1, 2, 1, {}, {}, 0.0)
    rows.append(2, 1, 1, {}, {}, 1.0)
    g.add_links(rows.columns())
    assert g.merge_trust(1, 2) == 0.0 and g.merge_trust(2, 1) == 1.0


def test_link_replacement_and_networks():
    g = SocialGraph()
    g.add_entity(1, 1.0)
    g.add_entity(2, 1.0)
    g.add_link(scored_link(1, 2, 0.2, network=1))
    g.add_link(scored_link(1, 2, 0.9, network=2))
    g.add_link(scored_link(1, 2, 0.4, network=1))  # replaces the 0.2 link
    assert len(g.links()) == 2
    assert g.link(1, 2, 1).trust_value == 0.4
    assert g.networks() == frozenset({1, 2})
    assert g.merge_trust(1, 2) == 0.9


def test_merge_trust_requires_scores():
    g = SocialGraph()
    g.add_entity(1, 1.0)
    g.add_entity(2, 1.0)
    g.add_link(FriendLink(1, 2, 1, AttributeProfile()))
    with pytest.raises(DomainError):
        g.merge_trust(1, 2)
    with pytest.raises(NoLinkError):
        g.merge_trust(2, 1)


def test_freeze_blocks_structure():
    g = SocialGraph()
    g.add_entity(1, 1.0)
    g.freeze()
    assert g.frozen
    with pytest.raises(FrozenGraphError):
        g.add_entity(2, 1.0)
    with pytest.raises(FrozenGraphError):
        g.add_link(scored_link(1, 2, 0.5))


def test_friendship_circle_star():
    # 4 direct friends, each contributing 2 second-hop friends
    triples = [(1, k, 0.5) for k in (2, 3, 4, 5)]
    second = iter(range(6, 14))
    for k in (2, 3, 4, 5):
        triples += [(k, next(second), 0.5), (k, next(second), 0.5)]
    g = graph_from_trust_links(triples)
    circle = friendship_circle(g, 1, max_hops=2)
    assert circle.hop(1) == frozenset({2, 3, 4, 5})
    assert len(circle.hop(2)) == 8
    assert circle.size == 12
    assert friendship_circle(g, 1, max_hops=1).size == 4


def test_circle_excludes_source_and_tracks_multiple_hops():
    g = graph_from_trust_links([(1, 2, 0.5), (2, 1, 0.5), (1, 3, 0.5), (3, 2, 0.5)])
    circle = friendship_circle(g, 1, max_hops=2)
    # 2 is reachable directly and through 3; 1 never joins its own circle
    assert circle.hop(1) == frozenset({2, 3})
    assert circle.hop(2) == frozenset({2})
    assert circle.members == frozenset({2, 3})
    with pytest.raises(DomainError):
        circle.hop(3)


def test_mean_circle_size_matches_circles():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = random_trust_graph(rng)
        for hops in (1, 2, 3):
            exact = np.mean(
                [friendship_circle(g, i, hops).size for i in g.entity_ids()]
            )
            assert mean_circle_size(g, hops) == pytest.approx(exact)


@settings(max_examples=150)
@given(profiled_graphs())
def test_pair_store_equals_a_plain_list_of_links(drawn):
    graph, added = drawn
    latest = {}
    for link in added:  # a later link on the same key replaces the earlier one
        latest[(link.source, link.target, link.network)] = link
    keys = sorted(latest)
    links = graph.links()
    assert [(l.source, l.target, l.network) for l in links] == keys
    # records are built from the columns: equal to what was added, not it
    assert links == [latest[key] for key in keys]
    assert graph.link_count() == len(links)
    ids = graph.entity_ids()
    for key in ((s, t, n) for s in ids for t in ids for n in (1, 2, 3)):
        if key in latest:
            assert graph.link(*key) == latest[key]
        else:
            with pytest.raises(NoLinkError):
                graph.link(*key)
    assert graph.networks() == frozenset(key[2] for key in keys)

    merged = {}
    for (s, t, _), link in latest.items():
        merged[(s, t)] = max(merged.get((s, t), -1.0), link.trust_value)
    for s in ids:
        for t in ids:
            if (s, t) in merged:
                assert graph.merge_trust(s, t) == merged[(s, t)]
            else:
                with pytest.raises(NoLinkError):
                    graph.merge_trust(s, t)
    rows, src, tgt, tv = graph.pair_arrays(trust=True)
    assert rows == ids
    got = sorted(zip((ids[i] for i in src), (ids[i] for i in tgt), tv.tolist()))
    assert got == sorted((s, t, value) for (s, t), value in merged.items())


def test_generated_graph_is_deterministic():
    params = GeneratorParams(n=40, kind="er", value=0.1)
    a = generate_graph(params, seed=5)
    b = generate_graph(params, seed=5)
    assert a == b
    assert a != generate_graph(params, seed=6)
    # attributes follow the declared schema
    link = a.links()[0]
    assert set(link.profile.quantitative) == {"freq", "time"}
    assert set(link.profile.qualitative) == {"Major", "Relationship"}
    for i in a.entity_ids():
        assert 0.0 < a.bandwidth(i) <= params.bandwidth_max


def test_generated_graph_full_and_empty():
    full = generate_graph(GeneratorParams(n=2, kind="er", value=1.0), seed=1)
    assert friendship_circle(full, 1).size == 1
    assert friendship_circle(full, 2).size == 1
    assert len(full.links()) == 2
    empty = generate_graph(GeneratorParams(n=5, kind="er", value=0.0), seed=1)
    assert len(empty.links()) == 0


def test_calibrated_generation_hits_target():
    params = GeneratorParams(n=100, kind="calibrated", value=0.8)
    g = generate_graph(params, seed=7)
    assert len(g) == 100
    size = mean_circle_size(g, params.max_hops)
    assert abs(size - 80.0) <= 5.0
    # same seed, same graph even through calibration
    assert g == generate_graph(params, seed=7)


def test_calibration_miss_raises(monkeypatch):
    # Three entities give mean circle sizes in thirds, never within 0.01 of 1.5.
    monkeypatch.setattr(oniontrust.graph, "CALIBRATION_TOL", 0.01)
    params = GeneratorParams(n=3, kind="calibrated", value=0.5)
    with pytest.raises(GeneratorParamsError) as info:
        generate_graph(params, seed=2)
    assert str(info.value) == (
        "calibration missed mean circle size 1.5 within 0.01: "
        "closest was 1.33333 at p = 0.5"
    )


def test_generator_params_validation():
    with pytest.raises(GeneratorParamsError, match="n must be >= 1, got 0"):
        GeneratorParams(n=0, kind="er", value=0.5)
    # each kind checks its own value range, and the message names the kind
    for kind, bad, message in (
        ("er", 1.5, "er edge probability must be in [0, 1], got 1.5"),
        ("er", -0.1, "er edge probability must be in [0, 1], got -0.1"),
        ("er", float("nan"), "er edge probability must be in [0, 1], got nan"),
        ("calibrated", 1.0, "calibrated circle fraction must be in (0, 1), got 1.0"),
        ("calibrated", 0.0, "calibrated circle fraction must be in (0, 1), got 0.0"),
    ):
        with pytest.raises(GeneratorParamsError, match=re.escape(message)):
            GeneratorParams(n=5, kind=kind, value=bad)
    with pytest.raises(GeneratorParamsError):
        GeneratorParams(n=5, kind="er", value=0.5, bandwidth_max=0.0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(
            GeneratorParamsError,
            match=r"bandwidth_max must be positive and finite, got %s" % re.escape(repr(bad)),
        ):
            GeneratorParams(n=5, kind="er", value=0.5, bandwidth_max=bad)
    # counts must be integers, numpy's included; a float fails by name here,
    # not later inside the generator
    for args, kwargs, message in (
        ((50, "calibrated", 0.5), {"max_hops": 2.5}, "max_hops must be an integer, got 2.5"),
        ((50.5, "er", 0.1), {}, "n must be an integer, got 50.5"),
        ((30.0, "er", 0.1), {}, "n must be an integer, got 30.0"),
    ):
        with pytest.raises(GeneratorParamsError, match=re.escape(message)):
            GeneratorParams(*args, **kwargs)
    params = GeneratorParams(np.int64(5), "er", 0.5, max_hops=np.int32(3))
    assert (params.n, params.max_hops) == (5, 3)


def test_generator_specs_map_to_one_kind_of_params():
    # a generator spec is a (kind, value) pair; GeneratorParams holds it as
    # given, the closed ends of er's range included
    for kind, value in (("er", 0.0), ("er", 1.0), ("er", 0.3), ("calibrated", 0.8)):
        params = GeneratorParams(n=40, kind=kind, value=value, bandwidth_max=5.0, max_hops=3)
        assert (params.n, params.kind, params.value) == (40, kind, value)
        assert (params.bandwidth_max, params.max_hops) == (5.0, 3)
    with pytest.raises(GeneratorParamsError, match="unknown generator kind 'ba'"):
        GeneratorParams(n=40, kind="ba", value=0.3, bandwidth_max=5.0, max_hops=2)


def test_generate_graph_rejects_negative_seeds():
    with pytest.raises(GeneratorParamsError, match="seed must be >= 0, got -2"):
        generate_graph(GeneratorParams(n=5, kind="er", value=0.5), seed=-2)
    with pytest.raises(GeneratorParamsError, match=re.escape("seed must be an integer, got 1.5")):
        generate_graph(GeneratorParams(n=5, kind="er", value=0.5), seed=1.5)
    params = GeneratorParams(n=5, kind="er", value=0.5)
    assert generate_graph(params, seed=np.int64(3)) == generate_graph(params, seed=3)
