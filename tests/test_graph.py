"""Graph container, friendship circles and the synthetic generator."""

import re

import numpy as np
import pytest

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

from helpers import graph_from_trust_links, random_trust_graph, scored_link


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
    assert g.networks_from(1) == [1, 2]
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
    circle = g.friendship_circle(1, max_hops=2)
    assert circle.hop(1) == frozenset({2, 3, 4, 5})
    assert len(circle.hop(2)) == 8
    assert circle.size == 12
    assert g.friendship_circle(1, max_hops=1).size == 4


def test_circle_excludes_source_and_tracks_multiple_hops():
    g = graph_from_trust_links([(1, 2, 0.5), (2, 1, 0.5), (1, 3, 0.5), (3, 2, 0.5)])
    circle = g.friendship_circle(1, max_hops=2)
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
                [g.friendship_circle(i, hops).size for i in g.entity_ids()]
            )
            assert mean_circle_size(g, hops) == pytest.approx(exact)


def test_derived_copies():
    g = graph_from_trust_links([(1, 2, 0.5)])
    g.freeze()
    flagged = g.with_flags({1: False, 2: True})
    assert flagged.is_malicious(2) and not g.is_malicious(2)
    assert flagged.frozen
    rebw = g.with_bandwidths({1: 5.0, 2: 6.0})
    assert rebw.bandwidth(1) == 5.0 and g.bandwidth(1) == 1000.0
    # links are shared, entities are not
    assert flagged.link(1, 2, 1) is g.link(1, 2, 1)
    assert flagged == g.with_flags({1: False, 2: True})
    assert flagged != g


def test_generated_graph_is_deterministic():
    params = GeneratorParams(n=40, edge_prob=0.1)
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
    full = generate_graph(GeneratorParams(n=2, edge_prob=1.0), seed=1)
    assert full.friendship_circle(1).size == 1
    assert full.friendship_circle(2).size == 1
    assert len(full.links()) == 2
    empty = generate_graph(GeneratorParams(n=5, edge_prob=0.0), seed=1)
    assert len(empty.links()) == 0


def test_calibrated_generation_hits_target():
    params = GeneratorParams(n=100, target_circle_fraction=0.8)
    g = generate_graph(params, seed=7)
    assert len(g) == 100
    size = mean_circle_size(g, params.max_hops)
    assert abs(size - 80.0) <= 5.0
    # same seed, same graph even through calibration
    assert g == generate_graph(params, seed=7)


def test_calibration_miss_raises():
    # Three entities give mean circle sizes in thirds, never within 0.01 of 1.5.
    params = GeneratorParams(n=3, target_circle_fraction=0.5, calibration_tol=0.01)
    with pytest.raises(GeneratorParamsError) as info:
        generate_graph(params, seed=2)
    assert str(info.value) == (
        "calibration missed mean circle size 1.5 within 0.01: "
        "closest was 1.33333 at p = 0.5"
    )


def test_generator_params_validation():
    with pytest.raises(GeneratorParamsError):
        GeneratorParams(n=0, edge_prob=0.5)
    with pytest.raises(GeneratorParamsError):
        GeneratorParams(n=5)
    with pytest.raises(GeneratorParamsError):
        GeneratorParams(n=5, edge_prob=0.5, target_circle_fraction=0.5)
    with pytest.raises(GeneratorParamsError):
        GeneratorParams(n=5, edge_prob=1.5)
    with pytest.raises(GeneratorParamsError):
        GeneratorParams(n=5, target_circle_fraction=1.0)
    with pytest.raises(GeneratorParamsError):
        GeneratorParams(n=5, edge_prob=0.5, bandwidth_max=0.0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(
            GeneratorParamsError,
            match=r"bandwidth_max must be positive and finite, got %s" % re.escape(repr(bad)),
        ):
            GeneratorParams(n=5, edge_prob=0.5, bandwidth_max=bad)


def test_generate_graph_rejects_negative_seeds():
    with pytest.raises(GeneratorParamsError, match="seed must be >= 0, got -2"):
        generate_graph(GeneratorParams(n=5, edge_prob=0.5), seed=-2)
