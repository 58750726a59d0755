"""Graph container, friendship circles and the synthetic generator."""

import dataclasses
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oniontrust import (
    AttributeProfile,
    FriendLink,
    GeneratorParams,
    SocialGraph,
    ValueClass,
    compute_trust_values,
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
    assert_same_column_bits,
    default_rules,
    friendship_circle,
    graph_from_trust_links,
    profiled_graphs,
    random_trust_graph,
    reference_calibration,
    reference_generate_graph,
    reference_merged,
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


BAD_IDS = [
    (1.5, "must be an integer, got 1.5"),
    ("3", "must be an integer, got '3'"),
    (True, "must be an integer, got True"),
    (2**63, "%d is outside int64" % 2**63),
    (-(2**63) - 1, "%d is outside int64" % (-(2**63) - 1)),
]


@pytest.mark.parametrize("bad, message", BAD_IDS)
def test_entity_ids_are_integers_within_int64(bad, message):
    g = SocialGraph()
    with pytest.raises(DomainError, match=re.escape("entity id " + message)):
        g.add_entity(bad, 1.0)
    assert len(g) == 0
    # the int64 ends themselves are ids
    g.add_entity(2**63 - 1, 1.0)
    g.add_entity(-(2**63), 1.0)
    g.add_link(scored_link(2**63 - 1, -(2**63), 0.5))
    ids, src, tgt, _ = g.pair_arrays()
    assert ids == [-(2**63), 2**63 - 1]
    assert (src.tolist(), tgt.tolist()) == ([1], [0])


@pytest.mark.parametrize("bad, message", BAD_IDS)
def test_network_ids_are_integers_within_int64(bad, message):
    g = graph_from_trust_links([(1, 2, 0.5)])
    with pytest.raises(DomainError, match=re.escape("network id " + message)):
        g.add_link(scored_link(2, 1, 0.5, network=bad))
    assert g.link_count() == 1 and g.networks() == frozenset({1})


def test_unknown_entity_messages_name_the_id_as_given():
    g = graph_from_trust_links([(1, 2, 0.5)])
    for call in (lambda: g.bandwidth(1.5), lambda: g.add_link(scored_link(1, 2.5, 0.5))):
        with pytest.raises(UnknownEntityError, match=r"^unknown entity [12]\.5$"):
            call()
    with pytest.raises(SelfLinkError, match=r"^entity 1\.5 cannot link to itself$"):
        g.add_link(scored_link(1.5, 1.5, 0.5))


def test_a_graph_equals_no_other_type():
    # __eq__ hands other types back to Python, which compares identities
    assert (SocialGraph() == 1) is False
    assert (SocialGraph() != "x") is True


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


def _link_batch(rng, size, quant=("freq", "time"), qual=("Major", "Relationship"), ids=12):
    """size links in random order between ids 1..ids on networks 1-3, each
    with a random share of the attributes and a trust value or none; with
    these sizes some (source, target, network) keys repeat."""
    rows = oniontrust.graph.LinkRows()
    for _ in range(size):
        source, target = (rng.choice(ids, size=2, replace=False) + 1).tolist()
        rows.append(
            source,
            target,
            int(rng.integers(1, 4)),
            {name: float(rng.lognormal()) for name in quant if rng.random() < 0.7},
            {name: list(ValueClass)[rng.integers(3)] for name in qual if rng.random() < 0.7},
            None if rng.random() < 0.4 else float(rng.random()),
        )
    return rows.columns()


def _entities(count=12) -> SocialGraph:
    g = SocialGraph()
    for eid in range(1, count + 1):
        g.add_entity(eid, float(eid))
    return g


def test_add_links_into_an_empty_graph_matches_the_widening_merge():
    rng = np.random.default_rng(3)
    batch = _link_batch(rng, 300)
    keys = list(zip(batch.source.tolist(), batch.target.tolist(), batch.network.tolist()))
    assert keys != sorted(keys) and len(set(keys)) < len(keys)
    g = _entities()
    g.add_links(batch)
    assert_same_column_bits(g.link_columns(), reference_merged(oniontrust.graph.LinkRows().columns(), batch))
    assert g.link_count() == len(set(keys))


def test_add_links_keeps_the_last_row_of_a_key_repeated_in_one_batch():
    rows = oniontrust.graph.LinkRows()
    rows.append(2, 1, 1, {"freq": 1.0}, {}, 0.25)
    rows.append(1, 2, 1, {"freq": 2.0}, {}, 0.5)
    rows.append(2, 1, 1, {"time": 3.0}, {"Major": ValueClass.NEGATIVE}, None)
    batch = rows.columns()
    g = _entities(2)
    g.add_links(batch)
    assert_same_column_bits(g.link_columns(), reference_merged(oniontrust.graph.LinkRows().columns(), batch))
    assert g.link_count() == 2
    link = g.link(2, 1, 1)
    assert link.profile == AttributeProfile({"time": 3.0}, {"Major": ValueClass.NEGATIVE})
    assert link.trust_value is None


def test_a_second_batch_of_links_matches_the_widening_merge():
    rng = np.random.default_rng(5)
    first = _link_batch(rng, 200, quant=("freq",), qual=("Major",))
    second = _link_batch(rng, 200, quant=("time",), qual=("Major", "Relationship"))
    g = _entities()
    g.add_links(first)
    g.add_links(second)
    empty = oniontrust.graph.LinkRows().columns()
    assert_same_column_bits(g.link_columns(), reference_merged(reference_merged(empty, first), second))


@pytest.mark.parametrize("layout", ["names out of order", "int32 ends", "float32 trust"])
def test_add_links_widens_a_batch_not_in_the_graphs_layout(layout):
    batch = _link_batch(np.random.default_rng(7), 100)
    batch = {
        "names out of order": lambda: dataclasses.replace(
            batch, quant_names=batch.quant_names[::-1], quant=batch.quant[:, ::-1],
            present=batch.present[:, ::-1],
        ),
        "int32 ends": lambda: dataclasses.replace(
            batch, source=batch.source.astype(np.int32), target=batch.target.astype(np.int32)
        ),
        "float32 trust": lambda: dataclasses.replace(batch, trust=batch.trust.astype(np.float32)),
    }[layout]()
    g = _entities()
    g.add_links(batch)
    assert_same_column_bits(g.link_columns(), reference_merged(oniontrust.graph.LinkRows().columns(), batch))


#: Key layouts the merge oracle draws: in order (the layout generate_graph
#: and serialize_graph give, which skips the sort), out of order, repeated
#: keys in order, no rows, one row, and in order at int32.
KEY_LAYOUTS = ("sorted", "shuffled", "duplicates", "empty", "single", "int32")


@st.composite
def key_batches(draw):
    """(layout, LinkColumns) between ids 1..6 on networks 1-3, each row with
    its own trust value, so the oracle sees which of a repeated key's rows
    is kept."""
    keys = draw(
        st.lists(
            st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3)).filter(
                lambda key: key[0] != key[1]
            ),
            min_size=1,
            max_size=40,
        )
    )
    unique = sorted(set(keys))
    layout = draw(st.sampled_from(KEY_LAYOUTS))
    keys = {
        "sorted": lambda: unique,
        "shuffled": lambda: draw(st.permutations(unique)),
        "duplicates": lambda: sorted(unique + draw(st.lists(st.sampled_from(unique), min_size=1))),
        "empty": lambda: [],
        "single": lambda: unique[:1],
        "int32": lambda: unique,
    }[layout]()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = len(keys)
    source, target, network = np.array(keys, dtype=np.int64).reshape(size, 3).T
    if layout == "int32":
        source, target = source.astype(np.int32), target.astype(np.int32)
    return layout, oniontrust.graph.LinkColumns(
        source=source,
        target=target,
        network=network,
        quant_names=("freq",),
        quant=rng.lognormal(size=(size, 1)),
        present=rng.random((size, 1)) < 0.7,
        qual_names=("Major", "Relationship"),
        qual=rng.integers(-1, 3, size=(size, 2)).astype(np.int8),
        trust=np.where(rng.random(size) < 0.3, np.nan, rng.random(size)),
    )


@settings(max_examples=200)
@given(key_batches(), st.booleans())
def test_add_links_matches_the_sorting_merge_for_any_key_layout(drawn, linked):
    layout, batch = drawn
    empty = oniontrust.graph.LinkRows().columns()
    g, want = _entities(6), empty
    if linked:
        first = _link_batch(np.random.default_rng(len(batch)), 30, quant=("time",), qual=("Major",), ids=6)
        g.add_links(first)
        want = reference_merged(empty, first)
    g.add_links(batch)
    assert_same_column_bits(g.link_columns(), reference_merged(want, batch))


@pytest.mark.parametrize("order", ["in order", "reversed"])
def test_the_graph_shares_no_array_with_an_added_batch(order):
    links = generate_graph(GeneratorParams(n=40, kind="er", value=0.2), seed=2).link_columns()
    rows = slice(None) if order == "in order" else slice(None, None, -1)
    batch = dataclasses.replace(
        links.take(np.arange(len(links))[rows]), trust=np.full(len(links), np.nan)
    )
    g = _entities(40)
    g.add_links(batch)
    kept = g.link_columns().take(np.arange(g.link_count()))
    for name in oniontrust.graph._LINK_ARRAYS:
        assert not np.shares_memory(getattr(g.link_columns(), name), getattr(batch, name)), name
    batch.source[:] = 99
    batch.trust[:] = 0.5
    assert_same_column_bits(g.link_columns(), kept)
    batch.trust[:] = np.nan
    compute_trust_values(g, default_rules())
    assert np.isnan(batch.trust).all()
    assert not np.isnan(g.link_columns().trust).any()


def _misshapen(batch, field):
    """batch with one field broken: a name given twice, a class code
    outside -1..2, or a column of the wrong length or width."""
    return dataclasses.replace(
        batch,
        **{
            "quant_names": lambda: {"quant_names": ("freq", "freq")},
            "qual_names": lambda: {"qual_names": ("Major", "Major")},
            "qual 7": lambda: {"qual": np.where(batch.qual == 1, 7, batch.qual).astype(np.int8)},
            "qual -2": lambda: {"qual": np.where(batch.qual == 1, -2, batch.qual).astype(np.int8)},
            "target": lambda: {"target": batch.target[:-1]},
            "trust": lambda: {"trust": np.append(batch.trust, 0.5)},
            "present": lambda: {"present": batch.present[:, :1]},
        }[field](),
    )


@pytest.mark.parametrize(
    "field, message",
    [
        ("quant_names", "quant_names gives 'freq' more than once"),
        ("qual_names", "qual_names gives 'Major' more than once"),
        ("qual 7", "qual holds class code 7; codes are -1..2"),
        ("qual -2", "qual holds class code -2; codes are -1..2"),
        ("target", "target has shape (99,), expected (100,)"),
        ("trust", "trust has shape (101,), expected (100,)"),
        ("present", "present has shape (100, 1), expected (100, 2)"),
    ],
)
def test_add_links_names_the_field_of_a_malformed_batch(field, message):
    batch = _link_batch(np.random.default_rng(11), 100)
    assert batch.quant_names == ("freq", "time") and (batch.qual == 1).any()
    g = _entities()
    g.add_links(batch.take(slice(0, 10)))
    kept = g.link_columns()
    with pytest.raises(DomainError, match=re.escape("link columns: " + message)):
        g.add_links(_misshapen(batch, field))
    assert_same_column_bits(g.link_columns(), kept)


@pytest.mark.parametrize(
    "profile, message",
    [
        (AttributeProfile({}, {"Major": "POSITIVE"}), "attribute 'Major' = 'POSITIVE' is not a ValueClass"),
        (AttributeProfile({}, {"Major": None}), "attribute 'Major' = None is not a ValueClass"),
        (AttributeProfile({"freq": "often"}, {}), "attribute 'freq' = 'often' is not a number"),
        (AttributeProfile({"freq": 1.0, "time": [2.0]}, {}), "attribute 'time' = [2.0] is not a number"),
    ],
)
def test_add_link_names_the_link_and_attribute_of_a_bad_value(profile, message):
    g = graph_from_trust_links([(1, 2, 0.5)])
    with pytest.raises(DomainError, match=re.escape("link 2->1 network 3: " + message)):
        g.add_link(FriendLink(2, 1, 3, profile))
    # nothing of the rejected link is kept
    assert g.link_count() == 1 and g.networks() == frozenset({1})
    g.add_link(FriendLink(2, 1, 3, AttributeProfile({"time": 1.0}, {"Major": ValueClass.NEUTRAL})))
    assert g.link(2, 1, 3).profile == AttributeProfile({"time": 1.0}, {"Major": ValueClass.NEUTRAL})


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
    with pytest.raises(FrozenGraphError):
        g.add_links(oniontrust.graph.LinkRows().columns())


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
    with pytest.raises(DomainError, match="graph has no entities"):
        mean_circle_size(SocialGraph())


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


def test_hop_budgets_past_the_longest_path_change_nothing():
    # 99 links is the longest path among 100 entities, so no longer budget
    # reaches further; the layers stop once none raises a cell
    params = GeneratorParams(n=100, kind="calibrated", value=0.8, max_hops=99)
    g = generate_graph(params, seed=7)
    assert g == generate_graph(dataclasses.replace(params, max_hops=10**6), seed=7)
    assert mean_circle_size(g, 10**6) == mean_circle_size(g, 99)


def calibrated_p(u, params):
    """The p of the calibration's search over the links of u."""
    return oniontrust.graph._calibrated_links(u, params)[0]


def calibration_outcome(calibrate, u, params):
    """The calibrated p's bits, or the message of the miss."""
    try:
        return calibrate(u, params).hex()
    except GeneratorParamsError as exc:
        return str(exc)


def test_calibration_replays_the_matmul_bisection(monkeypatch):
    # Derandomized: fixed seeds and sizes, every hop budget from 1 to 4 and
    # fractions across (0, 1); the tight tolerance makes many searches miss.
    misses = 0
    for tol in (oniontrust.graph.CALIBRATION_TOL, 0.01):
        monkeypatch.setattr(oniontrust.graph, "CALIBRATION_TOL", tol)
        for seed, n in enumerate((1, 2, 3, 4, 5, 7, 9, 12, 20, 37, 64, 150)):
            u = np.random.default_rng(seed).random((n, n))
            np.fill_diagonal(u, 1.0)
            for max_hops in (1, 2, 3, 4):
                for fraction in (0.01, 0.1, 0.3, 0.5, 0.65, 0.8, 0.95, 0.999):
                    params = GeneratorParams(n, "calibrated", fraction, max_hops=max_hops)
                    got = calibration_outcome(calibrated_p, u, params)
                    assert got == calibration_outcome(reference_calibration, u, params)
                    misses += got.startswith("calibration missed")
    assert misses > 0


def generation_outcome(generate, params, seed):
    """The generated graph, or the message of the calibration's miss."""
    try:
        return generate(params, seed)
    except GeneratorParamsError as exc:
        return str(exc)


GENERATOR_SPECS = st.one_of(
    st.tuples(st.just("er"), st.floats(0.0, 1.0)),
    st.tuples(st.just("calibrated"), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
)


@settings(max_examples=150)
@given(
    st.integers(1, 40),
    GENERATOR_SPECS,
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    # rows per block of the draw: one, several (a last block cut short) and
    # the default, which takes a small graph whole
    st.sampled_from([1, 7, None]),
)
def test_the_blocked_draw_generates_the_dense_generators_graph(n, spec, max_hops, seed, rows):
    params = GeneratorParams(n, *spec, max_hops=max_hops)
    block = oniontrust.graph.DRAW_BLOCK if rows is None else rows * n
    with mock.patch.object(oniontrust.graph, "DRAW_BLOCK", block):
        got = generation_outcome(generate_graph, params, seed)
    assert got == generation_outcome(reference_generate_graph, params, seed)


def test_calibration_reads_the_uniforms_once():
    # The bracket's margin over the Erdos-Renyi estimate clears the target
    # on the first read at the sizes and budgets the scenarios use; a read
    # at twice h, or the miss replay at h = 1, would draw u again.
    links_below = oniontrust.graph._links_below
    for n in (300, 500, 1000):
        for max_hops in (2, 3):
            for fraction in (0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95):
                params = GeneratorParams(n, "calibrated", fraction, max_hops=max_hops)
                u = oniontrust.graph._EdgeUniforms(np.random.SeedSequence(5), n)
                with mock.patch.object(
                    oniontrust.graph, "_links_below", wraps=links_below
                ) as reads:
                    oniontrust.graph._calibrated_links(u, params)
                assert reads.call_count == 1, (n, max_hops, fraction)


def test_generation_holds_no_square_array():
    # The dense draw peaked at 59 MB here, against 32 MB for 8 * n^2 bytes.
    n = 2000
    tracemalloc.start()
    try:
        generate_graph(GeneratorParams(n, "calibrated", 0.8), seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n


@pytest.mark.parametrize(
    "params",
    [
        GeneratorParams(10**6, "er", 0.5),
        GeneratorParams(10**6, "calibrated", 0.8, max_hops=1),
    ],
    ids=["er", "calibrated"],
)
def test_a_graph_too_large_for_memory_fails_before_drawing(params):
    # Both brackets hold TBs of links (half and all of 10^12 pairs), more
    # than any host has, so they fail here before a uniform is drawn.
    start = time.perf_counter()
    with pytest.raises(
        GeneratorParamsError, match=r"^n = 1000000: .* about \d+ bytes, more than the \d+ bytes"
    ):
        generate_graph(params, seed=1)
    assert time.perf_counter() - start < 1.0


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
        ((True, "er", 0.1), {}, "n must be an integer, got True"),
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
