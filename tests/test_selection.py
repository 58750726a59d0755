"""Router and circuit selection weights, filtering and sampling."""

import re

import numpy as np
import pytest
from scipy import stats

from oniontrust import (
    SelectionMode,
    SelectionPolicy,
    SocialGraph,
    TrustScore,
    TrustScoreTable,
    build_candidates,
    build_circuit,
    select_router,
    selection_probability,
)
from oniontrust.errors import (
    DomainError,
    EmptyCandidateSetError,
    InsufficientCandidatesError,
    UnknownEntityError,
    ZeroDenominatorError,
)

from helpers import copy_graph, graph_from_trust_links


def fixture(scores, bandwidths):
    """Graph rooted at 1 plus a score table reflecting `scores`."""
    triples = [(1, t, v) for t, v in scores.items()]
    g = graph_from_trust_links(triples, bandwidths=bandwidths)
    table = TrustScoreTable(1, {t: TrustScore(v, 1) for t, v in scores.items()})
    return g, table


def test_policy_validation():
    with pytest.raises(DomainError):
        SelectionPolicy(omega=-0.1)
    with pytest.raises(DomainError):
        SelectionPolicy(omega=1.1)
    with pytest.raises(DomainError):
        SelectionPolicy(ts_threshold=2.0)
    with pytest.raises(DomainError):
        SelectionPolicy(circuit_length=0)
    with pytest.raises(DomainError, match=re.escape("circuit_length must be an integer, got 2.5")):
        SelectionPolicy(circuit_length=2.5)
    assert SelectionPolicy(circuit_length=np.int64(2)).circuit_length == 2


def test_mixed_weight_worked_example():
    # equal mixing: weights 0.5*0.6+0.5*1.0 = 0.8 and 0.5*0.2+0.5*0.5 = 0.35
    g, table = fixture({2: 0.6, 3: 0.2}, {1: 10.0, 2: 200.0, 3: 100.0})
    policy = SelectionPolicy(omega=0.5)
    cands = build_candidates(g, table, 1, policy)
    assert cands.ids() == [2, 3]
    assert abs(selection_probability(cands, policy, 2) - 0.8 / 1.15) < 1e-12
    assert abs(selection_probability(cands, policy, 3) - 0.35 / 1.15) < 1e-12
    with pytest.raises(UnknownEntityError):
        selection_probability(cands, policy, 1)


def test_an_unknown_candidate_is_named_as_given():
    g, table = fixture({2: 0.6, 3: 0.2}, {1: 10.0, 2: 200.0, 3: 100.0})
    policy = SelectionPolicy(omega=0.5)
    cands = build_candidates(g, table, 1, policy)
    with pytest.raises(UnknownEntityError, match=r"^entity 2\.5 is not a candidate$"):
        selection_probability(cands, policy, 2.5)


def test_omega_extremes():
    g, table = fixture({2: 0.6, 3: 0.2}, {1: 10.0, 2: 200.0, 3: 100.0})
    pure_trust = build_candidates(g, table, 1, SelectionPolicy(omega=0.0))
    assert list(pure_trust.weights(SelectionPolicy(omega=0.0))) == [0.6, 0.2]
    pure_bw = SelectionPolicy(omega=1.0)
    assert list(build_candidates(g, table, 1, pure_bw).weights(pure_bw)) == [1.0, 0.5]


def test_threshold_filters_and_renormalizes():
    g, table = fixture(
        {2: 0.9, 3: 0.4, 4: 0.01}, {1: 10.0, 2: 50.0, 3: 400.0, 4: 900.0}
    )
    policy = SelectionPolicy(omega=1.0, ts_threshold=0.035)
    cands = build_candidates(g, table, 1, policy)
    assert cands.ids() == [2, 3]
    # normalization uses the surviving set's maximum, not the dropped 900
    assert list(cands.weights(policy)) == [0.125, 1.0]
    # the boundary itself is kept
    edge = build_candidates(g, table, 1, SelectionPolicy(ts_threshold=0.4))
    assert edge.ids() == [2, 3]
    with pytest.raises(EmptyCandidateSetError):
        build_candidates(g, table, 1, SelectionPolicy(ts_threshold=0.95))


def test_source_is_never_a_candidate():
    g, table = fixture({2: 0.5}, {1: 999.0, 2: 10.0})
    trust = build_candidates(g, table, 1, SelectionPolicy())
    assert 1 not in trust.ids()
    only_bw = SelectionPolicy(mode=SelectionMode.BANDWIDTH_ONLY)
    baseline = build_candidates(g, None, 1, only_bw)
    assert 1 not in baseline.ids()


def test_trust_aware_selection_needs_the_sources_table():
    g, _ = fixture({2: 0.5}, {1: 1.0, 2: 1.0})
    with pytest.raises(DomainError, match="score table"):
        build_candidates(g, None, 1, SelectionPolicy())


def test_an_empty_candidate_set_names_its_cause():
    g, table = fixture({2: 0.5}, {1: 1.0, 2: 1.0})
    with pytest.raises(EmptyCandidateSetError, match="^no candidates for entity 1 at threshold 0.6$"):
        build_candidates(g, table, 1, SelectionPolicy(ts_threshold=0.6))
    alone = SocialGraph()
    alone.add_entity(1, 1.0)
    with pytest.raises(EmptyCandidateSetError, match="^no candidates for entity 1: it is the only router$"):
        build_candidates(alone, None, 1, SelectionPolicy(mode=SelectionMode.BANDWIDTH_ONLY))


def test_a_table_that_lists_the_source_does_not_make_it_a_candidate():
    g, _ = fixture({2: 0.5, 3: 0.2}, {1: 999.0, 2: 10.0, 3: 20.0})
    table = TrustScoreTable(1, {1: TrustScore(0.9, 2), 2: TrustScore(0.5, 1),
                                3: TrustScore(0.2, 1)})
    policy = SelectionPolicy(omega=0.5)
    cands = build_candidates(g, table, 1, policy)
    assert cands.ids() == [2, 3]
    # the source's own bandwidth does not set the normalizing top either
    assert cands.weights(policy).tolist() == [0.5 * 0.5 + 0.5 * 0.5, 0.5 * 0.2 + 0.5 * 1.0]


def test_bandwidth_only_uses_raw_bandwidth_of_everyone():
    # entity 4 has no links at all but stays selectable in baseline mode
    g = graph_from_trust_links(
        [(1, 2, 0.6), (1, 3, 0.0)],
        bandwidths={1: 5.0, 2: 300.0, 3: 100.0},
    )
    g.add_entity(4, 100.0)
    policy = SelectionPolicy(mode=SelectionMode.BANDWIDTH_ONLY)
    cands = build_candidates(g, None, 1, policy)
    assert cands.ids() == [2, 3, 4]
    assert list(cands.weights(policy)) == [300.0, 100.0, 100.0]
    assert selection_probability(cands, policy, 2) == pytest.approx(0.6)


def test_select_router_frequencies():
    g, table = fixture({2: 0.6, 3: 0.2}, {1: 10.0, 2: 300.0, 3: 100.0})
    policy = SelectionPolicy(mode=SelectionMode.BANDWIDTH_ONLY)
    cands = build_candidates(g, None, 1, policy)
    rng = np.random.default_rng(42)
    draws = 100_000
    hits = sum(select_router(cands, policy, rng) == 2 for _ in range(draws))
    assert abs(hits / draws - 0.75) < 0.01


def test_select_router_chi_square():
    rng = np.random.default_rng(7)
    for _ in range(3):
        k = int(rng.integers(3, 8))
        ids = list(range(2, 2 + k))
        scores = {i: float(rng.uniform(0.05, 1.0)) for i in ids}
        bw = {i: float(rng.uniform(10.0, 1000.0)) for i in ids}
        bw[1] = 50.0
        g, table = fixture(scores, bw)
        policy = SelectionPolicy(omega=float(rng.uniform(0.0, 1.0)))
        cands = build_candidates(g, table, 1, policy)
        probs = np.array([selection_probability(cands, policy, i) for i in ids])
        draws = 20_000
        counts = np.zeros(k)
        for _ in range(draws):
            counts[select_router(cands, policy, rng) - 2] += 1
        _, pvalue = stats.chisquare(counts, probs * draws)
        assert pvalue > 0.001


def test_zero_weight_candidates_are_never_picked():
    g, table = fixture({2: 0.5, 3: 0.0}, {1: 10.0, 2: 100.0, 3: 900.0})
    policy = SelectionPolicy(omega=0.0)
    cands = build_candidates(g, table, 1, policy)
    rng = np.random.default_rng(3)
    assert all(select_router(cands, policy, rng) == 2 for _ in range(5000))


def test_all_zero_weights_is_an_error():
    g, table = fixture({2: 0.0, 3: 0.0}, {1: 10.0, 2: 100.0, 3: 900.0})
    policy = SelectionPolicy(omega=0.0)
    cands = build_candidates(g, table, 1, policy)
    with pytest.raises(ZeroDenominatorError):
        select_router(cands, policy, np.random.default_rng(0))
    with pytest.raises(ZeroDenominatorError):
        selection_probability(cands, policy, 2)


def test_circuit_members_are_distinct_candidates():
    scores = {i: 0.1 * i for i in range(2, 9)}
    bw = {i: float(100 * i) for i in range(1, 9)}
    g, table = fixture(scores, bw)
    policy = SelectionPolicy(omega=0.3, circuit_length=3)
    cands = build_candidates(g, table, 1, policy)
    rng = np.random.default_rng(11)
    for _ in range(300):
        circuit = build_circuit(cands, policy, rng)
        assert len(circuit.members) == 3
        assert len(set(circuit.members)) == 3
        assert set(circuit.members) <= set(cands.ids())
        assert circuit.bandwidth(g) == min(bw[m] for m in circuit.members)
        assert circuit.compromised(g) is False


def test_circuit_flags_compromise_and_min_bandwidth():
    g = graph_from_trust_links(
        [(1, 2, 0.5), (1, 3, 0.5), (1, 4, 0.5)],
        bandwidths={1: 10.0, 2: 70.0, 3: 20.0, 4: 50.0},
    )
    g = copy_graph(g, {1: False, 2: False, 3: True, 4: False})
    table = TrustScoreTable(1, {i: TrustScore(0.5, 1) for i in (2, 3, 4)})
    policy = SelectionPolicy(circuit_length=3)
    circuit = build_circuit(
        build_candidates(g, table, 1, policy), policy, np.random.default_rng(0)
    )
    assert sorted(circuit.members) == [2, 3, 4]
    assert circuit.bandwidth(g) == 20.0
    assert circuit.compromised(g) is True


def test_circuit_error_paths():
    g, table = fixture({2: 0.5, 3: 0.5}, {1: 10.0, 2: 100.0, 3: 100.0})
    policy = SelectionPolicy(circuit_length=3)
    cands = build_candidates(g, table, 1, policy)
    with pytest.raises(InsufficientCandidatesError):
        build_circuit(cands, policy, np.random.default_rng(0))
    # enough members, but only two can ever be picked
    g2, table2 = fixture(
        {2: 0.5, 3: 0.5, 4: 0.0}, {1: 10.0, 2: 100.0, 3: 100.0, 4: 100.0}
    )
    cands2 = build_candidates(g2, table2, 1, policy)
    with pytest.raises(ZeroDenominatorError):
        build_circuit(cands2, policy, np.random.default_rng(0))


def test_circuit_first_pick_follows_single_draw_law():
    g, table = fixture({2: 0.7, 3: 0.2, 4: 0.1}, {1: 1.0, 2: 10.0, 3: 10.0, 4: 10.0})
    policy = SelectionPolicy(omega=0.0, circuit_length=2)
    cands = build_candidates(g, table, 1, policy)
    rng = np.random.default_rng(5)
    draws = 40_000
    first = np.array([build_circuit(cands, policy, rng).members[0] for _ in range(draws)])
    for eid in (2, 3, 4):
        want = selection_probability(cands, policy, eid)
        assert abs((first == eid).mean() - want) < 0.01
