"""Adversary simulation: flag placement, correlation cases, round metrics."""

import dataclasses
import gc
import itertools
import math
import re
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oniontrust import (
    CorrelationCase,
    DrawMode,
    SelectionMode,
    SimScenario,
    Strategy,
    build_scenario_graph,
    compute_trust_values,
    mean_trust_scores,
    run_circuit_rounds,
    run_selection_rounds,
    run_simulation,
    sweep,
)
from oniontrust.errors import (
    DomainError,
    EmptyCandidateSetError,
    GeneratorParamsError,
    InfeasibleAssignmentError,
    InsufficientCandidatesError,
    OnionTrustError,
    UnknownEntityError,
    ZeroDenominatorError,
)
from oniontrust.propagation import TrustArrays, TrustScore, TrustScoreTable, propagate_arrays
from oniontrust.simulation import (
    BLOCK_PICKS,
    _correlated,
    _flag_count,
    _flag_keys,
    _PICK_BYTES,
    _Prepared,
    _ROUND_KEY,
    _run_rounds,
    _SETUP_KEY,
    _stream,
    _weighted_draw,
)

from helpers import (
    TRUST,
    default_rules,
    exact_subset_probability,
    graph_from_trust_links,
    heap_search,
    reference_candidates,
    reference_correlation,
    reference_rounds,
    scored_graphs,
)


def star(n, bandwidths=None, tv=0.5):
    """Source 1 linked to everyone else; frozen."""
    g = graph_from_trust_links(
        [(1, k, tv) for k in range(2, n + 1)], bandwidths=bandwidths
    )
    g.freeze()
    return g


def flag_plan(graph, scenario):
    """The scenario's _Prepared alone: its flag placement over
    propagate_arrays(graph) and the graph's bandwidths."""
    return _Prepared(graph, [scenario])


def flagged_ids(prep, rng):
    """Entity ids of one round's flags, keyed off a one-round block of
    rng's uniforms when the placement draws."""
    m = prep.picks[0].m
    if prep.order is not None:
        rows = prep.order[:m]
    elif m:
        rows = _weighted_draw(_flag_keys(prep.flag_weights, rng.random((1, len(prep.ids)))), m)[0]
    else:
        rows = np.empty(0, dtype=int)
    return {prep.ids[k] for k in rows.tolist()}


def test_flag_count_rounding():
    assert _flag_count(0.2, 500) == 100
    assert _flag_count(0.15, 500) == 75
    assert _flag_count(0.05, 41) == 3  # 2.05 routers round up
    assert _flag_count(0.0, 10) == 0
    assert _flag_count(1.0, 10) == 10
    assert _flag_count(0.333, 3) == 1
    assert _flag_count(0.34, 3) == 2


def test_opportunistic_flags_are_uniform():
    g = star(10)
    plan = flag_plan(g, SimScenario(strategy=Strategy.OPPORTUNISTIC_TOR, fraction=0.3))
    counts = {eid: 0 for eid in g.entity_ids()}
    trials = 2000
    for i in range(trials):
        flagged = flagged_ids(plan, np.random.default_rng(i))
        assert len(flagged) == 3
        for eid in flagged:
            counts[eid] += 1
    for eid, c in counts.items():
        assert abs(c / trials - 0.3) < 0.05, eid


def test_original_tor_flags_top_bandwidth():
    bw = {1: 50.0, 2: 90.0, 3: 90.0, 4: 20.0, 5: 90.0, 6: 10.0}
    g = star(6, bandwidths=bw)
    plan = flag_plan(g, SimScenario(strategy=Strategy.ORIGINAL_TOR, fraction=0.5))
    for i in range(5):
        flagged = flagged_ids(plan, np.random.default_rng(i))
        # bandwidth ties fall back to the lower entity id
        assert flagged == {2, 3, 5}
    # two of the three routers tied at the top: the lower ids win
    plan = flag_plan(g, SimScenario(strategy=Strategy.ORIGINAL_TOR, fraction=1 / 3))
    assert flagged_ids(plan, np.random.default_rng(0)) == {2, 3}


def test_practical_flags_prefer_poorly_trusted():
    g = graph_from_trust_links([(1, 2, 0.9), (3, 2, 0.9)])
    g.add_entity(4, 1000.0)
    g.freeze()
    weights = {eid: 1.0 - ts for eid, ts in mean_trust_scores(g).items()}
    assert weights == {1: 1.0, 2: pytest.approx(0.4), 3: 1.0, 4: 1.0}
    plan = flag_plan(g, SimScenario(strategy=Strategy.PRACTICAL_STOR, fraction=0.25))
    counts = {eid: 0 for eid in g.entity_ids()}
    trials = 3000
    for i in range(trials):
        flagged = flagged_ids(plan, np.random.default_rng(i))
        assert len(flagged) == 1
        counts[flagged.pop()] += 1
    assert 0.09 < counts[2] / trials < 0.15  # 0.4 / 3.4
    for eid in (1, 3, 4):
        assert 0.25 < counts[eid] / trials < 0.34  # 1.0 / 3.4


def test_practical_flags_fill_uniformly_when_weights_run_out():
    # everyone in the clique is fully trusted by all sources, only 5 is not
    triples = [(a, b, 1.0) for a in (1, 2, 3, 4) for b in (1, 2, 3, 4) if a != b]
    triples += [(5, k, 1.0) for k in (1, 2, 3, 4)]
    g = graph_from_trust_links(triples)
    g.freeze()
    assert mean_trust_scores(g) == {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 0.0}
    plan = flag_plan(g, SimScenario(strategy=Strategy.PRACTICAL_STOR, fraction=0.6))
    seen = set()
    for i in range(200):
        flagged = flagged_ids(plan, np.random.default_rng(i))
        assert len(flagged) == 3
        assert 5 in flagged
        seen |= flagged
    assert seen == {1, 2, 3, 4, 5}


def test_theoretical_flags_stay_outside_the_circle():
    g = graph_from_trust_links([(1, 2, 0.5), (2, 3, 0.5)])
    for eid in (4, 5, 6):
        g.add_entity(eid, 1000.0)
    g.freeze()
    plan = flag_plan(g, SimScenario(strategy=Strategy.THEORETICAL_STOR, fraction=1 / 3))
    for i in range(50):
        flagged = flagged_ids(plan, np.random.default_rng(i))
        assert len(flagged) == 2
        assert flagged <= {4, 5, 6}
    too_many = SimScenario(strategy=Strategy.THEORETICAL_STOR, fraction=0.9)
    with pytest.raises(InfeasibleAssignmentError):
        flag_plan(g, too_many)


def keyed_draw_cases():
    """(graph, scenario, ids always flagged, ids that fill up by u, m)."""
    # OPPORTUNISTIC_TOR: any of the 10 rows, the source included
    yield star(10), Strategy.OPPORTUNISTIC_TOR, 0.3, set(), range(1, 11)
    # THEORETICAL_STOR: only the 6 rows outside the source's circle
    g = graph_from_trust_links([(1, 2, 0.5), (2, 3, 0.5)])
    for eid in range(4, 10):
        g.add_entity(eid, 1000.0)
    g.freeze()
    yield g, Strategy.THEORETICAL_STOR, 0.4, set(), range(4, 10)
    # PRACTICAL_STOR with zero weights: 5 is the only positive weight, then
    # the fully trusted 1..4 fill up
    triples = [(a, b, 1.0) for a in (1, 2, 3, 4) for b in (1, 2, 3, 4) if a != b]
    g = graph_from_trust_links(triples + [(5, k, 1.0) for k in (1, 2, 3, 4)])
    g.freeze()
    yield g, Strategy.PRACTICAL_STOR, 0.6, {5}, range(1, 5)


@pytest.mark.parametrize("case", list(keyed_draw_cases()), ids=lambda case: case[1].code)
def test_every_random_placement_is_one_keyed_draw_of_the_rounds_uniforms(case):
    # What a round flags, read off u = 1 - rng.random(n) alone: the rows of
    # positive weight first, then the largest u among the rest a strategy
    # may flag. A second draw from rng or a second sampler fails this.
    g, strategy, fraction, always, fill = case
    plan = flag_plan(g, SimScenario(strategy=strategy, fraction=fraction))
    ids = plan.ids
    m = _flag_count(fraction, len(ids))
    for seed in range(20):
        u = 1.0 - np.random.default_rng(seed).random(len(ids))
        by_u = sorted(fill, key=lambda eid: -u[ids.index(eid)])
        want = always | set(by_u[: m - len(always)])
        assert flagged_ids(plan, np.random.default_rng(seed)) == want


def test_flag_draws_leave_the_stream_alone_when_nothing_is_random(monkeypatch):
    # no routers to flag, or ORIGINAL_TOR's fixed top-bandwidth flags: the
    # plan draws nothing, and the runner never reads the flag stream nor
    # keys a block
    import oniontrust.simulation

    class Unread:
        def random(self, *args, **kwargs):
            raise AssertionError("read the flag stream")

    def unread_flags(seed, *key):
        return Unread() if key == (_ROUND_KEY, 0) else _stream(seed, *key)

    def forbidden(*args):
        raise AssertionError("keyed fixed flags")

    monkeypatch.setattr(oniontrust.simulation, "_stream", unread_flags)
    monkeypatch.setattr(oniontrust.simulation, "_flag_keys", forbidden)
    g = star(6)
    cases = [(strategy, 0.0) for strategy in Strategy] + [(Strategy.ORIGINAL_TOR, 0.5)]
    for strategy, fraction in cases:
        scenario = SimScenario(strategy=strategy, fraction=fraction, rounds=3, draws=5)
        assert flag_plan(g, scenario).flag_weights is None, strategy
        want, _, _ = reference_rounds(g, scenario, circuits=False)
        assert run_simulation(g, scenario).reports == want, strategy


def correlation_fixture():
    """Source 1's trust row over a six-entity graph, and its bandwidth vector."""
    g = graph_from_trust_links(
        [(1, 2, 0.9), (1, 3, 0.7), (1, 4, 0.5)],
        bandwidths={1: 10.0, 2: 20.0, 3: 30.0, 4: 40.0},
    )
    g.add_entity(5, 50.0)
    g.add_entity(6, 60.0)
    arrays = propagate_arrays(g)
    row = arrays.ids.index(1)
    bandwidth = np.array([g.bandwidth(eid) for eid in arrays.ids])
    return arrays.ids, bandwidth, arrays.best[row], arrays.hops[row] > 0


def correlated(case, seed):
    """{entity: bandwidth} after _correlated on source 1's row."""
    ids, bandwidth, trust, reached = correlation_fixture()
    out = _correlated(bandwidth, trust, reached, case, np.random.default_rng(seed))
    return dict(zip(ids, out.tolist()))


def test_best_correlation_hands_trust_the_big_pipes():
    _, _, trust, _ = correlation_fixture()
    out = correlated(CorrelationCase.BEST, 0)
    assert out[2] == 60.0
    assert out[3] == 50.0
    assert out[4] == 40.0
    assert {out[e] for e in (1, 5, 6)} == {10.0, 20.0, 30.0}
    bw = [out[e] for e in (2, 3, 4)]
    assert stats.spearmanr(trust[1:4], bw).statistic == 1.0


def test_worst_correlation_starves_the_circle():
    _, _, trust, _ = correlation_fixture()
    out = correlated(CorrelationCase.WORST, 0)
    assert out[2] == 10.0
    assert out[3] == 20.0
    assert out[4] == 30.0
    assert {out[e] for e in (1, 5, 6)} == {40.0, 50.0, 60.0}
    bw = [out[e] for e in (2, 3, 4)]
    assert stats.spearmanr(trust[1:4], bw).statistic == -1.0


def test_no_correlation_keeps_the_graph():
    _, bandwidth, trust, reached = correlation_fixture()
    out = _correlated(
        bandwidth, trust, reached, CorrelationCase.NONE, np.random.default_rng(0)
    )
    assert out is bandwidth


def test_correlation_preserves_the_bandwidth_multiset():
    _, bandwidth, _, _ = correlation_fixture()
    want = sorted(bandwidth.tolist())
    for case in (CorrelationCase.BEST, CorrelationCase.WORST):
        assert sorted(correlated(case, 3).values()) == want


def test_opportunistic_rates_match_uniform_flagging_math():
    # flags are a uniform 6-subset of 30, so for any 3 distinct non-source
    # picks: P(circuit clean) = C(27,6)/C(30,6) and P(one pick flagged) = 6/30
    n, m = 30, 6
    g = star(n, bandwidths={eid: 100.0 for eid in range(1, n + 1)})
    scenario = SimScenario(
        strategy=Strategy.OPPORTUNISTIC_TOR,
        fraction=0.2,
        rounds=400,
        draws=250,
        draw_mode=DrawMode.CIRCUIT,
    )
    result = run_circuit_rounds(g, scenario)
    want_mc = 1.0 - math.comb(n - 3, m) / math.comb(n, m)
    assert abs(result.mean_r_mc - want_mc) < 0.02
    assert abs(result.mean_r_mr - m / n) < 0.02
    single = SimScenario(
        strategy=Strategy.OPPORTUNISTIC_TOR, fraction=0.2, rounds=500, draws=400
    )
    assert abs(run_selection_rounds(g, single).mean_r_mr - m / n) < 0.01


def test_circuit_rounds_match_sequential_sampling_law():
    # 6 candidates with bandwidth weights 10..60; flags sit on the two
    # biggest pipes (entities 6 and 7). Compare the vectorized sampler
    # against exact enumeration of the sequential law.
    bw = {1: 5.0}
    bw.update({eid: 10.0 * (eid - 1) for eid in range(2, 8)})
    g = star(7, bandwidths=bw)
    weights = [bw[eid] for eid in range(2, 8)]
    flagged = {6, 7}
    p_clean, p_hit = 0.0, 0.0
    for subset in itertools.combinations(range(6), 3):
        p = exact_subset_probability(weights, subset)
        members = {subset[k] + 2 for k in range(3)}
        if not members & flagged:
            p_clean += p
        p_hit += p * len(members & flagged) / 3.0
    scenario = SimScenario(
        strategy=Strategy.ORIGINAL_TOR,
        fraction=2 / 7,
        rounds=200,
        draws=300,
        draw_mode=DrawMode.CIRCUIT,
    )
    result = run_circuit_rounds(g, scenario)
    assert abs(result.mean_r_mc - (1.0 - p_clean)) < 0.015
    assert abs(result.mean_r_mr - p_hit) < 0.015


def test_sequential_circuits_match_their_own_law():
    from oniontrust import SelectionPolicy, build_candidates, build_circuit

    bw = {1: 5.0}
    bw.update({eid: 10.0 * (eid - 1) for eid in range(2, 8)})
    g = star(7, bandwidths=bw)
    policy = SelectionPolicy(mode=SelectionMode.BANDWIDTH_ONLY, circuit_length=3)
    cands = build_candidates(g, None, 1, policy)
    weights = cands.bandwidth.tolist()
    subsets = list(itertools.combinations(range(6), 3))
    probs = np.array([exact_subset_probability(weights, s) for s in subsets])
    assert probs.sum() == pytest.approx(1.0)
    index = {frozenset(s): k for k, s in enumerate(subsets)}
    rng = np.random.default_rng(9)
    draws = 20_000
    counts = np.zeros(len(subsets))
    ids = cands.ids()
    for _ in range(draws):
        picked = build_circuit(cands, policy, rng).members
        counts[index[frozenset(ids.index(e) for e in picked)]] += 1
    _, pvalue = stats.chisquare(counts, probs * draws)
    assert pvalue > 0.001


def test_single_hop_circuits_collapse_to_selection():
    g = star(8)
    scenario = SimScenario(
        strategy=Strategy.OPPORTUNISTIC_TOR,
        fraction=0.25,
        rounds=50,
        draws=100,
        draw_mode=DrawMode.CIRCUIT,
        circuit_length=1,
    )
    result = run_circuit_rounds(g, scenario)
    for report in result.reports:
        assert report.r_mc == report.r_mr


def test_simulation_is_reproducible():
    g = star(12)
    scenario = SimScenario(
        strategy=Strategy.PRACTICAL_STOR, fraction=0.25, rounds=40, draws=80
    )
    a = run_simulation(g, scenario)
    b = run_simulation(g, scenario)
    assert [(r.r_mr, r.avg_bandwidth) for r in a.reports] == [
        (r.r_mr, r.avg_bandwidth) for r in b.reports
    ]
    import dataclasses

    c = run_simulation(g, dataclasses.replace(scenario, seed=1))
    assert [r.r_mr for r in a.reports] != [r.r_mr for r in c.reports]


def test_dispatch_and_result_shape():
    g = star(8)
    select = SimScenario(
        strategy=Strategy.OPPORTUNISTIC_TOR, fraction=0.25, rounds=10, draws=20
    )
    result = run_simulation(g, select)
    assert result.mean_r_mc is None
    assert all(r.r_mc is None for r in result.reports)
    assert result.circle_size == 7
    assert result.trustworthy_size is None
    circuit = SimScenario(
        strategy=Strategy.PRACTICAL_STOR,
        fraction=0.25,
        rounds=10,
        draws=20,
        draw_mode=DrawMode.CIRCUIT,
    )
    result = run_simulation(g, circuit)
    assert result.mean_r_mc is not None
    assert result.trustworthy_size == 7


def test_simulation_input_errors():
    unfrozen = graph_from_trust_links([(1, 2, 0.5), (1, 3, 0.5), (1, 4, 0.5)])
    scenario = SimScenario(strategy=Strategy.PRACTICAL_STOR, fraction=0.25, rounds=2)
    with pytest.raises(DomainError):
        run_selection_rounds(unfrozen, scenario)
    g = star(4)
    import dataclasses

    with pytest.raises(UnknownEntityError):
        run_selection_rounds(g, dataclasses.replace(scenario, source=99))
    zero = star(4, tv=0.0)
    with pytest.raises(ZeroDenominatorError):
        run_selection_rounds(zero, scenario)
    small = star(3)
    with pytest.raises(InsufficientCandidatesError):
        run_circuit_rounds(
            small, dataclasses.replace(scenario, draw_mode=DrawMode.CIRCUIT)
        )


def test_rounds_take_a_given_source_table():
    scenario = SimScenario(
        strategy=Strategy.THEORETICAL_STOR, fraction=0.1, case=CorrelationCase.BEST,
        n=30, generator_kind="er", generator_value=0.1, rounds=5, draws=30, source=3,
    )
    g = build_scenario_graph(scenario, default_rules())
    given = run_simulation(g, scenario, arrays=propagate_arrays(g, 2))
    assert given.reports == run_simulation(g, scenario).reports
    other = build_scenario_graph(dataclasses.replace(scenario, n=20), default_rules())
    with pytest.raises(DomainError, match="trust arrays are not over this graph's entities"):
        run_simulation(g, scenario, arrays=propagate_arrays(other, 2))


def test_arrays_from_another_hop_budget_are_rejected():
    scenario = SimScenario(
        strategy=Strategy.PRACTICAL_STOR, fraction=0.2, n=60, generator_kind="er",
        generator_value=0.04, seed=3, rounds=3, draws=20,
    )
    g = build_scenario_graph(scenario, default_rules())
    arrays = propagate_arrays(g, 3)
    assert arrays.max_hops == 3
    message = "trust arrays were propagated within 3 hops, the scenario asks for max_hops 2"
    with pytest.raises(DomainError, match=re.escape(message)):
        run_simulation(g, scenario, arrays=arrays)
    three = dataclasses.replace(scenario, max_hops=3)
    assert run_simulation(g, three, arrays=arrays).reports == run_simulation(g, three).reports


def count_propagations(patch):
    """Patch the simulation's propagate_arrays to log each graph's size."""
    import oniontrust.simulation

    calls = []

    def counted(graph, max_hops=2):
        calls.append(len(graph))
        return propagate_arrays(graph, max_hops)

    patch.setattr(oniontrust.simulation, "propagate_arrays", counted)
    return calls


@pytest.mark.parametrize(
    "strategy, case",
    [
        (Strategy.PRACTICAL_STOR, CorrelationCase.BEST),
        (Strategy.THEORETICAL_STOR, CorrelationCase.WORST),
    ],
)
def test_sweep_reads_the_source_table_from_its_arrays(monkeypatch, strategy, case):
    scenario = SimScenario(
        strategy=strategy, fraction=0.1, case=case, n=40, generator_kind="er",
        generator_value=0.08, rounds=10, draws=40, source=5,
    )
    # one propagation per graph: the ts_h, omega and fraction axes share
    # one, the n axis builds one graph per distinct n. The values on one
    # graph share each round's streams, and in both draw modes each value
    # still equals its scenario run alone.
    for (axis, values, field, graphs), draw_mode in itertools.product(
        (
            ("ts_h", [0.0, 0.03], "ts_threshold", [40]),
            ("omega", [0.0, 0.6, 1.0], "omega", [40]),
            ("fraction", [0.1, 0.25, 0.1], "fraction", [40]),
            ("n", [40, 50, 40], "n", [40, 50]),
        ),
        DrawMode,
    ):
        base = dataclasses.replace(scenario, draw_mode=draw_mode)
        with monkeypatch.context() as patch:
            calls = count_propagations(patch)
            result = sweep(base, axis, values, default_rules())
        assert calls == graphs
        for value, point in zip(values, result.results):
            sc = dataclasses.replace(base, **{field: value})
            alone = run_simulation(build_scenario_graph(sc, default_rules()), sc)
            assert point.reports == alone.reports
            assert point.circle_size == alone.circle_size
            assert point.trustworthy_size == alone.trustworthy_size


def test_a_sweep_draws_each_rounds_streams_once_and_a_mask_per_fraction(monkeypatch):
    import oniontrust.simulation

    rows, keys, masks = {0: [], 1: []}, [], []

    class Counted:
        """A round stream that records the rows of each block it fills."""

        def __init__(self, rng, counts):
            self.rng, self.counts = rng, counts

        def random(self, *, out):
            self.counts.append(len(out))
            return self.rng.random(out=out)

    def counted_stream(seed, *key):
        rng = _stream(seed, *key)
        return Counted(rng, rows[key[1]]) if key[0] == _ROUND_KEY else rng

    def counted_keys(weights, u):
        keys.append(len(u))
        return _flag_keys(weights, u)

    def counted_draw(block_keys, m):
        masks.append((m, len(block_keys)))
        return _weighted_draw(block_keys, m)

    def reset():
        for counts in (rows[0], rows[1], keys, masks):
            del counts[:]

    monkeypatch.setattr(oniontrust.simulation, "_stream", counted_stream)
    monkeypatch.setattr(oniontrust.simulation, "_flag_keys", counted_keys)
    monkeypatch.setattr(oniontrust.simulation, "_weighted_draw", counted_draw)
    scenario = SimScenario(
        strategy=Strategy.PRACTICAL_STOR, fraction=0.1, n=40, generator_kind="er",
        generator_value=0.08, rounds=10, draws=40, source=5,
    )
    # one block of all ten rounds: each stream read once for the block, one
    # set of keys, and one draw of the ten rounds' masks per distinct
    # fraction (m = 4, 8 and 12 of 40)
    sweep(scenario, "ts_h", [0.0, 0.01, 0.02, 0.03], default_rules())
    assert rows == {0: [10], 1: [10]}
    assert (keys, masks) == ([10], [(4, 10)])
    reset()
    sweep(scenario, "fraction", [0.1, 0.2, 0.1, 0.3], default_rules())
    assert rows == {0: [10], 1: [10]}
    assert (keys, masks) == ([10], [(4, 10), (8, 10), (12, 10)])
    # blocks of 4, 4 and 2 rounds: 40 picks and 40 keys a round
    reset()
    monkeypatch.setattr(oniontrust.simulation, "BLOCK_PICKS", 4 * 40 + 39)
    sweep(scenario, "fraction", [0.1, 0.2], default_rules())
    assert rows == {0: [4, 4, 2], 1: [4, 4, 2]}
    assert keys == [4, 4, 2]
    assert masks == [(4, 4), (8, 4), (4, 4), (8, 4), (4, 2), (8, 2)]


def test_a_sweep_prepares_each_batch_once(monkeypatch):
    import oniontrust.simulation

    scenario = SimScenario(
        strategy=Strategy.PRACTICAL_STOR, fraction=0.1, case=CorrelationCase.BEST,
        n=40, generator_kind="er", generator_value=0.08, rounds=3, draws=10, source=5,
    )
    # one bandwidth permutation per graph: the ts_h values share one batch,
    # the n values one batch per distinct n
    for axis, values, batches in (("ts_h", [0.0, 0.01, 0.02, 0.03], 1), ("n", [40, 50, 40], 2)):
        with mock.patch.object(
            oniontrust.simulation, "_correlated", wraps=oniontrust.simulation._correlated
        ) as correlated:
            sweep(scenario, axis, values, default_rules())
        assert correlated.call_count == batches, axis


def test_a_batch_fails_on_its_first_bad_scenario():
    # at ts_h 0 every candidate weighs 0, at 0.5 there is none: the error is
    # the first scenario's, as when each runs alone, in either order
    zero = star(4, tv=0.0)
    scenario = SimScenario(strategy=Strategy.PRACTICAL_STOR, fraction=0.25, rounds=2)
    weightless, empty = (dataclasses.replace(scenario, ts_threshold=t) for t in (0.0, 0.5))
    with pytest.raises(ZeroDenominatorError):
        _run_rounds(zero, [weightless, empty], None, None, circuits=False)
    with pytest.raises(EmptyCandidateSetError):
        _run_rounds(zero, [empty, weightless], None, None, circuits=False)


@pytest.mark.parametrize("draw_mode", list(DrawMode))
def test_a_batch_raises_the_error_of_its_first_bad_scenario_alone(draw_mode):
    # Source 1 trusts 2..5 and reaches nothing else; 6..8 lie outside its
    # circle. The scenarios differ only in ts_h and fraction: a clean one,
    # one with no candidates, one that flags more routers than lie outside
    # the circle and, for circuits, one with two candidates for three hops.
    g = graph_from_trust_links([(1, 2, 0.9), (1, 3, 0.8), (1, 4, 0.3), (1, 5, 0.2)])
    for eid in (6, 7, 8):
        g.add_entity(eid, 1000.0)
    g.freeze()
    clean = SimScenario(
        strategy=Strategy.THEORETICAL_STOR, fraction=0.1, rounds=2, draws=3,
        draw_mode=draw_mode,
    )
    bad = {
        EmptyCandidateSetError: dataclasses.replace(clean, ts_threshold=0.95),
        InfeasibleAssignmentError: dataclasses.replace(clean, fraction=0.9),
    }
    circuits = draw_mode is DrawMode.CIRCUIT
    if circuits:
        bad[InsufficientCandidatesError] = dataclasses.replace(clean, ts_threshold=0.5)
    assert len(run_simulation(g, clean).reports) == 2
    for first, second in itertools.permutations(bad, 2):
        with pytest.raises(first) as alone:
            run_simulation(g, bad[first])
        batch = [clean, bad[first], clean, bad[second]]
        with pytest.raises(OnionTrustError) as batched:
            _run_rounds(g, batch, None, None, circuits)
        assert type(batched.value) is first
        assert str(batched.value) == str(alone.value)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_batched_rounds_equal_the_round_by_round_loop(monkeypatch, strategy):
    import oniontrust.simulation

    base = SimScenario(
        strategy=strategy, fraction=0.15, n=40, generator_kind="er",
        generator_value=0.1, rounds=7, draws=30, seed=4, source=5,
    )
    graph = build_scenario_graph(base, default_rules())
    arrays = propagate_arrays(graph, base.max_hops)
    # A select round holds 40 cells (30 picks, 40 flag keys) and a circuit
    # round 90 (90 picks): the default holds all seven rounds in one block,
    # 120 cells make blocks of 3, 3 and 1 select rounds, and 80 make blocks
    # of 2, 2, 2 and 1 select rounds and one-round blocks of circuits,
    # which alone pass the cap.
    for block_picks in (oniontrust.simulation.BLOCK_PICKS, 120, 80):
        monkeypatch.setattr(oniontrust.simulation, "BLOCK_PICKS", block_picks)
        for case, circuits in itertools.product(CorrelationCase, (False, True)):
            sc = dataclasses.replace(base, case=case)
            run = run_circuit_rounds if circuits else run_selection_rounds
            got = run(graph, sc, arrays=arrays)
            want, circle, trustworthy = reference_rounds(graph, sc, circuits, arrays=arrays)
            assert got.reports == want
            assert (got.circle_size, got.trustworthy_size) == (circle, trustworthy)


@pytest.mark.parametrize("block_picks", [BLOCK_PICKS, 80])
def test_a_shorter_run_is_a_prefix_of_a_longer_one(monkeypatch, block_picks):
    import oniontrust.simulation

    # at 80 cells, seven select rounds are blocks of 2, 2, 2 and 1 and three
    # are 2 and 1; circuit rounds are a block each
    monkeypatch.setattr(oniontrust.simulation, "BLOCK_PICKS", block_picks)
    base = SimScenario(
        strategy=Strategy.PRACTICAL_STOR, fraction=0.15, n=40, generator_kind="er",
        generator_value=0.1, rounds=7, draws=30, seed=4, source=5,
    )
    graph = build_scenario_graph(base, default_rules())
    for draw_mode in DrawMode:
        longer = dataclasses.replace(base, draw_mode=draw_mode)
        shorter = dataclasses.replace(longer, rounds=3)
        want = run_simulation(graph, longer).reports[:3]
        assert run_simulation(graph, shorter).reports == want


@pytest.mark.parametrize("strategy", list(Strategy))
def test_run_simulation_propagates_once_unless_given_arrays(monkeypatch, strategy):
    scenario = SimScenario(
        strategy=strategy, fraction=0.1, case=CorrelationCase.WORST, n=30,
        generator_kind="er", generator_value=0.1, rounds=3, draws=20, source=3,
    )
    g = build_scenario_graph(scenario, default_rules())
    arrays = propagate_arrays(g, scenario.max_hops)
    calls = count_propagations(monkeypatch)
    alone = run_simulation(g, scenario)
    assert calls == [30]
    given = run_simulation(g, scenario, arrays=arrays)
    assert calls == [30]
    assert given.reports == alone.reports


@pytest.mark.parametrize(
    "change, error, message",
    [
        # (strategy, fraction, changes to the computed means)
        ((Strategy.PRACTICAL_STOR, 0.25, {4: None}), UnknownEntityError,
         "mean_trust has no entry for entity 4"),
        ((Strategy.PRACTICAL_STOR, 0.25, {3: float("nan")}), DomainError,
         "mean trust of entity 3 must be in [0, 1], got nan"),
        ((Strategy.PRACTICAL_STOR, 0.25, {2: 7.0}), DomainError,
         "mean trust of entity 2 must be in [0, 1], got 7.0"),
        # checked for every scenario, also when no flag reads the means
        ((Strategy.PRACTICAL_STOR, 0.0, {1: float("nan")}), DomainError,
         "mean trust of entity 1 must be in [0, 1], got nan"),
        ((Strategy.OPPORTUNISTIC_TOR, 0.25, {1: 7.0}), DomainError,
         "mean trust of entity 1 must be in [0, 1], got 7.0"),
        ((Strategy.THEORETICAL_STOR, 0.25, {5: -1.0}), UnknownEntityError,
         "mean_trust has an entry for entity 5 outside the graph"),
    ],
)
def test_practical_flags_reject_a_bad_mean_trust(change, error, message):
    strategy, fraction, change = change
    g = graph_from_trust_links([(1, 2, 0.5), (2, 3, 0.5), (3, 4, 0.5)])
    g.freeze()
    scenario = SimScenario(strategy=strategy, fraction=fraction, rounds=2)
    mean_trust = mean_trust_scores(g)
    mean_trust.update(change)  # a None drops the entity's entry
    mean_trust = {eid: ts for eid, ts in mean_trust.items() if ts is not None}
    with pytest.raises(error, match=re.escape(message)):
        run_simulation(g, scenario, mean_trust)


def test_mean_trust_tables_reject_a_target_outside_the_graph():
    g = graph_from_trust_links([(1, 2, 0.5), (2, 3, 0.4)])
    tables = {1: TrustScoreTable(1, {2: TrustScore(0.5, 1), 9: TrustScore(0.2, 2)})}
    with pytest.raises(UnknownEntityError, match="unknown entity 9"):
        mean_trust_scores(g, tables=tables)


def test_mean_trust_tables_reject_a_source_outside_the_graph():
    g = graph_from_trust_links([(1, 2, 0.5), (2, 3, 0.5)])
    tables = {s: TrustScoreTable(s, {}) for s in (1, 2, 3)}
    assert mean_trust_scores(g, tables=tables) == {1: 0.0, 2: 0.0, 3: 0.0}
    tables[99] = TrustScoreTable(99, {1: TrustScore(0.5, 1)})
    with pytest.raises(UnknownEntityError, match="unknown source entity 99"):
        mean_trust_scores(g, tables=tables)


def test_mean_trust_scores_by_hand():
    g = graph_from_trust_links([(1, 2, 0.5), (2, 3, 0.4), (1, 3, 0.1)])
    means = mean_trust_scores(g, max_hops=2)
    assert means[1] == 0.0
    assert means[2] == pytest.approx(0.25)  # 0.5 from source 1, over n-1 = 2
    assert means[3] == pytest.approx(0.3)  # max(0.1, 0.2) from 1 plus 0.4 from 2


def test_scenario_validation():
    with pytest.raises(DomainError):
        SimScenario(strategy=Strategy.ORIGINAL_TOR, fraction=1.5)
    with pytest.raises(DomainError):
        SimScenario(strategy=Strategy.ORIGINAL_TOR, fraction=0.1, rounds=0)
    with pytest.raises(GeneratorParamsError, match="unknown generator kind 'nope'"):
        SimScenario(
            strategy=Strategy.ORIGINAL_TOR, fraction=0.1, generator_kind="nope"
        )
    # n and max_hops are the generator's fields, checked by GeneratorParams
    for field in ("n", "max_hops"):
        for bad in (0, -3):
            with pytest.raises(GeneratorParamsError, match="%s must be >= 1, got %d" % (field, bad)):
                SimScenario(strategy=Strategy.ORIGINAL_TOR, fraction=0.1, **{field: bad})
        with pytest.raises(
            GeneratorParamsError, match=re.escape("%s must be an integer, got 30.0" % field)
        ):
            SimScenario(strategy=Strategy.ORIGINAL_TOR, fraction=0.1, **{field: 30.0})
    # policy, seed and generator fields fail when the scenario is built, in
    # every strategy, not when a graph is run
    for field, bad, message in (
        ("omega", 2.0, "omega must be in [0, 1], got 2.0"),
        ("omega", float("nan"), "omega must be in [0, 1], got nan"),
        ("ts_threshold", -0.5, "ts_threshold must be in [0, 1], got -0.5"),
        ("circuit_length", 0, "circuit_length must be >= 1"),
        ("circuit_length", 2.5, "circuit_length must be an integer, got 2.5"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("rounds", 2.5, "rounds must be an integer, got 2.5"),
        ("draws", 2.5, "draws must be an integer, got 2.5"),
    ):
        for strategy, draw_mode in itertools.product(Strategy, DrawMode):
            with pytest.raises(DomainError, match=re.escape(message)):
                SimScenario(strategy=strategy, fraction=0.1, draw_mode=draw_mode, **{field: bad})
    # numpy integers are integers
    counts = {field: np.int64(3) for field in ("rounds", "draws", "seed", "n", "max_hops",
                                               "circuit_length")}
    assert SimScenario(strategy=Strategy.ORIGINAL_TOR, fraction=0.1, **counts).rounds == 3
    for changes, message in (
        ({"bandwidth_max": float("nan")}, "bandwidth_max must be positive and finite, got nan"),
        ({"generator_kind": "er", "generator_value": 1.5}, "er edge probability must be in [0, 1], got 1.5"),
        ({"generator_value": 1.0}, "calibrated circle fraction must be in (0, 1), got 1.0"),
    ):
        with pytest.raises(GeneratorParamsError, match=re.escape(message)):
            SimScenario(strategy=Strategy.ORIGINAL_TOR, fraction=0.1, **changes)
    assert Strategy.from_code("Practical_STOR") is Strategy.PRACTICAL_STOR
    with pytest.raises(DomainError):
        Strategy.from_code("unknown")
    assert CorrelationCase.from_code("best") is CorrelationCase.BEST
    with pytest.raises(DomainError):
        CorrelationCase.from_code("sideways")
    assert DrawMode.from_code("circuit") is DrawMode.CIRCUIT
    with pytest.raises(DomainError):
        DrawMode.from_code("nope")


def test_a_non_integer_source_fails_by_name():
    # at construction, so before build_scenario_graph generates anything
    for bad in (1.5, "1"):
        with pytest.raises(DomainError, match=re.escape("source must be an integer, got %r" % bad)):
            SimScenario(strategy=Strategy.ORIGINAL_TOR, fraction=0.1, n=3, source=bad)


def test_draws_too_large_for_memory_fail_at_construction(monkeypatch):
    import oniontrust.simulation

    # 10^12 picks take TBs, more than any host has; 1000 circuits do not
    message = r"^draws = 1000000000000: .* about \d+ bytes, more than the \d+ bytes of memory$"
    for draw_mode in DrawMode:
        with pytest.raises(DomainError, match=message):
            SimScenario(strategy=Strategy.PRACTICAL_STOR, fraction=0.1, n=30,
                        draws=10**12, draw_mode=draw_mode)
    circuits = SimScenario(strategy=Strategy.PRACTICAL_STOR, fraction=0.1,
                           draws=1000, draw_mode=DrawMode.CIRCUIT)
    assert circuits.draws == 1000
    # a circuit round holds circuit_length picks a draw
    monkeypatch.setattr(oniontrust.simulation, "_memory_bytes", lambda: 100 * _PICK_BYTES)
    SimScenario(strategy=Strategy.PRACTICAL_STOR, fraction=0.1, draws=100)
    with pytest.raises(DomainError, match="^draws = 100: .* about %d bytes" % (300 * _PICK_BYTES)):
        SimScenario(strategy=Strategy.PRACTICAL_STOR, fraction=0.1, draws=100,
                    draw_mode=DrawMode.CIRCUIT)


def test_a_source_outside_the_generated_ids_fails_before_generation(monkeypatch):
    import oniontrust.simulation

    def forbidden(*args, **kwargs):
        raise AssertionError("generated a graph")

    monkeypatch.setattr(oniontrust.simulation, "generate_graph", forbidden)
    scenario = SimScenario(
        strategy=Strategy.PRACTICAL_STOR, fraction=0.2, n=30,
        generator_kind="er", generator_value=0.3, rounds=5, draws=10,
    )
    for source in (0, 31):
        with pytest.raises(UnknownEntityError, match="^unknown source entity %d$" % source):
            build_scenario_graph(dataclasses.replace(scenario, source=source), default_rules())
    # a later n value below the source fails before the first value's graph
    with pytest.raises(UnknownEntityError, match="^unknown source entity 25$"):
        sweep(dataclasses.replace(scenario, source=25), "n", [30, 20], default_rules())


def test_build_scenario_graph_is_ready_to_run():
    scenario = SimScenario(
        strategy=Strategy.PRACTICAL_STOR,
        fraction=0.2,
        n=30,
        generator_kind="er",
        generator_value=0.3,
        rounds=5,
        draws=10,
    )
    g = build_scenario_graph(scenario, default_rules())
    assert g.frozen
    assert len(g) == 30
    assert all(l.trust_value is not None for l in g.links())
    result = run_simulation(g, scenario)
    assert len(result.reports) == 5


def test_sweep_threshold_axis_shrinks_trustworthy_sets():
    scenario = SimScenario(
        strategy=Strategy.PRACTICAL_STOR,
        fraction=0.2,
        n=40,
        generator_kind="er",
        generator_value=0.25,
        rounds=20,
        draws=40,
    )
    result = sweep(scenario, "ts_h", [0.0, 0.02, 0.05], default_rules())
    assert [row.value for row in result.rows] == [0.0, 0.02, 0.05]
    sizes = [row.mean_trustworthy_size for row in result.rows]
    assert sizes[0] >= sizes[1] >= sizes[2]
    # one shared graph: the circle metric cannot move across values
    assert len({row.mean_circle_size for row in result.rows}) == 1
    assert all(row.axis == "ts_h" for row in result.rows)


def test_sweep_counts_trustworthy_cells_reached_through_zero_trust(monkeypatch):
    import oniontrust.simulation

    # A scored cell whose best path has zero trust counts at threshold 0.
    def scored_with_zeros(graph, rules):
        compute_trust_values(graph, rules)
        graph.link_columns().trust[::4] = 0.0

    monkeypatch.setattr(oniontrust.simulation, "compute_trust_values", scored_with_zeros)
    scenario = SimScenario(
        strategy=Strategy.ORIGINAL_TOR,
        fraction=0.2,
        n=40,
        generator_kind="er",
        generator_value=0.1,
        rounds=5,
        draws=20,
    )
    arrays = propagate_arrays(build_scenario_graph(scenario, default_rules()), scenario.max_hops)
    scored = arrays.hops > 0
    assert (scored & (arrays.best == 0.0)).any()
    values = [0.0, float(np.median(arrays.best[scored])), 1.0]
    result = sweep(scenario, "ts_h", values, default_rules())
    for value, row in zip(values, result.rows):
        counts = ((arrays.best >= value) & scored).sum(axis=1)
        assert row.mean_trustworthy_size == float(np.mean(counts))


def test_sweep_fraction_axis_tracks_flag_share():
    scenario = SimScenario(
        strategy=Strategy.OPPORTUNISTIC_TOR,
        fraction=0.1,
        n=40,
        generator_kind="er",
        generator_value=0.3,
        rounds=100,
        draws=200,
    )
    result = sweep(scenario, "fraction", [0.1, 0.3], default_rules())
    r = [row.mean_r_mr for row in result.rows]
    assert abs(r[0] - 0.1) < 0.03
    assert abs(r[1] - 0.3) < 0.03
    assert r[0] < r[1]


def test_sweep_n_axis_regenerates():
    scenario = SimScenario(
        strategy=Strategy.OPPORTUNISTIC_TOR,
        fraction=0.2,
        n=20,
        generator_kind="er",
        generator_value=0.4,
        rounds=10,
        draws=20,
    )
    result = sweep(scenario, "n", [20, 30], default_rules())
    assert result.rows[0].mean_circle_size != result.rows[1].mean_circle_size
    with pytest.raises(DomainError):
        sweep(scenario, "bandwidth", [1.0], default_rules())


def test_an_n_sweep_holds_one_graph_at_a_time(monkeypatch):
    import oniontrust.simulation

    alive = []  # weak references to each graph and its arrays

    def tracked_propagate(graph, max_hops=2):
        arrays = propagate_arrays(graph, max_hops)
        alive.extend([weakref.ref(graph), weakref.ref(arrays)])
        return arrays

    def tracked_build(scenario, rules):
        gc.collect()
        assert [ref() for ref in alive] == [None] * len(alive), "an earlier graph is alive"
        return build_scenario_graph(scenario, rules)

    monkeypatch.setattr(oniontrust.simulation, "propagate_arrays", tracked_propagate)
    monkeypatch.setattr(oniontrust.simulation, "build_scenario_graph", tracked_build)
    scenario = SimScenario(
        strategy=Strategy.PRACTICAL_STOR, fraction=0.2, n=20, generator_kind="er",
        generator_value=0.2, rounds=3, draws=10,
    )
    result = sweep(scenario, "n", [30, 20, 40, 20], default_rules())
    assert len(alive) == 6  # three graphs, the repeated n on the first 20's
    assert [row.value for row in result.rows] == [30.0, 20.0, 40.0, 20.0]
    assert result.results[1].reports == result.results[3].reports


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 40.7])
def test_sweep_n_axis_rejects_non_integral_values(bad):
    scenario = SimScenario(
        strategy=Strategy.OPPORTUNISTIC_TOR,
        fraction=0.2,
        n=20,
        generator_kind="er",
        generator_value=0.4,
        rounds=2,
        draws=5,
    )
    with pytest.raises(DomainError, match="n must be a whole number, got %r" % bad):
        sweep(scenario, "n", [20, bad], default_rules())


@pytest.mark.parametrize(
    "axis, values, message",
    [
        ("omega", [0.0, 0.5, 2.0], "omega must be in [0, 1], got 2.0"),
        ("ts_h", [0.0, 0.01, -0.5], "ts_threshold must be in [0, 1], got -0.5"),
        ("fraction", [0.1, 1.5], "fraction must be in [0, 1], got 1.5"),
        ("n", [20, 30, 0], "n must be >= 1, got 0"),
        ("ts_h", [], "no ts_h values to sweep"),
    ],
)
def test_sweep_validates_every_value_before_running_any(monkeypatch, axis, values, message):
    import oniontrust.simulation

    def no_build(*args, **kwargs):
        raise AssertionError("sweep built a graph before checking every value")

    monkeypatch.setattr(oniontrust.simulation, "build_scenario_graph", no_build)
    scenario = SimScenario(
        strategy=Strategy.PRACTICAL_STOR, fraction=0.2, n=20, generator_kind="er",
        generator_value=0.4, rounds=2, draws=5,
    )
    # n is a generator field, so GeneratorParams rejects it
    error = GeneratorParamsError if axis == "n" else DomainError
    with pytest.raises(error, match=re.escape(message)):
        sweep(scenario, axis, values, default_rules())


@settings(max_examples=100)
@given(scored_graphs(), st.integers(1, 3), st.integers(0, 2**32), st.data())
def test_prepared_rows_match_the_dict_based_references(graph, max_hops, seed, data):
    graph.freeze()
    ids = graph.entity_ids()
    source = data.draw(st.sampled_from(ids))
    arrays = propagate_arrays(graph, max_hops)
    table = heap_search(graph, source, max_hops)
    scored = sorted(score.value for score in table.scores.values())
    omegas = (0.0, 1.0, data.draw(st.floats(0.0, 1.0)))
    # a threshold at a score keeps that score's entities
    thresholds = (0.0, data.draw(st.sampled_from(scored) if scored else TRUST), 0.5)
    for strategy, case, omega, ts_h in itertools.product(
        Strategy, CorrelationCase, omegas, thresholds
    ):
        # ORIGINAL_TOR's fixed flags read the correlated bandwidths too
        fraction = 0.5 if strategy is Strategy.ORIGINAL_TOR else 0.0
        scenario = SimScenario(
            strategy=strategy, fraction=fraction, case=case, omega=omega,
            ts_threshold=ts_h, source=source, max_hops=max_hops, seed=seed,
        )
        bandwidth = reference_correlation(graph, case, table, _stream(seed, _SETUP_KEY))
        try:
            want_ids, want_weights = reference_candidates(
                bandwidth, table, source, scenario.policy
            )
        except EmptyCandidateSetError:
            with pytest.raises(EmptyCandidateSetError):
                _Prepared(graph, [scenario], arrays=arrays)
            continue
        if not want_weights.any():
            # every candidate scores trust 0 at omega 0: no pick is defined
            with pytest.raises(ZeroDenominatorError):
                _Prepared(graph, [scenario], arrays=arrays)
            continue
        prep = _Prepared(graph, [scenario], arrays=arrays)
        (picks,) = prep.picks
        assert [ids[k] for k in picks.cand_idx] == want_ids
        assert picks.weights.tobytes() == want_weights.tobytes()
        assert prep.bw.tobytes() == np.array([bandwidth[eid] for eid in ids]).tobytes()
        assert prep.circle_size == len(table.scores)
        if strategy is Strategy.ORIGINAL_TOR:
            top = sorted(ids, key=lambda eid: (-bandwidth[eid], eid))
            m = _flag_count(fraction, len(ids))
            assert prep.flag_weights is None and picks.m == m
            assert [ids[k] for k in prep.order[:m]] == top[:m]
        trust_aware = strategy.selection_mode is SelectionMode.TRUST_AWARE
        assert picks.trustworthy_size == (len(want_ids) if trust_aware else None)


def test_rounds_build_no_score_objects_and_no_graph_copy(monkeypatch):
    import oniontrust.propagation

    def forbidden(*args, **kwargs):
        raise AssertionError("built a per-pair table")

    scenario = SimScenario(
        strategy=Strategy.PRACTICAL_STOR, fraction=0.1, case=CorrelationCase.BEST,
        n=40, generator_kind="er", generator_value=0.08, rounds=5, draws=40, source=5,
    )
    graph = build_scenario_graph(scenario, default_rules())
    monkeypatch.setattr(TrustArrays, "table", forbidden)
    monkeypatch.setattr(oniontrust.propagation, "TrustScore", forbidden)
    monkeypatch.setattr(oniontrust.propagation, "TrustScoreTable", forbidden)
    for case in CorrelationCase:
        for draw_mode in DrawMode:
            sc = dataclasses.replace(scenario, case=case, draw_mode=draw_mode)
            run_simulation(graph, sc)
    sweep(scenario, "ts_h", [0.0, 0.03], default_rules())
    sweep(dataclasses.replace(scenario, strategy=Strategy.THEORETICAL_STOR,
                              case=CorrelationCase.WORST), "n", [40, 30], default_rules())
