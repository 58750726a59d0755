"""Adversary simulation: flag placement, correlation cases, round metrics."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from scipy import stats

from oniontrust import (
    CorrelationCase,
    DrawMode,
    SimScenario,
    Strategy,
    assign_bandwidth_correlation,
    assign_malicious,
    build_scenario_graph,
    mean_trust_scores,
    propagate,
    run_circuit_rounds,
    run_selection_rounds,
    run_simulation,
    sweep,
)
from oniontrust.errors import (
    DomainError,
    GeneratorParamsError,
    InfeasibleAssignmentError,
    InsufficientCandidatesError,
    UnknownEntityError,
    ZeroDenominatorError,
)
from oniontrust.propagation import propagate_arrays
from oniontrust.simulation import _flag_count

from helpers import default_rules, exact_subset_probability, graph_from_trust_links


def star(n, bandwidths=None, tv=0.5):
    """Source 1 linked to everyone else; frozen."""
    g = graph_from_trust_links(
        [(1, k, tv) for k in range(2, n + 1)], bandwidths=bandwidths
    )
    g.freeze()
    return g


def flagged_ids(graph):
    return {eid for eid in graph.entity_ids() if graph.is_malicious(eid)}


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
    scenario = SimScenario(strategy=Strategy.OPPORTUNISTIC_TOR, fraction=0.3)
    counts = {eid: 0 for eid in g.entity_ids()}
    trials = 2000
    for i in range(trials):
        flagged = flagged_ids(assign_malicious(g, scenario, np.random.default_rng(i)))
        assert len(flagged) == 3
        for eid in flagged:
            counts[eid] += 1
    for eid, c in counts.items():
        assert abs(c / trials - 0.3) < 0.05, eid


def test_original_tor_flags_top_bandwidth():
    bw = {1: 50.0, 2: 90.0, 3: 90.0, 4: 20.0, 5: 90.0, 6: 10.0}
    g = star(6, bandwidths=bw)
    scenario = SimScenario(strategy=Strategy.ORIGINAL_TOR, fraction=0.5)
    for i in range(5):
        flagged = flagged_ids(assign_malicious(g, scenario, np.random.default_rng(i)))
        # bandwidth ties fall back to the lower entity id
        assert flagged == {2, 3, 5}


def test_practical_flags_prefer_poorly_trusted():
    g = graph_from_trust_links([(1, 2, 0.9), (3, 2, 0.9)])
    g.add_entity(4, 1000.0)
    g.freeze()
    weights = {eid: 1.0 - ts for eid, ts in mean_trust_scores(g).items()}
    assert weights == {1: 1.0, 2: pytest.approx(0.4), 3: 1.0, 4: 1.0}
    scenario = SimScenario(strategy=Strategy.PRACTICAL_STOR, fraction=0.25)
    counts = {eid: 0 for eid in g.entity_ids()}
    trials = 3000
    for i in range(trials):
        flagged = flagged_ids(assign_malicious(g, scenario, np.random.default_rng(i)))
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
    scenario = SimScenario(strategy=Strategy.PRACTICAL_STOR, fraction=0.6)
    seen = set()
    for i in range(200):
        flagged = flagged_ids(assign_malicious(g, scenario, np.random.default_rng(i)))
        assert len(flagged) == 3
        assert 5 in flagged
        seen |= flagged
    assert seen == {1, 2, 3, 4, 5}


def test_theoretical_flags_stay_outside_the_circle():
    g = graph_from_trust_links([(1, 2, 0.5), (2, 3, 0.5)])
    for eid in (4, 5, 6):
        g.add_entity(eid, 1000.0)
    g.freeze()
    scenario = SimScenario(strategy=Strategy.THEORETICAL_STOR, fraction=1 / 3)
    for i in range(50):
        flagged = flagged_ids(assign_malicious(g, scenario, np.random.default_rng(i)))
        assert len(flagged) == 2
        assert flagged <= {4, 5, 6}
    too_many = SimScenario(strategy=Strategy.THEORETICAL_STOR, fraction=0.9)
    with pytest.raises(InfeasibleAssignmentError):
        assign_malicious(g, too_many, np.random.default_rng(0))


def correlation_fixture():
    g = graph_from_trust_links(
        [(1, 2, 0.9), (1, 3, 0.7), (1, 4, 0.5)],
        bandwidths={1: 10.0, 2: 20.0, 3: 30.0, 4: 40.0},
    )
    g.add_entity(5, 50.0)
    g.add_entity(6, 60.0)
    scores = propagate(g, 1, max_hops=2)
    return g, scores


def test_best_correlation_hands_trust_the_big_pipes():
    g, scores = correlation_fixture()
    out = assign_bandwidth_correlation(
        g, 1, CorrelationCase.BEST, scores, np.random.default_rng(0)
    )
    assert out.bandwidth(2) == 60.0
    assert out.bandwidth(3) == 50.0
    assert out.bandwidth(4) == 40.0
    assert {out.bandwidth(e) for e in (1, 5, 6)} == {10.0, 20.0, 30.0}
    ts = [scores.value(e) for e in (2, 3, 4)]
    bw = [out.bandwidth(e) for e in (2, 3, 4)]
    assert stats.spearmanr(ts, bw).statistic == 1.0


def test_worst_correlation_starves_the_circle():
    g, scores = correlation_fixture()
    out = assign_bandwidth_correlation(
        g, 1, CorrelationCase.WORST, scores, np.random.default_rng(0)
    )
    assert out.bandwidth(2) == 10.0
    assert out.bandwidth(3) == 20.0
    assert out.bandwidth(4) == 30.0
    assert {out.bandwidth(e) for e in (1, 5, 6)} == {40.0, 50.0, 60.0}
    ts = [scores.value(e) for e in (2, 3, 4)]
    bw = [out.bandwidth(e) for e in (2, 3, 4)]
    assert stats.spearmanr(ts, bw).statistic == -1.0


def test_no_correlation_keeps_the_graph():
    g, scores = correlation_fixture()
    assert assign_bandwidth_correlation(
        g, 1, CorrelationCase.NONE, scores, np.random.default_rng(0)
    ) is g


def test_correlation_preserves_the_bandwidth_multiset():
    g, scores = correlation_fixture()
    want = sorted(g.bandwidth(e) for e in g.entity_ids())
    for case in (CorrelationCase.BEST, CorrelationCase.WORST):
        out = assign_bandwidth_correlation(g, 1, case, scores, np.random.default_rng(3))
        assert sorted(out.bandwidth(e) for e in out.entity_ids()) == want


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
    from oniontrust import SelectionMode, SelectionPolicy, build_candidates, build_circuit

    bw = {1: 5.0}
    bw.update({eid: 10.0 * (eid - 1) for eid in range(2, 8)})
    g = star(7, bandwidths=bw)
    policy = SelectionPolicy(mode=SelectionMode.BANDWIDTH_ONLY, circuit_length=3)
    cands = build_candidates(g, None, 1, policy)
    weights = [c.bandwidth for c in cands.members]
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
    # one propagation per graph: the ts_h axis shares one, the n axis
    # builds one graph per distinct n
    for axis, values, field, graphs in (
        ("ts_h", [0.0, 0.03], "ts_threshold", [40]),
        ("n", [40, 50, 40], "n", [40, 50]),
    ):
        with monkeypatch.context() as patch:
            calls = count_propagations(patch)
            result = sweep(scenario, axis, values, default_rules())
        assert calls == graphs
        for value, point in zip(values, result.results):
            sc = dataclasses.replace(scenario, **{field: value})
            alone = run_simulation(build_scenario_graph(sc, default_rules()), sc)
            assert point.reports == alone.reports
            assert point.circle_size == alone.circle_size
            assert point.trustworthy_size == alone.trustworthy_size


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
    with pytest.raises(DomainError):
        SimScenario(
            strategy=Strategy.ORIGINAL_TOR, fraction=0.1, generator_kind="nope"
        )
    for field in ("n", "max_hops"):
        for bad in (0, -3):
            with pytest.raises(DomainError, match="%s must be >= 1, got %d" % (field, bad)):
                SimScenario(strategy=Strategy.ORIGINAL_TOR, fraction=0.1, **{field: bad})
    # policy, seed and generator fields fail when the scenario is built, in
    # every strategy, not when a graph is run
    for field, bad, message in (
        ("omega", 2.0, "omega must be in [0, 1], got 2.0"),
        ("omega", float("nan"), "omega must be in [0, 1], got nan"),
        ("ts_threshold", -0.5, "ts_threshold must be in [0, 1], got -0.5"),
        ("circuit_length", 0, "circuit_length must be >= 1"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ):
        for strategy in Strategy:
            with pytest.raises(DomainError, match=re.escape(message)):
                SimScenario(strategy=strategy, fraction=0.1, **{field: bad})
    for changes, message in (
        ({"bandwidth_max": float("nan")}, "bandwidth_max must be positive and finite, got nan"),
        ({"generator_kind": "er", "generator_value": 1.5}, "edge_prob must be in [0, 1], got 1.5"),
        ({"generator_value": 1.0}, "target_circle_fraction must be in (0, 1), got 1.0"),
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
    with pytest.raises(DomainError, match=re.escape(message)):
        sweep(scenario, axis, values, default_rules())
