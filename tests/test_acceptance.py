"""Acceptance suite: one test per shipping criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test also stands alone as a plain pytest assertion.
"""

import dataclasses
import itertools
import time

import numpy as np
from scipy import stats

from oniontrust import (
    CorrelationCase,
    DrawMode,
    SelectionPolicy,
    SimScenario,
    Strategy,
    TrustScore,
    TrustScoreTable,
    ValueClass,
    build_candidates,
    build_scenario_graph,
    mean_trust_scores,
    propagate,
    propagate_all,
    run_simulation,
    select_router,
    selection_probability,
    sweep,
    trust_value,
)
from oniontrust.cli import main
from oniontrust.fuzzy import (
    DENSITY,
    FuzzyRuleSet,
    Rule,
    defuzzify,
    output_membership,
    rule_trust_value,
    truncated_moment_and_mass,
)

from helpers import (
    default_rules,
    graph_from_trust_links,
    enumerate_best_paths,
    quad_truncated,
    quad_trust_value,
    random_trust_graph,
)


def verdict(number, label, fn):
    try:
        fn()
    except AssertionError:
        print("FAIL  criterion %d: %s" % (number, label))
        raise
    print("PASS  criterion %d: %s" % (number, label))


# -- shared large graph for the adversary criteria ------------------------------

_SHARED = {}


def shared_graph():
    """Default n=500 scenario graph plus its propagation tables, built once."""
    if not _SHARED:
        scenario = SimScenario(
            strategy=Strategy.OPPORTUNISTIC_TOR, fraction=0.05, n=500, seed=0
        )
        graph = build_scenario_graph(scenario, default_rules())
        tables = propagate_all(graph, scenario.max_hops)
        _SHARED["graph"] = graph
        _SHARED["mean_trust"] = mean_trust_scores(graph, tables=tables)
    return _SHARED["graph"], _SHARED["mean_trust"]


def test_criterion_1_worked_profile():
    def check():
        rules = default_rules()
        classes = {
            "Major": ValueClass.POSITIVE,
            "Relationship": ValueClass.POSITIVE,
        }
        trust_value(0.75, classes, rules)  # warm up
        start = time.perf_counter()
        value = trust_value(0.75, classes, rules)
        elapsed = time.perf_counter() - start
        assert abs(value - 0.83125) < 1e-3
        assert elapsed < 0.001

    verdict(1, "worked profile scores 0.83125 in under a millisecond", check)


def test_criterion_2_closed_forms_match_quadrature():
    def check():
        rng = np.random.default_rng(20240201)
        worst = 0.0
        for rule in Rule:
            for e in rng.random(1000):
                e = float(e)
                mp, mass = truncated_moment_and_mass(rule, e)
                q_mp, q_mass = quad_truncated(rule, e)
                worst = max(
                    worst,
                    abs(mp - q_mp),
                    abs(mass - q_mass),
                    abs(rule_trust_value(rule, e) - quad_trust_value([rule], e)),
                )
        assert worst < 1e-9, worst
        for rule, constant in (
            (Rule.LARGE, 0.75),
            (Rule.MEDIUM, 0.5),
            (Rule.SMALL, 0.25),
        ):
            for e in rng.random(50):
                assert abs(rule_trust_value(rule, float(e)) - constant) < 1e-12

    verdict(2, "closed forms track quadrature to 1e-9, constants to 1e-12", check)


def test_criterion_3_mass_balance():
    def check():
        from scipy.integrate import quad

        for q in (1, 2, 3, 4, 5):
            area, _ = quad(
                lambda t: output_membership(q, t), 0.0, 1.0,
                points=[0.25, 0.5, 0.75], limit=200, epsabs=1e-14,
            )
            assert abs(DENSITY[q] * area - 0.25) < 1e-12

    verdict(3, "every output class carries mass 0.25 after density weighting", check)


def _random_config(rng):
    positives = (Rule.LARGEST, Rule.LARGE)
    negatives = (Rule.SMALL, Rule.SMALLEST)
    n_attrs = int(rng.integers(1, 5))
    qualitative = {}
    classes = {}
    for k in range(n_attrs):
        name = "attr%d" % k
        qualitative[name] = (
            positives[int(rng.integers(2))],
            negatives[int(rng.integers(2))],
        )
        classes[name] = list(ValueClass)[int(rng.integers(3))]
    rules = FuzzyRuleSet(qualitative=qualitative, weights={"x": 1.0})
    return rules, classes


def test_criterion_4_monotonicity():
    def check():
        rng = np.random.default_rng(77001)
        violations = 0
        for _ in range(10_000):
            rules, classes = _random_config(rng)
            e1, e2 = sorted(rng.random(2))
            v1 = trust_value(e1, classes, rules)
            v2 = trust_value(e2, classes, rules)
            if v2 < v1 - 1e-12:
                violations += 1
        assert violations == 0

    verdict(4, "trust values never decrease in aggregate strength (10k pairs)", check)


def test_criterion_5_propagation_oracle():
    def check():
        rng = np.random.default_rng(424242)
        for _ in range(100):
            g = random_trust_graph(rng, max_nodes=10, max_links=30)
            bound = len(g)
            for source in g.entity_ids():
                table = propagate(g, source, max_hops=bound)
                want = enumerate_best_paths(g, source, bound)
                assert set(table.targets()) == set(want)
                for target, (value, _, _) in want.items():
                    assert table.get(target).value == value
        chain = graph_from_trust_links(
            [(1, 2, 0.9), (2, 3, 0.9), (3, 4, 0.8), (1, 4, 0.5)]
        )
        score = propagate(chain, 1, max_hops=3).get(4)
        assert abs(score.value - 0.648) < 1e-12
        assert score.path == (1, 2, 3, 4)

    verdict(5, "scores equal exhaustive path enumeration; chain fixture is 0.648", check)


def test_criterion_6_selection_law_chi_square():
    def check():
        rng = np.random.default_rng(600)
        draws_per_set = 2000
        for _ in range(50):
            size = int(rng.integers(3, 13))
            ids = list(range(2, 2 + size))
            ts = {i: float(rng.uniform(0.1, 1.0)) for i in ids}
            bw = {i: float(rng.uniform(100.0, 1000.0)) for i in ids}
            bw[1] = 10.0
            g = graph_from_trust_links(
                [(1, i, 0.5) for i in ids], bandwidths=bw
            )
            table = TrustScoreTable(
                1, {i: TrustScore(ts[i], 1) for i in ids}
            )
            policy = SelectionPolicy(omega=float(rng.uniform(0.0, 1.0)))
            cands = build_candidates(g, table, 1, policy)
            probs = np.array(
                [selection_probability(cands, policy, i) for i in ids]
            )
            counts = np.zeros(size)
            for _ in range(draws_per_set):
                counts[select_router(cands, policy, rng) - 2] += 1
            _, pvalue = stats.chisquare(counts, probs * draws_per_set)
            assert pvalue > 0.001

    verdict(6, "100k draws over 50 candidate sets pass chi-square at 0.001", check)


def test_criterion_7_adversary_baselines():
    def check():
        start = time.perf_counter()
        graph, mean_trust = shared_graph()
        for fraction in (0.05, 0.10, 0.15, 0.20):
            scenario = SimScenario(
                strategy=Strategy.OPPORTUNISTIC_TOR,
                fraction=fraction,
                rounds=1000,
                draws=1000,
                n=500,
                seed=0,
            )
            result = run_simulation(graph, scenario, mean_trust)
            assert abs(result.mean_r_mr - fraction) < 0.02, fraction
        theoretical = SimScenario(
            strategy=Strategy.THEORETICAL_STOR,
            fraction=0.10,
            rounds=1000,
            draws=1000,
            n=500,
            seed=0,
            draw_mode=DrawMode.CIRCUIT,
        )
        result = run_simulation(graph, theoretical, mean_trust)
        assert result.mean_r_mr == 0.0
        assert result.mean_r_mc == 0.0
        assert time.perf_counter() - start < 60.0

    verdict(7, "uniform flags hit at their fraction; circle-avoiding flags never", check)


def test_criterion_8_strategy_and_threshold_trends():
    def check():
        graph, mean_trust = shared_graph()
        base = dict(fraction=0.20, rounds=1000, draws=1000, n=500, seed=0)
        means = {}
        for strategy in (
            Strategy.PRACTICAL_STOR,
            Strategy.OPPORTUNISTIC_TOR,
            Strategy.ORIGINAL_TOR,
        ):
            scenario = SimScenario(strategy=strategy, **base)
            means[strategy] = run_simulation(graph, scenario, mean_trust).mean_r_mr
        assert (
            means[Strategy.PRACTICAL_STOR]
            < means[Strategy.OPPORTUNISTIC_TOR]
            < means[Strategy.ORIGINAL_TOR]
        ), means

        practical = SimScenario(strategy=Strategy.PRACTICAL_STOR, **base)
        thresholds = [0.0, 0.01, 0.02, 0.035]
        swept = sweep(practical, "ts_h", thresholds, default_rules())
        r_mr = [row.mean_r_mr for row in swept.rows]
        sizes = [row.mean_trustworthy_size for row in swept.rows]
        for a, b in zip(r_mr, r_mr[1:]):
            assert b <= a + 1e-12, r_mr
        for a, b in zip(sizes, sizes[1:]):
            assert b <= a, sizes

        worst = dataclasses.replace(practical, case=CorrelationCase.WORST)
        ends = sweep(worst, "omega", [0.0, 1.0], default_rules())
        assert ends.rows[1].mean_r_mr > ends.rows[0].mean_r_mr, ends.rows

    verdict(
        8,
        "strategy ordering, threshold monotonicity and worst-case omega trend",
        check,
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    def check():
        scenario_path = tmp_path / "scenario.txt"
        scenario_path.write_text(
            "strategy = practical_stor\nfraction = 0.2\nn = 80\n"
            "generator = er:0.1\nrounds = 50\ndraws = 100\n"
            "draw_mode = circuit\nomega = 0.3\n",
            encoding="utf-8",
        )
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(
                ["simulate", str(scenario_path), "--out", str(out), "--quiet"]
            ) == 0
        for name in ("rounds.csv", "cdf_r_mr.csv", "cdf_r_mc.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        for out in (a, b):
            assert main(
                ["sweep", str(scenario_path), "--axis", "fraction",
                 "--values", "0.1,0.2", "--out", str(out), "--quiet"]
            ) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    verdict(9, "same seed, same bytes in every CSV", check)
