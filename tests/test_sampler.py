"""The weighted sampler against the exact sequential law and its float corners.

Every router, circuit and round of circuits is drawn by `weighted_picks`, so
its law is checked here against exhaustive enumeration, its guards (no
zero-weight pick, no repeat) against random and adversarial weights, and its
indexed search index for index against the binary search it replaced. Every
random flag placement is the keyed draw `_weighted_draw` of a block of
rounds, whose subset law is checked the same way and whose rows are checked
against the 1-D draw of one round.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from oniontrust import (
    SelectionMode,
    SelectionPolicy,
    SimScenario,
    Strategy,
    build_candidates,
    propagate,
    run_selection_rounds,
    select_router,
)
from oniontrust.errors import (
    DomainError,
    InsufficientCandidatesError,
    ZeroDenominatorError,
)
from oniontrust.selection import weighted_picks
from oniontrust.simulation import _flag_keys, _Prepared, _ROUND_KEY, _weighted_draw

from helpers import (
    exact_order_probability,
    exact_subset_probability,
    graph_from_trust_links,
    reference_picks,
    reference_weighted_draw,
)

PROPERTY = settings(max_examples=300)


def picks(weights, rng, draws, length):
    w = np.asarray(weights, dtype=float)
    return weighted_picks(w, rng.random((draws, length)))


def assert_valid(weights, rows):
    w = np.asarray(weights, dtype=float)
    assert ((rows >= 0) & (rows < len(w))).all()
    assert (w[rows] > 0.0).all()
    for row in rows.tolist():
        assert len(set(row)) == len(row)


# -- law ------------------------------------------------------------------------

LAW_CASES = [
    [0.0, 3.0, 0.0, 1.0, 2.0, 4.0, 0.0],  # zeros at both ends and inside
    [1e6, 1.0, 0.0, 2.0, 3.0],  # one weight dwarfs the rest
    [0.5, 0.25, 0.125, 0.0625, 0.0625],
]


@pytest.mark.parametrize("weights", LAW_CASES)
@pytest.mark.parametrize("length", [1, 2, 3])
def test_picks_follow_the_sequential_law(weights, length):
    support = [k for k, w in enumerate(weights) if w > 0.0]
    orders = list(itertools.permutations(support, length))
    probs = np.array([exact_order_probability(weights, o) for o in orders])
    assert probs.sum() == pytest.approx(1.0)
    draws = 60_000
    rows = picks(weights, np.random.default_rng(100 + length), draws, length)
    index = {o: k for k, o in enumerate(orders)}
    counts = np.zeros(len(orders))
    for row in map(tuple, rows.tolist()):
        counts[index[row]] += 1  # a KeyError here is a pick off the support
    # Cells with an expected count below 5 are pooled, and a pool that is
    # still below 5 joins the largest cell.
    expected = probs * draws
    small = expected < 5.0
    obs, exp = list(counts[~small]), list(expected[~small])
    pooled_obs, pooled_exp = counts[small].sum(), expected[small].sum()
    if pooled_exp >= 5.0:
        obs.append(pooled_obs)
        exp.append(pooled_exp)
    elif small.any():
        top = int(np.argmax(exp))
        obs[top] += pooled_obs
        exp[top] += pooled_exp
    if len(obs) == 1:
        assert obs[0] == draws
        return
    _, pvalue = stats.chisquare(obs, exp)
    assert pvalue > 0.001


# -- guards ---------------------------------------------------------------------

WEIGHT = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 1e6, 1e-16, 5e-324]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


@PROPERTY
@given(
    weights=st.lists(WEIGHT, min_size=1, max_size=12),
    length=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_picks_are_distinct_positive_and_in_range(weights, length, seed):
    assume(sum(w > 0.0 for w in weights) >= length)
    rows = picks(weights, np.random.default_rng(seed), 40, length)
    assert rows.shape == (40, length)
    assert_valid(weights, rows)


class TopOfUnitInterval:
    """Stands in for a Generator whose every uniform is the largest double below 1."""

    TOP = np.nextafter(1.0, 0.0)

    def random(self, size=None):
        if size is None:
            return self.TOP
        return np.full(size, self.TOP)


CORNER_CASES = [
    [0.1] * 10 + [0.0],  # pairwise total 1.0 above the running sum
    [0.1] * 10 + [0.0, 0.0, 0.0],
    [0.0, 0.3, 0.0, 0.6, 0.1, 0.0],
    [1.0, 1e-16, 1e-16],  # the tiny weights vanish into the total
    [1e6, 1e-10, 1e-10, 0.0],
]


@pytest.mark.parametrize("weights", CORNER_CASES)
def test_top_of_the_unit_interval_never_lands_on_zero_or_repeats(weights):
    positive = sum(w > 0.0 for w in weights)
    for length in range(1, min(positive, 4) + 1):
        rows = picks(weights, TopOfUnitInterval(), 3, length)
        assert_valid(weights, rows)


def test_the_corner_is_reached():
    # Without the guard the first case above would pick its zero weight:
    # the draw passes the last cumulative value.
    w = np.array(CORNER_CASES[0])
    cum = np.cumsum(w)
    assert np.searchsorted(cum, TopOfUnitInterval.TOP * w.sum(), side="right") == len(w)
    assert picks(w, TopOfUnitInterval(), 1, 1)[0, 0] == 9


def test_sampler_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(InsufficientCandidatesError):
        picks([1.0, 2.0], rng, 1, 3)
    with pytest.raises(ZeroDenominatorError):
        picks([0.0, 0.0], rng, 1, 1)
    with pytest.raises(ZeroDenominatorError):
        picks([1.0, 0.0, 2.0], rng, 1, 3)
    for bad in ([1.0, -0.5, 2.0], [1.0, float("nan")], [1.0, float("inf")]):
        with pytest.raises(DomainError):
            picks(bad, rng, 1, 1)


# -- search oracle --------------------------------------------------------------

HUGE = np.finfo(float).max / 2  # two of them sum to exactly the largest double
SPIKE_TINY = st.sampled_from([1e-6, 1e-16, 5e-324, 0.0])


def landing_uniforms(weights):
    """Uniforms u < 1 with u * total exactly equal to a cum entry."""
    cum, total = np.cumsum(weights), weights.sum()
    out = []
    for c in cum:
        t = c / total
        for u in (t, np.nextafter(t, 0.0), np.nextafter(t, 1.0)):
            if u < 1.0 and u * total == c:
                out.append(u)
                break
    return out


@st.composite
def search_cases(draw):
    """(weights, u): valid sampler inputs over the float corners.

    Weights mix zeros, subnormals and ordinary values, sum to near the top
    of the double range, or hold one huge weight among many tiny ones. The
    uniforms are random, with some entries replaced by 0, the top of the
    unit interval, or a value that lands a first pick exactly on a cum
    entry.
    """
    shape = draw(st.sampled_from(["mixed", "huge", "spike"]))
    if shape == "mixed":
        weights = draw(st.lists(WEIGHT, min_size=1, max_size=40))
    elif shape == "huge":
        n = draw(st.integers(1, 40))
        fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        weights = [f * 1.999 * HUGE / n for f in fractions]  # total stays finite
    else:
        tiny = [draw(SPIKE_TINY)] * draw(st.integers(1, 799))
        spot = draw(st.integers(0, len(tiny)))
        weights = tiny[:spot] + [draw(st.sampled_from([1.0, 1e6]))] + tiny[spot:]
    weights = np.array(weights)
    positive = np.count_nonzero(weights)
    assume(positive >= 1)
    length = draw(st.integers(1, min(4, positive)))
    rows = draw(st.sampled_from([0, 1, 3, 200]))
    u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((rows, length))
    if rows:
        special = [0.0, TopOfUnitInterval.TOP] + landing_uniforms(weights)
        for cell, pick in draw(
            st.lists(st.tuples(st.integers(0, u.size - 1), st.sampled_from(special)))
        ):
            u.flat[cell] = pick
    return weights, u


@PROPERTY
@given(case=search_cases())
@example(case=(np.array([5e-324, 0.0, 5e-324, 5e-324]), np.array([[0.5, 0.0], [0.99, 0.6]])))
@example(case=(np.array([HUGE, 0.0, HUGE]), np.array([[0.5, 0.5], [TopOfUnitInterval.TOP] * 2])))
@example(case=(np.array([1.0, 0.0, 1.0, 2.0, 4.0]), np.array([[0.0], [0.125], [0.25], [0.5]])))
def test_indexed_search_equals_the_binary_search(case):
    weights, u = case
    np.testing.assert_array_equal(weighted_picks(weights, u), reference_picks(weights, u))


# -- keyed flag draw ------------------------------------------------------------


def exact_flag_law(weights, m):
    """Chance of each m-subset under _weighted_draw's law: sequential picks
    while positive weights last, then a uniform subset of the zero rows."""
    positive = {k for k, w in enumerate(weights) if w > 0.0}
    zeros = len(weights) - len(positive)
    law = {}
    for subset in itertools.combinations(range(len(weights)), m):
        if len(positive) >= m:
            p = exact_subset_probability(weights, subset) if set(subset) <= positive else 0.0
        else:
            p = 1.0 / math.comb(zeros, m - len(positive)) if positive <= set(subset) else 0.0
        law[subset] = p
    return law


@pytest.mark.parametrize(
    "weights, m",
    [
        ([0.0, 3.0, 1.0, 0.5, 2.0], 2),  # a zero, four positive weights
        ([0.25, 4.0, 0.0, 1.0, 0.5], 3),
        ([1.0, 1.0, 1.0, 1.0, 1.0], 2),  # uniform, as OPPORTUNISTIC_TOR weighs
        ([0.0, 2.0, 0.0, 0.5, 0.0], 3),  # fewer positive weights than m
        ([0.0, 0.0, 0.0, 0.0, 0.0], 2),  # no positive weight at all
    ],
)
def test_keyed_draw_follows_the_exact_subset_law(weights, m):
    law = exact_flag_law(weights, m)
    assert sum(law.values()) == pytest.approx(1.0)
    rng = np.random.default_rng(500 + m)
    draws = 20_000
    counts = dict.fromkeys(law, 0)
    w = np.array(weights)
    # one block of 20,000 rounds, each keyed off its own row of uniforms
    for rows in _weighted_draw(_flag_keys(w, rng.random((draws, len(w)))), m).tolist():
        counts[tuple(sorted(rows))] += 1
    support = [s for s, p in law.items() if p > 0.0]
    assert sum(counts[s] for s in support) == draws  # nothing off the support
    obs = [counts[s] for s in support]
    exp = [law[s] * draws for s in support]
    if len(support) > 1:
        _, pvalue = stats.chisquare(obs, exp)
        assert pvalue > 0.001


@st.composite
def flag_draw_cases(draw):
    """(weights, m, seed): weights with zeros, subnormals, huge values or
    none positive at all, and any m from 1 to n."""
    n = draw(st.integers(1, 12))
    value = st.one_of(
        st.just(0.0), st.just(5e-324), st.just(1e-310),
        st.floats(1e-300, 1e300), st.floats(0.0, 1.0),
    )
    weights = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    return weights, draw(st.integers(1, n)), draw(st.integers(0, 2**32))


@settings(max_examples=400)
@given(case=flag_draw_cases(), rounds=st.integers(1, 6))
@example(case=(np.zeros(4), 2, 3), rounds=3)
@example(case=(np.array([5e-324, 0.0, 5e-324, 1.0, 0.0]), 4, 9), rounds=4)
@example(case=(np.array([0.5, 2.0, 0.0]), 3, 1), rounds=2)
@example(case=(np.array([0.0, 1.0]), 1, 5), rounds=5)
def test_block_draw_flags_each_round_as_the_one_round_draw(case, rounds):
    # Each row of a block draw flags the set the 1-D draw flags from the
    # same stream, so the rounds of a block keep their masks.
    weights, m, seed = case
    rng = np.random.default_rng(seed)
    block = _weighted_draw(_flag_keys(weights, rng.random((rounds, len(weights)))), m)
    assert block.shape == (rounds, m)
    want = np.random.default_rng(seed)
    for row in block.tolist():
        with np.errstate(over="ignore"):  # 1 / w of a subnormal w
            one = reference_weighted_draw(weights, m, want)
        assert sorted(row) == sorted(one.tolist())


# -- select-mode bytes ------------------------------------------------------------


def reference_pick(cum, total, w, u):
    """Single draw as select mode has always made it."""
    k = min(int(np.searchsorted(cum, u * total, side="right")), len(cum) - 1)
    while w[k] == 0.0:
        k -= 1
    return k


def test_select_router_matches_the_cumsum_formula_bit_for_bit():
    scores = {2: 0.9, 3: 0.0, 4: 0.35, 5: 0.05, 6: 0.7, 7: 0.0}
    g = graph_from_trust_links(
        [(1, k, tv) for k, tv in scores.items()],
        bandwidths={k: 100.0 * k for k in range(1, 8)},
    )
    table = propagate(g, 1, 2)
    for policy in (
        SelectionPolicy(omega=0.0),
        SelectionPolicy(omega=0.4),
        SelectionPolicy(mode=SelectionMode.BANDWIDTH_ONLY),
    ):
        cands = build_candidates(g, table, 1, policy)
        w = cands.weights(policy)
        cum, total = np.cumsum(w), w.sum()
        got = np.random.default_rng(17)
        want = np.random.default_rng(17)
        for _ in range(2000):
            k = reference_pick(cum, total, w, want.random())
            assert select_router(cands, policy, got) == cands.ids()[k]


@pytest.mark.parametrize(
    "strategy", [Strategy.PRACTICAL_STOR, Strategy.OPPORTUNISTIC_TOR]
)
def test_selection_rounds_match_the_cumsum_formula_bit_for_bit(strategy):
    trust = [0.9, 0.0, 0.35, 0.05, 0.7, 0.0, 0.2, 0.6, 0.1, 0.45, 0.3]
    g = graph_from_trust_links(
        [(1, k + 2, tv) for k, tv in enumerate(trust)],
        bandwidths={k: 37.0 * k for k in range(1, len(trust) + 2)},
    )
    g.freeze()
    scenario = SimScenario(
        strategy=strategy, fraction=0.25, rounds=30, draws=400, seed=3, omega=0.2
    )
    result = run_selection_rounds(g, scenario)
    prep = _Prepared(g, [scenario])
    (picks,) = prep.picks
    w = picks.weights
    cum, total = np.cumsum(w), w.sum()
    flag_rng, draw_rng = (
        np.random.default_rng(np.random.SeedSequence(scenario.seed, spawn_key=(_ROUND_KEY, child)))
        for child in (0, 1)
    )
    assert len(result.reports) == scenario.rounds
    for report in result.reports:
        u = flag_rng.random((1, len(prep.ids)))
        flags = np.zeros(len(prep.ids), dtype=bool)
        flags[_weighted_draw(_flag_keys(prep.flag_weights, u), picks.m)] = True
        sel = np.searchsorted(cum, draw_rng.random(scenario.draws) * total, side="right")
        np.clip(sel, 0, len(cum) - 1, out=sel)
        picked = picks.cand_idx[sel]
        assert report.r_mr == float(flags[picked].mean())
        assert report.avg_bandwidth == float(prep.bw[picked].mean())
        assert report.r_mc is None
