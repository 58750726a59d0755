"""Fuzzy engine tests: memberships, closed forms, defuzzification."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oniontrust import (
    AttributeProfile,
    FriendLink,
    FuzzyRuleSet,
    GeneratorParams,
    Rule,
    SocialGraph,
    ValueClass,
    aggregate,
    compute_trust_values,
    generate_graph,
    link_trust,
    parse_rules,
    trust_value,
)
from oniontrust.errors import (
    DomainError,
    EmptyAssignmentError,
    MissingAttributeError,
    OnionTrustError,
    UnknownRuleError,
    WeightSumError,
    ZeroNormalizerError,
)
from oniontrust import fuzzy
from oniontrust.fuzzy import (
    DENSITY,
    defuzzify,
    input_grade,
    output_membership,
    rule_trust_value,
    truncated_moment_and_mass,
)
from oniontrust.graph import _LINK_ARRAYS

from helpers import (
    default_rules,
    profiled_graphs,
    quad_truncated,
    quad_trust_value,
    reference_trust_values,
    scalar_trust_values,
)


def test_output_membership_shapes():
    # peaks sit at 1, 0.75, 0.5, 0.25, 0 and supports are a quarter wide
    assert output_membership(1, 1.0) == 1.0
    assert output_membership(2, 0.75) == 1.0
    assert output_membership(3, 0.5) == 1.0
    assert output_membership(4, 0.25) == 1.0
    assert output_membership(5, 0.0) == 1.0
    assert output_membership(1, 0.74) == 0.0
    assert output_membership(3, 0.25) == 0.0
    assert output_membership(3, 0.375) == pytest.approx(0.5)
    assert output_membership(5, 0.25) == 0.0
    with pytest.raises(DomainError):
        output_membership(6, 0.5)


def test_input_grades():
    assert input_grade(ValueClass.POSITIVE, 0.3) == 0.3
    assert input_grade(ValueClass.NEGATIVE, 0.3) == 0.7
    assert input_grade(ValueClass.NEUTRAL, 0.3) == 0.3
    assert input_grade(ValueClass.NEUTRAL, 0.8) == pytest.approx(0.2)
    with pytest.raises(DomainError):
        input_grade(ValueClass.POSITIVE, 1.5)


def test_mass_balance_exact():
    # density * area must be 1/4 for every output class; the memberships are
    # piecewise linear so the trapezoid rule on each segment is exact
    from oniontrust.fuzzy import _OUTPUT_SEGMENTS

    for q, segments in _OUTPUT_SEGMENTS.items():
        area = sum(
            (hi - lo)
            * (output_membership(q, lo) + output_membership(q, hi))
            / 2.0
            for lo, hi, _, _ in segments
        )
        assert abs(DENSITY[q] * area - 0.25) < 1e-12


def test_closed_forms_match_quadrature():
    rng = np.random.default_rng(101)
    for rule in Rule:
        for e in [0.0, 0.25, 0.5, 0.75, 1.0, *rng.random(25)]:
            mp, m = truncated_moment_and_mass(rule, float(e))
            mp_q, m_q = quad_truncated(rule, float(e))
            assert mp == pytest.approx(mp_q, abs=1e-9)
            assert m == pytest.approx(m_q, abs=1e-9)


def test_frozen_masses_at_075():
    assert truncated_moment_and_mass(Rule.LARGE, 0.75) == (0.17578125, 0.234375)
    mp, m = truncated_moment_and_mass(Rule.LARGEST, 0.75)
    assert mp == pytest.approx(0.2138671875, abs=1e-15)
    assert m == pytest.approx(0.234375, abs=1e-15)


def test_single_rule_constants():
    rng = np.random.default_rng(5)
    for e in rng.uniform(0.01, 0.99, size=50):
        assert rule_trust_value(Rule.LARGE, float(e)) == pytest.approx(0.75, abs=1e-12)
        assert rule_trust_value(Rule.MEDIUM, float(e)) == pytest.approx(0.5, abs=1e-12)
        assert rule_trust_value(Rule.SMALL, float(e)) == pytest.approx(0.25, abs=1e-12)


def test_outer_rule_formulas():
    # the two half-triangle rules drift with the aggregate
    for e in (0.1, 0.4, 0.9):
        expected = (e * e + 9 * e - 21) / (12 * (e - 2))
        assert rule_trust_value(Rule.LARGEST, e) == pytest.approx(expected, abs=1e-12)
        expected = (e * e + e + 1) / (12 * (e + 1))
        assert rule_trust_value(Rule.SMALLEST, e) == pytest.approx(expected, abs=1e-12)
    assert rule_trust_value(Rule.LARGEST, 1.0) == pytest.approx(11 / 12, abs=1e-12)


def test_degenerate_zero_mass_limits():
    # at e = 0 (or 1) with only positive-side (negative-side) rules every mass
    # vanishes; the value must be the one-sided limit, continuously
    assert rule_trust_value(Rule.LARGEST, 0.0) == pytest.approx(21 / 24, abs=1e-12)
    assert rule_trust_value(Rule.LARGE, 0.0) == pytest.approx(0.75, abs=1e-12)
    assert rule_trust_value(Rule.SMALLEST, 1.0) == pytest.approx(1 / 8, abs=1e-12)
    assert rule_trust_value(Rule.SMALL, 1.0) == pytest.approx(0.25, abs=1e-12)
    for rules, at in [
        ([Rule.LARGEST, Rule.LARGE], 0.0),
        ([Rule.MEDIUM, Rule.LARGEST], 0.0),
        ([Rule.SMALL, Rule.SMALLEST], 1.0),
        ([Rule.MEDIUM, Rule.SMALLEST], 1.0),
    ]:
        limit = defuzzify(rules, at)
        near = defuzzify(rules, abs(at - 1e-9))
        assert limit == pytest.approx(near, abs=1e-6)


def test_defuzzify_matches_quadrature_for_mixes():
    rng = np.random.default_rng(77)
    rules_pool = list(Rule)
    for _ in range(40):
        k = int(rng.integers(1, 5))
        rules = [rules_pool[int(i)] for i in rng.integers(0, 5, size=k)]
        e = float(rng.uniform(0.01, 0.99))
        assert defuzzify(rules, e) == pytest.approx(
            quad_trust_value(rules, e), abs=1e-9
        )


def test_defuzzify_needs_a_rule():
    with pytest.raises(EmptyAssignmentError):
        defuzzify([], 0.5)


def test_defuzzify_names_what_is_not_a_rule():
    # a rule's code is not the rule itself
    with pytest.raises(UnknownRuleError, match=re.escape("not a rule: '1i'")):
        defuzzify(["1i"], 0.5)


def test_defuzzify_monotone_in_aggregate():
    rng = np.random.default_rng(3)
    rules_pool = list(Rule)
    for _ in range(2000):
        k = int(rng.integers(1, 5))
        rules = [rules_pool[int(i)] for i in rng.integers(0, 5, size=k)]
        e1, e2 = sorted(rng.random(2))
        assert defuzzify(rules, float(e2)) >= defuzzify(rules, float(e1)) - 1e-12


def test_trust_ordering_across_rules():
    rng = np.random.default_rng(13)
    for e in rng.uniform(0.01, 0.99, size=20):
        values = [rule_trust_value(rule, float(e)) for rule in Rule]
        assert values == sorted(values, reverse=True)
        assert values[0] >= 0.75 >= values[2] == 0.5 >= values[4]


def test_worked_profiles():
    rules = default_rules()
    positive = {"Major": ValueClass.POSITIVE, "Relationship": ValueClass.POSITIVE}
    assert trust_value(0.75, positive, rules) == pytest.approx(0.83125, abs=1e-9)
    # neutral major + negative relationship lands low
    stranger = {"Major": ValueClass.NEUTRAL, "Relationship": ValueClass.NEGATIVE}
    assert trust_value(0.75, stranger, rules) == pytest.approx(
        0.3050595238095238, abs=1e-12
    )


def test_aggregate_weighted_normalized():
    weights = {"freq": 0.5, "time": 0.5}
    e = aggregate({"freq": 3.0, "time": 2.0}, {"freq": 4.0, "time": 4.0}, weights)
    assert e == pytest.approx(0.625, abs=1e-15)
    assert aggregate({"freq": 4.0, "time": 4.0}, {"freq": 4.0, "time": 4.0}, weights) == 1.0


def test_aggregate_errors():
    weights = {"freq": 1.0}
    with pytest.raises(MissingAttributeError):
        aggregate({}, {"freq": 4.0}, weights)
    with pytest.raises(MissingAttributeError):
        aggregate({"freq": 1.0}, {}, weights)
    with pytest.raises(ZeroNormalizerError):
        aggregate({"freq": 1.0}, {"freq": 0.0}, weights)
    with pytest.raises(DomainError):
        aggregate({"freq": 5.0}, {"freq": 4.0}, weights)
    nan, inf = float("nan"), float("inf")
    # Non-finite numbers are rejected by name, never folded into e = 0.0.
    for raw, top, message in (
        (nan, 4.0, "attribute 'freq' = nan outside [0, 4.0]"),
        (inf, 4.0, "attribute 'freq' = inf outside [0, 4.0]"),
        (1.0, nan, "normalizer for 'freq' is nan; must be finite"),
        (1.0, inf, "normalizer for 'freq' is inf; must be finite"),
        (inf, inf, "normalizer for 'freq' is inf; must be finite"),
    ):
        with pytest.raises(DomainError, match=re.escape(message)):
            aggregate({"freq": raw}, {"freq": top}, weights)
    # Through the graph the message also names the link.
    for bad, message in (
        (nan, "link 1->3 network 2: attribute 'freq' = nan outside [0, 1.0]"),
        # an infinite value poisons its source's normalizer, so link 1->2 fails first
        (inf, "link 1->2 network 2: normalizer for 'freq' is inf; must be finite"),
    ):
        graph = SocialGraph()
        for eid in (1, 2, 3):
            graph.add_entity(eid, 10.0)
        for target, value in ((2, 1.0), (3, bad)):
            profile = AttributeProfile({"freq": value, "time": 1.0},
                                       {"Major": ValueClass.POSITIVE})
            graph.add_link(FriendLink(1, target, 2, profile))
        with pytest.raises(DomainError, match=re.escape(message)):
            compute_trust_values(graph, default_rules())


def _profile_graph(links):
    """Entities 1..5 and links (source, target, network, freq, time)."""
    graph = SocialGraph()
    for eid in range(1, 6):
        graph.add_entity(eid, 10.0)
    for source, target, network, freq, time in links:
        profile = AttributeProfile(
            {"freq": freq, "time": time}, {"Major": ValueClass.POSITIVE}
        )
        graph.add_link(FriendLink(source, target, network, profile))
    return graph


def test_an_all_zero_attribute_is_a_zero_maximum():
    # Zeros next to a positive value keep that value as the normalizer.
    graph = _profile_graph([(1, 2, 1, 0.0, 2.0), (1, 3, 1, 4.0, 1.0)])
    compute_trust_values(graph, default_rules())
    want = trust_value(0.25, {"Major": ValueClass.POSITIVE}, default_rules())
    assert graph.link(1, 2, 1).trust_value == want
    # A group whose freq is zero throughout has a zero maximum, not a
    # missing normalizer; network 2 of the same source is its own group.
    graph = _profile_graph([(1, 2, 1, 3.0, 1.0), (1, 2, 2, 0.0, 1.0), (1, 4, 2, 0.0, 2.0)])
    message = (
        "link 1->2 network 2: normalizer for 'freq' is 0.0: the attribute's "
        "maximum over the source's links on that network is not positive"
    )
    with pytest.raises(ZeroNormalizerError, match="^%s$" % re.escape(message)):
        compute_trust_values(graph, default_rules())
    with pytest.raises(ZeroNormalizerError, match="^link 1->2 network 2: normalizer"):
        link_trust(graph.link(1, 2, 2), {"freq": 0.0, "time": 1.0}, default_rules())


def test_the_first_bad_link_in_group_order_is_named():
    # Bad links: 1->2 on network 2 misses time, 1->5 on network 1 has a NaN
    # freq and 3->1 on network 1 an all-zero freq. Source 1's lowest target
    # is on network 2, but scoring runs in (source, network, target) order,
    # so 1->5 is named, not 1->2.
    graph = _profile_graph(
        [(3, 1, 1, 0.0, 1.0), (1, 5, 1, float("nan"), 1.0), (1, 4, 1, 1.0, 1.0),
         (1, 3, 2, 1.0, 1.0)]
    )
    graph.add_link(FriendLink(1, 2, 2, AttributeProfile({"freq": 1.0},
                                                          {"Major": ValueClass.POSITIVE})))
    reference = {}
    with pytest.raises(DomainError, match="^link 1->5 network 1: attribute 'freq' = nan"):
        reference_trust_values(graph, default_rules(), reference)
    with pytest.raises(DomainError, match="^link 1->5 network 1: attribute 'freq' = nan"):
        compute_trust_values(graph, default_rules())
    # the link before it in that order is scored, as the reference scored it
    assert graph.link(1, 4, 1).trust_value == reference[(1, 4, 1)]
    assert graph.link(1, 4, 1).trust_value is not None
    assert graph.link(1, 2, 2).trust_value is None


def _named_link(exc):
    return str(exc).split(":", 1)[0]


@settings(max_examples=200)
@given(profiled_graphs())
def test_grouped_scoring_equals_the_per_group_loop(drawn):
    graph, _ = drawn
    try:
        reference = reference_trust_values(graph, default_rules())
    except OnionTrustError as exc:
        # Only an all-zero attribute fails here; it now reads as a zero
        # maximum of the same link instead of a missing normalizer.
        assert "no normalizer" in str(exc)
        with pytest.raises(ZeroNormalizerError) as info:
            compute_trust_values(graph, default_rules())
        assert _named_link(info.value) == _named_link(exc)
        return
    compute_trust_values(graph, default_rules())
    assert [link.trust_value.hex() for link in graph.links()] == [
        reference[key].hex() for key in sorted(reference)
    ]


#: Links added on top of a profiled graph, each with one thing the column
#: scorer must treat as link_trust does. "zero" and "top" links have e = 0
#: and e = 1 when their group has other positive values, and classes that
#: give them zero mass; "zero" alone in its group is an all-zero attribute.
SPECIAL_LINKS = {
    "zero": ({"freq": 0.0, "time": 0.0}, (ValueClass.POSITIVE, ValueClass.NEUTRAL)),
    "top": ({"freq": 50.0, "time": 50.0}, (ValueClass.NEGATIVE, ValueClass.NEUTRAL)),
    "unruled-neutral": ({"freq": 1.0, "time": 1.0}, tuple(ValueClass)),
    "unruled-positive": ({"freq": 1.0, "time": 1.0}, tuple(ValueClass)),
    "nan": ({"freq": float("nan"), "time": 1.0}, tuple(ValueClass)),
    "missing": ({"freq": 1.0}, tuple(ValueClass)),
}


@st.composite
def scoring_graphs(draw):
    """A profiled graph plus a few SPECIAL_LINKS, added through add_link."""
    graph, _ = draw(profiled_graphs())
    pairs = list(itertools.permutations(graph.entity_ids(), 2))
    for kind in draw(st.lists(st.sampled_from(sorted(SPECIAL_LINKS)), max_size=4)):
        values, classes = SPECIAL_LINKS[kind]
        qualitative = {
            "Major": draw(st.sampled_from(classes)),
            "Relationship": draw(st.sampled_from(classes)),
        }
        if kind == "unruled-neutral":
            qualitative["Citizenship"] = ValueClass.NEUTRAL  # fires MEDIUM
        elif kind == "unruled-positive":
            qualitative["Citizenship"] = ValueClass.POSITIVE  # has no rule
        source, target = draw(st.sampled_from(pairs))
        profile = AttributeProfile(dict(values), qualitative)
        graph.add_link(FriendLink(source, target, draw(st.integers(1, 3)), profile))
    return graph


def _trust_hex(value):
    return None if value is None else value.hex()


@settings(max_examples=300)
@given(scoring_graphs())
def test_the_column_scorer_equals_link_trust_bit_for_bit(graph):
    before = {(l.source, l.target, l.network): l.trust_value for l in graph.links()}
    want = {}
    try:
        scalar_trust_values(graph, default_rules(), want)
    except OnionTrustError as exc:
        with pytest.raises(type(exc)) as info:
            compute_trust_values(graph, default_rules())
        assert str(info.value) == str(exc)
    else:
        compute_trust_values(graph, default_rules())
    # scored links carry link_trust's bits; on an error, the links from the
    # bad one on keep the values they had
    got = {(l.source, l.target, l.network): _trust_hex(l.trust_value) for l in graph.links()}
    assert got == {key: _trust_hex(want.get(key, tv)) for key, tv in before.items()}


@pytest.fixture(params=[1, 7, pytest.param(fuzzy._SCORE_CHUNK, id="default")])
def score_chunk(request, monkeypatch):
    """Runs a test at score chunks of 1, 7 and the default number of links."""
    monkeypatch.setattr(fuzzy, "_SCORE_CHUNK", request.param)


def test_the_column_scorer_equals_link_trust_on_a_generated_graph(score_chunk):
    # About 2000 links with spread-out aggregates: enough that a cube taken
    # by numpy instead of Python's float pow would change some bits.
    graph = generate_graph(GeneratorParams(n=150, kind="er", value=0.1), seed=3)
    want = scalar_trust_values(graph, default_rules())
    compute_trust_values(graph, default_rules())
    assert [l.trust_value.hex() for l in graph.links()] == [want[k].hex() for k in sorted(want)]


def test_the_links_before_the_first_bad_one_are_scored_at_any_chunk_size(score_chunk):
    # Source 75's last network group holds only a NaN value, a zero
    # maximum, and about half the links come before it in (source,
    # network, target) order.
    graph = generate_graph(GeneratorParams(n=150, kind="er", value=0.1), seed=3)
    profile = graph.links()[0].profile
    values = dict.fromkeys(profile.quantitative, 1.0)
    values[min(values)] = float("nan")
    graph.add_link(FriendLink(75, 76, 9, AttributeProfile(values, dict(profile.qualitative))))
    graph.link_columns().trust[:] = np.nan
    want = {}
    with pytest.raises(ZeroNormalizerError) as expected:
        scalar_trust_values(graph, default_rules(), want)
    with pytest.raises(ZeroNormalizerError) as got:
        compute_trust_values(graph, default_rules())
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("link 75->76 network 9: ")
    got = {(l.source, l.target, l.network): _trust_hex(l.trust_value) for l in graph.links()}
    assert got == {key: _trust_hex(want.get(key)) for key in got}


def test_a_rule_firing_on_no_rows_or_on_every_row_scores_as_link_trust():
    # Every link is Major POSITIVE, so LARGE fires on every row and SMALL
    # on none; Relationship NEGATIVE fires SMALLEST on one link only.
    graph = _profile_graph([(1, 2, 1, 0.0, 2.0), (1, 3, 1, 4.0, 1.0), (2, 3, 1, 3.0, 3.0),
                            (3, 1, 2, 1.0, 0.5), (3, 4, 2, 2.0, 2.0)])
    profile = AttributeProfile({"freq": 2.0, "time": 1.0},
                               {"Major": ValueClass.POSITIVE, "Relationship": ValueClass.NEGATIVE})
    graph.add_link(FriendLink(4, 5, 1, profile))
    codes = graph.link_columns().qual
    assert (codes[:, 0] == 0).all() and not (codes[:, 0] == 2).any()
    want = scalar_trust_values(graph, default_rules())
    compute_trust_values(graph, default_rules())
    assert [l.trust_value.hex() for l in graph.links()] == [want[k].hex() for k in sorted(want)]


def test_the_aggregate_powers_are_python_float_powers_bit_for_bit():
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 0.5, np.nextafter(1.0, 0.0), 1.0]
    part = np.r_[edges, np.random.default_rng(7).random(8192)]
    for k in (2, 3):
        want = np.array([x**k for x in part.tolist()])
        assert fuzzy._powers(part, float(k)).tobytes() == want.tobytes()


def test_scoring_holds_at_most_twice_the_link_columns():
    # Whole reordered copies of the columns held about 218 bytes per link
    # here; scored where they lie, the sort index and the maxima hold about
    # 58, next to the columns' own 52.
    graph = generate_graph(GeneratorParams(1000, "calibrated", 0.8), 5)
    links = graph.link_columns()
    kept = sum(getattr(links, name).nbytes for name in _LINK_ARRAYS)
    tracemalloc.start()
    try:
        compute_trust_values(graph, default_rules())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * kept


def test_zero_mass_links_take_the_one_sided_limit():
    # 1->2 has e = 0 with only POSITIVE classes, 1->3 has e = 1 with only
    # NEGATIVE ones: both have zero mass, and 1->4 sets the maxima.
    graph = _profile_graph([(1, 2, 1, 0.0, 0.0), (1, 3, 1, 8.0, 8.0), (1, 4, 1, 2.0, 3.0)])
    negative = AttributeProfile({"freq": 8.0, "time": 8.0},
                                {"Major": ValueClass.NEGATIVE, "Relationship": ValueClass.NEGATIVE})
    graph.add_link(FriendLink(1, 3, 1, negative))
    compute_trust_values(graph, default_rules())
    assert graph.link(1, 2, 1).trust_value == defuzzify([Rule.LARGE], 0.0)
    assert graph.link(1, 3, 1).trust_value == defuzzify([Rule.SMALL, Rule.SMALLEST], 1.0)
    want = scalar_trust_values(graph, default_rules())
    assert [l.trust_value.hex() for l in graph.links()] == [want[k].hex() for k in sorted(want)]


def test_ruleset_validation():
    with pytest.raises(WeightSumError):
        FuzzyRuleSet(qualitative={}, weights={"freq": 0.4, "time": 0.4})
    with pytest.raises(WeightSumError):
        FuzzyRuleSet(qualitative={}, weights={})
    with pytest.raises(UnknownRuleError):
        FuzzyRuleSet(
            qualitative={"Major": (Rule.SMALL, Rule.SMALL)},
            weights={"freq": 1.0},
        )
    with pytest.raises(UnknownRuleError):
        FuzzyRuleSet(
            qualitative={"Major": (Rule.LARGE, Rule.LARGEST)},
            weights={"freq": 1.0},
        )
    # near-one weights are renormalized to exactly one
    rules = FuzzyRuleSet(qualitative={}, weights={"a": 0.3, "b": 0.3, "c": 0.4})
    assert abs(sum(rules.weights.values()) - 1.0) < 1e-12
    # every weight lies in [0, 1], even when the sum is one
    nan, inf = float("nan"), float("inf")
    for weights, message in (
        ({"a": 1.5, "b": -0.5}, "weight of 'a' is 1.5; must be in [0, 1]"),
        ({"a": 0.5, "b": -0.5, "c": 1.0}, "weight of 'b' is -0.5; must be in [0, 1]"),
        ({"a": nan}, "weight of 'a' is nan; must be in [0, 1]"),
        ({"a": inf, "b": -inf}, "weight of 'a' is inf; must be in [0, 1]"),
    ):
        with pytest.raises(DomainError, match=re.escape(message)):
            FuzzyRuleSet(qualitative={}, weights=weights)
    for freq, time in (("1.5", "-0.5"), ("-0.5", "1.5")):
        text = "quantitative freq weight=%s\nquantitative time weight=%s\n" % (freq, time)
        with pytest.raises(DomainError, match=re.escape("weight of 'freq' is %s;" % freq)):
            parse_rules(text)


def test_rule_lookup_and_errors():
    rules = default_rules()
    assert rules.rule_for("Major", ValueClass.POSITIVE) is Rule.LARGE
    assert rules.rule_for("Major", ValueClass.NEGATIVE) is Rule.SMALL
    assert rules.rule_for("anything", ValueClass.NEUTRAL) is Rule.MEDIUM
    assert rules.rule_for("Relationship", ValueClass.NEGATIVE) is Rule.SMALLEST
    with pytest.raises(MissingAttributeError):
        rules.rule_for("Citizenship", ValueClass.POSITIVE)
    with pytest.raises(EmptyAssignmentError):
        trust_value(0.5, {}, rules)
    with pytest.raises(UnknownRuleError):
        Rule.from_code("2i")
