"""Text formats for graphs, rule sets, scenarios, and the CSV writers."""

from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oniontrust import (
    AttributeProfile,
    DrawMode,
    FuzzyRuleSet,
    FriendLink,
    CorrelationCase,
    RoundReport,
    Rule,
    SimScenario,
    SocialGraph,
    Strategy,
    SweepRow,
    ValueClass,
    cdf_points,
    parse_graph,
    parse_rules,
    parse_scenario,
    read_graph,
    serialize_graph,
    serialize_rules,
    write_cdf,
    write_graph,
    write_link_trust,
    write_round_reports,
    write_sweep_rows,
    write_trust_scores,
)
from oniontrust.errors import ParseError, WeightSumError
from oniontrust.fileio import _SCORE_BLOCK_ROWS
from oniontrust.propagation import TrustArrays, propagate_arrays

from helpers import (
    TRUST,
    copy_graph,
    default_rules,
    reference_trust_scores_csv,
    scored_graphs,
    scored_link,
)


def sample_graph():
    g = SocialGraph()
    g.add_entity(1, 100.5)
    g.add_entity(2, 3.25, malicious=True)
    g.add_entity(3, 7.0)
    profile = AttributeProfile(
        quantitative={"freq": 2.5, "time": 0.75},
        qualitative={"Major": ValueClass.POSITIVE, "Relationship": ValueClass.NEUTRAL},
    )
    g.add_link(FriendLink(1, 2, 1, profile, trust_value=0.8312))
    g.add_link(FriendLink(2, 3, 2, AttributeProfile(), trust_value=None))
    return g


def test_graph_round_trip():
    g = sample_graph()
    assert parse_graph(serialize_graph(g)) == g


def test_graph_file_round_trip(tmp_path):
    g = sample_graph()
    path = tmp_path / "g.txt"
    write_graph(path, g)
    assert read_graph(path) == g
    # serialization is stable byte for byte
    write_graph(tmp_path / "again.txt", read_graph(path))
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_parse_graph_ignores_comments_and_blanks():
    text = """
# a graph
entities 2

entity 1 bandwidth=10.0 malicious=0
entity 2 bandwidth=20.0 malicious=1   # trailing words are fine on their own line
"""
    # the inline comment above is actually part of the line, so expect failure
    with pytest.raises(ParseError):
        parse_graph(text)
    clean = "entities 2\n# note\nentity 1 bandwidth=10.0 malicious=0\n\nentity 2 bandwidth=20.0 malicious=1\n"
    g = parse_graph(clean)
    assert g.entity_ids() == [1, 2]
    assert g.is_malicious(2)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty graph file"),
        ("nodes 3", "entities <count>"),
        ("entities x", "entity count"),
        ("entities 1\nentity 1 bandwidth=1.0", "entity <id>"),
        (
            "entities 2\nentity 1 bandwidth=1.0 malicious=0\nentity 1 bandwidth=2.0 malicious=0",
            "duplicate entity 1",
        ),
        ("entities 1\nentity 1 bandwidth=1.0 malicious=2", "malicious must be 0 or 1"),
        ("entities 1\nentity 1 bandwidth=-2.0 malicious=0", "bandwidth"),
        ("entities 1\nentity 1 bandwidth=1.0 malicious=0\nlink 1 2", "link <from> <to>"),
        (
            "entities 1\nentity 1 bandwidth=1.0 malicious=0\nlink 1 2 network=1",
            "unknown entity 2",
        ),
        (
            "entities 2\nentity 1 bandwidth=1.0 malicious=0\nentity 2 bandwidth=1.0 malicious=0\nlink 1 1 network=1",
            "cannot link to itself",
        ),
        (
            "entities 2\nentity 1 bandwidth=1.0 malicious=0\nentity 2 bandwidth=1.0 malicious=0\nlink 1 2 q:freq=2.0",
            "missing network=",
        ),
        (
            "entities 2\nentity 1 bandwidth=1.0 malicious=0\nentity 2 bandwidth=1.0 malicious=0\nlink 1 2 network=1 c:Major=GOOD",
            "bad class 'GOOD'",
        ),
        (
            "entities 2\nentity 1 bandwidth=1.0 malicious=0\nentity 2 bandwidth=1.0 malicious=0\nlink 1 2 network=1 tv=1.5",
            "outside [0, 1]",
        ),
        (
            "entities 2\nentity 1 bandwidth=1.0 malicious=0\nentity 2 bandwidth=1.0 malicious=0\nlink 1 2 network=1 weird=1",
            "unknown link token",
        ),
        ("entities 1\nrouter 1", "unknown directive"),
        ("entities 3\nentity 1 bandwidth=1.0 malicious=0", "declares 3 entities"),
    ],
)
def test_parse_graph_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_parse_graph_rejects_repeated_keys_and_duplicate_links():
    head = (
        "entities 2\nentity 1 bandwidth=1.0 malicious=0\n"
        "entity 2 bandwidth=1.0 malicious=0\n"
    )
    text = head + (
        "link 1 2 network=1 q:freq=1.0 q:freq=5.0 c:Major=POSITIVE network=3\n"
        "link 1 2 network=3 q:freq=2.0 c:Major=NEGATIVE\n"
    )
    with pytest.raises(ParseError, match=r"^line 4: repeated key 'q:freq'$"):
        parse_graph(text)
    for tokens, key in (
        ("network=1 network=3", "network"),
        ("network=1 c:Major=POSITIVE c:Major=NEGATIVE", "c:Major"),
        ("network=1 tv=0.5 tv=0.5", "tv"),
    ):
        with pytest.raises(ParseError, match=r"^line 4: repeated key '%s'$" % key):
            parse_graph(head + "link 1 2 %s\n" % tokens)
    text = head + (
        "link 1 2 network=3 q:freq=1.0\n"
        "link 2 1 network=3 q:freq=1.0\n"
        "link 1 2 network=3 q:freq=2.0 c:Major=NEGATIVE\n"
    )
    with pytest.raises(ParseError, match=r"^line 6: duplicate link 1->2 network 3$"):
        parse_graph(text)
    # the same pair on another network and the reverse tie are other links
    text = head + "link 1 2 network=3\nlink 1 2 network=1\nlink 2 1 network=3\n"
    assert parse_graph(text).link_count() == 3


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("link 1 2 network=1 q:freq=nan", "attribute q:freq must be a finite number"),
        ("link 1 2 network=1 q:time=-inf", "attribute q:time must be a finite number"),
        ("link 1 2 network=1 tv=nan", "trust value must be a finite number"),
    ],
)
def test_parse_graph_rejects_non_finite_numbers(line, fragment):
    text = (
        "entities 2\nentity 1 bandwidth=1.0 malicious=0\n"
        "entity 2 bandwidth=1.0 malicious=0\n" + line
    )
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert str(err.value) == "line 4: %s, got %r" % (fragment, line.split("=")[-1])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "infinity"])
def test_parse_rejects_non_finite_bandwidth_and_scenario_values(value):
    with pytest.raises(ParseError) as err:
        parse_graph("entities 1\nentity 1 bandwidth=%s malicious=0" % value)
    assert str(err.value).startswith("line 2: bandwidth must be a finite number")
    with pytest.raises(ParseError) as err:
        parse_scenario("strategy = original_tor\nfraction = 0.1\nomega = %s" % value)
    assert str(err.value).startswith("line 3: omega must be a finite number")


def test_parse_errors_carry_line_numbers():
    text = "entities 2\nentity 1 bandwidth=1.0 malicious=0\nentity 1 bandwidth=1.0 malicious=0"
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert str(err.value).startswith("line 3:")


def test_rules_round_trip_and_bundled_default():
    rules = default_rules()
    text = serialize_rules(rules)
    again = parse_rules(text)
    assert again.qualitative == rules.qualitative
    assert again.weights == rules.weights
    bundled = resources.files("oniontrust").joinpath("data/default_rules.txt")
    parsed = parse_rules(bundled.read_text(encoding="utf-8"))
    assert parsed.qualitative["Major"] == (Rule.LARGE, Rule.SMALL)
    assert parsed.qualitative["Relationship"] == (Rule.LARGEST, Rule.SMALLEST)
    assert parsed.weights == {"freq": 0.5, "time": 0.5}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("attribute Major positive_rule=2 negative_rule=3i", "positive_rule must be"),
        ("attribute Major positive_rule=1i negative_rule=1ii", "negative_rule must be"),
        (
            "attribute Major positive_rule=1i negative_rule=3i\nattribute Major positive_rule=1i negative_rule=3i",
            "duplicate attribute",
        ),
        ("quantitative freq weight=0.5\nquantitative freq weight=0.5", "duplicate quantitative"),
        ("quantitative freq mass=0.5", "expected weight="),
        ("ruleset x", "unknown directive"),
        ("attribute Major", "attribute <name>"),
    ],
)
def test_parse_rules_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_rules(text)
    assert fragment in str(err.value)


def test_parse_rules_weight_sum_is_checked():
    text = (
        "attribute Major positive_rule=1i negative_rule=3i\n"
        "quantitative freq weight=0.3\nquantitative time weight=0.3\n"
    )
    with pytest.raises(WeightSumError):
        parse_rules(text)


def test_parse_scenario_full():
    text = """
strategy = practical_stor
fraction = 0.2
case = worst
omega = 0.25
ts_h = 0.035
rounds = 12
draws = 34
seed = 9
n = 77
generator = er:0.4
bandwidth_max = 5000.0
source = 3
max_hops = 3
draw_mode = circuit
circuit_length = 4
"""
    sc = parse_scenario(text)
    assert sc.strategy is Strategy.PRACTICAL_STOR
    assert sc.fraction == 0.2
    assert sc.case is CorrelationCase.WORST
    assert sc.omega == 0.25
    assert sc.ts_threshold == 0.035
    assert (sc.rounds, sc.draws, sc.seed, sc.n) == (12, 34, 9, 77)
    assert (sc.generator_kind, sc.generator_value) == ("er", 0.4)
    assert sc.bandwidth_max == 5000.0
    assert (sc.source, sc.max_hops) == (3, 3)
    assert sc.draw_mode is DrawMode.CIRCUIT
    assert sc.circuit_length == 4


def test_parse_scenario_defaults():
    sc = parse_scenario("strategy=original_tor\nfraction=0.1\n")
    assert sc.strategy is Strategy.ORIGINAL_TOR
    assert sc.case is CorrelationCase.NONE
    assert (sc.rounds, sc.draws, sc.n, sc.seed) == (1000, 1000, 500, 0)
    assert (sc.generator_kind, sc.generator_value) == ("calibrated", 0.8)
    assert sc.draw_mode is DrawMode.SELECT
    # a key the file leaves out keeps the SimScenario default
    assert sc == SimScenario(strategy=Strategy.ORIGINAL_TOR, fraction=0.1)


def test_parse_scenario_reports_the_first_bad_value_in_read_order():
    # Codes are read first, then the generator, then the numbers in field order.
    text = "strategy = original_tor\nfraction = 0.1\nrounds = x\nomega = y\ngenerator = er:z\n"
    with pytest.raises(ParseError, match="^line 5: bad generator parameter 'z'$"):
        parse_scenario(text)
    with pytest.raises(ParseError, match="^line 4: bad omega 'y'$"):
        parse_scenario(text.replace("er:z", "er:0.5"))
    with pytest.raises(ParseError, match="^line 6: unknown correlation case 'sideways'$"):
        parse_scenario(text + "case = sideways\n")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("fraction = 0.1", "missing the strategy"),
        ("strategy = original_tor", "missing the fraction"),
        ("strategy = original_tor\nfraction = 0.1\nbudget = 3", "unknown scenario key 'budget'"),
        ("strategy = original_tor\nfraction = 0.1\nfraction = 0.2", "duplicate scenario key"),
        ("strategy = original_tor\nfraction = 0.1\ngenerator = zipf:0.4", "unknown generator kind"),
        ("strategy = original_tor\nfraction = 0.1\ngenerator = er", "generator must look like"),
        ("strategy = sneaky\nfraction = 0.1", "unknown strategy"),
        ("just words", "key = value"),
        # a bad code names its line
        ("fraction = 0.1\nstrategy = sneaky", "line 2: unknown strategy 'sneaky'"),
        ("strategy = original_tor\nfraction = 0.1\ndraw_mode = batch",
         "line 3: unknown draw mode 'batch'"),
    ],
)
def test_parse_scenario_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert fragment in str(err.value)


def test_scenario_unknown_key_names_the_line():
    with pytest.raises(ParseError) as err:
        parse_scenario("strategy = original_tor\nfraction = 0.1\nbudget = 3")
    assert str(err.value).startswith("line 3:")


def test_cdf_points_by_hand():
    assert cdf_points([0.3, 0.1, 0.3, 0.2]) == [(0.1, 0.25), (0.2, 0.5), (0.3, 1.0)]
    assert cdf_points([1.0]) == [(1.0, 1.0)]
    assert cdf_points([0.0, 0.0]) == [(0.0, 1.0)]


def test_write_round_reports(tmp_path):
    reports = [
        RoundReport(index=0, r_mr=0.25, r_mc=None, avg_bandwidth=12.5, draws=100),
        RoundReport(index=1, r_mr=0.5, r_mc=0.75, avg_bandwidth=3.0, draws=100),
    ]
    path = tmp_path / "rounds.csv"
    write_round_reports(path, reports)
    assert path.read_text() == (
        "round,r_mr,r_mc,avg_bandwidth,draws\n"
        "0,0.25,,12.5,100\n"
        "1,0.5,0.75,3.0,100\n"
    )


def test_write_cdf(tmp_path):
    path = tmp_path / "cdf.csv"
    write_cdf(path, [0.5, 0.5, 0.0, 1.0])
    assert path.read_text() == (
        "value,cumulative_fraction\n0.0,0.25\n0.5,0.75\n1.0,1.0\n"
    )


def test_write_link_trust(tmp_path):
    g = sample_graph()
    path = tmp_path / "lt.csv"
    write_link_trust(path, g)
    assert path.read_text() == (
        "source,target,network,trust_value\n"
        "1,2,1,0.8312\n"
        "2,3,2,\n"
    )


def test_write_trust_scores(tmp_path):
    arrays = TrustArrays(
        ids=[1, 2, 3],
        best=np.array([[0.0, 0.9, 0.45], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]]),
        hops=np.array([[0, 1, 2], [0, 0, 1], [0, 0, 0]]),
        max_hops=2,
    )
    path = tmp_path / "ts.csv"
    write_trust_scores(path, arrays)
    assert path.read_text() == (
        "source,target,ts,hops\n"
        "1,2,0.9,1\n"
        "1,3,0.45,2\n"
        "2,3,0.5,1\n"
    )


@settings(max_examples=150)
@given(scored_graphs(), st.integers(1, 3))
def test_write_trust_scores_matches_the_row_writer(tmp_path_factory, graph, max_hops):
    path = tmp_path_factory.mktemp("scores") / "ts.csv"
    write_trust_scores(path, propagate_arrays(graph, max_hops))
    assert path.read_bytes() == reference_trust_scores_csv(graph, max_hops)


@pytest.mark.parametrize("max_hops", [1, 2, 3])
def test_write_trust_scores_streams_several_blocks(tmp_path, max_hops):
    rng = np.random.default_rng(17)
    n = 2 * _SCORE_BLOCK_ROWS + 11
    ids = np.sort(rng.choice(np.arange(1, 5 * n), size=n, replace=False)).tolist()
    graph = SocialGraph()
    for eid in ids:
        graph.add_entity(eid, 10.0)
    linked = ids[: n - 7]  # the last few entities stay isolated
    for _ in range(3 * n):
        a, b = rng.choice(linked, size=2, replace=False).tolist()
        tv = float(rng.choice([0.0, 1.0, rng.random(), rng.random()]))
        graph.add_link(scored_link(a, b, tv, network=int(rng.integers(1, 3))))
    path = tmp_path / "ts.csv"
    write_trust_scores(path, propagate_arrays(graph, max_hops))
    assert path.read_bytes() == reference_trust_scores_csv(graph, max_hops)


def test_numpy_scalars_are_written_as_plain_numbers(tmp_path):
    path = tmp_path / "rounds.csv"
    report = RoundReport(
        index=np.int64(1),
        r_mr=np.float64(0.1),
        r_mc=None,
        avg_bandwidth=np.float64(2.5),
        draws=np.int64(1),
    )
    write_round_reports(path, [report])
    assert path.read_text() == "round,r_mr,r_mc,avg_bandwidth,draws\n1,0.1,,2.5,1\n"
    path = tmp_path / "cdf.csv"
    write_cdf(path, [np.float64(0.1)])
    assert path.read_text() == "value,cumulative_fraction\n0.1,1.0\n"


def test_write_sweep_rows(tmp_path):
    rows = [
        SweepRow(
            axis="omega",
            value=0.5,
            mean_r_mr=0.125,
            mean_r_mc=None,
            mean_bandwidth=42.0,
            mean_circle_size=10.5,
            mean_trustworthy_size=9.25,
        )
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_rows(path, rows)
    assert path.read_text() == (
        "axis,value,mean_r_mr,mean_r_mc,mean_bandwidth,mean_circle_size,"
        "mean_trustworthy_size\n"
        "omega,0.5,0.125,,42.0,10.5,9.25\n"
    )


@settings(max_examples=150)
@given(scored_graphs(trust=st.one_of(st.none(), TRUST)), st.booleans())
def test_serialized_graphs_parse_back_equal(graph, flag_odd_ids):
    # parallel links on networks 1-3, unscored links and gapped ids
    if flag_odd_ids:
        graph = copy_graph(graph, {eid: eid % 2 == 1 for eid in graph.entity_ids()})
    assert parse_graph(serialize_graph(graph)) == graph


NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCXYZ_0123456789", min_size=1, max_size=8)


@st.composite
def rule_sets(draw):
    """A valid rule set: any rule pair per attribute, weights summing to one."""
    qualitative = draw(
        st.dictionaries(
            NAMES,
            st.tuples(
                st.sampled_from([Rule.LARGEST, Rule.LARGE]),
                st.sampled_from([Rule.SMALL, Rule.SMALLEST]),
            ),
            max_size=4,
        )
    )
    parts = draw(st.dictionaries(NAMES, st.integers(1, 1000), min_size=1, max_size=6))
    total = sum(parts.values())
    return FuzzyRuleSet(qualitative, {name: k / total for name, k in parts.items()})


@settings(max_examples=150)
@given(rule_sets())
def test_serialized_rules_parse_back_equal(rules):
    assert parse_rules(serialize_rules(rules)) == rules
