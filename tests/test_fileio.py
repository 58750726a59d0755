"""Text formats for graphs, rule sets, scenarios, and the CSV writers."""

import functools
import re
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oniontrust import (
    AttributeProfile,
    DrawMode,
    FuzzyRuleSet,
    FriendLink,
    CorrelationCase,
    GeneratorParams,
    RoundReport,
    Rule,
    SimScenario,
    SocialGraph,
    Strategy,
    SweepRow,
    ValueClass,
    cdf_points,
    compute_trust_values,
    generate_graph,
    parse_graph,
    parse_rules,
    parse_scenario,
    read_graph,
    read_rules,
    read_scenario,
    serialize_graph,
    serialize_rules,
    write_cdf,
    write_graph,
    write_link_trust,
    write_round_reports,
    write_sweep_rows,
    write_trust_scores,
)
from oniontrust import fileio
from oniontrust.errors import DomainError, ParseError, WeightSumError
from oniontrust.cells import float_cells
from oniontrust.fileio import _SCORE_BLOCK_ROWS, _parse_graph_columns, _parse_graph_lines
from oniontrust.propagation import TrustArrays, propagate_arrays

from helpers import (
    TRUST,
    assert_same_graph_bits,
    copy_graph,
    default_rules,
    graph_from_trust_links,
    reference_cdf_points,
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_graph_with_a_non_finite_value_is_not_serialized(tmp_path, value):
    g = sample_graph()
    g.add_link(FriendLink(3, 1, 4, AttributeProfile({"freq": 1.0, "time": value})))
    message = "link 3->1 network 4: attribute time is %r, which a graph file cannot hold" % value
    with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
        serialize_graph(g)
    path = tmp_path / "g.txt"
    with pytest.raises(DomainError, match=re.escape(message)):
        write_graph(path, g)
    assert not path.exists()


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


def multinet_text(seed: int = 5, n: int = 40) -> str:
    """A graph file shaped like the benchmark's multi-network input: gapped
    ids, one to three networks per linked pair, two quantitative and two
    qualitative attributes on every link, no trust values."""
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(np.arange(1, 5 * n + 1), size=n, replace=False)).tolist()
    lines = ["entities %d" % n]
    for eid, bandwidth, bad in zip(ids, rng.pareto(1.5, n) * 1e6 + 1e4, rng.random(n) < 0.05):
        lines.append("entity %d bandwidth=%r malicious=%d" % (eid, float(bandwidth), bad))
    classes = ("POSITIVE", "NEUTRAL", "NEGATIVE")
    for s in range(n):
        targets = np.sort(rng.choice(n, size=rng.integers(1, 6), replace=False)).tolist()
        for t in targets:
            if t == s:
                continue
            for network in (np.sort(rng.choice(3, size=rng.integers(1, 4), replace=False)) + 1).tolist():
                lines.append(
                    "link %d %d network=%d q:freq=%r q:time=%r c:Major=%s c:Relationship=%s"
                    % (ids[s], ids[t], network, float(rng.lognormal()), float(rng.lognormal()),
                       classes[rng.integers(3)], classes[rng.integers(3)])
                )
    return "\n".join(lines) + "\n"


# 8192 lines, the former default step, takes each of these files in one piece
@pytest.mark.parametrize("chunk", [8192, fileio._PARSE_CHUNK, 7])
def test_the_column_parse_takes_written_graphs_without_handing_over(chunk, monkeypatch):
    generated = generate_graph(GeneratorParams(60, "er", 0.2), 3)
    compute_trust_values(generated, default_rules())
    monkeypatch.setattr(fileio, "_PARSE_CHUNK", chunk)
    for text in (serialize_graph(generated), multinet_text()):
        graph = _parse_graph_columns(text)
        assert graph is not None
        assert_same_graph_bits(graph, _parse_graph_lines(text))


#: A small graph file with three key signatures, one line per item.
SMALL_GRAPH_LINES = [
    "entities 3",
    "entity 1 bandwidth=1.0 malicious=0",
    "entity 2 bandwidth=2.0 malicious=1",
    "entity 3 bandwidth=3.0 malicious=0",
    "link 1 2 network=1 q:freq=0.5 c:Major=POSITIVE tv=0.25",
    "link 2 3 network=2 q:freq=1.5 c:Major=NEGATIVE",
    "link 3 1 network=1 q:time=2.0",
]


def _lines_with_blanks_on_piece_ends() -> list:
    """A multi-network graph longer than one default step, with blank,
    whitespace or comment lines as the last line of the first piece and
    the first line of the second, for 1,024-line and for 3-line steps."""
    lines = multinet_text(5, 200).splitlines()
    lines[2:2] = ["", "   # a comment opening a step"]
    lines[1023:1023] = ["# the last line of a step", "\t "]
    return lines


def _file_sources():
    small = "\n".join(SMALL_GRAPH_LINES)
    bad_line = SMALL_GRAPH_LINES[:6] + ["link 1 3 network=x"] + SMALL_GRAPH_LINES[6:]
    comment = "# café — naïve ✓ \U0001d11e"
    return {
        "crlf": (small + "\n").replace("\n", "\r\n").encode(),
        "lone cr": (small + "\n").replace("\n", "\r").encode(),
        "crlf, bad line": ("\r\n".join(bad_line) + "\r\n").encode(),
        "lone cr, bad line": "\r".join(bad_line).encode(),
        # the form feed is a line break to str.splitlines(), so it cuts the
        # link line in two, and the line after is numbered one further on
        "form feed in a link line": small.replace(" q:freq=0.5", "\x0cq:freq=0.5").encode(),
        "form feed ending a link line": (
            "\n".join(SMALL_GRAPH_LINES[:5]) + "\x0c\nlink 2 2 network=1\n"
        ).encode(),
        "no final newline": small.encode(),
        "no final newline, bad last line": "\n".join(bad_line[:7]).encode(),
        "blank and comment lines on piece ends": "\n".join(_lines_with_blanks_on_piece_ends()).encode(),
        # 5,000 two-byte characters span the text reader's 8 KiB decode steps
        "multi-byte comments": "\n".join(
            SMALL_GRAPH_LINES[:2] + [comment, "# " + "é" * 5000] + SMALL_GRAPH_LINES[2:] + [comment]
        ).encode(),
        # U+2028 is a line break to str.splitlines(), not to the file reader
        "line separator in a comment": "\n".join(
            SMALL_GRAPH_LINES[:3] + ["# one\u2028two"] + SMALL_GRAPH_LINES[3:]
        ).encode(),
        "not UTF-8 in the last piece": (small + "\n# \xff\n").encode("latin-1"),
        "not UTF-8 in a long file": (
            "\n".join(_lines_with_blanks_on_piece_ends()) + "\nlink 1 2 network=1 c:Major=\xe9\n"
        ).encode("latin-1"),
    }


def _read_outcome(read, path):
    try:
        return read(path)
    except ParseError as exc:
        return exc


def _loop_on_file(path):
    return _parse_graph_lines(fileio._read_text(path))


@pytest.mark.parametrize("chunk", [fileio._PARSE_CHUNK, 3, 1])
@pytest.mark.parametrize("name", sorted(_file_sources()))
def test_read_graph_streams_to_the_loops_outcome(tmp_path, monkeypatch, name, chunk):
    """read_graph(path) gives what the per-line loop gives on the whole text:
    the same graph bit for bit, or the same ParseError message and line. A
    file the loop accepts is taken by the streamed column parse itself."""
    path = tmp_path / "graph.txt"
    path.write_bytes(_file_sources()[name])
    want = _read_outcome(_loop_on_file, path)
    monkeypatch.setattr(fileio, "_PARSE_CHUNK", chunk)
    got = _read_outcome(read_graph, path)
    if isinstance(want, ParseError):
        assert (type(got), str(got), got.line) == (type(want), str(want), want.line)
        return
    assert_same_graph_bits(got, want)
    with open(path, encoding="utf-8") as handle:
        assert_same_graph_bits(fileio._column_graph(fileio._file_pieces(handle)), want)


def test_the_file_sources_cover_both_outcomes(tmp_path):
    path = tmp_path / "graph.txt"
    failed = {}
    for name, data in _file_sources().items():
        path.write_bytes(data)
        outcome = _read_outcome(_loop_on_file, path)
        if isinstance(outcome, ParseError):
            failed[name] = outcome.line
    assert failed == {
        "crlf, bad line": 7,
        "lone cr, bad line": 7,
        "form feed in a link line": 6,
        "form feed ending a link line": 7,
        "no final newline, bad last line": 7,
        "line separator in a comment": 5,
        "not UTF-8 in the last piece": 8,
        "not UTF-8 in a long file": 1409,
    }


def test_read_graph_holds_a_small_share_of_the_file(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text(multinet_text(5, 1000), encoding="utf-8")
    tracemalloc.start()
    try:
        read_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


#: Line breaks that str.splitlines() counts as LF does. A file written with
#: any of them in place of LF reads as the LF file does.
LINE_BREAKS = {"crlf": "\r\n", "lone cr": "\r", "form feed": "\x0c", "nel": "\x85"}

#: Blank and comment lines first, so a line number counts them.
LINE_BREAK_GRAPH = "\n".join(["# a graph", ""] + SMALL_GRAPH_LINES) + "\n"
LINE_BREAK_SCENARIO = (
    "# a scenario\n\nstrategy = practical_stor\nfraction = 0.2\ncase = worst\n"
    "generator = er:0.4\nrounds = 12\nmax_hops = 3\n"
)


@pytest.mark.parametrize("name", sorted(LINE_BREAKS))
def test_files_read_the_same_with_any_line_break(tmp_path, name):
    def broken(text: str) -> str:
        return text.replace("\n", LINE_BREAKS[name])

    def written(text: str):
        path = tmp_path / "input.txt"
        path.write_bytes(broken(text).encode("utf-8"))
        return path

    want = parse_graph(LINE_BREAK_GRAPH)
    assert_same_graph_bits(read_graph(written(LINE_BREAK_GRAPH)), want)
    assert_same_graph_bits(parse_graph(broken(LINE_BREAK_GRAPH)), want)
    rules_text = "# rules\n\n" + serialize_rules(default_rules())
    rules = read_rules(written(rules_text))
    want_rules = parse_rules(rules_text)
    assert (rules.qualitative, rules.weights) == (want_rules.qualitative, want_rules.weights)
    assert read_scenario(written(LINE_BREAK_SCENARIO)) == parse_scenario(LINE_BREAK_SCENARIO)


@pytest.mark.parametrize("name", sorted(LINE_BREAKS))
def test_a_bad_line_has_the_same_number_with_any_line_break(tmp_path, name):
    path = tmp_path / "input.txt"
    for parse, read, text, line in (
        (parse_graph, read_graph, LINE_BREAK_GRAPH.replace("network=2", "network=x"), 8),
        (parse_graph, read_graph, LINE_BREAK_GRAPH.replace("link 3 1", "link 3 3"), 9),
        (parse_rules, read_rules, "# rules\n\nquantitative freq mass=0.5\n", 3),
        (parse_scenario, read_scenario, LINE_BREAK_SCENARIO + "budget = 3\n", 9),
    ):
        want = _read_outcome(parse, text)
        assert want.line == line
        broken = text.replace("\n", LINE_BREAKS[name])
        path.write_bytes(broken.encode("utf-8"))
        for got in (_read_outcome(read, path), _read_outcome(parse, broken)):
            assert (type(got), str(got), got.line) == (type(want), str(want), want.line)


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


@settings(max_examples=200)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.1, 1.0]) | st.floats(0, 1), max_size=30))
def test_cdf_points_keep_the_sorted_walks_values(values):
    # among equal samples, 0.0 and -0.0 included, the walk kept the last
    got = cdf_points(values)
    want = reference_cdf_points(values)
    assert [(repr(v), f) for v, f in got] == [(repr(v), f) for v, f in want]


def _cell_text(cells: np.ndarray) -> bytes:
    """The cells of a cell matrix, one per line, with their pad dropped."""
    lines = np.concatenate([cells, np.full((len(cells), 1), ord("\n"), dtype=np.uint8)], axis=1)
    flat = lines.ravel()
    return flat[flat != 0].tobytes()


def _repr_text(values) -> bytes:
    """float.__repr__ of each value, one per line; NaN an empty line."""
    return "".join(
        ("" if v != v else float.__repr__(v)) + "\n" for v in np.asarray(values, dtype=float).tolist()
    ).encode()


#: Values where the shortest-repr kernel changes course: signed zeros and
#: 1.0, the 1e-4 edge and its neighbours, powers of two (an uneven
#: rounding interval), the smallest subnormal, the float below 1, short
#: decimals, a 20-digit one, and NaN, an unscored cell.
CELL_EDGES = [
    0.0,
    -0.0,
    1.0,
    1e-4,
    float(np.nextafter(1e-4, 0)),
    float(np.nextafter(1e-4, 1)),
    5e-324,
    float(np.nextafter(1.0, 0)),
    0.1,
    0.3,
    0.00012345678901234567,
    float("nan"),
] + [2.0**-k for k in range(61)]


def _with_examples(values):
    """Pin each value as a hypothesis example of the decorated test."""
    return lambda test: functools.reduce(lambda test, value: example(value)(test), values, test)


@settings(max_examples=1000)
@given(st.floats(0, 1, allow_subnormal=True))
@_with_examples(CELL_EDGES)
def test_float_cells_equal_float_repr(x):
    assert _cell_text(float_cells(np.array([x]))) == _repr_text([x])


def test_float_cells_equal_float_repr_in_bulk():
    rng = np.random.default_rng(20231)
    uniform = rng.random(250_000)
    products = rng.random(250_000) * rng.random(250_000)
    scale = 10.0 ** rng.integers(1, 17, 250_000)
    rounded = np.round(rng.random(250_000) * scale) / scale  # k / 10**d, 1 to 16 digits
    q = rng.integers(1, 14, 250_000)
    dyadic = (2 * rng.integers(0, 2**12, 250_000) + 1) % (2**q) / 2.0**q
    # a block holding every kind at once, as a trust score column does
    values = np.concatenate([uniform, products, rounded, dyadic, CELL_EDGES])
    assert _cell_text(float_cells(values)) == _repr_text(values)


def test_write_trust_scores_holds_less_than_the_row_text(tmp_path):
    # The str-list writer peaked at 11.96 MB traced here, the byte writer
    # at 7.0 MB (32 sources per block, about 25,000 rows).
    graph = generate_graph(GeneratorParams(1000, "calibrated", 0.8), 7)
    compute_trust_values(graph, default_rules())
    arrays = propagate_arrays(graph, 2)
    tracemalloc.start()
    try:
        write_trust_scores(tmp_path / "ts.csv", arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.5 * 2**20


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


def test_record_writers_keep_the_cell_rule(tmp_path):
    # a NaN that is a value, not None, is written as 'nan'; ids past int64
    # and mixed columns go through the cell rule's text
    reports = [
        RoundReport(index=2**70, r_mr=float("nan"), r_mc=None, avg_bandwidth=0.1, draws=True),
        RoundReport(index=-1, r_mr=0.5, r_mc=0.75, avg_bandwidth=1e300, draws="7"),
    ]
    path = tmp_path / "rounds.csv"
    write_round_reports(path, reports)
    assert path.read_text() == (
        "round,r_mr,r_mc,avg_bandwidth,draws\n"
        "1180591620717411303424,nan,,0.1,True\n"
        "-1,0.5,0.75,1e+300,7\n"
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


def test_write_link_trust_streams_several_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(fileio, "_LINK_BLOCK_ROWS", 3)
    graph = graph_from_trust_links(
        [(1, 2, 0.5), (1, 3, 0.0), (2, 1, 1.0), (2, 3, 0.25), (3, 1, 0.1), (3, 2, 0.7)]
    )
    graph.add_link(scored_link(1, 2, None, network=2))
    path = tmp_path / "lt.csv"
    write_link_trust(path, graph)
    rows = [
        "%d,%d,%d,%s" % (l.source, l.target, l.network,
                         "" if l.trust_value is None else repr(l.trust_value))
        for l in graph.links()
    ]
    assert len(rows) == 7
    assert path.read_text() == "source,target,network,trust_value\n" + "\n".join(rows) + "\n"


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
    text = serialize_graph(graph)
    assert parse_graph(text) == graph
    # links without some attributes or a trust value give several key
    # signatures, and the column parse takes them all
    assert_same_graph_bits(_parse_graph_columns(text), _parse_graph_lines(text))


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
