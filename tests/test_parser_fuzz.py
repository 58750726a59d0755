"""Parser fuzz gate: every mutated input parses or fails by name.

The three text parsers (graph, rules, scenario) get token- and
character-level mutations of a valid text. Each mutated text must either
parse or raise an OnionTrustError, never a bare Python error, and a
ParseError about one line must say which line. A mutated graph text must
also get the same outcome from parse_graph as from the per-line loop, and
the column parse may hand over to that loop only a text the loop rejects.

The generator, policy and scenario boundaries get the same property from
unbounded integers and floats: each call constructs or raises an
OnionTrustError.
"""

from importlib import resources
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oniontrust import (
    GeneratorParams,
    SelectionPolicy,
    SimScenario,
    SocialGraph,
    Strategy,
    compute_trust_values,
    fileio,
    generate_graph,
    read_rules,
)
from oniontrust.errors import DomainError, GeneratorParamsError, OnionTrustError, ParseError
from oniontrust.fileio import (
    _parse_graph_columns,
    _parse_graph_lines,
    parse_graph,
    parse_rules,
    parse_scenario,
    serialize_graph,
)
from oniontrust.graph import GENERATOR_KINDS

from helpers import assert_same_graph_bits


def _six_entity_graph_text() -> str:
    graph = generate_graph(GeneratorParams(6, "er", 0.5), 4)
    compute_trust_values(graph, read_rules())
    return serialize_graph(graph)


#: Two networks, links without some or all attributes, trust values,
#: comments and blank lines, key orders that differ between lines, and an
#: entity line after link lines: several key signatures per text.
MIXED_GRAPH = """\
# a hand-written graph
entities 4
entity 1 bandwidth=10.0 malicious=0
entity 2 bandwidth=2.5 malicious=1

entity 3 bandwidth=7.0 malicious=0
link 1 2 network=1 q:freq=2.5 q:time=0.75 c:Major=POSITIVE tv=0.5
link 1 2 network=2 c:Relationship=NEGATIVE q:freq=1.0
# links without attributes
link 2 1 tv=0.25 network=2
link 2 3 network=1
entity 4 bandwidth=1.0 malicious=0
link 3 4 q:time=-0.0 network=2 c:Major=NEUTRAL
link 4 1 network=1 q:freq=3.0 q:time=2.0 c:Major=NEGATIVE c:Relationship=POSITIVE tv=1.0
"""

TEXTS = {
    "graph": (parse_graph, _six_entity_graph_text()),
    "mixed graph": (parse_graph, MIXED_GRAPH),
    "rules": (
        parse_rules,
        resources.files("oniontrust").joinpath("data/default_rules.txt").read_text("utf-8"),
    ),
    "scenario": (
        parse_scenario,
        "strategy = practical_stor\ncase = best\ndraw_mode = circuit\n"
        "generator = calibrated:0.8\nfraction = 0.2\nomega = 0.1\nts_h = 0.01\n"
        "rounds = 10\ndraws = 20\nseed = 3\nn = 50\nbandwidth_max = 1000.0\n"
        "source = 2\nmax_hops = 2\ncircuit_length = 3\n",
    ),
}

#: ParseErrors about the file as a whole, which no single line causes.
FILE_LEVEL = ("header declares", "scenario is missing")

INT64_END = str(2**63)

PIECES = st.one_of(
    st.sampled_from([
        "", "0", "1", "-1", "2", "1.5", "-0.0", "1e400", "nan", "inf", "=", "==",
        "#", ":", str(2**63 - 1), INT64_END, str(-(2**63) - 1), "99999999999999999999",
        "x=1", "network=1", "q:freq=1", "c:Major=POSITIVE", "tv=0.5", "POSITIVE",
        "network", "q:time", "tv",
        "entity", "link", "attribute", "quantitative", "weight=1", "1i", "3ii",
        "er:0.5", "calibrated:2",
    ]),
    st.text(max_size=3),
)

OPS = ("replace", "value", "insert", "delete", "drop", "copy", "chars")

EDITS = st.lists(
    st.tuples(st.integers(0, 99), st.integers(0, 99), st.sampled_from(OPS), PIECES),
    min_size=1,
    max_size=3,
)


def mutate(text: str, edits) -> str:
    """Apply each (line, position, op, piece) edit, indices taken modulo."""
    lines = text.splitlines()
    for at, pos, op, piece in edits:
        if not lines:
            lines = [piece]
            continue
        i = at % len(lines)
        tokens = lines[i].split()
        j = pos % (len(tokens) + 1)
        if op == "drop":
            del lines[i]
            continue
        if op == "copy":
            lines.insert(i, lines[i])
            continue
        if op == "chars":
            k = pos % (len(lines[i]) + 1)
            lines[i] = lines[i][:k] + piece + lines[i][k:]
            continue
        if op == "insert":
            tokens.insert(j, piece)
        elif j < len(tokens):
            if op == "delete":
                del tokens[j]
            elif op == "value" and "=" in tokens[j]:
                tokens[j] = tokens[j].split("=", 1)[0] + "=" + piece
            else:
                tokens[j] = piece
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        return parse(text)
    except OnionTrustError as exc:
        return exc


def assert_the_loop_agrees(text):
    """parse_graph gives what the per-line loop gives: the same graph bit for
    bit, or the same exception class, message and line. The column parse
    hands a text over (returns None) exactly when the loop rejects it, with
    its step size at the default and at three lines."""
    want = _outcome(_parse_graph_lines, text)
    got = _outcome(parse_graph, text)
    if isinstance(want, OnionTrustError):
        assert (type(got), str(got), getattr(got, "line", None)) == (
            type(want), str(want), getattr(want, "line", None)
        )
    else:
        assert_same_graph_bits(got, want)
    for chunk in (fileio._PARSE_CHUNK, 3):
        with mock.patch.object(fileio, "_PARSE_CHUNK", chunk):
            columns = _parse_graph_columns(text)
        if isinstance(want, OnionTrustError):
            assert columns is None
        else:
            assert_same_graph_bits(columns, want)


@settings(max_examples=600)
@given(st.sampled_from(sorted(TEXTS)), EDITS)
# an entity id and a network id just past int64, on the first entity line
# (line 2) and the first link line (line 8, after the six entity lines)
@example("graph", [(1, 1, "replace", INT64_END)])
@example("graph", [(7, 3, "value", INT64_END)])
# a link to entity 4 on the line before entity 4's line, and a key without
# '=' among lines of several key signatures
@example("mixed graph", [(10, 2, "replace", "4")])
@example("mixed graph", [(12, 3, "replace", "q:time")])
def test_mutated_texts_parse_or_fail_by_name(kind, edits):
    parse, text = TEXTS[kind]
    mutated = mutate(text, edits)
    if parse is parse_graph:
        assert_the_loop_agrees(mutated)
    try:
        parse(mutated)
    except ParseError as exc:
        if exc.line is None:
            assert str(exc).startswith(FILE_LEVEL), str(exc)
        else:
            assert 1 <= exc.line <= max(1, len(mutated.splitlines())), str(exc)
    except OnionTrustError:
        pass


def test_the_graph_seeds_parse_by_columns_with_several_signatures():
    signatures = {
        tuple(token.partition("=")[0] for token in line.split()[3:])
        for line in MIXED_GRAPH.splitlines()
        if line.startswith("link")
    }
    assert len(signatures) == 6
    for kind in ("graph", "mixed graph"):
        text = TEXTS[kind][1]
        assert_same_graph_bits(_parse_graph_columns(text), _parse_graph_lines(text))


def test_the_pinned_examples_hit_the_int64_bound():
    _, text = TEXTS["graph"]
    lines = text.splitlines()
    assert lines[1].startswith("entity 1 ") and lines[7].split()[3] == "network=1"
    for edits, message in (
        ([(1, 1, "replace", INT64_END)], "line 2: entity id %s is outside int64" % INT64_END),
        ([(7, 3, "value", INT64_END)], "line 8: network id %s is outside int64" % INT64_END),
    ):
        with pytest.raises(ParseError, match="^%s$" % message):
            parse_graph(mutate(text, edits))


# -- generator, policy and scenario boundaries ----------------------------------

#: An integer past the float range: math.isfinite cannot take it.
PAST_FLOAT = 10**400

NUMBERS = st.one_of(st.integers(), st.floats())

#: Per constructor: the arguments that are not numbers, drawn valid, and the
#: numeric fields, each left at its default or drawn from NUMBERS
#: (required ones always drawn).
BOUNDARIES = {
    "generator": (
        GeneratorParams,
        {"kind": st.sampled_from(GENERATOR_KINDS)},
        ("n", "value"),
        ("bandwidth_max", "max_hops"),
    ),
    "policy": (SelectionPolicy, {}, (), ("omega", "ts_threshold", "circuit_length")),
    "scenario": (
        SimScenario,
        {"strategy": st.sampled_from(list(Strategy)), "generator_kind": st.sampled_from(GENERATOR_KINDS)},
        ("fraction",),
        (
            "omega", "ts_threshold", "rounds", "draws", "seed", "n", "generator_value",
            "bandwidth_max", "source", "max_hops", "circuit_length",
        ),
    ),
}


@st.composite
def boundary_calls(draw):
    kind = draw(st.sampled_from(sorted(BOUNDARIES)))
    _, fixed, required, optional = BOUNDARIES[kind]
    kwargs = {name: draw(choice) for name, choice in fixed.items()}
    for name in required + optional:
        if name in required or draw(st.booleans()):
            kwargs[name] = draw(NUMBERS)
    return kind, kwargs


@settings(max_examples=400)
@given(boundary_calls())
@example(("generator", {"n": 10, "kind": "er", "value": 0.5, "bandwidth_max": PAST_FLOAT}))
@example(("scenario", {"strategy": Strategy.PRACTICAL_STOR, "fraction": 0.2, "bandwidth_max": PAST_FLOAT}))
@example(("policy", {"omega": PAST_FLOAT}))
def test_boundary_fields_construct_or_fail_by_name(call):
    kind, kwargs = call
    try:
        BOUNDARIES[kind][0](**kwargs)
    except OnionTrustError:
        pass


def test_a_bandwidth_past_the_float_range_fails_by_name():
    message = "must be positive and finite, got %d$" % PAST_FLOAT
    with pytest.raises(GeneratorParamsError, match="^bandwidth_max " + message):
        GeneratorParams(10, "er", 0.5, bandwidth_max=PAST_FLOAT)
    with pytest.raises(GeneratorParamsError, match="^bandwidth_max " + message):
        SimScenario(Strategy.PRACTICAL_STOR, 0.2, bandwidth_max=PAST_FLOAT)
    with pytest.raises(DomainError, match="^entity 1: bandwidth " + message):
        SocialGraph().add_entity(1, PAST_FLOAT)
