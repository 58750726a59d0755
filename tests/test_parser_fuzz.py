"""Parser fuzz gate: every mutated input parses or fails by name.

The three text parsers (graph, rules, scenario) get token- and
character-level mutations of a valid text. Each mutated text must either
parse or raise an OnionTrustError, never a bare Python error, and a
ParseError about one line must say which line.
"""

from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oniontrust import GeneratorParams, compute_trust_values, generate_graph, read_rules
from oniontrust.errors import OnionTrustError, ParseError
from oniontrust.fileio import parse_graph, parse_rules, parse_scenario, serialize_graph


def _six_entity_graph_text() -> str:
    graph = generate_graph(GeneratorParams(6, "er", 0.5), 4)
    compute_trust_values(graph, read_rules())
    return serialize_graph(graph)


TEXTS = {
    "graph": (parse_graph, _six_entity_graph_text()),
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


@settings(max_examples=600)
@given(st.sampled_from(sorted(TEXTS)), EDITS)
# an entity id and a network id just past int64, on the first entity line
# (line 2) and the first link line (line 8, after the six entity lines)
@example("graph", [(1, 1, "replace", INT64_END)])
@example("graph", [(7, 3, "value", INT64_END)])
def test_mutated_texts_parse_or_fail_by_name(kind, edits):
    parse, text = TEXTS[kind]
    mutated = mutate(text, edits)
    try:
        parse(mutated)
    except ParseError as exc:
        if exc.line is None:
            assert str(exc).startswith(FILE_LEVEL), str(exc)
        else:
            assert 1 <= exc.line <= max(1, len(mutated.splitlines())), str(exc)
    except OnionTrustError:
        pass


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
