"""Text formats for graphs, rule sets and scenarios, plus CSV writers.

The text formats are line based; blank lines and lines starting with '#' are
skipped everywhere. Serialization orders everything (entities, links, keys)
so the same object always produces the same bytes.
"""

from __future__ import annotations

import io
import math
from importlib import resources
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import OnionTrustError, ParseError
from .fuzzy import FuzzyRuleSet, Rule, ValueClass
from .graph import (
    DEFAULT_BANDWIDTH_MAX,
    AttributeProfile,
    FriendLink,
    SocialGraph,
)
from .propagation import TrustScoreTable
from .simulation import (
    CorrelationCase,
    DrawMode,
    RoundReport,
    SimScenario,
    Strategy,
    SweepRow,
)


def _content_lines(text: str) -> List[Tuple[int, str]]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((number, line))
    return out


def _split_kv(token: str, number: int) -> Tuple[str, str]:
    if "=" not in token:
        raise ParseError("expected key=value, got %r" % token, line=number)
    key, value = token.split("=", 1)
    return key, value


def _parse_float(value: str, what: str, number: int) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise ParseError("bad %s %r" % (what, value), line=number) from None
    if not math.isfinite(parsed):
        raise ParseError(
            "%s must be a finite number, got %r" % (what, value), line=number
        )
    return parsed


def _parse_int(value: str, what: str, number: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError("bad %s %r" % (what, value), line=number) from None


# -- graph files --------------------------------------------------------------

def parse_graph(text: str) -> SocialGraph:
    """Graph from its text form; strict about counts and references."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty graph file", line=1)
    number, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "entities":
        raise ParseError("expected 'entities <count>' header", line=number)
    declared = _parse_int(parts[1], "entity count", number)

    graph = SocialGraph()
    seen_entities = 0
    for number, line in lines[1:]:
        parts = line.split()
        if parts[0] == "entity":
            if len(parts) != 4:
                raise ParseError(
                    "expected 'entity <id> bandwidth=... malicious=...'",
                    line=number,
                )
            eid = _parse_int(parts[1], "entity id", number)
            if graph.has_entity(eid):
                raise ParseError("duplicate entity %d" % eid, line=number)
            fields = dict(_split_kv(p, number) for p in parts[2:])
            if set(fields) != {"bandwidth", "malicious"}:
                raise ParseError(
                    "entity line needs bandwidth= and malicious=", line=number
                )
            if fields["malicious"] not in ("0", "1"):
                raise ParseError(
                    "malicious must be 0 or 1, got %r" % fields["malicious"],
                    line=number,
                )
            bandwidth = _parse_float(fields["bandwidth"], "bandwidth", number)
            try:
                graph.add_entity(eid, bandwidth, fields["malicious"] == "1")
            except OnionTrustError as exc:
                raise ParseError(str(exc), line=number) from None
            seen_entities += 1
        elif parts[0] == "link":
            if len(parts) < 4:
                raise ParseError(
                    "expected 'link <from> <to> network=<id> ...'", line=number
                )
            src = _parse_int(parts[1], "source id", number)
            tgt = _parse_int(parts[2], "target id", number)
            network = None
            tv = None
            profile = AttributeProfile()
            for token in parts[3:]:
                key, value = _split_kv(token, number)
                if key == "network":
                    network = _parse_int(value, "network id", number)
                elif key == "tv":
                    tv = _parse_float(value, "trust value", number)
                    if not 0.0 <= tv <= 1.0:
                        raise ParseError(
                            "trust value %r outside [0, 1]" % value, line=number
                        )
                elif key.startswith("q:"):
                    profile.quantitative[key[2:]] = _parse_float(
                        value, "attribute %s" % key, number
                    )
                elif key.startswith("c:"):
                    try:
                        profile.qualitative[key[2:]] = ValueClass[value]
                    except KeyError:
                        raise ParseError(
                            "bad class %r (want POSITIVE/NEUTRAL/NEGATIVE)" % value,
                            line=number,
                        ) from None
                else:
                    raise ParseError("unknown link token %r" % token, line=number)
            if network is None:
                raise ParseError("link line is missing network=", line=number)
            try:
                graph.add_link(FriendLink(src, tgt, network, profile, tv))
            except OnionTrustError as exc:
                raise ParseError(str(exc), line=number) from None
        else:
            raise ParseError("unknown directive %r" % parts[0], line=number)
    if seen_entities != declared:
        raise ParseError(
            "header declares %d entities, file has %d" % (declared, seen_entities)
        )
    return graph


def serialize_graph(graph: SocialGraph) -> str:
    out = io.StringIO()
    ids = graph.entity_ids()
    out.write("entities %d\n" % len(ids))
    for eid in ids:
        out.write(
            "entity %d bandwidth=%s malicious=%d\n"
            % (eid, repr(graph.bandwidth(eid)), 1 if graph.is_malicious(eid) else 0)
        )
    for link in graph.links():
        tokens = ["link %d %d network=%d" % (link.source, link.target, link.network)]
        for name in sorted(link.profile.quantitative):
            tokens.append("q:%s=%s" % (name, repr(link.profile.quantitative[name])))
        for name in sorted(link.profile.qualitative):
            tokens.append("c:%s=%s" % (name, link.profile.qualitative[name].value))
        if link.trust_value is not None:
            tokens.append("tv=%s" % repr(link.trust_value))
        out.write(" ".join(tokens) + "\n")
    return out.getvalue()


def read_graph(path) -> SocialGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_graph(handle.read())


def write_graph(path, graph: SocialGraph):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(serialize_graph(graph))


# -- rule-set files ------------------------------------------------------------

_POSITIVE_CODES = ("1i", "1ii")
_NEGATIVE_CODES = ("3i", "3ii")


def parse_rules(text: str) -> FuzzyRuleSet:
    """Rule set from its text form.

    attribute lines map a qualitative attribute to its positive/negative
    rules; quantitative lines declare the aggregate weights.
    """
    qualitative: Dict[str, Tuple[Rule, Rule]] = {}
    weights: Dict[str, float] = {}
    for number, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "attribute":
            if len(parts) != 4:
                raise ParseError(
                    "expected 'attribute <name> positive_rule=... negative_rule=...'",
                    line=number,
                )
            name = parts[1]
            if name in qualitative:
                raise ParseError("duplicate attribute %r" % name, line=number)
            fields = dict(_split_kv(p, number) for p in parts[2:])
            if set(fields) != {"positive_rule", "negative_rule"}:
                raise ParseError(
                    "attribute line needs positive_rule= and negative_rule=",
                    line=number,
                )
            if fields["positive_rule"] not in _POSITIVE_CODES:
                raise ParseError(
                    "positive_rule must be one of %s" % (_POSITIVE_CODES,),
                    line=number,
                )
            if fields["negative_rule"] not in _NEGATIVE_CODES:
                raise ParseError(
                    "negative_rule must be one of %s" % (_NEGATIVE_CODES,),
                    line=number,
                )
            qualitative[name] = (
                Rule.from_code(fields["positive_rule"]),
                Rule.from_code(fields["negative_rule"]),
            )
        elif parts[0] == "quantitative":
            if len(parts) != 3:
                raise ParseError(
                    "expected 'quantitative <name> weight=<float>'", line=number
                )
            name = parts[1]
            if name in weights:
                raise ParseError("duplicate quantitative %r" % name, line=number)
            key, value = _split_kv(parts[2], number)
            if key != "weight":
                raise ParseError("expected weight=, got %r" % key, line=number)
            weights[name] = _parse_float(value, "weight", number)
        else:
            raise ParseError("unknown directive %r" % parts[0], line=number)
    return FuzzyRuleSet(qualitative=qualitative, weights=weights)


def serialize_rules(rules: FuzzyRuleSet) -> str:
    out = io.StringIO()
    for name in sorted(rules.qualitative):
        positive, negative = rules.qualitative[name]
        out.write(
            "attribute %s positive_rule=%s negative_rule=%s\n"
            % (name, positive.code, negative.code)
        )
    for name in sorted(rules.weights):
        out.write("quantitative %s weight=%s\n" % (name, repr(rules.weights[name])))
    return out.getvalue()


def read_rules(path=None) -> FuzzyRuleSet:
    """Rule set from a file, or the bundled default when path is None."""
    if path is None:
        bundled = resources.files("oniontrust").joinpath("data/default_rules.txt")
        return parse_rules(bundled.read_text(encoding="utf-8"))
    with open(path, "r", encoding="utf-8") as handle:
        return parse_rules(handle.read())


# -- scenario files ------------------------------------------------------------

_SCENARIO_KEYS = (
    "strategy",
    "fraction",
    "case",
    "omega",
    "ts_h",
    "rounds",
    "draws",
    "seed",
    "n",
    "generator",
    "bandwidth_max",
    "source",
    "max_hops",
    "draw_mode",
    "circuit_length",
)


def _parse_generator(value: str, number: int) -> Tuple[str, float]:
    if ":" not in value:
        raise ParseError(
            "generator must look like calibrated:<fraction> or er:<prob>",
            line=number,
        )
    kind, raw = value.split(":", 1)
    if kind not in ("calibrated", "er"):
        raise ParseError("unknown generator kind %r" % kind, line=number)
    return kind, _parse_float(raw, "generator parameter", number)


def parse_scenario(text: str) -> SimScenario:
    """Scenario from 'key = value' lines; unknown keys are rejected by name."""
    values: Dict[str, str] = {}
    numbers: Dict[str, int] = {}
    for number, line in _content_lines(text):
        if "=" not in line:
            raise ParseError("expected 'key = value'", line=number)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCENARIO_KEYS:
            raise ParseError("unknown scenario key %r" % key, line=number)
        if key in values:
            raise ParseError("duplicate scenario key %r" % key, line=number)
        values[key] = value
        numbers[key] = number
    if "strategy" not in values:
        raise ParseError("scenario is missing the strategy key")
    if "fraction" not in values:
        raise ParseError("scenario is missing the fraction key")

    def _get(key, kind, fallback):
        if key not in values:
            return fallback
        number = numbers[key]
        if kind is float:
            return _parse_float(values[key], key, number)
        return _parse_int(values[key], key, number)

    try:
        strategy = Strategy.from_code(values["strategy"])
        case = CorrelationCase.from_code(values.get("case", "none"))
        draw_mode = DrawMode.from_code(values.get("draw_mode", "select"))
    except OnionTrustError as exc:
        raise ParseError(str(exc)) from None
    kind, gen_value = ("calibrated", 0.8)
    if "generator" in values:
        kind, gen_value = _parse_generator(values["generator"], numbers["generator"])
    return SimScenario(
        strategy=strategy,
        fraction=_get("fraction", float, None),
        case=case,
        omega=_get("omega", float, 0.0),
        ts_threshold=_get("ts_h", float, 0.0),
        rounds=_get("rounds", int, 1000),
        draws=_get("draws", int, 1000),
        seed=_get("seed", int, 0),
        n=_get("n", int, 500),
        generator_kind=kind,
        generator_value=gen_value,
        bandwidth_max=_get("bandwidth_max", float, DEFAULT_BANDWIDTH_MAX),
        source=_get("source", int, 1),
        max_hops=_get("max_hops", int, 2),
        draw_mode=draw_mode,
        circuit_length=_get("circuit_length", int, 3),
    )


def read_scenario(path) -> SimScenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


# -- CSV output ----------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence]):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(cell) for cell in row) + "\n")


def write_round_reports(path, reports: Sequence[RoundReport]):
    _write_csv(
        path,
        ("round", "r_mr", "r_mc", "avg_bandwidth", "draws"),
        ((r.index, r.r_mr, r.r_mc, r.avg_bandwidth, r.draws) for r in reports),
    )


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """(value, fraction of samples <= value) at each distinct sample value."""
    ordered = sorted(values)
    total = len(ordered)
    points = []
    for k, value in enumerate(ordered, start=1):
        if k == total or ordered[k] != value:
            points.append((value, k / total))
    return points


def write_cdf(path, values: Sequence[float]):
    _write_csv(
        path,
        ("value", "cumulative_fraction"),
        cdf_points(values),
    )


def write_link_trust(path, graph: SocialGraph):
    rows = []
    for link in graph.links():
        rows.append((link.source, link.target, link.network, link.trust_value))
    _write_csv(path, ("source", "target", "network", "trust_value"), rows)


def write_trust_scores(path, tables: Dict[int, TrustScoreTable]):
    rows = []
    for source in sorted(tables):
        table = tables[source]
        for target in table.targets():
            score = table.scores[target]
            rows.append((source, target, score.value, score.hops))
    _write_csv(path, ("source", "target", "ts", "hops"), rows)


def write_sweep_rows(path, rows: Sequence[SweepRow]):
    _write_csv(
        path,
        (
            "axis",
            "value",
            "mean_r_mr",
            "mean_r_mc",
            "mean_bandwidth",
            "mean_circle_size",
            "mean_trustworthy_size",
        ),
        (
            (
                row.axis,
                row.value,
                row.mean_r_mr,
                row.mean_r_mc,
                row.mean_bandwidth,
                row.mean_circle_size,
                row.mean_trustworthy_size,
            )
            for row in rows
        ),
    )
