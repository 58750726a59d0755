"""Text formats for graphs, rule sets and scenarios, plus CSV writers.

The text formats are line based; blank lines and lines starting with '#' are
skipped everywhere. Serialization orders everything (entities, links, keys)
so the same object always produces the same bytes. A graph file is read
line by line into link rows that become the graph's link columns at once;
the graph text and the link CSV are written from those columns, which are
already in (source, target, network) order, so no link record is built.

Every CSV goes through one column-wise writer: a table arrives as blocks of
text columns and is joined row by row per block. Cells follow one rule
(None -> empty, float -> shortest repr, anything else -> str). The trust
score table is written straight from TrustArrays in blocks of source rows,
so no per-pair object is built and the whole table's text is never held at
once.
"""

from __future__ import annotations

import io
import math
from importlib import resources
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import OnionTrustError, ParseError
from .fuzzy import VALUE_CLASSES, FuzzyRuleSet, Rule
from .graph import GENERATOR_KINDS, LinkRows, SocialGraph
from .propagation import TrustArrays
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
    key, equals, value = token.partition("=")
    if not equals:
        raise ParseError("expected key=value, got %r" % token, line=number)
    return key, value


def _parse_float(value: str, what: str, number: Optional[int]) -> float:
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

#: Class name in a link line -> its code in VALUE_CLASSES.
_CLASS_CODES = {value_class.name: code for code, value_class in enumerate(VALUE_CLASSES)}


def parse_graph(text: str) -> SocialGraph:
    """Graph from its text form; strict about counts and references.

    A key repeated on one link line and a second line on the same (source,
    target, network) are errors. Link lines are gathered as rows and become
    the graph's link columns at once, after the last line.
    """
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty graph file", line=1)
    number, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "entities":
        raise ParseError("expected 'entities <count>' header", line=number)
    declared = _parse_int(parts[1], "entity count", number)

    graph = SocialGraph()
    # Link lines fill rows column by column; the attribute columns are
    # keyed by their full token key ("q:freq") until the last line.
    rows = LinkRows()
    quant: Dict[str, Tuple[List[int], List[float]]] = {}
    qual: Dict[str, Tuple[List[int], List[int]]] = {}
    keys = set()
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
            row = len(rows.source)
            network = None
            tv = None
            seen = set()
            for token in parts[3:]:
                key, value = _split_kv(token, number)
                if key in seen:
                    raise ParseError("repeated key %r" % key, line=number)
                seen.add(key)
                prefix = key[:2]
                if prefix == "q:":
                    at, values = quant.get(key) or quant.setdefault(key, ([], []))
                    at.append(row)
                    values.append(_parse_float(value, "attribute %s" % key, number))
                elif prefix == "c:":
                    code = _CLASS_CODES.get(value)
                    if code is None:
                        raise ParseError(
                            "bad class %r (want POSITIVE/NEUTRAL/NEGATIVE)" % value,
                            line=number,
                        )
                    at, codes = qual.get(key) or qual.setdefault(key, ([], []))
                    at.append(row)
                    codes.append(code)
                elif key == "network":
                    network = _parse_int(value, "network id", number)
                elif key == "tv":
                    tv = _parse_float(value, "trust value", number)
                    if not 0.0 <= tv <= 1.0:
                        raise ParseError(
                            "trust value %r outside [0, 1]" % value, line=number
                        )
                else:
                    raise ParseError("unknown link token %r" % token, line=number)
            if network is None:
                raise ParseError("link line is missing network=", line=number)
            try:
                graph.check_ends(src, tgt)
            except OnionTrustError as exc:
                raise ParseError(str(exc), line=number) from None
            key = (src, tgt, network)
            if key in keys:
                raise ParseError("duplicate link %d->%d network %d" % key, line=number)
            keys.add(key)
            rows.source.append(src)
            rows.target.append(tgt)
            rows.network.append(network)
            rows.trust.append(math.nan if tv is None else tv)
        else:
            raise ParseError("unknown directive %r" % parts[0], line=number)
    if seen_entities != declared:
        raise ParseError(
            "header declares %d entities, file has %d" % (declared, seen_entities)
        )
    rows.quant = {key[2:]: column for key, column in quant.items()}
    rows.qual = {key[2:]: column for key, column in qual.items()}
    graph.add_links(rows.columns())
    return graph


def serialize_graph(graph: SocialGraph) -> str:
    """The text form, links written column by column in (source, target,
    network) order: each attribute is one column of tokens, empty where a
    link has no value."""
    out = io.StringIO()
    ids = graph.entity_ids()
    out.write("entities %d\n" % len(ids))
    for eid in ids:
        out.write(
            "entity %d bandwidth=%s malicious=%d\n"
            % (eid, repr(graph.bandwidth(eid)), 1 if graph.is_malicious(eid) else 0)
        )
    links = graph.link_columns()
    columns = [
        [
            "link %d %d network=%d" % key
            for key in zip(
                links.source.tolist(), links.target.tolist(), links.network.tolist()
            )
        ]
    ]
    for a, name in enumerate(links.quant_names):
        token = " q:%s=" % name
        columns.append(
            [
                token + repr(value) if has else ""
                for value, has in zip(links.quant[:, a].tolist(), links.present[:, a].tolist())
            ]
        )
    for a, name in enumerate(links.qual_names):
        # code -1 (no judgement) picks the empty token at the end
        tokens = [" c:%s=%s" % (name, cls.value) for cls in VALUE_CLASSES] + [""]
        columns.append([tokens[code] for code in links.qual[:, a].tolist()])
    columns.append(_trust_cells(links.trust, " tv="))
    columns.append(["\n"] * len(links))
    out.write("".join(map("".join, zip(*columns))))
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

def _parse_generator(value: str, number: Optional[int]) -> Tuple[str, float]:
    if ":" not in value:
        raise ParseError(
            "generator must look like calibrated:<fraction> or er:<prob>",
            line=number,
        )
    kind, raw = value.split(":", 1)
    if kind not in GENERATOR_KINDS:
        raise ParseError("unknown generator kind %r" % kind, line=number)
    return kind, _parse_float(raw, "generator parameter", number)


#: Scenario file key -> (SimScenario field, how its value is read), in the
#: order the values are read, so the first bad value is the one reported.
#: The generator key fills two fields. A key the file leaves out keeps
#: SimScenario's default.
_SCENARIO_KEYS = {
    "strategy": ("strategy", Strategy),
    "case": ("case", CorrelationCase),
    "draw_mode": ("draw_mode", DrawMode),
    "generator": (("generator_kind", "generator_value"), _parse_generator),
    "fraction": ("fraction", float),
    "omega": ("omega", float),
    "ts_h": ("ts_threshold", float),
    "rounds": ("rounds", int),
    "draws": ("draws", int),
    "seed": ("seed", int),
    "n": ("n", int),
    "bandwidth_max": ("bandwidth_max", float),
    "source": ("source", int),
    "max_hops": ("max_hops", int),
    "circuit_length": ("circuit_length", int),
}


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

    fields = {}
    for key, (name, kind) in _SCENARIO_KEYS.items():
        if key not in values:
            continue
        value, number = values[key], numbers[key]
        if kind is float:
            fields[name] = _parse_float(value, key, number)
        elif kind is int:
            fields[name] = _parse_int(value, key, number)
        elif kind is _parse_generator:
            fields.update(zip(name, _parse_generator(value, number)))
        else:
            try:
                fields[name] = kind.from_code(value)
            except OnionTrustError as exc:
                raise ParseError(str(exc), line=number) from None
    return SimScenario(**fields)


def read_scenario(path) -> SimScenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


# -- CSV output ----------------------------------------------------------------

#: Sources per write in write_trust_scores: each block joins a few tens of
#: thousands of rows at n = 1000, while the text of the whole table is never
#: held at once.
_SCORE_BLOCK_ROWS = 64


def _fmt(value) -> str:
    """One CSV cell: None -> empty, float -> shortest repr, else str.

    float.__repr__ also prints numpy floats (a float subclass) as plain
    numbers, where numpy's own repr would write np.float64(0.1).
    """
    if value is None:
        return ""
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


def _columns(rows: Iterable[Sequence]) -> List[List[str]]:
    """Row tuples as columns of formatted cells; no rows gives no columns."""
    return [list(map(_fmt, column)) for column in zip(*rows)]


def _write_csv(path, header: Sequence[str], blocks: Iterable[Sequence[Sequence[str]]]):
    """Write the header, then each block of equal-length text columns as rows.

    Blocks are written as they come, so a caller can stream a large table
    without holding all of its text at once.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for columns in blocks:
            if columns and len(columns[0]):
                handle.write("\n".join(map(",".join, zip(*columns))))
                handle.write("\n")


def write_round_reports(path, reports: Sequence[RoundReport]):
    _write_csv(
        path,
        ("round", "r_mr", "r_mc", "avg_bandwidth", "draws"),
        [_columns((r.index, r.r_mr, r.r_mc, r.avg_bandwidth, r.draws) for r in reports)],
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
    _write_csv(path, ("value", "cumulative_fraction"), [_columns(cdf_points(values))])


def _trust_cells(trust: np.ndarray, prefix: str = "") -> List[str]:
    """prefix and the repr of each trust value, "" where it is NaN (unscored)."""
    return ["" if math.isnan(tv) else prefix + float.__repr__(tv) for tv in trust.tolist()]


def write_link_trust(path, graph: SocialGraph):
    """One (source, target, network, trust_value) row per link, written
    from the link columns in their (source, target, network) order."""
    links = graph.link_columns()
    _write_csv(
        path,
        ("source", "target", "network", "trust_value"),
        [
            (
                list(map(str, links.source.tolist())),
                list(map(str, links.target.tolist())),
                list(map(str, links.network.tolist())),
                _trust_cells(links.trust),
            )
        ],
    )


def write_trust_scores(path, arrays: TrustArrays):
    """One (source, target, ts, hops) row per scored pair (hops > 0).

    Rows run source-major over the sorted ids, the order of the per-source
    tables' sorted targets. Id and hop cells come from small tables of
    preformatted strings, scores from float.__repr__, and the rows are
    formatted and written _SCORE_BLOCK_ROWS sources at a time.
    """
    id_text = np.array([str(eid) for eid in arrays.ids], dtype=object)
    hop_text = np.array(
        [str(h) for h in range(int(arrays.hops.max(initial=0)) + 1)], dtype=object
    )

    def blocks():
        for lo in range(0, len(id_text), _SCORE_BLOCK_ROWS):
            hi = lo + _SCORE_BLOCK_ROWS
            scored = arrays.hops[lo:hi] > 0
            rows, cols = np.nonzero(scored)
            yield (
                id_text[rows + lo].tolist(),
                id_text[cols].tolist(),
                list(map(float.__repr__, arrays.best[lo:hi][scored].tolist())),
                hop_text[arrays.hops[lo:hi][scored]].tolist(),
            )

    _write_csv(path, ("source", "target", "ts", "hops"), blocks())


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
        [
            _columns(
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
            )
        ],
    )
