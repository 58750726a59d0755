"""Text formats for graphs, rule sets and scenarios, plus CSV writers.

The text formats are line based; blank lines and lines starting with '#' are
skipped everywhere. Serialization orders everything (entities, links, keys)
so the same object always produces the same bytes. A graph is read by
columns: its lines come a piece at a time, read from the file or cut from
the text, and each piece's link lines are grouped by their keys, each
group's tokens becoming arrays at once. The parse checks the tokens and the
order of declaration itself and leaves self links, trust values outside
[0, 1] and duplicate links to SocialGraph.add_links. A text that fails any
check is read again whole by the per-line loop, which raises the error
naming its first bad line; the two accept the same texts and give the same
link columns. The graph text and the link CSV are written from those
columns, which are already in (source, target, network) order, so no link
record is built. A line ends with any break that str.splitlines() takes,
and error messages count lines the same way. Files are read as bytes and
decoded whole; only read_graph streams its file to the column parse first.

Every CSV goes through cells.write_csv, which assembles a block's bytes
from column matrices of NUL-padded cells. Cells follow one rule (None ->
empty, float -> shortest repr, anything else -> str); the float cells of
the link and score tables come from an exact uint64 shortest-digit
kernel. The writers import cells only when they run.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import math
import operator
import re
from importlib import resources
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, OnionTrustError, ParseError
from .fuzzy import VALUE_CLASSES, FuzzyRuleSet, Rule, ValueClass
from .graph import GENERATOR_KINDS, LinkColumns, LinkRows, SocialGraph, _require_id
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


def _read_text(path) -> str:
    """The text of a UTF-8 file, its line ends kept for str.splitlines(). A
    byte that does not decode fails naming its line, counted the same way."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(
            "byte 0x%02x is not UTF-8 (%s)" % (data[exc.start], exc.reason), line=line
        ) from None


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

#: Lines per step of the column parse, counted by their newlines. At most
#: two steps' text and lines and one step's tokens are held at a time,
#: never those of a whole file.
_PARSE_CHUNK = 1024


def parse_graph(text: str) -> SocialGraph:
    """Graph from its text form; strict about counts and references.

    A key repeated on one link line and a second line on the same (source,
    target, network) are errors. The text is parsed by columns, cut into
    pieces by slicing; a text that fails any check goes to the per-line
    loop, which accepts exactly the same texts and raises the ParseError
    that names the first bad line.
    """
    graph = _parse_graph_columns(text)
    return _parse_graph_lines(text) if graph is None else graph


def _graph_header(number: int, parts: List[str]) -> int:
    """The entity count that the header line's tokens declare."""
    if len(parts) != 2 or parts[0] != "entities":
        raise ParseError("expected 'entities <count>' header", line=number)
    count = _parse_int(parts[1], "entity count", number)
    if count < 0:
        raise ParseError("entity count must be >= 0, got %d" % count, line=number)
    return count


def _add_entity_line(graph: SocialGraph, parts: List[str], number: int) -> int:
    """Add the entity of an 'entity' line's tokens to graph; returns its id."""
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
    return eid


def _parse_graph_lines(text: str) -> SocialGraph:
    """parse_graph one line at a time: the reference for every check, and
    the reporter of every error, which names the first bad line."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty graph file", line=1)
    declared = _graph_header(lines[0][0], lines[0][1].split())
    graph = SocialGraph()
    rows = LinkRows()
    keys = set()
    seen_entities = 0
    for number, line in lines[1:]:
        parts = line.split()
        if parts[0] == "entity":
            _add_entity_line(graph, parts, number)
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
                prefix, name = key[:2], key[2:]
                if prefix == "q:":
                    at, values = rows.quant.get(name) or rows.quant.setdefault(name, ([], []))
                    at.append(row)
                    values.append(_parse_float(value, "attribute %s" % key, number))
                elif prefix == "c:":
                    code = _CLASS_CODES.get(value)
                    if code is None:
                        raise ParseError(
                            "bad class %r (want POSITIVE/NEUTRAL/NEGATIVE)" % value,
                            line=number,
                        )
                    at, codes = rows.qual.get(name) or rows.qual.setdefault(name, ([], []))
                    at.append(row)
                    codes.append(code)
                elif key == "network":
                    network = _parse_int(value, "network id", number)
                    try:
                        _require_id("network id", network)
                    except OnionTrustError as exc:
                        raise ParseError(str(exc), line=number) from None
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
    graph.add_links(rows.columns())
    return graph


class _Irregular(Exception):
    """A check of the column parse failed; the per-line loop takes over."""


def _int64_column(tokens: Sequence[str]) -> np.ndarray:
    """int() of each token as int64; an OverflowError is the int64 check."""
    try:
        return np.fromiter(map(int, tokens), dtype=np.int64, count=len(tokens))
    except (ValueError, OverflowError):
        raise _Irregular from None


def _finite_column(tokens: Sequence[str]) -> np.ndarray:
    """float() of each token; every value must be finite."""
    try:
        values = np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
    except ValueError:
        raise _Irregular from None
    if not np.isfinite(values).all():
        raise _Irregular
    return values


def _key_values(key: str, tokens: Sequence[str]) -> Optional[List[str]]:
    """The values of tokens if every one of them is key=value, else None.

    A token holds no newline, so joined on newlines each token adds one
    newline-key-'=' exactly when it starts with key=.
    """
    prefix = "\n" + key + "="
    joined = "\n" + "\n".join(tokens)
    if joined.count(prefix) != len(tokens):
        return None
    return joined.replace(prefix, "\n").split("\n")[1:]


def _check_signature(signature: Tuple[str, ...]):
    """Fail unless a link line may carry these keys in this order."""
    if "network" not in signature or len(set(signature)) < len(signature):
        raise _Irregular
    for key in signature:
        if key[:2] not in ("q:", "c:") and key not in ("network", "tv"):
            raise _Irregular


def _signature_groups(links: List[List[str]]):
    """(signature, ranks, sources, targets, values) per key signature of
    link lines' token lists. The signature is the keys after 'link <from>
    <to>' in order; ranks are the group's indices into links, and values
    holds each key's value tokens.

    When every line has the first line's keys, they form one group without
    a signature being taken line by line.
    """
    signature = tuple(token.partition("=")[0] for token in links[0][3:])
    _check_signature(signature)
    width = len(links[0])
    if list(map(len, links)).count(width) == len(links):
        columns = list(zip(*links))
        values = [_key_values(key, tokens) for key, tokens in zip(signature, columns[3:])]
        if None not in values:
            return [(signature, np.arange(len(links)), columns[1], columns[2], values)]
    groups: Dict[Tuple[str, ...], List[int]] = {}
    for rank, parts in enumerate(links):
        groups.setdefault(tuple([token.partition("=")[0] for token in parts[3:]]), []).append(rank)
    out = []
    for signature, ranks in groups.items():
        _check_signature(signature)
        columns = list(zip(*[links[rank] for rank in ranks]))
        # A token without '=' is its own key, so it is the one that fails.
        values = [_key_values(key, tokens) for key, tokens in zip(signature, columns[3:])]
        if None in values:
            raise _Irregular
        out.append((signature, np.array(ranks), columns[1], columns[2], values))
    return out


def _value_columns(signature: Tuple[str, ...], values: List[List[str]]) -> Dict[str, np.ndarray]:
    """Each key's value tokens as an array, converted and checked as the
    per-line loop does it."""
    columns = {}
    for key, tokens in zip(signature, values):
        if key[:2] == "c:":
            codes = list(map(_CLASS_CODES.get, tokens))
            if None in codes:
                raise _Irregular
            columns[key] = np.array(codes, dtype=np.int8)
        elif key == "network":
            columns[key] = _int64_column(tokens)
        else:  # q: keys and tv, the keys left that _check_signature lets through
            columns[key] = _finite_column(tokens)
    return columns


def _text_pieces(text: str):
    """text cut by slicing after every _PARSE_CHUNK-th newline, so each
    piece but the last ends with a line break."""
    newlines = re.finditer("\n", text)
    start = 0
    while start < len(text):
        cut = next(itertools.islice(newlines, _PARSE_CHUNK - 1, None), None)
        stop = len(text) if cut is None else cut.end()
        yield text[start:stop]
        start = stop


def _file_pieces(handle):
    """The lines of a text-mode handle, _PARSE_CHUNK of them joined per
    piece. Universal newlines have turned every line end into a newline,
    so each piece but the last ends with a line break."""
    while True:
        piece = "".join(itertools.islice(handle, _PARSE_CHUNK))
        if not piece:
            return
        yield piece


class _ColumnParse:
    """One column parse of a graph text, fed a piece of lines at a time.

    It holds the graph with the entities so far, each entity's id and line
    number, the header line, and the link columns: per piece the link lines'
    numbers, sources and targets, and per key the rows that carry it with
    their values. A piece's tokens are dropped once add() returns.
    """

    def __init__(self):
        self.graph = SocialGraph()
        self.header: Optional[Tuple[int, List[str]]] = None
        self.entity_ids: List[int] = []
        self.entity_at: List[int] = []
        self.link_at: List[np.ndarray] = []
        self.source: List[np.ndarray] = []
        self.target: List[np.ndarray] = []
        self.keyed: Dict[str, Tuple[List[np.ndarray], List[np.ndarray]]] = {}
        self.rows = 0

    def add(self, first: int, lines: List[str]):
        """Parse lines, the first of them numbered first."""
        links: List[List[str]] = []
        at: List[int] = []
        # split() drops the whitespace that strip() would, so a blank line
        # has no tokens and a comment's first token starts with '#'.
        for number, parts in enumerate(map(str.split, lines), first):
            if not parts or parts[0][0] == "#":
                continue
            if self.header is None:
                self.header = (number, parts)
            elif parts[0] == "link":
                links.append(parts)
                at.append(number)
            elif parts[0] == "entity":
                self.entity_ids.append(_add_entity_line(self.graph, parts, number))
                self.entity_at.append(number)
            else:
                raise _Irregular
        if not links:
            return
        source = np.empty(len(links), dtype=np.int64)
        target = np.empty(len(links), dtype=np.int64)
        for signature, ranks, sources, targets, values in _signature_groups(links):
            source[ranks] = _int64_column(sources)
            target[ranks] = _int64_column(targets)
            for key, column in _value_columns(signature, values).items():
                have, got = self.keyed.setdefault(key, ([], []))
                have.append(self.rows + ranks)
                got.append(column)
        self.link_at.append(np.array(at, dtype=np.int64))
        self.source.append(source)
        self.target.append(target)
        self.rows += len(links)

    def finish(self) -> SocialGraph:
        """The graph with its links, once the checks that span lines pass:
        the header count and ends that no earlier entity line declared.
        add_links then rejects self links and trust values outside [0, 1];
        a duplicate link shows as a link count short of the rows, since the
        merge keeps one link per (source, target, network) key."""
        if self.header is None or len(self.entity_ids) != _graph_header(*self.header):
            raise _Irregular
        self.graph.add_links(self._link_columns())
        if self.graph.link_count() != self.rows:
            raise _Irregular
        return self.graph

    def _link_columns(self) -> LinkColumns:
        """The links as columns, once every end is an entity declared on an
        earlier line. The per-piece arrays are dropped as they are joined
        and the LinkRows when this returns, so neither is alive during the
        merge into the graph."""
        empty = np.zeros(0, dtype=np.int64)
        at, source, target = (
            np.concatenate(pieces + [empty]) for pieces in (self.link_at, self.source, self.target)
        )
        del self.link_at[:], self.source[:], self.target[:]
        ids = np.array(self.entity_ids, dtype=np.int64)
        order = np.argsort(ids)
        for ends in (source, target):
            _require_declared_before(ends, at, ids[order], np.array(self.entity_at)[order])
        rows = LinkRows()
        rows.source, rows.target = source, target
        rows.network = np.empty(self.rows, dtype=np.int64)
        rows.trust = np.full(self.rows, math.nan)
        while self.keyed:
            key, (have, got) = self.keyed.popitem()
            have, got = np.concatenate(have), np.concatenate(got)
            if key == "network":
                rows.network[have] = got
            elif key == "tv":
                rows.trust[have] = got
            elif key[:2] == "q:":
                rows.quant[key[2:]] = (have, got)
            else:
                rows.qual[key[2:]] = (have, got)
        return rows.columns()


def _require_declared_before(ends, at, ids, declared_at):
    """Fail unless each end is one of the sorted ids and its entity line
    (line number declared_at) comes before its link line (line number at)."""
    k = np.searchsorted(ids, ends)
    ok = k < len(ids)
    ok[ok] = ids[k[ok]] == ends[ok]
    ok[ok] = declared_at[k[ok]] < at[ok]
    if not ok.all():
        raise _Irregular


def _parse_graph_columns(text: str) -> Optional[SocialGraph]:
    """The graph of text parsed by columns, or None where any check fails.

    The text is cut by slicing, _PARSE_CHUNK lines at a time. Entity lines
    go through the per-line loop's own code; link lines are grouped by key
    signature and each group's token columns are converted and checked at
    once; the checks that span lines then run over arrays, and
    SocialGraph.add_links runs the graph's own checks on the links. Every
    text _parse_graph_lines rejects fails a check here and no other text
    does, so None means that loop will raise.
    """
    return _column_graph(_text_pieces(text))


def _column_graph(pieces) -> Optional[SocialGraph]:
    """The graph of the text that pieces cut in order, parsed by columns, or
    None where any check fails or a piece does not decode."""
    parse = _ColumnParse()
    first = 1
    try:
        # Each piece but the last ends with a line break, so in order the
        # pieces' str.splitlines() lines are those of their whole text.
        for piece in pieces:
            lines = piece.splitlines()
            parse.add(first, lines)
            first += len(lines)
        return parse.finish()
    except (OnionTrustError, _Irregular, UnicodeDecodeError):
        return None


def serialize_graph(graph: SocialGraph) -> str:
    """The text form, links written column by column in (source, target,
    network) order: each attribute is one column of tokens, empty where a
    link has no value.

    A present quantitative value that is not finite fails by name, since
    parse_graph would reject its token.
    """
    links = graph.link_columns()
    bad = links.present & ~np.isfinite(links.quant)
    if bad.any():
        row, a = np.argwhere(bad)[0].tolist()
        raise DomainError(
            "link %d->%d network %d: attribute %s is %r, which a graph file "
            "cannot hold" % (links.source[row], links.target[row], links.network[row],
                             links.quant_names[a], float(links.quant[row, a]))
        )
    out = io.StringIO()
    ids = graph.entity_ids()
    out.write("entities %d\n" % len(ids))
    for eid in ids:
        out.write(
            "entity %d bandwidth=%s malicious=%d\n"
            % (eid, repr(graph.bandwidth(eid)), 1 if graph.is_malicious(eid) else 0)
        )
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
    """Graph from a UTF-8 file, as parse_graph reads its text.

    The column parse reads the file _PARSE_CHUNK lines at a time, so its
    whole text is never held. A file that fails any check, or holds a byte
    that does not decode, is read again whole by _read_text for the
    per-line loop, which raises the ParseError that names the first bad
    line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        graph = _column_graph(_file_pieces(handle))
    return _parse_graph_lines(_read_text(path)) if graph is None else graph


def write_graph(path, graph: SocialGraph):
    """Write the text form; a graph that cannot be serialized leaves no file."""
    text = serialize_graph(graph)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


# -- rule-set files ------------------------------------------------------------

#: The codes a qualitative attribute's positive_rule and negative_rule may
#: name: the rules that fire on POSITIVE and on NEGATIVE input.
_POSITIVE_CODES = tuple(rule.code for rule in Rule if rule.input_class is ValueClass.POSITIVE)
_NEGATIVE_CODES = tuple(rule.code for rule in Rule if rule.input_class is ValueClass.NEGATIVE)


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
    return parse_rules(_read_text(path))


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
    return parse_scenario(_read_text(path))


# -- CSV output ----------------------------------------------------------------

#: Sources per write in write_trust_scores, at most: a write assembles at
#: most 32 * n rows, about 10,000 on the benchmark's n = 1000 graph, so the
#: whole table is never held at once.
_SCORE_BLOCK_ROWS = 32

#: Scored pairs that end a write early. A write then holds at most this
#: many plus one source's, so at n = 1000 the float kernel's uint64
#: temporaries stay under 128 KB, the size from which glibc's malloc maps
#: fresh pages for a buffer. With 32 whole sources at hop budget 3, about
#: 25,000 pairs, they did not, and once the trust arrays came in 1 MB
#: blocks `trust --max-hops 3` paged them in anew on most writes.
_SCORE_WRITE_PAIRS = 12_288

#: Links per write in write_link_trust, for the same reason.
_LINK_BLOCK_ROWS = 1 << 13


def write_round_reports(path, reports: Sequence[RoundReport]):
    from . import cells

    cells.write_csv(
        path,
        ("round", "r_mr", "r_mc", "avg_bandwidth", "draws"),
        [cells.record_columns((r.index, r.r_mr, r.r_mc, r.avg_bandwidth, r.draws) for r in reports)],
    )


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """(value, fraction of samples <= value) at each distinct sample value.

    Each value is the last of its run of equal samples in sorted(values),
    so 0.0 and -0.0 come out as they went in; k / total is one correctly
    rounded division, taken in Python: an int-to-float cast would load
    numpy code at the end of a simulation, at its peak memory.
    """
    ordered = np.array(sorted(values), dtype=float)
    ends = np.flatnonzero(np.append(ordered[1:] != ordered[:-1], len(ordered) > 0)).tolist()
    return [(value, (k + 1) / len(ordered)) for value, k in zip(ordered[ends].tolist(), ends)]


def write_cdf(path, values: Sequence[float]):
    from . import cells

    cells.write_csv(
        path, ("value", "cumulative_fraction"), [cells.record_columns(cdf_points(values))]
    )


def _trust_cells(trust: np.ndarray, prefix: str = "") -> List[str]:
    """prefix and the repr of each trust value, "" where it is NaN (unscored)."""
    return ["" if math.isnan(tv) else prefix + float.__repr__(tv) for tv in trust.tolist()]


def write_link_trust(path, graph: SocialGraph):
    """One (source, target, network, trust_value) row per link, written
    from the link columns in their (source, target, network) order,
    _LINK_BLOCK_ROWS links at a time; an unscored link's trust is empty."""
    from . import cells

    links = graph.link_columns()

    def blocks():
        for lo in range(0, len(links), _LINK_BLOCK_ROWS):
            rows = slice(lo, lo + _LINK_BLOCK_ROWS)
            yield (
                cells.int_cells(links.source[rows]),
                cells.int_cells(links.target[rows]),
                cells.int_cells(links.network[rows]),
                cells.float_cells(links.trust[rows]),
            )

    cells.write_csv(path, ("source", "target", "network", "trust_value"), blocks())


def _score_writes(arrays: TrustArrays, id_cells: np.ndarray, hop_cells: np.ndarray):
    """The cell columns of one block's scored pairs, a tuple per write: up
    to _SCORE_BLOCK_ROWS sources, ending early at the source that brings
    their scored pairs to _SCORE_WRITE_PAIRS."""
    from . import cells

    counts = np.count_nonzero(arrays.hops, axis=1).tolist()
    lo = pairs = 0
    for row, count in enumerate(counts, 1):
        pairs += count
        if pairs >= _SCORE_WRITE_PAIRS or row - lo == _SCORE_BLOCK_ROWS or row == len(counts):
            hops = arrays.hops[lo:row]
            scored = np.flatnonzero(hops)
            rows, cols = np.unravel_index(scored, hops.shape)
            yield (
                np.take(id_cells, rows + (arrays.first + lo), axis=0),
                np.take(id_cells, cols, axis=0),
                cells.float_cells(arrays.best[lo:row].ravel()[scored]),
                np.take(hop_cells, hops.ravel()[scored], axis=0),
            )
            lo, pairs = row, 0


def write_trust_scores(path, blocks: Iterable[TrustArrays]):
    """One (source, target, ts, hops) row per scored pair (hops > 0), from
    blocks of consecutive sources in order: propagate_blocks' stream, or
    [arrays] for whole arrays.

    Rows run source-major over the sorted ids, the order of the per-source
    tables' sorted targets. Id and hop cells are gathered from small tables
    of each id's text and of each hop count's up to min(max_hops, n - 1),
    the longest a path can be; scores come from float_cells. Each block is
    written as it comes, a few sources at a time (_score_writes), and let
    go before the next is asked for, so a stream is held a block at a time.
    """
    from . import cells

    def rows():
        id_cells = hop_cells = None
        for arrays in blocks:
            if id_cells is None:
                id_cells = cells.text_cells(list(map(str, arrays.ids)))
                longest = min(arrays.max_hops, len(arrays.ids) - 1)
                hop_cells = cells.text_cells(list(map(str, range(longest + 1))))
            yield from _score_writes(arrays, id_cells, hop_cells)
            del arrays

    cells.write_csv(path, ("source", "target", "ts", "hops"), rows())


def write_sweep_rows(path, rows: Sequence[SweepRow]):
    """One row per SweepRow, its fields as the columns in declaration order."""
    from . import cells

    names = [field.name for field in dataclasses.fields(SweepRow)]
    cells.write_csv(path, names, [cells.record_columns(map(operator.attrgetter(*names), rows))])
