"""Multi-network friendship graph: entities, annotated links, circles.

Entities are onion routers run by people with social ties. A directed link
records that its source counts the target as a friend on one particular
social network, together with the attribute profile of that tie. The same
pair may be linked on several networks; trust merging takes the best one.

The links live as columns (LinkColumns), one row per link in (source,
target, network) order: the ends and network, a quantitative value matrix
with its presence mask, a qualitative class-code matrix and a trust column.
Parsing and generation fill them in bulk, fuzzy scoring writes the trust
column, and every view (merged trust, pair arrays, the link CSV) reads them.
FriendLink is the record add_link takes and link()/links() return; those
records are built from the columns, so changing one leaves the graph as it
is.

Reachability has one implementation, _kernel, a layered pass in the
semiring of a combine ufunc: trust propagation and mean_circle_size (unit
trusts, counting hops > 0) run it with np.multiply, calibration with
np.minimum.

Also home to the synthetic graph generator used by the simulations: directed
Erdos-Renyi edges, either with a fixed edge probability or calibrated so the
mean friendship-circle size hits a target fraction of the graph.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import os
import resource
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .errors import (
    DomainError,
    FrozenGraphError,
    GeneratorParamsError,
    NoLinkError,
    SelfLinkError,
    UnknownEntityError,
)
from .fuzzy import VALUE_CLASSES, ValueClass


@dataclass
class AttributeProfile:
    """Raw annotations of one friendship link.

    quantitative holds non-negative interaction measures (e.g. messages per
    week); qualitative holds judgements of descriptive attributes.
    """

    quantitative: Dict[str, float] = field(default_factory=dict)
    qualitative: Dict[str, ValueClass] = field(default_factory=dict)


@dataclass
class Entity:
    """One onion router and the person behind it."""

    entity_id: int
    bandwidth: float
    malicious: bool = False


@dataclass
class FriendLink:
    """Directed friendship tie on one social network.

    trust_value stays None until the fuzzy engine has scored the link.
    """

    source: int
    target: int
    network: int
    profile: AttributeProfile
    trust_value: Optional[float] = None


@dataclass
class LinkColumns:
    """Links as columns, one row per link.

    source, target and network are int64 ids. quant holds the quantitative
    values over quant_names, with present marking the values a link has (a
    NaN is a value, so absence needs its own mask); qual holds codes into
    VALUE_CLASSES over qual_names, -1 where a link has no judgement; trust
    is NaN until the link is scored.
    """

    source: np.ndarray
    target: np.ndarray
    network: np.ndarray
    quant_names: Tuple[str, ...]
    quant: np.ndarray
    present: np.ndarray
    qual_names: Tuple[str, ...]
    qual: np.ndarray
    trust: np.ndarray

    def __len__(self) -> int:
        return len(self.source)

    def take(self, rows) -> "LinkColumns":
        return dataclasses.replace(
            self, **{name: getattr(self, name)[rows] for name in _LINK_ARRAYS}
        )

    def widen(self, quant_names: Tuple[str, ...], qual_names: Tuple[str, ...]) -> "LinkColumns":
        """The same links over name lists that contain this one's names."""
        size = len(self)
        quant = np.zeros((size, len(quant_names)))
        present = np.zeros((size, len(quant_names)), dtype=bool)
        at = [quant_names.index(name) for name in self.quant_names]
        quant[:, at] = self.quant
        present[:, at] = self.present
        qual = np.full((size, len(qual_names)), -1, dtype=np.int8)
        qual[:, [qual_names.index(name) for name in self.qual_names]] = self.qual
        return dataclasses.replace(
            self, quant_names=quant_names, quant=quant, present=present,
            qual_names=qual_names, qual=qual,
        )

    def records(self) -> List[FriendLink]:
        """A fresh FriendLink per row, in row order."""
        quant_names, qual_names = self.quant_names, self.qual_names
        return [
            FriendLink(
                source,
                target,
                network,
                AttributeProfile(
                    {name: value for name, value, has in zip(quant_names, values, has_row) if has},
                    {name: VALUE_CLASSES[code] for name, code in zip(qual_names, codes) if code >= 0},
                ),
                None if math.isnan(trust) else trust,
            )
            for source, target, network, values, has_row, codes, trust in zip(
                self.source.tolist(),
                self.target.tolist(),
                self.network.tolist(),
                self.quant.tolist(),
                self.present.tolist(),
                self.qual.tolist(),
                self.trust.tolist(),
            )
        ]


#: The LinkColumns fields that hold one entry per link.
_LINK_ARRAYS = ("source", "target", "network", "quant", "present", "qual", "trust")

#: The ones LinkColumns.widen keeps as they are, shared with the original.
_SHARED_ARRAYS = ("source", "target", "network", "trust")

_CLASS_CODE = {value_class: code for code, value_class in enumerate(VALUE_CLASSES)}


class LinkRows:
    """Links gathered one at a time, turned into LinkColumns at once.

    A caller that holds whole columns may set the fields to arrays in place
    of the lists; columns() reads either the same way.
    """

    def __init__(self):
        self.source: List[int] = []
        self.target: List[int] = []
        self.network: List[int] = []
        self.trust: List[float] = []
        # name -> (rows that have it, their values or class codes)
        self.quant: Dict[str, Tuple[List[int], List[float]]] = {}
        self.qual: Dict[str, Tuple[List[int], List[int]]] = {}

    def append(
        self,
        source: int,
        target: int,
        network: int,
        quantitative: Mapping[str, float],
        qualitative: Mapping[str, ValueClass],
        trust: Optional[float] = None,
    ):
        """Add one link; a value that is not a number, or a judgement that
        is not a ValueClass, fails naming the link and attribute, and adds
        nothing."""
        quant, qual = [], []
        for name, value in quantitative.items():
            try:
                quant.append((name, float(value)))
            except (TypeError, ValueError):
                raise DomainError(
                    "link %d->%d network %d: attribute %r = %r is not a number"
                    % (source, target, network, name, value)
                ) from None
        for name, value_class in qualitative.items():
            if not isinstance(value_class, ValueClass):
                raise DomainError(
                    "link %d->%d network %d: attribute %r = %r is not a ValueClass"
                    % (source, target, network, name, value_class)
                )
            qual.append((name, _CLASS_CODE[value_class]))
        row = len(self.source)
        self.source.append(source)
        self.target.append(target)
        self.network.append(network)
        self.trust.append(math.nan if trust is None else float(trust))
        for columns, pairs in ((self.quant, quant), (self.qual, qual)):
            for name, value in pairs:
                rows, values = columns.setdefault(name, ([], []))
                rows.append(row)
                values.append(value)

    def columns(self) -> LinkColumns:
        size = len(self.source)
        quant_names = tuple(sorted(self.quant))
        qual_names = tuple(sorted(self.qual))
        quant = np.zeros((size, len(quant_names)))
        present = np.zeros((size, len(quant_names)), dtype=bool)
        for a, name in enumerate(quant_names):
            rows, values = self.quant[name]
            quant[rows, a] = values
            present[rows, a] = True
        qual = np.full((size, len(qual_names)), -1, dtype=np.int8)
        for a, name in enumerate(qual_names):
            rows, codes = self.qual[name]
            qual[rows, a] = codes
        return LinkColumns(
            source=np.array(self.source, dtype=np.int64),
            target=np.array(self.target, dtype=np.int64),
            network=np.array(self.network, dtype=np.int64),
            quant_names=quant_names,
            quant=quant,
            present=present,
            qual_names=qual_names,
            qual=qual,
            trust=np.array(self.trust, dtype=float),
        )


def _merged(old: LinkColumns, new: LinkColumns) -> LinkColumns:
    """old then new, sorted by (source, target, network); a later link on
    the same key replaces the earlier one.

    new is widened to the merged names. Into empty columns of the same
    dtypes it is taken alone, with its key and trust columns copied, so
    the result is its one copy and shares nothing with the caller's. Keys
    that already strictly increase, as generate_graph and serialize_graph
    give them, are kept in place; only keys out of order or repeated are
    sorted.
    """
    quant_names = tuple(sorted(set(old.quant_names) | set(new.quant_names)))
    qual_names = tuple(sorted(set(old.qual_names) | set(new.qual_names)))
    both = new.widen(quant_names, qual_names)
    alone = not len(old) and all(
        getattr(old, name).dtype == getattr(both, name).dtype for name in _LINK_ARRAYS
    )
    if not alone:
        old = old.widen(quant_names, qual_names)
        both = dataclasses.replace(
            old,
            **{
                name: np.concatenate([getattr(old, name), getattr(both, name)])
                for name in _LINK_ARRAYS
            },
        )
    source, target, network = both.source, both.target, both.network
    rises = (source[1:] > source[:-1]) | (
        (source[1:] == source[:-1])
        & ((target[1:] > target[:-1]) | ((target[1:] == target[:-1]) & (network[1:] > network[:-1])))
    )
    if rises.all():
        if alone:  # widen shares these columns with new
            both = dataclasses.replace(
                both, **{name: getattr(both, name).copy() for name in _SHARED_ARRAYS}
            )
        return both
    # lexsort is stable, so the last row of each run of equal keys is the
    # latest one added.
    order = np.lexsort((network, target, source))
    source, target, network = source[order], target[order], network[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (
        (source[1:] != source[:-1]) | (target[1:] != target[:-1]) | (network[1:] != network[:-1])
    )
    return both.take(order[last])


class SocialGraph:
    """Mutable-until-frozen container for entities and links.

    Links live as LinkColumns sorted by (source, target, network), so the
    parallel links of a pair sit together for trust merging. Links added
    one at a time wait in a LinkRows until the columns are next read. A
    graph is input only: where a scenario's adversary sits and how its
    bandwidths are shaped live in the simulation's arrays, never in a
    modified copy of the graph.
    """

    def __init__(self):
        self._entities: Dict[int, Entity] = {}
        self._links = LinkRows().columns()
        self._pending = LinkRows()
        self._frozen = False

    # -- construction ------------------------------------------------------

    def add_entity(self, entity_id: int, bandwidth: float, malicious: bool = False):
        if self._frozen:
            raise FrozenGraphError("graph is frozen")
        _require_id("entity id", entity_id)
        if not _positive_finite(bandwidth):
            raise DomainError(
                "entity %d: bandwidth must be positive and finite, got %r"
                % (entity_id, bandwidth)
            )
        self._entities[entity_id] = Entity(entity_id, float(bandwidth), bool(malicious))

    def check_ends(self, source: int, target: int):
        """Raise the error add_link gives a link between these two ids, if any."""
        if source == target:
            raise SelfLinkError("entity %s cannot link to itself" % (source,))
        self._require_entity(source)
        self._require_entity(target)

    def add_link(self, link: FriendLink):
        """Insert a link; a link on the same (source, target, network) is replaced.

        The graph keeps the link's fields, not the record: changing the
        record afterwards does not change the graph.
        """
        if self._frozen:
            raise FrozenGraphError("graph is frozen")
        self.check_ends(link.source, link.target)
        _require_id("network id", link.network)
        _check_trust(link.source, link.target, link.network, link.trust_value)
        self._pending.append(
            link.source,
            link.target,
            link.network,
            link.profile.quantitative,
            link.profile.qualitative,
            link.trust_value,
        )

    def add_links(self, links: LinkColumns):
        """Insert many links at once, as add_link would one by one."""
        if self._frozen:
            raise FrozenGraphError("graph is frozen")
        _check_layout(links)
        ids = np.array(self.entity_ids(), dtype=np.int64)
        bad = (
            (links.source == links.target)
            | ~np.isin(links.source, ids)
            | ~np.isin(links.target, ids)
            | (links.trust < 0.0)
            | (links.trust > 1.0)
        )
        if bad.any():
            row = int(np.argmax(bad))
            source, target = int(links.source[row]), int(links.target[row])
            self.check_ends(source, target)
            _check_trust(source, target, int(links.network[row]), float(links.trust[row]))
        self._links = _merged(self.link_columns(), links)

    def freeze(self):
        """Forbid further entity/link insertion. Trust values may still be set."""
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entities)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SocialGraph):
            return NotImplemented
        return self._entities == other._entities and self.links() == other.links()

    def entity_ids(self) -> List[int]:
        return sorted(self._entities)

    def has_entity(self, entity_id: int) -> bool:
        return entity_id in self._entities

    def _require_entity(self, entity_id: int):
        if entity_id not in self._entities:
            raise UnknownEntityError("unknown entity %s" % (entity_id,))

    def bandwidth(self, entity_id: int) -> float:
        self._require_entity(entity_id)
        return self._entities[entity_id].bandwidth

    def is_malicious(self, entity_id: int) -> bool:
        self._require_entity(entity_id)
        return self._entities[entity_id].malicious

    def link_columns(self) -> LinkColumns:
        """The links as columns, in (source, target, network) order.

        The columns are the graph's own: fuzzy scoring writes the trust
        column in place, and nothing else may be written.
        """
        if self._pending.source:
            pending, self._pending = self._pending, LinkRows()
            self._links = _merged(self._links, pending.columns())
        return self._links

    def links(self) -> List[FriendLink]:
        """All links as fresh records, sorted by (source, target, network)."""
        return self.link_columns().records()

    def link_count(self) -> int:
        """Number of links, counted without building them."""
        return len(self.link_columns())

    def _pair_rows(self, source: int, target: int) -> Tuple[int, int]:
        """[lo, hi) rows of the (source, target) links, networks ascending."""
        links = self.link_columns()
        lo, hi = np.searchsorted(links.source, [source, source + 1]).tolist()
        found = lo + np.searchsorted(links.target[lo:hi], [target, target + 1])
        return int(found[0]), int(found[1])

    def link(self, source: int, target: int, network: int) -> FriendLink:
        lo, hi = self._pair_rows(source, target)
        links = self.link_columns()
        row = lo + int(np.searchsorted(links.network[lo:hi], network))
        if row == hi or links.network[row] != network:
            raise NoLinkError(
                "no link %d->%d on network %d" % (source, target, network)
            )
        return links.take([row]).records()[0]

    def networks(self) -> frozenset:
        return frozenset(np.unique(self.link_columns().network).tolist())

    # -- trust views -------------------------------------------------------

    def merge_trust(self, source: int, target: int) -> float:
        """Best per-network trust value of the (source, target) tie."""
        self._require_entity(source)
        self._require_entity(target)
        lo, hi = self._pair_rows(source, target)
        if lo == hi:
            raise NoLinkError("no link %d->%d on any network" % (source, target))
        links = self.link_columns()
        _require_scored(links, lo, hi)
        return float(links.trust[lo:hi].max())

    def pair_arrays(self, trust: bool = False):
        """The id->row index and every linked pair as arrays, gathered fresh.

        Returns (ids, src, tgt, tv): the entity ids in row order, the source
        and target row of each linked pair, and with trust=True each pair's
        merged trust value (None otherwise). Links on several networks
        between the same pair count as one pair; pairs come in (source,
        target) order.
        """
        ids = self.entity_ids()
        links = self.link_columns()
        first = np.ones(len(links), dtype=bool)
        first[1:] = (links.source[1:] != links.source[:-1]) | (
            links.target[1:] != links.target[:-1]
        )
        starts = np.flatnonzero(first)
        tv = None
        if trust:
            _require_scored(links, 0, len(links))
            tv = np.maximum.reduceat(links.trust, starts) if len(links) else np.zeros(0)
        index = np.array(ids, dtype=np.int64)
        return (
            ids,
            np.searchsorted(index, links.source[starts]),
            np.searchsorted(index, links.target[starts]),
            tv,
        )


def _check_layout(links: LinkColumns):
    """Fail naming the field unless every per-link column has one entry (a
    row) per link, each attribute name is given once with one matrix
    column of its own, and every class code is -1 or a VALUE_CLASSES
    index."""
    size = (np.size(links.source),)
    shapes = {name: size for name in ("source", "target", "network", "trust")}
    for field, names in (("quant", links.quant_names), ("qual", links.qual_names)):
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise DomainError("link columns: %s_names gives %r more than once" % (field, repeated[0]))
        shapes[field] = size + (len(names),)
    shapes["present"] = shapes["quant"]
    for name in _LINK_ARRAYS:
        shape = np.shape(getattr(links, name))
        if shape != shapes[name]:
            raise DomainError("link columns: %s has shape %r, expected %r" % (name, shape, shapes[name]))
    codes = np.asarray(links.qual)
    bad = (codes < -1) | (codes >= len(VALUE_CLASSES))
    if bad.any():
        raise DomainError(
            "link columns: qual holds class code %r; codes are -1..%d"
            % (codes[bad][0].item(), len(VALUE_CLASSES) - 1)
        )


def _check_trust(source: int, target: int, network: int, trust: Optional[float]):
    """Fail naming the link unless trust is in [0, 1] or unscored (None or NaN)."""
    if trust is not None and (trust < 0.0 or trust > 1.0):
        raise DomainError(
            "link %d->%d network %d: trust value must be in [0, 1], got %r"
            % (source, target, network, float(trust))
        )


def _require_scored(links: LinkColumns, lo: int, hi: int):
    """Fail naming the first of rows [lo, hi) that has no trust value yet."""
    unscored = np.flatnonzero(np.isnan(links.trust[lo:hi]))
    if len(unscored):
        row = lo + int(unscored[0])
        raise DomainError(
            "link %d->%d network %d has no trust value yet"
            % (links.source[row], links.target[row], links.network[row])
        )


#: Candidates (prefix cell x out-link) that one chunk of a delta layer
#: extends, at most, whatever the pass's rows: that keeps a chunk's index
#: and value arrays at a few hundred KB.
DELTA_CHUNK = 1 << 13

#: Candidates (prefix row x in-link) that one chunk of a dense layer takes,
#: about: a chunk's candidate matrix holds 256 KB whatever the pass's rows.
DENSE_CHUNK = 1 << 15


def _delta_layer_wins(work, rows, links):
    """Whether a layer runs as a delta layer: its candidate count, work, is
    below a quarter of the rows * links products of a dense layer over the
    pass's source rows. (A delta candidate costs several gathers and a
    scattered maximum, a dense product one contiguous multiply.) Both
    sides count the pass's own rows, so a block of sources weighs its
    share of the work as the whole pass weighs all of it; a one-row pass
    runs a layer dense once its candidates reach a quarter of the links."""
    return 4 * work < rows * links


def _kernel(n, src, tgt, tv, rows, max_hops, combine, in_links=None):
    """One pass for the source rows (ascending), layer by layer to max_hops.

    Yields (best, hops) after each layer: the same (len(rows), n) arrays
    over [row, target], updated in place, for the linked pairs src -> tgt
    (in (source, target) order) of weight tv. A cell is reached where
    hops > 0; elsewhere best is -inf ("no walk yet") and hops 0. hops has
    the smallest unsigned dtype that holds min(max_hops, n), as no hop
    count exceeds either. Layer r raises a cell to the best r-link walk
    value, the best (r - 1)-link prefix value combined with the last link,
    and sets its hop count to r; a target's hop count is thus the first
    layer that reaches it or strictly raises its value.

    combine is the semiring's product (Mohri 2002): np.multiply for trust,
    tv in [0, 1], and np.minimum for bottleneck widths. It must be monotone
    in the prefix and never exceed it, combine(a, t) <= a. Monotone makes
    the best r-link walk extend a best prefix; never exceeding the prefix
    means dropping a cycle never lowers a walk, so the best walk of at most
    r links is as good as the best such path, and no source scores its own
    cell. Rounding is monotone, so both ufuncs keep this in floats.

    Layer r can only raise a cell through a prefix cell that layer r - 1
    raised (its delta; layer 2's is every linked pair), since an unchanged
    prefix offered the same value a layer earlier. The delta is read off
    hops (the cells whose count is r - 1), and its candidate count is the
    sum of its prefix targets' out-degrees. _delta_layer_wins picks each
    layer's mode from that count: a delta layer extends only the delta
    (_delta_layer), a dense layer every prefix (_dense_layer, on one
    target-major copy of best). Both give the same bits. Layer 2 extends
    the linked pairs alone, about len(rows) * L^2 / n^2 products against a
    dense layer's len(rows) * L, so on sparse graphs a budget of 2 makes no
    copy; later layers on calibrated graphs raise most of each circle and
    run dense. A pass ends once a layer has no candidates, so a budget past
    the longest shortest path costs nothing.

    A dense layer reads the links in target order, in_links() (by default
    built at the first dense layer and kept for the pass); passes over
    blocks of one graph's rows can share one cached builder.
    """
    rows = np.asarray(rows)
    best = np.full((len(rows), n), -np.inf)
    hops = np.zeros(best.shape, dtype=np.min_scalar_type(min(max_hops, n)))
    first = np.isin(src, rows)
    cells = np.searchsorted(rows, src[first]) * n + tgt[first]
    best.reshape(-1)[cells] = tv[first]
    hops.reshape(-1)[cells] = 1
    yield best, hops
    out_lo = np.searchsorted(src, np.arange(n + 1))
    degree = np.diff(out_lo)
    if in_links is None:
        in_links = functools.cache(functools.partial(_in_links, n, src, tgt, tv))
    for r in range(2, max_hops + 1):
        work = int(np.count_nonzero(hops == r - 1, axis=0) @ degree)
        if work == 0:
            return
        if _delta_layer_wins(work, len(rows), len(src)):
            _delta_layer(best, hops, r, rows, out_lo, tgt, tv, combine)
        else:
            _dense_layer(best, hops, r, rows, combine, *in_links())
        yield best, hops


def _in_links(n, src, tgt, tv):
    """(in_src, in_tv, groups) for _dense_layer: the links in target order,
    and per in-degree d >= 1 (d, the targets with d in-links, the first
    in-link of each)."""
    order = np.argsort(tgt, kind="stable")
    starts = np.searchsorted(tgt[order], np.arange(n + 1))
    degree = np.diff(starts)
    by_degree = np.argsort(degree, kind="stable")
    ds, cuts = np.unique(degree[by_degree], return_index=True)
    groups = [
        (d, targets, starts[targets])
        for d, targets in zip(ds.tolist(), np.split(by_degree, cuts[1:]))
        if d
    ]
    return src[order], tv[order], groups


def _delta_layer(best, hops, r, rows, out_lo, tgt, tv, combine):
    """Layer r from its delta: the cells layer r - 1 raised, which are those
    whose hop count is r - 1.

    A chunk of at most DELTA_CHUNK candidates expands delta cells (s, k)
    by k's out-links (k, j) into combine(prefix, t[k, j]), where prefix is
    the value of (s, k) when the layer began, and folds them into best in
    place by maximum.at. A cell is raised where that makes it strictly
    larger than before the chunk. The prefixes come from that snapshot and
    never from best, so a cell raised earlier in the layer cannot feed an
    (r + 1)-link walk into layer r. Prefixes are reached, so no candidate
    is NaN or -inf. A walk back to its source may raise the source's own
    cell; like _dense_layer, the layer resets those cells once at its end.
    """
    n = best.shape[1]
    flat, hop_flat = best.reshape(-1), hops.reshape(-1)
    delta = np.flatnonzero(hop_flat == r - 1)
    prefix = flat[delta]
    row, k = np.divmod(delta, n)
    first, count = out_lo[k], out_lo[k + 1] - out_lo[k]
    ends = np.cumsum(count)
    # Chunk c holds the cells whose candidates end in ((c-1)C, cC], C the
    # chunk size: at most C candidates, plus one cell's out-links.
    stops = np.searchsorted(ends, np.arange(DELTA_CHUNK, ends[-1] + DELTA_CHUNK, DELTA_CHUNK),
                            side="right").tolist()
    lo = 0
    for hi in stops:
        if lo == hi:
            continue
        c = count[lo:hi]
        # Candidate g of the layer extends its cell by out-link g - start
        # of that cell, where start is the cell's first candidate.
        start = ends[lo:hi] - c
        link = np.arange(start[0], ends[hi - 1]) + np.repeat(first[lo:hi] - start, c)
        cell = np.repeat(row[lo:hi] * n, c) + tgt[link]
        cand = combine(np.repeat(prefix[lo:hi], c), tv[link])
        old = flat[cell]
        np.maximum.at(flat, cell, cand)
        # A cell ends above old exactly where one of its candidates is.
        hop_flat[cell[cand > old]] = r
        # Free this chunk's arrays before the next chunk builds its own.
        del link, cell, cand, old
        lo = hi
    own = np.arange(len(rows)) * n + rows
    flat[own] = -np.inf
    hop_flat[own] = 0


def _dense_layer(best, hops, r, rows, combine, in_src, in_tv, groups):
    """Layer r over every prefix.

    It works on a target-major snapshot of best, where the in-neighbours
    of a target are whole contiguous rows: each target j takes the fmax
    over its in-neighbours k of combine(prefix[k], t[k, j]) into its
    column of best. groups holds, per in-degree d, the first in-link of
    each target with d in-links; targets of one degree are taken together,
    about DENSE_CHUNK candidates at a time, each one's in-links reduced in
    order as for one target alone. An unreached prefix gives -inf, or NaN
    when multiplied through a zero-trust link; fmax skips both, so
    zero-trust paths still reach.
    """
    prefix = best.T.copy()
    with np.errstate(invalid="ignore"):  # -inf * 0.0 is NaN, skipped by fmax
        for d, targets, starts in groups:
            step = max(1, DENSE_CHUNK // (d * len(rows)))
            for lo in range(0, len(targets), step):
                js = targets[lo : lo + step]
                links = starts[lo : lo + step, None] + np.arange(d)
                cand = combine(prefix[in_src[links]], in_tv[links][..., None])
                best[:, js] = np.fmax(prefix[js], np.fmax.reduce(cand, axis=1)).T
    # Walks back to the source: the loop above may write a source's own
    # cell, but the layer read its prefixes from the snapshot.
    best[np.arange(len(rows)), rows] = -np.inf
    hops[best > prefix.T] = r


#: Hop budget of friendship circles and trust propagation unless a caller
#: says otherwise.
DEFAULT_MAX_HOPS = 2

#: A mean circle size is taken over this many evenly spaced sources, or
#: over all of them in a smaller graph.
CIRCLE_SAMPLE = 300


def _sample_rows(n: int) -> np.ndarray:
    # With n <= CIRCLE_SAMPLE the step is exactly 1.0, so this is arange(n).
    return np.linspace(0, n - 1, min(n, CIRCLE_SAMPLE)).astype(int)


def _is_integer(value) -> bool:
    """value is an integer, numpy's included; a bool is not one, though
    Python counts it as Integral."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require_integer(field: str, value, error: type) -> None:
    """Fail with error naming field unless value is an integer."""
    if not _is_integer(value):
        raise error("%s must be an integer, got %r" % (field, value))


def _positive_finite(value) -> bool:
    """value is above zero and finite; an integer past the float range is
    not finite."""
    try:
        return math.isfinite(value) and value > 0.0
    except OverflowError:
        return False


#: The bounds of the int64 id columns.
_ID_MIN, _ID_MAX = -(2**63), 2**63 - 1


def _require_id(what: str, value) -> None:
    """Fail naming value unless it is an integer that fits the int64 id
    columns."""
    # A parsed id is a plain int; the Integral check costs about 1 us per
    # call, which adds up over the link lines of a graph file.
    if type(value) is not int:
        _require_integer(what, value, DomainError)
    if not _ID_MIN <= value <= _ID_MAX:
        raise DomainError("%s %d is outside int64" % (what, value))


def check_max_hops(max_hops) -> None:
    """Fail naming max_hops unless it is an integer hop budget of at least 1."""
    if not _is_integer(max_hops) or max_hops < 1:
        raise DomainError("max_hops must be an integer >= 1, got %r" % (max_hops,))


def mean_circle_size(graph: SocialGraph, max_hops: int = DEFAULT_MAX_HOPS) -> float:
    """Mean ||F_i|| over the sources _sample_rows picks."""
    check_max_hops(max_hops)
    if not len(graph):
        raise DomainError("graph has no entities")
    ids, src, tgt, _ = graph.pair_arrays()
    rows = _sample_rows(len(ids))
    for _, hops in _kernel(len(ids), src, tgt, np.ones(len(src)), rows, max_hops, np.multiply):
        pass
    return np.count_nonzero(hops) / len(rows)


# -- synthetic graphs -------------------------------------------------------

#: Default cap for generated router bandwidths, in bytes per second.
DEFAULT_BANDWIDTH_MAX = 10_000_000.0

#: Attributes every generated link carries, and the cap of the raw
#: quantitative draws before the target's reputation scales them down.
QUANTITATIVE_NAMES = ("freq", "time")
QUALITATIVE_NAMES = ("Major", "Relationship")
RAW_HIGH = 10.0

#: Generator kinds: "er" draws each edge with a fixed probability,
#: "calibrated" fits the probability to a target mean circle size.
GENERATOR_KINDS = ("er", "calibrated")

#: How far the calibrated mean circle size may land from its target.
CALIBRATION_TOL = 2.5


@dataclass(frozen=True)
class GeneratorParams:
    """How to synthesize a graph: kind "er" draws each directed edge with
    probability value; kind "calibrated" picks the edge probability whose
    mean circle size is value * n."""

    n: int
    kind: str
    value: float
    bandwidth_max: float = DEFAULT_BANDWIDTH_MAX
    max_hops: int = DEFAULT_MAX_HOPS

    def __post_init__(self):
        _require_integer("n", self.n, GeneratorParamsError)
        _require_integer("max_hops", self.max_hops, GeneratorParamsError)
        if self.n < 1:
            raise GeneratorParamsError("n must be >= 1, got %d" % self.n)
        if self.kind not in GENERATOR_KINDS:
            raise GeneratorParamsError("unknown generator kind %r" % (self.kind,))
        if self.kind == "er":
            if not 0.0 <= self.value <= 1.0:
                raise GeneratorParamsError(
                    "er edge probability must be in [0, 1], got %r" % (self.value,)
                )
        elif not 0.0 < self.value < 1.0:
            raise GeneratorParamsError(
                "calibrated circle fraction must be in (0, 1), got %r" % (self.value,)
            )
        if not _positive_finite(self.bandwidth_max):
            raise GeneratorParamsError(
                "bandwidth_max must be positive and finite, got %r" % (self.bandwidth_max,)
            )
        if self.max_hops < 1:
            raise GeneratorParamsError("max_hops must be >= 1, got %r" % (self.max_hops,))


#: Margin of the calibration's first bracket over its Erdos-Renyi estimate
#: of p. The bisection's sizes at p <= h are exact whatever h is, so the
#: margin sets the work, not p: a bracket whose circles do not clear the
#: target by more than the tolerance is read again at twice its h.
BRACKET_MARGIN = 1.25

#: Uniforms one block of the edge draw holds, at most, in whole rows (at
#: least one): 512 KiB of float64 at any n.
DRAW_BLOCK = 1 << 16

#: Bytes a link below the bracket takes while generation holds it: int64
#: source and target rows and its float64 uniform.
_LINK_BYTES = 24


class _EdgeUniforms:
    """The generator's n x n edge uniforms, never held whole.

    u[lo:hi] draws rows lo..hi-1 from the seed's edge stream into one
    reused buffer, and a read from row 0 starts the stream anew. Read in
    order from row 0, as _links_below reads, the rows are those of one
    rng.random((n, n)) draw. A block holds only until the next read.
    """

    def __init__(self, seed: np.random.SeedSequence, n: int):
        self._seed, self._n = seed, n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, rows: slice) -> np.ndarray:
        lo, hi = rows.start, min(rows.stop, self._n)
        if lo == 0:
            self._rng = np.random.default_rng(self._seed)
            self._buffer = np.empty((hi, self._n))
        block = self._buffer[: hi - lo]
        self._rng.random(out=block)
        return block


def _links_below(u, h: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The links u < h, self loops left out, as (src, tgt, w) columns in
    row-major order: each link's source and target row and its u.

    u is read DRAW_BLOCK uniforms of rows at a time, as u[lo:hi] in order
    from row 0, which a square array and _EdgeUniforms both provide.
    """
    n = len(u)
    step = max(1, DRAW_BLOCK // n)
    src, tgt, w = [], [], []
    for lo in range(0, n, step):
        block = u[lo : lo + step]
        below = block < h
        np.fill_diagonal(below[:, lo:], False)  # a self loop never widens a circle
        cells = np.flatnonzero(below)
        rows, cols = np.divmod(cells, n)
        src.append(rows + lo)
        tgt.append(cols)
        w.append(block.reshape(-1)[cells])
    return np.concatenate(src), np.concatenate(tgt), np.concatenate(w)


def _bottleneck_widths(n: int, links, max_hops: int) -> np.ndarray:
    """Bottleneck widths -D over links (src, tgt, w) below some h, from the
    _sample_rows sources: D[s, j] is the smallest largest w over walks of
    at most max_hops links from s to j, and the width is -inf where there
    is none. At any p <= h, j is in s's circle exactly where the width is
    above -p."""
    src, tgt, w = links
    for widths, _ in _kernel(n, src, tgt, -w, _sample_rows(n), max_hops, np.minimum):
        pass
    return widths


def _mean_circle_size(widths: np.ndarray, p: float) -> float:
    """One calibration step: the mean circle size at edge probability p."""
    return np.count_nonzero(widths > -p) / len(widths)


def _bracket(params: GeneratorParams) -> float:
    """The edge probability below which generation first reads links: er's
    own p, or BRACKET_MARGIN over an Erdos-Renyi estimate of the calibrated
    p, at most 1."""
    if params.kind == "er":
        return params.value
    max_hops = params.max_hops
    guess = (-math.log1p(-params.value)) ** (1 / max_hops) / params.n ** ((max_hops - 1) / max_hops)
    return min(1.0, BRACKET_MARGIN * guess)


def _calibrated_links(u, params: GeneratorParams) -> Tuple[float, Tuple[np.ndarray, ...]]:
    """(p, links): the edge probability hitting the target mean circle size,
    and the links below the last bracket searched, which hold every link
    below p, as _links_below gives them.

    The SAME uniforms u are thresholded at every candidate p, so the edge
    set (and with it the mean circle size) grows monotonically in p and the
    search is well behaved. Missing CALIBRATION_TOL within 60 steps raises
    GeneratorParamsError naming the closest size reached.

    One _bottleneck_widths pass at h gives the size at every p <= h. h
    starts at _bracket and doubles (up to 1) until its size clears the
    target by more than the tolerance; a step with mid > h then goes down
    unread. Only a miss's closest size needs those steps, so a miss replays
    the search over every link (h = 1). Each new h reads u again.
    """
    n, target, max_hops = params.n, params.value * params.n, params.max_hops

    def read(h):
        links = _links_below(u, h)
        return links, _bottleneck_widths(n, links, max_hops)

    h = _bracket(params)
    links, widths = read(h)
    while h < 1.0 and _mean_circle_size(widths, h) <= target + CALIBRATION_TOL:
        h = min(1.0, 2.0 * h)
        links, widths = read(h)
    while True:
        lo, hi = 0.0, 1.0
        best_p, best_size = 1.0, float("inf")
        for _ in range(60):
            mid = (lo + hi) / 2.0
            # past h the size is above target + tol, so the step goes down
            size = _mean_circle_size(widths, mid) if mid <= h else math.inf
            if abs(size - target) <= CALIBRATION_TOL:
                return mid, links
            if abs(size - target) < abs(best_size - target):
                best_p, best_size = mid, size
            if size < target:
                lo = mid
            else:
                hi = mid
        if h == 1.0:
            break
        h = 1.0
        links, widths = read(h)
    raise GeneratorParamsError(
        "calibration missed mean circle size %g within %g: closest was %g at p = %r"
        % (target, CALIBRATION_TOL, best_size, best_p)
    )


def _memory_bytes() -> int:
    """The address-space limit when one is set, else physical memory."""
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        return soft
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def generate_graph(params: GeneratorParams, seed: int) -> SocialGraph:
    """Deterministic synthetic graph for (params, seed).

    Edges, bandwidths and link attributes come from independent substreams
    of the seed, so calibration never perturbs bandwidths or attributes.
    The edge uniforms u are drawn a block of rows at a time and only the
    links below the bracket are kept, so no n x n array is held; the links
    are those with u < p of one rng.random((n, n)) draw from the edge
    stream. A graph whose bracket's links would not fit in memory (the
    address-space limit, else physical memory) fails before any draw.
    """
    _require_integer("seed", seed, GeneratorParamsError)
    if seed < 0:
        raise GeneratorParamsError("seed must be >= 0, got %r" % (seed,))
    edge_ss, bw_ss, attr_ss = np.random.SeedSequence(seed).spawn(3)
    n = params.n
    h = _bracket(params)
    need, memory = int(h * n * n) * _LINK_BYTES, _memory_bytes()
    if need > memory:
        raise GeneratorParamsError(
            "n = %d: the links below edge probability %.3g would take about "
            "%d bytes, more than the %d bytes of memory" % (n, h, need, memory)
        )

    u = _EdgeUniforms(edge_ss, n)
    if params.kind == "er":
        p, (src, tgt, w) = h, _links_below(u, h)
    else:
        p, (src, tgt, w) = _calibrated_links(u, params)
    keep = w < p
    rows, cols = src[keep], tgt[keep]
    del src, tgt, w, keep  # the links below the bracket are no longer read

    graph = SocialGraph()
    bw_rng = np.random.default_rng(bw_ss)
    bandwidths = (1.0 - bw_rng.random(n)) * params.bandwidth_max  # in (0, max]
    for i in range(n):
        graph.add_entity(i + 1, float(bandwidths[i]))

    attr_rng = np.random.default_rng(attr_ss)
    n_links = len(rows)
    # Each entity gets a latent reputation in [0, 1] that biases the
    # attributes on its inbound links. Without this every entity would be
    # statistically identical and trust scores would collapse to a single
    # narrow band, which makes trust-aware behaviour indistinguishable from
    # uniform behaviour on generated graphs.
    reputation = attr_rng.random(n)
    target_rep = reputation[cols]
    raws = attr_rng.uniform(0.1, RAW_HIGH, size=(n_links, len(QUANTITATIVE_NAMES)))
    raws *= (0.2 + 0.8 * target_rep)[:, None]
    # Class mix per inbound link: POSITIVE with probability 0.05 + 0.7 r,
    # NEUTRAL with 0.2, NEGATIVE with the rest, r the target's reputation.
    # The picks 0, 1, 2 are those classes' codes in VALUE_CLASSES.
    p_pos = (0.05 + 0.7 * target_rep)[:, None]
    v = attr_rng.random((n_links, len(QUALITATIVE_NAMES)))
    picks = np.where(v < p_pos, 0, np.where(v < p_pos + 0.2, 1, 2))
    graph.add_links(
        LinkColumns(
            source=rows.astype(np.int64) + 1,
            target=cols.astype(np.int64) + 1,
            network=np.ones(n_links, dtype=np.int64),
            quant_names=QUANTITATIVE_NAMES,
            quant=raws,
            present=np.ones(raws.shape, dtype=bool),
            qual_names=QUALITATIVE_NAMES,
            qual=picks.astype(np.int8),
            trust=np.full(n_links, math.nan),
        )
    )
    return graph
