"""Multi-network friendship graph: entities, annotated links, circles.

Entities are onion routers run by people with social ties. A directed link
records that its source counts the target as a friend on one particular
social network, together with the attribute profile of that tie. The same
pair may be linked on several networks; trust merging takes the best one.
So the graph stores each link once, grouped by (source, target) pair, and
every view (sorted links, merged trust, pair arrays) reads that one map.

Also home to the synthetic graph generator used by the simulations: directed
Erdos-Renyi edges, either with a fixed edge probability or calibrated so the
mean friendship-circle size hits a target fraction of the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import (
    DomainError,
    FrozenGraphError,
    GeneratorParamsError,
    NoLinkError,
    SelfLinkError,
    UnknownEntityError,
)
from .fuzzy import ValueClass


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


class SocialGraph:
    """Mutable-until-frozen container for entities and links.

    Links live in one map, (source, target) -> network -> link, so parallel
    links of a pair sit together for trust merging. A graph is input only:
    where a scenario's adversary sits and how its bandwidths are shaped live
    in the simulation's arrays, never in a modified copy of the graph.
    """

    def __init__(self):
        self._entities: Dict[int, Entity] = {}
        self._pairs: Dict[Tuple[int, int], Dict[int, FriendLink]] = {}
        self._frozen = False

    # -- construction ------------------------------------------------------

    def add_entity(self, entity_id: int, bandwidth: float, malicious: bool = False):
        if self._frozen:
            raise FrozenGraphError("graph is frozen")
        if not (math.isfinite(bandwidth) and bandwidth > 0.0):
            raise DomainError(
                "entity %d: bandwidth must be positive and finite, got %r"
                % (entity_id, bandwidth)
            )
        self._entities[entity_id] = Entity(entity_id, float(bandwidth), bool(malicious))

    def add_link(self, link: FriendLink):
        """Insert a link; a link on the same (source, target, network) is replaced."""
        if self._frozen:
            raise FrozenGraphError("graph is frozen")
        if link.source == link.target:
            raise SelfLinkError("entity %d cannot link to itself" % link.source)
        for end in (link.source, link.target):
            if end not in self._entities:
                raise UnknownEntityError("unknown entity %d" % end)
        self._pairs.setdefault((link.source, link.target), {})[link.network] = link

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
        return self._entities == other._entities and self._pairs == other._pairs

    def entity_ids(self) -> List[int]:
        return sorted(self._entities)

    def has_entity(self, entity_id: int) -> bool:
        return entity_id in self._entities

    def _require_entity(self, entity_id: int):
        if entity_id not in self._entities:
            raise UnknownEntityError("unknown entity %d" % entity_id)

    def bandwidth(self, entity_id: int) -> float:
        self._require_entity(entity_id)
        return self._entities[entity_id].bandwidth

    def is_malicious(self, entity_id: int) -> bool:
        self._require_entity(entity_id)
        return self._entities[entity_id].malicious

    def links(self) -> List[FriendLink]:
        """All links, sorted by (source, target, network)."""
        return sorted(
            (link for by_net in self._pairs.values() for link in by_net.values()),
            key=attrgetter("source", "target", "network"),
        )

    def link_count(self) -> int:
        """Number of links, counted without building or sorting them."""
        return sum(len(by_net) for by_net in self._pairs.values())

    def link(self, source: int, target: int, network: int) -> FriendLink:
        try:
            return self._pairs[(source, target)][network]
        except KeyError:
            raise NoLinkError(
                "no link %d->%d on network %d" % (source, target, network)
            ) from None

    def networks(self) -> frozenset:
        return frozenset(net for by_net in self._pairs.values() for net in by_net)

    # -- trust views -------------------------------------------------------

    def merge_trust(self, source: int, target: int) -> float:
        """Best per-network trust value of the (source, target) tie."""
        self._require_entity(source)
        self._require_entity(target)
        by_net = self._pairs.get((source, target))
        if not by_net:
            raise NoLinkError("no link %d->%d on any network" % (source, target))
        return _best_network(by_net, source, target)

    def pair_arrays(self, trust: bool = False):
        """The id->row index and every linked pair as arrays, gathered fresh.

        Returns (ids, src, tgt, tv): the entity ids in row order, the source
        and target row of each linked pair, and with trust=True each pair's
        merged trust value (None otherwise). Links on several networks
        between the same pair count as one pair.
        """
        ids = self.entity_ids()
        row = {eid: k for k, eid in enumerate(ids)}
        tv = None
        if trust:
            tv = np.array(
                [_best_network(by_net, *pair) for pair, by_net in self._pairs.items()],
                dtype=float,
            )
        return (
            ids,
            np.array([row[source] for source, _ in self._pairs], dtype=np.intp),
            np.array([row[target] for _, target in self._pairs], dtype=np.intp),
            tv,
        )

    def link_mask(self) -> np.ndarray:
        """Boolean (n, n) adjacency over the entity_ids() rows."""
        ids, src, tgt, _ = self.pair_arrays()
        mask = np.zeros((len(ids), len(ids)), dtype=bool)
        mask[src, tgt] = True
        return mask


def _best_network(by_net: Dict[int, FriendLink], source: int, target: int) -> float:
    best = -1.0
    for net in sorted(by_net):
        tv = by_net[net].trust_value
        if tv is None:
            raise DomainError(
                "link %d->%d network %d has no trust value yet"
                % (source, target, net)
            )
        best = max(best, tv)
    return best


def reach_frontiers(mask: np.ndarray, rows: np.ndarray, max_hops: int) -> List[np.ndarray]:
    """Entities first reached from each source row after exactly r links.

    Returns one boolean (len(rows), n) array per r = 1..max_hops. A source
    counts as reached when some walk returns to it. Each step is a float32
    matmul of the frontier with the adjacency; its entries count frontier
    predecessors exactly, and only their sign is read.
    """
    link = mask.astype(np.float32)
    frontier = mask[rows]
    reached = frontier
    out = [frontier]
    for _ in range(max_hops - 1):
        frontier = ((frontier.astype(np.float32) @ link) > 0.0) & ~reached
        reached = reached | frontier
        out.append(frontier)
    return out


def circle_sizes(mask: np.ndarray, rows: np.ndarray, max_hops: int) -> np.ndarray:
    """||F_i|| of each source row: entities within max_hops links, itself excluded.

    Within a hop budget, reachability over walks equals reachability over
    acyclic paths (dropping a cycle never lengthens a path), so BFS layers
    give the circle exactly.
    """
    reached = np.zeros((len(rows), mask.shape[0]), dtype=bool)
    for frontier in reach_frontiers(mask, rows, max_hops):
        reached |= frontier
    reached[np.arange(len(rows)), rows] = False
    return reached.sum(axis=1)


#: Hop budget of friendship circles and trust propagation unless a caller
#: says otherwise.
DEFAULT_MAX_HOPS = 2

#: A mean circle size is taken over this many evenly spaced sources, or
#: over all of them in a smaller graph.
CIRCLE_SAMPLE = 300


def _sample_rows(n: int) -> np.ndarray:
    # With n <= CIRCLE_SAMPLE the step is exactly 1.0, so this is arange(n).
    return np.linspace(0, n - 1, min(n, CIRCLE_SAMPLE)).astype(int)


def mean_circle_size(graph: SocialGraph, max_hops: int = DEFAULT_MAX_HOPS) -> float:
    """Mean ||F_i|| over the sources _sample_rows picks."""
    if not len(graph):
        raise DomainError("graph has no entities")
    rows = _sample_rows(len(graph))
    return int(circle_sizes(graph.link_mask(), rows, max_hops).sum()) / len(rows)


# -- synthetic graphs -------------------------------------------------------

#: Default cap for generated router bandwidths, in bytes per second.
DEFAULT_BANDWIDTH_MAX = 10_000_000.0

#: Attributes every generated link carries, and the cap of the raw
#: quantitative draws before the target's reputation scales them down.
QUANTITATIVE_NAMES = ("freq", "time")
QUALITATIVE_NAMES = ("Major", "Relationship")
RAW_HIGH = 10.0

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
        if self.n < 1:
            raise GeneratorParamsError("n must be >= 1, got %d" % self.n)
        if self.kind == "er":
            if not 0.0 <= self.value <= 1.0:
                raise GeneratorParamsError(
                    "er edge probability must be in [0, 1], got %r" % (self.value,)
                )
        elif self.kind == "calibrated":
            if not 0.0 < self.value < 1.0:
                raise GeneratorParamsError(
                    "calibrated circle fraction must be in (0, 1), got %r"
                    % (self.value,)
                )
        else:
            raise GeneratorParamsError("unknown generator kind %r" % (self.kind,))
        if not (math.isfinite(self.bandwidth_max) and self.bandwidth_max > 0.0):
            raise GeneratorParamsError(
                "bandwidth_max must be positive and finite, got %r" % (self.bandwidth_max,)
            )
        if self.max_hops < 1:
            raise GeneratorParamsError("max_hops must be >= 1")


def _mean_circle_size(mask: np.ndarray, max_hops: int) -> float:
    """One calibration step: mean_circle_size over a thresholded mask."""
    rows = _sample_rows(mask.shape[0])
    return int(circle_sizes(mask, rows, max_hops).sum()) / len(rows)


def _calibrate_edge_prob(u: np.ndarray, params: GeneratorParams) -> float:
    """Binary-search the edge probability hitting the target mean circle size.

    The SAME uniform matrix u is thresholded at every candidate p, so the
    edge set (and with it the mean circle size) grows monotonically in p and
    the search is well behaved. Missing CALIBRATION_TOL within 60 steps
    raises GeneratorParamsError naming the closest size reached.
    """
    target = params.value * params.n
    lo, hi = 0.0, 1.0
    best_p, best_size = 1.0, float("inf")
    for _ in range(60):
        mid = (lo + hi) / 2.0
        size = _mean_circle_size(u < mid, params.max_hops)
        if abs(size - target) <= CALIBRATION_TOL:
            return mid
        if abs(size - target) < abs(best_size - target):
            best_p, best_size = mid, size
        if size < target:
            lo = mid
        else:
            hi = mid
    raise GeneratorParamsError(
        "calibration missed mean circle size %g within %g: closest was %g at p = %r"
        % (target, CALIBRATION_TOL, best_size, best_p)
    )


def generate_graph(params: GeneratorParams, seed: int) -> SocialGraph:
    """Deterministic synthetic graph for (params, seed).

    Edges, bandwidths and link attributes come from independent substreams
    of the seed, so calibration never perturbs bandwidths or attributes.
    """
    if seed < 0:
        raise GeneratorParamsError("seed must be >= 0, got %r" % (seed,))
    edge_ss, bw_ss, attr_ss = np.random.SeedSequence(seed).spawn(3)
    n = params.n

    u = np.random.default_rng(edge_ss).random((n, n))
    np.fill_diagonal(u, 1.0)  # diagonal never passes u < p, so no self links
    if params.kind == "er":
        p = params.value
    else:
        p = _calibrate_edge_prob(u, params)
    mask = u < p

    graph = SocialGraph()
    bw_rng = np.random.default_rng(bw_ss)
    bandwidths = (1.0 - bw_rng.random(n)) * params.bandwidth_max  # in (0, max]
    for i in range(n):
        graph.add_entity(i + 1, float(bandwidths[i]))

    rows, cols = np.nonzero(mask)
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
    class_order = (ValueClass.POSITIVE, ValueClass.NEUTRAL, ValueClass.NEGATIVE)
    p_pos = (0.05 + 0.7 * target_rep)[:, None]
    v = attr_rng.random((n_links, len(QUALITATIVE_NAMES)))
    picks = np.where(v < p_pos, 0, np.where(v < p_pos + 0.2, 1, 2))
    for k in range(n_links):
        profile = AttributeProfile(
            quantitative={
                name: float(raws[k, a])
                for a, name in enumerate(QUANTITATIVE_NAMES)
            },
            qualitative={
                name: class_order[int(picks[k, a])]
                for a, name in enumerate(QUALITATIVE_NAMES)
            },
        )
        graph.add_link(
            FriendLink(int(rows[k]) + 1, int(cols[k]) + 1, 1, profile)
        )
    return graph
