"""Multi-network friendship graph: entities, annotated links, circles.

Entities are onion routers run by people with social ties. A directed link
records that its source counts the target as a friend on one particular
social network, together with the attribute profile of that tie. The same
pair may be linked on several networks; trust merging takes the best one.

Also home to the synthetic graph generator used by the simulations: directed
Erdos-Renyi edges, either with a fixed edge probability or calibrated so the
mean friendship-circle size hits a target fraction of the graph.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class FriendshipCircle:
    """Entities reachable from a source over short acyclic paths.

    members_by_hop[r - 1] holds the entities with an acyclic r-link path
    from the source; the same entity may appear at several hop counts.
    """

    source: int
    members_by_hop: Tuple[frozenset, ...]

    @property
    def members(self) -> frozenset:
        out: frozenset = frozenset()
        for hop in self.members_by_hop:
            out = out | hop
        return out

    @property
    def size(self) -> int:
        return len(self.members)

    def hop(self, r: int) -> frozenset:
        if not 1 <= r <= len(self.members_by_hop):
            raise DomainError("hop must be 1..%d" % len(self.members_by_hop))
        return self.members_by_hop[r - 1]


class SocialGraph:
    """Mutable-until-frozen container for entities and links."""

    def __init__(self):
        self._entities: Dict[int, Entity] = {}
        # (source, target, network) -> link, plus a nested index
        # source -> target -> network -> link for traversal.
        self._links: Dict[Tuple[int, int, int], FriendLink] = {}
        self._adj: Dict[int, Dict[int, Dict[int, FriendLink]]] = {}
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
        self._adj.setdefault(entity_id, {})

    def add_link(self, link: FriendLink):
        """Insert a link; a link on the same (source, target, network) is replaced."""
        if self._frozen:
            raise FrozenGraphError("graph is frozen")
        if link.source == link.target:
            raise SelfLinkError("entity %d cannot link to itself" % link.source)
        for end in (link.source, link.target):
            if end not in self._entities:
                raise UnknownEntityError("unknown entity %d" % end)
        self._links[(link.source, link.target, link.network)] = link
        self._adj[link.source].setdefault(link.target, {})[link.network] = link

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
        return self._entities == other._entities and self._links == other._links

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
        return [self._links[key] for key in sorted(self._links)]

    def link(self, source: int, target: int, network: int) -> FriendLink:
        try:
            return self._links[(source, target, network)]
        except KeyError:
            raise NoLinkError(
                "no link %d->%d on network %d" % (source, target, network)
            ) from None

    def links_from(self, source: int, network: Optional[int] = None) -> List[FriendLink]:
        self._require_entity(source)
        out = []
        for by_net in self._adj[source].values():
            for net, link in by_net.items():
                if network is None or net == network:
                    out.append(link)
        out.sort(key=lambda l: (l.target, l.network))
        return out

    def networks(self) -> frozenset:
        return frozenset(key[2] for key in self._links)

    def networks_from(self, source: int) -> List[int]:
        self._require_entity(source)
        nets = set()
        for by_net in self._adj[source].values():
            nets.update(by_net)
        return sorted(nets)

    # -- trust views -------------------------------------------------------

    def merge_trust(self, source: int, target: int) -> float:
        """Best per-network trust value of the (source, target) tie."""
        self._require_entity(source)
        self._require_entity(target)
        by_net = self._adj[source].get(target)
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
        src, tgt, tv = [], [], []
        for source, targets in self._adj.items():
            si = row[source]
            for target, by_net in targets.items():
                src.append(si)
                tgt.append(row[target])
                if trust:
                    tv.append(_best_network(by_net, source, target))
        return (
            ids,
            np.array(src, dtype=np.intp),
            np.array(tgt, dtype=np.intp),
            np.array(tv, dtype=float) if trust else None,
        )

    def link_mask(self) -> np.ndarray:
        """Boolean (n, n) adjacency over the entity_ids() rows."""
        ids, src, tgt, _ = self.pair_arrays()
        mask = np.zeros((len(ids), len(ids)), dtype=bool)
        mask[src, tgt] = True
        return mask

    def friendship_circle(self, source: int, max_hops: int = 2) -> FriendshipCircle:
        """Circle of the source: every entity on some acyclic path of <= max_hops links.

        Enumerates simple paths, so cost grows quickly with max_hops. The
        pipeline takes circles from trust propagation instead; this stays
        as the per-hop reference.
        """
        self._require_entity(source)
        if max_hops < 1:
            raise DomainError("max_hops must be >= 1")
        by_hop = [set() for _ in range(max_hops)]
        adj = self._adj
        on_path = {source}

        def walk(node, depth):
            for nbr in adj.get(node, {}):
                if nbr in on_path:
                    continue
                by_hop[depth].add(nbr)
                if depth + 1 < max_hops:
                    on_path.add(nbr)
                    walk(nbr, depth + 1)
                    on_path.discard(nbr)

        walk(source, 0)
        return FriendshipCircle(
            source=source,
            members_by_hop=tuple(frozenset(s) for s in by_hop),
        )

    # -- derived copies ----------------------------------------------------

    def with_flags(self, malicious: Mapping[int, bool]) -> "SocialGraph":
        """Copy with malicious flags replaced; links are shared, not copied."""
        return self._derive(flags=malicious)

    def with_bandwidths(self, bandwidth: Mapping[int, float]) -> "SocialGraph":
        """Copy with bandwidths replaced; links are shared, not copied."""
        return self._derive(bandwidth=bandwidth)

    def _derive(self, flags=None, bandwidth=None) -> "SocialGraph":
        out = SocialGraph()
        for eid, ent in self._entities.items():
            out._entities[eid] = Entity(
                eid,
                float(bandwidth[eid]) if bandwidth is not None else ent.bandwidth,
                bool(flags[eid]) if flags is not None else ent.malicious,
            )
        out._links = dict(self._links)
        out._adj = {
            src: {tgt: dict(by_net) for tgt, by_net in targets.items()}
            for src, targets in self._adj.items()
        }
        out._frozen = self._frozen
        return out


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


#: A mean circle size is taken over this many evenly spaced sources, or
#: over all of them in a smaller graph.
CIRCLE_SAMPLE = 300


def _sample_rows(n: int) -> np.ndarray:
    # With n <= CIRCLE_SAMPLE the step is exactly 1.0, so this is arange(n).
    return np.linspace(0, n - 1, min(n, CIRCLE_SAMPLE)).astype(int)


def mean_circle_size(graph: SocialGraph, max_hops: int = 2) -> float:
    """Mean ||F_i|| over the sources _sample_rows picks."""
    if not len(graph):
        raise DomainError("graph has no entities")
    rows = _sample_rows(len(graph))
    return int(circle_sizes(graph.link_mask(), rows, max_hops).sum()) / len(rows)


# -- synthetic graphs -------------------------------------------------------

#: Default cap for generated router bandwidths, in bytes per second.
DEFAULT_BANDWIDTH_MAX = 10_000_000.0


@dataclass(frozen=True)
class GeneratorParams:
    """How to synthesize a graph.

    Exactly one of edge_prob (fixed directed edge probability) and
    target_circle_fraction (calibrate edge_prob so the mean circle size is
    fraction * n) must be set.
    """

    n: int
    edge_prob: Optional[float] = None
    target_circle_fraction: Optional[float] = None
    bandwidth_max: float = DEFAULT_BANDWIDTH_MAX
    max_hops: int = 2
    quantitative_names: Tuple[str, ...] = ("freq", "time")
    qualitative_names: Tuple[str, ...] = ("Major", "Relationship")
    raw_high: float = 10.0
    calibration_tol: float = 2.5

    def __post_init__(self):
        if self.n < 1:
            raise GeneratorParamsError("n must be >= 1, got %d" % self.n)
        fixed = self.edge_prob is not None
        calibrated = self.target_circle_fraction is not None
        if fixed == calibrated:
            raise GeneratorParamsError(
                "set exactly one of edge_prob and target_circle_fraction"
            )
        if fixed and not 0.0 <= self.edge_prob <= 1.0:
            raise GeneratorParamsError(
                "edge_prob must be in [0, 1], got %r" % self.edge_prob
            )
        if calibrated and not 0.0 < self.target_circle_fraction < 1.0:
            raise GeneratorParamsError(
                "target_circle_fraction must be in (0, 1), got %r"
                % self.target_circle_fraction
            )
        if not (math.isfinite(self.bandwidth_max) and self.bandwidth_max > 0.0):
            raise GeneratorParamsError(
                "bandwidth_max must be positive and finite, got %r" % (self.bandwidth_max,)
            )
        if self.max_hops < 1:
            raise GeneratorParamsError("max_hops must be >= 1")
        if not self.quantitative_names or not self.qualitative_names:
            raise GeneratorParamsError("attribute name lists may not be empty")


def _mean_circle_size(mask: np.ndarray, max_hops: int) -> float:
    """One calibration step: mean_circle_size over a thresholded mask."""
    rows = _sample_rows(mask.shape[0])
    return int(circle_sizes(mask, rows, max_hops).sum()) / len(rows)


def _calibrate_edge_prob(u: np.ndarray, params: GeneratorParams) -> float:
    """Binary-search the edge probability hitting the target mean circle size.

    The SAME uniform matrix u is thresholded at every candidate p, so the
    edge set (and with it the mean circle size) grows monotonically in p and
    the search is well behaved. Missing calibration_tol within 60 steps
    raises GeneratorParamsError naming the closest size reached.
    """
    target = params.target_circle_fraction * params.n
    lo, hi = 0.0, 1.0
    best_p, best_size = 1.0, float("inf")
    for _ in range(60):
        mid = (lo + hi) / 2.0
        size = _mean_circle_size(u < mid, params.max_hops)
        if abs(size - target) <= params.calibration_tol:
            return mid
        if abs(size - target) < abs(best_size - target):
            best_p, best_size = mid, size
        if size < target:
            lo = mid
        else:
            hi = mid
    raise GeneratorParamsError(
        "calibration missed mean circle size %g within %g: closest was %g at p = %r"
        % (target, params.calibration_tol, best_size, best_p)
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
    if params.edge_prob is not None:
        p = params.edge_prob
    else:
        p = _calibrate_edge_prob(u, params)
    mask = u < p
    if params.edge_prob == 1.0:
        mask = ~np.eye(n, dtype=bool)

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
    raws = attr_rng.uniform(0.1, params.raw_high, size=(n_links, len(params.quantitative_names)))
    raws *= (0.2 + 0.8 * target_rep)[:, None]
    # Class mix per inbound link: POSITIVE with probability 0.05 + 0.7 r,
    # NEUTRAL with 0.2, NEGATIVE with the rest, r the target's reputation.
    class_order = (ValueClass.POSITIVE, ValueClass.NEUTRAL, ValueClass.NEGATIVE)
    p_pos = (0.05 + 0.7 * target_rep)[:, None]
    v = attr_rng.random((n_links, len(params.qualitative_names)))
    picks = np.where(v < p_pos, 0, np.where(v < p_pos + 0.2, 1, 2))
    for k in range(n_links):
        profile = AttributeProfile(
            quantitative={
                name: float(raws[k, a])
                for a, name in enumerate(params.quantitative_names)
            },
            qualitative={
                name: class_order[int(picks[k, a])]
                for a, name in enumerate(params.qualitative_names)
            },
        )
        graph.add_link(
            FriendLink(int(rows[k]) + 1, int(cols[k]) + 1, 1, profile)
        )
    return graph
