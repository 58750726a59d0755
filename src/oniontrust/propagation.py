"""Trust propagation: best multiplicative path trust within a hop budget.

A path's trust distance is the product of its link trust values, and an
entity's trust score from a source is the best trust distance over acyclic
paths of bounded length. Because every factor sits in [0, 1], dropping a
cycle from a walk never hurts the product, so a Dijkstra-style search over
(node, hops) states finds the same optimum as exhaustive path enumeration.

The same argument lets the all-sources kernel run layer by layer over
walks: layer r extends every source's best (r - 1)-link prefix product by
one link, in the order the search multiplies, so both agree bit for bit.
Its output, TrustArrays, is the one trust input of every pipeline path
(score CSVs, mean trust, simulations, sweeps). propagate_all is its table
view, TrustArrays.table the one place a row becomes a TrustScoreTable, and
propagate the witness-path API and the kernel's test oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CyclicPathError, DisconnectedPathError, DomainError
from .graph import FriendLink, SocialGraph, reach_frontiers

#: Hop budget used throughout unless a caller says otherwise.
DEFAULT_MAX_HOPS = 2


@dataclass(frozen=True)
class TrustScore:
    """Best path trust to one target: the score, its hop count, a witness.

    hops is the smallest path length among maximal-product paths. The
    witness path (entity ids, source first) is kept only on request.
    """

    value: float
    hops: int
    path: Optional[Tuple[int, ...]] = None


@dataclass
class TrustScoreTable:
    """All trust scores out of one source; targets absent when unreachable."""

    source: int
    scores: Dict[int, TrustScore]

    def get(self, target: int) -> Optional[TrustScore]:
        return self.scores.get(target)

    def value(self, target: int) -> float:
        """Score of a target, 0.0 when the target is outside the table."""
        score = self.scores.get(target)
        return score.value if score is not None else 0.0

    def targets(self) -> list:
        return sorted(self.scores)


def trust_distance(links: Sequence[FriendLink]) -> float:
    """Product of trust values along a connected acyclic link sequence.

    The empty sequence multiplies out to 1.0.
    """
    seen = set()
    product = 1.0
    previous = None
    for link in links:
        if previous is not None and link.source != previous.target:
            raise DisconnectedPathError(
                "link %d->%d does not continue from %d"
                % (link.source, link.target, previous.target)
            )
        if link.trust_value is None:
            raise DomainError(
                "link %d->%d network %d has no trust value"
                % (link.source, link.target, link.network)
            )
        seen.add(link.source)
        if link.target in seen:
            raise CyclicPathError("path revisits entity %d" % link.target)
        product *= link.trust_value
        previous = link
    if previous is not None:
        seen.add(previous.target)
    return product


def _search(
    adjacency: Dict[int, Dict[int, float]],
    source: int,
    max_hops: int,
    keep_paths: bool,
) -> Dict[int, TrustScore]:
    """Max-product Dijkstra over (node, hops) states.

    Heap keys are (-product, hops, path) so pops come out product-descending,
    then fewest hops, then lexicographically smallest path; the first pop per
    node is its final score. Walks that would re-enter the source are skipped,
    and any walk that first reaches a node is beaten (or tied and out-hopped)
    by its cycle-free reduction, so recorded witnesses are acyclic.

    Witness choice among equally strong paths is deterministic: the search
    extends only the strongest prefix per (node, hops) state, breaking exact
    prefix ties lexicographically. That picks the lexicographically smallest
    optimal path except when a zero-trust link downstream collapses two
    different prefix products into the same final score.
    """
    scores: Dict[int, TrustScore] = {}
    settled = set()
    heap = [(-1.0, 0, (source,))]
    last = 1.0
    while heap:
        neg, hops, seq = heapq.heappop(heap)
        product = -neg
        assert product <= last, "heap popped an increasing product"
        last = product
        node = seq[-1]
        if (node, hops) in settled:
            continue
        settled.add((node, hops))
        if node != source and node not in scores:
            scores[node] = TrustScore(
                product, hops, seq if keep_paths else None
            )
        if hops == max_hops:
            continue
        for nbr, tv in adjacency[node].items():
            if nbr == source or (nbr, hops + 1) in settled:
                continue
            heapq.heappush(heap, (-(product * tv), hops + 1, seq + (nbr,)))
    return scores


def propagate(
    graph: SocialGraph,
    source: int,
    max_hops: int = DEFAULT_MAX_HOPS,
    keep_paths: bool = True,
) -> TrustScoreTable:
    """Trust scores from one source over merged links, within max_hops.

    The witness-path API and the kernel's test oracle. The heap keys are a
    total order, so the neighbour dicts' order cannot change a result.
    """
    graph._require_entity(source)
    if max_hops < 1:
        raise DomainError("max_hops must be >= 1")
    ids, src, tgt, tv = graph.pair_arrays(trust=True)
    adjacency: Dict[int, Dict[int, float]] = {eid: {} for eid in ids}
    for s, t, value in zip(src.tolist(), tgt.tolist(), tv.tolist()):
        adjacency[ids[s]][ids[t]] = value
    return TrustScoreTable(source, _search(adjacency, source, max_hops, keep_paths))


@dataclass(frozen=True)
class TrustArrays:
    """All-sources trust scores as (n, n) arrays over one id->row index.

    Entry [s, t] is about target ids[t] as seen from source ids[s]. reached
    marks the scored pairs and is never set on the diagonal; best holds the
    score there and 0.0 everywhere else; hops holds the fewest links among
    best-product paths there and 0 everywhere else.
    """

    ids: List[int]
    best: np.ndarray
    hops: np.ndarray
    reached: np.ndarray

    def table(self, row: int) -> TrustScoreTable:
        """The score table of source ids[row], without witness paths."""
        cols = np.flatnonzero(self.reached[row])
        ids = self.ids
        return TrustScoreTable(
            ids[row],
            {
                ids[t]: TrustScore(value, hop)
                for t, value, hop in zip(
                    cols.tolist(),
                    self.best[row, cols].tolist(),
                    self.hops[row, cols].tolist(),
                )
            },
        )


def propagate_arrays(graph: SocialGraph, max_hops: int = DEFAULT_MAX_HOPS) -> TrustArrays:
    """Trust scores from every source at once, as arrays.

    Layer r takes, for each target j, the max over its in-neighbours k of
    best[i, k] * t[k, j]: the best prefix product times the last link.
    Since every factor is in [0, 1] and rounding is monotone, that is the
    best product over walks of at most r links, which is what the search
    finds. A target's hop count is the first layer that reaches it or
    strictly raises its score. Reachability comes from the same frontier
    matmuls that size friendship circles, so zero-trust paths still reach.
    """
    if max_hops < 1:
        raise DomainError("max_hops must be >= 1")
    ids, src, tgt, tv = graph.pair_arrays(trust=True)
    n = len(ids)
    mask = np.zeros((n, n), dtype=bool)
    mask[src, tgt] = True
    frontiers = reach_frontiers(mask, np.arange(n), max_hops)

    # The layers work on [target, source] arrays, so the in-neighbours of a
    # target are whole contiguous rows.
    best = np.zeros((n, n))
    best[tgt, src] = tv
    hops = mask.T.astype(np.int64)
    order = np.argsort(tgt, kind="stable")
    in_src, in_tv = src[order], tv[order]
    bounds = np.searchsorted(tgt[order], np.arange(n + 1)).tolist()
    for r in range(2, max_hops + 1):
        extended = np.zeros_like(best)
        for j in range(n):
            lo, hi = bounds[j], bounds[j + 1]
            if lo < hi:
                np.multiply(best[in_src[lo:hi]], in_tv[lo:hi, None]).max(
                    axis=0, out=extended[j]
                )
        hops[(extended > best) | frontiers[r - 1].T] = r
        np.maximum(best, extended, out=best)

    reached = np.logical_or.reduce(frontiers)
    np.fill_diagonal(reached, False)
    return TrustArrays(
        ids=ids,
        best=np.where(reached, best.T, 0.0),
        hops=np.where(reached, hops.T, 0),
        reached=reached,
    )


def propagate_all(
    graph: SocialGraph, max_hops: int = DEFAULT_MAX_HOPS
) -> Dict[int, TrustScoreTable]:
    """Trust score tables for every source: the library's table view.

    The tables are read off propagate_arrays row by row, without witness
    paths (propagate gives those). Callers that only need the scores should
    read propagate_arrays directly and skip building a TrustScore per pair.
    """
    arrays = propagate_arrays(graph, max_hops)
    return {source: arrays.table(row) for row, source in enumerate(arrays.ids)}
