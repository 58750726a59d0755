"""Trust propagation: best multiplicative path trust within a hop budget.

A path's trust distance is the product of its link trust values, and an
entity's trust score from a source is the best trust distance over acyclic
paths of bounded length. Because every factor sits in [0, 1], dropping a
cycle from a walk never hurts the product, so the best walk of at most r
links is as strong as the best such path, and the layered (max, x)
recurrence over walks finds the optimum of exhaustive path enumeration.

One pass of graph._kernel, the one reachability engine, runs that
recurrence for a set of source rows, layer by layer, in place on [source,
target] arrays: layer r extends best (r - 1)-link prefix products by one
link. Only a prefix that layer r - 1 raised can raise a cell in layer r
(semi-naive evaluation), so a layer runs either as a delta layer,
extending just those cells chunk by chunk, or as a dense layer over every
prefix, whichever its candidate count favours. That is all a layer
computes; reach is read off the scores, with -inf for "no walk yet".
propagate_arrays runs it over every row and keeps its arrays: 9 bytes per
pair, a float64 score and a uint8 hop count for budgets up to 255. Its
output, TrustArrays, is the one trust input of every pipeline path (score
CSVs, mean trust, simulations, sweeps). propagate_all is its table view,
TrustArrays.table the one place a row becomes a TrustScoreTable, and
propagate, the witness-path API, reads one pass over its source's row
after each layer (its delta layers are a Bellman-Ford frontier) and
rebuilds witness paths layer by layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CyclicPathError, DisconnectedPathError, DomainError, UnknownEntityError
from .graph import DEFAULT_MAX_HOPS, FriendLink, SocialGraph, _kernel, _sample_rows, check_max_hops


@dataclass(frozen=True)
class TrustScore:
    """Best path trust to one target: the score, its hop count, a witness.

    hops is the smallest path length among maximal-product paths. propagate
    keeps a witness path (entity ids, source first); tables read off
    TrustArrays leave it None.
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

    def row(self, ids: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """(scores, scored) over ids, the inverse of TrustArrays.table."""
        unknown = set(self.scores).difference(ids)
        if unknown:
            raise UnknownEntityError("unknown entity %s" % min(unknown))
        return np.array([self.value(eid) for eid in ids]), np.isin(ids, list(self.scores))


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


def propagate(
    graph: SocialGraph,
    source: int,
    max_hops: int = DEFAULT_MAX_HOPS,
) -> TrustScoreTable:
    """Trust scores from one source over merged links, within max_hops.

    The witness-path API: one kernel pass over the source's row, read after
    each layer r = 1, 2, ... A target whose hop count at budget r is r
    extends the smallest witness among its in-neighbours whose hop count at
    budget r - 1 is r - 1 and whose score times the link's trust is the target's score. So
    each (node, hops) state extends its strongest prefix, exact ties broken
    lexicographically: the lexicographically smallest optimal path, except
    where a zero-trust link collapses two prefix products into one score.
    """
    graph._require_entity(source)
    check_max_hops(max_hops)
    ids, src, tgt, tv = graph.pair_arrays(trust=True)
    n, row = len(ids), ids.index(source)
    # level holds the witnesses of the rows whose hop count at budget r is r;
    # budget 0 holds the source alone, at product 1.0.
    last_best = np.zeros(n)
    last_best[row] = 1.0
    level, paths = {row: (source,)}, {}
    for r, state in enumerate(_kernel(n, src, tgt, tv, [row], max_hops, np.multiply), 1):
        best, hops = (a[0] for a in state)
        last, level = level, {}
        step = (hops[tgt] == r) & np.isin(src, list(last))
        step &= last_best[src] * tv == best[tgt]
        for k, t in zip(src[step].tolist(), tgt[step].tolist()):
            path = last[k] + (ids[t],)
            if t not in level or path < level[t]:
                level[t] = path
        paths.update(level)
        # A copy, as the next layer updates best in place; unreached rows
        # read 0.0 so that the product above stays finite.
        last_best = np.maximum(best, 0.0)
    # paths covers the reached targets, each last set at its final hop count;
    # the scores are read off last_best, where -0.0 is made 0.0 as in
    # propagate_arrays.
    return TrustScoreTable(
        source,
        {ids[t]: TrustScore(last_best[t].item(), int(hops[t]), paths[t]) for t in sorted(paths)},
    )


@dataclass(frozen=True)
class TrustArrays:
    """All-sources trust scores as (n, n) arrays over one id->row index.

    Entry [s, t] is about target ids[t] as seen from source ids[s]. The
    scored pairs are those with hops > 0, never on the diagonal: best holds
    the score there and 0.0 everywhere else; hops holds the fewest links
    among best-product paths there and 0 everywhere else. max_hops is the
    hop budget they were propagated within. best is float64 and hops the
    smallest unsigned integer dtype that holds min(max_hops, n), uint8 for
    any budget up to 255: 9 bytes per pair, both C-ordered.
    """

    ids: List[int]
    best: np.ndarray
    hops: np.ndarray
    max_hops: int

    def table(self, row: int) -> TrustScoreTable:
        """The score table of source ids[row], without witness paths."""
        cols = np.flatnonzero(self.hops[row])
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

    def mean_circle_size(self) -> float:
        """graph.mean_circle_size read off hops, with no reachability pass."""
        if not self.ids:
            raise DomainError("graph has no entities")
        rows = _sample_rows(len(self.ids))
        return np.count_nonzero(self.hops[rows]) / len(rows)


def propagate_arrays(graph: SocialGraph, max_hops: int = DEFAULT_MAX_HOPS) -> TrustArrays:
    """Trust scores from every source at once, as arrays: one kernel pass
    over all source rows, whose arrays it returns in place."""
    check_max_hops(max_hops)
    ids, src, tgt, tv = graph.pair_arrays(trust=True)
    for best, hops in _kernel(len(ids), src, tgt, tv, np.arange(len(ids)), max_hops, np.multiply):
        pass
    np.maximum(best, 0.0, out=best)
    return TrustArrays(ids=ids, best=best, hops=hops, max_hops=max_hops)


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
