"""Trust propagation: best multiplicative path trust within a hop budget.

A path's trust distance is the product of its link trust values, and an
entity's trust score from a source is the best trust distance over acyclic
paths of bounded length. Because every factor sits in [0, 1], dropping a
cycle from a walk never hurts the product, so the best walk of at most r
links is as strong as the best such path, and the layered (max, x)
recurrence over walks finds the optimum of exhaustive path enumeration.

One kernel pass runs that recurrence for a set of source rows, layer by
layer, in place on [source, target] arrays: layer r extends best
(r - 1)-link prefix products by one link. Only a prefix that layer r - 1
raised can raise a cell in layer r (semi-naive evaluation), so a layer
runs either as a delta layer, extending just those cells chunk by chunk,
or as a dense layer over every prefix, whichever its candidate count
favours. That is all a layer computes; reach is read off the scores, with
-inf for "no walk yet". propagate_arrays runs it over every row and keeps
its arrays: 9 bytes per pair, a float64 score and a uint8 hop count for
budgets up to 255. Its output, TrustArrays, is the one trust input of
every pipeline path (score CSVs, mean trust, simulations, sweeps).
propagate_all is its table view, TrustArrays.table the one place a row
becomes a TrustScoreTable, and propagate, the witness-path API, reads one
pass over its source's row after each layer (its delta layers are a
Bellman-Ford frontier) and rebuilds witness paths layer by layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CyclicPathError, DisconnectedPathError, DomainError, UnknownEntityError
from .graph import DEFAULT_MAX_HOPS, FriendLink, SocialGraph, _sample_rows, check_max_hops


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
    for r, state in enumerate(_kernel(n, src, tgt, tv, [row], max_hops), 1):
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


#: Candidates (prefix cell x out-link) that one chunk of a delta layer
#: extends. It keeps a chunk's index and value arrays at a few hundred KB,
#: far below the (n, n) result, whatever the graph.
DELTA_CHUNK = 1 << 13


def _delta_layer_wins(work, n, links):
    """Whether a layer runs as a delta layer: its candidate count, work, is
    below a quarter of the n * links products of a dense layer. (A delta
    candidate costs several gathers and a scattered maximum, a dense
    product one contiguous multiply.) A one-row pass has at most links
    candidates, so its layers run as delta layers once n >= 4."""
    return 4 * work < n * links


def _kernel(n, src, tgt, tv, rows, max_hops):
    """One pass for the source rows (ascending), layer by layer to max_hops.

    Yields (best, hops) after each layer: the same (len(rows), n) arrays
    over [row, target], updated in place, for the linked pairs src -> tgt
    (in (source, target) order) of trust tv in [0, 1]. A cell is reached
    where best >= 0; elsewhere best is -inf ("no walk yet") and hops 0.
    hops has the smallest unsigned dtype that holds min(max_hops, n), as no
    hop count exceeds either. Layer r raises a cell to the best r-link walk
    product, the best (r - 1)-link prefix product times the last link, and
    sets its hop count to r; a target's hop count is thus the first layer
    that reaches it or strictly raises its score. Since every factor is in
    [0, 1] and rounding is monotone, that is the best product over walks of
    at most r links. No source scores its own cell: a walk back through the
    source never beats the same walk with that cycle dropped.

    Layer r can only raise a cell through a prefix cell that layer r - 1
    raised (its delta; layer 2's is every linked pair), since an unchanged
    prefix offered the same product a layer earlier. The delta is read off
    hops (the cells whose count is r - 1), and its candidate count is the
    sum of its prefix targets' out-degrees. _delta_layer_wins picks each
    layer's mode from that count: a delta layer extends only the delta
    (_delta_layer), a dense layer every prefix (_dense_layer, on one
    target-major copy of best). Both give the same bits. Layer 2 extends
    the linked pairs alone, about L^2 / n products against a dense layer's
    n * L, so on sparse graphs a budget of 2 makes no copy; later layers on
    calibrated graphs raise most of each circle and run dense. A pass ends
    early once a layer has no candidates.
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
    in_links = None
    for r in range(2, max_hops + 1):
        work = int(np.count_nonzero(hops == r - 1, axis=0) @ degree)
        if work == 0:
            return
        if _delta_layer_wins(work, n, len(src)):
            _delta_layer(best, hops, r, rows, out_lo, tgt, tv)
        else:
            if in_links is None:
                order = np.argsort(tgt, kind="stable")
                in_links = (np.searchsorted(tgt[order], np.arange(n + 1)).tolist(),
                            src[order], tv[order])
            _dense_layer(best, hops, r, rows, *in_links)
        yield best, hops


def _delta_layer(best, hops, r, rows, out_lo, tgt, tv):
    """Layer r from its delta: the cells layer r - 1 raised, which are those
    whose hop count is r - 1.

    A chunk of delta cells (s, k) expands by k's out-links (k, j) into the
    candidates prefix * t[k, j], where prefix is the value of (s, k) when
    the layer began, and folds them into best in place by maximum.at. A
    cell is raised where that makes it strictly larger. The prefixes come
    from that snapshot and never from best, so a cell raised earlier in the
    layer cannot feed an (r + 1)-link walk into layer r. Prefixes are
    reached, so no product is NaN or -inf.
    """
    n = best.shape[1]
    flat, hop_flat = best.reshape(-1), hops.reshape(-1)
    delta = np.flatnonzero(hop_flat == r - 1)
    prefix = flat[delta]
    row, k = np.divmod(delta, n)
    first, count = out_lo[k], out_lo[k + 1] - out_lo[k]
    ends = np.cumsum(count)
    # Chunk c holds the cells whose candidates end in ((c-1)C, cC]: at most
    # C candidates, plus one cell's out-links.
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
        s, j = np.repeat(row[lo:hi], c), tgt[link]
        cand = np.repeat(prefix[lo:hi], c) * tv[link]
        keep = j != rows[s]  # walks back to the source
        cell, cand = s[keep] * n + j[keep], cand[keep]
        old = flat[cell]
        np.maximum.at(flat, cell, cand)
        hop_flat[cell[flat[cell] > old]] = r
        lo = hi


def _dense_layer(best, hops, r, rows, bounds, in_src, in_tv):
    """Layer r over every prefix.

    It works on a target-major snapshot of best, where the in-neighbours
    of a target are whole contiguous rows: each target j takes the fmax
    over its in-neighbours k of prefix[k] * t[k, j] into its column of
    best. An unreached prefix gives -inf, or NaN through a zero-trust
    link; fmax skips both, so zero-trust paths still reach.
    """
    prefix = best.T.copy()
    with np.errstate(invalid="ignore"):  # -inf * 0.0 is NaN, skipped by fmax
        for j in range(best.shape[1]):
            lo, hi = bounds[j], bounds[j + 1]
            if lo < hi:
                col = best[:, j]
                np.fmax(col, np.fmax.reduce(prefix[in_src[lo:hi]] * in_tv[lo:hi, None], axis=0),
                        out=col)
    # Walks back to the source: the loop above may write a source's own
    # cell, but the layer read its prefixes from the snapshot.
    best[np.arange(len(rows)), rows] = -np.inf
    hops[best > prefix.T] = r


def propagate_arrays(graph: SocialGraph, max_hops: int = DEFAULT_MAX_HOPS) -> TrustArrays:
    """Trust scores from every source at once, as arrays: one kernel pass
    over all source rows, whose arrays it returns in place."""
    check_max_hops(max_hops)
    ids, src, tgt, tv = graph.pair_arrays(trust=True)
    for best, hops in _kernel(len(ids), src, tgt, tv, np.arange(len(ids)), max_hops):
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
