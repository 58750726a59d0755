"""Router selection: trust-filtered candidates, trust/bandwidth mixing.

A source builds its candidate set from its trust row (every scored entity at
or above a trust threshold), then picks routers with probability
proportional to (1 - omega) * trust + omega * normalized bandwidth. omega = 0
is pure trust, omega = 1 is pure bandwidth. The plain-bandwidth mode
reproduces ordinary onion-router selection (probability proportional to raw
bandwidth over all other routers) and serves as the baseline in the
simulations.

Every candidate set comes from one core, `row_candidates`, over the
source's row of trust scores and reach flags: the simulation passes a
`TrustArrays` row, `build_candidates` a `TrustScoreTable` turned into one.

All weighted draws go through one sampler, `weighted_picks`: sequential
inverse-CDF picks without replacement on the cumulative weights. A single
router, a circuit and a whole block of rounds of circuits are the same call
with a different number of rows and picks per row: it takes the uniforms,
one row per draw, not a generator. Each pick is found by indexed search
(Chen and Asau's guide table): a table of m >= n buckets over the mass,
built once per call, gives every value a lower bound on its index, and a
forward walk over the cumulative weights finishes the search, in at most
1 + n/m expected steps whatever the weights. The index is the one a binary
search (searchsorted, side="right") would return, for every value.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DomainError,
    EmptyCandidateSetError,
    InsufficientCandidatesError,
    UnknownEntityError,
    ZeroDenominatorError,
)
from .graph import SocialGraph, _require_integer
from .propagation import TrustScoreTable

DEFAULT_CIRCUIT_LENGTH = 3


class SelectionMode(enum.Enum):
    """How router weights are formed."""

    TRUST_AWARE = "trust_aware"
    BANDWIDTH_ONLY = "bandwidth_only"


@dataclass(frozen=True)
class SelectionPolicy:
    """Knobs of the selection rule.

    omega mixes bandwidth into the trust weight; ts_threshold drops
    candidates whose trust score is below it (trust-aware mode only).
    """

    omega: float = 0.0
    ts_threshold: float = 0.0
    mode: SelectionMode = SelectionMode.TRUST_AWARE
    circuit_length: int = DEFAULT_CIRCUIT_LENGTH

    def __post_init__(self):
        if not 0.0 <= self.omega <= 1.0:
            raise DomainError("omega must be in [0, 1], got %r" % (self.omega,))
        if not 0.0 <= self.ts_threshold <= 1.0:
            raise DomainError(
                "ts_threshold must be in [0, 1], got %r" % (self.ts_threshold,)
            )
        _require_integer("circuit_length", self.circuit_length, DomainError)
        if self.circuit_length < 1:
            raise DomainError("circuit_length must be >= 1")


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Selectable routers of one source as columns, sorted by entity id."""

    source: int
    mode: SelectionMode
    entity_ids: np.ndarray
    trust: np.ndarray
    bandwidth: np.ndarray

    @property
    def size(self) -> int:
        return len(self.entity_ids)

    def ids(self) -> list:
        return self.entity_ids.tolist()

    def weights(self, policy: SelectionPolicy) -> np.ndarray:
        """Unnormalized selection weights, in member order."""
        if self.mode is SelectionMode.BANDWIDTH_ONLY:
            return self.bandwidth.copy()
        w = policy.omega
        return (1.0 - w) * self.trust + w * (self.bandwidth / self.bandwidth.max())


def row_candidates(
    ids: Sequence[int],
    trust: np.ndarray,
    reached: np.ndarray,
    bandwidth: np.ndarray,
    source_row: int,
    policy: SelectionPolicy,
) -> Tuple[np.ndarray, CandidateSet]:
    """The candidate rows of source ids[source_row] and their CandidateSet.

    trust and reached are the source's row over ids, bandwidth the
    entities' bandwidths. Trust-aware mode keeps the reached rows at or
    above the threshold, bandwidth-only mode every row; the source row is
    never a candidate.
    """
    if policy.mode is SelectionMode.BANDWIDTH_ONLY:
        keep = np.ones(len(bandwidth), dtype=bool)
    else:
        keep = reached & (trust >= policy.ts_threshold)
    keep[source_row] = False
    rows = np.flatnonzero(keep)
    source = int(ids[source_row])
    if not len(rows):
        if policy.mode is SelectionMode.BANDWIDTH_ONLY:
            reason = ": it is the only router"
        else:
            reason = " at threshold %g" % policy.ts_threshold
        raise EmptyCandidateSetError("no candidates for entity %d%s" % (source, reason))
    members = np.asarray(ids)[rows]
    return rows, CandidateSet(source, policy.mode, members, trust[rows], bandwidth[rows])


def build_candidates(
    graph: SocialGraph,
    scores: Optional[TrustScoreTable],
    source: int,
    policy: SelectionPolicy,
) -> CandidateSet:
    """Candidate set of a source: row_candidates over the table's trust row."""
    graph._require_entity(source)
    if policy.mode is SelectionMode.BANDWIDTH_ONLY:
        scores = TrustScoreTable(source, {})
    elif scores is None or scores.source != source:
        raise DomainError("trust-aware selection needs the source's score table")
    ids = graph.entity_ids()
    trust, reached = scores.row(ids)
    bandwidth = np.array([graph.bandwidth(eid) for eid in ids])
    return row_candidates(ids, trust, reached, bandwidth, ids.index(source), policy)[1]


def selection_probability(
    candidates: CandidateSet, policy: SelectionPolicy, entity_id: int
) -> float:
    """Probability that one draw picks entity_id."""
    w = candidates.weights(policy)
    total = w.sum()
    if total <= 0.0:
        raise ZeroDenominatorError("all selection weights are zero")
    hit = np.flatnonzero(candidates.entity_ids == entity_id)
    if not len(hit):
        raise UnknownEntityError("entity %s is not a candidate" % entity_id)
    return float(w[hit[0]] / total)


def weighted_picks(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One row of weighted picks without replacement per row of uniforms.

    With cum = np.cumsum(weights), candidate i holds [starts[i], cum[i]) of
    the mass, with starts[i] = cum[i-1] and starts[0] = 0. Pick k of a row
    scales a uniform by the mass its earlier picks left and maps the value
    back onto the full axis: walking the earlier picks in ascending index
    order, each one whose interval starts at or below the value pushes it
    past itself by its weight. The pick is then the number of cum entries at
    or below the value, searchsorted(cum, value, side="right"): the
    remaining candidate that holds the point, so every pick follows weight /
    remaining mass, the law of drawing one router at a time and zeroing its
    weight. That index is found by indexed search: a guide table over m >= n
    buckets of the mass gives a lower bound, and a forward walk over cum,
    1 + n/m steps in expectation, ends on it exactly.
    u is a (rows, length) array of uniforms in [0, 1), one per pick, and
    rows are independent, so rows drawn for several rounds can be sampled in
    one call. For length 1 the pick is searchsorted(cum, u[:, 0] * total)
    with total = weights.sum(). A weight too small to move cum (below its
    rounding) can only come up once the larger ones are picked.

    Returns a (rows, length) array of indices into weights.
    """
    rows, length = u.shape
    n = len(weights)
    if n < length:
        raise InsufficientCandidatesError("need %d candidates, have %d" % (length, n))
    total = weights.sum()
    if not (weights.min() >= 0.0 and math.isfinite(total)):
        raise DomainError("selection weights must be finite and >= 0")
    positive = np.count_nonzero(weights)
    if positive < length:
        raise ZeroDenominatorError(
            "only %d candidates carry positive weight, need %d" % (positive, length)
        )
    # cum[n] = inf stops every forward step of the search below at n.
    cum = np.empty(n + 1)
    np.cumsum(weights, out=cum[:n])
    cum[n] = np.inf
    # Guide table: m buckets over [0, total]. bucket is a correctly rounded
    # divide, an exact power-of-two multiply and a floor (capped at m in
    # float, so an overflowing cum cannot make an invalid cast), hence
    # monotone non-decreasing in v. Divide first: a subnormal total would
    # make m / total infinite. guide[b] counts the cum entries whose bucket
    # is below b; by monotonicity each of them lies below any value in
    # bucket b, so guide[bucket(value)] is a lower bound of the index
    # searchsorted(cum, value, side="right") returns.
    m = 1 << (n - 1).bit_length()

    def bucket(v):
        return np.minimum(v / total * m, m).astype(np.intp)

    # Counting bucket(cum) + 1 puts each entry's count one bucket up, so the
    # running sum at b is the count of entries in the buckets below b.
    guide = np.cumsum(np.bincount(bucket(cum[:n]) + 1, minlength=m + 1)[: m + 1])
    picks = np.empty((rows, length), dtype=np.intp)
    starts = np.concatenate(([0.0], cum[: n - 1])) if length > 1 else None
    left = total  # per row from the second pick on: the mass not yet picked
    for k in range(length):
        value = u[:, k] * left
        for earlier in np.sort(picks[:, :k], axis=1).T:
            value = value + (starts[earlier] <= value) * weights[earlier]
        # From the lower bound, step forward the rows whose cum entry still
        # lies at or below their value. Expected steps are at most 1 + n/m
        # whatever the weights; passes are at most the fullest bucket's count.
        pick = guide[bucket(value)]
        behind = np.flatnonzero(cum[pick] <= value)
        while len(behind):
            step = pick[behind] + 1
            pick[behind] = step
            behind = behind[cum[step] <= value[behind]]
        # A value at or past the top of the mass (the u * total == total
        # float corner) falls off the end; it belongs to the last candidate
        # that still carries weight.
        for row in np.flatnonzero(pick == n):
            i = n - 1
            while weights[i] == 0.0 or i in picks[row, :k]:
                i -= 1
            pick[row] = i
        picks[:, k] = pick
        if k + 1 < length:
            # Rounding can take the remainder below zero when the total
            # absorbed tiny weights; a negative value would skip the walk.
            left = np.maximum(left - weights[pick], 0.0)
    assert (weights[picks] > 0.0).all(), "picked a zero-weight candidate"
    assert length == 1 or (np.diff(np.sort(picks, axis=1), axis=1) != 0).all(), (
        "repeated a pick"
    )
    return picks


def select_router(
    candidates: CandidateSet, policy: SelectionPolicy, rng: np.random.Generator
) -> int:
    """One weighted draw from the candidate set."""
    w = candidates.weights(policy)
    k = weighted_picks(w, rng.random((1, 1)))[0, 0]
    return int(candidates.entity_ids[k])


@dataclass(frozen=True)
class Circuit:
    """An ordered pick of distinct routers; throughput is the weakest member."""

    members: Tuple[int, ...]

    def bandwidth(self, graph: SocialGraph) -> float:
        return min(graph.bandwidth(eid) for eid in self.members)

    def compromised(self, graph: SocialGraph) -> bool:
        return any(graph.is_malicious(eid) for eid in self.members)


def build_circuit(
    candidates: CandidateSet, policy: SelectionPolicy, rng: np.random.Generator
) -> Circuit:
    """Weighted sampling without replacement until the circuit is full.

    Each pick is drawn from the weight the earlier picks left, which is the
    same law as zeroing a chosen router's weight and renormalizing. Fewer
    positive weights than circuit slots is an error rather than a silent
    fallback.
    """
    w = candidates.weights(policy)
    row = weighted_picks(w, rng.random((1, policy.circuit_length)))[0]
    return Circuit(members=tuple(candidates.entity_ids[row].tolist()))
