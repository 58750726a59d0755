"""Router selection: trust-filtered candidates, trust/bandwidth mixing.

A source builds its candidate set from its trust score table (everyone at or
above a trust threshold), then picks routers with probability proportional to
(1 - omega) * trust + omega * normalized bandwidth. omega = 0 is pure trust,
omega = 1 is pure bandwidth. The plain-bandwidth mode reproduces ordinary
onion-router selection (probability proportional to raw bandwidth over all
other routers) and serves as the baseline in the simulations.

All weighted draws go through one sampler, `weighted_picks`: sequential
inverse-CDF picks without replacement on the cumulative weights. A single
router, a circuit and a whole round of circuits are the same call with a
different number of rows and picks per row.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DomainError,
    EmptyCandidateSetError,
    InsufficientCandidatesError,
    UnknownEntityError,
    ZeroDenominatorError,
)
from .graph import SocialGraph
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
        if self.circuit_length < 1:
            raise DomainError("circuit_length must be >= 1")


@dataclass(frozen=True)
class Candidate:
    """One selectable router as seen by the source."""

    entity_id: int
    trust_score: float
    bandwidth: float
    bandwidth_norm: float


@dataclass(frozen=True)
class CandidateSet:
    """Selectable routers of one source, sorted by entity id."""

    source: int
    mode: SelectionMode
    members: Tuple[Candidate, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def ids(self) -> list:
        return [c.entity_id for c in self.members]

    def weights(self, policy: SelectionPolicy) -> np.ndarray:
        """Unnormalized selection weights, in member order."""
        if self.mode is SelectionMode.BANDWIDTH_ONLY:
            return np.array([c.bandwidth for c in self.members])
        w = policy.omega
        return np.array(
            [
                (1.0 - w) * c.trust_score + w * c.bandwidth_norm
                for c in self.members
            ]
        )


def build_candidates(
    graph: SocialGraph,
    scores: Optional[TrustScoreTable],
    source: int,
    policy: SelectionPolicy,
) -> CandidateSet:
    """Candidate set of a source under a policy.

    Trust-aware mode keeps the scored entities at or above the threshold,
    with bandwidth normalized by the largest bandwidth inside the kept set.
    Bandwidth-only mode takes every other router. The source itself is never
    a candidate.
    """
    graph._require_entity(source)
    if policy.mode is SelectionMode.BANDWIDTH_ONLY:
        kept = [
            (eid, 0.0, graph.bandwidth(eid))
            for eid in graph.entity_ids()
            if eid != source
        ]
    else:
        if scores is None or scores.source != source:
            raise DomainError("trust-aware selection needs the source's score table")
        kept = [
            (eid, scores.scores[eid].value, graph.bandwidth(eid))
            for eid in scores.targets()
            if scores.scores[eid].value >= policy.ts_threshold
        ]
    if not kept:
        raise EmptyCandidateSetError(
            "no candidates for entity %d at threshold %g"
            % (source, policy.ts_threshold)
        )
    top = max(b for _, _, b in kept)
    members = tuple(
        Candidate(eid, ts, b, b / top) for eid, ts, b in kept
    )
    return CandidateSet(source=source, mode=policy.mode, members=members)


def selection_probability(
    candidates: CandidateSet, policy: SelectionPolicy, entity_id: int
) -> float:
    """Probability that one draw picks entity_id."""
    w = candidates.weights(policy)
    total = w.sum()
    if total <= 0.0:
        raise ZeroDenominatorError("all selection weights are zero")
    for k, cand in enumerate(candidates.members):
        if cand.entity_id == entity_id:
            return float(w[k] / total)
    raise UnknownEntityError("entity %d is not a candidate" % entity_id)


def weighted_picks(
    cum: np.ndarray,
    weights: np.ndarray,
    rng: np.random.Generator,
    draws: int,
    length: int,
) -> np.ndarray:
    """`draws` rows of `length` weighted picks without replacement.

    cum is np.cumsum(weights), so candidate i holds [starts[i], cum[i]) of
    the mass, with starts[i] = cum[i-1] and starts[0] = 0. Pick k of a row
    scales a uniform by the mass its earlier picks left and maps the value
    back onto the full axis: walking the earlier picks in ascending index
    order, each one whose interval starts at or below the value pushes it
    past itself by its weight. searchsorted then lands on the remaining
    candidate that holds the point, so every pick follows weight / remaining
    mass, the law of drawing one router at a time and zeroing its weight.
    A row takes `length` uniforms, and for length 1 the stream is exactly
    rng.random(draws) * weights.sum(). A weight too small to move cum (below
    its rounding) can only come up once the larger ones are picked.

    Returns a (draws, length) array of indices into weights.
    """
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
    u = rng.random((draws, length))
    picks = np.empty((draws, length), dtype=np.intp)
    starts = np.concatenate(([0.0], cum[:-1])) if length > 1 else None
    left = total  # per row from the second pick on: the mass not yet picked
    for k in range(length):
        value = u[:, k] * left
        for earlier in np.sort(picks[:, :k], axis=1).T:
            value = value + (starts[earlier] <= value) * weights[earlier]
        pick = np.searchsorted(cum, value, side="right")
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
    k = weighted_picks(np.cumsum(w), w, rng, 1, 1)[0, 0]
    return candidates.members[k].entity_id


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
    row = weighted_picks(np.cumsum(w), w, rng, 1, policy.circuit_length)[0]
    return Circuit(members=tuple(candidates.members[k].entity_id for k in row))
