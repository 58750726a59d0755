"""Adversary simulations: how often a user's selections land on bad routers.

One scenario fixes an adversary strategy, the fraction of routers it runs,
an optional trust/bandwidth correlation case, the selection policy and the
round layout. Each round re-places the malicious flags (except for the
deterministic top-bandwidth strategy) and makes a batch of selections or
circuits; the per-round report carries the malicious-selection ratio R_MR,
the compromised-circuit ratio R_MC and the mean selected bandwidth. Both
kinds of round draw through `selection.weighted_picks`: a select round is
`draws` single picks, a circuit round `draws` rows of `circuit_length`
sequential picks without replacement.

Trust enters through one `propagate_arrays` result per graph: the source's
score table is its source row, PRACTICAL_STOR weighs flags by its column
means and THEORETICAL_STOR flags entities outside the source's reached row.

All randomness is derived from the scenario seed through fixed stream keys,
so a scenario replays byte for byte and sweeps share draws across values.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DomainError,
    InfeasibleAssignmentError,
    UnknownEntityError,
)
from .fuzzy import FuzzyRuleSet, compute_trust_values
from .graph import (
    DEFAULT_BANDWIDTH_MAX,
    GeneratorParams,
    SocialGraph,
    generate_graph,
    mean_circle_size,
)
from .propagation import TrustArrays, TrustScoreTable, propagate_arrays
from .selection import (
    DEFAULT_CIRCUIT_LENGTH,
    SelectionMode,
    SelectionPolicy,
    build_candidates,
    weighted_picks,
)

# Stream keys under the scenario seed. The graph generator owns spawn keys
# (0,), (1,), (2,); these must not collide with them.
_SETUP_KEY = 10
_ROUND_KEY = 11


class Strategy(enum.Enum):
    """Adversary placement strategy and the selection mode it attacks."""

    ORIGINAL_TOR = ("original_tor", SelectionMode.BANDWIDTH_ONLY)
    OPPORTUNISTIC_TOR = ("opportunistic_tor", SelectionMode.BANDWIDTH_ONLY)
    PRACTICAL_STOR = ("practical_stor", SelectionMode.TRUST_AWARE)
    THEORETICAL_STOR = ("theoretical_stor", SelectionMode.TRUST_AWARE)

    def __init__(self, code, selection_mode):
        self.code = code
        self.selection_mode = selection_mode

    @classmethod
    def from_code(cls, code: str) -> "Strategy":
        for member in cls:
            if member.code == code.lower():
                return member
        raise DomainError("unknown strategy %r" % (code,))


class CorrelationCase(enum.Enum):
    """How trust and bandwidth line up inside the user's circle."""

    NONE = "none"
    BEST = "best"
    WORST = "worst"

    @classmethod
    def from_code(cls, code: str) -> "CorrelationCase":
        try:
            return cls(code.lower())
        except ValueError:
            raise DomainError("unknown correlation case %r" % (code,)) from None


class DrawMode(enum.Enum):
    """Whether a round draws single routers or whole circuits."""

    SELECT = "select"
    CIRCUIT = "circuit"

    @classmethod
    def from_code(cls, code: str) -> "DrawMode":
        try:
            return cls(code.lower())
        except ValueError:
            raise DomainError("unknown draw mode %r" % (code,)) from None


@dataclass(frozen=True)
class SimScenario:
    """Everything one simulation run depends on, seed included."""

    strategy: Strategy
    fraction: float
    case: CorrelationCase = CorrelationCase.NONE
    omega: float = 0.0
    ts_threshold: float = 0.0
    rounds: int = 1000
    draws: int = 1000
    seed: int = 0
    n: int = 500
    generator_kind: str = "calibrated"
    generator_value: float = 0.8
    bandwidth_max: float = DEFAULT_BANDWIDTH_MAX
    source: int = 1
    max_hops: int = 2
    draw_mode: DrawMode = DrawMode.SELECT
    circuit_length: int = DEFAULT_CIRCUIT_LENGTH

    policy: SelectionPolicy = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise DomainError("fraction must be in [0, 1], got %r" % (self.fraction,))
        if self.rounds < 1 or self.draws < 1:
            raise DomainError("rounds and draws must be >= 1")
        if self.generator_kind not in ("calibrated", "er"):
            raise DomainError("unknown generator kind %r" % (self.generator_kind,))
        for name in ("n", "max_hops"):
            if getattr(self, name) < 1:
                raise DomainError("%s must be >= 1, got %r" % (name, getattr(self, name)))
        if self.seed < 0:
            raise DomainError("seed must be >= 0, got %r" % (self.seed,))
        # The generator and the policy check their own fields, so every bad
        # value fails here, before a graph is built.
        self.generator_params()
        policy = SelectionPolicy(
            omega=self.omega,
            ts_threshold=self.ts_threshold,
            mode=self.strategy.selection_mode,
            circuit_length=self.circuit_length,
        )
        object.__setattr__(self, "policy", policy)

    def generator_params(self) -> GeneratorParams:
        if self.generator_kind == "er":
            return GeneratorParams(
                n=self.n,
                edge_prob=self.generator_value,
                bandwidth_max=self.bandwidth_max,
                max_hops=self.max_hops,
            )
        return GeneratorParams(
            n=self.n,
            target_circle_fraction=self.generator_value,
            bandwidth_max=self.bandwidth_max,
            max_hops=self.max_hops,
        )


@dataclass(frozen=True)
class RoundReport:
    """Metrics of one round; r_mc is None when rounds draw single routers."""

    index: int
    r_mr: float
    r_mc: Optional[float]
    avg_bandwidth: float
    draws: int


@dataclass
class SimulationResult:
    scenario: SimScenario
    reports: List[RoundReport]
    circle_size: int
    trustworthy_size: Optional[int]

    @property
    def mean_r_mr(self) -> float:
        return float(np.mean([r.r_mr for r in self.reports]))

    @property
    def mean_r_mc(self) -> Optional[float]:
        if any(r.r_mc is None for r in self.reports):
            return None
        return float(np.mean([r.r_mc for r in self.reports]))

    @property
    def mean_bandwidth(self) -> float:
        return float(np.mean([r.avg_bandwidth for r in self.reports]))


def _round_streams(seed: int, index: int):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_ROUND_KEY, index))
    flag_ss, draw_ss = ss.spawn(2)
    return np.random.default_rng(flag_ss), np.random.default_rng(draw_ss)


def _setup_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_SETUP_KEY,))
    )


def _flag_count(fraction: float, n: int) -> int:
    # ceil with a small slack so 0.2 * 500 (stored as 100.0000...01) stays 100
    return min(n, max(0, int(math.ceil(fraction * n - 1e-9))))


def mean_trust_scores(
    graph: SocialGraph,
    max_hops: int = 2,
    tables: Optional[Dict[int, TrustScoreTable]] = None,
) -> Dict[int, float]:
    """Mean trust score of each entity over all other sources.

    Sources that cannot reach an entity contribute 0 to its mean, so an
    entity nobody knows averages to 0.
    """
    if tables is None:
        return _mean_trust(propagate_arrays(graph, max_hops))
    ids = graph.entity_ids()
    totals = {eid: 0.0 for eid in ids}
    for table in tables.values():
        for target, score in table.scores.items():
            totals[target] += score.value
    denom = max(1, len(ids) - 1)
    return {eid: totals[eid] / denom for eid in ids}


def _mean_trust(arrays: TrustArrays) -> Dict[int, float]:
    # A column sum over C-ordered rows adds the sources in row order, the
    # same order as the loop over score tables, so the floats are equal.
    denom = max(1, len(arrays.ids) - 1)
    totals = arrays.best.sum(axis=0).tolist()
    return {eid: total / denom for eid, total in zip(arrays.ids, totals)}


class _FlagPlan:
    """Per-scenario flag machinery; draw() yields one round's flag indices.

    PRACTICAL_STOR reads mean trust off arrays unless mean_trust is given;
    THEORETICAL_STOR flags entities outside the source's reached row.
    """

    def __init__(self, graph: SocialGraph, scenario: SimScenario,
                 arrays: TrustArrays,
                 mean_trust: Optional[Dict[int, float]] = None):
        self.ids = graph.entity_ids()
        self.n = len(self.ids)
        self.m = _flag_count(scenario.fraction, self.n)
        self.fixed: Optional[np.ndarray] = None
        self.weights: Optional[np.ndarray] = None
        self.pool: Optional[np.ndarray] = None
        if scenario.strategy is Strategy.ORIGINAL_TOR:
            bw = np.array([graph.bandwidth(eid) for eid in self.ids])
            order = np.lexsort((np.array(self.ids), -bw))
            self.fixed = order[: self.m]
        elif scenario.strategy is Strategy.PRACTICAL_STOR:
            if mean_trust is None:
                mean_trust = _mean_trust(arrays)
            self.weights = np.array(
                [max(0.0, 1.0 - mean_trust[eid]) for eid in self.ids]
            )
        elif scenario.strategy is Strategy.THEORETICAL_STOR:
            graph._require_entity(scenario.source)
            row = self.ids.index(scenario.source)
            outside = ~arrays.reached[row]
            outside[row] = False
            self.pool = np.flatnonzero(outside)
            if len(self.pool) < self.m:
                raise InfeasibleAssignmentError(
                    "strategy needs %d routers outside the circle, only %d exist"
                    % (self.m, len(self.pool))
                )

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        if self.m == 0:
            return np.empty(0, dtype=int)
        if self.fixed is not None:
            return self.fixed
        if self.pool is not None:
            return rng.choice(self.pool, size=self.m, replace=False)
        if self.weights is not None:
            return self._weighted_draw(rng)
        return rng.choice(self.n, size=self.m, replace=False)

    def _weighted_draw(self, rng: np.random.Generator) -> np.ndarray:
        w = self.weights
        positive = w > 0.0
        n_pos = int(positive.sum())
        if n_pos == 0:
            return rng.choice(self.n, size=self.m, replace=False)
        # Exponential-key trick: top-m of u^(1/w) is a weighted sample
        # without replacement.
        keys = np.zeros(self.n)
        u = 1.0 - rng.random(n_pos)  # in (0, 1], so keys stay positive
        keys[positive] = u ** (1.0 / w[positive])
        if n_pos >= self.m:
            return np.argpartition(-keys, self.m - 1)[: self.m]
        # Weights cover fewer routers than needed; fill up uniformly.
        rest = np.nonzero(~positive)[0]
        fill = rng.choice(rest, size=self.m - n_pos, replace=False)
        return np.concatenate([np.nonzero(positive)[0], fill])


def assign_malicious(
    graph: SocialGraph,
    scenario: SimScenario,
    rng: np.random.Generator,
    mean_trust: Optional[Dict[int, float]] = None,
) -> SocialGraph:
    """Copy of the graph with malicious flags placed by the strategy.

    The trust-based strategies read one propagate_arrays result.
    """
    plan = _FlagPlan(
        graph, scenario, propagate_arrays(graph, scenario.max_hops), mean_trust
    )
    chosen = set(plan.draw(rng).tolist())
    return graph.with_flags(
        {eid: (k in chosen) for k, eid in enumerate(plan.ids)}
    )


def assign_bandwidth_correlation(
    graph: SocialGraph,
    source: int,
    case: CorrelationCase,
    scores: TrustScoreTable,
    rng: np.random.Generator,
) -> SocialGraph:
    """Copy of the graph with bandwidths permuted into BEST or WORST shape.

    BEST hands the circle's most trusted members the largest bandwidths in
    the graph; WORST parks the largest bandwidths outside the circle and
    pairs high trust with low bandwidth inside it. Outsiders (the source
    included) get their block shuffled.
    """
    if case is CorrelationCase.NONE:
        return graph
    ids = graph.entity_ids()
    insiders = sorted(
        scores.targets(), key=lambda eid: (-scores.scores[eid].value, eid)
    )
    inside = set(insiders)
    outsiders = [eid for eid in ids if eid not in inside]
    values = sorted((graph.bandwidth(eid) for eid in ids), reverse=True)
    k = len(insiders)

    mapping: Dict[int, float] = {}
    if case is CorrelationCase.BEST:
        inside_block, outside_block = values[:k], values[k:]
    else:
        outside_block, low = values[: len(values) - k], values[len(values) - k:]
        inside_block = low[::-1]  # ascending: best trust gets least bandwidth
    for eid, b in zip(insiders, inside_block):
        mapping[eid] = b
    order = rng.permutation(len(outsiders))
    for pos, eid in enumerate(outsiders):
        mapping[eid] = outside_block[int(order[pos])]
    return graph.with_bandwidths(mapping)


class _Prepared:
    """Scenario state that is identical across rounds.

    arrays are propagate_arrays(graph, scenario.max_hops); they are computed
    when not given, and the source's score table is their source row.
    """

    def __init__(self, graph: SocialGraph, scenario: SimScenario,
                 mean_trust: Optional[Dict[int, float]] = None,
                 arrays: Optional[TrustArrays] = None):
        if not graph.frozen:
            raise DomainError("freeze the graph before simulating")
        if not graph.has_entity(scenario.source):
            raise UnknownEntityError("unknown source entity %d" % scenario.source)
        if arrays is None:
            arrays = propagate_arrays(graph, scenario.max_hops)
        elif arrays.ids != graph.entity_ids():
            raise DomainError("trust arrays are not over this graph's entities")
        scores = arrays.table(arrays.ids.index(scenario.source))
        # Every entity within max_hops links gets a score, so the scored
        # targets are the circle.
        self.circle_size = len(scores.scores)

        if scenario.case is not CorrelationCase.NONE:
            graph = assign_bandwidth_correlation(
                graph, scenario.source, scenario.case, scores,
                _setup_rng(scenario.seed),
            )
        self.ids = graph.entity_ids()
        index = {eid: k for k, eid in enumerate(self.ids)}
        self.bw = np.array([graph.bandwidth(eid) for eid in self.ids])

        policy = scenario.policy
        candidates = build_candidates(graph, scores, scenario.source, policy)
        self.trustworthy_size = (
            candidates.size
            if policy.mode is SelectionMode.TRUST_AWARE
            else None
        )
        self.cand_idx = np.array([index[eid] for eid in candidates.ids()])
        self.weights = candidates.weights(policy)
        self.plan = _FlagPlan(graph, scenario, arrays, mean_trust)


def _run_rounds(
    graph: SocialGraph,
    scenario: SimScenario,
    mean_trust: Optional[Dict[int, float]],
    arrays: Optional[TrustArrays],
    circuits: bool,
) -> SimulationResult:
    prep = _Prepared(graph, scenario, mean_trust, arrays)
    length = scenario.circuit_length if circuits else 1
    cum = np.cumsum(prep.weights)
    reports = []
    for r in range(scenario.rounds):
        flag_rng, draw_rng = _round_streams(scenario.seed, r)
        flag_mask = np.zeros(len(prep.ids), dtype=bool)
        flag_mask[prep.plan.draw(flag_rng)] = True
        members = weighted_picks(cum, prep.weights, draw_rng, scenario.draws, length)
        picked = prep.cand_idx[members]  # (draws, length) of global indices
        hit = flag_mask[picked]
        reports.append(
            RoundReport(
                index=r,
                r_mr=float(hit.mean()),
                r_mc=float(hit.any(axis=1).mean()) if circuits else None,
                avg_bandwidth=float(prep.bw[picked].min(axis=1).mean()),
                draws=scenario.draws,
            )
        )
    return SimulationResult(scenario, reports, prep.circle_size, prep.trustworthy_size)


def run_selection_rounds(
    graph: SocialGraph,
    scenario: SimScenario,
    mean_trust: Optional[Dict[int, float]] = None,
    arrays: Optional[TrustArrays] = None,
) -> SimulationResult:
    """Rounds of single-router draws."""
    return _run_rounds(graph, scenario, mean_trust, arrays, circuits=False)


def run_circuit_rounds(
    graph: SocialGraph,
    scenario: SimScenario,
    mean_trust: Optional[Dict[int, float]] = None,
    arrays: Optional[TrustArrays] = None,
) -> SimulationResult:
    """Rounds of full-circuit draws; a circuit with any flagged member counts."""
    return _run_rounds(graph, scenario, mean_trust, arrays, circuits=True)


def run_simulation(
    graph: SocialGraph,
    scenario: SimScenario,
    mean_trust: Optional[Dict[int, float]] = None,
    arrays: Optional[TrustArrays] = None,
) -> SimulationResult:
    """Run the scenario's rounds.

    Every trust input is read off arrays, propagate_arrays(graph,
    scenario.max_hops), computed when not given; mean_trust, when given,
    replaces their column means. Pass arrays to share one propagation.
    """
    if scenario.draw_mode is DrawMode.CIRCUIT:
        return run_circuit_rounds(graph, scenario, mean_trust, arrays)
    return run_selection_rounds(graph, scenario, mean_trust, arrays)


def build_scenario_graph(scenario: SimScenario, rules: FuzzyRuleSet) -> SocialGraph:
    """Generate, trust-score and freeze the graph a scenario calls for."""
    graph = generate_graph(scenario.generator_params(), scenario.seed)
    compute_trust_values(graph, rules)
    graph.freeze()
    return graph


# -- sweeps ------------------------------------------------------------------

#: Sweepable scenario axes -> SimScenario field.
SWEEP_AXES = {
    "omega": "omega",
    "ts_h": "ts_threshold",
    "fraction": "fraction",
    "n": "n",
}


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    mean_r_mr: float
    mean_r_mc: Optional[float]
    mean_bandwidth: float
    mean_circle_size: float
    mean_trustworthy_size: float


@dataclass
class SweepResult:
    axis: str
    rows: List[SweepRow]
    results: List[SimulationResult]


def sweep(
    scenario: SimScenario,
    axis: str,
    values: Sequence[float],
    rules: FuzzyRuleSet,
) -> SweepResult:
    """Run the scenario once per axis value, sharing the seed across values.

    The graph is regenerated only when the axis is n; all other axes reuse
    one graph, so sweep points differ only in the swept knob (common random
    numbers by construction). Each graph is propagated once, and every value
    reads its arrays: the rounds through run_simulation's arrays argument,
    the trustworthy sizes directly. A bad value fails before any value runs.
    """
    if axis not in SWEEP_AXES:
        raise DomainError(
            "unknown sweep axis %r (have: %s)" % (axis, ", ".join(sorted(SWEEP_AXES)))
        )
    field = SWEEP_AXES[axis]
    # Every value's scenario is built (and so validated) before any runs.
    scenarios = []
    for value in values:
        if field == "n":
            if not float(value).is_integer():
                raise DomainError("n must be a whole number, got %r" % (value,))
            value = int(value)
        scenarios.append(dataclasses.replace(scenario, **{field: value}))
    rows: List[SweepRow] = []
    results: List[SimulationResult] = []
    cache: Dict[int, Tuple[SocialGraph, TrustArrays, float]] = {}
    for value, sc in zip(values, scenarios):
        if sc.n not in cache:
            graph = build_scenario_graph(sc, rules)
            cache[sc.n] = (
                graph,
                propagate_arrays(graph, sc.max_hops),
                mean_circle_size(graph, sc.max_hops),
            )
        graph, arrays, mean_circle = cache[sc.n]
        result = run_simulation(graph, sc, arrays=arrays)
        trustworthy = (arrays.best >= sc.ts_threshold) & arrays.reached
        mean_tf = float(np.mean(trustworthy.sum(axis=1)))
        rows.append(
            SweepRow(
                axis=axis,
                value=float(value),
                mean_r_mr=result.mean_r_mr,
                mean_r_mc=result.mean_r_mc,
                mean_bandwidth=result.mean_bandwidth,
                mean_circle_size=mean_circle,
                mean_trustworthy_size=mean_tf,
            )
        )
        results.append(result)
    return SweepResult(axis=axis, rows=rows, results=results)
