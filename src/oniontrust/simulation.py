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

Trust enters through one `propagate_arrays` result per graph, propagated
within the scenario's hop budget. The source's row gives the circle size,
the candidates and the BEST/WORST bandwidth permutation; PRACTICAL_STOR
weighs flags by the column means and THEORETICAL_STOR flags entities
outside the source's circle, the row's cells with hops 0.

Flags and the bandwidth shape are per-scenario state and live only here:
`_Prepared` permutes one bandwidth vector (`_correlated`) and plans the
strategy's flags (`_flag_plan`). ORIGINAL_TOR's flags are fixed; every
random placement is one keyed draw, `_weighted_draw` of `_flag_keys`, and
the strategies differ only in its weights. The graph itself is never copied
or changed.

All randomness is derived from the scenario seed through fixed stream keys,
so a scenario replays byte for byte. Round r has its own pair of streams:
a flag stream for that round's mask and a draw stream for its uniforms.
They are numpy's `default_rng(SeedSequence(seed, spawn_key=(_ROUND_KEY, r,
child)))`, but `streams.spawned_states` derives their PCG64 states
itself, many rounds per vectorized pass of SeedSequence's hash. One runner, `_run_rounds`, takes the
rounds in blocks: it draws each round's flag uniforms and pick uniforms
once, keys the block's flags in one pass, then samples the whole block in
one `weighted_picks` call. A sweep runs the values on each graph as one
batch, since the flags never read omega or ts_threshold: every value reads
round r's uniforms, and the values with one fraction its one flag mask.
Each value's reports are still those of its scenario run alone.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    InfeasibleAssignmentError,
    UnknownEntityError,
)
from .fuzzy import FuzzyRuleSet, compute_trust_values
from .graph import (
    DEFAULT_BANDWIDTH_MAX,
    DEFAULT_MAX_HOPS,
    GeneratorParams,
    SocialGraph,
    _require_integer,
    generate_graph,
)
from .propagation import TrustArrays, TrustScoreTable, propagate_arrays
from .selection import (
    DEFAULT_CIRCUIT_LENGTH,
    SelectionMode,
    SelectionPolicy,
    row_candidates,
    weighted_picks,
)
from .streams import spawned_states

# Stream keys under the scenario seed. The graph generator owns spawn keys
# (0,), (1,), (2,); these must not collide with them.
_SETUP_KEY = 10
_ROUND_KEY = 11

#: Cells that one block of rounds holds: picks (rounds x draws x picks per
#: draw) or flag keys (rounds x routers), whichever a round has more of. It
#: keeps a block's uniforms, picks, gathers and keys at a few hundred KB
#: whatever the round layout. A round larger than this is a block alone.
BLOCK_PICKS = 1 << 14


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
    max_hops: int = DEFAULT_MAX_HOPS
    draw_mode: DrawMode = DrawMode.SELECT
    circuit_length: int = DEFAULT_CIRCUIT_LENGTH

    generator_params: GeneratorParams = dataclasses.field(
        init=False, repr=False, compare=False
    )
    policy: SelectionPolicy = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise DomainError("fraction must be in [0, 1], got %r" % (self.fraction,))
        for field in ("rounds", "draws", "seed", "source"):
            _require_integer(field, getattr(self, field), DomainError)
        if self.rounds < 1 or self.draws < 1:
            raise DomainError("rounds and draws must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be >= 0, got %r" % (self.seed,))
        # The generator (n, kind, value, bandwidth_max, max_hops) and the
        # policy check their own fields, so every bad value fails here,
        # before a graph is built.
        generator_params = GeneratorParams(
            self.n, self.generator_kind, self.generator_value,
            self.bandwidth_max, self.max_hops,
        )
        object.__setattr__(self, "generator_params", generator_params)
        policy = SelectionPolicy(
            omega=self.omega,
            ts_threshold=self.ts_threshold,
            mode=self.strategy.selection_mode,
            circuit_length=self.circuit_length,
        )
        object.__setattr__(self, "policy", policy)


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


def _setup_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_SETUP_KEY,))
    )


def _flag_count(fraction: float, n: int) -> int:
    # ceil with a small slack so 0.2 * 500 (stored as 100.0000...01) stays 100
    return min(n, max(0, int(math.ceil(fraction * n - 1e-9))))


def mean_trust_scores(
    graph: SocialGraph,
    max_hops: int = DEFAULT_MAX_HOPS,
    tables: Optional[Dict[int, TrustScoreTable]] = None,
) -> Dict[int, float]:
    """Mean trust score of each entity over all other sources.

    The scores are propagate_arrays(graph, max_hops)'s, or the rows of
    tables when given: one table per source, each over graph entities.
    Sources that cannot reach an entity contribute 0 to its mean, so an
    entity nobody knows averages to 0.
    """
    ids = graph.entity_ids()
    if tables is None:
        best = propagate_arrays(graph, max_hops).best
    else:
        unknown = {table.source for table in tables.values()}.difference(ids)
        if unknown:
            raise UnknownEntityError("trust table of unknown source entity %r" % min(unknown))
        # row() rejects unknown targets; absent ones score 0.0
        rows = [table.row(ids)[0] for table in tables.values()]
        best = np.array(rows).reshape(len(tables), len(ids))
    return dict(zip(ids, _mean_trust(ids, best).tolist()))


def _mean_trust(ids: List[int], best: np.ndarray) -> np.ndarray:
    # Column means over the other sources. A column sum over C-ordered rows
    # adds the sources in row order, as a loop over rows would.
    return best.sum(axis=0) / max(1, len(ids) - 1)


@dataclass(frozen=True)
class _FlagPlan:
    """Where a scenario's flags go each round: the m rows of a
    _weighted_draw over weights, or, when weights is None, the rows in
    fixed, the same every round, which draw nothing."""

    m: int
    weights: Optional[np.ndarray] = None
    fixed: Optional[np.ndarray] = None


def _flag_plan(ids: List[int], bandwidth: np.ndarray, scenario: SimScenario,
               arrays: TrustArrays, row: int,
               mean_trust: Optional[Dict[int, float]]) -> _FlagPlan:
    """The strategy's per-round flags.

    bandwidth is over the arrays' ids and row is the source's. ORIGINAL_TOR
    flags the top-bandwidth rows and never draws. The others draw through
    _weighted_draw: PRACTICAL_STOR weighs each row by 1 - its mean trust,
    read off arrays unless mean_trust is given; THEORETICAL_STOR weighs 1
    outside the source's circle (hops 0) and 0 inside it and at the source;
    OPPORTUNISTIC_TOR weighs every row 1. With no routers to flag nothing
    is drawn.
    """
    m = _flag_count(scenario.fraction, len(ids))
    if scenario.strategy is Strategy.ORIGINAL_TOR:
        return _FlagPlan(m, fixed=np.lexsort((np.array(ids), -bandwidth))[:m])
    if m == 0:
        return _FlagPlan(0, fixed=np.empty(0, dtype=int))
    if scenario.strategy is Strategy.PRACTICAL_STOR:
        if mean_trust is None:
            weights = 1.0 - _mean_trust(ids, arrays.best)
        else:
            weights = 1.0 - np.array([mean_trust[eid] for eid in ids])
    elif scenario.strategy is Strategy.THEORETICAL_STOR:
        outside = arrays.hops[row] == 0
        outside[row] = False
        if outside.sum() < m:
            raise InfeasibleAssignmentError(
                "strategy needs %d routers outside the circle, only %d exist"
                % (m, outside.sum())
            )
        weights = outside.astype(float)
    else:
        weights = np.ones(len(ids))
    return _FlagPlan(m, weights=weights)


def _check_mean_trust(ids: List[int], mean_trust: Dict[int, float]):
    """Fail naming a key of mean_trust outside ids, else the first of ids
    that mean_trust misses or maps outside [0, 1]."""
    outside = set(mean_trust).difference(ids)
    if outside:
        raise UnknownEntityError(
            "mean_trust has an entry for entity %r outside the graph" % min(outside)
        )
    for eid in ids:
        if eid not in mean_trust:
            raise UnknownEntityError("mean_trust has no entry for entity %d" % eid)
        if not 0.0 <= mean_trust[eid] <= 1.0:
            raise DomainError(
                "mean trust of entity %d must be in [0, 1], got %r" % (eid, mean_trust[eid])
            )


def _flag_keys(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Efraimidis and Spirakis' keys of a (rounds, n) block of uniforms
    u in [0, 1), negated: with v = 1 - u in (0, 1], -(v ** (1 / w)) for a
    positive weight w and -(v - 1) >= 0 for a zero. 1 / w overflows to inf
    for a subnormal w, and v ** inf is the key's limit, 0 (1 at v = 1)."""
    v = 1.0 - u
    keys = v - 1.0
    positive = weights > 0.0
    with np.errstate(over="ignore"):
        keys[:, positive] = v[:, positive] ** (1.0 / weights[positive])
    return np.negative(keys, out=keys)


def _weighted_draw(keys: np.ndarray, m: int) -> np.ndarray:
    """(rounds, m): in each row of _flag_keys, m distinct columns drawn one
    by one with probability proportional to weights >= 0, the zero-weight
    columns uniformly once the others run out. They are the row's m
    smallest keys, found by one argpartition for the block."""
    return np.argpartition(keys, m - 1, axis=1)[:, :m]


def _correlated(bandwidth, trust, reached, case, rng) -> np.ndarray:
    """The bandwidth vector permuted into the case's shape by one trust row.

    BEST hands the circle's most trusted members the largest bandwidths;
    WORST parks the largest bandwidths outside the circle and pairs high
    trust with low bandwidth inside it; NONE returns bandwidth as it is.
    Insiders are the reached rows, most trusted first (lower row on ties);
    the outsiders' block (the source included) is shuffled by one
    rng.permutation over them.
    """
    if case is CorrelationCase.NONE:
        return bandwidth
    insiders = np.flatnonzero(reached)
    insiders = insiders[np.lexsort((insiders, -trust[insiders]))]
    outsiders = np.flatnonzero(~reached)
    values = np.sort(bandwidth)[::-1]
    if case is CorrelationCase.BEST:
        inside_block, outside_block = values[: len(insiders)], values[len(insiders):]
    else:  # ascending inside: best trust gets least bandwidth
        outside_block = values[: len(outsiders)]
        inside_block = values[len(outsiders):][::-1]
    out = np.empty_like(bandwidth)
    out[insiders] = inside_block
    out[outsiders] = outside_block[rng.permutation(len(outsiders))]
    return out


class _Prepared:
    """Scenario state that is identical across rounds.

    arrays are propagate_arrays(graph, scenario.max_hops); they are computed
    when not given, rejected when over other ids or another hop budget, and
    everything here reads the source's row of them.
    """

    def __init__(self, graph: SocialGraph, scenario: SimScenario,
                 mean_trust: Optional[Dict[int, float]] = None,
                 arrays: Optional[TrustArrays] = None):
        if not graph.frozen:
            raise DomainError("freeze the graph before simulating")
        if not graph.has_entity(scenario.source):
            raise UnknownEntityError("unknown source entity %s" % (scenario.source,))
        if arrays is None:
            arrays = propagate_arrays(graph, scenario.max_hops)
        elif arrays.ids != graph.entity_ids():
            raise DomainError("trust arrays are not over this graph's entities")
        elif arrays.max_hops != scenario.max_hops:
            raise DomainError(
                "trust arrays were propagated within %d hops, the scenario "
                "asks for max_hops %d" % (arrays.max_hops, scenario.max_hops)
            )
        self.ids = arrays.ids
        row = self.ids.index(scenario.source)
        trust, circle = arrays.best[row], arrays.hops[row] > 0
        self.circle_size = int(circle.sum())

        self.bw = _correlated(
            np.array([graph.bandwidth(eid) for eid in self.ids]),
            trust, circle, scenario.case, _setup_rng(scenario.seed),
        )
        policy = scenario.policy
        self.cand_idx, candidates = row_candidates(
            self.ids, trust, circle, self.bw, row, policy
        )
        self.trustworthy_size = (
            candidates.size
            if policy.mode is SelectionMode.TRUST_AWARE
            else None
        )
        self.weights = candidates.weights(policy)
        self.flags = _flag_plan(self.ids, self.bw, scenario, arrays, row, mean_trust)


def _run_rounds(
    graph: SocialGraph,
    scenarios: Sequence[SimScenario],
    mean_trust: Optional[Dict[int, float]],
    arrays: Optional[TrustArrays],
    circuits: bool,
) -> List[SimulationResult]:
    """The rounds of scenarios that differ at most in omega, ts_threshold
    and fraction, one result per scenario.

    Rounds run in blocks of at most BLOCK_PICKS picks or flag keys, and
    spawned_states gives each round's pair of stream states once for all
    scenarios, set in turn on two reused generators. Each round draws its
    n flag uniforms from its flag stream into the block, unless no
    scenario's flags are random, and its picks' uniforms from its draw
    stream. The block's flag keys are computed once: the scenarios share
    their flag weights (flags never read omega or ts_threshold), so each
    distinct fraction takes one _weighted_draw of its m rows off them, and
    fixed flags are set once. Each scenario then samples the block in one
    weighted_picks call and reduces it per round; rows are independent and
    a row's mean sums in the same order as a single round's, so the
    reports are those of running each scenario alone, round by round.
    """
    if mean_trust is not None:
        _check_mean_trust(graph.entity_ids(), mean_trust)
    first = scenarios[0]
    length = first.circuit_length if circuits else 1
    preps = []
    for sc in scenarios:
        preps.append(_Prepared(graph, sc, mean_trust, arrays))
        # The sampler's input checks, before any rounds, so that a batch
        # fails on its first bad scenario as one run at a time would.
        weighted_picks(preps[-1].weights, np.empty((0, length)))
    plans = {}
    for sc, prep in zip(scenarios, preps):
        plans.setdefault(sc.fraction, prep.flags)
    n = len(preps[0].ids)
    block = max(1, BLOCK_PICKS // max(first.draws * length, n))
    u = np.empty((block, first.draws, length))
    masks = {f: np.zeros((block, n), dtype=bool) for f in plans}
    keyed = {f: plan for f, plan in plans.items() if plan.weights is not None}
    for f, plan in plans.items():
        if plan.weights is None:
            masks[f][:, plan.fixed] = True
    if keyed:
        weights = next(iter(keyed.values())).weights
        flag_u = np.empty((block, n))
    flag_rng, draw_rng = (np.random.Generator(np.random.PCG64(0)) for _ in range(2))
    states = spawned_states(first.seed, _ROUND_KEY, range(first.rounds))
    reports: List[List[RoundReport]] = [[] for _ in scenarios]
    for start in range(0, first.rounds, block):
        indices = range(start, min(start + block, first.rounds))
        b = len(indices)
        for i, (flag_state, draw_state) in zip(range(b), states):
            if keyed:
                flag_rng.bit_generator.state = flag_state
                flag_rng.random(out=flag_u[i])
            draw_rng.bit_generator.state = draw_state
            draw_rng.random(out=u[i])
        if keyed:
            keys = _flag_keys(weights, flag_u[:b])
            for f, plan in keyed.items():
                masks[f][:b] = False
                np.put_along_axis(masks[f][:b], _weighted_draw(keys, plan.m), True, axis=1)
        for sc, prep, out in zip(scenarios, preps, reports):
            members = weighted_picks(prep.weights, u[:b].reshape(-1, length))
            picked = prep.cand_idx[members].reshape(b, first.draws, length)
            hit = np.take_along_axis(masks[sc.fraction][:b], picked.reshape(b, -1), axis=1)
            r_mr = hit.mean(axis=1).tolist()
            r_mc = (
                hit.reshape(picked.shape).any(axis=2).mean(axis=1).tolist()
                if circuits else [None] * b
            )
            bandwidth = prep.bw[picked].min(axis=2).mean(axis=1).tolist()
            out.extend(
                RoundReport(index=r, r_mr=r_mr[i], r_mc=r_mc[i],
                            avg_bandwidth=bandwidth[i], draws=first.draws)
                for i, r in enumerate(indices)
            )
    return [
        SimulationResult(sc, out, prep.circle_size, prep.trustworthy_size)
        for sc, prep, out in zip(scenarios, preps, reports)
    ]


def run_selection_rounds(
    graph: SocialGraph,
    scenario: SimScenario,
    mean_trust: Optional[Dict[int, float]] = None,
    arrays: Optional[TrustArrays] = None,
) -> SimulationResult:
    """Rounds of single-router draws."""
    return _run_rounds(graph, [scenario], mean_trust, arrays, circuits=False)[0]


def run_circuit_rounds(
    graph: SocialGraph,
    scenario: SimScenario,
    mean_trust: Optional[Dict[int, float]] = None,
    arrays: Optional[TrustArrays] = None,
) -> SimulationResult:
    """Rounds of full-circuit draws; a circuit with any flagged member counts."""
    return _run_rounds(graph, [scenario], mean_trust, arrays, circuits=True)[0]


def run_simulation(
    graph: SocialGraph,
    scenario: SimScenario,
    mean_trust: Optional[Dict[int, float]] = None,
    arrays: Optional[TrustArrays] = None,
) -> SimulationResult:
    """Run the scenario's rounds.

    Every trust input is read off arrays, propagate_arrays(graph,
    scenario.max_hops), computed when not given; mean_trust, when given,
    replaces their column means: one value in [0, 1] for each entity, no
    other key, checked whatever the strategy. Pass arrays to share one
    propagation.
    """
    if scenario.draw_mode is DrawMode.CIRCUIT:
        return run_circuit_rounds(graph, scenario, mean_trust, arrays)
    return run_selection_rounds(graph, scenario, mean_trust, arrays)


def _require_generated_source(scenario: SimScenario):
    """A generated graph has ids 1..n; reject a source outside them unbuilt."""
    if not 1 <= scenario.source <= scenario.n:
        raise UnknownEntityError("unknown source entity %s" % (scenario.source,))


def build_scenario_graph(scenario: SimScenario, rules: FuzzyRuleSet) -> SocialGraph:
    """Generate, trust-score and freeze the graph a scenario calls for."""
    _require_generated_source(scenario)
    graph = generate_graph(scenario.generator_params, scenario.seed)
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
    """Run the scenario once per axis value, sharing its random numbers.

    The values run as one batch of rounds per graph: one graph for the
    omega, ts_h and fraction axes, one per distinct n, in the order the n
    values first appear, each freed before the next is built. Round r's
    streams are drawn once for a batch: every value reads its uniforms, and
    every value with the same fraction (all of them off the fraction axis)
    its flag mask. So sweep points differ only in the swept knob (common
    random numbers), and each value's reports equal run_simulation's for it
    alone. Each graph is propagated once, and its values read their rounds,
    circle and trustworthy sizes off its arrays. A bad value fails before
    any graph is built.
    """
    if axis not in SWEEP_AXES:
        raise DomainError(
            "unknown sweep axis %r (have: %s)" % (axis, ", ".join(sorted(SWEEP_AXES)))
        )
    field = SWEEP_AXES[axis]
    if len(values) == 0:
        raise DomainError("no %s values to sweep" % axis)
    # Every value's scenario is built (and so validated) and its source
    # checked before any graph is built.
    scenarios = []
    for value in values:
        if field == "n":
            if not float(value).is_integer():
                raise DomainError("n must be a whole number, got %r" % (value,))
            value = int(value)
        scenarios.append(dataclasses.replace(scenario, **{field: value}))
        _require_generated_source(scenarios[-1])
    circuits = scenario.draw_mode is DrawMode.CIRCUIT
    results, rows = [None] * len(values), [None] * len(values)
    for n in dict.fromkeys(sc.n for sc in scenarios):  # one batch per graph
        members = [k for k, sc in enumerate(scenarios) if sc.n == n]
        batch = [scenarios[k] for k in members]
        graph = build_scenario_graph(batch[0], rules)
        arrays = propagate_arrays(graph, batch[0].max_hops)
        for k, result in zip(members, _run_rounds(graph, batch, None, arrays, circuits)):
            trustworthy = (arrays.best >= scenarios[k].ts_threshold) & (arrays.hops > 0)
            results[k] = result
            rows[k] = SweepRow(
                axis=axis,
                value=float(values[k]),
                mean_r_mr=result.mean_r_mr,
                mean_r_mc=result.mean_r_mc,
                mean_bandwidth=result.mean_bandwidth,
                mean_circle_size=arrays.mean_circle_size(),
                mean_trustworthy_size=float(np.mean(trustworthy.sum(axis=1))),
            )
        # Rebinding would keep this graph alive while the next is built.
        del graph, arrays, trustworthy
    return SweepResult(axis=axis, rows=rows, results=results)
