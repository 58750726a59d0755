"""Social-trust scoring and trust-aware onion-routing router selection."""

from .errors import OnionTrustError
from .fileio import (
    cdf_points,
    parse_graph,
    parse_rules,
    parse_scenario,
    read_graph,
    read_rules,
    read_scenario,
    serialize_graph,
    serialize_rules,
    write_cdf,
    write_graph,
    write_link_trust,
    write_round_reports,
    write_sweep_rows,
    write_trust_scores,
)
from .fuzzy import (
    FuzzyRuleSet,
    Rule,
    ValueClass,
    aggregate,
    compute_trust_values,
    defuzzify,
    link_trust,
    rule_trust_value,
    trust_value,
)
from .graph import (
    AttributeProfile,
    FriendLink,
    GeneratorParams,
    SocialGraph,
    generate_graph,
    mean_circle_size,
)
from .propagation import (
    TrustScore,
    TrustScoreTable,
    propagate,
    propagate_all,
    trust_distance,
)
from .selection import (
    CandidateSet,
    Circuit,
    SelectionMode,
    SelectionPolicy,
    build_candidates,
    build_circuit,
    select_router,
    selection_probability,
)
from .simulation import (
    CorrelationCase,
    DrawMode,
    RoundReport,
    SimScenario,
    SimulationResult,
    Strategy,
    SweepResult,
    SweepRow,
    build_scenario_graph,
    mean_trust_scores,
    run_circuit_rounds,
    run_selection_rounds,
    run_simulation,
    sweep,
)

__version__ = "0.1.0"
