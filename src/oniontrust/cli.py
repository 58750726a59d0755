"""Command line front end: generate, trust, simulate, sweep."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .errors import DomainError, OnionTrustError, ParseError
from .fileio import (
    _parse_generator,
    read_graph,
    read_rules,
    read_scenario,
    write_cdf,
    write_graph,
    write_link_trust,
    write_round_reports,
    write_sweep_rows,
    write_trust_scores,
)
from .fuzzy import compute_trust_values
from .graph import (
    DEFAULT_BANDWIDTH_MAX,
    DEFAULT_MAX_HOPS,
    GeneratorParams,
    _sample_rows,
    generate_graph,
    mean_circle_size,
)
from .propagation import propagate_blocks
from .simulation import (
    SWEEP_AXES,
    DrawMode,
    build_scenario_graph,
    run_simulation,
    sweep,
)


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _say(args, message):
    if not args.quiet:
        print(message)


def cmd_generate(args) -> int:
    try:
        kind, value = _parse_generator(args.generator, None)
    except ParseError as exc:
        raise ParseError("--generator: %s" % exc) from None
    params = GeneratorParams(args.n, kind, value, args.bandwidth_max, args.max_hops)
    graph = generate_graph(params, args.seed)
    path = _out_path(args, "graph.txt")
    write_graph(path, graph)
    _say(
        args,
        "wrote %s: %d entities, %d links, mean circle size %.1f"
        % (path, len(graph), graph.link_count(), mean_circle_size(graph, args.max_hops)),
    )
    return 0


def cmd_trust(args) -> int:
    graph = read_graph(args.graph)
    rules = read_rules(args.rules)
    compute_trust_values(graph, rules)
    blocks = propagate_blocks(graph, args.max_hops)
    # Fail before any write: the scores stream into their file below.
    if not len(graph):
        raise DomainError("graph has no entities")
    circles = []

    def counted():
        # The mean circle size, counted as the blocks pass; each block is
        # let go before the next is computed.
        for block in blocks:
            circles.append(block.sampled_circles())
            yield block
            del block

    link_path = _out_path(args, "link_trust.csv")
    score_path = _out_path(args, "trust_scores.csv")
    write_link_trust(link_path, graph)
    write_trust_scores(score_path, counted())
    circle = sum(circles) / len(_sample_rows(len(graph)))
    _say(
        args,
        "scored %d links across %d entities; mean circle size %.1f; wrote %s, %s"
        % (graph.link_count(), len(graph), circle, link_path, score_path),
    )
    return 0


def _summary(result) -> str:
    parts = ["mean R_MR %.4f" % result.mean_r_mr]
    if result.mean_r_mc is not None:
        parts.append("mean R_MC %.4f" % result.mean_r_mc)
    parts.append("mean bandwidth %.1f" % result.mean_bandwidth)
    parts.append("circle %d" % result.circle_size)
    if result.trustworthy_size is not None:
        parts.append("trustworthy %d" % result.trustworthy_size)
    return "  ".join(parts)


def cmd_simulate(args) -> int:
    scenario = read_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    rules = read_rules(args.rules)
    graph = build_scenario_graph(scenario, rules)
    result = run_simulation(graph, scenario)
    # The rounds set the command's peak memory; freeing the graph first
    # lets the writers run below it.
    del graph
    rounds_path = _out_path(args, "rounds.csv")
    write_round_reports(rounds_path, result.reports)
    write_cdf(_out_path(args, "cdf_r_mr.csv"), [r.r_mr for r in result.reports])
    if scenario.draw_mode is DrawMode.CIRCUIT:
        write_cdf(_out_path(args, "cdf_r_mc.csv"), [r.r_mc for r in result.reports])
    _say(args, "%s  (wrote %s)" % (_summary(result), rounds_path))
    return 0


def cmd_sweep(args) -> int:
    scenario = read_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    rules = read_rules(args.rules)
    tokens = [tok.strip() for tok in args.values.split(",") if tok.strip()]
    if not tokens:
        raise ParseError("no sweep values given")
    try:
        values = [float(tok) for tok in tokens]
    except ValueError:
        raise ParseError("sweep values must be numbers: %r" % args.values) from None
    result = sweep(scenario, args.axis, values, rules)
    for token, point in zip(tokens, result.results):
        write_round_reports(
            _out_path(args, "rounds_%s_%s.csv" % (args.axis, token)), point.reports
        )
    summary_path = _out_path(args, "sweep.csv")
    write_sweep_rows(summary_path, result.rows)
    for token, row in zip(tokens, result.rows):
        r_mc = "" if row.mean_r_mc is None else "  R_MC %.4f" % row.mean_r_mc
        _say(
            args,
            "%s=%s: R_MR %.4f%s  bandwidth %.1f  circle %.1f  trustworthy %.1f"
            % (
                args.axis,
                token,
                row.mean_r_mr,
                r_mc,
                row.mean_bandwidth,
                row.mean_circle_size,
                row.mean_trustworthy_size,
            ),
        )
    _say(args, "wrote %s" % summary_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oniontrust",
        description="Social-trust scoring and trust-aware router selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a graph file")
    p.add_argument("--n", type=int, required=True, help="number of entities")
    p.add_argument(
        "--generator",
        default="calibrated:0.8",
        help="calibrated:<circle fraction> or er:<edge probability>",
    )
    p.add_argument("--bandwidth-max", type=float, default=DEFAULT_BANDWIDTH_MAX)
    p.add_argument("--max-hops", type=int, default=DEFAULT_MAX_HOPS)
    p.add_argument("--seed", type=int, default=0, help="generation seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("trust", help="score a graph's links and propagate trust")
    p.add_argument("graph", help="graph file")
    p.add_argument("--rules", help="rule-set file (default: bundled rules)")
    p.add_argument("--max-hops", type=int, default=DEFAULT_MAX_HOPS)
    p.set_defaults(func=cmd_trust)

    p = sub.add_parser("simulate", help="run one adversary scenario")
    p.add_argument("scenario", help="scenario file")
    p.add_argument("--rules", help="rule-set file (default: bundled rules)")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a scenario across axis values")
    p.add_argument("scenario", help="scenario file")
    p.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    p.add_argument("--values", required=True, help="comma separated axis values")
    p.add_argument("--rules", help="rule-set file (default: bundled rules)")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.set_defaults(func=cmd_sweep)

    for sp in sub.choices.values():
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--quiet", action="store_true", help="suppress summaries")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OnionTrustError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
