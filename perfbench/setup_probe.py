"""Set-up timing: how long it takes to hold a workload's frozen, scored graph.

    python3 perfbench/setup_probe.py scenario SCENARIO_FILE MIN_REPS BUDGET_S OUT_JSON DUMP_NPZ
    python3 perfbench/setup_probe.py graph GRAPH_FILE MIN_REPS BUDGET_S OUT_JSON DUMP_NPZ

Runs without tracing and times public calls only; importing the package is
not part of set-up. It builds the graph at least MIN_REPS times and keeps
going while the timed total is under BUDGET_S, then writes the per-rep
times. The first graph is also dumped as flat arrays (links, profiles,
trust values) for the output checks.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
from oniontrust import (
    build_scenario_graph,
    compute_trust_values,
    read_graph,
    read_rules,
    read_scenario,
)

from oracles import Links


def _build_scenario(path):
    return build_scenario_graph(read_scenario(path), read_rules())


def _build_graph(path):
    graph = read_graph(path)
    compute_trust_values(graph, read_rules())
    graph.freeze()
    return graph


def _dump(graph, path):
    links = graph.links()
    quant_names = sorted({k for link in links for k in link.profile.quantitative})
    qual_names = sorted({k for link in links for k in link.profile.qualitative})
    Links(
        ids=np.array(graph.entity_ids()),
        src=np.array([link.source for link in links]),
        tgt=np.array([link.target for link in links]),
        net=np.array([link.network for link in links]),
        quant={k: np.array([link.profile.quantitative[k] for link in links]) for k in quant_names},
        qual={k: np.array([link.profile.qualitative[k].value for link in links]) for k in qual_names},
        trust=np.array([link.trust_value for link in links]),
    ).save(path)


def main(argv):
    kind, source, min_reps, budget, out_json, dump_path = argv
    build = {"scenario": _build_scenario, "graph": _build_graph}[kind]
    times = []
    while len(times) < int(min_reps) or sum(times) < float(budget):
        start = time.perf_counter()
        graph = build(source)
        times.append(time.perf_counter() - start)
        if len(times) == 1:
            _dump(graph, dump_path)
        del graph
    with open(out_json, "w", encoding="utf-8") as out:
        json.dump({"times": times}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
