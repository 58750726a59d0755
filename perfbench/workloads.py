"""The three workloads: their inputs, CLI command, set-up call and checks.

Each is one CLI command run closed-loop (one at a time, in one process).
Inputs come from the benchmark seed alone; the program sees only the files.

* simulate-circuit: round sampling dominates; the only circuit-mode run.
* trust-multinet: parsing, fuzzy scoring over several networks, all-sources
  propagation and CSV writing; no generation and no rounds.
* sweep-threshold: calibrated generation and all-sources propagation at
  n = 1000, then single-draw selection rounds per threshold.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

import checks
from multinet import make_multinet, write_graph_text
from oracles import Links, two_hop

BANDWIDTH_MAX = 10_000_000.0


def typical_source(links: Links) -> int:
    """The entity whose circle size is nearest the median (lowest id on ties).

    The cost of circuit rounds grows with the source's candidate count,
    which on a calibrated graph varies by seed from about 350 to 450 for
    entity 1. Picking the source this way keeps the work per seed level.
    """
    sizes = two_hop(links.ids, links.src, links.tgt, links.trust).circle_sizes()
    return int(links.ids[np.argmin(np.abs(sizes - np.median(sizes)))])


@dataclass(frozen=True)
class ScenarioWorkload:
    """A workload driven by a scenario file: `simulate` or `sweep`."""

    name: str
    command: str
    settings: Dict[str, object]
    sweep_values: Tuple[str, ...] = ()

    def scenario(self, seed: int, source: int) -> Dict[str, object]:
        values = {"ts_h": 0.0, "omega": 0.0, "source": source, "max_hops": 2,
                  "bandwidth_max": BANDWIDTH_MAX}
        values.update(self.settings)
        values["seed"] = seed
        return values

    def _write(self, workdir: str, scenario: Dict[str, object]) -> None:
        with open(os.path.join(workdir, "scenario.txt"), "w", encoding="utf-8") as out:
            for key, value in scenario.items():
                out.write("%s = %s\n" % (key, value))

    def prepare(self, workdir: str, seed: int) -> None:
        """Write the scenario for set-up; the graph does not depend on the source."""
        self._write(workdir, self.scenario(seed, 1))

    def settle(self, workdir: str, seed: int, inputs, dumped: Links) -> Links:
        """Point the scenario at a typical source of the generated graph.

        The program generates the graph; the checks use the set-up probe's
        dump of it.
        """
        self._write(workdir, self.scenario(seed, typical_source(dumped)))
        return dumped

    def cli_args(self, workdir: str, outdir: str) -> List[str]:
        args = [self.command, os.path.join(workdir, "scenario.txt"), "--out", outdir]
        if self.command == "sweep":
            args += ["--axis", "ts_h", "--values", ",".join(self.sweep_values)]
        return args

    def setup_args(self, workdir: str) -> List[str]:
        return ["scenario", os.path.join(workdir, "scenario.txt")]

    def check(self, outdir: str, stdout: str, seed: int, links: Links) -> List[str]:
        scenario = self.scenario(seed, typical_source(links))
        if self.command == "sweep":
            return checks.sweep_threshold(outdir, scenario, self.sweep_values, links)
        return checks.simulate_circuit(outdir, stdout, scenario, links)


@dataclass(frozen=True)
class MultinetWorkload:
    """`oniontrust trust` on a multi-network graph the benchmark writes."""

    name: str
    n: int = 1000

    def prepare(self, workdir: str, seed: int) -> Links:
        """Write the graph file."""
        links = make_multinet(seed, self.n)
        write_graph_text(os.path.join(workdir, "graph.txt"), links)
        return links

    def settle(self, workdir: str, seed: int, inputs: Links, dumped: Links) -> Links:
        """The checks use the graph as written, not as the program read it."""
        return inputs

    def cli_args(self, workdir: str, outdir: str) -> List[str]:
        return ["trust", os.path.join(workdir, "graph.txt"), "--out", outdir]

    def setup_args(self, workdir: str) -> List[str]:
        return ["graph", os.path.join(workdir, "graph.txt")]

    def check(self, outdir: str, stdout: str, seed: int, links: Links) -> List[str]:
        return checks.trust_multinet(outdir, links)


WORKLOADS = {
    w.name: w
    for w in (
        ScenarioWorkload(
            name="simulate-circuit",
            command="simulate",
            settings={
                "strategy": "practical_stor", "fraction": 0.2, "n": 500,
                "generator": "calibrated:0.8", "draw_mode": "circuit",
                "circuit_length": 3, "rounds": 1000, "draws": 250,
            },
        ),
        MultinetWorkload(name="trust-multinet"),
        ScenarioWorkload(
            name="sweep-threshold",
            command="sweep",
            settings={
                "strategy": "practical_stor", "fraction": 0.2, "n": 1000,
                "generator": "calibrated:0.8", "draw_mode": "select",
                "rounds": 1000, "draws": 1000,
            },
            sweep_values=("0", "0.01", "0.02", "0.035"),
        ),
    )
}
