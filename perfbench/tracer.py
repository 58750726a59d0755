"""Traced run: the oniontrust CLI in this process, with a span per layer call.

    python3 perfbench/tracer.py SPANS_JSON -- <oniontrust CLI arguments>

Timing wrappers go on the module-level names that callers look up: every
module of the package that holds a hooked function under some name gets the
wrapper under that name, so `oniontrust.cli.propagate_all` and
`oniontrust.simulation.propagate_all` are both covered. A span's self time
is its duration minus the time its child spans (and their bookkeeping)
cover. Spans stay in memory and are written as per-name totals at the end.
A hooked name the package no longer has is listed as missing; the run goes
on without it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from importlib import resources

#: span name -> (module, attribute); an attribute "Class.method" hooks a method.
HOOKS = {
    "cli.main": ("oniontrust.cli", "main"),
    "fileio.read_graph": ("oniontrust.fileio", "read_graph"),
    "fileio.read_rules": ("oniontrust.fileio", "read_rules"),
    "fileio.read_scenario": ("oniontrust.fileio", "read_scenario"),
    "fileio.write_graph": ("oniontrust.fileio", "write_graph"),
    "fileio.write_link_trust": ("oniontrust.fileio", "write_link_trust"),
    "fileio.write_trust_scores": ("oniontrust.fileio", "write_trust_scores"),
    "fileio.write_round_reports": ("oniontrust.fileio", "write_round_reports"),
    "fileio.write_cdf": ("oniontrust.fileio", "write_cdf"),
    "fileio.write_sweep_rows": ("oniontrust.fileio", "write_sweep_rows"),
    "graph.generate": ("oniontrust.graph", "generate_graph"),
    "graph.calibrate": ("oniontrust.graph", "_mean_circle_size"),
    "graph.mean_circle_size": ("oniontrust.graph", "mean_circle_size"),
    "graph.friendship_circle": ("oniontrust.graph", "SocialGraph.friendship_circle"),
    "fuzzy.compute_trust_values": ("oniontrust.fuzzy", "compute_trust_values"),
    "propagation.propagate_all": ("oniontrust.propagation", "propagate_all"),
    "propagation.propagate": ("oniontrust.propagation", "propagate"),
    "selection.build_candidates": ("oniontrust.selection", "build_candidates"),
    "simulation.run_circuit_rounds": ("oniontrust.simulation", "run_circuit_rounds"),
    "simulation.run_selection_rounds": ("oniontrust.simulation", "run_selection_rounds"),
    "simulation.mean_trust": ("oniontrust.simulation", "mean_trust_scores"),
    "simulation.sweep": ("oniontrust.simulation", "sweep"),
}


def _path_bytes(path):
    if path is None:  # read_rules() with no path reads the bundled rules
        return len(resources.files("oniontrust").joinpath("data/default_rules.txt").read_bytes())
    return os.path.getsize(path)


def _count_read(counters, args, kwargs, result):
    counters["fileio.read_bytes"] += _path_bytes(args[0] if args else kwargs.get("path"))


def _count_write(counters, args, kwargs, result):
    counters["fileio.write_bytes"] += os.path.getsize(args[0])


def _count_graph(counters, args, kwargs, result):
    graph = args[0]
    counters["graph.entities"] = len(graph)
    counters["graph.links"] = len(graph.links())
    counters["fuzzy.links_scored"] += counters["graph.links"]


def _count_scores(counters, args, kwargs, result):
    counters["propagation.scores"] += sum(len(t.scores) for t in result.values())


def _count_candidates(counters, args, kwargs, result):
    counters["selection.candidates"] += result.size


def _count_steps(counters, args, kwargs, result):
    counters["graph.calibration_steps"] += 1


def _count_draws(per_draw):
    def count(counters, args, kwargs, result):
        scenario = args[1]
        length = scenario.circuit_length if per_draw == "circuit" else 1
        counters["simulation.draws"] += scenario.rounds * scenario.draws * length
    return count


COUNTERS = {
    "fileio.read_graph": _count_read,
    "fileio.read_rules": _count_read,
    "fileio.read_scenario": _count_read,
    "fileio.write_graph": _count_write,
    "fileio.write_link_trust": _count_write,
    "fileio.write_trust_scores": _count_write,
    "fileio.write_round_reports": _count_write,
    "fileio.write_cdf": _count_write,
    "fileio.write_sweep_rows": _count_write,
    "graph.calibrate": _count_steps,
    "fuzzy.compute_trust_values": _count_graph,
    "propagation.propagate_all": _count_scores,
    "selection.build_candidates": _count_candidates,
    "simulation.run_circuit_rounds": _count_draws("circuit"),
    "simulation.run_selection_rounds": _count_draws("select"),
}


class Tracer:
    """Per-name span totals, self times and counters for one process."""

    def __init__(self):
        self.stack = [0.0]  # child time covered inside each open span
        self.self_s = {}
        self.total_s = {}
        self.calls = {}
        self.counters = {
            "fileio.read_bytes": 0,
            "fileio.write_bytes": 0,
            "graph.entities": 0,
            "graph.links": 0,
            "graph.calibration_steps": 0,
            "fuzzy.links_scored": 0,
            "propagation.scores": 0,
            "selection.candidates": 0,
            "simulation.draws": 0,
        }
        self.missing = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            self.stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = self.stack.pop()
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
                self.total_s[name] = self.total_s.get(name, 0.0) + duration
                self.calls[name] = self.calls.get(name, 0) + 1
            if count is not None:
                count(self.counters, args, kwargs, result)
            self.stack[-1] += time.perf_counter() - entered
            return result

        return traced

    def install(self):
        for module_name, _ in HOOKS.values():
            importlib.import_module(module_name)
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "oniontrust" or key.startswith("oniontrust."))
        ]
        for name, (module_name, attribute) in HOOKS.items():
            owner = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(owner, class_name, None)
                original = getattr(cls, method, None) if cls is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                setattr(cls, method, self.wrap(name, original))
                continue
            original = getattr(owner, attribute, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def summary(self):
        return {
            "self_s": self.self_s,
            "total_s": self.total_s,
            "calls": self.calls,
            "counters": self.counters,
            "missing": self.missing,
        }


def main(argv):
    spans_path, separator, cli_args = argv[0], argv[1], argv[2:]
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- <cli arguments>")
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("oniontrust.cli")
    code = cli.main(cli_args)
    summary = tracer.summary()
    summary["exit"] = code
    with open(spans_path, "w", encoding="utf-8") as out:
        json.dump(summary, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
