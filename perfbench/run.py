"""oniontrust benchmark: one CLI workload per call, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it imports the program from ./src and writes
only under ./.perfbench_out. Workloads: see workloads.py. `--workload all`
runs each in turn and ends with a summary line per workload.

--trace 0 times the CLI command in fresh child processes, one at a time,
for about S seconds (at least two runs), and the workload's set-up in its
own child (at least two builds, for about a quarter of S). It reports the
medians of wall_s, peak_rss_mb and setup_s.

--trace 1 runs the command once untraced and once under tracer.py, checks
that both wrote the same bytes, and reports the per-layer metrics.

Either way the outputs of the first run are checked against the oracles,
and later runs must write the same bytes. The last line of stdout is the
JSON result; the line before it holds the environment and the raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import workloads
from oracles import Links

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_out"
MIN_REPS = 2
SETUP_SHARE = 0.25
CHILD_TIMEOUT_S = 160.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.main_s": "s",
    "cli.self_s": "s",
    "fileio.read_s": "s",
    "fileio.read_bytes": "bytes",
    "fileio.write_s": "s",
    "fileio.write_bytes": "bytes",
    "graph.generate_s": "s",
    "graph.calibrate_s": "s",
    "graph.calibration_steps": "count",
    "graph.mean_circle_size_s": "s",
    "graph.friendship_circle_s": "s",
    "graph.entities": "count",
    "graph.links": "count",
    "fuzzy.compute_trust_values_s": "s",
    "fuzzy.links_per_s": "1/s",
    "propagation.propagate_all_s": "s",
    "propagation.scores": "count",
    "propagation.scores_per_s": "1/s",
    "propagation.propagate_s": "s",
    "selection.build_candidates_s": "s",
    "selection.candidates": "count",
    "simulation.rounds_s": "s",
    "simulation.draws": "count",
    "simulation.draws_per_s": "1/s",
    "simulation.mean_trust_s": "s",
    "simulation.sweep_self_s": "s",
}


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(args, env, log_prefix) -> Child:
    """Run one child to its end; wall time from spawn to exit, and its own
    peak RSS (the per-child figure behind RUSAGE_CHILDREN)."""
    with open(log_prefix + ".out", "w+", encoding="utf-8") as out, \
            open(log_prefix + ".err", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, out.read(), err.read())


def digest(outdir):
    """sha256 of every output file, by name."""
    sums = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as handle:
            sums[name] = hashlib.sha256(handle.read()).hexdigest()
    return sums


def cpu_count():
    return len(os.sched_getaffinity(0))


def child_env(root):
    env = dict(os.environ)
    paths = [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Closed loop on this machine's cores: BLAS may use each, never more.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cpu_count())
    return env


def environment(root, env):
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):  # a plain export has no commit
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def layer_metrics(spans):
    """Per-layer metrics from a tracer.py summary; absent spans read 0."""
    self_s, counters = spans["self_s"], spans["counters"]

    def busy(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    def rate(count, seconds):
        return count / seconds if seconds > 0.0 else 0.0

    compute_s = busy("fuzzy.compute_trust_values")
    propagate_all_s = busy("propagation.propagate_all")
    rounds_s = busy("simulation.run_circuit_rounds", "simulation.run_selection_rounds")
    values = {
        "cli.main_s": spans["total_s"].get("cli.main", 0.0),
        "cli.self_s": busy("cli.main"),
        "fileio.read_s": busy("fileio.read_graph", "fileio.read_rules", "fileio.read_scenario"),
        "fileio.read_bytes": counters["fileio.read_bytes"],
        "fileio.write_s": busy(*[n for n in self_s if n.startswith("fileio.write_")]),
        "fileio.write_bytes": counters["fileio.write_bytes"],
        "graph.generate_s": busy("graph.generate"),
        "graph.calibrate_s": busy("graph.calibrate"),
        "graph.calibration_steps": counters["graph.calibration_steps"],
        "graph.mean_circle_size_s": busy("graph.mean_circle_size"),
        "graph.friendship_circle_s": busy("graph.friendship_circle"),
        "graph.entities": counters["graph.entities"],
        "graph.links": counters["graph.links"],
        "fuzzy.compute_trust_values_s": compute_s,
        "fuzzy.links_per_s": rate(counters["fuzzy.links_scored"], compute_s),
        "propagation.propagate_all_s": propagate_all_s,
        "propagation.scores": counters["propagation.scores"],
        "propagation.scores_per_s": rate(counters["propagation.scores"], propagate_all_s),
        "propagation.propagate_s": busy("propagation.propagate"),
        "selection.build_candidates_s": busy("selection.build_candidates"),
        "selection.candidates": counters["selection.candidates"],
        "simulation.rounds_s": rounds_s,
        "simulation.draws": counters["simulation.draws"],
        "simulation.draws_per_s": rate(counters["simulation.draws"], rounds_s),
        "simulation.mean_trust_s": busy("simulation.mean_trust"),
        "simulation.sweep_self_s": busy("simulation.sweep"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


class Run:
    """State of one benchmark invocation."""

    def __init__(self, args, name, root):
        self.args = args
        self.workload = workloads.WORKLOADS[name]
        self.workdir = os.path.join(root, WORK_DIR, "%s-seed%d-trace%d" % (name, args.seed, args.trace))
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.env = child_env(root)
        self.attempted = 0
        self.failed = 0
        self.failures = []  # checks that rejected an output
        self.errors = []  # operations that failed
        self.details = {"environment": environment(root, self.env)}

    def python(self, script, *args):
        return [sys.executable, os.path.join(HERE, script), *args]

    def setup(self, min_reps, budget):
        """Set-up times and the dumped graph, from one untraced child."""
        times_path = os.path.join(self.workdir, "setup.json")
        dump = os.path.join(self.workdir, "graph.npz")
        child = run_child(
            self.python("setup_probe.py", *self.workload.setup_args(self.workdir),
                        str(min_reps), str(budget), times_path, dump),
            self.env, os.path.join(self.workdir, "setup"),
        )
        if child.code != 0:
            self.attempted += 1
            self.failed += 1
            self.errors.append("set-up failed: %s" % child.stderr.strip()[-500:])
            return None, None
        with open(times_path, encoding="utf-8") as handle:
            times = json.load(handle)["times"]
        self.attempted += len(times)
        return times, Links.load(dump)

    def cli(self, tag, traced=False):
        """One CLI run into its own output directory."""
        outdir = os.path.join(self.workdir, "out-" + tag)
        cli_args = self.workload.cli_args(self.workdir, outdir)
        if traced:
            args = self.python("tracer.py", os.path.join(self.workdir, "spans.json"), "--", *cli_args)
        else:
            args = [sys.executable, "-m", "oniontrust.cli", *cli_args]
        child = run_child(args, self.env, os.path.join(self.workdir, "cli-" + tag))
        self.attempted += 1
        if child.code != 0:
            self.failed += 1
            self.errors.append("%s run %s exited %d: %s" % (
                self.workload.command, tag, child.code, child.stderr.strip()[-500:]))
        return child, outdir

    def same_bytes(self, reference, outdir, what):
        if digest(outdir) != reference:
            self.failures.append("%s wrote different bytes from the first run" % what)

    def discard_outputs(self):
        """Drop inputs and outputs of a run whose checks passed; keep the logs."""
        for name in os.listdir(self.workdir):
            path = os.path.join(self.workdir, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif not name.endswith((".json", ".out", ".err")):
                os.remove(path)

    def prepare(self, min_reps, budget):
        """Inputs, then set-up; returns the set-up times and the graph the
        checks use, or (None, None) when set-up failed."""
        inputs = self.workload.prepare(self.workdir, self.args.seed)
        times, dumped = self.setup(min_reps, budget)
        if times is None:
            return None, None
        return times, self.workload.settle(self.workdir, self.args.seed, inputs, dumped)

    def timed(self):
        seconds = self.args.seconds
        times, links = self.prepare(MIN_REPS, SETUP_SHARE * seconds)
        if times is None:
            return None
        runs = []
        start = time.perf_counter()
        # Start another run while it would end nearer to `seconds` than the
        # runs so far do, so the count is `seconds` / run time, rounded.
        while len(runs) < MIN_REPS or (
            time.perf_counter() - start + statistics.mean(c.wall_s for c, _ in runs) / 2 < seconds
        ):
            runs.append(self.cli(str(len(runs))))
        good = [(child, outdir) for child, outdir in runs if child.code == 0]
        if not good:
            return None
        first, first_dir = good[0]
        reference = digest(first_dir)
        for child, outdir in good[1:]:
            self.same_bytes(reference, outdir, "run " + os.path.basename(outdir))
            shutil.rmtree(outdir)
        self.failures += self.workload.check(first_dir, first.stdout, self.args.seed, links)
        self.details.update(
            wall_s=[c.wall_s for c, _ in runs],
            peak_rss_mb=[c.peak_rss_mb for c, _ in runs],
            setup_s=times,
        )
        values = {
            "wall_s": statistics.median(c.wall_s for c, _ in good),
            "setup_s": statistics.median(times),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c, _ in good),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    def traced(self):
        times, links = self.prepare(1, 0.0)
        if times is None:
            return None
        plain, plain_dir = self.cli("plain")
        traced, traced_dir = self.cli("traced", traced=True)
        if plain.code != 0 or traced.code != 0:
            return None
        self.same_bytes(digest(plain_dir), traced_dir, "the traced run")
        self.failures += self.workload.check(plain_dir, plain.stdout, self.args.seed, links)
        with open(os.path.join(self.workdir, "spans.json"), encoding="utf-8") as handle:
            spans = json.load(handle)
        self.details.update(
            wall_s_untraced=plain.wall_s,
            wall_s_traced=traced.wall_s,
            tracing_overhead_s=traced.wall_s - plain.wall_s,
            missing_hooks=spans["missing"],
            spans=spans,
        )
        return layer_metrics(spans)


def bench(args, name, root):
    """Run one workload; print its details line and result line.

    Returns the result, or None when nothing could be measured."""
    run = Run(args, name, root)
    metrics = run.traced() if args.trace else run.timed()
    run.details.update(workload=name, seed=args.seed,
                       check_failures=run.failures, errors=run.errors)
    with open(os.path.join(run.workdir, "result.json"), "w", encoding="utf-8") as out:
        json.dump(run.details, out, indent=1)
    if not run.failures:
        run.discard_outputs()
    if metrics is None:
        print("perfbench: %s: no successful run to measure: %s" % (name, "; ".join(run.errors)),
              file=sys.stderr)
        return None
    for failure in run.failures:
        print("perfbench: CHECK FAILED: %s" % failure)
    print("perfbench: %s" % json.dumps({k: v for k, v in run.details.items() if k != "spans"}))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "oniontrust", "__init__.py")):
        print("perfbench: no oniontrust sources under %s; run from the repository root"
              % os.path.join(root, "src"), file=sys.stderr)
        return 2
    if args.workload != "all":
        return 0 if bench(args, args.workload, root) is not None else 1

    results = {name: bench(args, name, root) for name in workloads.WORKLOADS}
    for name, result in results.items():
        if result is None:
            print("%s: no successful run" % name)
            continue
        print("%s: %s; attempted %d, failed %d, correct %s" % (
            name,
            ", ".join("%s %.4g %s" % (m, v["value"], v["unit"]) for m, v in result["metrics"].items()),
            result["attempted"], result["failed"], str(result["correct"]).lower()))
    return 0 if None not in results.values() else 1


if __name__ == "__main__":
    sys.exit(main())
