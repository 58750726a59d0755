"""Self-test of the output checks: each must reject a corrupted real output.

    python3 perfbench/selftest.py

Run from the repository root. It makes real outputs with the CLI (smaller
than the benchmark's where the checks allow), confirms the checks accept
them, then corrupts one copy per case and confirms the check rejects it
with the expected message. Exits 0 when every case behaves.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run
import workloads
from oracles import Links

SEED = 5


def _cli(workload, workdir, env):
    outdir = os.path.join(workdir, "out")
    done = subprocess.run(
        [sys.executable, "-m", "oniontrust.cli", *workload.cli_args(workdir, outdir)],
        env=env, capture_output=True, text=True, check=True,
    )
    return outdir, done.stdout


def _settled_graph(workload, workdir, env):
    dump = os.path.join(workdir, "graph.npz")
    subprocess.run(
        [sys.executable, os.path.join(run.HERE, "setup_probe.py"), *workload.setup_args(workdir),
         "1", "0", os.path.join(workdir, "setup.json"), dump],
        env=env, check=True,
    )
    return workload.settle(workdir, SEED, None, Links.load(dump))


def _edit(path, change):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    rows = change(rows)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join([header] + [",".join(r) for r in rows]) + "\n")


def _set(row_index, column, value_of):
    def change(rows):
        rows[row_index][column] = value_of(rows[row_index])
        return rows
    return change


def _first_round_with_picks(rows):
    return next(k for k, r in enumerate(rows) if float(r[1]) > 0.0)


class Cases:
    def __init__(self, root):
        self.root = root
        self.env = run.child_env(root)
        self.base = os.path.join(root, run.WORK_DIR, "selftest")
        shutil.rmtree(self.base, ignore_errors=True)
        self.results = []

    def workdir(self, name):
        path = os.path.join(self.base, name)
        os.makedirs(path)
        return path

    def expect(self, label, failures, fragment):
        ok = (not failures) if fragment is None else any(fragment in f for f in failures)
        self.results.append(ok)
        print("%s %s%s" % ("PASS" if ok else "FAIL", label,
                           "" if ok else ": got %r" % (failures,)))

    def corrupt(self, label, outdir, name, change, check, fragment):
        copy = outdir + "-" + label.replace(" ", "-")
        shutil.copytree(outdir, copy)
        _edit(os.path.join(copy, name), change)
        self.expect("rejects " + label, check(copy), fragment)

    def benchmark_json(self):
        with open(os.path.join(self.root, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        listed = (
            sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
            and {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
            and {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
        )
        self.expect("BENCHMARK.json lists the workloads and metrics run.py reports",
                    [] if listed else ["mismatch"], None)

    def trust_multinet(self):
        workload = dataclasses.replace(workloads.WORKLOADS["trust-multinet"], n=200)
        workdir = self.workdir("trust-multinet")
        links = workload.prepare(workdir, SEED)
        outdir, stdout = _cli(workload, workdir, self.env)

        def check(d):
            return workload.check(d, stdout, SEED, links)

        self.expect("trust-multinet accepts real output", check(outdir), None)
        self.corrupt("a changed score", outdir, "trust_scores.csv",
                     _set(10, 2, lambda r: repr(float(r[2]) * 0.5)), check, "scores differ")
        self.corrupt("a changed hop count", outdir, "trust_scores.csv",
                     _set(10, 3, lambda r: "2" if r[3] == "1" else "1"), check, "hop counts differ")
        self.corrupt("a dropped row", outdir, "trust_scores.csv",
                     lambda rows: rows[:10] + rows[11:], check, "trust_scores.csv has")
        self.corrupt("a changed link trust value", outdir, "link_trust.csv",
                     _set(3, 3, lambda r: repr(float(r[3]) + 1e-6)), check, "fuzzy oracle")

    def simulate_circuit(self):
        # Full size: the R_MR margin needs the workload's 1000 rounds.
        workload = workloads.WORKLOADS["simulate-circuit"]
        workdir = self.workdir("simulate-circuit")
        workload.prepare(workdir, SEED)
        links = _settled_graph(workload, workdir, self.env)
        outdir, stdout = _cli(workload, workdir, self.env)

        def check(d):
            return workload.check(d, stdout, SEED, links)

        self.expect("simulate-circuit accepts real output", check(outdir), None)

        draws = workload.settings["draws"]
        length = workload.settings["circuit_length"]

        def r_mc_below_r_mr(rows):
            k = _first_round_with_picks(rows)
            picks = round(float(rows[k][1]) * draws * length)
            # Still a whole number of circuits, but fewer than picks / length.
            rows[k][2] = repr(max(0, picks // length - 1) / draws)
            return rows

        self.corrupt("a round with r_mc < r_mr", outdir, "rounds.csv",
                     r_mc_below_r_mr, check, "r_mr <= r_mc")

    def sweep_threshold(self):
        base = workloads.WORKLOADS["sweep-threshold"]
        workload = dataclasses.replace(
            base, settings=dict(base.settings, n=300, rounds=50, draws=200)
        )
        workdir = self.workdir("sweep-threshold")
        workload.prepare(workdir, SEED)
        links = _settled_graph(workload, workdir, self.env)
        outdir, stdout = _cli(workload, workdir, self.env)

        def check(d):
            return workload.check(d, stdout, SEED, links)

        self.expect("sweep-threshold accepts real output", check(outdir), None)
        self.corrupt("a wrong trustworthy size", outdir, "sweep.csv",
                     _set(2, 6, lambda r: repr(float(r[6]) - 1.0 / 300)), check,
                     "mean_trustworthy_size")


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "oniontrust", "__init__.py")):
        print("selftest: run from the repository root", file=sys.stderr)
        return 2
    cases = Cases(root)
    cases.benchmark_json()
    cases.trust_multinet()
    cases.simulate_circuit()
    cases.sweep_threshold()
    print("%d/%d self-test cases passed" % (sum(cases.results), len(cases.results)))
    return 0 if all(cases.results) else 1


if __name__ == "__main__":
    sys.exit(main())
