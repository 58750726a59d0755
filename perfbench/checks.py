"""Output checks: each returns a list of failure messages, empty when the
outputs agree with the oracles or hold the properties the method must have.

None of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from oracles import FUZZY_TOLERANCE, Links, TwoHop, fuzzy_trust, two_hop

#: Sources the program's documented circle-size estimate averages over.
CIRCLE_SAMPLE = 300


def _rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, list(reader)


def _table(path, columns):
    """Numeric columns of a CSV as a 2-D float array, in file order."""
    header, rows = _rows(path)
    index = [header.index(c) for c in columns]
    return np.array([[float(r[k]) for k in index] for r in rows]).reshape(-1, len(columns))


def link_values(links: Links, expected_trust=None):
    """Failures where a link's trust value differs from the fuzzy oracle."""
    oracle = fuzzy_trust(links)
    got = links.trust if expected_trust is None else expected_trust
    bad = np.nonzero(~(np.abs(got - oracle) <= FUZZY_TOLERANCE))[0]
    if bad.size:
        k = bad[0]
        return ["%d link trust values differ from the fuzzy oracle by more than %g; "
                "first: %d->%d network %d has %r, oracle %r"
                % (bad.size, FUZZY_TOLERANCE, links.src[k], links.tgt[k], links.net[k],
                   float(got[k]), float(oracle[k]))]
    return []


def link_trust_csv(path, links: Links):
    """link_trust.csv lists exactly the input links, each scored as the oracle says.

    Returns (failures, trust values in input order or None).
    """
    table = _table(path, ("source", "target", "network", "trust_value"))
    order = np.lexsort((links.net, links.tgt, links.src))
    keys = np.stack([links.src[order], links.tgt[order], links.net[order]], axis=1)
    if table.shape[0] != len(keys) or not np.array_equal(table[:, :3], keys):
        return ["link_trust.csv has %d rows that do not match the %d input links in order"
                % (table.shape[0], len(keys))], None
    trust = np.empty(len(keys))
    trust[order] = table[:, 3]
    return link_values(links, trust), trust


def trust_scores_csv(path, oracle: TwoHop):
    """trust_scores.csv equals the propagation oracle: targets, scores and hops."""
    table = _table(path, ("source", "target", "ts", "hops"))
    row = {int(eid): k for k, eid in enumerate(oracle.ids)}
    try:
        s = np.array([row[int(x)] for x in table[:, 0]], dtype=int)
        t = np.array([row[int(x)] for x in table[:, 1]], dtype=int)
    except KeyError as exc:
        return ["trust_scores.csv names unknown entity %s" % exc]
    failures = []
    expected = int(oracle.reach.sum())
    pairs = s * len(row) + t
    if len(np.unique(pairs)) != len(pairs):
        failures.append("trust_scores.csv repeats a (source, target) pair")
    if len(pairs) != expected or not oracle.reach[s, t].all():
        failures.append("trust_scores.csv has %d scores; the oracle reaches %d targets "
                        "and %d listed targets are unreachable"
                        % (len(pairs), expected, int((~oracle.reach[s, t]).sum())))
        return failures
    wrong = np.nonzero(oracle.score[s, t] != table[:, 2])[0]
    if wrong.size:
        k = wrong[0]
        failures.append("%d scores differ from the oracle; first %d->%d has %r, oracle %r"
                        % (wrong.size, table[k, 0], table[k, 1], table[k, 2],
                           float(oracle.score[s[k], t[k]])))
    wrong = np.nonzero(oracle.hops[s, t] != table[:, 3])[0]
    if wrong.size:
        k = wrong[0]
        failures.append("%d hop counts differ from the oracle; first %d->%d has %d, oracle %d"
                        % (wrong.size, table[k, 0], table[k, 1], table[k, 3],
                           oracle.hops[s[k], t[k]]))
    return failures


def rounds_csv(path, rounds, draws, circuit_length, bandwidth_max):
    """Per-round invariants of a rounds file. Returns (failures, r_mr, r_mc)."""
    header, rows = _rows(path)
    records = [dict(zip(header, r)) for r in rows]
    failures = []
    if len(records) != rounds:
        failures.append("%s has %d rows, expected %d" % (os.path.basename(path), len(records), rounds))
    r_mr = np.array([float(r["r_mr"]) for r in records])
    circuit = circuit_length is not None
    r_mc = np.array([float(r["r_mc"]) for r in records]) if circuit else None
    for k, rec in enumerate(records):
        where = "%s round %s" % (os.path.basename(path), rec["round"])
        if int(rec["round"]) != k or int(rec["draws"]) != draws:
            failures.append("%s: bad round index or draw count" % where)
        mr = r_mr[k]
        picks = mr * draws * (circuit_length if circuit else 1)
        if not 0.0 <= mr <= 1.0 or abs(picks - round(picks)) > 1e-6:
            failures.append("%s: r_mr %r is not a share of the picks" % (where, mr))
        if circuit:
            mc = r_mc[k]
            if not (mr <= mc <= min(1.0, circuit_length * mr)):
                failures.append("%s: need r_mr <= r_mc <= min(1, %d r_mr), got %r, %r"
                                % (where, circuit_length, mr, mc))
            if abs(mc * draws - round(mc * draws)) > 1e-6:
                failures.append("%s: r_mc %r is not a share of the circuits" % (where, mc))
        elif rec["r_mc"] != "":
            failures.append("%s: select mode wrote r_mc" % where)
        bandwidth = float(rec["avg_bandwidth"])
        if not 0.0 < bandwidth <= bandwidth_max:
            failures.append("%s: avg_bandwidth %r outside (0, %r]" % (where, bandwidth, bandwidth_max))
    return failures, r_mr, r_mc


def cdf_csv(path, values):
    """A CDF file lists each distinct value with the share of samples <= it."""
    ordered = np.sort(np.asarray(values))
    distinct = np.unique(ordered)
    share = np.searchsorted(ordered, distinct, side="right") / len(ordered)
    table = _table(path, ("value", "cumulative_fraction"))
    if table.shape[0] != len(distinct) or not (
        np.array_equal(table[:, 0], distinct) and np.array_equal(table[:, 1], share)
    ):
        return ["%s differs from the CDF of rounds.csv" % os.path.basename(path)]
    return []


def summary_field(stdout, name):
    """Integer printed after `name` in the CLI's one-line summary, or None."""
    tokens = stdout.split()
    for k, token in enumerate(tokens[:-1]):
        if token == name:
            try:
                return int(tokens[k + 1])
            except ValueError:
                return None
    return None


def simulate_circuit(outdir, stdout, scenario, links: Links):
    """Checks of one `oniontrust simulate` run in circuit mode."""
    failures = link_values(links)
    round_failures, r_mr, r_mc = rounds_csv(
        os.path.join(outdir, "rounds.csv"), scenario["rounds"], scenario["draws"],
        scenario["circuit_length"], scenario["bandwidth_max"],
    )
    failures += round_failures
    failures += cdf_csv(os.path.join(outdir, "cdf_r_mr.csv"), r_mr)
    failures += cdf_csv(os.path.join(outdir, "cdf_r_mc.csv"), r_mc)

    oracle = two_hop(links.ids, links.src, links.tgt, links.trust)
    source = list(links.ids).index(scenario["source"])
    circle = int(oracle.circle_sizes()[source])
    trustworthy = int(oracle.trustworthy_sizes(scenario["ts_h"])[source])
    if summary_field(stdout, "circle") != circle:
        failures.append("reported circle %r, oracle %d" % (summary_field(stdout, "circle"), circle))
    if summary_field(stdout, "trustworthy") != trustworthy:
        failures.append("reported trustworthy %r, oracle %d"
                        % (summary_field(stdout, "trustworthy"), trustworthy))
    # Trust-aware selection steers away from the routers the adversary
    # prefers, so the malicious share of picks stays below its share of
    # routers by a margin the rounds resolve.
    if len(r_mr) > 1:
        stderr = float(np.std(r_mr, ddof=1)) / math.sqrt(len(r_mr))
        if not float(np.mean(r_mr)) < scenario["fraction"] - 4.0 * stderr:
            failures.append("mean R_MR %.5f is not 4 standard errors (%.5f) below %g"
                            % (float(np.mean(r_mr)), stderr, scenario["fraction"]))
    return failures


def sweep_threshold(outdir, scenario, values, links: Links):
    """Checks of one `oniontrust sweep --axis ts_h` run."""
    failures = link_values(links)
    oracle = two_hop(links.ids, links.src, links.tgt, links.trust)
    circles = oracle.circle_sizes()
    n = len(links.ids)
    sample = [int(k) for k in np.linspace(0, n - 1, CIRCLE_SAMPLE)] if n > CIRCLE_SAMPLE else range(n)
    estimate = float(np.mean(circles[list(sample)]))

    _, rows = _rows(os.path.join(outdir, "sweep.csv"))
    if len(rows) != len(values):
        return failures + ["sweep.csv has %d rows, expected %d" % (len(rows), len(values))]
    previous = math.inf
    for token, row in zip(values, rows):
        value, mean_r_mr, circle, trustworthy = (float(row[k]) for k in (1, 2, 5, 6))
        where = "sweep.csv ts_h=%s" % token
        if row[0] != "ts_h" or value != float(token):
            failures.append("%s: row names axis %r value %r" % (where, row[0], row[1]))
        expected = float(np.mean(oracle.trustworthy_sizes(float(token))))
        if abs(trustworthy - expected) > 1e-9:
            failures.append("%s: mean_trustworthy_size %r, oracle %r" % (where, trustworthy, expected))
        if float(token) == 0.0 and abs(trustworthy - float(np.mean(circles))) > 1e-9:
            failures.append("%s: trustworthy size %r is not the mean circle size %r"
                            % (where, trustworthy, float(np.mean(circles))))
        if abs(circle - estimate) > 1e-9:
            failures.append("%s: mean_circle_size %r, %d-source estimate %r"
                            % (where, circle, CIRCLE_SAMPLE, estimate))
        if trustworthy > previous:
            failures.append("%s: trustworthy size grew with the threshold" % where)
        previous = trustworthy
        path = os.path.join(outdir, "rounds_ts_h_%s.csv" % token)
        round_failures, r_mr, _ = rounds_csv(
            path, scenario["rounds"], scenario["draws"], None, scenario["bandwidth_max"]
        )
        failures += round_failures
        if len(r_mr) and abs(mean_r_mr - float(np.mean(r_mr))) > 1e-12:
            failures.append("%s: mean_r_mr %r, rounds file mean %r"
                            % (where, mean_r_mr, float(np.mean(r_mr))))
    return failures


def trust_multinet(outdir, links: Links):
    """Checks of one `oniontrust trust` run on the multi-network graph."""
    failures, trust = link_trust_csv(os.path.join(outdir, "link_trust.csv"), links)
    if trust is None:
        return failures
    oracle = two_hop(links.ids, links.src, links.tgt, trust)
    return failures + trust_scores_csv(os.path.join(outdir, "trust_scores.csv"), oracle)
