"""Input writer for the trust-multinet workload.

Writes a graph file in the program's text format straight from a seed,
without the program's own generator or serializer, so the graph can have
shapes that generator never makes: gapped entity ids, heavy-tailed
out-degrees, popularity-skewed targets and 1 to 3 social networks per
linked pair. The returned arrays are what the oracles check against.
"""

from __future__ import annotations

import numpy as np

from oracles import Links

#: Entity count; with the degree law below the mean 2-hop circle is about a
#: third of the graph, against about 0.8 n on the calibrated ER graphs.
N_ENTITIES = 1000
#: Linked (source, target) pairs per entity. The total is fixed so that every
#: seed gives the same amount of work; only its spread over entities varies.
PAIRS_PER_ENTITY = 24
#: Lognormal shape of the out-degrees before they are scaled to that total.
DEGREE_SIGMA = 1.0
#: Target popularity is Zipf-like, (rank + POPULARITY_OFFSET) ** -POPULARITY_EXPONENT,
#: with ranks dealt out at random: the skew is fixed, who is popular varies.
POPULARITY_EXPONENT = 0.7
POPULARITY_OFFSET = 10.0
#: Shares of the linked pairs that are linked on 1, 2 and 3 networks.
NETWORKS_PER_PAIR = (0.45, 0.35, 0.20)
QUANTITATIVE = ("freq", "time")
QUALITATIVE = ("Major", "Relationship")
CLASSES = np.array(["POSITIVE", "NEUTRAL", "NEGATIVE"])


def _degrees(rng, n):
    """Heavy-tailed out-degrees in [1, n // 4] summing to PAIRS_PER_ENTITY * n."""
    total = PAIRS_PER_ENTITY * n
    raw = np.exp(rng.normal(0.0, DEGREE_SIGMA, n))
    degree = np.clip(np.floor(raw * total / raw.sum()), 1, n // 4).astype(int)
    # Rounding leaves a remainder; move it onto (or off) the largest degrees.
    while degree.sum() != total:
        room = degree < n // 4 if degree.sum() < total else degree > 1
        order = np.argsort(-raw * room, kind="stable")
        step = 1 if degree.sum() < total else -1
        degree[order[: abs(total - degree.sum())]] += step
    return degree


def make_multinet(seed: int, n: int = N_ENTITIES) -> Links:
    """Deterministic multi-network graph for a seed."""
    rng = np.random.default_rng([seed, 0x6D756C74])
    ids = np.sort(rng.choice(np.arange(1, 5 * n + 1), size=n, replace=False))
    bandwidth = rng.pareto(1.5, n) * 1e6 + 1e4
    malicious = rng.random(n) < 0.05
    popularity = rng.permutation((np.arange(n) + POPULARITY_OFFSET) ** -POPULARITY_EXPONENT)
    reputation = rng.random(n)
    degree = _degrees(rng, n)

    src, tgt = [], []
    for i in range(n):
        p = popularity.copy()
        p[i] = 0.0
        targets = rng.choice(n, size=degree[i], replace=False, p=p / p.sum())
        src.append(np.full(degree[i], i))
        tgt.append(np.sort(targets))
    src = np.concatenate(src)
    tgt = np.concatenate(tgt)

    # Expand pairs into one link per network, in fixed shares.
    shares = np.rint(np.cumsum(NETWORKS_PER_PAIR) * len(src)).astype(int)
    per_pair = rng.permutation(np.searchsorted(shares, np.arange(len(src)), side="right") + 1)
    nets = [np.sort(rng.choice(3, size=k, replace=False)) + 1 for k in per_pair]
    net = np.concatenate(nets)
    src = np.repeat(src, per_pair)
    tgt = np.repeat(tgt, per_pair)
    count = len(src)

    rep = reputation[tgt]
    quant = {
        name: rng.lognormal(0.0, 1.0, count) * (0.2 + 0.8 * rep)
        for name in QUANTITATIVE
    }
    qual = {}
    for name in QUALITATIVE:
        v = rng.random(count)
        p_pos = 0.1 + 0.6 * rep
        qual[name] = CLASSES[np.where(v < p_pos, 0, np.where(v < p_pos + 0.2, 1, 2))]
    return Links(
        ids=ids,
        src=ids[src],
        tgt=ids[tgt],
        net=net,
        quant=quant,
        qual=qual,
        bandwidth=bandwidth,
        malicious=malicious,
    )


def write_graph_text(path, links: Links) -> None:
    """Write the links in the program's graph text format."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write("entities %d\n" % len(links.ids))
        for eid, bw, bad in zip(links.ids, links.bandwidth, links.malicious):
            out.write("entity %d bandwidth=%r malicious=%d\n" % (eid, float(bw), bad))
        quant = [(name, links.quant[name]) for name in sorted(links.quant)]
        qual = [(name, links.qual[name]) for name in sorted(links.qual)]
        for k in range(len(links.src)):
            tokens = ["link %d %d network=%d" % (links.src[k], links.tgt[k], links.net[k])]
            tokens += ["q:%s=%r" % (name, float(col[k])) for name, col in quant]
            tokens += ["c:%s=%s" % (name, col[k]) for name, col in qual]
            out.write(" ".join(tokens) + "\n")
