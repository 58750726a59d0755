"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports the program. Each oracle restates the method from the
paper's model in a different form from the program's:

* fuzzy trust is the centroid of the stacked, truncated output classes,
  integrated numerically over a grid on the trust axis (the program uses
  closed-form polynomials);
* propagation is the exact best product over paths of at most two links,
  found by expanding each source's out-neighbours (the program uses dense
  (max, *) matrix products or a Dijkstra search);
* reachability is the set of targets within two links of each source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

#: Default rule set of the program's model: the output class (1 = largest ..
#: 5 = smallest) each qualitative attribute fires for a POSITIVE and for a
#: NEGATIVE judgement. NEUTRAL always fires the middle class.
POSITIVE_NEGATIVE_CLASS = {"Major": (2, 4), "Relationship": (1, 5)}
NEUTRAL_CLASS = 3
#: Aggregate weights of the quantitative attributes.
WEIGHTS = {"freq": 0.5, "time": 0.5}
#: The two outer half-triangles carry double density so every class holds
#: the same mass.
DENSITY = {1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 2.0}
#: Simpson panels on each linear piece of a truncated class.
SIMPSON_PANELS = 4
#: The grid integrals are exact up to rounding; checks allow this much.
FUZZY_TOLERANCE = 1e-9


@dataclass
class Links:
    """One graph as flat arrays: a row per directed link on one network."""

    ids: np.ndarray
    src: np.ndarray
    tgt: np.ndarray
    net: np.ndarray
    quant: Dict[str, np.ndarray]
    qual: Dict[str, np.ndarray]
    bandwidth: Optional[np.ndarray] = None  # only for writing graph files
    malicious: Optional[np.ndarray] = None
    trust: Optional[np.ndarray] = None  # the program's link trust values

    def save(self, path):
        arrays = {"ids": self.ids, "src": self.src, "tgt": self.tgt, "net": self.net}
        arrays.update({"q_" + k: v for k, v in self.quant.items()})
        arrays.update({"c_" + k: v for k, v in self.qual.items()})
        if self.trust is not None:
            arrays["trust"] = self.trust
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path) -> "Links":
        with np.load(path, allow_pickle=False) as data:
            return cls(
                ids=data["ids"],
                src=data["src"],
                tgt=data["tgt"],
                net=data["net"],
                quant={k[2:]: data[k] for k in data.files if k.startswith("q_")},
                qual={k[2:]: data[k] for k in data.files if k.startswith("c_")},
                trust=data["trust"] if "trust" in data.files else None,
            )


def _class_integrals(cls: int, grade: np.ndarray, dead: np.ndarray) -> np.ndarray:
    """Mass and first moment of one output class truncated at each grade.

    Class cls is a triangle of half-width 1/4 peaking at 1 - (cls - 1) / 4,
    cut to [0, 1]. The truncated curve min(grade, membership) is linear
    between the support ends and the two points where the membership
    crosses the grade, so Simpson's rule on each of those three pieces is
    exact up to rounding for both integrals. Where `dead` is set the curve
    is the limit shape as the grade tends to 0: the indicator of the support.
    """
    peak = 1.0 - (cls - 1) / 4.0
    lo, hi = max(0.0, peak - 0.25), min(1.0, peak + 0.25)
    rise = np.clip(peak - (1.0 - grade) / 4.0, lo, hi)
    fall = np.clip(peak + (1.0 - grade) / 4.0, lo, hi)
    s = np.linspace(0.0, 1.0, 2 * SIMPSON_PANELS + 1)
    simpson = np.ones(len(s))
    simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
    simpson /= 3.0 * (len(s) - 1)
    out = np.zeros((len(grade), 2))
    for a, b in ((np.full_like(grade, lo), rise), (rise, fall), (fall, np.full_like(grade, hi))):
        tv = a[:, None] + (b - a)[:, None] * s[None, :]
        member = np.clip(1.0 - np.abs(tv - peak) * 4.0, 0.0, None)
        curve = np.where(dead[:, None], 1.0, np.minimum(grade[:, None], member))
        out[:, 0] += (b - a) * (curve @ simpson)
        out[:, 1] += (b - a) * ((curve * tv) @ simpson)
    return DENSITY[cls] * out


def aggregate(links: Links) -> np.ndarray:
    """Weighted quantitative aggregate e of each link, in [0, 1].

    Each value is divided by the largest value of that attribute over the
    links leaving the same source on the same network.
    """
    groups, inverse = np.unique(
        np.stack([links.src, links.net]), axis=1, return_inverse=True
    )
    inverse = inverse.ravel()
    e = np.zeros(len(links.src))
    for name, weight in WEIGHTS.items():
        values = np.asarray(links.quant[name], dtype=float)
        top = np.zeros(groups.shape[1])
        np.maximum.at(top, inverse, values)
        e += weight * (values / top[inverse])
    return np.clip(e, 0.0, 1.0)


def fuzzy_trust(links: Links) -> np.ndarray:
    """Centroid trust value of every link, by trapezoid integration.

    The stacked curve is a sum of one truncated class per qualitative
    attribute, so its mass and first moment are sums of per-attribute
    integrals; each is a trapezoid sum over the trust axis.
    """
    e = aggregate(links)
    fired = []
    for name, column in sorted(links.qual.items()):
        pos_class, neg_class = POSITIVE_NEGATIVE_CLASS[name]
        k = np.where(column == "POSITIVE", pos_class,
                     np.where(column == "NEGATIVE", neg_class, NEUTRAL_CLASS))
        grade = np.where(column == "POSITIVE", e,
                         np.where(column == "NEGATIVE", 1.0 - e, np.minimum(e, 1.0 - e)))
        fired.append((k, grade))
    # When every fired class has grade 0 the centroid is the limit as the
    # grades shrink together, where min(grade, membership) / grade tends to
    # 1 on each class's support.
    dead = np.all([grade == 0.0 for _, grade in fired], axis=0)

    sums = np.zeros((len(e), 2))  # mass, first moment
    for k, grade in fired:
        for cls in DENSITY:
            rows = np.nonzero(k == cls)[0]
            sums[rows] += _class_integrals(cls, grade[rows], dead[rows])
    return sums[:, 1] / sums[:, 0]


@dataclass
class TwoHop:
    """Best two-hop trust from every source, as dense (source, target) arrays.

    Rows and columns follow `ids`. `reach` marks targets within two links
    (never the source itself), `score` holds the best path product and
    `hops` the length of the shortest path reaching that best product.
    """

    ids: np.ndarray
    reach: np.ndarray
    score: np.ndarray
    hops: np.ndarray

    def circle_sizes(self) -> np.ndarray:
        return self.reach.sum(axis=1)

    def trustworthy_sizes(self, threshold: float) -> np.ndarray:
        return (self.reach & (self.score >= threshold)).sum(axis=1)


def two_hop(ids, src, tgt, trust) -> TwoHop:
    """Exact best-product propagation over paths of one or two links.

    Parallel links on several networks merge to their best value first.
    Ties between a direct link and a two-link path go to the direct link.
    """
    ids = np.asarray(ids)
    n = len(ids)
    row = {int(eid): k for k, eid in enumerate(ids)}
    s = np.array([row[int(x)] for x in src], dtype=int)
    t = np.array([row[int(x)] for x in tgt], dtype=int)
    merged = np.zeros((n, n))
    np.maximum.at(merged, (s, t), np.asarray(trust, dtype=float))
    linked = np.zeros((n, n), dtype=bool)
    linked[s, t] = True

    reach = np.zeros((n, n), dtype=bool)
    score = np.zeros((n, n))
    hops = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        mids = np.nonzero(linked[i])[0]
        if mids.size == 0:
            continue
        via = (merged[i, mids, None] * merged[mids]).max(axis=0)
        via_reach = linked[mids].any(axis=0)
        via_reach[i] = False
        direct = linked[i]
        longer = ~direct & via_reach
        better = direct & (via > merged[i])
        reach[i] = direct | via_reach
        score[i] = np.where(direct, np.maximum(merged[i], via), np.where(via_reach, via, 0.0))
        hops[i] = np.where(direct, 1, 0)
        hops[i][longer | better] = 2
    return TwoHop(ids=ids, reach=reach, score=score, hops=hops)
