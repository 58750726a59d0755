"""Fuzzy trust engine: one link's attribute profile in, one trust value out.

The model is input-independent: every quantitative attribute is normalized by
its per-source maximum and folded into a single aggregate e in [0, 1], and the
qualitative attributes pick fuzzy rules that map e to an output trust class.
There are three input classes (POSITIVE, NEUTRAL, NEGATIVE) and five output
classes on the trust axis (SMALLEST .. LARGEST), all triangular or half
triangular. Each rule truncates its output class at the input grade; the
trust value is the centroid of the stacked truncations, with the two outer
classes carrying double density so that every class holds the same mass.

All the integrals have closed forms (the memberships are piecewise linear),
so evaluation is a handful of polynomial terms per rule. link_trust scores
one link; compute_trust_values scores a graph's link columns at once with
the same closed forms and float operations, so both give the same bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Tuple

import numpy as np

from .errors import (
    DomainError,
    EmptyAssignmentError,
    MissingAttributeError,
    OnionTrustError,
    UnknownRuleError,
    WeightSumError,
    ZeroNormalizerError,
)

if TYPE_CHECKING:
    from .graph import FriendLink, SocialGraph


class ValueClass(enum.Enum):
    """Qualitative judgement of one attribute of a friendship link."""

    POSITIVE = "POSITIVE"
    NEUTRAL = "NEUTRAL"
    NEGATIVE = "NEGATIVE"


#: The classes by code: a link column stores a class as its index here.
VALUE_CLASSES = tuple(ValueClass)


class Rule(enum.Enum):
    """The five rule families, named by the output class they fire.

    Each member carries the code used in rule-set files, the input class it
    listens to and the output class index (1 = LARGEST .. 5 = SMALLEST).
    """

    LARGEST = ("1i", ValueClass.POSITIVE, 1)
    LARGE = ("1ii", ValueClass.POSITIVE, 2)
    MEDIUM = ("2", ValueClass.NEUTRAL, 3)
    SMALL = ("3i", ValueClass.NEGATIVE, 4)
    SMALLEST = ("3ii", ValueClass.NEGATIVE, 5)

    def __init__(self, code, input_class, output_class):
        self.code = code
        self.input_class = input_class
        self.output_class = output_class

    @classmethod
    def from_code(cls, code: str) -> "Rule":
        for rule in cls:
            if rule.code == code:
                return rule
        raise UnknownRuleError("unknown rule code %r" % (code,))


def _check_unit_interval(e: float):
    if not 0.0 <= e <= 1.0:
        raise DomainError("aggregate must be in [0, 1], got %r" % (e,))


#: Density of each output class. The two half triangles at the ends are twice
#: as dense as the three interior triangles, which balances the mass held by
#: every class (density * area == 1/4 for all five).
DENSITY = {1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 2.0}

#: Output memberships as line segments (lo, hi, slope, intercept);
#: mu(tv) = slope * tv + intercept on [lo, hi] and 0 elsewhere.
_OUTPUT_SEGMENTS = {
    1: ((0.75, 1.00, 4.0, -3.0),),
    2: ((0.50, 0.75, 4.0, -2.0), (0.75, 1.00, -4.0, 4.0)),
    3: ((0.25, 0.50, 4.0, -1.0), (0.50, 0.75, -4.0, 3.0)),
    4: ((0.00, 0.25, 4.0, 0.0), (0.25, 0.50, -4.0, 2.0)),
    5: ((0.00, 0.25, -4.0, 1.0),),
}


def output_membership(output_class: int, tv: float) -> float:
    """Membership grade of trust value tv in one of the five output classes."""
    if output_class not in _OUTPUT_SEGMENTS:
        raise DomainError("output class must be 1..5, got %r" % (output_class,))
    for lo, hi, slope, intercept in _OUTPUT_SEGMENTS[output_class]:
        if lo <= tv <= hi:
            return slope * tv + intercept
    return 0.0


def input_grade(value_class: ValueClass, e: float) -> float:
    """Membership grade of aggregate e in an input class.

    POSITIVE rises with e, NEGATIVE falls with e, NEUTRAL peaks at 0.5.
    """
    _check_unit_interval(e)
    if value_class is ValueClass.POSITIVE:
        return e
    if value_class is ValueClass.NEGATIVE:
        return 1.0 - e
    return e if e <= 0.5 else 1.0 - e


def truncated_moment_and_mass(rule: Rule, e: float) -> Tuple[float, float]:
    """Moment and mass of a rule's output class truncated at the input grade.

    Returns (MP, M) where, with c(tv) = density * min(grade, mu_out(tv)),
    MP = integral of tv * c(tv) and M = integral of c(tv) over [0, 1].
    Closed forms, one polynomial pair per rule family.
    """
    _check_unit_interval(e)
    return _closed_form(rule, e > 0.5, e, e**2, e**3)


def _closed_form(rule: Rule, high, e, e2, e3):
    """truncated_moment_and_mass from e, e2 = e**2 and e3 = e**3.

    e may be a float or an array. high says e > 0.5, which picks MEDIUM's
    piece; an array caller splits its MEDIUM rows by side.
    """
    if rule is Rule.LARGEST:
        return -(e3 + 9.0 * e2 - 21.0 * e) / 48.0, -(e2 - 2.0 * e) / 4.0
    if rule is Rule.LARGE:
        return -3.0 * (e2 - 2.0 * e) / 16.0, -(e2 - 2.0 * e) / 4.0
    if rule is Rule.MEDIUM:
        if high:
            return -(e2 - 1.0) / 8.0, -(e2 - 1.0) / 4.0
        return -(e2 - 2.0 * e) / 8.0, -(e2 - 2.0 * e) / 4.0
    if rule is Rule.SMALL:
        return -(e2 - 1.0) / 16.0, -(e2 - 1.0) / 4.0
    if rule is Rule.SMALLEST:
        return -(e3 - 1.0) / 48.0, -(e2 - 1.0) / 4.0
    raise UnknownRuleError("not a rule: %r" % (rule,))


def _moment_and_mass_rate(rule: Rule, e: float) -> Tuple[float, float]:
    # Derivatives d(MP)/de and d(M)/de of the closed forms above; used for
    # the one-sided limit when every matched rule has zero mass (e at 0 or 1).
    if rule is Rule.LARGEST:
        return (21.0 - 18.0 * e - 3.0 * e**2) / 48.0, (1.0 - e) / 2.0
    if rule is Rule.LARGE:
        return 3.0 * (1.0 - e) / 8.0, (1.0 - e) / 2.0
    if rule is Rule.MEDIUM:
        if e <= 0.5:
            return (1.0 - e) / 4.0, (1.0 - e) / 2.0
        return -e / 4.0, -e / 2.0
    if rule is Rule.SMALL:
        return -e / 8.0, -e / 2.0
    return -(e**2) / 16.0, -e / 2.0


def rule_trust_value(rule: Rule, e: float) -> float:
    """Trust value a single rule defuzzifies to on its own.

    LARGE, MEDIUM and SMALL are constant (3/4, 1/2, 1/4); LARGEST and
    SMALLEST drift with e because their half triangles are asymmetric.
    """
    return defuzzify([rule], e)


def defuzzify(rules: Iterable[Rule], e: float) -> float:
    """Centroid of the stacked truncated output classes of several rules.

    The ratio sum(MP) / sum(M) hits 0/0 exactly when e is 0 or 1 and no
    matched rule has positive grade there; the value is then the one-sided
    limit, the ratio of the summed derivatives.
    """
    rules = list(rules)
    if not rules:
        raise EmptyAssignmentError("no rules matched; nothing to defuzzify")
    moment = 0.0
    mass = 0.0
    for rule in rules:
        mp, m = truncated_moment_and_mass(rule, e)
        moment += mp
        mass += m
    if mass == 0.0:
        moment = 0.0
        for rule in rules:
            dmp, dm = _moment_and_mass_rate(rule, e)
            moment += dmp
            mass += dm
    return moment / mass


@dataclass(frozen=True)
class FuzzyRuleSet:
    """Which rules each qualitative attribute fires, plus aggregate weights.

    qualitative maps an attribute name to its (positive, negative) rule pair;
    a NEUTRAL judgement always fires MEDIUM. weights are the quantitative
    attribute weights of the aggregate: each in [0, 1], summing to one.
    """

    qualitative: Mapping[str, Tuple[Rule, Rule]]
    weights: Mapping[str, float]

    def __post_init__(self):
        if not self.weights:
            raise WeightSumError("rule set defines no quantitative attributes")
        for name in sorted(self.weights):
            weight = self.weights[name]
            if not 0.0 <= weight <= 1.0:  # so NaN and infinity fail too
                raise DomainError(
                    "weight of %r is %r; must be in [0, 1]" % (name, weight)
                )
        total = sum(self.weights[name] for name in sorted(self.weights))
        if abs(total - 1.0) > 1e-9:
            raise WeightSumError(
                "quantitative weights sum to %.12g, expected 1" % total
            )
        if total != 1.0:
            # Renormalize so downstream aggregates stay in [0, 1]. The last
            # weight takes the rounding, since p + (1.0 - p) is exactly one:
            # the result is a fixed point, so a rule file reads back equal.
            names = sorted(self.weights)
            weights = {name: self.weights[name] / total for name in names}
            weights[names[-1]] = 1.0 - sum(weights[name] for name in names[:-1])
            object.__setattr__(self, "weights", weights)
        for name, (pos, neg) in self.qualitative.items():
            if pos.input_class is not ValueClass.POSITIVE:
                raise UnknownRuleError(
                    "%s: %s is not a positive rule" % (name, pos.code)
                )
            if neg.input_class is not ValueClass.NEGATIVE:
                raise UnknownRuleError(
                    "%s: %s is not a negative rule" % (name, neg.code)
                )

    def rule_for(self, attribute: str, value_class: ValueClass) -> Rule:
        if value_class is ValueClass.NEUTRAL:
            return Rule.MEDIUM
        try:
            positive, negative = self.qualitative[attribute]
        except KeyError:
            raise MissingAttributeError(
                "rule set has no rules for attribute %r" % (attribute,)
            ) from None
        return positive if value_class is ValueClass.POSITIVE else negative


def aggregate(
    raw: Mapping[str, float],
    normalizers: Mapping[str, float],
    weights: Mapping[str, float],
) -> float:
    """Weighted sum of normalized quantitative attributes, in [0, 1].

    raw holds the link's values, normalizers the per-attribute maxima they
    are divided by. Every weighted attribute must be present in both, with
    a finite positive normalizer and a value in [0, normalizer].
    """
    e = 0.0
    for name in sorted(weights):
        if name not in raw:
            raise MissingAttributeError("missing quantitative attribute %r" % name)
        if name not in normalizers:
            raise MissingAttributeError("no normalizer for attribute %r" % name)
        top = normalizers[name]
        if not top < math.inf:  # NaN fails this too
            raise DomainError(
                "normalizer for %r is %r; must be finite" % (name, top)
            )
        if top <= 0.0:
            raise ZeroNormalizerError(
                "normalizer for %r is %r: the attribute's maximum over the "
                "source's links on that network is not positive" % (name, top)
            )
        value = raw[name]
        if not 0.0 <= value <= top:  # so NaN and infinity fail too
            raise DomainError(
                "attribute %r = %r outside [0, %r]" % (name, value, top)
            )
        e += weights[name] * (value / top)
    # Guard against float drift just past the ends.
    return min(1.0, max(0.0, e))


def trust_value(
    e: float,
    assignments: Mapping[str, ValueClass],
    rules: FuzzyRuleSet,
) -> float:
    """Trust value of one link given its aggregate and qualitative profile."""
    if not assignments:
        raise EmptyAssignmentError("link has no qualitative assignments")
    matched = [
        rules.rule_for(name, assignments[name]) for name in sorted(assignments)
    ]
    return defuzzify(matched, e)


def link_trust(
    link: "FriendLink",
    normalizers: Mapping[str, float],
    rules: FuzzyRuleSet,
) -> float:
    """Trust value of a single link, given its source's normalizers.

    Any package error raised while scoring comes back with the link named.
    """
    try:
        e = aggregate(link.profile.quantitative, normalizers, rules.weights)
        return trust_value(e, link.profile.qualitative, rules)
    except OnionTrustError as exc:
        raise type(exc)(
            "link %d->%d network %d: %s"
            % (link.source, link.target, link.network, exc)
        ) from None


def compute_trust_values(graph: "SocialGraph", rules: FuzzyRuleSet) -> None:
    """Fill in the trust column of every link of the graph, in place.

    Normalizers are the per-attribute maxima over the source's out-links on
    the same network, zero included, so an entity's links are scored
    relative to its own strongest interaction there. The links are scored
    as whole columns in (source, network, target) order, with the same
    float operations as link_trust, so every value is bit for bit the one
    link_trust gives. On the first link in that order that link_trust would
    reject, the links before it keep their new scores and link_trust raises
    its error, naming it.
    """
    links = graph.link_columns()
    size = len(links)
    if not size:
        return
    order = np.lexsort((links.target, links.network, links.source))
    source, network = links.source[order], links.network[order]
    first = np.ones(size, dtype=bool)
    first[1:] = (source[1:] != source[:-1]) | (network[1:] != network[:-1])
    quant, present, qual = links.quant[order], links.present[order], links.qual[order]
    # value > 0 also drops NaN, -0.0 and absent values, as link_trust's
    # running maximum from 0.0 does.
    positive = np.where(present & (quant > 0.0), quant, 0.0)
    top = np.maximum.reduceat(positive, np.flatnonzero(first), axis=0)[np.cumsum(first) - 1]

    # The links link_trust rejects: a weighted value missing, outside
    # [0, normalizer] or with no finite positive normalizer, no judgement
    # at all, or a judgement with no rule.
    weighted = [
        (rules.weights[name], links.quant_names.index(name))
        for name in sorted(rules.weights)
        if name in links.quant_names
    ]
    bad = np.full(size, len(weighted) < len(rules.weights)) | (qual < 0).all(axis=1)
    for _, a in weighted:
        value, norm = quant[:, a], top[:, a]
        bad |= ~present[:, a] | ~(norm < math.inf) | (norm <= 0.0)
        bad |= ~((0.0 <= value) & (value <= norm))
    rule_of = {}
    for c, name in enumerate(links.qual_names):
        for code, value_class in enumerate(VALUE_CLASSES):
            try:
                rule_of[c, code] = rules.rule_for(name, value_class)
            except MissingAttributeError:
                bad |= qual[:, c] == code

    good = np.flatnonzero(~bad)
    trust = np.full(size, math.nan)
    trust[good] = _column_scores(quant[good], top[good], qual[good], weighted, rule_of)
    if not bad.any():
        links.trust[order] = trust
        return
    stop = int(np.argmax(bad))
    links.trust[order[:stop]] = trust[:stop]
    row = int(order[stop])
    link = graph.link(int(links.source[row]), int(links.target[row]), int(links.network[row]))
    # Every weighted value the link has has a normalizer, so naming all of
    # them gives link_trust the same checks as the source's own maxima.
    link_trust(link, dict(zip(links.quant_names, top[stop].tolist())), rules)
    raise AssertionError(
        "link %d->%d network %d passes link_trust"
        % (link.source, link.target, link.network)
    )


#: Links whose e**2 and e**3 _column_scores takes as Python floats at once,
#: so that its float lists hold about half a megabyte at any link count.
_POWER_CHUNK = 1 << 13


def _column_scores(quant, top, codes, weighted, rule_of) -> np.ndarray:
    """link_trust of links that pass its checks, as columns.

    quant and top are the links' values and normalizers, codes their class
    codes; weighted lists (weight, column) in sorted-name order and rule_of
    maps (class column, code) to the rule it fires. Every sum runs in the
    order link_trust adds, and e**2, e**3 are Python float powers, since
    numpy's power differs from them in some bits, taken _POWER_CHUNK links
    at a time.
    """
    e = np.zeros(len(quant))
    for weight, a in weighted:
        e = e + weight * (quant[:, a] / top[:, a])
    e = np.minimum(1.0, np.maximum(0.0, e))
    e2, e3 = np.empty(len(e)), np.empty(len(e))
    for lo in range(0, len(e), _POWER_CHUNK):
        part = e[lo : lo + _POWER_CHUNK].tolist()
        e2[lo : lo + len(part)] = [x**2 for x in part]
        e3[lo : lo + len(part)] = [x**3 for x in part]
    moment = np.zeros(len(e))
    mass = np.zeros(len(e))
    high = e > 0.5
    for (c, code), rule in rule_of.items():  # class columns in name order
        rows = codes[:, c] == code
        pieces = [(rows, False)]
        if rule is Rule.MEDIUM:
            pieces = [(rows & ~high, False), (rows & high, True)]
        for at, side in pieces:
            mp, m = _closed_form(rule, side, e[at], e2[at], e3[at])
            moment[at] += mp
            mass[at] += m
    scores = np.divide(moment, mass, out=np.zeros(len(e)), where=mass != 0.0)
    for k in np.flatnonzero(mass == 0.0).tolist():
        matched = [rule_of[c, code] for c, code in enumerate(codes[k].tolist()) if code >= 0]
        scores[k] = defuzzify(matched, float(e[k]))
    return scores
