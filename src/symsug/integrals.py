"""Choquet and Sugeno integral families, including the symmetric variants.

The Choquet side works on exact rationals and exists only for unit-scale
data; the Sugeno side is purely ordinal and works on any symmetric scale.
Signed inputs are handled symmetrically: integrate the positive and the
negative part separately and combine, or use the explicit one-pass forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

from .capacity import (
    Capacity,
    RawValue,
    SetFunction,
    _check_pair,
    _check_players,
    _coerce_value,
    full_set,
    subset_members,
)
from .mobius import RealSetFunction, real_conjugate
from .rules import Rule, fold_sym_max
from .scale import (
    UNIT,
    ScaleError,
    ScaleValue,
    SymmetricScale,
    check_scale,
    sym_max,
    sym_min,
)


@dataclass(frozen=True)
class Profile:
    """Scores of players 1..n on one scale (entry i - 1 belongs to player i)."""

    scale: SymmetricScale
    scores: tuple[ScaleValue, ...]

    def __post_init__(self) -> None:
        scores = tuple(self.scores)
        object.__setattr__(self, "scores", scores)
        _check_players(len(scores))  # past the ceiling no capacity could match
        check_scale(self.scale, scores)

    @classmethod
    def from_values(
        cls, scale: SymmetricScale, values: Sequence[RawValue]
    ) -> "Profile":
        return cls(scale, tuple(_coerce_value(scale, raw) for raw in values))

    @property
    def n(self) -> int:
        return len(self.scores)

    @property
    def is_nonnegative(self) -> bool:
        return all(x.sign >= 0 for x in self.scores)

    def positive_part(self) -> "Profile":
        zero = self.scale.zero
        return Profile(self.scale, tuple(max(x, zero) for x in self.scores))

    def negative_part(self) -> "Profile":
        zero = self.scale.zero
        return Profile(self.scale, tuple(max(-x, zero) for x in self.scores))

    def __neg__(self) -> "Profile":
        return Profile(self.scale, tuple(-x for x in self.scores))


# -- rational conversions (Choquet side) ---------------------------------------


def to_real_capacity(v: Capacity) -> RealSetFunction:
    """Unit-scale capacities as rational tables.  The Choquet family is not
    defined on discrete level scales."""
    if v.scale.kind != UNIT:
        raise ScaleError("the Choquet family needs the unit scale")
    return RealSetFunction(v.n, tuple(entry.signed for entry in v.table))


def to_real_profile(f: Profile) -> tuple[Fraction, ...]:
    if f.scale.kind != UNIT:
        raise ScaleError("the Choquet family needs the unit scale")
    return tuple(x.signed for x in f.scores)


# -- Choquet family ------------------------------------------------------------


def _check_real_args(v: RealSetFunction, f: Sequence[Fraction]) -> list[Fraction]:
    scores = [Fraction(x) for x in f]
    if len(scores) != v.n:
        raise ValueError(f"profile has {len(scores)} players, capacity has {v.n}")
    return scores


def choquet(v: RealSetFunction, f: Sequence[Fraction]) -> Fraction:
    """Plain Choquet integral of a nonnegative profile: sum of the layer
    increments f_(i) - f_(i-1) weighted by the capacity of the upper sets."""
    scores = _check_real_args(v, f)
    if any(x < 0 for x in scores):
        raise ValueError("plain Choquet integral needs nonnegative scores")
    order = sorted(range(v.n), key=scores.__getitem__)
    acc = Fraction(0)
    previous = Fraction(0)
    upper = full_set(v.n)
    for i in order:
        acc += (scores[i] - previous) * v(upper)
        previous = scores[i]
        upper ^= 1 << i
    return acc


def _gains_losses(
    v: RealSetFunction, f: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """The gains f+ and the losses f- of a signed profile."""
    scores = _check_real_args(v, f)
    return [max(x, Fraction(0)) for x in scores], [max(-x, Fraction(0)) for x in scores]


def choquet_symmetric(v: RealSetFunction, f: Sequence[Fraction]) -> Fraction:
    """Integrate gains and losses against the same capacity:
    C(f+) - C(f-)."""
    plus, minus = _gains_losses(v, f)
    return choquet(v, plus) - choquet(v, minus)


def choquet_asymmetric(v: RealSetFunction, f: Sequence[Fraction]) -> Fraction:
    """Integrate losses against the conjugate capacity:
    C(f+) - C-conjugate(f-)."""
    plus, minus = _gains_losses(v, f)
    return choquet(v, plus) - choquet(real_conjugate(v), minus)


def choquet_symmetric_explicit(
    v: RealSetFunction, f: Sequence[Fraction]
) -> Fraction:
    """One-pass form of the symmetric integral: increments against lower
    sets on the negative block, against upper sets on the nonnegative one."""
    scores = _check_real_args(v, f)
    n = v.n
    order = sorted(range(n), key=scores.__getitem__)
    ranked = [scores[i] for i in order]
    p = sum(1 for x in ranked if x < 0)
    acc = Fraction(0)
    lower = 0
    for i in range(1, p + 1):  # positions 1..p, ranked[i - 1]
        lower |= 1 << order[i - 1]
        if i < p:
            acc += (ranked[i - 1] - ranked[i]) * v(lower)
        else:
            acc += ranked[i - 1] * v(lower)
    upper = 0
    for i in range(n, p, -1):  # positions n..p+1
        upper |= 1 << order[i - 1]
        if i > p + 1:
            acc += (ranked[i - 1] - ranked[i - 2]) * v(upper)
        else:
            acc += ranked[i - 1] * v(upper)
    return acc


def choquet_mobius(m: RealSetFunction, f: Sequence[Fraction]) -> Fraction:
    """Choquet integral from the classical transform:
    sum of m(A) min over A of f.  Equals the asymmetric integral on signed
    profiles and the plain integral on nonnegative ones."""
    scores = _check_real_args(m, f)
    acc = Fraction(0)
    for mask in range(1, 1 << m.n):
        acc += m(mask) * min(scores[i - 1] for i in subset_members(mask))
    return acc


def sipos_mobius(m: RealSetFunction, f: Sequence[Fraction]) -> Fraction:
    """Symmetric integral from the classical transform:
    sum of m(A) [min of f+ over A minus min of f- over A]."""
    scores = _check_real_args(m, f)
    zero = Fraction(0)
    acc = Fraction(0)
    for mask in range(1, 1 << m.n):
        members = subset_members(mask)
        plus = min(max(scores[i - 1], zero) for i in members)
        minus = min(max(-scores[i - 1], zero) for i in members)
        acc += m(mask) * (plus - minus)
    return acc


# -- Sugeno family -------------------------------------------------------------


def sugeno(v: Capacity, f: Profile) -> ScaleValue:
    """Sugeno integral of a nonnegative profile: join over ranks of
    f_(i) meet v({(i),...,(n)})."""
    _check_pair(v, f)
    if not f.is_nonnegative:
        raise ValueError("plain Sugeno integral needs nonnegative scores")
    order = sorted(range(v.n), key=lambda i: f.scores[i].signed)
    upper = full_set(v.n)
    best = v.scale.zero
    for i in order:
        best = max(best, min(f.scores[i], v(upper)))
        upper ^= 1 << i
    return best


def sugeno_mobius(m: SetFunction, f: Profile) -> ScaleValue:
    """Sugeno integral from a nonnegative transform in the interval:
    join over nonempty A of  m(A) meet min of f over A.  The value does not
    depend on the representative chosen in the interval."""
    _check_pair(m, f)
    if not f.is_nonnegative:
        raise ValueError("plain Sugeno integral needs nonnegative scores")
    if not m.is_nonnegative:
        raise ValueError("transform representatives are nonnegative")
    best = m.scale.zero
    for mask in range(1, 1 << m.n):
        smallest = min(f.scores[i - 1] for i in subset_members(mask))
        best = max(best, min(m(mask), smallest))
    return best


def sugeno_symmetric(v: Capacity, f: Profile) -> ScaleValue:
    """Symmetric Sugeno integral: S(f+) sym-maxed with the reflection of
    S(f-)."""
    _check_pair(v, f)
    return sym_max(
        sugeno(v, f.positive_part()), -sugeno(v, f.negative_part())
    )


def ranked_terms(v: Capacity, f: Profile) -> tuple[list[int], int, list[ScaleValue]]:
    """Rank players ascending and build the explicit-form terms: the i-th
    negative score meets the capacity of the first i ranks, the i-th
    nonnegative score meets the capacity of ranks i..n.  Equal scores leave
    the chain of rank sets ambiguous and the ceil/angle folds are sensitive
    to the choice, so the ranking is canonical: both blocks are walked from
    the largest magnitude down, and inside a tied block the next player is
    the one whose addition keeps the capacity smallest (lowest index on a
    further tie).  Using the same choice on both blocks keeps the term
    multiset of -f the exact reflection of the term multiset of f.  Returns
    the ranked player ids, the count p of negative scores, and the n terms."""
    _check_pair(v, f)

    def chain(players: list[int], magnitude) -> list[int]:
        picked = []
        mask = 0
        remaining = list(players)
        while remaining:
            top = max(magnitude(i) for i in remaining)
            block = [i for i in remaining if magnitude(i) == top]
            j = min(block, key=lambda i: (v(mask | (1 << i)).signed, i))
            remaining.remove(j)
            mask |= 1 << j
            picked.append(j)
        return picked

    negatives = [i for i in range(v.n) if f.scores[i].sign < 0]
    others = [i for i in range(v.n) if f.scores[i].sign >= 0]
    order = (
        chain(negatives, lambda i: -f.scores[i].signed)
        + chain(others, lambda i: f.scores[i].signed)[::-1]
    )
    return [j + 1 for j in order], len(negatives), _rank_terms(v, f, order)


def _rank_terms(v: Capacity, f: Profile, order: Sequence[int]) -> list[ScaleValue]:
    """Explicit-form terms under one ranking of the players (0-based ids,
    ascending scores, negative block first)."""
    p = sum(1 for x in f.scores if x.sign < 0)
    terms = []
    mask = 0
    for i in order[:p]:
        mask |= 1 << i
        terms.append(sym_min(f.scores[i], v(mask)))
    upper = full_set(len(order)) ^ mask
    for i in order[p:]:
        terms.append(sym_min(f.scores[i], v(upper)))
        upper ^= 1 << i
    return terms


def sugeno_symmetric_explicit(v: Capacity, f: Profile) -> ScaleValue:
    """One-pass form of the symmetric Sugeno integral: fold the negative
    block and the nonnegative block separately, then combine."""
    _, p, terms = ranked_terms(v, f)
    zero = v.scale.zero
    negative = reduce(sym_max, terms[:p], zero)
    nonnegative = reduce(sym_max, terms[p:], zero)
    return sym_max(negative, nonnegative)


def variant1_terms(m: SetFunction, f: Profile) -> list[ScaleValue]:
    """All transform terms m(A) meet-sym [min f+ over A sym-max reflected
    min f- over A], for nonempty A in mask order, block structure
    ignored."""
    _check_pair(m, f)
    if not m.is_nonnegative:
        raise ValueError("transform representatives are nonnegative")
    plus, minus = f.positive_part().scores, f.negative_part().scores
    terms = []
    for mask in range(1, 1 << m.n):
        members = subset_members(mask)
        gain = min(plus[i - 1] for i in members)
        loss = min(minus[i - 1] for i in members)
        terms.append(sym_min(m(mask), sym_max(gain, -loss)))
    return terms


def symmetric_mobius_blocks(
    m: SetFunction, f: Profile
) -> tuple[ScaleValue, ScaleValue, ScaleValue]:
    """The three folds of the transform form of the symmetric integral,
    split by where A sits: inside the nonnegative players, inside the
    negative players, or across both (that block is identically 0)."""
    n_plus = sum(1 << i for i, x in enumerate(f.scores) if x.sign >= 0)
    n_minus = full_set(m.n) ^ n_plus
    blocks = [m.scale.zero] * 3  # inside f+, inside f-, mixed
    for mask, term in enumerate(variant1_terms(m, f), 1):
        block = 0 if mask & n_minus == 0 else 1 if mask & n_plus == 0 else 2
        blocks[block] = sym_max(blocks[block], term)
    return tuple(blocks)


def sugeno_symmetric_mobius(m: SetFunction, f: Profile) -> ScaleValue:
    """Transform form of the symmetric Sugeno integral: combine the three
    blocks of :func:`symmetric_mobius_blocks` with the symmetric maximum."""
    inside_plus, inside_minus, mixed = symmetric_mobius_blocks(m, f)
    return sym_max(sym_max(inside_plus, inside_minus), mixed)


# the rule each symmetric variant folds its terms under; compute reads it too
VARIANT_RULES = {"v1": Rule.ANGLE, "v2": Rule.ANGLE, "v3": Rule.CEIL}


def sugeno_variant1(m: SetFunction, f: Profile) -> ScaleValue:
    """First alternative symmetric integral: fold every transform term under
    the angle rule instead of splitting into sign-homogeneous blocks."""
    return fold_sym_max(variant1_terms(m, f), VARIANT_RULES["v1"], scale=m.scale)


def sugeno_variant2(v: Capacity, f: Profile) -> ScaleValue:
    """Second alternative: fold the explicit-form terms under the angle
    rule.  Not monotone in the profile."""
    _, _, terms = ranked_terms(v, f)
    return fold_sym_max(terms, VARIANT_RULES["v2"], scale=v.scale)


def variant3_terms(v: Capacity, f: Profile) -> list[ScaleValue]:
    """Per-player threshold terms: a player with a positive score gets the
    best value of  y meet v({j : f_j >= y})  over positive thresholds y up
    to its own score, which is S(f+) clipped at that score; a negative
    score gets the reflection of S(f-) clipped at its magnitude; a zero
    score contributes 0.  Terms are listed in player order.  Raising any
    score can only raise every term, which is what the ceil fold needs to
    stay monotone; the rank-based terms of :func:`ranked_terms` lack that
    property."""
    _check_pair(v, f)
    plus, minus = f.positive_part(), f.negative_part()
    gains, losses = sugeno(v, plus), sugeno(v, minus)
    return [
        min(gain, gains) if x.sign >= 0 else -min(loss, losses)
        for x, gain, loss in zip(f.scores, plus.scores, minus.scores)
    ]


def sugeno_variant3(v: Capacity, f: Profile) -> ScaleValue:
    """Third alternative: fold the per-player threshold terms under the
    ceil rule.  Monotone in the profile, which the rank-based ceil fold is
    not, and more discriminating than the floor-based combine."""
    return fold_sym_max(variant3_terms(v, f), VARIANT_RULES["v3"], scale=v.scale)
