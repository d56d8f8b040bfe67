"""Choquet and Sugeno integral families, including the symmetric variants.

The Choquet side is exact and exists only for unit-scale data; the Sugeno
side is purely ordinal and works on any symmetric scale.  Signed inputs
are handled symmetrically: integrate the positive and the negative part
separately and combine, or use the explicit one-pass forms.  Every split
of a profile into its gains f+ and losses f- comes from :func:`_parts`.

The Choquet chain forms compute on ints: the profile as numerators over
one common denominator of its scores, the n capacity weights of the chain
over another, and one ``Fraction`` built from the sum.  The classical
transform forms (:func:`choquet_mobius`, :func:`sipos_mobius`) stay on
``Fraction``, as independent references for the chain forms.

The Sugeno side computes on the signed grades of its inputs: the
integrals rank, meet, join and fold plain signed numbers and wrap each
result once as a scale value.  Their symmetric maxima and minima go
through the two kernels of :mod:`~symsug.scale`, ``_sym_max_signed`` and
``_clip``.  The public term lists (:func:`ranked_terms`,
:func:`variant1_terms`, :func:`variant3_terms`) wrap the grades their
private helpers return with ``scale.value``, which interns level grades.
Each transform form runs a private kernel on a member's signed weights
and the profile's minima over each mask (:func:`_signed_minima`), which do
not depend on the member; the signed forms read both through
:func:`_transform_args`, and :func:`sugeno_mobius` checks the sign first.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections.abc import Callable, Sequence
from fractions import Fraction
from math import lcm

from .capacity import (
    Capacity,
    RawValue,
    SetFunction,
    _check_pair,
    _check_players,
    _coerce_value,
    fold_members,
    full_set,
    rank_sets,
)
from .mobius import RealSetFunction
from .rules import Rule, _fold_signed, _survivors
from .scale import (
    UNIT,
    Number,
    ScaleError,
    ScaleValue,
    SymmetricScale,
    _clip,
    _exact,
    _Record,
    _sym_max_signed,
    _trusted,
    check_scale,
    sym_max,
)


class Profile(_Record):
    """Scores of players 1..n on one scale (entry i - 1 belongs to player i)."""

    def __init__(self, scale: SymmetricScale, scores: tuple[ScaleValue, ...]) -> None:
        self.__dict__.update(scale=scale, scores=scores)
        self.__post_init__()

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
        plus, _ = _parts([x.signed for x in self.scores])
        return Profile(self.scale, tuple(map(self.scale.value, plus)))

    def negative_part(self) -> "Profile":
        _, minus = _parts([x.signed for x in self.scores])
        return Profile(self.scale, tuple(map(self.scale.value, minus)))

    def __neg__(self) -> "Profile":
        return Profile(self.scale, tuple(-x for x in self.scores))


# -- rational conversions (Choquet side) ---------------------------------------


def to_real_capacity(v: Capacity) -> RealSetFunction:
    """Unit-scale capacities as rational tables.  The Choquet family is not
    defined on discrete level scales.  The entries of a unit-scale value
    are exact rationals already, so they are not checked again."""
    if v.scale.kind != UNIT:
        raise ScaleError("the Choquet family needs the unit scale")
    return _trusted(RealSetFunction, n=v.n, table=tuple(x.signed for x in v.table))


def to_real_profile(f: Profile) -> tuple[Fraction, ...]:
    if f.scale.kind != UNIT:
        raise ScaleError("the Choquet family needs the unit scale")
    return tuple(x.signed for x in f.scores)


# -- Choquet family ------------------------------------------------------------


def _check_real_args(v: RealSetFunction, f: Sequence[Fraction]) -> list[Fraction]:
    scores = [_exact(x) for x in f]
    if len(scores) != v.n:
        raise ValueError(f"profile has {len(scores)} players, capacity has {v.n}")
    return scores


def _numerators(v: RealSetFunction, f: Sequence[Fraction]) -> tuple[list[int], int]:
    """The checked profile as int numerators over one common denominator d
    of its scores, and d."""
    ratios = [x.as_integer_ratio() for x in _check_real_args(v, f)]
    d = lcm(*(den for _, den in ratios))
    return [num * (d // den) for num, den in ratios], d


def choquet(v: RealSetFunction, f: Sequence[Fraction]) -> Fraction:
    """Plain Choquet integral of a nonnegative profile: the one-pass form,
    which there weights each increment f_(i) - f_(i-1) by v(upper set)."""
    if any(x < 0 for x in _check_real_args(v, f)):
        raise ValueError("plain Choquet integral needs nonnegative scores")
    return choquet_symmetric_explicit(v, f)


def _weight(v: RealSetFunction) -> Callable[[int], tuple[int, int]]:
    """v(A) as its (numerator, denominator) pair."""
    table = v.table
    return lambda mask: table[mask].as_integer_ratio()


def _chain_sum(
    nums: Sequence[int], weight: Callable[[int], tuple[int, int]]
) -> tuple[int, int]:
    """Each ranked score's step away from its neighbour toward 0, weighted
    by ``weight`` of its rank set: each sign block steps outward from 0,
    the negative one over lower sets and the nonnegative one over upper
    sets.  ``weight`` is read on those n masks only, as (numerator,
    denominator) pairs.  The scores are the int numerators of a profile
    over a common denominator d; the sum is acc / (d * e), returned as
    (acc, e), where e is the common denominator of the n weights."""
    order = _ascending(nums)
    ranked = [nums[i] for i in order]
    p = bisect_left(ranked, 0)  # the size of the negative block
    weights = [weight(rank_set) for rank_set in rank_sets(order, p)]
    e = lcm(*(den for _, den in weights))
    acc = 0
    for i, (num, den) in enumerate(weights):
        # the next score inward, or 0 at the inner end of each block
        inner = ranked[i + 1] if i + 1 < p else ranked[i - 1] if i > p else 0
        acc += (ranked[i] - inner) * num * (e // den)
    return acc, e


def _difference(
    gain: tuple[int, int], loss: tuple[int, int], d: int
) -> Fraction:
    """(a / (d * e)) - (b / (d * g)) for gain = (a, e) and loss = (b, g)."""
    (a, e), (b, g) = gain, loss
    return Fraction(a * g - b * e, d * e * g)


def choquet_symmetric(v: RealSetFunction, f: Sequence[Fraction]) -> Fraction:
    """Integrate gains and losses against the same capacity:
    C(f+) - C(f-)."""
    nums, d = _numerators(v, f)
    plus, minus = _parts(nums)
    weight = _weight(v)
    return _difference(_chain_sum(plus, weight), _chain_sum(minus, weight), d)


def choquet_asymmetric(v: RealSetFunction, f: Sequence[Fraction]) -> Fraction:
    """Integrate losses against the conjugate capacity:
    C(f+) - C-conjugate(f-).  The conjugate A -> 1 - v(complement of A) is
    read on the upper sets of the losses' chain only, not tabulated: on a
    (numerator, denominator) pair, 1 - num / den is (den - num) / den."""
    nums, d = _numerators(v, f)
    plus, minus = _parts(nums)
    table = v.table
    top = full_set(v.n)

    def conjugate(upper: int) -> tuple[int, int]:
        num, den = table[top ^ upper].as_integer_ratio()
        return den - num, den

    return _difference(_chain_sum(plus, _weight(v)), _chain_sum(minus, conjugate), d)


def choquet_symmetric_explicit(
    v: RealSetFunction, f: Sequence[Fraction]
) -> Fraction:
    """One-pass form of the symmetric integral: increments against lower
    sets on the negative block, against upper sets on the nonnegative one."""
    nums, d = _numerators(v, f)
    acc, e = _chain_sum(nums, _weight(v))
    return Fraction(acc, d * e)


def choquet_mobius(m: RealSetFunction, f: Sequence[Fraction]) -> Fraction:
    """Choquet integral from the classical transform:
    sum of m(A) min over A of f.  Equals the asymmetric integral on signed
    profiles and the plain integral on nonnegative ones."""
    scores = _check_real_args(m, f)
    minima = fold_members(scores, min, max(scores))
    return sum(map(operator.mul, m.table[1:], minima[1:]), Fraction(0))


def sipos_mobius(m: RealSetFunction, f: Sequence[Fraction]) -> Fraction:
    """Symmetric integral from the classical transform:
    sum of m(A) [min of f+ over A minus min of f- over A]."""
    plus, minus = _parts(_check_real_args(m, f))
    gains = fold_members(plus, min, max(plus))
    losses = fold_members(minus, min, max(minus))
    terms = zip(m.table[1:], gains[1:], losses[1:])
    return sum((w * (gain - loss) for w, gain, loss in terms), Fraction(0))


# -- Sugeno family -------------------------------------------------------------


def sugeno(v: Capacity, f: Profile) -> ScaleValue:
    """Sugeno integral of a nonnegative profile: join over ranks of
    f_(i) meet v({(i),...,(n)})."""
    _check_pair(v, f)
    if not f.is_nonnegative:
        raise ValueError("plain Sugeno integral needs nonnegative scores")
    return v.scale.value(_sugeno_grade(v, [x.signed for x in f.scores]))


def _sugeno_grade(v: Capacity, scores: Sequence[Number]) -> Number:
    """:func:`sugeno` on the signed grades of a nonnegative profile: each
    score meets the capacity of its upper set under an ascending ranking,
    and the largest meet is the integral.  A tie's order changes no meet
    that can win, so any ascending ranking serves."""
    order = _ascending(scores)
    table = v.table
    return max(
        min(scores[i], table[upper].signed)
        for i, upper in zip(order, rank_sets(order, 0))
    )


def sugeno_mobius(m: SetFunction, f: Profile) -> ScaleValue:
    """Sugeno integral from a nonnegative transform in the interval:
    join over nonempty A of  m(A) meet min of f over A.  The value does not
    depend on the representative chosen in the interval."""
    _check_pair(m, f)
    if not f.is_nonnegative:
        raise ValueError("plain Sugeno integral needs nonnegative scores")
    weights = _transform_weights(m)
    return m.scale.value(_mobius_grade(weights, _signed_minima(f)[0]))


def _mobius_grade(weights: Sequence[Number], minima: Sequence[Number]) -> Number:
    """:func:`sugeno_mobius` on a member's signed weights and the min of the
    (nonnegative) profile over each mask, both in mask order."""
    return max(map(min, weights[1:], minima[1:]))


def _transform_weights(m: SetFunction) -> list[Number]:
    """The signed weights of a transform representative, in mask order,
    which must be nonnegative."""
    weights = [w.signed for w in m.table]
    if min(weights) < 0:
        raise ValueError("transform representatives are nonnegative")
    return weights


def _signed_minima(f: Profile) -> tuple[list[Number], list[Number]]:
    """min f+ and min f- over each mask, in mask order: what the transform
    forms read of a profile, whatever the member.  Every min lies under the
    top, which stands at the empty mask."""
    plus, minus = _parts([x.signed for x in f.scores])
    top = f.scale.one.signed
    return fold_members(plus, min, top), fold_members(minus, min, top)


def _transform_args(
    m: SetFunction, f: Profile
) -> tuple[list[Number], list[Number], list[Number]]:
    """Check the pair, then read the member's weights and the profile's minima."""
    _check_pair(m, f)
    return (_transform_weights(m), *_signed_minima(f))


def _parts(scores: Sequence[Number]) -> tuple[list[Number], list[Number]]:
    """The gains max(f, 0) and the losses max(-f, 0) of signed scores."""
    return [x if x > 0 else 0 for x in scores], [-x if x < 0 else 0 for x in scores]


def sugeno_symmetric(v: Capacity, f: Profile) -> ScaleValue:
    """Symmetric Sugeno integral: S(f+) sym-maxed with the reflection of
    S(f-)."""
    _check_pair(v, f)
    plus, minus = _parts([x.signed for x in f.scores])
    gain, loss = _sugeno_grade(v, plus), _sugeno_grade(v, minus)
    return v.scale.value(_sym_max_signed(gain, -loss))


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
    order, p, terms = _ranked_grades(v, f)
    return order, p, list(map(v.scale.value, terms))


def _ranked_grades(v: Capacity, f: Profile) -> tuple[list[int], int, list[Number]]:
    """:func:`ranked_terms` with the terms as signed grades."""
    _check_pair(v, f)
    table = v.table

    def chain(players: list[int], magnitude) -> list[int]:
        picked = []
        mask = 0
        remaining = list(players)
        while remaining:
            top = max(magnitude(i) for i in remaining)
            block = [i for i in remaining if magnitude(i) == top]
            j = min(block, key=lambda i: (table[mask | (1 << i)].signed, i))
            remaining.remove(j)
            mask |= 1 << j
            picked.append(j)
        return picked

    scores = [x.signed for x in f.scores]
    negatives = [i for i in range(v.n) if scores[i] < 0]
    others = [i for i in range(v.n) if scores[i] >= 0]
    order = (
        chain(negatives, lambda i: -scores[i])
        + chain(others, scores.__getitem__)[::-1]
    )
    return [j + 1 for j in order], len(negatives), _rank_grades(v, scores, order)


def _rank_grades(
    v: Capacity, scores: Sequence[Number], order: Sequence[int]
) -> list[Number]:
    """Explicit-form terms, as signed grades, under one ranking of the
    players (0-based ids, ascending scores, negative block first)."""
    p = sum(1 for x in scores if x < 0)
    table = v.table
    return [
        _clip(scores[i], table[mask].signed)
        for i, mask in zip(order, rank_sets(order, p))
    ]


def _ascending(scores: Sequence[Number]) -> list[int]:
    """The players 0..n-1 ranked by ascending score, ties by index."""
    return sorted(range(len(scores)), key=scores.__getitem__)


# the rule each Sugeno output folds its terms under; compute reads it too
FOLD_RULES = {
    "sugeno": Rule.FLOOR, "sugeno_sym": Rule.FLOOR,
    "v1": Rule.ANGLE, "v2": Rule.ANGLE, "v3": Rule.CEIL,
}


def sugeno_symmetric_explicit(v: Capacity, f: Profile) -> ScaleValue:
    """One-pass form of the symmetric Sugeno integral: the floor fold of
    the explicit terms, which folds the negative block and the nonnegative
    block separately, then combines."""
    terms = _ranked_grades(v, f)[2]
    return v.scale.value(_fold_signed(terms, FOLD_RULES["sugeno_sym"]))


def variant1_terms(m: SetFunction, f: Profile) -> list[ScaleValue]:
    """All transform terms m(A) meet-sym [min f+ over A sym-max reflected
    min f- over A], for nonempty A in mask order, block structure
    ignored."""
    return list(map(m.scale.value, _variant1_kernel(*_transform_args(m, f))))


def _variant1_kernel(
    weights: Sequence[Number], gains: Sequence[Number], losses: Sequence[Number]
) -> list[Number]:
    """The transform terms on a member's signed weights and the profile's
    :func:`_signed_minima`."""
    return [
        # m(A) sym-min (gain sym-max -loss), where m(A) >= 0
        _clip(_sym_max_signed(gain, -loss), w)
        for w, gain, loss in zip(weights[1:], gains[1:], losses[1:])
    ]


def symmetric_mobius_blocks(
    m: SetFunction, f: Profile
) -> tuple[ScaleValue, ScaleValue, ScaleValue]:
    """The three folds of the transform form of the symmetric integral,
    split by where A sits: inside the nonnegative players, inside the
    negative players, or across both (that block is identically 0).  Each
    block is a sym-max fold of signed grades in mask order."""
    return tuple(map(m.scale.value, _blocks_kernel(*_transform_args(m, f))))


def _blocks_kernel(
    weights: Sequence[Number], gains: Sequence[Number], losses: Sequence[Number]
) -> list[Number]:
    """:func:`symmetric_mobius_blocks` as signed grades, on a member's
    signed weights and the profile's :func:`_signed_minima`.  A player is
    negative exactly when the loss of its singleton is positive."""
    top = len(weights) - 1  # the full set
    n_minus = sum(1 << i for i in range(top.bit_length()) if losses[1 << i])
    n_plus = top ^ n_minus
    blocks = [0] * 3  # inside f+, inside f-, mixed
    for mask, term in enumerate(_variant1_kernel(weights, gains, losses), 1):
        block = 0 if mask & n_minus == 0 else 1 if mask & n_plus == 0 else 2
        blocks[block] = _sym_max_signed(blocks[block], term)
    return blocks


def sugeno_symmetric_mobius(m: SetFunction, f: Profile) -> ScaleValue:
    """Transform form of the symmetric Sugeno integral: combine the three
    blocks of :func:`symmetric_mobius_blocks` with the symmetric maximum."""
    inside_plus, inside_minus, mixed = symmetric_mobius_blocks(m, f)
    return sym_max(sym_max(inside_plus, inside_minus), mixed)


def _symmetric_mobius_grade(
    weights: Sequence[Number], gains: Sequence[Number], losses: Sequence[Number]
) -> Number:
    """:func:`sugeno_symmetric_mobius` as a signed grade, on a member's
    signed weights and the profile's :func:`_signed_minima`."""
    inside_plus, inside_minus, mixed = _blocks_kernel(weights, gains, losses)
    return _sym_max_signed(_sym_max_signed(inside_plus, inside_minus), mixed)


def sugeno_variant1(m: SetFunction, f: Profile) -> ScaleValue:
    """First alternative symmetric integral: fold every transform term under
    the angle rule instead of splitting into sign-homogeneous blocks."""
    terms = _variant1_kernel(*_transform_args(m, f))
    return m.scale.value(_fold_signed(terms, FOLD_RULES["v1"]))


def sugeno_variant2(v: Capacity, f: Profile) -> ScaleValue:
    """Second alternative: fold the explicit-form terms under the angle
    rule.  Not monotone, and players tied in both score and capacity value
    are ranked by index, so numbering them otherwise can change the value."""
    terms = _ranked_grades(v, f)[2]
    return v.scale.value(_fold_signed(terms, FOLD_RULES["v2"]))


def variant3_terms(v: Capacity, f: Profile) -> list[ScaleValue]:
    """Per-player threshold terms: a player with a positive score gets the
    best value of  y meet v({j : f_j >= y})  over positive thresholds y up
    to its own score, which is S(f+) clipped at that score; a negative
    score gets the reflection of S(f-) clipped at its magnitude; a zero
    score contributes 0.  Terms are listed in player order.  Raising any
    score can only raise every term, which is what the ceil fold needs to
    stay monotone; the rank-based terms of :func:`ranked_terms` lack that
    property."""
    return list(map(v.scale.value, _variant3_grades(v, f)))


def _variant3_grades(v: Capacity, f: Profile) -> list[Number]:
    """:func:`variant3_terms` as signed grades."""
    _check_pair(v, f)
    scores = [x.signed for x in f.scores]
    # under any ascending ranking, the floor survivors of the explicit terms
    # are -S(f-) and S(f+): a Sugeno integral ignores the order inside a tie
    terms = _rank_grades(v, scores, _ascending(scores))
    low, high = _survivors(terms, Rule.FLOOR)
    return [min(x, high) if x >= 0 else max(x, low) for x in scores]


def sugeno_variant3(v: Capacity, f: Profile) -> ScaleValue:
    """Third alternative: fold the per-player threshold terms under the
    ceil rule.  Monotone in the profile, which the rank-based ceil fold is
    not, and more discriminating than the floor-based combine."""
    return v.scale.value(_fold_signed(_variant3_grades(v, f), FOLD_RULES["v3"]))
