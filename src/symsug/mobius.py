"""Moebius transforms of set functions, classical and ordinal.

The classical transform is the alternating-sum inverse of the subset-sum
zeta operator on rational-valued tables.  Its ordinal counterpart replaces
sum by symmetric maximum: a transform of a capacity v is any nonnegative
table m solving  v(A) = fold of { m(B) : B subset of A }  under a
computation rule.  For capacities the nonnegative solution set is exactly
an interval [lower, upper] of tables, computed here in closed form.  The
classical transform, its inverse and the even-odd form make one pass per
player through :func:`~symsug.capacity.zeta`, in O(n 2^n).  :func:`is_solution`
folds the signed grades of m over the submasks of each A, in O(3^n).
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from fractions import Fraction

from .capacity import (
    Capacity,
    SetFunction,
    _check_mask,
    _check_pair,
    _dense_table,
    _distribution_scale,
    _slice_pairs,
    covers_of,
    full_set,
    iter_submasks,
    rank_sets,
    subsets,
    zeta,
)
from .rules import Rule, _fold_signed
from .scale import ScaleValue, _clip, _exact, _Record, _sym_max_signed, _trusted


# -- classical transform on rational tables ----------------------------------


class RealSetFunction(_Record):
    """A dense rational-valued table over all subsets of {1..n}."""

    def __init__(self, n: int, table: tuple[Fraction, ...]) -> None:
        table = tuple(_exact(x) for x in _dense_table(n, table))
        self.__dict__.update(n=n, table=table)

    def __call__(self, mask: int) -> Fraction:
        return self.table[mask]


def classical_mobius(v: RealSetFunction) -> RealSetFunction:
    """m(A) = sum over B subset of A of (-1)^|A minus B| v(B), as one
    difference pass per player."""
    return RealSetFunction(v.n, tuple(zeta(v.table, operator.sub)))


def classical_zeta(m: RealSetFunction) -> RealSetFunction:
    """Inverse of :func:`classical_mobius`: v(A) = sum of m over subsets of A."""
    return RealSetFunction(m.n, tuple(zeta(m.table, operator.add)))


def real_conjugate(v: RealSetFunction) -> RealSetFunction:
    """A -> 1 - v(complement of A)."""
    top = full_set(v.n)
    return RealSetFunction(v.n, tuple(1 - v(top ^ mask) for mask in subsets(v.n)))


# -- ordinal transform -------------------------------------------------------


class MobiusInterval(_Record):
    """The interval of nonnegative ordinal Moebius transforms of a capacity.

    A nonnegative table m reproduces the capacity via subset folds exactly
    when lower(A) <= m(A) <= upper(A) for every subset A.
    """

    def __init__(self, lower: SetFunction, upper: SetFunction) -> None:
        self.__dict__.update(lower=lower, upper=upper)

    @property
    def n(self) -> int:
        return self.lower.n

    def contains(self, m: SetFunction) -> bool:
        _check_pair(self.lower, m)
        return all(
            self.lower(mask) <= m(mask) <= self.upper(mask)
            for mask in subsets(self.n)
        )


def ordinal_mobius_interval(v: Capacity) -> MobiusInterval:
    """Closed-form bounds of the nonnegative solution set: the upper bound is
    v itself; the lower bound keeps v(A) where v strictly exceeds v on every
    cover A minus {i} and is 0 elsewhere.  The largest cover of every mask
    is gathered slice by slice on the signed values."""
    signed = [x.signed for x in v.table]
    # a capacity is nonnegative, so 0 starts every maximum, and the empty
    # set, which has no cover, keeps its 0
    below = [0] * len(signed)
    for lo, hi in _slice_pairs(len(signed)):
        below[hi] = [b if b > x else x for b, x in zip(below[hi], signed[lo])]
    zero = v.scale.zero
    lower = tuple(
        x if s > cover else zero for x, s, cover in zip(v.table, signed, below)
    )
    return MobiusInterval(
        lower=_trusted(SetFunction, n=v.n, scale=v.scale, table=lower),
        upper=_trusted(SetFunction, n=v.n, scale=v.scale, table=v.table),
    )


def is_k_maxitive(v: Capacity, k: int) -> bool:
    """True when the lower interval bound of the ordinal Moebius transform
    vanishes on every subset with more than ``k`` members."""
    if k < 1:
        raise ValueError("k must be at least 1")
    lower = ordinal_mobius_interval(v).lower
    return all(
        lower(mask) == v.scale.zero
        for mask in subsets(v.n)
        if mask.bit_count() > k
    )


def is_solution(v: Capacity, m: SetFunction, rule: Rule) -> bool:
    """True when folding m over the subsets of each A under ``rule``
    reproduces v(A).  m may take negative values."""
    _check_pair(v, m)
    grades = [x.signed for x in m.table]
    for mask, x in enumerate(v.table):
        if _fold_signed([grades[sub] for sub in iter_submasks(mask)], rule) != x.signed:
            return False
    return True


def canonical_ordinal_mobius(g: SetFunction, rule: Rule) -> SetFunction:
    """The canonical transform  m(A) = g(A) (+)sym -[fold of g over the
    covers of A].  Defined for the floor and angle rules only; the ceil rule
    admits no solution in general and is rejected."""
    if rule is Rule.CEIL:
        raise ValueError("the ceil rule has no canonical transform")
    signed = [x.signed for x in g.table]
    value = g.scale.value
    table = []
    for mask, x in enumerate(signed):
        y = _fold_signed([signed[cover] for cover in covers_of(mask)], rule)
        table.append(value(_sym_max_signed(x, -y)))
    return SetFunction(g.n, g.scale, tuple(table))


def even_odd_mobius(v: Capacity) -> SetFunction:
    """Alternating-parity form of the transform: the plain join of v over
    subsets at even distance from A, symmetric-maxed with the reflected join
    over subsets at odd distance.  Coincides with the interval lower bound on
    capacities.  Both joins run one player at a time on the grades; a subset
    without the player is one step further away, so its joins swap parity."""
    swap = lambda a, b: (max(a[0], b[1]), max(a[1], b[0]))
    pairs = zeta([(x.signed, 0) for x in v.table], swap)
    value = v.scale.value
    table = tuple(value(_sym_max_signed(even, -odd)) for even, odd in pairs)
    return SetFunction(v.n, v.scale, table)


def reconstruct(m: SetFunction, mask: int) -> ScaleValue:
    """Rebuild a capacity value from a transform in the interval:
    v(A) = join over all B of  m(B) min-sym u_B(A),  with u_B the game that
    is 1 on nonempty supersets of B.  A mask outside the player set raises
    ValueError."""
    _check_mask(mask, m.n)
    top = m.scale.one.signed
    result = 0
    for b_mask, entry in enumerate(m.table):
        weight = top if mask and mask & b_mask == b_mask else 0
        result = max(result, _clip(entry.signed, weight))
    return m.scale.value(result)


def reconstruct_from_conjugate(m_conj: SetFunction, mask: int) -> ScaleValue:
    """Rebuild v(A) from a transform of the conjugate capacity:
    n(join of m_conj over the subsets disjoint from A).  A mask outside the
    player set raises ValueError."""
    _check_mask(mask, m_conj.n)
    outside = 0
    for b_mask, entry in enumerate(m_conj.table):
        if b_mask & mask == 0:
            outside = max(outside, entry.signed)
    scale = m_conj.scale
    return scale.negate(scale.value(outside))


def mobius_possibility(pi: Sequence[ScaleValue]) -> SetFunction:
    """Lower transform of the possibility measure built on ``pi``: the
    distribution itself on singletons, 0 elsewhere.  Holds for any
    distribution, ties and zeros included."""
    scale = _distribution_scale(pi)
    zero = scale.zero
    n = len(pi)
    table = [zero] * (1 << n)
    for i, p in enumerate(pi):
        table[1 << i] = p
    return SetFunction(n, scale, tuple(table))


def mobius_necessity(pi: Sequence[ScaleValue]) -> SetFunction:
    """Lower transform of the necessity measure built on ``pi``: supported on
    the tails of the distribution sorted increasingly.  The tail above
    position k carries n(pi_(k)) when pi_(k) < pi_(k+1) (taking pi_(0) = 0,
    so the full set carries 1 unless some pi vanishes); a tie kills the
    strict jump and the tail carries 0."""
    scale = _distribution_scale(pi)
    n = len(pi)
    order = sorted(range(n), key=lambda i: pi[i].signed)
    table = [scale.zero] * (1 << n)
    previous = scale.zero
    for i, tail in zip(order, rank_sets(order, 0)):
        if pi[i] > previous:
            table[tail] = scale.negate(previous)
        previous = pi[i]
    return SetFunction(n, scale, tuple(table))
