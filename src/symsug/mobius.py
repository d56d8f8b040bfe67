"""Moebius transforms of set functions, classical and ordinal.

The classical transform is the alternating-sum inverse of the subset-sum
zeta operator on rational-valued tables.  Its ordinal counterpart replaces
sum by symmetric maximum: a transform of a capacity v is any nonnegative
table m solving  v(A) = fold of { m(B) : B subset of A }  under a
computation rule.  For capacities the nonnegative solution set is exactly
an interval [lower, upper] of tables, computed here in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .capacity import (
    Capacity,
    SetFunction,
    _check_pair,
    _dense_table,
    covers_of,
    full_set,
    iter_submasks,
    subsets,
)
from .rules import Rule, fold_sym_max
from .scale import ScaleValue, _scale_of, sym_max, sym_min


# -- classical transform on rational tables ----------------------------------


@dataclass(frozen=True)
class RealSetFunction:
    """A dense rational-valued table over all subsets of {1..n}."""

    n: int
    table: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        table = tuple(Fraction(x) for x in _dense_table(self.n, self.table))
        object.__setattr__(self, "table", table)

    def __call__(self, mask: int) -> Fraction:
        return self.table[mask]


def classical_mobius(v: RealSetFunction) -> RealSetFunction:
    """m(A) = sum over B subset of A of (-1)^|A minus B| v(B)."""
    table = []
    for mask in subsets(v.n):
        size = mask.bit_count()
        acc = Fraction(0)
        for sub in iter_submasks(mask):
            acc += -v(sub) if (size - sub.bit_count()) % 2 else v(sub)
        table.append(acc)
    return RealSetFunction(v.n, tuple(table))


def classical_zeta(m: RealSetFunction) -> RealSetFunction:
    """Inverse of :func:`classical_mobius`: v(A) = sum of m over subsets of A."""
    table = []
    for mask in subsets(m.n):
        table.append(sum(m(sub) for sub in iter_submasks(mask)))
    return RealSetFunction(m.n, tuple(table))


def real_conjugate(v: RealSetFunction) -> RealSetFunction:
    """A -> 1 - v(complement of A)."""
    top = full_set(v.n)
    return RealSetFunction(v.n, tuple(1 - v(top ^ mask) for mask in subsets(v.n)))


# -- ordinal transform -------------------------------------------------------


@dataclass(frozen=True)
class MobiusInterval:
    """The interval of nonnegative ordinal Moebius transforms of a capacity.

    A nonnegative table m reproduces the capacity via subset folds exactly
    when lower(A) <= m(A) <= upper(A) for every subset A.
    """

    lower: SetFunction
    upper: SetFunction

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
    cover A minus {i} and is 0 elsewhere."""
    zero = v.scale.zero
    lower = []
    for mask in subsets(v.n):
        value = v(mask)
        if all(v(below) < value for below in covers_of(mask)):
            lower.append(value)
        else:
            lower.append(zero)
    return MobiusInterval(
        lower=SetFunction(v.n, v.scale, tuple(lower)),
        upper=SetFunction(v.n, v.scale, v.table),
    )


def is_solution(v: Capacity, m: SetFunction, rule: Rule) -> bool:
    """True when folding m over the subsets of each A under ``rule``
    reproduces v(A).  m may take negative values."""
    _check_pair(v, m)
    for mask in subsets(v.n):
        folded = fold_sym_max(
            (m(sub) for sub in iter_submasks(mask)), rule, scale=v.scale
        )
        if folded != v(mask):
            return False
    return True


def canonical_ordinal_mobius(g: SetFunction, rule: Rule) -> SetFunction:
    """The canonical transform  m(A) = g(A) (+)sym -[fold of g over the
    covers of A].  Defined for the floor and angle rules only; the ceil rule
    admits no solution in general and is rejected."""
    if rule is Rule.CEIL:
        raise ValueError("the ceil rule has no canonical transform")
    table = []
    for mask in subsets(g.n):
        below = fold_sym_max(
            (g(b) for b in covers_of(mask)), rule, scale=g.scale
        )
        table.append(sym_max(g(mask), -below))
    return SetFunction(g.n, g.scale, tuple(table))


def even_odd_mobius(v: Capacity) -> SetFunction:
    """Alternating-parity form of the transform: the plain join of v over
    subsets at even distance from A, symmetric-maxed with the reflected join
    over subsets at odd distance.  Coincides with the interval lower bound on
    capacities."""
    zero = v.scale.zero
    table = []
    for mask in subsets(v.n):
        size = mask.bit_count()
        even = zero
        odd = zero
        for sub in iter_submasks(mask):
            if (size - sub.bit_count()) % 2:
                odd = max(odd, v(sub))
            else:
                even = max(even, v(sub))
        table.append(sym_max(even, -odd))
    return SetFunction(v.n, v.scale, tuple(table))


def reconstruct(m: SetFunction, mask: int) -> ScaleValue:
    """Rebuild a capacity value from a transform in the interval:
    v(A) = join over all B of  m(B) min-sym u_B(A),  with u_B the game that
    is 1 on nonempty supersets of B."""
    scale = m.scale
    result = scale.zero
    for b_mask in subsets(m.n):
        weight = scale.one if mask and mask & b_mask == b_mask else scale.zero
        result = max(result, sym_min(m(b_mask), weight))
    return result


def reconstruct_from_conjugate(m_conj: SetFunction, mask: int) -> ScaleValue:
    """Rebuild v(A) from a transform of the conjugate capacity:
    n(join of m_conj over the subsets disjoint from A)."""
    scale = m_conj.scale
    outside = scale.zero
    for b_mask in subsets(m_conj.n):
        if b_mask & mask == 0:
            outside = max(outside, m_conj(b_mask))
    return scale.negate(outside)


def mobius_possibility(pi: Sequence[ScaleValue]) -> SetFunction:
    """Lower transform of the possibility measure built on ``pi``: the
    distribution itself on singletons, 0 elsewhere.  Holds for any
    distribution, ties and zeros included."""
    scale = _scale_of(pi)
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
    scale = _scale_of(pi)
    n = len(pi)
    order = sorted(range(n), key=lambda i: pi[i].signed)
    table = [scale.zero] * (1 << n)
    previous = scale.zero
    tail = full_set(n)
    for k in range(n):
        player_bit = 1 << order[k]
        if pi[order[k]] > previous:
            table[tail] = scale.negate(previous)
        previous = pi[order[k]]
        tail ^= player_bit
    return SetFunction(n, scale, tuple(table))
