"""Computation rules for iterated symmetric maxima.

The symmetric maximum is associative on a multiset only when its plain max
and min are not opposites.  When they are, the fold is ambiguous and a
computation rule must say which value the expression denotes.  Three rules
are provided:

* ``floor``: aggregate the nonnegative and negative parts separately, then
  combine the two partial results (cancellation happens once, at the top).
* ``ceil``: repeatedly delete one occurrence of the maximum together with
  one occurrence of its opposite minimum until the multiset is unambiguous.
* ``angle``: delete every occurrence of such a maximal opposite pair, again
  until the multiset is unambiguous.

Every rule leaves two partial results, and the fold is their symmetric
maximum.  One kernel computes them on signed numbers for every fold.

All three agree with the plain fold on unambiguous multisets, are invariant
under reordering, and commute with reflection.  Floor and ceil are monotone;
angle is not.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from .scale import (
    Number,
    ScaleValue,
    SymmetricScale,
    _sym_max_signed,
    check_scale,
    sym_max,
)


class Rule(enum.Enum):
    """Disambiguation rule for symmetric-maximum folds."""

    FLOOR = "floor"
    CEIL = "ceil"
    ANGLE = "angle"

    def __str__(self) -> str:
        return self.value


def is_fold_unambiguous(values: Iterable[ScaleValue]) -> bool:
    """True when every way of parenthesizing the symmetric-maximum fold of
    ``values`` gives the same result: the multiset has at most one element,
    or its maximum is not the opposite of its minimum."""
    items = list(values)
    if len(items) <= 1:
        return True
    check_scale(None, items)
    top = max(items)
    # an all-zero multiset cancels against itself harmlessly
    return top.signed != -min(items).signed or top.sign == 0


def fold_sym_max(
    values: Iterable[ScaleValue],
    rule: Rule,
    *,
    scale: SymmetricScale | None = None,
) -> ScaleValue:
    """Fold a multiset with the symmetric maximum under the given rule.

    ``scale`` is only consulted for the empty multiset, whose fold is 0; it
    is required in that case and otherwise must agree with the values.
    """
    items = list(values)
    scale = check_scale(scale, items)
    low, high = _survivors([a.signed for a in items], rule)
    return sym_max(scale.value(high), scale.value(low))


def _fold_signed(values: Iterable[Number], rule: Rule) -> Number:
    """:func:`fold_sym_max` on the signed numbers of a multiset's values;
    the empty fold is 0.  The kernels fold raw grades through this and
    wrap the result once."""
    low, high = _survivors(values, rule)
    return _sym_max_signed(high, low)


def _survivors(items: Iterable[Number], rule: Rule) -> tuple[Number, Number]:
    """The two partial results ``rule`` leaves of a multiset of signed
    numbers, as ``(low, high)``; the fold is their symmetric maximum.  They
    are the least and greatest elements left of the multiset with a 0
    added.  Floor deletes nothing, so they are the meet of the negative part
    and the join of the nonnegative part, 0 for an empty part.  Ceil and
    angle delete opposite extremes until the extremes are not opposite;
    they never delete the 0, which changes no fold and is what is left
    when everything else cancels."""
    if not isinstance(rule, Rule):
        raise TypeError(f"unknown rule: {rule!r}")
    items = sorted([0, *items])
    # what is left is items[low:high + 1]; the 0 stops both indices
    low, high = 0, len(items) - 1
    if rule is not Rule.FLOOR:
        while items[high] == -items[low] != 0:
            if rule is Rule.ANGLE:
                top = items[high]
                while items[high] == top:
                    high -= 1
                while items[low] == -top:
                    low += 1
            else:
                low, high = low + 1, high - 1
    return items[low], items[high]

