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

All three agree with the plain fold on unambiguous multisets, are invariant
under reordering, and commute with reflection.  Floor and ceil are monotone;
angle is not.
"""

from __future__ import annotations

import enum
from typing import Iterable

from .scale import ScaleError, ScaleValue, SymmetricScale, _scale_of, check_scale, sym_max


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
    _common_scale(items, None)
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
    scale = _common_scale(items, scale)
    if rule is Rule.FLOOR:
        nonneg = [a for a in items if a.sign >= 0]
        negative = [a for a in items if a.sign < 0]
        high = max(nonneg) if nonneg else scale.zero
        low = min(negative) if negative else scale.zero
        return sym_max(high, low)
    if rule is not Rule.CEIL and rule is not Rule.ANGLE:
        raise TypeError(f"unknown rule: {rule!r}")
    items.sort()
    while len(items) >= 2 and items[-1].signed == -items[0].signed != 0:
        if rule is Rule.ANGLE:
            top = items[-1].signed
            items = [a for a in items if abs(a.signed) != top]
        else:
            del items[-1], items[0]
    if not items:
        return scale.zero
    # an unambiguous multiset folds to its element of largest magnitude
    low, high = items[0], items[-1]
    return high if high.signed >= -low.signed else low


def _common_scale(
    items: list[ScaleValue], scale: SymmetricScale | None
) -> SymmetricScale:
    if scale is None:
        if not items:
            raise ScaleError("empty fold needs an explicit scale")
        return _scale_of(items)
    check_scale(scale, items)
    return scale
