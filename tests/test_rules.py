"""Fold disambiguation rules for the symmetric maximum."""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symsug import Rule, ScaleError, fold_sym_max, levels_scale, sym_max, unit_scale
from symsug.rules import _fold_signed, is_fold_unambiguous

L3 = levels_scale(3)
L5 = levels_scale(5)
UNIT = unit_scale()


def grades(scale, raw):
    return [scale.value(g) for g in raw]


def grade_lists(k=3, max_size=6):
    scale = levels_scale(k)
    return st.lists(
        st.integers(min_value=-k, max_value=k).map(scale.value),
        max_size=max_size,
    )


# -- ambiguity test ------------------------------------------------------------


def test_unambiguous_when_extremes_do_not_cancel():
    assert is_fold_unambiguous(grades(L3, [3, 1, -2]))
    assert not is_fold_unambiguous(grades(L3, [3, 1, -3]))
    assert is_fold_unambiguous(grades(L3, [0, 0]))
    assert is_fold_unambiguous([])
    assert is_fold_unambiguous([L3.value(3)])


@given(grade_lists())
def test_rules_agree_with_plain_fold_when_unambiguous(values):
    if not is_fold_unambiguous(values) or not values:
        return
    plain = reduce(sym_max, values)
    for rule in Rule:
        assert fold_sym_max(values, rule) == plain


# -- the three rules on one ambiguous multiset ----------------------------------


def test_three_rules_three_answers():
    values = grades(L3, [3, 3, 3, 2, 1, 0, -2, -3, -3])
    assert fold_sym_max(values, Rule.FLOOR) == L3.zero
    assert fold_sym_max(values, Rule.CEIL) == L3.value(3)
    assert fold_sym_max(values, Rule.ANGLE) == L3.value(1)


def test_same_answers_on_the_embedded_unit_scale():
    values = [UNIT.value(Fraction(g, 3)) for g in (3, 3, 3, 2, 1, 0, -2, -3, -3)]
    assert fold_sym_max(values, Rule.FLOOR) == UNIT.zero
    assert fold_sym_max(values, Rule.CEIL) == UNIT.value(Fraction(1))
    assert fold_sym_max(values, Rule.ANGLE) == UNIT.value(Fraction(1, 3))


def test_floor_splits_by_sign():
    values = grades(L3, [2, -3, 1, -1])
    # nonnegative side folds to 2, negative side to -3, combined -3
    assert fold_sym_max(values, Rule.FLOOR) == L3.value(-3)


def test_ceil_removes_one_pair_per_step():
    values = grades(L3, [3, 3, -3])
    assert fold_sym_max(values, Rule.CEIL) == L3.value(3)
    values = grades(L3, [3, 3, -3, -3])
    assert fold_sym_max(values, Rule.CEIL) == L3.zero


def test_angle_removes_every_copy_of_the_extremes():
    values = grades(L3, [3, 3, -3, 1])
    assert fold_sym_max(values, Rule.ANGLE) == L3.value(1)
    values = grades(L3, [3, 3, -3])
    assert fold_sym_max(values, Rule.ANGLE) == L3.zero


def test_angle_can_drop_when_a_score_rises():
    before = grades(L5, [-5, -5, -1, 2, 5])
    after = grades(L5, [-5, -4, -1, 2, 5])
    assert fold_sym_max(before, Rule.ANGLE) == L5.value(2)
    assert fold_sym_max(after, Rule.ANGLE) == L5.value(-4)


# -- generic fold behavior -------------------------------------------------------


def test_empty_fold_is_zero_and_needs_a_scale():
    assert fold_sym_max([], Rule.FLOOR, scale=L3) == L3.zero
    with pytest.raises(ScaleError):
        fold_sym_max([], Rule.FLOOR)


def test_mixed_scale_fold_rejected():
    with pytest.raises(ScaleError):
        fold_sym_max([L3.value(1), L5.value(1)], Rule.FLOOR)
    with pytest.raises(ScaleError):
        fold_sym_max([L3.value(1)], Rule.FLOOR, scale=L5)


@given(grade_lists(), st.randoms(use_true_random=False))
def test_folds_ignore_input_order(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    for rule in Rule:
        assert fold_sym_max(values, rule, scale=L3) == fold_sym_max(
            shuffled, rule, scale=L3
        )


@given(grade_lists())
def test_folds_commute_with_reflection(values):
    reflected = [-a for a in values]
    for rule in Rule:
        assert fold_sym_max(reflected, rule, scale=L3) == -fold_sym_max(
            values, rule, scale=L3
        )


@given(grade_lists(max_size=5))
def test_floor_and_ceil_rise_with_the_multiset(values):
    if not values:
        return
    for i in range(len(values)):
        if values[i].signed == 3:
            continue
        bumped = list(values)
        bumped[i] = L3.value(values[i].signed + 1)
        for rule in (Rule.FLOOR, Rule.CEIL):
            assert fold_sym_max(bumped, rule) >= fold_sym_max(values, rule)


def test_singleton_fold_is_identity():
    for rule in Rule:
        assert fold_sym_max([L3.value(-2)], rule) == L3.value(-2)


def test_a_rule_prints_as_its_name():
    assert str(Rule.FLOOR) == "floor"
    assert [str(rule) for rule in Rule] == ["floor", "ceil", "angle"]


def test_an_unknown_rule_is_a_type_error():
    with pytest.raises(TypeError, match="unknown rule"):
        fold_sym_max([L3.value(1)], "ceil")
    with pytest.raises(TypeError, match="unknown rule"):
        _fold_signed([1], "ceil")


# -- both folds against the fold written on scale values --------------------------


def _reference_fold(values, rule, scale):
    """The fold by its definition, on scale values: floor splits by sign,
    ceil deletes one maximal opposite pair at a time, angle deletes every
    copy of it, and what is left folds unambiguously."""
    items = list(values)
    if rule is Rule.FLOOR:
        nonneg = [a for a in items if a.sign >= 0]
        negative = [a for a in items if a.sign < 0]
        high = max(nonneg) if nonneg else scale.zero
        low = min(negative) if negative else scale.zero
        return sym_max(high, low)
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


@st.composite
def tied_multisets(draw):
    """A scale and up to eight of its values, with ties and opposite pairs
    forced by copying or reflecting earlier draws."""
    scale = draw(st.sampled_from((L3, L5, UNIT)))
    if scale is UNIT:
        fresh = st.fractions(-1, 1, max_denominator=6).map(scale.value)
    else:
        fresh = st.integers(-scale.levels, scale.levels).map(scale.value)
    values = []
    for _ in range(draw(st.integers(0, 8))):
        how = draw(st.sampled_from(("fresh", "tie", "opposite")))
        if how == "fresh" or not values:
            values.append(draw(fresh))
        else:
            earlier = draw(st.sampled_from(values))
            values.append(earlier if how == "tie" else -earlier)
    return scale, values


@settings(max_examples=500)
@given(tied_multisets())
@example((L3, []))
@example((UNIT, []))
# several copies of both opposite extremes, then of the next pair
@example((L3, grades(L3, [3, -3, 3, -2, 3, -3, 2, -2, 1])))
@example((L5, grades(L5, [-5, 5, -5, -5, 5, 4, -4, -4, 0, 0])))
def test_the_signed_fold_matches_the_scale_value_fold(drawn):
    scale, values = drawn
    for rule in Rule:
        expected = _reference_fold(values, rule, scale)
        assert fold_sym_max(values, rule, scale=scale) == expected
        assert _fold_signed([a.signed for a in values], rule) == expected.signed
