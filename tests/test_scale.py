"""Scale values and the signed max/min algebra."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symsug import (
    Capacity,
    OffScaleError,
    Profile,
    Rule,
    ScaleError,
    ScaleValue,
    SetFunction,
    fold_sym_max,
    levels_scale,
    necessity_measure,
    ordinal_mobius_interval,
    possibility_measure,
    sugeno,
    sym_max,
    sym_min,
    unit_scale,
)
from symsug.mobius import is_solution, mobius_necessity, mobius_possibility
from symsug.rules import is_fold_unambiguous
from symsug.scale import MAX_UNIT_EXPONENT, MAX_UNIT_TEXT

UNIT = unit_scale()
L3 = levels_scale(3)


def unit_values():
    return st.fractions(min_value=-1, max_value=1).map(UNIT.value)


def grades(k=3):
    scale = levels_scale(k)
    return st.integers(min_value=-k, max_value=k).map(scale.value)


# -- construction and representation ------------------------------------------


def test_levels_scale_enumerates_symmetric_range():
    got = [x.signed for x in L3.signed_values()]
    assert got == list(range(-3, 4))
    assert [x.signed for x in L3.nonnegative_values()] == [0, 1, 2, 3]


def test_unit_scale_is_not_enumerable():
    with pytest.raises(ScaleError):
        list(UNIT.signed_values())


def test_minus_zero_collapses():
    assert -L3.zero == L3.zero
    assert -UNIT.zero == UNIT.zero


def test_off_scale_values_rejected():
    with pytest.raises(OffScaleError):
        L3.value(4)
    with pytest.raises(OffScaleError):
        UNIT.value(Fraction(7, 5))


def test_levels_values_are_integer_grades():
    with pytest.raises(ScaleError):
        ScaleValue(L3, Fraction(1, 2))
    with pytest.raises(ScaleError):
        ScaleValue(L3, True)


def test_unit_values_reject_binary_floats():
    with pytest.raises(ScaleError):
        ScaleValue(UNIT, 0.3)


def test_unit_values_reject_booleans():
    # bool is an int subclass; levels scales and problem files reject it too
    with pytest.raises(ScaleError, match="bad unit-scale value: bool"):
        ScaleValue(UNIT, True)
    with pytest.raises(ScaleError):
        UNIT.value(False)
    with pytest.raises(ScaleError):
        Capacity.from_values(1, UNIT, [0, True])
    with pytest.raises(ScaleError):
        Profile.from_values(UNIT, [True])


def test_unit_text_is_bounded_before_a_fraction_is_built():
    at_limit = "0." + "1" * (MAX_UNIT_TEXT - 2)
    assert UNIT.parse(at_limit) == UNIT.value(Fraction(at_limit))
    assert UNIT.parse(f" {at_limit} ") == UNIT.parse(at_limit)
    too_long = f"bad unit-scale value: over {MAX_UNIT_TEXT} characters"
    with pytest.raises(ScaleError, match=too_long):
        UNIT.parse(at_limit + "1")
    tiny = Fraction(1, 10**MAX_UNIT_EXPONENT)
    assert UNIT.parse(f"1e-{MAX_UNIT_EXPONENT}") == UNIT.value(tiny)
    assert UNIT.parse(f"-1E-{MAX_UNIT_EXPONENT}") == UNIT.value(-tiny)
    for text in (f"1e-{MAX_UNIT_EXPONENT + 1}", "1e-1000000", "1e+1_001"):
        with pytest.raises(ScaleError, match="bad unit-scale value"):
            UNIT.parse(text)


def test_labelled_scale_parse_format_roundtrip():
    scale = levels_scale(2, ("none", "some", "all"))
    assert str(scale.value(-2)) == "-all"
    assert scale.parse("-all") == scale.value(-2)
    assert scale.parse("none") == scale.zero
    with pytest.raises(ScaleError):
        scale.parse("most")


def test_unlabelled_grades_round_trip_on_a_huge_scale():
    big = levels_scale(10**6)
    for grade in (0, 1, 10**6, -(10**6)):
        assert str(big.value(grade)) == str(grade)
        assert big.parse(str(grade)) == big.value(grade)


@pytest.mark.parametrize("text", ["01", "+1", "١", "1000001", "", "-"])
def test_unlabelled_grades_must_be_canonical_ascii_decimals(text):
    # ١ is ARABIC-INDIC DIGIT ONE, which int() would accept
    with pytest.raises(ScaleError, match="unknown level label"):
        levels_scale(10**6).parse(text)


def test_labels_are_presentation_only():
    labelled = levels_scale(2, ("lo", "mid", "hi"))
    assert labelled == levels_scale(2)
    assert labelled.value(1) == levels_scale(2).value(1)


def test_bad_labels_rejected():
    with pytest.raises(ScaleError):
        levels_scale(2, ("a", "b"))  # wrong count
    with pytest.raises(ScaleError):
        levels_scale(1, ("x", "x"))
    with pytest.raises(ScaleError):
        levels_scale(1, ("ok", "-bad"))


def test_unit_format_prefers_terminating_decimals():
    assert str(UNIT.value(Fraction(3, 10))) == "0.3"
    assert str(UNIT.value(Fraction(-1, 4))) == "-0.25"
    assert str(UNIT.value(Fraction(1, 3))) == "1/3"


@given(st.fractions(min_value=-1, max_value=1))
def test_unit_parse_format_roundtrip(q):
    value = UNIT.value(q)
    assert UNIT.parse(str(value)) == value


def test_scales_do_not_mix():
    with pytest.raises(ScaleError):
        sym_max(L3.value(1), levels_scale(2).value(1))
    with pytest.raises(ScaleError):
        L3.value(1) < UNIT.value(Fraction(1, 2))


L2 = levels_scale(2)
MIXED_SCALE_SITES = {
    "sym_max": lambda: sym_max(L2.value(1), L3.value(1)),
    "sym_min": lambda: sym_min(L2.value(1), L3.value(1)),
    "<": lambda: L2.value(1) < L3.value(1),
    "fold_sym_max": lambda: fold_sym_max([L2.value(1), L3.value(1)], Rule.CEIL),
    "SetFunction": lambda: SetFunction(1, L2, (L2.zero, L3.value(1))),
    "Profile": lambda: Profile(L2, (L2.value(1), L3.value(1))),
    "Capacity.from_values": lambda: Capacity.from_values(1, L2, [L2.zero, L3.one]),
    "possibility_measure": lambda: possibility_measure([L2.one, L3.one]),
    "format": lambda: L2.format(L3.value(1)),
    "negate": lambda: L2.negate(L3.value(1)),
    # two containers on different scales
    "integral": lambda: sugeno(
        Capacity.from_values(1, L2, [0, 2]), Profile.from_values(L3, [1])
    ),
    "pointwise_sym_max": lambda: SetFunction.from_values(1, L2, [0, 1]).pointwise_sym_max(
        SetFunction.from_values(1, L3, [0, 1])
    ),
    "MobiusInterval.contains": lambda: ordinal_mobius_interval(
        Capacity.from_values(1, L2, [0, 2])
    ).contains(SetFunction.from_values(1, L3, [0, 2])),
    "is_solution": lambda: is_solution(
        Capacity.from_values(1, L2, [0, 2]),
        SetFunction.from_values(1, L3, [0, 2]),
        Rule.FLOOR,
    ),
    # raw numbers passed as values
    "sym_max(raw, value)": lambda: sym_max(1, L2.value(1)),
    "sym_max(value, raw)": lambda: sym_max(L2.value(1), 1),
    "sym_min(raw, value)": lambda: sym_min(1, L2.value(1)),
    "sym_min(value, raw)": lambda: sym_min(L2.value(1), 1),
    "fold_sym_max(raw)": lambda: fold_sym_max([1, 2], Rule.CEIL),
    "is_fold_unambiguous(raw)": lambda: is_fold_unambiguous([1, 2]),
    "possibility_measure(raw)": lambda: possibility_measure([2, 1]),
    "necessity_measure(raw)": lambda: necessity_measure([2, 1]),
    "mobius_possibility(raw)": lambda: mobius_possibility([2, 1]),
    "mobius_necessity(raw)": lambda: mobius_necessity([2, 1]),
}


@pytest.mark.parametrize("site", MIXED_SCALE_SITES)
def test_every_site_reports_a_mixed_scale_the_same_way(site):
    with pytest.raises(ScaleError, match="value belongs to a different scale"):
        MIXED_SCALE_SITES[site]()


# -- negation, reflection, sign ------------------------------------------------


def test_order_reversing_negation():
    assert L3.negate(L3.zero) == L3.one
    assert L3.negate(L3.value(1)) == L3.value(2)
    assert UNIT.negate(UNIT.value(Fraction(1, 4))) == UNIT.value(Fraction(3, 4))
    with pytest.raises(ScaleError):
        L3.negate(L3.value(-1))


@given(grades())
def test_reflection_is_an_involution(a):
    assert -(-a) == a


@given(grades())
def test_absolute_and_sign(a):
    assert abs(a).signed == abs(a.signed)


# -- the symmetric maximum -----------------------------------------------------


def test_sym_max_keeps_the_larger_magnitude():
    assert sym_max(L3.value(-3), L3.value(2)) == L3.value(-3)
    assert sym_max(L3.value(3), L3.value(-2)) == L3.value(3)


def test_sym_max_opposites_cancel():
    assert sym_max(L3.value(2), L3.value(-2)) == L3.zero


def test_sym_max_is_plain_max_on_one_side():
    assert sym_max(L3.value(1), L3.value(2)) == L3.value(2)
    assert sym_max(L3.value(-1), L3.value(-2)) == L3.value(-2)


@given(unit_values(), unit_values())
def test_sym_max_commutes(a, b):
    assert sym_max(a, b) == sym_max(b, a)


@given(unit_values(), unit_values())
def test_sym_max_closed_form(a, b):
    # independent sign-based formula for the same operation
    x, y = a.signed, b.signed
    if abs(x) > abs(y):
        expected = x
    elif abs(x) < abs(y):
        expected = y
    else:
        expected = x if x == y else 0
    assert sym_max(a, b).signed == expected


@given(grades())
def test_zero_is_neutral_for_sym_max(a):
    assert sym_max(a, a.scale.zero) == a


# -- the symmetric minimum -----------------------------------------------------


def test_sym_min_takes_smaller_magnitude():
    assert sym_min(L3.value(-3), L3.value(2)) == L3.value(-2)
    assert sym_min(L3.value(3), L3.value(-2)) == L3.value(-2)
    assert sym_min(L3.value(3), L3.value(2)) == L3.value(2)
    # reflection pulls out of one slot at a time, so two of them cancel
    assert sym_min(L3.value(-3), L3.value(-2)) == L3.value(2)


@given(unit_values(), unit_values())
def test_sym_min_commutes(a, b):
    assert sym_min(a, b) == sym_min(b, a)


@given(unit_values(), unit_values())
def test_sym_min_closed_form(a, b):
    x, y = a.signed, b.signed
    magnitude = min(abs(x), abs(y))
    expected = -magnitude if (x > 0) != (y > 0) and x * y != 0 else magnitude
    assert sym_min(a, b).signed == expected


@given(grades(), grades(), grades())
def test_sym_min_associates(a, b, c):
    assert sym_min(sym_min(a, b), c) == sym_min(a, sym_min(b, c))


@given(grades())
def test_zero_absorbs_sym_min(a):
    assert sym_min(a, a.scale.zero) == a.scale.zero


@given(grades(), grades())
def test_reflection_distributes(a, b):
    assert -sym_max(a, b) == sym_max(-a, -b)
    assert -sym_min(a, b) == sym_min(-a, b)
    assert sym_min(-a, -b) == sym_min(a, b)


def test_sym_max_association_can_fail_after_a_cancellation():
    a, b, c = L3.value(-3), L3.value(3), L3.value(2)
    left = sym_max(sym_max(a, b), c)
    right = sym_max(a, sym_max(b, c))
    assert left == L3.value(2)
    assert right == L3.zero
    assert left != right


def test_interned_grades_compare_equal_to_fresh_values():
    assert L3.value(2) is L3.value(2)
    assert L3.value(2) == ScaleValue(L3, 2)
