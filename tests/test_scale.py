"""Scale values and the signed max/min algebra."""

import json
from fractions import Fraction
from itertools import product
from math import gcd
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import WORKED_DOCUMENT
from symsug import (
    Capacity,
    OffScaleError,
    MobiusInterval,
    Profile,
    RealSetFunction,
    Rule,
    ScaleError,
    ScaleValue,
    SetFunction,
    SymmetricScale,
    fold_sym_max,
    levels_scale,
    load_problem,
    necessity_measure,
    ordinal_mobius_interval,
    possibility_measure,
    sugeno,
    sym_max,
    sym_min,
    unit_scale,
)
from symsug.io import Problem, ProblemOptions
from symsug.mobius import is_solution, mobius_necessity, mobius_possibility
from symsug.rules import is_fold_unambiguous
from symsug.scale import (
    MAX_UNIT_EXPONENT,
    MAX_UNIT_TEXT,
    _check_unit_text,
    _clip,
    _exact,
    _format_fraction,
    _Record,
    _sym_max_signed,
)
from symsug.verify import Law, LawResult, VerifyConfig, law_names

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
    with pytest.raises(ScaleError, match="only a levels scale is enumerable"):
        UNIT.nonnegative_values()


def test_scale_kinds_and_their_parameters():
    with pytest.raises(ScaleError, match="unknown scale kind: 'interval'"):
        SymmetricScale("interval")
    with pytest.raises(ScaleError, match="unit scale takes no grade count"):
        SymmetricScale("unit", 3)


@pytest.mark.parametrize(
    "scale, top",
    [(L3, 3), (levels_scale(2, ("low", "mid", "high")), 2), (UNIT, Fraction(1))],
)
def test_zero_and_one_are_built_once_per_scale(scale, top):
    assert scale.zero is scale.zero and scale.one is scale.one
    assert scale.zero == scale.value(0) and scale.one == scale.value(top)
    assert scale.zero.signed == 0 and scale.one.signed == top


def test_minus_zero_collapses():
    assert -L3.zero == L3.zero
    assert -UNIT.zero == UNIT.zero


def test_off_scale_values_rejected():
    with pytest.raises(OffScaleError):
        L3.value(4)
    with pytest.raises(OffScaleError):
        UNIT.value(Fraction(7, 5))


def test_the_unit_range_check_is_exact_at_both_ends():
    # the check compares the ints of the reduced ratio, so it must see the
    # sign and a step of 10^-1000 past either end
    just_over = 1 + Fraction(1, 10**1000)
    for x in (Fraction(1), Fraction(-1), 1, -1):
        assert UNIT.value(x).signed == x
    for x in (just_over, -just_over, 2, -2):
        with pytest.raises(OffScaleError, match="lies outside the scale"):
            UNIT.value(x)


@pytest.mark.parametrize(
    "raw, message",
    [
        (None, "NoneType"), (1j, "complex"), ([1], "list"), ("abc", "'abc'"),
        ("1/0", "'1/0'"),
    ],
)
def test_exact_names_what_it_cannot_read(raw, message):
    with pytest.raises(ScaleError) as caught:
        _exact(raw)
    assert str(caught.value) == f"bad unit-scale value: {message}"


def test_levels_values_are_integer_grades():
    with pytest.raises(ScaleError):
        ScaleValue(L3, Fraction(1, 2))
    with pytest.raises(ScaleError):
        ScaleValue(L3, True)


@pytest.mark.parametrize("levels", [True, False, 0, -1, 2.0, "3"])
def test_levels_scale_needs_a_positive_int_grade_count(levels):
    # bool is an int subclass, but `"levels": true` is no grade count
    with pytest.raises(ScaleError, match="needs a positive grade count"):
        levels_scale(levels)


def test_unit_values_reject_binary_floats():
    with pytest.raises(ScaleError):
        ScaleValue(UNIT, 0.3)


def test_unit_values_reject_non_numbers():
    with pytest.raises(ScaleError, match="bad unit-scale value: str"):
        ScaleValue(UNIT, "0.3")


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


def _reference_exact(text):
    """The reference reading of unit-scale text: the bounds, then
    ``Fraction``, naming the text it cannot read."""
    _check_unit_text(text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScaleError(f"bad unit-scale value: {text!r}") from exc


def _outcome(read, text):
    try:
        return read(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def assert_read_as_the_reference(text):
    exact = _outcome(_exact, text)
    assert exact == _outcome(_reference_exact, text)
    if not isinstance(exact, tuple):
        assert type(exact) is Fraction
    parsed = _outcome(UNIT.parse, text)
    assert parsed == _outcome(lambda t: UNIT.value(_reference_exact(t.strip())), text)
    if isinstance(parsed, ScaleValue):
        assert parsed.scale is UNIT and type(parsed.signed) is Fraction


DIGITS_40, DIGITS_41 = "1234567890" * 4, "1234567890" * 4 + "7"


@pytest.mark.parametrize(
    "text",
    [
        # decimals first: a plain reader that scales by the wrong power of
        # ten misreads them, where it may fail to read a whole number at all
        "0.50", "-0.250", "0", "1", "-1", "-0", "007", "1/3", "-2/4", "10/10",
        "0/7", "1/0", "-0/0", "+0.5", "+1/2", "1e-3", "-5E-1", "1_0/2_0",
        "0.1_5", "1.", ".5", "-.5", "\u0661", "0.\u0665", "1/\u0662", " 0.5 ",
        "\t-1/2\n",
        DIGITS_40, "0." + DIGITS_40, DIGITS_40 + "/" + DIGITS_40,
        DIGITS_41, "0." + DIGITS_41, "1/" + DIGITS_41,
        "0." + "1" * MAX_UNIT_TEXT, "1.0000000001", "-1.0000000001",
        "1000001/1000000", "-3/2", "2", "", "-", "abc", "1/2/3", "--1", "1/-2",
        "0x1", "1.5.1",
    ],
)
def test_unit_text_reads_as_its_fraction_reference(text):
    assert_read_as_the_reference(text)


def _digit_runs():
    """Runs of ASCII digits, 40 and 41 long among them, now and then with
    an underscore or a non-ASCII digit."""
    run = st.text("0123456789", min_size=1, max_size=41)
    return st.one_of(
        run,
        st.sampled_from((DIGITS_40, DIGITS_41, "0" * 40, "0" * 41, "9" * 40)),
        st.builds("{}_{}".format, run, run),
        st.builds("{}{}".format, run, st.sampled_from("\u0661\u0660\uff15")),
    )


@st.composite
def unit_texts(draw):
    runs = _digit_runs()
    pad = draw(st.sampled_from(("", " ", "\t", " \n")))
    sign = draw(st.sampled_from(("", "-", "+")))
    whole = draw(st.one_of(runs, st.just("")))
    mark = draw(st.sampled_from(("", ".", "/")))
    part = draw(st.one_of(runs, st.sampled_from(("", "0"))))
    exponent = draw(
        st.sampled_from(("", "e3", "E-2", "e+1_0", f"e-{MAX_UNIT_EXPONENT + 1}"))
    )
    return f"{pad}{sign}{whole}{mark}{part}{exponent}{pad}"


def _near_the_ends():
    """p/q and decimal text a step below, at or just past 1 or -1."""
    sign = st.sampled_from(("", "-"))
    ratio = st.builds(
        lambda sign, den, step: f"{sign}{den + step}/{den}",
        sign, st.integers(1, 10**12), st.integers(-1, 1),
    )
    decimal = st.builds(
        lambda sign, zeros, last: f"{sign}1.{'0' * zeros}{last}",
        sign, st.integers(0, 45), st.sampled_from("01"),
    )
    return st.one_of(ratio, decimal)


@given(st.one_of(unit_texts(), _near_the_ends()))
def test_generated_unit_text_reads_as_its_fraction_reference(text):
    assert_read_as_the_reference(text)


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


def test_parse_needs_text_that_names_a_grade():
    with pytest.raises(ScaleError, match="expected a string value, got int"):
        L3.parse(3)
    # int() reads "0003" as 3, but it is longer than any grade's text
    with pytest.raises(ScaleError, match="unknown level label: '0003'"):
        L3.parse("0003")


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
    with pytest.raises(ScaleError, match="bad label: 1"):
        levels_scale(2, (1, 2, 3))  # no text, so no label
    with pytest.raises(ScaleError, match=r"bad label: \['a'\]"):
        levels_scale(1, (["a"], "b"))  # checked before the labels are hashed


def test_a_string_is_not_a_label_list():
    # tuple("abc") would read it as the three labels a, b and c
    with pytest.raises(ScaleError, match="not a string"):
        levels_scale(2, "abc")
    with pytest.raises(ScaleError, match="not a string"):
        levels_scale(1, "ok")
    assert levels_scale(2, ["a", "b", "c"]).labels == ("a", "b", "c")


def test_unit_format_prefers_terminating_decimals():
    assert str(UNIT.value(Fraction(3, 10))) == "0.3"
    assert str(UNIT.value(Fraction(-1, 4))) == "-0.25"
    assert str(UNIT.value(Fraction(1, 3))) == "1/3"


# a denominator with only the primes 2 and 5, at most 10**50, or any other
_DECIMAL_DENOMINATORS = st.builds(
    lambda a, b: 2**a * 5**b, st.integers(0, 166), st.integers(0, 71)
).filter(lambda den: den <= 10**50)


@given(
    st.integers(-(10**60), 10**60),
    st.one_of(_DECIMAL_DENOMINATORS, st.integers(1, 10**50)),
)
def test_format_fraction_prints_the_ratio_exactly(num, den):
    common = gcd(num, den)
    num, den = num // common, den // common
    text = _format_fraction(num, den)
    assert Fraction(text) == Fraction(num, den)
    # den divides a power of ten exactly when its only primes are 2 and 5,
    # and then it divides 10**k for k its bit length
    assert ("/" in text) == (10 ** den.bit_length() % den != 0)
    assert "." not in text or not text.endswith("0")  # the fewest places


@given(st.fractions(min_value=-1, max_value=1))
def test_unit_parse_format_roundtrip(q):
    value = UNIT.value(q)
    assert UNIT.parse(str(value)) == value


def test_scales_do_not_mix():
    with pytest.raises(ScaleError):
        sym_max(L3.value(1), levels_scale(2).value(1))
    with pytest.raises(ScaleError):
        L3.value(1) < UNIT.value(Fraction(1, 2))
    with pytest.raises(TypeError, match="cannot compare ScaleValue with int"):
        L3.value(1) < 3


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


def test_the_signed_kernels_give_what_sym_max_and_sym_min_give():
    # every pair of grades of a levels scale, then a seeded unit-scale sample
    rng = Random(0)

    def unit():
        den = rng.randint(1, 12)
        return UNIT.value(Fraction(rng.randint(-den, den), den))

    pairs = list(product(L3.signed_values(), repeat=2))
    pairs += [(unit(), unit()) for _ in range(400)]
    clipped = 0
    for a, b in pairs:
        assert _sym_max_signed(a.signed, b.signed) == sym_max(a, b).signed
        if b.sign >= 0:  # _clip takes a nonnegative bound
            assert _clip(a.signed, b.signed) == sym_min(a, b).signed
            clipped += 1
    assert clipped > 28 + 150  # the 28 grade pairs and about half the sample


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


# -- the immutable records ---------------------------------------------------------


def _records(keywords: bool) -> list:
    """One record of each class, each built afresh: by position, or by its
    field names as keywords."""

    def make(cls, *args):
        return cls(**dict(zip(cls._fields, args))) if keywords else cls(*args)

    scale = make(SymmetricScale, "levels", 2, None)
    one = make(ScaleValue, scale, 2)
    table = (scale.zero, one)
    lower = make(SetFunction, 1, scale, table)
    loaded = load_problem(json.dumps(WORKED_DOCUMENT))
    return [
        scale,
        one,
        lower,
        make(Capacity, 1, scale, table),
        make(Profile, scale, (one,)),
        make(RealSetFunction, 1, (0, Fraction(1, 2))),
        make(MobiusInterval, lower, make(SetFunction, 1, scale, table)),
        make(ProblemOptions, "lower", ("sugeno",)),
        make(
            Problem, loaded.scale, loaded.players, loaded.capacity, loaded.profile,
            loaded.options,
        ),
        make(VerifyConfig, 2, 3, None, 0),
        make(LawResult, "law", "holds", "pass", 1, ""),
        make(Law, "law", "holds", law_names),
    ]


def test_records_are_frozen_and_compare_and_hash_on_their_fields():
    records, copies = _records(False), _records(True)
    subclasses, pending = set(), [_Record]
    while pending:
        found = pending.pop().__subclasses__()
        subclasses.update(found)
        pending += found
    by_class = {type(r): r for r in records}
    assert by_class.keys() == subclasses and len(records) == 12
    # the others check their arguments in __init__ itself; these keep the
    # __post_init__ that perfbench/tracing.py wraps, or extend it
    checked_later = {cls for cls in subclasses if "__post_init__" in vars(cls)}
    assert checked_later == {ScaleValue, SetFunction, Capacity}
    # a capacity never equals the set function of its table
    v = by_class[Capacity]
    assert v != SetFunction(v.n, v.scale, v.table)
    assert SetFunction(v.n, v.scale, v.table) != v
    # a value belongs to its scale
    assert levels_scale(2).value(1) != levels_scale(3).value(1)
    for record, copy in zip(records, copies):
        assert record is not copy and record == copy and not record != copy
        assert hash(record) == hash(copy)
        assert record != object() and object() != record
        for name in (*record._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == copy
    # labels, and the ranks a loaded problem keeps, take no part in ==
    labelled = levels_scale(2, ("lo", "mid", "hi"))
    assert labelled == levels_scale(2) and hash(labelled) == hash(levels_scale(2))
    loaded = load_problem(json.dumps(WORKED_DOCUMENT))
    assert loaded._ranked is not None and by_class[Problem]._ranked is None
    assert loaded == by_class[Problem]
    assert "_ranked" not in repr(loaded)
    config = VerifyConfig()
    assert (config.n, config.levels, config.samples, config.seed) == (2, 3, None, 0)
    assert repr(levels_scale(2)) == "SymmetricScale(kind='levels', levels=2, labels=None)"
