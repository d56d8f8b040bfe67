"""Subset encoding, set functions, capacities and the named families."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symsug import (
    Capacity,
    CapacityError,
    ScaleError,
    SetFunction,
    conjugate,
    levels_scale,
    necessity_measure,
    possibility_measure,
    unanimity,
    unit_scale,
)
from symsug.capacity import (
    capacity_problems,
    covers_of,
    full_set,
    is_k_maxitive,
    is_maxitive,
    iter_submasks,
    mask_of,
    parse_subset_text,
    subset_members,
    subset_text,
    subsets,
)
from conftest import make_capacity

L2 = levels_scale(2)
L3 = levels_scale(3)
UNIT = unit_scale()


# -- subset encoding -------------------------------------------------------------


def test_subset_text_roundtrip():
    assert subset_text(0) == "{}"
    assert subset_text(0b101) == "{1,3}"
    assert parse_subset_text("{1,3}", 3) == 0b101
    assert parse_subset_text(" { 3 , 1 } ", 3) == 0b101
    assert parse_subset_text("{}", 3) == 0


@given(st.integers(min_value=0, max_value=63))
def test_parse_inverts_format(mask):
    assert parse_subset_text(subset_text(mask), 6) == mask


def test_parse_subset_text_rejects_garbage():
    for bad in ("1,3", "{0}", "{4}", "{1,1}", "{a}", "{1 2}"):
        with pytest.raises(ValueError):
            parse_subset_text(bad, 3)


def test_members_and_mask_of():
    assert subset_members(0b110) == (2, 3)
    assert mask_of([3, 1], 3) == 0b101
    with pytest.raises(ValueError):
        mask_of([4], 3)


def test_submask_and_cover_enumeration():
    assert sorted(iter_submasks(0b101)) == [0, 1, 4, 5]
    assert sorted(covers_of(0b101)) == [0b001, 0b100]
    assert list(covers_of(0)) == []


def test_subsets_is_the_full_power_set():
    assert list(subsets(2)) == [0, 1, 2, 3]
    assert full_set(3) == 0b111


# -- set functions and capacity axioms --------------------------------------------


def test_set_function_lookup_and_bounds():
    g = SetFunction(2, L2, tuple(L2.value(x) for x in (0, 2, -1, 1)))
    assert g(0b10) == L2.value(-1)
    assert not g.is_nonnegative
    with pytest.raises(IndexError):
        g(4)


def test_capacity_rejects_non_monotone_tables():
    with pytest.raises(CapacityError) as err:
        make_capacity(L2, (0, 2, 0, 1))  # {1} above {1,2}
    assert "{1}" in str(err.value)


def test_capacity_rejects_bad_boundaries():
    with pytest.raises(CapacityError):
        make_capacity(L2, (1, 1, 1, 2))  # empty set not 0
    with pytest.raises(CapacityError):
        make_capacity(L2, (0, 1, 1, 1))  # full set not 1
    with pytest.raises(CapacityError):
        Capacity(2, L2, tuple(L2.value(x) for x in (0, -1, 1, 2)))


def test_capacity_problems_lists_every_violation():
    problems = capacity_problems(
        2, L2, tuple(L2.value(x) for x in (1, 2, 0, 1))
    )
    assert len(problems) >= 3  # bad empty set, bad top, non-monotone edge


def test_from_values_accepts_subset_keys_and_sequences():
    by_name = Capacity.from_values(
        2, L2, {"{}": 0, "{1}": 1, "{2}": 0, "{1,2}": 2}
    )
    by_order = Capacity.from_values(2, L2, [0, 1, 0, 2])
    assert by_name.table == by_order.table


def test_from_values_reads_subset_keys_like_a_problem_file():
    # listing every missing subset of n = 18 took 9 s and peaked near 37 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as caught:
            Capacity.from_values(18, UNIT, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == "capacity is missing {1}, {2}, {1,2}, {3}, ..."
    assert peak < 1_000_000
    with pytest.raises(ValueError, match="capacity repeats the subset {1}"):
        Capacity.from_values(1, L2, {"{1}": 2, " {1} ": 2})
    with pytest.raises(ValueError, match="capacity key 1: bad subset"):
        Capacity.from_values(1, L2, {1: 2})  # masks are not keys


def test_pointwise_sym_max():
    g = SetFunction(1, L2, (L2.value(0), L2.value(-2)))
    h = SetFunction(1, L2, (L2.value(1), L2.value(1)))
    combined = g.pointwise_sym_max(h)
    assert [x.signed for x in combined.table] == [1, -2]


# -- conjugation ------------------------------------------------------------------


def test_conjugate_is_an_involution():
    v = make_capacity(L2, (0, 1, 0, 2))
    assert conjugate(conjugate(v)).table == v.table


def test_conjugate_of_unanimity_on_everyone():
    v = unanimity(2, 0b11, L2)
    bar = conjugate(v)
    assert [x.signed for x in bar.table] == [0, 2, 2, 2]


# -- named families ----------------------------------------------------------------


def test_unanimity_games_are_indicator_capacities():
    u = unanimity(3, 0b010, L3)
    assert u(0b010) == L3.one
    assert u(0b111) == L3.one
    assert u(0b101) == L3.zero
    # focal empty set: 1 everywhere except on the empty set
    w = unanimity(2, 0, L2)
    assert [x.signed for x in w.table] == [0, 2, 2, 2]
    with pytest.raises(ValueError):
        unanimity(2, 0b100, L2)


def test_possibility_is_maxitive_and_necessity_is_its_conjugate():
    pi = [UNIT.value(Fraction(1, 5)), UNIT.value(Fraction(3, 5)), UNIT.one]
    poss = possibility_measure(pi)
    nec = necessity_measure(pi)
    assert is_maxitive(poss)
    assert not is_maxitive(unanimity(2, 0b11, L2))
    assert poss(0b011) == UNIT.value(Fraction(3, 5))
    assert nec(0b110) == UNIT.value(Fraction(4, 5))
    assert conjugate(poss).table == nec.table


def test_possibility_distribution_must_reach_one():
    with pytest.raises(CapacityError):
        possibility_measure([L2.value(1), L2.value(1)])
    with pytest.raises(CapacityError):
        possibility_measure([])


def test_k_maxitive_detection():
    pi = [L2.value(1), L2.value(2), L2.value(2)]
    poss = possibility_measure(pi)
    assert is_k_maxitive(poss, 1)
    # a strict jump on the pair {1,2} needs k = 2
    v = make_capacity(L2, (0, 0, 0, 2, 1, 2, 2, 2))
    assert not is_k_maxitive(v, 1)
    assert is_k_maxitive(v, 2)
    with pytest.raises(ValueError):
        is_k_maxitive(v, 0)


def test_capacities_on_different_scales_exist():
    v = make_capacity(UNIT, (0, Fraction(1, 2), Fraction(1, 2), 1))
    assert v(0b01) == UNIT.value(Fraction(1, 2))
    with pytest.raises(ScaleError):
        Capacity(1, L2, (UNIT.zero, UNIT.one))
