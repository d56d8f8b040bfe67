"""Ordinal and classical transforms, checked against brute-force oracles."""

import itertools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsug import (
    Capacity,
    CapacityError,
    Rule,
    SetFunction,
    canonical_ordinal_mobius,
    classical_mobius,
    even_odd_mobius,
    levels_scale,
    necessity_measure,
    ordinal_mobius_interval,
    possibility_measure,
    conjugate,
    unanimity,
    unit_scale,
    RealSetFunction,
)
from symsug.scale import sym_max, sym_min
from symsug.capacity import iter_submasks, subsets
from symsug.mobius import (
    classical_zeta,
    is_solution,
    mobius_necessity,
    mobius_possibility,
    real_conjugate,
    reconstruct,
    reconstruct_from_conjugate,
)
from symsug.verify import iter_capacities, sample_capacity, worked_example
from conftest import make_capacity

UNIT = unit_scale()


def brute_force_solutions(v):
    """Oracle: every nonnegative grid table whose subset folds reproduce v,
    found by raw enumeration with no interval knowledge."""
    scale = v.scale
    grid = list(scale.nonnegative_values())
    size = 1 << v.n
    found = []
    for combo in itertools.product(grid, repeat=size):
        m = SetFunction(v.n, scale, combo)
        if all(
            max(m(sub) for sub in iter_submasks(mask)) == v(mask)
            for mask in subsets(v.n)
        ):
            found.append(combo)
    return found


# note: on nonnegative tables every fold rule is the plain max, so the
# oracle's plain max stands in for all three


@pytest.mark.parametrize("k", [1, 2])
def test_interval_is_exactly_the_brute_force_solution_set(k):
    scale = levels_scale(k)
    for v in iter_capacities(2, scale):
        interval = ordinal_mobius_interval(v)
        solutions = set(brute_force_solutions(v))
        boxed = {
            combo
            for combo in itertools.product(
                list(scale.nonnegative_values()), repeat=4
            )
            if all(
                interval.lower(mask) <= combo[mask] <= interval.upper(mask)
                for mask in subsets(2)
            )
        }
        assert solutions == boxed
        for combo in itertools.product(list(scale.nonnegative_values()), repeat=4):
            m = SetFunction(2, scale, combo)
            assert is_solution(v, m, Rule.FLOOR) == interval.contains(m)


def test_interval_on_a_three_player_capacity():
    scale = levels_scale(1)
    v = make_capacity(scale, (0, 0, 1, 1, 0, 1, 1, 1))
    interval = ordinal_mobius_interval(v)
    solutions = brute_force_solutions(v)
    assert all(
        interval.contains(SetFunction(3, scale, combo)) for combo in solutions
    )
    volume = 1
    for mask in subsets(3):
        volume *= interval.upper(mask).signed - interval.lower(mask).signed + 1
    assert len(solutions) == volume


def lower_by_subsets(v):
    """The interval's lower bound by its definition: v(A) where v(A)
    exceeds v on every proper subset of A, 0 elsewhere."""
    return tuple(
        v(mask)
        if all(v(mask) > v(sub) for sub in iter_submasks(mask) if sub != mask)
        else v.scale.zero
        for mask in subsets(v.n)
    )


def test_interval_kernel_matches_its_subset_walk_definition():
    capacities = [
        v for n, k in itertools.product((1, 2, 3), (1, 2))
        for v in iter_capacities(n, levels_scale(k))
    ]
    rng = Random(8)
    for n in range(1, 9):
        for _ in range(6):
            v = sample_capacity(rng, n, levels_scale(5))
            grades = [x.signed for x in v.table]
            capacities += [v, make_capacity(UNIT, [Fraction(g, 5) for g in grades])]
    for v in capacities:
        interval = ordinal_mobius_interval(v)
        assert interval.lower.table == lower_by_subsets(v)
        assert interval.upper.table == v.table
        assert interval.lower.scale is v.scale and interval.upper.scale is v.scale


def test_interval_bounds_are_solutions_and_ordered():
    v = make_capacity(levels_scale(3), (0, 2, 2, 3))
    interval = ordinal_mobius_interval(v)
    assert is_solution(v, interval.lower, Rule.FLOOR)
    assert is_solution(v, interval.upper, Rule.FLOOR)
    for mask in subsets(2):
        assert interval.lower(mask) <= interval.upper(mask)
    assert interval.upper.table == v.table


def test_lower_bound_keeps_only_strict_jumps():
    v = make_capacity(levels_scale(2), (0, 1, 2, 2))
    lower = ordinal_mobius_interval(v).lower
    assert [x.signed for x in lower.table] == [0, 1, 2, 0]


def test_reconstruct_from_any_interval_member():
    scale = levels_scale(2)
    v = make_capacity(scale, (0, 1, 0, 2))
    interval = ordinal_mobius_interval(v)
    for combo in brute_force_solutions(v):
        member = SetFunction(2, scale, combo)
        assert [reconstruct(member, mask) for mask in subsets(2)] == list(
            v.table
        )


def test_reconstruct_through_the_conjugate():
    scale = levels_scale(2)
    v = make_capacity(scale, (0, 1, 0, 2))
    m_conj = ordinal_mobius_interval(conjugate(v)).lower
    assert [
        reconstruct_from_conjugate(m_conj, mask) for mask in subsets(2)
    ] == list(v.table)


@pytest.mark.parametrize("mask", [-1, 8, 9, 1 << 70])
def test_reconstruction_refuses_a_mask_outside_the_player_set(mask):
    # an unchecked mask fell through the walk: 8 rebuilt 0, -1 rebuilt 1 and,
    # through the conjugate, 9 rebuilt 0.4 on this lower bound
    lower = ordinal_mobius_interval(worked_example()[0]).lower
    for rebuild in (reconstruct, reconstruct_from_conjugate):
        with pytest.raises(ValueError, match=f"subset mask {mask} is "):
            rebuild(lower, mask)


def test_even_odd_form_equals_the_lower_bound():
    for v in iter_capacities(2, levels_scale(3)):
        assert even_odd_mobius(v).table == ordinal_mobius_interval(v).lower.table


def even_odd_by_parity(v):
    """Oracle: the literal parity definition, walking every submask."""
    table = []
    for mask in subsets(v.n):
        even = odd = v.scale.zero
        for sub in iter_submasks(mask):
            if (mask.bit_count() - sub.bit_count()) % 2:
                odd = max(odd, v(sub))
            else:
                even = max(even, v(sub))
        table.append(sym_max(even, -odd))
    return tuple(table)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["levels", "unit"])
def test_even_odd_form_matches_its_parity_definition(kind, n):
    rng = Random(n)
    l3 = levels_scale(3)
    for _ in range(25):
        v = sample_capacity(rng, n, l3)
        if kind == "unit":
            grades = (UNIT.value(Fraction(x.signed, 3)) for x in v.table)
            v = Capacity(n, UNIT, tuple(grades))
        assert even_odd_mobius(v).table == even_odd_by_parity(v)


def test_canonical_transform_floor_and_angle():
    v = make_capacity(levels_scale(2), (0, 1, 1, 2))
    for rule in (Rule.FLOOR, Rule.ANGLE):
        m = canonical_ordinal_mobius(v, rule)
        assert is_solution(v, m, rule)
    with pytest.raises(ValueError):
        canonical_ordinal_mobius(v, Rule.CEIL)


def test_transform_of_unanimity_is_its_indicator():
    scale = levels_scale(2)
    u = unanimity(2, 0b11, scale)
    lower = ordinal_mobius_interval(u).lower
    assert [x.signed for x in lower.table] == [0, 0, 0, 2]


def test_transform_is_not_pointwise_linear():
    scale = levels_scale(1)
    g1 = unanimity(2, 0b11, scale)
    g2 = make_capacity(scale, (0, 1, 1, 1))
    lower = lambda v: ordinal_mobius_interval(v).lower
    combined = g1.pointwise_sym_max(g2)
    assert combined.table == g2.table
    mixed = lower(g1).pointwise_sym_max(lower(g2))
    assert mixed.table != lower(g2).table


def test_possibility_transform_sits_on_singletons():
    pi = [UNIT.value(Fraction(1, 5)), UNIT.value(Fraction(3, 5)), UNIT.one]
    poss = possibility_measure(pi)
    m = mobius_possibility(pi)
    assert m.table == ordinal_mobius_interval(poss).lower.table
    assert is_solution(poss, m, Rule.FLOOR)


def test_necessity_transform_sits_on_tails_with_tie_gaps():
    pi = [UNIT.value(Fraction(1, 5)), UNIT.value(Fraction(3, 5)), UNIT.one]
    nec = necessity_measure(pi)
    m = mobius_necessity(pi)
    assert m.table == ordinal_mobius_interval(nec).lower.table
    assert m(0b111) == UNIT.one
    assert m(0b110) == UNIT.value(Fraction(4, 5))
    assert m(0b100) == UNIT.value(Fraction(2, 5))
    # a tie kills the strict jump above the tied position
    tied = [UNIT.value(Fraction(3, 5))] * 2 + [UNIT.one]
    assert mobius_necessity(tied)(0b110) == UNIT.zero


def test_transforms_of_an_empty_distribution_raise_the_capacity_error():
    for transform in (mobius_possibility, mobius_necessity, possibility_measure):
        with pytest.raises(CapacityError, match="empty distribution"):
            transform([])


# -- classical (additive) transform -----------------------------------------------


def rational_tables(n=2):
    size = 1 << n
    return st.lists(
        st.fractions(min_value=-2, max_value=2),
        min_size=size,
        max_size=size,
    ).map(lambda vals: RealSetFunction(n, tuple([Fraction(0)] + vals[1:])))


@settings(max_examples=60)
@given(rational_tables())
def test_classical_transform_roundtrips(g):
    assert classical_zeta(classical_mobius(g)).table == g.table
    assert classical_mobius(classical_zeta(g)).table == g.table


@settings(max_examples=60)
@given(st.sampled_from([2, 3]).flatmap(rational_tables))
def test_classical_transform_matches_inclusion_exclusion(g):
    m = classical_mobius(g)
    for mask in subsets(g.n):
        direct = sum(
            (-1) ** (mask.bit_count() - sub.bit_count()) * g(sub)
            for sub in iter_submasks(mask)
        )
        assert m(mask) == direct


def test_real_conjugate_involution():
    v = RealSetFunction(
        2, (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))
    )
    assert real_conjugate(real_conjugate(v)).table == v.table


# -- reconstruction against its ScaleValue definition ----------------------------


def reconstruct_by_definition(m, mask):
    """Join over every B of m(B) sym-min u_B(A), on ScaleValues."""
    scale = m.scale
    result = scale.zero
    for b_mask in subsets(m.n):
        weight = scale.one if mask and mask & b_mask == b_mask else scale.zero
        result = max(result, sym_min(m(b_mask), weight))
    return result


def conjugate_reconstruct_by_definition(m_conj, mask):
    """n(join of m_conj over the subsets disjoint from A), on ScaleValues."""
    scale = m_conj.scale
    disjoint = [m_conj(b) for b in subsets(m_conj.n) if b & mask == 0]
    return scale.negate(max([scale.zero, *disjoint]))


def _reconstruct_tables():
    """Interval bounds of capacities, then signed tables, on both scale
    kinds: every two-player capacity on three grades, seeded three-player
    ones, and their unit-scale images on the grid 1/k."""
    rng = Random("reconstruct")
    l3 = levels_scale(3)
    capacities = list(iter_capacities(2, l3))
    capacities += [sample_capacity(rng, 3, l3) for _ in range(40)]
    for v in capacities:
        unit = make_capacity(UNIT, [Fraction(x.signed, 3) for x in v.table])
        for w in (v, unit):
            interval = ordinal_mobius_interval(w)
            yield interval.lower
            yield interval.upper
            yield ordinal_mobius_interval(conjugate(w)).lower
    for n in (1, 2, 3):
        for _ in range(30):
            grades = [rng.randint(-3, 3) for _ in range(1 << n)]
            yield SetFunction(n, l3, tuple(l3.value(g) for g in grades))
            yield SetFunction(
                n, UNIT, tuple(UNIT.value(Fraction(g, 3)) for g in grades)
            )


def test_reconstruct_matches_its_definition_on_every_mask():
    for m in _reconstruct_tables():
        for mask in subsets(m.n):
            assert reconstruct(m, mask) == reconstruct_by_definition(m, mask)


def test_conjugate_reconstruct_matches_its_definition_on_every_mask():
    for m in _reconstruct_tables():
        for mask in subsets(m.n):
            expected = conjugate_reconstruct_by_definition(m, mask)
            assert reconstruct_from_conjugate(m, mask) == expected
