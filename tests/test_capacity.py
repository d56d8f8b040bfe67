"""Subset encoding, set functions, capacities and the named families."""

import operator
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import permutations, product
from pathlib import Path
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symsug import (
    Capacity,
    CapacityError,
    ScaleError,
    SetFunction,
    SymmetricScale,
    conjugate,
    levels_scale,
    necessity_measure,
    possibility_measure,
    unanimity,
    unit_scale,
)
import symsug
from symsug.capacity import (
    MAX_PLAYERS,
    _check_capacity,
    _slice_pairs,
    capacity_problems,
    covers_of,
    fold_members,
    full_set,
    is_maxitive,
    iter_submasks,
    mask_of,
    parse_subset_text,
    rank_sets,
    subset_members,
    subset_text,
    subsets,
    zeta,
)
from symsug.mobius import is_k_maxitive, mobius_necessity, mobius_possibility
from symsug.verify import iter_capacities, sample_capacity
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


@pytest.mark.parametrize("mask", [-1, -6, -(1 << 70)])
def test_a_negative_mask_is_refused_by_name(mask):
    # -1 >> 1 is -1: a member walk that shifted it would never end
    for render in (subset_members, subset_text):
        with pytest.raises(ValueError, match=f"subset mask {mask} is negative"):
            render(mask)


@given(st.integers(min_value=0, max_value=63))
def test_parse_inverts_format(mask):
    assert parse_subset_text(subset_text(mask), 6) == mask


def test_parse_subset_text_rejects_garbage():
    for bad in ("1,3", "{0}", "{4}", "{1,1}", "{a}", "{1 2}"):
        with pytest.raises(ValueError):
            parse_subset_text(bad, 3)


@pytest.mark.parametrize("text", ["{١,٣}", "{1,٣}", "{²}"])
def test_subset_members_are_ascii_decimals(text):
    # ١ and ٣ are ARABIC-INDIC DIGITs, which int() accepts; ² passes
    # isdigit() but not int()
    with pytest.raises(ValueError, match="bad subset member"):
        parse_subset_text(text, 3)


def test_members_and_mask_of():
    assert subset_members(0b110) == (2, 3)
    assert mask_of([3, 1], 3) == 0b101
    with pytest.raises(ValueError):
        mask_of([4], 3)
    with pytest.raises(ValueError, match="player True"):
        mask_of([True], 3)  # bool is an int subclass, but no player id


def test_a_bool_is_no_player_count():
    with pytest.raises(ValueError, match="player count"):
        Capacity(True, L2, (L2.zero, L2.one))


def test_submask_and_cover_enumeration():
    assert sorted(iter_submasks(0b101)) == [0, 1, 4, 5]
    assert sorted(covers_of(0b101)) == [0b001, 0b100]
    assert list(covers_of(0)) == []


@pytest.mark.parametrize("walk", ["covers_of", "iter_submasks"])
def test_a_negative_mask_ends_each_subset_walk(walk):
    # a walk that read the bits of -1 would never end, so it runs in a
    # child process under a timeout; the loop keeps nothing it yields
    code = (
        f"from symsug.capacity import {walk}\n"
        "try:\n"
        f"    for _ in {walk}(-1): pass\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(symsug.__file__).resolve().parent.parent)
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=30,
        env={"PYTHONPATH": src},
    )
    assert child.stdout == "subset mask -1 is negative\n"


def test_subsets_is_the_full_power_set():
    assert list(subsets(2)) == [0, 1, 2, 3]
    assert full_set(3) == 0b111


# -- subset kernels, against their member-by-member and submask definitions ---

# each fold with an identity for the seeded values, which lie in [-8, 8]
FOLDS = {"min": (min, 9), "max": (max, -9), "sum": (operator.add, 0)}


def seeded_values(count, seed):
    rng = Random(seed)
    return [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(count)]


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("fold", FOLDS)
def test_fold_members_folds_the_members_of_every_subset(fold, n):
    combine, empty = FOLDS[fold]
    values = seeded_values(n, n)
    expected = [
        reduce(combine, (values[i - 1] for i in subset_members(mask)), empty)
        for mask in subsets(n)
    ]
    assert fold_members(values, combine, empty) == expected


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("fold", FOLDS)
def test_zeta_folds_the_subsets_of_every_mask(fold, n):
    combine, _ = FOLDS[fold]
    table = seeded_values(1 << n, n)
    expected = [
        reduce(combine, (table[sub] for sub in iter_submasks(mask)))
        for mask in subsets(n)
    ]
    assert zeta(table, combine) == expected
    assert table == seeded_values(1 << n, n)  # the input is left alone


@pytest.mark.parametrize("n", range(5))
def test_zeta_with_a_difference_inverts_zeta_with_a_sum(n):
    table = seeded_values(1 << n, n + 10)
    assert zeta(zeta(table, operator.add), operator.sub) == table
    assert zeta(zeta(table, operator.sub), operator.add) == table


@pytest.mark.parametrize("n", range(9))
def test_slice_pairs_match_each_mask_with_the_mask_adding_a_player(n):
    size = 1 << n
    masks = list(range(size))
    pairs = []
    for lo, hi in _slice_pairs(size):
        assert len(masks[lo]) == len(masks[hi])
        pairs += zip(masks[lo], masks[hi])
    expected = [
        (mask, mask | 1 << i) for i in range(n) for mask in masks if not mask >> i & 1
    ]
    assert sorted(pairs) == sorted(expected)
    # strided slices while a player's blocks are no longer than their count,
    # contiguous blocks after: min(2^i, 2^(n-1-i)) pairs for player bit 2^i
    bits = Counter(hi.start - lo.start for lo, hi in _slice_pairs(size))
    assert bits == {1 << i: min(1 << i, 1 << (n - 1 - i)) for i in range(n)}


@pytest.mark.parametrize("n", range(1, 5))
def test_rank_sets_are_the_lower_then_upper_sets_of_the_ranking(n):
    def mask(players):
        return sum(1 << i for i in players)

    for order in permutations(range(n)):
        for p in range(n + 1):
            expected = [
                mask(order[: i + 1]) if i < p else mask(order[i:]) for i in range(n)
            ]
            assert rank_sets(order, p) == expected, (order, p)


# -- set functions and capacity axioms --------------------------------------------


def test_set_function_lookup_and_bounds():
    g = SetFunction(2, L2, tuple(L2.value(x) for x in (0, 2, -1, 1)))
    assert g(0b10) == L2.value(-1)
    assert not g.is_nonnegative
    with pytest.raises(IndexError):
        g(4)
    with pytest.raises(ValueError, match="table has 3 entries, expected 4"):
        SetFunction(2, L2, (L2.zero,) * 3)


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


def sliced_verdict(scale, table):
    """The message _check_capacity raises for a table, or None."""
    try:
        _check_capacity(len(table).bit_length() - 1, scale, table)
    except CapacityError as exc:
        return str(exc)
    return None


def problems_verdict(scale, table):
    problems = capacity_problems(len(table).bit_length() - 1, scale, table)
    return "; ".join(problems) if problems else None


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_the_sliced_check_passes_every_enumerated_capacity(n, k):
    scale = levels_scale(k)
    for v in iter_capacities(n, scale):
        assert sliced_verdict(scale, v.table) is None
        assert problems_verdict(scale, v.table) is None


@pytest.mark.parametrize("n", [1, 2])
def test_the_sliced_check_agrees_with_capacity_problems_on_every_table(n):
    for grades in product(range(-2, 3), repeat=1 << n):
        table = tuple(L2.value(g) for g in grades)
        assert sliced_verdict(L2, table) == problems_verdict(L2, table), grades


@pytest.mark.parametrize("n", range(1, 9))
def test_the_sliced_check_agrees_with_capacity_problems_on_broken_tables(n):
    rng = Random(n)
    scale = levels_scale(6)
    top = (1 << n) - 1
    for _ in range(25):
        valid = [x.signed for x in sample_capacity(rng, n, scale).table]
        broken = {"valid": valid}
        negative = list(valid)
        negative[rng.randrange(1 << n)] = -rng.randint(1, 6)
        broken["negative entry"] = negative
        broken["empty set"] = [rng.randint(1, 6)] + valid[1:]
        broken["full set"] = valid[:-1] + [rng.randint(0, 5)]
        below_top = [m for m in range(1, top) if valid[m] < 6]
        if below_top:
            # one cover raised above its superset
            mask = rng.choice(below_top)
            cover = mask ^ rng.choice([1 << i for i in range(n) if mask >> i & 1])
            cover_broken = list(valid)
            cover_broken[cover] = valid[mask] + 1
            broken["one cover"] = cover_broken
        for kind, grades in broken.items():
            table = tuple(scale.value(g) for g in grades)
            verdict = problems_verdict(scale, table)
            assert (verdict is None) == (kind == "valid"), kind
            assert sliced_verdict(scale, table) == verdict, kind


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
    with pytest.raises(ValueError):
        unanimity(2, True, L2)  # bool is an int subclass, but no focal mask


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
    with pytest.raises(CapacityError, match="distribution value -1 is negative"):
        possibility_measure([L2.value(-1), L2.one])


NAMED_BUILDERS = {
    "unanimity": lambda pi: unanimity(len(pi), 0, L2),
    "possibility_measure": possibility_measure,
    "necessity_measure": necessity_measure,
    "mobius_possibility": mobius_possibility,
    "mobius_necessity": mobius_necessity,
}


@pytest.mark.parametrize("name", NAMED_BUILDERS)
def test_named_builders_check_the_player_count_first(monkeypatch, name):
    pi = [L2.one] * (MAX_PLAYERS + 1)

    def spy(scale):
        raise AssertionError("a table was built before the player count check")

    # each builder reads the scale's zero or one before it fills its table
    monkeypatch.setattr(SymmetricScale, "zero", property(spy))
    monkeypatch.setattr(SymmetricScale, "one", property(spy))
    with pytest.raises(ValueError, match="player count"):
        NAMED_BUILDERS[name](pi)


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
