"""Choquet and Sugeno families: golden values, equivalent forms, monotonicity."""

import itertools
from bisect import bisect_left
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsug import (
    Capacity,
    Profile,
    RealSetFunction,
    Rule,
    ScaleError,
    SetFunction,
    choquet,
    choquet_asymmetric,
    choquet_mobius,
    choquet_symmetric,
    classical_mobius,
    fold_sym_max,
    levels_scale,
    ordinal_mobius_interval,
    sipos_mobius,
    sugeno,
    sugeno_symmetric,
    sugeno_symmetric_explicit,
    sugeno_symmetric_mobius,
    sugeno_variant1,
    sugeno_variant2,
    sugeno_variant3,
    sym_max,
    sym_min,
    to_real_capacity,
    to_real_profile,
    unit_scale,
)
from symsug.capacity import full_set, rank_sets
from symsug.mobius import real_conjugate
from symsug.rules import _fold_signed
from symsug.integrals import (
    _blocks_kernel,
    _mobius_grade,
    _symmetric_mobius_grade,
    _variant1_kernel,
    choquet_symmetric_explicit,
    ranked_terms,
    sugeno_mobius,
    symmetric_mobius_blocks,
    variant1_terms,
    variant3_terms,
)
from symsug.verify import (
    VerifyConfig,
    _box,
    _instances,
    _member_weights,
    _members,
    iter_capacities,
    iter_profiles,
    sample_capacity,
    sample_profile,
)
from conftest import make_capacity, make_profile

UNIT = unit_scale()
L2 = levels_scale(2)
L3 = levels_scale(3)


def F(num, den=1):
    return Fraction(num, den)


# -- profiles ---------------------------------------------------------------------


def test_profile_split_into_parts():
    f = make_profile(L3, (-2, 0, 3))
    assert [x.signed for x in f.positive_part().scores] == [0, 0, 3]
    assert [x.signed for x in f.negative_part().scores] == [2, 0, 0]
    assert [x.signed for x in (-f).scores] == [2, 0, -3]
    assert not f.is_nonnegative
    assert f.positive_part().is_nonnegative


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile(L3, ())
    with pytest.raises(ScaleError):
        Profile(L3, (L2.value(1),))
    f = Profile.from_values(L3, (-2, "1", L3.value(3)))
    assert [x.signed for x in f.scores] == [-2, 1, 3]
    with pytest.raises(ScaleError, match="value belongs to a different scale"):
        Profile.from_values(L3, (L2.value(1),))
    with pytest.raises(ValueError):
        sugeno(make_capacity(L3, (0, 1, 1, 3)), make_profile(L3, (1, 2, 3)))


# -- Choquet family -----------------------------------------------------------------


def test_plain_choquet_against_hand_computation():
    v = to_real_capacity(
        make_capacity(UNIT, (0, F(1, 2), F(1, 2), 1))
    )
    assert choquet(v, [F(1, 5), F(4, 5)]) == F(1, 2)
    # layer decomposition: 0.2 * v(N) + 0.6 * v({2})
    assert choquet(v, [F(1, 5), F(4, 5)]) == F(1, 5) + F(3, 5) * F(1, 2)


def test_plain_choquet_rejects_signed_profiles():
    v = to_real_capacity(make_capacity(UNIT, (0, F(1, 2), F(1, 2), 1)))
    with pytest.raises(ValueError):
        choquet(v, [F(-1, 5), F(1, 5)])


def test_a_choquet_profile_must_score_every_player():
    v = to_real_capacity(make_capacity(UNIT, (0, F(1, 2), F(1, 2), 1)))
    with pytest.raises(ValueError, match="profile has 3 players, capacity has 2"):
        choquet(v, [F(1, 5)] * 3)


def test_choquet_needs_the_unit_scale():
    with pytest.raises(ScaleError):
        to_real_capacity(make_capacity(L2, (0, 1, 1, 2)))
    with pytest.raises(ScaleError):
        to_real_profile(make_profile(L2, (1, 1)))


def test_the_choquet_side_rejects_binary_floats():
    # Fraction(0.3) would be 5404319552844595/18014398509481984
    with pytest.raises(ScaleError, match="binary floats are not exact"):
        RealSetFunction(1, (0, 0.5))
    v = RealSetFunction(1, (0, 1))
    for integral in (
        choquet, choquet_symmetric, choquet_asymmetric, choquet_symmetric_explicit,
        choquet_mobius, sipos_mobius,
    ):
        with pytest.raises(ScaleError, match="binary floats are not exact"):
            integral(v, [0.3])
    # exact inputs still convert
    assert choquet(RealSetFunction(1, (0, "1")), [F(3, 10)]) == F(3, 10)


def test_the_choquet_side_rejects_booleans():
    # bool is an int subclass, but no number, as on the Sugeno side
    with pytest.raises(ScaleError, match="bad unit-scale value: bool"):
        RealSetFunction(1, (0, True))
    v = RealSetFunction(2, (0, F(1, 2), F(1, 2), 1))
    for integral in (
        choquet, choquet_symmetric, choquet_asymmetric, choquet_symmetric_explicit,
        choquet_mobius, sipos_mobius,
    ):
        with pytest.raises(ScaleError, match="bad unit-scale value: bool"):
            integral(v, [F(1, 2), True])


def rational_capacities(n=2):
    size = 1 << n

    def build(raw):
        grades = [0] + [min(12, g) for g in raw]
        order = sorted(range(size), key=lambda m: m.bit_count())
        for mask in order:
            for i in range(n):
                below = mask & ~(1 << i)
                if below != mask and grades[below] > grades[mask]:
                    grades[mask] = grades[below]
        grades[size - 1] = 12
        return RealTable(n, tuple(F(g, 12) for g in grades))

    from symsug import RealSetFunction as RealTable

    return st.lists(
        st.integers(min_value=0, max_value=12),
        min_size=size - 1,
        max_size=size - 1,
    ).map(build)


def rational_profiles(n=2):
    return st.lists(
        st.integers(min_value=-12, max_value=12).map(lambda g: F(g, 12)),
        min_size=n,
        max_size=n,
    )


@settings(max_examples=80)
@given(rational_capacities(), rational_profiles())
def test_choquet_forms_agree(v, f):
    m = classical_mobius(v)
    nonneg = [abs(x) for x in f]
    assert choquet_mobius(m, nonneg) == choquet(v, nonneg)
    assert choquet_mobius(m, f) == choquet_asymmetric(v, f)
    assert sipos_mobius(m, f) == choquet_symmetric(v, f)
    assert choquet_symmetric_explicit(v, f) == choquet_symmetric(v, f)


@settings(max_examples=80)
@given(rational_capacities(), rational_profiles())
def test_choquet_reflection_identities(v, f):
    neg = [-x for x in f]
    assert choquet_symmetric(v, neg) == -choquet_symmetric(v, f)
    assert choquet_asymmetric(v, neg) == -choquet_asymmetric(real_conjugate(v), f)


# a denominator, small or up to 10^50
DENOMINATORS = st.integers(1, 6) | st.integers(1, 10**50)


@st.composite
def rationals(draw, count):
    """``count`` rationals in [-2, 2]: int numerators over a drawn
    denominator, some of them over a second one."""
    dens = draw(st.lists(DENOMINATORS, min_size=1, max_size=2))
    pick = st.integers(0, len(dens) - 1)
    picks = draw(st.lists(pick, min_size=count, max_size=count))
    return [
        Fraction(draw(st.integers(-2 * dens[i], 2 * dens[i])), dens[i]) for i in picks
    ]


@st.composite
def real_tables_and_profiles(draw):
    """Any rational table on 1 to 6 players, monotone or not, with a profile
    drawn from a few values so that ties and zeros are common; one profile
    in four is all negative.  Denominators run up to 10^50, mixed with
    small ones, so common denominators grow long."""
    n = draw(st.integers(1, 6))
    table = tuple(draw(rationals(1 << n)))
    pool = draw(rationals(draw(st.integers(1, 3)))) + [Fraction(0)]
    scores = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if draw(st.integers(0, 3)) == 0:
        scores = [-abs(x) - 1 for x in scores]
    return RealSetFunction(n, table), scores


@settings(max_examples=300, deadline=None)
@given(real_tables_and_profiles())
def test_asymmetric_choquet_matches_its_conjugate_definition(case):
    v, f = case
    plus = [max(x, 0) for x in f]
    minus = [max(-x, 0) for x in f]
    assert choquet_asymmetric(v, f) == choquet(v, plus) - choquet(
        real_conjugate(v), minus
    )


def reference_chain_sum(scores, weight):
    """The chain sum on Fractions: each ranked score's step away from its
    neighbour toward 0, weighted by ``weight`` of its rank set."""
    order = sorted(range(len(scores)), key=scores.__getitem__)
    ranked = [scores[i] for i in order]
    p = bisect_left(ranked, 0)  # the size of the negative block
    acc = Fraction(0)
    for i, rank_set in enumerate(rank_sets(order, p)):
        # the next score inward, or 0 at the inner end of each block
        inner = ranked[i + 1] if i + 1 < p else ranked[i - 1] if i > p else 0
        acc += (ranked[i] - inner) * weight(rank_set)
    return acc


@settings(max_examples=300, deadline=None)
@given(real_tables_and_profiles())
def test_chain_forms_match_the_fraction_chain_sum(case):
    v, f = case
    plus = [max(x, 0) for x in f]
    minus = [max(-x, 0) for x in f]
    top = full_set(v.n)
    conjugate = lambda upper: 1 - v(top ^ upper)
    assert choquet(v, plus) == reference_chain_sum(plus, v)
    assert choquet_symmetric_explicit(v, f) == reference_chain_sum(f, v)
    assert choquet_symmetric(v, f) == (
        reference_chain_sum(plus, v) - reference_chain_sum(minus, v)
    )
    assert choquet_asymmetric(v, f) == (
        reference_chain_sum(plus, v) - reference_chain_sum(minus, conjugate)
    )


def test_the_choquet_side_names_values_it_cannot_read():
    v = RealSetFunction(1, (0, 1))
    for raw, message in ((None, "NoneType"), (1j, "complex"), ([1], "list")):
        with pytest.raises(ScaleError) as caught:
            RealSetFunction(1, (0, raw))
        assert str(caught.value) == f"bad unit-scale value: {message}"
        with pytest.raises(ScaleError) as caught:
            choquet(v, [raw])
        assert str(caught.value) == f"bad unit-scale value: {message}"
    with pytest.raises(ScaleError) as caught:
        choquet(v, ["abc"])
    assert str(caught.value) == "bad unit-scale value: 'abc'"


def test_the_choquet_side_bounds_text_as_the_parser_does():
    bound = "bad unit-scale value: over 1000 characters or an exponent beyond 1000"
    for build in (
        lambda: RealSetFunction(1, ("0", "1e-2000")),
        lambda: choquet(RealSetFunction(1, (0, 1)), ["1e-2000"]),
        lambda: choquet(RealSetFunction(1, (0, 1)), [" 0." + "1" * 999]),
    ):
        with pytest.raises(ScaleError) as caught:
            build()
        assert str(caught.value) == bound
    assert choquet(RealSetFunction(1, (0, 1)), ["1e-1000"]) == Fraction(1, 10**1000)


def test_documented_instance_choquet_values(worked):
    v, f = worked
    real_v = to_real_capacity(v)
    real_f = to_real_profile(f)
    assert choquet_symmetric(real_v, real_f) == F(1, 50)
    assert choquet_asymmetric(real_v, real_f) == F(-2, 25)


# -- plain Sugeno integral ------------------------------------------------------------


def test_plain_sugeno_golden():
    v = make_capacity(L3, (0, 1, 2, 3))
    assert sugeno(v, make_profile(L3, (3, 1))) == L3.value(1)
    assert sugeno(v, make_profile(L3, (1, 3))) == L3.value(2)
    with pytest.raises(ValueError):
        sugeno(v, make_profile(L3, (-1, 0)))


def test_transform_forms_need_nonnegative_transforms_and_profiles():
    lower = ordinal_mobius_interval(make_capacity(L2, (0, 1, 1, 2))).lower
    negative = SetFunction(2, L2, tuple(L2.value(x) for x in (0, -1, 1, 2)))
    with pytest.raises(ValueError, match="plain Sugeno integral needs nonnegative"):
        sugeno_mobius(lower, make_profile(L2, (-1, 1)))
    with pytest.raises(ValueError, match="transform representatives are nonnegative"):
        sugeno_mobius(negative, make_profile(L2, (1, 1)))
    with pytest.raises(ValueError, match="transform representatives are nonnegative"):
        variant1_terms(negative, make_profile(L2, (-1, 1)))


def test_sugeno_between_min_and_max():
    for v in iter_capacities(2, L2):
        for raw in itertools.product(range(3), repeat=2):
            f = make_profile(L2, raw)
            value = sugeno(v, f)
            assert min(f.scores) <= value <= max(f.scores)


def test_sugeno_mobius_equals_rank_form_for_every_member():
    scale = L2
    for v in iter_capacities(2, scale):
        interval = ordinal_mobius_interval(v)
        members = [interval.lower, interval.upper]
        for raw in itertools.product(range(3), repeat=2):
            f = make_profile(scale, raw)
            expected = sugeno(v, f)
            for m in members:
                assert sugeno_mobius(m, f) == expected


# -- symmetric Sugeno integral ---------------------------------------------------------


def signed_profiles(n=2, k=2):
    scale = levels_scale(k)
    return st.lists(
        st.integers(min_value=-k, max_value=k),
        min_size=n,
        max_size=n,
    ).map(lambda raw: make_profile(scale, raw))


def small_capacities(n=2, k=2):
    caps = list(iter_capacities(n, levels_scale(k)))
    return st.sampled_from(caps)


@given(small_capacities(), signed_profiles())
def test_symmetric_sugeno_three_forms_agree(v, f):
    split = sugeno_symmetric(v, f)
    assert sugeno_symmetric_explicit(v, f) == split
    lower = ordinal_mobius_interval(v).lower
    assert sugeno_symmetric_mobius(lower, f) == split


@given(small_capacities(), signed_profiles())
def test_symmetric_sugeno_is_odd(v, f):
    assert sugeno_symmetric(v, -f) == -sugeno_symmetric(v, f)


@given(small_capacities(), signed_profiles())
def test_mixed_sign_transform_block_vanishes(v, f):
    lower = ordinal_mobius_interval(v).lower
    _, _, mixed = symmetric_mobius_blocks(lower, f)
    assert mixed == v.scale.zero


def test_rank_terms_structure():
    v = make_capacity(L3, (0, 1, 2, 3))
    order, p, terms = ranked_terms(v, make_profile(L3, (-2, 3)))
    assert order == [1, 2]
    assert p == 1
    # -2 meets v({1}) = 1, 3 meets v({2}) = 2
    assert [t.signed for t in terms] == [-1, 2]


def test_rank_terms_tie_chain_is_canonical():
    # tied block: the chain grows by smallest capacity, {2} (0) then {1,2} (1)
    v = make_capacity(L2, (0, 1, 0, 1, 2, 2, 2, 2))
    order, p, terms = ranked_terms(v, make_profile(L2, (-2, -2, 1)))
    assert p == 2
    assert order[:2] == [2, 1]
    assert [t.signed for t in terms[:2]] == [0, -1]


@given(small_capacities(), signed_profiles())
def test_variant2_is_odd(v, f):
    assert sugeno_variant2(v, -f) == -sugeno_variant2(v, f)


@given(small_capacities(), signed_profiles())
def test_variant3_is_odd(v, f):
    assert sugeno_variant3(v, -f) == -sugeno_variant3(v, f)


@given(small_capacities(), signed_profiles())
def test_variant3_and_split_form_rise_under_bumps(v, f):
    k = f.scale.levels
    base3 = sugeno_variant3(v, f)
    base_split = sugeno_symmetric(v, f)
    for i, x in enumerate(f.scores):
        if x.signed == k:
            continue
        scores = list(f.scores)
        scores[i] = f.scale.value(x.signed + 1)
        bumped = Profile(f.scale, tuple(scores))
        assert sugeno_variant3(v, bumped) >= base3
        assert sugeno_symmetric(v, bumped) >= base_split


def test_variant2_monotonicity_failure_witness():
    v = Capacity(3, L3, tuple(L3.zero if m == 0 else L3.one for m in range(8)))
    low = make_profile(L3, (-3, 2, 3))
    high = make_profile(L3, (-3, 3, 3))
    assert sugeno_variant2(v, low) == L3.value(2)
    assert sugeno_variant2(v, high) == L3.zero


def test_rank_term_ceil_fold_is_not_monotone_even_without_ties():
    v = make_capacity(L3, (0, 0, 1, 3, 1, 1, 1, 3))
    low = make_profile(L3, (-3, 1, -2))
    high = make_profile(L3, (-1, 1, -2))
    fold = lambda f: fold_sym_max(ranked_terms(v, f)[2], Rule.CEIL, scale=L3)
    assert fold(low) == L3.zero
    assert fold(high) == L3.value(-1)
    # which is exactly why variant 3 folds threshold terms instead
    assert sugeno_variant3(v, low) <= sugeno_variant3(v, high)


def test_threshold_terms_on_a_tied_profile():
    v = make_capacity(L2, (0, 1, 0, 1, 2, 2, 2, 2))
    f = make_profile(L2, (-2, -2, 1))
    # both negative players clear the two-player level set {1,2} at depth 2
    assert [t.signed for t in variant3_terms(v, f)] == [-1, -1, 1]


@given(small_capacities(), signed_profiles())
def test_variants_collapse_on_nonnegative_profiles(v, f):
    nonneg = f.positive_part()
    expected = sugeno(v, nonneg)
    assert sugeno_symmetric(v, nonneg) == expected
    assert sugeno_variant2(v, nonneg) == expected
    assert sugeno_variant3(v, nonneg) == expected
    lower = ordinal_mobius_interval(v).lower
    assert sugeno_variant1(lower, nonneg) == expected


# -- the documented three-player instance ----------------------------------------------


def test_documented_instance_sugeno_values(worked):
    v, f = worked
    assert sugeno(v, f.positive_part()).signed == F(3, 10)
    assert sugeno(v, f.negative_part()).signed == F(3, 10)
    assert sugeno_symmetric(v, f) == UNIT.zero
    lower = ordinal_mobius_interval(v).lower
    assert sugeno_variant1(lower, f).signed == F(1, 4)
    assert sugeno_variant2(v, f).signed == F(1, 5)
    assert sugeno_variant3(v, f).signed == F(3, 10)


def test_documented_instance_term_multisets(worked):
    v, f = worked
    order, p, terms = ranked_terms(v, f)
    assert order == [1, 2, 3]
    assert p == 1
    assert [t.signed for t in terms] == [F(-3, 10), F(3, 10), F(1, 5)]
    assert [t.signed for t in variant3_terms(v, f)] == [
        F(-3, 10),
        F(3, 10),
        F(3, 10),
    ]
    lower = ordinal_mobius_interval(v).lower
    v1_terms = sorted(t.signed for t in variant1_terms(lower, f))
    assert F(1, 4) in v1_terms and F(-3, 10) in v1_terms


# -- term builders against brute-force references ----------------------------------


def _unit_instance(rng, n, k):
    """A seeded unit-scale capacity and signed profile on the grid 1/k."""
    v = sample_capacity(rng, n, levels_scale(k))
    table = tuple(UNIT.value(F(x.signed, k)) for x in v.table)
    scores = tuple(UNIT.value(F(rng.randint(-k, k), k)) for _ in range(n))
    return Capacity(n, UNIT, table), Profile(UNIT, scores)


def _builder_instances():
    """Every two-player instance on two grades, then seeded three- and
    five-player ones on both scale kinds."""
    for v in iter_capacities(2, L2):
        for f in iter_profiles(2, L2, signed=True):
            yield v, f
    rng = Random("term-builders")
    for n, count in ((3, 150), (5, 40)):
        for scale in (L2, L3):
            for _ in range(count):
                yield sample_capacity(rng, n, scale), sample_profile(rng, n, scale)
        for k in (5, 12):
            for _ in range(count // 2):
                yield _unit_instance(rng, n, k)


def _cut_terms(v, f):
    """Threshold terms by the cut formula: for each player, the best
    y meet v({j : same sign, |f_j| >= y}) over same-sign cuts y <= |f_i|."""
    terms = []
    for x in f.scores:
        best = v.scale.zero
        if x.sign != 0:
            cuts = {
                abs(s.signed)
                for s in f.scores
                if s.sign == x.sign and abs(s.signed) <= abs(x.signed)
            }
            for y in cuts:
                mask = 0
                for j, s in enumerate(f.scores):
                    if s.sign == x.sign and abs(s.signed) >= y:
                        mask |= 1 << j
                best = max(best, min(v.scale.value(y), v(mask)))
        terms.append(best if x.sign >= 0 else -best)
    return terms


def _mask_terms(m, f):
    """(block, term) per nonempty mask, each term computed from its members:
    block 0 lies inside the nonnegative players, 1 inside the negative ones,
    2 meets both."""
    zero = f.scale.zero
    result = []
    for mask in range(1, 1 << m.n):
        scores = [f.scores[i] for i in range(m.n) if mask >> i & 1]
        plus = min(max(x, zero) for x in scores)
        minus = min(max(-x, zero) for x in scores)
        term = sym_min(m(mask), sym_max(plus, -minus))
        signs = {x.sign < 0 for x in scores}
        result.append((2 if len(signs) == 2 else int(signs.pop()), term))
    return result


def test_threshold_terms_match_the_cut_formula():
    for v, f in _builder_instances():
        assert variant3_terms(v, f) == _cut_terms(v, f), (v.table, f.scores)


def test_transform_terms_and_blocks_match_per_mask_terms():
    for v, f in _builder_instances():
        interval = ordinal_mobius_interval(v)
        for member in (interval.lower, interval.upper):
            expected = _mask_terms(member, f)
            assert variant1_terms(member, f) == [t for _, t in expected]
            blocks = [f.scale.zero] * 3
            for block, term in expected:
                blocks[block] = sym_max(blocks[block], term)
            assert symmetric_mobius_blocks(member, f) == tuple(blocks)


def test_transform_forms_equal_their_kernels_on_once_folded_minima():
    # the laws that read many members against one profile fold its minima
    # once and feed them to the kernels with each member's grades; each
    # public form must give what its kernel gives on that feed
    config = VerifyConfig(n=2, levels=2)
    checked = 0
    for signed in (True, False):
        rng = Random(0)
        instances = (
            (v, f, _members(config, _box(interval), rng))
            for v, interval, f in _instances(config, rng, signed)
        )
        fed = _member_weights(config, Random(0), signed)
        pairs = zip(instances, fed, strict=True)
        for (v, f, members), (_, g, (gains, losses), weighted) in pairs:
            assert g == f
            for grades, weights in zip(members, weighted, strict=True):
                member = SetFunction(v.n, v.scale, tuple(map(v.scale.value, grades)))
                assert weights == grades
                terms = _variant1_kernel(weights, gains, losses)
                assert [t.signed for t in variant1_terms(member, f)] == terms
                assert sugeno_variant1(member, f).signed == _fold_signed(
                    terms, Rule.ANGLE
                )
                blocks = [b.signed for b in symmetric_mobius_blocks(member, f)]
                assert blocks == _blocks_kernel(weights, gains, losses)
                assert sugeno_symmetric_mobius(member, f).signed == (
                    _symmetric_mobius_grade(weights, gains, losses)
                )
                if not signed:
                    assert sugeno_mobius(member, f).signed == _mobius_grade(
                        weights, gains
                    )
                checked += 1
    assert checked == 646  # every member of every signed and nonnegative instance


# -- the grade kernels against their ScaleValue definitions --------------------


def _sugeno_by_definition(v, f):
    """Join over an ascending ranking of f_(i) sym-min v({(i), ..., (n)}),
    on ScaleValues; ``f`` is nonnegative, so sym-min is the meet."""
    order = sorted(range(v.n), key=lambda i: f.scores[i])
    result = v.scale.zero
    for rank, i in enumerate(order):
        upper = sum(1 << j for j in order[rank:])
        result = max(result, sym_min(f.scores[i], v(upper)))
    return result


def _rank_terms_by_definition(v, f, order):
    """sym-min of each ranked score with its rank set: the players ranked
    at or below it on the negative block, at or above it elsewhere."""
    terms = []
    for rank, i in enumerate(order):
        chain = order[: rank + 1] if f.scores[i].sign < 0 else order[rank:]
        terms.append(sym_min(f.scores[i], v(sum(1 << j for j in chain))))
    return terms


def test_sugeno_integrals_match_their_scale_value_definitions():
    for v, f in _builder_instances():
        gains, losses = f.positive_part(), f.negative_part()
        assert sugeno(v, gains) == _sugeno_by_definition(v, gains)
        assert sugeno(v, losses) == _sugeno_by_definition(v, losses)
        split = sym_max(
            _sugeno_by_definition(v, gains), -_sugeno_by_definition(v, losses)
        )
        assert sugeno_symmetric(v, f) == split, (v.table, f.scores)
        order, p, terms = ranked_terms(v, f)
        expected = _rank_terms_by_definition(v, f, [j - 1 for j in order])
        assert terms == expected and p == sum(x.sign < 0 for x in f.scores)
        assert sugeno_symmetric_explicit(v, f) == fold_sym_max(expected, Rule.FLOOR)
        assert sugeno_variant2(v, f) == fold_sym_max(expected, Rule.ANGLE)
        assert sugeno_variant3(v, f) == fold_sym_max(_cut_terms(v, f), Rule.CEIL)


def test_transform_variants_match_their_scale_value_definitions():
    for v, f in _builder_instances():
        interval = ordinal_mobius_interval(v)
        for member in (interval.lower, interval.upper):
            terms = [t for _, t in _mask_terms(member, f)]
            assert sugeno_variant1(member, f) == fold_sym_max(terms, Rule.ANGLE)
            assert sugeno_symmetric_mobius(member, f) == sugeno_symmetric(v, f)
