"""Acceptance gate: ten checks, one test (and one report line) each.

Golden values are exact rational comparisons; the law-suite checks run the
registered laws on fixed instance families and must finish inside their
stated time budgets.
"""

import time
from fractions import Fraction

from symsug import (
    Capacity,
    Rule,
    fold_sym_max,
    levels_scale,
    ordinal_mobius_interval,
    sugeno_symmetric,
    sugeno_variant1,
    sugeno_variant2,
    unit_scale,
)
from symsug.capacity import mask_of, subsets
from symsug.verify import VerifyConfig, run_laws, worked_example

ELEMENTARY_LAWS = [
    "reflection-involution",
    "reflection-de-morgan",
    "marichal-forms",
    "symmax-commutative",
    "symmin-commutative",
    "zero-neutral-absorbing-unique",
    "one-neutral-absorbing-unique",
    "opposites-cancel",
    "reflection-distributes",
    "symmax-conditional-associative",
    "symmin-associative",
    "symmin-distributive-same-sign",
    "symmax-nonassociative-witness",
]


def _within(budget, started):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"


def _all_pass(config, names):
    for result in run_laws(config, names):
        assert result.status == "pass", (
            f"{result.law} under {config}: {result.status} {result.detail}"
        )
        yield result


def test_criterion_01_documented_instance_goldens():
    started = time.perf_counter()
    v, f = worked_example()
    lower = ordinal_mobius_interval(v).lower
    assert sugeno_symmetric(v, f).signed == Fraction(0)
    assert sugeno_variant1(lower, f).signed == Fraction(1, 4)
    assert sugeno_variant2(v, f).signed == Fraction(1, 5)
    _within(1.0, started)


def test_criterion_02_transform_interval_golden():
    v, _ = worked_example()
    interval = ordinal_mobius_interval(v)
    widened = mask_of((1, 3), 3)
    for mask in subsets(3):
        if mask == widened:
            assert interval.lower(mask).signed == Fraction(0)
            assert interval.upper(mask).signed == Fraction(3, 10)
        else:
            assert interval.lower(mask) == interval.upper(mask)


def test_criterion_03_fold_rules_golden():
    scale = unit_scale()
    items = [scale.value(Fraction(k, 3)) for k in (3, 3, 3, 2, 1, 0, -2, -3, -3)]
    assert fold_sym_max(items, Rule.FLOOR).signed == Fraction(0)
    assert fold_sym_max(items, Rule.CEIL).signed == Fraction(1)
    assert fold_sym_max(items, Rule.ANGLE).signed == Fraction(1, 3)


def test_criterion_04_angle_non_monotonicity_golden():
    scale = unit_scale()
    a = [scale.value(Fraction(k, 5)) for k in (-5, -5, -1, 2, 5)]
    b = [scale.value(Fraction(k, 5)) for k in (-5, -4, -1, 2, 5)]
    assert fold_sym_max(a, Rule.ANGLE).signed == Fraction(2, 5)
    assert fold_sym_max(b, Rule.ANGLE).signed == Fraction(-4, 5)


def test_criterion_05_elementary_law_suite():
    started = time.perf_counter()
    for k in (1, 2, 3):
        config = VerifyConfig(n=2, levels=k)
        for _ in _all_pass(config, ELEMENTARY_LAWS):
            pass
    _within(10.0, started)


def test_criterion_06_transform_interval_is_the_solution_set():
    started = time.perf_counter()
    names = ["interval-bounds-are-solutions", "interval-is-solution-set"]
    for k in (1, 2, 3):
        for _ in _all_pass(VerifyConfig(n=2, levels=k), names):
            pass
    sampled = VerifyConfig(n=3, levels=3, samples=10000, seed=0)
    for result in _all_pass(sampled, names):
        assert result.checks >= 10000
    _within(60.0, started)


def test_criterion_07_plain_integral_transform_form():
    started = time.perf_counter()
    names = ["sugeno-mobius-representative-free", "even-odd-equals-lower"]
    for k in (1, 2, 3):
        for _ in _all_pass(VerifyConfig(n=2, levels=k), names):
            pass
    sampled = VerifyConfig(n=3, levels=3, samples=10000, seed=0)
    for result in _all_pass(sampled, names):
        assert result.checks >= 10000
    _within(60.0, started)


def test_criterion_08_symmetric_integral_forms_and_oddness():
    started = time.perf_counter()
    names = ["symmetric-sugeno-forms-agree", "integral-symmetry"]
    for k in (1, 2, 3):
        for _ in _all_pass(VerifyConfig(n=2, levels=k), names):
            pass
    sampled = VerifyConfig(n=3, levels=3, samples=10000, seed=0)
    for result in _all_pass(sampled, names):
        assert result.checks >= 10000
    _within(60.0, started)


def test_criterion_09_monotonicity_and_the_pinned_violation():
    started = time.perf_counter()
    name = ["sugeno-symmetric-monotone"]
    for k in (1, 2, 3):
        for _ in _all_pass(VerifyConfig(n=2, levels=k), name):
            pass
    sampled = VerifyConfig(n=3, levels=3, samples=10000, seed=0)
    for result in _all_pass(sampled, name):
        assert result.checks >= 10000

    # variant 2 fails monotonicity; the suite reports the witness it found
    (violation,) = run_laws(VerifyConfig(levels=3), ["variant2-not-monotone"])
    assert violation.status == "xfail" and violation.detail

    # and the witness stays pinned as a direct regression check
    scale = levels_scale(3)
    v = Capacity(
        3, scale, tuple(scale.zero if m == 0 else scale.one for m in range(8))
    )
    from symsug import Profile

    low = Profile(scale, tuple(scale.value(g) for g in (-3, 2, 3)))
    high = Profile(scale, tuple(scale.value(g) for g in (-3, 3, 3)))
    assert sugeno_variant2(v, low) == scale.value(2)
    assert sugeno_variant2(v, high) == scale.zero
    _within(60.0, started)


def test_criterion_10_choquet_reference_suite():
    started = time.perf_counter()
    config = VerifyConfig(n=4, levels=3, samples=10000, seed=0)
    names = ["choquet-forms-agree", "choquet-conjugation-symmetry"]
    for result in _all_pass(config, names):
        assert result.checks >= 10000
    _within(60.0, started)
