"""Oracle independence: each agreement law compares forms that run apart.

A law that says two forms of one quantity agree tests something only if
the forms do not run the same code: a fault in a kernel that both forms
run moves both sides alike, and the law still passes (Knight & Leveson,
"An experimental evaluation of the assumption of independence in
multiversion programming", IEEE TSE 12(1), 1986).

A ``sys.setprofile`` hook records the ``symsug`` functions that each form
reaches on a few small instances (n = 1 to 4, on a levels and the unit
scale); nested functions, comprehensions and lambdas count as the function
they sit in.  ``PRIMITIVES`` are left out of every comparison: each is
checked against its own definition by the test or law named beside it.
Every agreement law must compare at least one pair of forms that shares
nothing else, and the code any pair shares beyond the primitives is
declared in ``SHARED``, so that a change routing one form through the
other's kernel fails here although every value stays the same.
"""

from __future__ import annotations

import functools
import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from pathlib import Path
from random import Random

import pytest

import symsug
from symsug import (
    Capacity,
    Profile,
    RealSetFunction,
    Rule,
    canonical_ordinal_mobius,
    choquet,
    choquet_asymmetric,
    choquet_mobius,
    choquet_symmetric,
    classical_mobius,
    conjugate,
    even_odd_mobius,
    fold_sym_max,
    levels_scale,
    necessity_measure,
    ordinal_mobius_interval,
    possibility_measure,
    sipos_mobius,
    sugeno,
    sugeno_symmetric,
    sugeno_symmetric_explicit,
    sugeno_variant1,
    sugeno_variant2,
    sugeno_variant3,
    sym_max,
    sym_min,
    unit_scale,
)
from symsug.mobius import (
    classical_zeta,
    is_solution,
    mobius_necessity,
    mobius_possibility,
    reconstruct,
    reconstruct_from_conjugate,
)
from symsug.integrals import (
    _mobius_grade,
    _parts,
    _rank_grades,
    _signed_minima,
    _symmetric_mobius_grade,
    choquet_symmetric_explicit,
)
from symsug.rules import _fold_signed
from symsug.verify import _rank_orders, _zeta_buckets, law_names, sample_capacity

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="code objects name their class from 3.11"
)

PACKAGE = Path(symsug.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
SCALE = "tests/test_scale.py::"
CAPACITY = "tests/test_capacity.py::"
INTEGRALS = "tests/test_integrals.py::"
HERE = "tests/test_oracle_independence.py::"
SIGNED_KERNELS = SCALE + "test_the_signed_kernels_give_what_sym_max_and_sym_min_give"
ACCESSORS = HERE + "test_the_order_and_the_accessors_read_the_signed_numbers"
RECORDS = SCALE + "test_records_are_frozen_and_compare_and_hash_on_their_fields"

# primitive -> the test that checks it against its own definition
PRIMITIVES = {
    # the signed algebra, against the closed forms of marichal-forms
    "scale._sym_max_signed": SIGNED_KERNELS,
    "scale._clip": SIGNED_KERNELS,
    "scale.sym_max": SCALE + "test_sym_max_closed_form",
    # the subset kernels, against their subset-walk definitions; both
    # directions of classical-roundtrip run zeta
    "capacity.rank_sets": (
        CAPACITY + "test_rank_sets_are_the_lower_then_upper_sets_of_the_ranking"
    ),
    "capacity.fold_members": CAPACITY + "test_fold_members_folds_the_members_of_every_subset",
    "capacity.zeta": CAPACITY + "test_zeta_folds_the_subsets_of_every_mask",
    "capacity._slice_pairs": (
        CAPACITY + "test_slice_pairs_match_each_mask_with_the_mask_adding_a_player"
    ),
    "integrals._parts": HERE + "test_parts_are_the_gains_and_the_losses",
    # checks of arguments
    "scale.check_scale": SCALE + "test_every_site_reports_a_mixed_scale_the_same_way",
    "capacity._check_pair": SCALE + "test_every_site_reports_a_mixed_scale_the_same_way",
    "scale._exact": SCALE + "test_exact_names_what_it_cannot_read",
    "scale.ScaleValue.__post_init__": SCALE + "test_off_scale_values_rejected",
    "capacity._check_players": CAPACITY + "test_a_bool_is_no_player_count",
    "capacity._dense_table": CAPACITY + "test_set_function_lookup_and_bounds",
    "capacity.SetFunction.__post_init__": CAPACITY + "test_set_function_lookup_and_bounds",
    "capacity._distribution_scale": (
        "tests/test_mobius.py::"
        "test_transforms_of_an_empty_distribution_raise_the_capacity_error"
    ),
    "mobius.RealSetFunction.__post_init__": (
        INTEGRALS + "test_the_choquet_side_rejects_binary_floats"
    ),
    "integrals._check_real_args": INTEGRALS + "test_a_choquet_profile_must_score_every_player",
    # wrapping and reading values
    "scale.SymmetricScale.value": SCALE + "test_interned_grades_compare_equal_to_fresh_values",
    "scale.SymmetricScale.zero": SCALE + "test_zero_and_one_are_built_once_per_scale",
    "scale.SymmetricScale.negate": SCALE + "test_order_reversing_negation",
    "scale.ScaleValue.sign": ACCESSORS,
    "scale.ScaleValue.__gt__": ACCESSORS,
    "scale.ScaleValue._comparable": ACCESSORS,
    "integrals.Profile.n": ACCESSORS,
    "capacity.full_set": CAPACITY + "test_subsets_is_the_full_power_set",
    # the records' constructors and equality
    "scale._Record.__eq__": RECORDS,
    "scale.ScaleValue.__init__": RECORDS,
    "scale.ScaleValue.__eq__": RECORDS,
    "capacity.SetFunction.__init__": RECORDS,
    "mobius.RealSetFunction.__init__": RECORDS,
    "mobius.MobiusInterval.__init__": RECORDS,
}

# laws that do not say two forms of one quantity agree, with what they say
IDENTITY = "an identity of the scale algebra"
METAMORPHIC = "one form on related inputs"
PROPERTY = "a property of one form"
WITNESS = "a pinned counterexample, or a search for one"
NOT_AGREEMENT = {
    "reflection-involution": IDENTITY,
    "reflection-de-morgan": IDENTITY,
    "symmax-commutative": IDENTITY,
    "symmin-commutative": IDENTITY,
    "zero-neutral-absorbing-unique": IDENTITY,
    "one-neutral-absorbing-unique": IDENTITY,
    "opposites-cancel": IDENTITY,
    "reflection-distributes": IDENTITY,
    "symmax-conditional-associative": IDENTITY,
    "symmin-associative": IDENTITY,
    "symmin-distributive-same-sign": IDENTITY,
    "symmax-nonassociative-witness": WITNESS,
    "fold-reflection-symmetry": METAMORPHIC,
    "fold-order-invariance": METAMORPHIC,
    "floor-ceil-monotone": METAMORPHIC,
    "angle-monotonic": WITNESS,
    "fold-identities": "folds of fixed multisets against constants",
    "conjugate-involution": METAMORPHIC,
    "possibility-maxitive-necessity-minitive": PROPERTY,
    "named-capacities-valid": PROPERTY,
    "k-maxitive-families": PROPERTY,
    "mobius-not-linear-witness": WITNESS,
    "choquet-conjugation-symmetry": METAMORPHIC,
    "mixed-block-vanishes": PROPERTY,
    "integral-symmetry": METAMORPHIC,
    "sugeno-symmetric-monotone": METAMORPHIC,
    "variant2-not-monotone": WITNESS,
    "rank-fold-tie-sensitive": WITNESS,
    "rank-ceil-not-monotone": WITNESS,
    "variant1-representative-sensitivity": WITNESS,
    "worked-example-goldens": "one instance against published constants",
}


# -- instances -------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    v: Capacity
    f: Profile  # signed
    nonneg: Profile  # the magnitudes of f
    pi: tuple  # a distribution that reaches the top
    interval: object  # the interval of v, for the forms that read it
    conjugate_lower: object  # the lower bound of the conjugate's interval
    orders: list  # every ascending ranking of f
    real: RealSetFunction | None  # v as rationals, on the unit scale only
    scores: list | None  # f as rationals, on the unit scale only


L3 = levels_scale(3)
UNIT = unit_scale()
# a signed profile per player count, with a tie and a zero among them
PROFILES = ([-2], [2, -1], [-3, 1, 1], [2, -2, 0, 3])


def _instance(n: int, scale) -> Instance:
    grades = [x.signed for x in sample_capacity(Random(n), n, L3).table]
    value = (lambda g: UNIT.value(Fraction(g, 3))) if scale is UNIT else L3.value
    v = Capacity(n, scale, tuple(map(value, grades)))
    f = Profile(scale, tuple(map(value, PROFILES[n - 1])))
    nonneg = Profile(scale, tuple(map(value, map(abs, PROFILES[n - 1]))))
    pi = (scale.one, *nonneg.scores[1:])
    real = scores = None
    if scale is UNIT:
        real = RealSetFunction(n, tuple(x.signed for x in v.table))
        scores = [x.signed for x in f.scores]
    return Instance(
        v, f, nonneg, pi, ordinal_mobius_interval(v),
        ordinal_mobius_interval(conjugate(v)).lower, list(_rank_orders(f)),
        real, scores,
    )


INSTANCES = [_instance(n, scale) for scale in (L3, UNIT) for n in range(1, 5)]


# -- forms -----------------------------------------------------------------------


def _bounds(v: Capacity) -> list[list]:
    """The signed weights of both bounds of the interval of ``v``."""
    interval = ordinal_mobius_interval(v)
    return [[w.signed for w in m.table] for m in (interval.lower, interval.upper)]


def _masks(i: Instance) -> range:
    return range(1 << i.v.n)


def _pairs(i: Instance):
    return itertools.product(i.f.scores, repeat=2)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _real(form):
    """A Choquet-side form, which runs on the unit-scale instances only."""
    return lambda i: None if i.real is None else form(i)


FORMS = {
    # the scale algebra and its closed forms, as marichal-forms states them
    "sym_max": lambda i: [sym_max(a, b) for a, b in _pairs(i)],
    "closed sym_max": lambda i: [
        _sign(a.signed + b.signed) * max(abs(a.signed), abs(b.signed))
        for a, b in _pairs(i)
    ],
    "sym_min": lambda i: [sym_min(a, b) for a, b in _pairs(i)],
    "closed sym_min": lambda i: [
        _sign(a.signed * b.signed) * min(abs(a.signed), abs(b.signed))
        for a, b in _pairs(i)
    ],
    # folds
    **{
        f"{rule} fold": functools.partial(
            lambda i, rule: fold_sym_max(i.f.scores, rule, scale=i.f.scale), rule=rule
        )
        for rule in Rule
    },
    "plain fold": lambda i: reduce(sym_max, i.f.scores),
    # the classical transform
    "classical mobius": _real(lambda i: classical_mobius(i.real)),
    "classical zeta": _real(lambda i: classical_zeta(i.real)),
    "unanimity indicator": lambda i: [
        Fraction(mask == b_mask) for b_mask in _masks(i) for mask in _masks(i)
    ],
    # the ordinal transform
    "interval": lambda i: ordinal_mobius_interval(i.v),
    "subset fold": lambda i: [
        is_solution(i.v, bound, Rule.FLOOR)
        for bound in (i.interval.lower, i.interval.upper)
    ],
    "brute force": lambda i: (
        _zeta_buckets.__wrapped__(i.v.n, i.v.scale.levels).get(
            tuple(x.signed for x in i.v.table)
        )
        if i.v.scale is L3 and i.v.n <= 2 else None
    ),
    "floor canonical": lambda i: canonical_ordinal_mobius(i.v, Rule.FLOOR),
    "angle canonical": lambda i: canonical_ordinal_mobius(i.v, Rule.ANGLE),
    "even-odd": lambda i: even_odd_mobius(i.v),
    "reconstruct": lambda i: [
        reconstruct(bound, mask)
        for bound in (i.interval.lower, i.interval.upper)
        for mask in _masks(i)
    ],
    "conjugate interval": lambda i: ordinal_mobius_interval(conjugate(i.v)),
    "conjugate reconstruct": lambda i: [
        reconstruct_from_conjugate(i.conjugate_lower, mask) for mask in _masks(i)
    ],
    "possibility closed form": lambda i: mobius_possibility(i.pi),
    "possibility interval": lambda i: ordinal_mobius_interval(possibility_measure(i.pi)),
    "necessity closed form": lambda i: mobius_necessity(i.pi),
    "necessity interval": lambda i: ordinal_mobius_interval(necessity_measure(i.pi)),
    # the Choquet family
    "layer": _real(lambda i: choquet(i.real, list(map(abs, i.scores)))),
    "transform of nonneg": _real(
        lambda i: choquet_mobius(classical_mobius(i.real), list(map(abs, i.scores)))
    ),
    "transform": _real(lambda i: choquet_mobius(classical_mobius(i.real), i.scores)),
    "asymmetric": _real(lambda i: choquet_asymmetric(i.real, i.scores)),
    "sipos": _real(lambda i: sipos_mobius(classical_mobius(i.real), i.scores)),
    "choquet split": _real(lambda i: choquet_symmetric(i.real, i.scores)),
    "choquet one-pass": _real(lambda i: choquet_symmetric_explicit(i.real, i.scores)),
    # the Sugeno family
    "plain": lambda i: sugeno(i.v, i.nonneg),
    "plain transform": lambda i: [
        _mobius_grade(weights, _signed_minima(i.nonneg)[0]) for weights in _bounds(i.v)
    ],
    "split": lambda i: sugeno_symmetric(i.v, i.f),
    "one-pass": lambda i: sugeno_symmetric_explicit(i.v, i.f),
    "three-block": lambda i: [
        _symmetric_mobius_grade(weights, *_signed_minima(i.f)) for weights in _bounds(i.v)
    ],
    "split of nonneg": lambda i: sugeno_symmetric(i.v, i.nonneg),
    "v1 of nonneg": lambda i: sugeno_variant1(ordinal_mobius_interval(i.v).lower, i.nonneg),
    "v2 of nonneg": lambda i: sugeno_variant2(i.v, i.nonneg),
    "v3 of nonneg": lambda i: sugeno_variant3(i.v, i.nonneg),
    "ranked floor fold": lambda i: [
        _fold_signed(_rank_grades(i.v, [x.signed for x in i.f.scores], order), Rule.FLOOR)
        for order in i.orders
    ],
}

# agreement law -> the pairs of forms it compares
AGREEMENT = {
    "marichal-forms": (("sym_max", "closed sym_max"), ("sym_min", "closed sym_min")),
    "rules-agree-when-unambiguous": (
        ("floor fold", "plain fold"),
        ("ceil fold", "plain fold"),
        ("angle fold", "plain fold"),
    ),
    "classical-roundtrip": (("classical mobius", "classical zeta"),),
    "classical-unanimity-indicator": (("classical mobius", "unanimity indicator"),),
    "interval-bounds-are-solutions": (("interval", "subset fold"),),
    "interval-is-solution-set": (("interval", "brute force"),),
    "canonical-equals-lower": (
        ("floor canonical", "interval"), ("angle canonical", "interval"),
    ),
    "even-odd-equals-lower": (("even-odd", "interval"),),
    "reconstruction-exact": (("interval", "reconstruct"),),
    "conjugate-reconstruction": (("conjugate interval", "conjugate reconstruct"),),
    "possibility-mobius-singletons": (("possibility closed form", "possibility interval"),),
    "necessity-mobius-tails": (("necessity closed form", "necessity interval"),),
    "choquet-forms-agree": (
        ("transform of nonneg", "layer"),
        ("transform", "asymmetric"),
        ("sipos", "choquet split"),
        ("choquet one-pass", "choquet split"),
    ),
    "sugeno-mobius-representative-free": (("plain transform", "plain"),),
    "symmetric-sugeno-forms-agree": (("one-pass", "split"), ("three-block", "split")),
    "variants-collapse-on-nonneg": (
        ("split of nonneg", "plain"),
        ("v1 of nonneg", "plain"),
        ("v2 of nonneg", "plain"),
        ("v3 of nonneg", "plain"),
    ),
    "floor-tie-order-invariant": (("ranked floor fold", "split"),),
}

# (law, form, form) -> the kernels the pair shares beyond the primitives
SHARED = {
    # the one-pass and the split form run one chain sum, which only the
    # pairs with a transform form check
    ("choquet-forms-agree", "choquet one-pass", "choquet split"): {
        "integrals._ascending", "integrals._chain_sum", "integrals._numerators",
        "integrals._weight",
    },
    # on a nonnegative profile the split form is the plain integral's kernel
    ("variants-collapse-on-nonneg", "split of nonneg", "plain"): {
        "integrals._ascending", "integrals._sugeno_grade",
    },
    ("variants-collapse-on-nonneg", "v3 of nonneg", "plain"): {"integrals._ascending"},
}


# -- the hook --------------------------------------------------------------------


def _caches() -> list:
    """The memoized functions of the package, cleared before each recorded
    call so that what a form reaches does not depend on what ran first."""
    found = {}
    for name, module in sys.modules.items():
        if name == "symsug" or name.startswith("symsug."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def _name(code) -> str:
    """A code object of the package as module.function, with the code
    nested in a function counted as that function."""
    return f"{Path(code.co_filename).stem}.{code.co_qualname.split('.<locals>')[0]}"


@functools.lru_cache(maxsize=None)
def reached(form: str) -> frozenset[str]:
    """The package functions that ``FORMS[form]`` calls on the instances."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    caches = _caches()
    previous = sys.getprofile()
    for instance in INSTANCES:
        for cache in caches:
            cache.cache_clear()
        sys.setprofile(hook)
        try:
            FORMS[form](instance)
        finally:
            sys.setprofile(previous)
    return frozenset(
        _name(code) for code in codes if Path(code.co_filename).parent == PACKAGE
    )


def shared(a: str, b: str) -> set[str]:
    return set(reached(a) & reached(b)) - set(PRIMITIVES)


# -- tests -----------------------------------------------------------------------


def test_every_law_is_an_agreement_law_or_listed_as_none():
    assert not set(AGREEMENT) & set(NOT_AGREEMENT)
    assert sorted(law_names()) == sorted([*AGREEMENT, *NOT_AGREEMENT])


@pytest.mark.parametrize("law", AGREEMENT)
def test_each_agreement_law_compares_two_forms_that_run_apart(law):
    found = {(law, a, b): shared(a, b) for a, b in AGREEMENT[law]}
    declared = {(law, a, b): SHARED.get((law, a, b), set()) for a, b in AGREEMENT[law]}
    assert found == declared
    assert set() in found.values()


def test_parts_are_the_gains_and_the_losses():
    scores = [-3, -1, 0, 2, Fraction(-1, 2), Fraction(0), Fraction(3, 4)]
    assert _parts(scores) == (
        [max(x, 0) for x in scores], [max(-x, 0) for x in scores]
    )


def test_the_order_and_the_accessors_read_the_signed_numbers():
    values = list(L3.signed_values())
    for a, b in itertools.product(values, repeat=2):
        assert (a < b, a <= b, a > b, a >= b) == (
            a.signed < b.signed, a.signed <= b.signed,
            a.signed > b.signed, a.signed >= b.signed,
        )
    assert [a.sign for a in values] == [_sign(a.signed) for a in values]
    assert [i.f.n for i in INSTANCES] == [len(i.f.scores) for i in INSTANCES]


def test_every_primitive_is_a_package_function_checked_by_a_test():
    for name, node in PRIMITIVES.items():
        module, qualname = name.split(".", 1)
        target = sys.modules[f"symsug.{module}"]
        for part in qualname.split("."):
            target = vars(target)[part] if isinstance(target, type) else getattr(target, part)
        path, test = node.split("::")
        assert f"def {test}(" in (ROOT / path).read_text(encoding="utf-8"), name
