"""Named algebraic laws and the harness that checks them.

Every law is a named, self-contained check over a family of instances
(scale elements, multisets, capacities, profiles) drawn either
exhaustively from small discrete scales, as ``VerifyConfig()`` does, or
as S seeded draws under ``VerifyConfig(samples=S)``.  Results are
machine-readable records; a law expected to fail (a pinned
counterexample) reports ``xfail`` when the violation is exhibited and the
suspicious ``xpass`` when it is not.

A law is registered as data: a name, a kind, a family of instances and a
predicate that returns a witness text for an instance that breaks the
law; the predicate's docstring states the law.  :func:`forall` owns the
loop, the check count and the early exit on the first witness;
:func:`exists` is its dual.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache, reduce
from operator import le
from random import Random

from .capacity import (
    MAX_PLAYERS,
    Capacity,
    SetFunction,
    _check_players,
    capacity_problems,
    conjugate,
    covers_of,
    is_maxitive,
    necessity_measure,
    possibility_measure,
    subset_text,
    subsets,
    unanimity,
    zeta,
)
from .integrals import (
    FOLD_RULES,
    Profile,
    _mobius_grade,
    _rank_grades,
    _signed_minima,
    _symmetric_mobius_grade,
    _variant1_kernel,
    choquet,
    choquet_asymmetric,
    choquet_mobius,
    choquet_symmetric,
    choquet_symmetric_explicit,
    sipos_mobius,
    sugeno,
    sugeno_symmetric,
    sugeno_symmetric_explicit,
    ranked_terms,
    sugeno_variant1,
    sugeno_variant2,
    sugeno_variant3,
    symmetric_mobius_blocks,
    variant3_terms,
)
from .mobius import (
    MobiusInterval,
    RealSetFunction,
    canonical_ordinal_mobius,
    classical_mobius,
    classical_zeta,
    even_odd_mobius,
    is_k_maxitive,
    is_solution,
    mobius_necessity,
    mobius_possibility,
    ordinal_mobius_interval,
    real_conjugate,
    reconstruct,
    reconstruct_from_conjugate,
)
from .rules import Rule, _fold_signed, fold_sym_max, is_fold_unambiguous
from .scale import (
    ScaleValue,
    SymmetricScale,
    _format_fraction,
    _Record,
    levels_scale,
    sym_max,
    sym_min,
    unit_scale,
)

# an exhaustive sub-enumeration is replaced by endpoint-plus-sampled
# checking above this many combinations
GRID_LIMIT = 4096
# the draws a law makes in enumerate mode where its instances are too many
# to enumerate: floor-ceil-monotone's pairs and the three-player search
ENUMERATE_DRAWS = 500
# the largest multiset the rule laws fold
MULTISET_SIZE = 4
# the most capacities a sampled Choquet-side law draws
CAPACITY_CAP = 2000


class VerifyConfig(_Record):
    """What family of instances to draw: player count, scale grades, and
    ``samples`` seeded draws, or every instance when ``samples`` is None."""

    def __init__(
        self, n: int = 2, levels: int = 3, samples: int | None = None, seed: int = 0
    ) -> None:
        if not 1 <= n <= MAX_PLAYERS:
            raise ValueError(f"--n must be in 1..{MAX_PLAYERS}")
        if levels < 1:
            raise ValueError("--levels must be at least 1")
        if samples is None and n > 3:
            raise ValueError("exhaustive mode needs --n at most 3; pass --samples")
        if samples is not None and samples < 1:
            raise ValueError("--samples must be positive")
        self.__dict__.update(n=n, levels=levels, samples=samples, seed=seed)


class LawResult(_Record):
    # kind: holds, violates or report; status: pass, fail, xfail, xpass or info
    def __init__(
        self, law: str, kind: str, status: str, checks: int, detail: str = ""
    ) -> None:
        self.__dict__.update(
            law=law, kind=kind, status=status, checks=checks, detail=detail
        )

    @property
    def ok(self) -> bool:
        """False exactly when something unexpected happened."""
        return self.status in ("pass", "xfail", "info")

    def to_record(self) -> dict:
        record = {
            "law": self.law,
            "status": self.status,
            "checks": self.checks,
        }
        if self.detail:
            record["detail"] = self.detail
        return record


# fn(config) -> (witness or None, number of checks, optional note)
LawFn = Callable[[VerifyConfig], tuple[str | None, int, str]]


class Law(_Record):
    def __init__(self, name: str, kind: str, fn: LawFn) -> None:
        self.__dict__.update(name=name, kind=kind, fn=fn)


LAWS: dict[str, Law] = {}

# family(config, rng) -> instances, each a tuple of predicate arguments;
# ``rng`` is the law's own stream, or None for a law that draws nothing
Family = Callable[[VerifyConfig, "Random | None"], Iterable[tuple]]


def forall(
    family: Iterable, predicate: Callable[..., str | None] | None, cost: int = 1
) -> tuple[str | None, int, str]:
    """Check ``predicate(*instance)`` on every instance of ``family``,
    counting ``cost`` checks per instance, and stop at the first witness
    it returns.  Without a predicate each instance is a claim: a witness,
    or None when its check passes.  A family that is a generator may
    return a note (a cap that bit, a count of distinct instances), which
    is reported when no witness turns up."""
    checks = 0
    instances = iter(family)
    while True:
        try:
            instance = next(instances)
        except StopIteration as end:
            return None, checks, end.value or ""
        checks += cost
        witness = instance if predicate is None else predicate(*instance)
        if witness is not None:
            return witness, checks, ""


def exists(
    family: Iterable, predicate: Callable[..., str | None], missing: str
) -> tuple[str | None, int, str]:
    """The dual of :func:`forall`: the first witness found is the note of
    a success, and finding none fails with ``missing``."""
    found, checks, _ = forall(family, predicate)
    if found is None:
        return missing, checks, ""
    return None, checks, found


def _law(
    name: str,
    family: Family | None = None,
    kind: str = "holds",
    tag: str | None = None,
    missing: str | None = None,
    cost: Callable[[VerifyConfig], int] | None = None,
):
    """Register a law over ``family``, drawn from the random stream named
    ``tag``, and checked by :func:`forall` (by :func:`exists` when the
    ``missing`` text is given).  The decorated function is the predicate,
    and its docstring states the law.  Without a family it is a generator
    of claims over the config and the stream instead.  ``cost`` gives the
    checks one instance counts."""

    def register(fn: Callable) -> Callable:
        def check(config: VerifyConfig) -> tuple[str | None, int, str]:
            rng = _rng(config, tag) if tag else None
            if family is None:
                return forall(fn(config, rng), None)
            if missing is not None:
                return exists(family(config, rng), fn, missing)
            return forall(family(config, rng), fn, cost(config) if cost else 1)

        LAWS[name] = Law(name, kind, check)
        return fn

    return register


def run_law(law: Law, config: VerifyConfig) -> LawResult:
    witness, checks, note = law.fn(config)
    if law.kind == "report":
        return LawResult(law.name, law.kind, "info", checks, witness or note)
    if law.kind == "violates":
        if witness is None:
            return LawResult(
                law.name, law.kind, "xpass", checks,
                note or "expected violation was not exhibited",
            )
        return LawResult(law.name, law.kind, "xfail", checks, witness)
    if witness is not None:
        return LawResult(law.name, law.kind, "fail", checks, witness)
    return LawResult(law.name, law.kind, "pass", checks, note)


def run_laws(
    config: VerifyConfig, names: Sequence[str] | None = None
) -> list[LawResult]:
    if names is None:
        selected = list(LAWS.values())
    else:
        missing = [name for name in names if name not in LAWS]
        if missing:
            raise KeyError(f"unknown law(s): {', '.join(missing)}")
        selected = [LAWS[name] for name in names]
    return [run_law(law, config) for law in selected]


def law_names() -> list[str]:
    return list(LAWS)


# -- instance generators -------------------------------------------------------


def _rng(config: VerifyConfig, tag: str) -> Random:
    # one independent deterministic stream per law
    return Random(f"{config.seed}:{tag}")


def _grades(scale: SymmetricScale, *grades: int) -> tuple[ScaleValue, ...]:
    return tuple(scale.value(g) for g in grades)


def iter_capacities(n: int, scale: SymmetricScale) -> Iterator[Capacity]:
    """Every capacity on n players over a levels scale, by backtracking in
    order of subset size (covers are always assigned first)."""
    _check_players(n)
    k = scale.levels
    size = 1 << n
    free = sorted(
        (m for m in range(1, size - 1)), key=lambda m: (m.bit_count(), m)
    )
    grades = [0] * size
    grades[size - 1] = k

    def assign(idx: int) -> Iterator[Capacity]:
        if idx == len(free):
            yield Capacity(n, scale, _grades(scale, *grades))
            return
        mask = free[idx]
        floor = max((grades[c] for c in covers_of(mask)), default=0)
        for grade in range(floor, k + 1):
            grades[mask] = grade
            yield from assign(idx + 1)
        grades[mask] = 0

    yield from assign(0)


def _monotone_grades(rng: Random, n: int, k: int) -> list[int]:
    """Seeded grades 0..k per subset, raised to be monotone, with k on the
    full set."""
    grades = zeta([0] + [rng.randint(0, k) for _ in range(1, 1 << n)], max)
    grades[-1] = k
    return grades


def sample_capacity(rng: Random, n: int, scale: SymmetricScale) -> Capacity:
    _check_players(n)
    grades = _monotone_grades(rng, n, scale.levels)
    return Capacity(n, scale, _grades(scale, *grades))


def iter_profiles(
    n: int, scale: SymmetricScale, signed: bool = True
) -> Iterator[Profile]:
    values = list(scale.signed_values() if signed else scale.nonnegative_values())
    for scores in itertools.product(values, repeat=n):
        yield Profile(scale, scores)


def sample_profile(
    rng: Random, n: int, scale: SymmetricScale, signed: bool = True
) -> Profile:
    k = scale.levels
    low = -k if signed else 0
    return Profile(
        scale, tuple(scale.value(rng.randint(low, k)) for _ in range(n))
    )


# one scale object per grade count, so that the capacity streams of a run,
# such as the two of the sensitivity search, intern each grade once
_levels_scale = lru_cache(maxsize=None)(levels_scale)


def _capacities(config: VerifyConfig, rng: Random) -> Iterator[Capacity]:
    scale = _levels_scale(config.levels)
    if config.samples is None:
        yield from iter_capacities(config.n, scale)
    else:
        for _ in range(config.samples):
            yield sample_capacity(rng, config.n, scale)


def _each_interval(config: VerifyConfig, rng: Random):
    # the interval draws nothing from the rng, so no draw moves
    for v in _capacities(config, rng):
        yield v, ordinal_mobius_interval(v)


def _instances(
    config: VerifyConfig, rng: Random, signed: bool = True
) -> Iterator[tuple[Capacity, MobiusInterval, Profile]]:
    # each sampled profile is drawn right after its capacity, on the same
    # scale object, so that both share its interned grades
    for v, interval in _each_interval(config, rng):
        if config.samples is None:
            for f in iter_profiles(config.n, v.scale, signed):
                yield v, interval, f
        else:
            yield v, interval, sample_profile(rng, config.n, v.scale, signed)


def _box(interval: MobiusInterval) -> tuple[list[range], int]:
    """The grades each mask ranges over between the bounds, and the number
    of corners of that box."""
    spans = [
        range(lo.signed, hi.signed + 1)
        for lo, hi in zip(interval.lower.table, interval.upper.table)
    ]
    return spans, math.prod(map(len, spans))


def _members(
    config: VerifyConfig, box: tuple[list[range], int], rng: Random
) -> Iterator[tuple[int, ...]]:
    """The signed grade tables in an interval's :func:`_box`: all of them
    when the box has at most ``cap`` corners, otherwise the two bounds plus
    ``extra`` seeded draws."""
    # sampling mode trades per-instance coverage for instance count
    cap, extra = (GRID_LIMIT, 16) if config.samples is None else (8, 4)
    spans, volume = box
    if volume <= cap:
        yield from itertools.product(*spans)
        return
    yield tuple(span[0] for span in spans)
    yield tuple(span[-1] for span in spans)
    for _ in range(extra):
        yield tuple(rng.choice(span) for span in spans)


def worked_example() -> tuple[Capacity, Profile]:
    """The three-player unit-scale instance used across the documentation:
    a strictly monotone capacity except for one tie, and a signed profile."""
    scale = unit_scale()
    v = Capacity.from_values(
        3,
        scale,
        {
            "{}": "0",
            "{1}": "0.3",
            "{2}": "0.25",
            "{3}": "0.2",
            "{1,2}": "0.4",
            "{1,3}": "0.3",
            "{2,3}": "0.6",
            "{1,2,3}": "1",
        },
    )
    f = Profile.from_values(scale, ["-1", "0.3", "1"])
    return v, f


# -- families ------------------------------------------------------------------


def _once(config: VerifyConfig, rng: Random | None) -> list[tuple]:
    # the one-element family of a pinned witness, which its predicate builds
    return [()]


def _tuples(arity: int, unambiguous: bool | None = None) -> Family:
    """Every ``arity``-tuple of scale elements; with ``unambiguous`` set,
    only those whose plain fold is (or is not) unambiguous."""

    def family(config: VerifyConfig, rng: Random | None):
        elements = levels_scale(config.levels).signed_values()
        tuples = itertools.product(elements, repeat=arity)
        if unambiguous is None:
            return tuples
        return (t for t in tuples if is_fold_unambiguous(t) == unambiguous)

    return family


def _same_sign_triples(config: VerifyConfig, rng: Random | None):
    elements = list(levels_scale(config.levels).signed_values())
    for side in (
        [a for a in elements if a.sign >= 0],
        [a for a in elements if a.sign <= 0],
    ):
        yield from itertools.product(side, repeat=3)


def _candidates(config: VerifyConfig, rng: Random | None):
    # every element, with all the elements to try it against
    elements = list(levels_scale(config.levels).signed_values())
    return ((candidate, elements) for candidate in elements)


def _each_rule(family: Family, rules: Sequence[Rule] = tuple(Rule)) -> Family:
    def expanded(config: VerifyConfig, rng: Random | None):
        for instance in family(config, rng):
            for rule in rules:
                yield (*instance, rule)

    return expanded


def _each_capacity(config: VerifyConfig, rng: Random):
    return ((v,) for v in _capacities(config, rng))


def _each_distribution(config: VerifyConfig, rng: Random):
    return ((pi,) for pi in _distributions(config, rng))


def _each_instance(signed: bool) -> Family:
    return lambda config, rng: _instances(config, rng, signed)


# -- scale laws ----------------------------------------------------------------


@_law("reflection-involution", _tuples(1))
def _reflection_involution(a: ScaleValue):
    """Reflecting twice is the identity on every scale element."""
    if -(-a) != a:
        return f"-(-{a}) != {a}"


@_law("reflection-de-morgan", _tuples(2))
def _reflection_de_morgan(a: ScaleValue, b: ScaleValue):
    """Reflection swaps lattice max and min."""
    if -max(a, b) != min(-a, -b) or -min(a, b) != max(-a, -b):
        return f"de morgan fails at ({a}, {b})"


@_law("marichal-forms", _tuples(2))
def _marichal_forms(a: ScaleValue, b: ScaleValue):
    """sym-max equals sign(a+b)(|a| max |b|) and sym-min equals sign(ab)(|a|
    min |b|) on the numeric embedding."""
    total = a.signed + b.signed
    sign_sum = (total > 0) - (total < 0)
    expected_max = sign_sum * max(abs(a.signed), abs(b.signed))
    product = a.signed * b.signed
    sign_product = (product > 0) - (product < 0)
    expected_min = sign_product * min(abs(a.signed), abs(b.signed))
    if sym_max(a, b).signed != expected_max:
        return f"sym-max mismatch at ({a}, {b})"
    if sym_min(a, b).signed != expected_min:
        return f"sym-min mismatch at ({a}, {b})"


@_law("symmax-commutative", _tuples(2))
def _symmax_commutative(a: ScaleValue, b: ScaleValue):
    """a sym-max b = b sym-max a."""
    if sym_max(a, b) != sym_max(b, a):
        return f"sym-max not commutative at ({a}, {b})"


@_law("symmin-commutative", _tuples(2))
def _symmin_commutative(a: ScaleValue, b: ScaleValue):
    """a sym-min b = b sym-min a."""
    if sym_min(a, b) != sym_min(b, a):
        return f"sym-min not commutative at ({a}, {b})"


@_law(
    "zero-neutral-absorbing-unique",
    _candidates,
    # a candidate is tried against each of the 2K + 1 elements
    cost=lambda config: 2 * config.levels + 1,
)
def _zero_neutral_absorbing(candidate: ScaleValue, elements: list[ScaleValue]):
    """0 is the unique neutral element of sym-max and the unique absorbing
    element of sym-min, over all candidates."""
    is_zero = candidate == candidate.scale.zero
    if is_zero != all(sym_max(a, candidate) == a for a in elements):
        return f"neutral-element test wrong at {candidate}"
    if is_zero != all(sym_min(a, candidate) == candidate for a in elements):
        return f"absorbing-element test wrong at {candidate}"


@_law(
    "one-neutral-absorbing-unique",
    _candidates,
    # a candidate is tried against all 2K + 1 elements and the K + 1
    # nonnegative ones
    cost=lambda config: 3 * config.levels + 2,
)
def _one_neutral_absorbing(candidate: ScaleValue, elements: list[ScaleValue]):
    """1 is the unique neutral element of sym-min over all of L, and the unique
    element absorbing the whole nonnegative side under sym-max."""
    nonnegative = [a for a in elements if a.sign >= 0]
    is_one = candidate == candidate.scale.one
    if is_one != all(sym_min(a, candidate) == a for a in elements):
        return f"neutral-element test wrong at {candidate}"
    if is_one != all(sym_max(a, candidate) == candidate for a in nonnegative):
        return f"absorbing-element test wrong at {candidate}"


@_law("opposites-cancel", _tuples(1))
def _opposites_cancel(a: ScaleValue):
    """a sym-max (-a) = 0 for every a."""
    if sym_max(a, -a) != a.scale.zero:
        return f"{a} sym-max -{a} != 0"


@_law("reflection-distributes", _tuples(2))
def _reflection_distributes(a: ScaleValue, b: ScaleValue):
    """-(a sym-max b) = (-a) sym-max (-b)."""
    if -sym_max(a, b) != sym_max(-a, -b):
        return f"reflection fails at ({a}, {b})"


@_law("symmax-conditional-associative", _tuples(3, unambiguous=True))
def _symmax_conditional_associative(a, b, c):
    """Both parenthesizations of a sym-max b sym-max c agree whenever max !=
    -min over the triple."""
    if sym_max(sym_max(a, b), c) != sym_max(a, sym_max(b, c)):
        return f"associativity fails at ({a}, {b}, {c})"


@_law(
    "symmax-nonassociative-witness",
    _tuples(3, unambiguous=False),
    missing="no non-associative triple found",
)
def _symmax_nonassociative_witness(a, b, c):
    """Some triple with max = -min has parenthesizations that disagree."""
    left = sym_max(sym_max(a, b), c)
    right = sym_max(a, sym_max(b, c))
    if left != right:
        return f"witness: ({a}, {b}, {c}) gives {left} vs {right}"


@_law("symmin-associative", _tuples(3))
def _symmin_associative(a, b, c):
    """sym-min is associative on all of L."""
    if sym_min(sym_min(a, b), c) != sym_min(a, sym_min(b, c)):
        return f"associativity fails at ({a}, {b}, {c})"


@_law("symmin-distributive-same-sign", _same_sign_triples)
def _symmin_distributive(a, b, c):
    """sym-min distributes over sym-max on triples drawn from one side of the
    scale."""
    if sym_min(a, sym_max(b, c)) != sym_max(sym_min(a, b), sym_min(a, c)):
        return f"distributivity fails at ({a}, {b}, {c})"


# -- rule laws -------------------------------------------------------------


def _multisets(elements: Sequence[ScaleValue]) -> Iterator[tuple[ScaleValue, ...]]:
    for size in range(MULTISET_SIZE + 1):
        yield from itertools.combinations_with_replacement(elements, size)


def _each_multiset(config: VerifyConfig, rng: Random | None):
    scale = levels_scale(config.levels)
    for values in _multisets(list(scale.signed_values())):
        yield scale, values


def _unambiguous_multisets(config: VerifyConfig, rng: Random):
    for scale, values in _each_multiset(config, rng):
        if is_fold_unambiguous(values):
            plain = reduce(sym_max, values) if values else scale.zero
            shuffled = list(values)
            rng.shuffle(shuffled)
            yield scale, values, plain, shuffled


@_law(
    "rules-agree-when-unambiguous",
    _each_rule(_unambiguous_multisets),
    tag="rules-agree",
)
def _rules_agree(scale, values, plain, shuffled, rule):
    """Floor, ceil and angle all equal the plain fold on unambiguous multisets,
    in any order."""
    if fold_sym_max(values, rule, scale=scale) != plain:
        return f"{rule} != plain fold on {_show(values)}"
    if fold_sym_max(shuffled, rule, scale=scale) != plain:
        return f"{rule} order-dependent on {_show(values)}"


def _reflected_multisets(config: VerifyConfig, rng: Random | None):
    for scale, values in _each_multiset(config, rng):
        yield scale, values, tuple(-a for a in values)


@_law("fold-reflection-symmetry", _each_rule(_reflected_multisets))
def _fold_reflection(scale, values, reflected, rule):
    """Folding the reflected multiset reflects the fold, all rules."""
    if fold_sym_max(reflected, rule, scale=scale) != -fold_sym_max(
        values, rule, scale=scale
    ):
        return f"{rule} breaks symmetry on {_show(values)}"


def _reorderings(config: VerifyConfig, rng: Random):
    for scale, values, rule in _each_rule(_each_multiset)(config, rng):
        reference = fold_sym_max(values, rule, scale=scale)
        for _ in range(2):
            shuffled = list(values)
            rng.shuffle(shuffled)
            yield scale, values, rule, reference, shuffled


@_law(
    "fold-order-invariance",
    _reorderings,
    tag="fold-order",
)
def _fold_order_invariance(scale, values, rule, reference, shuffled):
    """Every rule gives the same fold on any reordering."""
    if fold_sym_max(shuffled, rule, scale=scale) != reference:
        return f"{rule} order-dependent on {_show(values)}"


@_law("floor-ceil-monotone", tag="floor-ceil")
def _floor_ceil_monotone(config: VerifyConfig, rng: Random):
    """Raising any entry of a sorted multiset cannot lower the floor or ceil
    fold."""
    scale = levels_scale(config.levels)
    # one fold table per rule, from grade tuples to the fold's signed grade:
    # each (multiset, rule) is wrapped and folded once, however many pairs
    # share the multiset
    tables = [(rule, {}) for rule in (Rule.FLOOR, Rule.CEIL)]

    def fold(grades: tuple[int, ...], rule: Rule, table: dict) -> int:
        if grades not in table:
            values = _grades(scale, *grades)
            table[grades] = fold_sym_max(values, rule, scale=scale).signed
        return table[grades]

    if 2 * scale.levels + 1 <= 9:
        pairs = _dominated_pairs_exhaustive(scale.levels)
    else:
        count = ENUMERATE_DRAWS if config.samples is None else config.samples
        pairs = _dominated_pairs_sampled(scale.levels, rng, count)
    for low, high in pairs:
        for rule, table in tables:
            if fold(low, rule, table) > fold(high, rule, table):
                low_text, high_text = (_show(_grades(scale, *g)) for g in (low, high))
                yield f"{rule} decreases from {low_text} to {high_text}"
            else:
                yield None


def _dominated_pairs_exhaustive(k: int):
    """Every pair of sorted grade tuples of one size with ``low <= high``
    entrywise, ``low`` in lexicographic order and its ``high``s after it:
    a tuple dominating ``low`` is never lexicographically below it."""
    for size in range(1, MULTISET_SIZE + 1):
        sets = list(itertools.combinations_with_replacement(range(-k, k + 1), size))
        for i, low in enumerate(sets):
            for high in sets[i:]:
                if all(map(le, low, high)):
                    yield low, high


def _dominated_pairs_sampled(k: int, rng: Random, count: int):
    for _ in range(count):
        size = rng.randint(1, MULTISET_SIZE)
        low = sorted(rng.randint(-k, k) for _ in range(size))
        high = sorted(rng.randint(g, k) for g in low)
        yield tuple(low), tuple(high)


@_law(
    "angle-monotonic",
    _once,
    kind="violates",
)
def _angle_monotonic():
    """The angle rule is not monotone; the pinned five-element pair exhibits a
    strict decrease."""
    scale = levels_scale(5)
    low = _grades(scale, -5, -5, -1, 2, 5)
    high = _grades(scale, -5, -4, -1, 2, 5)
    assert all(a <= b for a, b in zip(low, high))
    left = fold_sym_max(low, Rule.ANGLE)
    right = fold_sym_max(high, Rule.ANGLE)
    if left > right:
        return (
            f"angle fold drops from {left} to {right} although "
            f"{_show(low)} <= {_show(high)} entrywise"
        )


def _fold_identity_cases(config: VerifyConfig, rng: Random | None):
    """Per rule: the empty multiset, 1, 2 and 5 zeros, and every singleton,
    each with the fold it must give and the template of its witness."""
    scale = levels_scale(config.levels)
    zero = scale.zero
    for rule in Rule:
        yield scale, rule, (), zero, "empty {rule} fold is not 0"
        for count in (1, 2, 5):
            yield scale, rule, (zero,) * count, zero, "all-zero {rule} fold is not 0"
        for a in scale.signed_values():
            yield scale, rule, (a,), a, "singleton {rule} fold breaks at {a}"


@_law("fold-identities", _fold_identity_cases)
def _fold_identities(scale, rule, values, expected, witness):
    """Singleton folds are the element; empty and all-zero folds are 0."""
    if fold_sym_max(values, rule, scale=scale) != expected:
        return witness.format(rule=rule, a=expected)


# -- capacity laws ---------------------------------------------------------


@_law(
    "conjugate-involution",
    _each_capacity,
    tag="conjugate-involution",
)
def _conjugate_involution(v: Capacity):
    """Conjugating twice returns the original capacity."""
    if conjugate(conjugate(v)).table != v.table:
        return f"involution fails on {_table(v)}"


def _distributions(
    config: VerifyConfig, rng: Random
) -> Iterator[tuple[ScaleValue, ...]]:
    scale = levels_scale(config.levels)
    k = scale.levels
    if config.samples is None:
        for grades in itertools.product(range(k + 1), repeat=config.n):
            if max(grades) == k:
                yield _grades(scale, *grades)
    else:
        for _ in range(config.samples):
            grades = [rng.randint(0, k) for _ in range(config.n)]
            grades[rng.randrange(config.n)] = k
            yield _grades(scale, *grades)


def _distribution_pairs(config: VerifyConfig, rng: Random):
    for pi in _distributions(config, rng):
        upper = possibility_measure(pi)
        lower = necessity_measure(pi)
        maxitive = is_maxitive(upper)
        for a, b in itertools.product(subsets(upper.n), repeat=2):
            yield pi, maxitive, lower, a, b


@_law(
    "possibility-maxitive-necessity-minitive",
    _distribution_pairs,
    tag="possibility-maxitive",
)
def _possibility_maxitive(pi, maxitive, lower, a, b):
    """Possibility measures join-distribute over unions; their conjugates
    meet-distribute over intersections."""
    if not maxitive:
        return f"possibility not maxitive for pi={_show(pi)}"
    if lower(a & b) != min(lower(a), lower(b)):
        return f"necessity not minitive for pi={_show(pi)}"


def _named_capacities(config: VerifyConfig, rng: Random):
    # (measure, its focal set or None, its distribution or None)
    scale = levels_scale(config.levels)
    for b_mask in subsets(config.n):
        yield unanimity(config.n, b_mask, scale), b_mask, None
    for pi in _distributions(config, rng):
        yield possibility_measure(pi), None, pi
        yield necessity_measure(pi), None, pi


@_law(
    "named-capacities-valid",
    _named_capacities,
    tag="named-capacities",
)
def _named_capacities_valid(measure: SetFunction, b_mask, pi):
    """Unanimity games (all focal sets) and possibility/necessity measures
    satisfy the capacity axioms."""
    problems = capacity_problems(measure.n, measure.scale, measure.table)
    if problems and pi is None:
        return f"unanimity on {subset_text(b_mask)}: {problems[0]}"
    if problems:
        return f"pi={_show(pi)}: {problems[0]}"


def _maxitive_families(config: VerifyConfig, rng: Random):
    # (measure, the k it is k-maxitive for, its focal set or None, its
    # distribution or None)
    for pi in _distributions(config, rng):
        yield possibility_measure(pi), 1, None, pi
    scale = levels_scale(config.levels)
    for b_mask in range(1, 1 << config.n):
        game = unanimity(config.n, b_mask, scale)
        yield game, b_mask.bit_count(), b_mask, None


@_law(
    "k-maxitive-families",
    _maxitive_families,
    tag="k-maxitive",
)
def _k_maxitive_families(measure, k, b_mask, pi):
    """Possibility measures are 1-maxitive; a unanimity game is exactly
    |B|-maxitive."""
    if pi is not None:
        if not is_k_maxitive(measure, k):
            return f"possibility not {k}-maxitive for pi={_show(pi)}"
    elif not is_k_maxitive(measure, k):
        return f"unanimity on {subset_text(b_mask)} not {k}-maxitive"
    elif k >= 2 and is_k_maxitive(measure, k - 1):
        return f"unanimity on {subset_text(b_mask)} wrongly {k - 1}-maxitive"


# -- classical transform laws ------------------------------------------------


def _random_rational_table(rng: Random, n: int) -> RealSetFunction:
    return RealSetFunction(
        n, tuple(Fraction(rng.randint(-24, 24), 12) for _ in range(1 << n))
    )


def _rational_draws(config: VerifyConfig) -> Iterator[int]:
    """The player count of each rational draw; rationals cannot be
    enumerated, so exhaustive mode draws 200 instances."""
    count = 200 if config.samples is None else config.samples
    return itertools.repeat(min(config.n, 4), count)


def _rational_tables(config: VerifyConfig, rng: Random):
    for n in _rational_draws(config):
        yield (_random_rational_table(rng, n),)


def _rational_instances(config: VerifyConfig, rng: Random):
    for n in _rational_draws(config):
        grades = _monotone_grades(rng, n, 12)
        v = RealSetFunction(n, tuple(Fraction(g, 12) for g in grades))
        yield v, [Fraction(rng.randint(-12, 12), 12) for _ in range(n)]


@_law(
    "classical-roundtrip",
    _rational_tables,
    tag="classical-roundtrip",
)
def _classical_roundtrip(v: RealSetFunction):
    """Zeta of the alternating-sum transform is the identity."""
    if classical_zeta(classical_mobius(v)).table != v.table:
        return f"roundtrip fails on {_rationals(v.table)}"
    if classical_mobius(classical_zeta(v)).table != v.table:
        return f"reverse roundtrip fails on {_rationals(v.table)}"


@_law(
    "classical-unanimity-indicator",
    lambda config, rng: ((config.n, b) for b in range(1, 1 << config.n)),
)
def _classical_unanimity(n: int, b_mask: int):
    """The classical transform of a unanimity game is the indicator of its
    focal set."""
    table = tuple(
        Fraction(1) if mask and mask & b_mask == b_mask else Fraction(0)
        for mask in subsets(n)
    )
    expected = tuple(
        Fraction(1) if mask == b_mask else Fraction(0) for mask in subsets(n)
    )
    if classical_mobius(RealSetFunction(n, table)).table != expected:
        return f"indicator fails for B={subset_text(b_mask)}"


# -- ordinal transform laws ----------------------------------------------------


@_law(
    "interval-bounds-are-solutions",
    lambda config, rng: (
        (v, bound)
        for v, interval in _each_interval(config, rng)
        for bound in (interval.lower, interval.upper)
    ),
    tag="interval-bounds",
)
def _interval_bounds_are_solutions(v: Capacity, member: SetFunction):
    """Both interval endpoints reproduce the capacity by folding."""
    if not is_solution(v, member, Rule.FLOOR):
        return f"endpoint not a solution on {_table(v)}"


@lru_cache(maxsize=8)
def _zeta_buckets(
    n: int, levels: int
) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Group every nonnegative grade table m by its accumulated image
    A -> max of m over subsets of A.  The bucket of a capacity is then the
    exact set of its nonnegative transforms."""
    size = 1 << n
    order = sorted(range(size), key=lambda m: m.bit_count())
    cover_lists = [list(covers_of(mask)) for mask in range(size)]
    buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    image = [0] * size
    for m in itertools.product(range(levels + 1), repeat=size):
        for mask in order:
            best = m[mask]
            for c in cover_lists[mask]:
                if image[c] > best:
                    best = image[c]
            image[mask] = best
        buckets.setdefault(tuple(image), []).append(m)
    return buckets


@_law("interval-is-solution-set", tag="interval-solution-set")
def _interval_is_solution_set(config: VerifyConfig, rng: Random):
    """The nonnegative solutions of the folding equation are exactly the grade
    tables between the interval bounds (independent brute force)."""
    # per distinct capacity: the solution count, each solution, the library
    if (config.levels + 1) ** (1 << config.n) > 2_000_000:
        return "family too large for brute force; nothing checked"
    buckets = _zeta_buckets(config.n, config.levels)
    seen: set[tuple[int, ...]] = set()
    for v in _capacities(config, rng):
        key = tuple(entry.signed for entry in v.table)
        if key in seen:
            continue
        seen.add(key)
        interval = ordinal_mobius_interval(v)
        spans, volume = _box(interval)
        solutions = buckets.get(key, [])
        yield (
            f"{len(solutions)} solutions but box volume {volume} "
            f"on {_table(v)}"
            if len(solutions) != volume
            else None
        )
        for m in solutions:
            inside = all(g in span for g, span in zip(m, spans))
            yield None if inside else f"solution {m} escapes the box on {_table(v)}"
        yield (
            None
            if is_solution(v, interval.lower, Rule.FLOOR)
            else f"library rejects the lower bound on {_table(v)}"
        )
    return f"{len(seen)} distinct capacities"


@_law(
    "canonical-equals-lower",
    _each_rule(_each_interval, (Rule.FLOOR, Rule.ANGLE)),
    tag="canonical-lower",
)
def _canonical_equals_lower(v: Capacity, interval: MobiusInterval, rule: Rule):
    """The canonical transform of a capacity equals the interval lower bound,
    under both admissible rules."""
    if canonical_ordinal_mobius(v, rule).table != interval.lower.table:
        return f"{rule} canonical != lower on {_table(v)}"


@_law(
    "even-odd-equals-lower",
    _each_interval,
    tag="even-odd",
)
def _even_odd_equals_lower(v: Capacity, interval: MobiusInterval):
    """The alternating-parity transform equals the interval lower bound on
    capacities."""
    if even_odd_mobius(v).table != interval.lower.table:
        return f"parity form != lower on {_table(v)}"


def _member_subsets(conjugated: bool) -> Family:
    """Every subset under every interval member of each capacity (of its
    conjugate, if ``conjugated``); the note says when the cap bit."""

    def family(config: VerifyConfig, rng: Random):
        capped = config.samples is not None and config.samples > CAPACITY_CAP
        stream = _capacities(config, rng)
        for v in itertools.islice(stream, CAPACITY_CAP if capped else None):
            interval = ordinal_mobius_interval(conjugate(v) if conjugated else v)
            for grades in _members(config, _box(interval), rng):
                member = SetFunction(v.n, v.scale, _grades(v.scale, *grades))
                for mask in subsets(v.n):
                    yield v, member, mask
        return f"sampled instances capped at {CAPACITY_CAP}" if capped else ""

    return family


@_law(
    "reconstruction-exact",
    _member_subsets(conjugated=False),
    tag="reconstruction",
)
def _reconstruction_exact(v: Capacity, member: SetFunction, mask: int):
    """Weighting unanimity games by any interval member rebuilds the capacity
    exactly."""
    if reconstruct(member, mask) != v(mask):
        return f"reconstruction fails at {subset_text(mask)} on {_table(v)}"


@_law(
    "conjugate-reconstruction",
    _member_subsets(conjugated=True),
    tag="conjugate-reconstruction",
)
def _conjugate_reconstruction(v: Capacity, member: SetFunction, mask: int):
    """Negating the join of a conjugate transform over the subsets disjoint
    from A rebuilds v(A)."""
    if reconstruct_from_conjugate(member, mask) != v(mask):
        return (
            f"conjugate reconstruction fails at "
            f"{subset_text(mask)} on {_table(v)}"
        )


@_law("mobius-not-linear-witness")
def _mobius_not_linear(config: VerifyConfig, rng: Random | None):
    """The transform does not commute with pointwise sym-max: pinned two-player
    witness."""
    scale = levels_scale(config.levels)
    g1 = unanimity(2, 0b11, scale)
    g2 = Capacity(
        2, scale, (scale.zero, scale.one, scale.one, scale.one)
    )
    joined = g1.pointwise_sym_max(g2)
    yield None if joined.table == g2.table else "expected g1 join g2 = g2"
    lower1 = ordinal_mobius_interval(g1).lower
    lower2 = ordinal_mobius_interval(g2).lower
    joined_lower = ordinal_mobius_interval(
        Capacity(2, scale, joined.table)
    ).lower
    mixed = lower1.pointwise_sym_max(lower2)
    yield (
        "transform unexpectedly linear on the witness"
        if mixed.table == joined_lower.table
        else None
    )
    return "non-linearity exhibited on the two-player witness"


@_law(
    "possibility-mobius-singletons",
    _each_distribution,
    tag="possibility-mobius",
)
def _possibility_mobius(pi: tuple[ScaleValue, ...]):
    """The closed-form transform of a possibility measure sits on singletons,
    equals the interval lower bound, and solves the fold equation."""
    measure = possibility_measure(pi)
    closed = mobius_possibility(pi)
    if closed.table != ordinal_mobius_interval(measure).lower.table:
        return f"closed form != lower for pi={_show(pi)}"
    if not is_solution(measure, closed, Rule.FLOOR):
        return f"closed form not a solution for pi={_show(pi)}"
    for mask in subsets(measure.n):
        if mask.bit_count() != 1 and closed(mask).sign != 0:
            return f"support off singletons for pi={_show(pi)}"


@_law(
    "necessity-mobius-tails",
    _each_distribution,
    tag="necessity-mobius",
)
def _necessity_mobius(pi: tuple[ScaleValue, ...]):
    """The closed-form transform of a necessity measure sits on a nested chain
    of tails, equals the interval lower bound, and solves the fold equation."""
    measure = necessity_measure(pi)
    closed = mobius_necessity(pi)
    if closed.table != ordinal_mobius_interval(measure).lower.table:
        return f"closed form != lower for pi={_show(pi)}"
    if not is_solution(measure, closed, Rule.FLOOR):
        return f"closed form not a solution for pi={_show(pi)}"
    support = [
        mask for mask in subsets(measure.n) if closed(mask).sign != 0
    ]
    for a, b in itertools.combinations(support, 2):
        if a & b != a and a & b != b:
            return f"support not a chain for pi={_show(pi)}"


# -- integral laws -------------------------------------------------------------


@_law(
    "choquet-forms-agree",
    _rational_instances,
    tag="choquet-forms",
)
def _choquet_forms(v: RealSetFunction, signed: list[Fraction]):
    """Transform form = layer form for the plain integral; transform form =
    conjugate split on signed profiles; symmetric transform form = split form =
    one-pass form."""
    m = classical_mobius(v)
    nonneg = [abs(x) for x in signed]
    if choquet_mobius(m, nonneg) != choquet(v, nonneg):
        return f"transform != layer form on {_real_at(v, nonneg)}"
    if choquet_mobius(m, signed) != choquet_asymmetric(v, signed):
        return f"transform != asymmetric on {_real_at(v, signed)}"
    symmetric = choquet_symmetric(v, signed)
    if sipos_mobius(m, signed) != symmetric:
        return f"transform != split form on {_real_at(v, signed)}"
    if choquet_symmetric_explicit(v, signed) != symmetric:
        return f"one-pass != split form on {_real_at(v, signed)}"


@_law(
    "choquet-conjugation-symmetry",
    _rational_instances,
    tag="choquet-conjugation",
)
def _choquet_conjugation(v: RealSetFunction, f: list[Fraction]):
    """Reflecting the profile negates the asymmetric integral against the
    conjugate and negates the symmetric integral in place."""
    neg = [-x for x in f]
    if choquet_asymmetric(v, neg) != -choquet_asymmetric(real_conjugate(v), f):
        return f"conjugation fails on {_real_at(v, f)}"
    if choquet_symmetric(v, neg) != -choquet_symmetric(v, f):
        return f"symmetry fails on {_real_at(v, f)}"


def _member_weights(
    config: VerifyConfig, rng: Random, signed: bool
) -> Iterator[tuple[Capacity, Profile, tuple, Iterator[tuple[int, ...]]]]:
    """Each instance, for the laws that read many interval members against
    one profile: the capacity, the profile, its
    :func:`~symsug.integrals._signed_minima`, folded once, and the signed
    weights of the members, drawn per profile as they are read from the
    box of each interval, spanned once."""
    read = None
    for v, interval, f in _instances(config, rng, signed):
        if interval is not read:
            read, box = interval, _box(interval)
        yield v, f, _signed_minima(f), _members(config, box, rng)


def _representatives(config: VerifyConfig, rng: Random):
    for v, f, (minima, _), members in _member_weights(config, rng, signed=False):
        reference = sugeno(v, f).signed
        for weights in members:
            yield v, f, reference, weights, minima


@_law(
    "sugeno-mobius-representative-free",
    _representatives,
    tag="sugeno-representative",
)
def _sugeno_representative_free(v, f, reference, weights, minima):
    """The transform form of the plain integral is the same for every interval
    member and equals the rank form."""
    # the profile is nonnegative, so its minima are those of f+
    if _mobius_grade(weights, minima) != reference:
        return f"transform form differs on {_at(v, f)}"


@_law("symmetric-sugeno-forms-agree", tag="symmetric-forms")
def _symmetric_forms_agree(config: VerifyConfig, rng: Random):
    """Split definition = one-pass form = three-block transform form, for every
    interval member."""
    # per instance: the one-pass form, then each interval member
    for v, f, (gains, losses), members in _member_weights(config, rng, signed=True):
        reference = sugeno_symmetric(v, f)
        yield (
            None
            if sugeno_symmetric_explicit(v, f) == reference
            else f"one-pass form differs on {_at(v, f)}"
        )
        expected = reference.signed
        for weights in members:
            yield (
                None
                if _symmetric_mobius_grade(weights, gains, losses) == expected
                else f"three-block form differs on {_at(v, f)}"
            )


@_law(
    "mixed-block-vanishes",
    _each_instance(signed=True),
    tag="mixed-block",
)
def _mixed_block_vanishes(v: Capacity, interval: MobiusInterval, f: Profile):
    """The cross-sign block of the three-block transform form is identically
    zero."""
    if symmetric_mobius_blocks(interval.upper, f)[2].sign != 0:
        return f"mixed block nonzero on {_at(v, f)}"


def _first_difference(verb: str, v: Capacity, f: Profile, clauses) -> str | None:
    for label, left, right in clauses:
        if left != right:
            return f"{label} {verb} on {_at(v, f)}"
    return None


@_law(
    "variants-collapse-on-nonneg",
    _each_instance(signed=False),
    tag="variants-collapse",
)
def _variants_collapse(v: Capacity, interval: MobiusInterval, f: Profile):
    """On nonnegative profiles the symmetric integral and all three variants
    reduce to the plain integral."""
    reference = sugeno(v, f)
    return _first_difference("differs", v, f, (
        ("split form", sugeno_symmetric(v, f), reference),
        ("variant 1", sugeno_variant1(interval.lower, f), reference),
        ("variant 2", sugeno_variant2(v, f), reference),
        ("variant 3", sugeno_variant3(v, f), reference),
    ))


@_law(
    "integral-symmetry",
    _each_instance(signed=True),
    tag="integral-symmetry",
)
def _integral_symmetry(v: Capacity, interval: MobiusInterval, f: Profile):
    """Reflecting the profile negates the symmetric integral and each of the
    three variants."""
    neg = -f
    lower = interval.lower
    return _first_difference("asymmetric", v, f, (
        ("split form", sugeno_symmetric(v, neg), -sugeno_symmetric(v, f)),
        ("variant 1", sugeno_variant1(lower, neg), -sugeno_variant1(lower, f)),
        ("variant 2", sugeno_variant2(v, neg), -sugeno_variant2(v, f)),
        ("variant 3", sugeno_variant3(v, neg), -sugeno_variant3(v, f)),
    ))


def _profile_bumps(f: Profile) -> Iterator[Profile]:
    """Profiles one grade above f in one coordinate."""
    k = f.scale.levels
    for i, x in enumerate(f.scores):
        if x.signed < k:
            scores = list(f.scores)
            scores[i] = f.scale.value(x.signed + 1)
            yield Profile(f.scale, tuple(scores))


def _bumped_instances(config: VerifyConfig, rng: Random):
    for v, _, f in _instances(config, rng, signed=True):
        base_split = sugeno_symmetric(v, f)
        base_v3 = sugeno_variant3(v, f)
        for bumped in _profile_bumps(f):
            yield v, f, base_split, base_v3, bumped


@_law(
    "sugeno-symmetric-monotone",
    _bumped_instances,
    tag="sugeno-monotone",
)
def _sugeno_monotone(v, f, base_split, base_v3, bumped):
    """The symmetric integral and variant 3 never decrease when one score rises
    one grade."""
    if sugeno_symmetric(v, bumped) < base_split:
        return f"split form decreases on {_at(v, f)} -> {_show(bumped.scores)}"
    if sugeno_variant3(v, bumped) < base_v3:
        return f"variant 3 decreases on {_at(v, f)} -> {_show(bumped.scores)}"


@_law(
    "variant2-not-monotone",
    _once,
    kind="violates",
)
def _variant2_not_monotone():
    """Variant 2 is not monotone: pinned three-player witness where raising one
    score strictly lowers the value."""
    scale = levels_scale(3)
    one = scale.one
    v = Capacity(
        3, scale, tuple(scale.zero if m == 0 else one for m in subsets(3))
    )
    low = Profile(scale, _grades(scale, -3, 2, 3))
    high = Profile(scale, _grades(scale, -3, 3, 3))
    assert all(a <= b for a, b in zip(low.scores, high.scores))
    before = sugeno_variant2(v, low)
    after = sugeno_variant2(v, high)
    if before > after:
        return (
            f"variant 2 drops from {before} to {after} when "
            f"{_show(low.scores)} rises to {_show(high.scores)}"
        )


def _rank_orders(f: Profile) -> Iterator[list[int]]:
    """Every ranking that sorts the scores ascending: tied blocks may
    appear in any internal order."""
    groups: dict = {}
    for i, x in enumerate(f.scores):
        groups.setdefault(x.signed, []).append(i)
    blocks = [groups[key] for key in sorted(groups)]
    for combo in itertools.product(
        *(itertools.permutations(block) for block in blocks)
    ):
        yield [i for block in combo for i in block]


def _tie_rankings(config: VerifyConfig, rng: Random):
    for v, _, f in _instances(config, rng, signed=True):
        reference = sugeno_symmetric(v, f)
        for order in itertools.islice(_rank_orders(f), 120):
            yield v, f, reference, order


@_law(
    "floor-tie-order-invariant",
    _tie_rankings,
    tag="floor-tie-order",
)
def _floor_tie_order_invariant(v, f, reference, order):
    """The floor fold of the explicit-form terms equals the split symmetric
    integral under every ranking of tied scores."""
    terms = _rank_grades(v, [x.signed for x in f.scores], order)
    folded = _fold_signed(terms, Rule.FLOOR)
    if folded != reference.signed:
        return (
            f"ranking {[i + 1 for i in order]} gives {v.scale.value(folded)} "
            f"instead of {reference} on {_at(v, f)}"
        )


@_law("rank-fold-tie-sensitive", kind="violates")
def _rank_fold_tie_sensitive(config: VerifyConfig, rng: Random | None):
    """The angle and ceil folds of the explicit-form terms change value with
    the ranking of tied scores: pinned two-grade witness (the floor fold is
    immune, and it forces the canonical ranking used by the variants)."""
    # one claim per ranking; it is exhibited once both folds took two values
    scale = levels_scale(2)
    v = Capacity(3, scale, _grades(scale, 0, 1, 0, 2, 2, 2, 2, 2))
    f = Profile(scale, _grades(scale, -2, -2, 2))
    scores = [x.signed for x in f.scores]
    angles = set()
    ceils = set()
    for order in _rank_orders(f):
        terms = [scale.value(t) for t in _rank_grades(v, scores, order)]
        angles.add(fold_sym_max(terms, Rule.ANGLE, scale=scale))
        ceils.add(fold_sym_max(terms, Rule.CEIL, scale=scale))
        if len(angles) > 1 and len(ceils) > 1:
            shown_angle = ", ".join(sorted(str(x) for x in angles))
            shown_ceil = ", ".join(sorted(str(x) for x in ceils))
            yield (
                f"rankings of f={_show(f.scores)} on {_table(v)} give angle "
                f"values {{{shown_angle}}} and ceil values {{{shown_ceil}}}"
            )
        else:
            yield None


@_law(
    "rank-ceil-not-monotone",
    _once,
    kind="violates",
)
def _rank_ceil_not_monotone():
    """Folding the explicit-form terms under the ceil rule is not monotone even
    with all scores distinct: pinned three-player witness (this is why variant
    3 folds threshold terms instead)."""
    scale = levels_scale(3)
    v = Capacity(3, scale, _grades(scale, 0, 0, 1, 3, 1, 1, 1, 3))
    low = Profile(scale, _grades(scale, -3, 1, -2))
    high = Profile(scale, _grades(scale, -1, 1, -2))
    assert all(a <= b for a, b in zip(low.scores, high.scores))
    before = fold_sym_max(ranked_terms(v, low)[2], Rule.CEIL, scale=scale)
    after = fold_sym_max(ranked_terms(v, high)[2], Rule.CEIL, scale=scale)
    if before > after:
        return (
            f"the ceil fold drops from {before} to {after} when "
            f"{_show(low.scores)} rises to {_show(high.scores)}"
        )


def _sensitivity_search(config: VerifyConfig, rng: Random):
    # every two-player instance, then sampled three-player ones, each with
    # the signed weights of its interval's bounds, read once per interval
    samples = ENUMERATE_DRAWS if config.samples is None else max(config.samples, 200)
    sampled = VerifyConfig(n=3, levels=config.levels, samples=samples)
    read = None
    for search in (VerifyConfig(n=2, levels=config.levels), sampled):
        for v, interval, f in _instances(search, rng):
            if interval is not read:
                read, spans = interval, _box(interval)[0]
                bounds = [span[0] for span in spans], [span[-1] for span in spans]
            yield v, bounds, f


@_law(
    "variant1-representative-sensitivity",
    _sensitivity_search,
    kind="report",
    tag="variant1-sensitivity",
    missing="no representative dependence found on the searched families",
)
def _variant1_sensitivity(v: Capacity, bounds: tuple, f: Profile):
    """Whether variant 1 depends on the interval representative: deterministic
    search over two-player (exhaustive) and sampled three-player instances."""
    gains, losses = _signed_minima(f)
    low, high = (
        _fold_signed(_variant1_kernel(weights, gains, losses), FOLD_RULES["v1"])
        for weights in bounds
    )
    if low != high:
        low, high = v.scale.value(low), v.scale.value(high)
        return (
            f"representative-dependent: capacity {_table(v)}, "
            f"f={_show(f.scores)}: lower gives {low}, upper gives {high}"
        )


@_law("worked-example-goldens")
def _worked_example_goldens(config: VerifyConfig, rng: Random | None):
    """The documented three-player instance reproduces all its published values
    exactly."""
    v, f = worked_example()
    scale = v.scale
    interval = ordinal_mobius_interval(v)
    expectations = [
        ("plain integral of gains", sugeno(v, f.positive_part()), Fraction(3, 10)),
        ("plain integral of losses", sugeno(v, f.negative_part()), Fraction(3, 10)),
        ("symmetric integral", sugeno_symmetric(v, f), Fraction(0)),
        ("variant 1", sugeno_variant1(interval.lower, f), Fraction(1, 4)),
        ("variant 2", sugeno_variant2(v, f), Fraction(1, 5)),
        # the threshold terms are (-0.3, 0.3, 0.3); ceil cancels one pair
        ("variant 3", sugeno_variant3(v, f), Fraction(3, 10)),
    ]
    for name, got, expected in expectations:
        yield (
            None
            if got.signed == expected
            else f"{name}: got {got}, expected {expected}"
        )
    thresholds = tuple(t.signed for t in variant3_terms(v, f))
    yield (
        None
        if thresholds == (Fraction(-3, 10), Fraction(3, 10), Fraction(3, 10))
        else f"threshold terms {_show(variant3_terms(v, f))}"
    )
    tie = 0b101  # {1,3}
    for mask in subsets(3):
        lo, hi = interval.lower(mask), interval.upper(mask)
        if mask == tie:
            yield (
                f"interval at {subset_text(mask)} is [{lo}, {hi}]"
                if lo != scale.zero or hi.signed != Fraction(3, 10)
                else None
            )
        else:
            yield f"interval not degenerate at {subset_text(mask)}" if lo != hi else None


# -- small formatting helpers ---------------------------------------------------


def _show(values: Iterable[ScaleValue]) -> str:
    return "(" + ", ".join(str(a) for a in values) + ")"


def _rationals(values: Iterable[Fraction]) -> str:
    """Rationals as exact text, in the form the unit scale prints."""
    texts = (_format_fraction(*x.as_integer_ratio()) for x in values)
    return "(" + ", ".join(texts) + ")"


def _real_at(v: RealSetFunction, f: Sequence[Fraction]) -> str:
    return f"{_rationals(v.table)}, f={_rationals(f)}"


def _table(v: SetFunction) -> str:
    entries = ", ".join(
        f"{subset_text(mask)}: {v(mask)}" for mask in subsets(v.n)
    )
    return "{" + entries + "}"


def _at(v: SetFunction, f: Profile) -> str:
    return f"{_table(v)}, f={_show(f.scores)}"
