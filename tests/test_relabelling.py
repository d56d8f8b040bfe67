"""Relabelling: numbering the players otherwise moves each output only as
the players move.

A permutation sigma renumbers player i as sigma[i], and with it every
subset, capacity table and profile.  The integrals are symmetric in the
players, so their values must not move; the transforms and term lists are
tables or lists over the subsets or the players, so they must move exactly
as sigma moves their index.  A kernel that treats some players apart from
the others (a slice pair left out, a walk that skips the last player)
breaks that, whatever its values on one numbering.  Two outputs depend on the numbering
by design: each has a pinned witness.  A public function of
:mod:`symsug.integrals` or :mod:`symsug.mobius` in no list fails.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import symsug.integrals
import symsug.mobius
from symsug import (
    Capacity,
    Profile,
    Rule,
    canonical_ordinal_mobius,
    choquet,
    choquet_asymmetric,
    choquet_mobius,
    choquet_symmetric,
    classical_mobius,
    conjugate,
    even_odd_mobius,
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
    to_real_capacity,
    to_real_profile,
    unit_scale,
)
from symsug.integrals import (
    choquet_symmetric_explicit,
    ranked_terms,
    sugeno_mobius,
    symmetric_mobius_blocks,
    variant1_terms,
    variant3_terms,
)
from symsug.mobius import (
    classical_zeta,
    is_k_maxitive,
    is_solution,
    mobius_necessity,
    mobius_possibility,
    real_conjugate,
    reconstruct,
    reconstruct_from_conjugate,
)

UNIT = unit_scale()


def moved_mask(sigma, mask):
    return sum(1 << new for old, new in enumerate(sigma) if mask >> old & 1)


def moved_table(sigma, table):
    """A table over the subsets, indexed by the renumbered subsets."""
    moved = [None] * len(table)
    for mask, entry in enumerate(table):
        moved[moved_mask(sigma, mask)] = entry
    return moved


def moved_scores(sigma, scores):
    """A list over the players, indexed by the renumbered players."""
    moved = [None] * len(scores)
    for old, new in enumerate(sigma):
        moved[new] = scores[old]
    return moved


@dataclass(frozen=True)
class Instance:
    """One capacity and profile, with what the functions read of them."""

    v: Capacity
    f: Profile
    mask: int
    k: int  # a maxitivity order, 1..n

    @classmethod
    def build(cls, scale, grades, scores, mask, k):
        v = Capacity(len(scores), scale, tuple(map(scale.value, grades)))
        return cls(v, Profile(scale, tuple(map(scale.value, scores))), mask, k)

    @property
    def g(self) -> Profile:  # the nonnegative profile |f|
        return Profile(self.f.scale, tuple(map(abs, self.f.scores)))

    @property
    def interval(self):
        return ordinal_mobius_interval(self.v)

    @property
    def bounds(self):
        return self.interval.lower, self.interval.upper

    @property
    def unit(self) -> tuple[Capacity, Profile]:
        """The same grades on the unit scale, over the largest grade."""
        top = self.v.scale.one.signed
        value = lambda x: UNIT.value(Fraction(x.signed) / top)
        v = Capacity(self.v.n, UNIT, tuple(map(value, self.v.table)))
        return v, Profile(UNIT, tuple(map(value, self.f.scores)))

    @property
    def real(self):
        """The rational capacity, the signed and the nonnegative profile."""
        v, f = self.unit
        scores = to_real_profile(f)
        return to_real_capacity(v), scores, [abs(x) for x in scores]


@st.composite
def renumbered_instances(draw):
    """An instance on n = 1..6 players, on a levels or the unit scale, and
    the same instance with its players renumbered by a drawn sigma."""
    n = draw(st.integers(1, 6))
    levels = draw(st.integers(1, 4))
    grid = levels_scale(levels)
    size = 1 << n
    drawn = st.lists(st.integers(0, levels), min_size=size - 1, max_size=size - 1)
    grades = [0, *draw(drawn)]
    for mask in range(1, size):  # the monotone closure, each cover first
        grades[mask] = max(grades[mask], *(grades[mask & ~(1 << i)] for i in range(n)))
    grades[-1] = levels
    scores = draw(st.lists(st.integers(-levels, levels), min_size=n, max_size=n))
    if draw(st.booleans()):
        scale = grid
    else:
        scale = UNIT
        grades = [Fraction(g, levels) for g in grades]
        scores = [Fraction(s, levels) for s in scores]
    mask = draw(st.integers(0, size - 1))
    k = draw(st.integers(1, n))
    sigma = draw(st.permutations(range(n)))
    return (
        Instance.build(scale, grades, scores, mask, k),
        Instance.build(
            scale, moved_table(sigma, grades), moved_scores(sigma, scores),
            moved_mask(sigma, mask), k,
        ),
        sigma,
    )


def on_bounds(function, profile):
    """``function`` on both interval bounds, as the transform forms read them."""
    return lambda x: tuple(function(m, profile(x)) for m in x.bounds)


# the functions whose value does not depend on the numbering
INVARIANT = (
    (choquet, lambda x: choquet(x.real[0], x.real[2])),
    (choquet_symmetric, lambda x: choquet_symmetric(*x.real[:2])),
    (choquet_asymmetric, lambda x: choquet_asymmetric(*x.real[:2])),
    (choquet_symmetric_explicit, lambda x: choquet_symmetric_explicit(*x.real[:2])),
    (choquet_mobius, lambda x: choquet_mobius(classical_mobius(x.real[0]), x.real[1])),
    (sipos_mobius, lambda x: sipos_mobius(classical_mobius(x.real[0]), x.real[1])),
    (sugeno, lambda x: sugeno(x.v, x.g)),
    (sugeno_symmetric, lambda x: sugeno_symmetric(x.v, x.f)),
    (sugeno_symmetric_explicit, lambda x: sugeno_symmetric_explicit(x.v, x.f)),
    (sugeno_variant3, lambda x: sugeno_variant3(x.v, x.f)),
    (sugeno_mobius, on_bounds(sugeno_mobius, lambda x: x.g)),
    (sugeno_symmetric_mobius, on_bounds(sugeno_symmetric_mobius, lambda x: x.f)),
    (sugeno_variant1, on_bounds(sugeno_variant1, lambda x: x.f)),
    # its three blocks are split by sign, not by player
    (symmetric_mobius_blocks, on_bounds(symmetric_mobius_blocks, lambda x: x.f)),
    (is_k_maxitive, lambda x: is_k_maxitive(x.v, x.k)),
    (is_solution, lambda x: [is_solution(x.v, m, r) for m in x.bounds for r in Rule]),
    # the mask moves with the players
    (reconstruct, lambda x: [reconstruct(m, x.mask) for m in x.bounds]),
    (
        reconstruct_from_conjugate,
        lambda x: reconstruct_from_conjugate(
            ordinal_mobius_interval(conjugate(x.v)).lower, x.mask
        ),
    ),
)


def rows(*tables):
    """The entries of several tables (or lists), one tuple per index."""
    return list(zip(*(getattr(table, "table", table) for table in tables)))


# the functions whose output is a table over the subsets
BY_MASK = (
    (ordinal_mobius_interval, lambda x: rows(*x.bounds)),
    (
        canonical_ordinal_mobius,
        lambda x: rows(
            canonical_ordinal_mobius(x.v, Rule.FLOOR),
            canonical_ordinal_mobius(x.v, Rule.ANGLE),
        ),
    ),
    (even_odd_mobius, lambda x: rows(even_odd_mobius(x.v))),
    (classical_mobius, lambda x: rows(classical_mobius(x.real[0]))),
    (classical_zeta, lambda x: rows(classical_zeta(classical_mobius(x.real[0])))),
    (real_conjugate, lambda x: rows(real_conjugate(x.real[0]))),
    (conjugate, lambda x: rows(conjugate(x.v))),
    (to_real_capacity, lambda x: rows(x.real[0])),
    (mobius_possibility, lambda x: rows(mobius_possibility(x.g.scores))),
    (mobius_necessity, lambda x: rows(mobius_necessity(x.g.scores))),
    # one term per nonempty subset, in mask order
    (
        variant1_terms,
        lambda x: rows(*([None, *variant1_terms(m, x.f)] for m in x.bounds)),
    ),
)

# the functions whose output is a list over the players
BY_PLAYER = (
    (variant3_terms, lambda x: variant3_terms(x.v, x.f)),
    (to_real_profile, lambda x: x.real[1]),
)


@settings(max_examples=100, deadline=None)
@given(renumbered_instances())
def test_renumbering_the_players_moves_each_output_as_the_players(case):
    x, y, sigma = case
    for function, output in INVARIANT:
        assert output(y) == output(x), function.__name__
    for function, output in BY_MASK:
        assert output(y) == moved_table(sigma, output(x)), function.__name__
    for function, output in BY_PLAYER:
        moved = moved_scores(sigma, list(output(x)))
        assert list(output(y)) == moved, function.__name__


# a five-player levels_scale(3) capacity in mask order, a profile with four
# players tied in score and capacity value, and a renumbering (as in
# tests/test_cli.py::test_v2_depends_on_how_tied_players_are_numbered)
V2_WITNESS = (
    levels_scale(3),
    [int(g) for g in "02031213133323330333233333333333"],
    [2, -2, -2, -2, -2],
    (4, 3, 2, 0, 1),
)
# three players tied at 2 whose singletons all weigh 0: the chain of rank
# sets starts at the lowest-numbered player, and v({1,3}) = 0 against
# v({2,3}) = 1 then decides the middle term, so swapping players 1 and 2
# moves it
RANKED_WITNESS = (levels_scale(2), [0, 0, 0, 1, 0, 0, 1, 2], [2, 2, 2], (1, 0, 2))


def on_witness(witness, output):
    """``output`` on a witness numbered as given and renumbered."""
    scale, grades, scores, sigma = witness
    return (
        output(Instance.build(scale, grades, scores, 0, 1)),
        output(Instance.build(
            scale, moved_table(sigma, grades), moved_scores(sigma, scores), 0, 1
        )),
    )


# the functions that depend on the numbering, each with its witness: the
# output as numbered and renumbered
NOT_INVARIANT = (
    (
        sugeno_variant2,
        lambda: [str(value) for value in on_witness(
            V2_WITNESS, lambda x: sugeno_variant2(x.v, x.f)
        )],
        ["-1", "0"],
    ),
    (
        ranked_terms,
        lambda: [
            [t.signed for t in terms]
            for terms in on_witness(RANKED_WITNESS, lambda x: ranked_terms(x.v, x.f)[2])
        ],
        [[2, 0, 0], [2, 1, 0]],
    ),
)


def test_the_numbering_dependent_outputs_move_on_their_witnesses():
    for function, output, pinned in NOT_INVARIANT:
        assert output() == pinned, function.__name__


def test_every_public_function_is_listed():
    listed = [function for table in (INVARIANT, BY_MASK, BY_PLAYER, NOT_INVARIANT)
              for function, *_ in table]
    assert len(set(listed)) == len(listed)
    public = {
        name
        for module in (symsug.integrals, symsug.mobius)
        for name, function in inspect.getmembers(module, inspect.isfunction)
        if function.__module__ == module.__name__ and name[:1] != "_"
    }
    assert public - {function.__name__ for function in listed} == set()
