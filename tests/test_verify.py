"""The law-suite machinery: generators, result records, determinism."""

import ast
import io
import itertools
import json
import re
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import symsug.verify
from symsug import Capacity, Profile, RealSetFunction, Rule, levels_scale
from symsug.cli import main
from symsug.io import fraction_text
from symsug.verify import (
    LawResult,
    VerifyConfig,
    iter_capacities,
    iter_profiles,
    law_names,
    run_laws,
    sample_capacity,
    sample_profile,
    worked_example,
)
from symsug.capacity import MAX_PLAYERS, iter_submasks
from symsug.mobius import ordinal_mobius_interval
from conftest import WORKED_DOCUMENT, count_calls

QUICK = VerifyConfig(n=2, levels=2, samples=25, seed=5)


# -- instance generators --------------------------------------------------------


@pytest.mark.parametrize(
    "n,k,count",
    [(2, 1, 4), (2, 2, 9), (2, 3, 16), (3, 1, 18), (3, 2, 129)],
)
def test_capacity_enumeration_counts(n, k, count):
    capacities = list(iter_capacities(n, levels_scale(k)))
    assert len(capacities) == count
    assert len(set(capacities)) == count
    for v in capacities:
        assert isinstance(v, Capacity)


def test_profile_enumeration_counts():
    scale = levels_scale(2)
    assert sum(1 for _ in iter_profiles(2, scale)) == 25
    assert sum(1 for _ in iter_profiles(2, scale, signed=False)) == 9


def test_sampled_instances_are_valid_and_seeded():
    scale = levels_scale(3)
    first = [sample_capacity(Random(9), 3, scale) for _ in range(5)]
    second = [sample_capacity(Random(9), 3, scale) for _ in range(5)]
    assert first == second  # same stream, same tables
    rng = Random(9)
    for v in first:
        assert isinstance(v, Capacity)
        f = sample_profile(rng, 3, scale)
        assert isinstance(f, Profile)
        assert all(abs(x.signed) <= 3 for x in f.scores)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_sampled_capacity_is_the_monotone_closure_of_its_draws(n):
    scale = levels_scale(3)
    rng, replay = Random(n), Random(n)
    for _ in range(10):
        v = sample_capacity(rng, n, scale)
        # one draw per nonempty subset in mask order, each raised to the
        # largest draw below it, with the top grade on the full set
        draws = [0] + [replay.randint(0, 3) for _ in range(1, 1 << n)]
        expected = [max(draws[sub] for sub in iter_submasks(mask)) for mask in range(1 << n)]
        expected[-1] = 3
        assert [x.signed for x in v.table] == expected


def test_capacity_builders_check_the_player_count_first(monkeypatch):
    import symsug.verify

    def spy(*args, **kwargs):
        raise AssertionError("a table was built before the player count check")

    # the first step of each builder past the check, which would size a
    # table of 2**n entries
    monkeypatch.setattr(symsug.verify, "sorted", spy, raising=False)
    monkeypatch.setattr(symsug.verify, "_monotone_grades", spy)
    scale = levels_scale(2)
    with pytest.raises(ValueError, match="player count"):
        next(iter_capacities(MAX_PLAYERS + 1, scale))
    with pytest.raises(ValueError, match="player count"):
        sample_capacity(Random(0), MAX_PLAYERS + 1, scale)


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"n": 0, "levels": 0, "samples": 0}, f"--n must be in 1..{MAX_PLAYERS}"),
        ({"n": MAX_PLAYERS + 1, "samples": 1}, f"--n must be in 1..{MAX_PLAYERS}"),
        ({"n": 4, "levels": 0}, "--levels must be at least 1"),
        ({"n": 4}, "exhaustive mode needs --n at most 3; pass --samples"),
        ({"n": 4, "samples": 0}, "--samples must be positive"),
        ({"samples": -3}, "--samples must be positive"),
    ],
)
def test_a_config_refuses_what_the_command_line_refuses(fields, message):
    # samples=0 used to pass every sampled law on 0 checks, and n=4 to
    # enumerate four-player capacities without a bound
    with pytest.raises(ValueError) as refused:
        VerifyConfig(**fields)
    assert str(refused.value) == message


def signed_table(m):
    return tuple(x.signed for x in m.table)


def test_interval_member_enumeration_matches_the_box_volume():
    scale = levels_scale(2)
    v = Capacity.from_values(2, scale, (0, 1, 1, 2))
    interval = ordinal_mobius_interval(v)
    box = symsug.verify._box(interval)
    members = list(symsug.verify._members(VerifyConfig(n=2), box, Random(0)))
    volume = 1
    for mask in range(4):
        volume *= interval.upper(mask).signed - interval.lower(mask).signed + 1
    assert len(members) == volume
    lower, upper = signed_table(interval.lower), signed_table(interval.upper)
    assert lower in members and upper in members


def test_sampled_members_are_the_bounds_then_seeded_draws_in_the_box():
    # 4 * 4 * 4 * 4 corners: over the sampling limit of 8, so the bounds and
    # four draws, one grade from each mask's span in mask order
    v = Capacity.from_values(3, levels_scale(3), (0,) + (3,) * 7)
    interval = ordinal_mobius_interval(v)
    spans, volume = symsug.verify._box(interval)
    assert volume == 256
    rng, replay = Random(7), Random(7)
    members = list(symsug.verify._members(QUICK, (spans, volume), rng))
    draws = [tuple(replay.choice(span) for span in spans) for _ in range(4)]
    lower, upper = signed_table(interval.lower), signed_table(interval.upper)
    assert members == [lower, upper, *draws]
    assert all(g in span for m in draws for g, span in zip(m, spans))
    assert rng.random() == replay.random()


def test_worked_example_matches_the_documented_tables():
    v, f = worked_example()
    assert v.n == 3 and v.scale.kind == "unit"
    for key, text in WORKED_DOCUMENT["capacity"].items():
        mask = sum(1 << (int(ch) - 1) for ch in key if ch.isdigit())
        assert str(v(mask)) == text
    assert [str(x) for x in f.scores] == WORKED_DOCUMENT["profile"]


# -- result records -------------------------------------------------------------


def test_law_result_record_shape():
    bare = LawResult("some-law", "holds", "pass", 12)
    assert bare.to_record() == {"law": "some-law", "status": "pass", "checks": 12}
    assert bare.ok
    detailed = LawResult("some-law", "holds", "fail", 12, "witness ...")
    assert detailed.to_record()["detail"] == "witness ..."
    assert not detailed.ok
    assert not LawResult("other", "violates", "xpass", 3, "no witness").ok
    assert LawResult("other", "report", "info", 3, "note").ok


def test_law_names_are_stable_and_complete():
    names = law_names()
    assert len(names) == len(set(names))
    for expected in (
        "reflection-involution",
        "symmax-nonassociative-witness",
        "interval-is-solution-set",
        "sugeno-mobius-representative-free",
        "symmetric-sugeno-forms-agree",
        "sugeno-symmetric-monotone",
        "variant2-not-monotone",
        "choquet-forms-agree",
        "choquet-conjugation-symmetry",
        "worked-example-goldens",
    ):
        assert expected in names


def test_integral_laws_build_one_interval_per_capacity(monkeypatch):
    import symsug.mobius

    calls = count_calls(monkeypatch, symsug.mobius, "ordinal_mobius_interval")
    config = VerifyConfig(n=2, levels=2)
    [result] = run_laws(config, ["integral-symmetry"])
    assert result.status == "pass" and result.checks == 9 * 25
    assert len(calls) == 9  # one per capacity, not one per profile


def test_floor_ceil_monotone_folds_each_multiset_once_per_rule(monkeypatch):
    import symsug.rules

    calls = count_calls(monkeypatch, symsug.rules, "fold_sym_max")
    [result] = run_laws(VerifyConfig(n=2, levels=2), ["floor-ceil-monotone"])
    assert result.status == "pass" and result.checks == 4748
    folded = [(tuple(a.signed for a in values), rule) for values, rule in calls]
    assert len(folded) == len(set(folded))
    pairs = symsug.verify._dominated_pairs_exhaustive(2)
    multisets = {grades for pair in pairs for grades in pair}
    assert set(folded) == {
        (grades, rule) for grades in multisets for rule in (Rule.FLOOR, Rule.CEIL)
    }


def test_floor_ceil_monotone_reports_a_planted_decrease(monkeypatch):
    fold = symsug.verify.fold_sym_max

    def planted(values, rule, *, scale=None):
        # the ceil fold reflected: decreasing wherever the true one rises
        folded = fold(values, rule, scale=scale)
        return -folded if rule is Rule.CEIL else folded

    monkeypatch.setattr(symsug.verify, "fold_sym_max", planted)
    [result] = run_laws(VerifyConfig(n=2, levels=2), ["floor-ceil-monotone"])
    assert (result.status, result.checks, result.detail) == (
        "fail", 4, "ceil decreases from (-2) to (-1)",
    )


def _shifted(name, delta):
    """``symsug.verify.<name>`` with ``delta`` added to its result, or to
    each entry of a result table."""
    original = getattr(symsug.verify, name)

    def planted(*args):
        result = original(*args)
        if isinstance(result, RealSetFunction):
            return RealSetFunction(result.n, tuple(x + delta for x in result.table))
        return result + delta

    return planted


# each Choquet-side law with planted faults that reach its witness lines
CHOQUET_FAULTS = [
    ("classical-roundtrip", "classical_zeta", "roundtrip fails on ("),
    ("choquet-forms-agree", "choquet_mobius", "transform != layer form on ("),
    ("choquet-forms-agree", "choquet_asymmetric", "transform != asymmetric on ("),
    ("choquet-forms-agree", "choquet_symmetric", "transform != split form on ("),
    ("choquet-forms-agree", "choquet_symmetric_explicit", "one-pass != split form on ("),
    ("choquet-conjugation-symmetry", "choquet_asymmetric", "conjugation fails on ("),
    ("choquet-conjugation-symmetry", "choquet_symmetric", "symmetry fails on ("),
]


@pytest.mark.parametrize("law,name,witness", CHOQUET_FAULTS)
def test_choquet_witnesses_print_exact_text(monkeypatch, law, name, witness):
    monkeypatch.setattr(symsug.verify, name, _shifted(name, Fraction(1, 7)))
    config = VerifyConfig(n=2, levels=2, samples=3, seed=1)
    [result] = run_laws(config, [law])
    assert result.status == "fail" and result.detail.startswith(witness)
    assert "Fraction(" not in result.detail and "ScaleValue(" not in result.detail
    # every number prints as the unit scale prints it
    numbers = result.detail[len(witness) - 1:].replace("f=", "")
    for text in re.split(r"[(), ]+", numbers.strip("()")):
        assert fraction_text(Fraction(text)) == text


def _dominated_pairs_by_walk(k):
    """The pairs of sorted grade tuples with ``low <= high`` entrywise, by a
    recursive walk over each ``low``'s dominating tuples."""
    for size in range(1, symsug.verify.MULTISET_SIZE + 1):
        for low in itertools.combinations_with_replacement(range(-k, k + 1), size):

            def grow(idx, floor, partial):
                if idx == size:
                    yield tuple(partial)
                    return
                for grade in range(max(low[idx], floor), k + 1):
                    partial.append(grade)
                    yield from grow(idx + 1, grade, partial)
                    partial.pop()

            for high in grow(0, -k, []):
                yield low, high


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dominated_pairs_are_those_of_the_recursive_walk_in_order(k):
    assert list(symsug.verify._dominated_pairs_exhaustive(k)) == list(
        _dominated_pairs_by_walk(k)
    )


@pytest.mark.parametrize(
    "config",
    [VerifyConfig(n=2, levels=2), VerifyConfig(n=2, levels=2, samples=40)],
)
def test_member_weights_yield_the_per_profile_members_in_draw_order(monkeypatch, config):
    # with a box limit of 2 corners, some boxes are enumerated while the
    # others draw their members per profile, as each is read
    monkeypatch.setattr(symsug.verify, "GRID_LIMIT", 2)
    verify = symsug.verify

    def per_profile(rng):
        for v, interval, f in verify._instances(config, rng, True):
            weights = list(verify._members(config, verify._box(interval), rng))
            yield v, f, verify._signed_minima(f), weights

    reference, fed = Random(3), Random(3)
    expected = list(per_profile(reference))
    got = [
        (v, f, minima, list(weights))
        for v, f, minima, weights in verify._member_weights(config, fed, True)
    ]
    assert got == expected
    assert reference.random() == fed.random()
    volumes = {verify._box(ordinal_mobius_interval(v))[1] for v, *_ in got}
    assert min(volumes) <= 2 < max(volumes)


def test_the_sensitivity_search_draws_both_streams_on_one_scale():
    instances = list(symsug.verify._sensitivity_search(QUICK, Random(0)))
    scale = instances[0][0].scale
    assert {v.n for v, _, _ in instances} == {2, 3}
    assert all(v.scale is scale and f.scale is scale for v, _, f in instances)


def test_every_law_states_itself_in_its_docstring():
    tree = ast.parse(Path(symsug.verify.__file__).read_text(encoding="utf-8"))
    laws = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_law"
            for d in node.decorator_list
        )
    ]
    assert len(laws) == len(law_names())
    assert [node.name for node in laws if not ast.get_docstring(node)] == []


def test_unknown_law_names_raise():
    with pytest.raises(KeyError, match="no-such-law"):
        run_laws(QUICK, ["no-such-law"])


# -- running the suites -----------------------------------------------------------


def test_full_suite_passes_on_a_sampled_config():
    results = run_laws(QUICK)
    assert [r.law for r in results] == law_names()
    for result in results:
        assert result.ok, f"{result.law}: {result.detail}"
        assert result.checks >= 0
    statuses = {r.status for r in results}
    assert "pass" in statuses and "xfail" in statuses


def test_suite_is_deterministic_for_a_fixed_seed():
    first = run_laws(QUICK)
    second = run_laws(QUICK)
    assert first == second


def test_expected_violations_carry_witnesses():
    results = {r.law: r for r in run_laws(VerifyConfig(levels=3))}
    angle = results["angle-monotonic"]
    assert angle.status == "xfail" and angle.detail
    variant2 = results["variant2-not-monotone"]
    assert variant2.status == "xfail" and variant2.detail
    rank_fold = results["rank-ceil-not-monotone"]
    assert rank_fold.status == "xfail" and rank_fold.detail


def test_goldens_law_checks_the_documented_instance():
    results = {r.law: r for r in run_laws(VerifyConfig())}
    goldens = results["worked-example-goldens"]
    assert goldens.status == "pass"
    assert goldens.checks >= 10


# -- golden records ---------------------------------------------------------------

GOLDEN_PATH = Path(__file__).parent / "golden" / "verify_records.jsonl"

# enumerated families (one with 2K + 1 > 9, which pins the pairs that
# floor-ceil-monotone draws when enumerating), sampled ones (two hit the
# brute-force size note, one takes the sampled branch of
# floor-ceil-monotone) and the 2000-instance cap
GOLDEN_FAMILIES = (
    "--n 1 --levels 1",
    "--n 1 --levels 5",
    "--n 2 --levels 2",
    "--n 2 --levels 3",
    "--n 3 --levels 1",
    "--n 3 --levels 2 --samples 30 --seed 5",
    "--n 4 --levels 3 --samples 15 --seed 9",
    "--n 5 --levels 2 --samples 5 --seed 11",
    "--n 2 --levels 5 --samples 40 --seed 3",
    "--n 1 --levels 1 --samples 2001 "
    "--law reconstruction-exact --law conjugate-reconstruction",
)


def golden_text() -> str:
    """Every golden family's ``verify`` output, each after a header line
    naming its flags.  Regenerate (only when a record is meant to change)
    with::

        PYTHONPATH=src:tests python -c "from test_verify import *; \\
            GOLDEN_PATH.write_text(golden_text(), encoding='utf-8')"
    """
    parts = []
    for flags in GOLDEN_FAMILIES:
        parts.append(json.dumps({"family": flags}) + "\n")
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["verify", *flags.split()]) == 0
        parts.append(out.getvalue())
    return "".join(parts)


def test_verify_records_match_the_golden_file():
    assert golden_text() == GOLDEN_PATH.read_text(encoding="utf-8")
