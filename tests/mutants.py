"""Mutation check: do the tests catch a planted fault in each kernel?

Each mutant names a file under ``src/``, an exact snippet of it, the
snippet's replacement, and the test node ids that must fail once it is
applied (DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE
Computer 11(4), 1978).  For every mutant the script copies ``src/`` to a
temporary directory, checks that the snippet occurs there exactly once,
applies the replacement and runs only the named tests against the copy.
The mutant is killed when some named test fails and survives when they all
pass.  First the named tests run once against an unmutated copy, which must
pass.  Each kill is printed with its first failing test and the type of the
exception it raised, and the run ends with the kills whose exception is not
an ``AssertionError``: a fault that crashes a test, rather than one that a
check of a value catches.

Run from the repository root, with pytest and hypothesis installed:

    python tests/mutants.py           # every mutant
    python tests/mutants.py NAME ...  # only the named mutants

The exit status is 0 when every mutant run is killed.  Pytest does not
collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]


CAPACITY = "src/symsug/capacity.py"
MOBIUS = "src/symsug/mobius.py"
INTEGRALS = "src/symsug/integrals.py"
RULES = "src/symsug/rules.py"
VERIFY = "src/symsug/verify.py"
IO = "src/symsug/io.py"
CLI = "src/symsug/cli.py"
SCALE = "src/symsug/scale.py"

ZETA_TESTS = (
    "tests/test_capacity.py::test_zeta_folds_the_subsets_of_every_mask",
    "tests/test_capacity.py::test_zeta_with_a_difference_inverts_zeta_with_a_sum",
)
FOLD_MEMBERS_TESTS = (
    "tests/test_capacity.py::test_fold_members_folds_the_members_of_every_subset",
)
RANK_SETS_TESTS = (
    "tests/test_capacity.py::test_rank_sets_are_the_lower_then_upper_sets_of_the_ranking",
)
SURVIVORS_TESTS = (
    "tests/test_rules.py::test_the_signed_fold_matches_the_scale_value_fold",
)
SUGENO_GRADE_TESTS = (
    "tests/test_integrals.py::test_sugeno_integrals_match_their_scale_value_definitions",
)
CLI_MESSAGES_TEST = "tests/test_cli.py::test_cli_messages_match_the_golden_file"
QUIET_PARSER_TEST = (
    "tests/test_cli.py::test_the_quiet_parser_parses_as_the_full_parser"
)
RANKED_SCALE_TEST = (
    "tests/test_io.py::test_the_ranked_scale_prints_what_the_unit_scale_computes"
)
CHAIN_FORMS_TEST = "tests/test_integrals.py::test_chain_forms_match_the_fraction_chain_sum"
FLOOR_CEIL_TEST = (
    "tests/test_verify.py::test_floor_ceil_monotone_folds_each_multiset_once_per_rule"
)
VERIFY_RECORDS_TEST = "tests/test_verify.py::test_verify_records_match_the_golden_file"
SAMPLED_MEMBERS_TEST = (
    "tests/test_verify.py::"
    "test_sampled_members_are_the_bounds_then_seeded_draws_in_the_box"
)
CONFIG_BOUNDS_TEST = (
    "tests/test_verify.py::test_a_config_refuses_what_the_command_line_refuses"
)
RECONSTRUCT_MASK_TEST = (
    "tests/test_mobius.py::test_reconstruction_refuses_a_mask_outside_the_player_set"
)
ORACLE_INDEPENDENCE_TEST = (
    "tests/test_oracle_independence.py::"
    "test_each_agreement_law_compares_two_forms_that_run_apart"
)
TRANSFORM_KERNELS_TEST = (
    "tests/test_integrals.py::"
    "test_transform_forms_equal_their_kernels_on_once_folded_minima"
)

UNIT_TEXT_TESTS = (
    "tests/test_scale.py::test_unit_text_reads_as_its_fraction_reference",
    "tests/test_scale.py::test_generated_unit_text_reads_as_its_fraction_reference",
)
MEMBER_WEIGHTS_TEST = (
    "tests/test_verify.py::"
    "test_member_weights_yield_the_per_profile_members_in_draw_order"
)

SLICED_CHECK_TEST = (
    "tests/test_capacity.py::"
    "test_the_sliced_check_agrees_with_capacity_problems_on_broken_tables"
)
RECORDS_TEST = (
    "tests/test_scale.py::"
    "test_records_are_frozen_and_compare_and_hash_on_their_fields"
)
INTERVAL_KERNEL_TEST = (
    "tests/test_mobius.py::test_interval_kernel_matches_its_subset_walk_definition"
)
SLICE_PAIR_TESTS = (
    "tests/test_capacity.py::"
    "test_slice_pairs_match_each_mask_with_the_mask_adding_a_player",
    SLICED_CHECK_TEST,
    INTERVAL_KERNEL_TEST,
)

MUTANTS = (
    # the subset kernels
    Mutant(
        "zeta-with-swapped-slice-halves", CAPACITY,
        "    for lo, hi in _slice_pairs(len(table)):\n",
        "    for hi, lo in _slice_pairs(len(table)):\n",
        ZETA_TESTS,
    ),
    Mutant(
        "zeta-drops-the-last-slice-pair", CAPACITY,
        "    for lo, hi in _slice_pairs(len(table)):\n",
        "    for lo, hi in _slice_pairs(len(table))[:-1]:\n",
        ZETA_TESTS,
    ),
    Mutant(
        "fold-members-doubles-with-the-players-reversed", CAPACITY,
        "    for x in values:\n        table += list(map(combine, table, repeat(x)))\n",
        "    for x in values[::-1]:\n        table += list(map(combine, table, repeat(x)))\n",
        FOLD_MEMBERS_TESTS,
    ),
    Mutant(
        "rank-sets-ignore-the-negative-block", CAPACITY,
        "    upper = full_set(len(order)) ^ lower\n",
        "    upper = full_set(len(order))\n",
        RANK_SETS_TESTS,
    ),
    Mutant(
        "rank-sets-read-the-upper-set-after-dropping-the-player", CAPACITY,
        "        chain.append(upper)\n        upper ^= 1 << i\n",
        "        upper ^= 1 << i\n        chain.append(upper)\n",
        RANK_SETS_TESTS,
    ),
    # the routes through them
    Mutant(
        "classical-mobius-adds", MOBIUS,
        "zeta(v.table, operator.sub)",
        "zeta(v.table, operator.add)",
        (
            "tests/test_mobius.py::test_classical_transform_matches_inclusion_exclusion",
            "tests/test_mobius.py::test_classical_transform_roundtrips",
        ),
    ),
    Mutant(
        "even-odd-pair-does-not-swap", MOBIUS,
        "lambda a, b: (max(a[0], b[1]), max(a[1], b[0]))",
        "lambda a, b: (max(a[0], b[0]), max(a[1], b[1]))",
        ("tests/test_mobius.py::test_even_odd_form_matches_its_parity_definition",),
    ),
    Mutant(
        "possibility-takes-the-member-minimum", CAPACITY,
        "fold_members(pi, max, scale.zero)",
        "fold_members(pi, min, scale.one)",
        (
            "tests/test_capacity.py::"
            "test_possibility_is_maxitive_and_necessity_is_its_conjugate",
        ),
    ),
    Mutant(
        "choquet-mobius-takes-the-member-maximum", INTEGRALS,
        "fold_members(scores, min, max(scores))",
        "fold_members(scores, max, min(scores))",
        ("tests/test_integrals.py::test_choquet_forms_agree",),
    ),
    Mutant(
        "sipos-mobius-reads-gains-for-losses", INTEGRALS,
        "losses = fold_members(minus, min, max(minus))",
        "losses = fold_members(plus, min, max(plus))",
        ("tests/test_integrals.py::test_choquet_forms_agree",),
    ),
    Mutant(
        "sugeno-mobius-takes-the-member-maximum", INTEGRALS,
        "_mobius_grade(weights, _signed_minima(f)[0])",
        "_mobius_grade(weights, fold_members([x.signed for x in f.scores], max, 0))",
        ("tests/test_integrals.py::test_sugeno_mobius_equals_rank_form_for_every_member",),
    ),
    Mutant(
        "variant1-swaps-gains-and-losses", INTEGRALS,
        "return fold_members(plus, min, top), fold_members(minus, min, top)",
        "return fold_members(minus, min, top), fold_members(plus, min, top)",
        ("tests/test_integrals.py::test_transform_terms_and_blocks_match_per_mask_terms",),
    ),
    Mutant(
        "variant3-clip-swaps-low-and-high", INTEGRALS,
        "    low, high = _survivors(",
        "    high, low = _survivors(",
        ("tests/test_integrals.py::test_threshold_terms_match_the_cut_formula",),
    ),
    Mutant(
        "monotone-closure-takes-the-minimum", VERIFY,
        "for _ in range(1, 1 << n)], max)",
        "for _ in range(1, 1 << n)], min)",
        ("tests/test_verify.py::test_a_sampled_capacity_is_the_monotone_closure_of_its_draws",),
    ),
    # the one fold kernel, rules._survivors
    Mutant(
        "angle-does-not-move-low", RULES,
        "                while items[low] == -top:\n                    low += 1\n",
        "",
        SURVIVORS_TESTS,
    ),
    Mutant(
        "ceil-moves-only-high", RULES,
        "                low, high = low + 1, high - 1\n",
        "                high -= 1\n",
        SURVIVORS_TESTS,
    ),
    Mutant(
        "angle-moves-like-ceil", RULES,
        "            if rule is Rule.ANGLE:\n",
        "            if False:\n",
        SURVIVORS_TESTS,
    ),
    Mutant(
        "low-starts-at-one", RULES,
        "    low, high = 0, len(items) - 1\n",
        "    low, high = 1, len(items) - 1\n",
        SURVIVORS_TESTS,
    ),
    Mutant(
        "ceil-moves-like-angle", RULES,
        "            if rule is Rule.ANGLE:\n",
        "            if True:\n",
        SURVIVORS_TESTS,
    ),
    # other kernels that have a reference
    Mutant(
        "ranking-sorts-by-denominator", IO,
        "ordered = sorted(magnitudes, key=_BY_RATIO)",
        "ordered = sorted(magnitudes, key=lambda pair: pair[1])",
        (RANKED_SCALE_TEST,),
    ),
    Mutant(
        "rank-map-without-the-forced-1", IO,
        "magnitudes = dict.fromkeys([(0, 1), (1, 1)])",
        "magnitudes = dict.fromkeys([(0, 1)])",
        ("tests/test_cli.py::test_unit_capacities_off_their_bounds_exit_2",),
    ),
    Mutant(
        "rank-map-without-the-forced-0", IO,
        "magnitudes = dict.fromkeys([(0, 1), (1, 1)])",
        "magnitudes = dict.fromkeys([(1, 1)])",
        ("tests/test_cli.py::test_unit_capacities_off_their_bounds_exit_2",),
    ),
    # unit-scale arithmetic on ints
    Mutant(
        "ratio-comparison-drops-a-cross-factor", IO,
        "return a[0] * b[1] - b[0] * a[1]",
        "return a[0] * b[1] - b[0]",
        (RANKED_SCALE_TEST,),
    ),
    Mutant(
        "rank-map-over-a-table-wide-denominator", IO,
        "ordered = sorted(magnitudes, key=_BY_RATIO)",
        "whole = __import__('math').lcm(*(den for _, den in magnitudes))\n"
        "    ordered = sorted(magnitudes, key=lambda pair: pair[0] * (whole // pair[1]))",
        ("tests/test_cli.py::test_long_denominators_load_and_render_in_bounded_time",),
    ),
    Mutant(
        "unit-range-check-without-abs", SCALE,
        "outside = abs(num) > den",
        "outside = num > den",
        ("tests/test_scale.py::test_the_unit_range_check_is_exact_at_both_ends",),
    ),
    Mutant(
        "conjugate-weight-reads-the-numerator", INTEGRALS,
        "return den - num, den",
        "return num, den",
        (CHAIN_FORMS_TEST,),
    ),
    Mutant(
        "explicit-choquet-divides-by-the-profile-denominator-only", INTEGRALS,
        "    acc, e = _chain_sum(nums, _weight(v))\n    return Fraction(acc, d * e)\n\n\n"
        "def choquet_mobius(",
        "    acc, e = _chain_sum(nums, _weight(v))\n    return Fraction(acc, d)\n\n\n"
        "def choquet_mobius(",
        (CHAIN_FORMS_TEST,),
    ),
    # keys read by position, capacity._read_subset_table
    Mutant(
        "key-order-compared-as-sets", CAPACITY,
        "map(eq, entries, islice(_subset_keys(n), skipped, None))",
        "[set(entries) == set(islice(_subset_keys(n), skipped, None))]",
        (
            "tests/test_io.py::test_keys_read_by_position_and_by_parsing_agree",
            "tests/test_io.py::test_only_keys_in_mask_order_are_read_by_position",
        ),
    ),
    Mutant(
        "keys-by-position-drop-the-empty-set-default", CAPACITY,
        "            values.insert(0, scale.zero)\n",
        "            pass\n",
        (
            "tests/test_io.py::test_keys_read_by_position_and_by_parsing_agree",
            "tests/test_io.py::test_only_keys_in_mask_order_are_read_by_position",
        ),
    ),
    Mutant(
        "subset-keys-in-the-wrong-member-order", CAPACITY,
        'repeat("}"), repeat(f",{i}}}")',
        'repeat("{"), repeat(f"{{{i},")',
        ("tests/test_io.py::test_subset_keys_match_the_subset_text_of_each_mask",),
    ),
    Mutant(
        "interval-keeps-ties-with-a-cover", MOBIUS,
        "x if s > cover else zero",
        "x if s >= cover else zero",
        (
            "tests/test_mobius.py::test_interval_is_exactly_the_brute_force_solution_set",
            INTERVAL_KERNEL_TEST,
        ),
    ),
    Mutant(
        "mobius-prints-the-upper-bound-as-canonical", CLI,
        'print(_spliced_line(head, {"table": lower}))',
        'print(_spliced_line(head, {"table": upper}))',
        ("tests/test_cli.py::test_mobius_canonical_records_match_their_definition",),
    ),
    # the command's quiet parser, cli._parse, and the full one, cli._build_parser
    Mutant(
        "full-parser-lists-the-commands-without-help", CLI,
        "add(commands.add_parser(name, help=summary))",
        "add(commands.add_parser(name))",
        (CLI_MESSAGES_TEST,),
    ),
    Mutant(
        "main-always-builds-the-full-parser", CLI,
        "    if argv and argv[0] in _COMMANDS:\n",
        "    if False:\n",
        (
            "tests/test_cli.py::test_compute_and_mobius_never_build_the_verify_parser",
            "tests/test_cli.py::test_a_valid_command_line_builds_one_parser",
        ),
    ),
    Mutant(
        "named-parser-adds-the-wrong-command", CLI,
        "_COMMANDS[argv[0]][1](parser)",
        "_COMMANDS[min(_COMMANDS)][1](parser)",
        (CLI_MESSAGES_TEST,),
    ),
    Mutant(
        "standalone-parser-ignores-extras", CLI,
        "        if not extras:\n",
        "        if True:\n",
        (CLI_MESSAGES_TEST,),
    ),
    Mutant(
        "quiet-parser-with-a-help-action", CLI,
        "add_help=False",
        "add_help=True",
        (CLI_MESSAGES_TEST, QUIET_PARSER_TEST),
    ),
    Mutant(
        "quiet-parser-prints-its-refusals", CLI,
        "raise _Declined(message)",
        "super().error(message)",
        (CLI_MESSAGES_TEST, QUIET_PARSER_TEST),
    ),
    Mutant(
        "quiet-parser-takes-a-refused-line-as-parsed", CLI,
        "raise _Declined(message)",
        "return None",
        (CLI_MESSAGES_TEST, QUIET_PARSER_TEST),
    ),
    Mutant(
        "quiet-parser-with-the-default-formatter", CLI,
        "add_help=False, formatter_class=_fixed_width",
        "add_help=False",
        ("tests/test_cli.py::test_a_valid_command_line_queries_no_terminal_size",),
    ),
    Mutant(
        "capacity-problems-misses-a-positive-empty-set", CAPACITY,
        "    if signed[0] != 0:\n",
        "    if signed[0] < 0:\n",
        ("tests/test_capacity.py::test_capacity_rejects_bad_boundaries", SLICED_CHECK_TEST),
    ),
    Mutant(
        "chain-sum-keeps-the-first-layer", INTEGRALS,
        "ranked[i - 1] if i > p else 0",
        "0",
        ("tests/test_integrals.py::test_plain_choquet_against_hand_computation",),
    ),
    Mutant(
        "chain-sum-steps-the-negative-block-inward", INTEGRALS,
        "ranked[i + 1] if i + 1 < p else",
        "ranked[i - 1] if 0 < i < p else",
        ("tests/test_integrals.py::test_choquet_forms_agree",),
    ),
    Mutant(
        "rank-terms-read-upper-sets-only", INTEGRALS,
        "zip(order, rank_sets(order, p))",
        "zip(order, rank_sets(order, 0))",
        ("tests/test_integrals.py::test_symmetric_sugeno_three_forms_agree",),
    ),
    Mutant(
        "mobius-necessity-reads-the-reversed-order", MOBIUS,
        "rank_sets(order, 0)",
        "rank_sets(order[::-1], 0)",
        ("tests/test_mobius.py::test_necessity_transform_sits_on_tails_with_tie_gaps",),
    ),
    # the signed-grade algebra, scale._sym_max_signed and scale._clip
    Mutant(
        "sym-max-kernel-keeps-the-smaller-magnitude", SCALE,
        "return x if abs(x) > abs(y) else y",
        "return x if abs(x) < abs(y) else y",
        (
            "tests/test_scale.py::test_sym_max_keeps_the_larger_magnitude",
            "tests/test_scale.py::test_sym_max_closed_form",
        ),
    ),
    Mutant(
        "clip-only-from-above", SCALE,
        "return max(-w, min(x, w))",
        "return min(x, w)",
        (
            "tests/test_scale.py::test_sym_min_takes_smaller_magnitude",
            "tests/test_scale.py::test_sym_min_closed_form",
        ),
    ),
    # the Sugeno side on signed grades
    Mutant(
        "sugeno-grade-reads-lower-sets", INTEGRALS,
        "for i, upper in zip(order, rank_sets(order, 0))",
        "for i, upper in zip(order, rank_sets(order, len(order)))",
        SUGENO_GRADE_TESTS,
    ),
    Mutant(
        "symmetric-sugeno-keeps-the-loss-positive", INTEGRALS,
        "return v.scale.value(_sym_max_signed(gain, -loss))",
        "return v.scale.value(_sym_max_signed(gain, loss))",
        SUGENO_GRADE_TESTS,
    ),
    Mutant(
        "rank-grades-clip-only-from-above", INTEGRALS,
        "_clip(scores[i], table[mask].signed)",
        "min(scores[i], table[mask].signed)",
        SUGENO_GRADE_TESTS,
    ),
    Mutant(
        "block-fold-keeps-the-smaller-magnitude", INTEGRALS,
        "blocks[block] = _sym_max_signed(blocks[block], term)",
        "blocks[block] = 0 if blocks[block] == -term else min(blocks[block], term, key=abs)",
        ("tests/test_integrals.py::test_transform_terms_and_blocks_match_per_mask_terms",),
    ),
    Mutant(
        "reconstruct-drops-the-weight", MOBIUS,
        "result = max(result, _clip(entry.signed, weight))",
        "result = max(result, entry.signed)",
        ("tests/test_mobius.py::test_reconstruct_matches_its_definition_on_every_mask",),
    ),
    Mutant(
        "conjugate-reconstruct-takes-the-minimum", MOBIUS,
        "outside = max(outside, entry.signed)",
        "outside = min(outside, entry.signed)",
        (
            "tests/test_mobius.py::"
            "test_conjugate_reconstruct_matches_its_definition_on_every_mask",
        ),
    ),
    Mutant(
        "scale-one-rebuilt-on-each-read", SCALE,
        "        return self._one\n",
        "        return self.value(self._top)\n",
        ("tests/test_scale.py::test_zero_and_one_are_built_once_per_scale",),
    ),
    # the law suite's fold table, pair walk and folded minima
    Mutant(
        "fold-table-keyed-without-the-rule", VERIFY,
        "    tables = [(rule, {}) for rule in (Rule.FLOOR, Rule.CEIL)]\n",
        "    tables = [(rule, shared) for shared in [{}] for rule in (Rule.FLOOR, Rule.CEIL)]\n",
        (FLOOR_CEIL_TEST,),
    ),
    Mutant(
        "monotone-claim-fails-on-equal-folds", VERIFY,
        "if fold(low, rule, table) > fold(high, rule, table):",
        "if fold(low, rule, table) >= fold(high, rule, table):",
        (FLOOR_CEIL_TEST,),
    ),
    Mutant(
        "dominated-pairs-skip-low-itself", VERIFY,
        "            for high in sets[i:]:\n",
        "            for high in sets[i + 1:]:\n",
        (
            "tests/test_verify.py::"
            "test_dominated_pairs_are_those_of_the_recursive_walk_in_order",
        ),
    ),
    Mutant(
        "transform-kernel-swaps-gains-and-losses", INTEGRALS,
        "for w, gain, loss in zip(weights[1:], gains[1:], losses[1:])",
        "for w, gain, loss in zip(weights[1:], losses[1:], gains[1:])",
        ("tests/test_integrals.py::test_transform_terms_and_blocks_match_per_mask_terms",),
    ),
    # the member feed: grade tuples, the bounds then seeded draws per span
    Mutant(
        "members-yield-the-low-ends-twice", VERIFY,
        "    yield tuple(span[-1] for span in spans)\n",
        "    yield tuple(span[0] for span in spans)\n",
        (SAMPLED_MEMBERS_TEST,),
    ),
    Mutant(
        "members-draw-from-the-wrong-span", VERIFY,
        "tuple(rng.choice(span) for span in spans)",
        "tuple(rng.choice(spans[0]) for span in spans)",
        (SAMPLED_MEMBERS_TEST, VERIFY_RECORDS_TEST),
    ),
    Mutant(
        "member-weights-swap-gains-and-losses", VERIFY,
        "yield v, f, _signed_minima(f), _members(config, box, rng)",
        "yield v, f, _signed_minima(f)[::-1], _members(config, box, rng)",
        (TRANSFORM_KERNELS_TEST,),
    ),
    # a config checks its own bounds; reconstruction checks its mask
    Mutant(
        "config-accepts-zero-samples", VERIFY,
        "if self.samples is not None and self.samples < 1:",
        "if self.samples is not None and self.samples < 0:",
        (CONFIG_BOUNDS_TEST,),
    ),
    Mutant(
        "config-enumerates-four-players", VERIFY,
        "if self.samples is None and self.n > 3:",
        "if self.samples is None and self.n > 4:",
        (CONFIG_BOUNDS_TEST,),
    ),
    Mutant(
        "mask-bound-one-player-wide", CAPACITY,
        "if n is not None and mask >> n:",
        "if n is not None and mask >> n + 1:",
        (RECONSTRUCT_MASK_TEST,),
    ),
    Mutant(
        "reconstruct-without-the-player-bound", MOBIUS,
        "    _check_mask(mask, m.n)\n",
        "    _check_mask(mask)\n",
        (RECONSTRUCT_MASK_TEST,),
    ),
    Mutant(
        "conjugate-reconstruct-without-the-player-bound", MOBIUS,
        "    _check_mask(mask, m_conj.n)\n",
        "    _check_mask(mask)\n",
        (RECONSTRUCT_MASK_TEST,),
    ),
    # the draw switch: the members' box limits and enumerate mode's draws
    Mutant(
        "members-swap-the-enumerate-and-sampling-limits", VERIFY,
        "(GRID_LIMIT, 16) if config.samples is None else (8, 4)",
        "(8, 4) if config.samples is None else (GRID_LIMIT, 16)",
        (VERIFY_RECORDS_TEST,),
    ),
    Mutant(
        "enumerate-mode-draws-499", VERIFY,
        "ENUMERATE_DRAWS = 500\n",
        "ENUMERATE_DRAWS = 499\n",
        (VERIFY_RECORDS_TEST,),
    ),
    # the per-player slice pairs, the sliced capacity check and the load memo
    Mutant(
        "slice-pairs-with-the-wrong-stride", CAPACITY,
        "(slice(start, size, step), slice(start + bit, size, step))",
        "(slice(start, size, bit), slice(start + bit, size, bit))",
        SLICE_PAIR_TESTS,
    ),
    Mutant(
        "slice-pairs-with-swapped-halves", CAPACITY,
        "(slice(start, start + bit), slice(start + bit, start + step))",
        "(slice(start + bit, start + step), slice(start, start + bit))",
        SLICE_PAIR_TESTS,
    ),
    Mutant(
        "slice-pairs-one-block-short", CAPACITY,
        "for start in range(0, size, step)\n",
        "for start in range(0, size - step, step)\n",
        SLICE_PAIR_TESTS,
    ),
    Mutant(
        "sliced-check-refuses-equal-covers", CAPACITY,
        "all(map(le, signed[lo], signed[hi]))",
        "all(map(__import__('operator').lt, signed[lo], signed[hi]))",
        ("tests/test_capacity.py::test_the_sliced_check_passes_every_enumerated_capacity",),
    ),
    Mutant(
        "interval-record-splices-upper-for-lower", CLI,
        '{"lower": lower, "upper": upper}',
        '{"lower": upper, "upper": upper}',
        ("tests/test_cli.py::test_mobius_lines_are_the_record_lines_of_their_records",),
    ),
    Mutant(
        "memo-lets-true-share-the-entry-of-1", IO,
        "if type(raw) is str or type(raw) is int:",
        "if isinstance(raw, (str, int)):",
        ("tests/test_io.py::test_a_value_equal_to_a_parsed_int_keeps_its_own_error",),
    ),
    Mutant(
        "asymmetric-choquet-reads-1-minus-v-upper", INTEGRALS,
        "num, den = table[top ^ upper].as_integer_ratio()",
        "num, den = table[upper].as_integer_ratio()",
        ("tests/test_integrals.py::test_choquet_forms_agree",),
    ),
    # the plain unit-text reader, the checked unit parse and the ranked grades
    Mutant(
        "plain-reader-drops-the-sign", SCALE,
        "return Fraction(-num if sign else num, den)",
        "return Fraction(num, den)",
        UNIT_TEXT_TESTS,
    ),
    Mutant(
        "plain-reader-scales-by-one-place-less", SCALE,
        "num, den = int(whole + part), 10 ** len(part)",
        "num, den = int(whole + part), 10 ** (len(part) - 1)",
        UNIT_TEXT_TESTS,
    ),
    Mutant(
        "plain-reader-accepts-a-zero-denominator", SCALE,
        "        if den:\n            return Fraction(",
        "        if True:\n            return Fraction(",
        UNIT_TEXT_TESTS,
    ),
    Mutant(
        "parse-wraps-off-scale-values", SCALE,
        "return self.value(_read_unit_text(text))",
        "return _trusted(ScaleValue, scale=self, signed=_read_unit_text(text))",
        UNIT_TEXT_TESTS,
    ),
    Mutant(
        "ranked-unit-wraps-the-magnitude-of-a-negative-rank", IO,
        "grade[key] = scale.value(-i if num < 0 else i)",
        "grade[key] = scale.value(i)",
        (RANKED_SCALE_TEST,),
    ),
    Mutant(
        "member-weights-keep-the-first-box", VERIFY,
        "        if interval is not read:\n"
        "            read, box = interval, _box(interval)\n",
        "        if read is None:\n"
        "            read, box = interval, _box(interval)\n",
        (MEMBER_WEIGHTS_TEST, VERIFY_RECORDS_TEST),
    ),
    # the shared definitions: one split into gains and losses, one scale
    # agreement check, the plain Choquet integral as the one-pass form
    Mutant(
        "parts-keep-the-sign-of-the-losses", INTEGRALS,
        "[-x if x < 0 else 0 for x in scores]",
        "[x if x < 0 else 0 for x in scores]",
        ("tests/test_oracle_independence.py::test_parts_are_the_gains_and_the_losses",),
    ),
    Mutant(
        "inferred-scale-skips-the-per-value-check", SCALE,
        "        scale = getattr(values[0], \"scale\", None)\n",
        "        return getattr(values[0], \"scale\", None)\n",
        ("tests/test_scale.py::test_every_site_reports_a_mixed_scale_the_same_way",),
    ),
    Mutant(
        "plain-choquet-lets-a-negative-score-through", INTEGRALS,
        "if any(x < 0 for x in _check_real_args(v, f)):",
        "if any(x < -1 for x in _check_real_args(v, f)):",
        ("tests/test_integrals.py::test_plain_choquet_rejects_signed_profiles",),
    ),
    # oracle collapse: one form routed through the other keeps every value,
    # so only the record of what each form runs can see it
    Mutant(
        "one-pass-sugeno-returns-the-split-form", INTEGRALS,
        "    terms = _ranked_grades(v, f)[2]\n"
        "    return v.scale.value(_fold_signed(terms, FOLD_RULES[\"sugeno_sym\"]))\n",
        "    return sugeno_symmetric(v, f)\n",
        (ORACLE_INDEPENDENCE_TEST,),
    ),
    Mutant(
        "one-pass-choquet-returns-the-split-form", INTEGRALS,
        "    nums, d = _numerators(v, f)\n    acc, e = _chain_sum(nums, _weight(v))\n",
        "    return choquet_symmetric(v, f)\n    nums, d = _numerators(v, f)\n"
        "    acc, e = _chain_sum(nums, _weight(v))\n",
        (ORACLE_INDEPENDENCE_TEST,),
    ),
    # the one reader of the signed transform forms, and the subset walks
    # through iter_submasks and covers_of
    Mutant(
        "transform-args-swap-the-minima", INTEGRALS,
        "    return (_transform_weights(m), *_signed_minima(f))\n",
        "    return (_transform_weights(m), *_signed_minima(f)[::-1])\n",
        ("tests/test_integrals.py::test_transform_terms_and_blocks_match_per_mask_terms",),
    ),
    Mutant(
        "solution-check-folds-the-covers", MOBIUS,
        "for sub in iter_submasks(mask)]",
        "for sub in covers_of(mask)]",
        ("tests/test_mobius.py::test_interval_is_exactly_the_brute_force_solution_set",),
    ),
    Mutant(
        "canonical-folds-every-submask", MOBIUS,
        "for cover in covers_of(mask)], rule)",
        "for cover in iter_submasks(mask)], rule)",
        ("tests/test_mobius.py::test_canonical_transform_floor_and_angle",),
    ),
    Mutant(
        "capacity-problems-reads-one-cover-fewer", CAPACITY,
        "        for cover in covers_of(mask):\n",
        "        for cover in list(covers_of(mask))[1:]:\n",
        (SLICED_CHECK_TEST,),
    ),
    # the immutable records
    Mutant(
        "record-eq-drops-the-class-check", SCALE,
        "            return NotImplemented\n        return self is other or",
        "            pass\n        return self is other or",
        (RECORDS_TEST,),
    ),
    Mutant(
        "scale-value-eq-ignores-the-scale", SCALE,
        "return (self.scale, self.signed) == (other.scale, other.signed)",
        "return self.signed == other.signed",
        (RECORDS_TEST,),
    ),
    Mutant(
        "record-setattr-assigns", SCALE,
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        (RECORDS_TEST,),
    ),
)


def run_tests(src: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    """The named tests with ``src`` first on the import path; the short
    summary lists each failure and error."""
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
        "-o", f"pythonpath={src}", *tests,
    ]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True)


def first_failure(stdout: str) -> tuple[str, str]:
    """The first failing node id in pytest's short summary, and the type of
    the exception that failed it, from the ``path:line: Type`` line that
    ends the first traceback, or else from an exception group's header (as
    when Hypothesis finds several distinct failures); a module that failed
    to load shows neither."""
    nodes = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", stdout, re.M)
    kinds = re.findall(r"^\S+:\d+: ([\w.]+)$", stdout, re.M) or re.findall(
        r"^[ |]*(\w*ExceptionGroup): ", stdout, re.M
    )
    return nodes[0] if nodes else "?", kinds[0] if kinds else "error"


def fresh_copy(folder: Path) -> Path:
    src = folder / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def check(mutant: Mutant, folder: Path) -> tuple[str, tuple[str, str] | None]:
    """``killed`` with the first failure, ``survived``, or an error saying
    why the run means nothing."""
    src = fresh_copy(folder)
    target = folder / mutant.path
    text = target.read_text(encoding="utf-8")
    found = text.count(mutant.snippet)
    if found != 1:
        return f"error: the snippet occurs {found} times in {mutant.path}", None
    target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    result = run_tests(src, mutant.tests)
    if result.returncode in (1, 2):  # a test failed, or a module failed to load
        return "killed", first_failure(result.stdout)
    if result.returncode == 0:
        return "survived", None
    return f"error: pytest exited {result.returncode}\n{result.stdout[-2000:]}", None


def main(names: list[str]) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        tests = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
        baseline = run_tests(fresh_copy(folder), tests)
        if baseline.returncode != 0:
            print("the named tests fail on the unmutated source:", file=sys.stderr)
            print(baseline.stdout[-2000:], file=sys.stderr)
            return 2
        killed = 0
        other_kills = []  # kills whose failure is not an AssertionError
        for mutant in mutants:
            outcome, failure = check(mutant, folder)
            killed += outcome == "killed"
            shown = f"  {failure[0]}  {failure[1]}" if failure else ""
            print(f"{outcome:8}  {mutant.name}{shown}", flush=True)
            if failure and failure[1] != "AssertionError":
                other_kills.append(f"{mutant.name}  {failure[1]}")
    elapsed = time.perf_counter() - start
    print(f"{killed} of {len(mutants)} mutants killed in {elapsed:.0f} s")
    print(f"{len(other_kills)} kills not by an AssertionError", *other_kills, sep="\n  ")
    return 0 if killed == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
