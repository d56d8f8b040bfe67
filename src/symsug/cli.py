"""Command line: compute integrals from a problem file, run the law
suites, or print the ordinal transforms of a capacity.

Output is line-delimited JSON, one record per result, in a fixed order;
identical inputs (and seed) produce byte-identical output.  Exit codes:
0 success, 1 malformed input document, 2 invalid flags or an instance
that fails validation.  When the first argument names a command, the
call builds that command's parser alone, as the full parser would hand
it the rest of the line, so ``compute`` and ``mobius`` never list the
laws.  That parser is quiet: it has no help action, formats at a fixed
width (so it never asks for the terminal size) and raises its refusals.
A help request (left over, as no option starts with ``--h``), a refusal
or leftovers, and any other first argument, go to the full parser, so
each call prints what the full parser alone would print.

On the unit scale, ``compute`` and ``mobius`` evaluate the Sugeno side
(the Sugeno integrals, the three variants, the transform interval and the
canonical forms) on the ranks of the values the instance uses, through
:meth:`Problem.ranked`.  That is exact, since those outputs depend only on
order, signs and opposites, and the ranked scale prints every grade as the
value it stands for.  The Choquet family stays on rationals.  The capacity
is validated once, on loading, on its ranks: the rank map is strictly
increasing, odd, and sends 0 and 1 to the ends of the ranked scale, so the
ranks keep the capacity axioms exactly when the values do.

From loading to printing, both commands work on int grades, wrapped and
checked only where the document is read.  ``compute`` builds each Sugeno
output's term list as grades (the kernels of ``ranked_terms``,
``variant1_terms`` and ``variant3_terms``), folds it with
``rules._fold_signed`` under its rule in ``integrals.FOLD_RULES``, which
the library reads too, and formats each distinct grade once.
``sugeno_sym`` and ``sugeno`` fold the explicit-form terms, which is exact
by the law ``symmetric-sugeno-forms-agree``.

``mobius`` prints the canonical floor and angle tables from the
interval's lower bound, computed, formatted and encoded once, and spliced
into all three records.  That is exact: the command only holds a capacity
validated on loading, and on a capacity the canonical form under either
rule is the lower bound (the law ``canonical-equals-lower``, which checks
it against :func:`canonical_ordinal_mobius`).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .integrals import (
    FOLD_RULES,
    _ranked_grades,
    _transform_args,
    _variant1_kernel,
    _variant3_grades,
    choquet,
    choquet_asymmetric,
    choquet_symmetric,
    to_real_capacity,
    to_real_profile,
)
from .io import (
    MOBIUS_REPRESENTATIVES,
    OUTPUT_NAMES,
    ParseError,
    Problem,
    _grade_texts,
    _spliced_line,
    _table_record,
    fraction_text,
    read_problem,
    record_line,
)
from .mobius import ordinal_mobius_interval
from .rules import Rule, _fold_signed
from .verify import VerifyConfig, law_names, run_laws

CHOQUET_OUTPUTS = {
    "choquet": choquet,
    "choquet_sym": choquet_symmetric,
    "choquet_asym": choquet_asymmetric,
}
NONNEGATIVE_ONLY = ("choquet", "sugeno")


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 after --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with a quiet parser of the command ``argv[0]`` names, as the
    full parser would hand it the rest of the line.  It declines a help
    request, which it has no action for, any refusal and any leftovers; a
    declined line or an unknown command goes to the full parser, which
    prints its message."""
    if argv and argv[0] in _COMMANDS:
        # a constant prog, never printed, spares argparse a read of sys.argv
        parser = _QuietParser(
            prog="symsug", add_help=False, formatter_class=_fixed_width
        )
        _COMMANDS[argv[0]][1](parser)
        try:
            args, extras = parser.parse_known_args(argv[1:])
            if not extras:
                return args
        except _Declined:
            pass
    return _build_parser().parse_args(argv)


class _Declined(Exception):
    """A command line the quiet parser refuses, left to the full parser."""


class _QuietParser(argparse.ArgumentParser):
    """A command's parser that never prints: it raises each refusal."""

    def error(self, message):
        raise _Declined(message)


def _fixed_width(prog: str) -> argparse.HelpFormatter:
    # the quiet parser never prints, so it need not ask for the terminal size
    return argparse.HelpFormatter(prog, width=80)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symsug",
        description=(
            "Integrals over symmetric ordinal scales: compute them from a "
            "problem file, verify their algebraic laws, or print ordinal "
            "transforms."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add) in _COMMANDS.items():
        add(commands.add_parser(name, help=summary))
    return parser


def _add_compute(compute: argparse.ArgumentParser) -> None:
    compute.add_argument("--input", required=True, help="problem file (JSON)")
    compute.add_argument(
        "--mobius",
        choices=list(MOBIUS_REPRESENTATIVES),
        help="transform representative used by v1 (default: lower)",
    )
    which = compute.add_mutually_exclusive_group(required=False)
    which.add_argument(
        "--all",
        action="store_true",
        help="emit every output applicable to the instance",
    )
    which.add_argument(
        "--only",
        metavar="LIST",
        help=f"comma-separated output names among: {', '.join(OUTPUT_NAMES)}",
    )
    compute.set_defaults(handler=_cmd_compute)


def _add_verify(verify: argparse.ArgumentParser) -> None:
    verify.add_argument("--n", type=int, default=2, help="number of players")
    verify.add_argument(
        "--levels", type=int, default=3, help="grade count K of the levels scale"
    )
    verify.add_argument(
        "--samples",
        type=int,
        help="check this many seeded random instances (default: enumerate "
        "every instance, which needs --n at most 3)",
    )
    verify.add_argument("--seed", type=int, default=0, help="sampling seed")
    verify.add_argument(
        "--law",
        action="append",
        choices=law_names(),
        metavar="LAW",
        help="run only this law (repeatable)",
    )
    verify.set_defaults(handler=_cmd_verify)


def _add_mobius(mobius: argparse.ArgumentParser) -> None:
    mobius.add_argument("--input", required=True, help="problem file (JSON)")
    mobius.set_defaults(handler=_cmd_mobius)


# each command's help line and the function that fills its parser, in the
# order the full parser lists them
_COMMANDS = {
    "compute": (
        "evaluate integrals and transforms from a problem file", _add_compute
    ),
    "verify": ("run the algebraic law suites and report per law", _add_verify),
    "mobius": (
        "print the ordinal transform interval and canonical forms", _add_mobius
    ),
}


# -- compute ---------------------------------------------------------------


def _inapplicable(name: str, problem: Problem) -> str | None:
    """Why output ``name`` is not defined on the instance, or None."""
    if name in CHOQUET_OUTPUTS and problem.scale.kind != "unit":
        return f"{name} needs the unit scale"
    if name in NONNEGATIVE_ONLY and not problem.profile.is_nonnegative:
        return f"{name} needs a nonnegative profile"
    return None


def _requested_outputs(problem: Problem, args) -> list[str]:
    if args.all:
        return [name for name in OUTPUT_NAMES if not _inapplicable(name, problem)]
    if args.only is not None:
        requested = [name.strip() for name in args.only.split(",")]
        if not all(requested):
            raise ValueError("--only lists an empty output name")
        unknown = [name for name in requested if name not in OUTPUT_NAMES]
        if unknown:
            raise ValueError(f"unknown output name: {unknown[0]!r}")
        if len(set(requested)) != len(requested):
            raise ValueError("--only repeats an output name")
    elif problem.options.outputs is not None:
        requested = list(problem.options.outputs)
    else:
        raise ValueError(
            "pass --all or --only LIST (or set options.outputs in the file)"
        )
    for name in requested:
        reason = _inapplicable(name, problem)
        if reason:
            raise ValueError(reason)
    # canonical emission order, independent of request order
    return [name for name in OUTPUT_NAMES if name in requested]


def _cmd_compute(args) -> int:
    problem = read_problem(args.input)
    names = _requested_outputs(problem, args)
    representative = args.mobius or problem.options.mobius or "lower"
    v, f = problem.ranked()

    order, split, ranked = _ranked_grades(v, f)
    if "v1" in names or "mobius_interval" in names:
        interval = ordinal_mobius_interval(v)
    # the grade lists diagnostics.terms shows, in its order
    terms = {name: ranked for name in ("sugeno_sym", "v2") if name in names}
    if "v3" in names:
        terms["v3"] = _variant3_grades(v, f)
    if "v1" in names:
        member = interval.lower if representative == "lower" else interval.upper
        terms["v1"] = _variant1_kernel(*_transform_args(member, f))
    if any(name in CHOQUET_OUTPUTS for name in names):
        real_v = to_real_capacity(problem.capacity)
        real_f = to_real_profile(problem.profile)

    texts: dict[int, str] = {}  # every grade of the record is formatted once
    record: dict[str, object] = {}
    for name in names:
        if name in CHOQUET_OUTPUTS:
            record[name] = fraction_text(CHOQUET_OUTPUTS[name](real_v, real_f))
        elif name in FOLD_RULES:
            # sugeno is defined on nonnegative profiles, where it is sugeno_sym
            listed = ranked if name == "sugeno" else terms[name]
            folded = _fold_signed(listed, FOLD_RULES[name])
            record[name] = _grade_texts(v.scale, [folded], texts)[0]
        elif name == "mobius_interval":
            record[name] = {
                "lower": _table_record(interval.lower, texts),
                "upper": _table_record(interval.upper, texts),
            }

    diagnostics: dict[str, object] = {"order": order, "p": split}
    if "v1" in names:
        diagnostics["mobius"] = representative
    if terms:
        diagnostics["terms"] = {
            name: _grade_texts(v.scale, listed, texts) for name, listed in terms.items()
        }
    record["diagnostics"] = diagnostics
    print(record_line(record))
    return 0


# -- verify ------------------------------------------------------------------


def _cmd_verify(args) -> int:
    config = VerifyConfig(
        n=args.n, levels=args.levels, samples=args.samples, seed=args.seed
    )
    for result in run_laws(config, args.law):
        print(record_line(result.to_record()))
    return 0


# -- mobius ------------------------------------------------------------------


def _cmd_mobius(args) -> int:
    capacity, _ = read_problem(args.input).ranked()
    interval = ordinal_mobius_interval(capacity)
    texts: dict[int, str] = {}  # the bounds share most of their grades
    lower = record_line(_table_record(interval.lower, texts))
    upper = record_line(_table_record(interval.upper, texts))
    print(_spliced_line({"transform": "interval"}, {"lower": lower, "upper": upper}))
    # the capacity was validated on loading, and the canonical form of a
    # capacity under either rule is the interval's lower bound, so all three
    # records splice in its one encoding
    for rule in (Rule.FLOOR, Rule.ANGLE):
        head = {"transform": "canonical", "rule": rule.value}
        print(_spliced_line(head, {"table": lower}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
