"""Problem files and result records.

A problem file is one self-describing JSON document: a scale descriptor,
an optional player name list, a capacity table keyed by subset strings
such as ``"{1,3}"``, a profile, and optional run options.  Unit-scale
values travel as exact text (fractions or terminating decimals); binary
floats are rejected so that every number survives a round trip.  No
object may repeat a key.

Malformed documents raise :class:`ParseError`; documents that parse but
describe an invalid instance (an off-scale value, a non-monotone
capacity) raise the validation errors of the core modules.  The command
line maps the former to exit code 1 and the latter to exit code 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

from .capacity import Capacity, SetFunction, _read_subset_table, subset_text, subsets
from .integrals import Profile
from .scale import (
    OffScaleError,
    ScaleError,
    ScaleValue,
    SymmetricScale,
    _format_fraction,
    levels_scale,
    unit_scale,
)

# every output the compute command knows, in emission order
OUTPUT_NAMES = (
    "choquet",
    "choquet_sym",
    "choquet_asym",
    "sugeno",
    "sugeno_sym",
    "v1",
    "v2",
    "v3",
    "mobius_interval",
)

MOBIUS_REPRESENTATIVES = ("lower", "upper")


class ParseError(ValueError):
    """The document is not a well-formed problem file."""


@dataclass(frozen=True)
class ProblemOptions:
    """Defaults stored inside a problem file; command-line flags win."""

    mobius: str | None = None
    outputs: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Problem:
    scale: SymmetricScale
    players: tuple[str, ...] | None
    capacity: Capacity
    profile: Profile
    options: ProblemOptions

    @property
    def n(self) -> int:
        return self.profile.n


def read_problem(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return load_problem(text)


def load_problem(text: str) -> Problem:
    try:
        document = json.loads(text, object_pairs_hook=_unique_keys)
    except ParseError:
        raise
    except (ValueError, RecursionError) as exc:  # also digit and depth limits
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ParseError("the problem file must be a JSON object")
    unknown = set(document) - {"scale", "players", "capacity", "profile", "options"}
    if unknown:
        raise ParseError(f"unknown problem keys: {', '.join(sorted(unknown))}")
    for key in ("scale", "capacity", "profile"):
        if key not in document:
            raise ParseError(f"missing problem key: {key!r}")

    scale = _parse_scale(document["scale"])
    profile = _parse_profile(scale, document["profile"])
    players = _parse_players(document.get("players"), profile.n)
    capacity = _parse_capacity(scale, profile.n, document["capacity"])
    options = _parse_options(document.get("options"))
    return Problem(scale, players, capacity, profile, options)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    # json.loads would keep the last of repeated keys silently
    document = dict(pairs)
    if len(document) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ParseError(f"repeated key {repeated!r}")
    return document


def _parse_scale(raw: Any) -> SymmetricScale:
    if not isinstance(raw, dict):
        raise ParseError("'scale' must be an object")
    kind = raw.get("kind")
    if kind == "unit":
        if set(raw) - {"kind"}:
            raise ParseError("a unit scale descriptor only has 'kind'")
        return unit_scale()
    if kind == "levels":
        if set(raw) - {"kind", "levels", "labels"}:
            raise ParseError(
                "a levels scale descriptor has 'kind', 'levels' and "
                "optionally 'labels'"
            )
        grades = raw.get("levels")
        if not isinstance(grades, int) or isinstance(grades, bool):
            raise ParseError("'levels' must be an integer grade count")
        labels = raw.get("labels")
        if labels is not None:
            if not isinstance(labels, list) or not all(
                isinstance(item, str) for item in labels
            ):
                raise ParseError("'labels' must be a list of strings")
            labels = tuple(labels)
        try:
            return levels_scale(grades, labels)
        except ScaleError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError("scale 'kind' must be 'unit' or 'levels'")


def _parse_value(scale: SymmetricScale, raw: Any, where: str) -> ScaleValue:
    if isinstance(raw, bool):
        raise ParseError(f"{where}: booleans are not scale values")
    if isinstance(raw, float):
        raise ParseError(
            f"{where}: binary floats are not exact; write the value as a string"
        )
    try:
        if isinstance(raw, str):
            return scale.parse(raw)
        if isinstance(raw, int):
            return scale.value(raw)
    except OffScaleError:
        raise
    except ScaleError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: expected a string or integer, got {type(raw).__name__}")


def _parse_profile(scale: SymmetricScale, raw: Any) -> Profile:
    if not isinstance(raw, list) or not raw:
        raise ParseError("'profile' must be a non-empty list of scale values")
    scores = tuple(
        _parse_value(scale, item, f"profile[{i}]") for i, item in enumerate(raw)
    )
    return Profile(scale, scores)


def _parse_players(raw: Any, n: int) -> tuple[str, ...] | None:
    if raw is None:
        return None
    if not isinstance(raw, list) or not all(isinstance(item, str) for item in raw):
        raise ParseError("'players' must be a list of names")
    if len(raw) != n:
        raise ParseError(
            f"'players' lists {len(raw)} names but the profile has {n} scores"
        )
    if len(set(raw)) != len(raw) or not all(name.strip() for name in raw):
        raise ParseError("player names must be distinct and non-empty")
    return tuple(raw)


def _parse_capacity(scale: SymmetricScale, n: int, raw: Any) -> Capacity:
    if not isinstance(raw, dict):
        raise ParseError("'capacity' must map subset strings to scale values")

    def parse(key: str, value: Any) -> ScaleValue:
        return _parse_value(scale, value, f"capacity[{key!r}]")

    return Capacity(n, scale, _read_subset_table(n, scale, raw, parse, ParseError))


def _parse_options(raw: Any) -> ProblemOptions:
    if raw is None:
        return ProblemOptions()
    if not isinstance(raw, dict):
        raise ParseError("'options' must be an object")
    unknown = set(raw) - {"mobius", "outputs"}
    if unknown:
        raise ParseError(f"unknown options: {', '.join(sorted(unknown))}")
    mobius = raw.get("mobius")
    if mobius is not None and mobius not in MOBIUS_REPRESENTATIVES:
        raise ParseError("options.mobius must be 'lower' or 'upper'")
    outputs = None
    if "outputs" in raw:
        items = raw["outputs"]
        if not isinstance(items, list) or not items:
            raise ParseError("options.outputs must be a non-empty list")
        for item in items:
            if item not in OUTPUT_NAMES:
                raise ParseError(f"unknown output name: {item!r}")
        if len(set(items)) != len(items):
            raise ParseError("options.outputs repeats a name")
        outputs = tuple(items)
    return ProblemOptions(mobius=mobius, outputs=outputs)


# -- record rendering -----------------------------------------------------------


def fraction_text(value: Fraction) -> str:
    """Exact text for a rational: a terminating decimal when one exists,
    a fraction otherwise."""
    return _format_fraction(value)


def set_function_record(sf: SetFunction) -> dict[str, str]:
    """A set function as an ordered subset-string table."""
    return {subset_text(mask): str(sf(mask)) for mask in subsets(sf.n)}


def record_line(record: Mapping[str, Any]) -> str:
    """One result record as one line of JSON, key order preserved."""
    return json.dumps(record, ensure_ascii=False)
