"""Problem files and result records.

A problem file is one self-describing JSON document: a scale descriptor,
an optional player name list, a capacity table keyed by subset strings
such as ``"{1,3}"``, a profile, and optional run options.  Unit-scale
values travel as exact text (fractions or terminating decimals); binary
floats are rejected so that every number survives a round trip.  No
object may repeat a key.  Capacity keys listed in mask order are read by
position, and any other listing key by key (``capacity._read_subset_table``).
Each distinct value of a document, in its profile or its capacity, is
parsed and wrapped once.  A capacity is validated once, on its signed
grades (``capacity._check_capacity``): a unit-scale one on the ranks that
:meth:`Problem.ranked` returns, which are built on loading, so both
capacities are built with no second check.

Malformed documents raise :class:`ParseError`; documents that parse but
describe an invalid instance (an off-scale value, a non-monotone
capacity) raise the validation errors of the core modules.  The command
line maps the former to exit code 1 and the latter to exit code 2.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from functools import cmp_to_key

from .capacity import (
    Capacity,
    SetFunction,
    _check_capacity,
    _read_subset_table,
    _subset_keys,
)
from .integrals import Profile
from .scale import (
    UNIT,
    Number,
    OffScaleError,
    ScaleError,
    ScaleValue,
    SymmetricScale,
    _format_fraction,
    _Record,
    _trusted,
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


class ProblemOptions(_Record):
    """Defaults stored inside a problem file; command-line flags win."""

    def __init__(
        self, mobius: str | None = None, outputs: tuple[str, ...] | None = None
    ) -> None:
        self.__dict__.update(mobius=mobius, outputs=outputs)


class Problem(_Record):
    # not a field: load_problem sets it; a problem built by hand ranks on demand
    _ranked: tuple[Capacity, Profile] | None = None

    def __init__(
        self,
        scale: SymmetricScale,
        players: tuple[str, ...] | None,
        capacity: Capacity,
        profile: Profile,
        options: ProblemOptions,
    ) -> None:
        self.__dict__.update(
            scale=scale, players=players, capacity=capacity, profile=profile,
            options=options,
        )

    @property
    def n(self) -> int:
        return self.profile.n

    def ranked(self) -> tuple[Capacity, Profile]:
        """The capacity and profile on an order-isomorphic levels scale.

        On the unit scale, the distinct magnitudes the instance uses, with 0
        and 1, are 0 = q0 < ... < qK = 1, and each value +-qi becomes the
        grade +-i of ``levels_scale(K)`` labelled with the text of each qi.
        So every value prints exactly as before, and grades are interned
        ints instead of Fractions.  The Sugeno integrals, the fold rules and
        the ordinal Moebius forms depend only on order, signs and opposites,
        so they give the same values on either scale.  The map does not
        preserve x -> 1 - x: ``SymmetricScale.negate``, ``conjugate`` and
        the necessity measure are not valid on the ranked scale.
        Levels-scale problems come back unchanged.

        A loaded problem returns the pair built, and validated, on loading."""
        if self._ranked is not None:
            return self._ranked
        if self.scale.kind != UNIT:
            return self.capacity, self.profile
        table, scores = self.capacity.table, self.profile.scores
        return _ranked_unit(self.n, table, scores, (*table, *scores))


def _compare_ratios(a: tuple[int, int], b: tuple[int, int]) -> int:
    """The sign of a[0]/a[1] - b[0]/b[1], for positive denominators, on
    ints: no common denominator is formed, which over a whole table can
    run to many thousands of digits."""
    return a[0] * b[1] - b[0] * a[1]


_BY_RATIO = cmp_to_key(_compare_ratios)


def _ranked_unit(
    n: int,
    table: Sequence[ScaleValue],
    scores: Sequence[ScaleValue],
    values: Sequence[ScaleValue],
) -> tuple[Capacity, Profile]:
    """The ranked capacity and profile of :meth:`Problem.ranked` for a dense
    table and scores on the unit scale, which hold no value object missing
    from ``values``; the capacity is validated here, on its grades.

    The rank map is strictly increasing, odd and fixes 0 and 1, even when
    the table lacks them, so every negativity, boundary and cover check of
    the capacity axioms gives the same verdict on the grades as on the
    values, in the same order; and each grade prints as its value, so the
    messages are the same too."""
    # values parsed from the same text are one object, so each object is
    # read once, keyed by id; magnitudes are keyed by (numerator,
    # denominator), since hashing a Fraction calls pow()
    distinct = dict(zip(map(id, values), values))
    ratios = {key: x.signed.as_integer_ratio() for key, x in distinct.items()}
    # each magnitude once, as its reduced (numerator, denominator) pair, in
    # first-seen order: a table listed in mask order comes nearly sorted
    magnitudes = dict.fromkeys([(0, 1), (1, 1)])
    magnitudes.update(dict.fromkeys((abs(num), den) for num, den in ratios.values()))
    ordered = sorted(magnitudes, key=_BY_RATIO)
    rank = {pair: i for i, pair in enumerate(ordered)}
    labels = tuple(_format_fraction(num, den) for num, den in ordered)
    scale = levels_scale(len(ordered) - 1, labels)
    grade = {}
    for key, (num, den) in ratios.items():
        i = rank[abs(num), den]
        grade[key] = scale.value(-i if num < 0 else i)
    ranked = tuple(map(grade.__getitem__, map(id, table)))
    _check_capacity(n, scale, ranked)
    capacity = _trusted(Capacity, n=n, scale=scale, table=ranked)
    return capacity, Profile(scale, tuple(map(grade.__getitem__, map(id, scores))))


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
    parsed: dict[str | int, ScaleValue] = {}

    def parse(item: object, raw: object, place: str = "capacity") -> ScaleValue:
        # documents repeat few values many times, so each value read from
        # text or an exact int is kept, keyed by the text or the int; a
        # bool equals an int (True == 1) and a float may equal one, so
        # neither is kept and each raises its own error, as errors do
        if type(raw) is str or type(raw) is int:
            hit = parsed.get(raw)
            if hit is None:
                hit = parsed[raw] = _parse_value(scale, raw, f"{place}[{item!r}]")
            return hit
        return _parse_value(scale, raw, f"{place}[{item!r}]")

    profile = _parse_profile(scale, document["profile"], parse)
    players = _parse_players(document.get("players"), profile.n)
    table = _parse_capacity(scale, profile.n, document["capacity"], parse)
    # the capacity is validated once: on ranks for the unit scale, whose
    # checked ranked capacity vouches for the unit-scale one
    if scale.kind == UNIT:
        # every value is one the parsers kept, or the empty set's default 0
        values = (*parsed.values(), table[0])
        ranked = _ranked_unit(profile.n, table, profile.scores, values)
    else:
        ranked = None
        _check_capacity(profile.n, scale, table)
    capacity = _trusted(Capacity, n=profile.n, scale=scale, table=table)
    options = _parse_options(document.get("options"))
    problem = Problem(scale, players, capacity, profile, options)
    object.__setattr__(problem, "_ranked", ranked)
    return problem


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    # json.loads would keep the last of repeated keys silently
    document = dict(pairs)
    if len(document) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = next(key for key, _ in pairs if counts[key] > 1)
        raise ParseError(f"repeated key {repeated!r}")
    return document


def _parse_scale(raw: object) -> SymmetricScale:
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


def _parse_value(scale: SymmetricScale, raw: object, where: str) -> ScaleValue:
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


def _parse_profile(
    scale: SymmetricScale, raw: object, parse: Callable[..., ScaleValue]
) -> Profile:
    if not isinstance(raw, list) or not raw:
        raise ParseError("'profile' must be a non-empty list of scale values")
    return Profile(
        scale, tuple(parse(i, item, "profile") for i, item in enumerate(raw))
    )


def _parse_players(raw: object, n: int) -> tuple[str, ...] | None:
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


def _parse_capacity(
    scale: SymmetricScale, n: int, raw: object, parse: Callable[..., ScaleValue]
) -> tuple[ScaleValue, ...]:
    """The dense capacity table of a document, each value read by
    ``parse(key, value)``, not yet validated."""
    if not isinstance(raw, dict):
        raise ParseError("'capacity' must map subset strings to scale values")
    return _read_subset_table(n, scale, raw, parse, ParseError)


def _parse_options(raw: object) -> ProblemOptions:
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
    return _format_fraction(*value.as_integer_ratio())


def set_function_record(sf: SetFunction) -> dict[str, str]:
    """A set function as an ordered subset-string table."""
    return _table_record(sf, {})


def _table_record(sf: SetFunction, texts: dict[Number, str]) -> dict[str, str]:
    """:func:`set_function_record`, formatting through ``texts``."""
    grades = [x.signed for x in sf.table]
    return dict(zip(_subset_keys(sf.n), _grade_texts(sf.scale, grades, texts)))


def _grade_texts(
    scale: SymmetricScale, grades: Sequence[Number], texts: dict[Number, str]
) -> list[str]:
    """The text of each signed number's value on ``scale``, formatting each
    distinct number once into ``texts``, shared by values on that scale."""
    for grade in set(grades).difference(texts):
        texts[grade] = str(scale.value(grade))
    return list(map(texts.__getitem__, grades))


# json.dumps builds an encoder on every call that changes a default
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def record_line(record: Mapping[str, object]) -> str:
    """One result record as one line of JSON, key order preserved."""
    return _ENCODER.encode(record)


def _spliced_line(head: Mapping[str, object], encoded: Mapping[str, str]) -> str:
    """:func:`record_line` of ``head`` followed by the keys of ``encoded``,
    whose values are already encoded, so a shared table is encoded once."""
    parts = [record_line(head)[:-1]]
    for key, text in encoded.items():
        parts += (", ", _ENCODER.encode(key), ": ", text)
    parts.append("}")
    return "".join(parts)
