"""Problem files and result records.

A problem file is one self-describing JSON document: a scale descriptor,
an optional player name list, a capacity table keyed by subset strings
such as ``"{1,3}"``, a profile, and optional run options.  Unit-scale
values travel as exact text (fractions or terminating decimals); binary
floats are rejected so that every number survives a round trip.  No
object may repeat a key.  Capacity keys listed in mask order are read by
position, and any other listing key by key (``capacity._read_subset_table``).
Each distinct value text or int of a document is read once, in the order
first seen (profile, then capacity): unit-scale text as a reduced integer
pair, levels text as a grade.  A unit-scale document is then ranked
(:meth:`Problem.ranked`) and validated once, on its ranks; its capacity
and profile of unit-scale values are built only when first read.

Malformed documents raise :class:`ParseError`; documents that parse but
describe an invalid instance (an off-scale value, a non-monotone
capacity) raise the validation errors of the core modules.  The command
line maps the former to exit code 1 and the latter to exit code 2.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cmp_to_key, partial

from .capacity import (
    Capacity,
    SetFunction,
    _check_capacity,
    _check_players,
    _read_subset_table,
    _subset_keys,
)
from .integrals import Profile, to_real_capacity, to_real_profile
from .mobius import RealSetFunction
from .scale import (
    LEVELS,
    UNIT,
    Number,
    OffScaleError,
    ScaleError,
    SymmetricScale,
    _format_fraction,
    _Record,
    _trusted,
    _unit_ratio,
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
    # not fields: a loaded unit-scale problem keeps its ranks and their
    # magnitudes, and builds its capacity and profile from them on first
    # read; a problem built by hand ranks, and validates, on demand
    _ranked: tuple[Capacity, Profile] | None = None
    _magnitudes: tuple[tuple[int, int], ...] = ()

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

    def __getattr__(self, name: str) -> object:
        # reached only for a field that a loaded unit-scale problem lacks
        if name not in ("capacity", "profile") or not self._magnitudes:
            raise AttributeError(f"'Problem' object has no attribute {name!r}")
        (real_v, real_f), scale = self.choquet_inputs(), self.scale
        value = {q: scale.value(q) for q in {*real_v.table, *real_f}}.__getitem__
        table, scores = tuple(map(value, real_v.table)), tuple(map(value, real_f))
        vars(self)["capacity"] = _trusted(Capacity, n=self.n, scale=scale, table=table)
        vars(self)["profile"] = _trusted(Profile, scale=scale, scores=scores)
        return vars(self)[name]

    @property
    def n(self) -> int:
        return (self._ranked[1] if self._ranked else self.profile).n

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
        table = [x.signed for x in self.capacity.table]
        scores = [x.signed for x in self.profile.scores]
        scale, grades, _ = _rank({q: q.as_integer_ratio() for q in (*table, *scores)})
        return _tables(self.n, scale, grades, table, scores)

    def choquet_inputs(self) -> tuple[RealSetFunction, tuple[Fraction, ...]]:
        """The capacity and the profile as ``to_real_capacity`` and
        ``to_real_profile`` give them; a loaded unit-scale problem decodes
        its ranks, each distinct value into one Fraction."""
        if not self._magnitudes:
            return to_real_capacity(self.capacity), to_real_profile(self.profile)
        v, f = self._ranked
        table, scores = [x.signed for x in v.table], [x.signed for x in f.scores]
        made = {}
        for grade in {*table, *scores}:
            num, den = self._magnitudes[abs(grade)]
            made[grade] = Fraction(-num if grade < 0 else num, den)
        table, scores = map(made.__getitem__, table), map(made.__getitem__, scores)
        return _trusted(RealSetFunction, n=v.n, table=tuple(table)), tuple(scores)


def _compare_ratios(a: tuple[int, int], b: tuple[int, int]) -> int:
    """The sign of a[0]/a[1] - b[0]/b[1], for positive denominators, on
    ints: no common denominator is formed, which over a whole table can
    run to many thousands of digits."""
    return a[0] * b[1] - b[0] * a[1]


_BY_RATIO = cmp_to_key(_compare_ratios)


def _rank(readings: Mapping) -> tuple[SymmetricScale, dict, tuple]:
    """The ranked scale of :meth:`Problem.ranked` for values given as
    reduced signed (numerator, denominator) pairs, the signed rank of each
    value, and the magnitude of each rank as its pair.

    The rank map is strictly increasing, odd and fixes 0 and 1, even when
    the values lack them, so every negativity, boundary and cover check of
    the capacity axioms gives the same verdict on the grades as on the
    values, in the same order; and each grade prints as its value, so the
    messages are the same too."""
    # each magnitude once, as its reduced pair, in first-seen order: a table
    # listed in mask order comes nearly sorted
    magnitudes = dict.fromkeys([(0, 1), (1, 1)])
    magnitudes.update(dict.fromkeys((abs(num), den) for num, den in readings.values()))
    ordered = sorted(magnitudes, key=_BY_RATIO)
    rank = {pair: i for i, pair in enumerate(ordered)}
    grades = {
        x: -rank[-p, q] if p < 0 else rank[p, q] for x, (p, q) in readings.items()
    }
    # levels_scale(K, labels), but the labels, distinct magnitudes formatted
    # just now, are not checked again
    scale = object.__new__(SymmetricScale)
    labels = tuple(_format_fraction(*pair) for pair in ordered)
    scale._fill(LEVELS, len(labels) - 1, labels)
    return scale, grades, tuple(ordered)


def _tables(
    n: int, scale: SymmetricScale, grades: Mapping, table: Sequence, scores: Sequence
) -> tuple[Capacity, Profile]:
    """The capacity, validated here, and the profile on ``scale`` of the
    grades that ``grades`` gives the keys in ``table`` and ``scores``."""
    values = dict(zip(grades, map(scale.value, grades.values()))).__getitem__
    v = _trusted(Capacity, n=n, scale=scale, table=tuple(map(values, table)))
    _check_capacity(n, scale, v.table)
    return v, _trusted(Profile, scale=scale, scores=tuple(map(values, scores)))


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
    scores = document["profile"]
    if not isinstance(scores, list) or not scores:
        raise ParseError("'profile' must be a non-empty list of scale values")
    # the reading of each distinct value, the empty set's default 0 first
    readings = {0: _reading(scale, 0)}
    _read_values(scale, readings, "profile", range(len(scores)), scores)
    n = len(scores)
    _check_players(n)  # past the ceiling no capacity could match
    players = _parse_players(document.get("players"), n)
    if not isinstance(document["capacity"], dict):
        raise ParseError("'capacity' must map subset strings to scale values")
    read = partial(_read_values, scale, readings, "capacity")
    table = _read_subset_table(n, 0, document["capacity"], read, ParseError)
    if scale.kind == UNIT:
        ranked, grades, magnitudes = _rank(readings)
    else:
        ranked, grades, magnitudes = scale, readings, ()
    v, f = _tables(n, ranked, grades, table, scores)
    options = _parse_options(document.get("options"))
    if not magnitudes:
        return Problem(scale, players, v, f, options)
    unit = {"_ranked": (v, f), "_magnitudes": magnitudes}
    return _trusted(Problem, scale=scale, players=players, options=options, **unit)


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


# the types a document value may have, and why two others are refused
_READABLE = {str, int}
_REFUSED = {
    bool: "booleans are not scale values",
    float: "binary floats are not exact; write the value as a string",
}


def _read_values(
    scale: SymmetricScale, readings: dict, place: str, names: Sequence, raws: Sequence
) -> Sequence:
    """Read each distinct value of ``raws`` missing from ``readings`` into
    it once, in first-seen order, by :func:`_reading`; return ``raws``.
    Errors name value i ``place[names[i]]``.  A value neither text nor int
    raises its own error after those of the values before it: a bool or a
    float equals an int (True == 1, 1.0 == 1), so none is ever a key."""
    if not set(map(type, raws)) <= _READABLE:
        first = next(i for i, raw in enumerate(raws) if type(raw) not in _READABLE)
        _read_values(scale, readings, place, names, raws[:first])
        kind = type(raws[first])
        why = _REFUSED.get(kind, f"expected a string or integer, got {kind.__name__}")
        raise ParseError(f"{place}[{names[first]!r}]: {why}")
    for raw in dict.fromkeys(raws):
        if raw not in readings:
            try:
                readings[raw] = _reading(scale, raw)
            except OffScaleError:
                raise
            except ScaleError as exc:
                name = names[raws.index(raw)]
                raise ParseError(f"{place}[{name!r}]: {exc}") from exc
    return raws


def _reading(scale: SymmetricScale, raw: str | int) -> tuple[int, int] | int:
    """Document text or an int as its reduced signed (numerator,
    denominator) pair on the unit scale, as its grade on a levels scale."""
    if scale.kind != UNIT:
        return (scale.parse(raw) if type(raw) is str else scale.value(raw)).signed
    num, den = _unit_ratio(raw.strip()) if type(raw) is str else (raw, 1)
    if abs(num) > den:
        scale.value(Fraction(num, den))  # raises the library's OffScaleError
    return num, den


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
        texts[grade] = scale._text(grade)
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
