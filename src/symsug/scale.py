"""Symmetric linearly ordered scales and the signed max/min algebra.

A scale here is a finite or rational positive chain mirrored around a single
zero: every positive element ``a`` has an opposite ``-a``, and ``-0 == 0``.
Values are totally ordered, carry exact magnitudes (ints for discrete level
scales, ``Fraction`` for the rational unit scale), and support the symmetric
maximum and minimum, the signed extensions of lattice max/min.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

Number = Union[int, Fraction]

LEVELS = "levels"
UNIT = "unit"

# bounds on unit-scale text; formatting a value is quadratic in its digits
MAX_UNIT_TEXT = 1000  # characters, surrounding whitespace stripped
MAX_UNIT_EXPONENT = 1000  # magnitude of a decimal exponent
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


class ScaleError(ValueError):
    """Raised for off-scale values, bad labels, or mixed-scale operations."""


class OffScaleError(ScaleError):
    """A syntactically fine number that lies outside its scale's range."""


@dataclass(frozen=True)
class SymmetricScale:
    """A positive chain plus mirrored negative copies of its elements.

    Two kinds exist: ``levels`` (discrete grades 0..K, optionally labelled)
    and ``unit`` (exact rationals in [0, 1]).  Labels are presentation only;
    they do not take part in equality or compatibility.
    """

    kind: str
    levels: int | None = None
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in (LEVELS, UNIT):
            raise ScaleError(f"unknown scale kind: {self.kind!r}")
        if self.kind == LEVELS:
            if not isinstance(self.levels, int) or self.levels < 1:
                raise ScaleError("levels scale needs a positive grade count")
            if self.labels is not None:
                labels = tuple(self.labels)
                object.__setattr__(self, "labels", labels)
                if len(labels) != self.levels + 1:
                    raise ScaleError(
                        f"expected {self.levels + 1} labels, got {len(labels)}"
                    )
                if len(set(labels)) != len(labels):
                    raise ScaleError("labels must be distinct")
                for text in labels:
                    # a leading minus would collide with negative values,
                    # and parse strips surrounding whitespace
                    if not text or text.startswith("-") or text != text.strip():
                        raise ScaleError(f"bad label: {text!r}")
        else:
            if self.levels is not None or self.labels is not None:
                raise ScaleError("unit scale takes no grade count or labels")
        # value cache and top of the positive side: not fields, so eq/hash skip them
        object.__setattr__(self, "_cache", {})
        object.__setattr__(
            self, "_top", self.levels if self.kind == LEVELS else Fraction(1)
        )

    # -- canonical elements -------------------------------------------------

    @property
    def zero(self) -> ScaleValue:
        return self.value(0)

    @property
    def one(self) -> ScaleValue:
        """Top of the positive side."""
        return self.value(self._top)

    @property
    def minus_one(self) -> ScaleValue:
        return self.value(-self._top)

    def value(self, raw: Number) -> ScaleValue:
        """Wrap a signed exact number as a value on this scale.  Level
        grades are interned, so repeated wraps return the same object."""
        if self.kind == LEVELS and type(raw) is int:
            cache: dict = self._cache
            wrapped = cache.get(raw)
            if wrapped is None:
                wrapped = cache[raw] = ScaleValue(self, raw)
            return wrapped
        return ScaleValue(self, raw)

    # -- the order-reversing negation on the positive side ------------------

    def negate(self, a: ScaleValue) -> ScaleValue:
        """The decreasing involution of the positive side: grade i -> K - i
        on a levels scale, x -> 1 - x on the unit scale.  Only defined for
        nonnegative values."""
        check_scale(self, (a,))
        if a.sign < 0:
            raise ScaleError("negation is defined on the nonnegative side only")
        return self.value(self._top - a.signed)

    # -- enumeration (levels scales only) ------------------------------------

    def nonnegative_values(self) -> Iterator[ScaleValue]:
        if self.kind != LEVELS:
            raise ScaleError("only a levels scale is enumerable")
        return (self.value(i) for i in range(self.levels + 1))

    def signed_values(self) -> Iterator[ScaleValue]:
        if self.kind != LEVELS:
            raise ScaleError("only a levels scale is enumerable")
        return (self.value(i) for i in range(-self.levels, self.levels + 1))

    # -- text format ---------------------------------------------------------

    def format(self, a: ScaleValue) -> str:
        check_scale(self, (a,))
        if self.kind == UNIT:
            return _format_fraction(a.signed)
        if self.labels is None:
            return str(a.signed)
        text = self.labels[abs(a.signed)]
        return "-" + text if a.sign < 0 else text

    def parse(self, text: str) -> ScaleValue:
        """Inverse of :meth:`format`; accepts any exact decimal or p/q string
        on the unit scale, and (possibly minus-prefixed) labels on a levels
        scale."""
        if not isinstance(text, str):
            raise ScaleError(f"expected a string value, got {type(text).__name__}")
        text = text.strip()
        if self.kind == UNIT:
            exponent = _EXPONENT.search(text)
            if len(text) > MAX_UNIT_TEXT or (
                exponent and abs(int(exponent[1])) > MAX_UNIT_EXPONENT
            ):
                raise ScaleError(
                    f"bad unit-scale value: over {MAX_UNIT_TEXT} characters"
                    f" or an exponent beyond {MAX_UNIT_EXPONENT}"
                )
            try:
                return self.value(Fraction(text))
            except OffScaleError:
                # well-formed but out of range: a validation error, not a
                # syntax error
                raise
            except (ValueError, ZeroDivisionError) as exc:
                raise ScaleError(f"bad unit-scale value: {text!r}") from exc
        negative = text.startswith("-")
        grade = self._grade(text[1:] if negative else text)
        if grade is None:
            raise ScaleError(f"unknown level label: {text!r}")
        return self.value(-grade if negative else grade)

    def _grade(self, label: str) -> int | None:
        """The grade a label names: its position among the labels, or on an
        unlabelled scale the grade written as a canonical ASCII decimal."""
        if self.labels is not None:
            return self.labels.index(label) if label in self.labels else None
        if not (label.isascii() and label.isdigit()):
            return None
        if len(label) > len(str(self.levels)):
            # above K or not canonical; also keeps int() under its digit limit
            return None
        grade = int(label)
        return grade if grade <= self.levels and str(grade) == label else None


def unit_scale() -> SymmetricScale:
    return SymmetricScale(UNIT)


def levels_scale(k: int, labels: tuple[str, ...] | None = None) -> SymmetricScale:
    return SymmetricScale(LEVELS, k, labels)


@dataclass(frozen=True)
class ScaleValue:
    """One element of a symmetric scale, stored as a signed exact number.

    The numeric representation makes the scale's order the numeric order and
    collapses -0 to 0 with no normalization step.
    """

    scale: SymmetricScale
    signed: Number

    def __post_init__(self) -> None:
        if self.scale.kind == LEVELS:
            if not isinstance(self.signed, int) or isinstance(self.signed, bool):
                raise ScaleError("levels scale values are integer grades")
        else:
            if isinstance(self.signed, float):
                raise ScaleError("binary floats are not exact; use Fraction")
            if isinstance(self.signed, bool) or not isinstance(
                self.signed, (int, Fraction)
            ):
                raise ScaleError(
                    f"bad unit-scale value: {type(self.signed).__name__}"
                )
            object.__setattr__(self, "signed", Fraction(self.signed))
        if abs(self.signed) > self.scale._top:
            raise OffScaleError(f"value {self.signed} lies outside the scale")

    # -- structure -----------------------------------------------------------

    @property
    def sign(self) -> int:
        """-1, 0 or +1 as a plain int."""
        return (self.signed > 0) - (self.signed < 0)

    @property
    def magnitude(self) -> Number:
        return abs(self.signed)

    def __neg__(self) -> ScaleValue:
        return self.scale.value(-self.signed)

    def __abs__(self) -> ScaleValue:
        if self.signed >= 0:
            return self
        return self.scale.value(-self.signed)

    # -- total order ---------------------------------------------------------

    def _comparable(self, other: ScaleValue) -> ScaleValue:
        if not isinstance(other, ScaleValue):
            raise TypeError(f"cannot compare ScaleValue with {type(other).__name__}")
        if self.scale is not other.scale:
            check_scale(self.scale, (other,))
        return other

    def __lt__(self, other: ScaleValue) -> bool:
        return self.signed < self._comparable(other).signed

    def __le__(self, other: ScaleValue) -> bool:
        return self.signed <= self._comparable(other).signed

    def __gt__(self, other: ScaleValue) -> bool:
        return self.signed > self._comparable(other).signed

    def __ge__(self, other: ScaleValue) -> bool:
        return self.signed >= self._comparable(other).signed

    def __str__(self) -> str:
        return self.scale.format(self)


def check_scale(scale: SymmetricScale, values: Iterable[ScaleValue]) -> None:
    """Raise ScaleError unless each of ``values`` is a ScaleValue on ``scale``."""
    for a in values:
        if not isinstance(a, ScaleValue) or (a.scale is not scale and a.scale != scale):
            raise ScaleError("value belongs to a different scale")


def _scale_of(values: Sequence[ScaleValue]) -> SymmetricScale:
    """The scale of a non-empty sequence of values, checked to be shared
    by all of them; a raw number raises ScaleError."""
    scale = getattr(values[0], "scale", None)
    check_scale(scale, values)
    return scale


def sym_max(a: ScaleValue, b: ScaleValue) -> ScaleValue:
    """Symmetric maximum: 0 if the operands are opposites, otherwise the
    absolutely larger operand (the one whose magnitude is max(|a|, |b|)),
    keeping its sign.  Coincides with lattice max when both operands are
    nonnegative."""
    try:
        mixed = b.scale is not a.scale
    except AttributeError:  # a raw number
        mixed = True
    if mixed:
        _scale_of((a, b))
    x, y = a.signed, b.signed
    if x == -y:
        return a.scale.zero
    return a if abs(x) > abs(y) else b


def sym_min(a: ScaleValue, b: ScaleValue) -> ScaleValue:
    """Symmetric minimum: magnitude min(|a|, |b|), negative exactly when the
    operand signs differ.  Coincides with lattice min when both operands are
    nonnegative."""
    try:
        mixed = b.scale is not a.scale
    except AttributeError:  # a raw number
        mixed = True
    if mixed:
        _scale_of((a, b))
    x, y = a.signed, b.signed
    mag = min(abs(x), abs(y))
    if (x > 0 and y < 0) or (x < 0 and y > 0):
        mag = -mag
    if x == mag:
        return a
    if y == mag:
        return b
    return a.scale.value(mag)


def _format_fraction(q: Fraction) -> str:
    """Render exactly: a terminating decimal when the denominator is
    2^a * 5^b, the p/q form otherwise.  Integers print through ``Decimal``,
    which is exact and, unlike ``str(int)``, has no digit limit."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    den = q.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{sign}{Decimal(q.numerator)}/{Decimal(q.denominator)}"
    places = max(twos, fives)
    if places == 0:
        return f"{sign}{Decimal(q.numerator)}"
    digits = str(Decimal(q.numerator * 10**places // q.denominator)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"

