"""Symmetric linearly ordered scales and the signed max/min algebra.

A scale here is a finite or rational positive chain mirrored around a single
zero: every positive element ``a`` has an opposite ``-a``, and ``-0 == 0``.
Values are totally ordered, carry exact magnitudes (ints for discrete level
scales, ``Fraction`` for the rational unit scale), and support the symmetric
maximum and minimum, the signed extensions of lattice max/min.

The algebra is written once, on signed numbers, in :func:`_sym_max_signed`
and :func:`_clip` (the symmetric minimum with a nonnegative operand); both
:func:`sym_max`, :func:`sym_min` and the other modules' kernels call them.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from decimal import Decimal
from fractions import Fraction
from math import gcd

Number = int | Fraction

LEVELS = "levels"
UNIT = "unit"

# bounds on unit-scale text; formatting a value is quadratic in its digits
MAX_UNIT_TEXT = 1000  # characters, surrounding whitespace stripped
MAX_UNIT_EXPONENT = 1000  # magnitude of a decimal exponent
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")
# a plain ASCII spelling, read on ints: -D, -D.D or -D/D, each D a run of
# at most 40 digits, so such text is far inside MAX_UNIT_TEXT
_PLAIN = re.compile(r"(-?)([0-9]{1,40})(?:([./])([0-9]{1,40}))?")
# SymmetricScale and ScaleValue, read in every kernel, set their fields with
# this: unlike a write to ``__dict__``, it keeps them in the instance's
# inline values, which read faster.  The other records and _trusted update
# ``__dict__`` once: they are read a few times per call, and writing them
# with this made no whole compute or verify op 1% faster
_set = object.__setattr__


class ScaleError(ValueError):
    """Raised for off-scale values, bad labels, or mixed-scale operations."""


class OffScaleError(ScaleError):
    """A syntactically fine number that lies outside its scale's range."""


class _Record:
    """An immutable record.  Its fields are the parameters of its class's
    ``__init__``, which checks and normalises them and then writes each
    once.  Only ``ScaleValue`` and ``SetFunction`` move their checks to a
    ``__post_init__``, since perfbench/tracing.py wraps those by name, and
    ``Capacity`` extends its parent's.  Records hash and compare on
    ``_compared``, by default every field, and never equal one of another
    class, a subclass included."""

    _compared: tuple[str, ...] | None = None

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared or self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({', '.join(shown)})"


class SymmetricScale(_Record):
    """A positive chain plus mirrored negative copies of its elements.

    Two kinds exist: ``levels`` (discrete grades 0..K, optionally labelled)
    and ``unit`` (exact rationals in [0, 1]).  Labels are presentation only;
    they do not take part in equality or compatibility.
    """

    _compared = ("kind", "levels")

    def __init__(
        self,
        kind: str,
        levels: int | None = None,
        labels: tuple[str, ...] | None = None,
    ) -> None:
        if kind not in (LEVELS, UNIT):
            raise ScaleError(f"unknown scale kind: {kind!r}")
        if kind == LEVELS:
            if type(levels) is not int or levels < 1:
                raise ScaleError("levels scale needs a positive grade count")
            if labels is not None:
                if isinstance(labels, str):
                    # tuple() would split it into one label per character
                    raise ScaleError(
                        "labels must be a sequence of strings, not a string"
                    )
                labels = tuple(labels)
                if len(labels) != levels + 1:
                    raise ScaleError(f"expected {levels + 1} labels, got {len(labels)}")
                for text in labels:
                    # a leading minus would collide with negative values,
                    # and parse strips surrounding whitespace
                    fine = isinstance(text, str) and text == text.strip()
                    if not fine or text[:1] in ("", "-"):
                        raise ScaleError(f"bad label: {text!r}")
                if len(set(labels)) != len(labels):
                    raise ScaleError("labels must be distinct")
        elif levels is not None or labels is not None:
            raise ScaleError("unit scale takes no grade count or labels")
        self._fill(kind, levels, labels)

    def _fill(self, kind: str, levels: int | None, labels: tuple | None) -> None:
        _set(self, "kind", kind)
        _set(self, "levels", levels)
        _set(self, "labels", labels)
        # value cache, top of the positive side, and the constants built
        # once: not fields, so eq/hash skip them
        _set(self, "_cache", {})
        _set(self, "_top", levels if kind == LEVELS else Fraction(1))
        _set(self, "_zero", self.value(0))
        _set(self, "_one", self.value(self._top))

    # -- canonical elements -------------------------------------------------

    @property
    def zero(self) -> ScaleValue:
        return self._zero

    @property
    def one(self) -> ScaleValue:
        """Top of the positive side."""
        return self._one

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
        return self._text(a.signed)

    def _text(self, signed: Number) -> str:
        """:meth:`format` of the value on this scale of the number ``signed``."""
        if self.kind == UNIT:
            return _format_fraction(*signed.as_integer_ratio())
        if self.labels is None:
            return str(signed)
        text = self.labels[abs(signed)]
        return "-" + text if signed < 0 else text

    def parse(self, text: str) -> ScaleValue:
        """Inverse of :meth:`format`; accepts any exact decimal or p/q string
        on the unit scale, and (possibly minus-prefixed) labels on a levels
        scale."""
        if not isinstance(text, str):
            raise ScaleError(f"expected a string value, got {type(text).__name__}")
        text = text.strip()
        if self.kind == UNIT:
            # well-formed but out of range raises OffScaleError, a
            # validation error rather than a syntax error
            return self.value(Fraction(*_unit_ratio(text)))
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
    """The unit scale: one shared object, built once at import, since
    every unit scale is equal and holds no per-caller state."""
    return _UNIT_SCALE


def levels_scale(k: int, labels: tuple[str, ...] | None = None) -> SymmetricScale:
    return SymmetricScale(LEVELS, k, labels)


class ScaleValue(_Record):
    """One element of a symmetric scale, stored as a signed exact number.

    The numeric representation makes the scale's order the numeric order and
    collapses -0 to 0 with no normalization step.
    """

    def __init__(self, scale: SymmetricScale, signed: Number) -> None:
        _set(self, "scale", scale)
        _set(self, "signed", signed)
        self.__post_init__()

    def __post_init__(self) -> None:
        # an exact int grade or Fraction, the common case, skips the type
        # checks and the conversion, which would keep it as it is
        scale, signed = self.scale, self.signed
        if scale.kind == LEVELS:
            if type(signed) is not int and (
                not isinstance(signed, int) or isinstance(signed, bool)
            ):
                raise ScaleError("levels scale values are integer grades")
            outside = abs(signed) > scale._top
        else:
            if type(signed) is not Fraction:
                if not isinstance(signed, (int, Fraction, float)):
                    raise ScaleError(f"bad unit-scale value: {type(signed).__name__}")
                signed = _exact(signed)
                _set(self, "signed", signed)
            # |num / den| <= 1 on the integers of the reduced ratio
            num, den = signed.as_integer_ratio()
            outside = abs(num) > den
        if outside:
            raise OffScaleError(f"value {signed} lies outside the scale")

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

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.scale, self.signed) == (other.scale, other.signed)

    def __hash__(self) -> int:
        return hash((self.scale, self.signed))

    def __str__(self) -> str:
        return self.scale.format(self)


def _check_unit_text(text: str) -> None:
    """Raise ScaleError for unit-scale text past the bounds on its length
    and on its decimal exponent, before ``Fraction`` reads it."""
    text = text.strip()
    exponent = _EXPONENT.search(text)
    if len(text) > MAX_UNIT_TEXT or (
        exponent and abs(int(exponent[1])) > MAX_UNIT_EXPONENT
    ):
        raise ScaleError(
            f"bad unit-scale value: over {MAX_UNIT_TEXT} characters"
            f" or an exponent beyond {MAX_UNIT_EXPONENT}"
        )


def _unit_ratio(text: str) -> tuple[int, int]:
    """Unit-scale text as the reduced (numerator, denominator) pair of its
    value, the denominator positive.  A plain ASCII spelling (``_PLAIN``)
    with a nonzero denominator is read on ints; any other text is bounded
    by :func:`_check_unit_text` and read by ``Fraction``, the reference the
    plain reading agrees with, and text it cannot read raises ScaleError
    naming the text."""
    plain = _PLAIN.fullmatch(text)
    if plain is not None:
        sign, whole, mark, part = plain.groups("")
        if mark == "/":
            num, den = int(whole), int(part)
        else:
            num, den = int(whole + part), 10 ** len(part)
        if den:
            common = gcd(num, den)
            return (-num if sign else num) // common, den // common
    _check_unit_text(text)
    try:
        return Fraction(text).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        raise ScaleError(f"bad unit-scale value: {text!r}") from exc


def _exact(x) -> Fraction:
    """``x`` as a Fraction; a bool raises ScaleError, being no number, and
    so does a binary float, since its value is almost never the decimal it
    was written as.  Text is read by :func:`_unit_ratio`, as
    :meth:`SymmetricScale.parse` reads unit-scale text.  Anything else
    ``Fraction`` cannot read raises ScaleError too, naming the type."""
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        return Fraction(*_unit_ratio(x))
    if isinstance(x, bool):
        raise ScaleError("bad unit-scale value: bool")
    if isinstance(x, float):
        raise ScaleError("binary floats are not exact; use Fraction")
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ScaleError(f"bad unit-scale value: {type(x).__name__}") from exc


def _trusted(cls: type, **fields: object) -> object:
    """A ``cls`` built from ``fields`` with no checks, for fields known to
    pass them, such as a table taken from a checked object."""
    built = object.__new__(cls)
    built.__dict__.update(fields)
    return built


_UNIT_SCALE = SymmetricScale(UNIT)


def check_scale(
    scale: SymmetricScale | None, values: Iterable[ScaleValue]
) -> SymmetricScale:
    """Raise ScaleError unless each of ``values`` is a ScaleValue on
    ``scale``, and return ``scale``.  Given None, the scale is the first
    value's, so ``values`` must then be a non-empty sequence."""
    if scale is None:
        if not values:
            raise ScaleError("empty fold needs an explicit scale")
        scale = getattr(values[0], "scale", None)
    for a in values:
        if not isinstance(a, ScaleValue) or (a.scale is not scale and a.scale != scale):
            raise ScaleError("value belongs to a different scale")
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
        check_scale(None, (a, b))
    signed = _sym_max_signed(a.signed, b.signed)
    # 0 only for opposites; otherwise the winner, b on a tie of equals
    return a.scale.zero if signed == 0 else b if signed == b.signed else a


def sym_min(a: ScaleValue, b: ScaleValue) -> ScaleValue:
    """Symmetric minimum: magnitude min(|a|, |b|), negative exactly when the
    operand signs differ.  Coincides with lattice min when both operands are
    nonnegative."""
    try:
        mixed = b.scale is not a.scale
    except AttributeError:  # a raw number
        mixed = True
    if mixed:
        check_scale(None, (a, b))
    x, y = a.signed, b.signed
    # reflecting one operand reflects the result
    signed = _clip(x, y) if y >= 0 else -_clip(x, -y)
    if x == signed:
        return a
    if y == signed:
        return b
    return a.scale.value(signed)


def _sym_max_signed(x: Number, y: Number) -> Number:
    """:func:`sym_max` on signed numbers: 0 for opposites, otherwise the
    operand of larger magnitude."""
    if x == -y:
        return 0
    return x if abs(x) > abs(y) else y


def _clip(x: Number, w: Number) -> Number:
    """:func:`sym_min` of a signed number and a nonnegative ``w``: ``x``
    clipped to [-w, w]."""
    return max(-w, min(x, w))


def _format_fraction(num: int, den: int) -> str:
    """Render num / den, in lowest terms with den > 0, exactly: a
    terminating decimal when the denominator is 2^a * 5^b, the p/q form
    otherwise.  Integers print through ``Decimal``, which is exact and,
    unlike ``str(int)``, has no digit limit."""
    sign = "-" if num < 0 else ""
    num = abs(num)
    twos = (den & -den).bit_length() - 1
    rest = den >> twos
    fives = 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{sign}{Decimal(num)!s}/{Decimal(den)!s}"
    places = max(twos, fives)
    if places == 0:
        return f"{sign}{Decimal(num)!s}"
    digits = str(Decimal(num * 10**places // den)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"

