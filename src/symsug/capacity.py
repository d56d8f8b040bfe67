"""Set functions and capacities on a finite player set.

Players are numbered 1..n and subsets are bitmasks (player i is bit i - 1),
so a set function is a dense table of length 2**n.  Capacities are the
monotone set functions normalized to 0 at the empty set and 1 at the grand
coalition; they take values on the nonnegative side of a symmetric scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, Union

from .scale import ScaleError, ScaleValue, SymmetricScale, _scale_of, check_scale, sym_max

MAX_PLAYERS = 24  # dense tables; 2**24 entries is the supported ceiling

RawValue = Union[ScaleValue, int, Fraction, str]


class CapacityError(ValueError):
    """Raised when a table violates the capacity axioms."""


# -- subsets as bitmasks -----------------------------------------------------


def full_set(n: int) -> int:
    return (1 << n) - 1


def subsets(n: int) -> range:
    """All subsets of {1..n} in mask order."""
    return range(1 << n)


def subset_members(mask: int) -> tuple[int, ...]:
    members = []
    i = 1
    while mask:
        if mask & 1:
            members.append(i)
        mask >>= 1
        i += 1
    return tuple(members)


def mask_of(members: Iterable[int], n: int) -> int:
    mask = 0
    for i in members:
        if not isinstance(i, int) or not 1 <= i <= n:
            raise ValueError(f"player {i!r} is not in 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def subset_text(mask: int) -> str:
    """Render a mask as ``{}`` or ``{1,3}`` with ascending player ids."""
    return "{" + ",".join(str(i) for i in subset_members(mask)) + "}"


def parse_subset_text(text: str, n: int) -> int:
    body = text.strip() if isinstance(text, str) else ""
    if not body.startswith("{") or not body.endswith("}"):
        raise ValueError(f"bad subset: {text!r}")
    body = body[1:-1].strip()
    if not body:
        return 0
    members = []
    for part in body.split(","):
        part = part.strip()
        if not part.isdigit():
            raise ValueError(f"bad subset member {part!r} in {text!r}")
        members.append(int(part))
    if any(i < 1 or i > n for i in members):
        raise ValueError(f"subset {text!r} has members outside 1..{n}")
    if len(set(members)) != len(members):
        raise ValueError(f"subset {text!r} repeats a member")
    return mask_of(members, n)


def iter_submasks(mask: int) -> Iterator[int]:
    """Every subset of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def covers_of(mask: int) -> Iterator[int]:
    """The sets obtained from ``mask`` by dropping one member."""
    rest = mask
    while rest:
        bit = rest & -rest
        yield mask ^ bit
        rest ^= bit


# -- set functions -----------------------------------------------------------


@dataclass(frozen=True)
class SetFunction:
    """A dense table over all subsets of {1..n}, valued on one scale."""

    n: int
    scale: SymmetricScale
    table: tuple[ScaleValue, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _dense_table(self.n, self.table))
        check_scale(self.scale, self.table)

    @classmethod
    def from_values(
        cls,
        n: int,
        scale: SymmetricScale,
        values: Mapping[str, RawValue] | Sequence[RawValue],
    ) -> "SetFunction":
        """Build from a full sequence in mask order, or from a mapping keyed
        by subset strings such as ``"{1,3}"`` only.  The empty set defaults to
        0; any other missing subset is an error naming at most four of them."""
        return cls(n, scale, _coerce_table(n, scale, values))

    def __call__(self, mask: int) -> ScaleValue:
        return self.table[mask]

    @property
    def is_nonnegative(self) -> bool:
        return all(v.sign >= 0 for v in self.table)

    def pointwise_sym_max(self, other: "SetFunction") -> "SetFunction":
        _check_pair(self, other)
        table = tuple(sym_max(a, b) for a, b in zip(self.table, other.table))
        return SetFunction(self.n, self.scale, table)


def _coerce_value(scale: SymmetricScale, raw: RawValue) -> ScaleValue:
    if isinstance(raw, ScaleValue):
        check_scale(scale, (raw,))
        return raw
    if isinstance(raw, str):
        return scale.parse(raw)
    return scale.value(raw)


def _coerce_table(
    n: int,
    scale: SymmetricScale,
    values: Mapping[str, RawValue] | Sequence[RawValue],
) -> tuple[ScaleValue, ...]:
    if isinstance(values, Mapping):
        return _read_subset_table(
            n, scale, values, lambda key, raw: _coerce_value(scale, raw)
        )
    return tuple(_coerce_value(scale, raw) for raw in values)


def _read_subset_table(
    n: int,
    scale: SymmetricScale,
    entries: Mapping[str, Any],
    coerce: Callable[[str, Any], ScaleValue],
    error: type[ValueError] = ValueError,
) -> tuple[ScaleValue, ...]:
    """The dense table of a mapping from subset strings to values, each
    coerced by ``coerce(key, value)``; the empty set defaults to 0.  Bad,
    repeated or missing keys raise ``error``, naming at most four missing."""
    _check_players(n)
    table: dict[int, ScaleValue] = {}
    for key, raw in entries.items():
        try:
            mask = parse_subset_text(key, n)
        except ValueError as exc:
            raise error(f"capacity key {key!r}: {exc}") from exc
        if mask in table:
            raise error(f"capacity repeats the subset {subset_text(mask)}")
        table[mask] = coerce(key, raw)
    missing = list(islice((m for m in range(1, 1 << n) if m not in table), 5))
    if missing:
        shown = ", ".join(subset_text(mask) for mask in missing[:4])
        if len(missing) > 4:
            shown += ", ..."
        raise error(f"capacity is missing {shown}")
    if 0 not in table:
        table[0] = scale.zero
    return tuple(table[mask] for mask in subsets(n))


def _check_players(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_PLAYERS:
        raise ValueError(f"player count must be in 1..{MAX_PLAYERS}")


def _dense_table(n: int, table: Iterable) -> tuple:
    """``table`` as a tuple, checked to hold one entry per subset of {1..n}."""
    _check_players(n)
    table = tuple(table)
    if len(table) != 1 << n:
        raise ValueError(f"table has {len(table)} entries, expected {1 << n}")
    return table


def _check_pair(a: Any, b: Any) -> None:
    """Raise unless two tables or profiles have the same players and scale."""
    if a.n != b.n:
        raise ValueError(f"player counts differ: {a.n} and {b.n}")
    if a.scale != b.scale:
        raise ScaleError("value belongs to a different scale")


# -- capacities --------------------------------------------------------------


@dataclass(frozen=True)
class Capacity(SetFunction):
    """A normalized monotone set function valued in the nonnegative side."""

    def __post_init__(self) -> None:
        super().__post_init__()
        problems = capacity_problems(self.n, self.scale, self.table)
        if problems:
            raise CapacityError("; ".join(problems))

    @classmethod
    def from_values(
        cls,
        n: int,
        scale: SymmetricScale,
        values: Mapping[str, RawValue] | Sequence[RawValue],
    ) -> "Capacity":
        return cls(n, scale, _coerce_table(n, scale, values))


def capacity_problems(
    n: int, scale: SymmetricScale, table: Sequence[ScaleValue]
) -> list[str]:
    """Every axiom violation in the table, as human-readable strings:
    negativity, bad boundary values, and each non-monotone cover edge."""
    problems = []
    for mask, entry in enumerate(table):
        if entry.sign < 0:
            problems.append(f"v({subset_text(mask)}) = {entry} is negative")
    if table[0] != scale.zero:
        problems.append(f"v({{}}) = {table[0]}, expected {scale.zero}")
    top = full_set(n)
    if table[top] != scale.one:
        problems.append(f"v({subset_text(top)}) = {table[top]}, expected {scale.one}")
    for mask in range(1, len(table)):
        for below in covers_of(mask):
            if table[below] > table[mask]:
                problems.append(
                    f"v({subset_text(below)}) = {table[below]} exceeds "
                    f"v({subset_text(mask)}) = {table[mask]}"
                )
    return problems


def conjugate(v: Capacity) -> Capacity:
    """The conjugate capacity A -> n(v(complement of A))."""
    top = full_set(v.n)
    table = tuple(v.scale.negate(v(top ^ mask)) for mask in subsets(v.n))
    return Capacity(v.n, v.scale, table)


def unanimity(n: int, b_mask: int, scale: SymmetricScale) -> Capacity:
    """The game that is 1 exactly on the nonempty supersets of ``b_mask``.
    For the empty ``b_mask`` this is 1 on every nonempty subset."""
    if not 0 <= b_mask < (1 << n):
        raise ValueError("focal set outside the player set")
    table = tuple(
        scale.one if mask and mask & b_mask == b_mask else scale.zero
        for mask in subsets(n)
    )
    return Capacity(n, scale, table)


def possibility_measure(pi: Sequence[ScaleValue]) -> Capacity:
    """The maxitive capacity A -> max of ``pi`` over A, for a distribution
    ``pi`` on players with max value 1."""
    if not pi:
        raise CapacityError("empty distribution")
    scale = _scale_of(pi)
    for p in pi:
        if p.sign < 0:
            raise CapacityError(f"distribution value {p} is negative")
    if max(pi) != scale.one:
        raise CapacityError("distribution must reach 1 on some player")
    n = len(pi)
    table = []
    for mask in subsets(n):
        members = subset_members(mask)
        table.append(max((pi[i - 1] for i in members), default=scale.zero))
    return Capacity(n, scale, tuple(table))


def necessity_measure(pi: Sequence[ScaleValue]) -> Capacity:
    """The conjugate of :func:`possibility_measure` for the same
    distribution: A -> n(max of ``pi`` outside A)."""
    return conjugate(possibility_measure(pi))


def is_maxitive(v: SetFunction) -> bool:
    """True when v(A or B) = max(v(A), v(B)) for all pairs of subsets."""
    for a in subsets(v.n):
        for b in range(a, 1 << v.n):
            if v(a | b) != max(v(a), v(b)):
                return False
    return True


def is_k_maxitive(v: "Capacity", k: int) -> bool:
    """True when the lower interval bound of the ordinal Moebius transform
    vanishes on every subset with more than ``k`` members."""
    if k < 1:
        raise ValueError("k must be at least 1")
    from . import mobius  # deferred; mobius builds on this module

    lower = mobius.ordinal_mobius_interval(v).lower
    return all(
        lower(mask) == v.scale.zero
        for mask in subsets(v.n)
        if mask.bit_count() > k
    )
