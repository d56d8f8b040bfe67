"""Set functions and capacities on a finite player set.

Players are numbered 1..n and subsets are bitmasks (player i is bit i - 1),
so a set function is a dense table of length 2**n.  Capacities are the
monotone set functions normalized to 0 at the empty set and 1 at the grand
coalition; they take values on the nonnegative side of a symmetric scale.
Three kernels walk the subsets: :func:`fold_members` and :func:`zeta` fold
over every subset at once (a sequence over each subset's members, a table
over its subsets), and :func:`rank_sets` lists the chain of rank sets that
the one-pass integrals read along a ranking of the players.  Tables keyed
by subset strings are read by position when the keys come in mask order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat
from operator import eq, le

from .scale import ScaleError, ScaleValue, SymmetricScale, _Record, check_scale, sym_max

MAX_PLAYERS = 24  # dense tables; 2**24 entries is the supported ceiling

RawValue = ScaleValue | int | Fraction | str


class CapacityError(ValueError):
    """Raised when a table violates the capacity axioms."""


# -- subsets as bitmasks -----------------------------------------------------


def full_set(n: int) -> int:
    return (1 << n) - 1


def subsets(n: int) -> range:
    """All subsets of {1..n} in mask order."""
    return range(1 << n)


def _check_mask(mask: int, n: int | None = None) -> None:
    # a negative int has infinitely many one bits, so no walk would end
    if mask < 0:
        raise ValueError(f"subset mask {mask} is negative")
    if n is not None and mask >> n:
        raise ValueError(f"subset mask {mask} is outside 0..{(1 << n) - 1}")


def subset_members(mask: int) -> tuple[int, ...]:
    _check_mask(mask)
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
        if type(i) is not int or not 1 <= i <= n:
            raise ValueError(f"player {i!r} is not in 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def subset_text(mask: int) -> str:
    """Render a mask as ``{}`` or ``{1,3}`` with ascending player ids."""
    return "{" + ",".join(str(i) for i in subset_members(mask)) + "}"


@lru_cache(maxsize=1)
def _subset_keys(n: int) -> tuple[str, ...]:
    """The subset strings of {1..n} in mask order, built once per n: the
    masks with highest member i are {i} and the earlier nonempty masks
    with i added, written before their closing brace."""
    keys = ["{}"]
    for i in range(1, n + 1):
        keys.append(f"{{{i}}}")
        keys += map(str.replace, keys[1:-1], repeat("}"), repeat(f",{i}}}"))
    return tuple(keys)


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
        if not (part.isascii() and part.isdigit()):
            raise ValueError(f"bad subset member {part!r} in {text!r}")
        members.append(int(part))
    mask = 0
    for i in members:
        if not 1 <= i <= n:
            raise ValueError(f"subset {text!r} has members outside 1..{n}")
        mask |= 1 << (i - 1)
    if mask.bit_count() != len(members):
        raise ValueError(f"subset {text!r} repeats a member")
    return mask


def iter_submasks(mask: int) -> Iterator[int]:
    """Every subset of ``mask``, including 0 and ``mask`` itself; a
    negative mask raises ValueError when the walk starts."""
    _check_mask(mask)
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def covers_of(mask: int) -> Iterator[int]:
    """The sets obtained from ``mask`` by dropping one member; a negative
    mask raises ValueError when the walk starts."""
    _check_mask(mask)
    rest = mask
    while rest:
        bit = rest & -rest
        yield mask ^ bit
        rest ^= bit


def fold_members(values: Sequence, combine: Callable, empty: object) -> list:
    """The fold of ``values[i - 1]`` over the members i of each subset, in
    mask order with ``empty`` at 0, for an associative and commutative
    ``combine``; in O(2^n) in all.  The masks whose highest member is i
    follow the masks below them, so each player doubles the table: every
    entry so far, combined with its value."""
    table = [empty]
    for x in values:
        table += list(map(combine, table, repeat(x)))
    return table


def zeta(table: Sequence, combine: Callable) -> list:
    """The fold of ``table`` over the subsets of each mask, in O(n 2^n): in
    one pass per player, over its :func:`_slice_pairs`, each mask holding it
    combines its entry with that of the mask without it.  A difference
    undoes a sum (Moebius inversion)."""
    table = list(table)
    for lo, hi in _slice_pairs(len(table)):
        table[hi] = map(combine, table[hi], table[lo])
    return table


@lru_cache(maxsize=None)
def _slice_pairs(size: int) -> tuple[tuple[slice, slice], ...]:
    """Slice pairs over a table of ``size`` = 2**n entries that match each
    mask without a player with the mask that adds it, for every player.
    For player bit b the masks without it come in blocks of b every 2b
    entries: the pairs are strided slices when b <= size / 2b and the
    contiguous blocks otherwise, whichever are fewer.  They are built
    once per size, since building them costs more than using them on the
    small tables the law suite checks by the thousand."""
    pairs = []
    bit = 1
    while bit < size:
        step = 2 * bit
        if bit * step <= size:
            pairs += (
                (slice(start, size, step), slice(start + bit, size, step))
                for start in range(bit)
            )
        else:
            pairs += (
                (slice(start, start + bit), slice(start + bit, start + step))
                for start in range(0, size, step)
            )
        bit = step
    return tuple(pairs)


def rank_sets(order: Sequence[int], p: int) -> list[int]:
    """The rank set of each position of a ranking of players 0..n-1
    (ascending, the ``p`` negative ones first): a position below ``p`` gets
    the players ranked at or below it, every later position the players
    ranked at or above it."""
    chain = []
    lower = 0
    for i in order[:p]:
        lower |= 1 << i
        chain.append(lower)
    upper = full_set(len(order)) ^ lower
    for i in order[p:]:
        chain.append(upper)
        upper ^= 1 << i
    return chain


# -- set functions -----------------------------------------------------------


class SetFunction(_Record):
    """A dense table over all subsets of {1..n}, valued on one scale."""

    def __init__(
        self, n: int, scale: SymmetricScale, table: tuple[ScaleValue, ...]
    ) -> None:
        self.__dict__.update(n=n, scale=scale, table=_dense_table(n, table))
        self.__post_init__()

    def __post_init__(self) -> None:
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
        coerce = lambda keys, raws: [_coerce_value(scale, raw) for raw in raws]
        return _read_subset_table(n, scale.zero, values, coerce)
    return tuple(_coerce_value(scale, raw) for raw in values)


def _read_subset_table(
    n: int,
    zero: object,
    entries: Mapping[str, object],
    coerce: Callable[[Sequence[str], Sequence], Sequence],
    error: type[ValueError] = ValueError,
) -> tuple:
    """The dense table of a mapping from subset strings to values, the
    entries coerced in the mapping's order by ``coerce(keys, values)``; the
    empty set defaults to ``zero``.  Bad, repeated or missing keys raise
    ``error``, naming at most four missing.

    When the keys are exactly the strings :func:`subset_text` writes, in
    mask order, with or without ``{}``, each key's mask is its position, no
    key is parsed and all entries are coerced at once; the count is checked
    first, so no key table is built for a mapping that cannot match.  Any
    other mapping is read key by key, and both ways raise the same errors
    in the same order."""
    _check_players(n)
    skipped = (1 << n) - len(entries)
    if skipped in (0, 1) and all(
        map(eq, entries, islice(_subset_keys(n), skipped, None))
    ):
        values = list(coerce(list(entries), list(entries.values())))
        if skipped:
            values.insert(0, zero)
        return tuple(values)
    table: dict[int, object] = {}
    for key, raw in entries.items():
        try:
            mask = parse_subset_text(key, n)
        except ValueError as exc:
            raise error(f"capacity key {key!r}: {exc}") from exc
        if mask in table:
            raise error(f"capacity repeats the subset {subset_text(mask)}")
        table[mask] = coerce((key,), (raw,))[0]
    missing = list(islice((m for m in range(1, 1 << n) if m not in table), 5))
    if missing:
        shown = ", ".join(subset_text(mask) for mask in missing[:4])
        if len(missing) > 4:
            shown += ", ..."
        raise error(f"capacity is missing {shown}")
    if 0 not in table:
        table[0] = zero
    return tuple(table[mask] for mask in subsets(n))


def _check_players(n: int) -> None:
    if type(n) is not int or not 1 <= n <= MAX_PLAYERS:
        raise ValueError(f"player count must be in 1..{MAX_PLAYERS}")


def _dense_table(n: int, table: Iterable) -> tuple:
    """``table`` as a tuple, checked to hold one entry per subset of {1..n}."""
    _check_players(n)
    table = tuple(table)
    if len(table) != 1 << n:
        raise ValueError(f"table has {len(table)} entries, expected {1 << n}")
    return table


def _check_pair(a: object, b: object) -> None:
    """Raise unless two tables or profiles have the same players and scale."""
    if a.n != b.n:
        raise ValueError(f"player counts differ: {a.n} and {b.n}")
    if a.scale != b.scale:
        raise ScaleError("value belongs to a different scale")


# -- capacities --------------------------------------------------------------


class Capacity(SetFunction):
    """A normalized monotone set function valued in the nonnegative side."""

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_capacity(self.n, self.scale, self.table)

    # the inherited classmethod, bound here as well, since
    # perfbench/tracing.py reads Capacity.__dict__["from_values"]
    from_values = vars(SetFunction)["from_values"]


def _check_capacity(
    n: int, scale: SymmetricScale, table: Sequence[ScaleValue]
) -> None:
    """Raise CapacityError, with every violation :func:`capacity_problems`
    lists, unless the dense table keeps the capacity axioms: 0 at the
    empty set, the top at the full set, and each mask without a player at
    most the mask with it, compared slice by slice on the signed values
    (every entry is then at least the empty set's 0).  Only a table that
    fails is walked again, for the messages."""
    signed = [x.signed for x in table]
    pairs = _slice_pairs(len(signed))
    if not (
        signed[0] == 0
        and signed[-1] == scale.one.signed
        and all(all(map(le, signed[lo], signed[hi])) for lo, hi in pairs)
    ):
        raise CapacityError("; ".join(capacity_problems(n, scale, table)))


def capacity_problems(
    n: int, scale: SymmetricScale, table: Sequence[ScaleValue]
) -> list[str]:
    """Every axiom violation in the table, as human-readable strings:
    negativity, bad boundary values, and each non-monotone cover edge.
    The entries are values on ``scale``, as :class:`SetFunction` checks."""
    signed = [entry.signed for entry in table]
    problems = []
    for mask, x in enumerate(signed):
        if x < 0:
            problems.append(f"v({subset_text(mask)}) = {table[mask]} is negative")
    if signed[0] != 0:
        problems.append(f"v({{}}) = {table[0]}, expected {scale.zero}")
    top = full_set(n)
    if signed[top] != scale.one.signed:
        problems.append(f"v({subset_text(top)}) = {table[top]}, expected {scale.one}")
    for mask, x in enumerate(signed):
        for cover in covers_of(mask):
            if signed[cover] > x:
                problems.append(
                    f"v({subset_text(cover)}) = {table[cover]} exceeds "
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
    _check_players(n)
    if type(b_mask) is not int or not 0 <= b_mask < (1 << n):
        raise ValueError("focal set outside the player set")
    table = tuple(
        scale.one if mask and mask & b_mask == b_mask else scale.zero
        for mask in subsets(n)
    )
    return Capacity(n, scale, table)


def _distribution_scale(pi: Sequence[ScaleValue]) -> SymmetricScale:
    """The scale of a distribution on players, which must not be empty;
    its player count is checked before any table is built."""
    if not pi:
        raise CapacityError("empty distribution")
    _check_players(len(pi))
    return check_scale(None, pi)


def possibility_measure(pi: Sequence[ScaleValue]) -> Capacity:
    """The maxitive capacity A -> max of ``pi`` over A, for a distribution
    ``pi`` on players with max value 1."""
    scale = _distribution_scale(pi)
    for p in pi:
        if p.sign < 0:
            raise CapacityError(f"distribution value {p} is negative")
    if max(pi) != scale.one:
        raise CapacityError("distribution must reach 1 on some player")
    return Capacity(len(pi), scale, tuple(fold_members(pi, max, scale.zero)))


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
