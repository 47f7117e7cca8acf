"""Thomason sets as masks of up-sets, and decreasing Z-indexed filtrations.

A filtration is stored as its run of levels X_lo-1, X_lo, ..., X_hi+1, that
is its breakpoint window [lo, hi] with one tail degree on each side, so a
pure step keeps its position, packed into one int: on an n-point poset,
level k of the run is the mask at bits [k·n, (k+1)·n).  :func:`concat` and
:func:`slots` build and split such ints, :func:`ones` repeats a mask in
every slot by one multiplication, and :func:`fold` ORs the slots.
:func:`trim` is the one normaliser of a packed run, of a filtration's
levels or of a family's rows (:mod:`spectral_glue.gluing`), and works on
whole ints: the first level that differs from the low tail is the lowest set
bit of the run XOR the low tail repeated, and the last that differs from
the high tail is the highest set bit of the run XOR the high tail repeated.
So two filtrations with equal pointwise values compare and serialize
identically, and compare as one int.  The one :class:`ThomasonSet` view of
a filtration is :meth:`ThomasonFiltration.at`, one level;
:meth:`ThomasonFiltration.mask_at` reads its mask without one.  Restriction
to the maximal points is :func:`spectral_glue.gluing.localize_filtrations`,
on the same packed int.

Filtrations are validated once, where they enter: :func:`make_filtration`
checks catalog and fixture input and :func:`filtration_from_json` wire input
(one poset, increasing indices, a decreasing run, a bounded span), and both
then normalise.  Both make one pass over the breakpoints: each index is
checked against the one before, each level against the level before it,
and a gap takes the earlier level; the wire reader reads each level in the
same pass, and a level that fails to read is refused before any fault of
the run.  An order-preserving map of a valid filtration decreases already,
so it is only normalised.

Labels are read and written by one level codec, :func:`level_from_json`
and :func:`level_to_json`, on the whole poset (:func:`set_from_json`, and
filtration JSON) or on the down-set of one point (the members of a local
family in :mod:`spectral_glue.gluing`); inside the package a set is a mask.

Every level is an up-set of one finite spectral poset; Spec(Z) is the finite
star poset of :func:`spectral_glue.integers.z_poset`, so its filtrations are
these too.

A :class:`ThomasonSet` (poset, mask) and a :class:`ThomasonFiltration`
(poset, start, length, packed) are immutable values on
:class:`spectral_glue.values.Value`: slotted, equal and hashed by their
fields, with no field that can be assigned.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cache

from .errors import FiltrationOrderError, InvalidInputError, json_int, json_object
from .poset import PrimeId, SpectralPoset
from .values import Value


class ThomasonSet(Value):
    """An up-set of a finite spectral poset, as the mask of its points."""

    __slots__ = _fields = ("poset", "mask")

    def __init__(self, poset: SpectralPoset, mask: int):
        set_poset, set_mask = self._setters
        set_poset(self, poset)
        set_mask(self, mask)

    @classmethod
    def full(cls, poset: SpectralPoset) -> "ThomasonSet":
        return cls(poset, poset.full)

    @classmethod
    def empty(cls, poset: SpectralPoset) -> "ThomasonSet":
        return cls(poset, 0)

    @property
    def members(self) -> frozenset[PrimeId]:
        return frozenset(self.poset.labels(self.mask))

    def __le__(self, other: "ThomasonSet") -> bool:
        self._same_poset(other)
        return not self.mask & ~other.mask

    def union(self, other: "ThomasonSet") -> "ThomasonSet":
        self._same_poset(other)
        return ThomasonSet(self.poset, self.mask | other.mask)

    def _same_poset(self, other: "ThomasonSet") -> None:
        if other.poset != self.poset:
            raise InvalidInputError("cannot combine Thomason sets over different posets")

    def __repr__(self):
        return f"ThomasonSet({list(self.poset.labels(self.mask))})"


class ThomasonFiltration(Value):
    """Decreasing Z-indexed sequence of Thomason sets, as its packed run of
    ``length`` levels.

    Level k of the run is the mask of X_n for n = start + k, at bits [k·n,
    (k+1)·n) of ``packed`` on an n-point poset; the first level is the low
    tail, X_n for every n <= start, and the last is the high tail, X_n for
    every n past the end.  In the normal form that :func:`trim` gives, the
    second level differs from the low tail and the second-last from the high
    tail, so the window [lo, hi] of breakpoints is levels 1 to length - 2; a
    pure step, with an empty window, is its two tails with the step at lo =
    start + 1, and a constant is start -1 with two equal levels.  Equality
    and hashing compare (poset, start, length, packed), so equal filtrations
    are one int comparison apart.  :meth:`at` is the one set-valued view,
    :meth:`mask_at` reads one level and :meth:`levels` all of them.  Build
    one with :func:`make_filtration` from unchecked input, or with
    :func:`from_levels` or :func:`from_packed` from a run that already
    decreases.
    """

    __slots__ = _fields = ("poset", "start", "length", "packed")

    def __init__(self, poset: SpectralPoset, start: int, length: int, packed: int):
        set_poset, set_start, set_length, set_packed = self._setters
        set_poset(self, poset)
        set_start(self, start)
        set_length(self, length)
        set_packed(self, packed)

    @property
    def lo(self) -> int:
        return self.start + 1

    @property
    def low(self) -> int:
        """The mask of the low tail."""
        return self.packed & self.poset.full

    @property
    def high(self) -> int:
        """The mask of the high tail."""
        return self.packed >> (self.length - 1) * len(self.poset.elements)

    def mask_at(self, n: int) -> int:
        """The mask of X_n."""
        k = n - self.start
        if k <= 0:
            return self.packed & self.poset.full
        if k >= self.length:
            k = self.length - 1
        return self.packed >> k * len(self.poset.elements) & self.poset.full

    def at(self, n: int) -> ThomasonSet:
        return ThomasonSet(self.poset, self.mask_at(n))

    def levels(self) -> list[int]:
        """The masks of the run, the low tail first and the high tail last."""
        return slots(self.packed, len(self.poset.elements), self.length)

    def __repr__(self):
        labels = self.poset.labels
        low, *window, high = self.levels()
        parts = [f"<{list(labels(low))}"]
        parts += [f"{self.lo + k}:{list(labels(x))}" for k, x in enumerate(window)]
        parts.append(f">{list(labels(high))}")
        return "ThomasonFiltration(" + " / ".join(parts) + ")"


# a run of at most this many bits is joined and split one slot at a time, a
# longer one in halves, so that each bit moves O(log slots) times
_FLAT_BITS = 1 << 14


def concat(pieces: Sequence[int], width: int) -> int:
    """The int with ``pieces[k]``, each below 2**width, at bits [k·width,
    (k+1)·width): the layout of a packed run."""
    if len(pieces) > 1 and len(pieces) * width > _FLAT_BITS:
        half = len(pieces) >> 1
        return concat(pieces[:half], width) | concat(pieces[half:], width) << half * width
    packed = 0
    for x in reversed(pieces):
        packed = packed << width | x
    return packed


def slots(packed: int, width: int, count: int) -> list[int]:
    """The ``count`` slots of ``width`` bits of ``packed``, the lowest first:
    the inverse of :func:`concat`."""
    if count * width > _FLAT_BITS and count > 1:
        half = count >> 1
        cut = half * width
        low = slots(packed & ((1 << cut) - 1), width, half)
        return low + slots(packed >> cut, width, count - half)
    full, out = (1 << width) - 1, []
    for _ in range(count):
        out.append(packed & full)
        packed >>= width
    return out


@cache
def ones(width: int, count: int) -> int:
    """Bit 0 of each of ``count`` slots of ``width`` bits: a mask below
    2**width times it is that mask in every slot, with no carry."""
    return concat([1] * count, width)


def fold(packed: int, width: int, count: int) -> int:
    """The union of the ``count`` slots of ``width`` bits of ``packed``: each
    round ORs the upper half of the slots onto the lower."""
    while count > 1:
        half = (count + 1) >> 1
        cut = half * width
        packed = packed & ((1 << cut) - 1) | packed >> cut
        count = half
    return packed


def trim(width: int, start: int, length: int, packed: int) -> tuple[int, int, int]:
    """(start, length, packed) of the normal form of a decreasing packed run
    of ``length`` levels of ``width`` bits, level k at bits [k·width,
    (k+1)·width): of the leading levels equal to the first and the trailing
    levels equal to the last, one of each is kept as a tail, and a constant
    is put at start = -1 with two levels.  A filtration's run is one, and so
    is a family's run of rows in :mod:`spectral_glue.gluing`."""
    full = (1 << width) - 1
    low = packed & full
    high = packed >> (length - 1) * width & full
    if low == high:  # a decreasing run between equal ends is constant
        return -1, 2, low | low << width
    if packed >> width & full != low and packed >> (length - 2) * width & full != high:
        # normal already: the second level differs from the low tail, the second-last from the high
        return start, length, packed
    # the levels that differ from the low tail, and from the high tail
    run = ones(width, length)
    below, above = packed ^ low * run, packed ^ high * run
    first = ((below & -below).bit_length() - 1) // width - 1
    keep = (above.bit_length() - 1) // width - first + 2
    return start + first, keep, packed >> first * width & (1 << keep * width) - 1


def from_packed(poset: SpectralPoset, start: int, length: int, packed: int) -> ThomasonFiltration:
    """The filtration of the :func:`trim` of a packed run that decreases: the
    one normaliser."""
    return ThomasonFiltration(poset, *trim(len(poset.elements), start, length, packed))


def from_levels(poset: SpectralPoset, start: int, masks: Sequence[int]) -> ThomasonFiltration:
    """The filtration of a run of masks that decreases, X_n = masks[n - start]."""
    return from_packed(poset, start, len(masks), concat(masks, len(poset.elements)))


# the most degrees apart that a filtration's breakpoints, or the windows of a
# family's members, may lie; no sweep, fixture, test or recording goes past 7
MAX_DEGREE_SPAN = 1_000


def make_filtration(
    poset: SpectralPoset,
    low_tail: ThomasonSet,
    breakpoints: Sequence[tuple[int, ThomasonSet]],
    high_tail: ThomasonSet,
) -> ThomasonFiltration:
    """Validate a filtration of Thomason sets on ``poset``, then normalise it
    with :func:`from_packed`.

    Breakpoint indices must be strictly increasing and at most
    MAX_DEGREE_SPAN apart; gaps are filled by propagating the previous value
    downward (the filtration is constant between explicit breakpoints).
    """
    for _, s in breakpoints:
        if s.poset != poset:
            raise InvalidInputError("breakpoint set lives on a different poset")
    if low_tail.poset != poset or high_tail.poset != poset:
        raise InvalidInputError("tail set lives on a different poset")
    masks = [(n, s.mask) for n, s in breakpoints]
    return _validated(poset, low_tail.mask, masks, high_tail.mask, _members)


def _validated(poset, low: int, breakpoints, high: int, describe) -> ThomasonFiltration:
    """The checks of :func:`make_filtration` on the (index, mask) pairs
    ``breakpoints``, in one pass that also expands them into the run of
    levels; an order error writes its levels with ``describe(poset, mask)``.

    ``breakpoints`` may read each level as it is taken, so a level that
    fails to read is refused before any fault of the run: the run's faults
    are only noted in the pass and raised after it, in the order strict
    increase, a located step, the span, decrease.  The run stops growing at
    its first fault, so a span over the bound is never expanded."""
    width = len(poset.elements)
    packed, count, prev = low, 1, low
    lo = last = drop = None
    unordered = False
    for n, x in breakpoints:
        if last is None:
            lo = n
        elif n <= last:
            unordered = True
        last = n
        if unordered or drop or n - lo > MAX_DEGREE_SPAN:
            continue
        if x & ~prev:
            drop = n, x, prev
            continue
        gap = n - lo + 1 - count
        if gap:  # the degrees between two breakpoints keep the earlier level
            packed |= prev * ones(width, gap) << count * width
            count += gap
        packed |= x << count * width
        count += 1
        prev = x
    if unordered:
        raise InvalidInputError("breakpoint indices must be strictly increasing")
    if lo is None:
        if low != high:
            raise FiltrationOrderError(
                "tails differ but no breakpoint locates the step; give at least one breakpoint"
            )
        return ThomasonFiltration(poset, -1, 2, low | high << width)
    if last - lo > MAX_DEGREE_SPAN:
        raise InvalidInputError(
            f"breakpoints at degrees {lo} and {last} lie more than the bound "
            f"MAX_DEGREE_SPAN = {MAX_DEGREE_SPAN} degrees apart"
        )
    if drop:
        n, x, prev = drop
        raise FiltrationOrderError(
            f"filtration not decreasing at degree {n}: "
            f"{describe(poset, x)} is not contained in {describe(poset, prev)}"
        )
    if high & ~prev:
        raise FiltrationOrderError(
            f"filtration not decreasing into the high tail: "
            f"{describe(poset, high)} is not contained in {describe(poset, prev)}"
        )
    return from_packed(poset, lo - 1, count + 1, packed | high << count * width)


def is_nondegenerate(filtration: ThomasonFiltration) -> bool:
    """Intersection of all X_n empty and union all of Spec; with the finite
    representation this is exactly an empty high tail and a full low tail."""
    poset, packed = filtration.poset, filtration.packed
    high = packed >> (filtration.length - 1) * len(poset.elements)
    return not high and packed & poset.full == poset.full


def is_constant(filtration: ThomasonFiltration) -> bool:
    """A normal form with equal tails has no window: they bound a decreasing run."""
    poset, packed = filtration.poset, filtration.packed
    return packed & poset.full == packed >> (filtration.length - 1) * len(poset.elements)


def level_from_json(poset: SpectralPoset, data, at: int | None = None) -> int:
    """The mask of a level on the down-set of ``at``, or on the whole poset:
    "full" is all of it, and a list is read label by label in input order
    into an up-set of it, which need not be an up-set of ``poset``."""
    below = poset.full if at is None else poset.down[at]
    if data == "full":
        return below
    if not isinstance(data, (list, tuple)):
        raise InvalidInputError(f"expected 'full' or a list of labels, got {data!r}")
    mask = 0
    for label in data:
        i = poset.point(label)
        if not below >> i & 1:
            raise InvalidInputError(
                f"prime {label!r} is not in the down-set of {poset.elements[at]!r}"
            )
        mask |= 1 << i
    if poset.closure(mask) & below != mask:
        raise InvalidInputError(f"{list(poset.labels(mask))} is not specialization closed")
    return mask


def level_to_json(poset: SpectralPoset, mask: int, at: int | None = None):
    """One level as :func:`level_from_json` reads it: "full" exactly when the
    mask is the down-set of ``at``, or the whole poset when ``at`` is None."""
    below = poset.full if at is None else poset.down[at]
    return "full" if mask == below else list(poset.labels(mask))


def set_to_json(s: ThomasonSet):
    return level_to_json(s.poset, s.mask)


def set_from_json(poset: SpectralPoset, data) -> ThomasonSet:
    return ThomasonSet(poset, level_from_json(poset, data))


def _members(poset: SpectralPoset, mask: int) -> list[PrimeId]:
    return list(poset.labels(mask))


def filtration_to_json(filtration: ThomasonFiltration, write_level=level_to_json) -> dict:
    """Write a filtration; ``write_level(poset, mask)`` writes one level."""
    poset, lo = filtration.poset, filtration.lo
    low, *window, high = filtration.levels()
    breakpoints = [{"n": lo + k, "set": write_level(poset, x)} for k, x in enumerate(window)]
    if not breakpoints and low != high:
        # pure step: record the last degree still equal to the low tail
        breakpoints = [{"n": lo - 1, "set": write_level(poset, low)}]
    return {
        "low_tail": write_level(poset, low),
        "breakpoints": breakpoints,
        "high_tail": write_level(poset, high),
    }


def filtration_from_json(
    poset: SpectralPoset,
    data: Mapping,
    parse_level=level_from_json,
    describe=_members,
) -> ThomasonFiltration:
    """Read a filtration; ``parse_level(poset, value)`` reads the mask of one
    level, and an order error writes levels with ``describe(poset, mask)``.

    The shape is checked first; then one pass over the breakpoints reads
    each index and level and checks the run as :func:`make_filtration` does.
    A level that fails to read is refused with its field."""
    json_object(data, "filtration JSON")
    for name in ("low_tail", "high_tail"):
        if name not in data:
            raise InvalidInputError(f"filtration JSON needs the field {name!r}")
    breakpoints = data.get("breakpoints", [])
    if not isinstance(breakpoints, list) or not all(
        (type(bp) is dict or isinstance(bp, Mapping)) and "n" in bp and "set" in bp
        for bp in breakpoints
    ):
        raise InvalidInputError(
            f"'breakpoints' must be a list of objects with 'n' and 'set', got {breakpoints!r}"
        )
    field = "'low_tail'"
    try:
        low = parse_level(poset, data["low_tail"])
        field = "'high_tail'"
        high = parse_level(poset, data["high_tail"])
    except InvalidInputError as exc:
        raise InvalidInputError(f"{field}: {exc}") from None
    return _validated(poset, low, _read(poset, breakpoints, parse_level), high, describe)


def _read(poset: SpectralPoset, breakpoints: list, parse_level):
    """The (index, mask) pairs of breakpoint JSON, each read when it is taken."""
    for bp in breakpoints:
        n = json_int(bp["n"], "breakpoint index")
        try:
            x = parse_level(poset, bp["set"])
        except InvalidInputError as exc:
            raise InvalidInputError(f"breakpoint 'set': {exc}") from None
        yield n, x
