"""Thomason sets as masks of up-sets, and decreasing Z-indexed filtrations.

A filtration is stored by its finite breakpoint window [lo, hi] plus the two
tail values (the value for all n < lo, resp. n > hi).  Its levels view,
:meth:`ThomasonFiltration.levels`, is the run X_lo-1, X_lo, ..., X_hi+1: the
window with one tail degree on each side, so a pure step keeps its position.
Every map of filtrations works on that view, level by level
(:meth:`ThomasonFiltration.map_levels`), and :func:`from_levels` is the one
normaliser: two filtrations with equal pointwise values compare and
serialize identically.

Filtrations are validated once, where they enter: :func:`make_filtration`
checks wire, catalog and fixture input (one poset, increasing indices, a
decreasing run, a bounded span) and then normalises.  An order-preserving
map of a valid filtration decreases already, so it is only normalised.

Every level is a :class:`ThomasonSet` of one finite spectral poset; Spec(Z)
is the finite star poset of :func:`spectral_glue.integers.z_poset`, so its
filtrations are these too.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .errors import FiltrationOrderError, InvalidInputError, json_int, json_object
from .poset import PrimeId, SpectralPoset


@dataclass(frozen=True)
class ThomasonSet:
    """An up-set of a finite spectral poset, as the mask of its points."""

    poset: SpectralPoset
    mask: int

    @classmethod
    def from_members(cls, poset: SpectralPoset, members: Iterable[PrimeId]) -> "ThomasonSet":
        mask = poset.mask_of(members)
        if poset.closure(mask) != mask:
            raise InvalidInputError(f"{list(poset.labels(mask))} is not specialization closed")
        return cls(poset, mask)

    @classmethod
    def full(cls, poset: SpectralPoset) -> "ThomasonSet":
        return cls(poset, poset.full)

    @classmethod
    def empty(cls, poset: SpectralPoset) -> "ThomasonSet":
        return cls(poset, 0)

    @property
    def members(self) -> frozenset[PrimeId]:
        return frozenset(self.poset.labels(self.mask))

    def is_full(self) -> bool:
        return self.mask == self.poset.full

    def __contains__(self, p: PrimeId) -> bool:
        return p in self.poset.index and bool(self.mask >> self.poset.index[p] & 1)

    def __le__(self, other: "ThomasonSet") -> bool:
        self._same_poset(other)
        return not self.mask & ~other.mask

    def isdisjoint(self, other: "ThomasonSet") -> bool:
        self._same_poset(other)
        return not self.mask & other.mask

    def union(self, other: "ThomasonSet") -> "ThomasonSet":
        self._same_poset(other)
        return ThomasonSet(self.poset, self.mask | other.mask)

    def _same_poset(self, other: "ThomasonSet") -> None:
        if other.poset != self.poset:
            raise InvalidInputError("cannot combine Thomason sets over different posets")

    def sorted_members(self) -> list[PrimeId]:
        return list(self.poset.labels(self.mask))

    def __repr__(self):
        return f"ThomasonSet({self.sorted_members()})"


@dataclass(frozen=True)
class ThomasonFiltration:
    """Decreasing Z-indexed sequence of Thomason sets, finitely represented.

    ``values[k]`` is X_n for n = lo + k; X_n = low_tail for n < lo and
    X_n = high_tail for n > hi.  Empty ``values`` with distinct tails encodes a
    pure step: low_tail through lo - 1, high_tail from lo on.  Build one with
    :func:`make_filtration` from unchecked input, or with :func:`from_levels`
    from a run of levels that already decreases.
    """

    poset: SpectralPoset
    low_tail: ThomasonSet
    lo: int
    values: tuple[ThomasonSet, ...]
    high_tail: ThomasonSet

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def at(self, n: int) -> ThomasonSet:
        if n < self.lo:
            return self.low_tail
        if n > self.hi:
            return self.high_tail
        return self.values[n - self.lo]

    def levels(self) -> tuple[int, tuple[ThomasonSet, ...]]:
        """(start, levels): X_start, X_start+1, ... with the low tail first
        and the high tail last; start is lo - 1."""
        return self.lo - 1, (self.low_tail, *self.values, self.high_tail)

    def map_levels(self, poset: SpectralPoset, fn) -> "ThomasonFiltration":
        """The filtration n |-> fn(X_n) on ``poset``, for an order-preserving
        ``fn``; the image of a decreasing run decreases, so it is not checked."""
        start, levels = self.levels()
        return from_levels(poset, start, [fn(s) for s in levels])

    def __repr__(self):
        parts = [f"<{self.low_tail.sorted_members()}"]
        parts += [f"{self.lo + k}:{v.sorted_members()}" for k, v in enumerate(self.values)]
        parts.append(f">{self.high_tail.sorted_members()}")
        return "ThomasonFiltration(" + " / ".join(parts) + ")"


def from_levels(
    poset: SpectralPoset, start: int, levels: Sequence[ThomasonSet]
) -> ThomasonFiltration:
    """The one canonical trim: X_n = levels[n - start], with the first and
    last levels as the tails.  Leading levels equal to the first and trailing
    levels equal to the last are dropped, and a constant is put at lo = 0;
    ``levels`` must already decrease.
    """
    low, high = levels[0], levels[-1]
    if low.mask == high.mask:  # a decreasing run between equal ends is constant
        return ThomasonFiltration(poset, low, 0, (), high)
    i = 1
    while levels[i].mask == low.mask:
        i += 1
    j = len(levels) - 1
    while levels[j - 1].mask == high.mask:
        j -= 1
    return ThomasonFiltration(poset, low, start + i, tuple(levels[i:j]), high)


# the most degrees apart that a filtration's breakpoints, or the windows of a
# family's members, may lie; no sweep, fixture, test or recording goes past 7
MAX_DEGREE_SPAN = 1_000


def make_filtration(
    poset: SpectralPoset,
    low_tail: ThomasonSet,
    breakpoints: Sequence[tuple[int, ThomasonSet]],
    high_tail: ThomasonSet,
    describe=ThomasonSet.sorted_members,
) -> ThomasonFiltration:
    """Validate a filtration, then normalise it with :func:`from_levels`.

    Breakpoint indices must be strictly increasing and at most
    MAX_DEGREE_SPAN apart; gaps are filled by propagating the previous value
    downward (the filtration is constant between explicit breakpoints).  An
    order error writes its sets with ``describe``.
    """
    for _, s in breakpoints:
        if s.poset != poset:
            raise InvalidInputError("breakpoint set lives on a different poset")
    if low_tail.poset != poset or high_tail.poset != poset:
        raise InvalidInputError("tail set lives on a different poset")
    ns = [n for n, _ in breakpoints]
    if ns != sorted(set(ns)):
        raise InvalidInputError("breakpoint indices must be strictly increasing")
    if not ns and low_tail != high_tail:
        raise FiltrationOrderError(
            "tails differ but no breakpoint locates the step; give at least one breakpoint"
        )
    if ns and ns[-1] - ns[0] > MAX_DEGREE_SPAN:
        raise InvalidInputError(
            f"breakpoints at degrees {ns[0]} and {ns[-1]} lie more than the bound "
            f"MAX_DEGREE_SPAN = {MAX_DEGREE_SPAN} degrees apart"
        )
    # expand to one level per degree in [lo - 1, hi + 1], the tails at the ends
    lo = ns[0] if ns else 0
    levels = [low_tail]
    idx = dict(breakpoints)
    for n in range(lo, (ns[-1] + 1) if ns else lo):
        prev = levels[-1]
        cur = idx.get(n, prev)
        if not cur <= prev:
            raise FiltrationOrderError(
                f"filtration not decreasing at degree {n}: "
                f"{describe(cur)} is not contained in {describe(prev)}"
            )
        levels.append(cur)
    if not high_tail <= levels[-1]:
        raise FiltrationOrderError(
            f"filtration not decreasing into the high tail: "
            f"{describe(high_tail)} is not contained in {describe(levels[-1])}"
        )
    return from_levels(poset, lo - 1, [*levels, high_tail])


def is_nondegenerate(filtration: ThomasonFiltration) -> bool:
    """Intersection of all X_n empty and union all of Spec; with the finite
    representation this is exactly high_tail = empty and low_tail = full."""
    return not filtration.high_tail.mask and filtration.low_tail.is_full()


def is_constant(filtration: ThomasonFiltration) -> bool:
    return not filtration.values and filtration.low_tail == filtration.high_tail


def restrict_set(s: ThomasonSet, m: PrimeId) -> ThomasonSet:
    """X |-> X intersected with the down-set of m, on Spec(R_m)."""
    i = s.poset.point(m)
    return ThomasonSet(s.poset.localization(i), s.poset.pack(s.mask, i))


def restrict_filtration(filtration: ThomasonFiltration, m: PrimeId) -> ThomasonFiltration:
    """Degreewise restriction to the localization poset at a maximal point m."""
    poset = filtration.poset
    i = poset.point(m)
    if poset.up[i] != 1 << i:
        raise InvalidInputError(f"{m!r} is not a maximal point")
    sub = poset.localization(i)
    return filtration.map_levels(sub, lambda s: ThomasonSet(sub, poset.pack(s.mask, i)))


def set_to_json(s: ThomasonSet):
    return "full" if s.is_full() else s.sorted_members()


def set_from_json(poset: SpectralPoset, data) -> ThomasonSet:
    if data == "full":
        return ThomasonSet.full(poset)
    if not isinstance(data, (list, tuple)):
        raise InvalidInputError(f"expected 'full' or a list of labels, got {data!r}")
    return ThomasonSet.from_members(poset, data)


def filtration_to_json(filtration: ThomasonFiltration, write_set=set_to_json) -> dict:
    """Write a filtration; ``write_set(level)`` writes one level."""
    breakpoints = [
        {"n": filtration.lo + k, "set": write_set(v)}
        for k, v in enumerate(filtration.values)
    ]
    if not breakpoints and filtration.low_tail != filtration.high_tail:
        # pure step: record the last degree still equal to the low tail
        breakpoints = [{"n": filtration.lo - 1, "set": write_set(filtration.low_tail)}]
    return {
        "low_tail": write_set(filtration.low_tail),
        "breakpoints": breakpoints,
        "high_tail": write_set(filtration.high_tail),
    }


def filtration_from_json(
    poset: SpectralPoset,
    data: Mapping,
    parse_set=set_from_json,
    describe=ThomasonSet.sorted_members,
) -> ThomasonFiltration:
    """Read a filtration; ``parse_set(poset, value)`` reads one level, and an
    order error writes levels with ``describe``."""
    json_object(data, "filtration JSON")
    for name in ("low_tail", "high_tail"):
        if name not in data:
            raise InvalidInputError(f"filtration JSON needs the field {name!r}")
    breakpoints = data.get("breakpoints", [])
    if not isinstance(breakpoints, list) or any(
        not isinstance(bp, Mapping) or "n" not in bp or "set" not in bp for bp in breakpoints
    ):
        raise InvalidInputError(
            f"'breakpoints' must be a list of objects with 'n' and 'set', got {breakpoints!r}"
        )

    def level(value, name):
        try:
            return parse_set(poset, value)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{name}: {exc}") from None

    low = level(data["low_tail"], "'low_tail'")
    high = level(data["high_tail"], "'high_tail'")
    bps = [
        (json_int(bp["n"], "breakpoint index"), level(bp["set"], "breakpoint 'set'"))
        for bp in breakpoints
    ]
    return make_filtration(poset, low, bps, high, describe)
