"""Finite spectral spaces as posets of prime labels, with subsets as bit masks.

A prime ``p <= q`` means the prime ideal p is contained in q, so up-sets are
exactly the specialization closed subsets.  Points are numbered 0..n-1 in
sorted label order and a subset is an int whose bit i stands for point i, so
union, intersection and inclusion are integer operations and the lowest bit
of a mask is its smallest label.  Posets are immutable; up- and down-sets,
maximal points and their down-sets are computed once per poset, when it is
built.  The localization Spec(R_m) at a point m is the subspace ``down[m]``
and keeps this numbering: its subsets are the masks inside ``down[m]``, and
its up-sets are those of the poset masked with ``down[m]``
(:func:`all_up_sets`).  Labels are checked once, where they
enter (:meth:`SpectralPoset.point`).
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property

from .errors import InvalidInputError, json_object

PrimeId = str

# the shared ``layouts`` of each order, by its tuple of up-sets
_LAYOUTS: dict[tuple[int, ...], dict] = {}


class SpectralPoset:
    """Finite poset of prime labels under inclusion.

    ``elements[i]`` is the label of point i, in sorted order.  ``up[i]`` and
    ``down[i]`` are the masks of the principal up-set and down-set of point
    i, both containing i; ``maxima`` are the maximal points and
    ``maximal_downs`` their down-sets, the localizations Spec(R_m).
    ``layouts`` keeps, per number of levels, the constants with which
    :mod:`spectral_glue.gluing` localizes and glues packed runs on this
    order: they depend on ``up`` alone.
    """

    def __init__(self, elements: Iterable[PrimeId], pairs: Iterable[tuple[PrimeId, PrimeId]] = ()):
        elems = sorted(elements)
        index = {e: i for i, e in enumerate(elems)}
        if len(index) != len(elems):
            raise InvalidInputError(f"duplicate labels in poset 'elements': {elems}")
        n = len(elems)
        up = [1 << i for i in range(n)]
        for a, b in pairs:
            if a not in index or b not in index:
                raise InvalidInputError(
                    f"poset 'leq' pair ({a!r}, {b!r}) mentions an unknown prime"
                )
            up[index[a]] |= 1 << index[b]
        # Warshall: after step k, up[i] holds every point reached through 0..k;
        # a point whose up-set is itself adds nothing to the points below it
        for k in range(n):
            if up[k] != 1 << k:
                for i in range(n):
                    if up[i] >> k & 1:
                        up[i] |= up[k]
        # j is below i when up[j] holds i
        down = [0] * n
        for j, u in enumerate(up):
            while u:
                i = (u & -u).bit_length() - 1
                down[i] |= 1 << j
                u &= u - 1
        for i in range(n):
            both = up[i] & down[i] & ~(1 << i)
            if both:
                other = elems[(both & -both).bit_length() - 1]
                raise InvalidInputError(f"order not antisymmetric: {elems[i]!r} <=> {other!r}")
        self._order(tuple(elems), index, tuple(up), tuple(down))

    def _order(self, elements: tuple, index: dict, up: tuple, down: tuple) -> None:
        """Set the points and their principal up- and down-sets, and what is
        read off them once: the full mask, the maxima and their down-sets."""
        self.elements, self.index, self.up, self.down = elements, index, up, down
        self.full = (1 << len(elements)) - 1
        self.maxima = tuple(i for i, u in enumerate(up) if u == 1 << i)
        self.maximal_downs = tuple(down[m] for m in self.maxima)
        # levels -> the constants of packed families, filled by gluing; posets of
        # one order on the same numbering share them, for the whole process
        self.layouts = _LAYOUTS.setdefault(up, {})

    def point(self, label: PrimeId) -> int:
        """The number of the point ``label``; the check every label passes."""
        try:
            return self.index[label]
        except (KeyError, TypeError):
            raise InvalidInputError(f"prime {label!r} is not in this poset") from None

    def labels(self, mask: int) -> tuple[PrimeId, ...]:
        """The labels of the points of ``mask``, in sorted order."""
        return tuple(e for i, e in enumerate(self.elements) if mask >> i & 1)

    def closure(self, mask: int) -> int:
        """Smallest up-set containing ``mask``: the specialization closure."""
        for i, u in enumerate(self.up):
            if mask >> i & 1:
                mask |= u
        return mask

    @cached_property
    def maximal_labels(self) -> frozenset[PrimeId]:
        return frozenset(self.elements[i] for i in self.maxima)

    @cached_property
    def relation_pairs(self) -> tuple[tuple[PrimeId, PrimeId], ...]:
        return tuple(
            (a, b) for i, a in enumerate(self.elements) for b in self.labels(self.up[i] & ~(1 << i))
        )

    def __eq__(self, other):
        return self is other or (
            isinstance(other, SpectralPoset)
            and self.elements == other.elements
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.elements, self.up))

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"SpectralPoset({list(self.elements)}, {list(self.relation_pairs)})"

    def to_json(self) -> dict:
        return {"elements": list(self.elements), "leq": [list(p) for p in self.relation_pairs]}

    @classmethod
    def from_json(cls, data) -> "SpectralPoset":
        """Read ``{"elements": [label, ...], "leq": [[a, b], ...]}``."""
        data = json_object(data, "poset JSON")
        elements, leq = data.get("elements"), data.get("leq", [])
        if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
            raise InvalidInputError(f"poset 'elements' must be a list of labels, got {elements!r}")
        if not isinstance(leq, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(isinstance(e, str) for e in p) for p in leq
        ):
            raise InvalidInputError(f"poset 'leq' must be a list of label pairs, got {leq!r}")
        return cls(elements, [tuple(p) for p in leq])


def all_up_sets(poset: SpectralPoset, below: int | None = None) -> list[int]:
    """The masks of all up-sets of the down-set ``below``, by default the
    whole poset, ordered by size and then by sorted labels: the unions of
    the principal up-sets masked with ``below``."""
    below = poset.full if below is None else below
    ups = {0}
    # every point outside the down-set masks to 0; the set takes each generator once
    for u in {u & below for u in poset.up}:
        ups |= {s | u for s in ups}
    return sorted(ups, key=lambda s: (s.bit_count(), poset.labels(s)))
