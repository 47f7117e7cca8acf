"""Finite spectral spaces as posets of prime labels, with subsets as bit masks.

A prime ``p <= q`` means the prime ideal p is contained in q, so up-sets are
exactly the specialization closed subsets.  Points are numbered 0..n-1 in
sorted label order and a subset is an int whose bit i stands for point i, so
union, intersection and inclusion are integer operations and the lowest bit
of a mask is its smallest label.  Posets are immutable; up- and down-sets,
maximal points and localizations are computed once per poset, and every
localization is one :func:`interned_poset`, so the many equal small posets
that localizing asks for are built once per process.  Labels are checked
once, where they enter (:meth:`SpectralPoset.point`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .errors import InvalidInputError, json_object

PrimeId = str


class SpectralPoset:
    """Finite poset of prime labels under inclusion.

    ``elements[i]`` is the label of point i, in sorted order.  ``up[i]`` and
    ``down[i]`` are the masks of the principal up-set and down-set of point
    i, both containing i; ``maxima`` are the maximal points.
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
        # j is below i when up[j] holds i; read in increasing j, each list is sorted
        down, below = [0] * n, [[] for _ in range(n)]
        for j, u in enumerate(up):
            while u:
                i = (u & -u).bit_length() - 1
                down[i] |= 1 << j
                below[i].append(j)
                u &= u - 1
        self.elements = tuple(elems)
        self.index = index
        self.up = tuple(up)
        self.down = tuple(down)
        for i in range(n):
            if up[i] & self.down[i] != 1 << i:
                other = self.labels(up[i] & self.down[i] & ~(1 << i))[0]
                raise InvalidInputError(f"order not antisymmetric: {elems[i]!r} <=> {other!r}")
        self.full = (1 << n) - 1
        self.maxima = tuple(i for i in range(n) if up[i] == 1 << i)
        self._below = tuple(map(tuple, below))
        self._localizations: dict[int, SpectralPoset] = {}

    def point(self, label: PrimeId) -> int:
        """The number of the point ``label``; the check every label passes."""
        try:
            return self.index[label]
        except (KeyError, TypeError):
            raise InvalidInputError(f"prime {label!r} is not in this poset") from None

    def mask_of(self, labels: Iterable[PrimeId]) -> int:
        return sum({1 << self.point(label) for label in labels})

    def labels(self, mask: int) -> tuple[PrimeId, ...]:
        """The labels of the points of ``mask``, in sorted order."""
        return tuple(e for i, e in enumerate(self.elements) if mask >> i & 1)

    def closure(self, mask: int) -> int:
        """Smallest up-set containing ``mask``: the specialization closure."""
        for i, u in enumerate(self.up):
            if mask >> i & 1:
                mask |= u
        return mask

    def localization(self, m: int) -> "SpectralPoset":
        """Induced poset on the down-set of point m: Spec(R_m) inside Spec(R).

        Its point k is the k-th point of ``down[m]``, as both number their
        points in label order; :meth:`pack` and :meth:`unpack` move masks
        between the two numberings.
        """
        if m not in self._localizations:
            below = self.down[m]
            pairs = tuple((a, b) for a, b in self.relation_pairs if below >> self.index[b] & 1)
            self._localizations[m] = interned_poset(self.labels(below), pairs)
        return self._localizations[m]

    def pack(self, mask: int, m: int) -> int:
        """``mask & down[m]`` in the numbering of the localization at m."""
        out, bit = 0, 1
        for j in self._below[m]:
            if mask >> j & 1:
                out |= bit
            bit <<= 1
        return out

    def unpack(self, mask: int, m: int) -> int:
        """A mask of the localization at m in this poset's numbering."""
        out = 0
        for j in self._below[m]:
            if mask & 1:
                out |= 1 << j
            mask >>= 1
        return out

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


# every poset ever interned, for the life of the process; sharing is safe
# because a poset never changes, and what it caches is a function of its order
_INTERNED: dict[tuple, SpectralPoset] = {}


def interned_poset(
    elements: tuple[PrimeId, ...], pairs: tuple[tuple[PrimeId, PrimeId], ...]
) -> SpectralPoset:
    """The one poset of this process on these sorted labels and these
    relation pairs, listed as :attr:`SpectralPoset.relation_pairs` lists them."""
    key = (elements, pairs)
    poset = _INTERNED.get(key)
    if poset is None:
        poset = _INTERNED[key] = SpectralPoset(elements, pairs)
    return poset


def localization_poset(poset: SpectralPoset, p: PrimeId) -> SpectralPoset:
    """Induced poset on the down-set of ``p``: Spec(R_p) inside Spec(R)."""
    return poset.localization(poset.point(p))


def all_up_sets(poset: SpectralPoset) -> list[int]:
    """The masks of all up-sets, ordered by size and then by sorted labels."""
    ups = {0}
    for u in poset.up:
        ups |= {s | u for s in ups}
    return sorted(ups, key=lambda s: (s.bit_count(), poset.labels(s)))
