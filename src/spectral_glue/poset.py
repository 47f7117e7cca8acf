"""Finite spectral spaces as posets of prime labels.

A prime ``p <= q`` means the prime ideal p is contained in q, so up-sets are
exactly the specialization closed subsets.  Posets are immutable after
construction and store the full reachability relation, so order queries are
O(1) set lookups.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, Mapping

from .errors import InvalidInputError

PrimeId = str


class SpectralPoset:
    """Finite poset of prime labels under inclusion.

    ``elements`` is kept sorted so set operations and serialized output are
    deterministic.  The order relation is stored as a map label -> frozenset of
    labels above it (its principal up-set, including itself).
    """

    __slots__ = ("elements", "_up", "__dict__")

    def __init__(self, elements: Iterable[PrimeId], pairs: Iterable[tuple[PrimeId, PrimeId]] = ()):
        elems = sorted(elements)
        if len(set(elems)) != len(elems):
            raise InvalidInputError(f"duplicate prime labels in {elems}")
        pairs = list(pairs)
        eset = set(elems)
        for a, b in pairs:
            if a not in eset or b not in eset:
                raise InvalidInputError(f"relation ({a!r}, {b!r}) mentions unknown prime")
        up = {e: {e} for e in elems}
        for a, b in pairs:
            up[a].add(b)
        # transitive closure (tiny posets; repeated sweep is fine)
        changed = True
        while changed:
            changed = False
            for a in elems:
                new = set()
                for b in up[a]:
                    new |= up[b]
                if not new <= up[a]:
                    up[a] |= new
                    changed = True
        for a in elems:
            for b in up[a]:
                if a != b and a in up[b]:
                    raise InvalidInputError(f"order not antisymmetric: {a!r} <=> {b!r}")
        self.elements = tuple(elems)
        self._up = {e: frozenset(s) for e, s in up.items()}

    def leq(self, a: PrimeId, b: PrimeId) -> bool:
        self._require(a)
        self._require(b)
        return b in self._up[a]

    def up_set(self, a: PrimeId) -> frozenset[PrimeId]:
        """Principal up-set of ``a`` (all primes containing it)."""
        self._require(a)
        return self._up[a]

    def down_set(self, a: PrimeId) -> frozenset[PrimeId]:
        self._require(a)
        return frozenset(b for b in self.elements if a in self._up[b])

    def _require(self, a: PrimeId) -> None:
        if a not in self._up:
            raise InvalidInputError(f"prime {a!r} is not in this poset")

    def check_subset(self, members: Iterable[PrimeId]) -> frozenset[PrimeId]:
        members = frozenset(members)
        for m in members:
            self._require(m)
        return members

    @cached_property
    def relation_pairs(self) -> tuple[tuple[PrimeId, PrimeId], ...]:
        return tuple(
            (a, b) for a in self.elements for b in sorted(self._up[a]) if a != b
        )

    def __eq__(self, other):
        return (
            isinstance(other, SpectralPoset)
            and self.elements == other.elements
            and self._up == other._up
        )

    def __hash__(self):
        return hash((self.elements, tuple(sorted(self._up.items()))))

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"SpectralPoset({list(self.elements)}, {list(self.relation_pairs)})"

    def to_json(self) -> dict:
        return {"elements": list(self.elements), "leq": [list(p) for p in self.relation_pairs]}

    @classmethod
    def from_json(cls, data: Mapping) -> "SpectralPoset":
        try:
            return cls(data["elements"], [tuple(p) for p in data.get("leq", [])])
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed poset JSON: {exc}") from exc


def specialization_closure(members: Iterable[PrimeId], poset: SpectralPoset) -> frozenset[PrimeId]:
    """Smallest up-set containing ``members``: {q | exists p in members, p <= q}."""
    members = poset.check_subset(members)
    closed: set[PrimeId] = set()
    for p in members:
        closed |= poset.up_set(p)
    return frozenset(closed)


def is_thomason(members: Iterable[PrimeId], poset: SpectralPoset) -> bool:
    """On a finite spectral space the Thomason subsets are exactly the up-sets."""
    members = poset.check_subset(members)
    return specialization_closure(members, poset) == members


def maximal_points(poset: SpectralPoset) -> frozenset[PrimeId]:
    """Elements with no strict upper bound (the maximal ideals)."""
    return frozenset(p for p in poset.elements if poset.up_set(p) == frozenset({p}))


def localization_poset(poset: SpectralPoset, p: PrimeId) -> SpectralPoset:
    """Induced poset on the down-set of ``p``: Spec(R_p) inside Spec(R)."""
    down = poset.down_set(p)
    pairs = [(a, b) for a in down for b in down if a != b and poset.leq(a, b)]
    return SpectralPoset(down, pairs)


def all_up_sets(poset: SpectralPoset) -> list[frozenset[PrimeId]]:
    """All up-sets, in a deterministic order (sorted by size then labels)."""
    ups: set[frozenset[PrimeId]] = {frozenset()}
    for p in poset.elements:
        ups |= {u | poset.up_set(p) for u in ups}
    return sorted(ups, key=lambda s: (len(s), tuple(sorted(s))))


def load_poset(path_or_obj) -> SpectralPoset:
    if isinstance(path_or_obj, SpectralPoset):
        return path_or_obj
    if isinstance(path_or_obj, Mapping):
        return SpectralPoset.from_json(path_or_obj)
    with open(path_or_obj) as fh:
        return SpectralPoset.from_json(json.load(fh))
