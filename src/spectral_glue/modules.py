"""Concrete finite modules with enumerable elements.

A module is a finite set of hashable elements together with addition and a
scalar action of its ring.  Everything downstream (cohomology, Hom groups,
torsion parts) works by element sweeps, which is the intended correctness
oracle at desk scale.  Rings are duck-typed: their elements are the ints
``0 .. |R| - 1`` returned by ``elements()``, with ``zero``, ``one``, ``add``,
``neg`` and ``mul``.  Module elements are tuples built from ring elements, so
they sort in the order of the ring's elements.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import InvalidInputError


class FiniteModule:
    """A finite module presented by explicit elements and operations.

    Elements are kept sorted, so minima of cosets and serialized output are
    deterministic.
    """

    def __init__(self, ring, elements, add, smul, zero):
        self.ring = ring
        self.elements = tuple(sorted(elements))
        self.index = {e: i for i, e in enumerate(self.elements)}
        self._add = add
        self._smul = smul
        self.zero = zero
        if zero not in self.index:
            raise InvalidInputError("module must contain its zero element")

    # -- basic operations -------------------------------------------------

    def add(self, x, y):
        return self._add(x, y)

    def smul(self, r, x):
        return self._smul(r, x)

    def neg(self, x):
        return self.smul(self.ring.neg(self.ring.one), x)

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_zero_module(self) -> bool:
        return self.order == 1

    def __repr__(self):
        return f"<module of order {self.order} over {self.ring}>"

    # -- substructures -----------------------------------------------------

    def additive_closure(self, seed) -> frozenset:
        closed = {self.zero}
        frontier = [e for e in seed if e not in closed]
        closed.update(frontier)
        while frontier:
            new = []
            for x in frontier:
                for y in list(closed):
                    s = self.add(x, y)
                    if s not in closed:
                        closed.add(s)
                        new.append(s)
            frontier = new
        return frozenset(closed)

    def span(self, gens) -> frozenset:
        """Submodule generated by ``gens``."""
        cyclic = set()
        for g in gens:
            for r in self.ring.elements():
                cyclic.add(self.smul(r, g))
        return self.additive_closure(cyclic)

    def submodule(self, members, check: bool = True) -> "FiniteModule":
        """Submodule on a subset; ``check=False`` skips the closure validation
        for subsets that are submodules by construction (kernels, idempotent
        images, torsion parts)."""
        members = frozenset(members)
        if check and members != self.span(members):
            raise InvalidInputError("subset is not a submodule")
        return FiniteModule(self.ring, members, self._add, self._smul, self.zero)

    def quotient(self, subgroup) -> "FiniteModule":
        """Quotient by a submodule; cosets represented by their minimal element."""
        subgroup = frozenset(subgroup)
        rep: dict = {}
        for e in self.elements:
            if e in rep:
                continue
            coset = [self.add(e, s) for s in subgroup]
            lead = min(coset)
            for c in coset:
                rep[c] = lead
        add = lambda x, y: rep[self._add(x, y)]
        smul = lambda r, x: rep[self._smul(r, x)]
        return FiniteModule(self.ring, set(rep.values()), add, smul, rep[self.zero])

    # -- generators, relations, homs ---------------------------------------

    @cached_property
    def generators(self) -> tuple:
        gens: list = []
        spanned = frozenset({self.zero})
        for e in self.elements:
            if e not in spanned:
                gens.append(e)
                spanned = self.span(gens)
        return tuple(gens)

    @cached_property
    def _presentation(self):
        """(expressions, relation generators) for the generator surjection R^k -> M.

        ``expressions`` maps each element to one coefficient tuple expressing it
        in the generators; relation generators generate the kernel submodule.
        """
        gens = self.generators
        k = len(gens)
        ring_elems = self.ring.elements()
        if len(ring_elems) ** k > 2_000_000:
            raise InvalidInputError("module requires too many generators for a sweep")
        expr: dict = {}
        relations: list = []
        for coeffs in itertools.product(ring_elems, repeat=k):
            m = self.zero
            for c, g in zip(coeffs, gens):
                m = self.add(m, self.smul(c, g))
            if m not in expr:
                expr[m] = coeffs
            if m == self.zero:
                relations.append(coeffs)
        # reduce the relation set to a small generating family (greedy)
        relmod = FiniteModule(self.ring, relations, *_vector_ops(self.ring, k))
        return expr, relmod.generators

    def express(self, x) -> tuple:
        return self._presentation[0][x]

    def homs_to(self, other: "FiniteModule"):
        """All module maps self -> other, as tuples of generator images."""
        _, relgens = self._presentation
        k = len(self.generators)
        out = []
        for images in itertools.product(other.elements, repeat=k):
            ok = True
            for rel in relgens:
                acc = other.zero
                for c, u in zip(rel, images):
                    acc = other.add(acc, other.smul(c, u))
                if acc != other.zero:
                    ok = False
                    break
            if ok:
                out.append(images)
        return out

    def hom_apply(self, images, x, other: "FiniteModule"):
        coeffs = self.express(x)
        acc = other.zero
        for c, u in zip(coeffs, images):
            acc = other.add(acc, other.smul(c, u))
        return acc

    # -- invariants ---------------------------------------------------------

    def element_annihilator(self, x) -> frozenset:
        return frozenset(r for r in self.ring.elements() if self.smul(r, x) == self.zero)

    @cached_property
    def annihilator_elements(self) -> frozenset:
        # sweeping all elements avoids computing a generating set first
        return frozenset(
            r
            for r in self.ring.elements()
            if all(self.smul(r, x) == self.zero for x in self.elements)
        )

    def local_invariants(self) -> dict:
        """Per local factor: the chain of sizes |t^j M_e|, an isomorphism invariant.

        Over a chain local ring with uniformizer t, the multiset of cyclic
        summand lengths of a finite module is determined by these sizes, so two
        modules over the same ring are isomorphic iff the dicts agree.
        """
        out = {}
        for factor in self.ring.local_factors():
            part = {self.smul(factor.idempotent, x) for x in self.elements}
            sizes = [len(part)]
            while len(part) > 1:
                part = {self.smul(factor.prime_gen, x) for x in part}
                sizes.append(len(part))
            out[factor.label] = tuple(sizes)
        return out

    def isomorphic_to(self, other: "FiniteModule") -> bool:
        if self.ring != other.ring:
            return False
        return self.local_invariants() == other.local_invariants()


# -- constructors -----------------------------------------------------------


def _vector_ops(ring, rank):
    add = lambda u, v: tuple(map(ring.add, u, v))
    smul = lambda r, u: tuple([ring.mul(r, a) for a in u])
    return add, smul, (ring.zero,) * rank


def free_module(ring, rank: int) -> FiniteModule:
    if rank < 0:
        raise InvalidInputError("rank must be nonnegative")
    if rank and len(ring.elements()) ** rank > 2_000_000:
        raise InvalidInputError(f"free module of rank {rank} too large to enumerate")
    elements = itertools.product(ring.elements(), repeat=rank)
    return FiniteModule(ring, elements, *_vector_ops(ring, rank))


def zero_module(ring) -> FiniteModule:
    return free_module(ring, 0)


def cokernel_of_rank(ring, rank: int, relations) -> FiniteModule:
    """Quotient of the free module of the given rank by the span of the
    relation vectors (equal-length tuples of ring elements)."""
    relations = [tuple(v) for v in relations]
    for v in relations:
        if len(v) != rank:
            raise InvalidInputError("relation length does not match ambient rank")
    free = free_module(ring, rank)
    return free.quotient(free.span(relations))


def cyclic_module(ring, annihilator_gen) -> FiniteModule:
    """R / (g) as a concrete module."""
    return cokernel_of_rank(ring, 1, [(annihilator_gen,)])


def direct_sum(m1: FiniteModule, m2: FiniteModule) -> FiniteModule:
    if m1.ring != m2.ring:
        raise InvalidInputError("direct sum requires a common ring")
    add = lambda p, q: (m1.add(p[0], q[0]), m2.add(p[1], q[1]))
    smul = lambda r, p: (m1.smul(r, p[0]), m2.smul(r, p[1]))
    zero = (m1.zero, m2.zero)
    elements = itertools.product(m1.elements, m2.elements)
    return FiniteModule(m1.ring, elements, add, smul, zero)


def restrict_scalars(module: FiniteModule, ring, proj) -> FiniteModule:
    """View a module over a quotient/localized ring as a module over ``ring``."""
    smul = lambda r, x: module.smul(proj(r), x)
    return FiniteModule(ring, module.elements, module._add, smul, module.zero)
