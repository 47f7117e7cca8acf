"""Concrete finite modules with enumerable elements.

A module is a finite set of hashable elements together with addition and a
scalar action of its ring.  ``add`` and ``smul`` are the functions the
module was built with, kept as attributes and called directly, so a sum is
one call into them.  Everything downstream (cohomology, Hom groups,
torsion parts) works by element sweeps, which is the intended correctness
oracle at desk scale; the Hom enumeration of :mod:`homalg` runs on element
indices through each module's :class:`IndexArithmetic`.  Rings are
duck-typed: their elements are the ints ``0 .. |R| - 1`` returned by
``elements()``, with ``zero``, ``one``, ``add``, ``neg`` and ``mul``.  Module
elements are tuples built from ring elements, so they sort in the order of
the ring's elements.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType

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
        self.add = add  # (x, y) -> x + y
        self.smul = smul  # (r, x) -> r x
        self.zero = zero
        if zero not in self.index:
            raise InvalidInputError("module must contain its zero element")

    # -- basic operations -------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def arithmetic(self) -> "IndexArithmetic":
        return IndexArithmetic(self)

    def is_zero_module(self) -> bool:
        return self.order == 1

    def __repr__(self):
        return f"<module of order {self.order} over {self.ring}>"

    # -- substructures -----------------------------------------------------

    def additive_closure(self, seed) -> frozenset:
        """The subgroup generated by ``seed``, grown by cosets: for each s
        outside the closed subgroup H, add H + s, H + 2s, ... until a multiple
        of s falls back into H, so each new generator costs |H + <s>| sums."""
        closed = {self.zero}
        for s in seed:
            if s in closed:
                continue
            coset = list(closed)
            # closed is a union of cosets of H, so one sum tells whether ks is in it
            while self.add(coset[0], s) not in closed:
                coset = [self.add(x, s) for x in coset]
                closed.update(coset)
        return frozenset(closed)

    def span(self, gens) -> frozenset:
        """Submodule generated by ``gens``."""
        cyclic = set()
        for g in gens:
            for r in self.ring.elements():
                cyclic.add(self.smul(r, g))
        return self.additive_closure(cyclic)

    def submodule(self, members) -> "FiniteModule":
        """Submodule on a subset that is one by construction (kernels,
        images rM, torsion parts); the subset is not checked."""
        return FiniteModule(self.ring, frozenset(members), self.add, self.smul, self.zero)

    def quotient(self, subgroup) -> "FiniteModule":
        """Quotient by a submodule; cosets represented by their minimal element."""
        subgroup = frozenset(subgroup)
        if subgroup == {self.zero}:  # every coset is one element
            return self
        rep: dict = {}
        for e in self.elements:
            if e in rep:
                continue
            coset = [self.add(e, s) for s in subgroup]
            lead = min(coset)
            for c in coset:
                rep[c] = lead
        add = lambda x, y: rep[self.add(x, y)]
        smul = lambda r, x: rep[self.smul(r, x)]
        return FiniteModule(self.ring, set(rep.values()), add, smul, rep[self.zero])

    def scaled(self, r) -> "FiniteModule":
        """The submodule rM."""
        return self.submodule(self.smul(r, x) for x in self.elements)

    # -- generators and homs -----------------------------------------------

    @cached_property
    def generators(self) -> tuple:
        gens: list = []
        spanned = frozenset({self.zero})
        for e in self.elements:
            if e not in spanned:
                gens.append(e)
                spanned = self.span(gens)
        return tuple(gens)

    def hom_graph(self, images, other: "FiniteModule"):
        """The map self -> other sending the generators to ``images``, as a
        dict x -> image, or None when no such map exists.

        The graph is the submodule of the direct sum of self and other spanned
        by the pairs (g_i, u_i).  It is walked over self only: from zero, add
        the pairs (r g_i, r u_i) to every point reached; the map fails to exist
        as soon as one element of self is reached with two different images.
        """
        seeds: dict = {}
        for g, u in zip(self.generators, images):
            for r in self.ring.elements():
                x, y = self.smul(r, g), other.smul(r, u)
                if seeds.setdefault(x, y) != y:
                    return None
        graph = {self.zero: other.zero}
        frontier = [self.zero]
        while frontier:
            new = []
            for x in frontier:
                y = graph[x]
                for s, t in seeds.items():
                    xs, yt = self.add(x, s), other.add(y, t)
                    if xs not in graph:
                        graph[xs] = yt
                        new.append(xs)
                    elif graph[xs] != yt:
                        return None
            frontier = new
        return graph

    def homs_to(self, other: "FiniteModule"):
        """All module maps self -> other, as tuples of generator images."""
        return [
            images
            for images in itertools.product(other.elements, repeat=len(self.generators))
            if self.hom_graph(images, other) is not None
        ]

    # -- invariants ---------------------------------------------------------

    def local_invariants(self) -> Mapping[str, tuple]:
        """Per local factor: the chain of sizes |t^j M_e|, an isomorphism invariant.

        Over a chain local ring with uniformizer t, the multiset of cyclic
        summand lengths of a finite module is determined by these sizes, so two
        modules over the same ring are isomorphic iff the mappings agree.  The
        sizes are computed once per module and returned read-only.
        """
        return self._local_invariants

    @cached_property
    def _local_invariants(self) -> Mapping[str, tuple]:
        out = {}
        for factor in self.ring.local_factors():
            part = self.scaled(factor.idempotent)
            sizes = [part.order]
            while part.order > 1:
                part = part.scaled(factor.prime_gen)
                if part.order == sizes[-1]:
                    # t acts nilpotently on e_m M, so each step shrinks it
                    raise AssertionError(f"the prime generator of {factor.label} is not nilpotent")
                sizes.append(part.order)
            out[factor.label] = tuple(sizes)
        return MappingProxyType(out)

    def isomorphic_to(self, other: "FiniteModule") -> bool:
        if self.ring != other.ring:
            return False
        return self.local_invariants() == other.local_invariants()


class IndexArithmetic:
    """The sum and the scalar action of a module on element indices: index k
    stands for ``module.elements[k]``.

    ``scale(r)`` is the row of r x over all indices x, built the first time r
    is asked for, and sums are memoised per pair of indices as they are
    asked, so no table of size |M|^2 is ever built.
    """

    def __init__(self, module: FiniteModule):
        self.module = module
        self.zero = module.index[module.zero]
        self.sums: dict = {}  # a * |M| + b -> the index of a + b
        self.rows: dict = {}  # r -> (the index of r x for each index x)

    def add(self, a: int, b: int) -> int:
        m = self.module
        key = a * len(m.elements) + b
        s = self.sums.get(key)
        if s is None:
            s = self.sums[key] = m.index[m.add(m.elements[a], m.elements[b])]
        return s

    def scale(self, r) -> tuple:
        row = self.rows.get(r)
        if row is None:
            m = self.module
            row = self.rows[r] = tuple([m.index[m.smul(r, x)] for x in m.elements])
        return row

    def smul(self, r, a: int) -> int:
        """r times one element: read off the row of r if it is built, else
        computed alone, so a few products build no row of |M|."""
        row = self.rows.get(r)
        if row is not None:
            return row[a]
        m = self.module
        return m.index[m.smul(r, m.elements[a])]


# -- constructors -----------------------------------------------------------

# the most elements a module, a Hom term or a Koszul middle term may have
# before anything is enumerated
ENUMERATION_LIMIT = 2_000_000


def power_exceeds(base: int, exponent: int, bound: int) -> bool:
    """Whether base ** exponent > bound, for base >= 2, without forming the
    power: multiplying up stops once past the bound, after about log2(bound)
    steps however large the exponent."""
    power = 1
    for _ in range(exponent):
        power *= base
        if power > bound:
            return True
    return False


def free_module(ring, rank: int) -> FiniteModule:
    if rank < 0:
        raise InvalidInputError(f"module 'rank' must be nonnegative, got {rank}")
    elements = ring.elements()  # the integers adapter raises here
    # the order, not len(elements): a product of many factors overflows len()
    if power_exceeds(ring.order, rank, ENUMERATION_LIMIT):
        raise InvalidInputError(f"free module of rank {rank} too large to enumerate")
    elements = itertools.product(elements, repeat=rank)
    add = lambda u, v: tuple(map(ring.add, u, v))
    smul = lambda r, u: tuple([ring.mul(r, a) for a in u])
    return FiniteModule(ring, elements, add, smul, (ring.zero,) * rank)


def zero_module(ring) -> FiniteModule:
    return free_module(ring, 0)


def cokernel_of_rank(ring, rank: int, relations) -> FiniteModule:
    """Quotient of the free module of the given rank by the span of the
    relation vectors (equal-length tuples of ring elements)."""
    relations = [tuple(v) for v in relations]
    for v in relations:
        if len(v) != rank:
            raise InvalidInputError(
                f"a row of 'relations' has length {len(v)}, not the module 'rank' {rank}"
            )
    free = free_module(ring, rank)
    return free.quotient(free.span(relations))


def direct_sum(ring, summands) -> FiniteModule:
    """The direct sum of the summands, on flat tuples with one component per
    summand; no summands give the zero module."""
    summands = list(summands)
    if any(m.ring != ring for m in summands):
        raise InvalidInputError("direct sum requires a common ring")
    add = lambda p, q: tuple([m.add(a, b) for m, a, b in zip(summands, p, q)])
    smul = lambda r, p: tuple([m.smul(r, a) for m, a in zip(summands, p)])
    zero = tuple(m.zero for m in summands)
    elements = itertools.product(*(m.elements for m in summands))
    return FiniteModule(ring, elements, add, smul, zero)


def restrict_scalars(module: FiniteModule, ring, proj) -> FiniteModule:
    """View a module over a quotient/localized ring as a module over ``ring``."""
    smul = lambda r, x: module.smul(proj(r), x)
    return FiniteModule(ring, module.elements, module.add, smul, module.zero)
