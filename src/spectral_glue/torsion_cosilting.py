"""Hereditary torsion pairs, the injective-class bijection, and cosilting modules.

Torsion classes are cut out by a Thomason set through supports; cosilting
modules are finite modules with an injective copresentation eta whose class
B_eta is compared with Cogen(C) on every cyclic module, which decides the
equality because both classes are closed under finite sums and summands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from . import modules as mod
from . import rings as rng
from .errors import InvalidInputError
from .modules import FiniteModule
from .poset import PrimeId
from .rings import FiniteRing, Ideal
from .thomason import ThomasonFiltration, ThomasonSet, from_levels


# -- torsion pairs -----------------------------------------------------------


def _element_support(module: FiniteModule, x) -> frozenset[PrimeId]:
    """V(Ann(x)) as a set of prime labels."""
    ann = module.element_annihilator(x)
    _, labeling = rng.spec(module.ring)
    return frozenset(label for label, prime in labeling.items() if ann <= prime.members)


def torsion_submodule(module: FiniteModule, x_set: ThomasonSet) -> FiniteModule:
    """Largest submodule supported in the Thomason set: {x | V(Ann x) in X}."""
    poset, _ = rng.spec(module.ring)
    if x_set.poset != poset:
        raise InvalidInputError("Thomason set does not live on spec of the module's ring")
    allowed = x_set.members
    members = frozenset(x for x in module.elements if _element_support(module, x) <= allowed)
    return module.submodule(members, check=False)


def is_torsion(module: FiniteModule, x_set: ThomasonSet) -> bool:
    if module.is_zero_module():
        return True
    return rng.support(module) <= x_set


def is_torsionfree(module: FiniteModule, x_set: ThomasonSet) -> bool:
    return torsion_submodule(module, x_set).is_zero_module()


def thomason_of_torsion_class(ring: FiniteRing, torsion_cyclics) -> ThomasonSet:
    """T |-> union of V(I) over the ideals whose cyclic quotient is torsion."""
    poset, _ = rng.spec(ring)
    result = ThomasonSet.empty(poset)
    for ideal in torsion_cyclics:
        result = result.union(rng.v_of_ideal(ring, ideal))
    return result


class TorsionTable:
    """The enumerations behind the torsion bijections, each made once per ring.

    Every Thomason set X of Spec(R) is then answered by mask tests:
    - the torsion class of X holds the ideals I with Supp(R/I) in X;
    - its injective class holds the indecomposable injectives E with no
      nonzero element supported in X;
    - X is recovered from that class as the union of V(I) over the I with
      Hom(R/I, E) = 0 for every E in it.

    The supports come from the same computations as :func:`is_torsion` (the
    local size chains of each built R/I) and :func:`torsion_submodule` (the
    annihilator of each element of E), the vanishing from
    :func:`_annihilated_part`.  Each part is built when first asked for.
    """

    def __init__(self, ring: FiniteRing):
        self.ring = ring
        self.poset, _ = rng.spec(ring)

    @cached_property
    def ideals(self) -> list[Ideal]:
        return rng.all_ideals(self.ring)

    @cached_property
    def v_masks(self) -> list[int]:
        """V(I) as a mask, per ideal."""
        return [rng.v_of_ideal(self.ring, ideal).mask for ideal in self.ideals]

    @cached_property
    def cyclic_supports(self) -> list[int]:
        """Supp(R/I) as a mask, per ideal."""
        out = []
        for ideal in self.ideals:
            quotient = mod.cyclic_module(self.ring, ideal.generators[0])
            out.append(0 if quotient.is_zero_module() else rng.support(quotient).mask)
        return out

    @cached_property
    def injectives(self) -> list[FiniteModule]:
        return rng.indecomposable_injectives(self.ring)

    @cached_property
    def element_supports(self) -> list[frozenset[int]]:
        """Per injective, the masks V(Ann x) of its nonzero elements x."""
        return [
            frozenset(
                self.poset.mask_of(_element_support(e, x)) for x in e.elements if x != e.zero
            )
            for e in self.injectives
        ]

    @cached_property
    def hom_vanishing(self) -> list[tuple[bool, ...]]:
        """Per ideal I and injective E, whether Hom(R/I, E) = 0."""
        # only zero is killed by I = (g)
        return [
            tuple(len(_annihilated_part(e, ideal.generators[0])) == 1 for e in self.injectives)
            for ideal in self.ideals
        ]

    def torsion_class(self, x_set: ThomasonSet) -> list[Ideal]:
        self._same_spec(x_set)
        outside = ~x_set.mask
        return [i for i, s in zip(self.ideals, self.cyclic_supports) if not s & outside]

    def injective_class(self, x_set: ThomasonSet) -> tuple[int, ...]:
        """Indices into :attr:`injectives` of the class of X."""
        self._same_spec(x_set)
        outside = ~x_set.mask
        return tuple(
            j
            for j, supports in enumerate(self.element_supports)
            if all(s & outside for s in supports)
        )

    def recovered(self, injective_class: tuple[int, ...]) -> ThomasonSet:
        """The Thomason set recovered from a class of injective indices."""
        mask = 0
        for v, vanishing in zip(self.v_masks, self.hom_vanishing):
            if all(vanishing[j] for j in injective_class):
                mask |= v
        return ThomasonSet(self.poset, mask)

    def _same_spec(self, x_set: ThomasonSet) -> None:
        if x_set.poset != self.poset:
            raise InvalidInputError("Thomason set does not live on spec of the ring")


def injective_class_of(ring: FiniteRing, x_set: ThomasonSet) -> list[FiniteModule]:
    """Indecomposable injectives that are torsion-free for the pair of X."""
    table = TorsionTable(ring)
    return [table.injectives[j] for j in table.injective_class(x_set)]


def thomason_of_injective_class(ring: FiniteRing, injectives) -> ThomasonSet:
    """Recover X from the injective class via Hom-vanishing on cyclics.

    X = union of V(I) over ideals I with Hom(R/I, E) = 0 for every E in the
    class; inverse to :func:`injective_class_of` on Thomason sets.
    """
    poset, _ = rng.spec(ring)
    result = ThomasonSet.empty(poset)
    for ideal in rng.all_ideals(ring):
        # only zero is killed by I = (g)
        if all(len(_annihilated_part(e, ideal.generators[0])) == 1 for e in injectives):
            result = result.union(rng.v_of_ideal(ring, ideal))
    return result


# -- cosilting modules -------------------------------------------------------


@dataclass(frozen=True)
class CosiltingModule:
    """A module with an injective copresentation 0 -> C -> Q0 --eta--> Q1.

    ``eta`` is given by the images of Q0's generators in Q1 and kept as its
    graph, a dict from each element of Q0 to its image; ``module`` is the
    kernel of eta inside Q0.  Whether B_eta = Cogen(C) actually holds is
    checked separately by :func:`is_cosilting`, one cyclic module at a time.
    """

    ring: FiniteRing
    q0: FiniteModule
    q1: FiniteModule
    eta: tuple = ()
    graph: dict = field(init=False, repr=False, compare=False)
    module: FiniteModule = field(init=False)

    def __post_init__(self):
        eta = tuple(self.eta)
        if len(eta) != len(self.q0.generators):
            raise InvalidInputError(
                "eta must give one image in Q1 per generator of Q0"
            )
        for y in eta:
            if y not in self.q1.index:
                raise InvalidInputError("eta image is not an element of Q1")
        graph = self.q0.hom_graph(eta, self.q1)
        if graph is None:
            raise InvalidInputError("eta does not respect the relations of Q0")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "graph", graph)
        kernel = frozenset(x for x, y in graph.items() if y == self.q1.zero)
        object.__setattr__(self, "module", self.q0.submodule(kernel, check=False))

    def apply_eta(self, x):
        return self.graph[x]

    def is_degenerate(self) -> bool:
        return self.module.is_zero_module()


def cosilting_from_modules(ring: FiniteRing, summands) -> CosiltingModule:
    """The cosilting module C = (product of the given indecomposable injectives)
    with Q0 = C and eta = 0 into the complementary injectives.

    Over the quasi-Frobenius rings in scope every indecomposable injective is a
    local factor of R, so splitting the injective cogenerator along a subset of
    the maximal spectrum yields a cosilting module in this normal form.
    """
    summands = list(summands)
    injectives = rng.indecomposable_injectives(ring)
    chosen = []
    complement = []
    for e in injectives:
        if any(e.isomorphic_to(s) for s in summands):
            chosen.append(e)
        else:
            complement.append(e)
    if len(chosen) != len(summands):
        raise InvalidInputError("summands must be distinct indecomposable injectives")
    q0 = mod.direct_sum(ring, chosen)
    q1 = mod.direct_sum(ring, complement)
    eta = tuple(q1.zero for _ in q0.generators)
    return CosiltingModule(ring, q0, q1, eta)


def cyclic_annihilators(ring: FiniteRing) -> list:
    """One principal annihilator per nonzero cyclic module R/(g)."""
    out = []
    everything = frozenset(ring.elements())
    for ideal in rng.all_ideals(ring):
        if ideal.members != everything:
            out.append(ideal.generators[0])
    return out


def _annihilated_part(target: FiniteModule, a) -> list:
    """Hom(R/(a), N) as the elements of N killed by a."""
    return [x for x in target.elements if target.smul(a, x) == target.zero]


def cyclic_in_cogen(ring: FiniteRing, a, cogenerator: FiniteModule) -> bool:
    """R/(a) embeds in a power of C iff Hom(R/(a), C) separates its points,
    i.e. for every r outside (a) some a-torsion element c of C has rc != 0."""
    torsion = _annihilated_part(cogenerator, a)
    ideal = Ideal(ring, (a,)).members
    for r in ring.elements():
        if r in ideal:
            continue
        if all(cogenerator.smul(r, c) == cogenerator.zero for c in torsion):
            return False
    return True


def cyclic_in_b_eta(ring: FiniteRing, a, cosilting: CosiltingModule) -> bool:
    """R/(a) in B_eta iff eta maps the a-torsion of Q0 onto that of Q1."""
    image = {cosilting.apply_eta(c) for c in _annihilated_part(cosilting.q0, a)}
    return image >= set(_annihilated_part(cosilting.q1, a))


def is_cosilting(cosilting: CosiltingModule) -> bool:
    """Check B_eta = Cogen(C) on every cyclic module R/(a).

    Both classes are closed under finite direct sums and direct summands, and
    over products of chain rings every finite module is a direct sum of
    cyclics, so the two classes are equal iff they hold the same cyclics.
    """
    ring = cosilting.ring
    return all(
        cyclic_in_b_eta(ring, a, cosilting) == cyclic_in_cogen(ring, a, cosilting.module)
        for a in cyclic_annihilators(ring)
    )


def cosilting_thomason_of_module(cosilting: CosiltingModule) -> ThomasonSet:
    """Y = union of V(I) over ideals I with Hom(R/I, C) = 0."""
    return thomason_of_injective_class(cosilting.ring, [cosilting.module])


def two_term_filtration(x0: ThomasonSet) -> ThomasonFiltration:
    """Full for n < 0, X0 at n = 0, empty for n >= 1; always non-degenerate."""
    poset = x0.poset
    return from_levels(poset, -1, (ThomasonSet.full(poset), x0, ThomasonSet.empty(poset)))


# -- gluing of cosilting modules --------------------------------------------


def components_of_cosilting(cosilting: CosiltingModule) -> dict[PrimeId, CosiltingModule]:
    """C |-> {C^m}: the idempotent components, as cosilting data over each R_m."""
    return {
        lf.label: _component_cosilting(cosilting, lf)
        for lf in cosilting.ring.local_factors()
    }


def _component_cosilting(cosilting: CosiltingModule, lf) -> CosiltingModule:
    q0 = lf.component(cosilting.q0)
    q1 = lf.component(cosilting.q1)
    # eta commutes with the idempotent, so it restricts to the components
    eta = tuple(cosilting.apply_eta(g) for g in q0.generators)
    return CosiltingModule(lf.ring, q0, q1, eta)


def glue_cosilting(
    ring: FiniteRing, family: Mapping[PrimeId, CosiltingModule]
) -> CosiltingModule:
    """Product of a family of local cosilting modules over the global ring.

    The family must assign one cosilting module over R_m to every maximal m.
    """
    factors = {lf.label: lf for lf in ring.local_factors()}
    if set(family) != set(factors):
        raise InvalidInputError(
            f"family keys {sorted(family)} do not match maximal ideals {sorted(factors)}"
        )
    labels = sorted(factors)
    q0_parts, q1_parts = [], []
    for label in labels:
        lf = factors[label]
        local = family[label]
        if local.ring != lf.ring:
            raise InvalidInputError(f"component at {label!r} lives over the wrong ring")
        q0_parts.append(mod.restrict_scalars(local.q0, ring, lf.proj))
        q1_parts.append(mod.restrict_scalars(local.q1, ring, lf.proj))
    q0 = mod.direct_sum(ring, q0_parts)
    q1 = mod.direct_sum(ring, q1_parts)
    # each local eta acts on its own component
    eta = tuple(
        tuple(family[l].apply_eta(x) for l, x in zip(labels, g)) for g in q0.generators
    )
    return CosiltingModule(ring, q0, q1, eta)


def cosilting_equivalent(c: CosiltingModule, d: CosiltingModule) -> bool:
    """Cogen(C) = Cogen(D), decided by Krull-Schmidt invariants.

    Over products of chain rings the indecomposable summands of a finite
    module are the local cyclics; Prod-equivalence means the same set of
    distinct local summand lengths on each factor.
    """
    if c.ring != d.ring:
        return False
    return _distinct_lengths(c.module) == _distinct_lengths(d.module)


def _distinct_lengths(module: FiniteModule) -> dict:
    """Per local factor: the set of cyclic summand lengths occurring in M.

    Derived from the size chain |t^j M_e|: length-l summands exist iff the
    successive quotient ratios drop between steps l-1 and l.
    """
    out = {}
    for label, sizes in module.local_invariants().items():
        # sizes[j] = |t^j M_e|; the number of summands of length > j is
        # log_q(sizes[j]/sizes[j+1]); a length-l summand exists iff that
        # count strictly drops from j = l-1 to j = l.
        counts = []
        for j in range(len(sizes) - 1):
            counts.append(sizes[j] // sizes[j + 1])
        lengths = set()
        for l in range(1, len(counts) + 1):
            here = counts[l - 1]
            after = counts[l] if l < len(counts) else 1
            if here > after:
                lengths.add(l)
        out[label] = frozenset(lengths)
    return out


def cosilting_from_json(ring: FiniteRing, data: Mapping) -> CosiltingModule:
    """{"q0": module-json, "q1": module-json, "eta": [[row] per generator]}.

    ``eta`` lists, per generator of Q0, the coefficient vector of its image in
    Q1's ambient presentation (an element of Q1).
    """
    try:
        q0 = rng.module_from_json(ring, data["q0"])
        q1 = rng.module_from_json(ring, data["q1"])
        eta_rows = data.get("eta", [])
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed cosilting JSON: {exc}") from exc
    rank = len(q1.zero)
    if not isinstance(eta_rows, list) or any(
        not isinstance(row, list) or len(row) != rank for row in eta_rows
    ):
        raise InvalidInputError(
            f"'eta' must be a list of rows of {rank} ring elements, got {eta_rows!r}"
        )
    # adding zero reduces an ambient vector to its coset representative
    eta = [q1.add(tuple(ring.element_from_json(c) for c in row), q1.zero) for row in eta_rows]
    return CosiltingModule(ring, q0, q1, tuple(eta))
