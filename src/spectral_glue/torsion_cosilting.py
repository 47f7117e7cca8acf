"""Hereditary torsion pairs, the injective-class bijection, and cosilting modules.

Torsion classes are cut out by a Thomason set through supports, masks of
Spec(R) by factor index: the support of an element x holds the maximal m with
e_m x nonzero (:func:`rings.element_support`), read off the idempotents, and
the cyclic modules R/I come from the ring's ideal table.
Cosilting modules are finite modules with an injective copresentation eta,
kept as the map itself (a dict on the elements of Q0): splitting restricts it
to each e_m Q0, gluing takes the product of the local maps, and the wire reads
it off one row per basis vector of Q0's presentation.  A
:class:`CosiltingModule` is an immutable value that finds its kernel
``module`` once, at construction.  Its class B_eta is
compared with Cogen(C) on every cyclic module, which decides the equality
because both classes are closed under finite sums and summands.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import cached_property

from . import modules as mod
from . import rings as rng
from .errors import InvalidInputError, json_object
from .modules import ENUMERATION_LIMIT, FiniteModule, power_exceeds
from .poset import PrimeId
from .rings import FiniteRing, Ideal
from .thomason import ThomasonFiltration, ThomasonSet, make_filtration
from .values import Value


# -- torsion pairs -----------------------------------------------------------


def torsion_submodule(module: FiniteModule, x_set: ThomasonSet) -> FiniteModule:
    """Largest submodule supported in the Thomason set: {x | V(Ann x) in X},
    that is the x with e_m x = 0 for every maximal ideal m outside X."""
    if x_set.poset != rng.spec(module.ring):
        raise InvalidInputError("Thomason set does not live on spec of the module's ring")
    outside = ~x_set.mask
    members = frozenset(x for x in module.elements if not rng.element_support(module, x) & outside)
    return module.submodule(members)


def thomason_of_torsion_class(ring: FiniteRing, torsion_cyclics) -> ThomasonSet:
    """T |-> union of V(I) over the ideals whose cyclic quotient is torsion."""
    poset = rng.spec(ring)
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

    The supports come from :func:`rings.support` (a witness e_m x != 0 per
    factor in each built R/I) and from :func:`rings.element_support` of each
    element of E, as :func:`torsion_submodule` reads them, the vanishing from
    :func:`_annihilated_part`.  Each part is built when first asked for; a
    ring too large to tabulate is refused before anything is listed.
    """

    def __init__(self, ring: FiniteRing):
        self.ring = ring
        self.poset = rng.spec(ring)
        ring._check_tabulable()

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
            quotient = rng.cyclic_module(self.ring, ideal.generators[0])
            out.append(0 if quotient.is_zero_module() else rng.support(quotient).mask)
        return out

    @cached_property
    def injectives(self) -> list[FiniteModule]:
        return rng.indecomposable_injectives(self.ring)

    @cached_property
    def element_supports(self) -> list[frozenset[int]]:
        """Per injective, the masks V(Ann x) of its nonzero elements x."""
        return [
            frozenset(rng.element_support(e, x) for x in e.elements if x != e.zero)
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


# -- cosilting modules -------------------------------------------------------

# The cosilting verbs evaluate eta on every element of Q0, whose cost grows
# with the length w of an element, and pass over Q0, Q1 and the kernel once
# per ideal of R.  So Q0 and Q1 may cost at most this many steps together,
# |Q| (w + the number of ideals) summed over both.  Calls near the bound took
# under 0.7 s on a 2-core Xeon (Python 3.11).
MAX_COPRESENTATION_STEPS = ENUMERATION_LIMIT // 10


def _check_steps(ring: FiniteRing, sizes) -> None:
    """Refuse Q0 and Q1 of the given (order, element length) over the bound,
    before either is enumerated."""
    ideals = len(rng.all_ideals(ring))
    if sum(order * (width + ideals) for order, width in sizes) > MAX_COPRESENTATION_STEPS:
        raise InvalidInputError(
            f"Q0 and Q1 over {ring.describe()} cost more steps than the bound "
            f"MAX_COPRESENTATION_STEPS = {MAX_COPRESENTATION_STEPS}"
        )


class CosiltingModule(Value):
    """A module with an injective copresentation 0 -> C -> Q0 --eta--> Q1.

    ``eta`` is the map itself, a dict sending every element of Q0 to its image
    in Q1; ``module`` is the kernel of eta inside Q0.  The constructor checks
    only that the dict has Q0's elements as keys and Q1's as values: the
    package's constructions give module maps by construction, and
    :func:`cosilting_from_json` checks the relations of Q0 where a map is read.
    Whether B_eta = Cogen(C) actually holds is checked separately by
    :func:`is_cosilting`, one cyclic module at a time.
    """

    _fields = ("ring", "q0", "q1", "eta", "module")

    def __init__(self, ring: FiniteRing, q0: FiniteModule, q1: FiniteModule, eta: dict):
        if eta.keys() != q0.index.keys() or not all(y in q1.index for y in eta.values()):
            raise InvalidInputError("eta must send every element of Q0 to an element of Q1")
        kernel = frozenset(x for x, y in eta.items() if y == q1.zero)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "module", q0.submodule(kernel))

    def is_degenerate(self) -> bool:
        return self.module.is_zero_module()

    @cached_property
    def q0_torsion(self) -> dict:
        """{a: the a-torsion of Q0} over the :func:`cyclic_annihilators` a,
        listed once for :func:`is_cosilting` and :func:`cosilting_thomason_of_module`."""
        return {a: _annihilated_part(self.q0, a) for a in cyclic_annihilators(self.ring)}

    @cached_property
    def torsion(self) -> dict:
        """{a: the a-torsion of C, that is Hom(R/(a), C)}: C = ker eta lies in
        Q0, so it is the a-torsion of Q0 that eta sends to zero."""
        zero = self.q1.zero
        return {a: [x for x in part if self.eta[x] == zero] for a, part in self.q0_torsion.items()}


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
    return CosiltingModule(ring, q0, q1, dict.fromkeys(q0.elements, q1.zero))


def cyclic_annihilators(ring: FiniteRing) -> list:
    """One principal annihilator per nonzero cyclic module R/(g)."""
    return [i.generators[0] for i in rng.all_ideals(ring) if len(i.members) < ring.order]


def _annihilated_part(target: FiniteModule, a) -> list:
    """Hom(R/(a), N) as the elements of N killed by a."""
    return [x for x in target.elements if target.smul(a, x) == target.zero]


def cyclic_in_cogen(ring: FiniteRing, a, cosilting: CosiltingModule) -> bool:
    """R/(a) embeds in a power of C iff Hom(R/(a), C) separates its points,
    i.e. for every r outside (a) some a-torsion element c of C has rc != 0."""
    c_mod, torsion = cosilting.module, cosilting.torsion[a]
    ideal = rng.principal_members(ring, a)
    for r in ring.elements():
        if r in ideal:
            continue
        if all(c_mod.smul(r, c) == c_mod.zero for c in torsion):
            return False
    return True


def cyclic_in_b_eta(ring: FiniteRing, a, cosilting: CosiltingModule) -> bool:
    """R/(a) in B_eta iff eta maps the a-torsion of Q0 onto that of Q1."""
    image = {cosilting.eta[c] for c in cosilting.q0_torsion[a]}
    return image >= set(_annihilated_part(cosilting.q1, a))


def is_cosilting(cosilting: CosiltingModule) -> bool:
    """Check B_eta = Cogen(C) on every cyclic module R/(a).

    Both classes are closed under finite direct sums and direct summands, and
    over products of chain rings every finite module is a direct sum of
    cyclics, so the two classes are equal iff they hold the same cyclics.
    """
    ring = cosilting.ring
    return all(
        cyclic_in_b_eta(ring, a, cosilting) == cyclic_in_cogen(ring, a, cosilting)
        for a in cyclic_annihilators(ring)
    )


def cosilting_thomason_of_module(cosilting: CosiltingModule) -> ThomasonSet:
    """Y = union of V(I) over ideals I with Hom(R/I, C) = 0."""
    # only zero is killed by I = (g); the unit ideal, whose V is empty, has no entry
    torsion = cosilting.torsion
    ideals = [i for i in rng.all_ideals(cosilting.ring) if len(torsion.get(i.generators[0], ())) == 1]
    return thomason_of_torsion_class(cosilting.ring, ideals)


def two_term_filtration(x0: ThomasonSet) -> ThomasonFiltration:
    """Full for n < 0, X0 at n = 0, empty for n >= 1; always non-degenerate."""
    poset = x0.poset
    return make_filtration(poset, ThomasonSet.full(poset), [(0, x0)], ThomasonSet.empty(poset))


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
    return CosiltingModule(lf.ring, q0, q1, {x: cosilting.eta[x] for x in q0.elements})


def glue_cosilting(
    ring: FiniteRing, family: Mapping[PrimeId, CosiltingModule]
) -> CosiltingModule:
    """Product of a family of local cosilting modules over the global ring.

    The family must assign one cosilting module over R_m to every maximal m.
    """
    factors = ring.local_factors()
    labels = [lf.label for lf in factors]
    if set(family) != set(labels):
        raise InvalidInputError(
            f"family keys {sorted(family)} do not match maximal ideals {labels}: "
            "'components' gives a local cosilting module at every maximal ideal"
        )
    q0_parts, q1_parts = [], []
    for lf in factors:
        local = family[lf.label]
        if local.ring != lf.ring:
            raise InvalidInputError(f"component at {lf.label!r} lives over the wrong ring")
        q0_parts.append(mod.restrict_scalars(local.q0, ring, lf.proj))
        q1_parts.append(mod.restrict_scalars(local.q1, ring, lf.proj))
    # a sum has the product of its parts' orders, its elements their lengths' sum
    _check_steps(
        ring,
        [
            (math.prod(m.order for m in parts), sum(len(m.zero) for m in parts))
            for parts in (q0_parts, q1_parts)
        ],
    )
    q0 = mod.direct_sum(ring, q0_parts)
    q1 = mod.direct_sum(ring, q1_parts)
    # each local eta acts on its own component
    etas = [family[label].eta for label in labels]
    eta = {x: tuple([e[c] for e, c in zip(etas, x)]) for x in q0.elements}
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
    """{"q0": module-json, "q1": module-json, "eta": [[row] per basis vector]}.

    Q0 is presented as R^r/(relations), with r the length of its elements.
    ``eta`` has one row per basis vector e_1 .. e_r of R^r: the coefficient
    vector of eta(e_i) in Q1's ambient presentation, reduced to its coset
    representative.  Each coset representative x of Q0 goes to
    x_1 eta(e_1) + ... + x_r eta(e_r), which is a module map exactly when
    every relation row of Q0 goes to zero.
    """
    json_object(data, "cosilting JSON")
    for name in ("q0", "q1"):
        if name not in data:
            raise InvalidInputError(f"cosilting JSON needs the field {name!r}")
    r0, relations = rng.module_presentation(ring, data["q0"])
    r1, relations1 = rng.module_presentation(ring, data["q1"])
    eta_rows = data.get("eta", [])
    ring.elements()  # the integers adapter raises here
    # a power over the bound is not formed: any order past it is refused
    bound = MAX_COPRESENTATION_STEPS
    _check_steps(
        ring,
        [(bound + 1 if power_exceeds(ring.order, r, bound) else ring.order**r, r) for r in (r0, r1)],
    )
    q0 = mod.cokernel_of_rank(ring, r0, relations)
    q1 = mod.cokernel_of_rank(ring, r1, relations1)
    if (
        not isinstance(eta_rows, list)
        or len(eta_rows) != r0
        or any(not isinstance(row, list) or len(row) != r1 for row in eta_rows)
    ):
        raise InvalidInputError(
            f"'eta' must be a list of {r0} rows, one per basis vector of Q0's "
            f"presentation, each of {r1} ring elements, got {eta_rows!r}"
        )
    # adding zero reduces an ambient vector to its coset representative
    images = [q1.add(tuple(ring.element_from_json(c) for c in row), q1.zero) for row in eta_rows]

    def image(x):
        y = q1.zero
        for c, u in zip(x, images):
            y = q1.add(y, q1.smul(c, u))
        return y

    if any(image(row) != q1.zero for row in relations):
        raise InvalidInputError("eta does not respect the relations of Q0")
    return CosiltingModule(ring, q0, q1, {x: image(x) for x in q0.elements})
