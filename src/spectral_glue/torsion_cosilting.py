"""Hereditary torsion pairs, the injective-class bijection, and cosilting modules.

Torsion classes are cut out by a Thomason set through supports; cosilting
modules are finite modules with an injective copresentation whose orthogonality
class is verified by an exhaustive sweep over small test modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Mapping

from . import modules as mod
from . import rings as rng
from .errors import InvalidInputError
from .modules import FiniteModule
from .poset import PrimeId
from .rings import FiniteRing, Ideal
from .thomason import ThomasonFiltration, ThomasonSet, make_filtration


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
    members = frozenset(
        x for x in module.elements if _element_support(module, x) <= x_set.members
    )
    return module.submodule(members, check=False)


def is_torsion(module: FiniteModule, x_set: ThomasonSet) -> bool:
    if module.is_zero_module():
        return True
    return rng.support(module).members <= x_set.members


def is_torsionfree(module: FiniteModule, x_set: ThomasonSet) -> bool:
    return torsion_submodule(module, x_set).is_zero_module()


def thomason_of_torsion_class(ring: FiniteRing, torsion_cyclics) -> ThomasonSet:
    """T |-> union of V(I) over the ideals whose cyclic quotient is torsion."""
    poset, _ = rng.spec(ring)
    result = ThomasonSet.empty(poset)
    for ideal in torsion_cyclics:
        result = result.union(rng.v_of_ideal(ring, ideal))
    return result


def torsion_class_cyclics(ring: FiniteRing, x_set: ThomasonSet) -> list[Ideal]:
    """The ideals I with R/I in the torsion class of the Thomason set."""
    out = []
    for ideal in rng.all_ideals(ring):
        quotient = mod.cyclic_module(ring, ideal.generators[0])
        if is_torsion(quotient, x_set):
            out.append(ideal)
    return out


def injective_class_of(ring: FiniteRing, x_set: ThomasonSet) -> list[FiniteModule]:
    """Indecomposable injectives that are torsion-free for the pair of X."""
    return [
        e
        for e in rng.indecomposable_injectives(ring)
        if torsion_submodule(e, x_set).is_zero_module()
    ]


def thomason_of_injective_class(ring: FiniteRing, injectives) -> ThomasonSet:
    """Recover X from the injective class via Hom-vanishing on cyclics.

    X = union of V(I) over ideals I with Hom(R/I, E) = 0 for every E in the
    class; inverse to :func:`injective_class_of` on Thomason sets.
    """
    poset, _ = rng.spec(ring)
    result = ThomasonSet.empty(poset)
    for ideal in rng.all_ideals(ring):
        if all(_hom_cyclic_vanishes(ring, ideal, e) for e in injectives):
            result = result.union(rng.v_of_ideal(ring, ideal))
    return result


def _hom_cyclic_vanishes(ring: FiniteRing, ideal: Ideal, target: FiniteModule) -> bool:
    """Hom(R/I, N) = 0, i.e. no nonzero element of N is killed by I."""
    return all(
        x == target.zero
        for x in target.elements
        if all(target.smul(g, x) == target.zero for g in ideal.generators)
    )


# -- cosilting modules -------------------------------------------------------


@dataclass(frozen=True)
class CosiltingModule:
    """A module with an injective copresentation 0 -> C -> Q0 --eta--> Q1.

    ``module`` is the kernel of eta inside Q0; ``eta`` is recorded by the
    images of Q0's generators in Q1.  Whether B_eta = Cogen(C) actually holds
    is checked separately by :func:`is_cosilting` over a bounded test corpus.
    """

    ring: FiniteRing
    q0: FiniteModule
    q1: FiniteModule
    eta: tuple = ()
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
        # well-definedness: relations of Q0 must map to zero
        _, relgens = self.q0._presentation
        for rel in relgens:
            acc = self.q1.zero
            for c, y in zip(rel, eta):
                acc = self.q1.add(acc, self.q1.smul(c, y))
            if acc != self.q1.zero:
                raise InvalidInputError("eta does not respect the relations of Q0")
        object.__setattr__(self, "eta", eta)
        kernel = frozenset(
            x for x in self.q0.elements if self.apply_eta(x) == self.q1.zero
        )
        object.__setattr__(self, "module", self.q0.submodule(kernel, check=False))

    def apply_eta(self, x):
        return self.q0.hom_apply(self.eta, x, self.q1)

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
    q0 = reduce(mod.direct_sum, chosen) if chosen else mod.zero_module(ring)
    q1 = reduce(mod.direct_sum, complement) if complement else mod.zero_module(ring)
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


def annihilator_multisets(ring: FiniteRing, bound: int):
    """Multisets of cyclic annihilators whose direct sum has order <= bound.

    Over products of chain rings every finite module is a direct sum of cyclic
    modules R/(g), so these multisets exhaust the isomorphism classes.
    """
    gens = cyclic_annihilators(ring)
    orders = [ring.order // len(Ideal(ring, (g,)).members) for g in gens]

    def extend(prefix, total, start):
        yield tuple(prefix)
        for i in range(start, len(gens)):
            if total * orders[i] <= bound:
                prefix.append(gens[i])
                yield from extend(prefix, total * orders[i], i)
                prefix.pop()

    yield from extend([], 1, 0)


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
    """Check B_eta = Cogen(C) over all modules of order <= |R|^2.

    Both classes are determined summand-wise, so the sweep over direct sums of
    cyclics memoizes the two memberships per cyclic annihilator.
    """
    ring = cosilting.ring
    c = cosilting.module
    in_b: dict = {}
    in_c: dict = {}
    for multiset in annihilator_multisets(ring, ring.order**2):
        for a in multiset:
            if a not in in_b:
                in_b[a] = cyclic_in_b_eta(ring, a, cosilting)
                in_c[a] = cyclic_in_cogen(ring, a, c)
        if all(in_b[a] for a in multiset) != all(in_c[a] for a in multiset):
            return False
    return True


def cosilting_thomason_of_module(cosilting: CosiltingModule) -> ThomasonSet:
    """Y = union of V(I) over ideals I with Hom(R/I, C) = 0."""
    return thomason_of_injective_class(cosilting.ring, [cosilting.module])


def two_term_filtration(x0: ThomasonSet) -> ThomasonFiltration:
    """Full for n < 0, X0 at n = 0, empty for n >= 1; always non-degenerate."""
    poset = x0.poset
    return make_filtration(
        poset,
        ThomasonSet.full(poset),
        [(0, x0)],
        ThomasonSet.empty(poset),
    )


# -- gluing of cosilting modules --------------------------------------------


def components_of_cosilting(cosilting: CosiltingModule) -> dict[PrimeId, CosiltingModule]:
    """C |-> {C^m}: the idempotent components, as cosilting data over each R_m."""
    return {
        lf.label: _component_cosilting(cosilting, lf)
        for lf in cosilting.ring.local_factors()
    }


def _component(module: FiniteModule, lf) -> FiniteModule:
    part = module.submodule(
        frozenset(module.smul(lf.idempotent, x) for x in module.elements), check=False
    )
    return mod.restrict_scalars(part, lf.ring, lf.lift)


def _component_cosilting(cosilting: CosiltingModule, lf) -> CosiltingModule:
    q0 = _component(cosilting.q0, lf)
    q1 = _component(cosilting.q1, lf)
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
    q0_parts, q1_parts = [], []
    for label in sorted(factors):
        lf = factors[label]
        local = family[label]
        if local.ring != lf.ring:
            raise InvalidInputError(f"component at {label!r} lives over the wrong ring")
        q0_parts.append(mod.restrict_scalars(local.q0, ring, lf.proj))
        q1_parts.append(mod.restrict_scalars(local.q1, ring, lf.proj))
    q0 = reduce(mod.direct_sum, q0_parts) if q0_parts else mod.zero_module(ring)
    q1 = reduce(mod.direct_sum, q1_parts) if q1_parts else mod.zero_module(ring)
    labels = sorted(factors)

    def eta_of(x):
        # x is a nested direct-sum tuple; apply each local eta componentwise
        parts = _unflatten(x, len(labels))
        images = [family[l].apply_eta(p) for l, p in zip(labels, parts)]
        return _reflatten(images)

    eta = tuple(eta_of(g) for g in q0.generators)
    return CosiltingModule(ring, q0, q1, eta)


def _unflatten(x, k):
    parts = []
    for _ in range(k - 1):
        x, last = x
        parts.append(last)
    parts.append(x)
    return list(reversed(parts))


def _reflatten(parts):
    acc = parts[0]
    for p in parts[1:]:
        acc = (acc, p)
    return acc


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
    eta = []
    for row in eta_rows:
        vec = tuple(ring.element_from_json(c) for c in row)
        # adding zero reduces any ambient vector to its coset representative
        try:
            eta.append(q1.add(vec, q1.zero))
        except KeyError as exc:
            raise InvalidInputError("eta row does not define an element of Q1") from exc
    return CosiltingModule(ring, q0, q1, tuple(eta))
