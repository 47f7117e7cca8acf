"""Membership tests for the t-structures classified by Thomason filtrations.

Both halves read the supports of cohomology, degree by degree: the aisle
holds the X with Supp H^n(X) inside the level X_n (valid over the noetherian
— here finite — base), and the coaisle the Y with Supp H^n(Y) disjoint from
X_n, which is Koszul orthogonality (vanishing of derived Hom out of K(I)[-n]
for every ideal I with V(I) inside X_n) when every prime is maximal.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rings as rng
from .errors import InvalidInputError
from .homalg import BoundedComplex, support_of_cohomology
from .poset import PrimeId
from .rings import FiniteRing
from .thomason import (
    ThomasonFiltration,
    ThomasonSet,
    from_levels,
    is_constant,
    is_nondegenerate,
)

NONDEGENERATE = "nondegenerate"
STABLE = "stable"
DEGENERATE_OTHER = "degenerate-other"


@dataclass(frozen=True)
class TStructureDescriptor:
    ring: FiniteRing
    filtration: ThomasonFiltration

    def __post_init__(self):
        if self.filtration.poset != rng.spec(self.ring):
            raise InvalidInputError("filtration does not live on spec(ring)")


def cohomology_supports(complex_: BoundedComplex) -> dict[int, ThomasonSet]:
    """n -> Supp H^n(X), over the degrees of X."""
    if complex_.is_zero():
        return {}
    return {
        n: support_of_cohomology(complex_, n)
        for n in range(complex_.min_degree, complex_.max_degree + 1)
    }


def _check_poset(supp: ThomasonSet, filtration: ThomasonFiltration) -> None:
    # spec(ring) is cached, so a ring's supports and levels are mostly one object
    if supp.poset is not filtration.poset and supp.poset != filtration.poset:
        raise InvalidInputError("cannot combine Thomason sets over different posets")


def aisle_admits(supports, filtration: ThomasonFiltration) -> bool:
    """Every Supp H^n(X) lies inside the level X_n."""
    for n, supp in supports.items():
        _check_poset(supp, filtration)
        if supp.mask & ~filtration.mask_at(n):
            return False
    return True


def aisle_membership(complex_: BoundedComplex, t: TStructureDescriptor) -> bool:
    """X in the aisle iff Supp H^n(X) is contained in X_n for every n."""
    if complex_.ring != t.ring:
        raise InvalidInputError("complex and descriptor live over different rings")
    return aisle_admits(cohomology_supports(complex_), t.filtration)


def coaisle_admits(supports, filtration: ThomasonFiltration) -> bool:
    """Every Supp H^n(Y) is disjoint from the level X_n."""
    for n, supp in supports.items():
        _check_poset(supp, filtration)
        if supp.mask & filtration.mask_at(n):
            return False
    return True


def coaisle_membership(complex_: BoundedComplex, t: TStructureDescriptor) -> bool:
    """Y in the coaisle iff Supp H^n(Y) misses X_n for every n.

    The coaisle is the right orthogonal of the aisle: Y is in it iff
    Hom(K(I)[-n], Y) = 0 for every ideal I with V(I) inside X_n.  Every ideal
    of the supported rings is principal, I = (a), and the long exact sequence
    of Hom(K(a), Y) makes Hom(K(a)[-n], Y) vanish exactly when a acts
    bijectively on H^{n-1}(Y) and H^n(Y); on a finite module that holds
    exactly when V(a) misses its support.  Since X_n lies inside X_{n-1}, the
    support condition implies the Koszul one.  The converse rests on every
    prime being maximal: a prime m in Supp H^n(Y) and in X_n has V(a) = {m}
    for its generator a (``LocalFactor.prime_gen``), so V(a) lies inside X_n
    while Hom(K(a)[-n], Y) is nonzero.
    """
    if complex_.ring != t.ring:
        raise InvalidInputError("complex and descriptor live over different rings")
    return coaisle_admits(cohomology_supports(complex_), t.filtration)


def localize_tstructure(t: TStructureDescriptor, m: PrimeId) -> TStructureDescriptor:
    """Descriptor of the induced t-structure on the local factor at m.

    All primes of the supported rings are maximal, so the local spectrum is a
    single point and each level restricts to full or empty according to
    membership of m.
    """
    local_ring = rng.local_factor(t.ring, m).ring
    local_poset = rng.spec(local_ring)
    filt = t.filtration
    i = filt.poset.point(m)
    levels = [local_poset.full if x >> i & 1 else 0 for x in filt.masks]
    return TStructureDescriptor(local_ring, from_levels(local_poset, filt.start, levels))


def classify_degeneracy(t: TStructureDescriptor) -> str:
    """Non-degenerate (tails full and empty), stable (constant), or neither."""
    if is_nondegenerate(t.filtration):
        return NONDEGENERATE
    if is_constant(t.filtration):
        return STABLE
    return DEGENERATE_OTHER
