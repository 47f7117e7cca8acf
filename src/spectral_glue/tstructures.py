"""Membership tests for the t-structures classified by Thomason filtrations.

Both halves read the supports of cohomology, degree by degree: the aisle
holds the X with Supp H^n(X) inside the level X_n (valid over the noetherian
— here finite — base), and the coaisle the Y with Supp H^n(Y) disjoint from
X_n, which is Koszul orthogonality (vanishing of derived Hom out of K(I)[-n]
for every ideal I with V(I) inside X_n) when every prime is maximal.

A t-structure over R is its Thomason filtration of Spec R, which both
membership tests take; its t-structures over the local rings R_m are read off
the one restriction, :func:`spectral_glue.gluing.localize_filtrations`, by
:func:`local_tstructures`.
"""

from __future__ import annotations

from . import rings as rng
from .errors import InvalidInputError
from .gluing import LocalFamily
from .homalg import BoundedComplex, support_of_cohomology
from .poset import PrimeId
from .rings import FiniteRing
from .thomason import ThomasonFiltration, ThomasonSet, is_constant, is_nondegenerate

NONDEGENERATE = "nondegenerate"
STABLE = "stable"
DEGENERATE_OTHER = "degenerate-other"


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


def _check_spec(complex_: BoundedComplex, filtration: ThomasonFiltration) -> None:
    if filtration.poset != rng.spec(complex_.ring):
        raise InvalidInputError("filtration does not live on spec(ring)")


def aisle_membership(complex_: BoundedComplex, filtration: ThomasonFiltration) -> bool:
    """X in the aisle iff Supp H^n(X) is contained in X_n for every n."""
    _check_spec(complex_, filtration)
    return aisle_admits(cohomology_supports(complex_), filtration)


def coaisle_admits(supports, filtration: ThomasonFiltration) -> bool:
    """Every Supp H^n(Y) is disjoint from the level X_n."""
    for n, supp in supports.items():
        _check_poset(supp, filtration)
        if supp.mask & filtration.mask_at(n):
            return False
    return True


def coaisle_membership(complex_: BoundedComplex, filtration: ThomasonFiltration) -> bool:
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
    _check_spec(complex_, filtration)
    return coaisle_admits(cohomology_supports(complex_), filtration)


def local_tstructures(ring: FiniteRing, family: LocalFamily) -> dict[PrimeId, tuple]:
    """m -> (R_m, its filtration of Spec R_m) for each column of ``family``,
    the :func:`~spectral_glue.gluing.localize_filtrations` of a filtration of
    Spec R.  Every prime is maximal, so Spec R_m is the one point m and a level
    at m, inside {m}, reads as ``x >> m``: a column in normal form reads as a
    filtration in normal form."""
    labels = family.global_poset.elements
    local = {}
    for m, start, masks in family.columns:
        local_ring = rng.local_factor(ring, labels[m]).ring
        levels = tuple(x >> m for x in masks)
        local[labels[m]] = local_ring, ThomasonFiltration(rng.spec(local_ring), start, levels)
    return local


def classify_degeneracy(filtration: ThomasonFiltration) -> str:
    """Non-degenerate (tails full and empty), stable (constant), or neither."""
    if is_nondegenerate(filtration):
        return NONDEGENERATE
    if is_constant(filtration):
        return STABLE
    return DEGENERATE_OTHER
