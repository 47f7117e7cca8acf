"""Membership tests for the t-structures classified by Thomason filtrations.

The aisle is tested cohomologically (supports of cohomology against the
filtration levels, valid over the noetherian — here finite — base) and the
coaisle by Koszul orthogonality: vanishing of derived Hom out of K(I)[-n] for
every ideal I with V(I) contained in the level X_n.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import homalg, rings as rng
from .errors import InvalidInputError
from .homalg import BoundedComplex, koszul_of_ideal, support_of_cohomology
from .poset import PrimeId
from .rings import FiniteRing
from .thomason import (
    ThomasonFiltration,
    ThomasonSet,
    is_constant,
    is_nondegenerate,
    make_filtration,
)

NONDEGENERATE = "nondegenerate"
STABLE = "stable"
DEGENERATE_OTHER = "degenerate-other"


@dataclass(frozen=True)
class TStructureDescriptor:
    ring: FiniteRing
    filtration: ThomasonFiltration

    def __post_init__(self):
        poset, _ = rng.spec(self.ring)
        if self.filtration.poset != poset:
            raise InvalidInputError("filtration does not live on spec(ring)")

    def level(self, n: int) -> ThomasonSet:
        return self.filtration.at(n)


def aisle_supports(complex_: BoundedComplex) -> dict[int, ThomasonSet]:
    """n -> Supp H^n(X), over the degrees of X."""
    if complex_.is_zero():
        return {}
    return {
        n: support_of_cohomology(complex_, n)
        for n in range(complex_.min_degree, complex_.max_degree + 1)
    }


def aisle_admits(supports, filtration: ThomasonFiltration) -> bool:
    """Every Supp H^n(X) lies inside the level X_n."""
    return all(supp <= filtration.at(n) for n, supp in supports.items())


def aisle_membership(complex_: BoundedComplex, t: TStructureDescriptor) -> bool:
    """X in the aisle iff Supp H^n(X) is contained in X_n for every n."""
    if complex_.ring != t.ring:
        raise InvalidInputError("complex and descriptor live over different rings")
    return aisle_admits(aisle_supports(complex_), t.filtration)


def coaisle_obstructions(complex_: BoundedComplex) -> list[tuple[int, ThomasonSet]]:
    """The pairs (n, V(I)), over all ideals I, with Hom(K(I)[-n], Y) nonzero.

    Only degrees n where the Hom groups can be nonzero for degree reasons are
    swept: the Koszul complexes live in degrees [-1, 0] (all ideals of the
    supported rings are principal), so n ranges over [min deg Y, max deg Y + 1].

    A Y without differentials, as every sweep builds, is decided by Hom
    orders; a Y with differentials, which only CLI input gives, by
    enumerating the Hom groups.
    """
    if complex_.is_zero():
        return []
    if complex_.diffs:
        nonzero = lambda kos, n: not homalg.derived_hom(kos, complex_, n).is_zero_module()
    else:
        nonzero = lambda kos, n: any(o > 1 for o in homalg.hom_orders(kos, complex_, n).values())
    ring = complex_.ring
    ideals = rng.all_ideals(ring)
    koszuls = [(ideal, koszul_of_ideal(ring, ideal)) for ideal in ideals]
    max_len = max(k.max_degree - k.min_degree for _, k in koszuls)
    lo = complex_.min_degree
    hi = complex_.max_degree + max_len
    obstructions = []
    for ideal, kos in koszuls:
        for n in range(lo, hi + 1):
            # Hom(K(I)[-n], Y) in degree 0 is H^n of Hom(K(I), Y)
            if nonzero(kos, n):
                obstructions.append((n, rng.v_of_ideal(ring, ideal)))
    return obstructions


def coaisle_admits(obstructions, filtration: ThomasonFiltration) -> bool:
    """No obstruction (n, V(I)) of Y has V(I) inside the level X_n."""
    return not any(v <= filtration.at(n) for n, v in obstructions)


def coaisle_membership(complex_: BoundedComplex, t: TStructureDescriptor) -> bool:
    """Y in the coaisle iff Hom(K(I)[-n], Y) = 0 whenever V(I) is inside X_n."""
    if complex_.ring != t.ring:
        raise InvalidInputError("complex and descriptor live over different rings")
    return coaisle_admits(coaisle_obstructions(complex_), t.filtration)


def kappa_test(p: PrimeId, n: int, t: TStructureDescriptor) -> bool:
    """kappa(p)[-n] lies in the aisle iff p is in X_n; asserts the equivalence."""
    kappa = rng.residue_field(t.ring, p)
    result = aisle_membership(homalg.stalk_complex(kappa, n), t)
    expected = p in t.level(n)
    if result != expected:
        raise AssertionError(
            f"kappa test inconsistency at p={p!r}, n={n}: aisle says {result}, "
            f"filtration says {expected}"
        )
    return result


def localize_tstructure(t: TStructureDescriptor, m: PrimeId) -> TStructureDescriptor:
    """Descriptor of the induced t-structure on the local factor at m.

    All primes of the supported rings are maximal, so the local spectrum is a
    single point and each level restricts to full or empty according to
    membership of m.
    """
    local_ring, _ = rng.localize_ring(t.ring, m)
    local_poset, _ = rng.spec(local_ring)

    def restrict(s: ThomasonSet) -> ThomasonSet:
        return ThomasonSet.full(local_poset) if m in s else ThomasonSet.empty(local_poset)

    filt = t.filtration
    breakpoints = [(n, restrict(filt.at(n))) for n in range(filt.lo - 1, filt.hi + 1)]
    local_filt = make_filtration(
        local_poset, restrict(filt.low_tail), breakpoints, restrict(filt.high_tail)
    )
    return TStructureDescriptor(local_ring, local_filt)


def classify_degeneracy(t: TStructureDescriptor) -> str:
    """Non-degenerate (tails full and empty), stable (constant), or neither."""
    if is_nondegenerate(t.filtration):
        return NONDEGENERATE
    if is_constant(t.filtration):
        return STABLE
    return DEGENERATE_OTHER
