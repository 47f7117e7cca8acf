"""Pairwise compatibility of local Thomason data and the glue/localize maps.

Local data is indexed by the maximal points of a global poset; the value at m
lives on the localization poset (the down-set of m).  Gluing takes the union
of the images under the natural inclusions; it is defined exactly when the
family agrees pairwise on shared primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import IncompatibleFamilyError, InvalidInputError
from .poset import PrimeId, SpectralPoset, localization_poset, maximal_points
from .thomason import (
    ThomasonFiltration,
    ThomasonSet,
    make_filtration,
    restrict_filtration,
    restrict_set,
)


@dataclass(frozen=True)
class LocalFamily:
    """Assignment m -> filtration on the localization poset at m.

    All maximal points of ``global_poset`` must be present.  A family over Z
    is one of these on :func:`spectral_glue.integers.z_poset`.
    """

    global_poset: SpectralPoset
    filtrations: Mapping[PrimeId, ThomasonFiltration]

    def __post_init__(self):
        maxima = maximal_points(self.global_poset)
        if set(self.filtrations) != set(maxima):
            raise InvalidInputError(
                f"family keys {sorted(self.filtrations)} do not match "
                f"maximal points {sorted(maxima)}"
            )
        for m, filt in self.filtrations.items():
            sub = localization_poset(self.global_poset, m)
            if filt.poset != sub:
                raise InvalidInputError(f"filtration at {m!r} lives on the wrong poset")
        object.__setattr__(self, "filtrations", dict(self.filtrations))

    @classmethod
    def from_default(
        cls,
        global_poset: SpectralPoset,
        default: ThomasonFiltration,
        exceptions: Mapping[PrimeId, ThomasonFiltration] = (),
    ) -> "LocalFamily":
        """Materialize the default (restriction of a global filtration) at every
        maximal point, then apply the finitely many exceptions."""
        exceptions = dict(exceptions or ())
        filts = {}
        for m in maximal_points(global_poset):
            filts[m] = exceptions.get(m, restrict_filtration(default, m))
        return cls(global_poset, filts)

    def window(self) -> tuple[int, int]:
        windows = [f.window() for f in self.filtrations.values()]
        return (min(w[0] for w in windows), max(w[1] for w in windows))

    def sets_at(self, n: int) -> dict[PrimeId, ThomasonSet]:
        return {m: f.at(n) for m, f in self.filtrations.items()}


@dataclass(frozen=True)
class CompatibilityReport:
    dagger_holds: bool
    violating_pair: Optional[tuple[PrimeId, PrimeId, PrimeId]]
    glued_thomason: bool

    def __post_init__(self):
        if not self.dagger_holds and self.violating_pair is None:
            raise InvalidInputError("a failing report must carry a witness")


def _check_sets(poset: SpectralPoset, sets: Mapping[PrimeId, ThomasonSet]):
    """(witness (m, m', p) or None, glued mask, stars): ``stars`` pairs each
    maximal point m, in label order, with X(m) in the numbering of ``poset``."""
    if set(sets) != maximal_points(poset):
        raise InvalidInputError("set family must cover exactly the maximal points")
    stars = []
    for m in poset.maxima:
        label = poset.elements[m]
        if sets[label].poset != poset.localization(m):
            raise InvalidInputError(f"set at {label!r} lives on the wrong poset")
        stars.append((m, poset.unpack(sets[label].mask, m)))
    glued = 0
    for _, x in stars:
        glued |= x
    down = poset.down
    for k, (m, x) in enumerate(stars):
        for m2, x2 in stars[k + 1 :]:
            # x lies below m and x2 below m2, so both sides lie in the shared down-set
            disagree = (x & down[m2]) ^ (x2 & down[m])
            if disagree:
                witness = (poset.elements[m], poset.elements[m2], poset.labels(disagree)[0])
                return witness, glued, stars
    return None, glued, stars


def check_dagger_sets(
    poset: SpectralPoset, sets: Mapping[PrimeId, ThomasonSet]
) -> CompatibilityReport:
    """Pairwise agreement of the local sets on shared primes."""
    violating, glued, _ = _check_sets(poset, sets)
    return CompatibilityReport(violating is None, violating, poset.closure(glued) == glued)


def check_dagger(family: LocalFamily, n: int) -> CompatibilityReport:
    """Evaluate the gluing condition at filtration level n."""
    return check_dagger_sets(family.global_poset, family.sets_at(n))


def glue_sets(poset: SpectralPoset, sets: Mapping[PrimeId, ThomasonSet]) -> ThomasonSet:
    """Union of the star images; defined only for compatible families."""
    violating, glued, _ = _check_sets(poset, sets)
    if violating is not None:
        raise IncompatibleFamilyError(
            f"family disagrees on shared prime {violating[2]!r} "
            f"between {violating[0]!r} and {violating[1]!r}",
            witness=violating,
        )
    # automatic on a finite poset: the star images of a compatible family glue to an up-set
    assert poset.closure(glued) == glued, "glued set of a compatible family must be Thomason"
    return ThomasonSet(poset, glued)


def localize_sets(s: ThomasonSet) -> dict[PrimeId, ThomasonSet]:
    """X |-> X(m) = X restricted to Spec(R_m), at every maximal m."""
    return {m: restrict_set(s, m) for m in maximal_points(s.poset)}


def glue_filtrations(family: LocalFamily) -> ThomasonFiltration:
    """Degreewise gluing; raises with the offending degree when incompatible.

    The degrees lo - 1 and hi + 1 around the window carry the tails, and all
    are glued in increasing order, so the degree and witness raised are the
    first that :func:`check_dagger` finds.
    """
    poset = family.global_poset
    lo, hi = family.window()

    def glue_at(n: int) -> ThomasonSet:
        try:
            return glue_sets(poset, family.sets_at(n))
        except IncompatibleFamilyError as exc:
            raise IncompatibleFamilyError(
                f"family incompatible at degree {n}: {exc}", degree=n, witness=exc.witness
            ) from None

    glued = [(n, glue_at(n)) for n in range(lo - 1, hi + 2)]
    # lo - 1 is kept as a breakpoint so pure-step families keep their step position
    return make_filtration(poset, glued[0][1], glued[:-1], glued[-1][1])


def localize_filtrations(filtration: ThomasonFiltration) -> LocalFamily:
    poset = filtration.poset
    return LocalFamily(
        poset, {m: restrict_filtration(filtration, m) for m in maximal_points(poset)}
    )


def check_lemma_equiv(poset: SpectralPoset, sets: Mapping[PrimeId, ThomasonSet]) -> bool:
    """Confirm the two descriptions of a compatible family agree.

    The ideal-family side is modelled by principal up-sets: X' is the union of
    all up-sets of single points g whose restriction to every localization is
    contained in the local set.  Returns True iff [pairwise agreement and the
    union of star images being an up-set] holds exactly when the union equals
    X'.
    """
    violating, glued, stars = _check_sets(poset, sets)
    x_prime = 0
    for up in poset.up:
        if all(not up & poset.down[m] & ~x for m, x in stars):
            x_prime |= up
    condition_i = violating is None and poset.closure(glued) == glued
    condition_ii = glued == x_prime
    return condition_i == condition_ii
