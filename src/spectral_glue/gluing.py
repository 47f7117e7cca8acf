"""Pairwise compatibility of local Thomason data and the glue/localize maps.

Local data is indexed by the maximal points of a global poset; the value at m
lives on the localization poset (the down-set of m).  Gluing takes the union
of the images under the natural inclusions; it is defined exactly when the
family agrees pairwise on shared primes.  So gluing is also the compatibility
check of a family: :func:`glue_sets` and :func:`glue_filtrations` raise
IncompatibleFamilyError with the first witness, and a caller that only asks
"compatible?" catches it.  :func:`check_lemma_equiv` compares that condition
with the ideal-family description of the same family.

A family is checked once, where it enters: the public :class:`LocalFamily`
constructor (and so :meth:`LocalFamily.from_default`) checks its keys and
member posets, and :func:`glue_sets` and :func:`check_lemma_equiv` check a set
family they are handed.  :func:`localize_filtrations` builds its family by
restriction, where both hold by construction, so it checks only the degree
span.  :func:`glue_filtrations` then works on masks alone: it unpacks each
member's levels once and runs only the agreement test at each degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .errors import IncompatibleFamilyError, InvalidInputError
from .poset import PrimeId, SpectralPoset, localization_poset, maximal_points
from .thomason import (
    MAX_DEGREE_SPAN,
    ThomasonFiltration,
    ThomasonSet,
    from_levels,
    is_constant,
    restrict_filtration,
    restrict_set,
)


@dataclass(frozen=True)
class LocalFamily:
    """Assignment m -> filtration on the localization poset at m.

    All maximal points of ``global_poset`` must be present, and the windows
    of the members that are not constant may lie at most MAX_DEGREE_SPAN
    degrees apart.  A family over Z is one of these on
    :func:`spectral_glue.integers.z_poset`.
    """

    global_poset: SpectralPoset
    filtrations: Mapping[PrimeId, ThomasonFiltration]
    _degrees: range = field(init=False, repr=False, compare=False)

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
        self._freeze(self.filtrations)

    @classmethod
    def _restricted(
        cls, global_poset: SpectralPoset, filtrations: dict[PrimeId, ThomasonFiltration]
    ) -> "LocalFamily":
        """A family of restrictions to every maximal point, whose keys and
        member posets are right by construction; only the span is checked."""
        family = object.__new__(cls)
        object.__setattr__(family, "global_poset", global_poset)
        family._freeze(filtrations)
        return family

    def _freeze(self, filtrations: Mapping[PrimeId, ThomasonFiltration]) -> None:
        # read-only, so that a family checked once cannot be edited past the checks
        object.__setattr__(self, "filtrations", MappingProxyType(dict(filtrations)))
        # a constant member reads the same at every degree, so only the others
        # place the degrees; with none, the two levels of a constant
        spans = [(f.start, len(f.masks)) for f in self.filtrations.values() if not is_constant(f)]
        degrees = range(
            min((start for start, _ in spans), default=-1),
            max((start + count for start, count in spans), default=1),
        )
        # a tail degree on each side of the windows; len() of a range fails
        # past sys.maxsize, so the span is a difference
        if degrees.stop - degrees.start - 3 > MAX_DEGREE_SPAN:
            raise InvalidInputError(
                f"family members' windows lie more than the bound MAX_DEGREE_SPAN = "
                f"{MAX_DEGREE_SPAN} degrees apart (levels from degree {degrees[0]} "
                f"to {degrees[-1]})"
            )
        object.__setattr__(self, "_degrees", degrees)

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
        maxima = maximal_points(global_poset)
        extra = sorted(set(exceptions) - maxima)
        if extra:
            raise InvalidInputError(f"family exception key {extra[0]!r} is not a maximal point")
        filts = {}
        for m in maxima:
            filts[m] = exceptions[m] if m in exceptions else restrict_filtration(default, m)
        return cls(global_poset, filts)

    def degrees(self) -> range:
        """From the first level to the last level of any member that is not
        constant; (-1, 0) when every member is constant."""
        return self._degrees

    def sets_at(self, n: int) -> dict[PrimeId, ThomasonSet]:
        return {m: f.at(n) for m, f in self.filtrations.items()}


def _check_sets(poset: SpectralPoset, sets: Mapping[PrimeId, ThomasonSet]):
    """(witness (m, m', p) or None, glued mask, stars) of a set family from
    outside: ``stars`` pairs each maximal point m, in label order, with X(m)
    in the numbering of ``poset``."""
    if set(sets) != maximal_points(poset):
        raise InvalidInputError("set family must cover exactly the maximal points")
    stars = []
    for m in poset.maxima:
        label = poset.elements[m]
        if sets[label].poset != poset.localization(m):
            raise InvalidInputError(f"set at {label!r} lives on the wrong poset")
        stars.append((m, poset.unpack(sets[label].mask, m)))
    return (*_agree(poset, stars), stars)


def _agree(poset: SpectralPoset, stars) -> tuple:
    """(witness (m, m', p) or None, glued mask) of stars X(m) lying below m.

    The family agrees pairwise exactly when every X(m) is glued & down[m]:
    pairwise agreement gives glued & down[m] = union of X(m') & down[m] =
    union of X(m) & down[m'] = X(m), and conversely X(m) & down[m'] = glued &
    down[m] & down[m'] = X(m') & down[m].  Only a failed test scans the pairs,
    for the first witness."""
    glued = 0
    for _, x in stars:
        glued |= x
    down = poset.down
    if any(x != glued & down[m] for m, x in stars):
        for k, (m, x) in enumerate(stars):
            for m2, x2 in stars[k + 1 :]:
                # x lies below m and x2 below m2, so both sides lie in the shared down-set
                disagree = (x & down[m2]) ^ (x2 & down[m])
                if disagree:
                    witness = (poset.elements[m], poset.elements[m2], poset.labels(disagree)[0])
                    return witness, glued
    return None, glued


def _disagreement(witness) -> str:
    return (
        f"family disagrees on shared prime {witness[2]!r} "
        f"between {witness[0]!r} and {witness[1]!r}"
    )


def _glued_mask(poset: SpectralPoset, glued: int) -> int:
    # automatic on a finite poset: the star images of a compatible family glue to an up-set
    assert poset.closure(glued) == glued, "glued set of a compatible family must be Thomason"
    return glued


def glue_sets(poset: SpectralPoset, sets: Mapping[PrimeId, ThomasonSet]) -> ThomasonSet:
    """Union of the star images; defined only for compatible families."""
    violating, glued, _ = _check_sets(poset, sets)
    if violating is not None:
        raise IncompatibleFamilyError(_disagreement(violating), witness=violating)
    return ThomasonSet(poset, _glued_mask(poset, glued))


def localize_sets(s: ThomasonSet) -> dict[PrimeId, ThomasonSet]:
    """X |-> X(m) = X restricted to Spec(R_m), at every maximal m."""
    return {m: restrict_set(s, m) for m in maximal_points(s.poset)}


def _unpacked_levels(poset: SpectralPoset, m: int, filt: ThomasonFiltration, degrees: range):
    """The masks of the member at point m over ``degrees``, in the numbering
    of ``poset``: each level mask is unpacked once, and its tails are
    repeated over the degrees past its ends.  A member that is not constant
    lies inside ``degrees``; a constant one is its low tail throughout."""
    if is_constant(filt):
        return [poset.unpack(filt.masks[0], m)] * len(degrees)
    masks = [poset.unpack(x, m) for x in filt.masks]
    before = filt.start - degrees.start
    after = degrees.stop - filt.start - len(masks)
    return masks[:1] * before + masks + masks[-1:] * after


def glue_filtrations(family: LocalFamily) -> ThomasonFiltration:
    """Degreewise gluing; raises with the offending degree when incompatible.

    The family was checked when it was built, so the level masks are glued
    over :meth:`LocalFamily.degrees`, whose ends carry the tails, in
    increasing order: the degree raised is the least incompatible one, and
    each degree is checked once.  Gluing preserves inclusions, so the glued
    levels decrease and are only normalised.
    """
    poset = family.global_poset
    degrees = family.degrees()
    members = family.filtrations
    columns = [
        (m, _unpacked_levels(poset, m, members[poset.elements[m]], degrees)) for m in poset.maxima
    ]
    levels = []
    for k, n in enumerate(degrees):
        witness, glued = _agree(poset, [(m, column[k]) for m, column in columns])
        if witness is not None:
            raise IncompatibleFamilyError(
                f"family incompatible at degree {n}: {_disagreement(witness)}",
                degree=n,
                witness=witness,
            )
        levels.append(_glued_mask(poset, glued))
    return from_levels(poset, degrees.start, levels)


def localize_filtrations(filtration: ThomasonFiltration) -> LocalFamily:
    poset = filtration.poset
    return LocalFamily._restricted(
        poset, {m: restrict_filtration(filtration, m) for m in maximal_points(poset)}
    )


def check_lemma_equiv(poset: SpectralPoset, sets: Mapping[PrimeId, ThomasonSet]) -> bool:
    """Confirm the two descriptions of a compatible family agree.

    The ideal-family side is modelled by principal up-sets: X' is the union of
    all up-sets of single points g whose restriction to every localization is
    contained in the local set.  Returns True iff pairwise agreement holds
    exactly when the union of the star images equals X'.

    Agreement alone is the gluing condition: it makes the union an up-set.
    Take p in X(m) and q >= p; q lies below some maximal m', so p lies in
    down(m) and down(m'), agreement puts p in X(m'), and X(m') is an up-set of
    Spec(R_m'), so q is in X(m').  An agreeing family with a local set that is
    not an up-set glues to a union that is not one either: if p is in X(m)
    and q >= p in down(m) is not, agreement keeps q out of every X(m').  X'
    is always an up-set, so the check fails on such a family.
    """
    violating, glued, stars = _check_sets(poset, sets)
    x_prime = 0
    for up in poset.up:
        if all(not up & poset.down[m] & ~x for m, x in stars):
            x_prime |= up
    return (violating is None) == (glued == x_prime)
