"""Pairwise compatibility of local Thomason data and the glue/localize maps.

Local data is indexed by the maximal points of a global poset; the value at m
lives on the localization poset (the down-set of m).  Gluing takes the union
of the images under the natural inclusions; it is defined exactly when the
family agrees pairwise on shared primes.  So gluing is also the compatibility
check of a family: :func:`glue_sets` and :func:`glue_filtrations` raise
IncompatibleFamilyError with the first witness, and a caller that only asks
"compatible?" catches it.  :func:`check_lemma_equiv` compares that condition
with the ideal-family description of the same family.

A family of local sets is a row ``(X(m) for m in poset.maxima)`` of masks in
the numbering of the global poset, each X(m) an up-set of the localization at
m; :func:`localize_sets` gives one, and :meth:`LocalFamily.rows` gives a
filtration family's row at each degree.  A family is checked once, where it
enters: :meth:`LocalFamily.from_members` checks its keys, member posets and
span, and :meth:`LocalFamily.from_default` its exception keys and its
default's poset, then each exception as ``from_members`` does.  Set families
have no wire, so a row is built by the package and not checked again.  A
filtration family is its columns of level masks in the global numbering:
:func:`localize_filtrations`, the one restriction of a filtration, masks
each level with each down-set, and :func:`glue_filtrations` reads the rows,
one agreement test per degree; neither builds a member filtration.  Only
this module and :mod:`spectral_glue.poset` number points on the
localizations: elsewhere members and rows cross as label-keyed JSON
(:func:`members_from_json`, :func:`family_to_json`, :func:`row_to_json`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import IncompatibleFamilyError, InvalidInputError
from .poset import PrimeId, SpectralPoset, all_up_sets, localization_poset
from .thomason import (
    MAX_DEGREE_SPAN,
    ThomasonFiltration,
    ThomasonSet,
    filtration_from_json,
    filtration_to_json,
    from_levels,
    set_to_json,
    trim,
)


@dataclass(frozen=True)
class LocalFamily:
    """Assignment m -> filtration on the localization poset at m.

    ``columns`` holds ``(m, start, masks)`` for each maximal point m of
    ``global_poset``, in poset order: the member at m in its normal form, its
    masks in the numbering of ``global_poset``.  The constructor checks
    nothing; a family from outside the package is built by :meth:`from_members`
    or :meth:`from_default`.  ``filtrations`` maps m to its member, and
    :meth:`rows` reads the columns across, one row of local sets per degree.
    ``degrees`` runs from the first level to the last level of any member
    that is not constant, and is (-1, 0) when every member is constant.
    A family over Z is one of these on :func:`spectral_glue.integers.z_poset`.
    """

    global_poset: SpectralPoset
    columns: tuple[tuple[int, int, tuple[int, ...]], ...]
    degrees: range = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # set here and not as a cached_property, whose first read takes a lock;
        # a constant member reads the same at every degree, so only the others
        # place the degrees; with none, the two levels of a constant
        spans = [
            (start, start + len(masks)) for _, start, masks in self.columns if masks[0] != masks[-1]
        ]
        degrees = range(min(spans)[0], max(stop for _, stop in spans)) if spans else range(-1, 1)
        object.__setattr__(self, "degrees", degrees)

    @classmethod
    def from_members(
        cls, global_poset: SpectralPoset, members: Mapping[PrimeId, ThomasonFiltration]
    ) -> "LocalFamily":
        """The family of ``members``, label -> filtration, checked: the keys
        are the maximal points, each member lives on the localization at its
        key, and the windows of the members that are not constant lie at most
        MAX_DEGREE_SPAN degrees apart."""
        maxima = global_poset.maximal_labels
        if members.keys() != maxima:
            raise InvalidInputError(
                f"family keys {sorted(members)} do not match maximal points {sorted(maxima)}: "
                "a family without a 'default' lists every maximal point in 'exceptions'"
            )
        labels = global_poset.elements
        columns = tuple(_column(global_poset, m, members[labels[m]]) for m in global_poset.maxima)
        return cls(global_poset, columns)._spanned()

    @classmethod
    def from_default(
        cls,
        global_poset: SpectralPoset,
        default: ThomasonFiltration,
        exceptions: Mapping[PrimeId, ThomasonFiltration] = (),
    ) -> "LocalFamily":
        """The restriction of the global filtration ``default`` to every
        maximal point, as :func:`localize_filtrations` gives it, with the
        column at each key of ``exceptions`` that member's, checked as
        :meth:`from_members` checks it."""
        extra = sorted(set(exceptions) - global_poset.maximal_labels)
        if extra:
            raise InvalidInputError(f"family exception key {extra[0]!r} is not a maximal point")
        if default.poset != global_poset:
            raise InvalidInputError("the default filtration lives on the wrong poset")
        family = localize_filtrations(default)
        labels = global_poset.elements
        columns = tuple(
            _column(global_poset, m, exceptions[labels[m]]) if labels[m] in exceptions else column
            for m, column in zip(global_poset.maxima, family.columns)
        )
        return cls(global_poset, columns)._spanned()

    def _spanned(self) -> "LocalFamily":
        """This family, once its degrees are found within the bound."""
        degrees = self.degrees
        # a tail degree on each side of the windows; len() of a range fails
        # past sys.maxsize, so the span is a difference
        if degrees.stop - degrees.start - 3 > MAX_DEGREE_SPAN:
            raise InvalidInputError(
                f"family members' windows lie more than the bound MAX_DEGREE_SPAN = "
                f"{MAX_DEGREE_SPAN} degrees apart (levels from degree {degrees[0]} "
                f"to {degrees[-1]})"
            )
        return self

    @cached_property
    def filtrations(self) -> Mapping[PrimeId, ThomasonFiltration]:
        """m -> the member at m, read-only; packed on the first read."""
        poset = self.global_poset
        members = {}
        for m, start, masks in self.columns:
            local = tuple(poset.pack(x, m) for x in masks)
            members[poset.elements[m]] = ThomasonFiltration(poset.localization(m), start, local)
        return MappingProxyType(members)

    def rows(self) -> list[tuple[int, ...]]:
        """The row (X_n(m) for m in ``global_poset.maxima``) at each degree n
        of :attr:`degrees`, in order: the columns read across, each past its
        ends as its tails.  A member that is not constant lies inside the
        degrees; a constant one is its low tail throughout."""
        degrees = self.degrees
        padded = []
        for _, start, masks in self.columns:
            if masks[0] == masks[-1]:
                padded.append([masks[0]] * len(degrees))
            else:
                before = start - degrees.start
                after = degrees.stop - start - len(masks)
                padded.append([masks[0]] * before + list(masks) + [masks[-1]] * after)
        # over the empty poset every row is empty
        return list(zip(*padded)) if padded else [()] * len(degrees)


def _column(poset: SpectralPoset, m: int, member: ThomasonFiltration) -> tuple:
    """The column of ``member`` at m, once it is found to live on the
    localization at m."""
    if member.poset != poset.localization(m):
        raise InvalidInputError(f"filtration at {poset.elements[m]!r} lives on the wrong poset")
    return m, member.start, tuple([poset.unpack(x, m) for x in member.masks])


def _agree(poset: SpectralPoset, row: Sequence[int]) -> tuple[bool, int]:
    """(whether the row agrees pairwise, the union of its masks).

    The family agrees pairwise exactly when every X(m) is glued & down[m]:
    pairwise agreement gives glued & down[m] = union of X(m') & down[m] =
    union of X(m) & down[m'] = X(m), and conversely X(m) & down[m'] = glued &
    down[m] & down[m'] = X(m') & down[m]."""
    glued = 0
    for x in row:
        glued |= x
    down = poset.down
    for m, x in zip(poset.maxima, row):
        if x != glued & down[m]:
            return False, glued
    return True, glued


def _incompatible(poset: SpectralPoset, row: Sequence[int], degree=None) -> IncompatibleFamilyError:
    """The error of a row that disagrees, with its first witness (m, m', p):
    the first pair in label order and the least shared prime they differ on."""
    down, stars = poset.down, list(zip(poset.maxima, row))
    for k, (m, x) in enumerate(stars):
        for m2, x2 in stars[k + 1 :]:
            # x lies below m and x2 below m2, so both sides lie in the shared down-set
            disagree = (x & down[m2]) ^ (x2 & down[m])
            if disagree:
                witness = (poset.elements[m], poset.elements[m2], poset.labels(disagree)[0])
                message = "family disagrees on shared prime {2!r} between {0!r} and {1!r}"
                message = message.format(*witness)
                if degree is not None:
                    message = f"family incompatible at degree {degree}: {message}"
                return IncompatibleFamilyError(message, degree=degree, witness=witness)
    raise AssertionError("a row that disagrees has a pair that differs")


def _glued_mask(poset: SpectralPoset, glued: int) -> int:
    # automatic on a finite poset: the star images of a compatible family glue to an up-set
    assert poset.closure(glued) == glued, "glued set of a compatible family must be Thomason"
    return glued


def glue_sets(poset: SpectralPoset, row: Sequence[int]) -> ThomasonSet:
    """Union of the star images of a row; defined only for compatible rows."""
    agrees, glued = _agree(poset, row)
    if not agrees:
        raise _incompatible(poset, row)
    return ThomasonSet(poset, _glued_mask(poset, glued))


def localize_sets(s: ThomasonSet) -> tuple[int, ...]:
    """X |-> the row of X(m) = X & down[m], X restricted to Spec(R_m)."""
    down, mask = s.poset.down, s.mask
    return tuple(mask & down[m] for m in s.poset.maxima)


def glue_filtrations(family: LocalFamily) -> ThomasonFiltration:
    """Degreewise gluing; raises with the offending degree when incompatible.

    The family was checked when it was built, so its rows are glued in
    increasing degree: one union and one agreement test per degree, so the
    degree raised is the least incompatible one.  Gluing preserves
    inclusions, so the glued levels decrease and are only normalised.
    """
    poset = family.global_poset
    degrees = family.degrees
    levels = []
    for n, row in zip(degrees, family.rows()):
        agrees, glued = _agree(poset, row)
        if not agrees:
            raise _incompatible(poset, row, n)
        levels.append(_glued_mask(poset, glued))
    return from_levels(poset, degrees.start, levels)


def localize_filtrations(filtration: ThomasonFiltration) -> LocalFamily:
    """The restrictions of ``filtration`` to every maximal point m, as
    columns: each level masked with the down-set of m, then trimmed."""
    poset = filtration.poset
    down, start, masks = poset.down, filtration.start, filtration.masks
    columns = tuple((m, *trim(start, [x & down[m] for x in masks])) for m in poset.maxima)
    return LocalFamily(poset, columns)


def check_lemma_equiv(poset: SpectralPoset, row: Sequence[int]) -> bool:
    """Confirm the two descriptions of a family of local sets agree.

    The ideal-family side is modelled by principal up-sets: X' is the union of
    all up-sets of single points g whose restriction to every localization is
    contained in the local set, that is which meet no point of down[m] that
    X(m) leaves out.  Returns True iff pairwise agreement holds exactly when
    the union of the star images equals X'.

    Agreement alone is the gluing condition: it makes the union an up-set.
    Take p in X(m) and q >= p; q lies below some maximal m', so p lies in
    down(m) and down(m'), agreement puts p in X(m'), and X(m') is an up-set of
    Spec(R_m'), so q is in X(m').  An agreeing family with a local set that is
    not an up-set glues to a union that is not one either: if p is in X(m)
    and q >= p in down(m) is not, agreement keeps q out of every X(m').  X'
    is always an up-set, so the check fails on such a family.
    """
    agrees, glued = _agree(poset, row)
    down = poset.down
    left_out = 0
    for m, x in zip(poset.maxima, row):
        left_out |= down[m] & ~x
    x_prime = 0
    for up in poset.up:
        if not up & left_out:
            x_prime |= up
    return agrees == (glued == x_prime)


def local_up_sets(poset: SpectralPoset, m: int) -> list[int]:
    """The up-sets of the localization at m, in the numbering of ``poset``."""
    return [poset.unpack(x, m) for x in all_up_sets(poset.localization(m))]


def members_from_json(poset: SpectralPoset, data: Mapping) -> dict[PrimeId, ThomasonFiltration]:
    """Read ``{label: filtration JSON}``, each filtration on the localization
    at its label, for :meth:`LocalFamily.from_members` to check."""
    return {m: filtration_from_json(localization_poset(poset, m), f) for m, f in data.items()}


def family_to_json(family: LocalFamily) -> dict:
    """``{label: filtration JSON}`` of the members, in poset order, as
    :func:`members_from_json` reads it."""
    return {m: filtration_to_json(f) for m, f in family.filtrations.items()}


def row_to_json(poset: SpectralPoset, row: Sequence[int]) -> dict:
    """A row of local sets as a failure writes it: label -> local set JSON."""
    return {
        poset.elements[m]: set_to_json(ThomasonSet(poset.localization(m), poset.pack(x, m)))
        for m, x in zip(poset.maxima, row)
    }
