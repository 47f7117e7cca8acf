"""Pairwise compatibility of local Thomason data and the glue/localize maps.

Local data is indexed by the maximal points m of a global poset, and the
value at m lives on Spec(R_m), the down-set of m, in the numbering of the
global poset: a local set X(m) is a mask inside ``down[m]`` that is an
up-set of ``down[m]``, and in general not an up-set of the global poset.
Gluing takes the union of the local data; it is defined exactly when the
family agrees pairwise on shared primes.  So gluing is also the
compatibility check of a family: :func:`glue_sets` and
:func:`glue_filtrations` raise IncompatibleFamilyError with the first
witness, and a caller that only asks "compatible?" catches it.
:func:`check_lemma_equiv` compares that condition with the ideal-family
description of the same family.

A family of local sets is a row ``(X(m) for m in poset.maxima)`` of masks;
:func:`localize_sets` gives one.  A family of filtrations is its run of
rows, one per degree, kept like a filtration's run of masks in the normal
form of :func:`~spectral_glue.thomason.trim`, the one normaliser:
:func:`localize_filtrations`, the one restriction of a filtration, masks
each level into a row, and :func:`glue_filtrations` glues the rows, one
agreement test per degree.  The agreement test is one kernel, ``_agree``,
shared by :func:`glue_sets`, :func:`glue_filtrations` and
:func:`check_lemma_equiv`: a row agrees when each X(m) is the union of the
row masked with ``down[m]``, read from the poset's ``maximal_downs``, set
once when the poset is built.  A glued mask is asserted to be an up-set by
the up-sets of its own points only.  A family is checked once, where it enters:
:meth:`LocalFamily.from_members` checks the keys of label-keyed member JSON,
reads each member to its trimmed column and checks the span, and
:meth:`LocalFamily.from_default` checks its exception keys and its
default's poset, then reads each exception as ``from_members`` does; both
then pad the columns into rows.  Set families have no wire, so a row is
built by the package and not checked again.  The level codec of
:mod:`spectral_glue.thomason` at m reads and writes every level of a member
at m and every X(m) of a row: "full" is ``down[m]``, and a list names
points of ``down[m]`` by label.  A :class:`LocalFamily` (global_poset,
start, rows) is an immutable value on :class:`spectral_glue.values.Value`,
equal and hashed by those three fields.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import partial

from .errors import IncompatibleFamilyError, InvalidInputError
from .poset import PrimeId, SpectralPoset, all_up_sets
from .thomason import (
    MAX_DEGREE_SPAN,
    ThomasonFiltration,
    ThomasonSet,
    filtration_from_json,
    filtration_to_json,
    from_levels,
    level_from_json,
    level_to_json,
    trim,
)
from .values import Value


class LocalFamily(Value):
    """Assignment m -> filtration on Spec(R_m), the down-set of m, as its run
    of rows.

    ``rows[k]`` is the row (X_n(m) for m in ``global_poset.maxima``) at
    degree n = start + k, each mask an up-set of ``down[m]`` in the numbering
    of ``global_poset``.  As in a filtration's run of masks, the first row is
    the low tail and the last the high tail, and the run is in the normal
    form of :func:`~spectral_glue.thomason.trim`, so equal families compare
    equal; column k of the rows is the member at ``global_poset.maxima[k]``.
    The constructor checks nothing; a family from outside the package is
    built by :meth:`from_members` or :meth:`from_default`.  A family over Z
    is one of these on :func:`spectral_glue.integers.z_poset`.
    """

    __slots__ = _fields = ("global_poset", "start", "rows")

    def __init__(self, global_poset: SpectralPoset, start: int, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "global_poset", global_poset)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "rows", rows)

    @property
    def degrees(self) -> range:
        return range(self.start, self.start + len(self.rows))

    @classmethod
    def from_members(
        cls, global_poset: SpectralPoset, members: Mapping[PrimeId, Mapping]
    ) -> "LocalFamily":
        """The family of ``members``, label -> filtration JSON, checked: the
        keys are the maximal points, each member is read onto the down-set of
        its key by the level codec at that key, and the windows of the
        members that are not constant lie at most MAX_DEGREE_SPAN degrees
        apart."""
        maxima = global_poset.maximal_labels
        if members.keys() != maxima:
            raise InvalidInputError(
                f"family keys {sorted(members)} do not match maximal points {sorted(maxima)}: "
                "a family without a 'default' lists every maximal point in 'exceptions'"
            )
        labels = global_poset.elements
        columns = [_column(global_poset, m, members[labels[m]]) for m in global_poset.maxima]
        return _padded(global_poset, columns)

    @classmethod
    def from_default(
        cls,
        global_poset: SpectralPoset,
        default: ThomasonFiltration,
        exceptions: Mapping[PrimeId, Mapping] = (),
    ) -> "LocalFamily":
        """The restriction of the global filtration ``default`` to every
        maximal point, as :func:`localize_filtrations` gives it, with the
        member at each key of ``exceptions``, label -> filtration JSON, read
        and checked as :meth:`from_members` reads and checks a member."""
        extra = sorted(set(exceptions) - global_poset.maximal_labels)
        if extra:
            raise InvalidInputError(f"family exception key {extra[0]!r} is not a maximal point")
        if default.poset != global_poset:
            raise InvalidInputError("the default filtration lives on the wrong poset")
        labels, down = global_poset.elements, global_poset.down
        columns = [
            _column(global_poset, m, exceptions[labels[m]])
            if labels[m] in exceptions
            else trim(default.start, [x & down[m] for x in default.masks])
            for m in global_poset.maxima
        ]
        return _padded(global_poset, columns)


def _column(poset: SpectralPoset, m: int, data: Mapping) -> tuple[int, tuple[int, ...]]:
    """The trimmed (start, masks) of the member JSON ``data`` at m: each
    level read by the level codec at m, and the run checked as
    :func:`~spectral_glue.thomason.filtration_from_json` checks one."""
    # the member's run, read as a filtration in the numbering of ``poset``
    member = filtration_from_json(poset, data, partial(level_from_json, at=m))
    return member.start, member.masks


def _padded(poset: SpectralPoset, columns: Sequence[tuple]) -> LocalFamily:
    """The family of one trimmed column (start, masks) per maximal point, in
    poset order, once its degrees lie within the bound.  The degrees run
    from the first to the last level of any column that is not constant, and
    each column is padded there with its tails.  So the rows are in normal
    form: the column that places the first degree changes at the second, and
    the one that places the last changes at the second-last; with every
    column constant they are the two equal rows of a constant."""
    # a constant column reads the same at every degree, so only the others place the degrees
    spans = [(start, start + len(masks)) for start, masks in columns if masks[0] != masks[-1]]
    lo, stop = (min(spans)[0], max(stop for _, stop in spans)) if spans else (-1, 1)
    # a tail degree on each side of the windows
    if stop - lo - 3 > MAX_DEGREE_SPAN:
        raise InvalidInputError(
            f"family members' windows lie more than the bound MAX_DEGREE_SPAN = "
            f"{MAX_DEGREE_SPAN} degrees apart (levels from degree {lo} to {stop - 1})"
        )
    padded = [
        [masks[0]] * (stop - lo)
        if masks[0] == masks[-1]
        else [masks[0]] * (start - lo) + list(masks) + [masks[-1]] * (stop - start - len(masks))
        for start, masks in columns
    ]
    # over the empty poset every row is empty
    rows = tuple(zip(*padded)) if padded else ((),) * (stop - lo)
    return LocalFamily(poset, lo, rows)


def _agree(poset: SpectralPoset, row: Sequence[int]) -> tuple[bool, int]:
    """(whether the row agrees pairwise, the union of its masks).

    The family agrees pairwise exactly when every X(m) is glued & down[m]:
    pairwise agreement gives glued & down[m] = union of X(m') & down[m] =
    union of X(m) & down[m'] = X(m), and conversely X(m) & down[m'] = glued &
    down[m] & down[m'] = X(m') & down[m]."""
    glued = 0
    for x in row:
        glued |= x
    for below, x in zip(poset.maximal_downs, row):
        if x != glued & below:
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


def _is_up_set(poset: SpectralPoset, mask: int) -> bool:
    """Whether the principal up-set of every point of ``mask`` lies in it."""
    up, rest = poset.up, mask
    while rest:  # one step per set bit
        bit = rest & -rest
        if up[bit.bit_length() - 1] & ~mask:
            return False
        rest ^= bit
    return True


def _glued_mask(poset: SpectralPoset, glued: int) -> int:
    # automatic on a finite poset: the star images of a compatible family glue to an up-set
    assert _is_up_set(poset, glued), "glued set of a compatible family must be Thomason"
    return glued


def glue_sets(poset: SpectralPoset, row: Sequence[int]) -> ThomasonSet:
    """Union of the star images of a row; defined only for compatible rows."""
    agrees, glued = _agree(poset, row)
    if not agrees:
        raise _incompatible(poset, row)
    return ThomasonSet(poset, _glued_mask(poset, glued))


def localize_sets(s: ThomasonSet) -> tuple[int, ...]:
    """X |-> the row of X(m) = X & down[m], X restricted to Spec(R_m)."""
    mask = s.mask
    return tuple(mask & below for below in s.poset.maximal_downs)


def glue_filtrations(family: LocalFamily) -> ThomasonFiltration:
    """Degreewise gluing; raises with the offending degree when incompatible.

    The family was checked when it was built, so its rows are glued in
    increasing degree: one union and one agreement test per degree, so the
    degree raised is the least incompatible one.  Gluing preserves
    inclusions, so the glued levels decrease and are only normalised.
    """
    poset = family.global_poset
    levels = []
    for n, row in zip(family.degrees, family.rows):
        agrees, glued = _agree(poset, row)
        if not agrees:
            raise _incompatible(poset, row, n)
        levels.append(_glued_mask(poset, glued))
    return from_levels(poset, family.start, levels)


def localize_filtrations(filtration: ThomasonFiltration) -> LocalFamily:
    """The restrictions of ``filtration`` to every maximal point m: each
    level masked with every down-set into a row.

    The rows are in normal form already, with no :func:`trim`: the down-sets
    of the maximal points cover the poset, so x |-> (x & down[m] for m
    maximal) is injective, and the rows are equal exactly where the trimmed
    levels they come from are."""
    downs = filtration.poset.maximal_downs
    rows = tuple([tuple([x & below for below in downs]) for x in filtration.masks])
    return LocalFamily(filtration.poset, filtration.start, rows)


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
    left_out = 0
    for below, x in zip(poset.maximal_downs, row):
        left_out |= below & ~x
    x_prime = 0
    for up in poset.up:
        if not up & left_out:
            x_prime |= up
    return agrees == (glued == x_prime)


def local_up_sets(poset: SpectralPoset, m: int) -> list[int]:
    """The up-sets of Spec(R_m), the down-set of m, as :func:`all_up_sets`
    lists them."""
    return all_up_sets(poset, poset.down[m])


def family_to_json(family: LocalFamily) -> dict:
    """``{label: filtration JSON}`` of the members, in poset order, as
    :meth:`LocalFamily.from_members` reads it."""
    poset, start, rows = family.global_poset, family.start, family.rows
    return {
        # column k of the rows, carried as a filtration in the numbering of ``poset``
        poset.elements[m]: filtration_to_json(
            from_levels(poset, start, [row[k] for row in rows]), partial(level_to_json, at=m)
        )
        for k, m in enumerate(poset.maxima)
    }


def row_to_json(poset: SpectralPoset, row: Sequence[int]) -> dict:
    """A row of local sets as a failure writes it: label -> local set JSON."""
    return {poset.elements[m]: level_to_json(poset, x, m) for m, x in zip(poset.maxima, row)}
