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

The layout is that of :mod:`spectral_glue.thomason`'s packed runs, one
column per maximal point.  On an n-point poset with maxima m_0 < m_1 < ...,
a family of local sets is a row, one int with X(m_j) at bits [j·n,
(j+1)·n) (:func:`make_row`, :func:`localize_sets`, :func:`row_masks`).  A
family of local filtrations, :class:`LocalFamily`, is one int for all its
degrees: the members' runs side by side in the numbering of the global
poset, level k of member j at bits [(j·L + k)·n, (j·L + k + 1)·n), so a row
is the one-level case.  Members side by side, not rows, make localizing and
gluing whole-int operations on the filtration's own run; reading a row
costs a pass over the members, which only the wire, ``lemma-equiv`` and an
incompatible degree pay.

Localizing multiplies the run by ``copies``, bit 0 of every member's slot,
to repeat it in every slot, and masks each copy into its star with
``downs``, down[m_j] over the L levels of slot j.  Gluing ORs the member
slots in halves.  The one agreement kernel, ``_agree``, shared by
:func:`glue_sets`, :func:`glue_filtrations` and :func:`check_lemma_equiv`,
is one multiply-AND-compare: a family agrees at every degree and member
exactly when localizing its glued run gives it back.  Only when it does not
is the least failing degree read, as the lowest set bit of the difference,
and its witness found in that degree's row.  The constants are built once
per poset and number of levels, in the poset's ``layouts``.  A glued run is
asserted to be a run of up-sets once for each point i that is not maximal:
the up-set of i lies in every level that holds i.  A maximal point's
up-set is itself.

Neither map trims, and both give the normal form of
:func:`~spectral_glue.thomason.trim`: localizing is injective, as the
down-sets of the maximal points cover the poset, so the rows of a localized
run are equal exactly where its levels are; gluing is its inverse on
compatible rows.

A family is checked once, where it enters: :meth:`LocalFamily.from_members`
checks the keys of label-keyed member JSON, reads each member to its
trimmed run and checks the span, and :meth:`LocalFamily.from_default`
checks its exception keys and its default's poset, then reads each
exception as ``from_members`` does; both then pad the members to common
degrees.  :meth:`LocalFamily.from_run` normalises a run built by the
package.  Set families have no wire, so a row is built by the package and
not checked again.  The level codec of :mod:`spectral_glue.thomason` at m
reads and writes every level of a member at m and every X(m) of a row:
"full" is ``down[m]``, and a list names points of ``down[m]`` by label.  A
:class:`LocalFamily` (global_poset, start, length, packed) is an immutable
value on :class:`spectral_glue.values.Value`, equal and hashed by those four
fields.
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
    concat,
    filtration_from_json,
    filtration_to_json,
    fold,
    from_packed,
    level_from_json,
    level_to_json,
    ones,
    slots,
    trim,
)
from .values import Value


class LocalFamily(Value):
    """Assignment m -> filtration on Spec(R_m), the down-set of m, as one
    packed int.

    Over the n-point ``global_poset`` with maxima m_0 < m_1 < ..., level k of
    member j, the mask of X_n(m_j) at degree n = start + k, is at bits
    [(j·length + k)·n, (j·length + k + 1)·n) of ``packed``, an up-set of
    ``down[m_j]`` in the numbering of ``global_poset``.  As in a
    filtration's run, level 0 is the low tail and level length - 1 the high
    tail, and the run is in the normal form of
    :func:`~spectral_glue.thomason.trim`, so equal families compare equal.
    :meth:`member_runs` reads the members' runs and :meth:`rows` the row of
    each degree.  The constructor checks nothing; a family from outside the
    package is built by :meth:`from_members` or :meth:`from_default`.  A
    family over Z is one of these on :func:`spectral_glue.integers.z_poset`.
    """

    __slots__ = _fields = ("global_poset", "start", "length", "packed")

    def __init__(self, global_poset: SpectralPoset, start: int, length: int, packed: int):
        set_poset, set_start, set_length, set_packed = self._setters
        set_poset(self, global_poset)
        set_start(self, start)
        set_length(self, length)
        set_packed(self, packed)

    @property
    def degrees(self) -> range:
        return range(self.start, self.start + self.length)

    def member_runs(self) -> list[int]:
        """The members' runs, one per maximal point in poset order, each
        ``length`` levels in the numbering of the global poset."""
        poset = self.global_poset
        return slots(self.packed, len(poset.elements) * self.length, len(poset.maxima))

    def rows(self) -> list[int]:
        """The row of each level, degree start + k at k, as :func:`make_row`
        packs it."""
        width, length = len(self.global_poset.elements), self.length
        levels = [slots(run, width, length) for run in self.member_runs()]
        return [concat(row, width) for row in zip(*levels)] if levels else [0] * length

    @classmethod
    def from_run(
        cls, global_poset: SpectralPoset, start: int, length: int, packed: int
    ) -> "LocalFamily":
        """The family of a packed run of members, in this layout, that
        decreases in each member, in the normal form of
        :func:`~spectral_glue.thomason.trim`."""
        width, members = len(global_poset.elements), len(global_poset.maxima)
        return cls(global_poset, *trim(width, members, start, length, packed))

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
        labels, start, length = global_poset.elements, default.start, default.length
        localized = localize_filtrations(default).member_runs()
        columns = [
            _column(global_poset, m, exceptions[labels[m]])
            if labels[m] in exceptions
            else from_packed(global_poset, start, length, column)
            for m, column in zip(global_poset.maxima, localized)
        ]
        return _padded(global_poset, columns)


def _column(poset: SpectralPoset, m: int, data: Mapping) -> ThomasonFiltration:
    """The member JSON ``data`` at m, as a filtration in the numbering of
    ``poset`` (so in normal form): each level read by the level codec at m,
    and the run checked as
    :func:`~spectral_glue.thomason.filtration_from_json` checks one."""
    return filtration_from_json(poset, data, partial(level_from_json, at=m))


def _padded(poset: SpectralPoset, columns: Sequence[ThomasonFiltration]) -> LocalFamily:
    """The family of one member run in normal form per maximal point, in
    poset order, once its degrees lie within the bound.  The degrees run
    from the first to the last level of any member that is not constant, and
    each member is padded there with its tails.  So the family is in normal
    form: the member that places the first degree changes at the second, and
    the one that places the last changes at the second-last; with every
    member constant it has the two equal levels of a constant."""
    # a constant member reads the same at every degree, so only the others place the degrees
    spans = [(f.start, f.start + f.length) for f in columns if f.low != f.high]
    lo, stop = (min(spans)[0], max(stop for _, stop in spans)) if spans else (-1, 1)
    # a tail degree on each side of the windows
    if stop - lo - 3 > MAX_DEGREE_SPAN:
        raise InvalidInputError(
            f"family members' windows lie more than the bound MAX_DEGREE_SPAN = "
            f"{MAX_DEGREE_SPAN} degrees apart (levels from degree {lo} to {stop - 1})"
        )
    width, length = len(poset.elements), stop - lo
    padded = [
        f.low * ones(width, length)
        if f.low == f.high
        else f.low * ones(width, f.start - lo)
        | f.packed << (f.start - lo) * width
        | f.high * ones(width, stop - f.start - f.length) << (f.start + f.length - lo) * width
        for f in columns
    ]
    return LocalFamily(poset, lo, length, concat(padded, width * length))


# Python multiplies by a long sparse int chunk by chunk, a Karatsuba product
# each, so ``copies`` spans at most this many members and more are shifted in
_COPIES = 16


class _Layout:
    """The constants of packed runs of ``length`` levels on one poset:
    ``width`` bits a level, ``stride`` bits a member and ``members`` of
    them; ``run``, bit 0 of every level of one member; ``copies``, bit 0 of
    the slots of the first members, and ``doublings``, the shifts that copy
    those to the rest; ``downs``, down[m_j] at every level of slot j; and
    ``inner``, the points that are not maximal with their up-sets."""

    __slots__ = ("width", "stride", "members", "run", "copies", "doublings", "downs", "inner")

    def __init__(self, poset: SpectralPoset, length: int):
        self.width = width = len(poset.elements)
        self.stride = stride = width * length
        self.members = members = len(poset.maxima)
        self.run = ones(width, length)
        self.copies = ones(stride, min(members, _COPIES))
        self.doublings = []
        have = _COPIES
        while have < members:  # the copies at [0, have) shifted cover [have, 2·have) or the rest
            step = min(have, members - have)
            self.doublings.append(step * stride)
            have += step
        self.downs = concat([below * self.run for below in poset.maximal_downs], stride)
        self.inner = [(i, up) for i, up in enumerate(poset.up) if up != 1 << i]


def _layout(poset: SpectralPoset, length: int) -> _Layout:
    layout = poset.layouts.get(length)
    if layout is None:
        layout = poset.layouts[length] = _Layout(poset, length)
    return layout


def _copied(layout: _Layout, run: int) -> int:
    """The run of levels copied into every member's slot."""
    copies = run * layout.copies
    for shift in layout.doublings:
        copies |= copies << shift
    return copies


def _agree(layout: _Layout, packed: int) -> tuple[bool, int]:
    """(whether the family agrees pairwise at every level, its glued run):
    the glued run is the union of the members' runs.

    The family agrees pairwise exactly when every X(m) is glued & down[m]:
    pairwise agreement gives glued & down[m] = union of X(m') & down[m] =
    union of X(m) & down[m'] = X(m), and conversely X(m) & down[m'] = glued &
    down[m] & down[m'] = X(m') & down[m].  So it agrees exactly when
    localizing the glued run, copying it to every slot and masking each
    with its star, gives it back."""
    glued = fold(packed, layout.stride, layout.members)
    return _copied(layout, glued) & layout.downs == packed, glued


def _first_disagreement(layout: _Layout, packed: int, glued: int) -> int:
    """The least level at which a family that disagrees does: the lowest set
    bit of where it differs from its glued run localized, over the members."""
    differ = fold(_copied(layout, glued) & layout.downs ^ packed, layout.stride, layout.members)
    return ((differ & -differ).bit_length() - 1) // layout.width


def _incompatible(poset: SpectralPoset, row: int, degree=None) -> IncompatibleFamilyError:
    """The error of a row that disagrees, with its first witness (m, m', p):
    the first pair in label order and the least shared prime they differ on."""
    down, stars = poset.down, list(zip(poset.maxima, row_masks(poset, row)))
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


def _glued_mask(layout: _Layout, glued: int) -> int:
    # automatic on a finite poset: the star images of a compatible family glue to up-sets
    run = layout.run
    for i, up in layout.inner:
        # bit i of every level, spread to the up-set of i: no carry, as up < 2**width
        assert not (glued >> i & run) * up & ~glued, (
            "glued set of a compatible family must be Thomason"
        )
    return glued


def family_is_nondegenerate(family: LocalFamily) -> bool:
    """Whether every member is non-degenerate: its low tail all of its
    Spec(R_m), the down-set of m, and its high tail empty."""
    poset, packed = family.global_poset, family.packed
    layout = _layout(poset, family.length)
    firsts = _copied(layout, poset.full)  # level 0 of every member
    high = packed >> (family.length - 1) * layout.width & firsts
    return not high and packed & firsts == layout.downs & firsts


def family_is_constant(family: LocalFamily) -> bool:
    """Whether every member is constant: its tails are equal."""
    poset, packed = family.global_poset, family.packed
    layout = _layout(poset, family.length)
    firsts = _copied(layout, poset.full)
    return packed & firsts == packed >> (family.length - 1) * layout.width & firsts


def make_row(poset: SpectralPoset, masks: Sequence[int]) -> int:
    """The row of the local sets ``masks``, X(m) for m in ``poset.maxima``."""
    return concat(masks, len(poset.elements))


def row_masks(poset: SpectralPoset, row: int) -> list[int]:
    """The local sets of a row, X(m) for m in ``poset.maxima``."""
    return slots(row, len(poset.elements), len(poset.maxima))


def glue_sets(poset: SpectralPoset, row: int) -> ThomasonSet:
    """Union of the star images of a row; defined only for compatible rows."""
    layout = _layout(poset, 1)
    agrees, glued = _agree(layout, row)
    if not agrees:
        raise _incompatible(poset, row)
    return ThomasonSet(poset, _glued_mask(layout, glued))


def localize_sets(s: ThomasonSet) -> int:
    """X |-> the row of X(m) = X & down[m], X restricted to Spec(R_m)."""
    layout = _layout(s.poset, 1)
    return _copied(layout, s.mask) & layout.downs


def glue_filtrations(family: LocalFamily) -> ThomasonFiltration:
    """Degreewise gluing; raises with the least incompatible degree.

    The family was checked when it was built, so its members are ORed into
    one run and every degree is tested at once; the least degree that
    disagrees is read only when one does.  The glued run is in normal form
    already (see the module docstring), so it is not trimmed.
    """
    poset, length = family.global_poset, family.length
    layout = _layout(poset, length)
    agrees, glued = _agree(layout, family.packed)
    if not agrees:
        k = _first_disagreement(layout, family.packed, glued)
        raise _incompatible(poset, family.rows()[k], family.start + k)
    return ThomasonFiltration(poset, family.start, length, _glued_mask(layout, glued))


def localize_filtrations(filtration: ThomasonFiltration) -> LocalFamily:
    """The restrictions of ``filtration`` to every maximal point m: its run
    copied into every member's slot and masked with the down-sets there.
    The family is in normal form already (see the module docstring)."""
    layout = _layout(filtration.poset, filtration.length)
    packed = _copied(layout, filtration.packed) & layout.downs
    return LocalFamily(filtration.poset, filtration.start, filtration.length, packed)


def check_lemma_equiv(poset: SpectralPoset, row: int) -> bool:
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
    layout = _layout(poset, 1)
    agrees, glued = _agree(layout, row)
    # the points of down[m] that X(m) leaves out, over every m
    left_out = fold(layout.downs & ~row, layout.width, layout.members)
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
    poset, start, length = family.global_poset, family.start, family.length
    return {
        # each member's run, carried as a filtration in the numbering of ``poset``
        poset.elements[m]: filtration_to_json(
            from_packed(poset, start, length, column), partial(level_to_json, at=m)
        )
        for m, column in zip(poset.maxima, family.member_runs())
    }


def row_to_json(poset: SpectralPoset, row: int) -> dict:
    """A row of local sets as a failure writes it: label -> local set JSON."""
    masks = row_masks(poset, row)
    return {poset.elements[m]: level_to_json(poset, x, m) for m, x in zip(poset.maxima, masks)}
