import functools
import itertools
import math

import pytest

from spectral_glue import InvalidInputError, LocalFamily, SpectralPoset, ThomasonSet, ZMod
from spectral_glue.catalog import all_filtrations, all_thomason_sets, count_filtrations
from spectral_glue.rings import spec
from spectral_glue.thomason import (
    ThomasonFiltration,
    filtration_to_json,
    from_levels,
    set_from_json,
)


@pytest.fixture
def vee() -> SpectralPoset:
    """One generic point below two closed points: p < m1, p < m2."""
    return SpectralPoset(["p", "m1", "m2"], [("p", "m1"), ("p", "m2")])


@pytest.fixture
def z12() -> ZMod:
    return ZMod(12)


@pytest.fixture
def z12_poset(z12):
    return spec(z12)


def up(poset, *members) -> ThomasonSet:
    return set_from_json(poset, members)


def mask_of(poset, labels) -> int:
    """The mask of a set of labels of ``poset``, the label-side oracle's way
    back to masks."""
    return sum({1 << poset.point(label) for label in labels})


def constant_filtration(poset, value: ThomasonSet) -> ThomasonFiltration:
    return from_levels(poset, 0, (value.mask, value.mask))


def window(filtration) -> tuple[int, int]:
    """(lo, hi), the first and last degrees of the breakpoint window; a pure
    step or a constant has hi = lo - 1."""
    return filtration.start + 1, filtration.start + filtration.length - 2


def level_sets(filtration) -> tuple[int, tuple[ThomasonSet, ...]]:
    """(start, levels): X_start, X_start+1, ... as sets, the low tail first
    and the high tail last."""
    poset = filtration.poset
    return filtration.start, tuple(ThomasonSet(poset, x) for x in filtration.levels())


def leq(poset, a, b) -> bool:
    """a <= b in the poset, read off the up-set mask of a."""
    return bool(poset.up[poset.point(a)] >> poset.point(b) & 1)


def is_thomason(members, poset) -> bool:
    """On a finite spectral space the Thomason subsets are exactly the up-sets."""
    mask = mask_of(poset, members)
    return poset.closure(mask) == mask


@functools.cache
def localization_poset(poset, label) -> SpectralPoset:
    """Spec(R_m) as a poset of its own, the label-side oracle: the poset
    induced on the labels of the down-set of ``label``, with the relation
    pairs of ``poset`` between them, numbered on its own; one per (poset,
    label) for the session."""
    below = set(poset.labels(poset.down[poset.point(label)]))
    return SpectralPoset(below, [(a, b) for a, b in poset.relation_pairs if b in below])


def member_json(members) -> dict:
    """The member JSON of label -> filtration on the localization at the
    label, each written by labels on its own poset."""
    return {label: filtration_to_json(f) for label, f in members.items()}


def packed_run(width, columns) -> int:
    """The int of the runs ``columns`` of equal length side by side, level k
    of column j at bits [(j·length + k)·width, ...): the layout of a
    filtration (one column) and of a family (one per maximal point)."""
    return sum(
        x << (j * len(column) + k) * width
        for j, column in enumerate(columns)
        for k, x in enumerate(column)
    )


def family_by_labels(poset, members) -> LocalFamily:
    """The family of label -> filtration on the localization at the label,
    built without the checks of the member wire: for the label products,
    whose members the catalog lists already checked.  Its degrees run from
    the first to the last level of any member that is not constant, or are
    -1 and 0 when all are, and each member reads at each degree its level
    there, past its ends its tails, carried over to ``poset`` by labels."""
    columns = [_column_by_labels(poset, members[poset.elements[m]]) for m in poset.maxima]
    spans = [(start, start + len(masks)) for start, masks in columns if masks[0] != masks[-1]]
    lo, stop = (min(spans)[0], max(stop for _, stop in spans)) if spans else (-1, 1)
    padded = [
        [masks[min(max(n - start, 0), len(masks) - 1)] for n in range(lo, stop)]
        for start, masks in columns
    ]
    return LocalFamily(poset, lo, stop - lo, packed_run(len(poset), padded))


@functools.cache
def _column_by_labels(poset, member) -> tuple:
    return member.start, tuple(mask_of(poset, member.poset.labels(x)) for x in member.levels())


def members_of(family) -> dict:
    """label -> the member of ``family`` at that label, as a filtration on
    :func:`localization_poset`: its levels carried over by labels."""
    poset = family.global_poset
    members = {}
    for m, member in zip(poset.maxima, family.members()):
        levels = tuple(member.levels())
        members[poset.elements[m]] = _member_by_labels(poset, m, member.start, levels)
    return members


@functools.cache
def _member_by_labels(poset, m, start, masks) -> ThomasonFiltration:
    local = localization_poset(poset, poset.elements[m])
    levels = [mask_of(local, poset.labels(x)) for x in masks]
    return ThomasonFiltration(local, start, len(levels), packed_run(len(local), [levels]))


def count_filtration_families(poset, lo, hi) -> int:
    """How many families :func:`all_filtration_families` lists: the product
    over the maximal points of the filtrations of each localization."""
    return math.prod(
        count_filtrations(localization_poset(poset, m), lo, hi) for m in poset.maximal_labels
    )


def all_filtration_families(poset, lo, hi) -> list[dict]:
    """Every assignment of a local filtration (window [lo, hi]) to each maximal
    point, compatible or not: the product that the listing of compatible
    families is checked against.  Unlike the package's listings it refuses
    no window."""
    maxima = sorted(poset.maximal_labels)
    locals_ = [all_filtrations(localization_poset(poset, m), lo, hi) for m in maxima]
    return [dict(zip(maxima, combo)) for combo in itertools.product(*locals_)]


def all_set_families(poset) -> list[dict]:
    """Every assignment of a local Thomason set to each maximal point,
    compatible or not, label -> set on the localization: the product that the
    package's rows are checked against."""
    maxima = sorted(poset.maximal_labels)
    locals_ = [all_thomason_sets(localization_poset(poset, m)) for m in maxima]
    return [dict(zip(maxima, combo)) for combo in itertools.product(*locals_)]


def set_row(poset, family) -> int:
    """The row (X(m) for m in ``poset.maxima``) of a label -> local set family,
    in the numbering of ``poset``, packed as :mod:`spectral_glue.gluing`
    takes it, carried over by labels.  The keys must be the maximal points and each set
    must live on :func:`localization_poset` at its key."""
    if set(family) != poset.maximal_labels:
        raise InvalidInputError("set family must cover exactly the maximal points")
    row = []
    for m in poset.maxima:
        label = poset.elements[m]
        if family[label].poset != localization_poset(poset, label):
            raise InvalidInputError(f"set at {label!r} lives on the wrong poset")
        row.append(mask_of(poset, family[label].members))
    return packed_run(len(poset), [row])
