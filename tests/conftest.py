import itertools
import math

import pytest

from spectral_glue import InvalidInputError, SpectralPoset, ThomasonSet, ZMod
from spectral_glue.catalog import all_filtrations, all_thomason_sets, count_filtrations
from spectral_glue.poset import localization_poset
from spectral_glue.rings import spec
from spectral_glue.thomason import ThomasonFiltration, from_levels


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
    return ThomasonSet.from_members(poset, members)


def constant_filtration(poset, value: ThomasonSet) -> ThomasonFiltration:
    return from_levels(poset, 0, (value.mask, value.mask))


def window(filtration) -> tuple[int, int]:
    """(lo, hi), the first and last degrees of the breakpoint window; a pure
    step or a constant has hi = lo - 1."""
    return filtration.start + 1, filtration.start + len(filtration.masks) - 2


def level_sets(filtration) -> tuple[int, tuple[ThomasonSet, ...]]:
    """(start, levels): X_start, X_start+1, ... as sets, the low tail first
    and the high tail last."""
    poset = filtration.poset
    return filtration.start, tuple(ThomasonSet(poset, x) for x in filtration.masks)


def leq(poset, a, b) -> bool:
    """a <= b in the poset, read off the up-set mask of a."""
    return bool(poset.up[poset.point(a)] >> poset.point(b) & 1)


def is_thomason(members, poset) -> bool:
    """On a finite spectral space the Thomason subsets are exactly the up-sets."""
    mask = poset.mask_of(members)
    return poset.closure(mask) == mask


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


def set_row(poset, family) -> tuple[int, ...]:
    """The row (X(m) for m in ``poset.maxima``) of a label -> local set family,
    in the numbering of ``poset``, as :mod:`spectral_glue.gluing` takes it.
    The keys must be the maximal points and each set must live on the
    localization at its key."""
    if set(family) != poset.maximal_labels:
        raise InvalidInputError("set family must cover exactly the maximal points")
    row = []
    for m in poset.maxima:
        label = poset.elements[m]
        if family[label].poset != poset.localization(m):
            raise InvalidInputError(f"set at {label!r} lives on the wrong poset")
        row.append(poset.unpack(family[label].mask, m))
    return tuple(row)
