import pytest

from spectral_glue import SpectralPoset, ThomasonSet, ZMod
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
