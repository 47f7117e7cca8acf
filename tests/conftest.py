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


def leq(poset, a, b) -> bool:
    """a <= b in the poset, read off the up-set mask of a."""
    return bool(poset.up[poset.point(a)] >> poset.point(b) & 1)


def is_thomason(members, poset) -> bool:
    """On a finite spectral space the Thomason subsets are exactly the up-sets."""
    mask = poset.mask_of(members)
    return poset.closure(mask) == mask
