import itertools

import pytest

from spectral_glue import IncompatibleFamilyError, InvalidInputError, ZMod, catalog
from spectral_glue.catalog import (
    MAX_FILTRATIONS,
    all_filtrations,
    all_set_rows,
    all_thomason_sets,
    compatible_filtration_families,
    compatible_set_rows,
    cosilting_fixtures,
    count_filtrations,
    koszul_complexes,
    poset_catalog,
    product_catalog,
    stalk_complexes,
    zmod_catalog,
)
from spectral_glue.gluing import LocalFamily, glue_filtrations, glue_sets
from spectral_glue.rings import spec
from spectral_glue.torsion_cosilting import is_cosilting

from conftest import (
    all_filtration_families,
    all_set_families,
    count_filtration_families,
    is_thomason,
    set_row,
)


def test_poset_counts_match_isomorphism_classes():
    # OEIS A000112
    assert [len(level) for level in catalog._poset_relations(7)] == [1, 2, 5, 16, 63, 318, 2045]
    assert len(poset_catalog(6)) == 405
    assert len(poset_catalog(3)) == 8


def _all_permutations_canonical(rel, size):
    """The least relation image over every relabeling of the points."""
    best = None
    for perm in itertools.permutations(range(size)):
        image = tuple(sorted((perm[i], perm[j]) for i, j in rel))
        if best is None or image < best:
            best = image
    return best


def test_block_canonical_form_keeps_the_all_permutations_representatives(monkeypatch):
    block_canonical = catalog._canonical
    # relabeling a poset never changes its refined form
    for size, level in enumerate(catalog._poset_relations(4), 1):
        for rel in level:
            form = block_canonical(rel, size)
            for perm in itertools.permutations(range(size)):
                relabeled = frozenset((perm[i], perm[j]) for i, j in rel)
                assert block_canonical(relabeled, size) == form
    refined = catalog._poset_relations(5)
    monkeypatch.setattr(catalog, "_canonical", _all_permutations_canonical)
    assert catalog._poset_relations.__wrapped__(5) == refined


def test_catalog_posets_are_distinct_and_valid():
    posets = poset_catalog(4)
    assert len(set(posets)) == len(posets)
    for poset in posets:
        assert poset.maximal_labels


def test_all_thomason_sets(vee):
    sets = all_thomason_sets(vee)
    assert len(sets) == 5
    for s in sets:
        assert is_thomason(s.members, vee)


def test_all_filtrations_are_decreasing(vee):
    filts = all_filtrations(vee, -1, 1)
    assert filts
    for filt in filts:
        for n in range(-2, 3):
            assert filt.at(n + 1).members <= filt.at(n).members


def test_families_cover_maximal_points(vee):
    for row in all_set_rows(vee):
        assert len(row) == len(vee.maxima) == 2
    for family in all_filtration_families(vee, 0, 0):
        assert set(family) == {"m1", "m2"}


def test_ring_catalogs():
    zmods = zmod_catalog(12)
    assert all(2 <= r.order <= 12 for r in zmods)
    products = product_catalog(30)
    assert products
    assert all(len(r.local_factors()) <= 3 for r in products)


def test_complex_corpora(z12):
    assert koszul_complexes(z12)
    assert stalk_complexes(z12)
    filts = all_filtrations(spec(z12), -1, 1)
    assert filts


def test_cosilting_fixtures_are_cosilting():
    fixtures = cosilting_fixtures()
    assert len(fixtures) >= 10
    assert any(len(c.ring.local_factors()) == 3 for c in fixtures)
    # spot-check one small fixture; the full check runs in the sweep
    small = min(fixtures, key=lambda c: c.ring.order)
    assert is_cosilting(small)


@pytest.mark.parametrize("window", [(0, 0), (-1, 1), (-2, 1)])
def test_filtration_counts_match_the_enumeration(window):
    for poset in poset_catalog(3):
        assert count_filtrations(poset, *window) == len(all_filtrations(poset, *window))
        families = all_filtration_families(poset, *window)
        assert count_filtration_families(poset, *window) == len(families)


def test_a_window_is_counted_before_it_is_enumerated():
    z30_poset = spec(ZMod(30))
    # Spec(Z/30) is three points with 4 chains each for [-1, 1], 102 each for [-50, 50]
    assert count_filtrations(z30_poset, -1, 1) == 4**3
    assert count_filtrations(z30_poset, -50, 50) > MAX_FILTRATIONS
    with pytest.raises(InvalidInputError, match=r"window \[-50, 50\].*MAX_FILTRATIONS"):
        all_filtrations(z30_poset, -50, 50)


def _glues(glue, *args) -> bool:
    try:
        glue(*args)
    except IncompatibleFamilyError:
        return False
    return True


def test_compatible_set_families_are_the_glued_product():
    """The rows of every poset of at most 6 points: all of them are the label
    product converted to rows, in order, and the compatible ones its part
    that glues."""
    for poset in poset_catalog(6):
        rows = [set_row(poset, family) for family in all_set_families(poset)]
        assert all_set_rows(poset) == rows
        assert compatible_set_rows(poset) == [r for r in rows if _glues(glue_sets, poset, r)]


def test_compatible_filtration_families_are_the_glued_product_up_to_5_points():
    listed = 0
    for poset in poset_catalog(5):
        families = compatible_filtration_families(poset, -1, 1)
        glued = set()
        for filts in all_filtration_families(poset, -1, 1):
            family = LocalFamily.from_members(poset, filts)
            if _glues(glue_filtrations, family):
                glued.add(family)
        assert len(families) == len(set(families))
        assert set(families) == glued
        listed += len(families)
    assert listed == 15_734


def _order_preserving_maps(poset, top: int) -> int:
    """The order polynomial by brute force: maps f from the points to
    {0, ..., top} with f(a) <= f(b) whenever a <= b."""
    index = poset.index
    pairs = [(index[a], index[b]) for a, b in poset.relation_pairs]
    return sum(
        all(f[a] <= f[b] for a, b in pairs)
        for f in itertools.product(range(top + 1), repeat=len(poset))
    )


@pytest.mark.parametrize("window", [(-1, 1), (0, 0), (0, 1)])
def test_filtrations_are_counted_by_the_order_polynomial_and_listed_as_families(window):
    # a chain X_lo >= ... >= X_hi of up-sets is the order-preserving map that
    # counts the degrees holding each point; each such filtration has one
    # compatible family, so with glue(localize) the identity, localize is onto
    lo, hi = window
    for poset in poset_catalog(5):
        count = count_filtrations(poset, lo, hi)
        assert count == _order_preserving_maps(poset, hi - lo + 1)
        assert len(compatible_filtration_families(poset, lo, hi)) == count
