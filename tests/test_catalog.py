from spectral_glue.catalog import (
    all_filtration_families,
    all_filtrations,
    all_set_families,
    all_thomason_sets,
    cosilting_fixtures,
    koszul_complexes,
    poset_catalog,
    poset_counts,
    product_catalog,
    spec_filtrations,
    stalk_complexes,
    zmod_catalog,
)
from spectral_glue.poset import is_thomason, maximal_points
from spectral_glue.torsion_cosilting import is_cosilting


def test_poset_counts_match_isomorphism_classes():
    assert poset_counts(6) == [1, 2, 5, 16, 63, 318]
    assert len(poset_catalog(6)) == 405
    assert len(poset_catalog(3)) == 8


def test_catalog_posets_are_distinct_and_valid():
    posets = poset_catalog(4)
    assert len(set(posets)) == len(posets)
    for poset in posets:
        assert maximal_points(poset)


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
    for family in all_set_families(vee):
        assert set(family) == {"m1", "m2"}
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
    filts = spec_filtrations(z12, -1, 1)
    assert filts


def test_cosilting_fixtures_are_cosilting():
    fixtures = cosilting_fixtures()
    assert len(fixtures) >= 10
    assert any(len(c.ring.local_factors()) == 3 for c in fixtures)
    # spot-check one small fixture; the full check runs in the sweep
    small = min(fixtures, key=lambda c: c.ring.order)
    assert is_cosilting(small)
