import pytest

from spectral_glue import (
    IncompatibleFamilyError,
    InvalidInputError,
    LocalFamily,
    ThomasonSet,
    check_dagger,
    check_dagger_sets,
    check_lemma_equiv,
    constant_filtration,
    glue_filtrations,
    glue_sets,
    localize_filtrations,
    localize_sets,
    make_filtration,
)
from spectral_glue.catalog import all_filtrations, all_thomason_sets, poset_catalog
from spectral_glue.poset import localization_poset

from conftest import up


def local_full(vee, m):
    sub = localization_poset(vee, m)
    return ThomasonSet.full(sub)


def local_set(vee, m, *members):
    sub = localization_poset(vee, m)
    return ThomasonSet.from_members(sub, members)


def test_localize_then_glue_is_identity(vee):
    for s in all_thomason_sets(vee):
        assert glue_sets(vee, localize_sets(s)) == s


def test_incompatible_family_has_witness(vee):
    sets = {"m1": local_set(vee, "m1"), "m2": local_full(vee, "m2")}
    report = check_dagger_sets(vee, sets)
    assert not report.dagger_holds
    m1, m2, p = report.violating_pair
    assert {m1, m2} == {"m1", "m2"} and p == "p"
    with pytest.raises(IncompatibleFamilyError):
        glue_sets(vee, sets)


def test_compatible_family_glues_to_union_of_stars(vee):
    sets = {"m1": local_full(vee, "m1"), "m2": local_full(vee, "m2")}
    assert check_dagger_sets(vee, sets).dagger_holds
    assert glue_sets(vee, sets).is_full()
    disjoint = {"m1": local_set(vee, "m1", "m1"), "m2": local_set(vee, "m2")}
    assert glue_sets(vee, disjoint).members == {"m1"}


def test_family_must_cover_maximal_points(vee):
    with pytest.raises(InvalidInputError):
        LocalFamily(vee, {"m1": constant_filtration(*_local(vee, "m1"))})


def _local(vee, m):
    sub = localization_poset(vee, m)
    return sub, ThomasonSet.full(sub)


def test_filtration_glue_localize_roundtrip(vee):
    full, empty = ThomasonSet.full(vee), ThomasonSet.empty(vee)
    filt = make_filtration(vee, full, [(0, up(vee, "m1", "m2")), (1, up(vee, "m1"))], empty)
    assert glue_filtrations(localize_filtrations(filt)) == filt


def test_glue_reports_offending_degree(vee):
    sub1 = localization_poset(vee, "m1")
    sub2 = localization_poset(vee, "m2")
    f1 = make_filtration(
        sub1, ThomasonSet.full(sub1), [(0, ThomasonSet.empty(sub1))], ThomasonSet.empty(sub1)
    )
    f2 = constant_filtration(sub2, ThomasonSet.full(sub2))
    family = LocalFamily(vee, {"m1": f1, "m2": f2})
    with pytest.raises(IncompatibleFamilyError) as err:
        glue_filtrations(family)
    assert err.value.witness is not None and err.value.witness[2] == "p"


def test_from_default_materializes_restrictions(vee):
    full, empty = ThomasonSet.full(vee), ThomasonSet.empty(vee)
    filt = make_filtration(vee, full, [(0, up(vee, "m1"))], empty)
    family = LocalFamily.from_default(vee, filt)
    assert family.filtrations["m2"].at(0).members == set()
    assert family.filtrations["m1"].at(0).members == {"m1"}


def test_check_dagger_at_level(vee):
    full, empty = ThomasonSet.full(vee), ThomasonSet.empty(vee)
    filt = make_filtration(vee, full, [(0, up(vee, "m1"))], empty)
    family = localize_filtrations(filt)
    assert check_dagger(family, 0).dagger_holds


def test_lemma_equiv_on_examples(vee):
    compatible = {"m1": local_full(vee, "m1"), "m2": local_full(vee, "m2")}
    incompatible = {"m1": local_set(vee, "m1"), "m2": local_full(vee, "m2")}
    assert check_lemma_equiv(vee, compatible)
    assert check_lemma_equiv(vee, incompatible)


def test_lemma_equiv_exhaustive_small():
    for poset in poset_catalog(3):
        for s in all_thomason_sets(poset):
            assert glue_sets(poset, localize_sets(s)) == s
        for filt in all_filtrations(poset, -1, 1):
            assert glue_filtrations(localize_filtrations(filt)) == filt
