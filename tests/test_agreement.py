"""The linear agreement test and the families built without checks, against
references that share no code with them.

``_pairwise`` decides agreement on labels, pair by pair, as the gluing
condition states it; :func:`glue_sets` decides it by comparing each star with
the glued set, and :func:`glue_filtrations` does the same on masks alone.
"""

import itertools

import pytest

from spectral_glue import (
    IncompatibleFamilyError,
    LocalFamily,
    ThomasonSet,
    glue_filtrations,
    glue_sets,
)
from spectral_glue.catalog import all_filtrations, all_set_families, poset_catalog
from spectral_glue.gluing import localize_filtrations
from spectral_glue.poset import localization_poset, maximal_points

from conftest import constant_filtration


def _pairwise(family):
    """(m, m', p) for the first pair, in label order, whose sets differ on a
    shared prime p, the least such label; None when every pair agrees."""
    maxima = sorted(family)
    shared = {m: frozenset(family[m].poset.elements) for m in maxima}
    for m, m2 in itertools.combinations(maxima, 2):
        common = shared[m] & shared[m2]
        differ = (family[m].members & common) ^ (family[m2].members & common)
        if differ:
            return m, m2, min(differ)
    return None


def _verdict(glue):
    try:
        glue()
    except IncompatibleFamilyError as exc:
        return exc.witness, exc.degree
    return None, None


def test_agreement_matches_the_pairwise_label_check_on_every_set_family():
    families = incompatible = 0
    for poset in poset_catalog(5):
        for family in all_set_families(poset):
            expected = _pairwise(family)
            assert _verdict(lambda: glue_sets(poset, family)) == (expected, None)
            # the same sets as constant members: the mask-only degreewise glue
            # reports the same witness, at the first degree it glues
            members = {m: constant_filtration(s.poset, s) for m, s in family.items()}
            local = LocalFamily(poset, members)
            witness, degree = _verdict(lambda: glue_filtrations(local))
            assert (witness, degree) == (expected, None if expected is None else -1)
            families += 1
            incompatible += expected is not None
    assert families == 1_958
    assert 0 < incompatible < families


def test_localized_families_equal_the_checked_construction():
    filtrations = 0
    for poset in poset_catalog(4):
        for filt in all_filtrations(poset, -2, 2):
            family = localize_filtrations(filt)
            checked = LocalFamily(poset, dict(family.filtrations))
            assert family == checked
            assert family.degrees() == checked.degrees()
            assert set(family.filtrations) == maximal_points(poset)
            for m, member in family.filtrations.items():
                assert member.poset == localization_poset(poset, m)
            filtrations += 1
    assert filtrations == 7_364


def test_family_members_are_read_only(vee):
    subs = {m: localization_poset(vee, m) for m in ("m1", "m2")}
    full = {m: constant_filtration(sub, ThomasonSet.full(sub)) for m, sub in subs.items()}
    family = LocalFamily(vee, full)
    with pytest.raises(TypeError):
        family.filtrations["m1"] = full["m2"]
    back = localize_filtrations(glue_filtrations(family))
    with pytest.raises(TypeError):
        back.filtrations["m1"] = full["m1"]
    # sweep 3 compares a localized family's members with a plain dict, and
    # families compare by value
    assert back.filtrations == full and not back.filtrations != full
    assert back == family
    empty = constant_filtration(subs["m1"], ThomasonSet.empty(subs["m1"]))
    assert back.filtrations != {**full, "m1": empty}
    assert back != LocalFamily(vee, {**full, "m1": empty})
