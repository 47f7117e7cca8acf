"""The linear agreement test and the families built without checks, against
references that share no code with them.

``_pairwise`` decides agreement on labels, pair by pair, as the gluing
condition states it; :func:`glue_sets` decides it by comparing each star with
the glued set, and :func:`glue_filtrations` does the same on masks alone.
"""

import importlib.util
import itertools
import json
from pathlib import Path

import pytest

from spectral_glue import (
    IncompatibleFamilyError,
    LocalFamily,
    SpectralPoset,
    ThomasonSet,
    glue_filtrations,
    glue_sets,
    gluing,
    integers,
)
from spectral_glue.catalog import all_filtrations, poset_catalog
from spectral_glue.gluing import localize_filtrations
from spectral_glue.poset import localization_poset

from conftest import all_set_families, constant_filtration, set_row
from test_normaliser import reference_restrict_filtration

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
)
_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)


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
            assert _verdict(lambda: glue_sets(poset, set_row(poset, family))) == (expected, None)
            # the same sets as constant members: the mask-only degreewise glue
            # reports the same witness, at the first degree it glues
            members = {m: constant_filtration(s.poset, s) for m, s in family.items()}
            local = LocalFamily.from_members(poset, members)
            witness, degree = _verdict(lambda: glue_filtrations(local))
            assert (witness, degree) == (expected, None if expected is None else -1)
            families += 1
            incompatible += expected is not None
    assert families == 1_958
    assert 0 < incompatible < families


def _refuse(*args, **kwargs):
    raise AssertionError("a member filtration was built")


def check_localized(filtrations, monkeypatch):
    """Over each filtration F: glue(localize(F)) == F with no mask packed or
    unpacked and no member filtration built; the members then read are the
    restrictions of F, as the reference restricts them; and the family equals the checked construction on the
    same members, both ways, with the same degrees.  Returns the count."""
    with monkeypatch.context() as patched:
        for name in ("pack", "unpack", "localization"):
            patched.setattr(SpectralPoset, name, _refuse)
        patched.setattr(gluing, "ThomasonFiltration", _refuse)
        families = [localize_filtrations(filt) for filt in filtrations]
        for filt, family in zip(filtrations, families):
            assert glue_filtrations(family) == filt
            assert "filtrations" not in vars(family)
    for filt, family in zip(filtrations, families):
        poset = filt.poset
        restricted = {m: reference_restrict_filtration(filt, m) for m in poset.maximal_labels}
        assert family.filtrations == restricted
        checked = LocalFamily.from_members(poset, restricted)
        assert family == checked and checked == family
        assert family.degrees == checked.degrees
    return len(families)


def test_localized_families_equal_the_checked_construction(monkeypatch):
    filtrations = [
        filt for poset in poset_catalog(4) for filt in all_filtrations(poset, -2, 2)
    ]
    assert check_localized(filtrations, monkeypatch) == 7_364


def test_localized_z_families_equal_the_checked_construction(monkeypatch):
    """The 2,000 seed-7 Z filtrations of the benchmark's round trips."""
    filtrations = [
        integers.z_filtration_from_json(data) for data in _workloads.random_z_filtrations(7, 2_000)
    ]
    assert check_localized(filtrations, monkeypatch) == 2_000


def test_the_member_codec_round_trips_every_localized_family():
    """family_to_json, through JSON text, read back by members_from_json and
    checked by from_members, gives the family again: every localized
    filtration of the catalog posets of at most 4 points on [-1, 1], and of
    the 2,000 seed-7 Z filtrations."""
    filtrations = [filt for poset in poset_catalog(4) for filt in all_filtrations(poset, -1, 1)]
    filtrations += [
        integers.z_filtration_from_json(data) for data in _workloads.random_z_filtrations(7, 2_000)
    ]
    for filt in filtrations:
        family = localize_filtrations(filt)
        wire = json.loads(json.dumps(gluing.family_to_json(family)))
        assert wire.keys() == filt.poset.maximal_labels
        back = LocalFamily.from_members(filt.poset, gluing.members_from_json(filt.poset, wire))
        assert back == family, wire
    assert len(filtrations) == 1_720 + 2_000


def test_family_members_are_read_only(vee):
    subs = {m: localization_poset(vee, m) for m in ("m1", "m2")}
    full = {m: constant_filtration(sub, ThomasonSet.full(sub)) for m, sub in subs.items()}
    family = LocalFamily.from_members(vee, full)
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
    assert back != LocalFamily.from_members(vee, {**full, "m1": empty})
