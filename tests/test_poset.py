import pytest

from spectral_glue import InvalidInputError, SpectralPoset, localization_poset, maximal_points
from spectral_glue.poset import all_up_sets

from conftest import is_thomason, leq


def test_closure_is_automatic():
    chain = SpectralPoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert leq(chain, "a", "c")
    assert leq(chain, "a", "a")


def test_antisymmetry_enforced():
    with pytest.raises(InvalidInputError):
        SpectralPoset(["a", "b"], [("a", "b"), ("b", "a")])


def test_maximal_points(vee):
    assert maximal_points(vee) == frozenset({"m1", "m2"})


def test_up_sets_of_vee(vee):
    ups = all_up_sets(vee)
    assert len(ups) == 5
    assert vee.mask_of({"p"}) not in ups
    assert is_thomason({"m1", "m2"}, vee)
    assert not is_thomason({"p"}, vee)


def test_localization_poset(vee):
    sub = localization_poset(vee, "m1")
    assert set(sub.elements) == {"p", "m1"}
    assert leq(sub, "p", "m1")


def test_localization_rejects_unknown_prime(vee):
    with pytest.raises(InvalidInputError):
        localization_poset(vee, "q")


def test_from_json_roundtrip(vee):
    assert SpectralPoset.from_json(vee.to_json()) == vee


def test_from_json_rejects_unknown_labels():
    with pytest.raises(InvalidInputError):
        SpectralPoset.from_json({"elements": ["a"], "leq": [["a", "b"]]})
