import pytest

from spectral_glue import (
    FiltrationOrderError,
    IncompatibleFamilyError,
    InvalidInputError,
    UnsupportedRingError,
)
from spectral_glue.integers import (
    ZLocalFamily,
    ZThomason,
    chain_poset,
    check_z_dagger,
    glue_z_filtrations,
    localize_z_filtration,
    template_poset,
    z_family_from_json,
    z_filtration_from_json,
    z_filtration_to_json,
    z_v_of_ideal,
)
from spectral_glue.thomason import filtration_from_json, make_filtration


def zfilt(low, bps, high):
    parse = lambda v: ZThomason(full=True) if v == "full" else ZThomason(False, frozenset(v))
    return make_filtration(None, parse(low), [(n, parse(s)) for n, s in bps], parse(high))


def test_v_of_ideal():
    assert z_v_of_ideal([0]) == ZThomason(full=True)
    assert z_v_of_ideal([1]) == ZThomason(False)
    assert z_v_of_ideal([12]) == ZThomason(False, frozenset({2, 3}))
    assert z_v_of_ideal([4, 6]) == ZThomason(False, frozenset({2}))


def test_restrict_to_chain():
    s = ZThomason(False, frozenset({2, 5}))
    assert s.restrict(2).members == {"(2)"}
    assert s.restrict(3).members == set()
    assert ZThomason(full=True).restrict(7).is_full()


def test_full_set_carries_no_primes():
    with pytest.raises(InvalidInputError):
        ZThomason(full=True, primes=frozenset({2}))


def test_localize_glue_roundtrip():
    filt = zfilt("full", [(0, [2, 3]), (1, [3])], [])
    family = localize_z_filtration(filt)
    assert glue_z_filtrations(family) == filt


def test_non_decreasing_is_an_error():
    with pytest.raises(FiltrationOrderError, match="degree 1"):
        zfilt("full", [(0, [2]), (1, [2, 3])], [])
    with pytest.raises(FiltrationOrderError, match="degree 0"):
        z_filtration_from_json({"low_tail": [], "breakpoints": [{"n": 0, "set": [2]}], "high_tail": []})


def test_pure_step_roundtrip():
    filt = zfilt("full", [(2, [])], [])
    assert glue_z_filtrations(localize_z_filtration(filt)) == filt
    assert z_filtration_from_json(z_filtration_to_json(filt)) == filt


def test_incompatible_generic_point():
    template = template_poset()
    default = filtration_from_json(
        template, {"low_tail": "full", "breakpoints": [{"n": 0, "set": []}], "high_tail": []}
    )
    bad = filtration_from_json(
        chain_poset(2),
        {"low_tail": "full", "breakpoints": [{"n": 0, "set": "full"}], "high_tail": []},
    )
    family = ZLocalFamily(default, {2: bad})
    assert check_z_dagger(family, 0) == (2, "default", "(0)")
    with pytest.raises(IncompatibleFamilyError):
        glue_z_filtrations(family)


def test_default_closed_point_everywhere_is_unrepresentable():
    template = template_poset()
    default = filtration_from_json(
        template,
        {"low_tail": "full", "breakpoints": [{"n": 0, "set": ["(m)"]}], "high_tail": []},
    )
    with pytest.raises(UnsupportedRingError):
        glue_z_filtrations(ZLocalFamily(default, {}))


def test_family_json():
    family = z_family_from_json(
        {
            "default": {"low_tail": "full", "breakpoints": [{"n": 0, "set": []}], "high_tail": []},
            "exceptions": {
                "5": {"low_tail": "full", "breakpoints": [{"n": 0, "set": ["(5)"]}], "high_tail": []}
            },
        }
    )
    glued = glue_z_filtrations(family)
    assert glued.at(0) == ZThomason(False, frozenset({5}))
    assert glued.at(-1) == ZThomason(full=True)
    assert glued.at(1) == ZThomason(False)


def test_exception_poset_is_checked():
    template = template_poset()
    default = filtration_from_json(
        template, {"low_tail": "full", "breakpoints": [{"n": 0, "set": []}], "high_tail": []}
    )
    wrong = filtration_from_json(
        chain_poset(3),
        {"low_tail": "full", "breakpoints": [{"n": 0, "set": []}], "high_tail": []},
    )
    with pytest.raises(InvalidInputError):
        ZLocalFamily(default, {2: wrong})
