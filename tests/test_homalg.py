import pytest

from spectral_glue import (
    BoundedComplex,
    FreeTerm,
    InvalidInputError,
    ZMod,
    cohomology,
    cyclic_module,
    derived_hom,
    koszul,
    localize_complex,
    shift,
    stalk_complex,
    support_of_cohomology,
)
from spectral_glue.homalg import (
    complex_from_json,
    direct_sum_complexes,
    free_stalk,
    is_acyclic,
    koszul_of_ideal,
    zero_complex,
)
from spectral_glue.rings import Ideal


def test_koszul_shape(z12):
    k = koszul(z12, [2])
    assert k.degrees() == [-1, 0]
    assert k.rank(-1) == k.rank(0) == 1
    k2 = koszul(z12, [2, 3])
    assert [k2.rank(n) for n in (-2, -1, 0)] == [1, 2, 1]


def test_koszul_cohomology_oracles(z12):
    k2 = koszul(z12, [2])
    assert cohomology(k2, 0).order == 2
    assert cohomology(k2, -1).order == 2
    k6 = koszul(z12, [6])
    assert cohomology(k6, 0).order == 6
    assert cohomology(k6, -1).order == 6


def test_koszul_support_in_v_of_ideal(z12):
    for gens in [(2,), (3,), (4,), (6,), (2, 3)]:
        ideal = Ideal(z12, gens)
        k = koszul_of_ideal(z12, ideal)
        v = set(ideal_support(z12, ideal))
        for n in range(k.min_degree, k.max_degree + 1):
            assert support_of_cohomology(k, n).members <= v


def ideal_support(ring, ideal):
    from spectral_glue import v_of_ideal

    return v_of_ideal(ring, ideal).members


def test_unit_koszul_is_acyclic(z12):
    assert is_acyclic(koszul(z12, [1]))
    assert not is_acyclic(koszul(z12, [2]))


def test_differentials_must_square_to_zero(z12):
    with pytest.raises(InvalidInputError):
        BoundedComplex(
            z12,
            {-1: FreeTerm(1), 0: FreeTerm(1), 1: FreeTerm(1)},
            {-1: [[2]], 0: [[3]]},
        )


def test_shift_convention(z12):
    k = koszul(z12, [2])
    s = shift(k, 1)
    assert s.degrees() == [-2, -1]
    assert cohomology(s, -1).order == cohomology(k, 0).order


def test_direct_sum(z12):
    both = direct_sum_complexes(koszul(z12, [2]), free_stalk(z12, 1, 0))
    assert both.rank(0) == 2
    assert both.rank(-1) == 1


def test_stalk_and_zero(z12):
    stalk = stalk_complex(cyclic_module(z12, 3), 2)
    assert cohomology(stalk, 2).order == 3
    assert cohomology(stalk, 0).order == 1
    assert is_acyclic(zero_complex(z12))


def test_derived_hom_oracles(z12):
    k2 = koszul(z12, [2])
    z3 = stalk_complex(cyclic_module(z12, 3), 0)
    z2 = stalk_complex(cyclic_module(z12, 2), 0)
    assert derived_hom(k2, z3, 0).order == 1
    assert derived_hom(k2, z2, 0).order == 2
    # degree shift moves the Hom group accordingly
    assert derived_hom(k2, shift(z2, 1), -1).order == 2


def test_derived_hom_requires_free_source(z12):
    z3 = stalk_complex(cyclic_module(z12, 3), 0)
    with pytest.raises(InvalidInputError):
        derived_hom(z3, z3, 0)


def test_localize_complex(z12):
    k6 = koszul(z12, [6])
    at2 = localize_complex(k6, "(2)")
    assert at2.ring.order == 4  # the complex now lives over the local factor
    assert cohomology(at2, 0).order == 2
    assert support_of_cohomology(at2, 0).sorted_members() == ["(2)"]


def test_complex_json(z12):
    data = {
        "terms": {"-1": {"free": 1}, "0": {"module": {"relations": [[3]]}}},
        "differentials": {},
    }
    cx = complex_from_json(z12, data)
    assert cx.rank(-1) == 1
    assert cohomology(cx, 0).order == 3
    with pytest.raises(InvalidInputError):
        complex_from_json(z12, {"terms": {"0": {"free": -1}}, "differentials": {}})


def test_localize_zmod_30():
    z30 = ZMod(30)
    k = koszul(z30, [6])
    assert cohomology(k, 0).order == 6
    assert support_of_cohomology(k, 0).sorted_members() == ["(2)", "(3)"]
