import pytest

from spectral_glue import (
    BoundedComplex,
    FreeTerm,
    InvalidInputError,
    ThomasonSet,
    TStructureDescriptor,
    aisle_membership,
    classify_degeneracy,
    coaisle_membership,
    constant_filtration,
    cyclic_module,
    kappa_test,
    koszul,
    localize_tstructure,
    make_filtration,
    shift,
    stalk_complex,
)
from spectral_glue import homalg
from spectral_glue.rings import spec
from spectral_glue.tstructures import (
    DEGENERATE_OTHER,
    NONDEGENERATE,
    STABLE,
    coaisle_obstructions,
)


@pytest.fixture
def standard(z12, z12_poset):
    """Filtration full / {(2)} at 0 / empty."""
    full = ThomasonSet.full(z12_poset)
    empty = ThomasonSet.empty(z12_poset)
    x0 = ThomasonSet.from_members(z12_poset, {"(2)"})
    return TStructureDescriptor(z12, make_filtration(z12_poset, full, [(0, x0)], empty))


def test_filtration_must_live_on_spec(z12, vee):
    filt = constant_filtration(vee, ThomasonSet.full(vee))
    with pytest.raises(InvalidInputError):
        TStructureDescriptor(z12, filt)


def test_aisle_verdicts(standard, z12):
    z2 = stalk_complex(cyclic_module(z12, 2), 0)
    z3 = stalk_complex(cyclic_module(z12, 3), 0)
    assert aisle_membership(z2, standard)
    assert not aisle_membership(z3, standard)
    # shifting into the low tail (full levels) always lands in the aisle
    assert aisle_membership(shift(z3, 1), standard)


def test_coaisle_verdicts(standard, z12):
    z3 = stalk_complex(cyclic_module(z12, 3), 0)
    z2 = stalk_complex(cyclic_module(z12, 2), 0)
    assert coaisle_membership(z3, standard)
    assert not coaisle_membership(shift(z3, 2), standard)
    assert not coaisle_membership(z2, standard)
    assert coaisle_membership(shift(z2, -1), standard)


def test_coaisle_obstructions_of_a_target_with_differentials(z12, monkeypatch):
    """R --1--> R in degrees -1, 0 next to Z/3 in degree 1 is quasi-isomorphic
    to the stalk Z/3[-1]: enumeration on the one must give the obstructions
    that Hom orders give on the other."""
    z3 = cyclic_module(z12, 3)
    expected = coaisle_obstructions(stalk_complex(z3, 1))
    assert expected
    y = BoundedComplex(z12, {-1: FreeTerm(1), 0: FreeTerm(1), 1: z3}, {-1: [[1]]})

    def refuse(*args, **kwargs):
        raise AssertionError("a target with differentials must be enumerated")

    monkeypatch.setattr(homalg, "hom_orders", refuse)
    assert coaisle_obstructions(y) == expected


def test_koszul_generator_in_aisle(standard, z12):
    assert aisle_membership(koszul(z12, [4]), standard)


def test_kappa_test(standard):
    assert kappa_test("(2)", 0, standard)
    assert not kappa_test("(3)", 0, standard)
    assert kappa_test("(3)", -1, standard)
    assert not kappa_test("(2)", 1, standard)


def test_localize_tstructure(standard):
    at2 = localize_tstructure(standard, "(2)")
    assert at2.ring.order == 4
    assert at2.filtration.at(0).is_full()
    assert at2.filtration.at(1).members == set()
    at3 = localize_tstructure(standard, "(3)")
    assert at3.filtration.at(-1).is_full()
    assert at3.filtration.at(0).members == set()


def test_classify_degeneracy(standard, z12, z12_poset):
    assert classify_degeneracy(standard) == NONDEGENERATE
    x0 = ThomasonSet.from_members(z12_poset, {"(2)"})
    stable = TStructureDescriptor(z12, constant_filtration(z12_poset, x0))
    assert classify_degeneracy(stable) == STABLE
    full = ThomasonSet.full(z12_poset)
    other = TStructureDescriptor(
        z12, make_filtration(z12_poset, full, [(0, x0)], x0)
    )
    assert classify_degeneracy(other) == DEGENERATE_OTHER


def test_localization_commutes_with_classification(standard):
    poset, _ = spec(standard.ring)
    for m in poset.elements:
        local = localize_tstructure(standard, m)
        assert classify_degeneracy(local) in {NONDEGENERATE, STABLE, DEGENERATE_OTHER}
