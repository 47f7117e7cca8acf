import pytest

from spectral_glue import (
    BoundedComplex,
    FreeTerm,
    InvalidInputError,
    PolyQuot,
    ProductRing,
    ThomasonSet,
    ZMod,
    aisle_membership,
    classify_degeneracy,
    coaisle_membership,
    cyclic_module,
    koszul,
    local_tstructures,
    localize_filtrations,
    make_filtration,
    shift,
    stalk_complex,
)
from spectral_glue import catalog, rings as rng
from spectral_glue.homalg import derived_hom, zero_complex
from spectral_glue.rings import spec
from spectral_glue.sweeps import _local_global_rings, _orthogonality_rings
from spectral_glue.tstructures import (
    DEGENERATE_OTHER,
    NONDEGENERATE,
    STABLE,
    aisle_admits,
    coaisle_admits,
    cohomology_supports,
)

from conftest import constant_filtration, up


@pytest.fixture
def standard(z12_poset):
    """Filtration full / {(2)} at 0 / empty of Spec(Z/12)."""
    full = ThomasonSet.full(z12_poset)
    empty = ThomasonSet.empty(z12_poset)
    x0 = up(z12_poset, "(2)")
    return make_filtration(z12_poset, full, [(0, x0)], empty)


def test_coaisle_admits_refuses_supports_over_another_poset(vee, z12_poset):
    """The coaisle reads a support against a level mask: disjoint from
    {m2}, meeting {m1, m2}, and refused on another poset."""
    supports = {0: up(vee, "m1")}
    assert coaisle_admits(supports, constant_filtration(vee, up(vee, "m2")))
    assert not coaisle_admits(supports, constant_filtration(vee, up(vee, "m1", "m2")))
    elsewhere = constant_filtration(z12_poset, ThomasonSet.empty(z12_poset))
    for admits in (aisle_admits, coaisle_admits):
        with pytest.raises(InvalidInputError, match="different posets"):
            admits(supports, elsewhere)


def test_filtration_must_live_on_spec(z12, vee):
    """Both membership tests refuse a filtration off Spec R, even for the
    zero complex, which has no support to compare."""
    filt = constant_filtration(vee, ThomasonSet.full(vee))
    for complex_ in (stalk_complex(cyclic_module(z12, 2), 0), zero_complex(z12)):
        for membership in (aisle_membership, coaisle_membership):
            with pytest.raises(InvalidInputError, match="spec"):
                membership(complex_, filt)


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


def test_coaisle_verdicts_of_a_target_with_differentials(z12, z12_poset):
    """R --1--> R in degrees -1, 0 next to Z/3 in degree 1 is quasi-isomorphic
    to the stalk Z/3[-1], so every filtration gives both the same verdict."""
    z3 = cyclic_module(z12, 3)
    stalk = stalk_complex(z3, 1)
    y = BoundedComplex(z12, {-1: FreeTerm(1), 0: FreeTerm(1), 1: z3}, {-1: [[1]]})
    verdicts = []
    for filt in catalog.all_filtrations(z12_poset, -1, 1):
        verdicts.append(coaisle_membership(stalk, filt))
        assert coaisle_membership(y, filt) == verdicts[-1], filt
    assert True in verdicts and False in verdicts


# -- coaisle membership against Koszul orthogonality --------------------------


def koszul_obstructions(y, koszuls):
    """The pairs (n, V(I)) with Hom(K(I)[-n], Y) nonzero, by enumerating the
    Hom groups.  K(I) lives in degrees [-1, 0] (every ideal here is
    principal), so only n in [min deg Y, max deg Y + 1] can give one."""
    if y.is_zero():
        return []
    return [
        (n, v)
        for v, kos in koszuls
        for n in range(y.min_degree, y.max_degree + 2)
        if not derived_hom(kos, y, n).is_zero_module()
    ]


def coaisle_verdicts_match_koszul_orthogonality(ring, targets) -> list[bool]:
    """Asserts that Y is in the coaisle of X iff no obstruction (n, V(I)) of Y
    has V(I) inside X_n, over every filtration with breakpoints in [-1, 1];
    returns the verdicts."""
    ideals = rng.all_ideals(ring)
    koszuls = [(rng.v_of_ideal(ring, i), koszul(ring, i.generators)) for i in ideals]
    filtrations = catalog.all_filtrations(spec(ring), -1, 1)
    verdicts = []
    for y in targets:
        obstructions = koszul_obstructions(y, koszuls)
        supports = cohomology_supports(y)
        for filt in filtrations:
            verdicts.append(coaisle_admits(supports, filt))
            assert verdicts[-1] == (not any(v <= filt.at(n) for n, v in obstructions)), (y, filt)
    return verdicts


def test_coaisle_matches_koszul_orthogonality_on_stalk_targets():
    verdicts = [
        verdict
        for ring in _orthogonality_rings(24) + _local_global_rings(24)
        for verdict in coaisle_verdicts_match_koszul_orthogonality(
            ring, catalog.stalk_complexes(ring)
        )
    ]
    assert len(verdicts) == 23_808
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize(
    "ring",
    [ZMod(12), ZMod(8), PolyQuot(3, (0, 0, 1)), ProductRing([ZMod(4), PolyQuot(2, (0, 0, 1))])],
    ids=["z12", "z8", "f3-x2", "product"],
)
def test_coaisle_matches_koszul_orthogonality_on_targets_with_differentials(ring):
    """Koszul complexes of every ideal in degrees [-1, 0] and [-2, -1], and
    each next to a cyclic stalk in degree 1."""
    ideals = rng.all_ideals(ring)
    koszuls = [koszul(ring, i.generators) for i in ideals]
    targets = koszuls + [shift(k, 1) for k in koszuls]
    targets += [
        BoundedComplex(ring, {**k.terms, 1: cyclic_module(ring, i.generators[0])}, k.diffs)
        for k, i in zip(koszuls, reversed(ideals))
    ]
    verdicts = coaisle_verdicts_match_koszul_orthogonality(ring, targets)
    assert True in verdicts and False in verdicts


def test_koszul_generator_in_aisle(standard, z12):
    assert aisle_membership(koszul(z12, [4]), standard)


def kappa_test(ring, p, n, filt):
    """kappa(p)[-n] lies in the aisle iff p is in X_n; asserts the equivalence.
    kappa(p) = R/p, all primes being maximal."""
    kappa = cyclic_module(ring, rng.local_factor(ring, p).prime_gen)
    result = aisle_membership(stalk_complex(kappa, n), filt)
    expected = p in filt.at(n).members
    if result != expected:
        raise AssertionError(
            f"kappa test inconsistency at p={p!r}, n={n}: aisle says {result}, "
            f"filtration says {expected}"
        )
    return result


def test_kappa_test(standard, z12):
    assert kappa_test(z12, "(2)", 0, standard)
    assert not kappa_test(z12, "(3)", 0, standard)
    assert kappa_test(z12, "(3)", -1, standard)
    assert not kappa_test(z12, "(2)", 1, standard)


def test_local_tstructures(standard, z12):
    local = local_tstructures(z12, localize_filtrations(standard))
    assert list(local) == ["(2)", "(3)"]
    ring2, at2 = local["(2)"]
    assert ring2.order == 4 and at2.poset == spec(ring2)
    assert at2.at(0) == ThomasonSet.full(at2.poset)
    assert at2.at(1).members == set()
    ring3, at3 = local["(3)"]
    assert ring3.order == 3 and at3.poset == spec(ring3)
    assert at3.at(-1) == ThomasonSet.full(at3.poset)
    assert at3.at(0).members == set()


def test_local_tstructures_refuse_a_family_off_spec_of_the_ring(vee):
    """A family on another poset, even one whose labels spec(ring) has, is
    refused before any factor is read."""
    z6 = spec(ZMod(6))
    step = make_filtration(z6, ThomasonSet.full(z6), [(0, up(z6, "(3)"))], ThomasonSet.empty(z6))
    on_z6 = localize_filtrations(step)
    on_vee = localize_filtrations(constant_filtration(vee, up(vee, "m1")))
    for ring, family in [(ZMod(30), on_z6), (ZMod(12), on_vee)]:
        with pytest.raises(InvalidInputError, match=r"spec\(ring\)"):
            local_tstructures(ring, family)


def test_classify_degeneracy(standard, z12_poset):
    assert classify_degeneracy(standard) == NONDEGENERATE
    x0 = up(z12_poset, "(2)")
    stable = constant_filtration(z12_poset, x0)
    assert classify_degeneracy(stable) == STABLE
    full = ThomasonSet.full(z12_poset)
    other = make_filtration(z12_poset, full, [(0, x0)], x0)
    assert classify_degeneracy(other) == DEGENERATE_OTHER


def test_localization_commutes_with_classification():
    """Over every filtration F of Spec(Z/12) and Spec(Z/30) on [-1, 1], read
    through the local t-structures of its localization: F is nondegenerate
    exactly when every local one is, and constant exactly when every local
    one is."""
    tags = []
    for n in (12, 30):
        ring = ZMod(n)
        for filt in catalog.all_filtrations(spec(ring), -1, 1):
            local = local_tstructures(ring, localize_filtrations(filt)).values()
            local_tags = [classify_degeneracy(local_filt) for _, local_filt in local]
            tag = classify_degeneracy(filt)
            assert (tag == NONDEGENERATE) == all(t == NONDEGENERATE for t in local_tags), filt
            assert (tag == STABLE) == all(t == STABLE for t in local_tags), filt
            tags.append(tag)
    # 16 and 64 filtrations, every tag among them
    assert [tags.count(t) for t in (NONDEGENERATE, STABLE, DEGENERATE_OTHER)] == [12, 12, 56]
