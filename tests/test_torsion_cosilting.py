import itertools

import pytest

from spectral_glue import (
    InvalidInputError,
    PolyQuot,
    ProductRing,
    ThomasonSet,
    ZMod,
    cosilting_equivalent,
    components_of_cosilting,
    cyclic_module,
    direct_sum,
    free_module,
    glue_cosilting,
    is_cosilting,
    support,
    thomason_of_torsion_class,
    torsion_submodule,
    two_term_filtration,
)
from spectral_glue import rings, sweeps
from spectral_glue.catalog import all_thomason_sets, cosilting_fixtures
from spectral_glue.rings import Ideal, all_ideals, indecomposable_injectives, spec
from spectral_glue.torsion_cosilting import (
    CosiltingModule,
    TorsionTable,
    cosilting_from_json,
    cosilting_from_modules,
    cosilting_thomason_of_module,
    cyclic_annihilators,
    cyclic_in_b_eta,
    cyclic_in_cogen,
)
from spectral_glue.thomason import set_from_json


def thomason_of_injective_class(ring, injectives) -> ThomasonSet:
    """The reference recovery of X from its injective class: the union of
    V(I) over the ideals I = (g) with Hom(R/I, E) = 0 for every E in the
    class, where Hom(R/(g), E) is the elements of E killed by g."""
    result = ThomasonSet.empty(spec(ring))
    for ideal in all_ideals(ring):
        g = ideal.generators[0]
        if all(sum(e.smul(g, x) == e.zero for x in e.elements) == 1 for e in injectives):
            result = result.union(rings.v_of_ideal(ring, ideal))
    return result


def injective_class_of(ring, x_set):
    table = TorsionTable(ring)
    return [table.injectives[j] for j in table.injective_class(x_set)]


@pytest.fixture
def v2(z12, z12_poset):
    return set_from_json(z12_poset, ["(2)"])


def test_torsion_submodule_oracle(z12, v2):
    free = free_module(z12, 1)
    part = torsion_submodule(free, v2)
    assert part.order == 4
    assert sorted(part.elements) == [(0,), (3,), (6,), (9,)]


def is_torsion(module, x_set) -> bool:
    """The reference: Supp M, read off the local size chains, lies in X."""
    return module.is_zero_module() or support(module) <= x_set


def torsion_verdicts(module, x_set) -> tuple[bool, bool]:
    """(torsion, torsion-free) as the ``torsion`` verb reads them off the
    torsion part: all of M, or zero."""
    part = torsion_submodule(module, x_set)
    return part.order == module.order, part.is_zero_module()


def test_torsion_predicates(z12, v2):
    assert torsion_verdicts(cyclic_module(z12, 4), v2) == (True, False)
    assert torsion_verdicts(cyclic_module(z12, 3), v2) == (False, True)
    assert torsion_verdicts(free_module(z12, 1), v2) == (False, False)


def test_thomason_torsion_roundtrip(z12, z12_poset):
    for x_set in all_thomason_sets(z12_poset):
        cyclics = TorsionTable(z12).torsion_class(x_set)
        assert thomason_of_torsion_class(z12, cyclics) == x_set


@pytest.mark.parametrize(
    "ring",
    [ZMod(12), ZMod(30), ZMod(60), ZMod(210), ProductRing((ZMod(4), PolyQuot(2, (0, 0, 1))))],
    ids=str,
)
def test_torsion_table_agrees_with_the_per_module_enumeration(ring):
    table = TorsionTable(ring)
    poset = spec(ring)
    ideals = all_ideals(ring)
    injectives = indecomposable_injectives(ring)
    cyclics = [cyclic_module(ring, i.generators[0]) for i in ideals]
    for x_set in all_thomason_sets(poset):
        expected = [i for i, m in zip(ideals, cyclics) if is_torsion(m, x_set)]
        assert table.torsion_class(x_set) == expected
        # Supp M is the union of the element supports
        for m in cyclics + injectives:
            assert torsion_verdicts(m, x_set)[0] == is_torsion(m, x_set), (ring, m, x_set)
        chosen = table.injective_class(x_set)
        free = [j for j, e in enumerate(injectives) if torsion_submodule(e, x_set).is_zero_module()]
        assert list(chosen) == free
        assert table.recovered(chosen) == thomason_of_injective_class(
            ring, [injectives[j] for j in free]
        )


def test_the_torsion_sweep_still_reads_supports_off_the_modules(monkeypatch):
    def everywhere(module):
        poset = spec(module.ring)
        return ThomasonSet.full(poset)

    monkeypatch.setattr(rings, "support", everywhere)
    report = sweeps.sweep_torsion(max_n=12)
    # with every nonzero R/I supported everywhere only the empty and the full
    # set come back, so the one-prime sets of Z/6, Z/10 and Z/12 fail
    assert len(report.failures) == 6
    assert all(f["problems"] == ["torsion-class roundtrip broke"] for f in report.failures)


def test_injective_class_oracle(z12, v2):
    injectives = injective_class_of(z12, v2)
    assert [m.order for m in injectives] == [3]
    assert thomason_of_injective_class(z12, injectives) == v2


def test_injective_class_is_injective_as_a_map(z12, z12_poset):
    signatures = set()
    for x_set in all_thomason_sets(z12_poset):
        sig = tuple(sorted(tuple(sorted(m.local_invariants().items())) for m in injective_class_of(z12, x_set)))
        assert sig not in signatures
        signatures.add(sig)


def test_cosilting_z3_over_z12(z12, v2):
    c = cosilting_from_modules(z12, [cyclic_module(z12, 3)])
    assert is_cosilting(c)
    assert not c.is_degenerate()
    assert cosilting_thomason_of_module(c) == v2


def test_cogenerator_and_zero_cosilting(z12, z12_poset):
    from spectral_glue.rings import indecomposable_injectives

    cogen = cosilting_from_modules(z12, indecomposable_injectives(z12))
    assert is_cosilting(cogen)
    assert cosilting_thomason_of_module(cogen).members == set()
    zero = cosilting_from_modules(z12, [])
    assert is_cosilting(zero)
    assert zero.is_degenerate()
    assert cosilting_thomason_of_module(zero) == ThomasonSet.full(z12_poset)


def test_split_glue_equivalence(z12):
    c = cosilting_from_modules(z12, [cyclic_module(z12, 3)])
    parts = components_of_cosilting(c)
    assert sorted(parts) == ["(2)", "(3)"]
    assert parts["(2)"].module.order == 1
    assert parts["(3)"].module.order == 3
    glued = glue_cosilting(z12, parts)
    assert cosilting_equivalent(glued, c)


def test_componentwise_thomason_sets_glue(z12, v2):
    c = cosilting_from_modules(z12, [cyclic_module(z12, 3)])
    parts = components_of_cosilting(c)
    # (2)-component cuts out the full local spectrum, (3)-component nothing
    at2 = cosilting_thomason_of_module(parts["(2)"])
    assert at2 == ThomasonSet.full(spec(parts["(2)"].ring))
    assert cosilting_thomason_of_module(parts["(3)"]).members == set()


def test_two_term_filtration(z12, v2):
    filt = two_term_filtration(v2)
    assert filt.at(-1) == ThomasonSet.full(v2.poset)
    assert filt.at(0) == v2
    assert filt.at(1).members == set()


def test_not_cosilting_without_cogeneration(z12):
    # Q1 = 0 cannot absorb the missing injective Z/4, so Z/3 alone fails
    data = {"q0": {"relations": [[3]]}, "q1": {"relations": [[1]]}, "eta": [[0]]}
    c = cosilting_from_json(z12, data)
    assert not is_cosilting(c)


def test_cosilting_json_matches_constructor(z12):
    data = {"q0": {"relations": [[3]]}, "q1": {"relations": [[4]]}, "eta": [[0]]}
    via_json = cosilting_from_json(z12, data)
    via_modules = cosilting_from_modules(z12, [cyclic_module(z12, 3)])
    assert cosilting_equivalent(via_json, via_modules)


def test_eta_shape_is_validated(z12):
    with pytest.raises(InvalidInputError):
        cosilting_from_json(z12, {"q0": {"relations": [[3]]}, "q1": {"relations": [[4]]}, "eta": []})


def test_cosilting_json_that_is_no_object_is_named(z12):
    with pytest.raises(InvalidInputError) as err:
        cosilting_from_json(z12, [1])
    assert str(err.value) == "cosilting JSON must be a JSON object, got [1]"


def test_eta_is_evaluated_through_the_relations_of_q0(z12):
    c = cosilting_from_json(z12, {"q0": {"rank": 1}, "q1": {"relations": [[4]]}, "eta": [[1]]})
    assert sorted(c.module.elements) == [(0,), (4,), (8,)]
    assert c.eta[(5,)] == (1,)


def test_eta_is_read_on_the_presentation_basis_of_q0(z12):
    """Q0 = R/(a) + R/(b) and Q1 = R/(c) over Z/12: the rows [u], [v] are the
    images of e_1 and e_2, accepted exactly when a u = 0 = b v in Q1, and
    then x goes to x_1 u + x_2 v."""
    cases = 0
    for a, b, c in itertools.product((2, 3, 4, 6), repeat=3):
        for u, v in itertools.product(range(c), repeat=2):
            cases += 1
            data = {"q0": {"relations": [[a, 0], [0, b]]}, "q1": {"relations": [[c]]}, "eta": [[u], [v]]}
            if (a * u) % c or (b * v) % c:
                with pytest.raises(InvalidInputError, match="eta does not respect the relations of Q0"):
                    cosilting_from_json(z12, data)
                continue
            eta = cosilting_from_json(z12, data).eta
            assert eta == {(x1, x2): ((x1 * u + x2 * v) % c,) for x1 in range(a) for x2 in range(b)}
    assert cases == 1040


def test_eta_must_respect_the_relations_of_q0(z12):
    # 3 kills the generator of Q0 = R/(3) but not its image 1 in R/(4)
    with pytest.raises(InvalidInputError, match="eta does not respect the relations of Q0"):
        cosilting_from_json(z12, {"q0": {"relations": [[3]]}, "q1": {"relations": [[4]]}, "eta": [[1]]})


def test_equivalence_is_invariant_under_duplication(z12):
    c = cosilting_from_modules(z12, [cyclic_module(z12, 3)])
    doubled = cosilting_from_json(
        z12,
        {"q0": {"relations": [[3, 0], [0, 3]]}, "q1": {"relations": [[4]]}, "eta": [[0], [0]]},
    )
    assert cosilting_equivalent(c, doubled)
    other = cosilting_from_modules(z12, [cyclic_module(z12, 4)])
    assert not cosilting_equivalent(c, other)


# -- the per-cyclic cosilting test against the multiset sweep ------------------


def _multiset_is_cosilting(cosilting):
    """B_eta = Cogen(C) compared on every direct sum of cyclics R/(a) of order
    at most |R|^2, one multiset of annihilators at a time."""
    ring = cosilting.ring
    gens = cyclic_annihilators(ring)
    orders = [ring.order // len(Ideal(ring, (g,)).members) for g in gens]
    in_b = [cyclic_in_b_eta(ring, a, cosilting) for a in gens]
    in_c = [cyclic_in_cogen(ring, a, cosilting) for a in gens]

    def multisets(prefix, total, start):
        yield prefix
        for i in range(start, len(gens)):
            if total * orders[i] <= ring.order**2:
                yield from multisets(prefix + (i,), total * orders[i], i)

    return all(
        all(in_b[i] for i in ms) == all(in_c[i] for i in ms) for ms in multisets((), 1, 0)
    )


def _copresentations(ring):
    """Every eta: Q0 -> Q1 between sums of distinct indecomposable injectives."""
    injectives = indecomposable_injectives(ring)
    sums = [
        direct_sum(ring, combo)
        for k in range(len(injectives) + 1)
        for combo in itertools.combinations(injectives, k)
    ]
    for q0 in sums:
        for q1 in sums:
            for images in q0.homs_to(q1):
                yield CosiltingModule(ring, q0, q1, q0.hom_graph(images, q1))


@pytest.mark.parametrize(
    "ring, count, cosilting",
    [(ZMod(12), 42, 4), (ProductRing((ZMod(4), PolyQuot(2, (0, 0, 1)))), 49, 4)],
    ids=str,
)
def test_is_cosilting_per_cyclic_matches_the_multiset_sweep(ring, count, cosilting):
    copresentations = list(_copresentations(ring))
    verdicts = [is_cosilting(c) for c in copresentations]
    assert verdicts == [_multiset_is_cosilting(c) for c in copresentations]
    assert (len(verdicts), sum(verdicts)) == (count, cosilting)


def test_is_cosilting_per_cyclic_matches_the_multiset_sweep_on_the_fixtures():
    fixtures = cosilting_fixtures()
    assert len(fixtures) == 16
    assert all(is_cosilting(c) and _multiset_is_cosilting(c) for c in fixtures)
