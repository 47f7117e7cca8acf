import itertools
import random

import pytest

from spectral_glue import (
    Ideal,
    IntegerRing,
    InvalidInputError,
    PolyQuot,
    ProductRing,
    UnsupportedRingError,
    ZMod,
    cyclic_module,
    direct_sum,
    free_module,
    indecomposable_injectives,
    residue_field,
    ring_from_json,
    support,
    v_of_ideal,
)
from spectral_glue import sweeps
from spectral_glue.catalog import poly_catalog, product_catalog, zmod_catalog
from spectral_glue.modules import FiniteModule, cokernel_of_rank
from spectral_glue.rings import all_ideals, localize_ring, module_from_json, pdivmod, pmul, pnorm, spec
from spectral_glue.torsion_cosilting import _element_support


def test_spec_z12(z12, z12_poset):
    assert sorted(z12_poset.elements) == ["(2)", "(3)"]
    assert z12_poset.relation_pairs == ()  # primes of Z/n are incomparable


def test_v_of_ideal_z12(z12):
    assert v_of_ideal(z12, Ideal(z12, (6,))).sorted_members() == ["(2)", "(3)"]
    assert v_of_ideal(z12, Ideal(z12, (4,))).sorted_members() == ["(2)"]
    assert v_of_ideal(z12, Ideal(z12, (0,))).is_full()
    assert v_of_ideal(z12, Ideal(z12, (1,))).sorted_members() == []


def test_ideal_lattice_z12(z12):
    gens = sorted(i.generators for i in all_ideals(z12))
    assert gens == [(0,), (1,), (2,), (3,), (4,), (6,)]
    assert Ideal(z12, (2, 3)).members == Ideal(z12, (1,)).members


def test_localize_z12(z12):
    local, proj = localize_ring(z12, "(2)")
    assert local.order == 4
    assert proj(6) == local.mul(local.one, proj(6))
    with pytest.raises(InvalidInputError):
        localize_ring(z12, "(5)")


def test_injectives_z12(z12):
    orders = sorted(m.order for m in indecomposable_injectives(z12))
    assert orders == [3, 4]


def test_residue_fields_z12(z12):
    assert residue_field(z12, "(2)").order == 2
    assert residue_field(z12, "(3)").order == 3


def test_poly_quot_spec():
    f4 = PolyQuot(2, (1, 1, 1))  # irreducible: a field with 4 elements
    poset, _ = spec(f4)
    assert list(poset.elements) == ["(x^2+x+1)"]
    dual = PolyQuot(2, (0, 0, 1))  # x^2: one prime (x)
    assert len(spec(dual)[0]) == 1
    split = PolyQuot(3, (2, 0, 1))  # x^2 - 1 = (x-1)(x+1) over F_3
    assert len(spec(split)[0]) == 2


def test_product_ring_spec():
    ring = ProductRing([ZMod(4), ZMod(3)])
    poset, _ = spec(ring)
    assert len(poset) == 2
    assert ring.order == 12


def test_integers_adapter_is_symbolic_only():
    with pytest.raises(UnsupportedRingError):
        spec(IntegerRing())


def test_ring_json_roundtrip():
    for data in (
        {"kind": "zmod", "n": 12},
        {"kind": "poly_quot", "p": 2, "f": [0, 0, 1]},
        {"kind": "product", "factors": [{"kind": "zmod", "n": 4}, {"kind": "zmod", "n": 3}]},
    ):
        ring = ring_from_json(data)
        assert ring_from_json(ring.to_json()).order == ring.order
    with pytest.raises(InvalidInputError):
        ring_from_json({"kind": "matrix"})


def test_free_and_cyclic_modules(z12):
    assert free_module(z12, 1).order == 12
    assert cyclic_module(z12, 4).order == 4
    assert cyclic_module(z12, 0).order == 12
    assert direct_sum(z12, [cyclic_module(z12, 4), cyclic_module(z12, 3)]).order == 12


def test_homs_to_counts_module_maps(z12):
    r = free_module(z12, 1)
    assert len(r.homs_to(cyclic_module(z12, 4))) == 4
    assert len(cyclic_module(z12, 3).homs_to(cyclic_module(z12, 4))) == 1
    assert len(cyclic_module(z12, 4).homs_to(cyclic_module(z12, 2))) == 2


def multiplied_primes(ring):
    """Each maximal ideal's members, by multiplying out its generator."""
    return {
        lf.label: {ring.mul(lf.prime_gen, r) for r in ring.elements()}
        for lf in ring.local_factors()
    }


def v_of_annihilator(module, elements=None):
    """V(Ann M), or V(Ann x) for ``elements=[x]``, with the annihilator swept
    element by element."""
    ring = module.ring
    zero = module.zero
    elements = module.elements if elements is None else elements
    ann = {r for r in ring.elements() if all(module.smul(r, x) == zero for x in elements)}
    return {label for label, prime in multiplied_primes(ring).items() if ann <= prime}


def test_annihilator_and_support(z12):
    m = cyclic_module(z12, 4)
    assert v_of_annihilator(m) == {"(2)"}
    assert support(m).sorted_members() == ["(2)"]
    assert support(free_module(z12, 1)).is_full()


@pytest.mark.parametrize("catalog", [zmod_catalog, product_catalog], ids=["zmod", "product"])
def test_support_is_v_of_the_annihilator(catalog):
    """Supp M, read off the local size chains, is V(Ann M) on every cyclic
    module of the catalog rings and on every sum of two of them."""
    checked = 0
    for ring in catalog(24):
        cyclics = [cyclic_module(ring, i.generators[0]) for i in all_ideals(ring)]
        pairs = itertools.combinations_with_replacement(cyclics, 2)
        sums = [direct_sum(ring, list(pair)) for pair in pairs]
        for m in cyclics + sums:
            assert support(m).members == v_of_annihilator(m), (ring, m)
            checked += 1
    assert checked > 300


def same_module(a, b):
    return a.elements == b.elements and a.local_invariants() == b.local_invariants()


@pytest.mark.parametrize(
    "catalog",
    [lambda: zmod_catalog(60), lambda: poly_catalog(5, 2), lambda: product_catalog(40)],
    ids=["zmod", "poly_quot", "product"],
)
def test_the_ideal_table_matches_the_paths_it_replaced(catalog):
    """Two-generator ideals, cyclic modules, residue fields and element
    supports agree with the span in R^1, the cokernel presentation and
    V(Ann x) with the annihilator enumerated."""
    for ring in catalog():
        free = free_module(ring, 1)
        gens = [i.generators[0] for i in all_ideals(ring)]
        for a, b in itertools.combinations(gens, 2):
            span = frozenset(v[0] for v in free.span([(a,), (b,)]))
            assert Ideal(ring, (a, b)).members == span, (ring, a, b)
        cyclics = [cyclic_module(ring, g) for g in gens]
        for g, m in zip(gens, cyclics):
            assert same_module(m, cokernel_of_rank(ring, 1, [(g,)])), (ring, g)
        for label, prime in spec(ring)[1].items():
            kappa = cokernel_of_rank(ring, 1, [prime.generators])
            assert same_module(residue_field(ring, label), kappa), (ring, label)
        for m in cyclics + indecomposable_injectives(ring):
            for x in m.elements:
                assert _element_support(m, x) == v_of_annihilator(m, [x]), (ring, m, x)


@pytest.mark.parametrize("ring", [ZMod(60), ProductRing((ZMod(4), PolyQuot(2, (0, 0, 1))))], ids=str)
def test_cyclic_modules_and_ideals_span_nothing(ring, monkeypatch):
    """Cyclic modules, residue fields and two-generator ideals are read off
    the ideal table: none of them spans a submodule."""

    def refuse(*_):
        raise AssertionError("span called")

    monkeypatch.setattr(FiniteModule, "span", refuse)
    ideals = all_ideals(ring)
    for ideal in ideals:
        assert cyclic_module(ring, ideal.generators[0]).order == ring.order // len(ideal.members)
    for label in spec(ring)[1]:
        assert residue_field(ring, label).order > 1
    for a, b in itertools.combinations(ideals, 2):
        assert Ideal(ring, a.generators + b.generators).members >= a.members | b.members


def test_quotient_and_submodule(z12):
    free = free_module(z12, 1)
    sub = free.submodule(free.span([(6,)]))
    assert sub.order == 2
    assert free.quotient(sub.elements).order == 6
    with pytest.raises(InvalidInputError):
        free.submodule({(1,)})


def _pairwise_closure(module, seed):
    """The additive closure as it was first written: every frontier element
    added to every closed one until nothing new appears."""
    closed = {module.zero}
    frontier = [e for e in seed if e not in closed]
    closed.update(frontier)
    while frontier:
        new = []
        for x in frontier:
            for y in list(closed):
                s = module.add(x, y)
                if s not in closed:
                    closed.add(s)
                    new.append(s)
        frontier = new
    return frozenset(closed)


@pytest.mark.parametrize(
    "module",
    [
        free_module(ZMod(36), 1),
        free_module(PolyQuot(2, (0, 0, 0, 1)), 2),
        free_module(ProductRing((ZMod(4), PolyQuot(2, (0, 0, 1)))), 2),
    ],
    ids=["Z/36", "F_2[x]/(x^3)^2", "(Z/4 x F_2[x]/(x^2))^2"],
)
def test_additive_closure_walks_cosets_to_the_pairwise_closure(module):
    rng = random.Random(36)
    for _ in range(40):
        seed = rng.sample(module.elements, rng.randint(0, 4))
        assert module.additive_closure(seed) == _pairwise_closure(module, seed)
    everything = frozenset(module.elements)
    assert module.additive_closure(module.elements) == everything


def test_local_invariants_detect_isomorphism(z12):
    a = direct_sum(z12, [cyclic_module(z12, 4), cyclic_module(z12, 3)])
    b = free_module(z12, 1)
    assert a.isomorphic_to(b)
    assert not cyclic_module(z12, 4).isomorphic_to(cyclic_module(z12, 2))


def test_module_from_json(z12):
    m = module_from_json(z12, {"relations": [[6]]})
    assert m.order == 6
    free2 = module_from_json(z12, {"relations": [], "rank": 2})
    assert free2.order == 144


# -- tables against independent arithmetic on element labels -----------------


def labels(ring):
    """Element i's label in the documented order: the residue for Z/n, the
    coefficient tuple for F_p[x]/(f), the component tuple for a product."""
    if isinstance(ring, ZMod):
        return list(range(ring.n))
    if isinstance(ring, PolyQuot):
        deg = len(ring.f) - 1
        return [pnorm(c, ring.p) for c in itertools.product(range(ring.p), repeat=deg)]
    return list(itertools.product(*(labels(f) for f in ring.factors)))


def label_ops(ring):
    """(add, neg, mul) on labels, by integer, polynomial or componentwise arithmetic."""
    if isinstance(ring, ZMod):
        n = ring.n
        return (lambda a, b: (a + b) % n), (lambda a: -a % n), (lambda a, b: a * b % n)
    if isinstance(ring, PolyQuot):
        p, f = ring.p, ring.f
        return (
            lambda a, b: pnorm([x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)], p),
            lambda a: pnorm([-c for c in a], p),
            lambda a, b: pdivmod(pmul(a, b, p), f, p)[1],
        )
    ops = [label_ops(f) for f in ring.factors]
    return (
        lambda a, b: tuple(o[0](x, y) for o, x, y in zip(ops, a, b)),
        lambda a: tuple(o[1](x) for o, x in zip(ops, a)),
        lambda a, b: tuple(o[2](x, y) for o, x, y in zip(ops, a, b)),
    )


def wire(ring, label):
    if isinstance(ring, ZMod):
        return label
    if isinstance(ring, PolyQuot):
        return list(label)
    return [wire(f, x) for f, x in zip(ring.factors, label)]


def pairs(ring, count=300):
    """Every pair for small rings, a fixed sample for the larger ones."""
    if ring.order <= 32:
        return list(itertools.product(ring.elements(), repeat=2))
    rnd = random.Random(ring.order)
    return [(rnd.randrange(ring.order), rnd.randrange(ring.order)) for _ in range(count)]


CATALOGS = pytest.mark.parametrize(
    "catalog",
    [lambda: zmod_catalog(60), lambda: poly_catalog(5, 3), lambda: product_catalog(40)],
    ids=["zmod", "poly_quot", "product"],
)


@CATALOGS
def test_tables_agree_with_label_arithmetic(catalog):
    for ring in catalog():
        names = labels(ring)
        index = {label: i for i, label in enumerate(names)}
        add, neg, mul = label_ops(ring)
        assert list(ring.elements()) == list(range(len(names))), ring
        for x in ring.elements():
            assert ring.neg(x) == index[neg(names[x])], (ring, x)
            assert ring.add(ring.zero, x) == x and ring.mul(ring.one, x) == x, (ring, x)
            assert ring.element_to_json(x) == wire(ring, names[x]), (ring, x)
            assert ring.element_from_json(ring.element_to_json(x)) == x, (ring, x)
        for a, b in pairs(ring):
            assert ring.add(a, b) == index[add(names[a], names[b])], (ring, a, b)
            assert ring.mul(a, b) == index[mul(names[a], names[b])], (ring, a, b)
        factors = ring.local_factors()
        total = ring.zero
        for lf in factors:
            total = ring.add(total, lf.idempotent)
            for other in factors:
                expected = lf.idempotent if other is lf else ring.zero
                assert ring.mul(lf.idempotent, other.idempotent) == expected, (ring, lf.label)
            local = lf.ring
            assert lf.proj(ring.one) == local.one, (ring, lf.label)
            for a, b in pairs(ring, 100):
                assert lf.proj(ring.add(a, b)) == local.add(lf.proj(a), lf.proj(b)), (ring, a, b)
                assert lf.proj(ring.mul(a, b)) == local.mul(lf.proj(a), lf.proj(b)), (ring, a, b)
            for y in local.elements():
                assert lf.proj(lf.lift(y)) == y, (ring, lf.label, y)
        assert total == ring.one, ring


def enumerated_ideals(ring, mul):
    """(members, generator) per ideal as the principal ideals of all elements
    give them: the first generator met is kept, sorted by sorted members."""
    seen = {}
    for g in ring.elements():
        seen.setdefault(frozenset(mul[g][r] for r in ring.elements()), g)
    return sorted(seen.items(), key=lambda item: sorted(item[0]))


def tabulated_valuation(lf):
    """``LocalFactor.valuation`` from the powers t^j R_m, formed in the table."""
    ring = lf.ring
    mul = ring._build_tables()[2]
    t = lf.proj(lf.prime_gen)
    val = [0] * ring.order
    chain = []
    power = ring.one
    while True:
        ideal = {mul[power][r] for r in ring.elements()}
        chain.append(len(ideal))
        if len(ideal) == 1:
            break
        for x in ideal:
            val[x] = len(chain) - 1
        power = mul[power][t]
    val[ring.zero] = len(chain) - 1
    return tuple(chain), tuple(val)


@CATALOGS
def test_valuation_vectors_match_the_multiplication_table(catalog):
    """Ideals, V(I) and the chain valuations read off valuation vectors equal
    those found by multiplying out every principal ideal."""
    for ring in catalog():
        mul = ring._build_tables()[2]
        ideals = [(ideal.members, ideal.generators) for ideal in all_ideals(ring)]
        assert ideals == [(members, (g,)) for members, g in enumerated_ideals(ring, mul)], ring
        factors = ring.local_factors()
        primes = [frozenset(mul[lf.prime_gen][r] for r in ring.elements()) for lf in factors]
        poset = spec(ring)[0]
        for g in ring.elements():
            v_set = [lf.label for lf, prime in zip(factors, primes) if g in prime]
            assert v_of_ideal(ring, Ideal(ring, (g,))).mask == poset.mask_of(v_set), (ring, g)
        for lf in factors:
            assert lf.valuation == tabulated_valuation(lf), (ring, lf.label)


@pytest.mark.parametrize("ring", [PolyQuot(5, (1, 1, 0, 1)), ZMod(60)], ids=str)
def test_koszul_support_builds_no_tables(ring):
    """The Koszul-support checks (all_ideals, koszul, v_of_ideal and
    support_of_cohomology on one-generator complexes) read valuation vectors
    only, so neither the ring nor a local factor ring is tabulated."""
    report = sweeps.SweepReport("koszul_support")
    sweeps._check_koszul(report, ring)
    assert report.checked and not report.failures
    for r in [ring] + [lf.ring for lf in ring.local_factors()]:
        assert "_tables" not in vars(r), r


def test_table_size_is_checked_before_building():
    big = PolyQuot(5, (1, 0, 0, 0, 0, 0, 1))  # order 15625
    assert len(spec(big)[0]) == 4
    with pytest.raises(InvalidInputError, match="limited to 1048576 entries"):
        big.mul(big.one, big.one)
