import itertools
import random
import time
from functools import reduce

import pytest

from spectral_glue import (
    Ideal,
    IntegerRing,
    InvalidInputError,
    PolyQuot,
    ProductRing,
    ThomasonSet,
    UnsupportedRingError,
    ZMod,
    cyclic_module,
    direct_sum,
    free_module,
    indecomposable_injectives,
    ring_from_json,
    support,
    v_of_ideal,
)
from spectral_glue import sweeps
from spectral_glue.catalog import poly_catalog, product_catalog, zmod_catalog
from spectral_glue.modules import FiniteModule, cokernel_of_rank
from spectral_glue.homalg import koszul, support_of_cohomology
from spectral_glue.rings import (
    FiniteRing,
    LocalFactor,
    _radix_table,
    _radix_vector,
    all_ideals,
    element_support,
    local_factor,
    module_from_json,
    pdivmod,
    pmul,
    pnorm,
    spec,
)


def residue_field(ring, label):
    """kappa(p) = R/p, all primes being maximal: R modulo the generator of
    the local factor's prime."""
    return cyclic_module(ring, local_factor(ring, label).prime_gen)


@pytest.mark.parametrize(
    "catalog",
    [
        lambda: zmod_catalog(60),
        lambda: poly_catalog(5, 3),
        lambda: product_catalog(40),
        lambda: [ProductRing([ZMod(2)] * 11)],
    ],
    ids=["zmod", "poly_quot", "product", "eleven_factors"],
)
def test_local_factor_k_is_point_k_of_spec(catalog):
    """The factors come in spec order, also where label order is not the
    order in which a kind finds them: Z/22 has (11) before (2), and eleven
    factors have "10:(2)" before "2:(2)"."""
    for ring in catalog():
        assert [lf.label for lf in ring.local_factors()] == list(spec(ring).elements), ring


def test_spec_z12(z12, z12_poset):
    assert sorted(z12_poset.elements) == ["(2)", "(3)"]
    assert z12_poset.relation_pairs == ()  # primes of Z/n are incomparable


def test_v_of_ideal_z12(z12):
    assert sorted(v_of_ideal(z12, Ideal(z12, (6,))).members) == ["(2)", "(3)"]
    assert sorted(v_of_ideal(z12, Ideal(z12, (4,))).members) == ["(2)"]
    assert v_of_ideal(z12, Ideal(z12, (0,))) == ThomasonSet.full(spec(z12))
    assert sorted(v_of_ideal(z12, Ideal(z12, (1,))).members) == []


def test_ideal_lattice_z12(z12):
    gens = sorted(i.generators for i in all_ideals(z12))
    assert gens == [(0,), (1,), (2,), (3,), (4,), (6,)]
    assert Ideal(z12, (2, 3)).members == Ideal(z12, (1,)).members


def test_localize_z12(z12):
    lf = local_factor(z12, "(2)")
    local, proj = lf.ring, lf.proj
    assert local.order == 4
    assert proj(6) == local.mul(local.one, proj(6))
    with pytest.raises(InvalidInputError):
        local_factor(z12, "(5)")


def test_injectives_z12(z12):
    orders = sorted(m.order for m in indecomposable_injectives(z12))
    assert orders == [3, 4]


def test_residue_fields_z12(z12):
    assert residue_field(z12, "(2)").order == 2
    assert residue_field(z12, "(3)").order == 3


def test_poly_quot_spec():
    f4 = PolyQuot(2, (1, 1, 1))  # irreducible: a field with 4 elements
    poset = spec(f4)
    assert list(poset.elements) == ["(x^2+x+1)"]
    dual = PolyQuot(2, (0, 0, 1))  # x^2: one prime (x)
    assert len(spec(dual)) == 1
    split = PolyQuot(3, (2, 0, 1))  # x^2 - 1 = (x-1)(x+1) over F_3
    assert len(spec(split)) == 2


def test_product_ring_spec():
    ring = ProductRing([ZMod(4), ZMod(3)])
    poset = spec(ring)
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
    assert sorted(support(m).members) == ["(2)"]
    assert support(free_module(z12, 1)) == ThomasonSet.full(spec(z12))


@pytest.mark.parametrize(
    "catalog",
    [lambda: zmod_catalog(24), lambda: product_catalog(24), lambda: poly_catalog(5, 2)],
    ids=["zmod", "product", "poly_quot"],
)
def test_support_is_v_of_the_annihilator(catalog):
    """Supp M, read off a witness e_m x != 0 per factor, is V(Ann M) on every
    cyclic module of the catalog rings and on every sum of two of them; no
    size chain is built for it."""
    checked = 0
    for ring in catalog():
        cyclics = [cyclic_module(ring, i.generators[0]) for i in all_ideals(ring)]
        pairs = itertools.combinations_with_replacement(cyclics, 2)
        sums = [direct_sum(ring, list(pair)) for pair in pairs]
        for m in cyclics + sums:
            assert support(m).members == v_of_annihilator(m), (ring, m)
            assert "_local_invariants" not in vars(m), (ring, m)
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
        for lf in ring.local_factors():
            kappa = cokernel_of_rank(ring, 1, [(lf.prime_gen,)])
            assert same_module(residue_field(ring, lf.label), kappa), (ring, lf.label)
        for m in cyclics + indecomposable_injectives(ring):
            for x in m.elements:
                supported = set(spec(ring).labels(element_support(m, x)))
                assert supported == v_of_annihilator(m, [x]), (ring, m, x)


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
    for lf in ring.local_factors():
        assert residue_field(ring, lf.label).order > 1
    for a, b in itertools.combinations(ideals, 2):
        assert Ideal(ring, a.generators + b.generators).members >= a.members | b.members


def test_quotient_and_submodule(z12):
    free = free_module(z12, 1)
    sub = free.submodule(free.span([(6,)]))
    assert sub.order == 2
    assert free.quotient(sub.elements).order == 6


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
    mul = [ring._row(a) for a in ring.elements()]
    t = lf.proj(lf.prime_gen)
    val = [0] * ring.order
    chain = []
    power = ring.one
    while True:
        ideal = {mul[power][r] for r in ring.elements()}
        if chain and len(ideal) == chain[-1]:
            raise AssertionError(f"the prime generator of {lf.label} is not nilpotent")
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
    those found by multiplying out every principal ideal; V(a, b) is V(a)
    and V(b) together."""
    for ring in catalog():
        mul = [ring._row(a) for a in ring.elements()]
        ideals = [(ideal.members, ideal.generators) for ideal in all_ideals(ring)]
        assert ideals == [(members, (g,)) for members, g in enumerated_ideals(ring, mul)], ring
        factors = ring.local_factors()
        primes = [frozenset(mul[lf.prime_gen][r] for r in ring.elements()) for lf in factors]
        v_sets = [
            {lf.label for lf, prime in zip(factors, primes) if g in prime} for g in ring.elements()
        ]
        for g in ring.elements():
            assert v_of_ideal(ring, Ideal(ring, (g,))).members == v_sets[g], (ring, g)
        for (a,), (b,) in itertools.combinations([gens for _, gens in ideals], 2):
            both = v_sets[a] & v_sets[b]
            assert v_of_ideal(ring, Ideal(ring, (a, b))).members == both, (ring, a, b)
        for lf in factors:
            assert lf.valuation == tabulated_valuation(lf), (ring, lf.label)


@pytest.mark.parametrize("ring", [PolyQuot(5, (1, 1, 0, 1)), ZMod(60)], ids=str)
def test_koszul_support_builds_no_tables(ring):
    """The Koszul-support checks (all_ideals, koszul, v_of_ideal and
    support_of_cohomology on one-generator complexes) read valuation vectors
    only, so neither the ring nor a local factor ring builds an add table, a
    neg vector or a multiplication row."""
    report = sweeps.SweepReport("koszul_support")
    sweeps._check_koszul(report, ring)
    assert report.checked and not report.failures
    for r in [ring] + [lf.ring for lf in ring.local_factors()]:
        assert not {"_add", "_neg", "_mul"} & vars(r).keys(), r


def built_rows(ring) -> int:
    return sum(type(row) is list for row in vars(ring).get("_mul", ()))


def test_two_generator_koszul_builds_only_the_rows_it_reads():
    """Koszul complexes on two generators negate, check d o d = 0 and
    eliminate a second Smith row, so they multiply; they build the rows they
    read and not the whole table."""
    ring = PolyQuot(5, (1, 1, 0, 1))
    report = sweeps.SweepReport("koszul_support")
    sweeps._check_koszul(report, ring)
    for gens in itertools.islice(itertools.combinations(range(1, ring.order, 7), 2), 10):
        kos = koszul(ring, gens)
        v_set = v_of_ideal(ring, Ideal(ring, gens))
        for n in range(kos.min_degree, kos.max_degree + 1):
            assert support_of_cohomology(kos, n) <= v_set, (gens, n)
    assert 0 < built_rows(ring) < ring.order


def eager_tables(ring):
    """(add, neg, mul) as each kind once built them, all three at once."""
    if isinstance(ring, ZMod):
        n = ring.n
        add = [[(a + b) % n for b in range(n)] for a in range(n)]
        neg = [(-a) % n for a in range(n)]
        mul = [[(a * b) % n for b in range(n)] for a in range(n)]
        return add, neg, mul
    if isinstance(ring, PolyQuot):
        p, d = ring.p, ring.deg
        add = reduce(_radix_table, [[[(a + b) % p for b in range(p)] for a in range(p)]] * d)
        neg = reduce(_radix_vector, [[(-a) % p for a in range(p)]] * d)
        x_to_d = [(-c) % p for c in ring.f[:d]]
        mul = []
        for a in itertools.product(range(p), repeat=d):
            row, ax = [0], list(a)
            for _ in range(d):
                images = [ring._index([v * c % p for c in ax]) for v in range(p)]
                row = [add[r][m] for r in row for m in images]
                ax = [(lo + ax[-1] * t) % p for lo, t in zip([0] + ax[:-1], x_to_d)]
            mul.append(row)
        return add, neg, mul
    tables = [eager_tables(f) for f in ring.factors]
    add = reduce(_radix_table, [t[0] for t in tables])
    neg = reduce(_radix_vector, [t[1] for t in tables])
    mul = reduce(_radix_table, [t[2] for t in tables])
    return add, neg, mul


@CATALOGS
def test_tables_match_the_eager_builder(catalog):
    """The add table, the neg vector and every multiplication row, each
    built on its own and the rows one at a time, equal the tables built all
    at once; on a fresh ring ``mul`` and ``divide`` read rows not built yet."""
    for ring in catalog():
        add, neg, mul = eager_tables(ring)
        assert ring._neg == neg, ring
        for a in ring.elements():
            # row by row, so a failure prints one row
            assert ring._add[a] == add[a], (ring, a)
            assert ring._row(a) == mul[a], (ring, a)
        assert built_rows(ring) == ring.order, ring
        fresh = ring_from_json(ring.to_json())
        for a, b in pairs(fresh, 100):
            assert fresh.mul(a, b) == mul[a][b], (ring, a, b)
            assert mul[a][fresh.divide(mul[a][b], a)] == mul[a][b], (ring, a, b)


@pytest.mark.parametrize(
    "catalog",
    [lambda: poly_catalog(5, 3), lambda: product_catalog(60)],
    ids=["poly_quot", "product"],
)
def test_poly_projections_match_reduction(catalog):
    """Every projection of F_p[x]/(f) onto a local factor, tabulated from the
    images of 1, x, ..., x^(d-1), is reduction modulo the factor's pi^k."""
    polys = [f for ring in catalog() for f in getattr(ring, "factors", (ring,))]
    polys = [ring for ring in polys if isinstance(ring, PolyQuot)]
    assert polys
    for ring in polys:
        for lf in ring.local_factors():
            local = lf.ring
            for x in ring.elements():
                assert lf.proj(x) == local._reduce(ring._coeffs(x)), (ring, lf.label, x)


def test_table_size_is_checked_before_building():
    big = PolyQuot(5, (1, 0, 0, 0, 0, 0, 1))  # order 15625
    assert len(spec(big)) == 4
    with pytest.raises(InvalidInputError, match="limited to 1048576 entries"):
        big.mul(big.one, big.one)
    (lf,) = PolyQuot(5, (0, 0, 0, 0, 0, 0, 1)).local_factors()  # x^6, local
    for _ in range(2):
        with pytest.raises(InvalidInputError, match="limited to 1048576 entries"):
            lf.valuation
    assert "_chain_valuation" not in vars(lf.ring)


def test_a_valuation_checks_the_ring_size_once(monkeypatch):
    """The size check runs where the chain valuation is built, not on each
    read of ``LocalFactor.valuation``."""
    checked = []
    check = FiniteRing._check_tabulable
    monkeypatch.setattr(FiniteRing, "_check_tabulable", lambda ring: checked.append(ring) or check(ring))
    ring = ZMod(8)
    (lf,) = ring.local_factors()
    assert all(lf.valuation == ((8, 4, 2, 1), (3, 0, 1, 0, 2, 0, 1, 0)) for _ in range(3))
    assert checked == [ring]


def test_a_prime_generator_that_is_not_nilpotent_fails_at_once():
    """With a unit in place of each factor's prime generator, t^j e_m M
    never shrinks: the size chains and the reference valuation raise instead
    of looping."""
    start = time.perf_counter()
    for ring in [ZMod(12), PolyQuot(3, (2, 0, 1)), product_catalog(40)[0]]:
        units = [
            LocalFactor(lf.label, ring.one, lf.idempotent, lf.ring, lf.proj_table, lf.lift_of)
            for lf in ring.local_factors()
        ]
        for lf in units:
            with pytest.raises(AssertionError, match="not nilpotent"):
                tabulated_valuation(lf)
        ring._local_factors = units
        with pytest.raises(AssertionError, match="not nilpotent"):
            free_module(ring, 1).local_invariants()
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "make",
    [
        lambda: ZMod(12),
        lambda: PolyQuot(3, (1, 0, 1)),
        lambda: ProductRing([ZMod(4), PolyQuot(2, (1, 1, 1))]),
    ],
    ids=["zmod", "poly_quot", "product"],
)
def test_equal_rings_hash_equal_and_build_their_descriptor_once(make, monkeypatch):
    """``spec``'s cache hashes a ring on every call, so a ring hashes its
    descriptor once and keeps the hash."""
    ring, twin = make(), make()
    built = []
    descriptor = type(ring).descriptor

    def counted(self):
        built.append(self)
        return descriptor(self)

    monkeypatch.setattr(type(ring), "descriptor", counted)
    assert ring is not twin and hash(ring) == hash(twin) == hash(descriptor(ring))
    assert built == [ring, twin]
    for _ in range(3):
        hash(ring), hash(twin)
    assert built == [ring, twin]
    assert spec(ring) == spec(twin)
