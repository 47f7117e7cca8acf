import itertools
import json
import math
import random
import re
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from spectral_glue import (
    BoundedComplex,
    FreeTerm,
    InvalidInputError,
    PolyQuot,
    ProductRing,
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
    zero_complex,
)
from spectral_glue import catalog, homalg, rings as rng, sweeps
from spectral_glue.cli import main
from spectral_glue.modules import IndexArithmetic
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
        k = koszul(z12, ideal.generators)
        v = set(ideal_support(z12, ideal))
        for n in range(k.min_degree, k.max_degree + 1):
            assert support_of_cohomology(k, n).members <= v


def ideal_support(ring, ideal):
    from spectral_glue import v_of_ideal

    return v_of_ideal(ring, ideal).members


def is_acyclic(complex_):
    lo, hi = complex_.min_degree, complex_.max_degree
    return all(cohomology(complex_, n).is_zero_module() for n in range(lo, hi + 1))


def test_terms_and_differentials_are_read_only(z12):
    """A complex keeps what it reads off its terms and differentials (ranks,
    Smith valuations), so neither can be changed past the constructor: the
    support read below would otherwise go stale."""
    k = koszul(z12, [2])
    assert support_of_cohomology(k, 0).members == {"(2)"}
    with pytest.raises(TypeError):
        k.diffs[-1] = ((1,),)
    with pytest.raises(TypeError):
        k.terms[1] = FreeTerm(1)
    with pytest.raises(TypeError):
        del k.terms[0]
    assert support_of_cohomology(k, 0).members == {"(2)"}


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
    assert sorted(support_of_cohomology(at2, 0).members) == ["(2)"]


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


# each malformed field is refused once, with its name and no second prefix
MALFORMED_COMPLEXES = [
    ({"terms": {"0": {"free": -1}}}, "'free' at degree 0 must be nonnegative, got -1"),
    ({"terms": {"0": 5}}, "'terms' at degree 0 must be a JSON object, got 5"),
    ({"terms": {"0": {"free": 1}}, "differentials": {"0": 5}},
     "'differentials' at degree 0 must be a JSON array, got 5"),
    ({"terms": {"0": {"free": 1}}, "differentials": {"0": "ab"}},
     "'differentials' at degree 0 must be a JSON array, got 'ab'"),
    ({"terms": {"0": {"free": 1}, "1": {"free": 1}}, "differentials": {"0": [{"a": 1}]}},
     "a row of 'differentials' at degree 0 must be a JSON array, got {'a': 1}"),
    ({"terms": {"0": {"free": 1}}, "differentials": {"0": [["a"]]}},
     "'ring element' must be an integer, got 'a'"),
    ({"terms": {"0": {"free": 1}, "1001": {"free": 1}}},
     "'terms' at degrees 0 and 1001 lie more than the bound MAX_DEGREE_SPAN = 1000 degrees apart"),
]


@pytest.mark.parametrize("data, message", MALFORMED_COMPLEXES)
def test_a_malformed_complex_is_refused_with_its_field(z12, data, message):
    with pytest.raises(InvalidInputError) as err:
        complex_from_json(z12, data)
    assert str(err.value) == message


def test_a_type_error_inside_a_term_reader_is_not_read_as_malformed_input(monkeypatch):
    """A bug in a reader leaves ``main`` as the exception it raised: only
    the package's own refusals exit 2."""

    def broken(ring, data):
        raise TypeError("a bug in the module reader")

    monkeypatch.setattr(rng, "module_from_json", broken)
    complex_ = json.dumps({"terms": {"0": {"module": {"relations": [[3]]}}}})
    argv = ["cohomology", "--ring", json.dumps({"kind": "zmod", "n": 12}), "--complex", complex_]
    with pytest.raises(TypeError, match="a bug in the module reader"):
        main(argv)


# "\u0661" is an Arabic-Indic one, "\u00b2" a superscript two and
# "\uff11" a full-width one: int() reads the first and last, str.isdigit()
# accepts all three
DEGREE_KEYS = ["", "+", "-", "-0", "+007", "1_0", " 1", "1 ", "1\n", "\u0661", "\u00b2",
               "\uff11", "+-1", "--1", "0", "-12", "1.0", "0x1", "1e3"]


def _degree_by_regex(key):
    """The degree of ``key`` as the regular expression that ``_degree``
    replaced reads it, or None for a key it refuses."""
    return int(key) if re.fullmatch(r"[+-]?[0-9]+", key) else None


def _read_degree(key):
    try:
        return homalg._degree(key, "terms")
    except InvalidInputError as exc:
        assert str(exc) == f"'terms' key {key!r} must be a decimal degree"
        return None


def test_degree_keys_read_as_the_regular_expression_reads_them():
    assert [_read_degree(key) for key in DEGREE_KEYS] == list(map(_degree_by_regex, DEGREE_KEYS))
    assert [key for key in DEGREE_KEYS if _read_degree(key) is not None] == ["-0", "+007", "0", "-12"]


@settings(derandomize=True, max_examples=400, database=None, deadline=None)
@given(st.text(st.sampled_from("+-0123456789_ \n\u0661\u00b2\uff11x"), max_size=6) | st.text())
def test_text_keys_read_as_the_regular_expression_reads_them(key):
    assert _read_degree(key) == _degree_by_regex(key)


def test_terms_lie_at_most_the_span_bound_apart(z12):
    cx = complex_from_json(z12, {"terms": {"-500": {"free": 1}, "500": {"free": 1}}})
    assert cx.degrees() == [-500, 500]
    # the keys are read first: the module of rank 10**7 is never built
    far = {"terms": {"0": {"module": {"rank": 10**7}}, "1001": {"free": 1}}}
    with pytest.raises(InvalidInputError, match="'terms' at degrees 0 and 1001 lie more than"):
        complex_from_json(z12, far)


def test_localize_zmod_30():
    z30 = ZMod(30)
    k = koszul(z30, [6])
    assert cohomology(k, 0).order == 6
    assert sorted(support_of_cohomology(k, 0).members) == ["(2)", "(3)"]


def test_index_arithmetic_memoises_only_the_sums_it_performs(monkeypatch):
    """Hom(K(6), R^2) over Z/36 enumerates R^2, 1,296 elements, more than
    any tabulated ring has (order at most 1,024); its arithmetic keeps a row
    per scalar used and the sums asked, never an |N| x |N| table."""
    ring = ZMod(36)
    target = free_stalk(ring, 2, 0)
    arith = target.module_at(0).arithmetic
    performed = set()
    add = IndexArithmetic.add

    def counting(self, a, b):
        if self is arith:
            performed.add((a, b))
        return add(self, a, b)

    monkeypatch.setattr(IndexArithmetic, "add", counting)
    hom = derived_hom(koszul(ring, [6]), target, 1)
    assert (hom.order, hom.local_invariants()) == (36, {"(2)": (4, 1), "(3)": (9, 1)})
    n = arith.module.order
    assert n == 1296
    assert 0 < len(arith.sums) <= len(performed) < n * n
    assert 0 < len(arith.rows) <= ring.order
    assert all(len(row) == n for row in arith.rows.values())


@pytest.mark.parametrize("ring", [ZMod(12), PolyQuot(3, (0, 0, 1))], ids=["z12", "f3-x2"])
def test_cohomology_orders_are_kernel_over_image(ring):
    """|H^n| = |ker d^n| / |im d^{n-1}|, counted on the elements of seeded
    complexes R^2 -> R^2 with a module term above them."""
    rnd = random.Random(3)
    top = cyclic_module(ring, rng.all_ideals(ring)[-1].generators[0])
    for _ in range(6):
        matrix = [[rnd.randrange(ring.order) for _ in range(2)] for _ in range(2)]
        cx = BoundedComplex(ring, {-1: FreeTerm(2), 0: FreeTerm(2), 1: top}, {-1: matrix})
        for n in range(-2, 3):
            zero = cx.module_at(n + 1).zero
            kernel = sum(cx.diff_apply(n, x) == zero for x in cx.module_at(n).elements)
            image = {cx.diff_apply(n - 1, y) for y in cx.module_at(n - 1).elements}
            assert cohomology(cx, n).order == kernel // len(image), (matrix, n)


@pytest.mark.parametrize("ring", [ZMod(12), ZMod(8), PolyQuot(3, (0, 0, 1))], ids=["z12", "z8", "f3-x2"])
def test_hom_from_a_koszul_complex_is_a_cone(ring):
    """Hom(K(a), Y) is an extension of Y by Y[-1] whose connecting map is a,
    so |H^i| = |H^{i-1}(Y) / a| * |ker a on H^i(Y)|; targets with
    differentials make d_Y and the precomposition with d_P meet."""
    gens = [ideal.generators[0] for ideal in rng.all_ideals(ring)]

    def coker_and_ker(h, a):
        images = [h.smul(a, x) for x in h.elements]
        return h.order // len(set(images)), images.count(h.zero)

    for b, c in itertools.combinations(gens, 2):
        for y in (koszul(ring, [b]), koszul(ring, [b, c]), shift(koszul(ring, [c]), 1)):
            for a in gens:
                for i in range(-3, 2):
                    coker, _ = coker_and_ker(cohomology(y, i - 1), a)
                    _, ker = coker_and_ker(cohomology(y, i), a)
                    assert derived_hom(koszul(ring, [a]), y, i).order == coker * ker, (a, y, i)


# -- cycles paired from two halves against the full product --------------------


def full_product_kernel(d, sources, targets):
    """ker d by filtering every tuple of the product of the sources, the
    enumeration that pairing two halves replaced, kept as the reference."""
    zero = tuple(t.zero for t in targets)
    return [f for f in itertools.product(*(range(a.module.order) for a in sources)) if d(f) == zero]


@pytest.fixture
def kernel_calls(monkeypatch):
    """``homalg._kernel``, checked against the full product on every call;
    the list of the source orders of each call, and of each disagreement."""
    kernel = homalg._kernel
    calls = {"orders": [], "wrong": []}

    def checking(d, sources, targets):
        cycles = kernel(d, sources, targets)
        orders = [a.module.order for a in sources]
        calls["orders"].append(orders)
        if cycles != full_product_kernel(d, sources, targets):
            calls["wrong"].append(orders)
        return cycles

    monkeypatch.setattr(homalg, "_kernel", checking)
    return calls


def sweep_9_ranges(monkeypatch):
    """Run sweep 9 and record each range call it makes: (X, Y_m, degrees,
    orders), one per pair; the report too."""
    orders = homalg.derived_hom_orders
    asked = []

    def recording(x, y, degrees):
        asked.append((x, y, tuple(degrees), orders(x, y, degrees)))
        return asked[-1][-1]

    monkeypatch.setattr(homalg, "derived_hom_orders", recording)
    report = sweeps.sweep_adjunction()
    monkeypatch.setattr(homalg, "derived_hom_orders", orders)
    return report, asked


def test_paired_cycles_and_orders_match_the_full_product_on_sweep_9(monkeypatch, kernel_calls):
    """Sweep 9 makes one range call per pair, and pairs only the top degree's
    cycles: one ``_kernel`` call per pair."""
    report, asked = sweep_9_ranges(monkeypatch)
    triples = [(x, y, i, n) for x, y, _, orders in asked for i, n in orders.items()]
    assert report.ok and report.checked == len(triples) == 3150
    assert len(asked) == len(kernel_calls["orders"]) == 1050
    for x, y, i, n in triples:
        assert n == derived_hom(x, y, i).order, (x, y, i)
    assert kernel_calls["wrong"] == []


def test_range_orders_equal_one_degree_orders_on_sweep_9(monkeypatch):
    """Listing Hom^{-2}..Hom^0 once and pairing only Z^1 gives the orders of
    three one-degree calls, each of which lists Hom^{i-1} and pairs Z^i."""
    _, asked = sweep_9_ranges(monkeypatch)
    assert len(asked) == 1050 and {degrees for _, _, degrees, _ in asked} == {(-1, 0, 1)}
    for x, y, degrees, orders in asked:
        one_by_one = {i: homalg.derived_hom_orders(x, y, (i,))[i] for i in degrees}
        assert orders == one_by_one, (x, y)


@pytest.mark.parametrize(
    "ring",
    [ZMod(36), PolyQuot(2, (0, 0, 1)), ProductRing([ZMod(4), PolyQuot(2, (0, 0, 1))])],
    ids=["z36", "f2-x2", "product"],
)
def test_paired_cycles_match_the_full_product_on_koszul_cohomology(ring, kernel_calls):
    """H^n of every catalog Koszul complex: Hom(R, C)^n has the one
    coordinate C^n, or none one degree past each end."""
    unit = free_stalk(ring, 1, 0)
    for cx in catalog.koszul_complexes(ring):
        for n in range(cx.min_degree - 1, cx.max_degree + 2):
            assert homalg.derived_hom_orders(unit, cx, (n,))[n] == cohomology(cx, n).order, (cx, n)
    assert kernel_calls["wrong"] == []
    assert {len(orders) for orders in kernel_calls["orders"]} == {0, 1}


def test_paired_cycles_on_an_uneven_cut_no_coordinates_and_a_negative_pairing(z12, kernel_calls):
    """Hom^2(K(2, 3), Y) has coordinates of orders 2, 3, 3 and 12 into a
    nonzero Hom^3, so the halves are cut after the third (18 + 12 tuples,
    where the middle cut lists 6 + 36); Y away from the degrees of K gives
    Hom^0 no coordinates, and its one element is the empty tuple.  The
    cycles of Hom^1(K(1, 1), R) are the (a, b) with a = b, so pairing a half
    with the image of the other, not its negative, would list a = -b."""
    kos = koszul(z12, [2, 3])
    y = BoundedComplex(z12, {0: cyclic_module(z12, 2), 1: cyclic_module(z12, 3), 2: FreeTerm(1)})
    far = stalk_complex(cyclic_module(z12, 2), 5)
    for x, target, i in [(kos, y, 2), (kos, far, 0), (koszul(z12, [1, 1]), free_stalk(z12, 1, 0), 1)]:
        assert homalg.derived_hom_orders(x, target, (i,))[i] == derived_hom(x, target, i).order
    assert [2, 3, 3, 12] in kernel_calls["orders"] and [] in kernel_calls["orders"]
    assert kernel_calls["wrong"] == []


@pytest.fixture
def recorded_refusal(monkeypatch):
    """The recorded stderr of ``derived-hom-too-large``, with the listing of
    a Hom term, the cycle pairing and every index arithmetic patched to
    raise if reached."""
    with open(Path(__file__).parent / "data" / "cli_golden.json") as fh:
        recorded = json.load(fh)["derived-hom-too-large"]["stderr"]

    def enumerating(*args):
        raise AssertionError("enumerated before the size check")

    monkeypatch.setattr(homalg, "_image", enumerating)
    monkeypatch.setattr(homalg, "_kernel", enumerating)
    monkeypatch.setattr(IndexArithmetic, "__init__", enumerating)
    return recorded


def test_derived_hom_orders_refuses_a_large_hom_term_before_enumerating(recorded_refusal):
    ring = ZMod(36)
    with pytest.raises(InvalidInputError) as refused:
        homalg.derived_hom_orders(free_stalk(ring, 5, 0), free_stalk(ring, 1, 0), (0,))
    assert f"error: {refused.value}\n" == recorded_refusal
    # a rank past the bound's bit length is refused before its power is formed
    with pytest.raises(InvalidInputError, match=r"size at least 2\^1000000000 is too large"):
        homalg.derived_hom_orders(free_stalk(ring, 10**9, 0), free_stalk(ring, 1, 0), (0,))


def test_a_range_with_a_large_middle_term_is_refused_before_enumerating(recorded_refusal):
    """Over degrees -1..1 the terms Hom^{-2}, Hom^{-1} and Hom^1 are
    (R/(6))^5, but the middle term Hom^0 = R^5 is over the limit: it is
    refused before the terms below it are listed."""
    ring = ZMod(36)
    small = cyclic_module(ring, 6)
    x = free_stalk(ring, 5, 0)
    y = BoundedComplex(ring, {-2: small, -1: small, 0: FreeTerm(1), 1: small})
    with pytest.raises(InvalidInputError) as refused:
        homalg.derived_hom_orders(x, y, (-1, 0, 1))
    assert f"error: {refused.value}\n" == recorded_refusal


def test_a_boundary_outside_the_cycles_raises(z12):
    """Hom(P, Y) is a complex whenever P and Y are; a P whose d o d != 0
    got past the constructor's check makes B^1 leave Z^1, which raises and
    never becomes an order: whether Z^1 is paired from two halves (the top
    of the range) or read as the zero fibre of d^1 (below the top)."""
    p = BoundedComplex(z12, {-2: FreeTerm(1), -1: FreeTerm(1), 0: FreeTerm(1)}, {-2: [[1]]})
    # the differentials are read-only, so the bad one replaces them whole,
    # before anything is read off them
    p.diffs = MappingProxyType({**p.diffs, -1: ((1,),)})
    for degrees in ((1,), (0, 1), (1, 2)):
        with pytest.raises(AssertionError, match="not a cycle"):
            homalg.derived_hom_orders(p, free_stalk(z12, 1, 0), degrees)


# -- Hom orders and supports against enumeration ------------------------------


def enumerated_orders(hom):
    """{m: |e_m H|} of an enumerated module H."""
    return {m: sizes[0] for m, sizes in hom.local_invariants().items()}


def test_hom_orders_match_enumeration_on_the_fuzz_sweeps(monkeypatch):
    """Every (X, Y, i) that orthogonality and local-global ask at the fuzz
    bounds has the per-factor orders of the enumerated Hom group."""
    fast = homalg.hom_orders
    asked = {}

    def recording(x, y, i, factor=None):
        orders = fast(x, y, i, factor)
        # the stored x and y stay alive, so their ids are not reused
        asked[id(x), id(y), i, factor] = (x, y, i, factor, orders)
        return orders

    monkeypatch.setattr(homalg, "hom_orders", recording)
    assert sweeps.sweep_orthogonality(max_ring=24, window=(-1, 1)).ok
    assert sweeps.sweep_local_global(max_ring=24, window=(-1, 1)).ok
    assert len(asked) > 8_000
    for x, y, i, factor, orders in asked.values():
        assert factor is None
        hom = derived_hom(x, y, i)
        assert orders == enumerated_orders(hom), (x, y, i)
        assert math.prod(orders.values()) == hom.order


@pytest.mark.parametrize(
    "ring",
    [ZMod(8), ZMod(12), PolyQuot(3, (0, 0, 1)), ProductRing([ZMod(4), PolyQuot(2, (0, 0, 1))])],
    ids=["z8", "z12", "f3-x2", "product"],
)
def test_hom_orders_match_enumeration_on_full_matrices(ring):
    """Seeded 2x2, 2x3 and 3x2 differentials, which the sweeps never build,
    need row eliminations; free-term targets are covered too."""
    rnd = random.Random(7)
    targets = [free_stalk(ring, 1, 0), free_stalk(ring, 1, 1)]
    targets += [stalk_complex(cyclic_module(ring, i.generators[0]), 1) for i in rng.all_ideals(ring)[1:]]
    for rows, cols in [(2, 2), (2, 3), (3, 2)] * 3:
        matrix = [[rnd.randrange(ring.order) for _ in range(cols)] for _ in range(rows)]
        cx = BoundedComplex(ring, {0: FreeTerm(cols), 1: FreeTerm(rows)}, {0: matrix})
        for n in (0, 1):
            assert support_of_cohomology(cx, n) == rng.support(cohomology(cx, n)), (matrix, n)
        for y in targets:
            for i in (-1, 0, 1):
                orders = homalg.hom_orders(cx, y, i)
                assert orders == enumerated_orders(derived_hom(cx, y, i)), (matrix, y, i)


@pytest.mark.parametrize("ring", [ZMod(4), PolyQuot(2, (0, 0, 1))], ids=["z4", "f2-x2"])
def test_hom_orders_match_enumeration_on_repeated_koszul_generators(ring):
    """Koszul complexes on three generators, repeats allowed, have the 3x3
    middle differential; a repeated or divisible generator leaves entries
    that only row elimination clears, and Hom^1 and Hom^2 read that matrix."""
    generators = sorted({g for ideal in rng.all_ideals(ring) for g in ideal.generators})
    targets = catalog.stalk_complexes(ring)
    checked = 0
    for gens in itertools.combinations_with_replacement(generators, 3):
        kos = koszul(ring, list(gens))
        for y in targets:
            for i in (1, 2):
                orders = homalg.hom_orders(kos, y, i)
                assert orders == enumerated_orders(derived_hom(kos, y, i)), (gens, y, i)
                checked += 1
    assert checked == 140


def test_hom_orders_over_a_local_factor(z12):
    """Hom from a complex over R_m into Y over R is Hom into e_m Y."""
    y = BoundedComplex(z12, {0: cyclic_module(z12, 2), 1: FreeTerm(2)})
    for lf in z12.local_factors():
        y_local = localize_complex(y, lf.label)
        for gens in ([0], [1], [2], [3]):
            x = koszul(lf.ring, [lf.proj(g) for g in gens])
            for i in (-1, 0, 1, 2):
                orders = homalg.hom_orders(x, y, i, factor=lf)
                assert orders == {lf.label: derived_hom(x, y_local, i).order}


def test_a_complex_reused_across_the_sweep_9_targets_matches_a_fresh_copy():
    """Sweep 9 asks each Koszul complex over a factor ring about every
    target of its ring; here one complex per factor ring serves every ring
    of the corpus with that factor, so its ranks and Smith valuations are
    found once and read under several labels.  A fresh copy of it, keeping
    nothing, gives the same enumerated and Smith orders for each target."""
    rings = [ZMod(12), ZMod(30), ZMod(36)] + catalog.product_catalog(40)[:4]
    xs = {}  # factor ring descriptor -> its Koszul complexes, built once
    checked = 0
    for ring in rings:
        ys = catalog.stalk_complexes(ring)
        for lf in ring.local_factors():
            ys_local = [localize_complex(y, lf.label) for y in ys]
            key = lf.ring.descriptor()
            xs.setdefault(key, catalog.koszul_complexes(lf.ring, shifts=(0,), max_sums=4))
            for x in xs[key]:
                for y, y_local in zip(ys, ys_local):
                    fresh = BoundedComplex(x.ring, x.terms, x.diffs)
                    orders = homalg.derived_hom_orders(x, y_local, (-1, 0, 1))
                    assert orders == homalg.derived_hom_orders(fresh, y_local, (-1, 0, 1)), (x, y)
                    for i in (-1, 0, 1):
                        fast = homalg.hom_orders(x, y, i, factor=lf)
                        assert fast == homalg.hom_orders(fresh, y, i, factor=lf), (x, y, i)
                        assert fast == {lf.label: orders[i]}, (x, y, i)
                        checked += 1
    assert checked == 3150 and len(xs) < sum(len(r.local_factors()) for r in rings)


def test_smith_valuations_are_kept_per_factor():
    """Over Z/4 x Z/9 the differential (2, 1) has valuation 1 at the first
    factor and is a unit at the second, so one complex keeps two sets of
    Smith valuations for one degree; the orders and supports of each
    factor match enumeration, the supports asked before the orders."""
    ring = ProductRing([ZMod(4), ZMod(9)])
    a = ring.element_from_json([2, 1])
    kos = koszul(ring, [a])
    for n in (-1, 0):
        assert support_of_cohomology(kos, n) == rng.support(cohomology(kos, n)), n
    assert sorted(support_of_cohomology(kos, 0).members) == ["0:(2)"]
    targets = [free_stalk(ring, 1, 0), stalk_complex(cyclic_module(ring, ring.element_from_json([2, 3])), 1)]
    for y in targets:
        for i in (-1, 0, 1, 2):
            orders = homalg.hom_orders(kos, y, i)
            assert orders == enumerated_orders(derived_hom(kos, y, i)), (y, i)
    assert [kos.smith_valuations(-1, lf) for lf in ring.local_factors()] == [[1], [0]]


def test_hom_orders_refuse_targets_with_differentials(z12):
    with pytest.raises(InvalidInputError, match="without differentials"):
        homalg.hom_orders(koszul(z12, [2]), koszul(z12, [3]), 0)


def test_support_matches_enumeration_on_the_koszul_sweep(monkeypatch):
    fast = homalg.support_of_cohomology
    wrong = []

    def checking(kos, n):
        supp = fast(kos, n)
        if supp != rng.support(cohomology(kos, n)):
            wrong.append((kos, n))
        return supp

    monkeypatch.setattr(homalg, "support_of_cohomology", checking)
    report = sweeps.sweep_koszul_support(max_n=24, max_p=3, max_deg=2)
    assert report.ok and report.checked > 500
    assert wrong == []


def test_support_with_module_terms_among_free_terms(z12):
    cx = BoundedComplex(
        z12,
        {-2: FreeTerm(1), -1: FreeTerm(1), 0: cyclic_module(z12, 3), 1: FreeTerm(2), 2: FreeTerm(1)},
        {-2: [[6]], 1: [[4, 8]]},
    )
    for n in range(-3, 4):
        assert support_of_cohomology(cx, n) == rng.support(cohomology(cx, n)), n
    assert sorted(support_of_cohomology(cx, 0).members) == ["(3)"]
