"""Exhaustive corpora for the property sweeps.

Poset catalog (all isomorphism classes up to six points), filtration and
family enumerations on a poset, small-ring catalogs and generated complexes.
Everything is deterministic: corpora come back in a fixed order.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from . import homalg, rings as rng
from .errors import InvalidInputError
from .homalg import BoundedComplex
from .poset import SpectralPoset, all_up_sets, localization_poset, maximal_points
from .rings import FiniteRing
from .thomason import ThomasonFiltration, ThomasonSet, from_levels


# -- poset catalog -----------------------------------------------------------

# _canonical tries every permutation: 6 points take seconds, 7 more than two minutes
MAX_CATALOG_POSET = 6
# every Z/n of the ring catalog stays tabulated through a sweep, so time and
# memory grow faster than the bound on n
MAX_CATALOG_RING = 300


def _down_closed_subsets(rel: frozenset, size: int):
    """All down-closed subsets of the poset {0..size-1} with relation rel."""
    out = []
    for bits in itertools.product((False, True), repeat=size):
        subset = frozenset(i for i in range(size) if bits[i])
        if all(i in subset for i, j in rel if j in subset):
            out.append(subset)
    return out


def _canonical(rel: frozenset, size: int) -> tuple:
    best = None
    for perm in itertools.permutations(range(size)):
        image = tuple(sorted((perm[i], perm[j]) for i, j in rel))
        if best is None or image < best:
            best = image
    return best


@lru_cache(maxsize=None)
def _poset_relations(max_size: int) -> tuple:
    """Canonical relation sets of all posets with 1..max_size elements.

    Every finite poset arises by repeatedly adding a new maximal element whose
    strict down-set is a down-closed subset of what is already there.
    """
    if max_size > MAX_CATALOG_POSET:
        raise InvalidInputError(
            f"poset catalog size {max_size} is over the bound of {MAX_CATALOG_POSET}"
        )
    by_size: list[list[frozenset]] = [[frozenset({(0, 0)})]]
    for size in range(2, max_size + 1):
        seen = set()
        fresh = []
        new = size - 1
        for rel in by_size[-1]:
            for down in _down_closed_subsets(rel, size - 1):
                extended = frozenset(
                    rel | {(new, new)} | {(i, new) for i in down}
                )
                canon = _canonical(extended, size)
                if canon not in seen:
                    seen.add(canon)
                    fresh.append(extended)
        by_size.append(fresh)
    return tuple(tuple(level) for level in by_size)


def poset_catalog(max_size: int) -> list[SpectralPoset]:
    """One representative poset per isomorphism class, smallest first."""
    levels = _poset_relations(max_size)
    out = []
    for size in range(1, max_size + 1):
        for rel in levels[size - 1]:
            labels = [f"p{i}" for i in range(size)]
            pairs = [(f"p{i}", f"p{j}") for i, j in rel]
            out.append(SpectralPoset(labels, pairs))
    return out


def poset_counts(max_size: int) -> list[int]:
    return [len(level) for level in _poset_relations(max_size)]


# -- filtrations and families on a poset -------------------------------------


def all_thomason_sets(poset: SpectralPoset) -> list[ThomasonSet]:
    return [ThomasonSet(poset, mask) for mask in all_up_sets(poset)]


# each filtration costs a sweep about a millisecond: -10..10 over Spec(Z/30)
# lists 22^3 = 10,648 of them in about 10 s, -50..50 would list 102^3
MAX_FILTRATIONS = 10_000


def count_filtrations(poset: SpectralPoset, lo: int, hi: int) -> int:
    """How many filtrations :func:`all_filtrations` lists for the window, by a
    DP over the Thomason sets: the chains X_lo >= ... >= X_n ending at each
    set, extended one degree at a time.  Counting stops once the total passes
    MAX_FILTRATIONS, so a larger result is only a lower bound."""
    if lo > hi:
        raise InvalidInputError(f"window [{lo}, {hi}] is reversed: lo must be <= hi")
    masks = all_up_sets(poset)
    if len(masks) == 1:  # the empty poset: one chain at every length
        return 1
    ends = [1] * len(masks)
    for _ in range(hi - lo):
        if sum(ends) > MAX_FILTRATIONS:
            break
        ends = [sum(c for t, c in zip(masks, ends) if not s & ~t) for s in masks]
    return sum(ends)


def count_filtration_families(poset: SpectralPoset, lo: int, hi: int) -> int:
    """How many families :func:`all_filtration_families` lists: the product
    over the maximal points of the filtrations of each localization."""
    return math.prod(
        count_filtrations(localization_poset(poset, m), lo, hi) for m in maximal_points(poset)
    )


def check_window(count: int, lo: int, hi: int) -> None:
    """Refuse a window whose enumeration would list more than MAX_FILTRATIONS."""
    if count > MAX_FILTRATIONS:
        raise InvalidInputError(
            f"window [{lo}, {hi}] lists more filtrations, or families of them, "
            f"than the bound MAX_FILTRATIONS = {MAX_FILTRATIONS}"
        )


def all_filtrations(poset: SpectralPoset, lo: int, hi: int) -> list[ThomasonFiltration]:
    """All filtrations with both tails constant outside the window [lo, hi]:
    decreasing chains X_lo >= ... >= X_hi with low tail X_lo, high tail X_hi."""
    check_window(count_filtrations(poset, lo, hi), lo, hi)
    sets = all_thomason_sets(poset)
    out = []

    def extend(chain):
        if len(chain) == hi - lo + 1:
            out.append(from_levels(poset, lo, chain))
            return
        for s in sets:
            if not chain or s <= chain[-1]:
                extend(chain + [s])

    extend([])
    return out


def _families(poset: SpectralPoset, local_corpus) -> list[dict]:
    """Every assignment m -> an item of ``local_corpus(Spec(R_m))`` over the
    maximal points m."""
    maxima = sorted(maximal_points(poset))
    locals_ = [local_corpus(localization_poset(poset, m)) for m in maxima]
    return [dict(zip(maxima, combo)) for combo in itertools.product(*locals_)]


def all_set_families(poset: SpectralPoset) -> list[dict]:
    """Every assignment of a local Thomason set to each maximal point
    (compatible or not)."""
    return _families(poset, all_thomason_sets)


def all_filtration_families(poset: SpectralPoset, lo: int, hi: int) -> list[dict]:
    """Every assignment of a local filtration (window [lo, hi]) to each maximal
    point."""
    check_window(count_filtration_families(poset, lo, hi), lo, hi)
    return _families(poset, lambda sub: all_filtrations(sub, lo, hi))


# -- ring catalogs -----------------------------------------------------------


def zmod_catalog(max_n: int) -> list[FiniteRing]:
    if max_n > MAX_CATALOG_RING:
        raise InvalidInputError(
            f"Z/n catalog up to n = {max_n} is over the bound MAX_CATALOG_RING = {MAX_CATALOG_RING}"
        )
    return [rng.ZMod(n) for n in range(2, max_n + 1)]


def poly_catalog(max_p: int = 5, max_deg: int = 3) -> list[FiniteRing]:
    """All F_p[x]/(f) with p <= max_p prime and f monic of degree <= max_deg."""
    out = []
    for p in (2, 3, 5, 7):
        if p > max_p:
            break
        for deg in range(1, max_deg + 1):
            for f in rng.monic_polys(p, deg):
                out.append(rng.PolyQuot(p, f))
    return out


def product_catalog(max_order: int) -> list[FiniteRing]:
    """A spread of product rings with two or three local factors."""
    basics = [
        rng.ZMod(2),
        rng.ZMod(4),
        rng.ZMod(3),
        rng.ZMod(9),
        rng.ZMod(5),
        rng.PolyQuot(2, (0, 0, 1)),  # F_2[x]/(x^2)
        rng.PolyQuot(2, (1, 1, 1)),  # F_4
    ]
    out = []
    for k in (2, 3):
        for combo in itertools.combinations(basics, k):
            if math.prod(f.order for f in combo) <= max_order:
                out.append(rng.ProductRing(combo))
    return out


# -- generated complexes -----------------------------------------------------


def koszul_complexes(ring: FiniteRing, shifts=(0,)) -> list[BoundedComplex]:
    """Shifted Koszul complexes of every ideal, plus pairwise direct sums."""
    singles = []
    for ideal in rng.all_ideals(ring):
        kos = homalg.koszul_of_ideal(ring, ideal)
        for k in shifts:
            singles.append(homalg.shift(kos, k))
    sums = [
        homalg.direct_sum_complexes(a, b)
        for a, b in itertools.combinations(singles, 2)
    ]
    return singles + sums


def stalk_complexes(ring: FiniteRing) -> list[BoundedComplex]:
    """Stalks of every cyclic module in degrees 0 and 1, plus the zero
    complex and two-stalk complexes with one cyclic in each of those degrees."""
    cyclics = [
        rng.cyclic_module(ring, ideal.generators[0]) for ideal in rng.all_ideals(ring)
    ]
    cyclics = [c for c in cyclics if not c.is_zero_module()]
    out = [homalg.zero_complex(ring)]
    for n in (0, 1):
        for c in cyclics:
            out.append(homalg.stalk_complex(c, n))
    for c, d in zip(cyclics, reversed(cyclics)):
        out.append(BoundedComplex(ring, {0: c, 1: d}))
    return out


def spec_filtrations(ring: FiniteRing, lo: int, hi: int) -> list[ThomasonFiltration]:
    poset, _ = rng.spec(ring)
    return all_filtrations(poset, lo, hi)


def cosilting_fixtures() -> list:
    """Cosilting modules over product rings with <= 3 local factors.

    Every subset of the indecomposable injectives of each ring gives one
    fixture in the injective-split normal form; the Z/12 fixtures include the
    spec's Z/3-with-Thomason-set-{(2)} example.
    """
    from . import torsion_cosilting as tc

    out = []
    for ring in (
        rng.ZMod(12),
        rng.ZMod(30),
        rng.ProductRing((rng.ZMod(4), rng.PolyQuot(2, (0, 0, 1)))),
    ):
        injectives = rng.indecomposable_injectives(ring)
        for k in range(len(injectives) + 1):
            for combo in itertools.combinations(injectives, k):
                out.append(tc.cosilting_from_modules(ring, combo))
    return out
