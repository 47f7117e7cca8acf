"""Exhaustive corpora for the property sweeps.

Poset catalog (all isomorphism classes up to six points), filtration and
family enumerations on a poset, small-ring catalogs and generated complexes.
Everything is deterministic: corpora come back in a fixed order.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from . import homalg, modules as mod, rings as rng
from .homalg import BoundedComplex
from .poset import SpectralPoset, all_up_sets, localization_poset, maximal_points
from .rings import FiniteRing
from .thomason import ThomasonFiltration, ThomasonSet, make_filtration


# -- poset catalog -----------------------------------------------------------


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
    return [ThomasonSet.from_members(poset, members) for members in all_up_sets(poset)]


def all_filtrations(poset: SpectralPoset, lo: int, hi: int) -> list[ThomasonFiltration]:
    """All filtrations with both tails constant outside the window [lo, hi]:
    decreasing chains X_lo >= ... >= X_hi with low tail X_lo, high tail X_hi."""
    sets = all_thomason_sets(poset)
    out = []

    def extend(chain):
        if len(chain) == hi - lo + 1:
            out.append(
                make_filtration(
                    poset, chain[0], list(zip(range(lo, hi + 1), chain)), chain[-1]
                )
            )
            return
        for s in sets:
            if not chain or s.members <= chain[-1].members:
                extend(chain + [s])

    extend([])
    return out


def all_set_families(poset: SpectralPoset) -> list[dict]:
    """Every assignment of a local Thomason set to each maximal point
    (compatible or not)."""
    maxima = sorted(maximal_points(poset))
    locals_ = []
    for m in maxima:
        sub = localization_poset(poset, m)
        locals_.append(all_thomason_sets(sub))
    return [dict(zip(maxima, combo)) for combo in itertools.product(*locals_)]


def all_filtration_families(poset: SpectralPoset, lo: int, hi: int) -> list[dict]:
    """Every assignment of a local filtration (window [lo, hi]) to each maximal
    point."""
    maxima = sorted(maximal_points(poset))
    locals_ = []
    for m in maxima:
        sub = localization_poset(poset, m)
        locals_.append(all_filtrations(sub, lo, hi))
    return [dict(zip(maxima, combo)) for combo in itertools.product(*locals_)]


# -- ring catalogs -----------------------------------------------------------


def zmod_catalog(max_n: int) -> list[FiniteRing]:
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
        mod.cyclic_module(ring, ideal.generators[0]) for ideal in rng.all_ideals(ring)
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
