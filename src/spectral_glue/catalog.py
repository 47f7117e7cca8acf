"""Exhaustive corpora for the property sweeps.

The poset catalog (all isomorphism classes up to seven points); on a poset,
its Thomason sets, its filtrations on a window and its families of local
sets and of local filtrations; small-ring catalogs and generated complexes.
A family of local sets is a row, X(m) for m in ``poset.maxima`` in the
numbering of the poset packed by :func:`~spectral_glue.gluing.make_row`, the
form :mod:`spectral_glue.gluing` takes, and a family of filtrations is a
:class:`~spectral_glue.gluing.LocalFamily`, built from a decreasing run of
such rows, packed as a filtration's levels are, by
:meth:`~spectral_glue.gluing.LocalFamily.from_rows` in normal form; the
compatible ones are listed by the gluing condition, not by gluing.  Chains
are packed as they are extended, one level at a time.  Everything
is deterministic: corpora come back in a fixed order.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache

from . import homalg, rings as rng
from .errors import InvalidInputError
from .gluing import LocalFamily, local_up_sets, make_row
from .homalg import BoundedComplex
from .poset import SpectralPoset, all_up_sets
from .rings import FiniteRing
from .thomason import ThomasonFiltration, ThomasonSet, from_packed, ones


# -- poset catalog -----------------------------------------------------------

# _canonical permutes within the (|down|, |up|) classes only: 6 points take
# about 0.05 s and 7 points 0.5 s
MAX_CATALOG_POSET = 7
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
    """The least relation image over the relabelings that give the points of
    each (|down|, |up|) class one block of consecutive positions, the blocks
    in the order of the classes.  The classes are isomorphism invariants, so
    isomorphic posets have equal forms."""
    downs, ups = Counter(j for _, j in rel), Counter(i for i, _ in rel)
    key = [(downs[p], ups[p]) for p in range(size)].__getitem__
    blocks = [tuple(b) for _, b in itertools.groupby(sorted(range(size), key=key), key)]
    best = None
    for order in itertools.product(*map(itertools.permutations, blocks)):
        position = {p: k for k, p in enumerate(itertools.chain.from_iterable(order))}
        image = tuple(sorted((position[i], position[j]) for i, j in rel))
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


# -- filtrations and families on a poset -------------------------------------


def all_thomason_sets(poset: SpectralPoset) -> list[ThomasonSet]:
    return [ThomasonSet(poset, mask) for mask in all_up_sets(poset)]


# each filtration costs a sweep about a millisecond: -10..10 over Spec(Z/30)
# lists 22^3 = 10,648 of them in about 10 s, -50..50 would list 102^3
MAX_FILTRATIONS = 10_000


def count_filtrations(poset: SpectralPoset, lo: int, hi: int) -> int:
    """How many filtrations :func:`all_filtrations` lists for the window, and
    families :func:`compatible_filtration_families` lists, by a DP over the
    Thomason sets: the chains X_lo >= ... >= X_n ending at each set, extended
    one degree at a time.  Counting stops once the total passes
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


def check_window(count: int, lo: int, hi: int, scope: str = "") -> None:
    """Refuse a window whose enumeration would list more than MAX_FILTRATIONS;
    ``scope`` ends the message with where they were counted."""
    if count > MAX_FILTRATIONS:
        raise InvalidInputError(
            f"window [{lo}, {hi}] lists more filtrations, or families of them, "
            f"than the bound MAX_FILTRATIONS = {MAX_FILTRATIONS}{scope}"
        )


def _chains(items: list[int], length: int, width: int) -> list[int]:
    """Every chain c_0 >= c_1 >= ... of ``length`` of the masks ``items``
    under inclusion, in the lexicographic order of ``items``, as the packed
    run of c_k shifted by k·width: each item's list of the items below it is
    built once, and every chain is extended one level at a time."""
    below = {x: [y for y in items if not y & ~x] for x in items}
    chains = [(x, x) for x in items]
    for k in range(1, length):
        shift = k * width
        chains = [(run | y << shift, y) for run, x in chains for y in below[x]]
    return [run for run, _ in chains]


def all_filtrations(poset: SpectralPoset, lo: int, hi: int) -> list[ThomasonFiltration]:
    """All filtrations with both tails constant outside the window [lo, hi]:
    decreasing chains X_lo >= ... >= X_hi with low tail X_lo, high tail X_hi."""
    check_window(count_filtrations(poset, lo, hi), lo, hi)
    length = hi - lo + 1
    runs = _chains(all_up_sets(poset), length, len(poset.elements))
    return [from_packed(poset, lo, length, run) for run in runs]


def all_set_rows(poset: SpectralPoset) -> list[int]:
    """Every family of local Thomason sets, compatible or not, as its row
    (X(m) for m in ``poset.maxima``) in the numbering of ``poset``: the
    product of the up-sets of each localization, in product order."""
    width = len(poset.elements)
    # each local set moved to its member's slot, so a row is the sum of its members
    choices = [
        [x << k * width for x in local_up_sets(poset, m)] for k, m in enumerate(poset.maxima)
    ]
    return list(map(sum, itertools.product(*choices)))


def compatible_set_rows(poset: SpectralPoset) -> list[int]:
    """The rows of :func:`all_set_rows` that satisfy the gluing condition
    X(m) & down[m'] == X(m') & down[m] for every pair, in its order, listed
    by the condition and not by gluing: a row is extended by X(m) when that
    holds against each member before it, that is when X(m) masked with each
    earlier down[m'], in that member's slot, is the row masked with down[m]
    in every slot; so the choices of X(m) are grouped by the first."""
    width, downs, rows = len(poset.elements), poset.maximal_downs, [0]
    for k, m in enumerate(poset.maxima):
        shift, earlier = k * width, ones(width, k)
        slots_down, down_m = make_row(poset, downs[:k]), poset.down[m] * earlier
        choices = {}
        for x in local_up_sets(poset, m):
            choices.setdefault(x * earlier & slots_down, []).append(x << shift)
        rows = [row | x for row in rows for x in choices.get(row & down_m, ())]
    return rows


def compatible_filtration_families(poset: SpectralPoset, lo: int, hi: int) -> list[LocalFamily]:
    """Every family of local filtrations on the window [lo, hi] that satisfies
    the gluing condition at each degree, listed by the condition and not by
    gluing: a chain of compatible rows of local up-sets, one row per degree,
    that decreases in every member, in normal form.  There are as many as
    there are global filtrations on the window, so the window is refused by
    :func:`count_filtrations` of ``poset``."""
    check_window(count_filtrations(poset, lo, hi), lo, hi)
    length, width = hi - lo + 1, len(poset.elements) * len(poset.maxima)
    runs = _chains(compatible_set_rows(poset), length, width)
    return [LocalFamily.from_rows(poset, lo, length, run) for run in runs]


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


def koszul_complexes(ring: FiniteRing, shifts=(0,), max_sums=None) -> list[BoundedComplex]:
    """Shifted Koszul complexes of every ideal, plus the first ``max_sums``
    (default all) of their pairwise direct sums."""
    singles = []
    for ideal in rng.all_ideals(ring):
        kos = homalg.koszul(ring, ideal.generators)
        for k in shifts:
            singles.append(homalg.shift(kos, k))
    pairs = itertools.islice(itertools.combinations(singles, 2), max_sums)
    return singles + [homalg.direct_sum_complexes(a, b) for a, b in pairs]


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
