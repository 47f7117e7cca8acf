"""Bounded complexes over finite rings and their homological calculus.

Terms are either free (a :class:`FreeTerm`, an immutable value holding its
rank, with matrix differentials) or general modules (stalk-like, with zero
differentials in and out).  This covers the shapes the classification
actually needs: Koszul complexes, shifted module stalks, and finite direct
sums of these.  Complex JSON keys each term by a decimal degree, and its
terms lie at most ``MAX_DEGREE_SPAN`` degrees apart.

:func:`derived_hom` builds its groups by element sweeps, and
:func:`cohomology` is H^n of Hom(R, C), so there is one enumerator.  It runs
on element indices through each module's index arithmetic over consecutive
degrees: each Hom term below the top one is listed once, its image giving
the boundaries of the next and its zero fibre its own cycles, and the cycles
of the top term are paired from two halves of its coordinates, each half
indexed by its image, rather than filtered from their whole product.  It
serves the CLI, which prints module invariants, and is the oracle; sweep 9
reads only the orders |Z|/|B| of three degrees at once through
:func:`derived_hom_orders`, which builds no module.  The sweeps need only
orders and supports, which :func:`hom_orders` and
:func:`support_of_cohomology` read off Smith valuations over each local chain
ring R_m without enumerating anything.

What depends on one complex alone is found once per complex and kept on it:
its (degree, rank) list, whether its terms are free, and the Smith
valuations of each differential over each local factor.  A call pays only
for its pair: :func:`derived_hom_orders` lists the nonzero terms of Y that
its degrees reach, checks each Hom term's size from that list before
anything is enumerated, then forms the coordinates from it and enumerates;
:func:`hom_orders` reads the kept valuations against Y's size chains, which
each module keeps too.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType

from . import modules as mod
from . import rings as rng
from .errors import InvalidInputError, UnsupportedRingError, json_int, json_list, json_object
from .modules import ENUMERATION_LIMIT, FiniteModule
from .poset import PrimeId
from .rings import FiniteRing, LocalFactor
from .thomason import MAX_DEGREE_SPAN, ThomasonSet
from .values import Value


class FreeTerm(Value):
    __slots__ = _fields = ("rank",)

    def __init__(self, rank: int):
        if rank < 0:
            raise InvalidInputError("rank must be nonnegative")
        object.__setattr__(self, "rank", rank)


def _matrix_check(matrix, rows, cols, n):
    matrix = tuple(tuple(row) for row in matrix)
    if len(matrix) != rows or any(len(r) != cols for r in matrix):
        raise InvalidInputError(f"differential at {n} must be a {rows}x{cols} matrix")
    return matrix


class BoundedComplex:
    """Cohomologically indexed complex with differentials d^n : C^n -> C^{n+1}."""

    def __init__(self, ring: FiniteRing, terms: Mapping[int, object], diffs: Mapping[int, object] = ()):
        if isinstance(ring, rng.IntegerRing):
            raise UnsupportedRingError("complexes over the integers adapter are not supported")
        self.ring = ring
        clean_terms = {}
        for n, term in dict(terms).items():
            if isinstance(term, FreeTerm):
                if term.rank == 0:
                    continue
            elif isinstance(term, FiniteModule):
                if term.ring != ring:
                    raise InvalidInputError("module term over a different ring")
                if term.is_zero_module():
                    continue
            else:
                raise InvalidInputError(f"bad term at degree {n}: {term!r}")
            clean_terms[int(n)] = term
        # read-only: what is read off them (ranks, Smith valuations) is kept
        self.terms = MappingProxyType(clean_terms)
        clean_diffs = {}
        for n, matrix in dict(diffs or ()).items():
            n = int(n)
            src = clean_terms.get(n)
            dst = clean_terms.get(n + 1)
            if src is None or dst is None:
                if _matrix_nonzero(ring, matrix):
                    raise InvalidInputError(f"differential at {n} touches a zero term")
                continue
            if not isinstance(src, FreeTerm) or not isinstance(dst, FreeTerm):
                if _matrix_nonzero(ring, matrix):
                    raise InvalidInputError(
                        f"nonzero differential at {n} requires free source and target"
                    )
                continue
            clean_diffs[n] = _matrix_check(matrix, dst.rank, src.rank, n)
        self.diffs = MappingProxyType(clean_diffs)
        for n, a in self.diffs.items():
            b = self.diffs.get(n + 1)
            if b is not None and _matrix_nonzero(ring, _matmul(ring, b, a)):
                raise InvalidInputError(f"d o d != 0 at degree {n}")

    # -- structure ---------------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted(self.terms)

    @property
    def min_degree(self) -> int:
        return min(self.terms) if self.terms else 0

    @property
    def max_degree(self) -> int:
        return max(self.terms) if self.terms else 0

    def is_zero(self) -> bool:
        return not self.terms

    @cached_property
    def is_perfect(self) -> bool:
        return all(isinstance(t, FreeTerm) for t in self.terms.values())

    def rank(self, n: int) -> int:
        term = self.terms.get(n)
        return term.rank if isinstance(term, FreeTerm) else 0

    @cached_property
    def ranks(self) -> list[tuple[int, int]]:
        """(n, rank of C^n) over the degrees in increasing order."""
        return [(n, self.rank(n)) for n in sorted(self.terms)]

    @cached_property
    def _smith(self) -> dict[tuple[int, str], list[int]]:
        return {}

    def smith_valuations(self, n: int, lf: LocalFactor) -> list[int]:
        """:func:`_smith_valuations` of d^n over the local factor ``lf``,
        found once per degree and factor.  The entries are projected into
        R_m, unless the complex lives over R_m itself: a complex over R meets
        the factors of R, whose labels differ, and one over R_m is read as it
        is, whichever ring R_m is a factor of."""
        key = n, lf.label
        out = self._smith.get(key)
        if out is None:
            project = (lambda x: x) if lf.ring == self.ring else lf.proj
            out = self._smith[key] = _smith_valuations(self.diffs[n], lf, project)
        return out

    @cached_property
    def _materialized(self) -> dict[int, FiniteModule]:
        return {}

    def module_at(self, n: int) -> FiniteModule:
        if n in self._materialized:
            return self._materialized[n]
        term = self.terms.get(n)
        if term is None:
            result = mod.zero_module(self.ring)
        elif isinstance(term, FreeTerm):
            result = mod.free_module(self.ring, term.rank)
        else:
            result = term
        self._materialized[n] = result
        return result

    def diff_apply(self, n: int, x):
        """Apply d^n to an element of module_at(n)."""
        matrix = self.diffs.get(n)
        target = self.module_at(n + 1)
        if matrix is None:
            return target.zero
        ring = self.ring
        return tuple(
            _dot(ring, row, x) for row in matrix
        )

    def __repr__(self):
        bits = []
        for n in self.degrees():
            t = self.terms[n]
            bits.append(f"{n}:{'R^%d' % t.rank if isinstance(t, FreeTerm) else f'M({t.order})'}")
        return f"BoundedComplex({', '.join(bits) or '0'})"


def _dot(ring, row, vec):
    acc = ring.zero
    for a, b in zip(row, vec):
        acc = ring.add(acc, ring.mul(a, b))
    return acc


def _matmul(ring, a, b):
    return tuple(
        tuple(_dot(ring, row, col) for col in zip(*b)) for row in a
    )


def _matrix_nonzero(ring, matrix):
    return any(entry != ring.zero for row in matrix for entry in row)


# -- constructors ------------------------------------------------------------


def zero_complex(ring: FiniteRing) -> BoundedComplex:
    return BoundedComplex(ring, {})


def stalk_complex(module: FiniteModule, degree: int = 0) -> BoundedComplex:
    return BoundedComplex(module.ring, {degree: module})


def free_stalk(ring: FiniteRing, rank: int, degree: int = 0) -> BoundedComplex:
    return BoundedComplex(ring, {degree: FreeTerm(rank)})


def koszul(ring: FiniteRing, generators) -> BoundedComplex:
    """Iterated tensor of the two-term complexes R --x--> R, degrees [-k, 0].

    Basis of degree -j is the j-subsets of the generator index set; the
    differential drops one index with the usual alternating sign.
    """
    generators = list(generators)
    if not generators:
        raise InvalidInputError("Koszul complex needs at least one generator")
    if any(g not in ring.elements() for g in generators):
        raise InvalidInputError(f"Koszul generators must be elements of {ring}")
    k = len(generators)
    terms = {-j: FreeTerm(math.comb(k, j)) for j in range(k + 1)}
    diffs = {}
    for j in range(k, 0, -1):
        src_basis = list(itertools.combinations(range(k), j))
        dst_basis = list(itertools.combinations(range(k), j - 1))
        dst_index = {s: i for i, s in enumerate(dst_basis)}
        matrix = [[ring.zero] * len(src_basis) for _ in dst_basis]
        for col, subset in enumerate(src_basis):
            for t, i in enumerate(subset):
                rest = tuple(x for x in subset if x != i)
                # each (row, col) is met once: the S - {i} differ for the i in S
                entry = generators[i] if t % 2 == 0 else ring.neg(generators[i])
                matrix[dst_index[rest]][col] = entry
        diffs[-j] = tuple(tuple(r) for r in matrix)
    return BoundedComplex(ring, terms, diffs)


def shift(complex_: BoundedComplex, k: int) -> BoundedComplex:
    """C[k] with (C[k])^n = C^{n+k} and differential scaled by (-1)^k."""
    ring = complex_.ring
    terms = {n - k: t for n, t in complex_.terms.items()}
    sign = 1 if k % 2 == 0 else -1
    diffs = {}
    for n, matrix in complex_.diffs.items():
        if sign == 1:
            diffs[n - k] = matrix
        else:
            diffs[n - k] = tuple(tuple(ring.neg(e) for e in row) for row in matrix)
    return BoundedComplex(ring, terms, diffs)


def direct_sum_complexes(a: BoundedComplex, b: BoundedComplex) -> BoundedComplex:
    """Degreewise direct sum; both complexes must have free terms."""
    if a.ring != b.ring:
        raise InvalidInputError("direct sum requires a common ring")
    if not (a.is_perfect and b.is_perfect):
        raise InvalidInputError("direct sum is implemented for free-term complexes")
    ring = a.ring
    terms = {}
    for n in set(a.terms) | set(b.terms):
        terms[n] = FreeTerm(a.rank(n) + b.rank(n))
    diffs = {}
    for n in set(a.diffs) | set(b.diffs):
        r_a, c_a = a.rank(n + 1), a.rank(n)
        r_b, c_b = b.rank(n + 1), b.rank(n)
        ma = a.diffs.get(n, tuple(tuple([ring.zero] * c_a) for _ in range(r_a)))
        mb = b.diffs.get(n, tuple(tuple([ring.zero] * c_b) for _ in range(r_b)))
        block = []
        for row in ma:
            block.append(tuple(row) + tuple([ring.zero] * c_b))
        for row in mb:
            block.append(tuple([ring.zero] * c_a) + tuple(row))
        diffs[n] = tuple(block)
    return BoundedComplex(ring, terms, diffs)


# -- cohomology --------------------------------------------------------------


def cohomology(complex_: BoundedComplex, n: int) -> FiniteModule:
    """H^n = ker d^n / im d^{n-1}, as a concrete module: H^n of Hom(R, C)."""
    return derived_hom(free_stalk(complex_.ring, 1, 0), complex_, n)


def support_of_cohomology(complex_: BoundedComplex, n: int) -> ThomasonSet:
    """Supp H^n: the maximal ideals m with e_m H^n nonzero, as a mask of
    spec(ring), factor k at point k.

    For a free term, e_m H^n is |e_m R|^r over the image orders of
    :func:`_image_orders`, each at most |e_m R| >= 2, so it is nonzero when
    there are fewer images than the rank r; only otherwise is the power
    formed, and r is then at most a dimension of a differential that the
    input lists.  A module term touches no nonzero differential, so its part
    of H^n is |e_m N|.
    """
    ring = complex_.ring
    term, rank = complex_.terms.get(n), complex_.rank(n)
    mask = 0
    for k, lf in enumerate(ring.local_factors()):
        if isinstance(term, FiniteModule):
            nonzero = term.local_invariants()[lf.label][0] > 1
        else:
            chain = lf.valuation[0]
            images = _image_orders(complex_, n, lf, chain) if rank else []
            nonzero = rank > len(images) or chain[0] ** rank > math.prod(images)
        if nonzero:
            mask |= 1 << k
    return ThomasonSet(rng.spec(ring), mask)


# -- derived Hom -------------------------------------------------------------


def derived_hom(perfect: BoundedComplex, target: BoundedComplex, i: int) -> FiniteModule:
    """H^i of the total Hom complex Hom(P, Y), for P a complex of projectives.

    Hom^k is the product over the degrees p of P of (Y^{p+k})^{r(p)}, and
    d^k f = d_Y o f - (-1)^k f o d_P.  An element of Hom^k is enumerated as
    the tuple of the element indices of its coordinates (p, j) in the nonzero
    Y^{p+k}, and d^k is compiled once into lookups in the
    :class:`~spectral_glue.modules.IndexArithmetic` of those modules.  The
    boundaries are the image of Hom^{i-1}, the cycles are paired from two
    halves of the coordinates of Hom^i (:func:`_kernel`), and the result is
    the quotient of the cycles by the boundaries, on index tuples.  Sweep 9
    needs only orders, which :func:`derived_hom_orders` reads as |Z^i| / |B^i|
    for consecutive degrees at once, without building either module.
    """
    ariths, cycles, boundaries = _hom_groups(perfect, target, i, i)
    ariths = ariths[i]
    add = lambda f, g: tuple([a.add(x, y) for a, x, y in zip(ariths, f, g)])
    smul = lambda r, f: tuple([a.smul(r, x) for a, x in zip(ariths, f)])
    cycle_module = FiniteModule(perfect.ring, cycles[i], add, smul, tuple(a.zero for a in ariths))
    return cycle_module.quotient(boundaries[i])


def derived_hom_orders(perfect: BoundedComplex, target: BoundedComplex, degrees) -> dict[int, int]:
    """{i: |H^i Hom(P, Y)| = |Z^i| / |B^i|} for i in a nonempty collection
    ``degrees``, enumerated as by :func:`derived_hom` over the degrees from
    the least to the greatest, with each Hom term listed once."""
    _, cycles, boundaries = _hom_groups(perfect, target, min(degrees), max(degrees))
    return {i: len(cycles[i]) // len(boundaries[i]) for i in degrees}


def _hom_groups(perfect: BoundedComplex, target: BoundedComplex, lo: int, hi: int):
    """({k: the arithmetic of each coordinate of Hom^k}, {i: the cycles Z^i
    as a list of index tuples}, {i: the boundaries B^i as a set}) for the
    degrees lo <= i <= hi, for :func:`derived_hom` and
    :func:`derived_hom_orders`.

    The nonzero terms Y^{p+k} that Hom^k reaches are listed once per call,
    and both the size checks and the coordinates are read off that list.
    Every Hom^k with lo - 1 <= k <= hi is checked against
    ``ENUMERATION_LIMIT`` before any coordinate is formed, in the order lo,
    lo - 1, lo + 1, ..., hi, which is that of one-degree calls from lo up.
    Each Hom^k with k < hi is listed once: its image under d^k is B^{k+1}
    and its zero fibre is Z^k.  Only Z^hi is paired from two halves, and
    every B^i is checked to lie inside Z^i.
    """
    if not perfect.is_perfect:
        raise InvalidInputError("first argument must have free terms")
    if perfect.ring != target.ring:
        raise InvalidInputError("ring mismatch")

    ring = perfect.ring
    terms = target.terms  # the nonzero terms of Y
    reach = lambda k: [(p, r, target.module_at(p + k)) for p, r in perfect.ranks if p + k in terms]
    reached = {}  # k -> [(p, r(p), Y^{p+k})] over the p with Y^{p+k} nonzero
    bits = ENUMERATION_LIMIT.bit_length()
    for k in (lo, lo - 1, *range(lo + 1, hi + 1)):
        reached[k] = reach(k)
        # a nonzero factor |Y^{p+k}|^{r(p)} is at least 2^{r(p)}, so a rank past
        # the limit's bit length is refused before its power or coordinates are formed
        rank = max((r for _, r, _ in reached[k]), default=0)
        if rank > bits:
            raise InvalidInputError(f"Hom term of size at least 2^{rank} is too large to enumerate")
        size = math.prod(n_mod.order**r for _, r, n_mod in reached[k])
        if size > ENUMERATION_LIMIT:
            raise InvalidInputError(f"Hom term of size {size} is too large to enumerate")
    reached[hi + 1] = reach(hi + 1)
    # every term of P has positive rank, and d_P^p exists only if p + 1 is a term
    coords = {  # k -> [(p, j, Y^{p+k})] over the coordinates of Hom^k with Y^{p+k} nonzero
        k: [(p, j, n_mod) for p, r, n_mod in reached[k] for j in range(r)] for k in reached
    }

    d_y = {}  # q -> d_Y^q as a map of element indices

    def compile_d(k):
        """d^k as one (arithmetic, d_Y map, source, [(source, scale row)]) per
        coordinate of Hom^{k+1}; sources are positions in a Hom^k tuple."""
        src = {(p, j): s for s, (p, j, _) in enumerate(coords[k])}
        steps = []
        for p, j, n_next in coords[k + 1]:
            arith = n_next.arithmetic
            dmap = None
            if (p, j) in src and p + k in target.diffs:
                q = p + k
                if q not in d_y:
                    d_y[q] = tuple(
                        n_next.index[target.diff_apply(q, x)] for x in target.module_at(q).elements
                    )
                dmap = d_y[q]
            terms = []
            for l, row in enumerate(perfect.diffs.get(p, ())):
                if (p + 1, l) in src and row[j] != ring.zero:
                    c = row[j] if k % 2 else ring.neg(row[j])
                    terms.append((src[p + 1, l], arith.scale(c)))
            steps.append((arith, dmap, src.get((p, j)), terms))
        return steps

    ariths = {k: [n_mod.arithmetic for _, _, n_mod in coords[k]] for k in coords}
    cycles, boundaries = {}, {}
    for k in range(lo - 1, hi):
        d_k = compile_d(k)
        elements = itertools.product(*(range(a.module.order) for a in ariths[k]))
        if k < lo:
            boundaries[k + 1] = {_image(d_k, g) for g in elements}
            continue
        zero = tuple(a.zero for a in ariths[k + 1])
        boundaries[k + 1], cycles[k] = set(), []
        for g in elements:
            image = _image(d_k, g)
            boundaries[k + 1].add(image)
            if image == zero:
                cycles[k].append(g)
    cycles[hi] = _kernel(functools.partial(_image, compile_d(hi)), ariths[hi], ariths[hi + 1])
    for i in range(lo, hi + 1):
        if not boundaries[i] <= set(cycles[i]):
            # d o d = 0 on Hom(P, Y) whenever it holds on P and on Y
            raise AssertionError(f"a boundary of Hom^{i} is not a cycle: d o d != 0")
    return ariths, cycles, boundaries


def _image(steps, f) -> tuple:
    """d f for a compiled differential ``steps`` and an index tuple ``f``."""
    out = []
    for arith, dmap, s, terms in steps:
        acc = arith.zero if dmap is None else dmap[f[s]]
        for t, row in terms:
            acc = arith.add(acc, row[f[t]])
        out.append(acc)
    return tuple(out)


def _kernel(d, sources, targets) -> list[tuple]:
    """ker d in lexicographic order, for an additive map d from the product
    of the modules of ``sources`` into that of ``targets`` (each given by
    its :class:`~spectral_glue.modules.IndexArithmetic`), on index tuples.

    The coordinates are cut into halves A and B where |A| + |B| is least.
    As d is additive, d(a, b) = d(a, 0) + d(0, b), so (a, b) is a cycle iff
    d(0, b) = -d(a, 0): the B-half tuples are indexed by their image, and
    each A-half tuple is paired with those at the negative of its own, read
    off the row of -1.  That is |A| + |B| images and one tuple per cycle,
    where filtering the whole product takes |A| |B| images (meet in the
    middle; Horowitz and Sahni, J. ACM 1974).  With fewer than two
    coordinates one half is the empty product.
    """
    orders = [a.module.order for a in sources]
    cut = min(range(len(orders) + 1), key=lambda c: math.prod(orders[:c]) + math.prod(orders[c:]))
    zeros = tuple(a.zero for a in sources)
    by_image: dict = {}
    for b in itertools.product(*map(range, orders[cut:])):
        by_image.setdefault(d(zeros[:cut] + b), []).append(b)
    negs = [t.scale(t.module.ring.neg(t.module.ring.one)) for t in targets]
    cycles = []
    for a in itertools.product(*map(range, orders[:cut])):
        minus = tuple([row[x] for row, x in zip(negs, d(a + zeros[cut:]))])
        cycles += [a + b for b in by_image.get(minus, ())]
    return cycles


def hom_orders(
    perfect: BoundedComplex,
    target: BoundedComplex,
    i: int,
    factor: LocalFactor | None = None,
) -> dict[str, int]:
    """{m: |e_m H^i Hom(P, Y)|} over the local factors R_m, for P with free
    terms and Y without differentials; nothing is enumerated.

    Y is the sum of its terms N in degrees d, so Hom(P, Y) is the sum of the
    complexes Hom(P, N[-d]).  Their degree-i term is N^{r(p)} with p = d - i,
    and both differentials precompose with d_P.  So |e_m H^i| is the product
    over d of :func:`_factor_order` at p with the size chain of e_m N.

    With ``factor`` given, P lives over the factor ring R_m and Y over the
    ring of which it is a factor; Hom(R_m^a, N) = (e_m N)^a, and the result
    has the one label of ``factor``.
    """
    if not perfect.is_perfect:
        raise InvalidInputError("first argument must have free terms")
    if target.diffs:
        raise InvalidInputError("Hom orders need a target without differentials")
    if factor is None:
        if perfect.ring != target.ring:
            raise InvalidInputError("ring mismatch (pass a local factor to bridge)")
        factors = target.ring.local_factors()
    else:
        # local_factor raises unless the target's ring has a factor of that label
        if not perfect.ring == factor.ring == rng.local_factor(target.ring, factor.label).ring:
            raise InvalidInputError("perfect complex must live over the factor ring")
        factors = [factor]
    out = {}
    for lf in factors:
        order = 1
        for d, term in target.terms.items():
            if isinstance(term, FreeTerm):
                chain = tuple(size**term.rank for size in lf.valuation[0])
            else:
                chain = term.local_invariants()[lf.label]
            order *= _factor_order(perfect, d - i, lf, chain)
        out[lf.label] = order
    return out


def _factor_order(complex_: BoundedComplex, p: int, lf: LocalFactor, chain) -> int:
    """|e_m N|^{r(p)} / (|im d^{p-1}| * |im d^p|) for a module N with size
    chain ``chain[j] = |t^j e_m N|``, ending in 1.

    This is the order of e_m H^p of the free terms with N = R_m, and of e_m H
    of Hom(C, N) in the degree whose term is Hom(C^p, N).
    """
    rank = complex_.rank(p)
    if not rank:
        return 1
    return chain[0] ** rank // math.prod(_image_orders(complex_, p, lf, chain))


def _image_orders(complex_: BoundedComplex, p: int, lf: LocalFactor, chain) -> list[int]:
    """The orders |t^v e_m N| whose product is |im d^{p-1}| * |im d^p|.

    Each d acts on a power of e_m N through its matrix over R_m, and its
    image there has order prod_k |t^{v_k} e_m N| over the Smith valuations
    v_k of that matrix, which the complex keeps per degree and factor.
    """
    orders = []
    for n in (p - 1, p):
        if n in complex_.diffs:
            orders += [chain[v] for v in complex_.smith_valuations(n, lf) if v < len(chain)]
    return orders


def _smith_valuations(matrix, lf: LocalFactor, project) -> list[int]:
    """Valuations of the nonzero Smith diagonal entries of a matrix over R_m.

    Over a chain ring an entry a of least valuation divides every other
    entry, so clearing its column by row operations leaves its row to be
    cleared by column operations that touch nothing else: record val[a] and
    drop both (Howell 1986; Storjohann and Mulders 1998).
    """
    chain, val = lf.valuation
    ring = lf.ring
    zero_val = len(chain) - 1
    rows = [[project(e) for e in row] for row in matrix]
    out = []
    while rows:
        v, i, j = min(
            ((val[e], i, j) for i, row in enumerate(rows) for j, e in enumerate(row)),
            default=(zero_val, 0, 0),
        )
        if v == zero_val:
            break
        out.append(v)
        pivot = rows.pop(i)
        for row in rows:
            c = ring.neg(ring.divide(row[j], pivot[j]))
            row[:] = [ring.add(x, ring.mul(c, y)) for x, y in zip(row, pivot)]
        for row in rows:
            del row[j]
    return out


# -- (co)localization of complexes -------------------------------------------


def localize_complex(complex_: BoundedComplex, label: PrimeId) -> BoundedComplex:
    """Project onto the local factor at a maximal ideal.

    Over the supported (product-of-chain-rings) base, localization and
    colocalization are both realized by this idempotent projection.
    """
    lf = rng.local_factor(complex_.ring, label)
    local = lf.ring
    terms = {}
    for n, term in complex_.terms.items():
        terms[n] = term if isinstance(term, FreeTerm) else lf.component(term)
    diffs = {
        n: tuple(tuple(lf.proj(e) for e in row) for row in matrix)
        for n, matrix in complex_.diffs.items()
    }
    return BoundedComplex(local, terms, diffs)


# -- JSON --------------------------------------------------------------------


def _degree(key: str, field: str) -> int:
    # an optional sign and ASCII digits: int() would also read "1_0" as 10,
    # " 1" as 1 and the Arabic-Indic "\u0661" as 1
    digits = key[1:] if key[:1] in ("+", "-") else key
    if not (digits.isascii() and digits.isdigit()):
        raise InvalidInputError(f"{field!r} key {key!r} must be a decimal degree")
    return int(key)


def complex_from_json(ring: FiniteRing, data: Mapping) -> BoundedComplex:
    """{"terms": {"-1": {"free": 1}, "0": {"module": {...}}}, "differentials": {"-1": [[2]]}}

    The terms lie at most MAX_DEGREE_SPAN degrees apart, which is checked on
    their keys before any term is read: every degree between the lowest and
    the highest term is visited by the verbs that read a complex.  Each
    field is checked where it is read and refused with its name; any other
    exception is a fault, and propagates."""
    json_object(data, "complex JSON")
    terms = {}
    specs = json_object(data.get("terms", {}), "'terms'")
    degrees = [_degree(key, "terms") for key in specs]
    if degrees and max(degrees) - min(degrees) > MAX_DEGREE_SPAN:
        raise InvalidInputError(
            f"'terms' at degrees {min(degrees)} and {max(degrees)} lie more than the bound "
            f"MAX_DEGREE_SPAN = {MAX_DEGREE_SPAN} degrees apart"
        )
    for n, spec_ in zip(degrees, specs.values()):
        json_object(spec_, f"'terms' at degree {n}")
        if "free" in spec_:
            rank = json_int(spec_["free"], f"'free' at degree {n}")
            if rank < 0:
                raise InvalidInputError(f"'free' at degree {n} must be nonnegative, got {rank}")
            terms[n] = FreeTerm(rank)
        elif "module" in spec_:
            terms[n] = rng.module_from_json(ring, spec_["module"])
        else:
            raise InvalidInputError(f"term at {n} must give 'free' or 'module'")
    diffs = {}
    for key, matrix in json_object(data.get("differentials", {}), "'differentials'").items():
        n = _degree(key, "differentials")
        what = f"'differentials' at degree {n}"
        diffs[n] = [
            [ring.element_from_json(e) for e in json_list(row, f"a row of {what}")]
            for row in json_list(matrix, what)
        ]
    return BoundedComplex(ring, terms, diffs)
