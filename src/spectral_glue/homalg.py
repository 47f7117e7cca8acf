"""Bounded complexes over finite rings and their homological calculus.

Terms are either free (stored by rank, with matrix differentials) or general
modules (stalk-like, with zero differentials in and out).  This covers the
shapes the classification actually needs: Koszul complexes, shifted module
stalks, and finite direct sums of these.  Cohomology and derived Hom are
computed by element sweeps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

from . import modules as mod
from . import rings as rng
from .errors import InvalidInputError, UnsupportedRingError, json_object
from .modules import FiniteModule
from .poset import PrimeId
from .rings import FiniteRing, Ideal, LocalFactor
from .thomason import ThomasonSet

ENUMERATION_LIMIT = 2_000_000


@dataclass(frozen=True)
class FreeTerm:
    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise InvalidInputError("rank must be nonnegative")


def _matrix_check(matrix, rows, cols):
    matrix = tuple(tuple(row) for row in matrix)
    if len(matrix) != rows or any(len(r) != cols for r in matrix):
        raise InvalidInputError(f"differential must be a {rows}x{cols} matrix")
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
        self.terms = clean_terms
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
            clean_diffs[n] = _matrix_check(matrix, dst.rank, src.rank)
        self.diffs = clean_diffs
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

    def is_perfect(self) -> bool:
        return all(isinstance(t, FreeTerm) for t in self.terms.values())

    def rank(self, n: int) -> int:
        term = self.terms.get(n)
        return term.rank if isinstance(term, FreeTerm) else 0

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
                sign = 1 if t % 2 == 0 else -1
                entry = generators[i] if sign == 1 else ring.neg(generators[i])
                row = dst_index[rest]
                matrix[row][col] = ring.add(matrix[row][col], entry)
        diffs[-j] = tuple(tuple(r) for r in matrix)
    return BoundedComplex(ring, terms, diffs)


def koszul_of_ideal(ring: FiniteRing, ideal: Ideal) -> BoundedComplex:
    return koszul(ring, ideal.generators)


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
    if not (a.is_perfect() and b.is_perfect()):
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
    """H^n = ker d^n / im d^{n-1}, as a concrete module."""
    source = complex_.module_at(n)
    if complex_.diffs.get(n) is None:
        kernel = frozenset(source.elements)
    else:
        target = complex_.module_at(n + 1)
        kernel = frozenset(
            x for x in source.elements if complex_.diff_apply(n, x) == target.zero
        )
    if complex_.diffs.get(n - 1) is None:
        image = frozenset({source.zero})
    else:
        prev = complex_.module_at(n - 1)
        image = frozenset(complex_.diff_apply(n - 1, y) for y in prev.elements)
    kernel_module = source.submodule(kernel, check=False)
    return kernel_module.quotient(image)


def support_of_cohomology(complex_: BoundedComplex, n: int) -> ThomasonSet:
    return rng.support(cohomology(complex_, n))


def is_acyclic(complex_: BoundedComplex) -> bool:
    lo, hi = complex_.min_degree, complex_.max_degree
    return all(cohomology(complex_, n).is_zero_module() for n in range(lo, hi + 1))


# -- derived Hom -------------------------------------------------------------


def derived_hom(
    perfect: BoundedComplex,
    target: BoundedComplex,
    i: int,
    factor: Optional[LocalFactor] = None,
) -> FiniteModule:
    """H^i of the total Hom complex Hom(P, Y), for P a complex of projectives.

    With ``factor`` given, P lives over the local factor ring and is viewed
    over Y's ring along the factor inclusion: Hom(R_m^a, N) = (e_m N)^a, with
    matrix entries of P acting through the factor's lift.
    """
    if not perfect.is_perfect():
        raise InvalidInputError("first argument must have free terms")
    if factor is None:
        if perfect.ring != target.ring:
            raise InvalidInputError("ring mismatch (pass a local factor to bridge)")
        entry_action = lambda module, s, x: module.smul(s, x)
        restrict = lambda module: module
    else:
        if perfect.ring != factor.ring:
            raise InvalidInputError("perfect complex must live over the factor ring")
        lift = factor.lift
        e = factor.idempotent
        entry_action = lambda module, s, x: module.smul(lift(s), x)

        def restrict(module):
            members = frozenset(module.smul(e, x) for x in module.elements)
            return module.submodule(members, check=False)

    ring = target.ring
    p_degs = [p for p in perfect.degrees() if perfect.rank(p) > 0]
    targets: dict[int, FiniteModule] = {}

    def hom_target(q: int) -> FiniteModule:
        if q not in targets:
            targets[q] = restrict(target.module_at(q))
        return targets[q]

    def components(k):
        return [(p, perfect.rank(p), hom_target(p + k)) for p in p_degs]

    def term_elements(k):
        comps = components(k)
        size = 1
        for _, a, n_mod in comps:
            size *= n_mod.order**a
        if size > ENUMERATION_LIMIT:
            raise InvalidInputError(f"Hom term of size {size} is too large to enumerate")
        spaces = [
            itertools.product(n_mod.elements, repeat=a) for _, a, n_mod in comps
        ]
        return itertools.product(*spaces)

    def zero_of(k):
        return tuple(tuple([n_mod.zero] * a) for _, a, n_mod in components(k))

    def apply_diff(k, f):
        comps_k = components(k)
        pos = {p: idx for idx, (p, _, _) in enumerate(comps_k)}
        out = []
        for p, a, n_next in components(k + 1):
            q = p + k
            images = [n_next.zero] * a
            # d_Y o f_p
            if p in pos:
                f_p = f[pos[p]]
                if target.diffs.get(q) is not None:
                    for j in range(a):
                        images[j] = target.diff_apply(q, f_p[j])
            # -(-1)^k f_{p+1} o d_P^p
            matrix = perfect.diffs.get(p)
            if matrix is not None and (p + 1) in pos:
                f_next = f[pos[p + 1]]
                sign = 1 if k % 2 == 0 else -1
                for j in range(a):
                    acc = n_next.zero
                    for irow, row in enumerate(matrix):
                        acc = n_next.add(acc, entry_action(n_next, row[j], f_next[irow]))
                    if sign == 1:
                        acc = n_next.neg(acc)
                    images[j] = n_next.add(images[j], acc)
            out.append(tuple(images))
        return tuple(out)

    zero_next = zero_of(i + 1)
    cycles = [f for f in term_elements(i) if apply_diff(i, f) == zero_next]
    boundaries = frozenset(apply_diff(i - 1, g) for g in term_elements(i - 1))

    comps_i = components(i)
    add = lambda f, g: tuple(
        tuple(n_mod.add(x, y) for x, y in zip(pf, pg))
        for pf, pg, (_, _, n_mod) in zip(f, g, comps_i)
    )
    smul = lambda r, f: tuple(
        tuple(n_mod.smul(r, x) for x in part) for part, (_, _, n_mod) in zip(f, comps_i)
    )
    cycle_module = FiniteModule(ring, cycles, add, smul, zero_of(i))
    return cycle_module.quotient(boundaries)


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
        if isinstance(term, FreeTerm):
            terms[n] = term
        else:
            members = frozenset(term.smul(lf.idempotent, x) for x in term.elements)
            part = term.submodule(members, check=False)
            terms[n] = mod.restrict_scalars(part, local, lf.lift)
    diffs = {
        n: tuple(tuple(lf.proj(e) for e in row) for row in matrix)
        for n, matrix in complex_.diffs.items()
    }
    return BoundedComplex(local, terms, diffs)


# -- JSON --------------------------------------------------------------------


def complex_from_json(ring: FiniteRing, data: Mapping) -> BoundedComplex:
    """{"terms": {"-1": {"free": 1}, "0": {"module": {...}}}, "differentials": {"-1": [[2]]}}"""
    json_object(data, "complex JSON")
    try:
        terms = {}
        for n, spec_ in json_object(data.get("terms", {}), "'terms'").items():
            if "free" in spec_:
                terms[int(n)] = FreeTerm(int(spec_["free"]))
            elif "module" in spec_:
                terms[int(n)] = rng.module_from_json(ring, spec_["module"])
            else:
                raise InvalidInputError(f"term at {n} must give 'free' or 'module'")
        diffs = {
            int(n): [[ring.element_from_json(e) for e in row] for row in matrix]
            for n, matrix in json_object(data.get("differentials", {}), "'differentials'").items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed complex JSON: {exc}") from exc
    return BoundedComplex(ring, terms, diffs)
