"""Concrete finite commutative rings with computable spectra.

Supported kinds: Z/n, F_p[x]/(f), finite direct products of these, and a
narrow symbolic adapter for Z (see :mod:`spectral_glue.integers`).  Every
finite kind decomposes as a product of local chain rings (Z/p^k or
F_p[x]/(pi^k)); the decomposition drives localization, injectives and module
isomorphism invariants.

Every finite kind is one :class:`FiniteRing`: its elements are the ints
``0 .. |R| - 1`` and add, neg and mul are lookups in tables the kind builds
once with its own arithmetic.  The kind fixes what an index means and
converts elements to and from their wire form: Z/n takes the residue itself
(wire form: an int), F_p[x]/(f) numbers coefficient tuples in
``itertools.product`` order (wire form: a coefficient list, constant term
first), and a product numbers component tuples in mixed radix, first factor
most significant (wire form: the list of component forms).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Callable, Mapping

from . import modules
from .errors import InvalidInputError, UnsupportedRingError, json_object
from .modules import FiniteModule
from .poset import SpectralPoset
from .thomason import ThomasonSet

# -- polynomial helpers over F_p (coefficient tuples, low degree first) ------


def pnorm(coeffs, p):
    cs = [c % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return pnorm(out, p)


def pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], -1, p)
    rem = list(pnorm(a, p))
    quot = [0] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = rem[-1] * inv_lead % p
        quot[shift] = factor
        for i, cb in enumerate(b):
            rem[shift + i] -= factor * cb
        rem = list(pnorm(rem, p))
    return pnorm(quot, p), tuple(rem)


def pmonic(a, p):
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return pnorm([c * inv for c in a], p)


def _pow_mod(a, k, f, p):
    """a^k mod f over F_p, by repeated squaring."""
    out = (1,)
    while k:
        if k & 1:
            out = pdivmod(pmul(out, a, p), f, p)[1]
        a = pdivmod(pmul(a, a, p), f, p)[1]
        k >>= 1
    return out


def monic_polys(p, degree):
    for tail in itertools.product(range(p), repeat=degree):
        yield pnorm(list(tail) + [1], p)


def poly_factor(f, p):
    """Factor a monic polynomial into monic irreducibles by trial division."""
    f = pmonic(f, p)
    factors: list = []
    stack = [f]
    while stack:
        g = stack.pop()
        if len(g) <= 2:  # constant or linear: irreducible (or unit)
            if len(g) == 2:
                factors.append(g)
            continue
        found = False
        for d in range(1, (len(g) - 1) // 2 + 1):
            for cand in monic_polys(p, d):
                q, r = pdivmod(g, cand, p)
                if not r:
                    stack.extend([cand, q])
                    found = True
                    break
            if found:
                break
        if not found:
            factors.append(g)
    factors.sort()
    return factors


def poly_str(coeffs) -> str:
    if not coeffs:
        return "0"
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            var = "x" if i == 1 else f"x^{i}"
            terms.append(var if c == 1 else f"{c}{var}")
    return "+".join(terms)


# -- integer helpers ---------------------------------------------------------


def factorint_trial(n: int) -> dict[int, int]:
    if n > 10**6:
        raise InvalidInputError("modulus too large for trial division (limit 10^6)")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# -- ring classes ------------------------------------------------------------

# entries of one |R| x |R| table, so only rings of order <= 1024 are tabulated;
# a spectrum needs no tables, so larger rings still have one
TABLE_LIMIT = 1 << 20


def _check_int(name: str, value):
    # bool is a subclass of int, but JSON true is not a number
    if type(value) is not int:
        raise InvalidInputError(f"{name!r} must be an integer, got {value!r}")


def _radix_vector(va, vb):
    """Unary table of A x B from those of A and B, in mixed radix with the
    first factor most significant: (a, b) has index a * |B| + b."""
    nb = len(vb)
    return [x * nb + y for x in va for y in vb]


def _radix_table(ta, tb):
    """Binary table of A x B from those of A and B, indexed as in
    :func:`_radix_vector`."""
    return [_radix_vector(ra, rb) for ra in ta for rb in tb]


@dataclass(frozen=True)
class LocalFactor:
    """One local chain-ring factor of a finite ring.

    ``prime_gen`` generates the prime ideal of the factor inside the global
    ring and ``idempotent`` projects onto the factor.  ``proj`` and ``lift``
    move elements between the global ring (of order ``global_order``) and the
    local ring (``lift`` lands in the factor component, zero elsewhere); they
    are index maps, tabulated from ``proj_of`` and ``lift_of`` on first use.
    """

    label: str
    prime_gen: int
    idempotent: int
    ring: "FiniteRing"
    global_order: int
    proj_of: Callable
    lift_of: Callable

    @cached_property
    def proj(self) -> Callable:
        return tuple(map(self.proj_of, range(self.global_order))).__getitem__

    @cached_property
    def lift(self) -> Callable:
        return tuple(map(self.lift_of, range(self.ring.order))).__getitem__


class FiniteRing:
    """A finite commutative ring on the elements ``0 .. order - 1``.

    ``add``, ``neg`` and ``mul`` look up tables that a kind builds once, on
    first use, with its own arithmetic (``_build_tables``).  A kind also sets
    ``order`` and ``one``, lists its local factors (``_factors``),
    converts elements to and from their JSON wire form, and names itself
    (``describe``, ``descriptor``, ``to_json``).
    """

    kind = "abstract"
    zero = 0

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def _tables(self):
        if self.order**2 > TABLE_LIMIT:
            raise InvalidInputError(
                f"{self.describe()} has {self.order} elements; ring tables are limited "
                f"to {TABLE_LIMIT} entries (order at most {math.isqrt(TABLE_LIMIT)})"
            )
        return self._build_tables()

    _add = cached_property(lambda self: self._tables[0])
    _neg = cached_property(lambda self: self._tables[1])
    _mul = cached_property(lambda self: self._tables[2])

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def local_factors(self) -> list[LocalFactor]:
        return self._factors

    def __eq__(self, other):
        return type(self) is type(other) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return self.describe()


class ZMod(FiniteRing):
    """Z/n; the element i is the residue of i."""

    kind = "zmod"

    def __init__(self, n: int):
        _check_int("n", n)
        if n < 2:
            raise InvalidInputError("modulus must be at least 2")
        self.n = self.order = n
        self.one = 1

    def _build_tables(self):
        n = self.n
        add = [[(a + b) % n for b in range(n)] for a in range(n)]
        neg = [(-a) % n for a in range(n)]
        mul = [[(a * b) % n for b in range(n)] for a in range(n)]
        return add, neg, mul

    @cached_property
    def _factors(self):
        out = []
        for p, k in sorted(factorint_trial(self.n).items()):
            q = p**k
            rest = self.n // q
            e = 1 if rest == 1 else rest * pow(rest, -1, q) % self.n
            out.append(
                LocalFactor(
                    label=f"({p})",
                    prime_gen=p % self.n,
                    idempotent=e,
                    ring=ZMod(q),
                    global_order=self.n,
                    proj_of=lambda x, q=q: x % q,
                    lift_of=lambda y, e=e: (y * e) % self.n,
                )
            )
        return out

    def element_from_json(self, value) -> int:
        _check_int("ring element", value)
        return value % self.n

    def element_to_json(self, x: int) -> int:
        return x

    def describe(self):
        return f"Z/{self.n}"

    def descriptor(self):
        return ("zmod", self.n)

    def to_json(self):
        return {"kind": "zmod", "n": self.n}


class PolyQuot(FiniteRing):
    """F_p[x]/(f) with f monic non-constant, deg f = d.

    The element i is the polynomial whose coefficient tuple, constant term
    first, is the i-th of ``itertools.product(range(p), repeat=d)``: the
    constant term is the most significant base-p digit of i.
    """

    kind = "poly_quot"

    def __init__(self, p: int, f):
        _check_int("p", p)
        if not isinstance(f, (list, tuple)) or any(type(c) is not int for c in f):
            raise InvalidInputError(f"'f' must be a list of integer coefficients, got {f!r}")
        # p > 7 is refused below, so divisors below 8 decide primality
        if p < 2 or any(p % d == 0 for d in range(2, min(p, 8))):
            raise InvalidInputError("p must be prime")
        f = pnorm(f, p)
        if len(f) < 2:
            raise InvalidInputError("f must be non-constant")
        if p > 7 or len(f) - 1 > 6:
            raise InvalidInputError("supported range is p <= 7 and deg f <= 6")
        self.p = p
        self.f = pmonic(f, p)
        self.deg = len(f) - 1
        self.order = p**self.deg
        self.one = p ** (self.deg - 1)

    def _coeffs(self, x: int) -> tuple:
        return pnorm([x // self.p ** (self.deg - 1 - i) % self.p for i in range(self.deg)], self.p)

    def _index(self, coeffs) -> int:
        """Index of a polynomial of degree below ``deg``."""
        return sum(c * self.p ** (self.deg - 1 - i) for i, c in enumerate(coeffs))

    def _reduce(self, coeffs) -> int:
        return self._index(pdivmod(coeffs, self.f, self.p)[1])

    def _build_tables(self):
        p, d = self.p, self.deg
        # the additive group is (Z/p)^d, one base-p digit per coefficient
        add = reduce(_radix_table, [[[(a + b) % p for b in range(p)] for a in range(p)]] * d)
        neg = reduce(_radix_vector, [[(-a) % p for a in range(p)]] * d)
        x_to_d = [(-c) % p for c in self.f[:d]]  # x^d mod f
        mul = []
        for a in itertools.product(range(p), repeat=d):
            # b -> a * b is additive: add up the images of b's digits b_i x^i,
            # taking a * x^(i+1) from a * x^i by one shift through x^d mod f
            row, ax = [0], list(a)
            for _ in range(d):
                images = [self._index([v * c % p for c in ax]) for v in range(p)]
                row = [add[r][m] for r in row for m in images]
                ax = [(lo + ax[-1] * t) % p for lo, t in zip([0] + ax[:-1], x_to_d)]
            mul.append(row)
        return add, neg, mul

    @cached_property
    def _factors(self):
        p = self.p
        irreducibles: dict[tuple, int] = {}
        for g in poly_factor(self.f, p):
            irreducibles[g] = irreducibles.get(g, 0) + 1
        out = []
        for pi in sorted(irreducibles):
            pik = pi
            for _ in range(irreducibles[pi] - 1):
                pik = pmul(pik, pi, p)
            local = PolyQuot(p, pik)
            # rest^|units of the factor| is 1 modulo pi^k and 0 modulo rest
            rest = pdivmod(self.f, pik, p)[0]
            units = local.order - local.order // p ** (len(pi) - 1)
            e = self._index(_pow_mod(rest, units, self.f, p))
            # a local polynomial has the lower degree: pad it with zero digits
            pad = p ** (self.deg - local.deg)
            out.append(
                LocalFactor(
                    label=f"({poly_str(pi)})",
                    prime_gen=self._reduce(pi),
                    idempotent=e,
                    ring=local,
                    global_order=self.order,
                    proj_of=lambda x, local=local: local._reduce(self._coeffs(x)),
                    lift_of=lambda y, e=e, pad=pad: self.mul(y * pad, e),
                )
            )
        return out

    def element_from_json(self, value) -> int:
        if not isinstance(value, list) or any(type(c) is not int for c in value):
            raise InvalidInputError(
                f"an element of {self.describe()} is a list of integer coefficients, got {value!r}"
            )
        return self._reduce(value)

    def element_to_json(self, x: int) -> list:
        return list(self._coeffs(x))

    def describe(self):
        return f"F_{self.p}[x]/({poly_str(self.f)})"

    def descriptor(self):
        return ("poly_quot", self.p, self.f)

    def to_json(self):
        return {"kind": "poly_quot", "p": self.p, "f": list(self.f)}


class ProductRing(FiniteRing):
    """R_0 x ... x R_k; the element of components (x_0, ..., x_k) has the
    mixed-radix index with x_0 most significant."""

    kind = "product"

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise InvalidInputError("product needs at least one factor")
        self.factors = factors
        # elements() rather than order: the integers adapter raises here
        sizes = [len(f.elements()) for f in factors]
        self.order = math.prod(sizes)
        self._weights = [math.prod(sizes[i + 1 :]) for i in range(len(sizes))]
        self.one = sum(f.one * w for f, w in zip(factors, self._weights))

    def _build_tables(self):
        tables = [f._tables for f in self.factors]
        add = reduce(_radix_table, [t[0] for t in tables])
        neg = reduce(_radix_vector, [t[1] for t in tables])
        mul = reduce(_radix_table, [t[2] for t in tables])
        return add, neg, mul

    @cached_property
    def _factors(self):
        out = []
        for i, (component, w) in enumerate(zip(self.factors, self._weights)):
            for lf in component.local_factors():
                out.append(
                    LocalFactor(
                        label=f"{i}:{lf.label}",
                        prime_gen=self.one + (lf.prime_gen - component.one) * w,
                        idempotent=lf.idempotent * w,
                        ring=lf.ring,
                        global_order=self.order,
                        proj_of=lambda x, w=w, n=component.order, lf=lf: lf.proj(x // w % n),
                        lift_of=lambda y, w=w, lf=lf: lf.lift(y) * w,
                    )
                )
        return out

    def element_from_json(self, value) -> int:
        if not isinstance(value, list) or len(value) != len(self.factors):
            raise InvalidInputError(
                f"an element of {self.describe()} is a list of {len(self.factors)} "
                f"components, got {value!r}"
            )
        return sum(
            f.element_from_json(v) * w for f, v, w in zip(self.factors, value, self._weights)
        )

    def element_to_json(self, x: int) -> list:
        return [f.element_to_json(x // w % f.order) for f, w in zip(self.factors, self._weights)]

    def describe(self):
        return " x ".join(f.describe() for f in self.factors)

    def descriptor(self):
        return ("product", tuple(f.descriptor() for f in self.factors))

    def to_json(self):
        return {"kind": "product", "factors": [f.to_json() for f in self.factors]}


class IntegerRing:
    """Z as a ring reference: the gluing over Z lives in :mod:`.integers`.

    Not a :class:`FiniteRing`: enumerating its elements or maximal ideals
    raises, so every operation on finite rings rejects it.
    """

    kind = "integers"

    def __init__(self):
        """The adapter carries no data."""

    def elements(self):
        raise UnsupportedRingError("cannot enumerate the integers")

    def local_factors(self):
        raise UnsupportedRingError("the integers have infinitely many maximal ideals")

    def element_from_json(self, value):
        raise UnsupportedRingError("elements of the integers adapter cannot be parsed")


def ring_from_json(data: Mapping):
    """A ring from its wire form; the kinds check every field's type, so a
    missing field reads as a field of the wrong type."""
    if not isinstance(data, Mapping):
        raise InvalidInputError(f"ring JSON must be an object with a 'kind', got {data!r}")
    kind = data.get("kind")
    if kind == "zmod":
        return ZMod(data.get("n"))
    if kind == "poly_quot":
        return PolyQuot(data.get("p"), data.get("f"))
    if kind == "product":
        factors = data.get("factors")
        if not isinstance(factors, list):
            raise InvalidInputError(f"'factors' must be a list of rings, got {factors!r}")
        return ProductRing([ring_from_json(f) for f in factors])
    if kind == "integers":
        return IntegerRing()
    raise InvalidInputError(f"unsupported ring kind {kind!r}")


# -- ideals ------------------------------------------------------------------


@dataclass(frozen=True)
class Ideal:
    ring: FiniteRing
    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise InvalidInputError("ideal needs at least one generator (use [0])")
        object.__setattr__(self, "generators", tuple(self.generators))

    @cached_property
    def members(self) -> frozenset:
        if len(self.generators) == 1:
            return principal_members(self.ring, self.generators[0])
        free = modules.free_module(self.ring, 1)
        return frozenset(v[0] for v in free.span([(g,) for g in self.generators]))

    def __contains__(self, x) -> bool:
        return x in self.members


@lru_cache(maxsize=None)
def principal_members(ring: FiniteRing, g) -> frozenset:
    """The principal ideal (g) = {rg | r in R}, cached per ring and generator."""
    return frozenset(ring.mul(g, r) for r in ring.elements())


# -- spectra, localization, modules over rings --------------------------------


@lru_cache(maxsize=None)
def spec(ring: FiniteRing) -> tuple[SpectralPoset, dict[str, Ideal]]:
    """Spectrum as an antichain poset plus the label -> prime ideal map."""
    labeling = {lf.label: Ideal(ring, (lf.prime_gen,)) for lf in ring.local_factors()}
    return SpectralPoset(labeling.keys()), labeling


def v_of_ideal(ring: FiniteRing, ideal: Ideal) -> ThomasonSet:
    """Primes containing every generator of the ideal."""
    if ideal.ring != ring:
        raise InvalidInputError("ideal belongs to a different ring")
    poset, labeling = spec(ring)
    members = [
        label
        for label, prime in labeling.items()
        if all(g in prime.members for g in ideal.generators)
    ]
    return ThomasonSet.from_members(poset, members)


def localize_ring(ring: FiniteRing, label: str):
    """Local factor at a maximal prime, with the projection map."""
    lf = local_factor(ring, label)
    return lf.ring, lf.proj


def local_factor(ring: FiniteRing, label: str) -> LocalFactor:
    for lf in ring.local_factors():
        if lf.label == label:
            return lf
    raise InvalidInputError(f"unknown maximal prime {label!r} of {ring}")


def annihilator(module: FiniteModule) -> Ideal:
    """Ann(M) as a principal ideal (all ideals of the supported rings are)."""
    ring = module.ring
    ann = module.annihilator_elements
    for g in sorted(ann):
        if Ideal(ring, (g,)).members == ann:
            return Ideal(ring, (g,))
    # products of chain rings have only principal ideals
    raise AssertionError("annihilator was not principal")


def support(module: FiniteModule) -> ThomasonSet:
    """Supp(M) = V(Ann M) for finitely generated M."""
    return v_of_ideal(module.ring, annihilator(module))


def residue_field(ring: FiniteRing, label: str) -> FiniteModule:
    """kappa(p) = R/p, presented over R (all primes are maximal here)."""
    _, labeling = spec(ring)
    if label not in labeling:
        raise InvalidInputError(f"unknown prime {label!r} of {ring}")
    free = modules.free_module(ring, 1)
    return free.quotient(frozenset((m,) for m in labeling[label].members))


def indecomposable_injectives(ring: FiniteRing) -> list[FiniteModule]:
    """One injective envelope E(R/m) per maximal ideal, in label order.

    The supported rings are quasi-Frobenius products of chain rings, so the
    envelope at m is the corresponding local factor e_m R.
    """
    out = []
    free = modules.free_module(ring, 1)
    for lf in sorted(ring.local_factors(), key=lambda f: f.label):
        members = frozenset((ring.mul(lf.idempotent, x),) for x in ring.elements())
        out.append(free.submodule(members, check=False))
    return out


def all_ideals(ring: FiniteRing) -> list[Ideal]:
    """All ideals, one principal representative each, deterministically ordered."""
    seen: dict[frozenset, Ideal] = {}
    for g in ring.elements():
        ideal = Ideal(ring, (g,))
        if ideal.members not in seen:
            seen[ideal.members] = ideal
    return sorted(seen.values(), key=lambda i: sorted(i.members))


def module_from_json(ring: FiniteRing, data: Mapping) -> FiniteModule:
    """Module JSON: {"relations": [[...]], "rank": r} (rank optional with relations)."""
    json_object(data, "module JSON")
    try:
        relations = [tuple(ring.element_from_json(c) for c in row) for row in data.get("relations", [])]
        rank = data.get("rank", len(relations[0]) if relations else 1)
    except (KeyError, TypeError, IndexError) as exc:
        raise InvalidInputError(f"malformed module JSON: {exc}") from exc
    if type(rank) is not int:
        raise InvalidInputError(f"module 'rank' must be an integer, got {rank!r}")
    return modules.cokernel_of_rank(ring, rank, relations)
