"""Narrow symbolic layer for gluing over Z.

Z has infinitely many maximal ideals, so local families are stored as a
default pattern plus finitely many exceptions.  The only Thomason subsets of
Spec(Z) we represent are "full" and finite sets of maximal primes; a default
whose closed point is populated would glue to an infinite, non-full set and is
rejected loudly.  Everything outside this scope raises UnsupportedRingError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .errors import IncompatibleFamilyError, InvalidInputError, UnsupportedRingError, json_object
from .poset import SpectralPoset
from .thomason import (
    ThomasonFiltration,
    ThomasonSet,
    filtration_from_json,
    filtration_to_json,
    make_filtration,
)

GENERIC = "(0)"
CLOSED_POINT = "(m)"  # placeholder label for "the maximal ideal" in default patterns


def is_prime_int(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def primes_upto(bound: int) -> list[int]:
    return [p for p in range(2, bound + 1) if is_prime_int(p)]


@lru_cache(maxsize=None)
def chain_poset(p: int) -> SpectralPoset:
    """Spec(Z_(p)) as the 2-chain (0) < (p)."""
    if not is_prime_int(p):
        raise InvalidInputError(f"{p} is not a prime number")
    return SpectralPoset([GENERIC, f"({p})"], [(GENERIC, f"({p})")])


@lru_cache(maxsize=None)
def template_poset() -> SpectralPoset:
    """The generic 2-chain pattern used for default filtrations."""
    return SpectralPoset([GENERIC, CLOSED_POINT], [(GENERIC, CLOSED_POINT)])


@dataclass(frozen=True)
class ZThomason:
    """A Thomason subset of Spec(Z): full, or a finite set of maximal primes.

    A level of a :class:`ThomasonFiltration` whose ``poset`` is None.
    """

    full: bool
    primes: frozenset[int] = frozenset()
    poset = None

    def __post_init__(self):
        if self.full and self.primes:
            raise InvalidInputError("a full set carries no explicit primes")
        for p in self.primes:
            if not is_prime_int(p):
                raise InvalidInputError(f"{p} is not a prime number")

    def restrict(self, p: int) -> ThomasonSet:
        poset = chain_poset(p)
        if self.full:
            return ThomasonSet.full(poset)
        return ThomasonSet.from_members(poset, {f"({p})"} if p in self.primes else set())

    def __le__(self, other: "ZThomason") -> bool:
        if other.full:
            return True
        if self.full:
            return False
        return self.primes <= other.primes

    def is_full(self) -> bool:
        return self.full

    def sorted_members(self) -> list[int]:
        return sorted(self.primes)

    def __repr__(self):
        return "ZThomason(full)" if self.full else f"ZThomason({sorted(self.primes)})"


def z_v_of_ideal(generators) -> ZThomason:
    """V(I) for a finitely generated (hence principal up to gcd) ideal of Z."""
    import math

    g = 0
    for x in generators:
        g = math.gcd(g, int(x))
    if g == 0:
        return ZThomason(full=True)
    if g == 1:
        return ZThomason(full=False)
    return ZThomason(full=False, primes=frozenset(p for p in primes_upto(g) if g % p == 0))


@dataclass(frozen=True)
class ZLocalFamily:
    """default pattern on the template 2-chain + finitely many exceptions.

    The default is applied at every maximal ideal not listed in ``exceptions``;
    exception filtrations live on the actual 2-chain at their prime.
    """

    default: ThomasonFiltration
    exceptions: Mapping[int, ThomasonFiltration]

    def __post_init__(self):
        if self.default.poset != template_poset():
            raise InvalidInputError("default filtration must live on the template 2-chain")
        for p, filt in self.exceptions.items():
            if filt.poset != chain_poset(p):
                raise InvalidInputError(f"exception at {p} lives on the wrong poset")
        object.__setattr__(self, "exceptions", dict(self.exceptions))

    def window(self) -> tuple[int, int]:
        windows = [f.window() for f in (self.default, *self.exceptions.values())]
        return (min(w[0] for w in windows), max(w[1] for w in windows))


def _generic_profile(filt, n: int) -> bool:
    return GENERIC in filt.at(n)


def check_z_dagger(family: ZLocalFamily, n: int):
    """Over Z the only shared prime between distinct localizations is (0),
    so the gluing condition reduces to agreement on generic-point membership."""
    default_has = _generic_profile(family.default, n)
    for p in sorted(family.exceptions):
        if _generic_profile(family.exceptions[p], n) != default_has:
            return (p, "default", GENERIC)
    # exception/exception disagreement is subsumed by comparison with default
    return None


def glue_z_sets(family: ZLocalFamily, n: int) -> ZThomason:
    witness = check_z_dagger(family, n)
    if witness is not None:
        raise IncompatibleFamilyError(
            f"family disagrees on the generic point at degree {n} "
            f"(exception at {witness[0]})",
            degree=n,
            witness=witness,
        )
    if _generic_profile(family.default, n):
        # every local set is the full 2-chain (up-set containing the bottom)
        return ZThomason(full=True)
    if CLOSED_POINT in family.default.at(n):
        raise UnsupportedRingError(
            "default populates the closed point at infinitely many primes; "
            "the glued set would be infinite and not representable"
        )
    primes = set()
    for p, filt in family.exceptions.items():
        level = filt.at(n)
        if GENERIC in level:
            raise IncompatibleFamilyError(
                f"exception at {p} contains the generic point while the default does not",
                degree=n,
                witness=(p, "default", GENERIC),
            )
        if f"({p})" in level:
            primes.add(p)
    return ZThomason(full=False, primes=frozenset(primes))


def glue_z_filtrations(family: ZLocalFamily) -> ThomasonFiltration:
    lo, hi = family.window()
    low = glue_z_sets_tail(family, low=True)
    high = glue_z_sets_tail(family, low=False)
    # lo - 1 is included so pure-step families keep their step position
    return make_filtration(
        None, low, [(n, glue_z_sets(family, n)) for n in range(lo - 1, hi + 1)], high
    )


def glue_z_sets_tail(family: ZLocalFamily, low: bool) -> ZThomason:
    lo, hi = family.window()
    n = (lo - 1) if low else (hi + 1)
    return glue_z_sets(family, n)


def localize_z_filtration(filtration: ThomasonFiltration) -> ZLocalFamily:
    """Restrict a global Z filtration to every localization.

    The restriction at almost every prime is the same pattern (full where the
    level is full, the generic point never isolated, the closed point only at
    the finitely many primes listed in a level); those finitely many primes
    become the exceptions.
    """
    mentioned = set()
    lo, hi = filtration.window()
    lo -= 1  # keep the step position of pure-step filtrations
    for n in range(lo, hi + 1):
        mentioned |= filtration.at(n).primes
    mentioned |= filtration.low_tail.primes | filtration.high_tail.primes

    def template_set(z: ZThomason) -> ThomasonSet:
        poset = template_poset()
        return ThomasonSet.full(poset) if z.full else ThomasonSet.empty(poset)

    default = make_filtration(
        template_poset(),
        template_set(filtration.low_tail),
        [(n, template_set(filtration.at(n))) for n in range(lo, hi + 1)],
        template_set(filtration.high_tail),
    )
    exceptions = {}
    for p in sorted(mentioned):
        exceptions[p] = make_filtration(
            chain_poset(p),
            filtration.low_tail.restrict(p),
            [(n, filtration.at(n).restrict(p)) for n in range(lo, hi + 1)],
            filtration.high_tail.restrict(p),
        )
    return ZLocalFamily(default, exceptions)


def _z_set_from_json(_poset, data) -> ZThomason:
    if data == "full":
        return ZThomason(full=True)
    # bool is a subclass of int, but JSON true is not a prime
    if not isinstance(data, (list, tuple)) or any(type(p) is not int for p in data):
        raise InvalidInputError(f"a Z level is 'full' or a list of integer primes, got {data!r}")
    return ZThomason(full=False, primes=frozenset(data))


def z_filtration_from_json(data: Mapping) -> ThomasonFiltration:
    return filtration_from_json(None, data, _z_set_from_json)


def z_filtration_to_json(filtration: ThomasonFiltration) -> dict:
    return filtration_to_json(filtration)


def z_family_from_json(data: Mapping) -> ZLocalFamily:
    exceptions = json_object(data.get("exceptions", {}), "'exceptions'")
    for p in exceptions:
        if not str(p).isdecimal():
            raise InvalidInputError(f"Z family exception key {p!r} must be a decimal prime")
    try:
        default = filtration_from_json(template_poset(), data["default"])
        exceptions = {
            int(p): filtration_from_json(chain_poset(int(p)), filt)
            for p, filt in exceptions.items()
        }
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed Z family JSON: {exc}") from exc
    return ZLocalFamily(default, exceptions)
