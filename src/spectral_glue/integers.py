"""Spec(Z) as a finite star poset, and the wire forms of Z data.

Z has infinitely many maximal ideals, but Z data names only finitely many
primes S.  On S, Spec(Z) is the finite spectral poset :func:`z_poset`: the
generic point (0) below each (p) for p in S, and one more maximal point (m)
that stands for every maximal ideal S leaves out.  Its localizations are the
2-chains (0) < (p) and (0) < (m), so Z filtrations, families, compatibility
and gluing are those of :mod:`spectral_glue.gluing` on that poset.

What this module keeps is the wire.  A Z filtration's level is "full" or a
list of integer primes, written in numeric order.  A family is a default on
(0) < (m) plus exceptions keyed by decimal primes, each on (0) < (p); their
levels are read and written by the label codec at that point, as in
:mod:`spectral_glue.gluing`, so they name points by label: "full", ``[]``,
``["(m)"]`` in the default and ``["(p)"]`` in the exception at p.  A witness
is ``[p, "default", "(0)"]``.  Primality is trial division, so every named
integer is bounded by MAX_Z_PRIME before any division.  A filtration's
levels are masks on the star poset of the integers they name.  A star is
built straight from its primes, with no closure of an order, and with it
its prime table: the bit of each prime and the prime of each point.  So a
level is read by looking up the bit of each prime, and written by walking
the set bits of its mask to their primes.  What a process keeps: the
primality of each integer, tested once (a cache of the last 4,096
integers); the star of each set of named integers, found once (a cache of
the last 4,096 sets); and each star with its prime table, built once.
A glued level that holds (m) without being full is a cofinite set of maximal
ideals, which no level can write, so gluing raises UnsupportedRingError.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import cache, lru_cache

from .errors import IncompatibleFamilyError, InvalidInputError, UnsupportedRingError, json_object
from .gluing import LocalFamily, family_to_json, glue_filtrations, localize_filtrations
from .poset import SpectralPoset
from .thomason import ThomasonFiltration, filtration_from_json, filtration_to_json, ones

GENERIC = "(0)"
CLOSED_POINT = "(m)"  # every maximal ideal that the data does not name
# the trial-division limit, as rings.MAX_MODULUS sets for moduli
MAX_Z_PRIME = 10**6


@lru_cache(maxsize=4096)
def is_prime_int(p: int) -> bool:
    """Trial division, made once per integer per process (a cache of the
    last 4,096 integers)."""
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def _bounded(p: int) -> int:
    if p > MAX_Z_PRIME:
        raise InvalidInputError(f"Z prime {p} is over the bound MAX_Z_PRIME = {MAX_Z_PRIME}")
    return p


def _prime(p: int) -> int:
    if not is_prime_int(_bounded(p)):
        raise InvalidInputError(f"{p} is not a prime number")
    return p


class _Star(SpectralPoset):
    """The star poset of distinct primes, (0) below every (p) and (m), built
    straight from them, with its prime table: ``bits[p]`` is the bit of the
    point (p), and ``primes[i]`` the prime of point i below (m), 0 at (0)."""

    def __init__(self, primes: Iterable[int]):
        # the points are numbered in label order, and "(11)" sorts before "(2)"
        order = sorted(primes, key=str)
        labels = (GENERIC, *[f"({p})" for p in order], CLOSED_POINT)
        points = range(1, len(labels))
        up = (1 << len(labels)) - 1, *[1 << i for i in points]
        down = 1, *[1 | 1 << i for i in points]
        self._order(labels, {label: i for i, label in enumerate(labels)}, up, down)
        self.primes = (0, *order)
        self.bits = {p: 2 << i for i, p in enumerate(order)}


@cache
def _star_on(primes: tuple[int, ...]) -> _Star:
    """The star of these sorted primes with its prime table, each built once
    per process."""
    return _Star(primes)


def z_poset(primes: Iterable[int]) -> SpectralPoset:
    """{(0)} ∪ {(p) : p in primes} ∪ {(m)}, with (0) below every other point."""
    return _star_on(tuple(sorted(map(_prime, set(primes)))))


def z_primes(poset: SpectralPoset) -> list[int]:
    """The primes that a :func:`z_poset` names, in numeric order."""
    return sorted(poset.primes[1:])


def _named_ints(data) -> set[int]:
    """The integers that the levels of filtration JSON name; whatever is
    malformed is left for :func:`filtration_from_json` to report."""
    levels = []
    # a JSON object is a dict; the Mapping check is the slow path
    if type(data) is dict or isinstance(data, Mapping):
        levels = [data.get("low_tail"), data.get("high_tail")]
        breakpoints = data.get("breakpoints")
        if isinstance(breakpoints, list):
            levels += [
                bp.get("set") for bp in breakpoints if type(bp) is dict or isinstance(bp, Mapping)
            ]
    return {p for level in levels if isinstance(level, list) for p in level if type(p) is int}


def _z_set_from_json(star: _Star, data) -> int:
    """The mask of a level on the :func:`z_poset` of the primes that the
    whole filtration names, read through its prime table."""
    if data == "full":
        return star.full
    # bool is a subclass of int, but JSON true is not a prime
    if not isinstance(data, (list, tuple)) or not {int}.issuperset(map(type, data)):
        raise InvalidInputError(f"a Z level is 'full' or a list of integer primes, got {data!r}")
    bits, mask = star.bits, 0
    for p in frozenset(data):
        bit = bits.get(p)  # 0 and every integer that is not a prime have none
        if bit is None:
            raise InvalidInputError(f"{p} is not a prime number")
        mask |= bit
    return mask


def _z_set_to_json(star: _Star, mask: int):
    """A level on the wire: 'full', or the primes of a level that holds no
    (m), in numeric order."""
    if mask == star.full:
        return "full"
    primes, named = star.primes, []
    while mask:  # one step per set bit
        bit = mask & -mask
        named.append(primes[bit.bit_length() - 1])
        mask ^= bit
    return sorted(named)


@lru_cache(maxsize=4096)
def _star_of(named: tuple[int, ...]) -> _Star:
    """The :func:`z_poset` of the primes among ``named``, sorted integers at
    most MAX_Z_PRIME: each set of named integers is tested once per process.
    The key is a sorted tuple, which takes less memory than a frozenset."""
    return _star_on(tuple([p for p in named if is_prime_int(p)]))


def z_filtration_from_json(data: Mapping) -> ThomasonFiltration:
    """A Z filtration, on the :func:`z_poset` of the primes its levels name."""
    named = _named_ints(data)
    for p in named:
        _bounded(p)
    poset = _star_of(tuple(sorted(named)))
    return filtration_from_json(poset, data, _z_set_from_json, _z_set_to_json)


def z_filtration_to_json(filtration: ThomasonFiltration) -> dict:
    """The wire form of a Z filtration whose levels are full or hold no (m)."""
    return filtration_to_json(filtration, _z_set_to_json)


def z_family_from_json(data: Mapping) -> LocalFamily:
    """Read ``{"default": ..., "exceptions": {"p": ...}}`` onto the
    :func:`z_poset` of the exception primes: the default is the filtration at
    (m), on (0) < (m), and each exception the one at (p), on (0) < (p)."""
    exceptions = json_object(data.get("exceptions", {}), "'exceptions'")
    for p in exceptions:
        if not str(p).isdecimal():
            raise InvalidInputError(f"Z family exception key {p!r} must be a decimal prime")
        # int() refuses more than 4300 digits, so the bound is read off the length first
        if len(p.lstrip("0")) > len(str(MAX_Z_PRIME)):
            raise InvalidInputError(
                f"Z family exception key {p[:12]!r}... ({len(p)} digits) is over the bound "
                f"MAX_Z_PRIME = {MAX_Z_PRIME}"
            )
    if "default" not in data:
        raise InvalidInputError("Z family JSON needs the field 'default'")
    primes = {p: int(p.lstrip("0") or "0") for p in exceptions}
    key_of = {}
    for key, p in primes.items():
        if key_of.setdefault(p, key) != key:
            raise InvalidInputError(
                f"Z family exception keys {key_of[p]!r} and {key!r} name the same prime {p}"
            )
    poset = z_poset(primes.values())
    wire = {CLOSED_POINT: data["default"], **{f"({primes[p]})": f for p, f in exceptions.items()}}
    return LocalFamily.from_members(poset, wire)


def z_family_to_json(family: LocalFamily) -> dict:
    """The wire form of a Z family, as :func:`z_family_from_json` reads it."""
    local = family_to_json(family)
    return {
        "default": local[CLOSED_POINT],
        "exceptions": {str(p): local[f"({p})"] for p in z_primes(family.global_poset)},
    }


def localize_z_filtration(filtration: ThomasonFiltration) -> LocalFamily:
    """The restrictions of a Z filtration to (0) < (p) and (0) < (m)."""
    return localize_filtrations(filtration)


def z_witness(family: LocalFamily, n: int):
    """``(p, "default", "(0)")`` for the smallest prime p whose set at degree
    n disagrees with the default on (0); None where the family is compatible.

    On a star poset two local sets share only (0), so a Z family is
    compatible at n exactly when no exception disagrees with the default."""
    poset = family.global_poset
    # past its degrees a family reads its first or last level
    shift = min(max(n - family.start, 0), family.length - 1) * len(poset.elements)
    generic = poset.index[GENERIC]
    holds = {
        poset.elements[m]: column >> shift + generic & 1
        for m, column in zip(poset.maxima, family.member_runs())
    }
    p = next((p for p in z_primes(poset) if holds[f"({p})"] != holds[CLOSED_POINT]), None)
    return None if p is None else (p, "default", GENERIC)


def glue_z_filtrations(family: LocalFamily) -> ThomasonFiltration:
    """The glued Z filtration; raises with the witness of :func:`z_witness`
    when incompatible, and UnsupportedRingError when a level is cofinite."""
    try:
        glued = glue_filtrations(family)
    except IncompatibleFamilyError as exc:
        witness = z_witness(family, exc.degree)
        raise IncompatibleFamilyError(
            f"family disagrees on the generic point at degree {exc.degree} "
            f"(exception at {witness[0]})",
            degree=exc.degree,
            witness=witness,
        ) from None
    poset, length = glued.poset, glued.length
    # the levels that hold (m) are the first ones, as the levels decrease, so
    # one is cofinite exactly when the last of them is not full
    run = ones(len(poset.elements), length)  # bit 0 of every level
    holds = (glued.packed >> poset.index[CLOSED_POINT] & run).bit_count()
    if holds and glued.mask_at(glued.start + holds - 1) != poset.full:
        raise UnsupportedRingError(
            "default populates the closed point at infinitely many primes; "
            "the glued set would be infinite and not representable"
        )
    return glued
