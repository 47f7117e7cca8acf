"""The packed localize, glue and agreement test against the tuple code that
they replaced, kept here as the oracle only.

In the oracle a filtration is (start, masks), its run of level masks; a row
of local sets is a tuple of masks, X(m) for m in ``poset.maxima``; and a
family is (start, rows), its run of rows.  The oracle's kernels are the
tuple ones, copied with their checks and messages, and the conversions from
the packed ints are plain shifts, shared with no package code.  Over every
catalog poset of at most 4 points on [-2, 2], every set row of the posets
of at most 5 points, every family of local filtrations of the posets of at
most 4 points on [-1, 1] (compatible or not), and the 2,000 seed-7 Z
filtrations with their families, the package and the oracle give the same
glued filtrations and sets, the same members at every degree, and the same
IncompatibleFamilyError degree, witness and message.
"""

import importlib.util
from pathlib import Path

from spectral_glue import IncompatibleFamilyError, LocalFamily, catalog, gluing, integers

from conftest import all_filtration_families, member_json

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
)
_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)


# -- the oracle: the tuple kernels ---------------------------------------------


def _trim(start, masks):
    low, high = masks[0], masks[-1]
    if low == high:
        return -1, (low, high)
    i = 1
    while masks[i] == low:
        i += 1
    j = len(masks) - 2
    while masks[j] == high:
        j -= 1
    return start + i - 1, tuple(masks[i - 1 : j + 2])


def _agree(poset, row):
    glued = 0
    for x in row:
        glued |= x
    for below, x in zip(poset.maximal_downs, row):
        if x != glued & below:
            return False, glued
    return True, glued


def _incompatible(poset, row, degree=None):
    down, stars = poset.down, list(zip(poset.maxima, row))
    for k, (m, x) in enumerate(stars):
        for m2, x2 in stars[k + 1 :]:
            disagree = (x & down[m2]) ^ (x2 & down[m])
            if disagree:
                witness = (poset.elements[m], poset.elements[m2], poset.labels(disagree)[0])
                message = "family disagrees on shared prime {2!r} between {0!r} and {1!r}"
                message = message.format(*witness)
                if degree is not None:
                    message = f"family incompatible at degree {degree}: {message}"
                return IncompatibleFamilyError(message, degree=degree, witness=witness)
    raise AssertionError("a row that disagrees has a pair that differs")


def _is_up_set(poset, mask):
    up, rest = poset.up, mask
    while rest:
        bit = rest & -rest
        if up[bit.bit_length() - 1] & ~mask:
            return False
        rest ^= bit
    return True


def _glued_mask(poset, glued):
    assert _is_up_set(poset, glued), "glued set of a compatible family must be Thomason"
    return glued


def oracle_glue_sets(poset, row):
    agrees, glued = _agree(poset, row)
    if not agrees:
        raise _incompatible(poset, row)
    return _glued_mask(poset, glued)


def oracle_localize_sets(poset, mask):
    return tuple(mask & below for below in poset.maximal_downs)


def oracle_glue_filtrations(poset, start, rows):
    levels = []
    for n, row in zip(range(start, start + len(rows)), rows):
        agrees, glued = _agree(poset, row)
        if not agrees:
            raise _incompatible(poset, row, n)
        levels.append(_glued_mask(poset, glued))
    return _trim(start, levels)


def oracle_localize_filtrations(poset, start, masks):
    downs = poset.maximal_downs
    return start, tuple([tuple([x & below for below in downs]) for x in masks])


def oracle_check_lemma_equiv(poset, row):
    agrees, glued = _agree(poset, row)
    left_out = 0
    for below, x in zip(poset.maximal_downs, row):
        left_out |= below & ~x
    x_prime = 0
    for up in poset.up:
        if not up & left_out:
            x_prime |= up
    return agrees == (glued == x_prime)


# -- packed ints read by shifts --------------------------------------------------


def filtration_tuple(filt):
    """(start, masks): level k of the run at bits [k·n, (k+1)·n)."""
    n, full = len(filt.poset), filt.poset.full
    return filt.start, tuple(filt.packed >> k * n & full for k in range(filt.length))


def row_tuple(poset, row):
    """X(m_j) at bits [j·n, (j+1)·n)."""
    n = len(poset)
    return tuple(row >> j * n & poset.full for j in range(len(poset.maxima)))


def family_tuple(family):
    """(start, rows): level k of member j at bits [(j·L + k)·n, ...)."""
    poset, length = family.global_poset, family.length
    n, members = len(poset), len(poset.maxima)
    rows = tuple(
        tuple(family.packed >> (j * length + k) * n & poset.full for j in range(members))
        for k in range(length)
    )
    return family.start, rows


def _outcome(glue, *args):
    """The value of ``glue``, or the degree, witness and message it raised."""
    try:
        return glue(*args)
    except IncompatibleFamilyError as exc:
        return {"degree": exc.degree, "witness": exc.witness, "message": str(exc)}


def _same_glue(family):
    """Packed and tuple gluing of one family agree, value or error; returns
    whether it glued."""
    poset = family.global_poset
    expected = _outcome(oracle_glue_filtrations, poset, *family_tuple(family))
    got = _outcome(lambda: filtration_tuple(gluing.glue_filtrations(family)))
    assert got == expected, family
    return not isinstance(expected, dict)


# -- the differential tests ------------------------------------------------------


def _z_filtrations():
    data = _workloads.random_z_filtrations(7, 2_000)
    return [integers.z_filtration_from_json(d) for d in data]


def test_localize_and_glue_back_match_the_tuple_code():
    """Every filtration of the catalog posets of at most 4 points on [-2, 2]
    and the 2,000 seed-7 Z filtrations: equal members at every degree, and
    equal filtrations glued back."""
    filtrations = [f for p in catalog.poset_catalog(4) for f in catalog.all_filtrations(p, -2, 2)]
    filtrations += _z_filtrations()
    for filt in filtrations:
        family = gluing.localize_filtrations(filt)
        expected = oracle_localize_filtrations(filt.poset, *filtration_tuple(filt))
        assert family_tuple(family) == expected
        assert _same_glue(family)
        assert filtration_tuple(gluing.glue_filtrations(family)) == filtration_tuple(filt)
    assert len(filtrations) == 7_364 + 2_000


def test_listed_families_glue_and_localize_as_the_tuple_code():
    """Every compatible family that the catalog lists on the posets of at
    most 4 points on [-2, 2] glues as the tuple code glues it, and the glued
    filtration localizes to its rows."""
    families = 0
    for poset in catalog.poset_catalog(4):
        for family in catalog.compatible_filtration_families(poset, -2, 2):
            assert _same_glue(family)
            glued = gluing.glue_filtrations(family)
            back = oracle_localize_filtrations(poset, *filtration_tuple(glued))
            assert back == family_tuple(family)
            families += 1
    assert families == 7_364


def test_incompatible_families_raise_as_the_tuple_code():
    """Every family of local filtrations of the posets of at most 4 points
    on [-1, 1], compatible or not, and each seed-7 Z filtration's family
    with the member at its first prime made constant and full: the same
    glued filtration, or the same least degree, witness and message."""
    outcomes = {True: 0, False: 0}
    for poset in catalog.poset_catalog(4):
        for members in all_filtration_families(poset, -1, 1):
            family = LocalFamily.from_members(poset, member_json(members))
            outcomes[_same_glue(family)] += 1
    full = {"low_tail": "full", "breakpoints": [], "high_tail": "full"}
    for filt in _z_filtrations():
        primes = integers.z_primes(filt.poset)
        exceptions = {f"({primes[0]})": full} if primes else {}
        outcomes[_same_glue(LocalFamily.from_default(filt.poset, filt, exceptions))] += 1
    assert sum(outcomes.values()) == 4_500 + 2_000
    assert outcomes[True] and outcomes[False]


def test_set_rows_glue_localize_and_compare_as_the_tuple_code():
    """Every set row, compatible or not, of the posets of at most 5 points:
    the same glued set or error, the same lemma-equiv verdict, and every
    Thomason set localized to the same row."""
    rows = incompatible = 0
    for poset in catalog.poset_catalog(5):
        for row in catalog.all_set_rows(poset):
            members = row_tuple(poset, row)
            expected = _outcome(oracle_glue_sets, poset, members)
            assert _outcome(lambda: gluing.glue_sets(poset, row).mask) == expected
            assert gluing.check_lemma_equiv(poset, row) == oracle_check_lemma_equiv(poset, members)
            rows += 1
            incompatible += isinstance(expected, dict)
        for s in catalog.all_thomason_sets(poset):
            assert row_tuple(poset, gluing.localize_sets(s)) == oracle_localize_sets(poset, s.mask)
    assert rows == 1_958
    assert 0 < incompatible < rows
