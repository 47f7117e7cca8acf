"""The levels normaliser against the validating construction it replaced.

The references below restrict, localize and glue filtrations the way the
package did before :func:`from_levels`: each maps the levels over the window
with one extra degree below it, then rebuilds the result through a
validating constructor with its own trim loop.  The tests compare the
package with them on every filtration and family of the poset catalog up to
4 points, every filtration of Spec R over the local-global rings, and
seeded Z filtrations.  Gluing differs from its reference in one way only:
it visits no degree that only a constant member places, so a family whose
low tails disagree reports the first of its own degrees (see
:func:`expected_glue`).
"""

import importlib.util
from dataclasses import dataclass
from pathlib import Path

import pytest

from spectral_glue import catalog, integers, rings as rng
from spectral_glue.errors import FiltrationOrderError, IncompatibleFamilyError
from spectral_glue.gluing import LocalFamily, glue_filtrations, glue_sets, localize_filtrations
from spectral_glue.poset import SpectralPoset, localization_poset
from spectral_glue.sweeps import _local_global_rings
from spectral_glue.thomason import (
    ThomasonFiltration,
    ThomasonSet,
    filtration_to_json,
    set_to_json,
)
from spectral_glue.tstructures import local_tstructures

from conftest import all_filtration_families, level_sets, set_row, window

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
)
_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)


@dataclass(frozen=True)
class FiveFieldFiltration:
    """The stored form that the level masks replaced: the two tails, the
    window's first degree and the window's sets, with every view read off
    those fields as the package read them."""

    poset: SpectralPoset
    low_tail: ThomasonSet
    lo: int
    values: tuple
    high_tail: ThomasonSet

    @property
    def hi(self):
        return self.lo + len(self.values) - 1

    def at(self, n):
        if n < self.lo:
            return self.low_tail
        if n > self.hi:
            return self.high_tail
        return self.values[n - self.lo]

    def levels(self):
        return self.lo - 1, (self.low_tail, *self.values, self.high_tail)

    def to_json(self, write_set=set_to_json):
        breakpoints = [{"n": self.lo + k, "set": write_set(v)} for k, v in enumerate(self.values)]
        if not breakpoints and self.low_tail != self.high_tail:
            breakpoints = [{"n": self.lo - 1, "set": write_set(self.low_tail)}]
        return {
            "low_tail": write_set(self.low_tail),
            "breakpoints": breakpoints,
            "high_tail": write_set(self.high_tail),
        }

    def __repr__(self):
        parts = [f"<{self.low_tail.sorted_members()}"]
        parts += [f"{self.lo + k}:{v.sorted_members()}" for k, v in enumerate(self.values)]
        parts.append(f">{self.high_tail.sorted_members()}")
        return "ThomasonFiltration(" + " / ".join(parts) + ")"


def reference_trim(poset, low_tail, breakpoints, high_tail):
    """Expand the breakpoints with gaps filled, check the order, then trim
    leading values equal to the low tail and trailing values equal to the
    high tail; a constant sits at lo = 0."""
    ns = [n for n, _ in breakpoints]
    assert ns == sorted(set(ns))
    if not ns and low_tail != high_tail:
        raise FiltrationOrderError("tails differ but no breakpoint locates the step")
    values = []
    lo = ns[0] if ns else 0
    prev = low_tail
    idx = dict(breakpoints)
    for n in range(lo, (ns[-1] + 1) if ns else lo):
        cur = idx.get(n, prev)
        if not cur <= prev:
            raise FiltrationOrderError(f"filtration not decreasing at degree {n}")
        values.append(cur)
        prev = cur
    if not high_tail <= prev:
        raise FiltrationOrderError("filtration not decreasing into the high tail")
    while values and values[0] == low_tail:
        values.pop(0)
        lo += 1
    while values and values[-1] == high_tail:
        values.pop()
    if not values and low_tail == high_tail:
        lo = 0
    return FiveFieldFiltration(poset, low_tail, lo, tuple(values), high_tail)


def reference_make_filtration(poset, low_tail, breakpoints, high_tail):
    """:func:`reference_trim`, in the stored form of the level masks: the
    window with one tail degree on each side."""
    ref = reference_trim(poset, low_tail, breakpoints, high_tail)
    _, levels = ref.levels()
    return ThomasonFiltration(poset, ref.lo - 1, tuple(s.mask for s in levels))


def reference_restrict_filtration(filtration, m):
    """Restrict every level of the run to the labels below m, each but the
    high tail as a breakpoint at its degree, and rebuild the result."""
    poset, start = filtration.poset, filtration.start
    local = localization_poset(poset, m)
    below = set(local.elements)
    levels = [
        ThomasonSet.from_members(local, set(poset.labels(x)) & below) for x in filtration.masks
    ]
    return reference_make_filtration(
        local,
        levels[0],
        [(start + k, s) for k, s in enumerate(levels[:-1])],
        levels[-1],
    )


def reference_local_tstructure(ring, filtration, m):
    """(R_m, the filtration of Spec R_m) of a filtration of Spec R."""
    local_ring = rng.local_factor(ring, m).ring
    local_poset = rng.spec(local_ring)

    def restrict(s):
        return ThomasonSet.full(local_poset) if m in s else ThomasonSet.empty(local_poset)

    start, levels = level_sets(filtration)
    breakpoints = [(start + k, restrict(s)) for k, s in enumerate(levels[:-1])]
    local_filt = reference_make_filtration(
        local_poset, restrict(levels[0]), breakpoints, restrict(levels[-1])
    )
    return local_ring, local_filt


def reference_glue_filtrations(family):
    """Glue over the members' windows and one degree on each side; an
    incompatible family gives (degree, witness) of its first bad degree."""
    poset = family.global_poset
    lo = min(window(f)[0] for f in family.filtrations.values())
    hi = max(window(f)[1] for f in family.filtrations.values())
    glued = []
    for n in range(lo - 1, hi + 2):
        try:
            sets = {m: f.at(n) for m, f in family.filtrations.items()}
            glued.append((n, glue_sets(poset, set_row(poset, sets))))
        except IncompatibleFamilyError as exc:
            return (n, exc.witness)
    return reference_make_filtration(poset, glued[0][1], glued[:-1], glued[-1][1])


def expected_glue(family):
    """The reference's answer, with a bad degree below ``family.degrees``
    moved up to its first degree.  The reference also visits -1 and 0 for a
    constant member, but below the degrees every member reads its low tail,
    so the first degree has the same sets and the same witness."""
    expected = reference_glue_filtrations(family)
    if isinstance(expected, tuple):
        degree, witness = expected
        return (max(degree, family.degrees.start), witness)
    return expected


def glue_or_witness(family):
    try:
        return glue_filtrations(family)
    except IncompatibleFamilyError as exc:
        return (exc.degree, exc.witness)


def check_filtration(filt):
    """Restriction at every maximal point and glue(localize) agree with the
    references; returns the localized family."""
    poset = filt.poset
    family = localize_filtrations(filt)
    for m in poset.maximal_labels:
        local = reference_restrict_filtration(filt, m)
        assert family.filtrations[m] == local
    assert glue_filtrations(family) == reference_glue_filtrations(family) == filt
    return family


def test_catalog_filtrations_and_families_match_the_references():
    lo, hi = -2, 2
    filtrations = families = incompatible = listed = 0
    for poset in catalog.poset_catalog(4):
        for filt in catalog.all_filtrations(poset, lo, hi):
            # the catalog's own normalisation, against the validating one
            expanded = [(n, filt.at(n)) for n in range(lo, hi + 1)]
            assert filt == reference_make_filtration(poset, filt.at(lo), expanded, filt.at(hi))
            check_filtration(filt)
            filtrations += 1
        glued = set()
        for filts in all_filtration_families(poset, lo, hi):
            family = LocalFamily.from_members(poset, filts)
            expected = expected_glue(family)
            assert glue_or_witness(family) == expected
            families += 1
            incompatible += isinstance(expected, tuple)
            if not isinstance(expected, tuple):
                glued.add(family)
        # the catalog lists exactly the families that glue, each once
        compatible = catalog.compatible_filtration_families(poset, lo, hi)
        assert len(compatible) == len(set(compatible))
        assert set(compatible) == glued
        listed += len(compatible)
    assert (filtrations, families) == (7_364, 32_004)
    assert listed == 7_364
    assert 0 < incompatible < families


def test_spec_filtrations_localize_like_the_references():
    checked = 0
    for ring in _local_global_rings(24):
        poset = rng.spec(ring)
        for filt in catalog.all_filtrations(poset, -2, 2):
            local = local_tstructures(ring, check_filtration(filt))
            assert local.keys() == poset.maximal_labels
            for m in poset.maximal_labels:
                assert local[m] == reference_local_tstructure(ring, filt, m)
                checked += 1
    assert checked == 3_816


def test_seeded_z_filtrations_match_the_references():
    for data in _workloads.random_z_filtrations(12, 2_000):
        filt = integers.z_filtration_from_json(data)
        poset = filt.poset
        expanded = [(bp["n"], filt.at(bp["n"])) for bp in data["breakpoints"]]
        _, (low, *_, high) = level_sets(filt)
        assert filt == reference_make_filtration(poset, low, expanded, high)
        family = check_filtration(filt)
        assert integers.glue_z_filtrations(family) == filt


@pytest.mark.parametrize("shift", [-3, 0, 4])
def test_z_families_with_exceptions_glue_like_the_reference(shift):
    """Exceptions that disagree with the default on (0) at some degrees."""
    steps = [
        {"low_tail": "full", "breakpoints": [{"n": shift + k, "set": []}], "high_tail": []}
        for k in range(3)
    ]
    constant = {"low_tail": "full", "breakpoints": [], "high_tail": "full"}
    for default in steps + [constant]:
        for exception in steps + [constant]:
            family = integers.z_family_from_json(
                {"default": default, "exceptions": {"7": exception, "3": steps[1]}}
            )
            assert glue_or_witness(family) == expected_glue(family)


def old_z_set_to_json(level):
    """A Z level on the wire, as written from a :class:`ThomasonSet`."""
    return "full" if level.is_full() else sorted(int(label[1:-1]) for label in level.members)


def assert_views_match(filt, ref):
    """Every view of the level masks equals the five-field reference."""
    assert filt.lo == ref.lo and window(filt) == (ref.lo, ref.hi)
    _, (low, *values, high) = level_sets(filt)
    assert (low, tuple(values), high) == (ref.low_tail, ref.values, ref.high_tail)
    degrees = range(ref.lo - 3, ref.hi + 4)
    assert [filt.at(n) for n in degrees] == [ref.at(n) for n in degrees]
    assert [filt.mask_at(n) for n in degrees] == [ref.at(n).mask for n in degrees]
    assert level_sets(filt) == ref.levels()
    assert repr(filt) == repr(ref)
    assert filtration_to_json(filt) == ref.to_json()


def test_level_masks_read_like_the_five_field_form():
    """Every catalog filtration on at most 4 points over [-2, 2], against the
    trim of its chain, and the seeded Z filtrations of the benchmark, against
    the trim of their wire levels."""
    lo, hi = -2, 2
    checked = 0
    for poset in catalog.poset_catalog(4):
        sets = catalog.all_thomason_sets(poset)
        chains = [[]]
        for _ in range(hi - lo + 1):
            chains = [chain + [s] for chain in chains for s in sets if not chain or s <= chain[-1]]
        filtrations = catalog.all_filtrations(poset, lo, hi)
        assert len(filtrations) == len(chains)
        for filt, chain in zip(filtrations, chains):
            expanded = [(lo + k, s) for k, s in enumerate(chain)]
            assert_views_match(filt, reference_trim(poset, chain[0], expanded, chain[-1]))
            checked += 1
    assert checked == 7_364
    for data in _workloads.random_z_filtrations(7, 2_000):
        filt = integers.z_filtration_from_json(data)
        poset = filt.poset

        def level(value):
            if value == "full":
                return ThomasonSet.full(poset)
            return ThomasonSet.from_members(poset, [f"({p})" for p in value])

        expanded = [(bp["n"], level(bp["set"])) for bp in data["breakpoints"]]
        ref = reference_trim(poset, level(data["low_tail"]), expanded, level(data["high_tail"]))
        assert_views_match(filt, ref)
        assert integers.z_filtration_to_json(filt) == ref.to_json(old_z_set_to_json)
