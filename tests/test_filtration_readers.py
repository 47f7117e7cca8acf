"""The one-pass filtration readers against the two-pass readers they replaced.

``two_pass_*`` below are the earlier readers, kept here only as the oracle:
``filtration_from_json`` parsed every level, then ``_validated`` rebuilt the
indices, sorted them, made a dict of the breakpoints and walked the degree
range; ``z_filtration_from_json`` collected and bounded the named integers
before it read the levels.  On the seed-7 Z families of the benchmark and on
mutated Z and finite-poset filtration JSON, the readers of the package must
give the same filtration, or raise the same exception type with the same
message.  Hypothesis runs derandomized, so the suite stays deterministic.
"""

import copy
import importlib.util
from collections.abc import Mapping
from functools import partial
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spectral_glue import SpectralGlueError, integers, thomason
from spectral_glue.catalog import all_filtrations, all_thomason_sets
from spectral_glue.errors import FiltrationOrderError, InvalidInputError, json_int, json_object
from spectral_glue.poset import SpectralPoset
from spectral_glue.thomason import (
    MAX_DEGREE_SPAN,
    filtration_from_json,
    filtration_to_json,
    from_levels,
    level_from_json,
)

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
)
_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)

SETTINGS = settings(
    max_examples=400,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- the oracle: the two-pass readers ------------------------------------------


def two_pass_validated(poset, low, breakpoints, high, describe):
    ns = [n for n, _ in breakpoints]
    if ns != sorted(set(ns)):
        raise InvalidInputError("breakpoint indices must be strictly increasing")
    if not ns and low != high:
        raise FiltrationOrderError(
            "tails differ but no breakpoint locates the step; give at least one breakpoint"
        )
    if ns and ns[-1] - ns[0] > MAX_DEGREE_SPAN:
        raise InvalidInputError(
            f"breakpoints at degrees {ns[0]} and {ns[-1]} lie more than the bound "
            f"MAX_DEGREE_SPAN = {MAX_DEGREE_SPAN} degrees apart"
        )
    lo = ns[0] if ns else 0
    levels = [low]
    idx = dict(breakpoints)
    for n in range(lo, (ns[-1] + 1) if ns else lo):
        prev = levels[-1]
        cur = idx.get(n, prev)
        if cur & ~prev:
            raise FiltrationOrderError(
                f"filtration not decreasing at degree {n}: "
                f"{describe(poset, cur)} is not contained in {describe(poset, prev)}"
            )
        levels.append(cur)
    if high & ~levels[-1]:
        raise FiltrationOrderError(
            f"filtration not decreasing into the high tail: "
            f"{describe(poset, high)} is not contained in {describe(poset, levels[-1])}"
        )
    levels.append(high)
    return from_levels(poset, lo - 1, levels)


def two_pass_members(poset, mask):
    return list(poset.labels(mask))


def two_pass_filtration_from_json(
    poset, data, parse_level=level_from_json, describe=two_pass_members
):
    json_object(data, "filtration JSON")
    for name in ("low_tail", "high_tail"):
        if name not in data:
            raise InvalidInputError(f"filtration JSON needs the field {name!r}")
    breakpoints = data.get("breakpoints", [])
    if not isinstance(breakpoints, list) or any(
        not isinstance(bp, Mapping) or "n" not in bp or "set" not in bp for bp in breakpoints
    ):
        raise InvalidInputError(
            f"'breakpoints' must be a list of objects with 'n' and 'set', got {breakpoints!r}"
        )

    def level(value, name):
        try:
            return parse_level(poset, value)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{name}: {exc}") from None

    low = level(data["low_tail"], "'low_tail'")
    high = level(data["high_tail"], "'high_tail'")
    bps = [
        (json_int(bp["n"], "breakpoint index"), level(bp["set"], "breakpoint 'set'"))
        for bp in breakpoints
    ]
    return two_pass_validated(poset, low, bps, high, describe)


def two_pass_named_ints(data):
    levels = []
    if isinstance(data, Mapping):
        levels = [data.get("low_tail"), data.get("high_tail")]
        breakpoints = data.get("breakpoints")
        if isinstance(breakpoints, list):
            levels += [bp.get("set") for bp in breakpoints if isinstance(bp, Mapping)]
    return {p for level in levels if isinstance(level, list) for p in level if type(p) is int}


def two_pass_z_set_from_json(poset, data):
    if data == "full":
        return poset.full
    if not isinstance(data, (list, tuple)) or any(type(p) is not int for p in data):
        raise InvalidInputError(f"a Z level is 'full' or a list of integer primes, got {data!r}")
    mask = 0
    for p in frozenset(data):
        i = poset.index.get(f"({p})") if p else None
        if i is None:
            raise InvalidInputError(f"{p} is not a prime number")
        mask |= 1 << i
    return mask


def two_pass_z_set_to_json(poset, mask):
    if mask == poset.full:
        return "full"
    return sorted(int(label[1:-1]) for label in poset.labels(mask))


def two_pass_z_filtration_from_json(data):
    named = two_pass_named_ints(data)
    for p in named:
        integers._bounded(p)
    poset = integers._star_of(tuple(sorted(named)))
    return two_pass_filtration_from_json(
        poset, data, two_pass_z_set_from_json, two_pass_z_set_to_json
    )


# -- the corpora ------------------------------------------------------------------

Z_FAMILIES = _workloads.random_z_filtrations(7, 2_000)
VEE = SpectralPoset(["p", "m1", "m2"], [("p", "m1"), ("p", "m2")])
CHAIN = SpectralPoset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
# the filtrations with the most breakpoints first, where Hypothesis draws most
FINITE = sorted(
    [(poset, filtration_to_json(f)) for poset in (VEE, CHAIN) for f in all_filtrations(poset, -1, 2)],
    key=lambda case: -len(case[1]["breakpoints"]),
)

# a Z level entry: over the bound (the last one too long to divide), 0 and
# (0), a negative, JSON true, non-primes, primes of the pool and a new one,
# and entries of other JSON types
Z_ENTRIES = [10**7, 10**6 + 3, 10**400 + 1, 0, -3, True, 1, 4, 9, 2, 3, 53, 2.5, "x", None, []]
FINITE_ENTRIES = ["zz", "p", "m1", "m2", "a", "b", "c", 5, None, True, []]
LEVELS = [5, "fool", None, {}, [], "full", True]
INDICES = [True, 1.5, "a", None, -(10**9), 10**9]
SHAPES = [5, [5], "x", None, {}, [[]], [{"n": 0}], [{"set": []}], [{"n": "0", "set": []}]]


def outcome(read, *args):
    """The filtration ``read(*args)`` returns, or the type and text of its
    refusal."""
    try:
        return read(*args)
    except SpectralGlueError as exc:
        return type(exc), str(exc)


def level_slots(data):
    """(container, key) of every level of filtration JSON as it stands."""
    if not isinstance(data, dict):
        return []
    slots = [(data, name) for name in ("low_tail", "high_tail") if name in data]
    if isinstance(data.get("breakpoints"), list):
        slots += [(bp, "set") for bp in data["breakpoints"] if isinstance(bp, dict) and "set" in bp]
    return slots


def breakpoints_of(data):
    if isinstance(data, dict) and isinstance(data.get("breakpoints"), list):
        return [bp for bp in data["breakpoints"] if isinstance(bp, dict)]
    return []


def mutate(draw, data, entries):
    """One mutation of filtration JSON, in place where it can be; the result."""
    kind = draw(st.sampled_from(
        ["entry", "entry", "level", "drop", "index", "gap", "gap", "shape", "swap", "wrap", "pair"]
    ))
    slots, bps = level_slots(data), breakpoints_of(data)
    if kind == "entry" and slots:
        holder, key = draw(st.sampled_from(slots))
        level = holder[key] if isinstance(holder[key], list) else []
        at = draw(st.integers(0, len(level)))
        holder[key] = level[:at] + [draw(st.sampled_from(entries))] + level[at + 1 :]
    elif kind == "level" and slots:
        holder, key = draw(st.sampled_from(slots))
        holder[key] = draw(st.sampled_from(LEVELS))
    elif kind == "drop" and isinstance(data, dict):
        bp_keys = [(bp, key) for bp in bps for key in ("n", "set") if key in bp]
        choices = [(data, key) for key in data] + bp_keys
        if choices:
            holder, key = draw(st.sampled_from(choices))
            del holder[key]
    elif kind == "index" and bps:
        k = draw(st.integers(0, len(bps) - 1))
        before = bps[k - 1]["n"] if k and type(bps[k - 1].get("n")) is int else 0
        # equal, decreasing, a gap, a gap past the bound, or not an integer
        steps = [before, before - 1, before + 3, before + MAX_DEGREE_SPAN + 1]
        bps[k]["n"] = draw(st.sampled_from(steps + INDICES))
    elif kind == "gap" and bps and all(type(bp.get("n")) is int for bp in bps):
        # every breakpoint from the k-th on moves up, away from the one before
        k, shift = draw(st.integers(0, len(bps) - 1)), draw(st.sampled_from([2, 5, MAX_DEGREE_SPAN]))
        for bp in bps[k:]:
            bp["n"] += shift
    elif kind == "shape" and isinstance(data, dict):
        data["breakpoints"] = copy.deepcopy(draw(st.sampled_from(SHAPES)))
    elif kind == "swap" and len(bps) > 1:
        data["breakpoints"] = data["breakpoints"][::-1]
    elif kind == "wrap" and isinstance(data, dict):
        wrap = draw(st.sampled_from(["proxy", "list", "string", "bp-proxy"]))
        if wrap == "bp-proxy" and isinstance(data, dict) and bps:
            k = draw(st.integers(0, len(bps) - 1))
            data["breakpoints"] = [MappingProxyType(bp) if j == k else bp for j, bp in enumerate(bps)]
        elif wrap == "proxy":
            return MappingProxyType(data)
        elif wrap == "list":
            return [data]
        else:
            return "x"
    elif kind == "pair" and len(slots) > 1:
        # a fault of one kind in one level and of another in a later one, such
        # as a non-prime before or after an integer over the bound
        i, j = sorted(draw(st.sets(st.integers(0, len(slots) - 1), min_size=2, max_size=2)))
        faults = [draw(st.sampled_from(entries)) for _ in range(2)]
        for (holder, key), fault in zip([slots[i], slots[j]], faults):
            holder[key] = [fault]
    return data


def mutated(draw, data, entries):
    data = copy.deepcopy(data)
    for _ in range(draw(st.integers(0, 3))):
        data = mutate(draw, data, entries)
    return data


# -- the differential tests ----------------------------------------------------------


def test_every_seed_7_family_and_its_rewrite_read_as_before():
    for data in Z_FAMILIES:
        filt = integers.z_filtration_from_json(data)
        assert filt == two_pass_z_filtration_from_json(data)
        wire = integers.z_filtration_to_json(filt)
        assert wire == filtration_to_json(filt, two_pass_z_set_to_json)
        assert integers.z_filtration_from_json(wire) == two_pass_z_filtration_from_json(wire) == filt


@SETTINGS
@given(st.data())
def test_mutated_z_filtrations_read_as_before(data):
    wire = mutated(data.draw, data.draw(st.sampled_from(Z_FAMILIES)), Z_ENTRIES)
    expected = outcome(two_pass_z_filtration_from_json, wire)
    assert outcome(integers.z_filtration_from_json, wire) == expected


@SETTINGS
@given(st.data())
def test_mutated_finite_filtrations_and_members_read_as_before(data):
    poset, base = data.draw(st.sampled_from(FINITE))
    at = data.draw(st.sampled_from([None, *poset.maxima]))
    parse_level = level_from_json if at is None else partial(level_from_json, at=at)
    wire = mutated(data.draw, base, FINITE_ENTRIES)
    expected = outcome(two_pass_filtration_from_json, poset, wire, parse_level)
    assert outcome(filtration_from_json, poset, wire, parse_level) == expected


@SETTINGS
@given(st.data())
def test_checked_breakpoint_masks_read_as_before(data):
    """The pass of :func:`thomason.make_filtration`, on masks already read:
    indices in any order, gaps near and past the bound, levels that rise."""
    poset = data.draw(st.sampled_from([VEE, CHAIN]))
    ups = [s.mask for s in all_thomason_sets(poset)]
    masks = st.sampled_from(ups)
    start = data.draw(st.integers(-3, 3))
    steps = st.sampled_from([1, 1, 1, 2, 3, 0, -1, MAX_DEGREE_SPAN, MAX_DEGREE_SPAN + 1])
    pairs, n = [], start
    for _ in range(data.draw(st.integers(0, 5))):
        pairs.append((n, data.draw(masks)))
        n += data.draw(steps)
    low, high = data.draw(masks), data.draw(masks)
    members = thomason._members
    expected = outcome(two_pass_validated, poset, low, pairs, high, members)
    assert outcome(thomason._validated, poset, low, pairs, high, members) == expected


# a level that names several non-primes is refused at the first of them in the
# iteration order of its frozenset, not in input order
NON_PRIME_LEVELS = [([6, 9], "9"), ([4, 0], "0"), ([15, 1, 2], "1")]


def _placed(level, where):
    if where == "tail":
        return {"low_tail": "full", "breakpoints": [{"n": 0, "set": []}], "high_tail": level}
    return {"low_tail": "full", "breakpoints": [{"n": 0, "set": level}], "high_tail": []}


@pytest.mark.parametrize("where", ["tail", "breakpoint"])
@pytest.mark.parametrize("level, named", NON_PRIME_LEVELS)
def test_a_level_of_several_non_primes_names_the_one_it_always_named(level, named, where):
    wire = _placed(level, where)
    field = "'high_tail'" if where == "tail" else "breakpoint 'set'"
    expected = (InvalidInputError, f"{field}: {named} is not a prime number")
    assert outcome(two_pass_z_filtration_from_json, wire) == expected
    assert outcome(integers.z_filtration_from_json, wire) == expected
