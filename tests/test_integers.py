import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from spectral_glue import (
    FiltrationOrderError,
    IncompatibleFamilyError,
    InvalidInputError,
    ThomasonSet,
    UnsupportedRingError,
)
from spectral_glue import integers
from spectral_glue.cli import main
from spectral_glue.integers import (
    glue_z_filtrations,
    localize_z_filtration,
    z_family_from_json,
    z_family_to_json,
    z_filtration_from_json,
    z_filtration_to_json,
    z_poset,
    z_witness,
)
from spectral_glue.gluing import localize_sets, row_masks
from spectral_glue.poset import SpectralPoset

from conftest import leq, localization_poset, members_of


def zfilt(low, bps, high):
    breakpoints = [{"n": n, "set": s} for n, s in bps]
    return z_filtration_from_json({"low_tail": low, "breakpoints": breakpoints, "high_tail": high})


STEP_DOWN = {"low_tail": "full", "breakpoints": [{"n": 0, "set": []}], "high_tail": []}


def z_family(default, **exceptions):
    return z_family_from_json({"default": default, "exceptions": exceptions})


def test_z_poset_is_a_star_whose_localizations_are_2_chains():
    poset = z_poset([11, 2, 3])
    assert poset.elements == ("(0)", "(11)", "(2)", "(3)", "(m)")
    assert poset.maximal_labels == {"(11)", "(2)", "(3)", "(m)"}
    assert all(leq(poset, "(0)", m) for m in poset.maximal_labels)
    assert not leq(poset, "(2)", "(3)")
    for m in poset.maximal_labels:
        local = localization_poset(poset, m)
        assert local.to_json() == {"elements": ["(0)", m], "leq": [["(0)", m]]}
        assert local == localization_poset(z_poset([2, 3, 5, 11]), m)
    assert z_poset([3, 2, 3]) is z_poset([2, 3])
    with pytest.raises(InvalidInputError, match="4 is not a prime"):
        z_poset([4])


PRIMES_16 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


@pytest.mark.parametrize("primes", [[], [2], [11, 2], PRIMES_16], ids=len)
def test_the_direct_star_matches_the_generic_builder(primes):
    """A star is built straight from its primes, in label order, where
    "(11)" sorts before "(2)"; it is the poset that the Warshall closure and
    the antisymmetry scan of :class:`SpectralPoset` give, with a prime table
    read off its labels."""
    star = integers._star_on(tuple(sorted(primes)))
    labels = sorted(["(0)", "(m)", *[f"({p})" for p in primes]])
    generic = SpectralPoset(labels, [("(0)", label) for label in labels[1:]])
    for name in ("elements", "index", "up", "down", "full", "maxima", "maximal_downs"):
        assert getattr(star, name) == getattr(generic, name), name
    assert star.maximal_labels == generic.maximal_labels
    assert star.maximal_downs == tuple(generic.down[m] for m in generic.maxima)
    assert star == generic and generic == star and hash(star) == hash(generic)
    assert star.relation_pairs == generic.relation_pairs and repr(star) == repr(generic)
    assert star.primes == tuple(int(label[1:-1]) for label in labels[:-1])
    assert star.bits == {p: 1 << star.index[f"({p})"] for p in primes}
    assert integers.z_primes(star) == sorted(primes)
    assert z_poset(primes) is star


def _restricted(s):
    """Maximal label -> the labels of the restriction of ``s`` to its chain."""
    poset = s.poset
    return {poset.elements[m]: set(poset.labels(x)) for m, x in zip(poset.maxima, row_masks(poset, localize_sets(s)))}


def test_restrict_to_chain():
    filt = zfilt([2, 3, 5], [(0, [2, 5])], [])
    s = filt.at(0)
    assert _restricted(s)["(2)"] == {"(2)"}
    assert _restricted(s)["(3)"] == set()
    assert _restricted(filt.at(-1))["(3)"] == {"(3)"}
    assert _restricted(zfilt("full", [], "full").at(0))["(m)"] == {"(0)", "(m)"}


def test_levels_are_written_in_numeric_order():
    filt = zfilt([11, 2, 3], [(0, [11, 3])], [])
    assert z_filtration_to_json(filt) == {
        "low_tail": [2, 3, 11],
        "breakpoints": [{"n": 0, "set": [3, 11]}],
        "high_tail": [],
    }


@pytest.mark.parametrize("p", [0, 1, 4, -3])
def test_levels_name_primes_only(p):
    # 0 in particular: its label would be the generic point's
    with pytest.raises(InvalidInputError, match=f"'high_tail': {p} is not a prime number"):
        zfilt("full", [(0, [2])], [p])


def test_localize_glue_roundtrip():
    filt = zfilt("full", [(0, [2, 3]), (1, [3])], [])
    family = localize_z_filtration(filt)
    assert sorted(members_of(family)) == ["(2)", "(3)", "(m)"]
    assert glue_z_filtrations(family) == filt


def test_non_decreasing_is_an_error():
    with pytest.raises(FiltrationOrderError, match="degree 1"):
        zfilt("full", [(0, [2]), (1, [2, 3])], [])
    with pytest.raises(FiltrationOrderError, match="degree 0"):
        z_filtration_from_json({"low_tail": [], "breakpoints": [{"n": 0, "set": [2]}], "high_tail": []})


def test_pure_step_roundtrip():
    filt = zfilt("full", [(2, [])], [])
    assert glue_z_filtrations(localize_z_filtration(filt)) == filt
    assert z_filtration_from_json(z_filtration_to_json(filt)) == filt


def test_incompatible_generic_point():
    full_at_0 = {"low_tail": "full", "breakpoints": [{"n": 0, "set": "full"}], "high_tail": []}
    agrees = {"low_tail": "full", "breakpoints": [{"n": 0, "set": ["(3)"]}], "high_tail": []}
    family = z_family(STEP_DOWN, **{"11": full_at_0, "3": agrees, "2": full_at_0})
    # the smallest disagreeing prime, not the first in label order
    assert z_witness(family, 0) == (2, "default", "(0)")
    assert z_witness(family, 1) is None
    with pytest.raises(IncompatibleFamilyError, match="exception at 2") as exc:
        glue_z_filtrations(family)
    assert exc.value.degree == 0 and exc.value.witness == (2, "default", "(0)")


def test_default_closed_point_everywhere_is_unrepresentable():
    default = {"low_tail": "full", "breakpoints": [{"n": 0, "set": ["(m)"]}], "high_tail": []}
    with pytest.raises(UnsupportedRingError):
        glue_z_filtrations(z_family(default))


def test_family_json():
    exception = {"low_tail": "full", "breakpoints": [{"n": 0, "set": ["(5)"]}], "high_tail": []}
    family = z_family(STEP_DOWN, **{"5": exception})
    glued = glue_z_filtrations(family)
    assert glued.at(0).members == {"(5)"}
    assert glued.at(-1) == ThomasonSet.full(glued.poset)
    assert not glued.at(1).mask
    assert z_filtration_to_json(glued)["breakpoints"] == [{"n": 0, "set": [5]}]
    wire = z_family_to_json(family)
    assert list(wire["exceptions"]) == ["5"]
    assert z_family_from_json(wire) == family


def test_exception_poset_is_checked():
    """A member names only points below its key: (3) is a point of the
    family's poset, but not of (0) < (2); without (3) among the keys it is
    not a point at all."""
    names_3 = {"low_tail": ["(3)"], "breakpoints": [], "high_tail": ["(3)"]}
    outside = r"'low_tail': prime '\(3\)' is not in the down-set of '\(2\)'"
    with pytest.raises(InvalidInputError, match=outside):
        z_family(STEP_DOWN, **{"2": names_3, "3": STEP_DOWN})
    with pytest.raises(InvalidInputError, match="'\\(3\\)' is not in this poset"):
        z_family(STEP_DOWN, **{"2": names_3})


# -- seeded properties over generated Z data ---------------------------------

PRIMES = [p for p in range(2, 50) if all(p % d for d in range(2, p))]
PROPERTY_SETTINGS = settings(max_examples=200, derandomize=True, deadline=None)


def level_inside(draw, level):
    """A Z level inside ``level``: "full", or a sorted list of primes."""
    if level == "full" and draw(st.booleans()):
        return "full"
    pool = PRIMES if level == "full" else level
    return sorted(draw(st.sets(st.sampled_from(pool), max_size=5))) if pool else []


@st.composite
def z_filtration_json(draw):
    """Decreasing Z filtration JSON, with gaps between breakpoints."""
    low = level = level_inside(draw, "full")
    breakpoints, n = [], draw(st.integers(-3, 2))
    for _ in range(draw(st.integers(0, 4))):
        level = level_inside(draw, level)
        breakpoints.append({"n": n, "set": level})
        n += draw(st.integers(1, 2))
    high = level_inside(draw, level) if breakpoints else low
    return {"low_tail": low, "breakpoints": breakpoints, "high_tail": high}


@st.composite
def chain_filtration_json(draw, top):
    """Decreasing filtration JSON on the 2-chain (0) < ``top``."""
    chain = ["full", [top], []]
    steps = sorted(draw(st.lists(st.integers(0, 2), max_size=3)))
    low = draw(st.integers(0, steps[0] if steps else 2))
    start = draw(st.integers(-2, 1))
    breakpoints = [{"n": start + k, "set": chain[i]} for k, i in enumerate(steps)]
    high = draw(st.integers(steps[-1], 2)) if steps else low
    return {"low_tail": chain[low], "breakpoints": breakpoints, "high_tail": chain[high]}


@st.composite
def z_family_json(draw):
    primes = draw(st.lists(st.sampled_from(PRIMES), unique=True, max_size=4))
    return {
        "poset": {"kind": "integers"},
        "default": draw(chain_filtration_json("(m)")),
        "exceptions": {str(p): draw(chain_filtration_json(f"({p})")) for p in primes},
    }


def level_at(filt, n):
    """X_n of filtration JSON: the last breakpoint at or below n, the tails outside."""
    breakpoints = filt["breakpoints"]
    if breakpoints and n > breakpoints[-1]["n"]:
        return filt["high_tail"]
    value = filt["low_tail"]
    for bp in breakpoints:
        if bp["n"] <= n:
            value = bp["set"]
    return value


def cli_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--json", *argv])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


@PROPERTY_SETTINGS
@given(z_filtration_json())
def test_z_filtrations_round_trip(data):
    filt = z_filtration_from_json(data)
    assert glue_z_filtrations(localize_z_filtration(filt)) == filt
    wire = json.loads(json.dumps(z_filtration_to_json(filt)))
    assert z_filtration_from_json(wire) == filt
    levels = [wire["low_tail"], wire["high_tail"], *(bp["set"] for bp in wire["breakpoints"])]
    assert all(level == "full" or level == sorted(level) for level in levels)


@PROPERTY_SETTINGS
@given(z_family_json())
def test_z_compat_verdict_is_agreement_on_the_generic_point(family):
    """Compatible exactly when every local set agrees with the default on
    (0); the witness names a degree of disagreement and its smallest prime,
    glue names the same degree and witness, and a compatible family glues to
    the union of its local sets."""
    default, exceptions = family["default"], family["exceptions"]

    def disagreeing(n):
        generic = level_at(default, n) == "full"
        return sorted(int(p) for p, f in exceptions.items() if (level_at(f, n) == "full") != generic)

    ns = [bp["n"] for f in [default, *exceptions.values()] for bp in f["breakpoints"]]
    degrees = range(min(ns, default=0) - 1, max(ns, default=0) + 2)
    code, out = cli_json("compat-check", "--family", json.dumps(family))
    if any(disagreeing(n) for n in degrees):
        assert code == 1 and out["compatible"] is False
        assert out["witness"] == [disagreeing(out["degree"])[0], "default", "(0)"]
        assert cli_json("glue", "--family", json.dumps(family)) == (code, out)
        return
    assert (code, out) == (0, {"compatible": True})
    code, out = cli_json("glue", "--family", json.dumps(family))
    if any(level_at(default, n) == ["(m)"] for n in degrees):
        assert code == 2  # a cofinite set of closed points is not representable
        return
    assert code == 0
    for n in degrees:
        expected = "full" if level_at(default, n) == "full" else sorted(
            int(p) for p, f in exceptions.items() if level_at(f, n) == [f"({p})"]
        )
        assert level_at(out["glued"], n) == expected
