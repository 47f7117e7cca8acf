import importlib.util
import random
from pathlib import Path

import pytest

from spectral_glue import InvalidInputError, SpectralPoset, localization_poset
from spectral_glue import integers
from spectral_glue.catalog import poset_catalog
from spectral_glue.poset import all_up_sets

from conftest import is_thomason, leq


def test_closure_is_automatic():
    chain = SpectralPoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert leq(chain, "a", "c")
    assert leq(chain, "a", "a")


def test_antisymmetry_enforced():
    with pytest.raises(InvalidInputError):
        SpectralPoset(["a", "b"], [("a", "b"), ("b", "a")])


def test_maximal_points(vee):
    assert vee.maximal_labels == frozenset({"m1", "m2"})


def test_up_sets_of_vee(vee):
    ups = all_up_sets(vee)
    assert len(ups) == 5
    assert vee.mask_of({"p"}) not in ups
    assert is_thomason({"m1", "m2"}, vee)
    assert not is_thomason({"p"}, vee)


def test_localization_poset(vee):
    sub = localization_poset(vee, "m1")
    assert set(sub.elements) == {"p", "m1"}
    assert leq(sub, "p", "m1")


def test_localization_rejects_unknown_prime(vee):
    with pytest.raises(InvalidInputError):
        localization_poset(vee, "q")


def test_from_json_roundtrip(vee):
    assert SpectralPoset.from_json(vee.to_json()) == vee


def test_from_json_rejects_unknown_labels():
    with pytest.raises(InvalidInputError):
        SpectralPoset.from_json({"elements": ["a"], "leq": [["a", "b"]]})


def reference_order(elements, pairs):
    """(up, down, maxima, below) of the order that ``pairs`` generate, by a
    builder that shares no shortcut with :class:`SpectralPoset`: Warshall
    through every point, and each down-set and its point list read by
    testing every pair of points."""
    elems = sorted(elements)
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[index[a]] |= 1 << index[b]
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    down = tuple(sum(1 << j for j in range(n) if up[j] >> i & 1) for i in range(n))
    maxima = tuple(i for i in range(n) if up[i] == 1 << i)
    below = tuple(tuple(j for j in range(n) if d >> j & 1) for d in down)
    return tuple(up), down, maxima, below


def _seed_7_star_posets():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    families = workloads.random_z_filtrations(7, 2_000)
    return {integers.z_filtration_from_json(data).poset for data in families}


def test_the_order_matches_the_cubic_builder():
    """Every catalog poset on at most 6 points, as the catalog builds it and
    from its covers under shuffled labels (the catalog's labels list each
    order in a linear extension, so the closure would never run through a
    point out of label order), and the star posets of the seed-7 Z
    filtrations of the benchmark."""
    rnd = random.Random(6)
    inputs = []
    for poset in poset_catalog(6):
        inputs.append((poset.elements, poset.relation_pairs))
        shuffled = [f"q{i}" for i in range(len(poset))]
        rnd.shuffle(shuffled)
        rename = dict(zip(poset.elements, shuffled))
        covers = [
            (a, b)
            for a, b in poset.relation_pairs
            if not any((a, c) in poset.relation_pairs and (c, b) in poset.relation_pairs
                       for c in poset.elements)
        ]
        inputs.append((list(rename.values()), [(rename[a], rename[b]) for a, b in covers]))
    stars = _seed_7_star_posets()
    inputs += [(star.elements, star.relation_pairs) for star in stars]
    for elements, pairs in inputs:
        poset = SpectralPoset(elements, pairs)
        assert (poset.up, poset.down, poset.maxima, poset._below) == reference_order(
            elements, pairs
        )
    assert (len(inputs), len(stars)) == (2 * 405 + 835, 835)
