import itertools

import pytest

from spectral_glue import catalog, gluing
from spectral_glue import (
    IncompatibleFamilyError,
    InvalidInputError,
    LocalFamily,
    SpectralPoset,
    ThomasonSet,
    check_lemma_equiv,
    glue_filtrations,
    glue_sets,
    localize_filtrations,
    localize_sets,
    make_filtration,
)
from spectral_glue.catalog import all_filtrations, all_thomason_sets, poset_catalog
from spectral_glue.poset import all_up_sets
from spectral_glue.sweeps import sweep_filtration_bijection, sweep_lemma_equiv, sweep_set_gluing
from spectral_glue.thomason import (
    MAX_DEGREE_SPAN,
    filtration_from_json,
    filtration_to_json,
    set_from_json,
    trim,
)
from spectral_glue.gluing import row_masks

from conftest import (
    all_filtration_families,
    all_set_families,
    constant_filtration,
    is_thomason,
    leq as mask_leq,
    localization_poset,
    mask_of,
    member_json,
    members_of,
    packed_run,
    set_row,
    up,
)


def local_full(vee, m):
    sub = localization_poset(vee, m)
    return ThomasonSet.full(sub)


def local_set(vee, m, *members):
    sub = localization_poset(vee, m)
    return set_from_json(sub, members)


def test_localize_then_glue_is_identity(vee):
    for s in all_thomason_sets(vee):
        assert glue_sets(vee, localize_sets(s)) == s


def test_incompatible_family_has_witness(vee):
    sets = {"m1": local_set(vee, "m1"), "m2": local_full(vee, "m2")}
    with pytest.raises(IncompatibleFamilyError) as err:
        glue_sets(vee, set_row(vee, sets))
    m1, m2, p = err.value.witness
    assert {m1, m2} == {"m1", "m2"} and p == "p"


def test_compatible_family_glues_to_union_of_stars(vee):
    sets = {"m1": local_full(vee, "m1"), "m2": local_full(vee, "m2")}
    assert glue_sets(vee, set_row(vee, sets)) == ThomasonSet.full(vee)
    disjoint = {"m1": local_set(vee, "m1", "m1"), "m2": local_set(vee, "m2")}
    assert glue_sets(vee, set_row(vee, disjoint)).members == {"m1"}


def test_a_row_is_converted_from_the_maximal_points_and_their_localizations(vee):
    full = {"m1": local_full(vee, "m1"), "m2": local_full(vee, "m2")}
    assert row_masks(vee, set_row(vee, full)) == [vee.down[m] for m in vee.maxima]
    with pytest.raises(InvalidInputError, match="cover exactly the maximal points"):
        set_row(vee, {"m1": full["m1"]})
    with pytest.raises(InvalidInputError, match="set at 'm2' lives on the wrong poset"):
        set_row(vee, {**full, "m2": full["m1"]})


def test_family_must_cover_maximal_points(vee):
    with pytest.raises(InvalidInputError):
        LocalFamily.from_members(vee, member_json({"m1": constant_filtration(*_local(vee, "m1"))}))


def _local(vee, m):
    sub = localization_poset(vee, m)
    return sub, ThomasonSet.full(sub)


def test_filtration_glue_localize_roundtrip(vee):
    full, empty = ThomasonSet.full(vee), ThomasonSet.empty(vee)
    filt = make_filtration(vee, full, [(0, up(vee, "m1", "m2")), (1, up(vee, "m1"))], empty)
    assert glue_filtrations(localize_filtrations(filt)) == filt


def test_glue_reports_offending_degree(vee):
    sub1 = localization_poset(vee, "m1")
    sub2 = localization_poset(vee, "m2")
    f1 = make_filtration(
        sub1, ThomasonSet.full(sub1), [(0, ThomasonSet.empty(sub1))], ThomasonSet.empty(sub1)
    )
    f2 = constant_filtration(sub2, ThomasonSet.full(sub2))
    family = LocalFamily.from_members(vee, member_json({"m1": f1, "m2": f2}))
    with pytest.raises(IncompatibleFamilyError) as err:
        glue_filtrations(family)
    assert err.value.witness is not None and err.value.witness[2] == "p"
    # the families differ only on their high tails, from degree 0 on
    assert err.value.degree == 0


def test_from_default_materializes_restrictions(vee):
    full, empty = ThomasonSet.full(vee), ThomasonSet.empty(vee)
    filt = make_filtration(vee, full, [(0, up(vee, "m1"))], empty)
    members = members_of(LocalFamily.from_default(vee, filt))
    assert members["m2"].at(0).members == set()
    assert members["m1"].at(0).members == {"m1"}


def test_from_default_is_the_localized_default_with_its_exceptions():
    """Every filtration F of the catalog up to 4 points on [-1, 1]: with no
    exceptions the family is localize(F); with one exception at a maximal
    point m, taken from the localization of another filtration, it is the
    checked family on the same members."""
    checked = excepted = 0
    for poset in poset_catalog(4):
        filtrations = all_filtrations(poset, -1, 1)
        for k, filt in enumerate(filtrations):
            localized = localize_filtrations(filt)
            family = LocalFamily.from_default(poset, filt)
            assert family == localized and family.degrees == localized.degrees
            others = members_of(localize_filtrations(filtrations[-1 - k]))
            for m in poset.maximal_labels:
                members = {**members_of(localized), m: others[m]}
                family = LocalFamily.from_default(poset, filt, member_json({m: others[m]}))
                checked_family = LocalFamily.from_members(poset, member_json(members))
                assert family == checked_family and members_of(family) == members
                assert family.degrees == checked_family.degrees
                excepted += family != localized
            checked += 1
    assert checked == 1_720
    assert excepted > 0


def test_from_default_refuses_a_stray_key_and_a_default_on_another_poset(vee):
    full, empty = ThomasonSet.full(vee), ThomasonSet.empty(vee)
    filt = make_filtration(vee, full, [(0, up(vee, "m1"))], empty)
    with pytest.raises(InvalidInputError, match="'p' is not a maximal point"):
        LocalFamily.from_default(vee, filt, {"p": filtration_to_json(filt)})
    line = SpectralPoset(["p", "m1", "m2"], [("p", "m1")])
    with pytest.raises(InvalidInputError, match="default filtration lives on the wrong poset"):
        LocalFamily.from_default(line, filt)
    # a default on a larger poset, although its restriction to m1 lives on the right poset
    at_m1 = localization_poset(vee, "m1")
    with pytest.raises(InvalidInputError, match="default filtration lives on the wrong poset"):
        LocalFamily.from_default(at_m1, filt)


def _step_at(n):
    return {"low_tail": "full", "breakpoints": [{"n": n, "set": []}], "high_tail": []}


def test_both_builders_bound_the_span_of_the_members():
    """Steps MAX_DEGREE_SPAN + 1 apart are a family, whether the far one is a
    member or an exception to a default: its levels run from degree -1 to the
    far step, MAX_DEGREE_SPAN + 3 of them.  One degree further apart, both
    builders refuse them before any row is read."""
    two = SpectralPoset(["a", "b"])
    default = filtration_from_json(two, _step_at(0))
    for gap in (MAX_DEGREE_SPAN + 1, MAX_DEGREE_SPAN + 2):
        members = {"a": _step_at(0), "b": _step_at(gap)}
        builds = (
            lambda: LocalFamily.from_members(two, members),
            lambda: LocalFamily.from_default(two, default, {"b": members["b"]}),
        )
        for build in builds:
            if gap == MAX_DEGREE_SPAN + 1:
                assert build().degrees == range(-1, gap + 1)
            else:
                with pytest.raises(InvalidInputError, match="MAX_DEGREE_SPAN = 1000"):
                    build()


def test_check_dagger_at_level(vee):
    full, empty = ThomasonSet.full(vee), ThomasonSet.empty(vee)
    filt = make_filtration(vee, full, [(0, up(vee, "m1"))], empty)
    family = localize_filtrations(filt)
    assert glue_sets(vee, dict(zip(family.degrees, family.rows()))[0]) == filt.at(0)
    assert glue_filtrations(family) == filt


def test_rows_read_every_member_at_each_degree():
    """rows holds, at each degree of ``degrees``, the members read there as a
    label -> set family converted to a row; on every family of local
    filtrations of the posets of at most 4 points on [-2, 1], compatible or
    not, constant members included."""
    families = 0
    for poset in poset_catalog(4):
        for members in all_filtration_families(poset, -2, 1):
            family = LocalFamily.from_members(poset, member_json(members))
            expected = tuple(
                set_row(poset, {m: f.at(n) for m, f in members.items()}) for n in family.degrees
            )
            assert tuple(family.rows()) == expected
            families += 1
    assert families == 12_980


def test_every_family_is_a_run_of_rows_in_normal_form():
    """Families compare equal exactly when their members do only because each
    is kept in the normal form of trim, as one int: every
    family that the catalog lists, that localizing a filtration gives, and
    that from_members reads, over the posets of at most 4 points on [-2, 1]."""
    counts = [0, 0, 0]
    for poset in poset_catalog(4):
        sources = (
            catalog.compatible_filtration_families(poset, -2, 1),
            [localize_filtrations(filt) for filt in all_filtrations(poset, -2, 1)],
            [
                LocalFamily.from_members(poset, member_json(members))
                for members in all_filtration_families(poset, -2, 1)
            ],
        )
        for k, families in enumerate(sources):
            for family in families:
                run = family.start, family.length, family.packed
                assert trim(len(poset), len(poset.maxima), *run) == run
                assert type(family.packed) is int
            counts[k] += len(families)
    assert counts == [3_800, 3_800, 12_980]


def test_filtration_sweep_reports_an_incompatible_localized_family(monkeypatch):
    localize = gluing.localize_filtrations

    def first_member_full(filt):
        # the constant full filtration at the first maximal point holds every
        # shared prime, so the family is incompatible wherever F leaves one out
        family = localize(filt)
        members = members_of(family)
        if not members:
            return family
        m = min(members)
        sub = members[m].poset
        full = constant_filtration(sub, ThomasonSet.full(sub))
        return LocalFamily.from_members(family.global_poset, member_json({**members, m: full}))

    monkeypatch.setattr(gluing, "localize_filtrations", first_member_full)
    report = sweep_filtration_bijection(max_poset=3, window=(-1, 1))
    problems = [f["problems"] for f in report.failures if "filtration" in f]
    assert ["localized family not compatible"] in problems


def test_lemma_equiv_on_examples(vee):
    compatible = {"m1": local_full(vee, "m1"), "m2": local_full(vee, "m2")}
    incompatible = {"m1": local_set(vee, "m1"), "m2": local_full(vee, "m2")}
    assert check_lemma_equiv(vee, set_row(vee, compatible))
    assert check_lemma_equiv(vee, set_row(vee, incompatible))


def _generic_only(vee):
    """X(m1) = X(m2) = {p}: the local sets agree on p, but neither is an up-set."""
    subs = {m: localization_poset(vee, m) for m in ("m1", "m2")}
    return {m: ThomasonSet(sub, mask_of(sub, ["p"])) for m, sub in subs.items()}


def test_lemma_equiv_fails_on_agreeing_sets_that_are_not_up_sets(vee):
    # the union {p} is no up-set, so it differs from X', which always is one
    assert not check_lemma_equiv(vee, set_row(vee, _generic_only(vee)))


@pytest.mark.parametrize("glued", [["p"], ["m1", "p"]])
def test_glue_asserts_that_an_agreeing_row_glues_to_an_up_set(vee, glued):
    """Rows of local up-sets glue to an up-set; a row of the package's own
    that agrees but is not one trips the assert, whether the point whose
    up-set leaves the glued mask is its lowest bit or a higher one."""
    mask = mask_of(vee, glued)
    row = localize_sets(ThomasonSet(vee, mask))
    with pytest.raises(AssertionError, match="glued set of a compatible family must be Thomason"):
        glue_sets(vee, row)
    full = localize_sets(ThomasonSet.full(vee))
    columns = zip(row_masks(vee, full), row_masks(vee, row))
    family = LocalFamily(vee, -1, 2, packed_run(len(vee), list(columns)))
    with pytest.raises(AssertionError, match="glued set of a compatible family must be Thomason"):
        glue_filtrations(family)


def test_compat_sweep_records_a_family_whose_descriptions_disagree(monkeypatch, vee):
    monkeypatch.setattr(catalog, "poset_catalog", lambda max_size: [vee])
    monkeypatch.setattr(catalog, "all_set_rows", lambda poset: [set_row(vee, _generic_only(vee))])
    report = sweep_lemma_equiv(3)
    assert report.checked == 1
    assert [f["reason"] for f in report.failures] == [
        "condition (dagger) and ideal-family description disagree"
    ]
    assert [f["family"] for f in report.failures] == [{"m1": ["p"], "m2": ["p"]}]


def test_set_sweep_records_a_listed_family_that_does_not_glue(monkeypatch, vee):
    incompatible = {"m1": local_set(vee, "m1"), "m2": local_full(vee, "m2")}
    monkeypatch.setattr(catalog, "poset_catalog", lambda max_size: [vee])
    monkeypatch.setattr(catalog, "compatible_set_rows", lambda poset: [set_row(vee, incompatible)])
    report = sweep_set_gluing(3)
    # the five Thomason sets of the vee, then the one listed family
    assert report.checked == 6
    assert report.failures == [
        {"poset": vee.to_json(), "family": {"m1": [], "m2": "full"}, "glued": None}
    ]


def test_lemma_equiv_exhaustive_small():
    for poset in poset_catalog(3):
        for s in all_thomason_sets(poset):
            assert glue_sets(poset, localize_sets(s)) == s
        for filt in all_filtrations(poset, -1, 1):
            assert glue_filtrations(localize_filtrations(filt)) == filt


# -- label-set oracle for the mask layer ---------------------------------------
#
# A small reference over frozensets of labels, independent of the masks: the
# order is the reflexive-transitive closure of ``relation_pairs``, and every
# set operation is done on labels.


def _ref_order(poset):
    leq = {(a, a) for a in poset.elements} | set(poset.relation_pairs)
    while True:
        more = {(a, d) for a, b in leq for c, d in leq if b == c} - leq
        if not more:
            return leq
        leq |= more


def _ref_up_sets(poset, leq):
    labels = poset.elements
    subsets = [
        frozenset(p for i, p in enumerate(labels) if bits >> i & 1) for bits in range(1 << len(labels))
    ]
    ups = [s for s in subsets if all(b in s for a, b in leq if a in s)]
    return sorted(ups, key=lambda s: (len(s), sorted(s)))


def _ref_check(down, family):
    """(witness or None, glued) of a family m -> frozenset of labels."""
    maxima = sorted(family)
    glued = frozenset().union(*family.values())
    for k, m in enumerate(maxima):
        for m2 in maxima[k + 1 :]:
            lhs, rhs = family[m] & down[m2], family[m2] & down[m]
            if lhs != rhs:
                return (m, m2, min(lhs ^ rhs)), glued
    return None, glued


def test_mask_order_matches_label_sets_on_the_catalog():
    for poset in poset_catalog(5):
        leq = _ref_order(poset)
        labels = poset.elements
        assert leq == {(a, a) for a in labels} | set(poset.relation_pairs)
        for a in labels:
            for b in labels:
                assert mask_leq(poset, a, b) == ((a, b) in leq)
        for i, a in enumerate(labels):
            assert set(poset.labels(poset.up[i])) == {b for x, b in leq if x == a}
            assert set(poset.labels(poset.down[i])) == {x for x, b in leq if b == a}
        assert poset.maximal_labels == {a for a in labels if all(x != a or b == a for x, b in leq)}
        # the covering relation closes back to the order under every rotation
        # of the labels, so that each point number is an intermediate somewhere
        strict = {(a, b) for a, b in leq if a != b}
        covers = [(a, b) for a, b in strict if not any((a, c) in strict and (c, b) in strict for c in labels)]
        assert SpectralPoset(reversed(labels), covers) == poset
        for r in range(len(labels)):
            turn = dict(zip(labels, labels[r:] + labels[:r]))
            turned = SpectralPoset(labels, [(turn[a], turn[b]) for a, b in covers])
            assert set(turned.relation_pairs) == {(turn[a], turn[b]) for a, b in strict}
        ups = _ref_up_sets(poset, leq)
        assert [frozenset(poset.labels(u)) for u in all_up_sets(poset)] == ups
        assert all(is_thomason(s, poset) for s in ups)


def test_mask_gluing_matches_label_sets_on_the_catalog():
    for poset in poset_catalog(5):
        leq = _ref_order(poset)
        maxima = sorted(poset.maximal_labels)
        down = {m: frozenset(a for a, b in leq if b == m) for m in maxima}
        principal = {g: frozenset(b for a, b in leq if a == g) for g in poset.elements}
        local_ups = {}
        for m in maxima:
            sub = localization_poset(poset, m)
            local_leq = {(a, b) for a, b in leq if b in down[m]}
            assert set(sub.elements) == down[m]
            assert {(a, a) for a in sub.elements} | set(sub.relation_pairs) == local_leq
            local_ups[m] = _ref_up_sets(sub, local_leq)
            listed = gluing.local_up_sets(poset, poset.point(m))
            assert [frozenset(poset.labels(x)) for x in listed] == local_ups[m]
        for members in _ref_up_sets(poset, leq):
            x = set_from_json(poset, sorted(members))
            local = localize_sets(x)
            assert [poset.elements[m] for m in poset.maxima] == maxima
            local = row_masks(poset, local)
            assert [frozenset(poset.labels(s)) for s in local] == [members & down[m] for m in maxima]
        expected = [dict(zip(maxima, combo)) for combo in itertools.product(*local_ups.values())]
        families = all_set_families(poset)
        assert [{m: s.members for m, s in f.items()} for f in families] == expected
        for family, ref in zip(families, expected):
            row = set_row(poset, family)
            witness, glued = _ref_check(down, ref)
            closed = all(b in glued for a, b in leq if a in glued)
            if witness is None:
                assert closed
                assert glue_sets(poset, row).members == glued
            else:
                with pytest.raises(IncompatibleFamilyError) as err:
                    glue_sets(poset, row)
                assert err.value.witness == witness
            x_prime = frozenset().union(
                *(u for u in principal.values() if all(u & down[m] <= ref[m] for m in maxima))
            )
            expected_verdict = (witness is None and closed) == (glued == x_prime)
            assert check_lemma_equiv(poset, row) == expected_verdict
