import pytest

from spectral_glue import (
    FiltrationOrderError,
    InvalidInputError,
    ThomasonSet,
    is_constant,
    is_nondegenerate,
    localize_sets,
    make_filtration,
)
from spectral_glue.gluing import localize_filtrations, row_masks
from spectral_glue.thomason import (
    filtration_from_json,
    filtration_to_json,
    from_levels,
    set_from_json,
    set_to_json,
)

from conftest import constant_filtration, level_sets, members_of, up, window


def test_from_members_rejects_non_up_sets(vee):
    with pytest.raises(InvalidInputError, match=r"^\['p'\] is not specialization closed$"):
        set_from_json(vee, ["p"])


def test_filtration_values_and_window(vee):
    filt = make_filtration(
        vee,
        ThomasonSet.full(vee),
        [(0, up(vee, "m1", "m2")), (1, up(vee, "m1"))],
        ThomasonSet.empty(vee),
    )
    assert window(filt) == (0, 1)
    levels = (ThomasonSet.full(vee), up(vee, "m1", "m2"), up(vee, "m1"), ThomasonSet.empty(vee))
    assert level_sets(filt) == (-1, levels)
    assert filt.at(-5) == ThomasonSet.full(vee)
    assert filt.at(0).members == {"m1", "m2"}
    assert filt.at(1).members == {"m1"}
    assert filt.at(2).members == set()


def test_gaps_propagate_previous_value(vee):
    filt = make_filtration(
        vee,
        ThomasonSet.full(vee),
        [(0, up(vee, "m1", "m2")), (3, ThomasonSet.empty(vee))],
        ThomasonSet.empty(vee),
    )
    assert filt.at(1).members == {"m1", "m2"}
    assert filt.at(2).members == {"m1", "m2"}


def test_canonical_trim_maximizes_lo(vee):
    full, empty = ThomasonSet.full(vee), ThomasonSet.empty(vee)
    filt = make_filtration(vee, full, [(-2, full), (0, up(vee, "m1")), (1, empty)], empty)
    assert window(filt) == (0, 0)
    assert from_levels(vee, -3, (vee.full, vee.full, vee.full, up(vee, "m1").mask, 0, 0)) == filt


def test_pure_step_keeps_its_position(vee):
    full, empty = ThomasonSet.full(vee), ThomasonSet.empty(vee)
    step = make_filtration(vee, full, [(2, full), (3, empty)], empty)
    assert level_sets(step)[1][1:-1] == ()
    assert step.at(2) == ThomasonSet.full(vee)
    assert step.at(3).members == set()
    shifted = make_filtration(vee, full, [(0, empty)], empty)
    assert step != shifted
    assert shifted.at(-1) == ThomasonSet.full(vee) and shifted.at(0).members == set()
    assert from_levels(vee, 0, (vee.full, vee.full, vee.full, 0, 0)) == step
    assert from_levels(vee, -1, (vee.full, 0)) == shifted
    assert level_sets(step) == (2, (full, empty))


def test_constant_filtration(vee):
    filt = constant_filtration(vee, up(vee, "m1"))
    assert is_constant(filt)
    assert filt.at(-100) == filt.at(100)
    # all-equal levels anywhere give the constant, at lo = 0
    assert from_levels(vee, 7, (up(vee, "m1").mask,) * 3) == filt
    assert window(filt) == (0, -1)


def test_tails_differ_without_breakpoint_is_an_error(vee):
    with pytest.raises(FiltrationOrderError):
        make_filtration(vee, ThomasonSet.full(vee), [], ThomasonSet.empty(vee))


def test_non_decreasing_is_an_error(vee):
    with pytest.raises(FiltrationOrderError):
        make_filtration(
            vee,
            ThomasonSet.empty(vee),
            [(0, up(vee, "m1"))],
            ThomasonSet.empty(vee),
        )


def test_nondegenerate_and_constant_predicates(vee):
    full, empty = ThomasonSet.full(vee), ThomasonSet.empty(vee)
    nondeg = make_filtration(vee, full, [(0, empty)], empty)
    assert is_nondegenerate(nondeg) and not is_constant(nondeg)
    const = constant_filtration(vee, up(vee, "m1"))
    assert is_constant(const) and not is_nondegenerate(const)


def test_restrict_set(vee):
    # localize_sets restricts a set to every maximal point, m1 then m2
    assert [vee.labels(x) for x in row_masks(vee, localize_sets(up(vee, "m1", "m2")))] == [
        ("m1",),
        ("m2",),
    ]
    assert [vee.labels(x) for x in row_masks(vee, localize_sets(ThomasonSet.full(vee)))] == [
        ("m1", "p"),
        ("m2", "p"),
    ]


def test_restrict_filtration(vee):
    full, empty = ThomasonSet.full(vee), ThomasonSet.empty(vee)
    filt = make_filtration(
        vee, full, [(0, up(vee, "m1", "m2")), (1, up(vee, "m1"))], empty
    )
    local = members_of(localize_filtrations(filt))["m1"]
    assert local.at(-1) == ThomasonSet.full(local.poset)
    assert local.at(0).members == {"m1"}
    assert local.at(1).members == {"m1"}
    assert local.at(2).members == set()
    # a step only m1 sees restricts to a pure step at m1 and a constant at m2
    step = make_filtration(vee, up(vee, "m1"), [(1, empty)], empty)
    members = members_of(localize_filtrations(step))
    assert is_constant(members["m2"])
    at_m1 = members["m1"]
    assert level_sets(at_m1)[1][1:-1] == () and window(at_m1) == (1, 0)


def test_set_json_roundtrip(vee):
    for s in (ThomasonSet.full(vee), ThomasonSet.empty(vee), up(vee, "m1", "m2")):
        assert set_from_json(vee, set_to_json(s)) == s
    assert set_to_json(ThomasonSet.full(vee)) == "full"


def test_filtration_json_roundtrip_including_steps(vee):
    full, empty = ThomasonSet.full(vee), ThomasonSet.empty(vee)
    for filt in (
        make_filtration(vee, full, [(0, up(vee, "m1"))], empty),
        make_filtration(vee, full, [(3, empty)], empty),
        constant_filtration(vee, up(vee, "m2")),
        from_levels(vee, -4, (vee.full, vee.full, 0)),
        from_levels(vee, 0, (0, 0, 0)),
    ):
        assert filtration_from_json(vee, filtration_to_json(filt)) == filt


def test_malformed_filtration_json(vee):
    with pytest.raises(InvalidInputError):
        filtration_from_json(vee, {"low_tail": "full"})
