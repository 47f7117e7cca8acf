"""The package's frozen value types behave as values: immutable, equal and
hashed by their fields and their type alone, with fixed reprs.

Every value here is built twice from the same fields, and again with one
field changed.  A cosilting module computes its kernel ``module`` at
construction, and modules compare by identity, so its value of equal fields
is a copy, and the one differing field of its other value is the kernel.
"""

import copy
import itertools

import pytest

from spectral_glue import FiniteModule, LocalFamily, ThomasonSet, ZMod
from spectral_glue.homalg import FreeTerm
from spectral_glue.rings import Ideal, LocalFactor, indecomposable_injectives
from spectral_glue.thomason import ThomasonFiltration, make_filtration
from spectral_glue.torsion_cosilting import CosiltingModule, cosilting_from_modules

from conftest import up


# on the vee, numbered m1, m2, p: the member at m1 runs {m1, p}, {m1}, {} and
# the member at m2 runs {m2, p}, {}, {}, each three levels of three bits
FAMILY = 0b000_000_110_000_001_101


@pytest.fixture
def samples(vee):
    """{type name: (value, a value of equal fields, [(field, a value that
    differs in that field alone)])} for the seven frozen types."""
    chain = type(vee)(["a", "b"], [("a", "b")])
    step = make_filtration(vee, ThomasonSet.full(vee), [(0, up(vee, "m1"))], ThomasonSet.empty(vee))
    z12, z6 = ZMod(12), ZMod(6)
    lf = z12.local_factors()[0]
    lf_fields = (lf.label, lf.prime_gen, lf.idempotent, lf.ring, lf.proj_table, lf.lift_of)
    other = object()
    cos = cosilting_from_modules(z12, indecomposable_injectives(z12)[:1])
    return {
        "ThomasonSet": (
            up(vee, "m1"),
            ThomasonSet(vee, up(vee, "m1").mask),
            [("poset", ThomasonSet(chain, up(vee, "m1").mask)), ("mask", up(vee, "m2"))],
        ),
        "ThomasonFiltration": (
            step,
            ThomasonFiltration(vee, step.start, step.length, step.packed),
            [
                ("poset", ThomasonFiltration(chain, step.start, step.length, step.packed)),
                ("start", ThomasonFiltration(vee, step.start + 1, step.length, step.packed)),
                ("length", ThomasonFiltration(vee, step.start, step.length + 1, step.packed)),
                ("packed", ThomasonFiltration(vee, step.start, step.length, step.packed ^ 1)),
            ],
        ),
        "LocalFamily": (
            LocalFamily(vee, -1, 3, FAMILY),
            LocalFamily(vee, -1, 3, FAMILY),
            [
                ("global_poset", LocalFamily(chain, -1, 3, FAMILY)),
                ("start", LocalFamily(vee, 0, 3, FAMILY)),
                ("length", LocalFamily(vee, -1, 2, FAMILY)),
                ("packed", LocalFamily(vee, -1, 3, FAMILY ^ 1)),
            ],
        ),
        "FreeTerm": (FreeTerm(3), FreeTerm(3), [("rank", FreeTerm(2))]),
        "LocalFactor": (
            lf,
            LocalFactor(*lf_fields),
            [
                (name, LocalFactor(*lf_fields[:k], other, *lf_fields[k + 1 :]))
                for k, name in enumerate(FIELDS["LocalFactor"])
            ],
        ),
        "Ideal": (
            Ideal(z12, (2, 3)),
            Ideal(z12, [2, 3]),
            [("ring", Ideal(z6, (2, 3))), ("generators", Ideal(z12, (3, 2)))],
        ),
        "CosiltingModule": (
            cos,
            copy.copy(cos),
            # the same map again: a kernel of its own
            [("module", CosiltingModule(z12, cos.q0, cos.q1, dict(cos.eta)))],
        ),
    }


FIELDS = {
    "ThomasonSet": ("poset", "mask"),
    "ThomasonFiltration": ("poset", "start", "length", "packed"),
    "LocalFamily": ("global_poset", "start", "length", "packed"),
    "FreeTerm": ("rank",),
    "LocalFactor": ("label", "prime_gen", "idempotent", "ring", "proj_table", "lift_of"),
    "Ideal": ("ring", "generators"),
    "CosiltingModule": ("ring", "q0", "q1", "eta", "module"),
}


def test_no_field_can_be_assigned_or_deleted(samples):
    assert samples.keys() == FIELDS.keys()
    for name, (value, _, _) in samples.items():
        for field in FIELDS[name]:
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, before)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is before, (name, field)


def test_values_compare_and_hash_by_their_fields(samples):
    for name, (value, same, variants) in samples.items():
        assert value is not same and value == same and not value != same, name
        assert copy.copy(value) == value, name
        if name != "CosiltingModule":  # its eta is a dict
            assert hash(value) == hash(same) == hash(copy.copy(value)), name
            assert len({value, same}) == 1, name
        for field, other in variants:
            assert value != other and not value == other, (name, field)
            assert getattr(value, field) != getattr(other, field), (name, field)


def test_no_value_equals_a_value_of_another_type(samples):
    values = [value for value, _, _ in samples.values()]
    for a, b in itertools.permutations(values, 2):
        assert a != b and not a == b
    # nor the tuple of its own fields
    for name, (value, _, _) in samples.items():
        assert value != tuple(getattr(value, field) for field in FIELDS[name]), name


def test_thomason_sets_are_ordered_by_inclusion_only(vee):
    low, high = up(vee, "m1"), up(vee, "m1", "m2")
    assert low <= high and high >= low and low <= low and low >= low
    assert not high <= low and not low >= high
    for compare in (lambda a, b: a < b, lambda a, b: a > b):
        with pytest.raises(TypeError):
            compare(low, high)


def test_reprs_are_unchanged(vee):
    family = LocalFamily(vee, -1, 3, FAMILY)
    assert repr(family) == (
        "LocalFamily(global_poset=SpectralPoset(['m1', 'm2', 'p'], [('p', 'm1'), ('p', 'm2')]), "
        "start=-1, length=3, packed=3085)"
    )
    assert repr(FreeTerm(3)) == "FreeTerm(rank=3)"
    assert repr(Ideal(ZMod(12), [2, 3])) == "Ideal(ring=Z/12, generators=(2, 3))"


def test_cached_properties_and_the_kernel_are_computed_once(monkeypatch):
    z12 = ZMod(12)
    lf = z12.local_factors()[0]
    assert lf.proj is lf.proj and lf.lift is lf.lift
    ideal = Ideal(z12, (2,))
    assert ideal.members is ideal.members and 4 in ideal and 3 not in ideal
    q0 = indecomposable_injectives(z12)[0]
    calls = []
    submodule = FiniteModule.submodule
    monkeypatch.setattr(FiniteModule, "submodule", lambda self, *a: calls.append(a) or submodule(self, *a))
    cos = CosiltingModule(z12, q0, q0, {x: x for x in q0.elements})
    assert len(calls) == 1
    assert cos.module.is_zero_module() and cos.torsion is cos.torsion
    assert len(calls) == 1
