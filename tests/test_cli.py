import hashlib
import importlib.util
import json
import time
from pathlib import Path

import pytest

from spectral_glue import PolyQuot, ProductRing, ThomasonSet, ZMod, catalog, sweeps
from spectral_glue.cli import main
from spectral_glue.errors import InvalidInputError
from spectral_glue.rings import spec

Z12 = {"kind": "zmod", "n": 12}
FILT = {"low_tail": "full", "breakpoints": [{"n": 0, "set": ["(2)"]}], "high_tail": []}
VEE = {"elements": ["p", "m1", "m2"], "leq": [["p", "m1"], ["p", "m2"]]}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def ring_file(tmp_path):
    return write(tmp_path, "ring.json", Z12)


@pytest.fixture
def filt_file(tmp_path):
    return write(tmp_path, "filt.json", FILT)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_spec(capsys, ring_file):
    code, out = run(capsys, "spec", "--ring", ring_file)
    assert code == 0
    assert "(2)" in out and "(3)" in out


def test_spec_json_mode_is_sorted(capsys, ring_file):
    code, out = run(capsys, "--json", "spec", "--ring", ring_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["maximal"] == ["(2)", "(3)"]


def test_glue_and_compat(capsys, tmp_path, ring_file):
    fam = write(tmp_path, "fam.json", {"poset": Z12, "default": FILT})
    code, out = run(capsys, "--json", "glue", "--family", fam)
    assert code == 0
    assert json.loads(out)["glued"] == FILT
    assert run(capsys, "compat-check", "--family", fam)[0] == 0


def test_incompatible_family_exits_1_with_witness(capsys, tmp_path):
    fam = write(
        tmp_path,
        "bad.json",
        {
            "poset": VEE,
            "exceptions": {
                "m1": {"low_tail": "full", "breakpoints": [{"n": 0, "set": []}], "high_tail": []},
                "m2": {
                    "low_tail": "full",
                    "breakpoints": [{"n": 0, "set": ["p", "m2"]}],
                    "high_tail": ["p", "m2"],
                },
            },
        },
    )
    code, out = run(capsys, "--json", "compat-check", "--family", fam)
    assert code == 1
    payload = json.loads(out)
    assert payload["compatible"] is False
    assert payload["witness"][2] == "p"
    assert run(capsys, "glue", "--family", fam)[0] == 1


def test_lemma_equiv(capsys, tmp_path):
    fam = write(tmp_path, "fam.json", {"poset": Z12, "default": FILT})
    assert run(capsys, "lemma-equiv", "--family", fam)[0] == 0


def test_localize(capsys, ring_file, filt_file):
    code, out = run(capsys, "--json", "localize", "--ring", ring_file, "--filtration", filt_file)
    assert code == 0
    assert set(json.loads(out)["localizations"]) == {"(2)", "(3)"}


INTEGERS = {"kind": "integers"}


@pytest.mark.parametrize("ring", [Z12, INTEGERS], ids=["finite", "integers"])
@pytest.mark.parametrize("index", ["a", 1.5, True])
def test_localize_rejects_non_integer_breakpoint_index(capsys, ring, index):
    filt = {"low_tail": "full", "breakpoints": [{"n": index, "set": []}], "high_tail": []}
    code = main(["localize", "--ring", json.dumps(ring), "--filtration", json.dumps(filt)])
    err = capsys.readouterr().err
    assert code == 2
    assert "breakpoint index" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "filt, expected",
    [
        (
            {"low_tail": "full", "breakpoints": [{"n": 0, "set": [2, 3]}, {"n": 1, "set": [3]}], "high_tail": []},
            {
                "default": {"breakpoints": [{"n": -1, "set": "full"}], "high_tail": [], "low_tail": "full"},
                "exceptions": {
                    "2": {"breakpoints": [{"n": 0, "set": ["(2)"]}], "high_tail": [], "low_tail": "full"},
                    "3": {
                        "breakpoints": [{"n": 0, "set": ["(3)"]}, {"n": 1, "set": ["(3)"]}],
                        "high_tail": [],
                        "low_tail": "full",
                    },
                },
            },
        ),
        (
            {"low_tail": "full", "breakpoints": [{"n": 2, "set": "full"}], "high_tail": []},
            {
                "default": {"breakpoints": [{"n": 2, "set": "full"}], "high_tail": [], "low_tail": "full"},
                "exceptions": {},
            },
        ),
    ],
    ids=["multi-breakpoint", "pure-step"],
)
def test_localize_integers_json_bytes(capsys, filt, expected):
    code, out = run(
        capsys, "--json", "localize", "--ring", json.dumps(INTEGERS), "--filtration", json.dumps(filt)
    )
    assert code == 0
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_koszul_and_cohomology(capsys, tmp_path, ring_file):
    code, out = run(capsys, "--json", "koszul", "--ring", ring_file, "--generators", "[6]")
    assert code == 0
    payload = json.loads(out)
    assert payload["cohomology"]["0"]["order"] == 6
    cx = write(
        tmp_path,
        "cx.json",
        {"terms": {"0": {"module": {"relations": [[3]]}}}, "differentials": {}},
    )
    code, out = run(capsys, "--json", "cohomology", "--ring", ring_file, "--complex", cx)
    assert code == 0
    assert json.loads(out)["cohomology"]["0"]["order"] == 3


def test_derived_hom_exit_codes(capsys, tmp_path, ring_file):
    k2 = write(
        tmp_path,
        "k2.json",
        {"terms": {"-1": {"free": 1}, "0": {"free": 1}}, "differentials": {"-1": [[2]]}},
    )
    z3 = write(
        tmp_path, "z3.json", {"terms": {"0": {"module": {"relations": [[3]]}}}, "differentials": {}}
    )
    z2 = write(
        tmp_path, "z2.json", {"terms": {"0": {"module": {"relations": [[2]]}}}, "differentials": {}}
    )
    assert run(capsys, "derived-hom", "--ring", ring_file, "--complex", k2, "--target", z3)[0] == 0
    assert run(capsys, "derived-hom", "--ring", ring_file, "--complex", k2, "--target", z2)[0] == 1


def test_aisle_and_coaisle(capsys, tmp_path, ring_file, filt_file):
    z2 = write(
        tmp_path, "z2.json", {"terms": {"0": {"module": {"relations": [[2]]}}}, "differentials": {}}
    )
    z3 = write(
        tmp_path, "z3.json", {"terms": {"0": {"module": {"relations": [[3]]}}}, "differentials": {}}
    )
    base = ["--ring", ring_file, "--filtration", filt_file, "--complex"]
    assert run(capsys, "aisle-test", *base, z2)[0] == 0
    assert run(capsys, "aisle-test", *base, z3)[0] == 1
    assert run(capsys, "coaisle-test", *base, z3)[0] == 0
    assert run(capsys, "coaisle-test", *base, z2)[0] == 1


def test_coaisle_test_reads_supports_of_a_complex_too_large_to_enumerate(capsys):
    """R^6 --1--> R^6 in degrees -1, 0 is acyclic, so it lies in every
    coaisle; its Hom groups out of a Koszul complex are too large to list."""
    identity = [[int(i == j) for j in range(6)] for i in range(6)]
    cx = {"terms": {"-1": {"free": 6}, "0": {"free": 6}}, "differentials": {"-1": identity}}
    filt = {"low_tail": "full", "breakpoints": [{"n": 0, "set": ["(2)"]}], "high_tail": []}
    argv = ["--ring", json.dumps(Z12), "--filtration", json.dumps(filt)]
    start = time.monotonic()
    code, out = run(capsys, "coaisle-test", *argv, "--complex", json.dumps(cx))
    assert time.monotonic() - start < 1
    assert (code, out) == (0, "in coaisle\n")


def test_tstr_verbs(capsys, ring_file, filt_file):
    code, out = run(capsys, "tstr-classify", "--ring", ring_file, "--filtration", filt_file)
    assert code == 0 and "nondegenerate" in out
    code, out = run(
        capsys, "--json", "tstr-localize", "--ring", ring_file, "--filtration", filt_file
    )
    assert code == 0
    locs = json.loads(out)["localizations"]
    assert locs["(2)"]["ring"] == {"kind": "zmod", "n": 4}


def test_torsion_verbs(capsys, tmp_path, ring_file):
    mod = write(tmp_path, "m.json", {"relations": [], "rank": 1})
    code, out = run(
        capsys, "--json", "torsion", "--ring", ring_file, "--module", mod, "--set", '["(2)"]'
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["torsion_submodule"]["order"] == 4
    assert run(capsys, "torsion-roundtrip", "--ring", ring_file)[0] == 0


def test_cosilting_verbs(capsys, tmp_path):
    cos = write(
        tmp_path,
        "cos.json",
        {"ring": Z12, "q0": {"relations": [[3]]}, "q1": {"relations": [[4]]}, "eta": [[0]]},
    )
    code, out = run(capsys, "--json", "cosilting-set", "--cosilting", cos)
    assert code == 0
    payload = json.loads(out)
    assert payload["thomason"] == ["(2)"] and payload["cosilting_verified"]
    code, out = run(capsys, "--json", "cosilting-split", "--cosilting", cos)
    assert code == 0
    assert set(json.loads(out)["components"]) == {"(2)", "(3)"}
    fam = write(
        tmp_path,
        "cosfam.json",
        {
            "ring": Z12,
            "components": {
                "(2)": {"q0": {"relations": [[1]]}, "q1": {"relations": [[0]]}, "eta": []},
                "(3)": {"q0": {"relations": [[0]]}, "q1": {"relations": [[1]]}, "eta": [[0]]},
            },
        },
    )
    code, out = run(capsys, "--json", "cosilting-glue", "--family", fam)
    assert code == 0
    assert json.loads(out)["thomason"] == ["(2)"]


def test_integers_family(capsys, tmp_path):
    fam = write(
        tmp_path,
        "zfam.json",
        {
            "poset": {"kind": "integers"},
            "default": {"low_tail": "full", "breakpoints": [{"n": 0, "set": []}], "high_tail": []},
            "exceptions": {
                "2": {"low_tail": "full", "breakpoints": [{"n": 0, "set": ["(2)"]}], "high_tail": []}
            },
        },
    )
    code, out = run(capsys, "--json", "glue", "--family", fam)
    assert code == 0
    assert json.loads(out)["glued"]["breakpoints"] == [{"n": 0, "set": [2]}]


# the canonical bytes of ``--json fuzz``, the same under any PYTHONHASHSEED
FUZZ_DIGESTS = {
    ("--max-poset", "2", "--max-ring", "6"):
        "e5c14419a05506b7056ffe908670da4a9af719adf08407225dd0576d45d9a151",
    # the default bounds
    (): "0f2865f15785f995235fa3fb410b0931a0ac972d01b4baa20ea5cf60b3a003a1",
}


def test_fuzz_small_and_deterministic(capsys):
    for bounds, expected in FUZZ_DIGESTS.items():
        args = ["--json", "fuzz", *bounds]
        code, out1 = run(capsys, *args)
        assert code == 0
        _, out2 = run(capsys, *args)
        assert out1 == out2
        reports = json.loads(out1)["reports"]
        assert all(r["ok"] for r in reports)
        assert hashlib.sha256(out1.encode()).hexdigest() == expected, bounds


def _benchmark_sweeps():
    """The ``sweep_*`` names that ``perfbench/workloads.py`` calls with ``jobs=1``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {
        func: step for steps in workloads.SWEEP_STEPS.values() for step, func, _ in steps
    }


TINY_BOUNDS = {
    "sweep_set_gluing": {"max_poset": 2},
    "sweep_lemma_equiv": {"max_poset": 2},
    "sweep_filtration_bijection": {"max_poset": 2, "window": (0, 0)},
    "sweep_koszul_support": {"max_n": 4, "max_p": 2, "max_deg": 1},
    "sweep_orthogonality": {"max_ring": 4, "window": (0, 0)},
    "sweep_local_global": {"max_ring": 6, "window": (0, 0)},
    "sweep_torsion": {"max_n": 4},
}


def _count_item(report, item, **_):
    report.checked += 1


def test_sweeps_take_jobs_1_only(monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--jobs", "2"])
    assert exc.value.code == 2
    # the driver contract, not the properties: every per-item check only
    # counts its item, so the fixed cosilting and adjunction corpora run fast
    for name in [n for n in vars(sweeps) if n.startswith("_check_")]:
        monkeypatch.setattr(sweeps, name, _count_item)
    benchmarked = _benchmark_sweeps()
    assert len(benchmarked) == 9
    for func, step in sorted(benchmarked.items()):
        sweep = getattr(sweeps, func)
        report = sweep(jobs=1, **TINY_BOUNDS.get(func, {}))
        assert report.name == step
        assert list(report.details.values()) == [report.checked] and report.checked > 0
        with pytest.raises(InvalidInputError, match="jobs"):
            sweep(jobs=2, **TINY_BOUNDS.get(func, {}))


def test_malformed_json_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["spec", "--ring", str(bad)]) == 2
    bad.write_bytes(b"\xff\xfe{")  # not UTF-8
    assert main(["spec", "--ring", str(bad)]) == 2
    assert "malformed JSON in --ring" in capsys.readouterr().err
    assert main(["spec", "--ring", '{"kind":"zmod","n":%s}' % ("1" * 5000)]) == 2
    err = capsys.readouterr().err
    assert "--ring" in err and "4300 digits" in err and "set_int_max_str_digits" not in err


def test_domain_error_names_the_invariant(capsys, ring_file, tmp_path):
    bad_filt = write(
        tmp_path,
        "bad.json",
        {"low_tail": [], "breakpoints": [{"n": 0, "set": "full"}], "high_tail": "full"},
    )
    assert main(["tstr-classify", "--ring", ring_file, "--filtration", bad_filt]) == 2


# -- wire validation, finite-only verbs, recorded bytes ----------------------


Z_DEFAULT = {"low_tail": "full", "breakpoints": [{"n": 0, "set": []}], "high_tail": []}
COS_Z12 = {"ring": Z12, "q0": {"relations": [[3]]}, "q1": {"relations": [[4]]}}


def localize_on(poset):
    return ["localize", "--poset", poset, "--filtration", json.dumps(FILT)]


def localize_filtration(filt):
    return ["localize", "--ring", json.dumps(Z12), "--filtration", filt]


def cohomology_of(cx):
    return ["cohomology", "--ring", json.dumps(Z12), "--complex", json.dumps(cx)]


def step_at(n):
    return {"low_tail": "full", "breakpoints": [{"n": n, "set": []}], "high_tail": []}


FAR_BREAKPOINTS = {
    "low_tail": "full",
    "breakpoints": [{"n": 0, "set": "full"}, {"n": 30_000_000, "set": []}],
    "high_tail": [],
}
FAR_STEPS = {"poset": {"elements": ["a", "b"]}, "exceptions": {"a": step_at(0), "b": step_at(10**8)}}
CHAIN_AB = {"elements": ["a", "b"], "leq": [["a", "b"]]}
# a factor, and a product of factors, too large for len(range(order)) to answer
HUGE_FACTOR = {"kind": "product", "factors": [{"kind": "zmod", "n": 10**400 + 1},
                                              {"kind": "poly_quot", "p": 2, "f": [0, 0, 1]}]}
WIDE_PRODUCT = {"kind": "product", "factors": [{"kind": "zmod", "n": 1000}] * 40}
# 3^12 squared: a two-point Spec on about 2.8e11 elements, within every bound but the tables'
TWO_POINT_PRODUCT = {"kind": "product", "factors": [{"kind": "zmod", "n": 531441}] * 2}
# Z/1000 cubed: six local factors, none over the table bound, on 10^9 elements
SMALL_FACTORS_PRODUCT = {"kind": "product", "factors": [{"kind": "zmod", "n": 1000}] * 3}
# Z/30 to the eighth: 24 points, so 2^24 Thomason sets if they were listed first
MANY_POINT_PRODUCT = {"kind": "product", "factors": [{"kind": "zmod", "n": 30}] * 8}
BIG_PRIME = 1000000000000000003  # trial division takes about a minute
STEP_AT_2 = {"low_tail": "full", "breakpoints": [{"n": 0, "set": ["(2)"]}], "high_tail": []}
EMPTY_FILT = {"low_tail": [], "breakpoints": [], "high_tail": []}


def z_level(p):
    filt = {"low_tail": [p], "breakpoints": [{"n": 0, "set": []}], "high_tail": []}
    return ["localize", "--ring", json.dumps(INTEGERS), "--filtration", json.dumps(filt)]


def z_key(key):
    family = {"poset": INTEGERS, "default": Z_DEFAULT, "exceptions": {key: Z_DEFAULT}}
    return ["compat-check", "--family", json.dumps(family)]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["spec", "--ring", '{"kind": "zmod", "n": 12.5}'], "'n'"),
        (["spec", "--ring", '{"kind": "zmod", "n": true}'], "'n'"),
        (["spec", "--ring", '{"kind": "zmod"}'], "'n'"),
        (["spec", "--ring", '{"kind": "poly_quot", "p": "3", "f": [2, 0, 1]}'], "'p'"),
        (["spec", "--ring", '{"kind": "poly_quot", "p": 3, "f": [2, 0.5, 1]}'], "'f'"),
        (["spec", "--ring", '{"kind": "poly_quot", "p": 3, "f": "x^2+2"}'], "'f'"),
        (["spec", "--ring", '{"kind": "product", "factors": {"kind": "zmod", "n": 4}}'], "'factors'"),
        (["spec", "--ring", '{"kind": "product", "factors": [[4]]}'], "'kind'"),
        (["localize", "--ring", "[1]", "--filtration", "{}"], "'kind'"),
        (["cosilting-set", "--cosilting", '{"q0": {"rank": 1}, "q1": {"rank": 1}}'], "field 'ring'"),
        (["torsion", "--ring", json.dumps(Z12), "--module", "[1]", "--set", "[]"], "module JSON"),
        (["torsion", "--ring", json.dumps(Z12), "--module", '{"rank": "a"}', "--set", "[]"], "'rank'"),
        (["cohomology", "--ring", json.dumps(Z12), "--complex", "[1]"], "complex JSON"),
        (["cohomology", "--ring", json.dumps(Z12), "--complex", '{"terms": [1]}'], "'terms'"),
        (["glue", "--family", "[1]"], "family JSON"),
        (["glue", "--family", json.dumps({"poset": Z12, "exceptions": [1]})], "'exceptions'"),
        (["cosilting-glue", "--family", json.dumps({"ring": Z12, "components": [1]})], "'components'"),
        (["glue", "--family", json.dumps({"poset": INTEGERS, "default": Z_DEFAULT,
                                          "exceptions": {"(2)": Z_DEFAULT}})], "key '(2)'"),
        (["cosilting-set", "--cosilting", json.dumps(dict(COS_Z12, eta=5))], "'eta'"),
        (["cosilting-set", "--cosilting", json.dumps(dict(COS_Z12, eta=[5]))], "'eta'"),
        (["cosilting-set", "--cosilting", json.dumps(dict(COS_Z12, eta=[[0, 5]]))], "'eta'"),
        (["cohomology", "--ring", json.dumps(Z12), "--complex", '{"terms": {"0": {"free": true}}}'], "'free'"),
        (["cohomology", "--ring", json.dumps(Z12), "--complex", '{"terms": {"0": {"free": "1"}}}'], "'free'"),
        (["cohomology", "--ring", json.dumps(Z12), "--complex", '{"terms": {"0": 1}}'], "degree 0"),
        (localize_on('{"elements": "ab"}'), "'elements'"),
        (localize_on('{"elements": [1, 2]}'), "'elements'"),
        (localize_on('{"elements": ["a", "a"]}'), "'elements'"),
        (localize_on('{"elements": ["a"], "leq": [["a"]]}'), "'leq'"),
        (localize_on('{"elements": ["a"], "leq": [["a", "a", "a"]]}'), "'leq'"),
        (localize_on('{"elements": ["a"], "leq": "x"}'), "'leq'"),
        (localize_on('{"elements": ["a"], "leq": [["a", "b"]]}'), "'leq'"),
        (localize_on("[1]"), "poset JSON"),
        (cohomology_of({"terms": {"x": {"free": 1}}}), "'terms' key 'x'"),
        (cohomology_of({"terms": {"1_0": {"free": 1}}}), "'terms' key '1_0'"),
        (cohomology_of({"terms": {"0": {"free": 1}}, "differentials": {"x": [[1]]}}), "'differentials' key 'x'"),
        (cohomology_of({"terms": {"0": {"free": 1}}, "differentials": {"1_0": [[1]]}}), "'differentials' key '1_0'"),
        (["fuzz", "--max-poset", "7"], "bound of 6"),
        (["fuzz", "--max-poset", "2", "--max-ring", "4", "--window", "1", "-1"], "--window 1 -1"),
        (["fuzz", "--max-poset", "1", "--max-ring", "2", "--window", "-50", "50"],
         "window [-50, 50] lists more filtrations, or families of them, than the bound "
         "MAX_FILTRATIONS = 10000"),
        (localize_filtration('{"low_tail": "full", "breakpoints": 5, "high_tail": []}'), "'breakpoints'"),
        (localize_filtration('{"low_tail": "full", "breakpoints": [5], "high_tail": []}'), "'breakpoints'"),
        (localize_filtration("[1]"), "filtration JSON"),
        (["koszul", "--ring", json.dumps(Z12), "--generators", json.dumps(list(range(17)))],
         "enumeration bound of 2000000"),
        (["koszul", "--ring", json.dumps(Z12), "--generators", json.dumps([1] * 40)],
         "rank at least 40 over a ring of 12 elements, over the enumeration bound of 2000000"),
        (["koszul", "--ring", json.dumps(Z12), "--generators", json.dumps([1] * 10_000)],
         "enumeration bound of 2000000"),
        (cohomology_of({"terms": {"0": {"module": {"rank": 10**7}}}}),
         "free module of rank 10000000 too large to enumerate"),
        (["koszul", "--ring", json.dumps(Z12), "--generators", "[]"], "'generators'"),
        (["koszul", "--ring", json.dumps(HUGE_FACTOR), "--generators", "[[2, [0, 1]]]"],
         "MAX_MODULUS = 1000000"),
        (["koszul", "--ring", json.dumps(WIDE_PRODUCT), "--generators", json.dumps([[1] * 40])],
         "rank 1 over a ring of 10000000000"),
        (["cohomology", "--ring", json.dumps(WIDE_PRODUCT),
          "--complex", '{"terms": {"0": {"free": 1}}}'], "free module of rank 1 too large"),
        (["torsion-roundtrip", "--ring", json.dumps(TWO_POINT_PRODUCT)],
         "ring tables are limited to 1048576 entries"),
        (["torsion-roundtrip", "--ring", json.dumps(SMALL_FACTORS_PRODUCT)],
         "ring tables are limited to 1048576 entries"),
        (["torsion-roundtrip", "--ring", json.dumps(MANY_POINT_PRODUCT)],
         "ring tables are limited to 1048576 entries"),
        (["spec", "--ring", '{"kind": "zmod", "n": -999999996}'], "'n'"),
        (["spec", "--ring", '{"kind": "poly_quot", "p": 11, "f": [2, 0, 1]}'], "'p' <= 7"),
        (["spec", "--ring", '{"kind": "poly_quot", "p": 3, "f": [2, 3]}'], "'f'"),
        (["spec", "--ring", '{"kind": "product", "factors": []}'], "'factors'"),
        (["koszul", "--ring", json.dumps(Z12), "--generators", '{"a": 1}'], "'generators'"),
        (["koszul", "--ring", json.dumps(Z12), "--generators", '"ab"'], "'generators'"),
        (["koszul", "--ring", json.dumps(Z12), "--generators", "5"], "'generators'"),
        (["localize", "--poset", '{"elements":["a"]}', "--filtration", json.dumps(FAR_BREAKPOINTS)],
         "MAX_DEGREE_SPAN = 1000"),
        (["compat-check", "--family", json.dumps(FAR_STEPS)], "MAX_DEGREE_SPAN = 1000"),
        (["glue", "--family", json.dumps({"poset": CHAIN_AB, "default": step_at(0),
                                          "exceptions": {"a": step_at(0)}})], "key 'a'"),
        (["spec", "--ring", '{"kind": "zmod", "n": %s}' % ("1" * 5000)], "--ring"),
        (z_key("1" * 5000), "MAX_Z_PRIME = 1000000"),
        (z_level(10**400 + 1), "MAX_Z_PRIME = 1000000"),
        (z_level(BIG_PRIME), "MAX_Z_PRIME = 1000000"),
        (z_key(str(BIG_PRIME)), "MAX_Z_PRIME = 1000000"),
        (["glue", "--family", json.dumps({"poset": INTEGERS, "default": Z_DEFAULT,
                                          "exceptions": {"2": STEP_AT_2, "02": EMPTY_FILT}})],
         "keys '2' and '02' name the same prime 2"),
        (["fuzz", "--max-poset", "1", "--max-ring", "301"], "MAX_CATALOG_RING = 300"),
        (["fuzz", "--max-poset", "1", "--max-ring", str(10**9)], "MAX_CATALOG_RING = 300"),
    ],
    ids=["n-float", "n-bool", "n-missing", "p-string", "f-float", "f-string", "factors-object",
         "factor-list", "ring-list", "cosilting-without-ring", "module-list", "module-rank",
         "complex-list", "complex-terms", "family-list", "family-exceptions",
         "cosilting-components", "z-family-key", "eta-int", "eta-flat", "eta-long-row",
         "free-bool", "free-string", "term-int", "elements-string", "elements-int",
         "elements-duplicate", "leq-single", "leq-triple", "leq-string", "leq-unknown", "poset-list",
         "terms-key-x", "terms-key-underscore", "differentials-key-x",
         "differentials-key-underscore", "fuzz-max-poset-7", "fuzz-window-reversed",
         "fuzz-window-wide", "breakpoints-int",
         "breakpoints-int-list", "filtration-list", "koszul-17-generators",
         "koszul-generators-40", "koszul-generators-10000", "module-rank-huge",
         "koszul-generators-empty", "koszul-factor-401-digits", "koszul-product-120-digits",
         "free-over-product-120-digits", "torsion-roundtrip-two-point-product",
         "torsion-roundtrip-small-factors", "torsion-roundtrip-24-points", "n-negative",
         "p-over-7", "f-constant", "factors-empty",
         "generators-object", "generators-string", "generators-int", "breakpoints-far-apart",
         "family-windows-far-apart", "exception-not-maximal", "literal-5000-digits",
         "z-key-5000-digits", "z-level-401-digits", "z-level-big-prime", "z-key-big-prime",
         "z-key-duplicate-prime", "fuzz-max-ring-301", "fuzz-max-ring-huge"],
)
def test_ring_json_is_validated_at_the_wire(capsys, argv, field):
    start = time.monotonic()
    code = main(argv)
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert code == 2
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("verb", ["glue", "compat-check", "lemma-equiv"])
def test_a_family_over_the_empty_poset_is_a_constant(capsys, verb):
    family = json.dumps({"poset": {"elements": []}, "exceptions": {}})
    code, out = run(capsys, "--json", verb, "--family", family)
    assert code == 0
    if verb == "glue":
        assert json.loads(out)["glued"] == {"low_tail": "full", "breakpoints": [], "high_tail": "full"}


FAR_STEP = {"low_tail": ["m1"], "breakpoints": [{"n": 2000, "set": []}], "high_tail": []}
FAR_Z_STEP = {"low_tail": [3], "breakpoints": [{"n": 2000, "set": []}], "high_tail": []}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["localize", "--poset", json.dumps(VEE), "--filtration", json.dumps(FAR_STEP)],
            {
                "localizations": {
                    "m1": {"low_tail": ["m1"], "breakpoints": [{"n": 1999, "set": ["m1"]}],
                           "high_tail": []},
                    "m2": {"low_tail": [], "breakpoints": [], "high_tail": []},
                }
            },
        ),
        (
            ["glue", "--family", json.dumps({"poset": VEE, "default": FAR_STEP})],
            {"compatible": True, "glued": {"low_tail": ["m1"], "high_tail": [],
                                           "breakpoints": [{"n": 1999, "set": ["m1"]}]}},
        ),
        (
            ["lemma-equiv", "--family", json.dumps({"poset": VEE, "default": FAR_STEP})],
            {"degrees": {"1999": True, "2000": True}, "equivalence_holds": True},
        ),
        (
            ["localize", "--ring", json.dumps(INTEGERS), "--filtration", json.dumps(FAR_Z_STEP)],
            {
                "default": {"low_tail": [], "breakpoints": [], "high_tail": []},
                "exceptions": {"3": {"low_tail": ["(3)"], "high_tail": [],
                                     "breakpoints": [{"n": 1999, "set": ["(3)"]}]}},
            },
        ),
    ],
    ids=["localize", "glue", "lemma-equiv", "localize-integers"],
)
def test_a_far_step_beside_constant_members_is_not_refused(capsys, argv, expected):
    """One breakpoint at 2000: the members that are constant read the same at
    every degree, so they neither widen the degree span nor get visited."""
    start = time.monotonic()
    code, out = run(capsys, "--json", *argv)
    assert time.monotonic() - start < 1
    assert code == 0 and json.loads(out) == expected


def test_a_reversed_window_is_refused_by_the_enumerator(z12_poset):
    with pytest.raises(InvalidInputError, match=r"window \[1, -1\] is reversed"):
        catalog.all_filtrations(z12_poset, 1, -1)


@pytest.mark.parametrize("level", [["(2)"], [2.7], [True], "(2)"], ids=["label", "float", "bool", "string"])
def test_localize_integers_rejects_non_integer_primes(capsys, level):
    filt = {"low_tail": "full", "breakpoints": [{"n": 0, "set": level}], "high_tail": []}
    code = main(["localize", "--ring", json.dumps(INTEGERS), "--filtration", json.dumps(filt)])
    err = capsys.readouterr().err
    assert code == 2
    assert "integer primes" in err and "Traceback" not in err


STEP_AT_0 = {"low_tail": "full", "breakpoints": [{"n": 0, "set": []}], "high_tail": []}


@pytest.mark.parametrize(
    "family",
    [
        # incompatible only on the high tails, degree 0
        {
            "poset": VEE,
            "exceptions": {
                "m1": {"low_tail": "full", "breakpoints": [], "high_tail": "full"},
                "m2": STEP_AT_0,
            },
        },
        # over Z the default disagrees with the exception at 2 from degree 0 on
        {
            "poset": INTEGERS,
            "default": {
                "low_tail": "full",
                "breakpoints": [{"n": 0, "set": ["(m)"]}, {"n": 1, "set": []}],
                "high_tail": [],
            },
            "exceptions": {"2": {"low_tail": "full", "breakpoints": [], "high_tail": "full"}},
        },
    ],
    ids=["finite-tails", "integers"],
)
def test_glue_names_the_degree_and_witness_of_compat_check(capsys, family):
    results = []
    for verb in ("glue", "compat-check"):
        code, out = run(capsys, "--json", verb, "--family", json.dumps(family))
        results.append((code, json.loads(out)))
    assert results[0] == results[1]
    assert results[0][1]["degree"] == 0


def test_integers_order_error_names_primes(capsys):
    breakpoints = [{"n": 0, "set": [2]}, {"n": 1, "set": [2, 3]}]
    filt = {"low_tail": "full", "breakpoints": breakpoints, "high_tail": []}
    code = main(["localize", "--ring", json.dumps(INTEGERS), "--filtration", json.dumps(filt)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: filtration not decreasing at degree 1: [2, 3] is not contained in [2]\n"
    )
    filt = {"low_tail": [3], "breakpoints": [{"n": 0, "set": [3]}], "high_tail": "full"}
    assert main(["localize", "--ring", json.dumps(INTEGERS), "--filtration", json.dumps(filt)]) == 2
    assert "high tail: full is not contained in [3]" in capsys.readouterr().err


FULL = json.dumps({"low_tail": "full", "breakpoints": [], "high_tail": []})
FREE = json.dumps({"terms": {"0": {"free": 1}}})
Z = json.dumps(INTEGERS)


@pytest.mark.parametrize(
    "argv",
    [
        ["spec", "--ring", Z],
        ["koszul", "--ring", Z, "--generators", "[2]"],
        ["cohomology", "--ring", Z, "--complex", FREE],
        ["derived-hom", "--ring", Z, "--complex", "{}", "--target", "{}"],
        ["aisle-test", "--ring", Z, "--filtration", FULL, "--complex", FREE],
        ["coaisle-test", "--ring", Z, "--filtration", FULL, "--complex", FREE],
        ["tstr-localize", "--ring", Z, "--filtration", FULL],
        ["tstr-classify", "--ring", Z, "--filtration", FULL],
        ["torsion", "--ring", Z, "--module", '{"rank": 1}', "--set", "[]"],
        ["torsion-roundtrip", "--ring", Z],
        ["cosilting-set", "--cosilting", json.dumps({"ring": INTEGERS, "q0": {"rank": 1}, "q1": {"rank": 1}})],
        ["spec", "--ring", json.dumps({"kind": "product", "factors": [INTEGERS, Z12]})],
    ],
    ids=lambda argv: argv[0] if "product" not in argv[-1] else "product-factor",
)
def test_finite_verbs_reject_the_integers(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


with open(Path(__file__).parent / "data" / "cli_golden.json") as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_bytes_match_the_recording(capsys, name):
    """stdout recorded before rings became tables, for F_3[x]/(x^2-1),
    Z/4 x F_2[x]/(x^2) and spectra of rings too large to tabulate, before
    module maps became graphs, for cosilting data with a nonzero eta, before
    posets became bit masks, for the gluing verbs, and before Spec(Z) became
    a finite star poset, for the verbs over the integers; a recording's
    "exit" is its exit code, 0 when absent, and its "stderr", when present,
    the error text of an exit 2."""
    code = main(GOLDEN[name]["argv"])
    captured = capsys.readouterr()
    assert code == GOLDEN[name].get("exit", 0)
    assert captured.out == GOLDEN[name]["stdout"]
    if "stderr" in GOLDEN[name]:
        assert captured.err == GOLDEN[name]["stderr"]


def test_spec_of_a_ring_too_large_to_tabulate(capsys):
    ring = json.dumps({"kind": "poly_quot", "p": 5, "f": [1, 0, 0, 0, 0, 0, 1]})
    start = time.monotonic()
    code, out = run(capsys, "spec", "--ring", ring)
    assert time.monotonic() - start < 5
    assert code == 0
    assert out == "Spec(F_5[x]/(x^6+1)) = ['(x+2)', '(x+3)', '(x^2+2x+4)', '(x^2+3x+4)']\n"
    assert main(["koszul", "--ring", ring, "--generators", "[[1]]"]) == 2
    assert "limited to 1048576 entries" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ring",
    [PolyQuot(3, (2, 0, 1)), ProductRing([ZMod(4), PolyQuot(2, (0, 0, 1))])],
    ids=["f3", "product"],
)
def test_koszul_witness_replays_with_one_call(capsys, monkeypatch, ring):
    # a support oracle that always answers "everything" makes every proper ideal a witness
    monkeypatch.setattr(
        sweeps.homalg, "support_of_cohomology", lambda kos, n: ThomasonSet.full(spec(kos.ring)[0])
    )
    report = sweeps.SweepReport("koszul_support")
    sweeps._check_koszul(report, ring)
    assert report.failures
    for witness in report.failures:
        argv = ["--json", "koszul", "--ring", json.dumps(witness["ring"])]
        code, out = run(capsys, *argv, "--generators", json.dumps(witness["generators"]))
        assert code == 0
        assert json.loads(out)["degrees"]["-1"]["free"] == len(witness["generators"])
