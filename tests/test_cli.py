import hashlib
import importlib.util
import json
import time
from pathlib import Path

import pytest

from spectral_glue import PolyQuot, ProductRing, ThomasonSet, ZMod, sweeps
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


def test_fuzz_small_and_deterministic(capsys):
    args = ["--json", "fuzz", "--max-poset", "2", "--max-ring", "6"]
    code, out1 = run(capsys, *args)
    assert code == 0
    _, out2 = run(capsys, *args)
    assert out1 == out2
    reports = json.loads(out1)["reports"]
    assert all(r["ok"] for r in reports)
    # the canonical bytes, the same under any PYTHONHASHSEED
    digest = hashlib.sha256(out1.encode()).hexdigest()
    assert digest == "e5c14419a05506b7056ffe908670da4a9af719adf08407225dd0576d45d9a151"


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


def test_malformed_json_is_a_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["spec", "--ring", str(bad)]) == 2


def test_domain_error_names_the_invariant(capsys, ring_file, tmp_path):
    bad_filt = write(
        tmp_path,
        "bad.json",
        {"low_tail": [], "breakpoints": [{"n": 0, "set": "full"}], "high_tail": "full"},
    )
    assert main(["tstr-classify", "--ring", ring_file, "--filtration", bad_filt]) == 2


# -- wire validation, finite-only verbs, recorded bytes ----------------------


Z_DEFAULT = {"low_tail": "full", "breakpoints": [{"n": 0, "set": []}], "high_tail": []}


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
    ],
    ids=["n-float", "n-bool", "n-missing", "p-string", "f-float", "f-string", "factors-object",
         "factor-list", "ring-list", "cosilting-without-ring", "module-list", "module-rank",
         "complex-list", "complex-terms", "family-list", "family-exceptions",
         "cosilting-components", "z-family-key"],
)
def test_ring_json_is_validated_at_the_wire(capsys, argv, field):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("level", [["(2)"], [2.7], [True], "(2)"], ids=["label", "float", "bool", "string"])
def test_localize_integers_rejects_non_integer_primes(capsys, level):
    filt = {"low_tail": "full", "breakpoints": [{"n": 0, "set": level}], "high_tail": []}
    code = main(["localize", "--ring", json.dumps(INTEGERS), "--filtration", json.dumps(filt)])
    err = capsys.readouterr().err
    assert code == 2
    assert "integer primes" in err and "Traceback" not in err


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
    Z/4 x F_2[x]/(x^2) and spectra of rings too large to tabulate."""
    code, out = run(capsys, *GOLDEN[name]["argv"])
    assert code == 0
    assert out == GOLDEN[name]["stdout"]


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
