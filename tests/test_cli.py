import json

import pytest

from spectral_glue.cli import main

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
