"""The summary of ``tools/bench_pairs.py`` on synthetic run records."""

import importlib.util
import json
import io
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {"wall_s": "lower", "pass_ratio": "higher"}


def records(workload, parent_walls, change_walls, correct=True, factor=1.0):
    """Run records as ``run_pairs`` makes them, pair by pair in the
    alternating order, with the given ``wall_s`` and ``pass_ratio`` 1; each
    run's raw pass time is its ``wall_s`` over the host factor ``factor``."""
    runs = []
    for pair, walls in enumerate(zip(parent_walls, change_walls), start=1):
        order = bench_pairs.SIDES if pair % 2 else bench_pairs.SIDES[::-1]
        for side in order:
            wall = walls[bench_pairs.SIDES.index(side)]
            metrics = {
                "wall_s": {"unit": "s", "value": wall},
                "pass_ratio": {"unit": "ratio", "value": 1.0},
            }
            result = {"correct": correct, "metrics": metrics}
            raw = {"raw_wall_s": wall / factor, "host_factor": factor}
            runs.append({"exit": 0, "first_in_pair": order[0], "pair": pair, "raw": raw,
                         "result": result, "seed": 41, "side": side, "workload": workload})
    return runs


def test_a_clear_gain_meets_the_ten_pair_rule():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.04, 0.96]
    change = [0.80, 0.82, 0.78, 0.81, 0.79, 0.83, 0.77, 0.80, 0.84, 0.99]
    summary = bench_pairs.summarize(records("w", parent, change), METRICS)["w"]
    assert summary["correct"] and summary["pairs"] == 10
    wall = summary["wall_s"]
    assert wall["change_wins"] == 9 and wall["ties"] == 0
    assert wall["parent"]["median"] == pytest.approx(1.0)
    assert wall["parent"]["q1"] == pytest.approx(0.9825)
    assert wall["parent"]["q3"] == pytest.approx(1.0175)
    assert wall["change"]["median"] == pytest.approx(0.805)
    assert wall["change_vs_parent"] == pytest.approx(-0.195)
    assert wall["median_gap_exceeds_parent_iqr"] and wall["ten_pair_rule"]
    ratio = summary["pass_ratio"]
    assert ratio["ties"] == 10 and ratio["change_wins"] == 0 and not ratio["ten_pair_rule"]


def test_the_rule_fails_on_eight_wins_on_a_small_gap_and_on_few_pairs():
    parent = [1.0 + 0.01 * k for k in range(10)]
    eight = [p - 0.2 for p in parent[:8]] + [p + 0.1 for p in parent[8:]]
    small = [p - 0.001 for p in parent]
    runs = records("eight", parent, eight) + records("small", parent, small)
    runs += records("five", parent[:5], small[:5])
    summary = bench_pairs.summarize(runs, METRICS)
    eight = summary["eight"]["wall_s"]
    assert eight["change_wins"] == 8 and not eight["ten_pair_rule"]
    small = summary["small"]["wall_s"]
    assert small["change_wins"] == 10 and not small["median_gap_exceeds_parent_iqr"]
    assert not small["ten_pair_rule"]
    assert summary["five"]["pairs"] == 5 and not summary["five"]["wall_s"]["ten_pair_rule"]


def test_a_worse_change_never_meets_the_rule_and_a_missing_side_is_not_correct():
    parent = [1.0] * 10
    worse = [2.0] * 10
    wall = bench_pairs.summarize(records("w", parent, worse), METRICS)["w"]["wall_s"]
    assert wall["median_gap_exceeds_parent_iqr"] and wall["change_wins"] == 0
    assert not wall["ten_pair_rule"]
    runs = records("w", parent[:3], parent[:3])
    runs[-1]["result"] = None  # a crashed run prints no result line
    summary = bench_pairs.summarize(runs, METRICS)["w"]
    assert summary["pairs"] == 2 and not summary["correct"]
    wrong = records("w", [1.0], [1.0], correct=False)
    assert not bench_pairs.summarize(wrong, METRICS)["w"]["correct"]


def test_the_result_line_is_the_last_json_object_with_metrics():
    assert bench_pairs.result_line('table\n{"x": 1}\n{"correct": true, "metrics": {}}\n') == {
        "correct": True,
        "metrics": {},
    }
    assert bench_pairs.result_line("") is None
    assert bench_pairs.result_line("Traceback ...") is None
    assert bench_pairs.result_line('{"correct": true}') is None


def test_raw_times_and_host_factors_are_shown_per_side_without_a_verdict():
    parent = [1.0, 1.1, 0.9, 1.0]
    change = [0.8, 0.9, 0.7, 0.8]
    runs = records("w", parent, change, factor=2.0)
    for run in runs:
        if run["side"] == "change":  # the change's passes ran on a slower host
            run["raw"]["host_factor"] = 2.5
    raw = bench_pairs.summarize(runs, METRICS)["w"]["raw"]
    assert sorted(raw) == ["host_factor", "raw_wall_s"]
    assert raw["raw_wall_s"]["parent"]["median"] == pytest.approx(0.5)
    assert raw["raw_wall_s"]["change"]["median"] == pytest.approx(0.4)
    assert raw["raw_wall_s"]["parent"]["n"] == 4
    assert raw["host_factor"]["parent"] == {"median": 2.0, "n": 4, "q1": 2.0, "q3": 2.0}
    assert raw["host_factor"]["change"]["median"] == 2.5
    # shown only: no comparison, wins or rule
    assert all(set(sides) == set(bench_pairs.SIDES) for sides in raw.values())
    # a name missing from any run (an older run.py) is not shown
    del runs[0]["raw"]["raw_wall_s"]
    assert sorted(bench_pairs.summarize(runs, METRICS)["w"]["raw"]) == ["host_factor"]


def test_the_raw_medians_come_from_the_record_line():
    record = {"host_factor": {"median": 2.1, "n": 5}, "raw_wall_s": {"median": 0.3, "n": 5},
              "metrics": {}}
    stdout = "\n".join(
        ["wall_s  0.63 s  n=5", json.dumps(record), '{"correct": true, "metrics": {}}', ""]
    )
    assert bench_pairs.raw_medians(stdout) == {"raw_wall_s": 0.3, "host_factor": 2.1}
    assert bench_pairs.raw_medians('{"correct": true, "metrics": {}}') == {}
    assert bench_pairs.raw_medians("Traceback ...\n{not json") == {}


def test_the_raw_pass_times_get_the_ten_pair_rule_and_the_claim_reads_both_verdicts():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.04, 0.96]
    faster = [0.8 * p for p in parent]
    # the raw passes gain as much as wall_s: both rules are met
    met = bench_pairs.summarize(records("w", parent, faster, factor=2.0), METRICS)["w"]
    assert met["raw_wall_s"]["ten_pair_rule"] and met["wall_s"]["ten_pair_rule"]
    assert met["raw_wall_s"]["change_vs_parent"] == pytest.approx(-0.2)
    assert met["raw_wall_s"]["parent"]["median"] == pytest.approx(0.5)
    assert met["claim"] == "met"
    # wall_s falls only because the change's passes read a faster host: the
    # raw passes are the same on both sides, so the claim is unresolved
    runs = records("w", parent, faster)
    for run in runs:
        if run["side"] == "change":
            run["raw"] = {"raw_wall_s": run["result"]["metrics"]["wall_s"]["value"] / 0.8,
                          "host_factor": 0.8}
    split = bench_pairs.summarize(runs, METRICS)["w"]
    assert split["wall_s"]["ten_pair_rule"] and not split["raw_wall_s"]["ten_pair_rule"]
    assert split["raw_wall_s"]["ties"] == 10
    assert split["claim"] == "unresolved"
    # and the other way round: a raw gain that the factor hides
    for run in runs:
        if run["side"] == "change":
            run["result"]["metrics"]["wall_s"]["value"] /= 0.8
            run["raw"]["raw_wall_s"] *= 0.8
    hidden = bench_pairs.summarize(runs, METRICS)["w"]
    assert not hidden["wall_s"]["ten_pair_rule"] and hidden["raw_wall_s"]["ten_pair_rule"]
    assert hidden["claim"] == "unresolved"
    same = bench_pairs.summarize(records("w", parent, parent), METRICS)["w"]
    assert same["claim"] == "not met"
    # without raw times in every run there is no raw verdict and no claim
    del runs[3]["raw"]["raw_wall_s"]
    assert not {"raw_wall_s", "claim"} & set(bench_pairs.summarize(runs, METRICS)["w"])


def test_the_claim_is_the_two_verdicts():
    assert bench_pairs.verdict(True, True) == "met"
    assert bench_pairs.verdict(True, False) == bench_pairs.verdict(False, True) == "unresolved"
    assert bench_pairs.verdict(False, False) == "not met"


def single_passes(workload, parent_raws, change_raws, failed=0):
    """Single-pass records as ``run_single_passes`` makes them, in ABBA order."""
    passes = []
    for pair, raws in enumerate(zip(parent_raws, change_raws), start=1):
        order = bench_pairs.SIDES if pair % 2 else bench_pairs.SIDES[::-1]
        for side in order:
            raw = raws[bench_pairs.SIDES.index(side)]
            passes.append({"exit": 0, "failed": failed, "pair": pair, "raw_wall_s": raw,
                           "seed": 7, "side": side, "workload": workload})
    return passes


def test_single_passes_get_the_ten_pair_rule_over_adjacent_passes():
    parent = [0.30 + 0.001 * (k % 7) for k in range(30)]
    faster = [0.9 * p for p in parent]
    # one slow pass in ten on the change's side: 27 of 30 wins still meet the rule
    uneven = [p * (1.2 if k % 10 == 3 else 0.9) for k, p in enumerate(parent)]
    passes = single_passes("w", parent, faster) + single_passes("u", parent, uneven)
    passes += single_passes("same", parent, parent)
    summary = bench_pairs.summarize_passes(passes)
    w = summary["w"]
    assert w["correct"] and w["pairs"] == 30
    assert w["raw_wall_s"]["change_wins"] == 30 and w["raw_wall_s"]["ten_pair_rule"]
    assert w["raw_wall_s"]["change_vs_parent"] == pytest.approx(-0.1)
    assert summary["u"]["raw_wall_s"]["change_wins"] == 27
    assert summary["u"]["raw_wall_s"]["ten_pair_rule"]
    assert summary["same"]["raw_wall_s"]["ties"] == 30
    assert not summary["same"]["raw_wall_s"]["ten_pair_rule"]


def test_a_single_pass_that_fails_or_prints_nothing_is_not_correct():
    parent = [0.3] * 30
    failed = bench_pairs.summarize_passes(single_passes("w", parent, parent, failed=3))["w"]
    assert failed["pairs"] == 30 and not failed["correct"]
    passes = single_passes("w", parent, [0.2] * 30)
    passes[5].update(exit=1, failed=None, raw_wall_s=None)  # a crashed pass
    crashed = bench_pairs.summarize_passes(passes)["w"]
    assert crashed["pairs"] == 29 and not crashed["correct"]
    assert crashed["raw_wall_s"]["change_wins"] == 29


def test_single_passes_run_in_abba_order_and_keep_the_pass_line(monkeypatch):
    calls = []

    class Done:
        returncode = 0

        def __init__(self, cwd):
            raw = 0.3 if cwd == "P" else 0.2
            self.stdout = "noise\n" + json.dumps({"raw_wall_s": raw, "failed": 0}) + "\n"

    def run(argv, cwd, **kwargs):
        calls.append((cwd, argv[1:]))
        return Done(cwd)

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    passes = bench_pairs.run_single_passes({"parent": "P", "change": "C"}, "w", 7, 4,
                                           log=io.StringIO())
    assert [cwd for cwd, _ in calls] == ["P", "C", "C", "P", "P", "C", "C", "P"]
    assert calls[0][1] == ["-E", "perfbench/child.py", "--workload", "w", "--seed", "7",
                           "--trace", "0"]
    assert [p["raw_wall_s"] for p in passes[:2]] == [0.3, 0.2]
    assert bench_pairs.summarize_passes(passes)["w"]["pairs"] == 4
    assert bench_pairs.last_line("Traceback ...") is None
    assert bench_pairs.last_line("") is None


def test_fewer_than_thirty_single_passes_are_refused(tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", "P", "--change", "C", "--out", str(tmp_path / "b.json"),
                          "--workload", "w=1", "--claim", "c", "--single-passes", "29"])
