"""Alternating parent/change pairs of the benchmark, summarised for a claim.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json \\
        --workload derived-hom=10 --workload koszul-tables=5 --seed 41 --seconds 8 \\
        --claim "derived-hom wall_s falls by the ten-pair rule" \\
        --parent-label "an archive of the parent commit" --change-label "the change" \\
        --single-passes 30

Each checkout (a directory holding ``perfbench/run.py`` and ``src/``, such
as an archive of a commit) runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` in turn: the parent first in odd pairs and the
change first in even ones, so a drift of the host's speed over a run falls
on both sides alike.  Of each run's output only the final result line and
the raw medians below are kept.

Every end-to-end metric that ``BENCHMARK.json`` (read from the change
checkout) declares is then summarised per workload: the median and the
inclusive quartiles of each side, the change's relative gap, its wins and
ties over the pairs, whether the gap exceeds the parent's quartile spread,
and the ten-pair rule: at least ten pairs, the change better in at least
nine of every ten, and its median better by more than the parent's spread.
Beside them, each side's raw pass times (``raw_wall_s``) and host-speed
factors (``host_factor``) are summarised per side: each run keeps their
medians from its record line, the JSON line before the result line.  A
metric at reference host speed is the raw time scaled by the factor, so a
gap that the raw times do not show comes from the factor.  The raw pass
times also get the ten-pair rule, over the same pairs, and the workload's
``claim`` reads both verdicts: "met" when ``wall_s`` and ``raw_wall_s``
both meet the rule, "not met" when neither does, and "unresolved" when they
disagree.

With ``--single-passes N`` each workload then also runs N single passes per
side, each ``perfbench/child.py --workload W --seed S --trace 0`` in a fresh
interpreter, which checks its reports against ``expected.json`` as a run
does.  The passes alternate in ABBA order (parent, change, change, parent,
...), so each two adjacent passes are a pair with one pass of each side,
and the ten-pair rule is applied to the raw pass times of those pairs.  Its
spread is the interquartile range of the differences within the pairs
(change − parent), not that of the parent's passes, which spans the host's
drift over the whole series.  This third verdict, ``single_pass``, shares
no run-wide drift between the passes it compares; it is recorded beside the
other two and does not enter the ``claim``.

Standard library only; the output is one JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

METRICS_FILE = "BENCHMARK.json"
SIDES = ("parent", "change")
# shown per side beside the metrics; the first also gets the ten-pair rule
RAW = ("raw_wall_s", "host_factor")
MIN_SINGLE_PASSES = 30  # per side, so the rule sees at least 30 adjacent pairs


def spread(values) -> dict:
    """Median and inclusive quartiles of a list of numbers."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "n": len(values), "q1": q1, "q3": q3}


def compare(pairs, better: str, paired: bool = False) -> dict:
    """The summary of one metric over (parent, change) value pairs, where
    ``better`` is "lower" or "higher".  The median gap must exceed the
    interquartile range of the parent's values or, when ``paired``, that of
    the differences within the pairs, recorded as "difference"."""
    sign = -1 if better == "lower" else 1
    parent = spread([p for p, _ in pairs])
    change = spread([c for _, c in pairs])
    gap = sign * (change["median"] - parent["median"])
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    out = {
        "change": change,
        "change_vs_parent": change["median"] / parent["median"] - 1 if parent["median"] else None,
        "change_wins": wins,
        "parent": parent,
        "ties": sum(c == p for p, c in pairs),
    }
    if paired:
        out["difference"] = base = spread([c - p for p, c in pairs])
        name = "median_gap_exceeds_paired_iqr"
    else:
        base, name = parent, "median_gap_exceeds_parent_iqr"
    exceeds = out[name] = abs(gap) > base["q3"] - base["q1"]
    out["ten_pair_rule"] = len(pairs) >= 10 and 10 * wins >= 9 * len(pairs) and gap > 0 and exceeds
    return out


def verdict(wall: bool, raw: bool) -> str:
    """The claim of a gain read off the ten-pair rule on ``wall_s`` and on
    ``raw_wall_s``: the host factor can flip the one but not the other."""
    if wall and raw:
        return "met"
    return "unresolved" if wall or raw else "not met"


def summarize(runs, metrics) -> dict:
    """{workload: {"correct", "pairs", "raw", metric: compare(...)}} over the
    run records, for ``metrics`` a {name: "lower" | "higher"} map; "raw" maps
    each name of RAW that every kept run has to the spread of each side's run
    medians.  When every kept run has a raw pass time, "raw_wall_s" is its
    compare(...) and, beside a ``wall_s`` metric, "claim" is the
    :func:`verdict` of the two.  A pair counts once both of its sides gave a
    result line."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sides: dict = {}
        raws: dict = {}
        for r in runs:
            if r["workload"] == workload:
                sides.setdefault(r["pair"], {})[r["side"]] = r["result"]
                raws.setdefault(r["pair"], {})[r["side"]] = r.get("raw", {})
        kept = [pair for pair, s in sorted(sides.items()) if all(s.get(side) for side in SIDES)]
        pairs = [sides[pair] for pair in kept]
        correct = all(s[side]["correct"] for s in pairs for side in SIDES)
        summary = {"correct": len(pairs) == len(sides) and correct, "pairs": len(pairs)}
        for name, better in metrics.items():
            values = [tuple(s[side]["metrics"][name]["value"] for side in SIDES) for s in pairs]
            if values:
                summary[name] = compare(values, better)
        summary["raw"] = {
            name: {side: spread([raws[pair][side][name] for pair in kept]) for side in SIDES}
            for name in RAW
            if kept and all(name in raws[pair][side] for pair in kept for side in SIDES)
        }
        if "raw_wall_s" in summary["raw"]:
            raw = [tuple(raws[pair][side]["raw_wall_s"] for side in SIDES) for pair in kept]
            summary["raw_wall_s"] = compare(raw, "lower")
            if "wall_s" in summary:
                summary["claim"] = verdict(
                    summary["wall_s"]["ten_pair_rule"], summary["raw_wall_s"]["ten_pair_rule"]
                )
        out[workload] = summary
    return out


def summarize_passes(passes) -> dict:
    """{workload: {"correct", "pairs", "raw_wall_s": compare(...)}} over the
    single-pass records, with the ten-pair rule on the raw pass times of
    each pair of adjacent passes, against the spread of the differences
    within the pairs.  A pair counts once both of its passes
    printed a raw time, and the workload is correct when every pass exited
    0 and failed no instance."""
    out = {}
    for workload in dict.fromkeys(p["workload"] for p in passes):
        sides: dict = {}
        for p in passes:
            if p["workload"] == workload:
                sides.setdefault(p["pair"], {})[p["side"]] = p
        pairs = [
            tuple(s[side]["raw_wall_s"] for side in SIDES)
            for _, s in sorted(sides.items())
            if all(s.get(side, {}).get("raw_wall_s") is not None for side in SIDES)
        ]
        correct = len(pairs) == len(sides) and all(
            p["exit"] == 0 and p["failed"] == 0 for s in sides.values() for p in s.values()
        )
        summary = {"correct": correct, "pairs": len(pairs)}
        if pairs:
            summary["raw_wall_s"] = compare(pairs, "lower", paired=True)
        out[workload] = summary
    return out


def last_line(stdout: str):
    """The JSON object on the final line of an output, or None without one."""
    lines = stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return line if isinstance(line, dict) else None


def result_line(stdout: str):
    """The final JSON line of a ``run.py`` output, or None without one."""
    line = last_line(stdout)
    return line if line and "metrics" in line else None


def raw_medians(stdout: str) -> dict:
    """{name: median} of RAW from the record line of a ``run.py`` output,
    the last JSON object that has them; empty without one."""
    for line in reversed(stdout.strip().splitlines()):
        try:
            record = json.loads(line) if line.startswith("{") else None
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and all(name in record for name in RAW):
            return {name: record[name]["median"] for name in RAW}
    return {}


def bench_command(workload: str, seed: int, seconds: float) -> list[str]:
    return [
        "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"
    ]


def run_pairs(checkouts: dict, workloads, seed: int, seconds: float, log=sys.stderr) -> list[dict]:
    """The run records of ``workloads``, a list of (name, pairs)."""
    runs = []
    for workload, count in workloads:
        for pair in range(1, count + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                proc = subprocess.run(
                    [sys.executable, *bench_command(workload, seed, seconds)],
                    cwd=checkouts[side],
                    capture_output=True,
                    text=True,
                )
                result = result_line(proc.stdout)
                raw = raw_medians(proc.stdout)
                runs.append(
                    {
                        "exit": proc.returncode,
                        "first_in_pair": order[0],
                        "pair": pair,
                        "raw": raw,
                        "result": result,
                        "seed": seed,
                        "side": side,
                        "workload": workload,
                    }
                )
                wall = result["metrics"]["wall_s"]["value"] if result else None
                print(f"{workload} pair {pair} {side}: exit {proc.returncode}, wall_s {wall}, "
                      f"raw_wall_s {raw.get('raw_wall_s')}", file=log)
    return runs


def pass_command(workload: str, seed: int) -> list[str]:
    return ["-E", "perfbench/child.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]


def run_single_passes(checkouts: dict, workload: str, seed: int, count: int, log=sys.stderr):
    """``count`` single passes of ``workload`` per side in ABBA order: pair k
    runs the parent first when k is odd and the change first when it is even."""
    passes = []
    for pair in range(1, count + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            proc = subprocess.run(
                [sys.executable, *pass_command(workload, seed)],
                cwd=checkouts[side],
                capture_output=True,
                text=True,
            )
            line = last_line(proc.stdout) or {}
            passes.append(
                {
                    "exit": proc.returncode,
                    "failed": line.get("failed"),
                    "pair": pair,
                    "raw_wall_s": line.get("raw_wall_s"),
                    "seed": seed,
                    "side": side,
                    "workload": workload,
                }
            )
            print(f"{workload} single pass {pair} {side}: exit {proc.returncode}, "
                  f"raw_wall_s {line.get('raw_wall_s')}", file=log)
    return passes


def host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}


def parse_workload(text: str) -> tuple[str, int]:
    name, _, count = text.partition("=")
    if not name or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected NAME=PAIRS, got {text!r}")
    return name, int(count)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--workload", type=parse_workload, action="append", required=True,
                        help="NAME=PAIRS, repeatable")
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--claim", required=True)
    parser.add_argument("--parent-label", default="parent")
    parser.add_argument("--change-label", default="change")
    parser.add_argument("--single-passes", type=int, default=0,
                        help=f"single passes per side in ABBA order after the pairs, at least "
                             f"{MIN_SINGLE_PASSES}; 0 runs none")
    args = parser.parse_args(argv)
    if 0 < args.single_passes < MIN_SINGLE_PASSES:
        parser.error(f"--single-passes must be 0 or at least {MIN_SINGLE_PASSES}")

    with open(os.path.join(args.change, METRICS_FILE)) as fh:
        metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    seconds = int(args.seconds) if args.seconds.is_integer() else args.seconds
    checkouts = {"parent": args.parent, "change": args.change}
    runs = run_pairs(checkouts, args.workload, args.seed, seconds)
    passes = [
        p
        for name, _ in args.workload
        for p in run_single_passes(checkouts, name, args.seed, args.single_passes)
    ]
    counts = ", ".join(f"{count} on {name}" for name, count in args.workload)
    summary = summarize(runs, metrics)
    for workload, single in summarize_passes(passes).items():
        summary[workload]["single_pass"] = single
    record = {
        "claim": args.claim,
        "command": "python3 " + " ".join(bench_command("W", args.seed, seconds)),
        "host": host(),
        "method": (
            f"alternating pairs on seed {args.seed} ({counts}), made by tools/bench_pairs.py; "
            f"the parent ({args.parent_label}) ran first in odd pairs and the change "
            f"({args.change_label}) first in even ones; each record's metrics are medians over "
            "its passes at reference host speed; of each run's output only the final result line "
            "and the raw_wall_s and host_factor medians of its record line are kept"
        ),
        "runs": runs,
        "summary": summary,
    }
    if passes:
        record["single_passes"] = passes
        record["method"] += (
            f"; then {args.single_passes} single passes per side per workload, each "
            f"python3 {' '.join(pass_command('W', args.seed))} in a fresh interpreter, in ABBA "
            "order, with the ten-pair rule on the raw pass times of adjacent passes, its spread "
            "the interquartile range of the differences within those pairs"
        )
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, summary in record["summary"].items():
        line = f"{workload}: claim {summary.get('claim', 'no raw times')}"
        if "raw_wall_s" in summary.get("single_pass", {}):
            line += f", single-pass rule {summary['single_pass']['raw_wall_s']['ten_pair_rule']}"
        print(line, file=sys.stderr)
    return 0 if all(
        w["correct"] and w.get("single_pass", {}).get("correct", True)
        for w in record["summary"].values()
    ) else 1


if __name__ == "__main__":
    sys.exit(main())
