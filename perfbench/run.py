"""Benchmark of spectral-glue's exhaustive sweeps, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass of the workload runs in a fresh interpreter (``child.py``), one at
a time, because every ``fuzz`` and pytest run pays the package's cold caches
and ring tables. Passes repeat until ``--seconds`` have gone by, and at least
``MIN_PASSES`` times; each metric is the median over the run's passes. The
run first launches interpreters that only import the package, to time set-up.

Times are in seconds at a reference host speed: ``hostspeed.py`` measures how
fast the host ran during each pass and scales the pass's times by it, because
raw seconds of the same code on a shared host spread by a quarter or more.
The record line keeps the raw pass times and the factors.

End-to-end metrics (``--trace 0``):

- ``wall_s``: first sweep call to last verdict, one pass;
- ``instances_per_s``: instances checked by a pass over its ``wall_s``;
- ``setup_s``: interpreter launch to ``import spectral_glue`` done;
- ``peak_rss_mb``: the pass's peak resident set (``ru_maxrss``);
- ``pass_ratio``: instances verified over instances attempted. A step fails
  all its instances when it raises, returns a witness, or checks a count or
  returns a canonical report that differs from ``expected.json``.

With ``--trace 1`` the run alternates plain passes with passes traced by
``layers.py`` and prints the per-layer metrics instead.

The output ends with three lines: a table of every metric with its unit,
quartiles and sample count; one JSON record with provenance and all the
statistics; and the result line. The exit code is 1 when any step failed, 2
when the package cannot be found, and 3 when a pass crashes or the run would
pass its time budget; the last two print no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

BUDGET_S = 170.0  # a run, children included, ends within this many seconds
ACCEPTANCE_BUDGET_S = 1800.0  # the acceptance workload is not a timed benchmark
SETUP_LAUNCHES = 8
MIN_PASSES = 3  # plain passes of a --trace 0 run, so its median has three samples

END_TO_END_UNITS = {
    "wall_s": "s",
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


class ChildError(RuntimeError):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    """The caller's environment without the package's thread-pool setting;
    ``-E`` on the child also drops PYTHONPATH and PYTHONHASHSEED."""
    env = dict(os.environ)
    env.pop("SPECTRAL_GLUE_JOBS", None)
    return env


def launch(args: list, deadline: float) -> dict:
    """Run one child to completion; its result plus ``setup_s``."""
    launched = now()
    try:
        proc = subprocess.run(
            [sys.executable, "-E", CHILD, *args],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"pass {args} ran past the run's time budget") from exc
    if proc.returncode != 0:
        raise ChildError(f"pass {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = (result["imported"] - launched) * result["setup_factor"]
    return result


def stats(values: list) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def provenance() -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Launch the run's children; (record, result line)."""
    budget = ACCEPTANCE_BUDGET_S if workload == "acceptance" else BUDGET_S
    deadline = now() + budget
    launch(["--setup-only"], deadline)  # warms the bytecode cache; not counted
    setup = [launch(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_LAUNCHES)]
    spans_dir = os.path.join(HERE, "out")
    os.makedirs(spans_dir, exist_ok=True)
    plain, traced = [], []
    passes_start = now()
    while True:
        is_traced = trace and len(plain) > len(traced)
        args = ["--workload", workload, "--seed", str(seed), "--trace", str(int(is_traced))]
        args += ["--run-id", f"{workload}-{seed}-{len(plain) + len(traced)}"]
        if is_traced:
            args += ["--spans", os.path.join(spans_dir, f"spans-{workload}.jsonl")]
        t0 = now()
        result = launch(args, deadline)
        (traced if is_traced else plain).append(result)
        setup.append(result["setup_s"])
        enough = traced if trace else len(plain) >= MIN_PASSES
        if enough and now() - passes_start >= seconds:
            break
        if now() + 1.5 * (now() - t0) > deadline:
            if trace and not traced:
                raise ChildError(f"no time left for a traced pass within {budget:.0f} s")
            break
    everything = plain + traced
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    series = {
        "wall_s": [p["wall_s"] for p in plain],
        "instances_per_s": [p["attempted"] / p["wall_s"] for p in plain],
        "setup_s": setup,
        "peak_rss_mb": [p["rss_mb"] for p in plain],
    }
    values = {name: stats(v) for name, v in series.items()}
    values["pass_ratio"] = {"median": (attempted - failed) / attempted, "n": len(everything)}
    units = dict(END_TO_END_UNITS)
    record = {
        "raw_wall_s": stats([p["raw_wall_s"] for p in plain]),
        "host_factor": stats([p["factor"] for p in plain]),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(),
        "step_order": everything[0]["order"],
        "failed_ratio": {"failed": failed, "attempted": attempted, "value": failed / attempted},
        "steps": {
            name: {
                "wall_s": stats([p["steps"][name]["wall_s"] for p in plain]),
                "instances": plain[0]["steps"][name]["checked"],
            }
            for name in plain[0]["steps"]
        },
    }
    if trace:
        record["end_to_end"] = values
        layer_names = list(traced[0]["layers"])
        values = {name: stats([p["layers"][name] for p in traced]) for name in layer_names}
        # sweep wall times come from the plain passes, free of wrapper cost
        for name, step in record["steps"].items():
            if f"sweeps.{name}.wall_s" in values:
                values[f"sweeps.{name}.wall_s"] = step["wall_s"]
        values["trace.overhead_ratio"] = {
            "median": statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in plain),
            "n": len(traced),
        }
        units = {name: layer_unit(name) for name in values}
        record["bases"] = traced[0]["bases"]
        record["unwrapped_s"] = stats([p["unwrapped_s"] for p in traced])
        record["spans"] = traced[-1]["spans"]
    record["metrics"] = {name: dict(values[name], unit=units[name]) for name in values}
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name]["median"], "unit": units[name]} for name in values},
    }
    return record, line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "spectral_glue", "__init__.py")):
        print(f"no spectral_glue package under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        record, line = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildError as exc:
        print(exc, file=sys.stderr)
        return 3
    for name, m in record["metrics"].items():
        spread = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]" if "q1" in m else ""
        print(f"{name:42} {m['median']:>14.6g} {m['unit']:6}{spread}  n={m['n']}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
