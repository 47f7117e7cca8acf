"""One pass of a workload in a fresh interpreter; ``run.py`` launches it.

The first thing the pass does is import ``spectral_glue`` from the checkout's
``src``; the clock reading right after that import ends its set-up time,
which ``run.py`` measures from the launch. With ``--setup-only`` the pass
stops there. Otherwise it runs the workload's steps, checks every report
against ``expected.json`` and prints one JSON line.

Every time reported is corrected to the reference host speed of
``hostspeed.py``; the raw pass time and the factor are reported beside it.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spectral_glue  # noqa: E402

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBE_S = 0.03


def digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()


def run_pass(workload: str, seed: int, tracer) -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)[workload]
    steps = workloads.steps(workload, seed)
    results = {}
    with hostspeed.Probe() as probe:
        start = time.perf_counter()
        for name, fn in steps:
            t0, spent0 = time.perf_counter(), probe.spent
            want = expected[name]
            try:
                report = fn()
            except Exception:  # a sweep that raises fails all its instances
                traceback.print_exc()
                report = None
            # a witness changes the digest too, so any deviation fails the step
            ok = report is not None and report.checked == want["checked"] and digest(report) == want["sha256"]
            results[name] = {
                "wall_s": time.perf_counter() - t0 - (probe.spent - spent0),
                "checked": report.checked if report is not None else 0,
                "witnesses": len(report.failures) if report is not None else 0,
                "failed": 0 if ok else want["checked"],
                "expected": want["checked"],
            }
        raw_wall = time.perf_counter() - start
    factor = probe.factor()
    for r in results.values():
        r["wall_s"] *= factor
    out = {
        "imported": IMPORTED,
        "order": [name for name, _ in steps],
        "raw_wall_s": raw_wall,
        "factor": factor,
        "wall_s": (raw_wall - probe.spent) * factor,
        "attempted": sum(r["expected"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "steps": results,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        roundtrip = results.get("integers-roundtrip")
        if roundtrip is not None:
            tracer.counts["integers.roundtrips"] = roundtrip["checked"] - roundtrip["witnesses"]
        reports = {name: (r["wall_s"], r["checked"]) for name, r in results.items()}
        # span times include the probe's slices that fired inside them
        out["layers"] = tracer.metrics(reports, factor)
        out["bases"] = tracer.bases()
        out["top_s"] = tracer.top_s * factor
        out["unwrapped_s"] = (raw_wall - tracer.top_s) * factor
        out["spans"] = len(tracer.spans)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="0")
    parser.add_argument("--spans", help="write the traced pass's spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(spectral_glue.__file__).startswith(src + os.sep):
        print(f"spectral_glue imported from {spectral_glue.__file__}, not {src}", file=sys.stderr)
        return 2
    setup_probe = hostspeed.Probe()
    setup_probe.sample_back_to_back(SETUP_PROBE_S)
    if args.setup_only:
        print(json.dumps({"imported": IMPORTED, "setup_factor": setup_probe.factor()}))
        return 0
    tracer = None
    if args.trace:
        tracer = layers.Tracer(args.run_id)
        layers.install(tracer)
    result = run_pass(args.workload, args.seed, tracer)
    result["setup_factor"] = setup_probe.factor()
    print(json.dumps(result))
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
