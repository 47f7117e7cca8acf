"""The benchmark's own test, on the ``tiny`` workload; takes a few seconds.

    python3 perfbench/selftest.py

Three traced passes, each in a fresh interpreter with its own hash seed: two
with seed 1 and one with seed 2. Checks that

- every step verifies against ``expected.json`` (so verdicts, instance counts
  and report digests agree for both seeds);
- the layers' self times add up to the top-level span time, and that plus the
  unwrapped remainder is the pass's ``wall_s``;
- every count metric repeats exactly between the two seed-1 passes, and
  the sweeps' instance counts also for seed 2 (the seed changes the
  integers families, and with them the integers and thomason counts).
"""

import math
import sys

from run import BUDGET_S, launch, now

COUNT_SUFFIXES = (".calls", ".instances", "_built", ".items", ".roundtrips", "_ratio")


def main() -> int:
    deadline = now() + BUDGET_S
    passes = [
        launch(["--workload", "tiny", "--seed", str(seed), "--trace", "1", "--run-id", str(k)], deadline)
        for k, seed in enumerate((1, 1, 2))
    ]
    problems = []
    for k, p in enumerate(passes):
        if p["failed"]:
            problems.append(f"pass {k}: {p['failed']} of {p['attempted']} instances failed")
        self_total = sum(v for name, v in p["layers"].items() if name.endswith(".self_s"))
        if not math.isclose(self_total, p["top_s"], rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"pass {k}: layer self times {self_total} != top-level spans {p['top_s']}")
        if not math.isclose(p["top_s"] + p["unwrapped_s"], p["raw_wall_s"] * p["factor"], rel_tol=1e-9):
            problems.append(f"pass {k}: spans plus remainder do not add up to the pass time")
        if not 0 <= p["unwrapped_s"] < p["top_s"]:
            problems.append(f"pass {k}: unwrapped remainder {p['unwrapped_s']} outside [0, top_s)")
    counts = [
        {name: v for name, v in p["layers"].items() if name.endswith(COUNT_SUFFIXES)} for p in passes
    ]
    for name in counts[0]:
        values = [c[name] for c in counts]
        compared = values if name.startswith("sweeps.") else values[:2]
        if len(set(compared)) != 1:
            problems.append(f"{name} differs between passes: {values}")
    if passes[0]["order"] == passes[2]["order"]:
        problems.append("seeds 1 and 2 ran the steps in the same order")
    for line in problems:
        print(line, file=sys.stderr)
    print(f"selftest: {len(passes)} passes, {len(counts[0])} counts, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
