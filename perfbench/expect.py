"""Record the expected instance count and report digest of every step.

    python3 perfbench/expect.py [WORKLOAD ...]

writes ``perfbench/expected.json``, which every pass checks its reports
against. The expectations were recorded at the commit that added the
benchmark; record them again only when a change means to alter the sweeps'
canonical output, and say so in that change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from child import digest  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    path = os.path.join(HERE, "expected.json")
    try:
        with open(path) as fh:
            expected = json.load(fh)
    except FileNotFoundError:
        expected = {}
    for workload in sys.argv[1:] or workloads.WORKLOADS:
        entry = {}
        for name, fn in workloads.steps(workload, 0):
            report = fn()
            if report.failures:
                print(f"{workload}/{name}: {report.failures[:1]}", file=sys.stderr)
                return 1
            entry[name] = {"checked": report.checked, "sha256": digest(report)}
            print(f"{workload}/{name}: {report.checked} instances", file=sys.stderr)
        expected[workload] = dict(sorted(entry.items()))
    with open(path, "w") as fh:
        json.dump(dict(sorted(expected.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
