"""Workload definitions: which public calls one pass makes, and their bounds.

A workload is a list of steps. Each step is one call into the package that
returns a sweep report (an object with ``name``, ``checked``, ``failures`` and
``to_json()``); the pass times the steps, in an order the seed permutes, and
checks each report against ``expected.json``.

Steps are built lazily: ``steps(workload, seed)`` imports ``spectral_glue``
only when a step runs, so the import stays the first thing a pass times.
"""

from __future__ import annotations

import json
import random

# Sweep bounds are explicit and ``jobs`` is always 1: one client, one thread.
# Each corpus is sized so one pass takes a few seconds on a 2-core host, and the
# full acceptance corpora live in the ``acceptance`` workload (see run.py).
SWEEP_STEPS = {
    "gluing-combinatorics": [
        ("set-gluing", "sweep_set_gluing", {"max_poset": 5}),
        ("compat-equivalence", "sweep_lemma_equiv", {"max_poset": 5}),
        ("filtration-bijection", "sweep_filtration_bijection", {"max_poset": 4, "window": (-1, 1)}),
    ],
    "koszul-tables": [
        ("koszul_support", "sweep_koszul_support", {"max_n": 60, "max_p": 5, "max_deg": 2}),
    ],
    "derived-hom": [
        ("orthogonality", "sweep_orthogonality", {"max_ring": 12, "window": (-1, 1)}),
        ("local_global", "sweep_local_global", {"max_ring": 12, "window": (-1, 1)}),
        ("adjunction", "sweep_adjunction", {}),
    ],
    "torsion-cosilting": [
        ("torsion", "sweep_torsion", {"max_n": 60}),
        ("cosilting", "sweep_cosilting", {}),
    ],
    # the tier-1 acceptance bounds (tests/test_acceptance.py); minutes per pass
    "acceptance": [
        ("set-gluing", "sweep_set_gluing", {"max_poset": 6}),
        ("compat-equivalence", "sweep_lemma_equiv", {"max_poset": 6}),
        ("filtration-bijection", "sweep_filtration_bijection", {"max_poset": 4, "window": (-2, 2)}),
        ("koszul_support", "sweep_koszul_support", {"max_n": 60, "max_p": 5, "max_deg": 3}),
        ("orthogonality", "sweep_orthogonality", {"max_ring": 30, "window": (-1, 1)}),
        ("local_global", "sweep_local_global", {"max_ring": 40, "window": (-1, 1)}),
        ("torsion", "sweep_torsion", {"max_n": 60}),
        ("cosilting", "sweep_cosilting", {}),
        ("adjunction", "sweep_adjunction", {}),
    ],
    # tiny bounds for the benchmark's own self-test: every layer, in seconds
    "tiny": [
        ("set-gluing", "sweep_set_gluing", {"max_poset": 3}),
        ("compat-equivalence", "sweep_lemma_equiv", {"max_poset": 3}),
        ("filtration-bijection", "sweep_filtration_bijection", {"max_poset": 2, "window": (-1, 1)}),
        ("koszul_support", "sweep_koszul_support", {"max_n": 8, "max_p": 2, "max_deg": 2}),
        ("orthogonality", "sweep_orthogonality", {"max_ring": 6, "window": (0, 0)}),
        ("torsion", "sweep_torsion", {"max_n": 12}),
    ],
}

# Cubic F_5[x]/(f), one f per factorization type: irreducible, linear times
# irreducible quadratic, three distinct roots, a double root, a triple root.
# Each ring is of order 125 and tabulated once, so its table build dominates;
# the whole criterion-4 corpus has 125 such rings and takes close to a minute,
# which is too long for one pass.
F5_CUBICS = [(1, 1, 0, 1), (0, 2, 0, 1), (0, 4, 0, 1), (0, 0, 1, 1), (0, 0, 0, 1)]

# seeded Z-filtration families per pass, for the integers round trips
INTEGER_FAMILIES = {"gluing-combinatorics": 2000, "tiny": 20}

WORKLOADS = sorted(SWEEP_STEPS)


def _sweep_step(func, kwargs):
    def run():
        from spectral_glue import sweeps

        return getattr(sweeps, func)(jobs=1, **kwargs)

    return run


def koszul_cubics():
    """Koszul support on ``F5_CUBICS``, with the checks of the Koszul sweep."""
    from spectral_glue import homalg, rings as rng
    from spectral_glue.sweeps import SweepReport
    from spectral_glue.thomason import set_to_json

    report = SweepReport("koszul-f5-cubics")
    for f in F5_CUBICS:
        ring = rng.PolyQuot(5, f)
        for ideal in rng.all_ideals(ring):
            kos = homalg.koszul(ring, ideal.generators)
            v_set = rng.v_of_ideal(ring, ideal)
            for n in range(kos.min_degree, kos.max_degree + 1):
                report.checked += 1
                supp = homalg.support_of_cohomology(kos, n)
                if not supp.members <= v_set.members:
                    report.failures.append(
                        {"ring": ring.to_json(), "degree": n, "support": set_to_json(supp)}
                    )
    return report


def random_z_filtrations(seed: int, count: int):
    """Seeded decreasing Z filtrations as wire JSON: tails and breakpoints are
    "full" or finite sets of primes below 50, each level inside the previous."""
    rnd = random.Random(seed)
    pool = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

    def shrink(level):
        if level == "full":
            return "full" if rnd.random() < 0.3 else sorted(rnd.sample(pool, rnd.randint(0, 4)))
        return sorted(rnd.sample(level, rnd.randint(0, len(level))))

    out = []
    for _ in range(count):
        level = "full" if rnd.random() < 0.5 else sorted(rnd.sample(pool, rnd.randint(1, 5)))
        low = level
        start = rnd.randint(-3, 1)
        breakpoints = []
        for n in range(start, start + rnd.randint(0, 4)):
            level = shrink(level)
            breakpoints.append({"n": n, "set": level})
        high = shrink(level) if breakpoints else low  # a step needs a breakpoint
        out.append({"low_tail": low, "breakpoints": breakpoints, "high_tail": high})
    return out


class RoundTripReport:
    """Report of the integers wire path; two round trips per family."""

    name = "integers-roundtrip"

    def __init__(self):
        self.checked = 0
        self.failures = []

    def to_json(self):
        return {"name": self.name, "checked": self.checked, "failures": self.failures}


def integers_roundtrips(families):
    """Parse each family, then check localize-then-glue and the JSON codec."""
    from spectral_glue import integers

    report = RoundTripReport()
    for data in families:
        filt = integers.z_filtration_from_json(data)
        report.checked += 2
        glued = integers.glue_z_filtrations(integers.localize_z_filtration(filt))
        if glued != filt:
            report.failures.append({"filtration": data, "problem": "glue(localize(F)) != F"})
        wire = json.loads(json.dumps(integers.z_filtration_to_json(filt)))
        if integers.z_filtration_from_json(wire) != filt:
            report.failures.append({"filtration": data, "problem": "from_json(to_json(F)) != F"})
    return report


def steps(workload: str, seed: int):
    """(name, callable) pairs of one pass, in the seed's order.

    The seed generates the integers families and permutes the step order, so
    a gain that relies on an earlier step warming a shared cache shows up as
    seed-dependent. Sweep inputs never depend on the seed.
    """
    out = [(name, _sweep_step(func, kwargs)) for name, func, kwargs in SWEEP_STEPS[workload]]
    if workload == "koszul-tables":
        out.append(("koszul-f5-cubics", koszul_cubics))
    if workload in INTEGER_FAMILIES:
        families = random_z_filtrations(seed, INTEGER_FAMILIES[workload])
        out.append(("integers-roundtrip", lambda: integers_roundtrips(families)))
    random.Random(seed).shuffle(out)
    return out
