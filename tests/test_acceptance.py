"""Acceptance gate: one exhaustive property sweep per release criterion.

Each test prints exactly one PASS/FAIL line (run with ``pytest -s`` or read
captured output) and fails loudly with the first counterexample fixture if a
sweep finds one.
"""

import time

from spectral_glue import catalog, sweeps


def _gate(name: str, report, *, extra_ok: bool = True, extra_msg: str = ""):
    ok = report.ok and extra_ok
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({report.checked} instances checked)")
    assert report.ok, f"{name}: first counterexample {report.failures[:1]}"
    assert extra_ok, f"{name}: {extra_msg}"


def test_criterion_1_set_gluing_bijection():
    start = time.monotonic()
    report = sweeps.sweep_set_gluing(max_poset=7)
    elapsed = time.monotonic() - start
    _gate(
        "set-level localize/glue bijection on all posets with <= 7 elements",
        report,
        extra_ok=report.details["posets"] >= 300 and report.checked == 109_446 and elapsed < 60,
        extra_msg=f"{report.details['posets']} posets and {report.checked} instances in "
        f"{elapsed:.1f}s (need >= 300 and 109446 in < 60s)",
    )


def test_criterion_2_compatibility_equivalence():
    report = sweeps.sweep_lemma_equiv(max_poset=7)
    _gate(
        "compatibility condition equivalent to the ideal-family description; "
        "compatible families glue to up-sets; all posets with <= 7 elements",
        report,
        extra_ok=report.checked == 365_635,
        extra_msg=f"{report.checked} instances (need 365635)",
    )


def test_criterion_3_filtration_bijection():
    report = sweeps.sweep_filtration_bijection(max_poset=4, window=(-2, 2))
    _gate(
        "filtration-level glue/localize bijection preserving and reflecting "
        "(non-)degeneracy and constancy, window [-2, 2], posets <= 4 elements",
        report,
    )


def test_criterion_3_over_every_poset_of_at_most_6_points():
    report = sweeps.sweep_filtration_bijection(max_poset=6, window=(-1, 1))
    _gate(
        "filtration-level glue/localize bijection preserving and reflecting "
        "(non-)degeneracy and constancy, window [-1, 1], posets <= 6 elements",
        report,
        extra_ok=report.checked == 350_054,
        extra_msg=f"{report.checked} instances (need 350054)",
    )


def test_criterion_4_koszul_support():
    start = time.monotonic()
    report = sweeps.sweep_koszul_support(max_n=60, max_p=5, max_deg=3)
    elapsed = time.monotonic() - start
    _gate(
        "Koszul cohomology supported on V(I) for all ideals of Z/n (n <= 60) "
        "and F_p[x]/(f) (p <= 5, deg f <= 3)",
        report,
        extra_ok=elapsed < 30,
        extra_msg=f"took {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_5_orthogonality():
    report = sweeps.sweep_orthogonality(max_ring=30, window=(-1, 1))
    _gate(
        "derived Hom vanishes in degree 0 between aisle and coaisle members, "
        "rings of order <= 30, window [-1, 1]",
        report,
        extra_ok=report.checked >= 10_000,
        extra_msg=f"only {report.checked} pairs (need >= 10^4)",
    )


def test_criterion_6_local_global():
    report = sweeps.sweep_local_global(max_ring=40)
    _gate(
        "coaisle membership over product rings equals the conjunction of local "
        "memberships; descriptor families glue back",
        report,
    )


def test_criterion_7_torsion_bijections():
    report = sweeps.sweep_torsion(max_n=60)
    _gate(
        "Thomason <-> torsion-class roundtrip exact and injective-class map "
        "injective on all Z/n (n <= 60)",
        report,
    )


def test_criterion_7_over_polynomial_and_product_rings():
    """Sweep 7's check on the ring kinds its Z/n corpus never meets: residue
    fields F_{p^e} with e > 1 and chain rings other than Z/p^k."""
    rings = catalog.poly_catalog(5, 3) + catalog.product_catalog(60)
    report = sweeps._sweep("torsion", sweeps._check_torsion, rings, "rings", 1)
    _gate(
        "Thomason <-> torsion-class roundtrip exact and injective-class map "
        "injective on all F_p[x]/(f) (p <= 5, deg f <= 3) and products of order <= 60",
        report,
        extra_ok=(len(rings), report.checked) == (246, 908),
        extra_msg=f"{len(rings)} rings and {report.checked} sets (need 246 and 908)",
    )


def test_criterion_8_cosilting_gluing():
    report = sweeps.sweep_cosilting()
    _gate(
        "split-then-glue of cosilting fixtures yields equivalent modules with "
        "compatible componentwise Thomason sets",
        report,
        extra_ok=report.details["fixtures"] >= 10,
        extra_msg=f"only {report.details['fixtures']} fixtures (need >= 10)",
    )


def test_criterion_9_adjunction():
    report = sweeps.sweep_adjunction()
    _gate(
        "Hom-group cardinalities agree across localization/colocalization",
        report,
        extra_ok=report.checked >= 1_000,
        extra_msg=f"only {report.checked} triples (need >= 10^3)",
    )


def test_criterion_9_over_polynomial_and_product_rings():
    """Sweep 9's check on every F_p[x]/(f) (p <= 3, deg f <= 2) and on the
    products of order <= 40 that its fixed corpus skips."""
    rings = catalog.poly_catalog(3, 2) + catalog.product_catalog(40)[4:]
    report = sweeps._sweep("adjunction", sweeps._check_adjunction, rings, "rings", 1)
    _gate(
        "Hom-group cardinalities agree across localization/colocalization on "
        "F_p[x]/(f) and product rings",
        report,
        extra_ok=(len(rings), report.checked) == (44, 20_448),
        extra_msg=f"{len(rings)} rings and {report.checked} triples (need 44 and 20448)",
    )
