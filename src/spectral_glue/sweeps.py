"""Exhaustive property sweeps over the generated corpora.

Each sweep returns a :class:`SweepReport` with the number of instances checked
and serializable witnesses for every violation (empty list = property holds).
The sweeps are deterministic and run in one thread: the checks are pure Python,
so threads under the GIL gave no speed-up. Each ``sweep_*`` still takes
``jobs``, which must be 1, because the benchmark calls them with ``jobs=1``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial

from . import catalog, gluing, homalg, rings as rng, torsion_cosilting as tc, tstructures as ts
from .errors import IncompatibleFamilyError, InvalidInputError
from .poset import SpectralPoset
from .rings import FiniteRing
from .thomason import (
    filtration_to_json,
    is_constant,
    is_nondegenerate,
    set_to_json,
)


@dataclass
class SweepReport:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "ok": self.ok,
            "failures": self.failures,
            "details": self.details,
        }


def _sweep(name, check, items, unit, jobs) -> SweepReport:
    """Run ``check(report, item)`` on each corpus item into one report."""
    if jobs != 1:
        raise InvalidInputError(f"jobs must be 1 (sweeps run in one thread), got {jobs!r}")
    report = SweepReport(name)
    for item in items:
        check(report, item)
    report.details[unit] = len(items)
    return report


# -- 1: set-level localize/glue bijection ------------------------------------


def _check_set_gluing(report: SweepReport, poset: SpectralPoset) -> None:
    descr = poset.to_json()
    # localize-then-glue is the identity on Thomason sets
    for x in catalog.all_thomason_sets(poset):
        report.checked += 1
        back = gluing.glue_sets(poset, gluing.localize_sets(x))
        if back != x:
            report.failures.append(
                {"poset": descr, "set": set_to_json(x), "glued": set_to_json(back)}
            )
    # glue-then-localize is the identity on compatible families
    for row in catalog.compatible_set_rows(poset):
        report.checked += 1
        try:
            glued = gluing.glue_sets(poset, row)
        except IncompatibleFamilyError:
            glued = None
        if glued is None or gluing.localize_sets(glued) != row:
            report.failures.append(
                {
                    "poset": descr,
                    "family": gluing.row_to_json(poset, row),
                    "glued": None if glued is None else set_to_json(glued),
                }
            )


def sweep_set_gluing(max_poset: int = 6, jobs: int = 1) -> SweepReport:
    posets = catalog.poset_catalog(max_poset)
    return _sweep("set-gluing", _check_set_gluing, posets, "posets", jobs)


# -- 2: compatibility equivalent to the ideal-family description -------------


def _check_compat(report: SweepReport, poset: SpectralPoset) -> None:
    descr = poset.to_json()
    for row in catalog.all_set_rows(poset):
        report.checked += 1
        if not gluing.check_lemma_equiv(poset, row):
            report.failures.append(
                {
                    "poset": descr,
                    "family": gluing.row_to_json(poset, row),
                    "reason": "condition (dagger) and ideal-family description disagree",
                }
            )


def sweep_lemma_equiv(max_poset: int = 6, jobs: int = 1) -> SweepReport:
    posets = catalog.poset_catalog(max_poset)
    return _sweep("compat-equivalence", _check_compat, posets, "posets", jobs)


# -- 3: filtration-level localize/glue bijection ------------------------------


def _check_filtrations(report: SweepReport, poset: SpectralPoset, window) -> None:
    lo, hi = window
    descr = poset.to_json()
    down = poset.down
    for filt in catalog.all_filtrations(poset, lo, hi):
        report.checked += 1
        family = gluing.localize_filtrations(filt)
        problems = []
        try:
            if gluing.glue_filtrations(family) != filt:
                problems.append("glue(localize(F)) differs from F")
        except IncompatibleFamilyError:
            problems.append("localized family not compatible")
        # a member's low tail is all of Spec(R_m) when it is down[m]
        local_nondeg = all(
            not masks[-1] and masks[0] == down[m] for m, _, masks in family.columns
        )
        if is_nondegenerate(filt) != local_nondeg:
            problems.append("non-degeneracy not preserved/reflected")
        local_const = all(masks[0] == masks[-1] for _, _, masks in family.columns)
        if is_constant(filt) != local_const:
            problems.append("stability (constancy) not preserved/reflected")
        if problems:
            report.failures.append(
                {"poset": descr, "filtration": filtration_to_json(filt), "problems": problems}
            )
    for family in catalog.compatible_filtration_families(poset, lo, hi):
        report.checked += 1
        try:
            if gluing.localize_filtrations(gluing.glue_filtrations(family)) == family:
                continue
            problem = "localize(glue(family)) differs from family"
        except IncompatibleFamilyError:
            problem = "listed family not compatible"
        report.failures.append(
            {
                "poset": descr,
                "family": gluing.family_to_json(family),
                "problems": [problem],
            }
        )


def sweep_filtration_bijection(
    max_poset: int = 4, window: tuple[int, int] = (-2, 2), jobs: int = 1
) -> SweepReport:
    posets = catalog.poset_catalog(max_poset)
    check = partial(_check_filtrations, window=window)
    return _sweep("filtration-bijection", check, posets, "posets", jobs)


# -- 4: Koszul support -------------------------------------------------------


def _check_koszul(report: SweepReport, ring: FiniteRing) -> None:
    ideals = rng.all_ideals(ring)
    gen_lists = [ideal.generators for ideal in ideals]
    # redundant two-generator presentations must give the same support; the
    # corpus keeps the bound |R|^2 <= 1000 from when R^2 was enumerated
    if ring.order**2 <= 1000:
        for a, b in itertools.islice(itertools.combinations(ideals, 2), 10):
            gen_lists.append((a.generators[0], b.generators[0]))
    for gens in gen_lists:
        ideal = rng.Ideal(ring, gens)
        kos = homalg.koszul(ring, gens)
        v_set = rng.v_of_ideal(ring, ideal)
        for n in range(kos.min_degree, kos.max_degree + 1):
            report.checked += 1
            supp = homalg.support_of_cohomology(kos, n)
            if not supp <= v_set:
                report.failures.append(
                    {
                        "ring": ring.to_json(),
                        "generators": [ring.element_to_json(g) for g in gens],
                        "degree": n,
                        "support": set_to_json(supp),
                        "v_of_ideal": set_to_json(v_set),
                    }
                )


def sweep_koszul_support(
    max_n: int = 60, max_p: int = 5, max_deg: int = 3, jobs: int = 1
) -> SweepReport:
    rings = catalog.zmod_catalog(max_n) + catalog.poly_catalog(max_p, max_deg)
    return _sweep("koszul_support", _check_koszul, rings, "rings", jobs)


# -- 5: orthogonality of the classified t-structures -------------------------


def _check_orthogonality(report: SweepReport, ring: FiniteRing, window) -> None:
    xs = catalog.koszul_complexes(ring, shifts=(0, 1), max_sums=10)
    ys = catalog.stalk_complexes(ring)
    x_supports = [ts.cohomology_supports(x) for x in xs]
    y_supports = [ts.cohomology_supports(y) for y in ys]
    orthogonal = {}
    for filt in catalog.all_filtrations(rng.spec(ring), *window):
        aisle = [i for i, supp in enumerate(x_supports) if ts.aisle_admits(supp, filt)]
        coaisle = [j for j, supp in enumerate(y_supports) if ts.coaisle_admits(supp, filt)]
        for i in aisle:
            for j in coaisle:
                report.checked += 1
                if (i, j) not in orthogonal:
                    orders = homalg.hom_orders(xs[i], ys[j], 0).values()
                    orthogonal[(i, j)] = all(o == 1 for o in orders)
                if not orthogonal[(i, j)]:
                    report.failures.append(
                        {
                            "ring": ring.to_json(),
                            "filtration": filtration_to_json(filt),
                            "aisle_complex": repr(xs[i]),
                            "coaisle_complex": repr(ys[j]),
                        }
                    )


def sweep_orthogonality(
    max_ring: int = 30, window: tuple[int, int] = (-1, 1), jobs: int = 1
) -> SweepReport:
    check = partial(_check_orthogonality, window=window)
    return _sweep("orthogonality", check, _orthogonality_rings(max_ring), "rings", jobs)


def _orthogonality_rings(max_ring: int) -> list[FiniteRing]:
    rings = catalog.zmod_catalog(max_ring)
    rings += [r for r in catalog.poly_catalog(3, 2) if r.order <= max_ring]
    return rings + catalog.product_catalog(max_ring)


# -- 6: local-global coaisle membership and gluing back ---------------------


def _check_local_global(report: SweepReport, ring: FiniteRing, window) -> None:
    ys = catalog.stalk_complexes(ring)
    y_supports = [ts.cohomology_supports(y) for y in ys]
    labels = sorted(lf.label for lf in ring.local_factors())
    local_supports = {
        m: [ts.cohomology_supports(homalg.localize_complex(y, m)) for y in ys] for m in labels
    }
    for filt in catalog.all_filtrations(rng.spec(ring), *window):
        # one localization: it glues back, and its columns are the local t-structures
        family = gluing.localize_filtrations(filt)
        local_ts = ts.local_tstructures(ring, family)
        report.checked += 1
        if gluing.glue_filtrations(family) != filt:
            report.failures.append(
                {"ring": ring.to_json(), "problem": "descriptor family does not glue back"}
            )
        for j, y in enumerate(ys):
            report.checked += 1
            global_verdict = ts.coaisle_admits(y_supports[j], filt)
            local_verdict = all(
                ts.coaisle_admits(local_supports[m][j], local_ts[m][1]) for m in labels
            )
            if global_verdict != local_verdict:
                report.failures.append(
                    {
                        "ring": ring.to_json(),
                        "complex": repr(y),
                        "global": global_verdict,
                        "local": local_verdict,
                    }
                )


def sweep_local_global(
    max_ring: int = 40, window: tuple[int, int] = (-1, 1), jobs: int = 1
) -> SweepReport:
    check = partial(_check_local_global, window=window)
    return _sweep("local_global", check, _local_global_rings(max_ring), "rings", jobs)


def _local_global_rings(max_ring: int) -> list[FiniteRing]:
    rings = [r for r in catalog.product_catalog(max_ring) if len(r.local_factors()) <= 3]
    return rings + [rng.ZMod(12), rng.ZMod(30)]


# -- 7: torsion / injective-class bijections ---------------------------------


def _check_torsion(report: SweepReport, ring: FiniteRing) -> None:
    table = tc.TorsionTable(ring)
    signatures = [repr(sorted(e.elements)) for e in table.injectives]
    injective_images = {}
    for x in catalog.all_thomason_sets(table.poset):
        report.checked += 1
        cyclics = table.torsion_class(x)
        back = tc.thomason_of_torsion_class(ring, cyclics)
        problems = []
        if back != x:
            problems.append("torsion-class roundtrip broke")
        chosen = table.injective_class(x)
        signature = tuple(sorted(signatures[j] for j in chosen))
        if signature in injective_images:
            problems.append(
                f"injective class map not injective (collides with {injective_images[signature]})"
            )
        injective_images[signature] = set_to_json(x)
        recovered = table.recovered(chosen)
        if recovered != x:
            problems.append("Hom-vanishing recovery from the injective class broke")
        if problems:
            report.failures.append(
                {"ring": ring.to_json(), "set": set_to_json(x), "problems": problems}
            )


def sweep_torsion(max_n: int = 60, jobs: int = 1) -> SweepReport:
    rings = catalog.zmod_catalog(max_n)
    return _sweep("torsion", _check_torsion, rings, "rings", jobs)


# -- 8: cosilting gluing -----------------------------------------------------


def _check_cosilting(report: SweepReport, cosilting) -> None:
    ring = cosilting.ring
    poset = rng.spec(ring)
    report.checked += 1
    problems = []
    if not tc.is_cosilting(cosilting):
        problems.append("fixture fails the cosilting verification")
    global_set = tc.cosilting_thomason_of_module(cosilting)
    components = tc.components_of_cosilting(cosilting)
    glued = tc.glue_cosilting(ring, components)
    if not tc.cosilting_equivalent(glued, cosilting):
        problems.append("split-then-glue is not equivalent to the original")
    # componentwise Thomason sets as a row over the maximal spectrum: each
    # component's set is its one point or empty
    row = tuple(
        1 << m if tc.cosilting_thomason_of_module(components[poset.elements[m]]).members else 0
        for m in poset.maxima
    )
    try:
        if gluing.glue_sets(poset, row) != global_set:
            problems.append("componentwise Thomason sets do not glue to the global set")
    except IncompatibleFamilyError:
        problems.append("componentwise Thomason sets are not compatible")
    # the two-term filtration restricts to the local two-term pattern at degree 0
    filt = tc.two_term_filtration(global_set)
    for m, x, local in zip(poset.maxima, gluing.localize_sets(filt.at(0)), row):
        if x != local:
            problems.append(
                f"two-term filtration at {poset.elements[m]!r} disagrees with the local set"
            )
    if problems:
        report.failures.append(
            {
                "ring": ring.to_json(),
                "module_order": cosilting.module.order,
                "problems": problems,
            }
        )


def sweep_cosilting(jobs: int = 1) -> SweepReport:
    fixtures = catalog.cosilting_fixtures()
    return _sweep("cosilting", _check_cosilting, fixtures, "fixtures", jobs)


# -- 9: adjunction across localize/colocalize --------------------------------


def _check_adjunction(report: SweepReport, ring: FiniteRing) -> None:
    ys = catalog.stalk_complexes(ring)
    for lf in ring.local_factors():
        xs = catalog.koszul_complexes(lf.ring, shifts=(0,), max_sums=4)
        ys_local = [homalg.localize_complex(y, lf.label) for y in ys]
        for x in xs:
            for y, y_local in zip(ys, ys_local):
                # the fast path against enumeration over R_m
                enumerated = homalg.derived_hom_orders(x, y_local, (-1, 0, 1))
                for i, rhs in enumerated.items():
                    report.checked += 1
                    lhs = homalg.hom_orders(x, y, i, factor=lf)[lf.label]
                    if lhs != rhs:
                        report.failures.append(
                            {
                                "ring": ring.to_json(),
                                "factor": lf.label,
                                "perfect": repr(x),
                                "target": repr(y),
                                "degree": i,
                                "hom_over_R": lhs,
                                "hom_over_Rm": rhs,
                            }
                        )


def sweep_adjunction(jobs: int = 1) -> SweepReport:
    rings = [rng.ZMod(12), rng.ZMod(30), rng.ZMod(36)]
    rings += catalog.product_catalog(40)[:4]
    return _sweep("adjunction", _check_adjunction, rings, "rings", jobs)


# -- aggregate ---------------------------------------------------------------


def run_all(
    max_poset: int = 5, max_ring: int = 24, window: tuple[int, int] = (-1, 1)
) -> list[SweepReport]:
    """The fuzz entry point: every sweep with (reduced) default bounds.

    The filtrations of the window are counted before any sweep starts, and
    the window is refused when they pass ``catalog.MAX_FILTRATIONS`` on one
    poset of sweep 3, which lists as many compatible families on a poset as
    it has filtrations, or summed over the spectra that sweeps 5 and 6
    enumerate, each of which runs its complexes against every filtration."""
    lo, hi = window
    for poset in catalog.poset_catalog(min(max_poset, 4)):
        catalog.check_window(catalog.count_filtrations(poset, lo, hi), lo, hi)
    total = 0
    for ring in _orthogonality_rings(max_ring) + _local_global_rings(max_ring):
        total += catalog.count_filtrations(rng.spec(ring), lo, hi)
        if total > catalog.MAX_FILTRATIONS:
            break
    catalog.check_window(total, lo, hi, ", summed over the spectra of sweeps 5 and 6")
    return [
        sweep_set_gluing(max_poset=max_poset),
        sweep_lemma_equiv(max_poset=max_poset),
        sweep_filtration_bijection(max_poset=min(max_poset, 4), window=window),
        sweep_koszul_support(max_n=max_ring, max_p=3, max_deg=2),
        sweep_orthogonality(max_ring=max_ring, window=window),
        sweep_local_global(max_ring=max_ring, window=window),
        sweep_torsion(max_n=max_ring),
        sweep_cosilting(),
        sweep_adjunction(),
    ]
