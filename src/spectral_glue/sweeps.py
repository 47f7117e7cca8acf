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
from .errors import InvalidInputError
from .poset import SpectralPoset, localization_poset
from .rings import FiniteRing
from .thomason import (
    ThomasonSet,
    filtration_to_json,
    is_constant,
    is_nondegenerate,
    restrict_filtration,
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
        if back.members != x.members:
            report.failures.append(
                {"poset": descr, "set": set_to_json(x), "glued": set_to_json(back)}
            )
    # glue-then-localize is the identity on compatible families
    for family in catalog.all_set_families(poset):
        verdict = gluing.check_dagger_sets(poset, family)
        if not verdict.dagger_holds:
            continue
        report.checked += 1
        glued = gluing.glue_sets(poset, family)
        back = gluing.localize_sets(glued)
        if any(back[m].members != family[m].members for m in family):
            report.failures.append(
                {
                    "poset": descr,
                    "family": {m: set_to_json(s) for m, s in family.items()},
                    "glued": set_to_json(glued),
                }
            )


def sweep_set_gluing(max_poset: int = 6, jobs: int = 1) -> SweepReport:
    posets = catalog.poset_catalog(max_poset)
    return _sweep("set-gluing", _check_set_gluing, posets, "posets", jobs)


# -- 2: compatibility equivalent to the ideal-family description -------------


def _check_compat(report: SweepReport, poset: SpectralPoset) -> None:
    descr = poset.to_json()
    for family in catalog.all_set_families(poset):
        report.checked += 1
        if not gluing.check_lemma_equiv(poset, family):
            report.failures.append(
                {
                    "poset": descr,
                    "family": {m: set_to_json(s) for m, s in family.items()},
                    "reason": "condition (dagger) and ideal-family description disagree",
                }
            )
        verdict = gluing.check_dagger_sets(poset, family)
        if verdict.dagger_holds and not verdict.glued_thomason:
            report.failures.append(
                {
                    "poset": descr,
                    "family": {m: set_to_json(s) for m, s in family.items()},
                    "reason": "compatible family glued to a non-Thomason set",
                }
            )


def sweep_lemma_equiv(max_poset: int = 6, jobs: int = 1) -> SweepReport:
    posets = catalog.poset_catalog(max_poset)
    return _sweep("compat-equivalence", _check_compat, posets, "posets", jobs)


# -- 3: filtration-level localize/glue bijection ------------------------------


def _family_compatible(poset, family) -> bool:
    lo = min(f.window()[0] for f in family.values()) - 1
    hi = max(f.window()[1] for f in family.values()) + 1
    return all(
        gluing.check_dagger_sets(poset, {m: f.at(n) for m, f in family.items()}).dagger_holds
        for n in range(lo, hi + 1)
    )


def _check_filtrations(report: SweepReport, poset: SpectralPoset, window) -> None:
    lo, hi = window
    descr = poset.to_json()
    for filt in catalog.all_filtrations(poset, lo, hi):
        report.checked += 1
        family = gluing.localize_filtrations(filt)
        problems = []
        if not _family_compatible(poset, family.filtrations):
            problems.append("localized family not compatible")
        glued = gluing.glue_filtrations(family)
        if glued != filt:
            problems.append("glue(localize(F)) differs from F")
        local_nondeg = all(is_nondegenerate(f) for f in family.filtrations.values())
        if is_nondegenerate(filt) != local_nondeg:
            problems.append("non-degeneracy not preserved/reflected")
        local_const = all(is_constant(f) for f in family.filtrations.values())
        if is_constant(filt) != local_const:
            problems.append("stability (constancy) not preserved/reflected")
        if problems:
            report.failures.append(
                {"poset": descr, "filtration": filtration_to_json(filt), "problems": problems}
            )
    for family in catalog.all_filtration_families(poset, lo, hi):
        if not _family_compatible(poset, family):
            continue
        report.checked += 1
        glued = gluing.glue_filtrations(gluing.LocalFamily(poset, family))
        back = gluing.localize_filtrations(glued)
        if any(back.filtrations[m] != family[m] for m in family):
            report.failures.append(
                {
                    "poset": descr,
                    "family": {m: filtration_to_json(f) for m, f in family.items()},
                    "problems": ["localize(glue(family)) differs from family"],
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
    # middle Koszul term has rank 2, so only enumerate where |R|^2 is small
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
            if not supp.members <= v_set.members:
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
    ideals = rng.all_ideals(ring)
    xs = catalog.koszul_complexes(ring, shifts=(0, 1))
    xs = xs[: len(ideals) * 2 + 10]  # all singles plus a few direct sums
    ys = catalog.stalk_complexes(ring)
    x_supports = [ts.aisle_supports(x) for x in xs]
    y_obstructions = [ts.coaisle_obstructions(y) for y in ys]
    orthogonal = {}
    filts = catalog.spec_filtrations(ring, *window)
    for filt in filts:
        aisle = [i for i, supp in enumerate(x_supports) if ts.aisle_admits(supp, filt)]
        coaisle = [j for j, obs in enumerate(y_obstructions) if ts.coaisle_admits(obs, filt)]
        for i in aisle:
            for j in coaisle:
                report.checked += 1
                if (i, j) not in orthogonal:
                    orthogonal[(i, j)] = homalg.derived_hom(xs[i], ys[j], 0).is_zero_module()
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
    rings = catalog.zmod_catalog(max_ring)
    rings += [r for r in catalog.poly_catalog(3, 2) if r.order <= max_ring]
    rings += catalog.product_catalog(max_ring)
    check = partial(_check_orthogonality, window=window)
    return _sweep("orthogonality", check, rings, "rings", jobs)


# -- 6: local-global coaisle membership and descriptor gluing ----------------


def _check_local_global(report: SweepReport, ring: FiniteRing, window) -> None:
    ys = catalog.stalk_complexes(ring)
    y_obstructions = [ts.coaisle_obstructions(y) for y in ys]
    labels = sorted(lf.label for lf in ring.local_factors())
    local_obstructions = {
        m: [ts.coaisle_obstructions(homalg.localize_complex(y, m)) for y in ys] for m in labels
    }
    filts = catalog.spec_filtrations(ring, *window)
    for filt in filts:
        t = ts.TStructureDescriptor(ring, filt)
        local_ts = {m: ts.localize_tstructure(t, m) for m in labels}
        # descriptor family glues back to the original filtration
        report.checked += 1
        glued = gluing.glue_filtrations(gluing.localize_filtrations(filt))
        if glued != filt:
            report.failures.append(
                {"ring": ring.to_json(), "problem": "descriptor family does not glue back"}
            )
        for j, y in enumerate(ys):
            report.checked += 1
            global_verdict = ts.coaisle_admits(y_obstructions[j], filt)
            local_verdict = all(
                ts.coaisle_admits(local_obstructions[m][j], local_ts[m].filtration)
                for m in labels
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
    rings = [r for r in catalog.product_catalog(max_ring) if len(r.local_factors()) <= 3]
    rings += [rng.ZMod(12), rng.ZMod(30)]
    check = partial(_check_local_global, window=window)
    return _sweep("local_global", check, rings, "rings", jobs)


# -- 7: torsion / injective-class bijections ---------------------------------


def _check_torsion(report: SweepReport, ring: FiniteRing) -> None:
    poset, _ = rng.spec(ring)
    injective_images = {}
    for x in catalog.all_thomason_sets(poset):
        report.checked += 1
        cyclics = tc.torsion_class_cyclics(ring, x)
        back = tc.thomason_of_torsion_class(ring, cyclics)
        problems = []
        if back.members != x.members:
            problems.append("torsion-class roundtrip broke")
        injectives = tc.injective_class_of(ring, x)
        signature = tuple(sorted(repr(sorted(e.elements)) for e in injectives))
        if signature in injective_images:
            problems.append(
                f"injective_class_of not injective (collides with {injective_images[signature]})"
            )
        injective_images[signature] = set_to_json(x)
        recovered = tc.thomason_of_injective_class(ring, injectives)
        if recovered.members != x.members:
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
    poset, _ = rng.spec(ring)
    report.checked += 1
    problems = []
    if not tc.is_cosilting(cosilting):
        problems.append("fixture fails the cosilting verification")
    global_set = tc.cosilting_thomason_of_module(cosilting)
    components = tc.components_of_cosilting(cosilting)
    glued = tc.glue_cosilting(ring, components)
    if not tc.cosilting_equivalent(glued, cosilting):
        problems.append("split-then-glue is not equivalent to the original")
    # componentwise Thomason sets as a family over the maximal spectrum
    family = {}
    for m, comp in components.items():
        local_set = tc.cosilting_thomason_of_module(comp)
        sub = localization_poset(poset, m)
        members = {m} if local_set.members else set()
        family[m] = ThomasonSet.from_members(sub, members)
    verdict = gluing.check_dagger_sets(poset, family)
    if not verdict.dagger_holds:
        problems.append("componentwise Thomason sets are not compatible")
    else:
        glued_set = gluing.glue_sets(poset, family)
        if glued_set.members != global_set.members:
            problems.append("componentwise Thomason sets do not glue to the global set")
    # the two-term filtration restricts to the local two-term pattern
    filt = tc.two_term_filtration(global_set)
    for m in family:
        local_filt = restrict_filtration(filt, m)
        if local_filt.at(0).members != family[m].members:
            problems.append(f"two-term filtration at {m!r} disagrees with the local set")
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
        xs = catalog.koszul_complexes(lf.ring, shifts=(0,))
        xs = xs[: len(rng.all_ideals(lf.ring)) + 4]
        for x in xs:
            for y in ys:
                y_local = homalg.localize_complex(y, lf.label)
                for i in (-1, 0, 1):
                    report.checked += 1
                    lhs = homalg.derived_hom(x, y, i, factor=lf).order
                    rhs = homalg.derived_hom(x, y_local, i).order
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
    """The fuzz entry point: every sweep with (reduced) default bounds."""
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
