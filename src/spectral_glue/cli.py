"""Command-line front door.

Every subcommand consumes the JSON wire formats (inline JSON or a file path),
prints a deterministic report (``--json`` for machine-readable output), and
uses the exit code for scripting: 0 = success / membership / compatible,
1 = negative verdict, 2 = malformed input or domain error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import gluing, homalg, integers as zz, rings as rng, sweeps
from . import torsion_cosilting as tc, tstructures as ts
from .errors import IncompatibleFamilyError, SpectralGlueError, json_object
from .poset import SpectralPoset, load_poset, localization_poset, maximal_points
from .thomason import (
    filtration_from_json,
    filtration_to_json,
    set_from_json,
    set_to_json,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _load_json(value: str):
    """Accept inline JSON or a path to a JSON file."""
    text = value
    if not value.lstrip().startswith(("{", "[", '"')):
        with open(value, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpectralGlueError(f"malformed JSON in {value!r}: {exc}") from exc


def _emit(args, payload: dict, human: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(human)


def _ring(args):
    return rng.ring_from_json(_load_json(args.ring))


def _poset(args) -> SpectralPoset:
    if args.poset:
        return load_poset(_load_json(args.poset))
    if args.ring:
        poset, _ = rng.spec(_ring(args))
        return poset
    raise SpectralGlueError("give --poset or --ring")


def _family(args):
    """Family JSON: {"poset": ..., "default": ..., "exceptions": {...}}.

    "poset" is either a poset description or a ring reference; the integers
    adapter routes to the symbolic Z family.
    """
    data = json_object(_load_json(args.family), "family JSON")
    ref = data.get("poset")
    if isinstance(ref, dict) and ref.get("kind") == "integers":
        return zz.z_family_from_json(data)
    if isinstance(ref, dict) and "kind" in ref:
        poset, _ = rng.spec(rng.ring_from_json(ref))
    else:
        poset = load_poset(ref)
    default = data.get("default")
    exceptions = {}
    for m, filt in json_object(data.get("exceptions", {}), "'exceptions'").items():
        sub = localization_poset(poset, m)
        exceptions[m] = filtration_from_json(sub, filt)
    if default is not None:
        default_filt = filtration_from_json(poset, default)
        return gluing.LocalFamily.from_default(poset, default_filt, exceptions)
    if set(exceptions) != set(maximal_points(poset)):
        raise SpectralGlueError(
            "family without a default must list every maximal point in exceptions"
        )
    return gluing.LocalFamily(poset, exceptions)


def _descriptor(args) -> ts.TStructureDescriptor:
    ring = _ring(args)
    poset, _ = rng.spec(ring)
    filt = filtration_from_json(poset, _load_json(args.filtration))
    return ts.TStructureDescriptor(ring, filt)


def _module_summary(module) -> dict:
    return {
        "order": module.order,
        "invariants": {
            label: list(sizes) for label, sizes in module.local_invariants().items()
        },
    }


def _embedded_ring(data):
    """The ring of a standalone cosilting file or family."""
    if not isinstance(data, dict) or "ring" not in data:
        raise SpectralGlueError("cosilting JSON needs the field 'ring'")
    return rng.ring_from_json(data["ring"])


def _cosilting(data) -> tc.CosiltingModule:
    return tc.cosilting_from_json(_embedded_ring(data), data)


# -- subcommand handlers -----------------------------------------------------


def cmd_spec(args) -> int:
    ring = _ring(args)
    poset, labeling = rng.spec(ring)
    payload = {
        "ring": ring.describe(),
        "poset": poset.to_json(),
        "maximal": sorted(maximal_points(poset)),
    }
    _emit(args, payload, f"Spec({ring.describe()}) = {sorted(poset.elements)}")
    return EXIT_OK


def cmd_localize(args) -> int:
    if args.ring and _ring(args).kind == "integers":
        filt = zz.z_filtration_from_json(_load_json(args.filtration))
        family = zz.localize_z_filtration(filt)
        payload = {
            "default": filtration_to_json(family.default),
            "exceptions": {
                str(p): filtration_to_json(f) for p, f in sorted(family.exceptions.items())
            },
        }
        _emit(args, payload, json.dumps(payload, sort_keys=True))
        return EXIT_OK
    poset = _poset(args)
    filt = filtration_from_json(poset, _load_json(args.filtration))
    family = gluing.localize_filtrations(filt)
    payload = {
        m: filtration_to_json(f) for m, f in sorted(family.filtrations.items())
    }
    human = "\n".join(f"{m}: {json.dumps(payload[m], sort_keys=True)}" for m in sorted(payload))
    _emit(args, {"localizations": payload}, human)
    return EXIT_OK


def cmd_glue(args) -> int:
    family = _family(args)
    try:
        if isinstance(family, zz.ZLocalFamily):
            payload = filtration_to_json(zz.glue_z_filtrations(family))
        else:
            payload = filtration_to_json(gluing.glue_filtrations(family))
    except IncompatibleFamilyError as exc:
        _emit(
            args,
            {
                "compatible": False,
                "degree": exc.degree,
                "witness": list(exc.witness) if exc.witness else None,
            },
            f"incompatible: {exc}",
        )
        return EXIT_NEGATIVE
    _emit(args, {"compatible": True, "glued": payload}, json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _family_window(family) -> tuple[int, int]:
    lo, hi = family.window()
    return lo - 1, hi + 1


def cmd_compat_check(args) -> int:
    family = _family(args)
    lo, hi = _family_window(family)
    if isinstance(family, zz.ZLocalFamily):
        for n in range(lo, hi + 1):
            witness = zz.check_z_dagger(family, n)
            if witness is not None:
                _emit(
                    args,
                    {"compatible": False, "degree": n, "witness": list(witness)},
                    f"incompatible at degree {n}: witness {witness}",
                )
                return EXIT_NEGATIVE
        _emit(args, {"compatible": True}, "compatible")
        return EXIT_OK
    for n in range(lo, hi + 1):
        report = gluing.check_dagger(family, n)
        if not report.dagger_holds:
            m1, m2, p = report.violating_pair
            _emit(
                args,
                {"compatible": False, "degree": n, "witness": [m1, m2, p]},
                f"incompatible at degree {n}: sets at {m1!r} and {m2!r} disagree on {p!r}",
            )
            return EXIT_NEGATIVE
    _emit(args, {"compatible": True}, "compatible")
    return EXIT_OK


def cmd_lemma_equiv(args) -> int:
    family = _family(args)
    if isinstance(family, zz.ZLocalFamily):
        raise SpectralGlueError("lemma-equiv runs on finite posets only")
    lo, hi = _family_window(family)
    verdicts = {
        n: gluing.check_lemma_equiv(family.global_poset, family.sets_at(n))
        for n in range(lo, hi + 1)
    }
    ok = all(verdicts.values())
    _emit(
        args,
        {"equivalence_holds": ok, "degrees": {str(n): v for n, v in verdicts.items()}},
        "equivalence holds degreewise" if ok else f"equivalence FAILED: {verdicts}",
    )
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_koszul(args) -> int:
    ring = _ring(args)
    gens = [ring.element_from_json(g) for g in _load_json(args.generators)]
    kos = homalg.koszul(ring, gens)
    payload = {
        "degrees": {str(n): {"free": kos.rank(n)} for n in kos.degrees()},
        "cohomology": {
            str(n): _module_summary(homalg.cohomology(kos, n))
            for n in range(kos.min_degree, kos.max_degree + 1)
        },
    }
    _emit(args, payload, json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_cohomology(args) -> int:
    ring = _ring(args)
    cx = homalg.complex_from_json(ring, _load_json(args.complex))
    payload = {
        str(n): _module_summary(homalg.cohomology(cx, n))
        for n in range(cx.min_degree, cx.max_degree + 1)
    }
    _emit(args, {"cohomology": payload}, json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_derived_hom(args) -> int:
    ring = _ring(args)
    perfect = homalg.complex_from_json(ring, _load_json(args.complex))
    target = homalg.complex_from_json(ring, _load_json(args.target))
    hom = homalg.derived_hom(perfect, target, args.degree)
    payload = {"degree": args.degree, "hom": _module_summary(hom)}
    _emit(args, payload, f"Hom group in degree {args.degree} has order {hom.order}")
    return EXIT_OK if hom.is_zero_module() else EXIT_NEGATIVE


def cmd_aisle_test(args) -> int:
    descriptor = _descriptor(args)
    cx = homalg.complex_from_json(descriptor.ring, _load_json(args.complex))
    verdict = ts.aisle_membership(cx, descriptor)
    _emit(args, {"member": verdict}, "in aisle" if verdict else "not in aisle")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_coaisle_test(args) -> int:
    descriptor = _descriptor(args)
    cx = homalg.complex_from_json(descriptor.ring, _load_json(args.complex))
    verdict = ts.coaisle_membership(cx, descriptor)
    _emit(args, {"member": verdict}, "in coaisle" if verdict else "not in coaisle")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_tstr_localize(args) -> int:
    descriptor = _descriptor(args)
    payload = {}
    for m in sorted(maximal_points(rng.spec(descriptor.ring)[0])):
        local = ts.localize_tstructure(descriptor, m)
        payload[m] = {
            "ring": local.ring.to_json(),
            "filtration": filtration_to_json(local.filtration),
        }
    human = "\n".join(
        f"{m}: {payload[m]['ring']} {json.dumps(payload[m]['filtration'], sort_keys=True)}"
        for m in sorted(payload)
    )
    _emit(args, {"localizations": payload}, human)
    return EXIT_OK


def cmd_tstr_classify(args) -> int:
    descriptor = _descriptor(args)
    tag = ts.classify_degeneracy(descriptor)
    _emit(args, {"classification": tag}, tag)
    return EXIT_OK


def cmd_torsion(args) -> int:
    ring = _ring(args)
    module = rng.module_from_json(ring, _load_json(args.module))
    poset, _ = rng.spec(ring)
    x_set = set_from_json(poset, _load_json(args.set))
    part = tc.torsion_submodule(module, x_set)
    payload = {
        "torsion_submodule": _module_summary(part),
        "is_torsion": tc.is_torsion(module, x_set),
        "is_torsionfree": tc.is_torsionfree(module, x_set),
    }
    _emit(args, payload, json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_torsion_roundtrip(args) -> int:
    ring = _ring(args)
    report = sweeps.SweepReport("torsion")
    sweeps._check_torsion(report, ring)
    _emit(
        args,
        report.to_json(),
        f"torsion roundtrip on {ring.describe()}: "
        + ("ok" if report.ok else f"FAILED {report.failures}")
        + f" ({report.checked} sets)",
    )
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def cmd_cosilting_set(args) -> int:
    data = _load_json(args.cosilting)
    cosilting = _cosilting(data)
    thomason = tc.cosilting_thomason_of_module(cosilting)
    payload = {
        "thomason": set_to_json(thomason),
        "degenerate": cosilting.is_degenerate(),
        "cosilting_verified": tc.is_cosilting(cosilting),
    }
    _emit(args, payload, json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_cosilting_glue(args) -> int:
    data = _load_json(args.family)
    ring = _embedded_ring(data)
    components = {}
    for label, comp in json_object(data.get("components"), "'components'").items():
        local_ring = rng.local_factor(ring, label).ring
        components[label] = tc.cosilting_from_json(local_ring, comp)
    glued = tc.glue_cosilting(ring, components)
    payload = {
        "module": _module_summary(glued.module),
        "thomason": set_to_json(tc.cosilting_thomason_of_module(glued)),
    }
    _emit(args, payload, json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_cosilting_split(args) -> int:
    cosilting = _cosilting(_load_json(args.cosilting))
    payload = {}
    for m, comp in sorted(tc.components_of_cosilting(cosilting).items()):
        payload[m] = {
            "ring": comp.ring.to_json(),
            "module": _module_summary(comp.module),
            "thomason": set_to_json(tc.cosilting_thomason_of_module(comp)),
        }
    _emit(args, {"components": payload}, json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_fuzz(args) -> int:
    window = tuple(args.window)
    reports = sweeps.run_all(max_poset=args.max_poset, max_ring=args.max_ring, window=window)
    payload = {"reports": [r.to_json() for r in reports]}
    ok = all(r.ok for r in reports)
    lines = [
        f"{r.name}: {'ok' if r.ok else 'FAIL'} ({r.checked} instances)" for r in reports
    ]
    if not ok:
        for r in reports:
            for failure in r.failures:
                lines.append(f"  witness: {json.dumps(failure, sort_keys=True)}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if ok else EXIT_NEGATIVE


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-glue",
        description="Thomason filtrations, local-global gluing, and homological "
        "verification over concrete finite commutative rings.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, *flags, **named):
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, required=True)
        for flag, kwargs in named.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        p.set_defaults(handler=handler)
        return p

    add("spec", cmd_spec, "--ring")
    p = add("localize", cmd_localize, "--filtration")
    p.add_argument("--ring")
    p.add_argument("--poset")
    add("glue", cmd_glue, "--family")
    add("compat-check", cmd_compat_check, "--family")
    add("lemma-equiv", cmd_lemma_equiv, "--family")
    add("koszul", cmd_koszul, "--ring", "--generators")
    add("cohomology", cmd_cohomology, "--ring", "--complex")
    p = add("derived-hom", cmd_derived_hom, "--ring", "--complex", "--target")
    p.add_argument("--degree", type=int, default=0)
    add("aisle-test", cmd_aisle_test, "--ring", "--filtration", "--complex")
    add("coaisle-test", cmd_coaisle_test, "--ring", "--filtration", "--complex")
    add("tstr-localize", cmd_tstr_localize, "--ring", "--filtration")
    add("tstr-classify", cmd_tstr_classify, "--ring", "--filtration")
    add("torsion", cmd_torsion, "--ring", "--module", "--set")
    add("torsion-roundtrip", cmd_torsion_roundtrip, "--ring")
    add("cosilting-set", cmd_cosilting_set, "--cosilting")
    add("cosilting-glue", cmd_cosilting_glue, "--family")
    add("cosilting-split", cmd_cosilting_split, "--cosilting")
    p = sub.add_parser("fuzz")
    p.add_argument("--max-poset", type=int, default=5)
    p.add_argument("--max-ring", type=int, default=24)
    p.add_argument("--window", type=int, nargs=2, default=(-1, 1))
    p.set_defaults(handler=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SpectralGlueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
