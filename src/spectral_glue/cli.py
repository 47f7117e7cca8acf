"""Command-line front door.

Every subcommand consumes the JSON wire formats (inline JSON or a file path),
prints a deterministic report (``--json`` for machine-readable output), and
uses the exit code for scripting: 0 = success / membership / compatible,
1 = negative verdict, 2 = malformed input or domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from functools import cache

from . import gluing, homalg, integers as zz, rings as rng, sweeps
from . import torsion_cosilting as tc, tstructures as ts
from .errors import IncompatibleFamilyError, InvalidInputError, SpectralGlueError, json_object
from .modules import ENUMERATION_LIMIT, power_exceeds
from .poset import SpectralPoset
from .thomason import (
    filtration_from_json,
    filtration_to_json,
    set_from_json,
    set_to_json,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _load_json(args, name: str):
    """The JSON of the option ``--name``: inline JSON or a path to a JSON
    file; a value that parses as JSON, such as ``5``, is inline."""
    value = text = getattr(args, name)
    try:
        if not value.lstrip().startswith(("{", "[", '"')):
            try:
                return json.loads(value)
            except json.JSONDecodeError:
                with open(value, "r", encoding="utf-8") as handle:
                    text = handle.read()
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SpectralGlueError(f"malformed JSON in --{name}: {exc}") from exc
    except ValueError as exc:
        # int() refuses an integer literal over the interpreter's digit limit
        raise SpectralGlueError(
            f"malformed JSON in --{name}: an integer literal is over the limit of "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc


def _emit(args, payload: dict, human: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(human)


def _ring(args):
    return rng.ring_from_json(_load_json(args, "ring"))


class _Wire:
    """How the glued filtration and the witnesses of a family are written."""

    __slots__ = ("glue", "witness")

    def __init__(self, glue: Callable, witness: Callable):
        self.glue = glue  # family -> JSON of the glued filtration
        self.witness = witness  # (family, IncompatibleFamilyError) -> (witness JSON, text)


def _finite_witness(family, exc):
    m1, m2, p = exc.witness
    return [m1, m2, p], f"sets at {m1!r} and {m2!r} disagree on {p!r}"


def _z_witness(family, exc):
    witness = zz.z_witness(family, exc.degree)
    return list(witness), f"witness {witness}"


FINITE = _Wire(lambda family: filtration_to_json(gluing.glue_filtrations(family)), _finite_witness)
INTEGERS = _Wire(lambda family: zz.z_filtration_to_json(zz.glue_z_filtrations(family)), _z_witness)


def _family(args) -> tuple[gluing.LocalFamily, _Wire]:
    """Family JSON: {"poset": ..., "default": ..., "exceptions": {...}}.

    "poset" is either a poset description or a ring reference.  Over the
    integers the family lives on :func:`integers.z_poset`: its members name
    points by label, as every member does, and its glued filtration is
    written with integer primes.
    """
    data = json_object(_load_json(args, "family"), "family JSON")
    ref = data.get("poset")
    if isinstance(ref, dict) and ref.get("kind") == "integers":
        return zz.z_family_from_json(data), INTEGERS
    if isinstance(ref, dict) and "kind" in ref:
        poset = rng.spec(rng.ring_from_json(ref))
    else:
        poset = SpectralPoset.from_json(ref)
    exceptions = json_object(data.get("exceptions", {}), "'exceptions'")
    if data.get("default") is None:
        return gluing.LocalFamily.from_members(poset, exceptions), FINITE
    default = filtration_from_json(poset, data["default"])
    return gluing.LocalFamily.from_default(poset, default, exceptions), FINITE


def _tstructure(args):
    """(ring, filtration of its Spec): a t-structure is its Thomason filtration."""
    ring = _ring(args)
    return ring, filtration_from_json(rng.spec(ring), _load_json(args, "filtration"))


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
    poset = rng.spec(ring)
    payload = {
        "ring": ring.describe(),
        "poset": poset.to_json(),
        "maximal": sorted(poset.maximal_labels),
    }
    _emit(args, payload, f"Spec({ring.describe()}) = {sorted(poset.elements)}")
    return EXIT_OK


def cmd_localize(args) -> int:
    if args.ring and args.poset:
        raise SpectralGlueError("give --poset or --ring, not both")
    if args.poset:
        poset = SpectralPoset.from_json(_load_json(args, "poset"))
    elif args.ring:
        ring = _ring(args)
        if ring.kind == "integers":
            filt = zz.z_filtration_from_json(_load_json(args, "filtration"))
            payload = zz.z_family_to_json(zz.localize_z_filtration(filt))
            _emit(args, payload, json.dumps(payload, sort_keys=True))
            return EXIT_OK
        poset = rng.spec(ring)
    else:
        raise SpectralGlueError("give --poset or --ring")
    filt = filtration_from_json(poset, _load_json(args, "filtration"))
    payload = gluing.family_to_json(gluing.localize_filtrations(filt))
    human = "\n".join(f"{m}: {json.dumps(payload[m], sort_keys=True)}" for m in sorted(payload))
    _emit(args, {"localizations": payload}, human)
    return EXIT_OK


def cmd_glue(args) -> int:
    family, wire = _family(args)
    try:
        payload = wire.glue(family)
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


def cmd_compat_check(args) -> int:
    """``glue``'s verdict without the glued output, so a Z family whose glued
    levels cannot be written is still compatible."""
    family, wire = _family(args)
    try:
        gluing.glue_filtrations(family)
    except IncompatibleFamilyError as exc:
        witness, text = wire.witness(family, exc)
        _emit(
            args,
            {"compatible": False, "degree": exc.degree, "witness": witness},
            f"incompatible at degree {exc.degree}: {text}",
        )
        return EXIT_NEGATIVE
    _emit(args, {"compatible": True}, "compatible")
    return EXIT_OK


def cmd_lemma_equiv(args) -> int:
    family, wire = _family(args)
    if wire is INTEGERS:
        raise SpectralGlueError("lemma-equiv runs on finite posets only")
    poset = family.global_poset
    verdicts = {
        n: gluing.check_lemma_equiv(poset, row) for n, row in zip(family.degrees, family.rows())
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
    gens = _load_json(args, "generators")
    if not isinstance(gens, list) or not gens:
        raise InvalidInputError(
            f"'generators' must be a nonempty list of ring elements, got {gens!r}"
        )
    gens = [ring.element_from_json(g) for g in gens]
    # checked before building: the d o d check alone is cubic in the rank, and
    # the cohomology below enumerates the middle term R^C(k, k/2).  That rank
    # is at least k and |R| >= 2, so a k over log2 of the bound is refused
    # before the binomial is formed.
    k, bound = len(gens), ENUMERATION_LIMIT
    rank = math.comb(k, k // 2) if k <= bound.bit_length() else None
    if rank is None or power_exceeds(ring.order, rank, bound):
        raise SpectralGlueError(
            f"the Koszul complex on {k} generators has a middle term of rank "
            f"{rank or f'at least {k}'} over a ring of {ring.order} elements, over "
            f"the enumeration bound of {bound} elements"
        )
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
    cx = homalg.complex_from_json(ring, _load_json(args, "complex"))
    payload = {
        str(n): _module_summary(homalg.cohomology(cx, n))
        for n in range(cx.min_degree, cx.max_degree + 1)
    }
    _emit(args, {"cohomology": payload}, json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_derived_hom(args) -> int:
    ring = _ring(args)
    perfect = homalg.complex_from_json(ring, _load_json(args, "complex"))
    target = homalg.complex_from_json(ring, _load_json(args, "target"))
    hom = homalg.derived_hom(perfect, target, args.degree)
    payload = {"degree": args.degree, "hom": _module_summary(hom)}
    _emit(args, payload, f"Hom group in degree {args.degree} has order {hom.order}")
    return EXIT_OK if hom.is_zero_module() else EXIT_NEGATIVE


def cmd_aisle_test(args) -> int:
    ring, filt = _tstructure(args)
    cx = homalg.complex_from_json(ring, _load_json(args, "complex"))
    verdict = ts.aisle_membership(cx, filt)
    _emit(args, {"member": verdict}, "in aisle" if verdict else "not in aisle")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_coaisle_test(args) -> int:
    ring, filt = _tstructure(args)
    cx = homalg.complex_from_json(ring, _load_json(args, "complex"))
    verdict = ts.coaisle_membership(cx, filt)
    _emit(args, {"member": verdict}, "in coaisle" if verdict else "not in coaisle")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_tstr_localize(args) -> int:
    ring, filt = _tstructure(args)
    local = ts.local_tstructures(ring, gluing.localize_filtrations(filt))
    payload = {
        m: {"ring": local_ring.to_json(), "filtration": filtration_to_json(local_filt)}
        for m, (local_ring, local_filt) in local.items()
    }
    human = "\n".join(
        f"{m}: {payload[m]['ring']} {json.dumps(payload[m]['filtration'], sort_keys=True)}"
        for m in sorted(payload)
    )
    _emit(args, {"localizations": payload}, human)
    return EXIT_OK


def cmd_tstr_classify(args) -> int:
    tag = ts.classify_degeneracy(_tstructure(args)[1])
    _emit(args, {"classification": tag}, tag)
    return EXIT_OK


def cmd_torsion(args) -> int:
    ring = _ring(args)
    module = rng.module_from_json(ring, _load_json(args, "module"))
    poset = rng.spec(ring)
    try:
        x_set = set_from_json(poset, _load_json(args, "set"))
    except InvalidInputError as exc:
        raise InvalidInputError(f"'set': {exc}") from None
    # Supp M is the union of the element supports, so M is torsion exactly
    # when its torsion part is all of M
    part = tc.torsion_submodule(module, x_set)
    payload = {
        "torsion_submodule": _module_summary(part),
        "is_torsion": part.order == module.order,
        "is_torsionfree": part.is_zero_module(),
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
    data = _load_json(args, "cosilting")
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
    data = _load_json(args, "family")
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
    cosilting = _cosilting(_load_json(args, "cosilting"))
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
    if window[0] > window[1]:
        raise InvalidInputError(f"--window {window[0]} {window[1]} is reversed: LO must be <= HI")
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: a build costs many parses, and parsing
    leaves the parser unchanged.  Each verb is stored by name and looked up
    when ``main`` runs it, so a verb replaced on this module is the one run."""
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
        p.set_defaults(handler=handler.__name__)

    add("spec", cmd_spec, "--ring")
    add("localize", cmd_localize, "--filtration", ring={}, poset={})
    add("glue", cmd_glue, "--family")
    add("compat-check", cmd_compat_check, "--family")
    add("lemma-equiv", cmd_lemma_equiv, "--family")
    add("koszul", cmd_koszul, "--ring", "--generators")
    add("cohomology", cmd_cohomology, "--ring", "--complex")
    add("derived-hom", cmd_derived_hom, "--ring", "--complex", "--target",
        degree={"type": int, "default": 0})
    add("aisle-test", cmd_aisle_test, "--ring", "--filtration", "--complex")
    add("coaisle-test", cmd_coaisle_test, "--ring", "--filtration", "--complex")
    add("tstr-localize", cmd_tstr_localize, "--ring", "--filtration")
    add("tstr-classify", cmd_tstr_classify, "--ring", "--filtration")
    add("torsion", cmd_torsion, "--ring", "--module", "--set")
    add("torsion-roundtrip", cmd_torsion_roundtrip, "--ring")
    add("cosilting-set", cmd_cosilting_set, "--cosilting")
    add("cosilting-glue", cmd_cosilting_glue, "--family")
    add("cosilting-split", cmd_cosilting_split, "--cosilting")
    add("fuzz", cmd_fuzz, max_poset={"type": int, "default": 5},
        max_ring={"type": int, "default": 24}, window={"type": int, "nargs": 2, "default": (-1, 1)})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()[args.handler](args)
    except (SpectralGlueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
