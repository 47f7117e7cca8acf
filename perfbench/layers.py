"""Layer spans for the traced pass, installed from outside the package.

Each layer is a module of ``spectral_glue``. The tracer wraps the layer's
public functions, plus the class entries in ``METHODS``, and rebinds every
module attribute that referred to the original, so that both ``sweeps``'
by-name imports (``localization_poset``) and module-qualified calls
(``homalg.derived_hom``) go through the wrapper.

A span opens only where a call crosses from one layer into another; a call
that stays inside its layer is counted but not timed on its own. A layer's
self time is its spans' time minus their child spans, so the layers' self
times add up to the time of the top-level spans, and the rest of the pass is
the benchmark's own code.

Element operations (``ring.add``/``mul``, ``FiniteModule.add``/``smul``,
``BoundedComplex.diff_apply`` and other methods, and the F_p[x] coefficient
helpers in ``ELEMENT_HELPERS``) run millions of times and are not wrapped;
their time lands in the calling layer's self time.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import time
from collections import Counter

LAYERS = (
    "sweeps",
    "catalog",
    "poset",
    "thomason",
    "gluing",
    "integers",
    "rings",
    "modules",
    "homalg",
    "tstructures",
    "torsion_cosilting",
)

# class entries wrapped besides the module-level functions: the constructors
# behind the build counts, and the module operations that enumerate elements
METHODS = {
    "poset": {"SpectralPoset": ("__init__",)},
    "rings": {cls: ("__init__",) for cls in ("ZMod", "PolyQuot", "ProductRing", "IntegerRing")},
    "modules": {
        "FiniteModule": (
            "additive_closure",
            "span",
            "submodule",
            "quotient",
            "homs_to",
            "local_invariants",
            "isomorphic_to",
        )
    },
}

ELEMENT_HELPERS = {"rings": ("pnorm", "padd", "pneg", "pmul", "pdivmod", "pmonic", "pegcd")}

# functions whose own inclusive time is reported as ``<layer>.<function>.s``
INCLUSIVE = ("rings.all_ideals", "homalg.derived_hom", "homalg.cohomology", "torsion_cosilting.is_cosilting")

SWEEP_NAMES = (
    "set-gluing",
    "compat-equivalence",
    "filtration-bijection",
    "koszul_support",
    "orthogonality",
    "local_global",
    "torsion",
    "cosilting",
    "adjunction",
)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # (name, start, end, parent index or -1, run id)
        self.stack: list = []  # open spans: [layer, span index, child time]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.inclusive_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.open_inclusive: Counter = Counter()
        self.top_s = 0.0
        self.caches: dict = {}  # name -> lru_cache function, read at the end

    def wrap(self, layer: str, name: str, fn, on_result=None):
        qualified = f"{layer}.{name}"
        inclusive = qualified in INCLUSIVE
        clock = time.perf_counter

        def call(*args, **kwargs):
            self.calls[layer] += 1
            self.calls[qualified] += 1
            outer = inclusive and not self.open_inclusive[qualified]
            if outer:
                self.open_inclusive[qualified] += 1
                t0 = clock()
            try:
                if self.stack and self.stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                return self._span(layer, qualified, fn, args, kwargs, on_result)
            finally:
                if outer:
                    self.inclusive_s[qualified] += clock() - t0
                    self.open_inclusive[qualified] -= 1

        call.__wrapped__ = fn
        call.__name__ = getattr(fn, "__name__", name)
        return call

    def _span(self, layer, qualified, fn, args, kwargs, on_result):
        parent = self.stack[-1][1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [layer, index, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[2]
            if self.stack:
                self.stack[-1][2] += duration
            else:
                self.top_s += duration
            self.spans[index] = (qualified, start, end, parent, self.run_id)
        if on_result is not None:
            on_result(self.counts, result)
        return result

    def metrics(self, step_reports: dict, scale: float) -> dict:
        """Per-layer metrics of the pass; ``step_reports`` maps step name to
        (wall seconds, instances checked), and ``scale`` multiplies the
        span times."""
        out = {f"{layer}.self_s": self.self_s[layer] * scale for layer in LAYERS}
        for name in SWEEP_NAMES:
            wall, checked = step_reports.get(name, (0.0, 0))
            out[f"sweeps.{name}.wall_s"] = wall
            out[f"sweeps.{name}.instances"] = checked
        for layer in ("catalog", "thomason", "gluing", "integers", "rings", "modules", "tstructures", "torsion_cosilting"):
            out[f"{layer}.calls"] = self.calls[layer]
        for name in INCLUSIVE:
            out[f"{name}.s"] = self.inclusive_s[name] * scale
        c = self.counts
        out["catalog.items"] = c["catalog.items"]
        out["poset.posets_built"] = self.calls["poset.SpectralPoset.__init__"]
        out["poset.localization_poset.calls"] = self.calls["poset.localization_poset"]
        out["gluing.dagger_hold_ratio"] = _ratio(c["gluing.dagger_holds"], c["gluing.families_checked"])
        out["integers.roundtrips"] = c["integers.roundtrips"]
        out["rings.rings_built"] = sum(
            self.calls[f"rings.{cls}.__init__"] for cls in METHODS["rings"]
        )
        for name, cached in self.caches.items():
            info = cached.cache_info()
            out[f"rings.{name}.hit_ratio"] = _ratio(info.hits, info.hits + info.misses)
        out["modules.elements_built"] = c["modules.elements_built"]
        out["homalg.derived_hom.calls"] = self.calls["homalg.derived_hom"]
        out["homalg.cohomology.calls"] = self.calls["homalg.cohomology"]
        out["homalg.derived_hom.zero_ratio"] = _ratio(c["homalg.derived_hom.zero"], c["homalg.derived_hom.checked"])
        return out

    def bases(self) -> dict:
        """Denominators of the ratio metrics."""
        out = {
            "gluing.dagger_hold_ratio": self.counts["gluing.families_checked"],
            "homalg.derived_hom.zero_ratio": self.counts["homalg.derived_hom.checked"],
        }
        for name, cached in self.caches.items():
            info = cached.cache_info()
            out[f"rings.{name}.hit_ratio"] = info.hits + info.misses
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _count_items(counts, result):
    if isinstance(result, (list, tuple)):
        counts["catalog.items"] += len(result)


def _count_dagger(counts, result):
    counts["gluing.families_checked"] += 1
    counts["gluing.dagger_holds"] += bool(result.dagger_holds)


def _count_module(counts, result):
    counts["modules.elements_built"] += result.order


def _count_derived_hom(counts, result):
    counts["homalg.derived_hom.checked"] += 1
    counts["homalg.derived_hom.zero"] += result.is_zero_module()


ON_RESULT = {
    "gluing.check_dagger_sets": _count_dagger,
    "gluing.check_dagger": _count_dagger,
    "homalg.derived_hom": _count_derived_hom,
    "modules.FiniteModule.submodule": _count_module,
    "modules.FiniteModule.quotient": _count_module,
}


def _on_result(layer, name):
    if layer == "catalog":
        return _count_items
    if layer == "modules" and "." not in name:
        return _count_module
    return ON_RESULT.get(f"{layer}.{name}")


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and the ``METHODS`` entries."""
    import spectral_glue

    modules = [spectral_glue] + [
        importlib.import_module(f"spectral_glue.{info.name}")
        for info in pkgutil.iter_modules(spectral_glue.__path__)
    ]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    wrappers = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        module = by_name[layer]
        for name, value in vars(module).items():
            if name.startswith("_") or isinstance(value, type) or not callable(value):
                continue
            if name in ELEMENT_HELPERS.get(layer, ()):
                continue
            if getattr(value, "__module__", None) != module.__name__:
                continue
            wrappers[id(value)] = (value, tracer.wrap(layer, name, value, _on_result(layer, name)))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for method in methods:
                qualified = f"{cls_name}.{method}"
                setattr(cls, method, tracer.wrap(layer, qualified, cls.__dict__[method], _on_result(layer, qualified)))
    for module in modules:
        for name, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, name, hit[1])
    rings = by_name["rings"]
    tracer.caches = {
        "spec": rings.spec.__wrapped__,
        "principal_members": rings.principal_members.__wrapped__,
    }
