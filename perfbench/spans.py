"""Layer spans and counters recorded from outside the cycloff package.

``install`` replaces every binding of the traced public names: the defining
module, every ``cycloff.*`` module that imported the name with ``from ...
import``, and every alias on a class (``FieldElem.__rmul__`` is
``FieldElem.__mul__``).  Methods are patched on their class, never by
replacing the class, because ``places`` and ``autgroup`` use ``isinstance``.

A span records (name, start, end, parent span, job id).  Spans and counters
stay in memory and are written once by ``Tracer.dump``.  ``layer_metrics``
turns the dumps of one pass into the per-layer metrics named in
``BENCHMARK.json``.
"""

import importlib
import json
import pkgutil
import sys
from collections import Counter
from time import perf_counter

SPAN = "span"
COUNT = "count"

# (module, attribute path, metric name, kind).  Counted names are too hot
# for a timer per call (a FieldElem multiply is a few microseconds).
TARGETS = (
    ("cycloff.cli", "main", "cli.main", SPAN),
    ("cycloff.autgroup", "group_report", "autgroup.group_report", SPAN),
    ("cycloff.autgroup", "closure", "autgroup.closure", SPAN),
    ("cycloff.autgroup", "make_rho", "autgroup.make_rho", SPAN),
    ("cycloff.autgroup", "orbits", "autgroup.orbits", SPAN),
    ("cycloff.autgroup", "stabilizer", "autgroup.stabilizer", SPAN),
    ("cycloff.autgroup", "quotient_is_pgl23", "autgroup.quotient_is_pgl23",
     SPAN),
    ("cycloff.autgroup", "compose", "autgroup.compose", COUNT),
    ("cycloff.autgroup", "Aut.__init__", "autgroup.Aut", COUNT),
    ("cycloff.places", "count_degree_one", "places.count_degree_one", SPAN),
    ("cycloff.places", "zeta", "places.zeta", SPAN),
    ("cycloff.places", "divisor", "places.divisor", SPAN),
    ("cycloff.places", "lspace_check", "places.lspace_check", SPAN),
    ("cycloff.places", "ramified_places", "places.ramified_places", SPAN),
    ("cycloff.polyalg", "roots_in", "polyalg.roots_in", SPAN),
    ("cycloff.polyalg", "Poly.__divmod__", "polyalg.Poly.divmod", COUNT),
    ("cycloff.polyalg", "Poly.__mul__", "polyalg.Poly.mul", COUNT),
    ("cycloff.polyalg", "poly_gcd", "polyalg.poly_gcd", COUNT),
    ("cycloff.gf", "embed", "gf.embed", SPAN),
    ("cycloff.gf", "create_field", "gf.create_field", SPAN),
    ("cycloff.gf", "FieldCtx.nth_roots", "gf.FieldCtx.nth_roots", SPAN),
    ("cycloff.gf", "FieldElem.__mul__", "gf.FieldElem.mul", COUNT),
    ("cycloff.gf", "FieldElem.inverse", "gf.FieldElem.inverse", COUNT),
    ("cycloff.gf", "FieldElem.__pow__", "gf.FieldElem.pow", COUNT),
    ("cycloff.kummer", "KummerCurve.__init__", "kummer.KummerCurve", SPAN),
    ("cycloff.kummer", "verify_prop31", "kummer.verify_prop31", SPAN),
    ("cycloff.carlitz", "CycModel.__init__", "carlitz.CycModel", SPAN),
    ("cycloff.carlitz", "galois_map", "carlitz.galois_map", SPAN),
)

REFUSALS = ("GenericPlaceUnsupported", "TooLarge")


def load_package():
    """Import every cycloff module, so no later import binds an original."""
    import cycloff
    for info in pkgutil.iter_modules(cycloff.__path__, "cycloff."):
        importlib.import_module(info.name)
    return sorted(name for name in sys.modules
                  if name == "cycloff" or name.startswith("cycloff."))


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def _bindings(original, modules):
    """Every (namespace, key) that holds ``original``."""
    found = []
    for name in modules:
        for ns in _namespaces(sys.modules[name]):
            for key, value in list(vars(ns).items()):
                if value is original:
                    found.append((ns, key))
    return found


def _namespaces(module):
    yield module
    for value in list(vars(module).values()):
        if isinstance(value, type) and value.__module__ == module.__name__:
            yield value


class Tracer:
    """In-memory spans and counters for one child process."""

    def __init__(self, job="setup"):
        self.job = job
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._closure_depth = 0
        self.originals = []

    def install(self):
        modules = load_package()
        for module, path, name, kind in TARGETS:
            original = _resolve(module, path)
            wrapper = (self._span(name, original) if kind == SPAN
                       else self._count(name, original))
            wrapper.__wrapped__ = original
            for ns, key in _bindings(original, modules):
                setattr(ns, key, wrapper)
            self.originals.append((name, original))
        return self

    def unwrapped(self):
        """Bindings in cycloff.* that still hold a traced original."""
        modules = load_package()
        return [f"{getattr(ns, '__qualname__', ns.__name__)}.{key} ({name})"
                for name, original in self.originals
                for ns, key in _bindings(original, modules)]

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(name)
        is_closure = name == "autgroup.closure"

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.job]
            stack.append(len(spans))
            spans.append(rec)
            self._closure_depth += is_closure
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ in REFUSALS:
                    self.counts[name + ".refused"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
                self._closure_depth -= is_closure
            if observe:
                observe(self.counts, args, result)
            return result
        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        key = name + ".calls"
        if name == "autgroup.compose":
            def wrapper(*args, **kwargs):
                counts[key] += 1
                if self._closure_depth:
                    counts["autgroup.compose.in_closure"] += 1
                return fn(*args, **kwargs)
            return wrapper

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _count_degree_one(counts, args, result):
    curve, k = args[0], args[1]
    counts["places.count_degree_one.field_elems"] += curve.q ** k


def _roots_in(counts, args, result):
    counts["polyalg.roots_in.field_elems"] += args[1].order
    counts["polyalg.roots_in.roots"] += len(result)


def _closure(counts, args, result):
    counts["autgroup.closure.order"] += result.order


_OBSERVERS = {
    "places.count_degree_one": _count_degree_one,
    "polyalg.roots_in": _roots_in,
    "autgroup.closure": _closure,
}


# -- per-layer metrics from the dumps of one traced pass ----------------------

def _span_totals(dumps):
    total, self_time, calls = Counter(), Counter(), Counter()
    n_spans = 0
    for dump in dumps:
        spans = dump["spans"]
        n_spans += len(spans)
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_time[name] += end - start - child[i]
            # time a layer once even when it re-enters itself
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total[name] += end - start
    return total, self_time, calls, n_spans


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(dumps):
    """Per-layer metric values (name -> (value, unit)) for one pass."""
    total, self_time, calls, n_spans = _span_totals(dumps)
    counts = Counter()
    for dump in dumps:
        counts.update(dump["counts"])
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for name in ("autgroup.group_report", "autgroup.closure",
                 "autgroup.make_rho", "autgroup.orbits",
                 "autgroup.stabilizer", "autgroup.quotient_is_pgl23",
                 "places.count_degree_one", "places.divisor",
                 "places.ramified_places", "polyalg.roots_in", "gf.embed",
                 "gf.create_field", "gf.FieldCtx.nth_roots",
                 "kummer.KummerCurve", "kummer.verify_prop31",
                 "carlitz.CycModel", "carlitz.galois_map"):
        put(name + ".s", total[name], "s")
    for name in ("places.zeta", "places.lspace_check", "cli.main"):
        put(name + ".self_s", self_time[name], "s")
    for name in ("places.count_degree_one", "places.divisor",
                 "polyalg.roots_in", "gf.embed", "kummer.KummerCurve"):
        put(name + ".calls", calls[name], "count")
    for name in ("autgroup.compose", "autgroup.Aut", "polyalg.Poly.divmod",
                 "polyalg.Poly.mul", "polyalg.poly_gcd", "gf.FieldElem.mul",
                 "gf.FieldElem.inverse", "gf.FieldElem.pow"):
        put(name + ".calls", counts[name + ".calls"], "count")
    put("autgroup.closure.order", counts["autgroup.closure.order"], "count")
    put("autgroup.closure.new_per_compose",
        _ratio(counts["autgroup.closure.order"] - calls["autgroup.closure"],
               counts["autgroup.compose.in_closure"]), "ratio")
    elems = counts["places.count_degree_one.field_elems"]
    put("places.count_degree_one.field_elems", elems, "count")
    put("places.count_degree_one.field_elems_per_s",
        _ratio(elems, total["places.count_degree_one"]), "1/s")
    put("places.divisor.refused", counts["places.divisor.refused"], "count")
    scanned = counts["polyalg.roots_in.field_elems"]
    put("polyalg.roots_in.field_elems", scanned, "count")
    put("polyalg.roots_in.roots_per_elem",
        _ratio(counts["polyalg.roots_in.roots"], scanned), "ratio")
    put("trace.spans", n_spans, "count")
    return out
