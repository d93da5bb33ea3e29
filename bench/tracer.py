"""Per-layer spans around partialzeta's public functions, from outside src/.

Each wrapped function becomes a span: its calls, and its self time, which
is the span's duration minus the time its child spans cover.  Spans are
aggregated per name in memory as they close (the graph workload alone opens
over half a million), and read out once the traced call returns.
"""
from __future__ import annotations

import functools
import sys
import time

# (metric prefix, module, attribute path) of every wrapped function
FUNCTIONS = [
    ("cli.main", "partialzeta.cli", "main"),
    ("primes.primes_up_to", "partialzeta.primes", "primes_up_to"),
    ("core.primes_up_to", "partialzeta.core", "ZetaSystem.primes_up_to"),
    ("core.arrays_up_to", "partialzeta.core", "ZetaSystem.arrays_up_to"),
    ("core.log_product", "partialzeta.core", "log_product"),
    ("numberfield.enumerate", "partialzeta.numberfield", "AbelianSystem._enumerate"),
    ("frobenius.log_L", "partialzeta.frobenius", "log_L"),
    ("continuation.continue_f_power", "partialzeta.continuation", "continue_f_power"),
    ("continuation.boundary_report", "partialzeta.continuation", "boundary_report"),
    ("lfunctions.hurwitz_zeta", "partialzeta.lfunctions", "hurwitz_zeta"),
    ("lfunctions.dirichlet_L", "partialzeta.lfunctions", "dirichlet_L"),
    ("numberfield.find_zeros", "partialzeta.numberfield", "find_zeros"),
] + [(f"graphs.{f}", "partialzeta.graphs", f)
     for f in ("graph_L", "ihara_det", "ihara_edge", "cover_zeta_inverse",
               "partial_zeta_series", "primitive_cycles", "build_cover")]

# arithmetic methods aggregated into one span per class, counted as ops
CLASS_OPS = {
    "series.Cyclotomic": ("partialzeta.series", "Cyclotomic",
                          ("__add__", "__radd__", "__sub__", "__rsub__",
                           "__neg__", "__mul__", "__rmul__", "inverse",
                           "__truediv__")),
    "series.ExactSeries": ("partialzeta.series", "ExactSeries",
                           ("__add__", "__sub__", "__neg__", "__mul__",
                            "__rmul__", "__pow__", "inverse", "__truediv__",
                            "substitute_power", "truncate")),
}


def _count_pairs(stat, args, kwargs, result):
    norms, s = args[0], args[2] if len(args) > 2 else kwargs["s"]
    stat["pairs"] += len(norms) * (len(s) if hasattr(s, "__len__") else 1)


def _count_primes(stat, args, kwargs, result):
    stat["primes"] += len(result)


def _count_cycles(stat, args, kwargs, result):
    stat["cycles"] += len(result)


COUNTERS = {"core.log_product": ("pairs", _count_pairs),
            "numberfield.enumerate": ("primes", _count_primes),
            "graphs.primitive_cycles": ("cycles", _count_cycles)}


class Tracer:
    """Installs spans into the loaded partialzeta modules and aggregates them."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.catalogs: list[list[list[float]]] = []  # find_zeros results
        self._child_time = [0.0]  # open spans' child time; [0] is the root

    def span(self, name: str, fn, count=None):
        stat = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        stack, clock = self._child_time, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat["calls"] += 1
                stat["self_s"] += dt - stack.pop()
                stack[-1] += dt
            if count is not None:
                count(stat, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every listed function, in every partialzeta namespace that
        bound it, so calls through `from ... import` names are seen too."""
        for name, module, path in FUNCTIONS:
            key, count = COUNTERS.get(name, (None, None))
            orig, owner = _resolve(module, path)
            if key:
                self.stats[name] = {"calls": 0, "self_s": 0.0, key: 0}
            if name == "numberfield.find_zeros":
                wrapped = self._find_zeros(self.span(name, orig))
            else:
                wrapped = self.span(name, orig, count)
            if owner is not None:
                setattr(owner, path.rsplit(".", 1)[1], wrapped)
            else:
                _rebind(orig, wrapped)
        g_closed_form, _ = _resolve("partialzeta.numberfield", "g_closed_form")
        _rebind(g_closed_form, self._g_closed_form(g_closed_form))
        for name, (module, cls_name, methods) in CLASS_OPS.items():
            cls = getattr(sys.modules[module], cls_name)
            for m in methods:
                setattr(cls, m, self.span(name, cls.__dict__[m]))

    def _g_closed_form(self, orig):
        """Make each g evaluator's callback a `numberfield.g` span."""
        @functools.wraps(orig)
        def g_closed_form(*args, **kwargs):
            ev = orig(*args, **kwargs)
            ev.fn = self.span("numberfield.g", ev.fn)
            return ev
        self.stats.setdefault("numberfield.g", {"calls": 0, "self_s": 0.0})
        return g_closed_form

    def _find_zeros(self, traced):
        """Count catalog points and the g calls spent on them."""
        stat = self.stats["numberfield.find_zeros"]
        stat.update(points=0, g_calls=0)
        g = self.stats.setdefault("numberfield.g", {"calls": 0, "self_s": 0.0})

        @functools.wraps(traced)
        def find_zeros(*args, **kwargs):
            before = g["calls"]
            cat = traced(*args, **kwargs)
            stat["points"] += len(cat.points)
            stat["g_calls"] += g["calls"] - before
            self.catalogs.append([[p.location.real, p.location.imag, p.order]
                                  for p in cat.points])
            return cat
        return find_zeros


def _resolve(module: str, path: str):
    """(function, owning class or None) for 'func' or 'Class.method'."""
    obj = sys.modules[module]
    owner = None
    for part in path.split("."):
        owner = obj if isinstance(obj, type) else None
        obj = getattr(obj, part) if owner is None else obj.__dict__[part]
    return obj, owner


def _rebind(orig, wrapped) -> None:
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "partialzeta" or mod_name.startswith("partialzeta."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                    hits += 1
    if not hits:
        raise LookupError(f"{orig.__qualname__} is bound nowhere")
