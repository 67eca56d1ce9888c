"""Per-layer spans recorded from outside the program.

Run as a script, this is one traced job: it imports siegelcong, wraps the
public entry points of each module listed in LAYERS, runs the CLI in-process
and writes what it measured (raw()) as JSON:

    python3 perfbench/spans.py OUT.json [--reload-cache] -- <cli args>

The CLI's stdout is passed through unchanged, so the caller can check it.
A wrapped function is replaced in every siegelcong module that binds it
(`siegel_mul` is bound in both `siegel` and `expr`, for example), so calls
through any import are recorded.  Recursive calls are recorded as nested
spans; a layer's inclusive time counts only its outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import redirect_stdout
from io import StringIO


class Tracer:
    """Records one span per wrapped call: [name, start, end, parent index]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stats = {}
        self._stack = []

    def wrap(self, name, fn, hook=None):
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if hook:
                hook(self.stats, sig.bind(*args, **kwargs).arguments, result)
            return result
        return traced


def layer_times(spans):
    """{name: {"calls", "s", "self_s"}} from [name, start, end, parent] spans.

    Self time is a span's duration minus the time covered by its child spans
    (calls nest, so children never overlap).  Inclusive time "s" sums only
    spans with no ancestor of the same name, so recursion is not counted twice.
    """
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - sum(e - s for s, e in children[i])
        a = parent
        while a is not None and spans[a][0] != name:
            a = spans[a][3]
        if a is None:
            row["s"] += end - start
    return out


# -- hooks: per-layer counts read from arguments and results ------------------------

def _max(stats, key, value):
    stats[key] = max(stats.get(key, 0), value)


def _add(stats, key, value):
    stats[key] = stats.get(key, 0) + value


def _siegel_mul(stats, a, result):
    _max(stats, "siegel.siegel_mul.box_max", min(a["F"].prec, a["G"].prec))


def _certificate(stats, a, result):
    _add(stats, "siegel.classes_checked", result.classes_checked)


def _weak_generators(stats, a, result):
    _max(stats, "jacobi.weak_generators.qprec_max", a["prec"])


def _holo_basis(stats, a, result):
    key = (a["k"], a["m"], a["prec"], a["p"])
    seen = stats.setdefault("_holo_keys", set())
    _add(stats, "_holo_repeats", key in seen)
    seen.add(key)


def _matrix(stats, a, result):
    _add(stats, "linalg.entries", a["mat"].rows * a["mat"].cols)


def _membership(stats, a, result):
    _add(stats, "linalg.entries", len(a["v"]) * len(a["basis_rows"]))


def _store(stats, a, result):
    path = a["self"]._path(a["name"], a["form"].ring, a["form"].prec)
    _add(stats, "cache.store.bytes", path.stat().st_size)
    stats.setdefault("_stored", []).append((a["name"], a["form"].ring.tag, a["form"].prec))


def _load(stats, a, result):
    _add(stats, "_load_hits", result is not None)


# (layer name, module, attribute, hook); "Class.method" patches the class.
LAYERS = [
    ("siegel.siegel_mul", "siegel", "siegel_mul", _siegel_mul),
    ("siegel.igusa_generators", "siegel", "igusa_generators", None),
    ("siegel.maass_lift", "siegel", "maass_lift", None),
    ("siegel.congruence_scan", "siegel", "congruence_scan", None),
    ("siegel.siegel_congruence", "siegel", "siegel_congruence", _certificate),
    ("siegel.search_cell", "siegel", "_search_cell", None),
    ("siegel.monomial", "siegel", "GeneratorContext.monomial", None),
    ("siegel.contexts", "siegel", "GeneratorContext.__init__", None),
    ("expr.evaluate", "expr", "evaluate", None),
    ("jacobi.weak_generators", "jacobi", "weak_generators", _weak_generators),
    ("jacobi.jacobi_eisenstein", "jacobi", "jacobi_eisenstein", None),
    ("jacobi.jacobi_cusp", "jacobi", "jacobi_cusp", None),
    ("jacobi.qseries_times_jacobi", "jacobi", "qseries_times_jacobi", None),
    ("jacobi.heat_cycle", "jacobi", "heat_cycle", None),
    ("jacobi.holo_basis", "jacobi", "holo_basis", _holo_basis),
    ("jacobi.filtration", "jacobi", "filtration", None),
    ("jacobi.heat", "jacobi", "heat", None),
    ("jacobi.jac_zero_test", "jacobi", "jac_zero_test", None),
    ("jacobi.heat_cycle_required_prec", "jacobi", "heat_cycle_required_prec", None),
    ("qexp.mk_basis", "qexp", "mk_basis", None),
    ("qexp.mk_dim", "qexp", "mk_dim", None),
    ("linalg.kernel_basis", "linalg", "kernel_basis", _matrix),
    ("linalg.rref", "linalg", "rref", _matrix),
    ("linalg.membership", "linalg", "membership", _membership),
    ("cache.store", "cache", "DiskCache.store", _store),
    ("cache.load", "cache", "DiskCache.load", _load),
]
# layers whose spans only count calls (a constructor is not a stage)
COUNT_ONLY = {"siegel.contexts"}

# metrics besides <layer>.calls/.s/.self_s, with their units
EXTRA_UNITS = {
    "siegel.siegel_mul.box_max": "box",
    "siegel.classes_checked": "count",
    "jacobi.weak_generators.qprec_max": "count",
    "jacobi.holo_basis.hit_ratio": "ratio",
    "linalg.entries": "count",
    "cache.store.bytes": "B",
    "cache.load.hit_ratio": "ratio",
}


def metric_units():
    """Every per-layer metric metrics() reports, name -> unit."""
    units = {}
    for name, *_ in LAYERS:
        if name in COUNT_ONLY:
            units[name] = "count"
        else:
            units.update({f"{name}.s": "s", f"{name}.self_s": "s", f"{name}.calls": "count"})
    units.update(EXTRA_UNITS)
    return units


def install(tracer):
    """Wrap every LAYERS entry in each siegelcong module that binds it."""
    importlib.import_module("siegelcong.cli")
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "siegelcong"]
    for name, module, attr, hook in LAYERS:
        owner = importlib.import_module(f"siegelcong.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), hook))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, hook)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)


def raw(tracer):
    """What one traced process measured, in a form merge() can add up:
    per-layer times, and counters (a name ending in "_max" is a maximum)."""
    stats = {k: v for k, v in tracer.stats.items() if isinstance(v, (int, float))}
    return {"times": layer_times(tracer.spans), "stats": stats}


def merge(parts):
    """Add up raw() results of several processes."""
    times, stats = {}, {}
    for part in parts:
        for name, row in part["times"].items():
            acc = times.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k, v in row.items():
                acc[k] += v
        for k, v in part["stats"].items():
            stats[k] = max(stats.get(k, 0), v) if k.endswith("_max") else stats.get(k, 0) + v
    return {"times": times, "stats": stats}


def metrics(merged):
    """Per-layer metrics {name: value}, with the names of metric_units()."""
    times, stats = merged["times"], merged["stats"]
    out = {}
    for name, *_ in LAYERS:
        row = times.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if name in COUNT_ONLY:
            out[name] = row["calls"]
        else:
            out.update({f"{name}.s": row["s"], f"{name}.self_s": row["self_s"],
                        f"{name}.calls": row["calls"]})
    for key in EXTRA_UNITS:
        out[key] = stats.get(key, 0)
    holo = out["jacobi.holo_basis.calls"]
    out["jacobi.holo_basis.hit_ratio"] = stats.get("_holo_repeats", 0) / holo if holo else 0.0
    loads = out["cache.load.calls"]
    out["cache.load.hit_ratio"] = stats.get("_load_hits", 0) / loads if loads else 0.0
    return out


def main(argv):
    out_path, rest = argv[0], argv[1:]
    reload_cache = rest[0] == "--reload-cache"
    cli_args = rest[rest.index("--") + 1:]
    tracer = Tracer()
    install(tracer)
    from siegelcong import cli
    from siegelcong.cache import DiskCache
    from siegelcong.ring import ring_from_tag
    captured = StringIO()
    with redirect_stdout(captured):
        code = cli.main(cli_args)
    if reload_cache and code == 0:
        # time the warm read path: read back every entry this job stored
        cache = DiskCache(cli_args[cli_args.index("--cache-dir") + 1])
        for name, tag, prec in tracer.stats.get("_stored", []):
            if cache.load(name, ring_from_tag(tag), prec) is None:
                code = 3
    sys.stdout.write(captured.getvalue())
    with open(out_path, "w") as fh:
        json.dump(raw(tracer), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
