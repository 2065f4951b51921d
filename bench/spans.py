"""Layer spans for a traced run, recorded from outside the package.

Every public function of each nlsurf module is wrapped, and the wrapper is
bound in place of the original in *every* nlsurf module that holds it:
`surface` and `quenched` import `batch_gibbs` by name, so patching
`nlsurf.exact` alone would record nothing.  A call opens a span only when it
crosses into another layer (module); calls inside a layer belong to the open
span.  Generators are the exception: their body runs interleaved with the
caller, so each resumption is its own span.  A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("cli", "surface", "verify", "quenched", "exact", "mcmc", "rng", "lattice", "model")


@dataclass
class Span:
    layer: str
    func: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _batch_gibbs_info(args, kwargs, result):
    k_batch = args[1] if len(args) > 1 else kwargs["K_batch"]
    return {"key": "f64" if kwargs.get("precise", True) else "f32", "rows": len(k_batch)}


def _standard_normals_info(args, kwargs, result):
    return {"draws": int(result.size)}


def _estimate_correlations_info(args, kwargs, result):
    lattice, config = args[0], kwargs["config"]
    _, diags = result
    return {
        "key": f"L{lattice.side // 2}",
        "site_sweeps": lattice.n_sites * config.sweeps * config.replicas,
        "ess_per_measurement": diags.ess / diags.n_measurements,
        "acceptance": diags.acceptance[-1],
    }


def _suite_info(args, kwargs, result):
    return {"checks": len(result), "misses": sum(not r.passed for r in result)}


# what each counted function adds to its span, from its arguments and result
_INFO = {
    ("exact", "batch_gibbs"): _batch_gibbs_info,
    ("rng", "standard_normals"): _standard_normals_info,
    ("mcmc", "estimate_correlations"): _estimate_correlations_info,
    ("verify", "run_standard_suite"): _suite_info,
}


class Tracer:
    """Spans kept in memory; install() swaps the wrappers in and back out."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, layer: str, func: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(layer, func, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, i: int) -> None:
        span = self.spans[i]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    def _inside(self, layer: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]].layer == layer

    def _wrap(self, layer: str, name: str, fn):
        info = _INFO.get((layer, name))
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = self._open(layer, name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    self.spans[i].info["rows"] = len(item[0])
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._inside(layer):
                return fn(*args, **kwargs)
            i = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if info is not None:
                self.spans[i].info.update(info(args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def install(self):
        import nlsurf  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sys.modules.items() if n == "nlsurf" or n.startswith("nlsurf.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"nlsurf.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        patched = []
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, name, wrappers[id(obj)][1])
                    patched.append((mod, name, obj))
        try:
            yield self
        finally:
            for mod, name, obj in patched:
                setattr(mod, name, obj)


def per_layer(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer counts and self times from one traced operation, as name -> (value, unit).

    Every name is always present, so a layer that a workload does not reach
    reads 0 and not missing.
    """
    spans = tracer.spans
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_s[s.layer] += s.self_s
    # cli, surface and verify enter their layer through one kind of call
    m: dict[str, tuple[float, str]] = {
        "cli.run.self_s": (layer_s["cli"], "s"),
        "surface.term.self_s": (layer_s["surface"], "s"),
        "verify.suite.self_s": (layer_s["verify"], "s"),
    }
    m.update({f"{layer}.self_s": (layer_s[layer], "s") for layer in LAYERS[3:]})

    def pick(layer, func, key=None):
        return [s for s in spans if s.layer == layer and s.func == func and (key is None or s.info.get("key") == key)]

    for key in ("f32", "f64"):
        bg = pick("exact", "batch_gibbs", key)
        rows = sum(s.info["rows"] for s in bg)
        self_s = sum(s.self_s for s in bg)
        m[f"exact.batch_gibbs.{key}.calls"] = (len(bg), "count")
        m[f"exact.batch_gibbs.{key}.rows"] = (rows, "count")
        m[f"exact.batch_gibbs.{key}.self_s"] = (self_s, "s")
        m[f"exact.batch_gibbs.{key}.us_per_row"] = (1e6 * self_s / rows if rows else 0.0, "us")

    dc = pick("quenched", "disorder_cores")
    m["quenched.disorder_cores.rows"] = (sum(s.info.get("rows", 0) for s in dc), "count")
    m["quenched.disorder_cores.self_s"] = (sum(s.self_s for s in dc), "s")
    qj = pick("quenched", "quenched_joint")
    m["quenched.quenched_joint.calls"] = (len(qj), "count")
    m["quenched.quenched_joint.self_s"] = (sum(s.self_s for s in qj), "s")

    sn = pick("rng", "standard_normals")
    draws = sum(s.info["draws"] for s in sn)
    sn_s = sum(s.self_s for s in sn)
    m["rng.standard_normals.draws"] = (draws, "count")
    m["rng.standard_normals.self_s"] = (sn_s, "s")
    m["rng.normals_per_s"] = (draws / sn_s if sn_s > 0 else 0.0, "1/s")

    chains_all = pick("mcmc", "estimate_correlations")
    for key in ("L4", "L6"):
        ch = [s for s in chains_all if s.info["key"] == key]
        self_s = sum(s.self_s for s in ch)
        site_sweeps = sum(s.info["site_sweeps"] for s in ch)
        m[f"mcmc.estimate_correlations.{key}.chains"] = (len(ch), "count")
        m[f"mcmc.estimate_correlations.{key}.self_s"] = (self_s, "s")
        m[f"mcmc.{key}.ns_per_site_sweep"] = (1e9 * self_s / site_sweeps if site_sweeps else 0.0, "ns")
    m["mcmc.ess_per_measurement"] = (min((s.info["ess_per_measurement"] for s in chains_all), default=0.0), "1")
    acceptance = sum(s.info["acceptance"] for s in chains_all) / len(chains_all) if chains_all else 0.0
    m["mcmc.acceptance"] = (acceptance, "1")

    suite = pick("verify", "run_standard_suite")
    m["verify.checks"] = (sum(s.info["checks"] for s in suite), "count")
    m["verify.mc_misses"] = (sum(s.info["misses"] for s in suite), "count")
    return m


def top_level(tracer: Tracer) -> list[str]:
    """The spans with no parent, as layer.func: one `cli.run` per traced operation."""
    return [f"{s.layer}.{s.func}" for s in tracer.spans if s.parent is None]
