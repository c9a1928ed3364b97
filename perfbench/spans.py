"""Outside-in tracing for the traced run, and the per-layer metrics it yields.

For the traced run only, ``Tracer.installed`` replaces the package's public
functions listed in TARGETS by recording wrappers, in every package module
that binds them, and puts the originals back afterwards.  Calls inside the
package look these names up at call time, so the wrappers see them too,
including recursive calls.  ``kernels.eval`` is wrapped on the class.  No
private name is wrapped and no source file is touched.

Each wrapped call records a span (name, start, end, parent, success, a small
note such as the iteration count) tagged with the repetition it belongs to.
A span's self time is its duration minus that of its direct children; a
layer's self time is the sum over its spans.

A target the package no longer has (renamed or deleted) is skipped and every
metric that needs it is reported as missing; the run does not crash.
"""

import contextlib
import functools
import json
import os
import sys
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _kernel_family(kern):
    if kern.r0_form is not None:
        return kern.name
    return "constant" if kern.constant else "generic"


def _steps(cfg):
    return cfg.n_sites, int(round(cfg.t_end / cfg.dt))


def _lambda_rungs(args, kwargs):
    ladder = kwargs.get("eps_ladder")
    return len(_arg(args, kwargs, 2, "lam_grid")) * (len(ladder) if ladder else 1)


# span name -> (module, attribute path, note(args, kwargs, result) or None)
TARGETS = {
    "cli.main": ("cli", "main", None),
    "cli.write_csv": ("cli", "write_csv",
                      lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
    "solver.fixed_point_solve": ("solver", "fixed_point_solve",
                                 lambda a, k, r: r.iterations),
    "solver.spectral_density": ("solver", "spectral_density",
                                lambda a, k, r: _lambda_rungs(a, k)),
    "solver.r0_apply": ("solver", "r0_apply",
                        lambda a, k, r: _kernel_family(_arg(a, k, 0, "kern"))),
    "solver.moment_series": ("solver", "moment_series", None),
    "ensembles.qssep_subblock_density": ("ensembles", "qssep_subblock_density", None),
    "ensembles.solve_Q": ("ensembles", "solve_Q", None),
    "freeprob.richardson_extrapolate": ("freeprob", "richardson_extrapolate", None),
    "ncpart.moment_oracle": ("ncpart", "moment_oracle",
                             lambda a, k, r: _arg(a, k, 2, "n")),
    "ncpart.kreweras": ("ncpart", "kreweras", None),
    "ncpart.enumerate_nc": ("ncpart", "enumerate_nc", None),
    "kernels.eval": ("kernels", "LocalCumulantKernel.eval", None),
    "grids.as_grid_values": ("grids", "as_grid_values", None),
    "rmt_mc.qssep_run": ("rmt_mc", "qssep_run",
                         lambda a, k, r: _steps(_arg(a, k, 0, "cfg"))),
    "rmt_mc.subblock_eigs": ("rmt_mc", "subblock_eigs", None),
    "rmt_mc.empirical_density": ("rmt_mc", "empirical_density", None),
    "rmt_mc.ks_distance": ("rmt_mc", "ks_distance", None),
}
LAYERS = ("cli", "solver", "ensembles", "freeprob", "ncpart", "kernels", "grids", "rmt_mc")


class Tracer:
    """Span recorder; ``installed(modules)`` wraps TARGETS for its duration."""

    def __init__(self):
        self.spans = []     # [rep, name, start, end, parent, ok, note]
        self.missing = set()
        self.rep = 0
        self._stack = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok, info = False, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                if ok and note is not None:
                    try:
                        info = note(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, OSError):
                        info = None
                spans[idx] = [self.rep, name, start, end, parent, ok, info]
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, modules):
        """Wrap every target found in ``modules`` (layer name -> module)."""
        package = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "subspectra" or key.startswith("subspectra."))]
        patches = []
        try:
            for name, (layer, path, note) in TARGETS.items():
                owner = modules.get(layer)
                *cls, attr = path.split(".")
                if cls:
                    owner = getattr(owner, cls[0], None)
                original = vars(owner).get(attr) if owner is not None else None
                if not callable(original):
                    self.missing.add(name)
                    continue
                wrapper = self._wrap(name, original, note)
                for holder in [owner] if cls else package:
                    for key, val in list(vars(holder).items()):
                        if val is original:
                            patches.append((holder, key, original))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(patches):
                setattr(holder, key, original)

    def rep_view(self, rep):
        return RepSpans([(g, s) for g, s in enumerate(self.spans) if s[0] == rep])

    def dump(self, path):
        """Write every span as ``[rep, name, start_us, duration_us, parent, ok, note]``."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        rows = [[s[0], s[1], round((s[2] - t0) * 1e6, 1), round((s[3] - s[2]) * 1e6, 1),
                 s[4], s[5], s[6]] for s in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"missing": sorted(self.missing), "spans": rows}, fh)


class RepSpans:
    """Spans of one repetition (given with their tracer indices), aggregated."""

    def __init__(self, indexed):
        self.spans = [s for _, s in indexed]
        pos = {g: k for k, (g, _) in enumerate(indexed)}
        dur = np.array([s[3] - s[2] for s in self.spans])
        child = np.zeros(len(self.spans))
        for s, d in zip(self.spans, dur):
            if s[4] in pos:
                child[pos[s[4]]] += d
        self.self_time = dur - child
        self.parent_name = {id(s): self.spans[pos[s[4]]][1] if s[4] in pos else None
                            for s in self.spans}
        self.by_name = {}
        for s in self.spans:
            self.by_name.setdefault(s[1], []).append(s)

    def of(self, name):
        return self.by_name.get(name, [])

    def calls(self, name):
        return len(self.of(name))

    def failed(self, name):
        return sum(1 for s in self.of(name) if not s[5])

    def seconds(self, name):
        return float(sum(s[3] - s[2] for s in self.of(name)))

    def durations(self, name):
        return np.array([s[3] - s[2] for s in self.of(name)])

    def layer_self(self, layer):
        return float(sum(t for s, t in zip(self.spans, self.self_time)
                         if s[1].split(".")[0] == layer))


def _ratio(num, den):
    return float(num) / den if den else 0.0


def layer_metrics(v):
    """Per-layer metrics of one traced repetition (``v`` is a RepSpans).

    A metric whose layer the workload does not reach reads 0.
    """
    m = {}
    fps = "solver.fixed_point_solve"
    ok_iters = np.array([s[6] for s in v.of(fps) if s[5] and s[6] is not None], dtype=float)
    ms = v.durations(fps) * 1e3
    m[f"{fps}.calls"] = v.calls(fps)
    m[f"{fps}.failed"] = v.failed(fps)
    m[f"{fps}.ok_ratio"] = _ratio(v.calls(fps) - v.failed(fps), v.calls(fps))
    m[f"{fps}.iters_mean"] = float(ok_iters.mean()) if ok_iters.size else 0.0
    m[f"{fps}.iters_p95"] = float(np.percentile(ok_iters, 95)) if ok_iters.size else 0.0
    m[f"{fps}.ms_p50"] = float(np.percentile(ms, 50)) if ms.size else 0.0
    m[f"{fps}.ms_p95"] = float(np.percentile(ms, 95)) if ms.size else 0.0
    points = sum(s[6] or 0 for s in v.of("solver.spectral_density"))
    m["solver.spectral_density.ms_per_point"] = _ratio(
        v.seconds("solver.spectral_density") * 1e3, points)
    m["solver.r0_apply.calls"] = v.calls("solver.r0_apply")
    for family in ("qssep", "constant", "generic"):
        durs = [s[3] - s[2] for s in v.of("solver.r0_apply") if s[6] == family]
        m[f"solver.r0_apply.us_per_call.{family}"] = _ratio(sum(durs) * 1e6, len(durs))
    m["solver.moment_series.s"] = v.seconds("solver.moment_series")

    m["ensembles.qssep_subblock_density.s"] = v.seconds("ensembles.qssep_subblock_density")
    m["ensembles.solve_Q.calls"] = v.calls("ensembles.solve_Q")
    m["ensembles.solve_Q.failed"] = v.failed("ensembles.solve_Q")

    m["freeprob.richardson_extrapolate.s"] = v.seconds("freeprob.richardson_extrapolate")

    for n in range(1, 7):
        durs = [s[3] - s[2] for s in v.of("ncpart.moment_oracle") if s[6] == n]
        m[f"ncpart.moment_oracle.n{n}.ms"] = _ratio(sum(durs) * 1e3, len(durs))
    for name in ("ncpart.moment_oracle", "ncpart.kreweras", "ncpart.enumerate_nc",
                 "kernels.eval", "grids.as_grid_values", "rmt_mc.qssep_run",
                 "rmt_mc.subblock_eigs", "cli.write_csv"):
        m[f"{name}.calls"] = v.calls(name)
    m["kernels.eval.s"] = v.seconds("kernels.eval")

    runs = v.of("rmt_mc.qssep_run")
    self_of = {id(s): t for s, t in zip(v.spans, v.self_time)}
    for n in (50, 100, 200):
        sized = [s for s in runs if s[6] is not None and s[6][0] == n]
        m[f"rmt_mc.step_us.n{n}"] = _ratio(sum(self_of[id(s)] for s in sized) * 1e6,
                                           sum(s[6][1] for s in sized))
    executed = sum(s[6][1] for s in runs if s[6] is not None)
    # a qssep_run called from inside another one is a repeat pass nobody asked for
    requested = sum(s[6][1] for s in runs
                    if s[6] is not None and v.parent_name[id(s)] != "rmt_mc.qssep_run")
    m["rmt_mc.steps"] = executed
    m["rmt_mc.steps_useful_ratio"] = _ratio(requested, executed)
    m["rmt_mc.subblock_eigs.s"] = v.seconds("rmt_mc.subblock_eigs")
    m["rmt_mc.empirical_density.s"] = v.seconds("rmt_mc.empirical_density")
    m["rmt_mc.ks_distance.s"] = v.seconds("rmt_mc.ks_distance")
    m["rmt_mc.failed"] = sum(1 for s in v.spans if s[1].startswith("rmt_mc.") and not s[5])

    m["cli.main.s"] = v.seconds("cli.main")
    m["cli.write_csv.bytes"] = sum(s[6] or 0 for s in v.of("cli.write_csv"))
    m["cli.write_csv.s"] = v.seconds("cli.write_csv")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = v.layer_self(layer)
    return m


def is_exact(metric):
    """True for counts that must repeat exactly between repetitions and runs at one seed."""
    return (metric.endswith((".calls", ".failed", ".iters_mean", ".iters_p95", ".bytes"))
            or metric in ("rmt_mc.steps", "rmt_mc.failed"))


def needed_target(metric):
    """The wrapped name a metric is computed from, or the layer for layer totals."""
    if metric.startswith(("rmt_mc.step_us.", "rmt_mc.steps")):
        return "rmt_mc.qssep_run"
    for name in TARGETS:
        if metric.startswith(name + "."):
            return name
    return metric.split(".")[0]


def is_missing(metric, missing):
    """True when a target the metric needs was not found in the package."""
    target = needed_target(metric)
    if target in TARGETS:
        return target in missing
    if target in LAYERS:
        return all(name in missing for name in TARGETS if name.startswith(target + "."))
    return False
