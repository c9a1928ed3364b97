"""Benchmark of the three routes to slice spectra: solver, oracle, Monte Carlo.

Run from the repository root:

    python3 perfbench/run.py --workload slice-scan --seed 0 --seconds 20 --trace 0

The workloads are slice-scan, chain-fixture, simulate-cli and oracle-moments
(see workloads.py and README.md).  One run is one process: BLAS is pinned to
one thread, the package is set up several times (import, kernels, first-call
caches, reference CSV), then repetitions run until the time is used.  Each
repetition is checked against the maths before its timing counts.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` the first half of the time is untraced
and the second half traced (spans.py), and the run reports the per-layer
metrics.  Timings count only repetitions in which no operation failed.  The
run prints its details, then as its last line one JSON object with
``correct``, ``attempted`` and ``failed`` (operations, summed over the
repetitions) and ``metrics``; ``--out FILE`` also appends a full record to
FILE for compare.py.  The exit code is 0 only when no operation failed.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUPS = 9          # set-ups per run; setup_s is their median
MIN_REPS = 3        # repetitions per untraced run, whatever the time
MIN_TRACED = 2      # repetitions per half of a traced run


def pin_threads():
    """One BLAS thread, and the package's own thread knob left at its default."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SUBSPECTRA_THREADS", None)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_build(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def calibrate(np):
    """Seconds for a fixed loop of Python arithmetic and small NumPy operations.

    The mix resembles the solver's inner loops; it does no work of the
    package, so its drift between runs is the machine's.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i % 7
    x = np.linspace(0.0, 1.0, 400)
    for _ in range(4_000):
        x = np.cumsum(x[::-1]) / 400.0 + 1.0 / (2.0 - np.tanh(x))
    return time.perf_counter() - start


def machine_state(np):
    import scipy

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "loadavg_start": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_build(np),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "calibration_start_s": calibrate(np)}


def import_package(layers):
    """A fresh import of the package (its modules are dropped first)."""
    for key in [k for k in sys.modules if k == "subspectra" or k.startswith("subspectra.")]:
        del sys.modules[key]
    importlib.import_module("subspectra")
    return types.SimpleNamespace(**{layer: importlib.import_module(f"subspectra.{layer}")
                                    for layer in layers})


def set_up(workload, seed, work, layers):
    times = []
    for _ in range(SETUPS):
        gc.collect()  # free the previous set-up's modules outside the timing
        start = time.perf_counter()
        pkg = import_package(layers)
        state = workload(pkg, seed, work)
        times.append(time.perf_counter() - start)
    return pkg, state, times


def measure(state, seconds, min_reps, tracer=None):
    """Checked repetitions until ``seconds`` would be overrun (at least min_reps)."""
    import workloads

    reps = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start + reps[-1]["wall"] <= seconds:
        if tracer is not None:
            tracer.rep = len(reps)
        tally = workloads.Tally()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            accuracy = state.run(tally)
        except Exception as exc:  # a failing operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            accuracy = math.inf
            tally.add(1, 1, f"{type(exc).__name__}: {exc}")
        reps.append({"wall": time.perf_counter() - w0, "cpu": time.process_time() - c0,
                     "accuracy": accuracy, "attempted": tally.attempted,
                     "failed": tally.failed, "problems": tally.problems})
    return reps


def passed(reps):
    """The repetitions in which no operation failed; only their timings count."""
    return [r for r in reps if not r["failed"]]


def median_of(values):
    return statistics.median(values) if values else math.nan


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def finite_or_none(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def end_to_end(reps, setup_times):
    good = passed(reps)
    walls = [r["wall"] for r in good]
    cpus = [r["cpu"] for r in good]
    return {
        "wall_s": median_of(walls),
        "cpu_s": median_of(cpus),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_ratio": median_of([r["accuracy"] for r in good]),
    }, {"wall_s": walls, "cpu_s": cpus, "setup_s": setup_times}


def per_layer(spans, tracer, plain, traced):
    """Median over traced repetitions; exact counts taken once and checked to repeat."""
    per_rep = [spans.layer_metrics(tracer.rep_view(k)) for k in range(len(traced))]
    values, not_exact = {}, []
    for name in per_rep[0]:
        series = [m[name] for m in per_rep]
        if spans.is_exact(name):
            values[name] = series[0]
            if any(v != series[0] for v in series):
                not_exact.append(f"{name}: {series}")
        else:
            values[name] = statistics.median(series)
    values["fail_frac"] = (sum(r["failed"] for r in plain + traced)
                           / sum(r["attempted"] for r in plain + traced))
    values["trace.overhead_frac"] = (median_of([r["wall"] for r in passed(traced)])
                                     / median_of([r["wall"] for r in passed(plain)]) - 1.0)
    return values, not_exact


def seed_arg(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return seed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=seed_arg, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the run's full record to this JSON-lines file")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "subspectra")):
        print(f"perfbench: no package source under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)

    import numpy as np

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    machine = machine_state(np)
    work = os.path.join(ROOT, ".perfbench", f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        pkg, state, setup_times = set_up(workload, args.seed, work, spans.LAYERS)
        not_exact, missing, samples = [], [], {"setup_s": setup_times}
        if args.trace:
            plain = measure(state, args.seconds / 2, MIN_TRACED)
            tracer = spans.Tracer()
            with tracer.installed(vars(pkg)):
                traced = measure(state, args.seconds / 2, MIN_TRACED, tracer)
            tracer.dump(os.path.join(ROOT, ".perfbench", "spans",
                                     f"{args.workload}-seed{args.seed}.json"))
            reps = plain + traced
            values, not_exact = per_layer(spans, tracer, plain, traced)
            missing = sorted(m["name"] for m in declared
                             if spans.is_missing(m["name"], tracer.missing))
            samples.update(wall_plain_s=[r["wall"] for r in passed(plain)],
                           wall_traced_s=[r["wall"] for r in passed(traced)])
        else:
            reps = measure(state, args.seconds, MIN_REPS)
            values, walls = end_to_end(reps, setup_times)
            samples.update(walls)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    machine.update(loadavg_end=list(os.getloadavg()), calibration_end_s=calibrate(np))

    metrics = {}
    for m in declared:
        if m["name"] in missing:
            metrics[m["name"]] = {"value": None, "unit": m["unit"], "missing": True}
        else:
            metrics[m["name"]] = {"value": finite_or_none(values[m["name"]]), "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} reps={len(reps)}")
    print("machine " + json.dumps(machine))
    print(f"operations: {attempted} attempted, {failed} failed; "
          f"{len(passed(reps))} of {len(reps)} repetitions passed")
    for name, vals in samples.items():
        if not vals:
            print(f"{name}: no passing repetition")
            continue
        lo, hi = quartiles(vals)
        print(f"{name}: median {statistics.median(vals):.6g}  q1 {lo:.6g}  q3 {hi:.6g}  "
              f"n {len(vals)}")
    for k, r in enumerate(reps):
        for problem in r["problems"]:
            print(f"FAILED repetition {k}: {problem}")
    for line in not_exact:
        print(f"NOT EXACT count differs between repetitions: {line}")
    for name in missing:
        print(f"MISSING {name}: a wrapped name it needs is gone from the package")
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "machine": machine, "samples": samples,
                  "not_exact": not_exact, "result": result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
