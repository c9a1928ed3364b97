"""Compare two sets of benchmark runs: parent against change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the records that ``run.py --out FILE`` appends, one run per
line.  For every workload and metric it prints each side's median and
quartiles over its runs, the share of pairs the change won, and a verdict:

* end-to-end metrics (BENCHMARK.json bounds), by the choosing-metrics rule:
  ``failed`` when the change failed a larger share of its operations than
  the parent (a gain does not count then); ``improved`` when the change
  wins at least 9 of 10 pairs and the medians differ by more than the
  parent's quartile distance; ``worse`` when the change's median is worse
  than the parent's by more than the bound; ``unresolved`` when either
  side's quartile distance exceeds the bound (unless every change run beats
  every parent run); otherwise ``unchanged`` (within the bound);
* per-layer counts that must repeat exactly: ``same`` when every pair at
  one seed agrees, else ``differs``;
* other per-layer metrics: no verdict, they have no bound.

Runs pair up by workload and seed, in file order.  Ties win for neither side.
Each side's attempted and failed operations and its calibration-loop time
are printed too, so that failures and machine drift between the two sets
show beside the verdicts.  The timings in a record count only repetitions
in which no operation failed (see run.py).
"""

import argparse
import json
import os
import statistics
import sys

from spans import is_exact

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def pairs(parent, change):
    """(parent value list, change value list) paired by seed, in file order."""
    left = {}
    for rec in parent:
        left.setdefault(rec["seed"], []).append(rec)
    out = []
    for rec in change:
        queue = left.get(rec["seed"])
        if queue:
            out.append((queue.pop(0), rec))
    return out


def value(rec, metric):
    m = rec["result"]["metrics"].get(metric)
    return None if m is None else m["value"]


def spread(values):
    if len(values) < 2:
        return 0.0, values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1, q1, q3


def fail_share(runs):
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    return failed, attempted, failed / attempted


def verdict(p_vals, c_vals, won, n_pairs, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
    p_iqr = spread(p_vals)[0]
    if n_pairs and won >= 0.9 * n_pairs and abs(c_med - p_med) > p_iqr \
            and sign * (p_med - c_med) > 0:
        return "improved"
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse"
    all_better = all(sign * (p - c) > 0 for p in p_vals for c in c_vals)
    base = max(abs(p_med), 1e-300)
    if max(p_iqr / base, spread(c_vals)[0] / max(abs(c_med), 1e-300)) > bound \
            and not all_better:
        return "unresolved"
    return "unchanged"


def compare(parent_runs, change_runs, spec):
    decl = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = []
    for key in sorted(set(parent_runs) | set(change_runs)):
        workload, trace = key
        p_runs, c_runs = parent_runs.get(key, []), change_runs.get(key, [])
        lines.append(f"== {workload} ({'traced' if trace else 'untraced'}): "
                     f"{len(p_runs)} parent runs, {len(c_runs)} change runs")
        if not p_runs or not c_runs:
            lines.append("   (one side has no runs)")
            continue
        matched = pairs(p_runs, c_runs)
        shares = {}
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            failed, attempted, shares[side] = fail_share(runs)
            broken = sum(1 for r in runs if not r["result"]["correct"])
            lines.append(f"   operations {side}: {attempted} attempted, {failed} failed; "
                         f"{broken} of {len(runs)} runs not correct")
            cal = [r["machine"]["calibration_start_s"] for r in runs]
            load_avg = [r["machine"]["loadavg_start"][0] for r in runs]
            _, q1, q3 = spread(cal)
            lines.append(f"   machine {side}: calibration {statistics.median(cal):.4g} s "
                         f"[{q1:.4g}, {q3:.4g}], load {statistics.median(load_avg):.2f}")
        names = [m["name"] for m in (spec["per_layer"] if trace else spec["end_to_end"])]
        for name in names:
            m = decl[name]
            p_vals = [v for v in (value(r, name) for r in p_runs) if v is not None]
            c_vals = [v for v in (value(r, name) for r in c_runs) if v is not None]
            worse_failures = "bound" in m and shares["change"] > shares["parent"]
            if not p_vals or not c_vals:
                lines.append(f"   {name:42s} missing on {'parent' if not p_vals else 'change'}"
                             + ("  failed" if worse_failures else ""))
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            duels = [(value(p, name), value(c, name)) for p, c in matched]
            duels = [(a, b) for a, b in duels if a is not None and b is not None]
            won = sum(1 for a, b in duels if sign * (a - b) > 0)
            _, p_q1, p_q3 = spread(p_vals)
            _, c_q1, c_q3 = spread(c_vals)
            if worse_failures:
                v = "failed"
            elif "bound" in m:
                v = verdict(p_vals, c_vals, won, len(duels), m["better"], m["bound"])
            elif is_exact(name):
                v = "same" if duels and all(a == b for a, b in duels) else "differs"
            else:
                v = ""
            lines.append(
                f"   {name:42s} parent {statistics.median(p_vals):.6g} [{p_q1:.6g}, {p_q3:.6g}]"
                f"  change {statistics.median(c_vals):.6g} [{c_q1:.6g}, {c_q3:.6g}] {m['unit']}"
                f"  won {won}/{len(duels)}  {v}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description="Compare parent and change benchmark runs.")
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    print("\n".join(compare(load(args.parent), load(args.change), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
