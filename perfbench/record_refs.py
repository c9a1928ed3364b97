"""Record the Monte Carlo references: subblock eigenvalues per seed.

Run at the commit whose results are the reference, from the repository root:

    python3 perfbench/record_refs.py

It runs chain-fixture and simulate-cli once for every recorded seed (the
regular seeds and the held-out one, see workloads.py) and writes
perfbench/refs/<workload>.json with the eigenvalues to 10 significant
digits, the workload parameters they belong to and the commit.  The
benchmark refuses a reference file whose parameters differ from the
workload's, so record again whenever a Monte Carlo workload changes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main():
    import run

    run.pin_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans
    import workloads

    seeds = list(workloads.REGULAR_MC_SEEDS) + [workloads.HELD_OUT_MC_SEED]
    work = os.path.join(ROOT, ".perfbench", f"record-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for workload in workloads.MC_WORKLOADS:
            recorded = {}
            for seed in seeds:
                pkg = run.import_package(spans.LAYERS)
                recorded[str(seed)] = workload(pkg, seed, work).reference()
                print(f"{workload.name} seed {seed} recorded", flush=True)
            payload = {"recorded_at": commit(), "digits": workloads.REF_DIGITS,
                       "params": workload.params, "seeds": recorded}
            os.makedirs(workloads.REF_DIR, exist_ok=True)
            with open(os.path.join(workloads.REF_DIR, f"{workload.name}.json"), "w") as fh:
                json.dump(payload, fh, separators=(",", ":"))
                fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
