"""The four benchmark workloads: set-up, one checked repetition, references.

Each workload class is built by its set-up (the constructor) from a fresh
import of the package and the benchmark seed, and exposes ``run(tally)``,
which performs one repetition, counts its operations in ``tally`` (a Tally)
and returns the accuracy ratio: the workload's error over the tolerance it
must meet.  An operation is one program call, one scanned lambda point or
one correctness check; a scan gap, a non-zero exit or a failed check is a
failed operation.
"""

import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "refs")

LADDER = [4e-3, 2e-3, 1e-3]
INTERVAL = (0.4, 0.7)

# The Monte Carlo workloads run on seeds whose subblock eigenvalues were
# recorded at the seed commit (see record_refs.py).  A benchmark seed that is
# not itself recorded maps onto one of the regular recorded seeds; HELD_OUT
# is recorded but reached only by asking for it, for confirming a claim on a
# seed not used while the change was written.
REGULAR_MC_SEEDS = tuple(range(20, 36))
HELD_OUT_MC_SEED = 99
# Stored references keep 10 significant digits; 1e-8 admits float reordering.
REF_DIGITS = 10
REF_TOL = 1e-8
HERMITIAN_TOL = 1e-12


class Tally:
    """Operations of one repetition: how many were attempted, which failed and why."""

    def __init__(self):
        self.attempted, self.failed, self.problems = 0, 0, []

    def add(self, attempted, failed, problem):
        """Count ``attempted`` operations, ``failed`` of them failed; True when none did."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(problem)
        return not failed

    def check(self, ok, problem):
        """One correctness check; ``problem`` is recorded when it fails."""
        return self.add(1, 0 if ok else 1, problem)


def mc_seed(seed):
    if seed in REGULAR_MC_SEEDS or seed == HELD_OUT_MC_SEED:
        return seed
    return REGULAR_MC_SEEDS[seed % len(REGULAR_MC_SEEDS)]


def read_csv(path):
    """Columns of a CSV written by the package (``#`` lines are metadata)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    names = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {name: rows[:, k] for k, name in enumerate(names)}


def load_refs(name, params):
    path = os.path.join(REF_DIR, f"{name}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        refs = json.load(fh)
    if refs["params"] != params:
        raise RuntimeError(f"{path} was recorded for {refs['params']}, the workload "
                           f"now uses {params}; record it again at the seed commit")
    return refs["seeds"]


def eig_deviation(got, want):
    """Largest |got - want| over matching eigenvalue lists, or None on a shape mismatch."""
    if len(got) != len(want):
        return None
    worst = 0.0
    for g, w in zip(got, want):
        g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
        if g.shape != w.shape:
            return None
        if g.size:
            worst = max(worst, float(np.max(np.abs(g - w))))
    return worst


def round_refs(values):
    return [float(f"{v:.{REF_DIGITS}g}") for v in values]


class SliceScan:
    """CLI ``spectrum`` on the C07 subblock scan, lambda grid shifted by the seed.

    The gate is C07's: exit 0, no gaps, L1 to closed_form.csv below 1e-2.
    That L1 is almost all from the support-edge cells, which the closed form
    leaves at zero by construction; their share swings by about 40 % with
    the grid offset.  The accuracy ratio therefore takes the L1 only over
    lambda more than EDGE_STEPS grid steps inside the closed-form support,
    where it measures the solver and hardly depends on the offset.
    """

    name = "slice-scan"
    tol = 1e-2
    EDGE_STEPS = 5

    def __init__(self, pkg, seed, work):
        self.pkg = pkg
        spec = pkg.ensembles.QssepBlockSpec(*INTERVAL)
        zm, zp = pkg.ensembles.qssep_support(spec)
        lo, hi, count = max(zm - 0.05, 0.01), min(zp + 0.03, 0.99), 300
        step = (hi - lo) / (count - 1)
        shift = np.random.default_rng(seed).random() * step
        self.interior = (zm + self.EDGE_STEPS * step, zp - self.EDGE_STEPS * step)
        cfg = {
            "command": "spectrum",
            "ensemble": "qssep",
            "h": {"type": "intervals", "intervals": [list(INTERVAL)]},
            "grid": 400,
            "eps": LADDER[-1],
            "eps_ladder": LADDER,
            "emit_closed_form": True,
            "interval": list(INTERVAL),
            "lambda_grid": {"min": lo + shift, "max": hi + shift, "count": count},
        }
        self.out = os.path.join(work, "spectrum")
        self.cfg_path = os.path.join(work, "spectrum.json")
        with open(self.cfg_path, "w") as fh:
            json.dump(cfg, fh)

    def run(self, tally):
        code = self.pkg.cli.main(["spectrum", "--config", self.cfg_path, "--out", self.out])
        tally.check(code == 0, f"spectrum exited {code}")
        sidecar = os.path.join(self.out, "density.json")
        if not os.path.exists(sidecar):
            return math.inf
        with open(sidecar) as fh:
            gaps = json.load(fh)["gap_count"]
        dens = read_csv(os.path.join(self.out, "density.csv"))
        closed = read_csv(os.path.join(self.out, "closed_form.csv"))
        lam = dens["lambda"]
        tally.add(lam.size, gaps, f"{gaps} scan gaps")
        if not tally.check(np.array_equal(lam, closed["lambda"]),
                           "closed form on another lambda grid"):
            return math.inf
        diff = np.abs(dens["rho_block"] - closed["rho_block"])
        l1 = float(np.trapezoid(diff, lam))
        tally.check(l1 < self.tol, f"L1 to closed form {l1:.3e} >= {self.tol}")
        inside = (lam > self.interior[0]) & (lam < self.interior[1])
        return float(np.trapezoid(np.where(inside, diff, 0.0), lam)) / self.tol


CHAIN_SIZES = {50: (0.1, 50), 100: (0.1, 100), 200: (0.2, 200)}
CHAIN_CUT = 150


def trajectory_configs(mc, seed):
    """C07's trajectory table with every step count cut by CHAIN_CUT."""
    cfgs = []
    for n, (dt, stride) in CHAIN_SIZES.items():
        relax = n ** 2 / np.pi ** 2
        cfgs.append(mc.QssepConfig(n_sites=n, dt=dt, t_end=4.5 * relax / CHAIN_CUT,
                                   t_stat=2.5 * relax / CHAIN_CUT, seed=seed,
                                   snapshot_stride=stride, integrator="unitary"))
    return cfgs


class ChainFixture:
    """``qssep_run`` on C07's trajectory table, then ``subblock_eigs`` per snapshot."""

    name = "chain-fixture"
    params = {"sizes": {str(n): list(v) for n, v in CHAIN_SIZES.items()},
              "cut": CHAIN_CUT, "interval": list(INTERVAL)}

    def __init__(self, pkg, seed, work):
        self.mc = pkg.rmt_mc
        self.seed = mc_seed(seed)
        self.cfgs = trajectory_configs(self.mc, self.seed)
        self.refs = load_refs(self.name, self.params).get(str(self.seed))

    def eigenvalues(self, tally):
        """Per size, the subblock eigenvalues of every snapshot, each snapshot checked Hermitian."""
        out = {}
        for cfg in self.cfgs:
            run = self.mc.qssep_run(cfg)
            tally.add(1, 0, None)
            eigs = []
            for k, snap in enumerate(run.snapshots):
                dev = float(np.max(np.abs(snap - snap.conj().T)))
                tally.check(dev <= HERMITIAN_TOL,
                            f"N={cfg.n_sites} snapshot {k} off Hermitian by {dev:.1e}")
                eigs.append(self.mc.subblock_eigs(snap, INTERVAL))
            out[str(cfg.n_sites)] = eigs
        return out

    def run(self, tally):
        eigs = self.eigenvalues(tally)
        if not tally.check(self.refs is not None, f"no reference for seed {self.seed}"):
            return math.inf
        worst = 0.0
        for n, want in self.refs.items():
            dev = eig_deviation(eigs.get(n, []), want)
            if not tally.check(dev is not None, f"N={n}: snapshot or eigenvalue count differs"):
                return math.inf
            tally.check(dev <= REF_TOL, f"N={n}: eigenvalues off the reference by {dev:.3e}")
            worst = max(worst, dev)
        return worst / REF_TOL

    def reference(self):
        tally = Tally()
        eigs = self.eigenvalues(tally)
        if tally.failed:
            raise RuntimeError("; ".join(tally.problems))
        return {n: [round_refs(e) for e in per] for n, per in eigs.items()}


SIMULATE_MC = {"n_sites": 100, "dt": 0.1, "t_end": 100.0, "integrator": "unitary",
               "snapshot_stride": 100, "interval": list(INTERVAL), "bins": 60,
               "realizations": 2}


class SimulateCli:
    """CLI ``simulate`` on the README QSSEP config, t_stat unset, two realizations."""

    name = "simulate-cli"
    params = SIMULATE_MC

    def __init__(self, pkg, seed, work):
        self.pkg = pkg
        self.seed = mc_seed(seed)
        ens = pkg.ensembles
        spec = ens.QssepBlockSpec(*INTERVAL)
        zm, zp = ens.qssep_support(spec)
        closed = ens.qssep_subblock_density(spec, np.linspace(zm + 1e-4, zp - 1e-4, 1200))
        ref_csv = os.path.join(work, "closed_form.csv")
        pkg.cli.write_csv(ref_csv, {"lambda": closed.lam, "rho_block": closed.rho,
                                    "rho_total": closed.rho_total()})
        cfg = {"command": "simulate", "ensemble": "qssep", "seed": self.seed,
               "mc": dict(SIMULATE_MC, reference=ref_csv)}
        self.out = os.path.join(work, "simulate")
        self.cfg_path = os.path.join(work, "simulate.json")
        with open(self.cfg_path, "w") as fh:
            json.dump(cfg, fh)
        self.refs = load_refs(self.name, self.params).get(str(self.seed))

    def eigenvalues(self, tally):
        code = self.pkg.cli.main(["simulate", "--config", self.cfg_path, "--out", self.out])
        if not tally.check(code == 0, f"simulate exited {code}"):
            return None
        with open(os.path.join(self.out, "simulate.json")) as fh:
            ks = json.load(fh).get("ks")
        tally.check(ks is not None and 0.0 <= ks <= 1.0,
                    f"KS statistic {ks!r} missing or outside [0, 1]")
        return read_csv(os.path.join(self.out, "eigenvalues.csv"))["eigenvalue"]

    def run(self, tally):
        eigs = self.eigenvalues(tally)
        if eigs is None:
            return math.inf
        if not tally.check(self.refs is not None, f"no reference for seed {self.seed}"):
            return math.inf
        dev = eig_deviation([eigs], [self.refs])
        if not tally.check(dev is not None,
                           f"{eigs.size} eigenvalues, reference has {len(self.refs)}"):
            return math.inf
        tally.check(dev <= REF_TOL, f"eigenvalues off the reference by {dev:.3e}")
        return dev / REF_TOL

    def reference(self):
        tally = Tally()
        eigs = self.eigenvalues(tally)
        if tally.failed:
            raise RuntimeError("; ".join(tally.problems))
        return round_refs(eigs)


def smooth_kernel(kernels, seed):
    """C01's smooth position-dependent order-3 kernel, amplitudes drawn from seed."""
    rng = np.random.default_rng(seed)
    c1, a1, p1 = 0.4, 0.25 * rng.uniform(0.5, 1), rng.uniform(0, 2 * np.pi)
    c2, a2 = 0.25, 0.15 * rng.uniform(0.5, 1)
    c3, a3 = 0.08, 0.1 * rng.uniform(0.5, 1)

    def fn(n, xs):
        xs = [np.asarray(x) for x in xs]
        if n == 1:
            return c1 + a1 * np.sin(2 * np.pi * xs[0] + p1)
        if n == 2:
            return c2 + a2 * np.cos(2 * np.pi * (xs[0] - xs[1]))
        s = (np.cos(2 * np.pi * (xs[0] - xs[1]))
             + np.cos(2 * np.pi * (xs[1] - xs[2]))
             + np.cos(2 * np.pi * (xs[2] - xs[0])))
        return c3 + a3 * s / 3.0

    return kernels.LocalCumulantKernel(name=f"smooth[{seed}]", fn=fn, zero_beyond=3)


# Kernel seeds for the smooth kernel.  For about a third of the seeds the
# first, cold-started solve of moment_series on the full profile stalls:
# Anderson mixing never reaches the tolerance, the relaxation spends its
# 400-iteration budget and Newton-Krylov then finishes in two steps, about
# 0.5 s of extra work.  Which seeds stall is decided at the level of
# rounding, so a kernel drawn straight from the benchmark seed would make
# the work, and wall_s, bimodal over seeds.  The benchmark seed therefore
# picks one of the stalling kernel seeds below (classified at the seed
# commit over kernel seeds 0..47): every seed does the same work, and the
# stall shows on every seed.  The kernel's other two profiles converge
# directly, so the ordinary generic-tensor path is measured too.
STALLING_KERNEL_SEEDS = (1, 2, 6, 7, 10, 11, 12, 13, 28, 30, 34, 38, 39, 43, 45, 47)


class OracleMoments:
    """C01: ``moment_series`` against ``moment_oracle``, 3 kernels x 3 profiles.

    The kernels are C01's wigner, Haar (Bernoulli cumulants to order 12) and
    smooth order-3 kernels; the smooth kernel's seed is picked from
    STALLING_KERNEL_SEEDS by the benchmark seed.
    """

    name = "oracle-moments"
    grid = 64
    n_max = 6
    rel, floor = 1e-6, 1e-8

    def __init__(self, pkg, seed, work):
        self.pkg = pkg
        fp, grids, G = pkg.freeprob, pkg.grids, self.grid
        bernoulli = fp.moments_to_cumulants(fp.moments([0.5] * 12))
        kernel_seed = STALLING_KERNEL_SEEDS[seed % len(STALLING_KERNEL_SEEDS)]
        self.kernels = [pkg.ensembles.wigner_kernel(1.0),
                        pkg.ensembles.haar_kernel(bernoulli),
                        smooth_kernel(pkg.kernels, kernel_seed)]
        self.profiles = [grids.GridFunction.constant(1.0, G),
                         grids.GridFunction.indicator([(0.0, 0.5)], G),
                         grids.GridFunction.from_callable(lambda x: 0.5 + x / 4, G)]
        # first-call caches: partition tables and the quadrature tensors
        for n in range(1, self.n_max + 1):
            pkg.ncpart.enumerate_nc(n)
        for kern in self.kernels:
            pkg.solver.r0_apply(kern, np.zeros(G))

    def run(self, tally):
        solver, ncpart, G = self.pkg.solver, self.pkg.ncpart, self.grid
        worst = 0.0
        for kern in self.kernels:
            for h in self.profiles:
                phis = solver.moment_series(kern, h, self.n_max, resolution=G).asarray()
                oracle = np.array([ncpart.moment_oracle(kern, h, n, G)
                                   for n in range(1, self.n_max + 1)])
                allowed = np.maximum(self.rel * np.maximum(np.abs(phis), np.abs(oracle)),
                                     self.floor)
                ratios = np.abs(phis - oracle) / allowed
                tally.add(ratios.size, int(np.sum(~(ratios <= 1.0))),
                          f"{kern.name}: solver {phis} vs oracle {oracle}")
                worst = max(worst, float(np.max(ratios)))
        return worst


WORKLOADS = {w.name: w for w in (SliceScan, ChainFixture, SimulateCli, OracleMoments)}
MC_WORKLOADS = (ChainFixture, SimulateCli)
