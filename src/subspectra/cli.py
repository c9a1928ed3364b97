"""Command-line front end: validated JSON configs, deterministic file output.

Subcommands: spectrum, simulate, oracle, compare, diagnose.  Every run is
driven by a single JSON config (unknown keys rejected), writes CSV tables
with 17-significant-digit floats plus a JSON sidecar embedding the resolved
configuration and content hashes, and is byte-reproducible from (config,
seed).  Exit codes: 0 ok, 2 config error, 3 simulation instability,
4 unsupported request, 5 convergence failure.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import ensembles, freeprob, ncpart, rmt_mc, solver
from .errors import (
    BranchError,
    ConditioningError,
    ConfigError,
    ConvergenceError,
    DomainError,
    NoSolutionError,
    RootTrackingError,
    SizeLimitError,
    StabilityError,
    UnsupportedOrderError,
)
from .grids import GridFunction, midpoints

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_UNSUPPORTED = 4
EXIT_NO_CONVERGENCE = 5

NAMED_H = {
    "full": lambda x: np.ones_like(x),
    "half": lambda x: (x < 0.5).astype(float),
    "smooth_ramp": lambda x: 0.5 + x / 4.0,
}

NAMED_PROFILES = {
    "uniform": lambda x: np.ones_like(x),
    "one_plus_half_x": lambda x: 1.0 + x / 2.0,
}


def _require_keys(section, allowed, where):
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where} "
                          f"(allowed: {sorted(allowed)})")


def _get(cfg, key, kind, where, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigError(f"missing required key '{key}' in {where}")
        return default
    val = cfg[key]
    if kind is float and _is_number(val):
        val = float(val)
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise ConfigError(f"key '{key}' in {where} must be {kind}, got {type(val).__name__}")
    return val


def _is_number(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _numbers(vals, where, count=None):
    """vals as a list of floats; a ConfigError unless it is a list of count numbers."""
    if (not isinstance(vals, list) or not all(map(_is_number, vals))
            or (count is not None and len(vals) != count)):
        size = "a list of numbers" if count is None else f"a list of {count} numbers"
        raise ConfigError(f"{where} must be {size}, got {vals!r}")
    return [float(v) for v in vals]


def _atoms(params):
    """A discrete measure from params.atoms, a list of [location, weight] pairs."""
    atoms = _get(params, "atoms", list, "params", required=True)
    return freeprob.Measure1D([_numbers(atom, "each of params.atoms", 2) for atom in atoms])


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _table_values(spec, where, resolution):
    """The 'values' table of spec, resampled piecewise-constant onto the grid."""
    vals = np.asarray(_numbers(_get(spec, "values", list, where, required=True),
                               f"'values' in {where}"))
    if vals.size == 0:
        raise ConfigError(f"empty value table in {where}")
    return GridFunction(vals)(midpoints(resolution))


def build_h(spec, resolution):
    _require_keys(spec, {"type", "intervals", "values", "name"}, "h")
    kind = _get(spec, "type", str, "h", required=True)
    if kind == "intervals":
        ivals = _get(spec, "intervals", list, "h", required=True)
        return GridFunction.indicator([_numbers(iv, "each h interval", 2) for iv in ivals],
                                      resolution)
    if kind == "table":
        return GridFunction(_table_values(spec, "h", resolution))
    if kind == "named":
        name = _get(spec, "name", str, "h", required=True)
        if name not in NAMED_H:
            raise ConfigError(f"unknown named h profile {name!r} "
                              f"(have {sorted(NAMED_H)})")
        return GridFunction.from_callable(NAMED_H[name], resolution)
    raise ConfigError(f"unknown h type {kind!r}")


def build_kernel(cfg, resolution):
    ens = _get(cfg, "ensemble", str, "config", required=True)
    params = _get(cfg, "params", dict, "config", default={})
    if ens == "wigner":
        _require_keys(params, {"s"}, "params")
        return ensembles.wigner_kernel(_get(params, "s", float, "params", default=1.0))
    if ens == "inhomogeneous":
        _require_keys(params, {"s_squared"}, "params")
        spec = _get(params, "s_squared", dict, "params", required=True)
        _require_keys(spec, {"type", "name", "values"}, "s_squared")
        kind = _get(spec, "type", str, "s_squared", required=True)
        if kind == "named":
            name = _get(spec, "name", str, "s_squared", required=True)
            if name not in NAMED_PROFILES:
                raise ConfigError(f"unknown variance profile {name!r}")
            s2 = NAMED_PROFILES[name](midpoints(resolution))
        elif kind == "table":
            s2 = _table_values(spec, "s_squared", resolution)
        else:
            raise ConfigError(f"unknown s_squared type {kind!r}")
        if not np.all(s2 > 0):
            raise DomainError("variance profile s(x)^2 must be positive")
        return ensembles.inhomogeneous_wigner_kernel(GridFunction(np.sqrt(s2)), resolution)
    if ens in ("haar", "custom"):
        _require_keys(params, {"cumulants", "atoms", "order"}, "params")
        if "cumulants" in params:
            kappa = _numbers(_get(params, "cumulants", list, "params"), "params.cumulants")
            if not kappa:
                raise ConfigError("params.cumulants must not be empty")
            kappa = freeprob.free_cumulants(kappa)
        elif "atoms" in params:
            kappa = _atoms(params).free_cumulants(
                _get(params, "order", int, "params", default=12))
        else:
            raise ConfigError(f"{ens} ensemble needs 'cumulants' or 'atoms'")
        return ensembles.haar_kernel(kappa)
    if ens == "qssep":
        _require_keys(params, set(), "params")
        return ensembles.qssep_kernel()
    raise ConfigError(f"unknown ensemble {ens!r}")


# ---------------------------------------------------------------------------
# deterministic output helpers
# ---------------------------------------------------------------------------

def _fmt(x):
    return f"{x:.17g}"


def write_csv(path, columns, header_meta=None):
    names = list(columns)
    rows = zip(*[np.atleast_1d(columns[k]) for k in names])
    lines = []
    for key, val in (header_meta or {}).items():
        lines.append(f"# {key}={val}")
    lines.append(",".join(names))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    data = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def write_sidecar(path, payload):
    data = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)


def _settings_hash(cfg):
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def read_density_csv(path):
    """(lambda, rho) columns of a density CSV; gap (non-finite) rows are a ConfigError."""
    lam, rho = [], []
    try:
        with open(path) as fh:
            header = None
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if header is None:
                    header = line.split(",")
                    continue
                parts = line.split(",")
                lam.append(float(parts[0]))
                rho.append(float(parts[1]))
    except (OSError, ValueError, IndexError) as exc:
        raise ConfigError(f"cannot read density file {path}: {exc}")
    if not lam:
        raise ConfigError(f"no data rows in {path}")
    lam, rho = np.asarray(lam), np.asarray(rho)
    bad = int(np.count_nonzero(~(np.isfinite(lam) & np.isfinite(rho))))
    if bad:
        raise ConfigError(f"{path} has {bad} non-finite rows (solver gaps); "
                          "a density with gaps cannot be compared")
    return lam, rho


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

SPECTRUM_KEYS = {"command", "ensemble", "params", "h", "grid", "eps", "eps_ladder",
                 "lambda_grid", "emit_closed_form", "interval"}


def cmd_spectrum(cfg, out_dir):
    _require_keys(cfg, SPECTRUM_KEYS, "config")
    resolution = _get(cfg, "grid", int, "config", default=400)
    kern = build_kernel(cfg, resolution)
    h = build_h(_get(cfg, "h", dict, "config", required=True), resolution)
    lg = _get(cfg, "lambda_grid", dict, "config", required=True)
    _require_keys(lg, {"min", "max", "count"}, "lambda_grid")
    lam = np.linspace(_get(lg, "min", float, "lambda_grid", required=True),
                      _get(lg, "max", float, "lambda_grid", required=True),
                      _get(lg, "count", int, "lambda_grid", required=True))
    eps = _get(cfg, "eps", float, "config", default=1e-3)
    ladder = _get(cfg, "eps_ladder", list, "config")

    dens = solver.spectral_density(kern, h, lam, eps=eps, eps_ladder=ladder)
    csv_path = os.path.join(out_dir, "density.csv")
    digest = write_csv(csv_path,
                       {"lambda": dens.lam, "rho_block": dens.rho, "rho_total": dens.rho_total()},
                       header_meta={"eps": _fmt(eps), "G": resolution})
    sidecar = {
        "config": cfg,
        "support": list(dens.support) if dens.support else None,
        "atom_weight": dens.atom_weight,
        "block_fraction": dens.block_fraction,
        "gap_count": int(dens.gaps.sum()) if dens.gaps is not None else 0,
        "solver": {"iterations": dens.iterations.tolist(), "fallbacks": dens.fallbacks,
                   "predicted": dens.predicted, "predictor_rejected": dens.predictor_rejected},
        "settings_hash": _settings_hash(cfg),
        "content_hash": digest,
    }
    outputs = [csv_path]
    if cfg.get("emit_closed_form") and cfg.get("ensemble") == "qssep":
        iv = cfg.get("interval")
        hv = h.values
        if iv is None:
            nz = np.nonzero(hv > 0)[0]
            iv = (nz[0] / h.resolution, (nz[-1] + 1) / h.resolution)
        spec = ensembles.QssepBlockSpec(float(iv[0]), float(iv[1]))
        inner = lam[(lam > 0) & (lam < 1)]
        closed = ensembles.qssep_subblock_density(spec, inner)
        cf_path = os.path.join(out_dir, "closed_form.csv")
        cf_digest = write_csv(cf_path,
                              {"lambda": closed.lam, "rho_block": closed.rho,
                               "rho_total": closed.rho_total()},
                              header_meta={"path": "closed-form"})
        sidecar["closed_form_hash"] = cf_digest
        outputs.append(cf_path)
    write_sidecar(os.path.join(out_dir, "density.json"), sidecar)
    partial = sidecar["gap_count"] > 0
    if partial:
        print(f"spectrum: {sidecar['gap_count']} grid points failed to converge",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"wrote {', '.join(outputs)}")
    return EXIT_OK


SIMULATE_KEYS = {"command", "ensemble", "params", "mc", "seed"}
MC_KEYS = {"n_sites", "dt", "t_end", "t_stat", "rates", "realizations",
           "snapshot_stride", "interval", "bins", "integrator", "reference",
           "n_dim", "samples"}
SIMULATE_PARAMS = {"qssep": set(), "wigner": {"s"}, "haar": {"atoms"}}


def cmd_simulate(cfg, out_dir):
    _require_keys(cfg, SIMULATE_KEYS, "config")
    ens = _get(cfg, "ensemble", str, "config", required=True)
    if ens not in SIMULATE_PARAMS:
        raise ConfigError(f"ensemble {ens!r} has no simulation path")
    params = _get(cfg, "params", dict, "config", default={})
    _require_keys(params, SIMULATE_PARAMS[ens], "params")
    mc_cfg = _get(cfg, "mc", dict, "config", required=True)
    _require_keys(mc_cfg, MC_KEYS, "mc")
    seed = _get(cfg, "seed", int, "config", default=0)
    interval = _numbers(_get(mc_cfg, "interval", list, "mc", default=[0.0, 1.0]),
                        "mc.interval", 2)
    n_dim = _get(mc_cfg, "n_sites" if ens == "qssep" else "n_dim", int, "mc", required=True)
    rmt_mc.subblock_indices(n_dim, interval)  # before any trajectory is stepped
    bins = _get(mc_cfg, "bins", int, "mc", default=60)
    ref = mc_cfg.get("reference")
    ana = freeprob.SpectralDensity(*read_density_csv(ref)) if ref else None
    qssep = None

    if ens == "qssep":
        realizations = _get(mc_cfg, "realizations", int, "mc", default=1)
        if realizations < 1:
            raise ConfigError("realizations must be >= 1")
        run_cfg = rmt_mc.QssepConfig(
            n_sites=n_dim,
            dt=_get(mc_cfg, "dt", float, "mc", default=0.1),
            t_end=_get(mc_cfg, "t_end", float, "mc", default=5000.0),
            t_stat=_get(mc_cfg, "t_stat", float, "mc"),
            rates=tuple(mc_cfg.get("rates", (0.0, 1.0, 1.0, 0.0))),
            seed=seed,
            snapshot_stride=_get(mc_cfg, "snapshot_stride", int, "mc", default=100),
            integrator=mc_cfg.get("integrator", "unitary"))
        eigs = []
        qssep = {"hermiticity_drift": [], "stationarity_index": []}  # per realization
        for r in range(realizations):
            run = rmt_mc.qssep_run(dataclasses.replace(run_cfg, stream=r))
            for snap in run.snapshots:
                eigs.append(rmt_mc.subblock_eigs(snap, interval))
            qssep["hermiticity_drift"].append(run.hermiticity_drift)
            qssep["stationarity_index"].append(run.stationarity_index)
        eigs = np.concatenate(eigs)
    elif ens == "wigner":
        samples = _get(mc_cfg, "samples", int, "mc", default=10)
        if samples < 1:
            raise ConfigError("samples must be >= 1")
        s = _get(params, "s", float, "params", default=1.0)
        eigs = np.concatenate([
            rmt_mc.subblock_eigs(rmt_mc.sample_wigner(n_dim, s, seed, stream), interval)
            for stream in range(samples)])
    else:
        samples = _get(mc_cfg, "samples", int, "mc", default=10)
        if samples < 1:
            raise ConfigError("samples must be >= 1")
        meas = _atoms(params)
        eigs = np.concatenate([
            rmt_mc.subblock_eigs(
                rmt_mc.sample_haar_conjugated(n_dim, meas, seed, stream), interval)
            for stream in range(samples)])

    eigs = np.sort(eigs)
    samples_path = os.path.join(out_dir, "eigenvalues.csv")
    digest = write_csv(samples_path, {"eigenvalue": eigs},
                       header_meta={"count": eigs.size, "seed": seed})
    emp = rmt_mc.empirical_density(eigs, bins=bins)
    hist_path = os.path.join(out_dir, "histogram.csv")
    hist_digest = write_csv(hist_path, {"lambda": emp.lam, "density": emp.rho},
                            header_meta={"bins": bins})
    sidecar = {"config": cfg, "count": int(eigs.size),
               "settings_hash": _settings_hash(cfg),
               "content_hash": digest, "histogram_hash": hist_digest}
    if qssep is not None:
        sidecar["qssep"] = qssep
    if ana is not None:
        sidecar["ks"] = rmt_mc.ks_distance(emp, ana)
        print(f"KS against {ref}: {sidecar['ks']:.6f}")
    write_sidecar(os.path.join(out_dir, "simulate.json"), sidecar)
    print(f"wrote {samples_path}, {hist_path}")
    return EXIT_OK


ORACLE_KEYS = {"command", "ensemble", "params", "h", "grid", "n_max"}


def cmd_oracle(cfg, out_dir):
    _require_keys(cfg, ORACLE_KEYS, "config")
    n_max = _get(cfg, "n_max", int, "config", default=4)
    if not 1 <= n_max <= 6:
        raise UnsupportedOrderError(
            f"oracle comparison supports n_max in 1..6, got {n_max}")
    resolution = _get(cfg, "grid", int, "config", default=64)
    kern = build_kernel(cfg, resolution)
    h = build_h(_get(cfg, "h", dict, "config", required=True), resolution)
    phis_oracle = [ncpart.moment_oracle(kern, h, n, resolution)
                   for n in range(1, n_max + 1)]
    phis_solver = solver.moment_series(kern, h, n_max, resolution=resolution).coeffs
    gaps = [abs(a - b) / max(abs(a), abs(b), 1e-9)
            for a, b in zip(phis_oracle, phis_solver)]
    path = os.path.join(out_dir, "oracle.csv")
    digest = write_csv(path, {"n": np.arange(1, n_max + 1),
                              "phi_oracle": phis_oracle,
                              "phi_solver": phis_solver,
                              "rel_gap": gaps},
                       header_meta={"G": resolution})
    write_sidecar(os.path.join(out_dir, "oracle.json"),
                  {"config": cfg, "max_rel_gap": max(gaps),
                   "settings_hash": _settings_hash(cfg), "content_hash": digest})
    for n, a, b, g in zip(range(1, n_max + 1), phis_oracle, phis_solver, gaps):
        print(f"n={n}  oracle={a:.12g}  solver={b:.12g}  rel_gap={g:.3e}")
    return EXIT_OK


DIAGNOSE_KEYS = {"command", "ensemble", "params", "h", "grid", "order"}


def cmd_diagnose(cfg, out_dir):
    _require_keys(cfg, DIAGNOSE_KEYS, "config")
    resolution = _get(cfg, "grid", int, "config", default=256)
    kern = build_kernel(cfg, resolution)
    h = build_h(_get(cfg, "h", dict, "config", required=True), resolution)
    order = _get(cfg, "order", int, "config", default=2)
    ratio, s_h = ensembles.nonfreeness_diagnostic(kern, h, order=order,
                                                  resolution=resolution)
    gap = float(np.max(np.abs(ratio.asarray() - s_h.asarray())))
    verdict = "free-compatible" if gap < 1e-8 else "not-free-compatible"
    payload = {"config": cfg, "ratio_coeffs": list(ratio.coeffs),
               "s_h_coeffs": list(s_h.coeffs), "max_gap": gap,
               "verdict": verdict, "settings_hash": _settings_hash(cfg)}
    write_sidecar(os.path.join(out_dir, "diagnose.json"), payload)
    print(f"ratio series: {list(ratio.coeffs)}")
    print(f"S_h series:   {list(s_h.coeffs)}")
    print(f"verdict: {verdict}")
    return EXIT_OK


COMPARE_KEYS = {"command", "files"}


def cmd_compare(cfg, out_dir):
    _require_keys(cfg, COMPARE_KEYS, "config")
    files = _get(cfg, "files", list, "config", required=True)
    if len(files) != 2:
        raise ConfigError("compare needs exactly two density CSV files")
    lam_a, rho_a = read_density_csv(files[0])
    lam_b, rho_b = read_density_csv(files[1])
    dens_a = freeprob.SpectralDensity(lam_a, rho_a)
    dens_b = freeprob.SpectralDensity(lam_b, rho_b)
    grid = np.union1d(lam_a, lam_b)
    rho_a_i = np.interp(grid, lam_a, rho_a)
    rho_b_i = np.interp(grid, lam_b, rho_b)
    payload = {
        "config": cfg,
        "l1": float(np.trapezoid(np.abs(rho_a_i - rho_b_i), grid)),
        "sup": float(np.max(np.abs(rho_a_i - rho_b_i))),
        "ks": rmt_mc.ks_distance(dens_a, dens_b),
        "settings_hash": _settings_hash(cfg),
    }
    write_sidecar(os.path.join(out_dir, "compare.json"), payload)
    print(f"L1={payload['l1']:.6g}  sup={payload['sup']:.6g}  KS={payload['ks']:.6g}")
    return EXIT_OK


COMMANDS = {
    "spectrum": cmd_spectrum,
    "simulate": cmd_simulate,
    "oracle": cmd_oracle,
    "diagnose": cmd_diagnose,
    "compare": cmd_compare,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="subspectra",
        description="Spectra of weighted slices of structured random matrices")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        if name == "simulate":  # the only command that draws random numbers
            p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if "command" in cfg and cfg["command"] != args.command:
            raise ConfigError(
                f"config command {cfg['command']!r} does not match "
                f"subcommand {args.command!r}")
        if getattr(args, "seed", None) is not None:
            cfg["seed"] = args.seed
        os.makedirs(args.out, exist_ok=True)
        return COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (UnsupportedOrderError, SizeLimitError, DomainError) as exc:
        print(f"unsupported request: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ConvergenceError, NoSolutionError, RootTrackingError, BranchError,
            ConditioningError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
