"""Command-line front end: validated JSON configs, deterministic file output.

Subcommands: spectrum, simulate, oracle, compare, diagnose.  Every run is
driven by a single JSON config, checked against its command's table before
anything is computed or written.  It writes CSV tables with 17-significant-
digit floats plus a JSON sidecar embedding the config as given and content
hashes, and is byte-reproducible from (config, seed).  Exit codes: 0 ok,
2 config error (an unknown or missing key, a wrong type or shape), 3 simulation
instability, 4 unsupported request (a value out of domain), 5 convergence failure.
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


# ---------------------------------------------------------------------------
# config tables
# ---------------------------------------------------------------------------
# A table maps each key to (kind, default, *rules).  A kind is int, float,
# str, object (any value), [kind] (a list), a tuple of kinds (a list of just
# those) or a table (a nested object; a function of the object may return
# it).  Booleans are not numbers.  A rule is (test, error class, text), or a
# choice: a dict from the key's values to the tables of the keys read with it
# (the other choices' keys, as the other ensembles' mc keys, are allowed unread).

REQUIRED = object()
AT_LEAST_1 = (lambda n: n >= 1, DomainError, "must be at least 1")
COUNT = (lambda n: n >= 1, ConfigError, "must be at least 1")
POSITIVE = (lambda v: 0 < v < np.inf, DomainError, "must be positive and finite")
FINITE = (lambda v: np.isfinite(v).all(), DomainError, "must be finite")  # a number or a list
VALUES = ([float], REQUIRED, (len, ConfigError, "must not be empty"))
H = {"type": (str, REQUIRED, {"intervals": {"intervals": ([(float, float)], REQUIRED)},
                              "table": {"values": VALUES},
                              "named": {"name": (str, REQUIRED, dict.fromkeys(NAMED_H, {}))}})}
S_SQUARED = {"type": (str, REQUIRED, {"table": {"values": VALUES}, "named": {
    "name": (str, REQUIRED, dict.fromkeys(NAMED_PROFILES, {}))}})}
ATOMS = [(float, float)]  # [location, weight] pairs
LOCATIONS = (lambda a: all(np.isfinite(x) for x, _ in a), DomainError, "need finite locations")
WIGNER = {"s": (float, 1.0, POSITIVE)}


def _haar(params):
    """The haar/custom params table: cumulants, when given, are read alone."""
    if "cumulants" in params:
        return {"cumulants": (*VALUES, FINITE), "atoms": (object, None), "order": (object, None)}
    return {"atoms": (ATOMS, REQUIRED), "order": (int, 12, AT_LEAST_1)}


KERNEL = {"command": (str, None), "ensemble": (str, REQUIRED, {
    "wigner": {"params": (WIGNER, {})}, "haar": {"params": (_haar, {})},
    "inhomogeneous": {"params": ({"s_squared": (S_SQUARED, REQUIRED)}, {})},
    "custom": {"params": (_haar, {})}, "qssep": {"params": ({}, {})}}), "h": (H, REQUIRED)}
SPECTRUM = {"grid": (int, 400, AT_LEAST_1), **KERNEL,
            "lambda_grid": ({"min": (float, REQUIRED, FINITE), "max": (float, REQUIRED, FINITE),
                             "count": (int, REQUIRED, AT_LEAST_1)}, REQUIRED),
            "eps": (float, 1e-3, POSITIVE), "eps_ladder": ([object], None),
            "emit_closed_form": (object, False), "interval": (object, None)}  # read on use
ORACLE = {"n_max": (int, 4, (lambda n: 1 <= n <= 6, UnsupportedOrderError, "must lie in 1..6")),
          "grid": (int, 64, AT_LEAST_1), **KERNEL}
DIAGNOSE = {"grid": (int, 256, AT_LEAST_1), **KERNEL, "order": (int, 2)}
COMPARE = {"command": (str, None), "files": ((str, str), REQUIRED)}

MC = {"interval": ((float, float), [0.0, 1.0]), "bins": (int, 60, AT_LEAST_1),
      # an empty reference (null, "", 0, false) means none
      "reference": (object, None, (lambda r: not r or isinstance(r, str), ConfigError,
                                   "must be a file path"))}
MC_QSSEP = {
    "n_sites": (int, REQUIRED), "realizations": (int, 1, COUNT),
    "dt": (float, 0.1, POSITIVE), "t_end": (float, 5000.0, POSITIVE),
    "t_stat": (float, None, FINITE),
    # a list of numbers ("" and {} read as empty); QssepConfig checks four, nonnegative
    "rates": (object, [0.0, 1.0, 1.0, 0.0], (lambda r: isinstance(r, (list, str, dict)) and all(
        isinstance(x, (int, float)) for x in r), ConfigError, "must be a list of numbers"),
        (lambda r: np.isfinite(list(r)).all(), DomainError, "must be finite")),
    # a negative stride keeps every |stride|-th step, as step % stride == 0 says
    "snapshot_stride": (int, 100, (bool, DomainError, "must not be 0")),
    "integrator": (object, "unitary")}
MC_SAMPLED = {"n_dim": (int, REQUIRED), "samples": (int, 10, COUNT)}
MC_FOR_QSSEP = ({**dict.fromkeys(MC_SAMPLED, (object, None)), **MC, **MC_QSSEP}, REQUIRED)
MC_FOR_SAMPLED = ({**dict.fromkeys(MC_QSSEP, (object, None)), **MC, **MC_SAMPLED}, REQUIRED)
SIMULATE = {"command": (str, None), "ensemble": (str, REQUIRED, {
    "qssep": {"mc": MC_FOR_QSSEP, "params": ({}, {})},
    "wigner": {"mc": MC_FOR_SAMPLED, "params": (WIGNER, {})},
    "haar": {"mc": MC_FOR_SAMPLED, "params": ({"atoms": (ATOMS, REQUIRED, LOCATIONS)}, {})}}),
    "seed": (int, 0, (lambda s: 0 <= s < 2 ** 64, DomainError, "must lie in [0, 2**64)"))}


def read(section, table, where):
    """The values of a config object under table, defaults filled in: a ConfigError for
    an unknown or missing key or a wrong kind, a rule's error for a value out of domain."""
    table = table if isinstance(table, dict) else table(section)
    allowed = set(table).union(*[t for _, _, *rules in table.values() for r in rules
                                 if isinstance(r, dict) for t in r.values()])
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where} (allowed: {sorted(allowed)})")
    return _entries(section, table, where)


def _entries(section, table, where):
    out = {}
    for key, (kind, default, *rules) in table.items():
        name = f"{where}.{key}"
        if key not in section:
            if default is REQUIRED:
                raise ConfigError(f"missing required key '{key}' in {where}")
            out[key] = read(default, kind, name) if isinstance(default, dict) else default
            continue
        try:
            val = out[key] = _coerce(section[key], kind, name)
        except TypeError:
            shape = ("an object" if not isinstance(kind, (type, list, tuple))
                     else str(kind).replace("<class '", "").replace("'>", ""))
            raise ConfigError(f"{name} must be {shape}, got {section[key]!r}") from None
        for rule in rules:
            if isinstance(rule, dict):
                if val not in rule:
                    raise ConfigError(f"{name} must be one of {sorted(rule)}, got {val!r}")
                out.update(_entries(section, rule[val], where))
            elif not rule[0](val):
                raise rule[1](f"{name} {rule[2]}, got {val!r}")
    return out


def _coerce(val, kind, name):
    """val read as kind; a TypeError if it does not fit."""
    if isinstance(kind, list) and isinstance(val, list):
        return [_coerce(v, kind[0], name) for v in val]
    if isinstance(kind, tuple) and isinstance(val, list) and len(val) == len(kind):
        return [_coerce(v, k, name) for v, k in zip(val, kind)]
    if isinstance(kind, type) and not (isinstance(val, bool) and kind in (int, float)):
        if isinstance(val, (int, float) if kind is float else kind):
            return float(val) if kind is float else val
    elif not isinstance(kind, (list, tuple)) and isinstance(val, dict):
        return read(val, kind, name)
    raise TypeError


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _resampled(values, resolution):
    """A value table resampled piecewise-constant onto the grid."""
    return GridFunction(np.asarray(values))(midpoints(resolution))


def build_h(h, resolution):
    if h["type"] == "intervals":
        return GridFunction.indicator(h["intervals"], resolution)
    if h["type"] == "table":
        return GridFunction(_resampled(h["values"], resolution))
    return GridFunction.from_callable(NAMED_H[h["name"]], resolution)


def build_kernel(ens, params, resolution):
    """The kernel of a checked ensemble and its params table."""
    if ens == "wigner":
        return ensembles.wigner_kernel(params["s"])
    if ens == "inhomogeneous":
        spec = params["s_squared"]
        s2 = (NAMED_PROFILES[spec["name"]](midpoints(resolution)) if spec["type"] == "named"
              else _resampled(spec["values"], resolution))
        if not np.all(s2 > 0):
            raise DomainError("variance profile s(x)^2 must be positive")
        return ensembles.inhomogeneous_wigner_kernel(GridFunction(np.sqrt(s2)), resolution)
    if ens == "qssep":
        return ensembles.qssep_kernel()
    if "cumulants" in params:  # haar and custom
        return ensembles.haar_kernel(freeprob.free_cumulants(params["cumulants"]))
    atoms = freeprob.Measure1D(params["atoms"])
    return ensembles.haar_kernel(atoms.free_cumulants(params["order"]))


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

def _setup(cfg, table):
    """The checked config of spectrum, oracle or diagnose, with its kernel and h."""
    c = read(cfg, table, "config")
    return c, build_kernel(c["ensemble"], c["params"], c["grid"]), build_h(c["h"], c["grid"])


def cmd_spectrum(cfg, out_dir):
    c, kern, h = _setup(cfg, SPECTRUM)
    resolution, lg, eps = c["grid"], c["lambda_grid"], c["eps"]
    lam = np.linspace(lg["min"], lg["max"], lg["count"])
    dens = solver.spectral_density(kern, h, lam, eps=eps, eps_ladder=c["eps_ladder"])
    closed = None
    if c["emit_closed_form"] and c["ensemble"] == "qssep":
        iv = c["interval"]
        if iv is None:
            nz = np.nonzero(h.values > 0)[0]
            if not nz.size:
                raise DomainError("h vanishes everywhere: the closed form needs an 'interval'")
            iv = (nz[0] / h.resolution, (nz[-1] + 1) / h.resolution)
        try:
            iv = float(iv[0]), float(iv[1])
        except (TypeError, ValueError, LookupError):
            raise ConfigError(f"config.interval must be two numbers, got {iv!r}") from None
        inner = lam[(lam > 0) & (lam < 1)]
        closed = ensembles.qssep_subblock_density(ensembles.QssepBlockSpec(*iv), inner)

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
    if closed is not None:
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


def cmd_simulate(cfg, out_dir):
    c = read(cfg, SIMULATE, "config")
    ens, mc_cfg, seed = c["ensemble"], c["mc"], c["seed"]
    interval, bins, ref = mc_cfg["interval"], mc_cfg["bins"], mc_cfg["reference"]
    n_dim = mc_cfg["n_sites" if ens == "qssep" else "n_dim"]
    rmt_mc.subblock_indices(n_dim, interval)  # before any trajectory is stepped
    ana = freeprob.SpectralDensity(*read_density_csv(ref)) if ref else None
    qssep = None

    if ens == "qssep":
        run_cfg = rmt_mc.QssepConfig(
            n_sites=n_dim, rates=tuple(mc_cfg["rates"]), seed=seed,
            **{k: mc_cfg[k] for k in ("dt", "t_end", "t_stat", "snapshot_stride", "integrator")})
        eigs = []
        qssep = {"hermiticity_drift": [], "stationarity_index": []}  # per realization
        for r in range(mc_cfg["realizations"]):
            run = rmt_mc.qssep_run(dataclasses.replace(run_cfg, stream=r))
            for snap in run.snapshots:
                eigs.append(rmt_mc.subblock_eigs(snap, interval))
            qssep["hermiticity_drift"].append(run.hermiticity_drift)
            qssep["stationarity_index"].append(run.stationarity_index)
        eigs = np.concatenate(eigs)
    elif ens == "wigner":
        s = c["params"]["s"]
        eigs = np.concatenate([
            rmt_mc.subblock_eigs(rmt_mc.sample_wigner(n_dim, s, seed, stream), interval)
            for stream in range(mc_cfg["samples"])])
    else:
        meas = freeprob.Measure1D(c["params"]["atoms"])
        eigs = np.concatenate([
            rmt_mc.subblock_eigs(
                rmt_mc.sample_haar_conjugated(n_dim, meas, seed, stream), interval)
            for stream in range(mc_cfg["samples"])])

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


def cmd_oracle(cfg, out_dir):
    c, kern, h = _setup(cfg, ORACLE)
    n_max, resolution = c["n_max"], c["grid"]
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


def cmd_diagnose(cfg, out_dir):
    c, kern, h = _setup(cfg, DIAGNOSE)
    ratio, s_h = ensembles.nonfreeness_diagnostic(kern, h, order=c["order"],
                                                  resolution=c["grid"])
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


def cmd_compare(cfg, out_dir):
    files = read(cfg, COMPARE, "config")["files"]
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
