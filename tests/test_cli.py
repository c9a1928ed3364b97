import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspectra import cli, ensembles, rmt_mc
from subspectra.errors import DomainError, RootTrackingError


def test_import_loads_no_scipy():
    # scipy.optimize alone was most of the start-up time of every command
    import subspectra
    code = "import sys, subspectra; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(subspectra.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_spectrum_wigner_writes_density_and_sidecar(tmp_path):
    cfg = write_cfg(tmp_path, "w.json", {
        "command": "spectrum",
        "ensemble": "wigner",
        "params": {"s": 1.0},
        "h": {"type": "named", "name": "full"},
        "grid": 100,
        "eps": 2e-3,
        "lambda_grid": {"min": -2.3, "max": 2.3, "count": 47},
    })
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    csv = (out / "density.csv").read_text()
    assert csv.splitlines()[0].startswith("# eps=")
    assert csv.splitlines()[1] == "# G=100"
    assert csv.splitlines()[2] == "lambda,rho_block,rho_total"
    side = json.loads((out / "density.json").read_text())
    assert side["atom_weight"] == 0.0
    assert side["gap_count"] == 0
    assert len(side["content_hash"]) == 64
    # iterations per lambda, summed over rungs, and columns finished by Newton-Krylov
    assert len(side["solver"]["iterations"]) == 47 and min(side["solver"]["iterations"]) > 0
    assert side["solver"]["fallbacks"] == 0
    # every point after the first two of its chunk (one here) gets a prediction
    solver = side["solver"]
    assert solver["predicted"] > 0 and solver["predicted"] + solver["predictor_rejected"] == 45


def test_spectrum_deterministic_bytes(tmp_path):
    payload = {
        "ensemble": "wigner", "params": {"s": 1.0},
        "h": {"type": "intervals", "intervals": [[0.0, 0.5]]},
        "grid": 64, "eps": 5e-3,
        "lambda_grid": {"min": -1.6, "max": 1.6, "count": 33},
    }
    cfg = write_cfg(tmp_path, "w.json", payload)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "density.csv").read_bytes() == (out_b / "density.csv").read_bytes()


def test_spectrum_qssep_emits_closed_form(tmp_path):
    cfg = write_cfg(tmp_path, "q.json", {
        "ensemble": "qssep",
        "h": {"type": "intervals", "intervals": [[0.4, 0.7]]},
        "grid": 100, "eps": 2e-3, "emit_closed_form": True,
        "interval": [0.4, 0.7],
        "lambda_grid": {"min": 0.05, "max": 0.99, "count": 48},
    })
    out = tmp_path / "q"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "closed_form.csv").exists()
    side = json.loads((out / "density.json").read_text())
    assert "closed_form_hash" in side


def test_spectrum_gap_written_as_nan(tmp_path, monkeypatch):
    # a point the solver could not converge is written as nan, never as a number
    scan = cli.solver.spectral_density

    def one_gap(*args, **kwargs):
        dens = scan(*args, **kwargs)
        dens.rho[3] = np.nan
        dens.gaps[3] = True
        return dens

    monkeypatch.setattr(cli.solver, "spectral_density", one_gap)
    cfg = write_cfg(tmp_path, "g.json", {
        "ensemble": "wigner", "h": {"type": "named", "name": "full"}, "grid": 32,
        "eps": 5e-3, "lambda_grid": {"min": -1.5, "max": 1.5, "count": 9},
    })
    out = tmp_path / "g"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 5
    rows = (out / "density.csv").read_text().splitlines()[3:]
    assert len(rows) == 9
    assert rows[3].split(",")[1:] == ["nan", "nan"]
    assert all("nan" not in row for i, row in enumerate(rows) if i != 3)
    assert json.loads((out / "density.json").read_text())["gap_count"] == 1


def test_seed_only_on_simulate(tmp_path, capsys):
    # spectrum is deterministic: a seed key is an unknown key and --seed no option
    payload = {"ensemble": "wigner", "h": {"type": "named", "name": "full"}, "grid": 32,
               "lambda_grid": {"min": -1.0, "max": 1.0, "count": 5}}
    seeded = write_cfg(tmp_path, "s.json", dict(payload, seed=1))
    out = tmp_path / "s"
    assert cli.main(["spectrum", "--config", seeded, "--out", str(out)]) == 2
    assert "unknown keys ['seed']" in capsys.readouterr().err
    plain = write_cfg(tmp_path, "p.json", payload)
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--config", plain, "--out", str(out), "--seed", "1"])
    assert exc.value.code == 2
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("ladder", [[1e-3, 1e-3], [-1e-3]], ids=["repeated", "negative"])
def test_bad_eps_ladder_exits_4_without_files(tmp_path, ladder):
    # Richardson extrapolation divides by the differences of the rungs
    cfg = write_cfg(tmp_path, "l.json", {
        "ensemble": "wigner", "params": {"s": 1.0},
        "h": {"type": "named", "name": "full"}, "grid": 32, "eps_ladder": ladder,
        "lambda_grid": {"min": -1.0, "max": 1.0, "count": 5},
    })
    out = tmp_path / "l_out"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 4
    assert not any(out.iterdir())


NAN_CUMULANTS = {"ensemble": "haar", "params": {"cumulants": [math.nan, 0.25, 0.0, -0.0625]}}


@pytest.mark.parametrize("command,change", [
    ("spectrum", {"ensemble": "haar", "params": {"atoms": [[0.0, 0.6], [1.0, 0.6]]}}),
    ("spectrum", {"h": {"type": "intervals", "intervals": [[0.5, 1.5]]}}),
    ("spectrum", {"eps_ladder": ["x"]}),
    # simulate reads params.s through the same table as spectrum, oracle and diagnose
    ("simulate", {"params": {"s": -1.0}, "mc": {"n_dim": 8, "samples": 1}}),
    # non-finite input once scanned into NaN: exit 5, or 0 with bare NaN in diagnose.json
    ("spectrum", {"lambda_grid": {"min": math.nan, "max": 1.0, "count": 5}}),
    ("spectrum", {"lambda_grid": {"min": -1.0, "max": math.inf, "count": 5}}),
    ("spectrum", NAN_CUMULANTS),
    ("oracle", NAN_CUMULANTS),
    ("diagnose", NAN_CUMULANTS),
    ("diagnose", {"ensemble": "custom", "params": {"cumulants": [0.5, -math.inf]}}),
    ("spectrum", {"eps": math.nan, "eps_ladder": [2e-3, 1e-3]}),
    ("spectrum", {"eps": -1e-3, "eps_ladder": [2e-3, 1e-3]}),
], ids=["atom-weights", "h-interval", "ladder-entry", "simulate-s", "lambda-min-nan",
        "lambda-max-inf", "spectrum-cumulant-nan", "oracle-cumulant-nan",
        "diagnose-cumulant-nan", "diagnose-cumulant-inf", "eps-nan-with-ladder",
        "eps-negative-with-ladder"])
def test_out_of_domain_input_exits_4_without_files(tmp_path, command, change):
    cfg = dict({
        "ensemble": "wigner", "params": {"s": 1.0},
        "h": {"type": "named", "name": "full"}, "grid": 32,
        "lambda_grid": {"min": -1.0, "max": 1.0, "count": 5},
    }, **change)
    if command == "simulate":
        cfg = {k: cfg[k] for k in ("ensemble", "params", "mc")}
    elif command != "spectrum":
        del cfg["lambda_grid"]
    out = tmp_path / "d_out"
    assert cli.main([command, "--config", write_cfg(tmp_path, "d.json", cfg),
                     "--out", str(out)]) == 4
    assert not any(out.iterdir())


def test_malformed_config_exits_2_without_files(tmp_path):
    cfg = write_cfg(tmp_path, "bad.json", {
        "ensemble": "wigner", "bogus": 1,
        "h": {"type": "named", "name": "full"},
        "lambda_grid": {"min": 0, "max": 1, "count": 3},
    })
    out = tmp_path / "bad_out"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert not any(out.iterdir())


ORACLE_CFG = {"ensemble": "wigner", "params": {"s": 1.0},
              "h": {"type": "named", "name": "full"}, "grid": 16, "n_max": 2}


@pytest.mark.parametrize("command,change", [
    ("oracle", {"h": {"type": "intervals", "intervals": [[0.5]]}}),
    ("oracle", {"h": {"type": "table", "values": ["a", 1]}}),
    ("oracle", {"ensemble": "haar", "params": {"atoms": [[0.5]]}}),
    ("oracle", {"ensemble": "haar", "params": {"cumulants": [0.5, "b"]}}),
    ("oracle", {"grid": True}),
    ("oracle", {"n_max": True}),
    ("oracle", {"params": {"s": True}}),
    ("simulate", {"ensemble": "haar", "params": {"atoms": [[0.5]]},
                  "mc": {"n_dim": 8, "samples": 1}}),
], ids=["h-interval", "h-table", "atoms", "cumulants", "grid-bool", "n_max-bool",
        "float-bool", "simulate-atoms"])
def test_malformed_entries_exit_2_without_files(tmp_path, command, change):
    cfg = dict(ORACLE_CFG, **change)
    if command == "simulate":
        cfg = {k: cfg[k] for k in ("ensemble", "params", "mc")}
    out = tmp_path / "e_out"
    assert cli.main([command, "--config", write_cfg(tmp_path, "e.json", cfg),
                     "--out", str(out)]) == 2
    assert not any(out.iterdir())


def test_unparseable_config_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_command_mismatch_rejected(tmp_path):
    cfg = write_cfg(tmp_path, "m.json", {"command": "oracle", "files": ["a", "b"]})
    assert cli.main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_oracle_table_and_bound(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "o.json", {
        "ensemble": "wigner", "params": {"s": 1.0},
        "h": {"type": "named", "name": "full"},
        "grid": 32, "n_max": 4,
    })
    out = tmp_path / "o"
    assert cli.main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "n=4" in text
    rows = [l for l in (out / "oracle.csv").read_text().splitlines()
            if l and not l.startswith("#")]
    assert rows[0] == "n,phi_oracle,phi_solver,rel_gap"
    assert len(rows) == 5

    cfg12 = write_cfg(tmp_path, "o12.json", {
        "ensemble": "wigner", "params": {"s": 1.0},
        "h": {"type": "named", "name": "full"}, "n_max": 12,
    })
    assert cli.main(["oracle", "--config", cfg12, "--out", str(out)]) == 4


def test_oracle_qssep_first_row(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "oq.json", {
        "ensemble": "qssep", "h": {"type": "named", "name": "full"},
        "grid": 32, "n_max": 1,
    })
    assert cli.main(["oracle", "--config", cfg, "--out", str(tmp_path / "oq")]) == 0
    assert "oracle=0.5" in capsys.readouterr().out


def test_diagnose_verdicts(tmp_path, capsys):
    free_cfg = write_cfg(tmp_path, "dc.json", {
        "ensemble": "haar", "params": {"cumulants": [0.5, 0.25, 0.0, -0.0625]},
        "h": {"type": "named", "name": "smooth_ramp"}, "grid": 64, "order": 2,
    })
    assert cli.main(["diagnose", "--config", free_cfg, "--out", str(tmp_path / "dc")]) == 0
    assert "verdict: free-compatible" in capsys.readouterr().out

    qssep_cfg = write_cfg(tmp_path, "dq.json", {
        "ensemble": "qssep", "h": {"type": "named", "name": "half"},
        "grid": 64, "order": 2,
    })
    assert cli.main(["diagnose", "--config", qssep_cfg, "--out", str(tmp_path / "dq")]) == 0
    assert "verdict: not-free-compatible" in capsys.readouterr().out

    degen = write_cfg(tmp_path, "dd.json", {
        "ensemble": "wigner", "params": {"s": 1.0},
        "h": {"type": "named", "name": "full"}, "grid": 32,
    })
    assert cli.main(["diagnose", "--config", degen, "--out", str(tmp_path / "dd")]) == 4


def test_simulate_zero_realizations_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "s0.json", {
        "ensemble": "qssep",
        "mc": {"n_sites": 20, "dt": 0.1, "t_end": 5.0, "t_stat": 1.0,
               "realizations": 0, "interval": [0.4, 0.7]},
    })
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "s0")]) == 2


def test_simulate_checks_its_config_before_stepping(tmp_path, monkeypatch):
    runs = []
    monkeypatch.setattr(rmt_mc, "qssep_run", lambda cfg: runs.append(cfg))
    base = {"ensemble": "qssep", "mc": {"n_sites": 20, "dt": 0.1, "t_end": 200.0}}
    for name, change, code in (
            ("no_sites", {"mc": dict(base["mc"], interval=[0.98, 0.99])}, 4),
            ("string", {"mc": dict(base["mc"], interval="ab")}, 2),
            ("bogus", {"ensemble": "wigner", "params": {"s": 1, "bogus": 3},
                       "mc": {"n_dim": 20}}, 2)):
        cfg = write_cfg(tmp_path, f"{name}.json", dict(base, **change))
        out = tmp_path / name
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == code
        assert not any(out.iterdir())
    assert runs == []


def test_simulate_reproducible_and_ks(tmp_path):
    spec_cfg = write_cfg(tmp_path, "ref.json", {
        "ensemble": "wigner", "params": {"s": 1.0},
        "h": {"type": "named", "name": "full"},
        "grid": 64, "eps": 2e-3,
        "lambda_grid": {"min": -2.4, "max": 2.4, "count": 97},
    })
    ref_dir = tmp_path / "ref"
    assert cli.main(["spectrum", "--config", spec_cfg, "--out", str(ref_dir)]) == 0

    sim = {
        "ensemble": "wigner", "params": {"s": 1.0}, "seed": 5,
        "mc": {"n_dim": 150, "samples": 6, "interval": [0.0, 1.0], "bins": 40,
               "reference": str(ref_dir / "density.csv")},
    }
    cfg = write_cfg(tmp_path, "sim.json", sim)
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "eigenvalues.csv").read_bytes() == (out_b / "eigenvalues.csv").read_bytes()
    side = json.loads((out_a / "simulate.json").read_text())
    assert side["ks"] < 0.2


def test_simulate_instability_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "si.json", {
        "ensemble": "qssep", "seed": 3,
        "mc": {"n_sites": 40, "dt": 0.5, "t_end": 400.0, "t_stat": 0.0,
               "interval": [0.2, 0.8], "snapshot_stride": 10},
    })
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "si")]) == 3


# the README QSSEP simulation at the paper's dt = 0.1, cut to 300 steps
QSSEP_SIM = {"ensemble": "qssep", "seed": 7,
             "mc": {"n_sites": 100, "dt": 0.1, "t_end": 30.0, "t_stat": 10.0,
                    "snapshot_stride": 100, "interval": [0.4, 0.7], "bins": 60,
                    "realizations": 2}}


def _qssep_sim(tmp_path, name, **mc):
    return write_cfg(tmp_path, f"{name}.json", dict(QSSEP_SIM, mc=dict(QSSEP_SIM["mc"], **mc)))


def test_simulate_qssep_default_is_the_rotation_stepper(tmp_path):
    outs = {}
    for name, mc in (("default", {}), ("unitary", {"integrator": "unitary"}), ("again", {})):
        outs[name] = tmp_path / name
        cfg = _qssep_sim(tmp_path, name, **mc)
        assert cli.main(["simulate", "--config", cfg, "--out", str(outs[name])]) == 0
    for table in ("eigenvalues.csv", "histogram.csv"):
        assert (outs["default"] / table).read_bytes() == (outs["unitary"] / table).read_bytes()
    side = (outs["default"] / "simulate.json").read_bytes()
    assert side == (outs["again"] / "simulate.json").read_bytes()
    qssep = json.loads(side)["qssep"]  # one entry per realization
    assert qssep["stationarity_index"] == [100, 100]
    assert len(qssep["hermiticity_drift"]) == 2
    assert all(0.0 <= d < rmt_mc.HERMITICITY_TOL for d in qssep["hermiticity_drift"])


def test_euler_integrator_is_rejected(tmp_path, capsys):
    with pytest.raises(DomainError):
        rmt_mc.QssepConfig(n_sites=10, integrator="euler")
    out = tmp_path / "e"
    cfg = _qssep_sim(tmp_path, "euler", integrator="euler")
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 4
    assert "unknown integrator 'euler'" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_density_with_gap_rows_exits_2(tmp_path, capsys, monkeypatch):
    # spectrum writes a solver gap as nan; compare and simulate refuse to read one
    gappy, clean = tmp_path / "gappy.csv", tmp_path / "clean.csv"
    gappy.write_text("lambda,rho_block\n0,1\n0.5,nan\n1,1\n")
    clean.write_text("lambda,rho_block\n0,1\n0.5,1\n1,1\n")
    cfg = write_cfg(tmp_path, "c.json", {"files": [str(gappy), str(clean)]})
    out = tmp_path / "c"
    assert cli.main(["compare", "--config", cfg, "--out", str(out)]) == 2
    assert "1 non-finite rows" in capsys.readouterr().err
    assert not (out / "compare.json").exists()
    # the reference is read before any trajectory is stepped
    monkeypatch.setattr(rmt_mc, "qssep_run",
                        lambda cfg: pytest.fail("stepped before reading the reference"))
    out = tmp_path / "s"
    for name, ref in (("gappy_ref", gappy), ("missing_ref", tmp_path / "missing.csv")):
        cfg = _qssep_sim(tmp_path, name, reference=str(ref))
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert not any(out.iterdir())


def test_inhomogeneous_s_squared_table_resampled(tmp_path, capsys):
    table = [1.0, 1.5, 2.0, 1.25]
    base = {"ensemble": "inhomogeneous", "h": {"type": "named", "name": "full"},
            "grid": 32, "eps": 5e-3, "lambda_grid": {"min": -2.5, "max": 2.5, "count": 21}}
    written = []
    for name, vals in (("short", table), ("expanded", np.repeat(table, 8).tolist()),
                       ("negative", [1.0, -0.5, 2.0, 1.25]), ("empty", [])):
        cfg = write_cfg(tmp_path, f"{name}.json",
                        dict(base, params={"s_squared": {"type": "table", "values": vals}}))
        out = tmp_path / name
        written.append((cli.main(["spectrum", "--config", cfg, "--out", str(out)]), out))
    (short, a), (expanded, b), (negative, c), (empty, d) = written
    assert short == expanded == 0
    assert (a / "density.csv").read_bytes() == (b / "density.csv").read_bytes()
    assert negative == 4 and not any(c.iterdir())
    assert empty == 2 and not any(d.iterdir())
    assert "s(x)^2 must be positive" in capsys.readouterr().err


def test_compare_command(tmp_path):
    lam = np.linspace(0, 1, 21)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path, rho in ((a, np.ones(21)), (b, np.ones(21) * 1.02)):
        lines = ["lambda,rho_block"] + [f"{l},{r}" for l, r in zip(lam, rho)]
        path.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path, "c.json", {"files": [str(a), str(b)]})
    assert cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    payload = json.loads((tmp_path / "c" / "compare.json").read_text())
    assert payload["l1"] == pytest.approx(0.02, rel=1e-6)


QSSEP_SPECTRUM = {"ensemble": "qssep", "h": {"type": "intervals", "intervals": [[0.4, 0.7]]},
                  "grid": 16, "emit_closed_form": True,
                  "lambda_grid": {"min": 0.05, "max": 0.95, "count": 5}}
HAAR_SPECTRUM = dict(QSSEP_SPECTRUM, ensemble="haar",
                     params={"atoms": [[0.0, 0.5], [1.0, 0.5]], "order": 4})
SHORT_MC = {"n_sites": 10, "dt": 0.1, "t_end": 2.0, "t_stat": 1.0, "snapshot_stride": 2,
            "interval": [0.4, 0.7], "bins": 6}


def _sim(**mc):
    return {"ensemble": "qssep", "seed": 7, "mc": dict(SHORT_MC, **mc)}


@pytest.mark.parametrize("command,cfg,code", [
    ("spectrum", dict(QSSEP_SPECTRUM, lambda_grid={"min": 0.1, "max": 0.9, "count": -1}), 4),
    ("spectrum", dict(QSSEP_SPECTRUM, lambda_grid={"min": 0.1, "max": 0.9, "count": 0}), 4),
    ("spectrum", dict(QSSEP_SPECTRUM, interval=[0.4]), 2),
    ("spectrum", dict(QSSEP_SPECTRUM, interval="ab"), 2),
    ("spectrum", dict(QSSEP_SPECTRUM, interval=[False, 0.7]), 2),
    ("spectrum", dict(QSSEP_SPECTRUM, interval=[0.4, 0.7, 0.9]), 2),
    ("spectrum", dict(QSSEP_SPECTRUM, h={"type": "table", "values": [0.0, 0.0]}), 4),
    ("spectrum", dict(HAAR_SPECTRUM, params={"atoms": [[0.0, 1.0]], "order": 0}), 4),
    ("spectrum", dict(HAAR_SPECTRUM, params={"atoms": [[0.0, 1.0]], "order": -2}), 4),
    ("compare", {"files": [None, None]}, 2),
    ("compare", {"files": [1, 2]}, 2),
    ("simulate", _sim(reference=5), 2),
    ("simulate", _sim(rates="abcd"), 2),
    ("simulate", _sim(rates=[None, 1, 1, 0]), 2),
    ("simulate", _sim(rates=[True, 1, 1, 0]), 2),
    ("simulate", _sim(rates=[0, 1, 1, 0, 0]), 2),
    ("simulate", _sim(snapshot_stride=0), 4),
    ("simulate", _sim(snapshot_stride=-5), 4),
    ("simulate", _sim(bins=0), 4),
    ("simulate", _sim(bins=-2), 4),
    ("simulate", _sim(t_end=math.nan), 4),
    ("simulate", _sim(dt=math.inf), 4),
    ("simulate", dict(_sim(), seed=-1), 4),
    ("simulate", {"ensemble": "haar", "params": {"atoms": [[0.0, 0.5], [math.inf, 0.5]]},
                  "mc": {"n_dim": 8, "samples": 1}}, 4),
    ("simulate", _sim(rates=[math.nan, 1, 1, 0]), 4),
    ("spectrum", dict(QSSEP_SPECTRUM, grid=-1), 4),
], ids=["count-negative", "count-zero", "interval-short", "interval-string", "interval-bool",
        "interval-long", "h-zero", "order-zero", "order-negative", "files-null", "files-int",
        "reference-int", "rates-string", "rates-null", "rates-bool", "rates-long",
        "stride-zero", "stride-negative", "bins-zero", "bins-negative", "t_end-nan", "dt-inf",
        "seed-negative", "atom-location-inf", "rates-nan", "grid-negative"])
def test_configs_that_crashed_exit_2_or_4_before_any_work(tmp_path, monkeypatch,
                                                           command, cfg, code):
    # each of these used to end in a traceback (exit 1), some after stepping a trajectory,
    # or to run on a misread value: a boolean as 0 or 1, a list cut to its first entries,
    # a negative stride as its absolute value
    monkeypatch.setattr(rmt_mc, "qssep_run", lambda cfg: pytest.fail("stepped"))
    out = tmp_path / "x"
    assert cli.main([command, "--config", write_cfg(tmp_path, "x.json", cfg),
                     "--out", str(out)]) == code
    assert not any(out.iterdir())


WIGNER_SPECTRUM = {"ensemble": "wigner", "h": {"type": "named", "name": "full"}, "grid": 16,
                   "eps": 5e-3, "lambda_grid": {"min": -1.5, "max": 1.5, "count": 3}}


@pytest.mark.parametrize("command,cfg", [
    ("spectrum", dict(QSSEP_SPECTRUM, interval=None)),
    ("spectrum", dict(QSSEP_SPECTRUM, emit_closed_form=False, interval="ab")),
    ("spectrum", dict(WIGNER_SPECTRUM, emit_closed_form=True, interval=[0.4])),
    ("spectrum", dict(WIGNER_SPECTRUM, h={"type": "named", "name": "full", "values": "x"})),
    ("spectrum", dict(HAAR_SPECTRUM, params={"cumulants": [0.5, 0.25], "order": 0})),
    ("spectrum", dict(HAAR_SPECTRUM, params={"cumulants": [0.5, 0.25], "atoms": "x"})),
    ("simulate", _sim(reference=None)),
    ("simulate", _sim(reference="")),
    ("simulate", {"ensemble": "wigner", "mc": {"n_dim": 6, "samples": 1, "bins": 3, "dt": "x"}}),
], ids=["interval-null", "interval-without-closed-form", "interval-not-qssep",
        "h-other-type-key", "cumulants-with-order-0", "cumulants-with-atoms", "reference-null",
        "reference-empty", "mc-key-of-other-ensemble"])
def test_null_and_unused_keys_are_not_read(tmp_path, command, cfg):
    # null stands for a missing optional key, and a key the run does not use is not checked
    out = tmp_path / "ok"
    assert cli.main([command, "--config", write_cfg(tmp_path, "ok.json", cfg),
                     "--out", str(out)]) == 0


def test_integer_file_path_exits_2_with_stdout_open(tmp_path):
    # open(1) would read the process's stdout and close it, so run in a process of its own
    import subspectra
    cfg = write_cfg(tmp_path, "fd.json", {"files": [1, 2]})
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(subspectra.__file__)))
    out = subprocess.run([sys.executable, "-m", "subspectra.cli", "compare", "--config", cfg,
                          "--out", str(tmp_path / "fd")], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 2
    assert "config error" in out.stderr


def test_simulate_without_a_snapshot_in_the_window_exits_4(tmp_path, capsys):
    # 10 steps, a stride of 100 and no t_stat: the detected window holds no stride step
    cfg = write_cfg(tmp_path, "w.json", {
        "ensemble": "qssep", "seed": 7,
        "mc": {"n_sites": 10, "dt": 0.1, "t_end": 1.0, "interval": [0.4, 0.7], "bins": 6}})
    out = tmp_path / "w"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 4
    assert "no snapshot in the sampling window" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_simulate_with_an_empty_given_window_exits_4_before_stepping(tmp_path, capsys,
                                                                   monkeypatch):
    # dt 3 from t_stat 2: steps 0 and 1, and no stride-5 step from step 1 on
    monkeypatch.setattr(rmt_mc, "qssep_run", None)  # never called
    cfg = write_cfg(tmp_path, "e.json", _sim(dt=3.0, t_stat=2.0, t_end=6.0, snapshot_stride=5))
    out = tmp_path / "e"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 4
    assert "no snapshot in the sampling window" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_closed_form_gap_written_as_nan(tmp_path, monkeypatch):
    cfg = dict(QSSEP_SPECTRUM, interval=[0.4, 0.7],
               lambda_grid={"min": 0.05, "max": 0.95, "count": 19})
    lam = np.linspace(0.05, 0.95, 19)
    z_minus, z_plus = ensembles.qssep_support(ensembles.QssepBlockSpec(0.4, 0.7))
    lost = int(np.argmin(np.abs(lam - 0.5 * (z_minus + z_plus))))
    solve = ensembles.solve_Q

    def lose_one(spec, at, warm_start=None):
        if at == lam[lost]:
            raise RootTrackingError("lost the root")
        return solve(spec, at, warm_start=warm_start)

    monkeypatch.setattr(ensembles, "solve_Q", lose_one)
    out = tmp_path / "cf"
    assert cli.main(["spectrum", "--config", write_cfg(tmp_path, "cf.json", cfg),
                     "--out", str(out)]) == 0
    rows = [row.split(",") for row in (out / "closed_form.csv").read_text().splitlines()[2:]]
    assert len(rows) == 19 and rows[lost][1:] == ["nan", "nan"]
    assert all("nan" not in row for i, row in enumerate(rows) if i != lost)


def test_closed_form_next_to_the_left_end(tmp_path):
    # c = 1e-4 overflowed exp(-delta) in the support formula, a traceback after the scan
    cfg = dict(QSSEP_SPECTRUM, h={"type": "intervals", "intervals": [[1e-4, 0.5]]},
               interval=[1e-4, 0.5])
    out = tmp_path / "left"
    assert cli.main(["spectrum", "--config", write_cfg(tmp_path, "left.json", cfg),
                     "--out", str(out)]) == 0
    rows = [row.split(",") for row in (out / "closed_form.csv").read_text().splitlines()[2:]]
    assert len(rows) == 5 and all(math.isfinite(float(x)) for row in rows for x in row)


def test_readme_configs_read_against_their_tables():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
    spectrum, simulate = (json.loads(block) for block in blocks)
    read = cli.read(spectrum, cli._spectrum, "config")
    assert read["lambda_grid"]["count"] == 400 and read["interval"] == [0.4, 0.7]
    assert cli.read(simulate, cli.SIMULATE, "config")["mc"]["realizations"] == 1


# small-grid variants of the README and test configs, mutated by the fuzz below
FUZZ_BASES = [
    ("spectrum", dict(QSSEP_SPECTRUM, eps_ladder=[4e-3, 2e-3, 1e-3], interval=[0.4, 0.7])),
    ("spectrum", {"ensemble": "wigner", "params": {"s": 1.0}, "grid": 16, "eps": 5e-3,
                  "h": {"type": "table", "values": [1.0, 0.5]},
                  "lambda_grid": {"min": -1.5, "max": 1.5, "count": 5}}),
    ("spectrum", {"ensemble": "inhomogeneous", "grid": 16,
                  "params": {"s_squared": {"type": "table", "values": [1.0, 2.0]}},
                  "h": {"type": "named", "name": "full"},
                  "lambda_grid": {"min": -2.0, "max": 2.0, "count": 5}}),
    ("spectrum", HAAR_SPECTRUM),
    ("oracle", ORACLE_CFG),
    ("oracle", {"ensemble": "qssep", "h": {"type": "named", "name": "half"}, "grid": 12,
                "n_max": 2}),
    ("diagnose", {"ensemble": "custom", "params": {"cumulants": [0.5, 0.25, 0.0, -0.0625]},
                  "h": {"type": "named", "name": "smooth_ramp"}, "grid": 24, "order": 2}),
    ("compare", {"files": ["a.csv", "b.csv"]}),
    ("simulate", dict(_sim(), mc=dict(SHORT_MC, rates=[0.0, 1.0, 1.0, 0.0], realizations=2,
                                      integrator="unitary", reference="a.csv"))),
    ("simulate", {"ensemble": "wigner", "params": {"s": 1.0}, "seed": 5,
                  "mc": {"n_dim": 8, "samples": 2, "interval": [0.0, 1.0], "bins": 4}}),
    ("simulate", {"ensemble": "haar", "params": {"atoms": [[0.0, 0.5], [1.0, 0.5]]},
                  "mc": {"n_dim": 8, "samples": 2, "bins": 4}}),
]
# never a huge size: a 10^9-cell grid is a valid request that would exhaust memory
FUZZ_NUMBERS = [0, -1, 1, 2, 0.5, 1e-3, math.nan, math.inf, -math.inf]
FUZZ_VALUES = FUZZ_NUMBERS + [None, True, False, "x", "", [], {}, [0.4], [0.4, 0.7], [1, 2],
                              [None, None], {"type": "named", "name": "full"}]


def _paths(node, prefix=()):
    for key, val in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield prefix + (key,)
        if isinstance(val, (dict, list)):
            yield from _paths(val, prefix + (key,))


@st.composite
def mutated_configs(draw):
    """A base config with one or two of its keys or entries dropped, replaced or re-nested."""
    command, cfg = draw(st.sampled_from(FUZZ_BASES))
    cfg = json.loads(json.dumps(cfg))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(cfg))
        if not paths:
            break
        *parent, key = draw(st.sampled_from(paths))
        node = cfg
        for step in parent:
            node = node[step]
        action = draw(st.sampled_from(["drop", "value", "number", "number", "wrap", "nest",
                                       "unknown"]))
        if action == "drop":
            del node[key]
        elif action in ("value", "number"):
            node[key] = draw(st.sampled_from(FUZZ_VALUES if action == "value" else FUZZ_NUMBERS))
        elif action == "wrap":
            node[key] = [node[key]]
        elif action == "nest":
            node[key] = {"value": node[key]}
        elif isinstance(node, dict):
            node["bogus"] = 1
    return command, cfg


@pytest.mark.filterwarnings("error::RuntimeWarning")  # NaN arithmetic means an unchecked input
def test_config_fuzz_never_crashes_or_writes_on_error(tmp_path, monkeypatch):
    def one_snapshot(cfg):  # steps nothing
        snap = np.diag((np.arange(cfg.n_sites) + 1.0) / cfg.n_sites).astype(complex)
        return rmt_mc.QssepRun(config=cfg, times=np.zeros(1), snapshots=[snap],
                               trace_series=np.zeros(1), stationarity_index=0,
                               hermiticity_drift=0.0)

    monkeypatch.setattr(rmt_mc, "qssep_run", one_snapshot)
    monkeypatch.chdir(tmp_path)
    for name, rho in (("a.csv", 1.0), ("b.csv", 1.02)):
        (tmp_path / name).write_text("lambda,rho_block\n" + "".join(
            f"{x / 10},{rho}\n" for x in range(11)))
    codes = []

    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(mutated_configs())
    def run(case):
        command, cfg = case
        work = tempfile.mkdtemp(dir=tmp_path)
        path = os.path.join(work, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(work, "out")
        code = cli.main([command, "--config", path, "--out", out])  # raises on a crash
        assert code in (0, 2, 3, 4, 5), (command, cfg)
        if code in (2, 4):
            assert not os.listdir(out), (command, cfg)
        codes.append((command, code))

    run()
    assert {command for command, _ in codes} == set(cli.COMMANDS)
    assert {code for _, code in codes} >= {0, 2, 4}
