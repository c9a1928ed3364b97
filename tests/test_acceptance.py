"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single summary line with the measured figures so the
suite output doubles as a results table.
"""

import math
import time

import numpy as np
import pytest

from subspectra import (
    GridFunction,
    QssepBlockSpec,
    functional_derivative_check,
    grand_potential,
    haar_kernel,
    haar_subblock_moments,
    inhomogeneous_wigner_density,
    inhomogeneous_wigner_kernel,
    moment_oracle,
    moment_series,
    nonfreeness_diagnostic,
    qssep_full_density,
    qssep_kernel,
    qssep_subblock_density,
    qssep_support,
    resolvent,
    spectral_density,
    wigner_kernel,
)
from subspectra import freeprob as fp
from subspectra import rmt_mc as mc

from conftest import bernoulli_cumulants, rel_close, smooth_kernel

LADDER = [4e-3, 2e-3, 1e-3]

FIXTURE_SECONDS = {}


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def qssep_trajectories():
    """Stationary-window trajectories at three sizes (unitary stepper).

    Burn-in and sampling scale diffusively with the chain length; dt keeps
    the figure-reproduction value 0.1 at N = 100.
    """
    runs = {}
    specs = {50: (0.1, 50), 100: (0.1, 100), 200: (0.2, 200)}
    started = time.time()
    for n, (dt, stride) in specs.items():
        relax = n ** 2 / np.pi ** 2
        cfg = mc.QssepConfig(n_sites=n, dt=dt, t_end=4.5 * relax, t_stat=2.5 * relax,
                             seed=20, snapshot_stride=stride, integrator="unitary")
        runs[n] = mc.qssep_run(cfg)
    FIXTURE_SECONDS["trajectories"] = time.time() - started
    return runs


@pytest.fixture(scope="module")
def qssep_subblock_scan():
    """Fixed-point solver density for the [0.4, 0.7] slice, ladder-refined."""
    started = time.time()
    kern = qssep_kernel()
    spec = QssepBlockSpec(0.4, 0.7)
    zm, zp = qssep_support(spec)
    h = GridFunction.indicator([(0.4, 0.7)], 400)
    lam = np.linspace(max(zm - 0.05, 0.01), min(zp + 0.03, 0.99), 300)
    dens = spectral_density(kern, h, lam, eps_ladder=LADDER)
    FIXTURE_SECONDS["subblock_scan"] = time.time() - started
    return spec, lam, dens


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c01_oracle_equivalence(h_profiles_64):
    started = time.time()
    kernels = {
        "wigner": wigner_kernel(1.0),
        "haar": haar_kernel(bernoulli_cumulants(12)),
        "smooth": smooth_kernel(0),
    }
    worst_rel = 0.0
    worst_abs = 0.0
    for kname, kern in kernels.items():
        for hname, h in h_profiles_64.items():
            phis = moment_series(kern, h, 6, resolution=64).asarray()
            oracle = np.array([moment_oracle(kern, h, n, 64) for n in range(1, 7)])
            assert rel_close(phis, oracle, rel=1e-6, floor=1e-8), \
                f"{kname}/{hname}: solver {phis} vs oracle {oracle}"
            scale = np.maximum(np.abs(phis), np.abs(oracle))
            big = scale > 1e-6
            if big.any():
                worst_rel = max(worst_rel,
                                np.max(np.abs(phis - oracle)[big] / scale[big]))
            worst_abs = max(worst_abs, np.max(np.abs(phis - oracle)))
    elapsed = time.time() - started
    assert elapsed < 120.0
    print(f"\nC01 oracle equivalence: PASS (worst rel gap {worst_rel:.2e}, "
          f"worst abs {worst_abs:.2e}, {elapsed:.1f}s)")


def test_c02_wigner_semicircle():
    started = time.time()
    lam = np.linspace(-2.5, 2.5, 501)
    dens = spectral_density(wigner_kernel(1.0), GridFunction.constant(1.0, 400),
                            lam, eps=1e-3)
    exact = np.where(np.abs(lam) < 2, np.sqrt(np.maximum(4 - lam ** 2, 0)) / (2 * np.pi), 0)
    l1 = np.trapezoid(np.abs(dens.rho - exact), lam)
    elapsed = time.time() - started
    assert int(dens.gaps.sum()) == 0
    assert l1 < 1e-2
    assert elapsed < 30.0
    print(f"\nC02 Wigner semicircle: PASS (L1 {l1:.2e}, {elapsed:.1f}s)")


def test_c03_inhomogeneous_wigner():
    prof = GridFunction.from_callable(lambda x: np.sqrt(1 + x / 2), 400)
    kern = inhomogeneous_wigner_kernel(prof)
    lam = np.linspace(-2.6, 2.6, 401)
    dens = spectral_density(kern, GridFunction.constant(1.0, 400), lam, eps=1e-3)
    want = inhomogeneous_wigner_density(prof, lam)
    l1 = np.trapezoid(np.abs(dens.rho - want), lam)
    assert l1 < 2e-2
    print(f"\nC03 inhomogeneous variance: PASS (L1 {l1:.2e})")


def test_c04_haar_free_compression():
    kap = bernoulli_cumulants(12)
    ell = 0.5
    m_pipeline = haar_subblock_moments(kap, ell, 8).asarray()

    phis = moment_series(haar_kernel(kap), GridFunction.indicator([(0.0, ell)], 64),
                         8, resolution=64).asarray()
    m_solver = phis / ell
    assert np.max(np.abs(m_pipeline - m_solver)) < 1e-3

    n_dim, n_samples = 500, 50
    meas = fp.Measure1D.bernoulli(0.5)
    per_sample = np.empty((n_samples, 8))
    for s in range(n_samples):
        eigs = mc.subblock_eigs(mc.sample_haar_conjugated(n_dim, meas, seed=17, stream=s),
                                (0.0, ell))
        per_sample[s] = [np.mean(eigs ** n) for n in range(1, 9)]
    m_mc = per_sample.mean(axis=0)
    se = per_sample.std(axis=0, ddof=1) / np.sqrt(n_samples)
    dev = np.abs(m_mc - m_pipeline)
    assert np.all(dev <= 3 * se + 5e-3 / n_dim), (dev, 3 * se)
    print(f"\nC04 free compression: PASS (solver gap {np.max(np.abs(m_pipeline - m_solver)):.1e}, "
          f"MC max dev {np.max(dev / np.maximum(se, 1e-12)):.2f} SE)")


def test_c05_free_multiplicative_identity():
    kap = bernoulli_cumulants(8)
    ell = 0.5
    s_sigma = fp.s_transform(kap)
    s_nu = fp.s_transform(fp.moments_to_cumulants(fp.moments([ell] * 8)))
    s_tot = fp.free_multiplicative_convolution(s_nu, s_sigma)
    m_tot = fp.cumulants_to_moments(fp.s_transform_to_cumulants(s_tot)).asarray()[:6]
    phi = ell * haar_subblock_moments(kap, ell, 6).asarray()
    assert np.max(np.abs(m_tot - phi)) < 1e-8
    print(f"\nC05 multiplicative identity: PASS (max coeff gap {np.max(np.abs(m_tot - phi)):.1e})")


def test_c06_qssep_full_interval():
    lam = np.linspace(0.05, 0.95, 181)
    dens = spectral_density(qssep_kernel(), GridFunction.constant(1.0, 400),
                            lam, eps_ladder=LADDER)
    exact = qssep_full_density(lam)
    l1 = np.trapezoid(np.abs(dens.rho - exact), lam)
    peak = dens.rho[np.argmin(np.abs(lam - 0.5))]
    peak_rel = abs(peak - 4 / np.pi ** 2) / (4 / np.pi ** 2)
    assert int(dens.gaps.sum()) == 0 and dens.solver["fallbacks"] == 0
    assert l1 < 1e-2
    assert peak_rel < 1e-2
    print(f"\nC06 QSSEP full interval: PASS (L1 {l1:.2e}, peak rel {peak_rel:.2e})")


def test_c07_qssep_subblock_fig1(qssep_subblock_scan, qssep_trajectories):
    started = time.time()
    spec, lam, dens_fp = qssep_subblock_scan
    closed = qssep_subblock_density(spec, lam)
    l1 = np.trapezoid(np.abs(dens_fp.rho - closed.rho), lam)
    assert int(dens_fp.gaps.sum()) == 0
    assert l1 < 1e-2

    run = qssep_trajectories[100]
    eigs = np.concatenate([mc.subblock_eigs(s, (0.4, 0.7)) for s in run.snapshots])
    zm, zp = qssep_support(spec)
    grid = np.linspace(zm + 1e-4, zp - 1e-4, 1200)
    ana = qssep_subblock_density(spec, grid)
    ks = mc.ks_distance(mc.empirical_density(eigs, bins=60), ana)
    elapsed = (time.time() - started
               + FIXTURE_SECONDS.get("trajectories", 0.0)
               + FIXTURE_SECONDS.get("subblock_scan", 0.0))
    assert ks < 0.05
    assert elapsed < 600.0
    print(f"\nC07 subblock reproduction: PASS (L1 {l1:.2e}, KS {ks:.3f}, {elapsed:.1f}s)")


def test_c08_support_formula(qssep_subblock_scan):
    assert qssep_support(QssepBlockSpec(0.0, 1.0)) == (0.0, 1.0)
    for d in (0.3, 0.7, 0.9):
        zm, zp = qssep_support(QssepBlockSpec(0.0, d))
        want = d / (d + (1 - d) * math.exp(-1.0 / (1 - d)))
        assert zm == 0.0 and abs(zp - want) <= 1e-12

    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        c = rng.uniform(0.0, 0.9)
        d = rng.uniform(c + 0.05, 1.0)
        zm, zp = qssep_support(QssepBlockSpec(c, d))
        zm_m, zp_m = qssep_support(QssepBlockSpec(1 - d, 1 - c))
        worst = max(worst, abs(zm_m - (1 - zp)), abs(zp_m - (1 - zm)))
    assert worst <= 1e-12

    spec, lam, dens_fp = qssep_subblock_scan
    zm, zp = qssep_support(spec)
    cell = lam[1] - lam[0]
    lo, hi = dens_fp.detect_support()
    assert zm - cell <= lo <= zm + cell
    assert zp - cell <= hi <= zp + cell
    print(f"\nC08 support formula: PASS (symmetry {worst:.1e}, "
          f"bracket offsets {lo - zm:.2e}/{zp - hi:.2e} vs cell {cell:.2e})")


def test_c09_nonfreeness_diagnostic():
    from subspectra import constant_kernel
    const = constant_kernel([0.7, 0.3], name="const")
    h = GridFunction.from_callable(lambda x: 0.5 + x / 4, 64)
    ratio, s_h = nonfreeness_diagnostic(const, h, order=2)
    gap = np.max(np.abs(ratio.asarray() - s_h.asarray()))
    assert gap < 1e-10

    ratio_q, s_h_q = nonfreeness_diagnostic(qssep_kernel(),
                                            GridFunction.indicator([(0, 0.5)], 64),
                                            order=2)
    assert ratio_q.coeffs[0] == pytest.approx(4.0, abs=1e-12)
    assert s_h_q.coeffs[0] == pytest.approx(2.0, abs=1e-12)
    print(f"\nC09 non-freeness diagnostic: PASS (constant gap {gap:.1e}, "
          f"leading {ratio_q.coeffs[0]:.1f} vs {s_h_q.coeffs[0]:.1f})")


def test_c10_variational_structure():
    h1 = GridFunction.constant(1.0, 128)
    hs = GridFunction.from_callable(lambda x: 0.5 + x / 4, 128)
    worst_dz = 0.0
    for kern, h, z in ((wigner_kernel(1.0), h1, 3.0),
                       (qssep_kernel(), h1, 2.0),
                       (qssep_kernel(), hs, 2.0 + 1.0j)):
        d = 1e-5
        dF = (grand_potential(kern, h, z + d) - grand_potential(kern, h, z - d)) / (2 * d)
        g = resolvent(kern, h, z)
        worst_dz = max(worst_dz, abs(dF - g) / abs(g))
    assert worst_dz <= 1e-6

    rng = np.random.default_rng(12)
    worst_fd = 0.0
    for kern, h in ((wigner_kernel(1.0), h1), (qssep_kernel(), hs)):
        for idx in rng.integers(0, 128, size=5):
            lhs, rhs = functional_derivative_check(kern, h, 2.5 + 0.5j, int(idx))
            worst_fd = max(worst_fd, abs(lhs - rhs) / abs(rhs))
    assert worst_fd <= 1e-4
    print(f"\nC10 variational structure: PASS (dF/dz rel {worst_dz:.1e}, "
          f"functional derivative rel {worst_fd:.1e})")


def test_c11_ensemble_properties(qssep_trajectories):
    # (i) local phase invariance of subblock spectra
    rng = np.random.default_rng(4)
    run100 = qssep_trajectories[100]
    eigs_plain, eigs_conj = [], []
    for snap in run100.snapshots[::5]:
        eigs_plain.append(mc.subblock_eigs(snap, (0.4, 0.7)))
        eigs_conj.append(mc.subblock_eigs(mc.conjugate_by_random_phases(snap, rng),
                                          (0.4, 0.7)))
    ks = mc.ks_distance(mc.empirical_density(np.concatenate(eigs_plain)),
                        mc.empirical_density(np.concatenate(eigs_conj)))
    assert ks < 0.02

    # (ii) loop scaling: rescaled loops agree across N = 50, 100, 200
    ests = {}
    for n_dim, run in qssep_trajectories.items():
        ests[n_dim] = {
            2: mc.estimate_local_cumulants(run.snapshots, 2, (0.3, 0.6)),
            3: mc.estimate_local_cumulants(run.snapshots, 3, (0.2, 0.5, 0.8)),
        }
    sizes = sorted(ests)
    for order in (2, 3):
        for a, b in zip(sizes, sizes[1:]):
            va, sa = ests[a][order]
            vb, sb = ests[b][order]
            tol = 3 * math.hypot(sa, sb) + 0.5 / a
            assert abs(va - vb) <= tol, (order, a, b, va, vb, tol)

    # (iii) factorization of disjoint loops
    snaps = run100.snapshots
    t1 = np.array([(m[29, 59] * m[59, 29]).real for m in snaps])
    t2 = np.array([(m[9, 79] * m[79, 9]).real for m in snaps])
    ratio_full = np.mean(t1 * t2) / (np.mean(t1) * np.mean(t2))
    loo = []
    count = len(snaps)
    for i in range(count):
        mask = np.ones(count, dtype=bool)
        mask[i] = False
        loo.append(np.mean(t1[mask] * t2[mask])
                   / (np.mean(t1[mask]) * np.mean(t2[mask])))
    loo = np.asarray(loo)
    se_ratio = math.sqrt((count - 1) / count * np.sum((loo - loo.mean()) ** 2))
    assert abs(ratio_full - 1.0) <= 3 * se_ratio

    # Appendix-style check: rotated-ensemble loops equal the free cumulants
    meas = fp.Measure1D.bernoulli(0.5)
    samples = [mc.sample_haar_conjugated(100, meas, seed=7, stream=s) for s in range(150)]
    est2, se2 = mc.estimate_local_cumulants(samples, 2, (0.2, 0.7))
    est3, se3 = mc.estimate_local_cumulants(samples, 3, (0.2, 0.5, 0.8))
    assert abs(est2 - 0.25) <= 3 * se2
    assert abs(est3 - 0.0) <= 3 * se3
    print(f"\nC11 ensemble properties: PASS (phase KS {ks:.3f}, "
          f"g2 estimates {[round(ests[n][2][0], 4) for n in sizes]}, "
          f"factorization {ratio_full:.3f} +- {se_ratio:.3f}, "
          f"haar loops {est2:.3f}/{est3:.3f})")
