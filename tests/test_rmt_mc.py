import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspectra import freeprob as fp
from subspectra import rmt_mc as mc
from subspectra.errors import DomainError, StabilityError


def test_wigner_sampler_statistics():
    m = mc.sample_wigner(300, 1.0, seed=3)
    assert np.max(np.abs(m - m.conj().T)) == 0.0
    draws = np.array([mc.sample_wigner(50, 1.0, seed=3, stream=s)[0, 1]
                      for s in range(2000)])
    assert abs(np.mean(draws)) < 3.0 / np.sqrt(2000 * 50)
    assert abs(np.mean(np.abs(draws) ** 2) * 50 - 1.0) < 0.1


def test_wigner_semicircle_ks():
    eigs = np.concatenate([np.linalg.eigvalsh(mc.sample_wigner(500, 1.0, seed=11, stream=s))
                           for s in range(6)])
    lam = np.linspace(-2.2, 2.2, 441)
    semi = fp.SpectralDensity.from_callable(
        lambda t: np.sqrt(np.maximum(4 - t ** 2, 0)) / (2 * np.pi), lam)
    assert mc.ks_distance(mc.empirical_density(eigs), semi) < 0.05


def test_wigner_variance_profile_enters():
    prof = lambda x: 0.5 + 1.5 * x
    draws1 = np.array([mc.sample_wigner(40, prof, seed=5, stream=s)[0, 1]
                       for s in range(2000)])
    drawsN = np.array([mc.sample_wigner(40, prof, seed=6, stream=s)[38, 39]
                       for s in range(2000)])
    v1 = np.mean(np.abs(draws1) ** 2) * 40
    vN = np.mean(np.abs(drawsN) ** 2) * 40
    assert v1 < vN  # variance grows along the profile
    assert abs(v1 - prof(2.5 / 80) ** 2) < 0.05
    assert abs(vN - prof(78.5 / 80) ** 2) < 0.3


def test_haar_spectrum_is_exact():
    meas = fp.Measure1D.bernoulli(0.5)
    m = mc.sample_haar_conjugated(128, meas, seed=5)
    ev = np.sort(np.linalg.eigvalsh(m))
    np.testing.assert_allclose(ev, np.sort(meas.quantiles(128)), atol=1e-12)


def test_haar_pair_loop_matches_second_cumulant():
    meas = fp.Measure1D.bernoulli(0.5)
    samples = [mc.sample_haar_conjugated(100, meas, seed=7, stream=s) for s in range(150)]
    est, se = mc.estimate_local_cumulants(samples, 2, (0.2, 0.7))
    assert abs(est - 0.25) <= 3 * se


def test_loop_estimator_zero_mean_offdiagonal():
    samples = [mc.sample_wigner(80, 1.0, seed=9, stream=s) for s in range(100)]
    est, se = mc.estimate_local_cumulants(samples, 1, (0.4,))
    assert abs(est) <= 3 * se + 1e-3


def test_loop_estimator_input_validation():
    samples = [mc.sample_wigner(20, 1.0, seed=1, stream=s) for s in range(4)]
    with pytest.raises(DomainError):
        mc.estimate_local_cumulants(samples, 2, (0.3, 0.31))  # same site
    with pytest.raises(DomainError):
        mc.estimate_local_cumulants(samples, 4, (0.1, 0.3, 0.5, 0.7))


def test_subblock_selection():
    d = np.diag(np.arange(1, 11) / 10.0)
    np.testing.assert_allclose(mc.subblock_eigs(d, (0.0, 0.3)), [0.1, 0.2, 0.3])
    np.testing.assert_allclose(mc.subblock_eigs(d, (0.0, 1.0)), np.diag(d))
    with pytest.raises(DomainError):
        mc.subblock_eigs(d, (0.98, 0.99))


@pytest.mark.parametrize("stride", [0, -5])
def test_qssep_config_rejects_stride_below_one(stride):
    # stride 0 divided by zero at the first step; -5 acted as 5
    with pytest.raises(DomainError):
        mc.QssepConfig(n_sites=10, snapshot_stride=stride)


@pytest.mark.parametrize("dt,t_stat,t_end,stride", [
    (3.0, 2.0, 6.0, 5),  # steps 0 and 1, window from step 1: stepped into a StabilityError
    (0.1, 0.5, 1.0, 20),  # steps 0..9, window from step 5: 10 steps taken for nothing
])
def test_qssep_config_rejects_an_empty_window(dt, t_stat, t_end, stride):
    with pytest.raises(DomainError, match="no snapshot in the sampling window"):
        mc.QssepConfig(n_sites=10, dt=dt, t_stat=t_stat, t_end=t_end, snapshot_stride=stride)
    mc.QssepConfig(n_sites=10, dt=dt, t_stat=0.0, t_end=t_end, snapshot_stride=stride)


@pytest.mark.parametrize("n", [40, 41])
def test_qssep_drift_stays_at_rounding_over_a_long_stride(n):
    # 1000 steps between re-hermitisations: a stepper that lets the boundary drive
    # feed the anti-Hermitian part grows it by about 1 + |g| per step
    cfg = mc.QssepConfig(n_sites=n, dt=0.2, t_end=200.0, t_stat=0.0, snapshot_stride=250)
    run = mc.qssep_run(cfg)
    assert len(run.snapshots) == 4
    assert run.hermiticity_drift < mc.HERMITICITY_TOL


def test_qssep_trace_conserved_without_boundaries():
    cfg = mc.QssepConfig(n_sites=30, dt=0.05, t_end=1.5, t_stat=0.0,
                         rates=(0, 0, 0, 0), seed=1, snapshot_stride=1)
    run = mc.qssep_run(cfg)
    traces = [np.trace(s).real for s in run.snapshots]
    assert np.max(np.abs(np.diff(traces))) < 1e-10
    assert max(np.max(np.abs(s - s.conj().T)) for s in run.snapshots) <= 1e-12


def test_qssep_noise_off_is_static():
    # zero-noise limit: scale noise away by taking dt -> tiny with no steps of effect
    cfg = mc.QssepConfig(n_sites=10, dt=0.01, t_end=0.05, t_stat=0.0,
                         rates=(0, 0, 0, 0), seed=2, snapshot_stride=1,
                         integrator="unitary")
    run = mc.qssep_run(cfg)
    # unitary noise preserves the spectrum exactly; with boundaries off the
    # eigenvalues never move
    base = np.sort(np.linalg.eigvalsh(np.diag(np.arange(1, 11) / 10.0)))
    for snap in run.snapshots:
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(snap)), base, atol=1e-12)
    assert run.hermiticity_drift < mc.HERMITICITY_TOL


def test_qssep_single_pass_matches_known_onset():
    cfg = dict(n_sites=16, dt=0.1, t_end=60.0, seed=4, snapshot_stride=10,
               integrator="unitary")
    found = mc.qssep_run(mc.QssepConfig(**cfg))
    onset = found.stationarity_index
    assert 0 < onset < 600 and 0 < len(found.snapshots) < 60  # some snapshots cut
    known = mc.qssep_run(mc.QssepConfig(**cfg, t_stat=onset * cfg["dt"]))
    assert known.stationarity_index == onset
    np.testing.assert_array_equal(found.times, known.times)
    np.testing.assert_array_equal(found.trace_series, known.trace_series)
    assert len(found.snapshots) == len(known.snapshots)
    for x, y in zip(found.snapshots, known.snapshots):
        np.testing.assert_array_equal(x, y)


def _random_complex(rng, shape):
    return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 41), layer=st.sampled_from([0, 1, None]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_bond_rotate_equals_dense_conjugation(n, layer, seed, data):
    rng = np.random.default_rng(seed)
    m = _random_complex(rng, (n, n))
    w = _random_complex(rng, n - 1)
    w[data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))] = 0.0
    if layer is not None:
        w[1 - layer::2] = 0.0  # only the bonds (layer, layer + 1), (layer + 2, ...) act
    u = np.eye(n, dtype=complex)
    for offset in (0, 1):
        uo = np.eye(n, dtype=complex)
        for a in range(offset, n - 1, 2):
            r = abs(w[a])
            phase = w[a] / r if r > 0 else 1.0
            uo[a:a + 2, a:a + 2] = [[np.cos(r), 1j * np.sin(r) * phase],
                                    [1j * np.sin(r) * np.conj(phase), np.cos(r)]]
        u = uo @ u
    want = u @ m @ u.conj().T
    mc._bond_rotate(m, w, np.empty((n, n), dtype=complex))
    np.testing.assert_allclose(m, want, rtol=0, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 41), seed=st.integers(0, 2 ** 32 - 1),
       rates=st.tuples(*[st.floats(0, 2)] * 4), dt=st.floats(1e-3, 0.5))
def test_edge_drive_equals_dense_formula(n, seed, rates, dt):
    rng = np.random.default_rng(seed)
    pre, post = _random_complex(rng, (n, n)), _random_complex(rng, (n, n))
    alpha_1, beta_1, alpha_n, beta_n = rates
    dense = np.zeros_like(pre)
    dense[0, 0] += alpha_1
    dense[n - 1, n - 1] += alpha_n
    g1, gn = 0.5 * (alpha_1 + beta_1), 0.5 * (alpha_n + beta_n)
    dense[0, :] -= g1 * pre[0, :]
    dense[:, 0] -= g1 * pre[:, 0]
    dense[n - 1, :] -= gn * pre[n - 1, :]
    dense[:, n - 1] -= gn * pre[:, n - 1]
    want = post + dense * dt
    # stored in a random site order: the drive finds the edges through ends
    order = rng.permutation(n)
    pre, post = pre[np.ix_(order, order)], post[np.ix_(order, order)]
    pos = np.argsort(order)
    ends = pos[[0, -1]]
    mc._boundary_drive(post, ends, pre[ends], pre[:, ends], rates, dt)
    np.testing.assert_allclose(post[np.ix_(pos, pos)], want, rtol=0, atol=1e-13)


def test_qssep_instability_detected():
    # dt = 0.5 is five times the paper's step; the spectrum escapes at t = 40
    cfg = mc.QssepConfig(n_sites=40, dt=0.5, t_end=400.0, t_stat=0.0, seed=3,
                         snapshot_stride=10)
    with pytest.raises(StabilityError):
        mc.qssep_run(cfg)


def test_qssep_stationary_profile_and_pair_kernel():
    cfg = mc.QssepConfig(n_sites=60, dt=0.1, t_end=1600.0, t_stat=900.0, seed=42,
                         snapshot_stride=100, integrator="unitary")
    run = mc.qssep_run(cfg)
    prof = np.mean([np.diag(s).real for s in run.snapshots], axis=0)
    target = np.arange(1, 61) / 60
    assert np.max(np.abs(prof - target)) < 0.05
    est, se = mc.estimate_local_cumulants(run.snapshots, 2, (0.3, 0.6))
    assert abs(est - 0.12) <= 3 * se
    # eigenvalues stay near [0, 1] at stationarity (soft bound, monitored)
    eigs = np.concatenate([mc.subblock_eigs(s, (0.4, 0.7)) for s in run.snapshots])
    assert eigs.min() > -0.05 and eigs.max() < 1.05


def test_qssep_reproducibility():
    cfg = dict(n_sites=20, dt=0.1, t_end=30.0, t_stat=10.0, seed=9,
               snapshot_stride=20, integrator="unitary")
    a = mc.qssep_run(mc.QssepConfig(**cfg))
    b = mc.qssep_run(mc.QssepConfig(**cfg))
    assert len(a.snapshots) == len(b.snapshots)
    for x, y in zip(a.snapshots, b.snapshots):
        np.testing.assert_array_equal(x, y)


def test_stationarity_detector():
    t = np.arange(4000.0)
    series = 1.0 - np.exp(-t / 150.0) + 0.001 * np.sin(t)
    onset = mc.detect_stationarity(series, window=200)
    assert onset is not None
    assert 150 <= onset <= 2000


def test_ks_distance_basics():
    rng = np.random.default_rng(0)
    xs = rng.random(10000)
    lam = np.linspace(0, 1, 101)
    uniform = fp.SpectralDensity(lam, np.ones(101))
    emp = mc.empirical_density(xs)
    assert mc.ks_distance(emp, emp) == 0.0
    assert mc.ks_distance(emp, uniform) < 0.02


def test_phase_conjugation_leaves_subblock_spectrum():
    rng = np.random.default_rng(4)
    meas = fp.Measure1D.bernoulli(0.5)
    eigs_a, eigs_b = [], []
    for s in range(10):
        m = mc.sample_haar_conjugated(120, meas, seed=13, stream=s)
        eigs_a.append(mc.subblock_eigs(m, (0.2, 0.8)))
        eigs_b.append(mc.subblock_eigs(mc.conjugate_by_random_phases(m, rng), (0.2, 0.8)))
    da = mc.empirical_density(np.concatenate(eigs_a))
    db = mc.empirical_density(np.concatenate(eigs_b))
    assert mc.ks_distance(da, db) < 0.02
