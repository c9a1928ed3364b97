"""Monte Carlo ground truth: matrix sampling and the noisy-chain evolution.

Provides finite-N samplers for the analytic ensembles (variance-profile
Hermitian matrices, Haar-rotated fixed spectra) plus the stochastic
evolution of the exclusion-process coherence matrix,

    M -> e^{i dh} M e^{-i dh} + L[M] dt,

with tridiagonal complex Brownian noise dh (E|dW|^2 = dt per bond) and
boundary injection/extraction at the first and last site.  Estimators for
subblock eigenvalues, empirical densities, and rescaled loop cumulants
close the comparison loop with the solver.

Randomness is counter-based (Philox): every run is reproducible from
(seed, stream), and independent streams can be evolved concurrently.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeLimitError, StabilityError
from .freeprob import SpectralDensity
from .grids import checked_interval

HERMITICITY_TOL = 1e-12
STABILITY_WINDOW = (-0.1, 1.1)  # a snapshot eigenvalue outside it aborts a run
STATIONARITY_REL_TOL = 0.02
MAX_STEPS = 10 ** 7  # steps of one QSSEP trajectory; C07's longest takes about 91 000


def rng_for(seed, stream=0):
    """Counter-based generator; distinct (seed, stream) pairs are independent."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream],
                                                             dtype=np.uint64)))


def assert_hermitian(m, tol=HERMITICITY_TOL):
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > tol:
        raise ValueError(f"matrix deviates from Hermitian by {dev}")
    return m


def sample_wigner(n_dim, s=1.0, seed=0, stream=0):
    """Hermitian matrix with independent entries of variance s(x)^2 / N.

    The profile s (a scalar, a callable or a GridFunction) is evaluated at
    the entry midpoint (i + j)/2N, which realizes a diagonal covariance in
    the large-N limit; the diagonal is real Gaussian at the same scale.
    """
    if n_dim < 2:
        raise DomainError("dimension must be at least 2")
    rng = rng_for(seed, stream)
    idx = np.arange(1, n_dim + 1)
    sij = s((idx[:, None] + idx[None, :]) / (2.0 * n_dim)) if callable(s) else float(s)
    x = rng.standard_normal((n_dim, n_dim))
    y = rng.standard_normal((n_dim, n_dim))
    a = (x + 1j * y) / np.sqrt(2.0)
    m = np.triu(a, 1)
    m = m + m.conj().T
    m[np.diag_indices(n_dim)] = rng.standard_normal(n_dim)
    m = m * sij / np.sqrt(n_dim)
    return assert_hermitian(m)


def haar_unitary(n_dim, rng):
    """Haar-distributed unitary via QR with the phase-fixed R diagonal."""
    a = (rng.standard_normal((n_dim, n_dim))
         + 1j * rng.standard_normal((n_dim, n_dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sample_haar_conjugated(n_dim, spectrum, seed=0, stream=0):
    """U D U^dagger with U Haar unitary and D the midpoint quantiles of spectrum.

    The sample spectrum equals the quantiles of the target exactly.
    """
    rng = rng_for(seed, stream)
    d = spectrum.quantiles(n_dim)
    u = haar_unitary(n_dim, rng)
    m = (u * d[None, :]) @ u.conj().T
    m = 0.5 * (m + m.conj().T)
    return assert_hermitian(m)


def conjugate_by_random_phases(m, rng):
    """D M D^dagger with independent uniform phases on the diagonal of D."""
    phases = np.exp(2j * np.pi * rng.random(m.shape[0]))
    return (phases[:, None] * m) * phases.conj()[None, :]


# ---------------------------------------------------------------------------
# noisy-chain evolution
# ---------------------------------------------------------------------------

@dataclass
class QssepConfig:
    """Settings of one stochastic-evolution run."""

    n_sites: int
    dt: float = 0.1
    t_end: float = 100.0
    t_stat: float | None = None
    rates: tuple = (0.0, 1.0, 1.0, 0.0)  # (alpha_1, beta_1, alpha_N, beta_N)
    seed: int = 0
    stream: int = 0
    snapshot_stride: int = 50
    integrator: str = "unitary"  # the exact bond rotation, the only stepper

    def __post_init__(self):
        if self.dt <= 0:
            raise DomainError("dt must be positive")
        if self.t_stat is not None and not self.t_stat < self.t_end:
            raise DomainError("t_stat must lie before t_end")
        if any(r < 0 for r in self.rates) or len(self.rates) != 4:
            raise DomainError("rates must be four nonnegative numbers")
        if self.snapshot_stride < 1:
            raise DomainError("snapshot_stride must be at least 1")
        if self.integrator != "unitary":
            raise DomainError(f"unknown integrator {self.integrator!r} "
                              "(the only stepper is 'unitary')")
        self.window()  # refuses a given window without a stride step

    def window(self, start=None):
        """(steps, start): the steps taken and the first one kept, by default t_stat's
        (None when unset); a SizeLimitError unless t_end / dt is at most MAX_STEPS, and
        a DomainError unless t_stat / dt is finite and a stride step falls in [start, steps)."""
        ratio, stride = self.t_end / self.dt, self.snapshot_stride
        if not ratio <= MAX_STEPS:  # also an infinite or NaN ratio
            raise SizeLimitError(f"t_end / dt = {ratio:g} steps, above the cap of {MAX_STEPS}")
        steps = int(round(ratio))
        if start is None and self.t_stat is not None:
            start = self.t_stat / self.dt
            if not np.isfinite(start):
                raise DomainError(f"t_stat / dt = {start:g} steps is not finite")
            start = int(round(start))
        if start is not None and -(-max(start, 0) // stride) * stride >= steps:
            raise DomainError(f"no snapshot in the sampling window t in [{start * self.dt:g}, "
                              f"{self.t_end:g}) at a stride of {stride} steps")
        return steps, start


@dataclass
class QssepRun:
    """Snapshots of one trajectory inside the sampling window."""

    config: QssepConfig
    times: np.ndarray
    snapshots: list
    trace_series: np.ndarray
    stationarity_index: int
    hermiticity_drift: float  # largest |M - M^H| at a stride, before re-hermitising


def _bond_rotate(m, w, buf):
    """M -> U M U^H in place, U = exp(i dh), for M in natural site order.

    Bonds (0,1), (2,3), ... and (1,2), (3,4), ... form two layers that do
    not overlap, so U = U_1 U_0, each layer a direct sum of 2x2 unitaries
    G_a = [[cos|w|, i sin|w| u], [i sin|w| conj(u), cos|w|]], u = w/|w|.
    Row 0 of U is G_0 row 0 on sites 0, 1; rows 2j+1, 2j+2 are the 2x4 block
    G_2j+1 [[G_2j row 1, 0], [0, G_2j+2 row 0]] on sites 2j..2j+3; the tail
    is the last row on two sites (even N) or the last two rows on three
    (odd N: site N-1 has no layer-0 bond).  The blocks mix rows in one
    batched matmul against a read-only window view of M (four rows at a
    stride of two), the edges by np.dot; columns then mix by conj(U) as
    rows of the transpose, U M U^H = (conj(U) (U M)^T)^T.  buf is (N, N).
    """
    n, k = m.shape[0], (m.shape[0] - 2) // 2
    aw = np.abs(w)
    r = np.sin(aw)
    np.divide(r, aw, out=r, where=aw > 0)  # sin|w| / |w|, and 0 at w = 0
    g = np.empty((n - 1, 2, 2), dtype=complex)
    g[:, 0, 0] = g[:, 1, 1] = np.cos(aw)
    np.multiply(r * w, 1j, out=g[:, 0, 1])
    np.multiply(r * w.conj(), 1j, out=g[:, 1, 0])
    blocks = np.empty((k, 2, 4), dtype=complex)
    np.multiply(g[1:2 * k:2, :, :1], g[0:2 * k:2, None, 1], out=blocks[:, :, :2])
    np.multiply(g[1:2 * k:2, :, 1:], g[2:2 * k + 1:2, None, 0], out=blocks[:, :, 2:])
    if n % 2:
        tail = np.empty((2, 3), dtype=complex)
        np.multiply(g[-1, :, :1], g[-2, 1], out=tail[:, :2])
        tail[:, 2] = g[-1, :, 1]
    else:
        tail = g[-1, 1:]
    head, (t, tc) = g[0, :1], tail.shape
    rs, cs = m.strides
    window = np.lib.stride_tricks.as_strided(m, (k, 4, n), (2 * rs, rs, cs), writeable=False)
    rows = buf[1:2 * k + 1].reshape(k, 2, n)
    for h, b, tl in ((head, blocks, tail), (head.conj(), blocks.conj(), tail.conj())):
        np.dot(h, m[:2], out=buf[:1])
        np.matmul(b, window, out=rows)
        np.dot(tl, m[n - tc:], out=buf[n - t:])
        np.copyto(m, buf.T)


def _boundary_drive(m, ends, rows, cols, rates, dt):
    """Add dt L[M] onto m in place, L[M] taken from the pre-step edges.

    Injection and extraction act on the first and last site only, stored at
    indices ends, so L[M] vanishes off those rows and columns; rows =
    M[ends] and cols = M[:, ends] are copies taken before the step.
    """
    alpha_1, beta_1, alpha_n, beta_n = rates
    g = -0.5 * dt * np.array([alpha_1 + beta_1, alpha_n + beta_n])
    m[ends] += g[:, None] * rows
    m[:, ends] += cols * g
    m[ends[0], ends[0]] += dt * alpha_1
    m[ends[1], ends[1]] += dt * alpha_n


def detect_stationarity(values, window):
    """First index where consecutive window means agree to STATIONARITY_REL_TOL."""
    values = np.asarray(values, dtype=float)
    if values.size < 2 * window:
        return None
    for k in range(0, values.size - 2 * window, max(window // 4, 1)):
        m1 = values[k:k + window].mean()
        m2 = values[k + window:k + 2 * window].mean()
        if abs(m2 - m1) <= STATIONARITY_REL_TOL * max(abs(m1), abs(m2), 1e-12):
            return k + window
    return None


def qssep_run(cfg):
    """Evolve the coherence matrix and collect stationary-window snapshots.

    Starts from the diagonal linear profile, stored in natural site order.
    Each step conjugates by the exact bond rotation (_bond_rotate, one
    batched block matmul per side), which keeps M Hermitian up to rounding,
    so M is re-hermitised only every snapshot_stride steps and the largest
    deviation found there is reported as hermiticity_drift.

    Snapshots (every snapshot_stride steps) begin at cfg.t_stat; the config
    refuses a given window that holds no stride step.  Unset, the
    trajectory is still stepped once: all stride snapshots are held, up to
    steps // snapshot_stride N x N matrices, until the trace observable's
    plateau onset is known, and those before it are dropped; the result
    equals a run with t_stat = onset * dt.  A spectral excursion beyond
    STABILITY_WINDOW aborts with a stability error suggesting a smaller dt.
    """
    n = cfg.n_sites
    if n < 3:
        raise DomainError("need at least 3 sites")
    rng = rng_for(cfg.seed, cfg.stream)
    m = np.diag(np.arange(1, n + 1) / n).astype(complex)
    ends = np.array([0, n - 1])
    buf = np.empty((n, n), dtype=complex)
    steps, stat_step = cfg.window()
    sqrt_half_dt = np.sqrt(cfg.dt / 2.0)
    kept = []  # (step, snapshot)
    drift = 0.0
    trace_series = np.empty(steps)

    for step in range(steps):
        w = sqrt_half_dt * (rng.standard_normal(n - 1)
                            + 1j * rng.standard_normal(n - 1))
        edges = m[ends], m[:, ends]
        # exact unitary conjugation; the noise then cannot move the spectrum
        _bond_rotate(m, w, buf)
        _boundary_drive(m, ends, *edges, cfg.rates, cfg.dt)
        at_stride = step % cfg.snapshot_stride == 0
        if at_stride:
            drift = max(drift, float(np.max(np.abs(m - m.conj().T))))
            m = 0.5 * (m + m.conj().T)
        trace_series[step] = np.vdot(m, m).real / n
        if at_stride:
            eig_probe = np.linalg.eigvalsh(m)
            lo, hi = STABILITY_WINDOW
            if eig_probe[0] < lo or eig_probe[-1] > hi:
                raise StabilityError(
                    f"spectrum escaped [{lo}, {hi}] at t={step * cfg.dt:.3f}; "
                    f"reduce dt (currently {cfg.dt})")
            if stat_step is None or step >= stat_step:
                kept.append((step, m.copy()))

    if stat_step is None:
        # plateau detection on the trace observable, then cut at the onset
        onset = detect_stationarity(trace_series, max(20, steps // 20))
        stat_step = steps // 2 if onset is None else onset
        kept = [(step, snap) for step, snap in kept if step >= stat_step]
        cfg.window(stat_step)

    return QssepRun(config=cfg, times=np.asarray([step * cfg.dt for step, _ in kept]),
                    snapshots=[snap for _, snap in kept], trace_series=trace_series,
                    stationarity_index=stat_step, hermiticity_drift=drift)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def subblock_indices(n_dim, interval):
    c, d = checked_interval(*interval)
    lo = max(int(np.ceil(c * n_dim)), 1)
    hi = int(np.floor(d * n_dim))
    if hi < lo:
        raise DomainError(f"interval ({c}, {d}) selects no sites at N={n_dim}")
    return lo - 1, hi  # half-open 0-based slice


def subblock_eigs(m, interval):
    """Eigenvalues of the principal block on sites ceil(cN)..floor(dN)."""
    lo, hi = subblock_indices(m.shape[0], interval)
    return np.linalg.eigvalsh(m[lo:hi, lo:hi])


def estimate_local_cumulants(samples, n, points):
    """Rescaled connected loop expectation N^{n-1} E[M_loop]^c with jackknife error.

    points are chain positions in [0, 1]; their sites must be distinct.
    Supported orders: 1 (mean), 2, 3 (joint cumulants of the loop entries).
    """
    if n not in (1, 2, 3):
        raise DomainError("loop order must be 1, 2 or 3")
    if len(points) != n:
        raise DomainError(f"need {n} points, got {len(points)}")
    n_dim = samples[0].shape[0]
    sites = [min(int(np.floor(x * n_dim)), n_dim - 1) for x in points]
    if len(set(sites)) != n:
        raise DomainError(f"points map to coincident sites {sites}")

    mats = list(samples)
    s_count = len(mats)
    if s_count < 2:
        raise DomainError("need at least 2 samples for an error estimate")

    if n == 1:
        vals = np.array([m[sites[0], sites[0]].real for m in mats])
        est = vals.mean()
        se = vals.std(ddof=1) / np.sqrt(s_count)
        return float(est), float(se)

    # joint cumulant of the loop entries from leave-one-out sample moments
    factors = []
    for k in range(n):
        factors.append(np.array([m[sites[k], sites[(k + 1) % n]] for m in mats]))

    def cumulant(mask):
        sel = [f[mask] for f in factors]
        if n == 2:
            a, b = sel
            return np.mean(a * b) - np.mean(a) * np.mean(b)
        a, b, c = sel
        return (np.mean(a * b * c)
                - np.mean(a * b) * np.mean(c)
                - np.mean(a * c) * np.mean(b)
                - np.mean(b * c) * np.mean(a)
                + 2.0 * np.mean(a) * np.mean(b) * np.mean(c))

    full = cumulant(np.ones(s_count, dtype=bool))
    loo = np.empty(s_count, dtype=complex)
    for i in range(s_count):
        mask = np.ones(s_count, dtype=bool)
        mask[i] = False
        loo[i] = cumulant(mask)
    scale = float(n_dim) ** (n - 1)
    est = scale * full.real
    se = scale * np.sqrt((s_count - 1) / s_count * np.sum(np.abs(loo - loo.mean()) ** 2))
    return float(est), float(se)


def empirical_density(eigs, bins=80):
    """Histogram density of an eigenvalue sample (raw samples retained)."""
    eigs = np.sort(np.asarray(eigs, dtype=float))
    if eigs.size == 0:
        raise DomainError("empty eigenvalue sample")
    return SpectralDensity.from_samples(eigs, bins=bins)


def ks_distance(emp, ana):
    """Sup-norm CDF distance between two spectral densities.

    Empirical inputs carrying raw samples use the exact one-sample
    statistic against the analytic CDF; otherwise both CDFs are compared
    on the merged grid.
    """
    if emp.samples is not None and ana.samples is not None:
        pts = np.union1d(emp.samples, ana.samples)
        return float(np.max(np.abs(emp.cdf(pts) - ana.cdf(pts))))
    if emp.samples is not None:
        xs = emp.samples
        n = xs.size
        cdf = ana.cdf(xs)
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        return float(np.max(np.maximum(np.abs(ecdf_hi - cdf), np.abs(cdf - ecdf_lo))))
    grid = np.union1d(emp.lam, ana.lam)
    return float(np.max(np.abs(emp.cdf(grid) - ana.cdf(grid))))
