"""Closed-form kernels and spectra for the worked ensembles.

Position-free ensembles (flat-variance pair kernel, unitarily rotated
matrices) have constant cumulant kernels; the exclusion-process steady
state has the structured kernel fixed by

    sum over non-crossing partitions of g_pi(x) = min(x),

whose generating functional admits the implicit closed form used by the
solver.  The slice spectra of proper subintervals follow a transcendental
one-complex-parameter equation solved here by Newton continuation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RootTrackingError, UnsupportedOrderError
from . import freeprob
from .freeprob import FormalSeries, SpectralDensity
from .grids import as_grid_values, checked_interval, checked_weight, midpoints
from .kernels import LocalCumulantKernel, constant_kernel
from .ncpart import enumerate_nc

QSSEP_KERNEL_MAX_N = 8  # highest order of the kernel's partition recursion
Q_TOL, Q_MAX_ITER = 1e-12, 80  # solve_Q: Newton converges at |residual| <= Q_TOL; steps per seed


# ---------------------------------------------------------------------------
# flat and variance-profile pair kernels
# ---------------------------------------------------------------------------

def wigner_kernel(s):
    """Pair-only kernel: g_2 = s^2, all other orders vanish."""
    if not s > 0:
        raise DomainError(f"scale s must be positive, got {s}")
    return constant_kernel([0.0, float(s) ** 2], name=f"wigner(s={s})")


def inhomogeneous_wigner_kernel(s_profile):
    """Diagonal-covariance pair kernel with variance profile s(x)^2.

    The pair cumulant is concentrated on coinciding positions, so the
    functional gradient acts cellwise: b(x) = s(x)^2 a(x).  There is no
    pointwise kernel evaluation (the profile is a distribution in x - y);
    only the solver closed forms are provided.  s_profile is a grid profile
    (as_grid_values), and the solver's grid must be its own.
    """
    s_vals = as_grid_values(s_profile)
    if np.any(s_vals <= 0):
        raise DomainError("variance profile s(x) must be positive")
    s2 = np.asarray(s_vals, dtype=float) ** 2

    def r0(a, root):
        if a.shape[-1] != s2.size:
            raise ValueError(f"profile grid {s2.size} != solver grid {a.shape[-1]}")
        return s2 * a

    def f0(a, root):
        return np.mean(s2 * a * a) / 2.0

    return LocalCumulantKernel(name="inhomogeneous-wigner", fn=None,
                               zero_beyond=2, r0_form=r0, f0_form=f0)


def inhomogeneous_wigner_density(s_profile, lam):
    """Density of the variance-profile ensemble on the full interval.

    Superposition of local semicircles:
    rho(lam) = (1/2pi) integral dx sqrt(max(4 s(x)^2 - lam^2, 0)) / s(x)^2,
    with the profile read as in inhomogeneous_wigner_kernel.
    """
    s2 = np.asarray(as_grid_values(s_profile), dtype=float) ** 2
    lam = np.asarray(lam, dtype=float)
    rad = np.maximum(4.0 * s2[None, :] - lam[..., None] ** 2, 0.0)
    out = np.mean(np.sqrt(rad) / s2[None, :], axis=-1) / (2.0 * np.pi)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# unitarily rotated matrices: constant kernels and free compression
# ---------------------------------------------------------------------------

def haar_kernel(kappa):
    """Constant kernel equal to the free cumulants of the rotated spectrum."""
    if kappa.kind != freeprob.FREE_CUMULANTS:
        raise ValueError("haar_kernel needs a free-cumulant series")
    return constant_kernel(kappa.coeffs, name="haar", max_order=kappa.order,
                           zero_beyond=None)


def haar_subblock_moments(kappa, ell, n_max):
    """Slice moments of a rotated matrix via free compression.

    Compress the cumulants by 1/ell, convert to moments, then rescale the
    eigenvalue by ell; the trace moments over the full matrix acquire one
    extra factor of ell from the block fraction.
    """
    if not 0 < ell <= 1:
        raise DomainError(f"block fraction must be in (0, 1], got {ell}")
    if n_max > kappa.order:
        raise UnsupportedOrderError(
            f"need cumulants to order {n_max}, series has {kappa.order}")
    comp = freeprob.free_compress(kappa, ell)
    m_comp = freeprob.cumulants_to_moments(comp).asarray()[:n_max]
    m_block = np.array([ell ** n * m_comp[n - 1] for n in range(1, n_max + 1)])
    return FormalSeries(freeprob.MOMENTS, m_block)


def haar_subblock_density(kappa, ell, lam_grid, eps=1e-3):
    """Slice density of a rotated matrix from the compressed-cumulant resolvent.

    The truncated cumulant series turns the resolvent relation into a
    polynomial equation per grid point; the root on the half-plane branch is
    tracked by continuation along each row of z = lam + i eps, and the
    block resolvent at z is that root at z / ell, divided by ell.  A point
    without such a root is a gap.  Quality is limited by the series
    truncation; moment-level comparisons should use haar_subblock_moments.
    """
    if not 0 < ell <= 1:
        raise DomainError(f"block fraction must be in (0, 1], got {ell}")
    comp = freeprob.free_compress(kappa, ell).asarray()
    K = comp.size

    def pick_root(zeta, target):
        # zeta*A = 1 + sum_k comp_k A^k
        poly = np.zeros(K + 1, dtype=complex)  # np.roots order: highest first
        poly[-1] = -1.0
        poly[-2] = zeta - comp[0]
        for k in range(2, K + 1):
            poly[K - k] = -comp[k - 1]
        roots = np.roots(poly)
        cand = roots[roots.imag < 0.0]
        if cand.size == 0:
            return None
        return cand[np.argmin(np.abs(cand - target))]

    def block_resolvent(z):
        g = np.full(z.shape, np.nan, dtype=complex)
        for row, z_row in zip(g, z):
            prev = None
            for i in np.argsort(np.abs(z_row.real - np.median(z_row.real))):
                u = z_row[i] / ell
                if prev is None:
                    # ride the asymptotic branch down from far off the axis
                    A = 1.0 / complex(u.real, 2.0)
                    for im in np.geomspace(2.0, u.imag, 8):
                        A = pick_root(complex(u.real, im), A)
                        if A is None:
                            break
                else:
                    A = pick_root(u, prev)
                if A is not None:
                    prev = row[i] = A
        return g / ell

    dens = freeprob.density_from_resolvent(block_resolvent, lam_grid, eps)
    dens.atom_weight, dens.block_fraction = 1.0 - ell, ell
    dens.support = dens.detect_support()
    return dens


# ---------------------------------------------------------------------------
# exclusion-process steady state
# ---------------------------------------------------------------------------

def _qssep_eval(n, xs):
    """Recursive kernel values: g_n = min - sum of proper partition products."""
    arrays = [np.asarray(x, dtype=float) for x in xs]
    cache = {}

    def rec(idx):
        if idx in cache:
            return cache[idx]
        if len(idx) == 1:
            val = arrays[idx[0]]
        else:
            val = np.minimum.reduce(np.broadcast_arrays(*[arrays[i] for i in idx]))
            val = np.array(val, copy=True)
            for pi in enumerate_nc(len(idx)):
                if len(pi.parts) == 1:
                    continue
                term = 1.0
                for p in pi.parts:
                    term = term * rec(tuple(idx[j - 1] for j in p))
                val -= term
        cache[idx] = val
        return val

    out = rec(tuple(range(n)))
    return out if np.ndim(out) else float(out)


def _qssep_w(i_vals, root):
    """The roots of _qssep_roots alone, for a remaining-mass profile given cell by cell."""
    return _qssep_roots(np.asarray(i_vals), np.ones(np.shape(i_vals)[-1]), root)[0]


def _qssep_roots(prof, weight, root, tol=1e-13):
    """Root w of mean(1/(w - I)) = 1 for each remaining-mass profile I of a (..., m) stack.

    Column j of I stands for weight[j] cells; the mean is over their sum G.
    root, of shape prof.shape[:-1], holds the seeds on entry (NaN: none)
    and the roots found on return, in place.  Returns (w, 1/(w - I)) as the
    last Newton sweep left them.  One masked sweep runs the complex rows
    from their seeds, one more the rest: complex rows from 1 + mean(I), real
    rows (on Re I) from max(max I + 1/G, 1 + mean I), a lower bound of the
    root above max I (the nearest cell alone gives 1/G, and Jensen the other
    term), from which Newton rises monotonically on the convex, decreasing
    branch.  Rows still unsettled track the root along the homotopy t I,
    t: 0 -> 1.  A row with no admissible root comes back as NaN, with a NaN
    inverse, and keeps its seed.
    """
    shape, m = prof.shape[:-1], prof.shape[-1]
    prof, seed = prof.reshape(-1, m), root.reshape(-1)
    cplx = ~(np.max(np.abs(prof.imag), axis=-1) < 1e-14)
    if not cplx.all():
        prof = np.where(cplx[:, None], prof, prof.real)
    w, settled, inv = _w_newton(seed, prof, weight, tol, cplx & ~np.isnan(seed))
    if not settled.all():
        G, re = weight.sum(), prof.real
        lower = np.maximum(re.max(axis=-1) + 1.0 / G, 1.0 + (re * weight).sum(axis=-1) / G)
        start = np.where(cplx, 1.0 + (prof * weight).sum(axis=-1) / G, lower)
        w, now, inv = _w_newton(np.where(settled, w, start), prof, weight, tol, ~settled)
        for r in np.flatnonzero(~(settled | now)):
            w[r], inv[r] = _w_homotopy(prof[r], weight, tol)
    root[...] = np.where(np.isnan(w), seed, w).reshape(root.shape)
    return w.reshape(shape), inv.reshape(shape + (m,))


def _w_homotopy(prof, weight, tol):
    """The outer root tracked from w = 1 along t I, t: 0 -> 1, and its 1/(w - I); NaN if the steps stall."""
    w, t, dt = 1.0 + 0.0j, 0.0, 0.25
    while t < 1.0:
        t_next = min(1.0, t + dt)
        w_next, ok, inv = _w_newton(np.array([w]), (t_next * prof)[None], weight, tol,
                                    np.array([True]), iters=50)
        if not ok[0]:
            dt *= 0.5
            if dt < 1e-5:
                return np.nan, np.nan
            continue
        w, t = w_next[0], t_next
        dt = min(0.5, dt * 1.6)
    return w, inv[0]


def _scalar_abs(x):
    """|x| rounded as Python's abs; numpy's complex abs loop can differ by an ulp,
    which a long Newton path amplifies into another root."""
    return np.hypot(x.real, x.imag)


def _w_newton(w, prof, weight, tol, go, iters=60):
    """Damped Newton on mean(1/(w - I)) = 1 (weights as in _qssep_roots), one masked sweep
    over the (k, m) stack I from the seeds w; rows outside go keep theirs.

    Returns (w, settled mask, 1/(w - I)).  A row settles when |g| <= tol *
    max(1, mean|1/(w - I)|), or when its step is below 4 ulps of |w| (far
    from the profile scale the first test asks for less than the rounding
    floor of g).  It stops unsettled when some |1/(w - I)| exceeds 1e13 or its
    derivative degenerates.  Steps are capped at half of 1 + |w| and halved
    while some |1/(w - I)| reaches 1e12; the last trial's inverse serves the next sweep.
    """
    G = weight.sum()
    w = w.astype(complex)
    go = go.copy()
    settled = np.zeros(w.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows outside go keep their w
        inv = 1.0 / (w[:, None] - prof)
        big = np.abs(inv)
        peak = big.max(axis=-1)
        for _ in range(iters):
            winv = inv * weight
            g = winv.sum(axis=-1) / G - 1.0
            step = g / -((winv * inv).sum(axis=-1) / G)
            size, aw = _scalar_abs(step), _scalar_abs(w)
            free = peak <= 1e13
            done = free & ((_scalar_abs(g) <= tol * np.maximum(1.0, (big * weight).sum(axis=-1) / G))
                           | (size <= 8.9e-16 * aw))
            settled |= go & done
            go &= free & ~done & np.isfinite(step)  # a zero or non-finite derivative stops
            if not go.any():
                break
            step = np.where(go, step * np.minimum(1.0, 0.5 * (1.0 + aw) / size), 0.0)
            for _ in range(61):
                trial = w - step
                inv = 1.0 / (trial[:, None] - prof)
                big = np.abs(inv)
                peak = big.max(axis=-1)
                near = go & (peak >= 1e12)
                if not near.any():
                    break
                step = np.where(near, 0.5 * step, step)
            w = trial
    return w, settled, inv


def _qssep_tail_integral(a, G=None):
    """I(x_k) = integral of a over (x_k, 1], consistent with the midpoint rule on G
    cells (default: a's columns).  Acts along the last axis, one profile per row."""
    out = 0.5 * a
    out[..., :-1] += np.cumsum(a[..., ::-1], axis=-1)[..., -2::-1]
    out /= a.shape[-1] if G is None else G
    return out


def _qssep_head_integral(f, weight):
    """integral of f over [0, x_k), consistent with the midpoint rule (last axis), one entry
    per cell: the first and last columns stand for weight[0] and weight[-1] equal cells, the
    k-th of which adds (k + 1/2) f / G to the total before it; the others for one cell."""
    total = np.cumsum(f * weight, axis=-1)
    cells = 0.5 * f
    cells[..., 1:] += total[..., :-1]
    lead = np.arange(1.5, weight[0]) * f[..., :1]
    trail = total[..., -2:-1] + np.arange(1.5, weight[-1]) * f[..., -1:]
    # numpy divides a complex by a real G as a product with 1/G: same values, 4x the time
    return np.concatenate((cells[..., :1], lead, cells[..., 1:], trail), axis=-1) * (1.0 / weight.sum())


def _qssep_span(a):
    """Remaining mass I of a stack a on the span of its nonzero columns, and column weights.

    I is constant where a is 0: the integral of a (bitwise its value cell by
    cell) over the leading zero run, 0 over the trailing one.  Each run keeps
    one column, weighted by its length; without zero runs all weights are 1.
    """
    G = a.shape[-1]
    nz = np.flatnonzero(a.reshape(-1, G).any(axis=0))
    lo, hi = (max(nz[0] - 1, 0), min(nz[-1] + 2, G)) if nz.size else (0, min(2, G))
    weight = np.ones(hi - lo)
    weight[0] += lo
    weight[-1] += G - hi
    return _qssep_tail_integral(a[..., lo:hi], G), weight


def _qssep_r0(a, root):
    """R0[a] = head integral of 1/(w - I), worked out on the span of a's nonzero columns."""
    prof, weight = _qssep_span(np.asarray(a))
    return _qssep_head_integral(_qssep_roots(prof, weight, root)[1], weight)


def _qssep_f0(a, root):
    """F0[a] = w - 1 - mean log(w - I), on the same span as _qssep_r0."""
    prof, weight = _qssep_span(np.asarray(a))
    w = _qssep_roots(prof, weight, root)[0]
    return w - 1.0 - (np.log(w[..., None] - prof) * weight).sum(axis=-1) / weight.sum()


def qssep_kernel():
    """Steady-state kernel of the boundary-driven exclusion process.

    Pointwise values come from the partition recursion, which eval caps at
    QSSEP_KERNEL_MAX_N; the solver uses the implicit closed-form functional.
    """
    return LocalCumulantKernel(name="qssep", fn=_qssep_eval, max_order=QSSEP_KERNEL_MAX_N,
                               r0_form=_qssep_r0, f0_form=_qssep_f0)


def qssep_f0(a):
    """Closed-form generating functional for a grid profile a (checked by as_grid_values)."""
    return complex(_qssep_f0(as_grid_values(a), np.array(np.nan, dtype=complex)))


def qssep_full_density(lam):
    """Full-interval eigenvalue density: a Cauchy law in log(lam/(1-lam))."""
    lam = np.asarray(lam, dtype=float)
    inside = (lam > 0.0) & (lam < 1.0)
    out = np.zeros_like(lam)
    lo = lam[inside]
    out[inside] = 1.0 / (lo * (1.0 - lo) * (np.pi ** 2 + np.log((1.0 - lo) / lo) ** 2))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# subinterval spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QssepBlockSpec:
    """Subinterval [c, d] of the chain, 0 <= c < d <= 1."""

    c: float
    d: float

    def __post_init__(self):
        checked_interval(self.c, self.d)

    @property
    def ell(self):
        return self.d - self.c


@dataclass
class QRoot:
    """Branch point Q = r e^{i theta} of the slice spectrum at one lam."""

    lam: float
    r: float
    theta: float
    residual: float

    @property
    def log_q(self):
        return complex(math.log(self.r), self.theta)


def qssep_support(spec):
    """Support endpoints (z_minus, z_plus) of the subinterval spectrum.

    Closed form from the criticality of the transcendental branch equation,
    written without cancellation: with q = ell (1 - ell), sq = sqrt(q (q +
    4 c (1 - d))) and s = c (1 - c) + d (1 - d) + sq, the lower root's
    numerator (s - 2 sq) equals 4 c^2 (1 - d)^2 / s.  z_minus = 0 at c = 0
    and z_plus = 1 at d = 1; there the other endpoint is the one-sided form.
    """
    c, d, ell = spec.c, spec.d, spec.ell
    q = ell * (1.0 - ell)
    sq = math.sqrt(q * (q + 4.0 * c * (1.0 - d)))
    s = c * (1.0 - c) + d * (1.0 - d) + sq
    z_minus, z_plus = 0.0, 1.0  # their limits at c = 0 and d = 1
    if c > 0.0:
        weight = 2.0 * c * c * math.exp(-ell / c - 2.0 * q / (q + sq))
        z_minus = weight / (weight + s)
    if d < 1.0:
        weight = 2.0 * (1.0 - d) ** 2 * math.exp(-ell / (1.0 - d) - 2.0 * q / (q + sq))
        z_plus = s / (s + weight)
    return z_minus, z_plus


def _q_equation(log_q, z, c, d):
    """Residual and derivative of the branch equation in L = log Q."""
    ell = d - c
    e = np.exp(log_q)
    val = (1.0 - z + z * e) * (ell - c * log_q) - z * (ell - 1.0) * e * log_q
    der = (z * e) * (ell - c * log_q) - c * (1.0 - z + z * e) \
        - z * (ell - 1.0) * e * (log_q + 1.0)
    return val, der


def solve_Q(spec, lam, warm_start=None):
    """Track the branch parameter Q = r e^{i theta} at one lam in the support.

    Complex Newton on L = log Q with the analytic derivative; seeds fall
    back from the warm start to the full-interval closed form with a range
    of damped angles.  The retained root has theta in (0, pi].
    """
    c, d = spec.c, spec.d
    z_minus, z_plus = qssep_support(spec)
    if not z_minus < lam < z_plus:
        raise DomainError(f"lam={lam} outside the open support ({z_minus}, {z_plus})")
    seeds = []
    if warm_start is not None:
        seeds.append(complex(math.log(warm_start.r), warm_start.theta))
    base = math.log((1.0 - lam) / lam)
    seeds += [complex(base, math.pi * t) for t in (1.0, 0.75, 0.5, 0.25, 0.05)]
    for seed in seeds:
        log_q = seed
        converged = False
        for _ in range(Q_MAX_ITER):
            val, der = _q_equation(log_q, lam, c, d)
            if abs(val) <= Q_TOL:
                converged = True
                break
            if der == 0:
                break
            step = val / der
            if abs(step) > 5.0:
                step *= 5.0 / abs(step)
            log_q = log_q - step
        if not converged:
            continue
        theta = log_q.imag
        if theta < 0:
            log_q = log_q.conjugate()
            theta = -theta
        if 0.0 < theta <= math.pi + 1e-12:
            val, _ = _q_equation(log_q, lam, c, d)
            return QRoot(lam=float(lam), r=float(math.exp(log_q.real)),
                         theta=float(min(theta, math.pi)), residual=abs(val))
    raise RootTrackingError(f"no admissible branch root at lam={lam}, spec={spec}")


def qssep_subblock_density(spec, lam_grid):
    """Spectral density of the subinterval slice on a real grid.

    dsigma = theta / (theta^2 + log(r)^2) / (pi lam (1 - lam)) inside the
    closed-form support, tracked by Newton continuation from the support
    midpoint outward.  Isolated tracking failures are NaN gaps, flagged in gaps.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    if np.any((lam_grid <= 0.0) | (lam_grid >= 1.0)):
        raise DomainError("grid must lie strictly inside (0, 1)")
    z_minus, z_plus = qssep_support(spec)
    rho = np.zeros(lam_grid.size)
    gaps = np.zeros(lam_grid.size, dtype=bool)
    idx = np.nonzero((lam_grid > z_minus) & (lam_grid < z_plus))[0]
    if idx.size:
        mid = 0.5 * (z_minus + z_plus)
        start = idx[np.argmin(np.abs(lam_grid[idx] - mid))]
        for chain in (idx[idx >= start], idx[idx <= start][::-1]):
            root = None
            for i in chain:
                try:
                    root = solve_Q(spec, lam_grid[i], warm_start=root)
                except (RootTrackingError, DomainError):
                    gaps[i] = True
                    rho[i] = np.nan
                    root = None
                    continue
                lam = lam_grid[i]
                rho[i] = root.theta / (root.theta ** 2 + math.log(root.r) ** 2) \
                    / (np.pi * lam * (1.0 - lam))
    dens = SpectralDensity(lam_grid, rho, atom_weight=1.0 - spec.ell,
                           block_fraction=spec.ell, gaps=gaps)
    dens.support = (z_minus, z_plus)
    return dens


# ---------------------------------------------------------------------------
# compatibility with free multiplicative convolution
# ---------------------------------------------------------------------------

def nonfreeness_diagnostic(kern, h, order=2):
    """Leading ratio series of the slice equation versus the weight S-series.

    Expands the implicit relation between the probed spectral parameters of
    the weighted and unweighted ensembles to first order in w and compares
    it with the S-transform of the weight profile's value distribution.
    Equality of the two series is the signature of compatibility with free
    multiplicative convolution; position-dependent kernels generically
    break it already at order zero.  h is a weight profile (checked_weight).
    """
    if order not in (1, 2):
        raise DomainError(f"order must be 1 or 2, got {order}")
    h_vals = checked_weight(h)
    G = h_vals.size
    x = midpoints(G)
    g1 = np.asarray(kern.eval(1, x), dtype=float)
    hg1 = float(np.mean(h_vals * g1))
    if abs(hg1) < 1e-14:
        raise DomainError("degenerate weight: [h g_1] vanishes")

    ones = np.ones(G)
    k2 = np.asarray(kern.eval(2, x[:, None], x[None, :]), dtype=float)

    def bracket_terms(weight):
        b1 = g1
        b2 = k2 @ weight / G
        p1 = float(np.mean(weight * b1))
        p2 = float(np.mean((weight * b1) ** 2)) + float(np.mean(weight * b2))
        return p1, p2

    p1_h, p2_h = bracket_terms(h_vals)
    p1_0, p2_0 = bracket_terms(ones)
    r0 = p1_0 / p1_h
    r1 = -r0 * (p2_h / p1_h ** 2 - p2_0 / p1_0 ** 2)
    ratio = FormalSeries(freeprob.S_COEFFS, [r0, r1][:order])

    nu_moments = freeprob.FormalSeries(
        freeprob.MOMENTS, [float(np.mean(h_vals ** n)) for n in range(1, 4)])
    s_h = freeprob.s_transform(freeprob.moments_to_cumulants(nu_moments))
    s_h = FormalSeries(freeprob.S_COEFFS, s_h.coeffs[:order])
    return ratio, s_h
