"""Scalar free-probability layer: truncated series, transforms, measures.

Series are plain coefficient arrays.  Moments and free cumulants are indexed
from order 1; S-transform coefficients start at the constant term.  All
conversions are exact truncated polynomial algebra, built on the relations

    M(z) = 1 + C(z M(z)),      C(z) = kappa_1 z + kappa_2 z^2 + ...,
    C(w S(w)) = w,

with M the moment generating series.  K(G(z)) = z holds as a consequence and
is exercised by the tests.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UndefinedSTransformError

ATOM_WEIGHT_TOL = 1e-10  # how far the atom weights of a measure may sum from 1
SUPPORT_THRESHOLD_FRAC = 0.01  # detected support: rho above this fraction of its peak

MOMENTS = "moments"
FREE_CUMULANTS = "free_cumulants"
S_COEFFS = "S_coeffs"


@dataclass(frozen=True)
class FormalSeries:
    """Truncated series: moments m_1.., cumulants k_1.., or S coefficients s_0..

    Coefficients beyond the truncation order are unknown, not zero.
    """

    kind: str
    coeffs: tuple

    def __post_init__(self):
        if self.kind not in (MOMENTS, FREE_CUMULANTS, S_COEFFS):
            raise ValueError(f"unknown series kind {self.kind!r}")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("series needs at least one coefficient")

    @property
    def order(self):
        return len(self.coeffs)

    def asarray(self):
        return np.asarray(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i]


def moments(coeffs):
    return FormalSeries(MOMENTS, coeffs)


def free_cumulants(coeffs):
    return FormalSeries(FREE_CUMULANTS, coeffs)


def _require(series, kind):
    if series.kind != kind:
        raise ValueError(f"expected a {kind} series, got {series.kind}")


def _mul_trunc(a, b, order):
    """Product of two polynomials (coeff index = power), truncated at degree order."""
    out = np.convolve(a, b)[: order + 1]
    if out.size < order + 1:
        out = np.pad(out, (0, order + 1 - out.size))
    return out


def cumulants_to_moments(kappa):
    """Moments from free cumulants via M(z) = 1 + C(z M(z))."""
    _require(kappa, FREE_CUMULANTS)
    K = kappa.order
    k = kappa.asarray()
    m = np.zeros(K + 1)  # m[0] = 1
    m[0] = 1.0
    for n in range(1, K + 1):
        # [z^n] C(z M(z)) depends only on m_1..m_{n-1}
        zM = np.concatenate(([0.0], m[: n]))        # z M(z) to degree n
        pw = zM.copy()
        total = 0.0
        for p in range(1, n + 1):
            if p > 1:
                pw = _mul_trunc(pw, zM, n)
            if p <= K:
                total += k[p - 1] * pw[n]
        m[n] = total
    return FormalSeries(MOMENTS, m[1:])


def moments_to_cumulants(m):
    """Free cumulants from moments; inverse of cumulants_to_moments."""
    _require(m, MOMENTS)
    K = m.order
    mm = np.concatenate(([1.0], m.asarray()))
    kappa = np.zeros(K)
    zM = np.concatenate(([0.0], mm[:K]))  # z M(z) up to degree K
    powers = [None, zM]
    for p in range(2, K + 1):
        powers.append(_mul_trunc(powers[-1], zM, K))
    for n in range(1, K + 1):
        acc = mm[n]
        for p in range(1, n):
            acc -= kappa[p - 1] * powers[p][n]
        kappa[n - 1] = acc / powers[n][n]  # leading coefficient is 1
    return FormalSeries(FREE_CUMULANTS, kappa)


def s_transform(kappa):
    """S-transform series from free cumulants, solving C(w S(w)) = w.

    Returns the coefficients of S(w) = s_0 + s_1 w + ... with order terms;
    defined only when the first cumulant is nonzero.
    """
    _require(kappa, FREE_CUMULANTS)
    k = kappa.asarray()
    if k[0] == 0.0:
        raise UndefinedSTransformError(
            "S-transform undefined for vanishing first cumulant "
            "(centered, semicircle-type series)")
    K = kappa.order
    # u(w) = w S(w) = u_1 w + ...: solve C(u(w)) = w order by order
    u = np.zeros(K + 1)
    u[1] = 1.0 / k[0]
    for n in range(2, K + 1):
        # [w^n] sum_p kappa_p u(w)^p = 0; the kappa_1 u_n term is unknown
        acc = 0.0
        pw = np.concatenate((u[:n], [0.0]))  # u with u_n..=0, degree n
        pw_p = pw.copy()
        for p in range(2, n + 1):
            pw_p = _mul_trunc(pw_p, pw, n)
            if p <= K:
                acc += k[p - 1] * pw_p[n]
        u[n] = -acc / k[0]
    return FormalSeries(S_COEFFS, u[1:])


def s_transform_to_cumulants(s):
    """Invert s_transform: recover free cumulants from S coefficients.

    With u(w) = w S(w), the cumulant series C is the compositional inverse
    of u, recovered order by order from C(u(w)) = w.
    """
    _require(s, S_COEFFS)
    sc = s.asarray()
    if sc[0] == 0.0:
        raise UndefinedSTransformError("S series with zero constant term")
    K = s.order
    u = np.concatenate(([0.0], sc))  # u(w) = w S(w), degree K
    kappa = np.zeros(K)
    kappa[0] = 1.0 / sc[0]
    powers = [None, u]
    for p in range(2, K + 1):
        powers.append(_mul_trunc(powers[-1], u, K))
    for n in range(2, K + 1):
        # [w^n] C(u(w)) = 0 for n >= 2
        acc = 0.0
        for p in range(1, n):
            acc += kappa[p - 1] * powers[p][n]
        kappa[n - 1] = -acc / powers[n][n]
    return FormalSeries(FREE_CUMULANTS, kappa)


def free_additive_convolution(kappa_a, kappa_b):
    """Free cumulants add; mismatched orders truncate to the shorter."""
    _require(kappa_a, FREE_CUMULANTS)
    _require(kappa_b, FREE_CUMULANTS)
    n = min(kappa_a.order, kappa_b.order)
    return FormalSeries(FREE_CUMULANTS,
                        kappa_a.asarray()[:n] + kappa_b.asarray()[:n])


def free_multiplicative_convolution(s_a, s_b):
    """S-transforms multiply (truncated series product)."""
    _require(s_a, S_COEFFS)
    _require(s_b, S_COEFFS)
    n = min(s_a.order, s_b.order)
    prod = _mul_trunc(s_a.asarray()[:n], s_b.asarray()[:n], n - 1)
    return FormalSeries(S_COEFFS, prod[:n])


def free_compress(kappa, t):
    """Scale every free cumulant by 1/t (slice fraction t in (0, 1])."""
    _require(kappa, FREE_CUMULANTS)
    if not t > 0:
        raise DomainError(f"compression fraction must be positive, got {t}")
    return FormalSeries(FREE_CUMULANTS, kappa.asarray() / t)


def evaluate_k_of_g(kappa, m, z):
    """Evaluate K(G(z)) from truncated series, for round-trip checks."""
    g = 1.0 / z
    mom = m.asarray()
    for n, mn in enumerate(mom, start=1):
        g += mn / z ** (n + 1)
    k = kappa.asarray()
    out = 1.0 / g
    for n, kn in enumerate(k, start=1):
        out += kn * g ** (n - 1)
    return out


# ---------------------------------------------------------------------------
# one-dimensional measures
# ---------------------------------------------------------------------------

class Measure1D:
    """A discrete probability measure: (location, weight) atoms, all finite."""

    def __init__(self, atoms):
        atoms = [(float(a), float(w)) for a, w in atoms]
        if not np.all(np.isfinite(atoms)):
            raise DomainError("atom locations and weights must be finite")
        if any(w < 0 for _, w in atoms):
            raise DomainError("atom weights must be nonnegative")
        if abs(sum(w for _, w in atoms) - 1.0) > ATOM_WEIGHT_TOL:
            raise DomainError("atom weights must sum to 1")
        self.atoms = sorted(atoms)

    @classmethod
    def bernoulli(cls, p=0.5, hi=1.0, lo=0.0):
        return cls([(lo, 1.0 - p), (hi, p)])

    def moments(self, n_max):
        return FormalSeries(MOMENTS, [sum(w * a ** n for a, w in self.atoms)
                                      for n in range(1, n_max + 1)])

    def free_cumulants(self, n_max):
        return moments_to_cumulants(self.moments(n_max))

    def quantiles(self, k):
        """k deterministic quantile draws (midpoint quantiles)."""
        q = (np.arange(k) + 0.5) / k
        locs = np.array([a for a, _ in self.atoms])
        cum = np.cumsum([w for _, w in self.atoms])
        return locs[np.searchsorted(cum, q, side="left")]


# ---------------------------------------------------------------------------
# spectral densities and Stieltjes inversion
# ---------------------------------------------------------------------------

class SpectralDensity:
    """Sampled eigenvalue density with an optional atom at zero.

    ``rho`` is the density of the slice spectrum alone (block-normalized);
    the total-spectrum continuous part is ``block_fraction * rho`` and the
    atom at zero carries weight ``atom_weight = 1 - block_fraction``.
    A solver scan attaches its counts as ``solver`` (see
    solver.spectral_density); it is None for every other density.
    """

    def __init__(self, lam, rho, atom_weight=0.0, block_fraction=1.0,
                 support=None, samples=None, gaps=None):
        self.lam = np.asarray(lam, dtype=float)
        self.rho = np.asarray(rho, dtype=float)
        if self.lam.shape != self.rho.shape:
            raise ValueError("grid and density shapes differ")
        self.atom_weight = float(atom_weight)
        self.block_fraction = float(block_fraction)
        self.support = support
        self.samples = None if samples is None else np.sort(np.asarray(samples))
        self.gaps = None if gaps is None else np.asarray(gaps, dtype=bool)
        self.solver = None

    def rho_total(self):
        """Continuous part of the total-spectrum density."""
        return self.block_fraction * self.rho

    def integral(self):
        return float(np.trapezoid(self.rho, self.lam))

    def cdf(self, at):
        """CDF of the block-normalized spectrum at the given points."""
        at = np.atleast_1d(np.asarray(at, dtype=float))
        if self.samples is not None:
            return np.searchsorted(self.samples, at, side="right") / self.samples.size
        cum = np.concatenate(([0.0],
                              np.cumsum(0.5 * (self.rho[1:] + self.rho[:-1]) * np.diff(self.lam))))
        total = cum[-1]
        if total <= 0:
            return np.zeros_like(at)
        return np.interp(at, self.lam, cum / total)

    def detect_support(self):
        """Smallest interval of grid points where rho exceeds SUPPORT_THRESHOLD_FRAC of its peak."""
        peak = np.nanmax(self.rho)
        if not np.isfinite(peak) or peak <= 0:
            return None
        mask = self.rho > SUPPORT_THRESHOLD_FRAC * peak
        if not mask.any():
            return None
        idx = np.nonzero(mask)[0]
        return (float(self.lam[idx[0]]), float(self.lam[idx[-1]]))

    @classmethod
    def from_samples(cls, samples, bins=80):
        samples = np.asarray(samples, dtype=float)
        hist, edges = np.histogram(samples, bins=bins, density=True)
        mid = 0.5 * (edges[1:] + edges[:-1])
        return cls(mid, hist, support=(float(samples.min()), float(samples.max())),
                   samples=samples)

    @classmethod
    def from_callable(cls, fn, lam):
        lam = np.asarray(lam, dtype=float)
        return cls(lam, np.asarray(fn(lam), dtype=float))


def richardson_extrapolate(eps_values, samples):
    """Extrapolate samples f(eps_k) to eps = 0 by Neville's polynomial scheme.

    Successive pairwise linear (Richardson) steps across the ladder; with a
    k-point ladder the result is the degree k-1 polynomial value at 0 (a
    one-point ladder returns its sample).
    """
    eps = np.asarray(eps_values, dtype=float)
    table = [np.asarray(s) for s in samples]
    if len(eps) != len(table):
        raise ValueError("ladder and samples lengths differ")
    n = len(eps)
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            e0, e1 = eps[i], eps[i + level]
            nxt.append((e0 * table[i + 1] - e1 * table[i]) / (e0 - e1))
        table = nxt
    return table[0]


def checked_ladder(eps, eps_ladder):
    """The Stieltjes offsets of a density: [eps], or the eps ladder when given.

    Entries must be finite, positive and distinct (Richardson extrapolation
    divides by their differences); DomainError otherwise.
    """
    try:
        ladder = [float(eps)] if eps_ladder is None else [float(e) for e in eps_ladder]
    except (TypeError, ValueError):
        raise DomainError(f"eps ladder entries must be numbers, got {eps_ladder}") from None
    if not ladder or not all(0 < e < np.inf for e in ladder) or len(set(ladder)) < len(ladder):
        raise DomainError(f"eps ladder entries must be positive and distinct, got {ladder}")
    return ladder


def density_from_resolvent(g_eval, lam_grid, eps=1e-3, eps_ladder=None):
    """Stieltjes inversion: rho(lam) = -Im g(lam + i eps) / pi on a grid.

    g_eval maps a (rungs, L) array of z = lam + i eps, one row per rung of
    the eps ladder ([eps] without one), to the resolvent values there.  With
    a ladder the Poisson smoothing bias is removed by Richardson
    extrapolation toward eps = 0.  A lam where some g is not finite is a
    gap: rho is NaN there and flagged in gaps.
    """
    ladder = checked_ladder(eps, eps_ladder)
    lam_grid = np.asarray(lam_grid, dtype=float)
    g = np.asarray(g_eval(lam_grid + 1j * np.array(ladder)[:, None]))
    gaps = ~np.all(np.isfinite(g), axis=0)
    rho = richardson_extrapolate(ladder, -g.imag / np.pi)
    rho[gaps] = np.nan
    return SpectralDensity(lam_grid, rho, gaps=gaps)
