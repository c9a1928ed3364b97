import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subspectra import (
    GridFunction,
    QssepBlockSpec,
    enumerate_nc,
    haar_kernel,
    haar_subblock_density,
    haar_subblock_moments,
    inhomogeneous_wigner_density,
    inhomogeneous_wigner_kernel,
    moment_series,
    nonfreeness_diagnostic,
    qssep_f0,
    qssep_full_density,
    qssep_kernel,
    qssep_subblock_density,
    qssep_support,
    solve_Q,
    wigner_kernel,
)
from subspectra import freeprob as fp
from subspectra import solver as sv
from subspectra.ensembles import (_qssep_head_integral, _qssep_r0, _qssep_tail_integral,
                                  _qssep_w)
from subspectra.errors import DomainError, UnsupportedOrderError
from subspectra.grids import midpoints

from conftest import bernoulli_cumulants


def test_wigner_kernel_values():
    k = wigner_kernel(1.3)
    assert k.eval(2, 0.1, 0.9) == pytest.approx(1.69)
    assert k.eval(1, 0.4) == 0.0
    assert k.eval(5, 0.1, 0.2, 0.3, 0.4, 0.5) == 0.0


def test_haar_kernel_constants_and_limit():
    kap = bernoulli_cumulants(6)
    k = haar_kernel(kap)
    assert k.eval(2, 0.2, 0.9) == pytest.approx(0.25)
    with pytest.raises(UnsupportedOrderError):
        k.eval(7, *([0.5] * 7))
    semi = haar_kernel(fp.free_cumulants([0.0, 1.0, 0.0]))
    assert semi.eval(1, 0.3) == 0.0
    assert semi.eval(2, 0.3, 0.6) == 1.0
    one = haar_kernel(fp.free_cumulants([1.0, 0.0]))
    assert one.eval(1, 0.7) == 1.0
    assert one.eval(2, 0.7, 0.2) == 0.0


# ---------------------------------------------------------------------------
# exclusion-process kernel
# ---------------------------------------------------------------------------

def test_qssep_kernel_low_orders():
    k = qssep_kernel()
    assert k.eval(1, 0.3) == pytest.approx(0.3)
    assert k.eval(2, 0.3, 0.6) == pytest.approx(0.3 - 0.18)
    assert k.eval(2, 0.6, 0.3) == pytest.approx(0.12)


def test_qssep_partition_sum_reconstructs_minimum():
    k = qssep_kernel()
    rng = np.random.default_rng(7)
    for n in range(1, 6):
        pts = rng.random(n)
        total = 0.0
        for pi in enumerate_nc(n):
            term = 1.0
            for p in pi.parts:
                term *= k.eval(len(p), *[pts[j - 1] for j in p])
            total += term
        assert abs(total - pts.min()) < 1e-12


def test_qssep_third_order_against_independent_recursion():
    # independent route: subtract hand-derived g1, g2 products over NC(3)
    k = qssep_kernel()
    x, y, z = 0.2, 0.5, 0.8
    g1 = lambda t: t
    g2 = lambda a, b: min(a, b) - a * b
    expected = (min(x, y, z)
                - g2(x, y) * g1(z) - g2(x, z) * g1(y) - g2(y, z) * g1(x)
                - g1(x) * g1(y) * g1(z))
    assert abs(k.eval(3, x, y, z) - expected) < 1e-14


def test_qssep_order_limit():
    with pytest.raises(UnsupportedOrderError):
        qssep_kernel().eval(9, *[0.5] * 9)


def test_qssep_f0_zero_profile():
    assert qssep_f0(np.zeros(32)) == 0.0


def test_qssep_f0_series_expansion():
    k = qssep_kernel()
    G = 200
    grid = midpoints(G)
    m1 = grid.mean()
    m2 = float(np.mean(k.eval(2, grid[:, None], grid[None, :])))
    m3 = float(np.mean(k.eval(3, grid[:, None, None], grid[None, :, None],
                              grid[None, None, :])))
    for v in (0.2, 0.1, 0.05):
        closed = qssep_f0(np.full(G, v)).real
        series = v * m1 + v ** 2 / 2 * m2 + v ** 3 / 3 * m3
        assert abs(closed - series) < 2.0 * v ** 4


def test_qssep_w_root_monotone_in_amplitude():
    G = 128
    roots = []
    for v in (0.05, 0.1, 0.2, 0.4):
        i_vals = _qssep_tail_integral(np.full(G, v))
        roots.append(_qssep_w(i_vals, np.array(np.nan, dtype=complex)).real)
    assert all(b > a for a, b in zip(roots, roots[1:]))


def _w_problem(seed):
    """A (k, G) stack of remaining-mass profiles I of solver-like a = h / (z - h b),
    some rows real, with per-row seeds: none (NaN), near the root, or arbitrary."""
    rng = np.random.default_rng(seed)
    k, G = rng.integers(1, 7), rng.integers(4, 49)
    z = rng.uniform(-0.5, 2.5, size=(k, 1)) + 1j * 10.0 ** rng.uniform(-6, 0.5, size=(k, 1))
    h = rng.uniform(0.0, 1.0, size=G) * (rng.random(G) < 0.8)
    i_vals = _qssep_tail_integral(h / (z - h * rng.uniform(0.0, 1.5, size=(k, G))))
    real = rng.random(k) < 0.3
    i_vals[real] = i_vals[real].real
    kind = rng.integers(0, 3, size=k)
    near = _qssep_w(i_vals, np.full(k, np.nan, dtype=complex)) * (1 + 1e-3 * rng.normal(size=k))
    seeds = np.where(kind == 0, np.nan, np.where(kind == 1, near, rng.normal(size=k) * (1 + 1j)))
    return i_vals, seeds


@settings(max_examples=60, deadline=None)
@given(problem=st.integers(0, 2 ** 32 - 1).map(_w_problem), finite=st.just(()))
@example(problem=_w_problem(11514), finite=(2,))  # row 2: an arbitrary seed
# rows whose homotopy stalled while |g| sat at its rounding floor above the tolerance
@example(problem=_w_problem(644), finite=(0,))
@example(problem=_w_problem(975), finite=(4,))
def test_qssep_w_stack_rows_are_independent(problem, finite):
    """Each row of a stack gets bitwise the root, and keeps bitwise the seed slot,
    that it gets alone; a finite root solves mean(1/(w - I)) = 1.

    The residual is measured against the scale of the terms, as the Newton
    stopping rule does, since 1/(w - I) can be large in cells near w.  The
    rows listed in finite must have a root.
    """
    i_vals, seeds = problem
    root = seeds.copy()
    w = _qssep_w(i_vals, root)
    assert np.all(np.isfinite(w[list(finite)]))
    for r, (i_row, seed) in enumerate(zip(i_vals, seeds)):
        alone = np.array(seed)
        np.testing.assert_array_equal(w[r], _qssep_w(i_row, alone))
        np.testing.assert_array_equal(root[r], alone)
        if np.isnan(w[r]):
            np.testing.assert_array_equal(root[r], seed)  # no root: the seed stays
            continue
        assert root[r] == w[r]
        inv = 1.0 / (w[r] - i_row)
        assert abs(inv.mean() - 1.0) <= 1e-12 * max(1.0, np.abs(inv).mean())


def _brentq_root(ir):
    """The root above max(I) of a real profile by brentq, bracketed by the lower
    bound max(max I + 1/G, 1 + mean I), where g >= 0, and max I + 2, where g < 0."""
    from scipy.optimize import brentq

    def g(w):
        return float(np.mean(1.0 / (w - ir))) - 1.0

    lo = max(ir.max() + 1.0 / ir.size, 1.0 + ir.mean())
    return lo if g(lo) <= 0 else brentq(g, lo, ir.max() + 2.0, xtol=1e-15, rtol=8.9e-16)


@st.composite
def _real_w_rows(draw):
    """(k, G) real remaining-mass stacks: spreads above 1, so that 1 + mean I can lie
    below max I, and lone spikes over a flat floor; G from 1 to 400."""
    k, G = draw(st.integers(1, 4)), draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for spike in rng.random(k) < 0.5:
        if spike:
            row = rng.uniform(0.0, 0.05, size=G)
            row[rng.integers(G)] += 10.0 ** rng.uniform(-1, 2)
        else:
            row = rng.uniform(0.0, 3.0) + rng.uniform(1.0, 60.0) * rng.random(G)
        rows.append(row)
    return np.array(rows, dtype=complex)


@settings(max_examples=60, deadline=None)
@given(i_vals=_real_w_rows(), seeded=st.booleans())
def test_qssep_w_real_rows_match_brentq(i_vals, seeded):
    """Real rows take Newton from the lower bound, whatever their seeds: the root
    above max I, real, within 1e-13 of brentq's."""
    k = i_vals.shape[0]
    seeds = (np.arange(k) + 1j) if seeded else np.full(k, np.nan, dtype=complex)
    w = _qssep_w(i_vals, seeds)
    for r in range(k):
        ref = _brentq_root(i_vals[r].real)
        assert w[r].imag == 0.0 and w[r].real > i_vals[r].real.max()
        assert abs(w[r].real - ref) <= 1e-13 * ref


@st.composite
def _r0_stacks(draw):
    """(k, G) stacks a = h / (z - h b) of the solver's form with per-row seeds as in
    _w_problem, some rows real.  With runs, h has zero runs of any length (up to all
    of h) at either end and zeros inside; without, h has no zero at all."""
    runs = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k, G = rng.integers(1, 7), rng.integers(2, 65)
    h = rng.uniform(0.05, 1.0, size=G)
    if runs:
        h *= rng.random(G) < 0.8
        h[:rng.integers(0, G + 1)] = 0.0
        h[G - rng.integers(0, G + 1):] = 0.0
    z = rng.uniform(-0.5, 2.5, size=(k, 1)) + 1j * 10.0 ** rng.uniform(-6, 0.5, size=(k, 1))
    a = h / (z - h * rng.uniform(0.0, 1.5, size=(k, G)))
    real = rng.random(k) < 0.3
    a[real] = a[real].real
    kind = rng.integers(0, 3, size=k)
    near = _qssep_w(_qssep_tail_integral(a), np.full(k, np.nan, dtype=complex)) \
        * (1 + 1e-3 * rng.normal(size=k))
    seeds = np.where(kind == 0, np.nan, np.where(kind == 1, near, rng.normal(size=k) * (1 + 1j)))
    return a, seeds, runs


@settings(max_examples=80, deadline=None)
@given(stack=_r0_stacks())
def test_qssep_r0_on_the_support_span_matches_the_whole_grid(stack):
    """The closed form on the span of the nonzero columns, each zero run one weighted
    column, against the cell-by-cell reference: the head integral of 1/(w - I) with w
    from _qssep_w on the whole I.  b within 1e-13 max(1, |b|) and roots within 1e-13
    (measured over 3 000 draws: 4.3e-15 and 7.6e-16); bitwise when h has no zero.  A row
    gets bitwise the b and root alone that it gets in its stack."""
    a, seeds, runs = stack
    k, G = a.shape
    root = seeds.copy()
    b = _qssep_r0(a, root)
    i_vals = _qssep_tail_integral(a)
    ref_root = seeds.copy()
    w = _qssep_w(i_vals, ref_root)
    ref = _qssep_head_integral(1.0 / (w[:, None] - i_vals), np.ones(G))
    np.testing.assert_array_equal(np.isnan(b), np.isnan(ref))
    ok = ~np.isnan(ref)
    assert np.all(np.abs(b - ref)[ok] <= 1e-13 * np.maximum(1.0, np.abs(ref[ok])))
    fin = ~np.isnan(ref_root)
    assert np.all(np.abs(root - ref_root)[fin] <= 1e-13 * np.abs(ref_root[fin]))
    np.testing.assert_array_equal(np.isnan(root), ~fin)
    if not runs:
        np.testing.assert_array_equal(b, ref)
        np.testing.assert_array_equal(root, ref_root)
    for r in range(k):
        alone = np.array(seeds[r])
        np.testing.assert_array_equal(_qssep_r0(a[r], alone), b[r])
        np.testing.assert_array_equal(alone, root[r])


def test_qssep_full_density_values():
    assert qssep_full_density(0.5) == pytest.approx(4 / np.pi ** 2)
    lam = np.linspace(1e-3, 1 - 1e-3, 999)
    np.testing.assert_allclose(qssep_full_density(lam), qssep_full_density(1 - lam),
                               rtol=1e-12)
    assert qssep_full_density(-0.2) == 0.0 and qssep_full_density(1.2) == 0.0
    # total mass via the log-odds substitution: the nu integral is Cauchy,
    # whose window mass has the arctan closed form with limit 1
    cut = 500.0
    nu = np.linspace(-cut, cut, 400001)
    mass_nu = np.trapezoid(1.0 / (np.pi ** 2 + nu ** 2), nu)
    assert abs(mass_nu - (2 / math.pi) * math.atan(cut / math.pi)) < 1e-8
    assert (2 / math.pi) * math.atan(cut / math.pi) == pytest.approx(1.0, abs=2e-2)
    # and the lambda-window mass matches the same closed form
    delta = 1e-4
    win = np.linspace(delta, 1 - delta, 200001)
    mass_win = np.trapezoid(qssep_full_density(win), win)
    edge = math.log((1 - delta) / delta)
    assert abs(mass_win - (2 / math.pi) * math.atan(edge / math.pi)) < 1e-4


# ---------------------------------------------------------------------------
# subinterval support and branch roots
# ---------------------------------------------------------------------------

def test_support_unit_interval_and_one_sided():
    assert qssep_support(QssepBlockSpec(0.0, 1.0)) == (0.0, 1.0)
    for d in (0.3, 0.7, 0.95):
        zm, zp = qssep_support(QssepBlockSpec(0.0, d))
        assert zm == 0.0
        assert zp == pytest.approx(d / (d + (1 - d) * math.exp(-1 / (1 - d))), abs=1e-15)
    for c in (0.2, 0.6):  # the mirror images of c = 0
        zm, zp = qssep_support(QssepBlockSpec(c, 1.0))
        assert zp == 1.0
        assert zm == pytest.approx(1 - qssep_support(QssepBlockSpec(0.0, 1 - c))[1], abs=1e-15)
        assert zm == pytest.approx(qssep_support(QssepBlockSpec(c, 0.999))[0], abs=1e-5)


@settings(max_examples=200, deadline=None)
@example(log_c=math.log10(4e-4), frac=0.5 / (1 - 1e-16 - 4e-4))  # exp(1250) overflowed
@example(log_c=-2.0, frac=(1 - 1e-14 - 1e-2) / (1 - 1e-16 - 1e-2))  # z_minus was -1.3e-33
@given(log_c=st.floats(-12.0, -2.0), frac=st.floats(1e-6, 1.0))
def test_support_near_the_left_end_is_finite(log_c, frac):
    # c below about ell / 709 overflowed exp(-delta), and within about 1e-7 of d = 1
    # the lower endpoint cancelled (z_minus < 0); z_plus strayed by rounding / c
    c = 10.0 ** log_c
    d = c + frac * (1.0 - 1e-16 - c)
    zm, zp = qssep_support(QssepBlockSpec(c, d))
    assert math.isfinite(zm) and math.isfinite(zp) and 0.0 <= zm < zp <= 1.0
    assert abs(zp - qssep_support(QssepBlockSpec(0.0, d))[1]) <= 4 * c


def test_support_symmetry_sweep():
    rng = np.random.default_rng(1)
    for _ in range(20):
        c = rng.uniform(0.0, 0.9)
        d = rng.uniform(c + 0.05, 1.0)
        zm, zp = qssep_support(QssepBlockSpec(c, d))
        zm_m, zp_m = qssep_support(QssepBlockSpec(1 - d, 1 - c))
        assert abs(zm_m - (1 - zp)) < 1e-12
        assert abs(zp_m - (1 - zm)) < 1e-12


def test_support_discriminant_nonnegative_sweep():
    rng = np.random.default_rng(2)
    for _ in range(200):
        c = rng.uniform(0, 0.98)
        d = rng.uniform(c + 0.01, 1.0)
        ell = d - c
        assert ell * (1 - ell) * (ell * (1 - ell) + 4 * c * (1 - d)) >= 0


def test_support_wider_than_interval():
    zm, zp = qssep_support(QssepBlockSpec(0.4, 0.7))
    assert zm < 0.4 and 0.7 < zp


def test_support_roots_satisfy_criticality_conditions():
    # both branch points must solve 1 + eta e^delta = (1-l) delta / (l + c delta)
    # together with the tangency condition eta e^delta = l(1-l)/(l+c delta)^2;
    # eta is reconstructed cancellation-free from eta = 4(1-d)^2 l(1-l)
    # e^{-delta} / kappa^2 with kappa = l(1-l) +- sqrt(disc), and the endpoint
    # 1/(1+eta) must agree with the implemented support
    rng = np.random.default_rng(3)
    for _ in range(25):
        c = rng.uniform(0.02, 0.85)
        d = rng.uniform(c + 0.05, 0.98)
        ell = d - c
        disc = ell * (1 - ell) * (ell * (1 - ell) + 4 * c * (1 - d))
        sq = math.sqrt(disc)
        for sign, z_star in zip((-1, 1), qssep_support(QssepBlockSpec(c, d))):
            delta = ((ell * (1 - ell) + sign * sq) / (2 * (1 - d)) - ell) / c
            kappa = ell * (1 - ell) + sign * sq
            eta_edelta = 4 * (1 - d) ** 2 * ell * (1 - ell) / kappa ** 2
            lhs = 1 + eta_edelta
            rhs = (1 - ell) * delta / (ell + c * delta)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))
            tangent = eta_edelta - ell * (1 - ell) / (ell + c * delta) ** 2
            assert abs(tangent) < 1e-8 * max(1.0, eta_edelta)
            eta = eta_edelta * math.exp(-delta)
            assert abs(1.0 / (1.0 + eta) - z_star) < 1e-12


def test_solve_q_unit_interval_closed_form():
    spec = QssepBlockSpec(0.0, 1.0)
    for lam in (0.1, 0.35, 0.5, 0.77, 0.9):
        root = solve_Q(spec, lam)
        assert root.theta == pytest.approx(np.pi, abs=1e-12)
        assert root.r == pytest.approx((1 - lam) / lam, rel=1e-12)
        assert root.residual <= 1e-12


def test_solve_q_residual_of_defining_equation():
    spec = QssepBlockSpec(0.4, 0.7)
    for lam in (0.3, 0.55, 0.8):
        root = solve_Q(spec, lam)
        z, ell, c = lam, spec.ell, spec.c
        q = root.r * np.exp(1j * root.theta)
        log_q = root.log_q
        res = (1 - z + z * q) * (ell - c * log_q) - z * (ell - 1) * q * log_q
        assert abs(res) <= 1e-12
        assert 0 < root.theta <= np.pi


def test_solve_q_outside_support_rejected():
    spec = QssepBlockSpec(0.4, 0.7)
    zm, zp = qssep_support(spec)
    with pytest.raises(DomainError):
        solve_Q(spec, zm - 0.01)
    with pytest.raises(DomainError):
        solve_Q(spec, zp + 0.01)


def test_subblock_density_limit_reproduces_full_interval():
    lam = np.linspace(0.02, 0.98, 97)
    dens = qssep_subblock_density(QssepBlockSpec(0.0, 1.0), lam)
    np.testing.assert_allclose(dens.rho, qssep_full_density(lam), atol=1e-10)


def test_subblock_density_symmetry():
    spec = QssepBlockSpec(0.4, 0.7)
    mirror = QssepBlockSpec(0.3, 0.6)
    zm, zp = qssep_support(spec)
    for lam in np.linspace(zm + 0.02, zp - 0.02, 25):
        r1 = solve_Q(spec, lam)
        r2 = solve_Q(mirror, 1 - lam)
        d1 = r1.theta / (r1.theta ** 2 + math.log(r1.r) ** 2) / (np.pi * lam * (1 - lam))
        d2 = r2.theta / (r2.theta ** 2 + math.log(r2.r) ** 2) / (np.pi * lam * (1 - lam))
        assert abs(d1 - d2) < 1e-10


@st.composite
def _block_specs(draw):
    """A subinterval [c, d] of the chain, its ends at 0 and 1 included.

    c stays 0 or at least 0.01: below about (d - c) / 709, qssep_support
    overflows in exp(-delta), an open defect of its own.
    """
    c = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.9)))
    d = draw(st.one_of(st.just(1.0), st.floats(c + 0.05, 0.99)))
    return QssepBlockSpec(c, d)


@settings(max_examples=60, deadline=None)
@given(spec=_block_specs(), dist=st.floats(-12.0, -2.0).map(lambda p: 10.0 ** p),
       upper=st.booleans())
def test_solve_q_converges_next_to_either_edge(spec, dist, upper):
    # the closed form is tracked up to its square-root edges, never zeroed there
    zm, zp = qssep_support(spec)
    assume(dist < 0.5 * (zp - zm))
    lam = zp - dist if upper else zm + dist
    root = solve_Q(spec, lam)
    assert root.residual <= 1e-12 and 0 < root.theta <= np.pi
    assert qssep_subblock_density(spec, [lam]).rho[0] > 0


@settings(max_examples=60, deadline=None)
@given(spec=_block_specs(), t=st.floats(0.01, 0.99))
def test_subblock_density_mirror_identity(spec, t):
    # rho_{c,d}(lam) = rho_{1-d,1-c}(1-lam): the chain read from its other end
    zm, zp = qssep_support(spec)
    lam = zm + t * (zp - zm)
    rho = qssep_subblock_density(spec, [lam]).rho[0]
    mirrored = qssep_subblock_density(QssepBlockSpec(1 - spec.d, 1 - spec.c), [1 - lam]).rho[0]
    assert abs(rho - mirrored) <= 1e-9 * rho


def test_subblock_density_mass_and_gaps():
    spec = QssepBlockSpec(0.4, 0.7)
    lam = np.linspace(0.02, 0.99, 486)
    dens = qssep_subblock_density(spec, lam)
    assert int(dens.gaps.sum()) == 0
    assert abs(np.trapezoid(dens.rho, lam) - 1.0) < 1e-2
    assert dens.atom_weight == pytest.approx(0.7)
    with pytest.raises(DomainError):
        qssep_subblock_density(spec, np.array([-0.1, 0.5]))


# soft edges: both support endpoints away from 0 and 1 (c = 0 or d = 1 make that edge
# a log-singular one, which these tests leave out)
SOFT_EDGES = [((0.4, 0.7), "both"), ((0.1, 0.3), "both"), ((0.25, 0.75), "both"),
              ((0.0, 0.5), "upper"), ((0.2, 1.0), "lower")]


@pytest.mark.parametrize("cd,sides", SOFT_EDGES)
def test_subblock_density_has_square_root_edges(cd, sides):
    """rho / sqrt(distance to the edge) tends to a finite positive constant C, taken at
    1e-7, for distances 1e-4 to 1e-10.  Tolerance 1e3 delta + 1e-2 on |ratio / C - 1|,
    from measurement: the first-order term is at most 6.5e2 delta ((0.2, 1) lower edge),
    and solve_Q's residual tolerance puts a floor of 5.5e-3 under it at 1e-10."""
    spec = QssepBlockSpec(*cd)
    zm, zp = qssep_support(spec)
    deltas = 10.0 ** -np.arange(4, 11)
    rho = qssep_subblock_density(spec, np.concatenate([zm + deltas, zp - deltas])).rho
    for side, ratio in (("lower", rho[:7] / np.sqrt(deltas)), ("upper", rho[7:] / np.sqrt(deltas))):
        if sides in ("both", side):
            assert np.all(np.isfinite(ratio)) and np.all(ratio > 0)
            assert np.all(np.abs(ratio / ratio[3] - 1.0) <= 1e3 * deltas + 1e-2)


@pytest.mark.parametrize("cd", [cd for cd, sides in SOFT_EDGES if sides == "both"])
def test_subblock_density_mass_tends_to_one(cd):
    """The trapezoid mass of rho_block on 200, 400 and 800 points from z_- to z_+ falls
    short of 1 by less each time, by a factor of at least 2.4 per halving (2^1.5 for
    square-root edges; measured 2.5 to 2.8), and by less than 2e-3 at 800 points
    (measured 1.8e-4 to 1.9e-3)."""
    spec = QssepBlockSpec(*cd)
    zm, zp = qssep_support(spec)
    defect = []
    for n in (200, 400, 800):
        lam = np.linspace(zm, zp, n)
        dens = qssep_subblock_density(spec, lam)
        assert not dens.gaps.any()
        defect.append(1.0 - np.trapezoid(dens.rho, lam))
    assert defect[0] > 2.4 * defect[1] > 5.76 * defect[2] > 0
    assert defect[2] < 2e-3


# ---------------------------------------------------------------------------
# inhomogeneous variance
# ---------------------------------------------------------------------------

def test_inhomogeneous_constant_reduces_to_semicircle():
    prof = GridFunction.constant(1.0, 64)
    lam = np.linspace(-2, 2, 11)
    want = np.sqrt(np.maximum(4 - lam ** 2, 0)) / (2 * np.pi)
    np.testing.assert_allclose(inhomogeneous_wigner_density(prof, lam), want, atol=1e-13)


def test_inhomogeneous_vanishes_beyond_support():
    prof = GridFunction.from_callable(lambda x: np.sqrt(1 + x / 2), 128)
    assert inhomogeneous_wigner_density(prof, 2.0 * np.sqrt(1.5) + 1e-6) == 0.0


def test_inhomogeneous_kernel_matches_formula():
    prof = GridFunction.from_callable(lambda x: np.sqrt(1 + x / 2), 300)
    kern = inhomogeneous_wigner_kernel(prof)
    lam = np.linspace(-2.6, 2.6, 261)
    dens = sv.spectral_density(kern, GridFunction.constant(1.0, 300), lam, eps=1e-3)
    want = inhomogeneous_wigner_density(prof, lam)
    assert np.trapezoid(np.abs(dens.rho - want), lam) < 2e-2


# ---------------------------------------------------------------------------
# rotated-matrix pipelines
# ---------------------------------------------------------------------------

def test_haar_subblock_moments_arcsine():
    kap = bernoulli_cumulants(12)
    m = haar_subblock_moments(kap, 0.5, 8).asarray()
    arcsine = [math.comb(2 * n, n) / 4 ** n for n in range(1, 9)]
    np.testing.assert_allclose(m, arcsine, rtol=1e-13)


def test_haar_subblock_full_fraction_returns_source_moments():
    kap = bernoulli_cumulants(8)
    m = haar_subblock_moments(kap, 1.0, 6).asarray()
    np.testing.assert_allclose(m, [0.5] * 6, atol=1e-12)


def test_haar_subblock_moments_match_solver():
    kap = bernoulli_cumulants(12)
    for ell, G in ((0.5, 64), (1.0, 64)):
        kern = haar_kernel(kap)
        h = GridFunction.indicator([(0.0, ell)], G) if ell < 1 \
            else GridFunction.constant(1.0, G)
        phis = moment_series(kern, h, 8, resolution=G).asarray()
        want = ell * haar_subblock_moments(kap, ell, 8).asarray()
        np.testing.assert_allclose(phis, want, atol=1e-3, rtol=1e-6)


def test_haar_point_mass_moments_match_solver():
    kap = fp.moments_to_cumulants(fp.moments([1.0] * 10))
    for ell in (0.5, 0.25):
        phis = moment_series(haar_kernel(kap),
                             GridFunction.indicator([(0.0, ell)], 64), 6).asarray()
        want = ell * haar_subblock_moments(kap, ell, 6).asarray()
        np.testing.assert_allclose(phis, want, atol=1e-3)


def test_haar_density_moments_coarse():
    # truncation-limited density: only coarse normalization-level agreement
    kap = bernoulli_cumulants(12)
    lam = np.linspace(0.005, 0.995, 199)
    dens = haar_subblock_density(kap, 0.5, lam)
    assert dens.rho.min() >= 0
    assert 0.5 < np.trapezoid(dens.rho, lam) < 1.1


def test_haar_point_without_root_is_a_gap(monkeypatch):
    # a point where the polynomial has no lower-half-plane root is a gap, not a 0
    kap, ell, eps = bernoulli_cumulants(12), 0.5, 1e-3
    lam = np.linspace(0.1, 0.9, 9)
    roots, shift = np.roots, fp.free_compress(kap, ell)[0]  # poly[-2] = zeta - kappa_1 / ell

    def upper_roots_at_lam6(poly):
        r = roots(poly)
        if abs(poly[-2] + shift - complex(lam[6], eps) / ell) < 1e-12:
            return r.real + 1j * np.abs(r.imag)
        return r

    monkeypatch.setattr(np, "roots", upper_roots_at_lam6)
    dens = haar_subblock_density(kap, ell, lam, eps=eps)
    assert dens.gaps.tolist() == [i == 6 for i in range(9)]
    assert np.isnan(dens.rho[6]) and np.all(np.isfinite(np.delete(dens.rho, 6)))


# ---------------------------------------------------------------------------
# compatibility diagnostic
# ---------------------------------------------------------------------------

def test_diagnostic_constant_kernel_matches_weight_series():
    from subspectra import constant_kernel
    kern = constant_kernel([0.7, 0.3], name="const")
    h = GridFunction.from_callable(lambda x: 0.5 + x / 4, 64)
    ratio, s_h = nonfreeness_diagnostic(kern, h, order=2)
    np.testing.assert_allclose(ratio.asarray(), s_h.asarray(), atol=1e-10)
    hv = h.values
    s1 = -(np.mean(hv ** 2) - np.mean(hv) ** 2) / np.mean(hv) ** 3
    assert ratio.coeffs[1] == pytest.approx(s1, abs=1e-12)


def test_diagnostic_qssep_half_interval_breaks_freeness():
    ratio, s_h = nonfreeness_diagnostic(qssep_kernel(),
                                        GridFunction.indicator([(0, 0.5)], 64), order=2)
    assert ratio.coeffs[0] == pytest.approx(4.0, abs=1e-12)
    assert s_h.coeffs[0] == pytest.approx(2.0, abs=1e-12)


def test_diagnostic_degenerate_weight():
    kern = wigner_kernel(1.0)  # g_1 = 0 everywhere
    with pytest.raises(DomainError):
        nonfreeness_diagnostic(kern, GridFunction.constant(1.0, 32))


def test_profile_resolution_rule():
    # a profile carries its own grid: a GridFunction or an array keeps its own size,
    # and a callable or a scalar is refused
    from subspectra import constant_kernel
    s = GridFunction.from_callable(lambda x: np.sqrt(1 + x / 2), 24)
    np.testing.assert_array_equal(inhomogeneous_wigner_kernel(s.values).r0_form(np.ones(24), None),
                                  s.values ** 2)
    assert inhomogeneous_wigner_density(np.ones(8), 0.0) == pytest.approx(1 / np.pi)
    assert qssep_f0(np.zeros(8)) == 0.0
    for call in (lambda: inhomogeneous_wigner_kernel(lambda x: 1 + x),
                 lambda: inhomogeneous_wigner_density(1.0, 0.0),
                 lambda: qssep_f0(0.1),
                 lambda: nonfreeness_diagnostic(qssep_kernel(), lambda x: 1 + x)):
        with pytest.raises(DomainError, match="GridFunction or a non-empty 1-d array"):
            call()
    with pytest.raises(DomainError, match="nonnegative"):
        nonfreeness_diagnostic(constant_kernel([0.7, 0.3]), np.linspace(-0.5, 1.0, 16))
