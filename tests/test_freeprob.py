import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspectra import freeprob as fp
from subspectra.errors import DomainError, UndefinedSTransformError

from conftest import bernoulli_cumulants


def test_point_mass_cumulants():
    kap = fp.moments_to_cumulants(fp.moments([1.0] * 8))
    np.testing.assert_allclose(kap.asarray(), [1] + [0] * 7, atol=1e-13)


def test_bernoulli_half_cumulants():
    kap = fp.moments_to_cumulants(fp.moments([0.5] * 6))
    np.testing.assert_allclose(kap.asarray(),
                               [0.5, 0.25, 0.0, -1 / 16, 0.0, 1 / 32], atol=1e-14)


def test_semicircle_moments_are_catalan():
    mom = fp.cumulants_to_moments(fp.free_cumulants([0, 1, 0, 0, 0, 0]))
    np.testing.assert_allclose(mom.asarray(), [0, 1, 0, 2, 0, 5], atol=1e-13)


def test_point_mass_moments_are_powers():
    c = 1.7
    mom = fp.cumulants_to_moments(fp.free_cumulants([c, 0, 0, 0, 0]))
    np.testing.assert_allclose(mom.asarray(), c ** np.arange(1, 6), rtol=1e-13)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_roundtrip_order_ten(seed):
    rng = np.random.default_rng(seed)
    mom = fp.moments(rng.normal(size=10))
    back = fp.cumulants_to_moments(fp.moments_to_cumulants(mom))
    np.testing.assert_allclose(back.asarray(), mom.asarray(), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", [3, 4])
def test_k_of_g_is_identity_series(seed):
    # compose K(G(z)) as truncated series in 1/z and compare with z
    rng = np.random.default_rng(seed)
    kap = fp.free_cumulants(rng.normal(scale=0.4, size=8))
    mom = fp.cumulants_to_moments(kap)
    # series composition check coefficient-wise: K(G(z)) - z = O(z^-(order))
    for z in (6.0, 9.0, 13.5):
        val = fp.evaluate_k_of_g(kap, mom, z)
        assert abs(val - z) < 50.0 / z ** 7


@st.composite
def _atomic_measures(draw, lo, hi):
    """1 to 6 atoms at locations in [lo, hi] with Dirichlet weights, and a series order 1..10."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, 6))
    atoms = list(zip(rng.uniform(lo, hi, size=k), rng.dirichlet(np.ones(k))))
    return fp.Measure1D(atoms), draw(st.integers(1, 10))


def _scaled_error(back, want):
    """Largest coefficient error over the largest coefficient, or over 1 if that is less."""
    return np.max(np.abs(back - want)) / max(1.0, np.max(np.abs(want)))


@settings(max_examples=100, deadline=None)
@given(drawn=_atomic_measures(-2.0, 2.0))
def test_moment_cumulant_round_trip_on_atomic_measures(drawn):
    # 1e-12 of the largest moment; 20 000 draws measured at most 5.0e-14
    meas, order = drawn
    mom = meas.moments(order)
    back = fp.cumulants_to_moments(fp.moments_to_cumulants(mom))
    assert _scaled_error(back.asarray(), mom.asarray()) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(drawn=_atomic_measures(0.05, 2.0))
def test_cumulant_s_transform_round_trip_on_atomic_measures(drawn):
    # positive atoms keep the mean, and so S, away from its pole at a zero mean;
    # 1e-12 of the largest cumulant; 20 000 draws measured at most 9.3e-14
    meas, order = drawn
    kap = meas.free_cumulants(order)
    back = fp.s_transform_to_cumulants(fp.s_transform(kap))
    assert _scaled_error(back.asarray(), kap.asarray()) <= 1e-12


def test_s_transform_point_mass():
    s = fp.s_transform(fp.free_cumulants([2.5, 0, 0, 0]))
    np.testing.assert_allclose(s.asarray(), [0.4, 0, 0, 0], atol=1e-14)


def test_s_transform_two_atom_weight_profile():
    # measure (1-l) delta_0 + l delta_1 has S(w) = (w+1)/(w+l)
    for ell in (0.5, 0.3):
        mom = fp.moments([ell] * 6)
        s = fp.s_transform(fp.moments_to_cumulants(mom))
        w = np.poly1d(list(s.asarray()[::-1]))
        grid = np.linspace(-0.02, 0.02, 7)
        exact = (grid + 1) / (grid + ell)
        np.testing.assert_allclose(w(grid), exact, rtol=1e-6)
    s_half = fp.s_transform(fp.moments_to_cumulants(fp.moments([0.5] * 6)))
    np.testing.assert_allclose(s_half.asarray(), [2, -2, 4, -8, 16, -32], atol=1e-11)


def test_s_transform_requires_nonzero_mean():
    with pytest.raises(UndefinedSTransformError):
        fp.s_transform(fp.free_cumulants([0, 1, 0]))


def test_s_transform_inversion_roundtrip():
    kap = bernoulli_cumulants(8)
    back = fp.s_transform_to_cumulants(fp.s_transform(kap))
    np.testing.assert_allclose(back.asarray(), kap.asarray(), rtol=1e-12, atol=1e-13)


def test_additive_convolution():
    a = fp.free_cumulants([0.0, 1.0, 0.0])
    b = fp.free_cumulants([0.0, 2.25, 0.0])
    out = fp.free_additive_convolution(a, b)
    np.testing.assert_allclose(out.asarray(), [0, 3.25, 0])
    ident = fp.free_additive_convolution(a, fp.free_cumulants([0, 0, 0]))
    np.testing.assert_allclose(ident.asarray(), a.asarray())
    shifts = fp.free_additive_convolution(fp.free_cumulants([1.0, 0, 0]),
                                          fp.free_cumulants([2.0, 0, 0]))
    np.testing.assert_allclose(shifts.asarray(), [3.0, 0, 0])


def test_multiplicative_convolution_identity_and_atoms():
    kap_a = fp.free_cumulants([1.5, 0.3, 0.1, 0.0])
    s_a = fp.s_transform(kap_a)
    one = fp.s_transform(fp.free_cumulants([1.0, 0, 0, 0]))  # delta_1
    prod = fp.free_multiplicative_convolution(s_a, one)
    np.testing.assert_allclose(prod.asarray(), s_a.asarray(), atol=1e-13)
    # delta_a x delta_b = delta_ab
    da = fp.s_transform(fp.free_cumulants([2.0, 0, 0]))
    db = fp.s_transform(fp.free_cumulants([3.0, 0, 0]))
    dab = fp.free_multiplicative_convolution(da, db)
    kap = fp.s_transform_to_cumulants(dab)
    np.testing.assert_allclose(kap.asarray(), [6.0, 0, 0], atol=1e-12)


def test_multiplicative_convolution_commutes_and_associates():
    rng = np.random.default_rng(9)
    ks = [fp.s_transform(fp.free_cumulants(rng.uniform(0.5, 1.5, size=6))) for _ in range(3)]
    ab = fp.free_multiplicative_convolution(ks[0], ks[1])
    ba = fp.free_multiplicative_convolution(ks[1], ks[0])
    np.testing.assert_allclose(ab.asarray(), ba.asarray(), rtol=1e-13)
    abc1 = fp.free_multiplicative_convolution(ab, ks[2])
    abc2 = fp.free_multiplicative_convolution(ks[0],
                                              fp.free_multiplicative_convolution(ks[1], ks[2]))
    np.testing.assert_allclose(abc1.asarray(), abc2.asarray(), rtol=1e-12)


def test_free_compress():
    kap = bernoulli_cumulants(6)
    np.testing.assert_allclose(fp.free_compress(kap, 1.0).asarray(), kap.asarray())
    np.testing.assert_allclose(fp.free_compress(fp.free_cumulants([0, 1, 0]), 0.5).asarray(),
                               [0, 2, 0])
    np.testing.assert_allclose(fp.free_compress(kap, 0.5).asarray(),
                               [1.0, 0.5, 0.0, -1 / 8, 0.0, 1 / 16], atol=1e-14)
    with pytest.raises(DomainError):
        fp.free_compress(kap, 0.0)


# ---------------------------------------------------------------------------
# measures and Stieltjes inversion
# ---------------------------------------------------------------------------

def test_measure_atoms_and_quantiles():
    meas = fp.Measure1D.bernoulli(0.5)
    np.testing.assert_allclose(meas.moments(4).asarray(), [0.5] * 4)
    q = meas.quantiles(10)
    assert list(q) == [0] * 5 + [1] * 5
    with pytest.raises(DomainError):
        fp.Measure1D([(0.0, 0.6), (1.0, 0.6)])


def test_density_from_resolvent_pole():
    c, eps = 0.4, 1e-3
    dens = fp.density_from_resolvent(lambda z: 1.0 / (z - c), np.array([c]), eps=eps)
    assert abs(dens.rho[0] - 1.0 / (np.pi * eps)) < 1e-6 / eps


def test_density_from_resolvent_semicircle():
    def g(z):
        s = np.sqrt(z * z - 4.0 + 0j)
        s = np.where(s.real * z.real + s.imag * z.imag < 0, -s, s)
        return (z - s) / 2.0

    lam = np.linspace(-2.5, 2.5, 301)
    dens = fp.density_from_resolvent(g, lam, eps=1e-3)
    exact = np.where(np.abs(lam) < 2, np.sqrt(np.maximum(4 - lam ** 2, 0)) / (2 * np.pi), 0.0)
    assert np.trapezoid(np.abs(dens.rho - exact), lam) < 1e-2
    assert dens.rho.min() > -1e-8
    assert abs(dens.integral() - 1.0) < 1e-2


def test_density_from_resolvent_avoiding_origin_pole():
    lam = np.linspace(0.5, 2.0, 31)
    dens = fp.density_from_resolvent(lambda z: 1.0 / z, lam, eps=1e-3)
    assert np.max(np.abs(dens.rho)) < 1e-2


def test_density_from_resolvent_non_finite_g_is_a_gap():
    # one lambda where g is not finite is a gap there, not an ArithmeticError
    lam = np.linspace(0.5, 2.0, 7)

    def g(z):
        return np.where(z.real == lam[3], np.nan, 1.0 / (z - 1.0))

    for ladder in (None, [2e-3, 1e-3]):
        dens = fp.density_from_resolvent(g, lam, eps=1e-3, eps_ladder=ladder)
        assert dens.gaps.tolist() == [False] * 3 + [True] + [False] * 3
        assert np.isnan(dens.rho[3]) and np.all(np.isfinite(np.delete(dens.rho, 3)))


@pytest.mark.parametrize("eps,ladder", [
    (1e-3, [1e-3, 1e-3]), (1e-3, [-1e-3]), (1e-3, []), (0.0, None), (float("nan"), None),
    (1e-3, ["x"]), (1e-3, [None]),
])
def test_bad_eps_ladder_is_a_domain_error(eps, ladder):
    # Richardson extrapolation divides by the differences of the rungs
    with pytest.raises(DomainError):
        fp.density_from_resolvent(lambda z: 1.0 / z, [1.0], eps=eps, eps_ladder=ladder)


def test_richardson_ladder_improves_pole_tail():
    def g(z):
        s = np.sqrt(z * z - 4.0 + 0j)
        s = np.where(s.real * z.real + s.imag * z.imag < 0, -s, s)
        return (z - s) / 2.0

    lam = np.linspace(-2.5, 2.5, 301)
    plain = fp.density_from_resolvent(g, lam, eps=1e-3)
    ladder = fp.density_from_resolvent(g, lam, eps_ladder=[4e-3, 2e-3, 1e-3])
    exact = np.where(np.abs(lam) < 2, np.sqrt(np.maximum(4 - lam ** 2, 0)) / (2 * np.pi), 0.0)
    err_plain = np.trapezoid(np.abs(plain.rho - exact), lam)
    err_ladder = np.trapezoid(np.abs(ladder.rho - exact), lam)
    assert err_ladder < 0.5 * err_plain


def test_spectral_density_cdf_and_support():
    lam = np.linspace(0, 1, 101)
    dens = fp.SpectralDensity(lam, np.ones(101))
    np.testing.assert_allclose(dens.cdf([0.25, 0.5, 1.0]), [0.25, 0.5, 1.0], atol=1e-9)
    assert dens.detect_support() == (0.0, 1.0)
