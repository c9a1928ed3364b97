import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subspectra import (
    GridFunction,
    QssepBlockSpec,
    constant_kernel,
    fixed_point_solve,
    free_cumulants,
    grand_potential,
    functional_derivative_check,
    haar_kernel,
    inhomogeneous_wigner_kernel,
    moment_oracle,
    moment_series,
    qssep_kernel,
    qssep_support,
    resolvent,
    spectral_density,
    wigner_kernel,
)
from subspectra import solver as sv
from subspectra.ensembles import _qssep_tail_integral, _qssep_w
from subspectra.errors import (
    BranchError,
    ConvergenceError,
    DomainError,
    NoSolutionError,
    SizeLimitError,
    UnsupportedOrderError,
)
from subspectra.freeprob import richardson_extrapolate
from subspectra.grids import midpoints
from subspectra.kernels import LocalCumulantKernel, grid_tensor

from conftest import bernoulli_cumulants, smooth_kernel


def test_wigner_closed_form_at_three():
    st = fixed_point_solve(wigner_kernel(1.0), GridFunction.constant(1.0, 64), 3.0)
    expect = (3 - np.sqrt(5)) / 2
    assert abs(st.a.mean() - expect) < 1e-9
    assert st.residual <= 1e-10
    g = resolvent(wigner_kernel(1.0), GridFunction.constant(1.0, 64), 3.0)
    assert abs(g - expect) < 1e-9


def test_large_z_asymptotics():
    h = GridFunction.from_callable(lambda x: 0.5 + x / 4, 64)
    for kern in (wigner_kernel(1.0), qssep_kernel(), smooth_kernel(0)):
        st = fixed_point_solve(kern, h, 1e3)
        assert np.max(np.abs(st.a - h.values / 1e3)) < 5e-6  # O(z^-2) corrections


def test_qssep_profile_closed_form_at_two():
    G = 400
    st = fixed_point_solve(qssep_kernel(), GridFunction.constant(1.0, G), 2.0)
    x = midpoints(G)
    b_exact = 2 - 2 * 0.5 ** x
    assert np.max(np.abs(st.b - b_exact)) < 1e-5  # grid-level discretization


def test_empty_block_resolvent_and_potential():
    kern = wigner_kernel(1.0)
    h0 = GridFunction.constant(0.0, 32)
    assert abs(resolvent(kern, h0, 2.5) - 0.4) < 1e-14
    assert abs(grand_potential(kern, h0, 2.5) - np.log(2.5)) < 1e-14


def test_branch_init_matches_first_order_term():
    # b at a=0 equals the first-order kernel term
    kern = smooth_kernel(4)
    b0 = sv.r0_apply(kern, np.zeros(48))
    np.testing.assert_allclose(b0, kern.eval(1, midpoints(48)), atol=1e-14)


def test_herglotz_sign():
    h = GridFunction.constant(1.0, 64)
    for kern in (wigner_kernel(1.0), qssep_kernel()):
        for z in (0.5 + 0.01j, -1.0 + 0.3j, 0.3 + 1j, 2.0 + 0.05j):
            g = resolvent(kern, h, z)
            assert g.imag * z.imag < 0


def test_moment_series_wigner_catalan():
    phis = moment_series(wigner_kernel(1.0), GridFunction.constant(1.0, 64), 6)
    np.testing.assert_allclose(phis.asarray(), [0, 1, 0, 2, 0, 5], atol=1e-7)


def test_moment_series_matches_oracle_smooth_kernel():
    kern = smooth_kernel(0)
    h = GridFunction.from_callable(lambda x: 0.5 + x / 4, 64)
    phis = moment_series(kern, h, 6).asarray()
    want = [moment_oracle(kern, h, n, 64) for n in range(1, 7)]
    np.testing.assert_allclose(phis, want, rtol=1e-7, atol=1e-10)


def test_moment_series_qssep_first():
    phis = moment_series(qssep_kernel(), GridFunction.constant(1.0, 64), 1)
    assert abs(phis[0] - 0.5) < 1e-9


def _reference_moment_series(kern, h_vals, n_max, tol=1e-13):
    """moment_series as a per-node loop: one fixed_point_solve per circle node,
    each warm-started from the node before."""
    nodes = sv.MOMENT_NODES
    big_r = sv.CIRCLE_FACTOR * max(sv.estimate_radius(kern, h_vals), 1e-6)
    u = np.exp(2j * np.pi * np.arange(nodes) / nodes) / big_r
    samples, state = [], None
    for z in 1.0 / u:
        state = fixed_point_solve(kern, h_vals, z, warm_start=state, tol=tol)
        samples.append(z * sv.resolvent_from_state(state, h_vals))
    coeffs = np.fft.fft(samples) / nodes * big_r ** np.arange(nodes)
    return coeffs[1:n_max + 1].real


@pytest.mark.parametrize("kern", [
    wigner_kernel(1.0), haar_kernel(bernoulli_cumulants()), smooth_kernel(0), qssep_kernel(),
], ids=["wigner", "haar", "smooth", "qssep"])
def test_batched_moment_series_matches_per_node_loop(kern, h_profiles_64, monkeypatch):
    handed = []
    newton = sv._newton_krylov

    def counted(apply_map, b0, z, *args, **kwargs):
        handed.append(z)
        return newton(apply_map, b0, z, *args, **kwargs)

    for name in ("full", "half", "smooth"):
        h = h_profiles_64[name]
        want = _reference_moment_series(kern, h.values, 6)
        with monkeypatch.context() as m:
            m.setattr(sv, "_newton_krylov", counted)
            got = moment_series(kern, h, 6).asarray()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9, err_msg=name)
    assert handed == []  # every circle node converged in the batched relaxation


def _right_half_plane_kernel():
    """A flat pair kernel whose R0 has no solution (NaN) where mean(a) points left."""
    def r0(a, root):
        mean = a.mean(axis=-1)
        left = mean.real < -0.1 * np.abs(mean)
        if a.ndim == 1 and left:
            raise NoSolutionError("left half-plane")
        return np.where(left[..., None], np.nan, mean[..., None] + 0 * a)

    return LocalCumulantKernel(name="right-half-plane", zero_beyond=2, r0_form=r0)


def test_moment_series_names_failed_nodes():
    """Nodes whose R0 has no solution at their first iterate fail in the batch."""
    kern = _right_half_plane_kernel()
    with pytest.raises(ConvergenceError, match=r"at 11 of 24 circle nodes, z = ") as err:
        moment_series(kern, GridFunction.constant(1.0, 16), 2, resolution=16, radius=2.0)
    named = [complex(z) for z in str(err.value).split("z = ")[1].split(", ")]
    assert len(named) == 11 and all(z.real < -1.0 for z in named)


def test_moment_series_order_limit():
    with pytest.raises(SizeLimitError):
        moment_series(wigner_kernel(1.0), GridFunction.constant(1.0, 16), 9)


def _generic_reference(tensors, a):
    """R0[a] and F0[a] of an order <= 3 kernel tensor family, by einsum."""
    G = a.size
    b = tensors[0] + np.einsum("xy,y->x", tensors[1], a) / G
    f = np.mean(tensors[0] * a) + np.einsum("xy,x,y", tensors[1], a, a) / (2 * G ** 2)
    if len(tensors) == 3:
        b = b + np.einsum("xyz,y,z->x", tensors[2], a, a) / G ** 2
        f = f + np.einsum("xyz,x,y,z", tensors[2], a, a, a) / (3 * G ** 3)
    return b, f


@settings(max_examples=60, deadline=None)
@given(G=st.integers(1, 24), top=st.sampled_from([2, 3]), complex_a=st.booleans(),
       k=st.sampled_from([None, 1, 4]), seed=st.integers(0, 2 ** 32 - 1))
def test_generic_r0_and_f0_match_einsum(G, top, complex_a, k, seed):
    # k is None for one 1-D profile, else the number of rows of a (k, G) stack
    rng = np.random.default_rng(seed)
    tensors = [rng.normal(size=(G,) * n) for n in range(1, top + 1)]

    def fn(n, xs):  # the tensor entry at the grid cells of the coordinates
        return tensors[n - 1][tuple(np.rint(np.asarray(x) * G - 0.5).astype(int) for x in xs)]

    kern = LocalCumulantKernel(name="random-tensors", fn=fn, zero_beyond=top)
    shape = (G,) if k is None else (k, G)
    a = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_a else 0.0)
    b = sv.r0_apply(kern, a)
    assert b.shape == shape and np.iscomplexobj(b) == complex_a
    for row, b_row in zip(np.atleast_2d(a), np.atleast_2d(b)):
        b_ref, f_ref = _generic_reference(tensors, row)
        # rounding scales with the sums of absolute terms, not with the results
        b_abs, f_abs = _generic_reference([np.abs(t) for t in tensors], np.abs(row))
        assert np.all(np.abs(b_row - b_ref) <= 1e-12 * b_abs)
        assert abs(sv.f0_value(kern, row) - f_ref) <= 1e-12 * f_abs


def test_kernel_tensor_cache_is_bounded():
    # distinct generic kernels fill the cache; it keeps the latest kernel's
    # tensors of every order, shares them with the oracle, and lets the
    # kernels it evicted be freed
    grid_tensor.cache_clear()
    a = np.full(16, 0.1 + 0.2j)
    refs = []
    for seed in range(5):
        kern = smooth_kernel(seed)
        sv.r0_apply(kern, a)
        refs.append(weakref.ref(kern))
    info = grid_tensor.cache_info()
    assert info.currsize == info.maxsize == 3
    sv.r0_apply(kern, a)
    moment_oracle(kern, np.ones(16), 4, 16)
    assert grid_tensor.cache_info().misses == info.misses
    del kern
    gc.collect()
    assert [r() is None for r in refs] == [True] * 4 + [False]


def test_generic_kernel_order_limit():
    def fn(n, xs):
        return np.broadcast_arrays(*xs)[0] * 0 + 0.1
    quartic = LocalCumulantKernel(name="quartic", fn=fn, zero_beyond=4)
    with pytest.raises(UnsupportedOrderError):
        sv.r0_apply(quartic, np.zeros(16))


def test_spectral_density_semicircle():
    kern = wigner_kernel(1.0)
    lam = np.linspace(-2.5, 2.5, 251)
    dens = spectral_density(kern, GridFunction.constant(1.0, 200), lam, eps=1e-3)
    exact = np.where(np.abs(lam) < 2, np.sqrt(np.maximum(4 - lam ** 2, 0)) / (2 * np.pi), 0)
    assert np.trapezoid(np.abs(dens.rho - exact), lam) < 1e-2
    assert int(dens.gaps.sum()) == 0
    assert abs(dens.integral() - 1.0) < 1e-2
    assert dens.rho.min() > -1e-8


def test_spectral_density_atom_weight_indicator():
    kern = wigner_kernel(1.0)
    h = GridFunction.indicator([(0.25, 0.75)], 200)
    lam = np.linspace(-1.8, 1.8, 121)
    dens = spectral_density(kern, h, lam, eps=2e-3)
    assert abs(dens.atom_weight - 0.5) < 1e-12
    assert abs(dens.block_fraction - 0.5) < 1e-12
    # block-normalized mass is 1
    assert abs(dens.integral() - 1.0) < 2e-2


def test_scan_direction_independence():
    kern = wigner_kernel(1.0)
    h = GridFunction.constant(1.0, 100)
    lam = np.linspace(-1.5, 1.5, 61)
    up = spectral_density(kern, h, lam, eps=1e-3, tol=1e-12)
    down = spectral_density(kern, h, lam[::-1], eps=1e-3, tol=1e-12)
    assert np.max(np.abs(up.rho - down.rho[::-1])) < 1e-8


@pytest.mark.parametrize("kern,h,lam", [
    (wigner_kernel(1.0), GridFunction.constant(1.0, 100), np.linspace(-2.2, 2.2, 150)),
    (qssep_kernel(), GridFunction.indicator([(0.4, 0.7)], 100), np.linspace(0.05, 0.98, 150)),
], ids=["wigner", "qssep"])
def test_batch_layout_does_not_change_results(kern, h, lam, monkeypatch):
    # chunk-aligned pieces scan with 4, 4 and 2 columns where the whole grid has 10
    monkeypatch.setattr(sv, "CHUNK", 32)
    whole = spectral_density(kern, h, lam, eps_ladder=[2e-3, 1e-3])
    parts = [spectral_density(kern, h, lam[s:s + 64], eps_ladder=[2e-3, 1e-3])
             for s in (0, 64, 128)]
    np.testing.assert_array_equal(whole.rho, np.concatenate([p.rho for p in parts]))
    np.testing.assert_array_equal(whole.solver["iterations"],
                                  np.concatenate([p.solver["iterations"] for p in parts]))


def _reference_scan(kern, h_vals, lam, ladder, chunk=64):
    """The per-lambda continuation loop, one fixed_point_solve at a time.

    Returns the Richardson-extrapolated density, the gap mask and the
    iterations per lambda summed over the ladder.
    """
    mask = h_vals > 0
    ell = mask.mean()
    rows, gaps, iterations = [], np.zeros(lam.size, dtype=bool), np.zeros(lam.size, dtype=int)
    for eps in ladder:
        rho = np.full(lam.size, np.nan)
        for start in range(0, lam.size, chunk):
            state = None
            for i in range(start, min(start + chunk, lam.size)):
                path = (np.geomspace(sv.ANNEAL_START, eps, sv.ANNEAL_STEPS)
                        if state is None else [eps])
                try:
                    for e in path:
                        state = fixed_point_solve(kern, h_vals, complex(lam[i], e),
                                                  warm_start=state)
                        iterations[i] += state.iterations
                except (ConvergenceError, BranchError, NoSolutionError):
                    gaps[i] = True
                    state = None
                    continue
                g_block = np.mean(mask / (state.z - h_vals * state.b)) / ell
                rho[i] = -g_block.imag / np.pi
        rows.append(rho)
    return richardson_extrapolate(ladder, rows), gaps, iterations


@pytest.mark.parametrize("kern,h,lam", [
    (qssep_kernel(), GridFunction.indicator([(0.4, 0.7)], 128), np.linspace(0.03, 0.99, 90)),
    (wigner_kernel(1.0), GridFunction.indicator([(0.25, 0.75)], 128), np.linspace(-2.5, 2.5, 90)),
], ids=["qssep", "wigner"])
def test_lockstep_scan_matches_per_lambda_loop(kern, h, lam):
    ladder = [2e-3, 1e-3]
    rho, gaps, iterations = _reference_scan(kern, h.values, lam, ladder)
    dens = spectral_density(kern, h, lam, eps_ladder=ladder)
    np.testing.assert_array_equal(dens.gaps, gaps)
    assert np.all(np.abs(dens.rho - rho) <= 1e-8)
    # each column is frozen at its first converged iterate and mixes only its
    # own history: no column needs Newton-Krylov, and the scan does no
    # more work than the per-lambda loop
    assert dens.solver["fallbacks"] == 0
    assert sum(dens.solver["iterations"]) <= 1.02 * iterations.sum()


C07_LADDER = [4e-3, 2e-3, 1e-3]


def _c07_scan(tol=1e-10):
    """The C07 subblock scan: QSSEP on [0.4, 0.7], G = 400, 300 lambda, three rungs."""
    zm, zp = qssep_support(QssepBlockSpec(0.4, 0.7))
    lam = np.linspace(max(zm - 0.05, 0.01), min(zp + 0.03, 0.99), 300)
    return spectral_density(qssep_kernel(), GridFunction.indicator([(0.4, 0.7)], 400), lam,
                            eps_ladder=C07_LADDER, tol=tol)


@pytest.fixture(scope="module")
def c07_rounds():
    """The C07 scan, with the lock-step iterations of each _solve_columns round."""
    rounds, engine = [], sv._solve_columns

    def recorded(*args):
        states, handed = engine(*args)
        rounds.append(max(s.iterations for s in states if isinstance(s, sv.FixedPointState)))
        return states, handed

    with pytest.MonkeyPatch.context() as m:
        m.setattr(sv, "_solve_columns", recorded)
        dens = _c07_scan()
    return dens, rounds


def test_predicted_scan_stays_at_tight_tolerance_density(c07_rounds):
    dens, _ = c07_rounds
    tight = _c07_scan(tol=1e-13)
    assert int(dens.gaps.sum()) == 0 and int(tight.gaps.sum()) == 0
    assert np.max(np.abs(dens.rho - tight.rho)) <= 2e-8
    assert dens.solver["predicted"] > 0


def test_predictor_cuts_lockstep_iterations(c07_rounds):
    # the plain warm start from the previous lambda took 710 lock-step
    # iterations over the scan's rounds; the quadratic predictor takes 495
    dens, rounds = c07_rounds
    assert sum(rounds) <= 560
    assert dens.solver["predicted"] + dens.solver["predictor_rejected"] \
        > 0.9 * dens.lam.size * len(C07_LADDER)


@pytest.mark.parametrize("kern,h,lam", [
    (qssep_kernel(), GridFunction.indicator([(0.4, 0.7)], 64), np.linspace(0.03, 0.99, 40)),
    (wigner_kernel(1.0), GridFunction.indicator([(0.25, 0.75)], 64), np.linspace(-2.5, 2.5, 40)),
], ids=["qssep", "wigner"])
def test_rejected_predictions_fall_back_to_plain_warm_start(kern, h, lam, monkeypatch):
    # predictions off the branch (guard) and predicted points whose solve fails
    # (retry) both restart from the previous point: the scan is then the plain
    # continuation, bit for bit
    ladder = [2e-3, 1e-3]
    monkeypatch.setattr(sv, "CHUNK", 16)
    with monkeypatch.context() as m:  # every prediction puts z - h b in the lower half-plane
        m.setattr(sv, "_extrapolate", lambda history, x: (history[-1][1] + 1e3j, history[-1][2]))
        guarded = spectral_density(kern, h, lam, eps_ladder=ladder)
    engine, plain = sv._solve_columns, {}  # id -> every state returned, kept alive

    def failing(kern, h_vals, zs, warm, tol):  # every predicted start ends unmapped
        predicted = [w is not None and id(w) not in plain for w in warm]
        states, handed = engine(kern, h_vals, zs, warm, tol)
        states = [BranchError("predicted") if p else s for p, s in zip(predicted, states)]
        plain.update((id(s), s) for s in states)
        return states, handed

    with monkeypatch.context() as m:
        m.setattr(sv, "_solve_columns", failing)
        retried = spectral_density(kern, h, lam, eps_ladder=ladder)
    for dens in (guarded, retried):
        assert dens.solver["predicted"] == 0
        assert dens.solver["predictor_rejected"] == 2 * (lam.size - 2 * 3)
    np.testing.assert_array_equal(guarded.rho, retried.rho)
    assert guarded.solver["iterations"] == retried.solver["iterations"]
    rho, gaps, _ = _reference_scan(kern, h.values, lam, ladder, chunk=16)
    assert not guarded.gaps.any() and not gaps.any()
    assert np.all(np.abs(guarded.rho - rho) <= 1e-8)


def test_scan_gap_re_anneals_its_column(monkeypatch):
    # a point whose solve fails, predicted start and plain retry alike, is the
    # only gap: the column starts its next lambda cold, annealing in from
    # Im z = ANNEAL_START, and the other points keep the unforced scan's values
    kern, h = wigner_kernel(1.0), GridFunction.indicator([(0.25, 0.75)], 64)
    lam, i = np.linspace(-1.2, 1.2, 20), 10  # one chunk and one eps: a single column
    base = spectral_density(kern, h, lam, eps=1e-3)
    engine, requests, fail = sv._solve_columns, [], complex(lam[i], 1e-3)

    def forced(kern, h_vals, zs, warm, tol):
        requests.extend(complex(z) for z in zs)
        states, handed = engine(kern, h_vals, zs, warm, tol)
        return [ConvergenceError("forced") if z == fail else s for z, s in zip(zs, states)], handed

    monkeypatch.setattr(sv, "_solve_columns", forced)
    dens = spectral_density(kern, h, lam, eps=1e-3)
    np.testing.assert_array_equal(dens.gaps, np.arange(lam.size) == i)
    assert np.isnan(dens.rho[i]) and requests.count(fail) == 2
    after = len(requests) - requests[::-1].index(fail)
    anneal = lam[i + 1] + 1j * np.geomspace(sv.ANNEAL_START, 1e-3, sv.ANNEAL_STEPS)
    assert requests[after].imag == sv.ANNEAL_START
    np.testing.assert_array_equal(requests[after:after + sv.ANNEAL_STEPS], anneal)
    np.testing.assert_array_equal(dens.rho[:i], base.rho[:i])
    assert np.all(np.abs(dens.rho[i + 1:] - base.rho[i + 1:]) <= 1e-8)


@settings(max_examples=20, deadline=None)
@given(family=st.sampled_from(["qssep", "wigner"]), G=st.integers(8, 40),
       lo=st.floats(0.05, 0.6), cut=st.floats(0.0, 0.5), size=st.integers(4, 30),
       lam_lo=st.floats(-0.5, 0.5), width=st.floats(0.2, 2.5),
       ladder=st.sampled_from([[1e-3], [2e-3, 1e-3], [4e-3, 2e-3, 1e-3]]),
       chunk=st.sampled_from([5, 16, 64]))
def test_predicted_scan_gaps_are_reference_gaps(family, G, lo, cut, size, lam_lo, width,
                                                ladder, chunk):
    # the predictor retries a failed predicted point from the plain warm start,
    # so it adds no gap to the per-lambda loop's
    kern = qssep_kernel() if family == "qssep" else wigner_kernel(1.0)
    h = GridFunction.indicator([(lo, min(lo + 0.15 + cut, 1.0))], G)  # wider than a cell
    lam = np.linspace(lam_lo, lam_lo + width, size)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sv, "CHUNK", chunk)
        dens = spectral_density(kern, h, lam, eps_ladder=ladder)
    _, gaps, _ = _reference_scan(kern, h.values, lam, ladder, chunk)
    assert not np.any(dens.gaps & ~gaps)


def _assert_stationary(kern, h_vals, state, tol=1e-10):
    """The defining equations a = h / (z - h b) and R0[a] = b, to sup-norm tol."""
    a, b = state.a, state.b
    np.testing.assert_allclose(a, h_vals / (state.z - h_vals * b), rtol=1e-12, atol=1e-14)
    b_check = sv.r0_apply(kern, a, root=np.array(state.root))
    assert state.residual <= tol and np.max(np.abs(b_check - b)) <= tol


def test_newton_krylov_finishes_stalled_columns(monkeypatch):
    # bulk points of the variance-profile scan stall the relaxation; Newton-Krylov
    # finishes them from each column's best iterate
    G = 64
    kern = inhomogeneous_wigner_kernel(GridFunction.from_callable(lambda x: np.sqrt(1 + x / 2), G))
    h, lam = GridFunction.constant(1.0, G), np.linspace(-2.6, 2.6, 41)
    solved, engine = [], sv._solve_columns

    def recorded(*args):
        states, handed = engine(*args)
        solved.extend(states)
        return states, handed

    with monkeypatch.context() as m:
        m.setattr(sv, "_solve_columns", recorded)
        dens = spectral_density(kern, h, lam, eps=1e-3)
    rho, gaps, _ = _reference_scan(kern, h.values, lam, [1e-3])
    assert dens.solver["fallbacks"] >= 1 and not dens.gaps.any() and not gaps.any()
    assert np.all(np.abs(dens.rho - rho) <= 1e-8)
    for state in solved:
        _assert_stationary(kern, h.values, state)


def test_state_root_is_w_of_its_own_profile(monkeypatch):
    # every state of a small bulk scan, those Newton-Krylov finishes included (a
    # relaxation budget of 10 hands it some), carries the w of its own a; kernels
    # without a hidden root carry NaN
    solved, engine = [], sv._solve_columns

    def recorded(*args):
        states, handed = engine(*args)
        solved.extend(states)
        return states, handed

    with monkeypatch.context() as m:
        m.setattr(sv, "_solve_columns", recorded)
        m.setattr(sv, "RELAX_BUDGET", 10)
        dens = spectral_density(qssep_kernel(), GridFunction.constant(1.0, 64),
                                np.linspace(0.37, 0.58, 12), eps=1e-3)
    assert dens.solver["fallbacks"] >= 1 and not dens.gaps.any()
    for state in solved:
        w = _qssep_w(_qssep_tail_integral(state.a), np.array(np.nan, dtype=complex))
        assert abs(state.root - w) <= 1e-11 * abs(w)
    state = fixed_point_solve(wigner_kernel(1.0), GridFunction.constant(1.0, 16), 2.0 + 0.5j)
    assert np.isnan(state.root)


def test_fixed_point_solve_failures():
    h = GridFunction.constant(1.0, 8)
    with pytest.raises(BranchError):  # the cold start b = R0[0] = 0 makes z - h b vanish
        fixed_point_solve(wigner_kernel(1.0), h, 0.0)
    with pytest.raises(NoSolutionError):  # a = h / z points left at the first iterate
        fixed_point_solve(_right_half_plane_kernel(), h, -2.0)

    def r0(a, root):  # at z = i and h = 1, R0[a(b)] - b = 1 for every b
        return 1 + 1j - 1 / np.where(a == 0, 1 / (1 + 1j), a)

    no_fixed_point = LocalCumulantKernel(name="no-fixed-point", zero_beyond=2, r0_form=r0)
    with pytest.raises(ConvergenceError) as err:
        fixed_point_solve(no_fixed_point, h, 1j)
    assert abs(err.value.residual - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(G=st.integers(1, 32), re_z=st.floats(-3.0, 3.0),
       im_z=st.floats(-2.0, 0.0).map(lambda p: 10.0 ** p), lower=st.booleans(),
       family=st.sampled_from(["wigner", "qssep", "inhomogeneous"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(G=6, re_z=-2.3755830707453147, im_z=0.01, lower=False, family="inhomogeneous",
         seed=773540173)
@example(G=23, re_z=0.8406621463348696, im_z=0.01, lower=True, family="qssep",
         seed=4177334704)
def test_resolvent_herglotz_and_residual(G, re_z, im_z, lower, family, seed):
    """A cold solve returns the physical root, stationary to tol, or raises.

    The explicit examples are cold solves that Anderson or Newton steps take
    to the root of the other branch (wrong Herglotz sign) unless the
    half-plane branch guard stops them; about 1 in 75 random draws do, and
    about 1 in 1 000 end in ConvergenceError.
    """
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.0, 1.5, size=G) * (rng.random(G) < 0.8)
    kern = {"wigner": lambda: wigner_kernel(1.0), "qssep": qssep_kernel,
            "inhomogeneous": lambda: inhomogeneous_wigner_kernel(
                GridFunction(rng.uniform(0.5, 1.5, size=G)))}[family]()
    z = complex(re_z, -im_z if lower else im_z)
    try:
        state = fixed_point_solve(kern, h, z)
    except ConvergenceError:
        return
    _assert_stationary(kern, h, state)
    g = resolvent(kern, h, z)
    assert g == sv.resolvent_from_state(state, h)
    assert g.imag * z.imag < 0


@st.composite
def _profile_stacks(draw):
    """(k, G) stacks a = h / (z - h b) of the solver's form, some rows near the real axis."""
    k, G = draw(st.integers(1, 8)), draw(st.integers(8, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z = rng.uniform(-0.5, 2.5, size=(k, 1)) + 1j * 10.0 ** rng.uniform(-6, 0.5, size=(k, 1))
    h = rng.uniform(0.0, 1.0, size=G) * (rng.random(G) < 0.8)
    return h / (z - h * rng.uniform(0.0, 1.5, size=(k, G)))


@settings(max_examples=40, deadline=None)
@given(a=_profile_stacks())
def test_stacked_r0_matches_rows(a):
    G = a.shape[1]
    kernels = [qssep_kernel(), wigner_kernel(1.3),
               haar_kernel(free_cumulants([0.5, 0.25, 0.0, -0.125])),
               inhomogeneous_wigner_kernel(GridFunction.from_callable(lambda x: 1 + x / 2, G)),
               LocalCumulantKernel(name="smooth-pair", fn=smooth_kernel(1).fn, zero_beyond=2),
               smooth_kernel(0)]
    for kern in kernels:
        stacked = sv.r0_apply(kern, a)
        rows = np.stack([sv.r0_apply(kern, row) for row in a])
        assert stacked.shape == a.shape
        np.testing.assert_array_equal(np.isnan(stacked), np.isnan(rows))
        close = np.abs(stacked - rows) <= 1e-13 * np.maximum(1.0, np.abs(rows))
        assert np.all(close | np.isnan(rows))


def test_grand_potential_derivative_is_resolvent():
    h = GridFunction.constant(1.0, 128)
    for kern, z in ((wigner_kernel(1.0), 3.0), (qssep_kernel(), 2.0 + 1.0j)):
        d = 1e-5
        dF = (grand_potential(kern, h, z + d) - grand_potential(kern, h, z - d)) / (2 * d)
        g = resolvent(kern, h, z)
        assert abs(dF - g) <= 1e-6 * abs(g)


def test_grand_potential_wigner_series():
    import math
    z = 3.0
    val = grand_potential(wigner_kernel(1.0), GridFunction.constant(1.0, 64), z).real
    cats = [math.comb(2 * n, n) // (n + 1) for n in range(1, 60)]
    series = np.log(z) - sum(z ** (-2 * n) * cats[n - 1] / (2 * n) for n in range(1, 60))
    assert abs(val - series) < 1e-8


def test_functional_derivative_examples():
    rng = np.random.default_rng(11)
    G = 128
    h1 = GridFunction.constant(1.0, G)
    hs = GridFunction.from_callable(lambda x: 0.5 + x / 4, G)
    for kern, h, z in ((wigner_kernel(1.0), h1, 3.0), (qssep_kernel(), hs, 2.0 + 1.0j)):
        for idx in rng.integers(0, G, size=3):
            lhs, rhs = functional_derivative_check(kern, h, z, int(idx))
            assert abs(lhs - rhs) <= 1e-4 * max(abs(rhs), 1e-12)


def test_functional_derivative_requires_positive_weight():
    h = GridFunction.indicator([(0.5, 1.0)], 32)
    with pytest.raises(DomainError):
        functional_derivative_check(wigner_kernel(1.0), h, 3.0, 0)


def test_weight_must_be_nonnegative():
    with pytest.raises(DomainError):
        fixed_point_solve(wigner_kernel(1.0), np.array([-1.0] * 8), 3.0)


@settings(max_examples=12, deadline=None)
@given(G=st.integers(8, 96), seed=st.integers(0, 2 ** 32 - 1))
@example(G=32, seed=0)
def test_profiles_carry_their_own_grid(G, seed):
    """A GridFunction and its values give bitwise the same results at any G, no size passed."""
    rng = np.random.default_rng(seed)
    h = GridFunction(np.where(midpoints(G) < 0.25, 0.0, rng.uniform(0.2, 1.5, size=G)))
    kern = constant_kernel([0.3, 1.0, 0.2])
    lam = np.linspace(-2.0, 3.0, 9)
    got = [(moment_series(kern, prof, 4).coeffs,
            [moment_oracle(kern, prof, n) for n in range(1, 5)],
            spectral_density(kern, prof, lam).rho) for prof in (h, h.values)]
    assert got[0][:2] == got[1][:2]
    np.testing.assert_array_equal(got[0][2], got[1][2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_are_refused(bad):
    h = np.ones(16)
    h[5] = bad
    kern = wigner_kernel(1.0)
    for call in (lambda: moment_series(kern, h, 2), lambda: moment_oracle(kern, h, 2),
                 lambda: spectral_density(kern, h, [0.0, 1.0])):
        with pytest.raises(DomainError, match="finite"):
            call()


def test_residual_tolerance_contract():
    st = fixed_point_solve(qssep_kernel(), GridFunction.constant(1.0, 128), 1.5 + 0.2j)
    a_check = 1.0 / (st.z - st.b)
    b_check = sv.r0_apply(qssep_kernel(), st.a, root=np.array(st.root))
    assert np.max(np.abs(st.a - a_check)) < 1e-12
    assert np.max(np.abs(np.asarray(b_check) - st.b)) <= 1e-10