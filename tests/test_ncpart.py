import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspectra import (
    GridFunction,
    NCPartition,
    catalan,
    constant_kernel,
    enumerate_nc,
    is_noncrossing,
    kreweras,
    marked_moment_oracle,
    moment_oracle,
)
from subspectra import cumulants_to_moments, free_cumulants, haar_kernel, wigner_kernel
from subspectra import kernels, moment_series, ncpart
from subspectra.errors import InvalidPartitionError, SizeLimitError, UnsupportedOrderError
from subspectra.grids import midpoints
from subspectra.kernels import LocalCumulantKernel, kernel_tensor
from subspectra.ncpart import _part_tree, _white_order_check

from conftest import bernoulli_cumulants, rel_close, smooth_kernel


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 14), (5, 42), (6, 132)])
def test_enumeration_counts(n, count):
    parts = enumerate_nc(n)
    assert len(parts) == count == catalan(n)
    assert len(set(parts)) == count


def test_enumeration_counts_to_ten():
    for n in range(7, 11):
        assert len(enumerate_nc(n)) == catalan(n)


def test_enumeration_all_noncrossing():
    for n in range(1, 8):
        for pi in enumerate_nc(n):
            assert is_noncrossing(pi.parts, n)


def test_enumeration_deterministic_order():
    first = [p.parts for p in enumerate_nc(5)]
    enumerate_nc.cache_clear()
    assert [p.parts for p in enumerate_nc(5)] == first


def test_enumeration_size_limit():
    with pytest.raises(SizeLimitError):
        enumerate_nc(13)
    with pytest.raises(SizeLimitError):
        enumerate_nc(0)


def test_crossing_partition_rejected():
    with pytest.raises(InvalidPartitionError):
        NCPartition(4, [[1, 3], [2, 4]])
    with pytest.raises(InvalidPartitionError):
        NCPartition(3, [[1, 2]])  # not covering


def test_kreweras_worked_example():
    pi = NCPartition(6, [[1, 3], [2], [4, 5], [6]])
    assert kreweras(pi).parts == ((1, 2), (3, 5, 6), (4,))


def test_kreweras_extremes():
    n = 5
    full = NCPartition(n, [range(1, n + 1)])
    singles = NCPartition(n, [[i] for i in range(1, n + 1)])
    assert kreweras(full).parts == tuple((i,) for i in range(1, n + 1))
    assert kreweras(singles).parts == (tuple(range(1, n + 1)),)


@pytest.mark.parametrize("n", range(1, 9))
def test_kreweras_part_count_identity(n):
    for pi in enumerate_nc(n):
        assert len(pi) + len(kreweras(pi)) == n + 1


def test_kreweras_output_noncrossing():
    for n in range(1, 8):
        for pi in enumerate_nc(n):
            assert is_noncrossing(kreweras(pi).parts, n)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kreweras_twice_rotates_by_one(data):
    n = data.draw(st.integers(1, 10))
    pi = data.draw(st.sampled_from(enumerate_nc(n)))
    rotated = NCPartition(n, [[(i - 2) % n + 1 for i in p] for p in pi.parts])
    assert kreweras(kreweras(pi)) == rotated


# ---------------------------------------------------------------------------
# moment oracle
# ---------------------------------------------------------------------------

def _reference_part_tree(pi):
    """The oracle's part tree, rebuilt from kreweras and part_of on every call."""
    pistar = kreweras(pi)
    pof, qof = pi.part_of(), pistar.part_of()
    black_whites = {b: [] for b in range(len(pi.parts))}
    white_slots = {w: [] for w in range(len(pistar.parts))}  # white -> [(elem, black)]
    for i in range(1, pi.n + 1):
        black_whites[pof[i]].append(qof[i])
        white_slots[qof[i]].append((i, pof[i]))
    slots = {w: [b for _, b in sorted(s)] for w, s in white_slots.items()}
    return pistar, pof[1], black_whites, slots


def test_cached_part_tree_leaves_oracle_bitwise_unchanged(h_profiles_64, monkeypatch):
    kernels = [wigner_kernel(1.0), haar_kernel(bernoulli_cumulants()), smooth_kernel(0)]

    def values():
        return [float(f(kern, h, n, *x)).hex()
                for kern in kernels for h in h_profiles_64.values() for n in range(1, 7)
                for f, x in ((moment_oracle, ()), (marked_moment_oracle, (0.3,)))]

    cached = values()
    monkeypatch.setattr(ncpart, "_part_tree", _reference_part_tree)
    ncpart._signature.cache_clear()  # signatures are read off the part tree
    try:
        assert cached == values()
    finally:
        ncpart._signature.cache_clear()


def _reference_partition_marked(kern, pi, h_vals, grid, memo, x=None):
    """The oracle's partition contribution, one np.tensordot per tree edge.

    Memoizes tensors per call but recomputes every message of every partition.
    """
    G = len(grid)
    root_coord, root_h = grid, h_vals
    if x is not None:
        root_coord = np.array([float(x)])
        root_h = np.array([float(np.interp(x, grid, h_vals))])
    pistar, root, black_whites, white_slots = _part_tree(pi)
    _white_order_check(kern, pistar)
    if any(kern.zero_beyond is not None and len(q) > kern.zero_beyond
           for q in pistar.parts):
        return np.zeros_like(root_coord)

    if kern.constant:
        coef = 1.0
        for q in pistar.parts:
            if ("g", len(q)) not in memo:
                memo["g", len(q)] = kern.constant_value(len(q))
            coef *= memo["g", len(q)]
            if coef == 0.0:
                return np.zeros_like(root_coord)
        for idx, p in enumerate(pi.parts):
            if idx != root:
                if ("h", len(p)) not in memo:
                    memo["h", len(p)] = float(np.mean(h_vals ** len(p)))
                coef *= memo["h", len(p)]
        return coef * root_h ** len(pi.parts[root])

    def msg_black(b, skip_white):
        vec = (root_h if b == root else h_vals) ** len(pi.parts[b])
        for w in black_whites[b]:
            if w != skip_white:
                vec = vec * msg_white(w, b)
        return vec

    def msg_white(w, parent_black):
        slot_blacks = white_slots[w]
        key = tuple(x is not None and b == root for b in slot_blacks)
        if key not in memo:
            memo[key] = kernel_tensor(kern, *(root_coord if b == root else grid
                                              for b in slot_blacks))
        tensor = memo[key]
        # contract the lowest remaining axis that is not the parent's
        keep = slot_blacks.index(parent_black)
        for ax, b in enumerate(slot_blacks):
            if ax != keep:
                tensor = np.tensordot(tensor, msg_black(b, w), axes=([int(ax > keep)], [0])) / G
        return tensor  # 1-d over the parent axis

    out = msg_black(root, None)
    del msg_black  # break the closure cycle, so the memo is freed without waiting for gc
    return out


def _reference_oracle(kern, h_vals, n, x=None):
    grid, memo = midpoints(len(h_vals)), {}
    total = 0.0
    for pi in enumerate_nc(n):
        total += float(np.mean(_reference_partition_marked(kern, pi, h_vals, grid, memo, x)))
    return total


def _random_kernel(data, cumulants):
    """A smooth order-3 kernel, or a constant kernel with cumulants drawn from cumulants."""
    if data.draw(st.booleans()):
        return smooth_kernel(data.draw(st.integers(0, 10 ** 6)))
    return constant_kernel(data.draw(cumulants))


def _random_profile(data, G, top):
    """A weight profile on G cells in [0, top], zero on some cells."""
    vals = data.draw(st.lists(st.floats(0.0, top), min_size=G, max_size=G))
    zeros = data.draw(st.lists(st.booleans(), min_size=G, max_size=G))
    return np.where(zeros, 0.0, vals)


ANY_CUMULANTS = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6)
# Variance-led cumulants, as for C01's Bernoulli kernel.  Larger or mixed-sign
# higher cumulants can make solver.estimate_radius fall well short of the
# spectral radius, and moment_series then fails on its circle of nodes.
VARIANCE_LED_CUMULANTS = st.tuples(
    st.floats(-1.0, 1.0), st.floats(0.25, 1.0),
    st.lists(st.floats(-0.1, 0.1), max_size=4)).map(lambda t: [t[0], t[1], *t[2]])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_oracle_bitwise_equals_reference(data):
    kern = _random_kernel(data, ANY_CUMULANTS)
    G = data.draw(st.integers(8, 32))
    h = _random_profile(data, G, 2.0)
    x = data.draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
    for n in range(1, 7):
        got = (moment_oracle(kern, h, n, G) if x is None
               else marked_moment_oracle(kern, h, n, x))
        assert float(got).hex() == float(_reference_oracle(kern, h, n, x)).hex(), n


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_oracle_equals_solver_moments(data):
    kern = _random_kernel(data, VARIANCE_LED_CUMULANTS)
    G = data.draw(st.integers(8, 32))
    h = _random_profile(data, G, 1.0)
    n_max = data.draw(st.integers(1, 6))
    phis = moment_series(kern, h, n_max, resolution=G).asarray()
    oracle = [moment_oracle(kern, h, n, G) for n in range(1, n_max + 1)]
    assert rel_close(phis, oracle, rel=1e-6, floor=1e-8), f"solver {phis} vs oracle {oracle}"


def test_constant_kernel_reproduces_moment_cumulant_relation():
    rng = np.random.default_rng(3)
    kap = rng.normal(scale=0.5, size=6)
    kern = constant_kernel(kap)
    h1 = GridFunction.constant(1.0, 16)
    want = cumulants_to_moments(free_cumulants(kap)).asarray()
    got = [moment_oracle(kern, h1, n, 16) for n in range(1, 7)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


def test_point_mass_and_semicircle_examples():
    h1 = GridFunction.constant(1.0, 16)
    delta = constant_kernel([1.0])
    assert all(abs(moment_oracle(delta, h1, n, 16) - 1.0) < 1e-13 for n in (1, 2, 3, 4))
    semi = constant_kernel([0.0, 1.0])
    got = [moment_oracle(semi, h1, n, 16) for n in range(1, 7)]
    np.testing.assert_allclose(got, [0, 1, 0, 2, 0, 5], atol=1e-13)


def test_wigner_fourth_moment_two_pairings():
    s = 1.3
    kern = constant_kernel([0.0, s ** 2])
    h1 = GridFunction.constant(1.0, 32)
    assert abs(moment_oracle(kern, h1, 4, 32) - 2 * s ** 4) < 1e-12


def test_qssep_first_moment_half():
    from subspectra import qssep_kernel
    h1 = GridFunction.constant(1.0, 64)
    assert abs(moment_oracle(qssep_kernel(), h1, 1, 64) - 0.5) < 1e-14


def test_two_point_expansion_matches_direct_quadrature():
    kern = smooth_kernel(1)
    G = 24
    h = GridFunction.from_callable(lambda x: 0.5 + x / 4, G)
    x = midpoints(G)
    g1 = kern.eval(1, x)
    k2 = kern.eval(2, x[:, None], x[None, :])
    direct = np.mean(g1 ** 2 * h.values ** 2) + (h.values @ k2 @ h.values) / G ** 2
    assert abs(moment_oracle(kern, h, 2, G) - direct) < 1e-13


def test_marked_oracle_pins_and_integrates():
    kern = smooth_kernel(2)
    G = 20
    h = GridFunction.from_callable(lambda x: 0.5 + x / 4, G)
    grid = midpoints(G)
    for n in range(1, 5):
        total = np.mean([marked_moment_oracle(kern, h, n, x) for x in grid])
        assert abs(total - moment_oracle(kern, h, n, G)) < 1e-12


def test_oracle_evaluates_each_tensor_once_per_call():
    base = smooth_kernel(3)
    G = 16
    grid_orders, pinned, outputs = [], [], []

    def fn(n, xs):
        out = base.fn(n, xs)
        shape = tuple(np.shape(x) for x in xs)  # a pinned root's axis has length 1
        if all(len(x_shape) == n and G in x_shape for x_shape in shape):
            grid_orders.append(n)
        else:
            pinned.append((n, np.shape(out)))
            outputs.append(weakref.ref(out))
        return out

    counted = LocalCumulantKernel(name="counted", fn=fn, zero_beyond=3)
    h = GridFunction.from_callable(lambda x: 0.5 + x / 4, G)
    want = [moment_oracle(base, h, n, G) for n in range(1, 7)]
    want_marked = marked_moment_oracle(base, h, 6, 0.3)
    kernels.grid_tensor.cache_clear()
    # the solver and the oracle share the grid tensors: one evaluation per order
    phis = moment_series(counted, h, 6, resolution=G).asarray()
    values = [moment_oracle(counted, h, n, G) for n in range(1, 7)]
    assert sorted(grid_orders) == [1, 2, 3] and not pinned
    assert values == want and rel_close(phis, values)
    gc.disable()
    try:
        marked = marked_moment_oracle(counted, h, 6, 0.3)
        # the per-call memo (messages, layouts, pinned-root tensors) is freed
        # without a gc pass: the pinned-root tensors are held by it alone
        assert pinned and all(ref() is None for ref in outputs)
    finally:
        gc.enable()
    assert sorted(grid_orders) == [1, 2, 3]
    assert len(set(pinned)) == len(pinned)  # each pinned tensor once per call
    assert marked == want_marked
    assert not kernel_tensor(base, midpoints(4), midpoints(4)).flags.writeable
    from subspectra import qssep_kernel
    grid = midpoints(4)  # the order-1 recursion hands back its coordinate array
    assert not kernel_tensor(qssep_kernel(), grid).flags.writeable and grid.flags.writeable


def test_constant_kernel_oracle_evaluates_each_order_once():
    base = constant_kernel([0.3, -0.7, 0.2, 0.5, 0.1, -0.4])
    orders = []

    def fn(n, xs):
        orders.append(n)
        return base.fn(n, xs)

    counted = LocalCumulantKernel(name="counted", fn=fn, constant=True,
                                  zero_beyond=base.zero_beyond)
    h = GridFunction.from_callable(lambda x: 0.5 + x / 4, 16)
    for n in range(1, 7):
        orders.clear()
        value = moment_oracle(counted, h, n, 16)
        assert len(orders) <= n and len(set(orders)) == len(orders)
        assert value == moment_oracle(base, h, n, 16)


def test_marked_first_order_value():
    g1x = LocalCumulantKernel(name="g1x", fn=lambda n, xs: np.broadcast_arrays(*xs)[0] * 1.0,
                              zero_beyond=1)
    h1 = GridFunction.constant(1.0, 32)
    assert abs(marked_moment_oracle(g1x, h1, 1, 0.3) - 0.3) < 1e-14
    assert abs(moment_oracle(g1x, h1, 1, 32) - 0.5) < 1e-14


def test_cyclic_relabeling_invariance():
    from subspectra import qssep_kernel
    base = qssep_kernel()

    def rotated(n, xs):
        return base.fn(n, xs[1:] + xs[:1])

    rot = LocalCumulantKernel(name="qssep-rot", fn=rotated, max_order=base.max_order)
    h = GridFunction.from_callable(lambda x: 0.5 + x / 4, 20)
    for n in (2, 3, 4):
        a = moment_oracle(base, h, n, 20)
        b = moment_oracle(rot, h, n, 20)
        assert abs(a - b) < 1e-12


def test_oracle_order_limit_and_kernel_order_error():
    kern = constant_kernel([0.5, 0.25], max_order=2, zero_beyond=None)
    h1 = GridFunction.constant(1.0, 8)
    with pytest.raises(SizeLimitError):
        moment_oracle(kern, h1, 9, 8)
    with pytest.raises(UnsupportedOrderError):
        moment_oracle(kern, h1, 3, 8)  # complement needs order 3


def test_negative_weight_rejected():
    kern = constant_kernel([0.0, 1.0])
    with pytest.raises(ValueError):
        moment_oracle(kern, np.array([-0.1] * 8), 2, 8)
