import numpy as np
import pytest

from subspectra import GridFunction, constant_kernel
from subspectra.errors import UnsupportedOrderError
from subspectra.grids import checked_size, midpoints


def test_midpoint_integration_is_mean():
    g = GridFunction.from_callable(lambda x: x ** 2, 200)
    assert g.integrate() == pytest.approx(g.values.mean())
    assert g.integrate() == pytest.approx(1 / 3, abs=1e-5)


def test_indicator_block_fraction_exact():
    h = GridFunction.indicator([(0.0, 0.5)], 64)
    assert h.integrate() == 0.5
    h2 = GridFunction.indicator([(0.4, 0.7)], 400)
    assert h2.integrate() == pytest.approx(0.3, abs=1e-12)
    h3 = GridFunction.indicator([(0.0, 0.25), (0.75, 1.0)], 64)
    assert h3.integrate() == 0.5


def test_grid_function_resamples_piecewise_constant():
    g = GridFunction(np.array([3.0, 5.0, 7.0, 11.0]))
    np.testing.assert_array_equal(g(g.x), g.values)
    np.testing.assert_array_equal(g([-0.1, 0.0, 0.2499, 0.25, 0.99, 1.0, 1.2]),
                                  [3.0, 3.0, 3.0, 5.0, 11.0, 11.0, 11.0])
    fine = midpoints(10)  # the cell holding each fine midpoint
    np.testing.assert_array_equal(g(fine), g.values[np.floor(fine * 4).astype(int)])


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction([np.nan, 1.0])
    with pytest.raises(ValueError):
        GridFunction.indicator([(0.5, 0.2)], 16)
    with pytest.raises(ValueError):
        checked_size(GridFunction.constant(1.0, 8).values, 16)


def test_midpoints_layout():
    x = midpoints(4)
    np.testing.assert_allclose(x, [0.125, 0.375, 0.625, 0.875])


def test_constant_kernel_flags():
    k = constant_kernel([0.5, 0.25])
    assert k.constant
    assert k.eval(1, 0.3) == 0.5
    assert k.eval(3, 0.1, 0.2, 0.3) == 0.0  # beyond the list: zero
    assert k.constant_value(2) == 0.25
    bounded = constant_kernel([0.5], max_order=1, zero_beyond=None)
    with pytest.raises(UnsupportedOrderError):
        bounded.eval(2, 0.1, 0.2)


def test_kernel_argument_count_checked():
    k = constant_kernel([1.0])
    with pytest.raises(ValueError):
        k.eval(2, 0.5)
