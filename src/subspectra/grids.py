"""Functions sampled at midpoints of a uniform grid on [0, 1].

All quadrature in the package is the midpoint rule: the integral of a grid
function equals the mean of its values.  Weight profiles h, the slice
variables a_z, b_z and variance profiles all live on this grid, and each
profile carries its own: G is its size (checked by as_grid_values).
"""

import numpy as np

from .errors import DomainError


def midpoints(resolution):
    """Cell midpoints (k + 1/2)/G of the uniform G-cell grid on [0, 1]."""
    return (np.arange(resolution) + 0.5) / resolution


class GridFunction:
    """A real- or complex-valued function known at grid midpoints."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = as_grid_values(values)

    @property
    def resolution(self):
        return self.values.size

    @property
    def x(self):
        return midpoints(self.values.size)

    def integrate(self):
        """Midpoint-rule integral over [0, 1] (the mean of the values)."""
        return self.values.mean()

    @classmethod
    def from_callable(cls, fn, resolution):
        return cls(np.asarray(fn(midpoints(resolution))))

    @classmethod
    def constant(cls, value, resolution):
        return cls(np.full(resolution, value, dtype=type(value) if isinstance(value, complex) else float))

    @classmethod
    def indicator(cls, intervals, resolution):
        """Indicator of a union of intervals [(c, d), ...], sampled at midpoints."""
        x = midpoints(resolution)
        vals = np.zeros(resolution)
        for c, d in intervals:
            checked_interval(c, d)
            vals[(x > c) & (x < d)] = 1.0
        return cls(vals)

    def __call__(self, x):
        """Piecewise-constant values at points x of [0, 1]: the cell holding x."""
        G = self.values.size
        return self.values[np.clip((np.asarray(x) * G).astype(int), 0, G - 1)]

    def __len__(self):
        return self.values.size

    def __repr__(self):
        return f"GridFunction(G={self.values.size}, dtype={self.values.dtype})"


def as_grid_values(h):
    """The values of a profile: a GridFunction's, or a non-empty 1-d array of finite numbers.

    Anything else (a callable, a scalar, NaN or inf) is a DomainError.
    """
    if isinstance(h, GridFunction):
        return h.values
    values = np.asarray(h)
    if values.ndim != 1 or values.size == 0 or values.dtype.kind not in "biufc":
        raise DomainError("a grid profile is a GridFunction or a non-empty 1-d array of numbers")
    if not np.all(np.isfinite(values)):
        raise DomainError("grid profile values must be finite")
    return values


def checked_weight(h):
    """Weight profile values as floats, rejecting negative weights."""
    h_vals = as_grid_values(h)
    if np.any(h_vals < 0):
        raise DomainError("weight profile h must be nonnegative (h^(1/2) must exist)")
    return h_vals.astype(float)


def checked_size(values, resolution):
    """values, unless a resolution is given and is not their size (DomainError)."""
    if resolution is not None and values.size != resolution:
        raise DomainError(f"grid profile has G={values.size}, expected {resolution}")
    return values


def checked_interval(c, d):
    """(c, d), unless 0 <= c < d <= 1 fails (DomainError)."""
    if not 0.0 <= c < d <= 1.0:
        raise DomainError(f"interval ({c}, {d}) not inside [0, 1]")
    return c, d
