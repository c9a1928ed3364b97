"""Local cumulant kernels: the family g_n(x_1..x_n) describing an ensemble.

A kernel evaluates the order-n joint loop cumulant of matrix entries at
positions x_k in [0, 1].  Evaluation is vectorized: ``fn(n, xs)`` receives a
tuple of n broadcast-compatible arrays (or scalars) and returns the
broadcasted result.  Kernels must be invariant under cyclic rotation of
their arguments.

Optional structure flags let consumers pick fast paths:

* ``constant``     -- g_n does not depend on position (unstructured ensemble);
                      order-n value available as ``constant_value(n)``.
* ``zero_beyond``  -- g_n vanishes identically for n greater than this.
* ``max_order``    -- orders above this are not evaluable at all (None = any).
* ``r0_form/f0_form`` -- closed forms ``form(a, root)`` of the gradient of the
                      cumulant-generating functional (on a value array or a
                      (k, G) stack, unchecked; a row it cannot solve comes back
                      as NaN) and of its value, used by the fixed-point solver.
                      ``root``, a complex array of shape a.shape[:-1], carries
                      a form's one hidden unknown per profile (the exclusion
                      process's w): seeds on entry (NaN: none), the roots found
                      on return, in place, like numpy's ``out=``.  Other forms
                      ignore it.

Tensor quadrature (the solver's generic R0/F0 and the partition-sum oracle)
reads kernel values off h's own grid through ``grid_tensor``, one bounded
cache that both share: a kernel's order-n tensor on a G-cell grid is
evaluated once while it stays among the three latest, and the cache pins at
most 3 * MAX_TENSOR_ELEMS floats (48 MiB).  The oracle's tensors with a
pinned variable are built per call with ``kernel_tensor``.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedOrderError
from .grids import midpoints

# Largest kernel tensor (elements) any quadrature path may build.
MAX_TENSOR_ELEMS = 1 << 21


@dataclass(frozen=True, eq=False)
class LocalCumulantKernel:
    name: str
    fn: object = None            # callable (n, xs: tuple) -> array, or None
    max_order: int | None = None
    constant: bool = False
    zero_beyond: int | None = None
    r0_form: object = None       # callable (a, root) -> b values
    f0_form: object = None       # callable (a, root) -> F0 value(s)

    def supports(self, n):
        return self.max_order is None or n <= self.max_order

    def eval(self, n, *xs):
        """Evaluate g_n at positions xs (scalars or broadcastable arrays)."""
        if n < 1:
            raise ValueError("cumulant order must be >= 1")
        if not self.supports(n):
            raise UnsupportedOrderError(
                f"kernel '{self.name}' supports orders up to {self.max_order}, got {n}")
        if len(xs) != n:
            raise ValueError(f"expected {n} position arguments, got {len(xs)}")
        if self.zero_beyond is not None and n > self.zero_beyond:
            shape = np.broadcast(*[np.asarray(x) for x in xs]).shape
            return np.zeros(shape) if shape else 0.0
        if self.fn is None:
            raise UnsupportedOrderError(
                f"kernel '{self.name}' has no pointwise evaluation")
        return self.fn(n, xs)

    def constant_value(self, n):
        """Order-n value of a position-independent kernel."""
        if not self.constant:
            raise ValueError(f"kernel '{self.name}' is not constant")
        if not self.supports(n):
            raise UnsupportedOrderError(
                f"kernel '{self.name}' supports orders up to {self.max_order}, got {n}")
        if self.zero_beyond is not None and n > self.zero_beyond:
            return 0.0
        return float(self.fn(n, (0.5,) * n))


def kernel_tensor(kern, *coords):
    """Read-only float tensor of g_k over the outer product of k 1-D coordinate arrays."""
    k, size = len(coords), math.prod(map(len, coords))
    if size > MAX_TENSOR_ELEMS:
        raise UnsupportedOrderError(
            f"order-{k} kernel tensor would need {size} elements; "
            f"use a closed-form kernel or a coarser grid")
    axes = [np.reshape(c, (1,) * j + (-1,) + (1,) * (k - 1 - j)) for j, c in enumerate(coords)]
    tensor = np.asarray(kern.eval(k, *axes), dtype=float).view()
    tensor.flags.writeable = False  # on a view: an array the kernel returned stays writeable
    return tensor


@functools.lru_cache(maxsize=3)
def grid_tensor(kern, n, resolution):
    """Order-n kernel values on the grid, cached per (kernel, order, grid).

    The cache holds the three latest tensors: one kernel's orders 1..3 on one
    grid.  Each is at most MAX_TENSOR_ELEMS, so the cache pins at most 48 MiB,
    and the kernels it evicts can be freed.
    """
    return kernel_tensor(kern, *[midpoints(resolution)] * n)


def constant_kernel(values, name="constant", zero_beyond=None, max_order=None):
    """Kernel with g_n identically equal to values[n-1] (0 past the end)."""
    vals = tuple(float(v) for v in values)

    def fn(n, xs):
        v = vals[n - 1] if n <= len(vals) else 0.0
        shape = np.broadcast(*[np.asarray(x) for x in xs]).shape
        return np.full(shape, v) if shape else v

    if zero_beyond is None and max_order is None:
        zero_beyond = len(vals)
    return LocalCumulantKernel(name=name, fn=fn, max_order=max_order,
                               constant=True, zero_beyond=zero_beyond)
