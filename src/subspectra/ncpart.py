"""Non-crossing partitions, Kreweras complements, and the moment oracle.

The oracle computes trace moments of the weighted matrix slice directly as a
sum over non-crossing partitions, with one quadrature variable per part and
the complementary partition supplying the cumulant factors.  It is the
brute-force cross-check for the fixed-point solver.
"""

import collections
import functools
import itertools
import math

import numpy as np

from .errors import InvalidPartitionError, SizeLimitError, UnsupportedOrderError
from .grids import checked_size, checked_weight, midpoints
from .kernels import grid_tensor, kernel_tensor

ENUM_MAX_N = 12
ORACLE_MAX_N = 8


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def is_noncrossing(parts, n):
    """True if the parts form a non-crossing partition of {1..n}."""
    part_of = {}
    for idx, p in enumerate(parts):
        for i in p:
            if i in part_of:
                return False
            part_of[i] = idx
    if sorted(part_of) != list(range(1, n + 1)):
        return False
    for a, b, c, d in itertools.combinations(range(1, n + 1), 4):
        if part_of[a] == part_of[c] != part_of[b] == part_of[d]:
            return False
    return True


class NCPartition:
    """A non-crossing set partition of {1..n}, parts sorted by minimum."""

    __slots__ = ("n", "parts")

    def __init__(self, n, parts, _trusted=False):
        parts = tuple(sorted((tuple(sorted(p)) for p in parts), key=lambda p: p[0]))
        if not _trusted and not is_noncrossing(parts, n):
            raise InvalidPartitionError(f"not a non-crossing partition of {{1..{n}}}: {parts}")
        self.n = n
        self.parts = parts

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        return isinstance(other, NCPartition) and (self.n, self.parts) == (other.n, other.parts)

    def __hash__(self):
        return hash((self.n, self.parts))

    def __repr__(self):
        return f"NCPartition({self.n}, {list(map(list, self.parts))})"

    def part_of(self):
        """Map element -> index of its part."""
        lookup = {}
        for idx, p in enumerate(self.parts):
            for i in p:
                lookup[i] = idx
        return lookup


def _nc_parts(elems):
    """Yield non-crossing partitions of the sorted tuple elems.

    The part of the smallest element is chosen first; the gaps between its
    consecutive members are partitioned independently (any crossing would
    have to straddle the chosen part).
    """
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    m = len(rest)
    for k in range(m + 1):
        for picks in itertools.combinations(range(m), k):
            block = (first,) + tuple(rest[i] for i in picks)
            bounds = list(picks) + [m]
            gaps = []
            lo = 0
            for hi in bounds:
                gaps.append(rest[lo:hi])
                lo = hi + 1
            for sub in itertools.product(*[tuple(_nc_parts(g)) for g in gaps]):
                out = (block,)
                for s in sub:
                    out = out + s
                yield out


@functools.lru_cache(maxsize=None)
def enumerate_nc(n):
    """All non-crossing partitions of {1..n}, in a fixed deterministic order."""
    if not 1 <= n <= ENUM_MAX_N:
        raise SizeLimitError(f"n must be in 1..{ENUM_MAX_N}, got {n}")
    out = tuple(NCPartition(n, parts, _trusted=True)
                for parts in _nc_parts(tuple(range(1, n + 1))))
    assert len(out) == catalan(n)
    return out


def kreweras(pi):
    """Kreweras complement of a non-crossing partition, relabelled to {1..n}.

    Writing the parts of pi as increasing cycles gives a permutation p; the
    complement is the cycle decomposition of p^{-1} composed with the full
    cycle (1 2 .. n).  It satisfies len(pi) + len(kreweras(pi)) == n + 1.
    """
    n = pi.n
    perm = {}
    for p in pi.parts:
        for i, j in zip(p, p[1:] + p[:1]):
            perm[i] = j
    inv = {v: k for k, v in perm.items()}
    q = {i: inv[i % n + 1] for i in range(1, n + 1)}
    seen = set()
    parts = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        nxt = q[start]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = q[nxt]
        parts.append(cycle)
    return NCPartition(n, parts, _trusted=True)


@functools.lru_cache(maxsize=None)
def _part_tree(pi):
    """The bipartite part tree of pi that the oracle passes messages over.

    Returns (pistar, root, black_whites, white_slots): the Kreweras
    complement; the index of the part of pi containing 1; for each part of pi
    (black) the complement parts (white) it meets, one per element in
    increasing order; for each white part the black part at each of its
    elements, in increasing element order, which is its tensor's slot order.
    The oracle only asks for partitions of order <= ORACLE_MAX_N, so the
    cache holds at most 2 055 trees.
    """
    pistar = kreweras(pi)
    pof, qof = pi.part_of(), pistar.part_of()
    black_whites = [[] for _ in pi.parts]
    white_slots = [[] for _ in pistar.parts]
    for i in range(1, pi.n + 1):
        black_whites[pof[i]].append(qof[i])
        white_slots[qof[i]].append(pof[i])
    return (pistar, pof[1], tuple(map(tuple, black_whites)),
            tuple(map(tuple, white_slots)))


# ---------------------------------------------------------------------------
# moment oracle
# ---------------------------------------------------------------------------

def _white_order_check(kern, pistar):
    for q in pistar.parts:
        if not kern.supports(len(q)):
            raise UnsupportedOrderError(
                f"kernel '{kern.name}' cannot supply order {len(q)} "
                f"needed by complement {pistar.parts}")


@functools.lru_cache(maxsize=None)
def _widest(pi):
    """Size of the largest part of pi's Kreweras complement: the highest kernel
    order pi needs.  Cached like _part_tree."""
    return max(len(q) for q in _part_tree(pi)[0].parts)


@functools.lru_cache(maxsize=None)
def _signature(pi, pinned):
    """Subtree signature of pi's part tree, read from the root part down.

    A part of pi (black) has signature ("b", part size, is root, signatures
    of its child complement parts in element order); a complement part
    (white) has ("w", key, keep, signatures of its child parts in slot
    order), where key marks the tensor slots that carry a pinned root and
    keep is the parent's slot.  Within one oracle call, equal signatures
    stand for the same float operations on the same inputs.  Cached per
    (partition, whether the root is pinned), like _part_tree.
    """
    _, root, black_whites, white_slots = _part_tree(pi)

    def black(b, parent):
        return ("b", len(pi.parts[b]), b == root,
                tuple(white(w, b) for w in black_whites[b] if w != parent))

    def white(w, parent):
        slots = white_slots[w]
        return ("w", tuple(pinned and b == root for b in slots), slots.index(parent),
                tuple(black(b, w) for b in slots if b != parent))

    return black(root, None)


_Call = collections.namedtuple("_Call", "kern grid h_vals root_coord root_h memo")


def _partition_marked(pi, call, pinned):
    """Contribution of one partition, as values over the root variable.

    Message passing over the bipartite part tree: each part of pi is a
    variable vertex carrying h^{|part|}, each part of the complement is a
    factor vertex carrying a cumulant tensor; the two kinds alternate and
    every element of {1..n} is one tree edge.  Non-root variables are
    integrated with the midpoint rule; the root runs over the grid, or is
    pinned to one point with the weight the caller interpolated there.

    Everything lives in the call's memo, one per oracle call, so each piece
    of tensor work is done once per call:

    * each message, under its subtree signature (_signature), so partitions
      that share a subtree share its message, bit for bit;
    * each tensor, under its pinned-slot key: a tree has no double edges, so
      each factor slot is its own axis, over the grid except for a pinned
      root's.  All-grid tensors come from the grid_tensor cache shared with
      the solver; tensors with a pinned slot are built for the call;
    * each operand matrix of a tensor's first contraction, in the layout
      np.tensordot would copy it to, so the contraction is the same BLAS
      call without a copy each time.  Only axes 0 and 1 are contracted
      first, and axis 1 of an order-2 tensor needs no copy, so a call keeps
      at most two copies of each tensor of order 3 or more (4 MiB for the
      order-3 grid tensor at G = 64) and one of each order-2 tensor, freed
      with the memo.

    A constant kernel memoizes its order-k value under ("g", k) and the
    weight moment mean(h^k) under ("h", k) instead.  The kernel-order checks
    compare the partition's cached widest complement part (_widest) once.
    """
    kern, memo = call.kern, call.memo
    pistar, root, _, _ = _part_tree(pi)
    widest = _widest(pi)
    if not kern.supports(widest):
        _white_order_check(kern, pistar)  # raises, naming the first part too wide
    if kern.zero_beyond is not None and widest > kern.zero_beyond:
        return np.zeros_like(call.root_coord)

    if kern.constant:
        coef = 1.0
        for q in pistar.parts:
            if ("g", len(q)) not in memo:
                memo["g", len(q)] = kern.constant_value(len(q))
            coef *= memo["g", len(q)]
            if coef == 0.0:
                return np.zeros_like(call.root_coord)
        for idx, p in enumerate(pi.parts):
            if idx != root:
                if ("h", len(p)) not in memo:
                    memo["h", len(p)] = float(np.mean(call.h_vals ** len(p)))
                coef *= memo["h", len(p)]
        return coef * call.root_h ** len(pi.parts[root])

    return _message(_signature(pi, pinned), call)


def _message(sig, call):
    """The message of the subtree with signature sig, computed once per call."""
    msg = call.memo.get(sig)
    if msg is None:
        msg = call.memo[sig] = (_black if sig[0] == "b" else _white)(sig, call)
    return msg


def _black(sig, call):
    _, size, is_root, children = sig
    vec = (call.root_h if is_root else call.h_vals) ** size
    for child in children:
        vec = vec * _message(child, call)
    return vec


def _white(sig, call):
    """Contract the factor tensor with its children, lowest slot first; 1-d over keep."""
    _, key, keep, children = sig
    if not children:
        return _tensor(key, call)
    G = len(call.grid)
    msgs = [_message(child, call) for child in children]
    at, shape = _layout(key, int(keep == 0), call)
    out = np.dot(at, msgs[0].reshape(-1, 1)).reshape(shape) / G
    later = [ax for ax in range(len(key)) if ax != keep][1:]
    for ax, msg in zip(later, msgs[1:]):
        out = np.tensordot(out, msg, axes=([int(ax > keep)], [0])) / G
    return out


def _tensor(key, call):
    if ("t", key) not in call.memo:
        call.memo["t", key] = (
            kernel_tensor(call.kern, *(call.root_coord if p else call.grid for p in key))
            if any(key) else grid_tensor(call.kern, len(key), len(call.grid)))
    return call.memo["t", key]


def _layout(key, axis, call):
    """np.tensordot's operand matrix for contracting the tensor over axis, and its kept shape."""
    if ("l", key, axis) not in call.memo:
        tensor = _tensor(key, call)
        rest = [k for k in range(tensor.ndim) if k != axis]
        shape = [tensor.shape[k] for k in rest]
        at = tensor.transpose(rest + [axis]).reshape(math.prod(shape), tensor.shape[axis])
        call.memo["l", key, axis] = (at, shape)
    return call.memo["l", key, axis]


def _oracle_sum(kern, h_vals, n, x=None):
    """Sum over the partitions of {1..n}, with one memo and one root weight for the call."""
    if not 1 <= n <= ORACLE_MAX_N:
        raise SizeLimitError(f"oracle order must be in 1..{ORACLE_MAX_N}, got {n}")
    grid = midpoints(len(h_vals))
    root_coord, root_h = grid, h_vals
    if x is not None:
        root_coord = np.array([float(x)])
        root_h = np.array([float(np.interp(x, grid, h_vals))])
    call = _Call(kern, grid, h_vals, root_coord, root_h, {})
    total = 0.0
    for pi in enumerate_nc(n):
        total += float(np.mean(_partition_marked(pi, call, x is not None)))
    return total


def moment_oracle(kern, h, n, resolution=None):
    """n-th trace moment of the h-weighted slice, by direct partition sum.

    Each non-crossing partition contributes a tensor-quadrature integral with
    one midpoint variable per part; the Kreweras complement supplies the
    cumulant factors.  One memo per call holds every subtree message under
    its signature, so partitions that share a subtree share its message, bit
    for bit (at n = 6, 66 tensor contractions in place of 232).  The kernel
    tensors, one per order, come from the grid_tensor cache that the solver
    shares; the call keeps at most two reshaped copies of the order-3 tensor
    (2 G^3 floats, 4 MiB at G = 64), freed when it returns.  Cost grows with
    the largest complement part, so keep the grid modest at high orders.
    A resolution, when given, must be h's size.
    """
    return _oracle_sum(kern, checked_size(checked_weight(h), resolution), n)


def marked_moment_oracle(kern, h, n, x):
    """Moment with the variable of the part containing 1 pinned to x.

    Integrating the result over x with the midpoint rule recovers
    moment_oracle.  The weight at the marked point is interpolated from the
    grid when x is off-grid.
    """
    h_vals = checked_weight(h)
    if not 0.0 <= x <= 1.0:
        raise ValueError("marked point must lie in [0, 1]")
    return _oracle_sum(kern, h_vals, n, x)
