"""Non-crossing partitions, Kreweras complements, and the moment oracle.

The oracle computes trace moments of the weighted matrix slice directly as a
sum over non-crossing partitions, with one quadrature variable per part and
the complementary partition supplying the cumulant factors.  It is the
brute-force cross-check for the fixed-point solver.
"""

import functools
import itertools
import math

import numpy as np

from .errors import InvalidPartitionError, SizeLimitError, UnsupportedOrderError
from .grids import checked_weight, midpoints
from .kernels import kernel_tensor

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


def _partition_marked(kern, pi, h_vals, grid, memo, x=None):
    """Contribution of one partition, as values over the root variable.

    Message passing over the bipartite part tree: each part of pi is a
    variable vertex carrying h^{|part|}, each part of the complement is a
    factor vertex carrying a cumulant tensor; the two kinds alternate and
    every element of {1..n} is one tree edge.  Non-root variables are
    integrated with the midpoint rule; the root runs over the grid, or is
    pinned to x with its weight interpolated from the grid.

    A tree has no double edges, so each factor slot is its own tensor axis,
    over the grid except for a pinned root's: a tensor depends only on which
    of its slots carry the pinned root, its key in the caller's memo.  A
    constant kernel memoizes its order-k value under ("g", k) and the weight
    moment mean(h^k) under ("h", k) instead.
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


def _oracle_sum(kern, h_vals, n, x=None):
    """Sum over the partitions of {1..n}, with one memo for the call."""
    if not 1 <= n <= ORACLE_MAX_N:
        raise SizeLimitError(f"oracle order must be in 1..{ORACLE_MAX_N}, got {n}")
    grid, memo = midpoints(len(h_vals)), {}
    total = 0.0
    for pi in enumerate_nc(n):
        total += float(np.mean(_partition_marked(kern, pi, h_vals, grid, memo, x)))
    return total


def moment_oracle(kern, h, n, resolution=64):
    """n-th trace moment of the h-weighted slice, by direct partition sum.

    Each non-crossing partition contributes a tensor-quadrature integral with
    one midpoint variable per part; the Kreweras complement supplies the
    cumulant factors.  Each kernel tensor is evaluated once per call, one per
    order, and shared by every partition.  Cost grows with the largest
    complement part, so keep the grid modest at high orders.
    """
    return _oracle_sum(kern, checked_weight(h, resolution), n)


def marked_moment_oracle(kern, h, n, x, resolution=64):
    """Moment with the variable of the part containing 1 pinned to x.

    Integrating the result over x with the midpoint rule recovers
    moment_oracle.  The weight at the marked point is interpolated from the
    grid when x is off-grid.
    """
    h_vals = checked_weight(h, resolution)
    if not 0.0 <= x <= 1.0:
        raise ValueError("marked point must lie in [0, 1]")
    return _oracle_sum(kern, h_vals, n, x)
