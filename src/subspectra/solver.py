"""Grid solver for the slice-spectrum stationarity equations.

For a weight profile h and a local cumulant kernel, the pair (a_z, b_z) on
the grid satisfies

    a_z(x) = h(x) / (z - h(x) b_z(x)),        b_z(x) = R0[a_z](x),

where R0 is the gradient of the cumulant generating functional F0.  The
resolvent of the weighted slice is the grid mean of 1/(z - h b_z); its
boundary values give the spectral density, and the stationary value of

    F(z) = integral[ log(z - h b) + a b ] - F0[a]

is the generating function whose z-derivative is the resolvent.

Kernels supply R0/F0 either as closed forms, as constants (position-free
ensembles), or through order <= 3 tensor quadrature.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BranchError,
    ConditioningError,
    ConvergenceError,
    DomainError,
    NoSolutionError,
    SizeLimitError,
    UnsupportedOrderError,
)
from .freeprob import (MOMENTS, FormalSeries, SpectralDensity, checked_ladder,
                       density_from_resolvent)
from .grids import checked_size, checked_weight
from .kernels import grid_tensor

GENERIC_MAX_ORDER = 3
RELAX_BUDGET = 400  # relaxation iterations before an unconverged column goes to Newton-Krylov
MAX_NEWTON = 60  # Newton-Krylov steps per column
ANNEAL_START, ANNEAL_STEPS = 0.5, 6  # density scans: imaginary parts geomspace(0.5, eps, 6)
PREDICTOR_POINTS = 3  # density scans: converged points behind each quadratic prediction
CHUNK = 64  # density scans: lambda points per continuation column
MOMENT_NODES = 24  # moment_series: circle nodes ...
CIRCLE_FACTOR = 3.0  # ... on the circle of radius CIRCLE_FACTOR * spectral radius
MOMENT_TOL = 1e-13  # moment_series: fixed-point tolerance at the circle nodes


@dataclass
class FixedPointState:
    """Converged (a, b) pair at one spectral parameter.

    root is the closed form's hidden unknown at a (the exclusion process's
    w), the seed of the next solve warm-started from this state; NaN for
    kernels without one.
    """

    z: complex
    a: np.ndarray
    b: np.ndarray
    residual: float
    iterations: int
    root: complex


# ---------------------------------------------------------------------------
# R0 / F0 dispatch
# ---------------------------------------------------------------------------

def _contract_rows(tensor, rows):
    """tensor[..., y] rows[r, y] for every row of a real (m, G) stack, as one BLAS product."""
    flat = tensor.reshape(-1, tensor.shape[-1])
    return (rows @ flat.T).reshape((len(rows),) + tensor.shape[:-1])


def _generic_orders(kern):
    top = kern.zero_beyond
    if top is None:
        top = kern.max_order
    if top is None or top > GENERIC_MAX_ORDER:
        raise UnsupportedOrderError(
            f"kernel '{kern.name}' has terms beyond order {GENERIC_MAX_ORDER} and "
            f"no closed form; the generic quadrature path cannot evaluate it")
    return min(top, GENERIC_MAX_ORDER)


def _constant_orders(kern):
    top = kern.max_order if kern.max_order is not None else kern.zero_beyond
    if top is None:
        raise UnsupportedOrderError(
            f"constant kernel '{kern.name}' needs max_order or zero_beyond set")
    if kern.zero_beyond is not None:
        top = min(top, kern.zero_beyond)
    return top


def r0_apply(kern, a, root=None):
    """Apply the cumulant-functional gradient: b(x) = dF0/da(x).

    Dispatches to the kernel's closed form when available, to the power
    series in A = mean(a) for constant kernels, and to tensor quadrature
    (orders <= 3) otherwise.  A (k, G) stack of profiles gives one row of b
    per row of a, and a row the closed form cannot solve comes back as NaN.
    root is the closed form's complex array of shape a.shape[:-1]: seeds in
    (NaN: none, as when root is None), roots out, in place (see kernels).
    Tensor quadrature contracts the whole stack at once, one BLAS product
    per kernel order, so batched solves (density scans, the circle nodes of
    moment_series) pay one call.  a is used as given, unchecked.
    """
    a = np.asarray(a)
    if kern.r0_form is not None:
        return kern.r0_form(a, _roots(a, root))
    if kern.constant:
        A = a.mean(axis=-1)
        top = _constant_orders(kern)
        out = 0.0
        for k in range(top, 0, -1):
            out = out * A + kern.constant_value(k)
        return np.full(a.shape, np.expand_dims(out, -1))
    b = sum(_generic_terms(kern, np.atleast_2d(a)))
    return b if a.ndim > 1 else b[0]


def _roots(a, root):
    return np.full(a.shape[:-1], np.nan, dtype=complex) if root is None else root


def _generic_terms(kern, a):
    """Order-by-order terms of the tensor-quadrature R0 of a (k, G) stack.

    Term n is the order-n kernel tensor contracted with n - 1 copies of each
    row, over G^(n-1): R0 is the sum of the terms, F0 the sum of
    mean(a * term_n) / n.  Each order is one real matrix product over the
    whole stack, where a complex stack enters as 2k real rows (real parts,
    then imaginary parts); order 3 finishes with one batched matmul.
    """
    k, G = a.shape
    top = _generic_orders(kern)
    cplx = np.iscomplexobj(a)
    rows = np.concatenate([a.real, a.imag]) if cplx else a
    terms = [np.broadcast_to(grid_tensor(kern, 1, G), a.shape)]
    if top >= 2:
        c = _contract_rows(grid_tensor(kern, 2, G), rows) / G
        terms.append(c[:k] + 1j * c[k:] if cplx else c)
    if top >= 3:
        s = _contract_rows(grid_tensor(kern, 3, G), rows)  # (t3 Re a, t3 Im a) per row
        if cplx:
            r = s @ np.tile(np.stack([a.real, a.imag], axis=-1), (2, 1, 1))
            c = (r[:k, :, 0] - r[k:, :, 1]) + 1j * (r[:k, :, 1] + r[k:, :, 0])
        else:
            c = (s @ a[:, :, None])[:, :, 0]
        terms.append(c / G ** 2)
    return terms


def f0_value(kern, a, root=None):
    """Value of the cumulant generating functional F0 at the profile a (root as in r0_apply)."""
    a = np.asarray(a)
    if kern.f0_form is not None:
        return kern.f0_form(a, _roots(a, root))
    if kern.constant:
        A = a.mean()
        top = _constant_orders(kern)
        return sum(kern.constant_value(k) * A ** k / k for k in range(1, top + 1))
    terms = _generic_terms(kern, a[None])
    return sum(np.mean(a * t) / n for n, t in enumerate(terms, 1))


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def fixed_point_solve(kern, h, z, warm_start=None, tol=1e-10):
    """Solve the stationarity pair (a, b) at spectral parameter z.

    One column of the engine _solve_columns, from warm_start or cold.  The
    returned state satisfies both relations to sup-norm tol; otherwise the
    column's BranchError, NoSolutionError or ConvergenceError (carrying the
    last residual) is raised.  Deterministic for fixed inputs and settings.
    """
    h_vals = checked_weight(h)
    (state,), _ = _solve_columns(kern, h_vals, [complex(z)], [warm_start], tol)
    if not isinstance(state, FixedPointState):
        raise state
    return state


def _wrong_side(im_denom, z):
    """Whether Im(z - h b) (last axis) has the sign of -Im z in some cell.

    Each 1/(z - h b) is a diagonal resolvent entry, whose Im has the sign of
    -Im z (Herglotz); Anderson and Newton steps that cross find the other root.
    """
    return np.any(im_denom * np.sign(np.imag(z))[..., None] < 0, axis=-1)


def _off_branch(denom, z):
    """Whether z - h b (last axis) comes within 1e-13 max(1, |z|) of 0 or is on the wrong side."""
    return ((np.min(np.abs(denom), axis=-1) < 1e-13 * np.maximum(1.0, np.abs(z)))
            | _wrong_side(denom.imag, z))


def _branch_map(kern, h_vals, z, root):
    """The update map b -> (a, R0[a]), a = h / (z - h b), of one column.

    root (a 0-d complex array) carries the closed form's root from call to call.
    """
    def apply_map(b):
        denom = z - h_vals * b
        if _off_branch(denom, z):
            raise BranchError(f"z - h*b left the physical branch (z={z})")
        a = h_vals / denom
        return a, np.asarray(r0_apply(kern, a, root=root), dtype=complex)
    return apply_map


def _newton_krylov(apply_map, b0, z, root, tol, iterations_used=0):
    """Matrix-free Newton on F(b) = R0[a(b)] - b with GMRES inner solves.

    Directional derivatives of the analytic update map are taken by complex
    forward differences; a backtracking line search keeps the residual
    decreasing.
    """
    from scipy.sparse.linalg import LinearOperator, gmres

    b = b0.astype(complex)
    n = b.size
    a, g = apply_map(b)
    F = g - b
    res = float(np.max(np.abs(F)))
    for newton_it in range(1, MAX_NEWTON + 1):
        if res <= tol:
            return FixedPointState(z=z, a=a, b=b, residual=res,
                                   iterations=iterations_used + newton_it,
                                   root=complex(root))
        scale = float(np.linalg.norm(b)) + 1.0

        def matvec(v):
            nv = float(np.linalg.norm(v))
            if nv == 0.0:
                return np.zeros(n, dtype=complex)
            delta = 1e-7 * scale / nv
            _, g_pert = apply_map(b + delta * v)
            return (g_pert - g) / delta - v

        op = LinearOperator((n, n), matvec=matvec, dtype=complex)
        step, info = gmres(op, -F, rtol=1e-3, restart=80, maxiter=2)
        if not np.all(np.isfinite(step)):
            break
        norm_f = float(np.linalg.norm(F))
        accepted = False
        for t in (1.0, 0.5, 0.25, 0.1, 0.03, 0.01):
            try:
                a_t, g_t = apply_map(b + t * step)
            except (BranchError, NoSolutionError):
                continue
            f_t = g_t - (b + t * step)
            if float(np.linalg.norm(f_t)) < (1.0 - 0.1 * t) * norm_f:
                b = b + t * step
                a, g, F = a_t, g_t, f_t
                res = float(np.max(np.abs(F)))
                accepted = True
                break
        if not accepted:
            break
    raise ConvergenceError(
        f"no convergence at z={z} (relaxation and Newton; residual {res:.3e})",
        residual=res, iterations=iterations_used)


def resolvent(kern, h, z, warm_start=None, tol=1e-10):
    """Trace resolvent of the weighted slice: grid mean of 1/(z - h b_z).

    Cells with h = 0 contribute exactly 1/z.
    """
    h_vals = checked_weight(h)
    state = fixed_point_solve(kern, h_vals, z, warm_start=warm_start, tol=tol)
    return resolvent_from_state(state, h_vals)


def resolvent_from_state(state, h_vals):
    return complex(np.mean(1.0 / (state.z - h_vals * state.b)))


# ---------------------------------------------------------------------------
# moment extraction
# ---------------------------------------------------------------------------

def estimate_radius(kern, h):
    """Crude upper estimate of the slice spectral radius from one R0 sweep.

    Combines the first-order scale sup|h g_1| with a variance-type scale
    from the interaction part of R0 probed at a = h; the factor 2 reproduces
    the exact edge for position-free pair kernels.
    """
    h_vals = checked_weight(h)
    b1 = np.real(np.asarray(r0_apply(kern, np.zeros(h_vals.size))))
    bh = np.asarray(r0_apply(kern, h_vals.astype(complex)), dtype=complex)
    lin = float(np.max(np.abs(h_vals * b1)))
    inter = float(np.max(np.abs(bh - b1)))
    sup_h = float(np.max(h_vals))
    return 1.5 * (lin + 2.0 * math.sqrt(max(sup_h * inter, 0.0))) + 0.1


def moment_series(kern, h, n_max, resolution=None, radius=None):
    """Trace moments of the weighted slice from the large-|z| resolvent.

    Samples z G(z) = sum phi_n u^n, u = 1/z, at the equispaced nodes
    u_j = omega^j / R, R = CIRCLE_FACTOR * radius, safely beyond the spectral
    radius.  On these nodes the interpolation system is a discrete Fourier
    transform, so one FFT and a rescale by R^n give the coefficients: the
    trapezoidal rule for the Cauchy integral, perfectly conditioned where
    real nodes cannot be at these orders.  All nodes are solved together,
    cold-started, as one batched fixed-point iteration (_solve_columns); a
    node that does not converge raises ConvergenceError naming its z.
    Results match the partition-sum oracle on the same grid.  The
    normalization coefficient is checked and a conditioning error raised if
    the extraction degraded.  A resolution, when given, must be h's size.
    """
    if not 1 <= n_max <= 8:
        raise SizeLimitError(f"n_max must be in 1..8, got {n_max}")
    h_vals = checked_size(checked_weight(h), resolution)
    if radius is None:
        radius = estimate_radius(kern, h_vals)
    nodes = MOMENT_NODES
    big_r = CIRCLE_FACTOR * max(radius, 1e-6)
    u = np.exp(2j * np.pi * np.arange(nodes) / nodes) / big_r
    zs = 1.0 / u
    states, _ = _solve_columns(kern, h_vals, zs, [None] * nodes, MOMENT_TOL)
    failed = [complex(z) for z, st in zip(zs, states) if not isinstance(st, FixedPointState)]
    if failed:
        raise ConvergenceError(
            f"moment_series: no convergence at {len(failed)} of {nodes} circle nodes, "
            f"z = {', '.join(f'{z:.6g}' for z in failed)}")
    samples = np.array([z * resolvent_from_state(st, h_vals) for z, st in zip(zs, states)])
    coeffs = np.fft.fft(samples) / nodes * big_r ** np.arange(nodes)
    if abs(coeffs[0] - 1.0) > 1e-7 or np.max(np.abs(coeffs[1:n_max + 1].imag)) > 1e-6:
        raise ConditioningError(
            f"moment extraction degraded (phi_0 = {coeffs[0]}); "
            f"reduce n_max or supply a tighter radius")
    return FormalSeries(MOMENTS, coeffs[1:n_max + 1].real)


# ---------------------------------------------------------------------------
# batched fixed point
# ---------------------------------------------------------------------------

def _solve_columns(kern, h_vals, zs, warm, tol):
    """The fixed-point engine: k spectral parameters at once, as one (k, G) iteration.

    Behind fixed_point_solve (one column), moment_series (its circle nodes,
    all cold) and the density scans (continuation columns, warm after their
    first point).  Cold columns start from R0[0], evaluated once, and the
    closed form's root there; warm columns from their state's b and root.
    The roots of all columns travel as one (k,) array.  Each column runs
    damped relaxation (damping 0.5) with Anderson type-II mixing (depth 4)
    over its own history, and rides out transient residual growth; the k
    small least-squares problems are solved in one batched call, by
    pseudo-inverse of their Gram matrices (eigenvalues below 1e-13 of the
    largest dropped), which also covers the rank-deficient histories of
    constant kernels.  A column is frozen at its first iterate with residual
    <= tol.  A column whose iterate leaves the branch or is not finite, or
    that spends the relaxation budget, is finished by Newton-Krylov from its
    best iterate.  No row's arithmetic depends on another, except that
    tensor quadrature rounds by stack size (BLAS).

    Returns (states, handed): per column a FixedPointState or the error that
    ended it (BranchError or NoSolutionError when no iterate could be
    mapped, else ConvergenceError), and the number of columns handed to
    Newton-Krylov.
    """
    k, G = len(zs), h_vals.size
    depth = 5  # Anderson depth 4, plus the newest entry
    z = np.asarray(zs, dtype=complex)
    cold = [w is None or w.b.size != G for w in warm]
    root = np.array([np.nan if c else w.root for c, w in zip(cold, warm)], dtype=complex)
    if any(cold):
        cold_root = np.full((), np.nan, dtype=complex)
        cold_b = r0_apply(kern, np.zeros(G), root=cold_root)
        root[cold] = cold_root
    b = np.array([cold_b if c else w.b for c, w in zip(cold, warm)], dtype=complex)
    states, handed = [None] * k, []
    # per active row: column, z, best residual and iterate, and history: slots
    # 0..depth-2 hold the latest differences of the residuals f (of the map
    # values g) in circular order, slot -1 the newest.
    col, zc = np.arange(k), z
    res_best, b_best = np.full(k, np.inf), b.copy()
    hist_f = np.zeros((k, depth, G), dtype=complex)
    hist_g = np.zeros((k, depth, G), dtype=complex)
    slots = np.arange(depth - 1)
    for it in range(1, RELAX_BUDGET + 1):
        denom = zc[:, None] - h_vals * b
        off = _off_branch(denom, zc)
        if off.any():
            denom[off] = 1.0
        a = h_vals / denom
        g = np.asarray(r0_apply(kern, a, root=root), dtype=complex)
        f = g - b
        res = np.max(np.abs(f), axis=1)
        bad = off | ~np.isfinite(res)
        done = ~bad & (res <= tol)
        for r in np.flatnonzero(done):
            states[col[r]] = FixedPointState(z=complex(zc[r]), a=a[r].copy(), b=b[r].copy(),
                                             residual=float(res[r]), iterations=it,
                                             root=complex(root[r]))
        improved = ~bad & (res < res_best)
        res_best = np.where(improved, res, res_best)
        np.copyto(b_best, b, where=improved[:, None])
        unmapped = bad & np.isinf(res_best)
        for r in np.flatnonzero(unmapped):
            states[col[r]] = (BranchError(f"z - h*b left the physical branch (z={zc[r]})")
                              if off[r] else NoSolutionError(f"R0 has no solution at z={zc[r]}"))
        handed += [(col[r], b_best[r], root[r], it) for r in np.flatnonzero(bad & ~unmapped)]
        keep = ~(bad | done)
        if not keep.all():
            col, zc, b, g, f = col[keep], zc[keep], b[keep], g[keep], f[keep]
            res_best, b_best = res_best[keep], b_best[keep]
            hist_f = hist_f[keep]  # one at a time: the old copy goes before the next
            hist_g = hist_g[keep]
            root = root[keep]
            if col.size == 0:
                break
        slot = it % (depth - 1)
        hist_f[:, slot] = f - hist_f[:, -1]
        hist_g[:, slot] = g - hist_g[:, -1]
        hist_f[:, -1], hist_g[:, -1] = f, g
        accept = np.zeros(col.size, dtype=bool)
        if it > 3:
            # Anderson type-II: minimize |f - dF gamma| over each row's history,
            # through the pseudo-inverse of the Gram matrix of the valid
            # differences; a constant kernel makes every residual parallel.
            valid = (slot - slots) % (depth - 1) < it - 1  # at it = 4 slot 1 holds f_1 itself
            gram = np.conj(hist_f) @ hist_f.transpose(0, 2, 1)
            rhs = gram[:, :-1, -1] * valid
            gram = gram[:, :-1, :-1] * (valid[:, None] & valid)
            top = np.max(np.where(valid, gram[:, slots, slots].real, 0.0), axis=1)
            gram[:, slots, slots] += np.where(valid, 0.0, np.where(top > 0, top, 1.0)[:, None])
            ev, vec = np.linalg.eigh(gram)
            inv = np.divide(1.0, ev, out=np.zeros_like(ev), where=ev > 1e-13 * ev[:, -1:])
            coef = inv * (np.conj(vec.transpose(0, 2, 1)) @ rhs[..., None])[..., 0]
            gamma = (vec @ coef[..., None])[..., 0]
            b_mix = g - (gamma[:, None, :] @ hist_g[:, :-1])[:, 0]
            accept = np.all(np.isfinite(gamma), axis=1) & (np.max(np.abs(gamma), axis=1) < 50.0) \
                & ~_wrong_side(zc.imag[:, None] - h_vals * b_mix.imag, zc)
        if accept.all():
            b = b_mix
        else:
            b = 0.5 * (b + g)
            if accept.any():
                b[accept] = b_mix[accept]
    handed += [(c, b_best[r], root[r], RELAX_BUDGET) for r, c in enumerate(col)]
    for c, b0, seed, spent in handed:
        z_c, cell = complex(z[c]), np.array(seed)
        try:
            states[c] = _newton_krylov(_branch_map(kern, h_vals, z_c, cell), b0, z_c, cell, tol,
                                       iterations_used=spent)
        except (ConvergenceError, BranchError, NoSolutionError) as exc:
            states[c] = exc
    return states, len(handed)


# ---------------------------------------------------------------------------
# spectral density
# ---------------------------------------------------------------------------

def _extrapolate(history, lam):
    """(b, root) at lam by Lagrange extrapolation through the (lam, b, root) points of history."""
    xs = [x for x, _, _ in history]
    weights = [math.prod((lam - xm) / (xj - xm) for m, xm in enumerate(xs) if m != j)
               for j, xj in enumerate(xs)]
    return (sum(w * b for w, (_, b, _) in zip(weights, history)),
            complex(sum(w * root for w, (_, _, root) in zip(weights, history))))


def _column(h_vals, z, g, span, solver):
    """One continuation column of a density scan, as a generator of solve requests.

    The column walks span, its chunk of the row z of lam + i eps at one
    eps, and writes the block resolvent into g (NaN stays at a gap).  Each
    request is yielded as (z, start), start the warm state or None (cold),
    and is sent back the solved FixedPointState, or None for a failure;
    when its span is done the column yields None.  At the chunk start, and
    after a gap, a point anneals in along geomspace(ANNEAL_START, eps,
    ANNEAL_STEPS) from a cold start.  Every other point is a
    predictor-corrector step: history holds the b and root of the column's
    last PREDICTOR_POINTS converged points at eps (anneal steps do not
    count; a gap empties it), and once it holds two or more, the point
    starts from their Lagrange extrapolation in the true lambda values
    (linear from two, quadratic from three).  A prediction whose z - h b
    fails the branch guard (_off_branch) starts from the previous point
    instead, and so does, in the next request, a predicted point whose
    solve fails, so a gap is recorded only where the plain warm start fails
    too.  The column adds the iterations of each solved request to
    solver["iterations"] at its lambda, and counts the points solved from a
    prediction in solver["predicted"], the predictions not used in
    solver["predictor_rejected"].
    """
    mask = h_vals > 0
    ell = float(np.mean(mask))
    state, history = None, []  # the last solved state; (lam, b, root) of the latest points at eps
    for i in span:
        lam, eps = z[i].real, z[i].imag
        for e in np.geomspace(ANNEAL_START, eps, ANNEAL_STEPS) if state is None else [eps]:
            zi, start = complex(lam, e), state
            if len(history) > 1:
                b, root = _extrapolate(history, lam)
                if _off_branch(zi - h_vals * b, zi):
                    solver["predictor_rejected"] += 1
                else:
                    start = replace(state, b=b, root=root)
            solved = yield zi, start
            if start is not state:
                if solved is None:
                    solver["predictor_rejected"] += 1
                    solved = yield zi, state
                else:
                    solver["predicted"] += 1
            state = solved
            if state is None:
                break
            solver["iterations"][i] += state.iterations
        if state is None:
            history = []
        else:
            g[i] = np.mean(mask / (state.z - h_vals * state.b)) / ell
            history = [p for p in history if p[0] != lam][1 - PREDICTOR_POINTS:] \
                + [(lam, state.b, state.root)]
    yield None  # the span is done


def _scan_columns(kern, h_vals, z, tol, solver):
    """Every (chunk, eps) continuation column of a density scan, in lock-step.

    z is the (rungs, L) array of lam + i eps, and each chunk of CHUNK lambda
    of a row is one _column.  Each round solves the pending request of
    every live column in one _solve_columns call and sends each column its
    result; the columns finished by Newton-Krylov are added to
    solver["fallbacks"].  Chunks restart, so the result does not depend on
    how the columns are batched.  Returns the block resolvent at z (NaN at a
    gap).
    """
    R, L = z.shape
    g = np.full((R, L), np.nan, dtype=complex)
    columns = [_column(h_vals, z[r], g[r], range(s, min(s + CHUNK, L)), solver)
               for r in range(R) for s in range(0, L, CHUNK)]
    pending = [(col, next(col)) for col in columns]
    while pending:
        zs, starts = zip(*(request for _, request in pending))
        states, handed = _solve_columns(kern, h_vals, zs, starts, tol)
        solver["fallbacks"] += handed
        sent = [(col, col.send(st if isinstance(st, FixedPointState) else None))
                for (col, _), st in zip(pending, states)]
        pending = [(col, request) for col, request in sent if request is not None]
    return g


def spectral_density(kern, h, lam_grid, eps=1e-3, eps_ladder=None, tol=1e-10):
    """Spectral density of the weighted slice along a real grid.

    Scans z = lambda + i*eps by predictor-corrector continuation inside
    chunks of CHUNK grid points.  Each (chunk, eps) pair is one
    continuation column (_column), and all columns advance in lock-step as
    one batched fixed-point iteration.  A column starts each point from the
    quadratic Lagrange extrapolation in lambda of its last three converged
    points (fewer just after a chunk start or a gap, where it anneals in
    cold); a prediction that puts z - h b off the physical branch, or whose
    solve fails, falls back to the previous point's state, so the predictor
    adds no gap.  Chunks re-initialize, so results do not depend on how the
    columns are batched (for tensor-quadrature kernels, up to rounding in
    the batched products).  The block resolvent of the scan is inverted by
    freeprob.density_from_resolvent, with Richardson extrapolation to the
    real axis when an eps ladder is given.  Returns the block-normalized
    density together with the zero-eigenvalue atom weight 1 - ell carried
    by the total spectrum, and its solver record: the fixed-point
    iterations per lambda (summed over the ladder), the number of columns
    finished by Newton-Krylov (fallbacks), and the counts of points solved
    from a prediction (predicted) and of predictions not used
    (predictor_rejected).  A bad eps or ladder raises DomainError; isolated
    convergence failures are marked as gaps, not fatal.
    """
    h_vals = checked_weight(h)
    lam_grid = np.asarray(lam_grid, dtype=float)
    ell = float(np.mean(h_vals > 0))
    solver = {"iterations": np.zeros(lam_grid.size, dtype=int), "fallbacks": 0, "predicted": 0,
              "predictor_rejected": 0}
    if ell == 0.0:
        checked_ladder(eps, eps_ladder)
        dens = SpectralDensity(lam_grid, np.zeros(lam_grid.size), atom_weight=1.0,
                               block_fraction=0.0)
    else:
        dens = density_from_resolvent(lambda z: _scan_columns(kern, h_vals, z, tol, solver),
                                      lam_grid, eps, eps_ladder)
        dens.atom_weight, dens.block_fraction = 1.0 - ell, ell
        dens.support = dens.detect_support()
    dens.solver = dict(solver, iterations=solver["iterations"].tolist())
    return dens


# ---------------------------------------------------------------------------
# variational structure
# ---------------------------------------------------------------------------

def grand_potential(kern, h, z, warm_start=None, tol=1e-10):
    """Stationary value of the generating functional at z.

    Evaluates integral[log(z - h b) + a b] - F0[a] at the fixed point; its
    numerical z-derivative equals the resolvent.  For h identically zero
    this is log z exactly.
    """
    h_vals = checked_weight(h)
    state = fixed_point_solve(kern, h_vals, z, warm_start=warm_start, tol=tol)
    bracket = np.mean(np.log(state.z - h_vals * state.b) + state.a * state.b)
    return complex(bracket - f0_value(kern, state.a, root=np.array(state.root)))


def functional_derivative_check(kern, h, z, x_index, delta=1e-4, tol=1e-10):
    """Compare -h(x) dF/dh(x) (central differences) against a(x) b(x).

    Returns the pair (lhs, rhs); they agree at a converged stationary point.
    """
    h_vals = checked_weight(h)
    G = h_vals.size
    if not 0 <= x_index < G:
        raise DomainError(f"x_index {x_index} outside grid of size {G}")
    if h_vals[x_index] <= 0:
        raise DomainError("functional derivative probe requires h > 0 at the cell")
    step = min(delta, 0.45 * h_vals[x_index])
    h_plus = h_vals.copy()
    h_minus = h_vals.copy()
    h_plus[x_index] += step
    h_minus[x_index] -= step
    f_plus = grand_potential(kern, h_plus, z, tol=tol)
    f_minus = grand_potential(kern, h_minus, z, tol=tol)
    lhs = -h_vals[x_index] * (f_plus - f_minus) * G / (2.0 * step)
    state = fixed_point_solve(kern, h_vals, z, tol=tol)
    rhs = complex(state.a[x_index] * state.b[x_index])
    return lhs, rhs
