"""Adaptive panel quadrature for vector-valued complex integrands.

Each panel uses the Gauss-Kronrod pair G10/K21 (QUADPACK, Piessens et al.
1983): the ten Gauss nodes are every other one of the 21 Kronrod nodes, so a
panel costs 21 integrand values, returns the K21 value and takes
|K21 - G10| as its error estimate. Refinement runs in rounds. Each round
bisects the panels with the largest errors, as many as it takes for their
summed error to cover the excess over tolerance, and evaluates all the new
panels in one integrand call. Refinement stops when every component meets an
absolute-plus-relative tolerance; the achieved error estimate is returned
alongside the integral so callers (and tests) can consume it.

Several independent integrals can run together. Each keeps its own panels,
tolerance and panel budget, and its sums run over its own panels in a fixed
order, so its result does not depend on which integrals share the run; one
round evaluates the new panels of every unconverged integral in one call.
"""

import numpy as np

from .core import QuadratureError

# Positive half of the symmetric rules. _XK holds all 21 Kronrod nodes on
# [-1, 1] in ascending order; its odd-indexed ones are the 10 Gauss nodes.
_XK_HALF = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WK_HALF = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
)
_WK_CENTRE = 0.149445554002916905664936468389821
_WG_HALF = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_XK = np.array([-x for x in _XK_HALF] + [0.0] + list(_XK_HALF[::-1]))
_WK = np.array(list(_WK_HALF) + [_WK_CENTRE] + list(_WK_HALF[::-1]))
_WG = np.array(list(_WG_HALF) + list(_WG_HALF[::-1]))
# both rules as rows over the Kronrod nodes, G10 zero off the Gauss nodes
_W = np.stack([_WK, np.zeros_like(_WK)])
_W[1, 1::2] = _WG


# one integrand node of a batch: abscissa ``s`` and integral index ``i``
NODE = np.dtype([("s", float), ("i", np.intp)])

# rounding level of a sum of panels, relative to the sum of their moduli
# (QUADPACK's qk21 floors a panel's error at 50 eps sum |w f|)
_NOISE = 50.0 * np.finfo(float).eps


def _panels(f, lo, hi, owner=None):
    """K21 values and |K21 - G10| errors of the panels [lo_i, hi_i].

    All panels are evaluated in one call of ``f`` on their 21 * len(lo)
    nodes: plain abscissae, or, given the integral index ``owner`` of each
    panel, a :data:`NODE` array. Both results have shape
    ``(len(lo),) + f(x).shape[1:]``.
    """
    h = 0.5 * (hi - lo)
    x = ((0.5 * (lo + hi))[:, None] + h[:, None] * _XK).ravel()
    if owner is not None:
        nodes = np.empty(x.size, dtype=NODE)
        nodes["s"] = x
        nodes["i"] = np.repeat(owner, _XK.size)
        x = nodes
    fx = np.asarray(f(x))
    shape = (len(lo),) + fx.shape[1:]
    fx = np.ascontiguousarray(fx, dtype=complex if np.iscomplexobj(fx) else float)
    # both rules over real and imaginary parts of all components at once
    sums = np.einsum("jk,pkc->jpc", _W,
                     fx.reshape(len(lo), _XK.size, -1).view(float))
    kron, gauss = sums.view(fx.dtype).reshape((2,) + shape)
    h = h.reshape((len(lo),) + (1,) * (len(shape) - 1))
    kron = h * kron
    return kron, np.abs(kron - h * gauss)


def _row_sum(a):
    """Sum over axis 1, added up in panel order so that each row's sum
    depends on that row alone (padding zeros leave it unchanged)."""
    return np.cumsum(a, axis=1)[:, -1]


def _widen(a, width):
    """``a`` padded with zeros along axis 1 to ``width`` columns."""
    out = np.zeros((a.shape[0], width) + a.shape[2:], dtype=a.dtype)
    out[:, :a.shape[1]] = a
    return out


def adaptive_quad_vec(f, a, b, rtol=1e-9, atol=0.0, max_panels=4000):
    """Integrate ``f`` (mapping a 1-D array of abscissae to shape ``(n, m)``
    complex values) over [a, b].

    ``a`` and ``b`` may also be equal-length sequences: the integral then
    runs over the union of the panels [a_i, b_i], which start out separate,
    so a kink or a change of variable at a shared edge stays on a panel
    boundary.

    With 2-D ``a`` and ``b`` of shape ``(N, P)``, N independent integrals
    run together, integral i over the panels [a[i, j], b[i, j]]. ``f`` then
    receives a :data:`NODE` array, whose field ``s`` holds the abscissae and
    ``i`` the index of the integral each node belongs to, and the results
    gain a leading axis of length N.

    Returns ``(integral, error)`` with per-component error estimates. The
    per-component tolerance of each integral is
    ``atol + rtol * max|integral|``. No integral holds more than
    ``max_panels`` panels. :class:`QuadratureError`, carrying the relative
    ``estimate``, is raised when an integral exhausts that budget, or at
    once when its error estimate stops falling at rounding level: a round
    fails to halve it while it lies below 50 eps sum|panel|.
    """
    lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float),
                                 np.asarray(b, dtype=float))
    batch = lo.ndim == 2
    if not batch:
        lo, hi = np.atleast_1d(lo)[None], np.atleast_1d(hi)[None]
    if lo.ndim != 2 or lo.shape[1] == 0 or not np.all(hi > lo):
        raise ValueError("integration interval must have b > a")
    n_int, width = lo.shape
    ids = np.arange(n_int)   # integral index of each working row
    val, err = _panels(f, lo.ravel(), hi.ravel(),
                       np.repeat(ids, width) if batch else None)
    val = val.reshape((n_int, width) + val.shape[1:])
    err = err.reshape(val.shape)
    lo, hi = lo.copy(), hi.copy()
    count = np.full(n_int, width)
    prev = np.full(n_int, np.inf)   # worst error of the previous round
    out_val = np.empty((n_int,) + val.shape[2:], dtype=val.dtype)
    out_err = np.empty(out_val.shape)
    while True:
        total, toterr = _row_sum(val), _row_sum(err)
        scale = np.abs(total).reshape(len(ids), -1).max(axis=1)
        tol = atol + rtol * scale
        worst = toterr.reshape(len(ids), -1).max(axis=1)
        done = worst <= tol
        out_val[ids[done]], out_err[ids[done]] = total[done], toterr[done]
        if done.all():
            return (out_val, out_err) if batch else (out_val[0], out_err[0])
        stalled = ~done & (worst > 0.5 * prev)
        if stalled.any():
            noise = _row_sum(np.abs(val[stalled])).reshape(stalled.sum(), -1)
            stalled[stalled] = worst[stalled] < _NOISE * noise.max(axis=1)
        room = max_panels - count
        failed = ~done & (stalled | (room <= 0))
        if failed.any():
            k = int(np.argmax(failed))
            rel = worst[k] / max(scale[k], 1e-300)
            why = ("stopped falling at rounding level" if stalled[k]
                   else "exhausted the panel budget")
            raise QuadratureError(
                f"adaptive quadrature did not converge: error estimate "
                f"{rel:.3e} (relative) {why} after {count[k]} panels",
                estimate=rel,
            )
        # keep only the unconverged integrals
        keep = ~done
        if not keep.all():
            ids, count, room = ids[keep], count[keep], room[keep]
            lo, hi, val, err = lo[keep], hi[keep], val[keep], err[keep]
        width = lo.shape[1]
        prev, slack = worst[keep], (worst - tol / 8.0)[keep]
        # per integral, worst panels first until their summed error passes
        # worst - tol/8, in stable order as a lone integral would take them
        # (zero-error padding sorts after the live panels)
        live = np.arange(width) < count[:, None]
        key = err.reshape(len(ids), width, -1).max(axis=2)
        order = np.argsort(-key, axis=1, kind="stable")
        covered = np.cumsum(key[np.arange(len(ids))[:, None], order], axis=1)
        n = 1 + ((covered <= slack[:, None]) & live).sum(axis=1)
        n = np.minimum(np.minimum(n, count), room)
        row, rank = np.nonzero(np.arange(width) < n[:, None])
        col = order[row, rank]
        left, right = lo[row, col], hi[row, col]
        mid = 0.5 * (left + right)
        new_val, new_err = _panels(
            f, np.concatenate([left, mid]), np.concatenate([mid, right]),
            np.concatenate([ids[row]] * 2) if batch else None)
        # the left half replaces its parent, the right half is appended
        need = int((count + n).max())
        if need > width:
            width = max(need, 2 * width)
            lo, hi, val, err = (_widen(a, width) for a in (lo, hi, val, err))
        dest = count[row] + rank
        m = len(row)
        hi[row, col], val[row, col], err[row, col] = mid, new_val[:m], new_err[:m]
        lo[row, dest], hi[row, dest] = mid, right
        val[row, dest], err[row, dest] = new_val[m:], new_err[m:]
        count = count + n
