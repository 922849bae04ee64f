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


def _panels(f, lo, hi):
    """K21 values and |K21 - G10| errors of the panels [lo_i, hi_i].

    All panels are evaluated in one call of ``f`` on their 21 * len(lo)
    nodes; both results have shape ``(len(lo),) + f(x).shape[1:]``.
    """
    h = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + h[:, None] * _XK
    fx = np.asarray(f(x.ravel()))
    fx = fx.reshape((len(lo), _XK.size) + fx.shape[1:])
    h = h.reshape((len(lo),) + (1,) * (fx.ndim - 2))
    kron = h * np.einsum("k,pk...->p...", _WK, fx)
    gauss = h * np.einsum("k,pk...->p...", _WG, fx[:, 1::2])
    return kron, np.abs(kron - gauss)


def adaptive_quad_vec(f, a, b, rtol=1e-9, atol=0.0, max_panels=4000):
    """Integrate ``f`` (mapping a 1-D array of abscissae to shape ``(n, m)``
    complex values) over [a, b].

    ``a`` and ``b`` may also be equal-length sequences: the integral then
    runs over the union of the panels [a_i, b_i], which start out separate,
    so a kink or a change of variable at a shared edge stays on a panel
    boundary.

    Returns ``(integral, error)`` with per-component error estimates. The
    per-component tolerance is ``atol + rtol * max|integral|``. The number of
    panels never exceeds ``max_panels``; :class:`QuadratureError` is raised
    if that budget is exhausted first.
    """
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)),
                                 np.atleast_1d(np.asarray(b, dtype=float)))
    if lo.ndim != 1 or not np.all(hi > lo):
        raise ValueError("integration interval must have b > a")
    val, err = _panels(f, lo, hi)
    while True:
        total = val.sum(axis=0)
        toterr = err.sum(axis=0)
        tol = atol + rtol * float(np.abs(total).max())
        worst = float(toterr.max())
        if worst <= tol:
            return total, toterr
        room = max_panels - len(lo)
        if room <= 0:
            scale = max(float(np.abs(total).max()), 1e-300)
            raise QuadratureError(
                f"adaptive quadrature did not converge: error estimate "
                f"{worst / scale:.3e} (relative) after {len(lo)} panels",
                estimate=worst / scale,
            )
        # worst panels first, until their summed error passes worst - tol/8
        key = err.reshape(len(lo), -1).max(axis=1)
        order = np.argsort(-key, kind="stable")
        n = min(room, 1 + int(np.searchsorted(np.cumsum(key[order]),
                                              worst - tol / 8.0, side="right")))
        split, keep = order[:n], order[n:]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_val, new_err = _panels(f, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])
