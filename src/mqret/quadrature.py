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

Several integrals can share one run and one panel set. Each keeps its own
tolerance (its own absolute term and a relative one against its own
magnitude), its own error estimate on the shared panels and its own
rounding-floor exit, and its result is the one of the round in which it
converged. A round bisects the union of the panels that each unconverged
integral would bisect on its own. The integrand reduces each panel itself:
it returns the two rule sums of every panel, with the weights :data:`RULES`,
which lets it contract the nodes of a panel however is cheapest (see
:mod:`mqret.greens`).
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
# both rules as rows over the Kronrod nodes: K21, then G10 (zero off the
# Gauss nodes)
RULES = np.stack([_WK, np.zeros_like(_WK)])
RULES[1, 1::2] = _WG

# rounding level of a sum of panels, relative to the sum of their moduli
# (QUADPACK's qk21 floors a panel's error at 50 eps sum |w f|)
_NOISE = 50.0 * np.finfo(float).eps

_MAX_PANELS = 4000    # panels that one integral may hold
_SHARED_BUDGETS = 4   # lone budgets that a shared panel set may hold


def _panels(f, lo, hi):
    """K21 values and |K21 - G10| errors of the panels [lo_i, hi_i].

    All panels are evaluated in one call of ``f`` on their 21 * len(lo)
    nodes, panel after panel. ``f`` returns the rule sums of each panel,
    shape ``(2, len(lo)) + S``: K21 then G10 with the weights :data:`RULES`
    on the panel's nodes in order, not yet scaled by its half-width. Both
    results have shape ``(len(lo),) + S``.
    """
    n = len(lo)
    h = 0.5 * (hi - lo)
    x = ((0.5 * (lo + hi))[:, None] + h[:, None] * _XK).ravel()
    sums = np.asarray(f(x))
    if sums.shape[:2] != (2, n):
        raise ValueError(f"integrand returned shape {sums.shape} for {n} "
                         f"panels; expected (2, {n}, ...)")
    h = h.reshape((n,) + (1,) * (sums.ndim - 2))
    # an infinite integrand makes K21 - G10 inf - inf (and a complex one
    # h * (inf + 0j) an inf * 0); the NaN is what lets adaptive_quad_vec
    # name a non-finite integrand, so it must not warn here
    with np.errstate(invalid="ignore"):
        kron = h * sums[0]
        return kron, np.abs(kron - h * sums[1])


def adaptive_quad_vec(f, a, b, rtol=1e-9, atol=0.0):
    """Integrate ``f`` over [a, b].

    ``f`` maps a 1-D array of abscissae, 21 per panel and panel after
    panel, to the rule sums of each panel, shape ``(2, panels) + S`` (see
    :func:`_panels`). With S = () or (m,) that is one integral of m
    components; with S = (N, m) it is N integrals over the same panels,
    each with its own tolerance.

    ``a`` and ``b`` may also be equal-length sequences: the integral then
    runs over the union of the panels [a_i, b_i], which start out separate,
    so a kink or a change of variable at a shared edge stays on a panel
    boundary.

    Returns ``(integral, error)``, both of shape S, with per-component
    error estimates, each at least the rounding level 50 eps sum|panel| of
    its panel sum (QUADPACK floors each panel's error the same way); the
    floor enters the returned estimate only, not the decision to refine.
    The per-component tolerance of each integral is
    ``atol + rtol * max|integral|``; ``atol`` is one value for all or, with
    S = (N, m), one per integral (shape (N,)), so that an integral whose
    absolute error is allowed to be large stops while its neighbours
    refine. The run holds at most ``_MAX_PANELS`` = 4,000
    panels for one integral, and min(N, ``_SHARED_BUDGETS``) = min(N, 4)
    times as many for N integrals, whose union may need more panels than
    any one of them alone. :class:`QuadratureError`, carrying the relative
    ``estimate``, is raised when an unconverged integral meets that budget,
    or at once when its error estimate stops falling at rounding level: a
    round fails to halve it while it lies below 50 eps sum|panel|. It is
    also raised, with a NaN ``estimate``, when the error estimate of an
    unconverged integral is not finite (the integrand is NaN or infinite).

    Each round's bookkeeping runs on the unconverged integrals only, and a
    run whose integrals all converge in its first round, as a lone
    Sommerfeld tensor on its seeded panels does, returns that round's sums
    as they are.
    """
    lo = np.array(a, dtype=float, ndmin=1)
    hi = np.array(b, dtype=float, ndmin=1)
    if lo.shape != hi.shape:
        lo, hi = (edge.copy() for edge in np.broadcast_arrays(lo, hi))
    if lo.ndim != 1:
        raise ValueError("panel edges must be scalars or 1-D sequences")
    if not (hi > lo).all():
        raise ValueError("integration interval must have b > a")
    val, err = _panels(f, lo, hi)
    shape = val.shape[1:]
    # as (panel, integral, component)
    per_panel = (len(lo), shape[0] if len(shape) == 2 else 1, -1)
    val, err = val.reshape(per_panel), err.reshape(per_panel)
    n_int = val.shape[1]
    atol = np.asarray(atol, dtype=float)
    if atol.shape != (n_int,):
        atol = np.broadcast_to(atol, (n_int,))
    budget = _MAX_PANELS * min(n_int, _SHARED_BUDGETS)
    # val, err, atol and prev hold the unconverged integrals only. Until
    # the first of them converges they are all of them, and rows is None;
    # then rows maps each to its row of the output out_val, out_err.
    rows = prev = None   # prev: worst error of the previous round
    while True:
        total, toterr = val.sum(axis=0), err.sum(axis=0)
        scale = np.abs(total).max(axis=1)
        tol = atol + rtol * scale
        worst = toterr.max(axis=1)
        if not np.isfinite(worst).all():
            raise QuadratureError(
                "adaptive quadrature did not converge: non-finite integrand "
                f"value among {len(lo)} panels", estimate=float("nan"))
        done = worst <= tol
        n_done = np.count_nonzero(done)
        if n_done:
            # the reported estimate is no lower than the rounding level of
            # the panel sum: panels that resolve an integrand well can
            # bring |K21 - G10| below it
            if rows is None and n_done == n_int:
                floor = _NOISE * np.abs(val).sum(axis=0)
                return (total.reshape(shape),
                        np.maximum(toterr, floor).reshape(shape))
            if rows is None:
                rows = np.arange(n_int)
                out_val = np.empty(val.shape[1:], dtype=val.dtype)
                out_err = np.empty(out_val.shape)
            conv = np.flatnonzero(done)
            floor = _NOISE * np.abs(val.take(conv, axis=1)).sum(axis=0)
            dest = rows[conv]
            out_val[dest] = total[conv]
            out_err[dest] = np.maximum(toterr[conv], floor)
            if n_done == len(rows):
                return out_val.reshape(shape), out_err.reshape(shape)
            live = np.flatnonzero(~done)
            rows, atol = rows[live], atol[live]
            val, err = val.take(live, axis=1), err.take(live, axis=1)
            scale, tol, worst = scale[live], tol[live], worst[live]
            if prev is not None:
                prev = prev[live]
        why = None
        if prev is not None:
            stalled = worst > 0.5 * prev
            if stalled.any():
                noise = np.abs(val[:, stalled]).sum(axis=0).max(axis=1)
                stalled[stalled] = worst[stalled] < _NOISE * noise
                if stalled.any():
                    k = int(np.argmax(stalled))
                    why = "stopped falling at rounding level"
        room = budget - len(lo)
        if why is None and room <= 0:
            k, why = 0, "exhausted the panel budget"
        if why is not None:
            rel = worst[k] / max(scale[k], 1e-300)
            raise QuadratureError(
                f"adaptive quadrature did not converge: error estimate "
                f"{rel:.3e} (relative) {why} after {len(lo)} panels",
                estimate=rel,
            )
        prev = worst
        # per unconverged integral, its worst panels until their summed
        # error passes worst - tol/8; the round bisects their union
        key = err.max(axis=2)
        desc = np.sort(key, axis=0)[::-1]
        covered = np.cumsum(desc, axis=0)
        n = (covered <= worst - tol / 8.0).sum(axis=0)
        pick = (key >= desc[np.minimum(n, len(lo) - 1), np.arange(key.shape[1])]
                ).any(axis=1)
        idx = np.flatnonzero(pick)
        if len(idx) > room:   # the worst relative to their tolerance first
            rank = np.where(pick, (key / np.maximum(tol, 1e-300)).max(axis=1),
                            -1.0)
            idx = np.sort(np.argsort(-rank, kind="stable")[:room])
        left, right = lo[idx], hi[idx]
        mid = 0.5 * (left + right)
        m = len(idx)
        # every integral is evaluated on the new panels; only the
        # unconverged ones are kept
        new_val, new_err = _panels(f, np.concatenate([left, mid]),
                                   np.concatenate([mid, right]))
        new_val = new_val.reshape((2 * m, n_int, -1))
        new_err = new_err.reshape((2 * m, n_int, -1))
        if rows is not None:
            new_val = new_val.take(rows, axis=1)
            new_err = new_err.take(rows, axis=1)
        # the left half replaces its parent, the right half is appended
        hi[idx], val[idx], err[idx] = mid, new_val[:m], new_err[:m]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([hi, right])
        val = np.concatenate([val, new_val[m:]])
        err = np.concatenate([err, new_err[m:]])
