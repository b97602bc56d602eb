"""Deterministic bracketed maximization of a first-arrival probability p*(x).

:func:`scan_and_refine` scans a grid as one batch and takes its best sample.
The sign of the analytic slope dp*/dx at that sample and its neighbours then
either settles x* at once (an end sample whose slope points out of the grid)
or brackets the maximum in one grid cell, where secant steps on the slope,
safeguarded by bisection, close in on its root.  Brent's method on p* itself
(:func:`brent_max`) is the fallback where the slopes bracket nothing or are
not finite, and the first-arrival refine's fallback on a flat or kinked top.
"""

from __future__ import annotations

import math
import sys

import numpy as np

INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2, the golden-section ratio
SQRT_EPS = math.sqrt(sys.float_info.epsilon)
# secant steps of the slope refine; bisection alone shrinks a unit cell to
# 1e-12 in 40
MAX_SLOPE_STEPS = 100


def brent_max(f, a: float, b: float, tol: float):
    """Maximize f on [a, b]; returns (x*, f(x*), n_evals).

    Brent's method (Brent 1973, ch. 5): a parabola through the three best
    points when it steps inside the bracket and shrinks fast enough,
    golden-section steps otherwise.  Stops when x* lies within about ``tol``
    (plus ``SQRT_EPS`` |x*|) of a local maximum; f is only evaluated inside
    [a, b], and x* is always one of the evaluated points.  Deterministic
    for identical inputs.
    """
    if b < a:
        a, b = b, a
    if b - a <= tol:
        x = 0.5 * (a + b)
        return x, f(x), 1
    # minimize g = -f; x is the best point, w the second best, v the previous w
    x = w = v = a + INVPHI2 * (b - a)
    gx = gw = gv = -f(x)
    n_evals = 1
    d = e = 0.0  # the last step and the one before it
    while True:
        mid = 0.5 * (a + b)
        tol1 = SQRT_EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return x, -gx, n_evals
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (gx - gv)
            q = (x - v) * (gx - gw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # accept the parabola's vertex if it lies inside the bracket and
            # the step is under half the step before last
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                golden = False
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = math.copysign(tol1, mid - x)
        if golden:
            e = (a - x) if x >= mid else (b - x)
            d = INVPHI2 * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        gu = -f(u)
        n_evals += 1
        if gu <= gx:
            if u >= x:
                a = x
            else:
                b = x
            v, gv, w, gw, x, gx = w, gw, x, gx, u, gu
        else:
            if u < x:
                a = u
            else:
                b = u
            if gu <= gw or w == x:
                v, gv, w, gw = w, gw, u, gu
            elif gu <= gv or v == x or v == w:
                v, gv = u, gu


def scan_and_refine(evaluate, grid: np.ndarray, tol: float, widen=None):
    """Maximize a first-arrival probability p*(x); returns (x*, p*, t*,
    best, n_evals).

    ``evaluate(xs, slopes=False)`` returns the (t*, p*) arrays of a sequence
    of points, and with ``slopes=True`` also their dp*/dx.  The grid, and
    each grid ``widen`` returns, must ascend.  The grid is evaluated as one
    batch, without slopes, and its best sample taken, ties going to the
    smaller |x|; while ``widen(grid, best)`` returns a new grid, that grid
    is scanned in turn.  Then one call evaluates the slopes at sample
    ``best`` of the last grid and at its neighbours.  An end sample whose
    slope points out of the grid (or a sample with a zero slope) is x* as
    it stands.  Otherwise the cell between ``best`` and the neighbour its
    slope points to must show the opposite slope, and :func:`_slope_root`
    refines x to ``tol`` inside it, one point per call.  Where no cell
    brackets a sign change, or a slope is not finite, :func:`brent_max`
    refines p* over the two cells around ``best`` instead.  x*, p* and t*
    are Python floats of one evaluated point, and ``n_evals`` counts every
    point evaluated.
    """
    n_evals = 0
    while grid is not None:
        _, scores = evaluate(grid)
        n_evals += grid.size
        ties = np.flatnonzero(scores >= scores.max())
        best = int(ties[np.argmin(np.abs(grid[ties]))])
        last, grid = grid, widen(grid, best) if widen else None
    near = last[max(best - 1, 0) : best + 2]
    t_near, p_near, s_near = evaluate(near, slopes=True)
    n_evals += near.size
    seen = {float(x): (float(p), float(t)) for x, p, t in zip(near, p_near, t_near)}
    i = min(best, 1)  # the index of sample best in near
    x, slope = float(near[i]), float(s_near[i])
    if np.isfinite(s_near).all():
        j = i + (1 if slope > 0.0 else -1)
        if slope == 0.0 or not 0 <= j < near.size:
            return x, *seen[x], best, n_evals
        if slope * s_near[j] < 0.0:
            x_star, n_refine = _slope_root(
                evaluate, (float(near[j]), float(s_near[j])), (x, slope), tol, seen)
            n_evals += n_refine
            if x_star is not None:
                return x_star, *seen[x_star], best, n_evals

    def p_first_max(x: float) -> float:
        # a Python float, so that brent_max's iterates stay Python floats
        t_star, p_star = evaluate([x])
        seen[x] = float(p_star[0]), float(t_star[0])
        return seen[x][0]

    # a one-point grid gives a = b, which brent_max evaluates as it is
    x_star, _, n_refine = brent_max(p_first_max, float(near[0]), float(near[-1]), tol)
    return x_star, *seen[x_star], best, n_evals + n_refine


def _slope_root(evaluate, older: tuple[float, float], newer: tuple[float, float],
                tol: float, seen: dict) -> tuple[float | None, int]:
    """The maximum of p* in a cell whose end slopes bracket it, one end
    rising and the other falling; returns (x*, n_evals), with x* None if a
    slope turns out not finite.

    ``older`` and ``newer`` are the (x, dp*/dx) of the cell ends, ``newer``
    the better sample.  Secant steps on the slope through the two latest
    points, bisecting the bracket whenever a step leaves it.  Stops at a
    zero slope, once the bracket is within 2 ``tol``, or when the next
    secant step would move x by at most ``tol`` / 10: the secant converges
    superlinearly, so that step estimates the error of the latest point,
    which is x*.  (Stopping at a step of ``tol`` saves 0.7 evaluations per
    optimum but costs p* up to 3e-13.)  ``seen`` maps x to (p*, t*), holds
    the cell ends and gains every point evaluated.
    """
    (x0, f0), (x1, f1) = older, newer
    (a, _), (b, _) = sorted([older, newer])  # the rising end a, falling end b
    n_evals = 0
    while f1 != 0.0 and b - a > 2.0 * tol and n_evals < MAX_SLOPE_STEPS:
        x = x1 - f1 * (x1 - x0) / (f1 - f0) if f1 != f0 else math.nan
        if not a < x < b:  # the step leaves the bracket, or there is none
            x = 0.5 * (a + b)
        elif abs(x - x1) <= 0.1 * tol:
            break
        t_star, p_star, slope = evaluate([x], slopes=True)
        n_evals += 1
        seen[x] = float(p_star[0]), float(t_star[0])
        x0, f0, x1, f1 = x1, f1, x, float(slope[0])
        if not math.isfinite(f1):
            return None, n_evals
        if f1 > 0.0:
            a = x
        else:
            b = x
    return x1, n_evals
