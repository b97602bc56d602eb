"""Deterministic bracketed maximization: a grid scan, then Brent's method."""

from __future__ import annotations

import math
import sys

import numpy as np

INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2, the golden-section ratio
SQRT_EPS = math.sqrt(sys.float_info.epsilon)


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

    ``evaluate(xs)`` returns the (t*, p*) arrays of a sequence of points.
    The grid is evaluated as one batch and its best sample taken, ties
    going to the smaller |x|; while ``widen(grid, best)`` returns a new
    grid, that grid is scanned in turn.  Then :func:`brent_max` refines x
    to ``tol`` in the two cells around sample ``best`` of the last grid,
    one point per call.  x*, p* and t* are Python floats of one evaluated
    point, and ``n_evals`` counts every point evaluated.
    """
    n_evals = 0
    while grid is not None:
        _, scores = evaluate(grid)
        n_evals += grid.size
        ties = np.flatnonzero(scores >= scores.max())
        best = int(ties[np.argmin(np.abs(grid[ties]))])
        last, grid = grid, widen(grid, best) if widen else None
    seen: dict[float, tuple[float, float]] = {}  # x -> (p*, t*)

    def p_first_max(x: float) -> float:
        # a Python float, so that brent_max's iterates stay Python floats
        t_star, p_star = evaluate([x])
        seen[x] = float(p_star[0]), float(t_star[0])
        return seen[x][0]

    # a one-point grid gives a = b, which brent_max evaluates as it is
    a, b = float(last[max(best - 1, 0)]), float(last[min(best + 1, last.size - 1)])
    x_star, _, n_refine = brent_max(p_first_max, a, b, tol)
    return x_star, *seen[x_star], best, n_evals + n_refine
