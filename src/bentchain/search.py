"""Deterministic bracketed maximization of a first-arrival probability p*(x).

:func:`scan_and_refine` scans a grid as one batch and takes its best sample.
The sign of the analytic slope dp*/dx at that sample and its neighbours,
taken at the first arrivals the scan found for them, then either settles x*
at once (an end sample whose slope points out of the grid) or brackets the
maximum in one grid cell, where secant steps on the slope, safeguarded by
bisection, close in on its root.  A batched zoom on p* itself
(:func:`zoom_max`) is the fallback where the slopes bracket nothing or are
not finite, and the first-arrival refine's fallback on a flat or kinked top.
"""

from __future__ import annotations

import math

import numpy as np

# secant steps of the slope refine; bisection alone shrinks a unit cell to
# 1e-12 in 40
MAX_SLOPE_STEPS = 100
# interior points per zoom round; odd, so that a round's best point is the
# centre of the next bracket
ZOOM_POINTS = 9


def zoom_max(f, a: np.ndarray, b: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Maximize f on each bracket [a, b] of a batch; returns the arrays x*
    and f(x*), one entry per bracket.

    ``f(x, rows)`` returns the values at the (R, K) points ``x`` of the
    brackets ``rows``, an index array into ``a`` and ``b``.  Each round
    evaluates ``ZOOM_POINTS`` evenly spaced interior points of every bracket
    still wider than 2 ``tol`` in one call, and narrows each bracket to the
    two neighbours of its best point (the first of a tie), a bracket end
    standing in for a missing neighbour.  That point is the centre of the
    next bracket and is evaluated again, so f(x*) never falls between
    rounds.  Every bracket takes at least one round, so x* is always an
    evaluated point; f is only evaluated inside [a, b].  A bracket freezes
    once it converges, so its result does not depend on the others.
    """
    x, half = 0.5 * (a + b), 0.5 * (b - a)
    fx = np.empty_like(x)
    steps = ZOOM_POINTS // 2 + 1  # the point spacing is half / steps
    offsets = (np.arange(ZOOM_POINTS) - ZOOM_POINTS // 2) / steps
    rows = np.arange(x.size)
    while rows.size:
        points = np.clip(x[rows, None] + half[rows, None] * offsets,
                         a[rows, None], b[rows, None])
        values = f(points, rows)
        best = np.argmax(values, axis=1)[:, None]
        x[rows] = np.take_along_axis(points, best, axis=1)[:, 0]
        fx[rows] = np.take_along_axis(values, best, axis=1)[:, 0]
        half[rows] /= steps
        rows = rows[half[rows] > tol]
    return x, fx


def scan_and_refine(evaluate, grid: np.ndarray, tol: float, widen=None):
    """Maximize a first-arrival probability p*(x); returns (x*, p*, t*,
    on_boundary, n_evals).

    ``evaluate(xs)`` returns the (t*, p*) arrays of a sequence of points,
    and ``evaluate(xs, at=t)`` their slopes dp*/dx at the first arrivals
    ``t`` that an earlier call found for them.  The grid, and each grid
    ``widen`` returns, must ascend.  The grid is evaluated as one batch and
    its best sample taken, ties going to the smaller |x|; while
    ``widen(grid, best)`` returns a new grid, that grid is scanned in turn.
    Then the slopes at sample ``best`` of the last grid and at its
    neighbours are taken at the t* of that scan.  An end sample whose slope
    points out of the grid (or a sample with a zero slope) is x* as it
    stands.  Otherwise the cell between ``best`` and the neighbour its
    slope points to must show the opposite slope, and
    :func:`_slope_root` refines x to ``tol`` inside it, one point per step.
    Where no cell brackets a sign change, or a slope is not finite,
    :func:`zoom_max` refines p* over the two cells around ``best`` instead,
    one call per round.  x*, p* and t* are Python floats of one evaluated
    point, ``on_boundary`` says whether x* is the first or last point of
    the last grid, and ``n_evals`` counts every point whose first arrival
    was evaluated.
    """
    n_evals = 0
    while grid is not None:
        t_grid, scores = evaluate(grid)
        n_evals += grid.size
        ties = np.flatnonzero(scores >= scores.max())
        best = int(ties[np.argmin(np.abs(grid[ties]))])
        last, grid = grid, widen(grid, best) if widen else None
    ends = (float(last[0]), float(last[-1]))
    pick = slice(max(best - 1, 0), best + 2)
    near, t_near, p_near = last[pick], t_grid[pick], scores[pick]
    s_near = evaluate(near, at=t_near)
    seen = {float(x): (float(p), float(t)) for x, p, t in zip(near, p_near, t_near)}
    i = min(best, 1)  # the index of sample best in near
    x, slope = float(near[i]), float(s_near[i])
    if np.isfinite(s_near).all():
        j = i + (1 if slope > 0.0 else -1)
        if slope == 0.0 or not 0 <= j < near.size:
            return x, *seen[x], x in ends, n_evals
        if slope * s_near[j] < 0.0:
            x_star, n_refine = _slope_root(
                evaluate, (float(near[j]), float(s_near[j])), (x, slope), tol, seen)
            n_evals += n_refine
            if x_star is not None:
                return x_star, *seen[x_star], x_star in ends, n_evals

    def p_first_max(xs: np.ndarray, _) -> np.ndarray:
        nonlocal n_evals
        t_star, p_star = evaluate(xs[0])
        n_evals += xs.size
        for x, p, t in zip(xs[0].tolist(), p_star.tolist(), t_star.tolist()):
            seen[x] = p, t
        return p_star[None, :]

    x_star, _ = zoom_max(p_first_max, near[:1], near[-1:], tol)
    x_star = float(x_star[0])
    return x_star, *seen[x_star], x_star in ends, n_evals


def _slope_root(evaluate, older: tuple[float, float], newer: tuple[float, float],
                tol: float, seen: dict) -> tuple[float | None, int]:
    """The maximum of p* in a cell whose end slopes bracket it, one end
    rising and the other falling; returns (x*, n_evals), with x* None if a
    slope turns out not finite.

    ``older`` and ``newer`` are the (x, dp*/dx) of the cell ends, ``newer``
    the better sample.  Secant steps on the slope through the two latest
    points, bisecting the bracket whenever a step leaves it; each point
    takes ``evaluate([x])`` for its first arrival and then
    ``evaluate([x], at=t)`` for its slope there.  Stops at a
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
        t_star, p_star = evaluate([x])
        slope = evaluate([x], at=t_star)
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
