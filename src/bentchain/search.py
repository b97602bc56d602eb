"""Deterministic bracketed maximization of a first-arrival probability p*(x).

A search scans a grid as one batch and takes its best sample.  The sign of
the analytic slope dp*/dx at that sample and its neighbours, taken at the
first arrivals the scan found for them, then either settles x* at once (an
end sample whose slope points out of the grid) or brackets the maximum in
one grid cell, where secant steps on the slope, safeguarded by bisection,
close in on its root; each step follows the first arrival from that of a
nearby point.  A batched zoom on p* itself (:func:`zoom_max`) is the
fallback where the slopes bracket nothing or are not finite, and the
first-arrival refine's fallback on a flat or kinked top.

A search is one generator (:func:`_search`): it asks for first arrivals,
slopes and followed arrivals, one request at a time, and receives them.
:func:`_lockstep` runs the searches of K problems together and answers the
requests of one kind that they ask in a round with one batched call, so
K searches cost about as many calls as one; :func:`scan_and_refine` is one
search on one problem.
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
# the request kinds of a search, in the order a round of _lockstep answers
# them: a scan's best sample asks for slopes, and a slope refine for follows
REQUEST_KINDS = ("scan", "slope", "follow")


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

    ``evaluate(xs)`` returns the (t*, p*) arrays of a sequence of points
    (the full path), ``evaluate(xs, at=t)`` their slopes dp*/dx at the
    first arrivals ``t`` that an earlier call found for them, and
    ``evaluate(x, near=t)`` the first arrival of one point x followed from
    the arrival ``t`` of a nearby point, with its slope there, as
    (t*, p*, dp*/dx), or None where it cannot follow it; the two t* agree
    to within ``evaluate.t_tol``.  Each call answers one request of the
    search (:func:`_search`), which is :func:`_lockstep` on one problem.
    """
    (found,) = _lockstep(_OneProblem(evaluate), [grid], tol, widen)
    return found


class _OneProblem:
    """The ``answer`` callable of :func:`_lockstep` for one problem whose
    requests an ``evaluate`` callable of :func:`scan_and_refine` answers,
    one call per request."""

    def __init__(self, evaluate):
        self.evaluate = evaluate

    @property
    def t_tol(self) -> float:
        # read only where a search needs it: a fake evaluate that never
        # follows an arrival need not have it
        return self.evaluate.t_tol

    def __call__(self, kind, requests):
        ((_, *args),) = requests
        if kind == "scan":
            return [self.evaluate(*args)]
        if kind == "slope":
            xs, t = args
            return [self.evaluate(xs, at=t)]
        x, t = args
        return [self.evaluate(x, near=t)]


def _lockstep(answer, grids, tol: float, widen=None) -> list[tuple]:
    """Run one :func:`_search` per grid, problem k on ``grids[k]``, in
    lockstep; returns their results in the order of the grids.

    ``answer(kind, requests)`` answers a list of requests of one kind, each
    a tuple (k, *args) of the problem k that asks it, with a list of
    replies in the same order:

    - ``"scan"``, (k, xs): the (t*, p*) arrays of the points ``xs`` on the
      full path;
    - ``"slope"``, (k, xs, t): the slopes dp*/dx of the points ``xs`` at the
      first arrivals ``t`` that a scan found for them;
    - ``"follow"``, (k, x, t): (t*, p*, dp*/dx) of one point x, its first
      arrival followed from the arrival ``t`` of a nearby point, or None
      where it cannot be followed.

    ``answer.t_tol`` is the tolerance within which a followed arrival and
    a scanned one are the same.  Each round answers every open request of
    a kind with one call, the kinds in the order of ``REQUEST_KINDS``, so
    the slopes and follows that a round's replies raise join that round.
    A search's requests and result do not depend on the other searches,
    only on the replies it gets; the answers of a batched call may depend
    on its other rows.
    """
    searches = [_search(answer, k, grid, tol, widen) for k, grid in enumerate(grids)]
    results = [None] * len(searches)
    # the open request of each search that has not returned, by kind
    waiting = {kind: [] for kind in REQUEST_KINDS}
    for search in searches:
        kind, request = next(search)
        waiting[kind].append(request)
    while any(waiting.values()):
        for kind in REQUEST_KINDS:
            group, waiting[kind] = waiting[kind], []
            if not group:
                continue
            for request, reply in zip(group, answer(kind, group)):
                k = request[0]
                try:
                    next_kind, next_request = searches[k].send(reply)
                except StopIteration as done:
                    results[k] = done.value
                else:
                    waiting[next_kind].append(next_request)
    return results


def _search(answer, k: int, grid: np.ndarray, tol: float, widen):
    """The search of problem ``k`` as a generator: it yields its requests as
    pairs (kind, (k, *args)), each as :func:`_lockstep` describes it,
    receives each reply, and returns (x*, p*, t*, on_boundary, n_evals).

    The grid, and each grid ``widen`` returns, must ascend.  The grid is
    scanned as one batch and its best sample taken, ties going to the
    smaller |x|; while ``widen(grid, best)`` returns a new grid, that grid
    is scanned in turn.  Then the slopes at sample ``best`` of the last
    grid and at its neighbours, taken at the t* of that scan, go to
    :func:`_slope_root`, which settles x* or refines it to ``tol``, one
    point per step.  Each step follows the arrival from that of the
    nearest point whose arrival is known, and takes the full path, then
    the slope at its t*, only where the arrival cannot be followed.  A
    refined x* whose arrival was followed then takes the full path too;
    where that finds another arrival (t* apart by more than
    ``answer.t_tol``), the refine is redone on the full path alone.  Where
    the slopes find no maximum, :func:`zoom_max` refines p* over the two
    cells around ``best`` instead, each round a scan of this problem alone
    (``answer`` called directly; no physical chain reaches it).

    Every full first arrival goes through one local recorder, ``record``:
    it counts the points and maps each x to its (p*, t*), a later
    evaluation of the same x overwriting the earlier one.  x*, p* and t*
    are Python floats of one point evaluated on the full path,
    ``on_boundary`` says whether x* is the first or last point of the last
    grid, and ``n_evals`` counts every point whose first arrival was
    evaluated on the full path (followed steps are not counted).
    """
    seen = {}
    followed = {}  # t* of each refine point whose arrival was followed
    n_evals = 0

    def record(xs, found):
        nonlocal n_evals
        t_star, p_star = found
        n_evals += len(xs)
        seen.update(zip(np.asarray(xs).tolist(), zip(p_star.tolist(), t_star.tolist())))
        return t_star, p_star

    def full_step(x):
        t_star, _ = record([x], (yield "scan", (k, [x])))
        return float((yield "slope", (k, [x], t_star))[0])

    def followed_step(x):
        start = min([*seen, *followed], key=lambda y: abs(y - x))
        found = yield "follow", (k, x, seen[start][1] if start in seen else followed[start])
        if found is None:
            return (yield from full_step(x))
        t_star, _, slope = found
        followed[x] = t_star
        return slope

    while grid is not None:
        t_grid, scores = record(grid, (yield "scan", (k, grid)))
        ties = np.flatnonzero(scores >= scores.max())
        best = int(ties[np.argmin(np.abs(grid[ties]))])
        last, grid = grid, widen(grid, best) if widen else None
    pick = slice(max(best - 1, 0), best + 2)
    near = last[pick]
    slopes = yield "slope", (k, near, t_grid[pick])
    x_star = yield from _slope_root(followed_step, near, slopes, min(best, 1), tol)
    if x_star in followed:
        # p* and t* come from the full path; another arrival there means a
        # step followed a peak that is not the first arrival
        t_star, _ = record([x_star], (yield "scan", (k, [x_star])))
        if abs(float(t_star[0]) - followed[x_star]) > answer.t_tol:
            x_star = yield from _slope_root(full_step, near, slopes, min(best, 1), tol)
    if x_star is None:
        def scores_at(xs, _):
            (found,) = answer("scan", [(k, xs[0])])
            return record(xs[0], found)[1][None, :]

        zoomed, _ = zoom_max(scores_at, near[:1], near[-1:], tol)
        x_star = float(zoomed[0])
    return x_star, *seen[x_star], x_star in (last[0], last[-1]), n_evals


def _slope_root(step, near: np.ndarray, slopes: np.ndarray, i: int, tol: float):
    """The maximum x* of p* next to sample ``near[i]``, the best of a grid,
    from the slopes dp*/dx at the samples ``near`` (it and its grid
    neighbours); None where the slopes find none.  A generator: each point
    x takes its slope from the generator ``step(x)``, whose requests it
    passes on.

    None if a slope is not finite.  ``near[i]`` itself if its slope is zero
    or points out of ``near`` (an end sample sloping outwards).  Otherwise
    the cell between ``near[i]`` and the neighbour its slope points to must
    show the opposite slope (None if not), and secant steps on the slope
    through the two latest points, bisecting the bracket whenever a step
    leaves it, refine x* inside it.  Stops at a zero slope, once the
    bracket is within 2 ``tol``, or when the next secant step would move x
    by at most ``tol`` / 10: the secant converges superlinearly, so that
    step estimates the error of the latest point, which is x*.  (Stopping
    at a step of ``tol`` saves 0.7 refine steps per optimum but costs p*
    up to 3e-13.)  None if a slope inside the cell turns out not finite.
    """
    if not np.isfinite(slopes).all():
        return None
    x1, f1 = float(near[i]), float(slopes[i])
    j = i + (1 if f1 > 0.0 else -1)
    if f1 == 0.0 or not 0 <= j < near.size:
        return x1
    x0, f0 = float(near[j]), float(slopes[j])
    if f0 * f1 >= 0.0:
        return None
    a, b = sorted((x0, x1))  # the rising end a, falling end b
    for _ in range(MAX_SLOPE_STEPS):
        if f1 == 0.0 or b - a <= 2.0 * tol:
            break
        x = x1 - f1 * (x1 - x0) / (f1 - f0) if f1 != f0 else math.nan
        if not a < x < b:  # the step leaves the bracket, or there is none
            x = 0.5 * (a + b)
        elif abs(x - x1) <= 0.1 * tol:
            break
        x0, f0, x1, f1 = x1, f1, x, (yield from step(x))
        if not math.isfinite(f1):
            return None
        if f1 > 0.0:
            a = x
        else:
            b = x
    return x1
