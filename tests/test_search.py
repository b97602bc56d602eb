import math

import numpy as np
import pytest

from bentchain.search import brent_max, scan_and_refine


def recorded(f):
    """f, and the list of points it was evaluated at."""
    points = []

    def wrapped(x):
        points.append(x)
        return f(x)

    return wrapped, points


class TestBrentMax:
    def test_quadratic(self):
        f, points = recorded(lambda x: 2.0 - (x - 0.3) ** 2)
        x, fx, n = brent_max(f, -1.0, 1.5, 1e-8)
        # tol plus the relative term SQRT_EPS |x|
        assert abs(x - 0.3) <= 2e-8
        assert fx == f(x)
        # a parabola is fitted exactly: a few steps, where golden section
        # takes 41 to shrink the bracket to 1e-8
        assert n == len(points) - 1 <= 8

    def test_smooth_objective_converges_fast(self):
        f, points = recorded(lambda x: math.cos(3.0 * x) * math.exp(-0.2 * x))
        x, _, n = brent_max(f, -0.5, 0.6, 1e-6)
        x_true = -math.atan(0.2 / 3.0) / 3.0  # root of the derivative
        assert abs(x - x_true) <= 1e-6
        assert n == len(points) <= 12

    def test_kinked_objective(self):
        f, points = recorded(lambda x: -abs(x - 0.7))
        x, fx, n = brent_max(f, 0.0, 1.0, 1e-7)
        assert abs(x - 0.7) <= 2e-7
        assert fx == -abs(x - 0.7)
        # no worse than golden section, about 34 steps to 1e-7 of a unit
        # bracket
        assert n == len(points) <= 34

    def test_flat_objective(self):
        f, points = recorded(lambda x: 0.25)
        x, fx, n = brent_max(f, 2.0, 3.0, 1e-6)
        assert 2.0 <= x <= 3.0 and fx == 0.25
        assert n == len(points) <= 34

    @pytest.mark.parametrize("objective", [
        lambda x: -(x - 0.3) ** 2,
        lambda x: -abs(x - 0.7),
        lambda x: x,  # maximum at the right end
        lambda x: -x,  # maximum at the left end
        lambda x: 0.0,
        lambda x: math.sin(40.0 * x),  # several local maxima
    ])
    @pytest.mark.parametrize("bracket", [(0.0, 1.0), (1.0, 0.0), (-3e-4, 2e-4)])
    def test_stays_inside_bracket(self, objective, bracket):
        f, points = recorded(objective)
        x, fx, n = brent_max(f, *bracket, 1e-6)
        lo, hi = min(bracket), max(bracket)
        assert all(lo <= t <= hi for t in points)
        assert x in points and fx == objective(x)
        assert n == len(points)

    def test_monotone_objective_approaches_the_end(self):
        x, _, _ = brent_max(lambda x: x, 0.0, 1.0, 1e-6)
        assert 1.0 - x <= 1e-6

    def test_bracket_within_tolerance(self):
        f, points = recorded(lambda x: -(x - 1.0) ** 2)
        x, fx, n = brent_max(f, 1.0, 1.0 + 1e-9, 1e-6)
        assert n == 1 and points == [x] and x == 1.0 + 0.5e-9

    def test_deterministic(self):
        f = lambda x: math.sin(x) * x  # noqa: E731
        assert brent_max(f, 1.0, 3.0, 1e-9) == brent_max(f, 1.0, 3.0, 1e-9)


def batch(p, dp):
    """An evaluate callable on the objective p with slope dp: (t*, p*) per
    point with t* = 2 x, and (t*, p*, dp) when asked for slopes; and the
    list of (batch size, slopes asked) of its calls."""
    calls = []

    def evaluate(xs, slopes=False):
        xs = np.asarray(list(xs), dtype=float)
        calls.append((xs.size, slopes))
        found = 2.0 * xs, np.array([p(x) for x in xs])
        return (*found, np.array([dp(x) for x in xs])) if slopes else found

    return evaluate, calls


class TestScanAndRefine:
    def test_refines_inside_the_best_cells(self):
        evaluate, calls = batch(lambda x: 1.0 - (x - 0.23) ** 2, lambda x: -2.0 * (x - 0.23))
        x, p, t, best, n = scan_and_refine(evaluate, np.linspace(0.0, 1.0, 11), 1e-8)
        assert abs(x - 0.23) <= 2e-8 and best == 2
        # p* and t* are those of the evaluated point x*, as Python floats
        assert (p, t) == (1.0 - (x - 0.23) ** 2, 2.0 * x)
        assert all(type(v) is float for v in (x, p, t))
        # the scan, the slopes at the best sample and its neighbours, then
        # one point per refine step: a secant step on a linear slope is exact
        assert calls[:2] == [(11, False), (3, True)] and set(calls[2:]) == {(1, True)}
        assert len(calls) <= 4
        assert n == sum(size for size, _ in calls)

    def test_ties_go_to_the_smaller_magnitude(self):
        evaluate, _ = batch(lambda x: 1.0, lambda x: 0.0)
        grid = np.array([-3.0, -1.0, 0.5, 2.0])
        assert scan_and_refine(evaluate, grid, 1e-6)[3] == 2
        assert scan_and_refine(evaluate, grid[::-1].copy(), 1e-6)[3] == 1

    def test_one_point_grid(self):
        evaluate, calls = batch(lambda x: -x, lambda x: -1.0)
        assert scan_and_refine(evaluate, np.array([0.4]), 1e-6) == (0.4, -0.4, 0.8, 0, 2)
        # the point's slope points out of its one-point grid: no refine
        assert calls == [(1, False), (1, True)]

    @pytest.mark.parametrize("p,dp,end", [
        (lambda x: x, lambda x: 1.0, 1.0),
        (lambda x: -x, lambda x: -1.0, -0.5),
    ])
    def test_end_sample_sloping_out_is_the_optimum(self, p, dp, end):
        evaluate, calls = batch(p, dp)
        x, px, t, best, n = scan_and_refine(evaluate, np.linspace(-0.5, 1.0, 16), 1e-8)
        # exactly the end sample, with no refine evaluation
        assert (x, px, t) == (end, p(end), 2.0 * end)
        assert calls == [(16, False), (2, True)] and n == 18

    def test_converges_to_tol_on_a_smooth_objective(self):
        def p(x):
            return math.cos(3.0 * x) * math.exp(-0.2 * x)

        def dp(x):
            return -(3.0 * math.sin(3.0 * x) + 0.2 * math.cos(3.0 * x)) * math.exp(-0.2 * x)

        x_true = -math.atan(0.2 / 3.0) / 3.0  # the root of dp
        for tol in (1e-4, 1e-6, 1e-9):
            evaluate, calls = batch(p, dp)
            x, _, _, _, n = scan_and_refine(evaluate, np.linspace(-1.0, 1.0, 9), tol)
            assert abs(x - x_true) <= tol
            refine = calls[2:]
            assert set(refine) == {(1, True)} and len(refine) <= 5
            assert n == 9 + 3 + len(refine)

    def test_jump_falls_back_to_brent(self):
        # p* rises on both sides of a drop at x = 0.45: no slope changes
        # sign, and the supremum is the left limit of the drop
        evaluate, calls = batch(lambda x: x if x < 0.45 else x - 1.0, lambda x: 1.0)
        x, _, _, best, _ = scan_and_refine(evaluate, np.linspace(0.0, 1.0, 11), 1e-8)
        assert best == 4 and 0.45 - 1e-7 <= x < 0.45
        assert calls[:2] == [(11, False), (3, True)] and set(calls[2:]) == {(1, False)}

    @pytest.mark.parametrize("p,x_max", [
        (lambda x: 1.0 - (x - 0.23) ** 2, 0.23),
        (lambda x: -x, 0.0),  # an end sample: a NaN slope points nowhere
    ])
    def test_nan_slope_falls_back_to_brent(self, p, x_max):
        evaluate, calls = batch(p, lambda x: math.nan)
        x, _, _, _, n = scan_and_refine(evaluate, np.linspace(0.0, 1.0, 11), 1e-8)
        assert abs(x - x_max) <= 2e-8
        assert calls[1][1] and set(calls[2:]) == {(1, False)}
        assert n == sum(size for size, _ in calls)

    def test_nan_slope_in_the_refine_falls_back_to_brent(self):
        # finite slopes at the samples, NaN inside the bracket
        def dp(x):
            return -2.0 * (x - 0.23) if round(10.0 * x, 9).is_integer() else math.nan

        evaluate, calls = batch(lambda x: 1.0 - (x - 0.23) ** 2, dp)
        x, _, _, _, n = scan_and_refine(evaluate, np.linspace(0.0, 1.0, 11), 1e-8)
        assert abs(x - 0.23) <= 2e-8
        assert calls[:3] == [(11, False), (3, True), (1, True)]
        assert set(calls[3:]) == {(1, False)}
        assert n == sum(size for size, _ in calls)

    def test_widen_rescans_then_refines_once(self):
        evaluate, calls = batch(lambda x: -(x + 2.5) ** 2, lambda x: -2.0 * (x + 2.5))
        grids = []

        def widen(grid, best):
            grids.append((grid[0], grid[-1], best))
            return np.linspace(grid[0] - 1.0, grid[-1], 5) if best == 0 else None

        x, _, _, best, n = scan_and_refine(evaluate, np.linspace(0.0, 1.0, 5), 1e-8, widen)
        assert abs(x + 2.5) <= 2e-8
        assert [g[:2] for g in grids] == [(0.0, 1.0), (-1.0, 1.0), (-2.0, 1.0), (-3.0, 1.0)]
        assert best == 1
        # four scans, then the slopes and every refine step after them
        assert calls[:5] == [(5, False)] * 4 + [(3, True)]
        assert set(calls[5:]) == {(1, True)}
        assert n == sum(size for size, _ in calls)
