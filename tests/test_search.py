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


def batch(p):
    """An evaluate callable on the objective p: (t*, p*) per point with
    t* = 2 x, and the list of batch sizes it was called with."""
    sizes = []

    def evaluate(xs):
        xs = np.asarray(list(xs), dtype=float)
        sizes.append(xs.size)
        return 2.0 * xs, np.array([p(x) for x in xs])

    return evaluate, sizes


class TestScanAndRefine:
    def test_refines_inside_the_best_cells(self):
        evaluate, sizes = batch(lambda x: 1.0 - (x - 0.23) ** 2)
        x, p, t, best, n = scan_and_refine(evaluate, np.linspace(0.0, 1.0, 11), 1e-8)
        assert abs(x - 0.23) <= 2e-8 and best == 2
        # p* and t* are those of the evaluated point x*, as Python floats
        assert (p, t) == (1.0 - (x - 0.23) ** 2, 2.0 * x)
        assert all(type(v) is float for v in (x, p, t))
        assert sizes[0] == 11 and set(sizes[1:]) == {1}
        assert n == sum(sizes)

    def test_ties_go_to_the_smaller_magnitude(self):
        evaluate, _ = batch(lambda x: 1.0)
        grid = np.array([-3.0, -1.0, 0.5, 2.0])
        assert scan_and_refine(evaluate, grid, 1e-6)[3] == 2
        assert scan_and_refine(evaluate, grid[::-1].copy(), 1e-6)[3] == 1

    def test_one_point_grid(self):
        evaluate, sizes = batch(lambda x: -x)
        assert scan_and_refine(evaluate, np.array([0.4]), 1e-6) == (0.4, -0.4, 0.8, 0, 2)
        assert sizes == [1, 1]

    def test_widen_rescans_then_refines_once(self):
        evaluate, sizes = batch(lambda x: -(x + 2.5) ** 2)
        grids = []

        def widen(grid, best):
            grids.append((grid[0], grid[-1], best))
            return np.linspace(grid[0] - 1.0, grid[-1], 5) if best == 0 else None

        x, _, _, best, n = scan_and_refine(evaluate, np.linspace(0.0, 1.0, 5), 1e-8, widen)
        assert abs(x + 2.5) <= 2e-8
        assert [g[:2] for g in grids] == [(0.0, 1.0), (-1.0, 1.0), (-2.0, 1.0), (-3.0, 1.0)]
        assert best == 1
        # four scans, then every single-point call after them
        assert sizes[:4] == [5] * 4 and set(sizes[4:]) == {1}
        assert n == sum(sizes)
