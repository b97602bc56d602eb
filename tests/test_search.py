import math

import pytest

from bentchain.search import brent_max


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
