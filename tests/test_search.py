import math

import numpy as np
import pytest

from bentchain.search import ZOOM_POINTS, scan_and_refine, zoom_max


def recorded(objective):
    """An f for zoom_max applying ``objective`` to every point, and the list
    of the (R, K) point arrays of its calls."""
    calls = []

    def f(x, rows):
        assert x.shape == (rows.size, ZOOM_POINTS)
        calls.append(x.copy())
        return objective(x)

    return f, calls


def zoom(f, a, b, tol):
    """zoom_max on one bracket: (x*, f(x*)) as floats."""
    x, fx = zoom_max(f, np.array([a]), np.array([b]), tol)
    return float(x[0]), float(fx[0])


OBJECTIVES = {
    "quadratic": lambda x: -(x - 0.3) ** 2,
    "kink": lambda x: -np.abs(x - 0.7),
    "rising": lambda x: x,  # maximum at the right end
    "falling": lambda x: -x,  # maximum at the left end
    "flat": lambda x: np.zeros_like(x),
    "sin": lambda x: np.sin(40.0 * x),  # several local maxima
}


class TestZoomMax:
    @pytest.mark.parametrize("name", OBJECTIVES)
    @pytest.mark.parametrize("bracket", [(0.0, 1.0), (-3e-4, 2e-4)])
    def test_stays_inside_bracket(self, name, bracket):
        objective = OBJECTIVES[name]
        f, calls = recorded(objective)
        x, fx = zoom(f, *bracket, 1e-6)
        points = np.concatenate(calls).ravel()
        assert np.all((bracket[0] <= points) & (points <= bracket[1]))
        # x* is an evaluated point, and f(x*) its value
        assert x in points and fx == objective(np.array(x))

    @pytest.mark.parametrize("name,x_max", [
        ("quadratic", 0.3), ("kink", 0.7), ("rising", 1.0), ("falling", 0.0),
    ])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_lands_within_tol(self, name, x_max, tol):
        f, calls = recorded(OBJECTIVES[name])
        x, _ = zoom(f, 0.0, 1.0, tol)
        assert abs(x - x_max) <= tol
        # each round narrows the bracket to a fifth until it is within 2 tol
        rounds = math.ceil(math.log(0.5 / tol) / math.log(ZOOM_POINTS // 2 + 1))
        assert len(calls) == rounds

    def test_ties_go_to_the_first_point(self):
        x, fx = zoom(recorded(OBJECTIVES["flat"])[0], 2.0, 3.0, 1e-6)
        assert 2.0 < x <= 2.0 + 1e-6 and fx == 0.0

    def test_best_point_is_the_next_centre(self):
        f, calls = recorded(OBJECTIVES["sin"])
        x, _ = zoom(f, 0.0, 1.0, 1e-9)
        for before, after in zip(calls, calls[1:]):
            values = np.sin(40.0 * before[0])
            assert after[0, ZOOM_POINTS // 2] == before[0, np.argmax(values)]
        assert x == calls[-1][0, np.argmax(np.sin(40.0 * calls[-1][0]))]

    def test_bracket_within_tolerance(self):
        # one round, so that x* is an evaluated point
        f, calls = recorded(lambda x: -(x - 1.0) ** 2)
        x, _ = zoom(f, 1.0, 1.0 + 1e-9, 1e-6)
        assert len(calls) == 1 and 1.0 <= x <= 1.0 + 1e-9 and x in calls[0]

    def test_deterministic(self):
        f = lambda x, rows: np.sin(x) * x  # noqa: E731
        assert zoom(f, 1.0, 3.0, 1e-9) == zoom(f, 1.0, 3.0, 1e-9)

    def test_rows_match_one_row_calls(self):
        # brackets of different widths converge after different rounds
        a = np.array([0.0, -3e-4, 2.0, 0.25, -1.0])
        b = np.array([1.0, 2e-4, 3.0, 0.25 + 1e-3, 5.0])
        peak = np.array([0.3, -1e-4, 2.0, 0.2505, 1.7])
        calls = []

        def f(x, rows):
            calls.append(rows.copy())
            return np.sin(40.0 * x) - (x - peak[rows, None]) ** 2

        x, fx = zoom_max(f, a, b, 1e-9)
        assert len({rows.size for rows in calls}) > 1  # rows froze on the way
        for i in range(a.size):
            x_one, fx_one = zoom_max(
                lambda t, rows, i=i: f(t, np.full(rows.size, i)), a[i : i + 1], b[i : i + 1],
                1e-9)
            assert (x[i], fx[i]) == (x_one[0], fx_one[0])


def batch(p, dp):
    """An evaluate callable on the objective p with slope dp: (t*, p*) per
    point with t* = 2 x, and dp alone when given the points' t* (``at``);
    and the list of its calls: the row count of a first-arrival call,
    (row count, "at") of a slope call."""
    calls = []

    def evaluate(xs, at=None):
        xs = np.asarray(list(xs), dtype=float)
        if at is not None:
            # the slopes are taken at the t* an earlier call found
            assert np.array_equal(at, 2.0 * xs)
            calls.append((xs.size, "at"))
            return np.array([dp(x) for x in xs])
        calls.append(xs.size)
        return 2.0 * xs, np.array([p(x) for x in xs])

    return evaluate, calls


def evaluated(calls):
    """The points whose first arrival a list of calls evaluated: every
    call but the slopes at known arrivals."""
    return sum(call for call in calls if type(call) is int)


def refine_steps(calls):
    """The number of slope-refine steps in a list of calls, asserting that
    each is a one-point first arrival followed by its slope."""
    assert calls == [1, (1, "at")] * (len(calls) // 2)
    return len(calls) // 2


class TestScanAndRefine:
    def test_refines_inside_the_best_cells(self):
        evaluate, calls = batch(lambda x: 1.0 - (x - 0.23) ** 2, lambda x: -2.0 * (x - 0.23))
        x, p, t, on_boundary, n = scan_and_refine(evaluate, np.linspace(0.0, 1.0, 11), 1e-8)
        assert abs(x - 0.23) <= 2e-8 and on_boundary is False
        # p* and t* are those of the evaluated point x*, as Python floats
        assert (p, t) == (1.0 - (x - 0.23) ** 2, 2.0 * x)
        assert all(type(v) is float for v in (x, p, t))
        # the scan, the slopes at the best sample and its neighbours at
        # their scanned t*, then one point per refine step: a secant step on
        # a linear slope is exact
        assert calls[:2] == [11, (3, "at")] and 1 <= refine_steps(calls[2:]) <= 2
        assert n == evaluated(calls)

    def test_ties_go_to_the_smaller_magnitude(self):
        evaluate, _ = batch(lambda x: 1.0, lambda x: 0.0)
        # a zero slope keeps the best sample as x*
        grid = np.array([-3.0, -1.0, 0.5, 2.0])
        assert scan_and_refine(evaluate, grid, 1e-6)[::3] == (0.5, False)
        assert scan_and_refine(evaluate, grid[::-1].copy(), 1e-6)[::3] == (0.5, False)
        # the smallest |x| at an end of the grid is an end optimum
        grid = np.array([0.0, 1.0, 2.0])
        assert scan_and_refine(evaluate, grid, 1e-6)[::3] == (0.0, True)

    def test_one_point_grid(self):
        evaluate, calls = batch(lambda x: -x, lambda x: -1.0)
        found = scan_and_refine(evaluate, np.array([0.4]), 1e-6)
        # the one point is the first and the last point of its grid
        assert found == (0.4, -0.4, 0.8, True, 1) and found[3] is True
        # the point's slope points out of its one-point grid: no refine
        assert calls == [1, (1, "at")]

    @pytest.mark.parametrize("p,dp,end", [
        (lambda x: x, lambda x: 1.0, 1.0),
        (lambda x: -x, lambda x: -1.0, -0.5),
    ])
    def test_end_sample_sloping_out_is_the_optimum(self, p, dp, end):
        evaluate, calls = batch(p, dp)
        x, px, t, on_boundary, n = scan_and_refine(evaluate, np.linspace(-0.5, 1.0, 16), 1e-8)
        # exactly the end sample, with no refine evaluation
        assert (x, px, t) == (end, p(end), 2.0 * end) and on_boundary is True
        assert calls == [16, (2, "at")] and n == 16

    @pytest.mark.parametrize("x_max", [0.03, 0.97])
    def test_refine_from_an_end_sample_is_interior(self, x_max):
        # the best sample is an end of the grid, but its slope points
        # inwards: the optimum is refined inside the first or last cell and
        # is not on the boundary
        evaluate, calls = batch(lambda x: 1.0 - (x - x_max) ** 2, lambda x: -2.0 * (x - x_max))
        x, _, _, on_boundary, _ = scan_and_refine(evaluate, np.linspace(0.0, 1.0, 11), 1e-8)
        assert calls[1] == (2, "at")  # the end sample and its one neighbour
        assert abs(x - x_max) <= 2e-8 and on_boundary is False

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
            steps = refine_steps(calls[2:])
            assert 1 <= steps <= 5 and n == 9 + steps

    def test_jump_falls_back_to_zoom(self):
        # p* rises on both sides of a drop at x = 0.45: no slope changes
        # sign, and the supremum is the left limit of the drop
        evaluate, calls = batch(lambda x: x if x < 0.45 else x - 1.0, lambda x: 1.0)
        x, p, t, on_boundary, n = scan_and_refine(evaluate, np.linspace(0.0, 1.0, 11), 1e-8)
        # the zoom runs over the cells around the best sample 0.4
        assert on_boundary is False and 0.45 - 1e-7 <= x < 0.45
        # p* and t* are those of the evaluated point x*, as Python floats
        assert (p, t) == (x, 2.0 * x) and all(type(v) is float for v in (x, p, t))
        assert n == evaluated(calls)
        # the zoom evaluates ZOOM_POINTS points per call
        assert calls[:2] == [11, (3, "at")]
        assert set(calls[2:]) == {ZOOM_POINTS}

    @pytest.mark.parametrize("p,x_max", [
        (lambda x: 1.0 - (x - 0.23) ** 2, 0.23),
        (lambda x: -x, 0.0),  # an end sample: a NaN slope points nowhere
    ])
    def test_nan_slope_falls_back_to_zoom(self, p, x_max):
        evaluate, calls = batch(p, lambda x: math.nan)
        x, _, _, _, n = scan_and_refine(evaluate, np.linspace(0.0, 1.0, 11), 1e-8)
        assert abs(x - x_max) <= 2e-8
        assert calls[1][1] == "at" and set(calls[2:]) == {ZOOM_POINTS}
        assert n == evaluated(calls)

    def test_nan_slope_in_the_refine_falls_back_to_zoom(self):
        # finite slopes at the samples, NaN inside the bracket
        def dp(x):
            return -2.0 * (x - 0.23) if round(10.0 * x, 9).is_integer() else math.nan

        evaluate, calls = batch(lambda x: 1.0 - (x - 0.23) ** 2, dp)
        x, _, _, _, n = scan_and_refine(evaluate, np.linspace(0.0, 1.0, 11), 1e-8)
        assert abs(x - 0.23) <= 2e-8
        assert calls[:4] == [11, (3, "at"), 1, (1, "at")]
        assert set(calls[4:]) == {ZOOM_POINTS}
        assert n == evaluated(calls)

    def test_widen_rescans_then_refines_once(self):
        evaluate, calls = batch(lambda x: -(x + 2.5) ** 2, lambda x: -2.0 * (x + 2.5))
        grids = []

        def widen(grid, best):
            grids.append((grid[0], grid[-1], best))
            return np.linspace(grid[0] - 1.0, grid[-1], 5) if best == 0 else None

        x, _, _, on_boundary, n = scan_and_refine(
            evaluate, np.linspace(0.0, 1.0, 5), 1e-8, widen)
        assert abs(x + 2.5) <= 2e-8 and on_boundary is False
        assert [g[:2] for g in grids] == [(0.0, 1.0), (-1.0, 1.0), (-2.0, 1.0), (-3.0, 1.0)]
        # the last grid's best sample -2 is interior
        assert grids[-1][2] == 1
        # four scans, then the slopes and every refine step after them
        assert calls[:5] == [5] * 4 + [(3, "at")]
        assert refine_steps(calls[5:]) >= 1
        assert n == evaluated(calls)
