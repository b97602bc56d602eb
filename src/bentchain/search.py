"""Deterministic bracketed searches: golden-section maximization and
Brent's root finder."""

from __future__ import annotations

import math
import sys

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
EPS = sys.float_info.epsilon


def golden_max(f, a: float, b: float, tol: float):
    """Maximize f on [a, b]; returns (x*, f(x*), n_evals).

    Shrinks the bracket until its width is below ``tol``; deterministic for
    identical inputs.
    """
    if b < a:
        a, b = b, a
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x), 1
    c = a + INVPHI2 * h
    d = a + INVPHI * h
    fc = f(c)
    fd = f(d)
    n_evals = 2
    while h > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INVPHI * h
            fd = f(d)
        n_evals += 1
    if fc > fd:
        return c, fc, n_evals
    return d, fd, n_evals


def brent_root(f, a: float, b: float, fa: float, fb: float, tol: float) -> float:
    """Root of f in [a, b], given fa = f(a) and fb = f(b) of opposite signs.

    Brent's method (Brent 1973, ch. 4): inverse quadratic or secant steps,
    falling back to bisection whenever a step would not shrink the bracket
    fast enough.  The returned point lies within ``tol`` of a sign change of
    f; deterministic for identical inputs.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    # b is the best estimate, c the other end of the bracket, a the previous b
    c, fc = a, fa
    step = prev_step = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            step = prev_step = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        half_tol = 2.0 * EPS * abs(b) + 0.5 * tol
        mid = 0.5 * (c - b)
        if fb == 0.0 or abs(mid) <= half_tol:
            return b
        if abs(prev_step) >= half_tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * mid * s, 1.0 - s
            else:  # inverse quadratic interpolation
                qa, r = fa / fc, fb / fc
                p = s * (2.0 * mid * qa * (qa - r) - (b - a) * (r - 1.0))
                q = (qa - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * mid * q - abs(half_tol * q), abs(prev_step * q)):
                prev_step, step = step, p / q
            else:
                prev_step = step = mid
        else:
            prev_step = step = mid
        a, fa = b, fb
        b += step if abs(step) > half_tol else math.copysign(half_tol, mid)
        fb = f(b)
