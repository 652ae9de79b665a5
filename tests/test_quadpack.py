"""The QAGS port against its oracle, ``scipy.integrate.quad``: values and
error estimates must be equal, bit for bit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from roughrenorm import quadpack


def _points(g):
    """``g`` of one float as the port's integrand, point by point."""
    return lambda x: np.frompyfunc(g, 1, 1)(x).astype(float)


# singular, oscillatory, peaked, kinked, step and zero integrands: between
# them they take every exit of dqagse, through the extrapolation, and flags
# 1, 2 and 4 (ier = 3 in scipy's numbering)
_BATTERY = {
    "inverse sqrt": lambda x: 1 / math.sqrt(x) if x > 0 else 0.0,
    "log": lambda x: math.log(x) if x > 0 else 0.0,
    "power -0.6": lambda x: abs(x - 0.25) ** -0.6 if x != 0.25 else 0.0,
    "sin(1/x)": lambda x: math.sin(1 / x) if x != 0 else 0.0,
    "1/x": lambda x: 1 / x if x != 0 else 0.0,
    "cos 50x": lambda x: math.cos(50 * x),
    "lorentz": lambda x: 1 / (1 + 1e4 * (x - 0.3) ** 2),
    "gauss": lambda x: math.exp(-100 * x * x),
    "bump": lambda x: math.exp(-1 / (1 - x * x)) if abs(x) < 1 else 0.0,
    "kink": lambda x: abs(x - 0.5),
    "step": lambda x: 1.0 if x > 0.3 else 0.0,
    "zero": lambda x: 0.0,
    "cubic": lambda x: x**3 - 2 * x,
}
_TOLERANCES = [(1.49e-8, 1.49e-8), (0.0, 1e-10), (1e-12, 0.0), (1e-3, 1e-3)]


def _both(g, a, b, **kw):
    """scipy's and the port's (value, error) and warning texts."""
    outcomes = []
    port = _points(g)
    for run in (lambda: integrate.quad(g, a, b, **kw), lambda: quadpack.quad(port, a, b, **kw)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcomes.append((run(), [str(w.message).split()[:5] for w in caught]))
    return outcomes


@pytest.mark.parametrize("name", sorted(_BATTERY))
def test_port_equals_scipy_quad_on_the_battery(name):
    g = _BATTERY[name]
    for a, b in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (0.0, 3.7)]:
        for limit in (1, 2, 3, 200):
            for epsabs, epsrel in _TOLERANCES:
                (want, said), (got, flagged) = _both(
                    g, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit
                )
                assert got == want, (a, b, limit, epsabs, epsrel)
                # one warning per flag, for the same flag
                assert flagged == said


@given(
    lo=st.floats(-10, 10),
    width=st.floats(1e-6, 20),
    flip=st.booleans(),
    coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=4),
    freq=st.floats(0, 30),
    tol=st.sampled_from(_TOLERANCES),
    limit=st.integers(1, 60),
)
@settings(max_examples=150, deadline=None)
def test_port_equals_scipy_quad_on_smooth_integrands(lo, width, flip, coeffs, freq, tol, limit):
    def g(x):
        return sum(c * x**k for k, c in enumerate(coeffs)) * math.cos(freq * x)

    a, b = (lo + width, lo) if flip else (lo, lo + width)
    (want, _), (got, _) = _both(g, a, b, epsabs=tol[0], epsrel=tol[1], limit=limit)
    assert got == want


@pytest.mark.parametrize("group", [2, quadpack._GROUP])
def test_a_batch_equals_its_integrals_one_at_a_time(group, monkeypatch):
    # the lockstep driver hands each integral its own panels and args, in
    # groups of integrals per rule call: a batch of Gaussians of widths s,
    # with an empty and a reversed interval among them, equals scipy's
    # integral of each
    monkeypatch.setattr(quadpack, "_GROUP", group)
    s = [0.01, 0.1, 1.0, 0.3, 0.05]
    a, b = [0.0, -1.0, 2.0, 0.5, 0.2], [1.0, 1.0, 2.0, -0.5, 4.0]
    gauss = np.frompyfunc(lambda x, s: math.exp(-x * x / s), 2, 1)
    values, errors = quadpack.quad(
        lambda x, s: gauss(x, s).astype(float), a, b, args=(s,), limit=100
    )
    assert values.shape == errors.shape == (5,)
    for k in range(5):
        want = integrate.quad(gauss, a[k], b[k], args=(s[k],), limit=100)
        assert (values[k], errors[k]) == want


def test_port_rejects_what_scipy_rejects():
    for kw in ({"epsabs": 0.0, "epsrel": 1e-20}, {"limit": 0}):
        with pytest.raises(ValueError):
            quadpack.quad(np.cos, 0.0, 1.0, **kw)
