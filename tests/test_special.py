"""Accuracy of risklab.special over the domains the runners serve, with scipy as the oracle.

Every value must lie within 1e-12 relative of scipy's.  scipy is not
exact either: its incomplete gamma function at a > 900 and x/a near 0.3 is
off by up to 2.2e-12, and its hyp1f1 by up to 8e-13 at small a and x near
80.  Where the two differ by more than 1e-12, mpmath at 30 digits referees:
the value must then lie within 1e-12 of the true one and closer to it than
scipy's.  Values below the normal floats carry fewer digits, so they
compare to within 1e-12 of the smallest normal float.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sc
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from risklab import economy, sampling, special

REL = 1e-12
TINY = np.finfo(float).tiny

dims = st.integers(1, 4000)
radii = st.floats(0.01, 40.0)
# the uniforms a block draws are multiples of 2^-53 in [0, 1)
near_zero = st.one_of(st.integers(1, 1000).map(lambda k: k * 2.0**-53),
                      st.floats(1e-300, 1e-3))
near_one = st.one_of(st.integers(1, 1000).map(lambda k: 1.0 - k * 2.0**-53),
                     st.floats(0.999, 1.0, exclude_max=True))


def _agrees(ours: float, ref: float) -> bool:
    return abs(ours - ref) <= REL * max(abs(ref), TINY)


def _assert_close(ours: float, ref: float, exact) -> None:
    """ours within REL of scipy's ref, or within REL of ``exact()`` and closer to it than ref."""
    if _agrees(ours, ref):
        return
    with mpmath.workdps(30):
        truth = float(exact())
    assert _agrees(ours, truth) and abs(ours - truth) < abs(ref - truth), (ours, ref, truth)


@settings(max_examples=300, deadline=None)
@given(dims, radii)
def test_ball_mass_matches_scipy(d, r):
    a, x = 0.5 * d, 0.5 * r * r
    _assert_close(sampling.restricted_gaussian_acceptance(d, r), sc.gammainc(a, x),
                  lambda: mpmath.gammainc(mpmath.mpf(a), 0, mpmath.mpf(x), regularized=True))


@settings(max_examples=300, deadline=None)
@given(dims, radii)
def test_kappa_mean_matches_scipy(d, r):
    a, x = 0.5 * d, 0.5 * r * r
    mean = special.kummer_mean(a, x)
    _assert_close(mean, sc.hyp1f1(a, a + 1.0, -x),
                  lambda: mpmath.hyp1f1(mpmath.mpf(a), mpmath.mpf(a) + 1, -mpmath.mpf(x)))
    if mean > 1.0 / np.finfo(float).max:
        assert sampling.gaussian_kappa_ratio(d, r) == 1.0 / mean


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(dims, radii, st.one_of(near_zero, near_one))
def test_radius_inverse_matches_scipy(d, r, u):
    a, x = 0.5 * d, 0.5 * r * r
    mass = sc.gammainc(a, x)
    # scipy takes p = u * mass as one float, which loses digits below the normal range
    assume(u * mass >= TINY)
    (ours,) = special.gammainc_inverse(a, x, np.array([u]))
    if u * mass <= 0.5:
        ref = sc.gammaincinv(a, u * mass)
    else:
        # above the median the inverse is taken of Q = 1 - u mass = (1 - u) + u Q(a, x)
        ref = sc.gammainccinv(a, (1.0 - u) + u * sc.gammaincc(a, x))
    assert _agrees(ours, ref), (ours, ref)


def test_radius_inverse_maps_zero_to_zero_and_one_to_the_radius():
    for d, r in ((1, 1.0), (8, 0.5), (100, 12.0), (2, 40.0)):
        a, x = 0.5 * d, 0.5 * r * r
        zero, top = special.gammainc_inverse(a, x, np.array([0.0, 1.0]))
        assert zero == 0.0 and top == x


@settings(max_examples=300, deadline=None)
@given(dims, st.floats(0.0, 1.0))
def test_cap_fraction_matches_scipy(d, x):
    a = 0.5 * (d + 1)
    _assert_close(special.cap_fraction(d, x), 0.5 * sc.betainc(a, 0.5, x),
                  lambda: mpmath.betainc(mpmath.mpf(a), 0.5, 0, mpmath.mpf(x), regularized=True) / 2)


@settings(max_examples=100, deadline=None)
@given(dims, st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=30))
def test_cap_height_matches_scipy(d, shares):
    p = np.array(shares)
    (ours,) = special.cap_height([d], p)
    ref = np.sqrt(sc.betaincinv(0.5, 0.5 * (d + 1), 1.0 - 2.0 * p))
    for t, t_ref in zip(ours, ref):
        assert _agrees(t, t_ref), (t, t_ref)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 200), st.floats(0.0, 1000.0))
def test_chi2_survival_matches_scipy(df, x):
    _assert_close(special.chi2_sf(df, x), sc.chdtrc(df, x),
                  lambda: mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                                          regularized=True))


@given(st.floats(-1000.0, 1000.0))
def test_expit_matches_scipy_and_warns_of_no_overflow(z):
    # the test suite turns warnings into errors, so an overflow warning fails here
    ours = float(economy._expit(np.array([z]))[0])
    assert math.isclose(ours, float(sc.expit(z)), rel_tol=4e-16)
