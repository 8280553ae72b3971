"""Closed-form bound evaluators against hand-computed exponents."""

import math

import numpy as np
import pytest

from risklab import bounds

# e^{-5}: eps=0.1, tau=1, r=1 gives exponent 0.01 * d / 8 = 5 at d = 4000
E_MINUS_5 = math.exp(-5.0)
# ((1-0.9)/0.9)^2 * 4000 / 8 = (1/81) * 500 = 500/81
E_CRU_ANCHOR = math.exp(-500.0 / 81.0)


def test_thm1_anchor_value():
    value = bounds.bound_thm1(eps=0.1, tau=1.0, r=1.0, d=4000)
    assert value == pytest.approx(E_MINUS_5, rel=1e-14)
    assert f"{value:.4g}" == "0.006738"
    assert round(value * 100, 2) == 0.67


def test_cru_anchor_value():
    value = bounds.bound_cru(beta=0.9, r=1.0, d=4000)
    assert value == pytest.approx(E_CRU_ANCHOR, rel=1e-14)
    assert f"{value:.4g}" == "0.002085"
    assert round(value * 100, 2) == 0.21


def test_every_bound_is_a_float():
    values = [
        bounds.bound_thm1(0.1, 1.0, 1.0, np.int64(8)),
        bounds.bound_thm2(0.1, 1.0, 8),
        bounds.bound_cru(0.9, 1.0, 8),
        bounds.bound_thm4(0.1, 8),
        bounds.bound_lemma1(0.2, 1.0, 8),
    ]
    assert all(type(v) is float for v in values)


def test_thm1_kappa_prefactor_is_multiplicative():
    base = bounds.bound_thm1(0.2, 0.5, 1.0, 64)
    doubled = bounds.bound_thm1(0.2, 0.5, 1.0, 64, kappa=2.0)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


@pytest.mark.parametrize("eps,r,d", [(0.05, 1.0, 8), (0.3, 2.0, 100), (0.0, 0.7, 3)])
def test_thm2_is_thm1_at_unit_tau(eps, r, d):
    assert bounds.bound_thm2(eps, r, d) == bounds.bound_thm1(eps, 1.0, r, d)


def test_raw_value_may_exceed_one_but_clip_does_not():
    # the bound is not clipped to 1; a caller comparing a probability with it
    # reads the raw value
    assert bounds.bound_thm2(0.0, 1.0, 10, kappa=1.6) == pytest.approx(1.6)


def test_bounds_decrease_in_dimension():
    for fn, args in [
        (bounds.bound_thm1, (0.1, 1.0, 1.0)),
        (bounds.bound_thm2, (0.1, 1.0)),
        (bounds.bound_lemma1, (0.2, 1.0)),
        (bounds.bound_thm4, (0.1,)),
    ]:
        vals = [fn(*args, d) for d in (2, 8, 32, 128, 512)]
        assert all(a > b for a, b in zip(vals, vals[1:])), fn.__name__


def test_thm4_halves_at_zero_eps():
    assert bounds.bound_thm4(0.0, 7) == 0.5
    assert bounds.bound_thm4(0.1, 16, c=2.0) == pytest.approx(
        0.5 * math.exp(-2.0 * 0.1 * 4.0), rel=1e-12
    )


def test_underflow_keeps_log_value():
    # log(kappa) joins the exponent before the one exp, so a large kappa times
    # an exponential that underflows on its own still gives a nonzero product
    assert bounds.bound_thm2(0.9, 0.1, 10**6) == 0.0
    kappa, exponent = 1e300, 0.9**2 * 8000 / 8.0  # exp(-exponent) underflows alone
    assert kappa * math.exp(-exponent) == 0.0
    assert bounds.bound_thm1(0.9, 1.0, 1.0, 8000, kappa) == pytest.approx(
        math.exp(math.log(kappa) - exponent), rel=1e-12
    )


# ---------------------------------------------------------------------------
# width-bound prefactor and the volume floor
# ---------------------------------------------------------------------------


def test_prefactor_exact_at_d_1():
    # (2/alpha)(alpha/2)^{1/1} = 1 exactly
    assert bounds.prop7_prefactor(1) == pytest.approx(1.0, rel=1e-14)


def test_prefactor_peak_at_d_4():
    grid = bounds.prop7_prefactor(np.arange(1, 50))
    assert int(np.argmax(grid)) + 1 == 4
    # (2/alpha)(2 alpha)^{1/4}, alpha = sqrt(pi)(sqrt(3)-1), at 30-digit precision
    assert grid.max() == pytest.approx(1.956367206041929, rel=1e-12)


def test_prefactor_below_4_everywhere():
    assert bounds.prop7_prefactor_below_4(10**6)
    assert float(np.max(bounds.prop7_prefactor(np.arange(1, 10**5)))) < 4.0


def test_prefactor_rejects_bad_dimension():
    with pytest.raises(ValueError):
        bounds.prop7_prefactor(0)


@pytest.mark.parametrize("d,rho", [(2, 0.25), (5, 0.5), (10, 0.1)])
def test_ball_instance_slack_identity(d, rho):
    chk = bounds.width_floor_ball_instance(d, rho)
    assert chk.holds
    target = -(d - 1) * math.log(math.sqrt(3.0) - 1.0)
    assert chk.slack_log == pytest.approx(target, abs=1e-12)


def test_volume_floor_detects_too_small_volume():
    honest = bounds.width_floor_ball_instance(4, 0.3)
    starved = bounds.width_volume_floor(4, 0.6, honest.log_volume - 5.0)
    assert not starved.holds


def test_sharp_floor_dominates_loose_floor():
    for d in (2, 3, 8, 32):
        chk = bounds.width_floor_ball_instance(d, 0.2)
        assert chk.log_floor_sharp >= chk.log_floor - 1e-12


# ---------------------------------------------------------------------------
# error contracts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda: bounds.bound_thm1(1.0, 1.0, 1.0, 4),
        lambda: bounds.bound_thm1(-0.1, 1.0, 1.0, 4),
        lambda: bounds.bound_thm1(0.1, 0.0, 1.0, 4),
        lambda: bounds.bound_thm1(0.1, 1.0, -1.0, 4),
        lambda: bounds.bound_thm1(0.1, 1.0, 1.0, 0),
        lambda: bounds.bound_thm1(0.1, 1.0, 1.0, 4, kappa=0.5),
        lambda: bounds.bound_cru(1.5, 1.0, 4),
        lambda: bounds.bound_thm4(-0.1, 4),
        lambda: bounds.bound_thm4(0.1, 4, c=0.0),
        lambda: bounds.bound_lemma1(-0.2, 1.0, 4),
        lambda: bounds.bound_lemma1(0.2, 0.0, 4),
    ],
)
def test_domain_errors(call):
    with pytest.raises(ValueError):
        call()


def test_cru_zero_beta_message():
    with pytest.raises(ValueError, match="beta=0 has no finite margin"):
        bounds.bound_cru(0.0, 1.0, 4)
