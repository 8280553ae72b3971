"""Closed-form tail bounds that the lab's experiments compare against.

Each ``bound_*`` returns its bound as a float, evaluated in log space and
exponentiated last, so that a huge dimension underflows cleanly to 0.0.  A
bound may exceed 1 (kappa > 1 at epsilon near 0); callers compare estimates
against the raw value.  The width-bound prefactor and the constant-width
volume floor of the ``prop7`` checks are evaluated below them.

The decay-rate constant ``c`` of :func:`bound_thm4` is a universal constant
with no known numeric value; it is a named configuration parameter
defaulting to 1.0.  Experiments involving it validate decay shape and
c-independent statements only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

#: Default for the unknown universal decay constant.
DEFAULT_C = 1.0

#: sqrt(pi) * (sqrt(3) - 1), the width-bound prefactor base.
ALPHA = math.sqrt(math.pi) * (math.sqrt(3.0) - 1.0)


def _check(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def bound_thm1(eps: float, tau: float, r: float, d: int, kappa: float = 1.0) -> float:
    """kappa * exp(-eps^2 tau^2 d / (8 r^2)).

    Tail bound on the probability that a random feasible reallocation
    improves one agent whose utility is tau-Lipschitz on the relevant range,
    under a perturbation law with density bound kappa.
    """
    _check(0.0 <= eps < 1.0, "eps must lie in [0, 1)")
    _check(tau > 0, "tau must be positive")
    _check(r > 0, "r must be positive")
    _check(d >= 1, "d must be >= 1")
    _check(kappa >= 1.0, "kappa must be >= 1")
    return math.exp(math.log(kappa) - eps * eps * tau * tau * d / (8.0 * r * r))


def bound_thm2(eps: float, r: float, d: int, kappa: float = 1.0) -> float:
    """kappa * exp(-eps^2 d / (8 r^2)): the equilibrium-allocation tail bound.

    Identical to :func:`bound_thm1` at tau = 1; the Lipschitz factor is
    absorbed by the equilibrium normalization.
    """
    return bound_thm1(eps, 1.0, r, d, kappa)


def bound_cru(beta: float, r: float, d: int) -> float:
    """exp(-((1-beta)/beta)^2 d / (8 r^2)): tail bound for resource utilization beta.

    beta = 1 gives 1 (zero exponent, fully utilized resources); beta = 0 is a
    domain error (the scaling margin (1-beta)/beta diverges).
    """
    _check(0.0 < beta <= 1.0, "beta must lie in (0, 1]; beta=0 has no finite margin")
    _check(r > 0, "r must be positive")
    _check(d >= 1, "d must be >= 1")
    margin = (1.0 - beta) / beta
    return math.exp(-margin * margin * d / (8.0 * r * r))


def bound_thm4(eps: float, d: int, c: float = DEFAULT_C) -> float:
    """0.5 * exp(-c eps sqrt(d)): relative-volume bound for the smaller belief set."""
    _check(c > 0, "c must be positive")
    _check(eps >= 0, "eps must be nonnegative")
    _check(d >= 1, "d must be >= 1")
    return math.exp(math.log(0.5) - c * eps * math.sqrt(d))


def bound_lemma1(delta: float, r: float, d: int) -> float:
    """exp(-delta^2 d / (8 r^2)): mass bound for the less likely of two delta-separated sets."""
    _check(delta >= 0, "delta must be nonnegative")
    _check(r > 0, "r must be positive")
    _check(d >= 1, "d must be >= 1")
    return math.exp(-delta * delta * d / (8.0 * r * r))


# ---------------------------------------------------------------------------
# width-bound constant and the constant-width volume floor
# ---------------------------------------------------------------------------


def prop7_prefactor(d) -> float | np.ndarray:
    """(2/alpha) * (alpha d / 2)^(1/d) with alpha = sqrt(pi)(sqrt(3)-1).

    Accepts a scalar or an array of dimensions; evaluated in log space.
    The maximum over integers is at d = 4 (about 1.9564), comfortably
    below the constant 4 used in the prop7 bound.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d < 1):
        raise ValueError("d must be >= 1")
    log_pre = math.log(2.0 / ALPHA) + (math.log(ALPHA / 2.0) + np.log(d)) / d
    out = np.exp(log_pre)
    return float(out) if out.ndim == 0 else out


def prop7_prefactor_below_4(d_max: int = 10**6) -> bool:
    """Whether the prefactor stays <= 4 for every integer d in 1..d_max."""
    d = np.arange(1, d_max + 1, dtype=float)
    return bool(np.all(prop7_prefactor(d) <= 4.0))


def log_ball_volume_m(m: int, radius: float = 1.0) -> float:
    """log Vol of the m-dimensional Euclidean ball of the given radius."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    return 0.5 * m * math.log(math.pi) - gammaln(0.5 * m + 1.0) + m * math.log(radius)


@dataclass(frozen=True)
class WidthFloorCheck:
    """Constant-width volume floor evaluated on one instance (log scale).

    ``log_volume`` is the body's volume, ``log_floor_sharp`` uses the
    dimension-dependent factor (sqrt(3 + 2/d) - 1), ``log_floor`` the plain
    (sqrt(3) - 1).  ``slack_log`` = log_volume - log_floor (>= 0 when the
    floor holds).
    """

    d: int
    width: float
    log_volume: float
    log_floor_sharp: float
    log_floor: float

    @property
    def slack_log(self) -> float:
        return self.log_volume - self.log_floor

    @property
    def holds(self) -> bool:
        return self.log_volume >= self.log_floor_sharp - 1e-12 and self.slack_log >= -1e-12


def width_volume_floor(d: int, width: float, log_volume: float) -> WidthFloorCheck:
    """Check the constant-width volume floor for a (d-1)-surface body on the simplex.

    A constant-width body of width theta on the (d-1)-dimensional simplex
    surface has volume at least (sqrt(3 + 2/d) - 1)^(d-1) Vol(B^(d-1)(theta/2)),
    which is itself at least (sqrt(3) - 1)^(d-1) (theta/2)^(d-1) Vol(B^(d-1)).
    """
    if d < 2:
        raise ValueError("d must be >= 2 (the body lives on a (d-1)-surface)")
    if width <= 0:
        raise ValueError("width must be positive")
    m = d - 1
    log_floor_sharp = m * math.log(math.sqrt(3.0 + 2.0 / d) - 1.0) + log_ball_volume_m(
        m, 0.5 * width
    )
    log_floor = (
        m * math.log(math.sqrt(3.0) - 1.0) + m * math.log(0.5 * width) + log_ball_volume_m(m)
    )
    return WidthFloorCheck(d, width, log_volume, log_floor_sharp, log_floor)


def width_floor_ball_instance(d: int, rho: float) -> WidthFloorCheck:
    """The volume floor evaluated on a radius-rho ball (width 2 rho) in the surface.

    Ball instances meet the plain floor with slack exactly
    -(d-1) log(sqrt(3) - 1): equality up to the (sqrt(3)-1)^(d-1) factor.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    return width_volume_floor(d, 2.0 * rho, log_ball_volume_m(d - 1, rho))
