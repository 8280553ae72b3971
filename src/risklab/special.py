"""The special functions behind risklab's closed-form ball and cap masses.

Written with numpy and ``math`` only, and covering only the families the
runners reach:

- the regularized incomplete gamma function P(a, x) and its complement Q,
  at a = d/2: the Gaussian ball mass (:func:`gammainc`), the mean
  1F1(a; a+1; -x) behind the restricted Gaussian's density bound
  (:func:`kummer_mean`), the inverse that draws its radius
  (:func:`gammainc_inverse`) and the chi-square survival function
  (:func:`chi2_sf`);
- the cap fraction 0.5 I_x((d+1)/2, 1/2) of the unit ball
  (:func:`cap_fraction`) and the cap height that inverts it
  (:func:`cap_height`).

P(a, x) = x^a e^(-x) S(x) / Gamma(a+1), with the positive series
S(x) = sum_k x^k / (a+1)_k, is summed where x < a + 1.  Elsewhere Q comes
from its continued fraction (Numerical Recipes, 3rd ed., section 6.2), and
P = 1 - Q.  The prefix x^a e^(-x) / Gamma(a+1) is taken in log space, by
Stirling's series for a >= 10, so that no two terms of size a log a cancel.
The incomplete beta function is its continued fraction (section 6.4); the
cap heights integrate the cap's density by a Gauss-Legendre rule instead.
Each continued fraction is summed from the bottom up, at the depth where
Lentz's method converges.

The scalar functions run on Python floats.  The series and the gamma
fraction also take arrays, for the vectorized radius inverse: each array
runs the number of terms its slowest entry needs.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = 2.0**-52
_TINY = 1e-300
# B_2k / (2k (2k-1)), k = 1..7, the coefficients of Stirling's series for log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
# from here on that series, cut after a^-13, is exact to 3e-17
_STIRLING_FROM = 10.0
_MAX_TERMS = 10_000


def _stirling_tail(a: float) -> float:
    """log Gamma(a+1) - (a + 1/2) log a + a - log(2 pi) / 2, for a >= 10."""
    inv2 = 1.0 / (a * a)
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = acc * inv2 + c
    return acc / a


def _lgamma_shift(b: float, h: float) -> float:
    """log Gamma(b + h) - log Gamma(b), without two large logs cancelling when b >= 10."""
    if b < _STIRLING_FROM:
        return math.lgamma(b + h) - math.lgamma(b)
    return ((b - 0.5) * math.log1p(h / b) + h * math.log(b + h) - h
            + _stirling_tail(b + h) - _stirling_tail(b))


def _log_prefix(a: float, x):
    """log(x^a e^(-x) / Gamma(a+1)) at x > 0 (a float or an array)."""
    if a < _STIRLING_FROM:
        return a * np.log(x) - x - math.lgamma(a + 1.0)
    # a log(x/a) - (x - a), the log taken as log1p where x is near a
    shift = np.maximum((x - a) / a, -0.5)
    log_ratio = np.where(x < 0.5 * a, np.log(x / a), np.log1p(shift))
    return a * log_ratio - (x - a) - (_stirling_tail(a) + 0.5 * math.log(2.0 * math.pi * a))


def _series(a: float, x):
    """S(x) = sum_k x^k / (a+1)_k, for 0 <= x < a + 1.

    For an array, a term's share of the sum rises with x, so the terms the
    largest x needs serve every x; they are summed by Horner's rule, in
    place.
    """
    top = x if isinstance(x, float) else float(x.max())
    n, term, total = 0, 1.0, 1.0
    while term > _EPS * total:
        n += 1
        if n == _MAX_TERMS:
            raise ArithmeticError(f"incomplete gamma series did not converge at a={a}")
        term *= top / (a + n)
        total += term
    if x is top:
        return total
    acc = x / (a + n) + 1.0
    for k in range(n - 1, 0, -1):
        acc *= x
        acc /= a + k
        acc += 1.0
    return acc


def _nonzero(v: float) -> float:
    """Lentz's guard: a denominator that vanishes is replaced by a tiny one."""
    return v if abs(v) >= _TINY else _TINY


def _gamma_fraction_depth(a: float, x: float) -> int:
    """The depth at which Lentz's method converges on the fraction of :func:`_gamma_fraction`."""
    b = x + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / _nonzero(an * d + b)
        c = _nonzero(b + an / c)
        if abs(d * c - 1.0) <= _EPS:
            return i
    raise ArithmeticError(f"incomplete gamma continued fraction did not converge at a={a}")


def _gamma_fraction(a: float, x):
    """h with Q(a, x) = x^a e^(-x) h / Gamma(a), for x >= a + 1.

    h = 1 / (x+1-a - 1 (1-a) / (x+3-a - 2 (2-a) / (x+5-a - ...))), taken from
    the bottom up at the depth Lentz's method needs at the smallest x, which
    converges the slowest.
    """
    n = _gamma_fraction_depth(a, float(np.min(x)))
    t = x + (2 * n + 1 - a)
    for i in range(n, 0, -1):
        t = (x + (2 * i - 1 - a)) - i * (i - a) / t
    return 1.0 / t


def _log_q(a: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(log Q, prefix)`` at each entry of an array x > 0, prefix being :func:`_log_prefix`."""
    prefix = _log_prefix(a, x)
    log_q = np.empty_like(x)
    low = x < a + 1.0
    if low.any():
        log_q[low] = np.log1p(-np.exp(prefix[low] + np.log(_series(a, x[low]))))
    high = ~low
    if high.any():
        log_q[high] = prefix[high] + np.log(a * _gamma_fraction(a, x[high]))
    return log_q, prefix


def _log_pq_scalar(a: float, x: float) -> tuple[float, float]:
    """``(log P, log Q)`` at one x > 0."""
    prefix = float(_log_prefix(a, x))
    if x < a + 1.0:
        log_p = prefix + math.log(_series(a, x))
        return log_p, math.log1p(-math.exp(log_p))
    log_q = prefix + math.log(a * _gamma_fraction(a, x))
    return math.log1p(-math.exp(log_q)), log_q


def gammainc(a: float, x: float) -> float:
    """The regularized lower incomplete gamma function P(a, x), x >= 0."""
    return math.exp(_log_pq_scalar(a, x)[0]) if x > 0.0 else 0.0


def chi2_sf(df: int, x: float) -> float:
    """P(chi-square with df degrees of freedom > x) = Q(df/2, x/2)."""
    half = 0.5 * x
    return math.exp(_log_pq_scalar(0.5 * df, half)[1]) if half > 0.0 else 1.0


def kummer_mean(a: float, x: float) -> float:
    """1F1(a; a+1; -x) = e^(-x) S(x) = Gamma(a+1) x^(-a) e^(-x) P(a, x), x >= 0."""
    if x < a + 1.0:
        return math.exp(-x) * _series(a, x)
    log_p, _ = _log_pq_scalar(a, x)
    return math.exp(log_p - float(_log_prefix(a, x)) - x)


def gammainc_inverse(a: float, x_max: float, u: np.ndarray) -> np.ndarray:
    """x with P(a, x) = u P(a, x_max), elementwise over u in [0, 1].

    Newton on t = log x, where p = u P(a, x_max) <= 1/2 on log P and above
    on log Q (:func:`_upper_inverse`), against 1 - p = (1 - u) + u Q(a, x_max),
    a sum of two nonnegative terms, so that P near 1 loses no digits.  Both
    logs are concave in t (log x has a log-concave density), so each
    iteration converges monotonically from the side it starts on.  u = 0
    gives x = 0 and u = 1 gives x_max.
    """
    u = np.asarray(u, dtype=float)
    out = np.where(u >= 1.0, x_max, 0.0)
    log_mass, log_q_max = _log_pq_scalar(a, x_max)
    upper = u * math.exp(log_mass) > 0.5
    inside = (u > 0.0) & (u < 1.0)
    lower, upper = inside & ~upper, inside & upper
    if lower.any():
        out[lower] = _lower_inverse(a, x_max, log_mass, u[lower])
    if upper.any():
        v = u[upper]
        out[upper] = _upper_inverse(a, x_max, np.log((1.0 - v) + v * math.exp(log_q_max)))
    return out


def _lower_inverse(a: float, x_max: float, log_mass: float, u: np.ndarray) -> np.ndarray:
    """x with P(a, x) = u P(a, x_max) <= 1/2, for u > 0.

    P = x^a e^(-x) S(x) / Gamma(a+1), so the equation reads
    f = a (t - t_max) - (x - x_max) + log S(x) - log S(x_max) - log u = 0,
    Gamma(a+1) cancelled and no large term left.  f' = a / S, so the step
    is -f S / a.  The root lies below the median of P, which is below a + 1,
    so S is the series there.  The start log P <= a t - log Gamma(a+1)
    lies left of the root.
    """
    t_max = math.log(x_max)
    if x_max < a + 1.0:
        log_s_max = math.log(_series(a, x_max))
    else:
        log_s_max = log_mass - float(_log_prefix(a, x_max))
    log_u = np.log(u)
    t = np.minimum((log_u + log_mass + math.lgamma(a + 1.0)) / a, t_max)
    for _ in range(100):
        x = np.exp(t)
        s = _series(a, x)
        f = a * (t - t_max) - (x - x_max) + (np.log(s) - log_s_max) - log_u
        step = f * s / a
        t = t - step
        if np.all(np.abs(step) <= 2.0**-30):
            return np.exp(t)
    raise ArithmeticError(f"incomplete gamma inverse did not converge at a={a}")


def _upper_inverse(a: float, x_max: float, log_q: np.ndarray) -> np.ndarray:
    """x with log Q(a, x) = log_q, for Q(a, x_max) <= Q <= 1/2.

    d log Q / dt = -x^a e^(-x) / (Gamma(a) Q), so the step is
    (log Q - log_q) Q / (a e^prefix); started at x_max, right of the root.
    """
    t = np.full_like(log_q, math.log(x_max))
    for _ in range(100):
        log_q_t, prefix = _log_q(a, np.exp(t))
        step = (log_q_t - log_q) * np.exp(log_q_t - prefix) / a
        t = t + step
        if np.all(np.abs(step) <= 2.0**-30):
            return np.exp(t)
    raise ArithmeticError(f"incomplete gamma inverse did not converge at a={a}")


def _log_beta_half(b: float) -> float:
    """log B(1/2, b)."""
    return 0.5 * math.log(math.pi) - _lgamma_shift(b, 0.5)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) = x^a (1-x)^b h / (a B(a, b)), for x < (a + 1) / (a + b + 2).

    h = 1 / (1 + d_1 / (1 + d_2 / (1 + ...))), taken from the bottom up at the
    depth where Lentz's method converges, which rounds less than Lentz's
    running product.
    """
    qab, qap, qam = a + b, a + 1.0, a - 1.0

    def terms(m: int) -> tuple[float, float]:
        m2 = 2 * m
        return (m * (b - m) * x / ((qam + m2) * (a + m2)),
                -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)))

    first = -qab * x / qap
    c, d = 1.0, 1.0 / _nonzero(1.0 + first)
    for n in range(1, _MAX_TERMS):
        for aa in terms(n):
            d = 1.0 / _nonzero(1.0 + aa * d)
            c = _nonzero(1.0 + aa / c)
        if abs(d * c - 1.0) <= _EPS:
            break
    else:
        raise ArithmeticError(f"incomplete beta continued fraction did not converge at a={a}, b={b}")
    t = 1.0
    for m in range(n, 0, -1):
        even, odd = terms(m)
        t = 1.0 + even / (1.0 + odd / t)
    return 1.0 / (1.0 + first / t)


def cap_fraction(d: int, x: float) -> float:
    """0.5 I_x((d+1)/2, 1/2): the share of the unit d-ball above the height sqrt(1 - x)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 0.5
    a = 0.5 * (d + 1)
    log_front = a * math.log(x) + 0.5 * math.log1p(-x) - _log_beta_half(a)
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * math.exp(log_front) * _beta_fraction(a, 0.5, x) / a
    return 0.5 - math.exp(log_front) * _beta_fraction(0.5, a, 1.0 - x)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1] (Golub-Welsch)."""
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vectors[0] ** 2


# the cap integral is entire, and 16 nodes integrate it to rounding for d <= 4000
_CAP_NODES, _CAP_WEIGHTS = _gauss_legendre(16)


def cap_height(dims, p: np.ndarray) -> np.ndarray:
    """Heights t in [0, 1) whose caps {z_1 >= t} hold the shares p in (0, 1/2] of the unit ball.

    Returns a (len(dims), len(p)) array, row i for the ball of dimension
    dims[i].  With t = sin(phi), the slab {0 <= z_1 <= t} of the d-ball
    holds G(phi) = int_0^phi cos^d(s) ds / B(1/2, (d+1)/2), an entire
    integrand that a Gauss-Legendre rule integrates to rounding; a few rule
    evaluations over every cut cost less than one continued fraction per
    cut.  cos^d is taken as exp(d/2 log1p(-sin^2)), whose rounding does not
    grow with d.  G is concave on [0, pi/2], so Newton from phi = 0 rises
    to the root of G = 1/2 - p monotonically.
    """
    half_d = 0.5 * np.asarray(dims, dtype=float)[:, None]
    scale = np.array([[math.exp(-_log_beta_half(0.5 * (d + 1)))] for d in dims])
    target = 0.5 - np.asarray(p, dtype=float)[None, :]
    phi = np.zeros((len(dims), target.shape[1]))
    for _ in range(100):
        s = 0.5 * phi[..., None] * (1.0 + _CAP_NODES)
        cos_d = np.exp(half_d[..., None] * np.log1p(-np.sin(s) ** 2))
        slab = 0.5 * phi * scale * (cos_d @ _CAP_WEIGHTS)
        step = (target - slab) / (scale * np.exp(half_d * np.log1p(-np.sin(phi) ** 2)))
        phi = phi + step
        if np.all(np.abs(step) <= 2.0**-30 * phi):
            return np.sin(phi)
    raise ArithmeticError(f"cap heights did not converge for dims {tuple(dims)}")
