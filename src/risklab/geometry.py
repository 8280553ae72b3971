"""Convex-geometry primitives used throughout the laboratory.

Belief sets as polytopes on the probability simplex, their projections,
distances and membership tests; exact volumes of boxes and balls;
spherical-cap fractions; and the two checkers (Brunn-Minkowski, half-space
separation) that the concentration experiments lean on.

Conventions
-----------
* A :class:`Polytope` is a set of priors: the convex hull of at least one
  vertex on the standard probability simplex.  Its optional half-spaces cut
  the same set out of the simplex and serve batch membership tests.
* :class:`Ball` and :class:`Box` serve the volume and Brunn-Minkowski
  checks, :class:`HalfSpace` the separation check and membership.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import betainc, gammaln

from . import bounds

BOUNDARY_TOL = 1e-12
DISTANCE_TOL = 1e-8
PROJECTION_SWEEP_CAP = 100_000


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver exhausts its budget.

    Carries the best value found and a gap estimate so callers can decide
    whether the partial answer is still useful.
    """

    def __init__(self, message: str, value: float, gap: float):
        super().__init__(f"{message} (best value {value:.6g}, gap estimate {gap:.2e})")
        self.value = value
        self.gap = gap


# ---------------------------------------------------------------------------
# body types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    """Euclidean ball with the stated center and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        if self.center.ndim != 1 or self.center.size < 1:
            raise ValueError("ball center must be a d-vector, d >= 1")

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lower_1, upper_1] x ... x [lower_d, upper_d]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be matching d-vectors")
        if np.any(hi < lo):
            raise ValueError("empty set: upper < lower")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def sides(self) -> np.ndarray:
        return self.upper - self.lower


@dataclass(frozen=True)
class HalfSpace:
    """Half-space {x : p.x >= b} (orientation 'upper') or {x : p.x <= b} ('lower')."""

    normal: np.ndarray
    offset: float
    orientation: str = "upper"

    def __post_init__(self):
        p = np.asarray(self.normal, dtype=float)
        object.__setattr__(self, "normal", p)
        if not np.linalg.norm(p) > 0:
            raise ValueError("half-space normal must be nonzero")
        if self.orientation not in ("upper", "lower"):
            raise ValueError("orientation must be 'upper' or 'lower'")

    def unit_form(self) -> tuple[np.ndarray, float]:
        """Return (u, c) with the set written as {x : u.x >= c}, ||u|| = 1."""
        nrm = np.linalg.norm(self.normal)
        if self.orientation == "upper":
            return self.normal / nrm, self.offset / nrm
        return -self.normal / nrm, -self.offset / nrm

    def signed_slack(self, x: np.ndarray) -> np.ndarray:
        """u.x - c in the unit form; nonnegative iff x is in the half-space."""
        u, c = self.unit_form()
        return np.asarray(x, dtype=float) @ u - c


@dataclass(frozen=True)
class Polytope:
    """A set of priors: the convex hull of ``vertices``, which lie on the simplex.

    ``halfspaces`` optionally lists linear constraints that cut the same set
    out of the simplex; :func:`contains` tests a batch of points against them.
    """

    vertices: np.ndarray
    halfspaces: tuple[HalfSpace, ...] = ()

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if v.size == 0:
            raise ValueError("empty set: a polytope needs at least one vertex")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]


class DistanceCertificate(NamedTuple):
    value: float
    point_a: np.ndarray
    point_b: np.ndarray


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def _project_hull(
    x: np.ndarray,
    vertices: np.ndarray,
    iterations: int = 2000,
    gap_tol: float = 1e-15,
) -> np.ndarray:
    """Project x onto conv(vertices) by pairwise Frank-Wolfe with away steps.

    Minimizes 0.5*||y - x||^2 over the hull; the Frank-Wolfe dual gap bounds
    the objective error, so the returned point is certified to ``gap_tol``.
    """
    m = vertices.shape[0]
    if m == 1:
        return vertices[0].copy()
    w = np.full(m, 1.0 / m)
    y = w @ vertices
    for _ in range(iterations):
        grad = y - x
        scores = vertices @ grad
        i_fw = int(np.argmin(scores))
        gap = float((y @ grad) - scores[i_fw])
        if gap < gap_tol:
            break
        active = w > 1e-15
        i_aw = int(np.argmax(np.where(active, scores, -np.inf)))
        d_fw = vertices[i_fw] - y
        d_aw = y - vertices[i_aw]
        if -(d_fw @ grad) >= -(d_aw @ grad):
            direction, gamma_max, away = d_fw, 1.0, False
        else:
            denom_w = 1.0 - w[i_aw]
            if denom_w <= 1e-15:
                direction, gamma_max, away = d_fw, 1.0, False
            else:
                direction, gamma_max, away = d_aw, w[i_aw] / denom_w, True
        denom = direction @ direction
        if denom <= 0:
            break
        gamma = min(max(-(grad @ direction) / denom, 0.0), gamma_max)
        if gamma <= 0:
            break
        if away:
            w *= 1.0 + gamma
            w[i_aw] -= gamma
        else:
            w *= 1.0 - gamma
            w[i_fw] += gamma
        w = np.maximum(w, 0.0)
        w /= w.sum()
        y = w @ vertices
    return y


def project_point(x: np.ndarray, P: Polytope) -> np.ndarray:
    """Euclidean projection of x onto the polytope P."""
    return _project_hull(np.asarray(x, dtype=float), P.vertices)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def distance_point_to_convex(x: np.ndarray, P: Polytope) -> float:
    """Euclidean distance inf_{a in P} ||x - a||; zero iff x lies in P."""
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x - project_point(x, P)))


def halfspace_gap(upper: HalfSpace, lower: HalfSpace) -> float:
    """Distance (b2 - b1)/||p|| between parallel half-spaces {p.x >= b2}, {p.x <= b1}."""
    if upper.orientation != "upper" or lower.orientation != "lower":
        raise ValueError("expected an upper and a lower half-space, in that order")
    nu = upper.normal / np.linalg.norm(upper.normal)
    nl = lower.normal / np.linalg.norm(lower.normal)
    if not np.allclose(nu, nl, atol=1e-12):
        raise ValueError("not parallel")
    c_upper = upper.offset / np.linalg.norm(upper.normal)
    c_lower = lower.offset / np.linalg.norm(lower.normal)
    if c_upper <= c_lower:
        raise ValueError("overlapping half-spaces")
    return c_upper - c_lower


def polytope_distance(
    P: Polytope,
    Q: Polytope,
    tol: float = DISTANCE_TOL,
    iteration_cap: int = PROJECTION_SWEEP_CAP,
) -> DistanceCertificate:
    """Distance between two polytopes by alternating projections from their centroids.

    Returns the distance together with the certificate pair (a*, b*) realizing
    it.  Raises :class:`ConvergenceError` if the improvement has not levelled
    off within the iteration cap.
    """
    a = P.vertices.mean(axis=0)
    b = Q.vertices.mean(axis=0)
    prev = np.inf
    value = float(np.linalg.norm(a - b))
    for _ in range(iteration_cap):
        a = project_point(b, P)
        b = project_point(a, Q)
        value = float(np.linalg.norm(a - b))
        if prev - value < tol * 1e-4:
            return DistanceCertificate(value, a, b)
        prev = value
    raise ConvergenceError("polytope_distance did not converge", value, prev - value)


def contains(S, x: np.ndarray, tol: float = 1e-9) -> np.ndarray | bool:
    """Membership of x (a point or an (n, d) batch) in a HalfSpace or Polytope S.

    A polytope with half-spaces tests the simplex constraints and its
    half-spaces on the whole batch; a vertex-only polytope falls back to a
    hull-distance test point by point.
    """
    x = np.asarray(x, dtype=float)
    batched = x.ndim == 2
    pts = np.atleast_2d(x)
    if isinstance(S, HalfSpace):
        ok = S.signed_slack(pts) >= -tol
    elif isinstance(S, Polytope) and S.halfspaces:
        ok = np.all(pts >= -tol, axis=1) & (np.abs(pts.sum(axis=1) - 1.0) <= tol)
        for hs in S.halfspaces:
            ok &= hs.signed_slack(pts) >= -tol
    elif isinstance(S, Polytope):
        ok = np.array([distance_point_to_convex(p, S) <= tol for p in pts])
    else:
        raise TypeError(f"unsupported body type {type(S).__name__}")
    return ok if batched else bool(ok[0])


# ---------------------------------------------------------------------------
# Minkowski combination
# ---------------------------------------------------------------------------


def minkowski_combine(A, B, lam: float):
    """The Minkowski combination lam*A + (1-lam)*B of two boxes or two balls."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    if isinstance(A, Box) and isinstance(B, Box):
        return Box(lam * A.lower + (1 - lam) * B.lower, lam * A.upper + (1 - lam) * B.upper)
    if isinstance(A, Ball) and isinstance(B, Ball):
        return Ball(lam * A.center + (1 - lam) * B.center, lam * A.radius + (1 - lam) * B.radius)
    raise ValueError("unsupported representation combination for Minkowski sum")


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------


def log_ball_volume(d: int, r: float) -> float:
    """log Vol(B_d(r)) = d log r + (d/2) log pi - log Gamma(d/2 + 1)."""
    return d * np.log(r) + 0.5 * d * np.log(np.pi) - gammaln(0.5 * d + 1.0)


def volume(S) -> float:
    """Exact volume of a Box (side product) or Ball (Gamma formula); other bodies raise."""
    if isinstance(S, Box):
        return float(np.prod(S.sides))
    if isinstance(S, Ball):
        return float(np.exp(log_ball_volume(S.dim, S.radius)))
    raise ValueError(f"no exact volume for {type(S).__name__}")


# ---------------------------------------------------------------------------
# Brunn-Minkowski and separation checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BMCheckResult:
    """Both sides of the Brunn-Minkowski comparison for lam*A + (1-lam)*B.

    ``lhs``/``rhs`` are the multiplicative (dimension-free) sides
    Vol(combination) vs Vol(A)^lam * Vol(B)^(1-lam); ``lhs_root``/``rhs_root``
    are the additive 1/d-power sides.  The multiplicative form binds only for
    equal-volume homothetic pairs, the additive form for all homothetic pairs.
    """

    lhs: float
    rhs: float
    holds: bool
    lhs_root: float
    rhs_root: float
    root_equality: bool


def bm_check(A, B, lam: float, rel_tol: float = 1e-12) -> BMCheckResult:
    """Evaluate the Brunn-Minkowski inequality on an exactly-computable pair."""
    vol_a = volume(A)
    vol_b = volume(B)
    combo = minkowski_combine(A, B, lam)
    vol_c = volume(combo)
    rhs = vol_a**lam * vol_b ** (1.0 - lam)
    d = A.dim
    lhs_root = vol_c ** (1.0 / d)
    rhs_root = lam * vol_a ** (1.0 / d) + (1.0 - lam) * vol_b ** (1.0 / d)
    scale = max(lhs_root, rhs_root, 1.0)
    return BMCheckResult(
        lhs=vol_c,
        rhs=rhs,
        holds=vol_c >= rhs * (1.0 - rel_tol),
        lhs_root=lhs_root,
        rhs_root=rhs_root,
        root_equality=abs(lhs_root - rhs_root) <= rel_tol * scale,
    )


def cap_fraction(d: int, r: float, t: float) -> float:
    """Fraction of Vol(Ball_d(r)) lying in {z : u.z >= t} for a unit vector u.

    Computed through the regularized incomplete beta function:
    P(u.z >= t) = 0.5 * I_{1 - (t/r)^2}((d+1)/2, 1/2) for t in [0, r].
    Validated against MC and, for d=2, the circular-segment area formula.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if r <= 0:
        raise ValueError("r must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative; see signed_cap_fraction")
    if t > r:
        warnings.warn("cap height exceeds the radius: degenerate empty cap", RuntimeWarning)
        return 0.0
    x = 1.0 - (t / r) ** 2
    return float(0.5 * betainc(0.5 * (d + 1), 0.5, x))


def signed_cap_fraction(d: int, r: float, t: float) -> float:
    """Symmetric extension of :func:`cap_fraction` to t in [-r, r].

    Satisfies signed_cap_fraction(t) + signed_cap_fraction(-t) = 1 exactly.
    """
    if t >= 0:
        return cap_fraction(d, r, t)
    return 1.0 - cap_fraction(d, r, -t)


@dataclass(frozen=True)
class SeparationCheck:
    distance: float
    min_fraction: float
    bound: float
    holds: bool


def separation_bound_check(
    A: HalfSpace, B: HalfSpace, delta: float, ball: Ball
) -> SeparationCheck:
    """Check the separation volume bound min-fraction <= exp(-delta^2 d / 8 r^2).

    A and B are half-spaces, implicitly intersected with ``ball``; other
    bodies raise.  The separation hypothesis dist(A, B) >= delta is verified
    first from the half-space gap; violation is an error.  The fractions are
    exact cap fractions and the bound is :func:`bounds.bound_lemma1`.
    """
    if not (isinstance(A, HalfSpace) and isinstance(B, HalfSpace)):
        raise ValueError("separation check takes two half-spaces")
    d = ball.dim
    r = ball.radius
    bound = bounds.bound_lemma1(delta, r, d).value
    dist = halfspace_gap(A, B) if delta > 0 else 0.0
    if dist < delta - BOUNDARY_TOL:
        raise ValueError("hypothesis violated: dist(A, B) < delta")
    # In unit form both sets read {x : u.x >= c}; relative to the ball
    # center the cap height is c - u.center, clamped to [-r, r].
    fracs = []
    for hs in (A, B):
        u, c = hs.unit_form()
        height = min(max(c - float(u @ ball.center), -r), r)
        fracs.append(signed_cap_fraction(d, r, height))
    min_fraction = min(fracs)
    return SeparationCheck(dist, min_fraction, bound, min_fraction <= bound + BOUNDARY_TOL)
