"""Convex-geometry primitives used throughout the laboratory.

Belief sets as polytopes on the probability simplex, their projections,
distances, membership tests and exact relative simplex volumes; exact
volumes of boxes and balls and the Brunn-Minkowski check on them; and the
exact spherical-cap fraction that the ``lemma1`` rows compare with the
separation bound.

Every projection and set distance is one nearest-point problem, solved by
Wolfe's min-norm-point algorithm: exact on its final corral, finite, and
stopped on a Frank-Wolfe certificate rather than on an iteration budget.

Conventions
-----------
* A :class:`Polytope` is a set of priors: the convex hull of at least one
  vertex on the standard probability simplex.  Its optional half-spaces cut
  the same set out of the simplex and serve batch membership tests.
* :class:`Ball` and :class:`Box` serve the volume and Brunn-Minkowski
  checks, :class:`HalfSpace` membership.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import betainc

from . import bounds


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver exhausts its budget or a result is too close to call.

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
    """Half-space {x : p.x >= b}; negate both to write {x : p.x <= b}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        p = np.asarray(self.normal, dtype=float)
        object.__setattr__(self, "normal", p)
        if not np.linalg.norm(p) > 0:
            raise ValueError("half-space normal must be nonzero")

    def signed_slack(self, x: np.ndarray) -> np.ndarray:
        """u.x - c with the set written as {x : u.x >= c}, ||u|| = 1; >= 0 inside."""
        nrm = np.linalg.norm(self.normal)
        return np.asarray(x, dtype=float) @ (self.normal / nrm) - self.offset / nrm


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


def _min_norm_weights(G: np.ndarray) -> np.ndarray:
    """Weights of the least-norm point in the hull of each row's generators.

    ``G`` is (n, m, d); row k minimizes ||lam @ G[k]|| over weights lam >= 0
    summing to 1.  Wolfe's algorithm (P. Wolfe, "Finding the nearest point in
    a polytope", Math. Programming 11, 1976) runs on all rows in lock-step,
    and row k matches that row solved alone.  A major cycle adds to the
    row's corral the generator g minimizing z.g, where z = lam @ G; minor
    cycles solve the corral's affine least-norm problem exactly, in one
    batched solve, and drop generators whose weight would turn negative.  A
    row stops on its Frank-Wolfe certificate ||z||^2 - min z.g <= 1e-14
    max ||g||^2, when the new generator is already in its corral, or when a
    major cycle does not shrink ||z|| (a rounding stall).  The minor cycles
    work on the Gram matrix, which squares the corral's condition number, so
    each row's final corral is solved once more on its generators
    (:func:`_resolve_corrals`).  Returns (n, m).
    """
    n, m, _ = G.shape
    gram = G @ G.transpose(0, 2, 1)
    sq = np.einsum("nii->ni", gram)
    lam = np.zeros((n, m))
    lam[np.arange(n), np.argmin(sq, axis=1)] = 1.0
    out, live = lam.copy(), np.arange(n)
    tol, prev = 1e-14 * sq.max(axis=1), np.full(n, np.inf)
    while live.size:
        rows = np.arange(live.size)
        scores = np.einsum("nij,nj->ni", gram, lam)
        zz = np.einsum("ni,ni->n", lam, scores)
        j = np.argmin(scores, axis=1)
        corral = lam > 0
        done = (zz - scores[rows, j] <= tol) | corral[rows, j] | (zz >= prev)
        out[live[done]] = lam[done]
        keep = ~done
        live, gram, lam, corral, j, tol = (a[keep] for a in (live, gram, lam, corral, j, tol))
        prev = zz[keep]
        corral[np.arange(live.size), j] = True
        minor = np.arange(live.size)
        while minor.size:
            S, L = corral[minor], lam[minor]
            A = np.where(S[:, :, None] & S[:, None, :], gram[minor] + 1.0, np.eye(m))
            u = np.linalg.solve(A, S[:, :, None].astype(float))[:, :, 0]
            alpha = u / u.sum(axis=1, keepdims=True)
            bad = S & (alpha <= 0)
            ok = ~bad.any(axis=1)
            lam[minor[ok]] = alpha[ok]
            # move the others from lam towards alpha until a weight reaches zero
            S, L, alpha, bad, minor = S[~ok], L[~ok], alpha[~ok], bad[~ok], minor[~ok]
            ratio = np.divide(L, L - alpha, out=np.zeros_like(L), where=L > alpha)
            step = np.where(bad, ratio, np.inf)
            k = np.argmin(step, axis=1)
            L = L + step[np.arange(minor.size), k][:, None] * (alpha - L)
            L[np.arange(minor.size), k] = 0.0
            corral[minor] = S & (L > 0)
            lam[minor] = np.where(corral[minor], L, 0.0)
    return _resolve_corrals(G, out)


def _resolve_corrals(G: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``lam`` with each row's corral weights re-solved by QR on the corral's generators.

    With g0 the corral's first generator and D the differences g - g0 of the
    others, the affine least-norm point g0 + D mu solves the least-squares
    problem D mu = -g0, whose QR solution loses digits with the condition
    number of D rather than its square.  Rows are solved in one batch per
    corral size.  A row keeps its weights if a re-solved weight is not
    positive.
    """
    corral = lam > 0
    size = corral.sum(axis=1)
    for k in np.unique(size[size > 1]):
        rows = np.flatnonzero(size == k)
        cols = np.nonzero(corral[rows])[1].reshape(len(rows), k)
        gens = G[rows[:, None], cols]
        g0 = gens[:, 0, :]
        Q, R = np.linalg.qr((gens[:, 1:, :] - g0[:, None, :]).transpose(0, 2, 1))
        mu = -np.linalg.solve(R, Q.transpose(0, 2, 1) @ g0[:, :, None])[:, :, 0]
        w = np.concatenate([1.0 - mu.sum(axis=1, keepdims=True), mu], axis=1)
        ok = np.all(w > 0, axis=1)  # False on nan, and an inf weight forces a negative one
        lam[rows[ok, None], cols[ok]] = w[ok]  # weights off the corral stay 0
    return lam


def project_point(x: np.ndarray, P: Polytope) -> np.ndarray:
    """Euclidean projection onto P of a point, or of each row of an (n, d) batch.

    Each row is certified: max over the vertices v of (x - y).(v - y) is at
    rounding level for its projection y.
    """
    X = np.atleast_2d(np.asarray(x, dtype=float))
    lam = _min_norm_weights(P.vertices[None, :, :] - X[:, None, :])
    Y = lam @ P.vertices
    return Y[0] if np.ndim(x) == 1 else Y


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def distance_point_to_convex(x: np.ndarray, P: Polytope) -> float | np.ndarray:
    """Euclidean distance inf_{a in P} ||x - a||; zero iff x lies in P.

    A point gives a float and an (n, d) batch an (n,) array.
    """
    dist = np.linalg.norm(x - project_point(x, P), axis=-1)
    return float(dist) if np.ndim(x) == 1 else dist


def polytope_distance(P: Polytope, Q: Polytope) -> DistanceCertificate:
    """Distance between two polytopes, with the pair (a*, b*) realizing it.

    The least-norm point of P - Q, the hull of the vertex differences
    a_i - b_j, is a* - b*; its pair weights split into the weights of a*
    over P's vertices and of b* over Q's.
    """
    A, B = P.vertices, Q.vertices
    lam = _min_norm_weights((A[:, None, :] - B[None, :, :]).reshape(1, -1, P.dim))
    lam = lam.reshape(len(A), len(B))
    a, b = lam.sum(axis=1) @ A, lam.sum(axis=0) @ B
    return DistanceCertificate(float(np.linalg.norm(a - b)), a, b)


# no runner reaches contains; the name stays because the benchmark tracer patches it,
# until its refresh (ROADMAP 5(a))
def contains(S, x: np.ndarray, tol: float = 1e-9) -> np.ndarray | bool:
    """Membership of x (a point or an (n, d) batch) in a HalfSpace or Polytope S.

    A polytope with half-spaces tests the simplex constraints and its
    half-spaces on the whole batch; a vertex-only polytope tests the batch's
    certified hull distances.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(S, HalfSpace):
        ok = S.signed_slack(pts) >= -tol
    elif isinstance(S, Polytope) and S.halfspaces:
        ok = np.all(pts >= -tol, axis=1) & (np.abs(pts.sum(axis=1) - 1.0) <= tol)
        for hs in S.halfspaces:
            ok &= hs.signed_slack(pts) >= -tol
    elif isinstance(S, Polytope):
        ok = distance_point_to_convex(pts, S) <= tol
    else:
        raise TypeError(f"unsupported body type {type(S).__name__}")
    return ok if np.ndim(x) == 2 else bool(ok[0])


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


def volume(S) -> float:
    """Exact volume of a Box (side product) or Ball (Gamma formula); other bodies raise."""
    if isinstance(S, Box):
        return float(np.prod(S.sides))
    if isinstance(S, Ball):
        return float(np.exp(bounds.log_ball_volume_m(S.dim, S.radius)))
    raise ValueError(f"no exact volume for {type(S).__name__}")


def relative_volume(sets) -> float:
    """Exact share of the simplex's volume that the intersection of polytopes covers.

    * If any set's vertices span fewer than d - 1 affine dimensions (a
      proper face of a cap, a single prior), the intersection has volume 0.
    * Otherwise every half-space must bound one and the same coordinate k,
      so the intersection is the slab lo <= mu_k <= hi.  Under the uniform
      law on the simplex mu_k is Beta(1, d - 1), and the share is
      (1 - lo)^(d-1) - (1 - hi)^(d-1), clipped at 0.

    Any other intersection raises ValueError, among them a full-dimensional
    set given only by its vertices and half-spaces on two coordinates.
    """
    d = sets[0].dim
    for P in sets:
        V = P.vertices
        if len(V) < d or np.linalg.matrix_rank(V[1:] - V[0]) < d - 1:
            return 0.0
    lo, hi, coords = 0.0, 1.0, set()
    for P in sets:
        if not P.halfspaces:
            raise ValueError("no exact volume for a full-dimensional hull given only by vertices")
        for hs in P.halfspaces:
            k, *rest = np.flatnonzero(hs.normal)
            coords.add(int(k))
            if rest or len(coords) > 1:
                raise ValueError("exact volumes need every half-space on the same coordinate")
            bound = float(hs.offset) / float(hs.normal[k])
            if hs.normal[k] > 0:
                lo = max(lo, bound)
            else:
                hi = min(hi, bound)
    lo, hi = min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0)
    return max((1.0 - lo) ** (d - 1) - (1.0 - hi) ** (d - 1), 0.0)


# ---------------------------------------------------------------------------
# Brunn-Minkowski check and cap fractions
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
        raise ValueError("t must be nonnegative")
    if t > r:
        warnings.warn("cap height exceeds the radius: degenerate empty cap", RuntimeWarning)
        return 0.0
    x = 1.0 - (t / r) ** 2
    return float(0.5 * betainc(0.5 * (d + 1), 0.5, x))


# the name stays because the benchmark tracer patches it, until its refresh (ROADMAP 5(a))
def separation_bound_check(delta: float, d: int, r: float = 1.0) -> tuple[float, float]:
    """(exact, bound) for the caps {z_1 >= delta/2} and {z_1 <= -delta/2} of Ball_d(r).

    The caps lie delta apart and have equal mass; ``exact`` is that mass as a
    fraction of the ball, and ``bound`` is :func:`bounds.bound_lemma1`, which
    Lemma 1 puts above it.
    """
    return cap_fraction(d, r, delta / 2.0), bounds.bound_lemma1(delta, r, d)
