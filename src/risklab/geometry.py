"""Convex-geometry primitives used throughout the laboratory.

Belief sets as polytopes on the probability simplex, their distances,
membership tests and exact relative simplex volumes; the Brunn-Minkowski
check on boxes and balls, whose volumes are exact; and the exact
spherical-cap fraction that the ``lemma1`` rows compare with the separation
bound.

Every point and set distance is one nearest-point problem, solved by
Wolfe's min-norm-point algorithm: exact on its final corral, finite, and
stopped on a Frank-Wolfe certificate rather than on an iteration budget.

Conventions
-----------
* A :class:`Polytope` is a set of priors: the convex hull of at least one
  vertex on the standard probability simplex.  Its optional half-spaces cut
  the same set out of the simplex and serve batch membership tests.
* :class:`Ball` and :class:`Box` serve the Brunn-Minkowski check,
  :class:`HalfSpace` membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bounds, special


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
    """Axis-aligned box [lower_1, upper_1] x ... x [lower_d, upper_d], or a stack of them.

    ``lower`` and ``upper`` are d-vectors, or (n, d) arrays whose row k
    bounds box k; :func:`bm_check` works on a stack row by row.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim not in (1, 2):
            raise ValueError("box bounds must be matching d-vectors or (n, d) stacks")
        if np.any(hi < lo):
            raise ValueError("empty set: upper < lower")

    @property
    def dim(self) -> int:
        return self.lower.shape[-1]

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
        x = p.ravel()
        if not x @ x > 0:  # ||p||^2, as np.linalg.norm sums it
            raise ValueError("half-space normal must be nonzero")
        if not (np.isfinite(p).all() and np.isfinite(self.offset)):
            raise ValueError("half-space normal and offset must be finite")

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
        v = np.asarray(self.vertices, dtype=float)
        v = v if v.ndim > 1 else v.reshape(1, -1)  # a single point is one vertex
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
        keep = ~done
        if done.any():
            out[live[done]] = lam[done]
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
            if ok.all():
                break
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
    # the corral sizes above 1 in ascending order; np.unique would import numpy.ma
    for k in np.flatnonzero(np.bincount(size)[2:]) + 2:
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


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def distance_point_to_convex(x: np.ndarray, P: Polytope) -> float | np.ndarray:
    """Euclidean distance inf_{a in P} ||x - a||; zero iff x lies in P.

    A point gives a float and an (n, d) batch an (n,) array.  Each row's
    nearest point y is certified: max over the vertices v of (x - y).(v - y)
    is at rounding level.
    """
    X = np.atleast_2d(np.asarray(x, dtype=float))
    lam = _min_norm_weights(P.vertices[None, :, :] - X[:, None, :])
    dist = np.linalg.norm(X - lam @ P.vertices, axis=-1)
    return float(dist[0]) if np.ndim(x) == 1 else dist


def polytope_distance(pairs) -> list[DistanceCertificate]:
    """Distance between each pair (P, Q) of polytopes, with the pair (a*, b*) realizing it.

    The least-norm point of P - Q, the hull of the vertex differences
    a_i - b_j, is a* - b*; its pair weights split into the weights of a*
    over P's vertices and of b* over Q's.  Pairs with the same number of
    differences in the same dimension are solved in one lock-step
    :func:`_min_norm_weights` call.  A single pair is a batch of one, and
    certificate k has the bits of pair k solved alone.
    """
    diffs = [(P.vertices[:, None, :] - Q.vertices[None, :, :]).reshape(-1, P.dim)
             for P, Q in pairs]
    groups: dict[tuple[int, int], list[int]] = {}
    for k, D in enumerate(diffs):
        groups.setdefault(D.shape, []).append(k)
    weights = {}
    for ks in groups.values():
        weights.update(zip(ks, _min_norm_weights(np.stack([diffs[k] for k in ks]))))
    certs = []
    for k, (P, Q) in enumerate(pairs):
        w = weights[k].reshape(len(P.vertices), len(Q.vertices))
        a, b = w.sum(axis=1) @ P.vertices, w.sum(axis=0) @ Q.vertices
        certs.append(DistanceCertificate(float(np.linalg.norm(a - b)), a, b))
    return certs


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
# volumes
# ---------------------------------------------------------------------------


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
# Brunn-Minkowski check and the separation bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BMCheckResult:
    """Both sides of the Brunn-Minkowski comparison for lam*A + (1-lam)*B.

    ``lhs``/``rhs`` are the multiplicative (dimension-free) sides
    Vol(combination) vs Vol(A)^lam * Vol(B)^(1-lam); ``lhs_root``/``rhs_root``
    are the additive 1/d-power sides.  The multiplicative form binds only for
    equal-volume homothetic pairs, the additive form for all homothetic pairs.
    A stack of pairs gives (n,) arrays, entry k pair k's.
    """

    lhs: float | np.ndarray
    rhs: float | np.ndarray
    holds: bool | np.ndarray
    lhs_root: float | np.ndarray
    rhs_root: float | np.ndarray
    root_equality: bool | np.ndarray


def bm_check(A, B, lam, rel_tol: float = 1e-12) -> BMCheckResult:
    """Evaluate the Brunn-Minkowski inequality on exactly-computable pairs.

    A and B are two balls, two boxes, or two stacks of n boxes in the same
    dimension with lam a scalar or an (n,) array; a stack is decided in one
    pass and gives (n,) fields.  A single pair is computed as a stack of one
    and its fields returned as Python scalars, so pair k of a stack gets the
    same bits as pair k checked alone.  The volumes are exact: a box's is
    its side product, a ball's the Gamma formula; other bodies are refused.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all((lam >= 0.0) & (lam <= 1.0)):
        raise ValueError("lambda must lie in [0, 1]")
    # the volumes of A, B and lam*A + (1-lam)*B; a single pair's as arrays of one: its
    # powers then run numpy's array loop, as a stack's do, not the scalar pow that can
    # differ from it in the last bit
    if isinstance(A, Box) and isinstance(B, Box):
        w = lam[..., None]
        sides = (w * A.upper + (1 - w) * B.upper) - (w * A.lower + (1 - w) * B.lower)
        vol_a, vol_b, vol_c = (np.atleast_1d(np.prod(x, axis=-1))
                               for x in (A.sides, B.sides, sides))
    elif isinstance(A, Ball) and isinstance(B, Ball) and A.dim == B.dim:
        radii = (A.radius, B.radius, lam * A.radius + (1 - lam) * B.radius)
        vol_a, vol_b, vol_c = (np.atleast_1d(np.exp(bounds.log_ball_volume_m(A.dim, r)))
                               for r in radii)
    else:
        raise ValueError(f"no exact Brunn-Minkowski check for {type(A).__name__} "
                         f"and {type(B).__name__}; it needs two boxes or two balls")
    rhs = vol_a**lam * vol_b ** (1.0 - lam)
    d = A.dim
    lhs_root = vol_c ** (1.0 / d)
    rhs_root = lam * vol_a ** (1.0 / d) + (1.0 - lam) * vol_b ** (1.0 / d)
    scale = np.maximum(np.maximum(lhs_root, rhs_root), 1.0)
    # in BMCheckResult's field order: lhs, rhs, holds, lhs_root, rhs_root, root_equality
    fields = (vol_c, rhs, vol_c >= rhs * (1.0 - rel_tol), lhs_root, rhs_root,
              np.abs(lhs_root - rhs_root) <= rel_tol * scale)
    if not (isinstance(A, Box) and A.lower.ndim == 2):
        fields = (v.item() for v in fields)
    return BMCheckResult(*fields)


# the name stays because the benchmark tracer patches it, until its refresh (ROADMAP 5(a))
def separation_bound_check(delta: float, d: int, r: float = 1.0) -> tuple[float, float]:
    """(exact, bound) for the caps {z_1 >= delta/2} and {z_1 <= -delta/2} of Ball_d(r).

    The caps lie delta apart and have equal mass; ``exact`` is that mass as a
    fraction of the ball, 0.5 I_{1 - (delta/2r)^2}((d+1)/2, 1/2) by the
    regularized incomplete beta function (:func:`special.cap_fraction`, 0
    once delta/2 exceeds r), and ``bound`` is :func:`bounds.bound_lemma1`,
    which Lemma 1 puts above it and which refuses delta < 0, r <= 0 and d < 1.
    """
    bound = bounds.bound_lemma1(delta, r, d)
    return special.cap_fraction(d, 1.0 - (delta / 2.0 / r) ** 2), bound
