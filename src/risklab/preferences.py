"""Convex, monotone preference families over state-contingent payoffs.

Three families are implemented, each a frozen dataclass:

* :class:`CobbDouglasEU` — expected log utility with prior weights.
* :class:`CRRASEU` — subjective expected utility with constant relative risk
  aversion ``gamma`` (log at gamma = 1, risk-neutral at gamma = 0).
* :class:`MaxMinEU` — worst-case expected utility over a polytope of priors
  given in V-representation, with a linear or log Bernoulli index.

Acts are plain numpy arrays; every query accepts a single act of shape (d,)
or a batch of shape (n, d) and vectorizes over the batch.  Strict preference
uses the tolerance ``TOL_STRICT`` to separate genuine ties from float noise.

Belief sets are the supporting priors of an upper contour set; the joint
delta-extension emptiness test decides a pair of them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry

TOL_STRICT = 1e-10
#: Prior vertices within this of the worst-case value join the supporting face.
MEU_FACE_TOL = 1e-10
_PRIOR_TOL = 1e-12
_BOUNDARY_GUARD = 1e-9


def _as_prior(mu, strictly_positive: bool) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size < 2:
        raise ValueError("prior must be a vector over at least 2 states")
    if not np.all(np.isfinite(mu)):
        raise ValueError("prior must be finite")
    if abs(mu.sum() - 1.0) > _PRIOR_TOL:
        raise ValueError("prior must sum to 1 within 1e-12")
    if strictly_positive:
        if np.any(mu <= 0):
            raise ValueError("this preference family requires a strictly positive prior")
    elif np.any(mu < 0):
        raise ValueError("prior must be nonnegative")
    mu.flags.writeable = False
    return mu


def _acts(f, d: int) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape[-1] != d:
        raise ValueError(f"act has {f.shape[-1]} states, preference expects {d}")
    return f


@dataclass(frozen=True, eq=False)
class CobbDouglasEU:
    """Expected log utility sum_s mu_s ln f_s; strictly positive prior."""

    prior: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "prior", _as_prior(self.prior, strictly_positive=True))

    @property
    def dim(self) -> int:
        return self.prior.size

    def in_domain(self, f) -> np.ndarray:
        f = _acts(f, self.dim)
        return np.all(f > 0, axis=-1)

    def utility(self, f):
        f = _acts(f, self.dim)
        if not np.all(self.in_domain(f)):
            raise ValueError("domain violation: log utility needs strictly positive payoffs")
        return np.log(f) @ self.prior

    def gradient(self, f) -> np.ndarray:
        f = _acts(f, self.dim)
        if f.ndim != 1:
            raise ValueError("gradient takes a single act")
        if not self.in_domain(f):
            raise ValueError("domain violation: log utility needs strictly positive payoffs")
        return self.prior / f


@dataclass(frozen=True, eq=False)
class CRRASEU:
    """Subjective expected utility with CRRA curvature gamma >= 0.

    gamma = 0 is risk-neutral (degenerate prior entries allowed there and
    only there), gamma = 1 is log.
    """

    prior: np.ndarray
    gamma: float

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError("gamma must be a nonnegative real")
        object.__setattr__(
            self, "prior", _as_prior(self.prior, strictly_positive=self.gamma > 0)
        )

    @property
    def dim(self) -> int:
        return self.prior.size

    def in_domain(self, f) -> np.ndarray:
        f = _acts(f, self.dim)
        if self.gamma == 0:
            return np.ones(f.shape[:-1], dtype=bool) if f.ndim > 1 else np.bool_(True)
        if self.gamma < 1:
            return np.all(f >= 0, axis=-1)
        return np.all(f > 0, axis=-1)

    def utility(self, f):
        f = _acts(f, self.dim)
        if not np.all(self.in_domain(f)):
            raise ValueError("domain violation: CRRA payoffs must be nonnegative "
                             "(strictly positive for gamma >= 1)")
        if self.gamma == 0:
            return f @ self.prior
        if self.gamma == 1:
            return np.log(f) @ self.prior
        q = 1.0 - self.gamma
        return (f**q @ self.prior) / q

    def gradient(self, f) -> np.ndarray:
        f = _acts(f, self.dim)
        if f.ndim != 1:
            raise ValueError("gradient takes a single act")
        if self.gamma == 0:
            return self.prior.copy()
        if not (self.in_domain(f) and np.all(f > 0)):
            raise ValueError("gradient needs strictly positive payoffs")
        return self.prior * f ** (-self.gamma)


@dataclass(frozen=True, eq=False)
class MaxMinEU:
    """Worst-case expected utility over a V-represented prior polytope.

    ``bernoulli`` selects the index applied statewise before the worst-case
    prior is taken: 'linear' (payoffs as-is, defined on all of R^d) or 'log'
    (strictly positive payoffs).  ``prior_halfspaces`` is an optional
    redundant H-representation of the same polytope; when given, belief sets
    carry it so that membership tests vectorize (the V-representation stays
    authoritative for utility evaluation).
    """

    prior_vertices: np.ndarray
    bernoulli: str = "linear"
    prior_halfspaces: tuple = ()

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.prior_vertices, dtype=float))
        if v.size == 0:
            raise ValueError("prior polytope needs at least one vertex")
        for row in v:
            _as_prior(row, strictly_positive=False)
        if self.bernoulli not in ("linear", "log"):
            raise ValueError("bernoulli must be 'linear' or 'log'")
        v.flags.writeable = False
        object.__setattr__(self, "prior_vertices", v)
        object.__setattr__(self, "prior_halfspaces", tuple(self.prior_halfspaces))

    @property
    def dim(self) -> int:
        return self.prior_vertices.shape[1]

    def in_domain(self, f) -> np.ndarray:
        f = _acts(f, self.dim)
        if self.bernoulli == "linear":
            return np.ones(f.shape[:-1], dtype=bool) if f.ndim > 1 else np.bool_(True)
        return np.all(f > 0, axis=-1)

    def _index(self, f) -> np.ndarray:
        return f if self.bernoulli == "linear" else np.log(f)

    def utility(self, f):
        f = _acts(f, self.dim)
        if not np.all(self.in_domain(f)):
            raise ValueError("domain violation: log Bernoulli needs strictly positive payoffs")
        return np.min(self._index(f) @ self.prior_vertices.T, axis=-1)

    def worst_case_face(self, f) -> np.ndarray:
        """Vertices attaining the worst-case value at f, within MEU_FACE_TOL."""
        f = _acts(f, self.dim)
        if f.ndim != 1:
            raise ValueError("worst_case_face takes a single act")
        scores = self.prior_vertices @ self._index(f)
        return self.prior_vertices[scores <= scores.min() + MEU_FACE_TOL]


Preference = CobbDouglasEU | CRRASEU | MaxMinEU


def cap_prior_polytope(d: int, idx: int, level: float, side: str):
    """Vertices and H-rep of the simplex cap {mu in Delta_d : mu_idx >= level} (or <=).

    Returns (vertices, halfspace).  The 'ge' cap has the basis vector e_idx
    plus the level-facet points; the 'le' cap has the opposite facet's basis
    vectors plus the same level-facet points.  Suitable for building
    :class:`MaxMinEU` priors with both representations.
    """
    if d < 2 or not 0 <= idx < d:
        raise ValueError("need d >= 2 and a valid state index")
    if not 0.0 < level < 1.0:
        raise ValueError("cap level must lie strictly between 0 and 1")
    eye = np.eye(d)
    facet = level * eye[idx][None, :] + (1.0 - level) * np.delete(eye, idx, axis=0)
    normal = eye[idx]
    if side == "ge":
        vertices = np.vstack([eye[idx][None, :], facet])
        halfspace = geometry.HalfSpace(normal, level, orientation="upper")
    elif side == "le":
        vertices = np.vstack([np.delete(eye, idx, axis=0), facet])
        halfspace = geometry.HalfSpace(normal, level, orientation="lower")
    else:
        raise ValueError("side must be 'ge' or 'le'")
    return vertices, halfspace


def utility_extended(pref: Preference, f):
    """Utility extended by -inf outside the domain (batch-safe, never raises).

    The extension is the monotone lower-semicontinuous completion: acts with
    nonpositive payoffs where the family demands positive ones are strictly
    worse than every interior act, so event deciders can treat them as
    unimprovable rather than erroring mid-sweep.
    """
    f = _acts(f, pref.dim)
    ok = pref.in_domain(f)
    if np.all(ok):
        return pref.utility(f)
    if f.ndim == 1:
        return -np.inf
    out = np.full(f.shape[:-1], -np.inf)
    if np.any(ok):
        safe = np.where(ok[..., None], f, 1.0)
        out[ok] = pref.utility(safe)[ok]
    return out


def belief_set(pref: Preference, f) -> geometry.Polytope:
    """Supporting priors of the upper contour set at f, as a polytope on the simplex.

    Smooth families give the singleton normalized utility gradient; the
    linear-Bernoulli max-min family gives the hull of the worst-case face
    (all of the prior polytope at constant acts).
    """
    f = _acts(np.asarray(f, dtype=float), pref.dim)
    if f.ndim != 1:
        raise ValueError("belief_set takes a single act")
    if isinstance(pref, (CobbDouglasEU, CRRASEU)):
        if isinstance(pref, CRRASEU) and pref.gamma == 0:
            vertices = pref.prior[None, :]
        else:
            g = pref.gradient(f)
            vertices = (g / g.sum())[None, :]
        return geometry.Polytope(vertices=vertices)
    if isinstance(pref, MaxMinEU):
        face = pref.worst_case_face(f)
        if pref.bernoulli == "linear":
            halfspaces = pref.prior_halfspaces
            if halfspaces and len(face) < len(pref.prior_vertices):
                # cut the H-rep down to the supporting face of the worst-case value
                vmin = float(np.min(pref.prior_vertices @ f))
                cut = geometry.HalfSpace(f, vmin + MEU_FACE_TOL, orientation="lower")
                halfspaces = halfspaces + (cut,)
            return geometry.Polytope(vertices=face, halfspaces=halfspaces)
        if len(face) == 1:
            g = face[0] / f
            return geometry.Polytope(vertices=(g / g.sum())[None, :])
        raise ValueError(
            "unsupported variant: belief set of a log-Bernoulli max-min preference "
            "at a kinked act (multiple worst-case priors)"
        )
    raise ValueError("unsupported variant")


# ---------------------------------------------------------------------------
# joint extension emptiness
# ---------------------------------------------------------------------------


def belief_set_extension_empty(sets: list[geometry.Polytope], delta: float) -> bool:
    """Whether the open delta-extensions of two simplex sets have empty intersection.

    The extensions intersect iff some point of the simplex is within delta of
    both sets, i.e. iff min over the simplex of max_i dist(nu, B_i) is below
    delta.  For two sets that minimax value is exactly half the set distance
    (midpoint of the distance-certificate pair); any other number of sets
    raises.  Values within 1e-9 of delta raise a boundary-indeterminate
    error: the instance is too close to call and the caller should perturb
    delta.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if len(sets) != 2:
        raise ValueError("the emptiness test takes exactly two belief sets")
    if sets[0].dim != sets[1].dim:
        raise ValueError("belief sets must share one state space")
    half = geometry.polytope_distance(sets[0], sets[1]).value / 2.0
    if abs(half - delta) <= _BOUNDARY_GUARD:
        raise geometry.ConvergenceError(
            "boundary-indeterminate: minimax distance within 1e-9 of delta",
            value=half,
            gap=abs(half - delta),
        )
    return half >= delta
