"""Convex, monotone preference families over state-contingent payoffs.

Two families are implemented, each a frozen dataclass:

* :class:`CRRASEU` — subjective expected utility with constant relative risk
  aversion ``gamma``: expected log utility at gamma = 1 (the default),
  risk-neutral at gamma = 0.
* :class:`MaxMinEU` — worst-case expected utility over a polytope of priors
  given in V-representation, with a linear or log Bernoulli index.

Acts are plain numpy arrays; every query accepts a single act of shape (d,)
or a batch of shape (n, d) and vectorizes over the batch.  Strict preference
uses the tolerance ``TOL_STRICT`` to separate genuine ties from float noise.

Belief sets are the supporting priors of an upper contour set; the joint
delta-extension emptiness test decides a pair of them exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import geometry

TOL_STRICT = 1e-10
#: Prior vertices within this of the worst-case value join the supporting face.
MEU_FACE_TOL = 1e-10
_PRIOR_TOL = 1e-12
_BOUNDARY_GUARD = 1e-9
_TINY = np.finfo(float).tiny


def _as_prior(mu, strictly_positive: bool, ndim: int = 1) -> np.ndarray:
    """``mu`` read-only, checked as a prior, or with ndim = 2 as one prior per row."""
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != ndim or mu.shape[-1] < 2:
        raise ValueError("prior must be a vector over at least 2 states")
    if not np.isfinite(mu).all():
        raise ValueError("prior must be finite")
    if np.abs(mu.sum(axis=-1) - 1.0).max() > _PRIOR_TOL:
        raise ValueError("prior must sum to 1 within 1e-12")
    # mu is finite here, so its least entry decides the sign checks
    if strictly_positive:
        if mu.min() <= 0:
            raise ValueError("this preference family requires a strictly positive prior")
    elif mu.min() < 0:
        raise ValueError("prior must be nonnegative")
    mu.flags.writeable = False
    return mu


def _acts(f, d: int) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape[-1] != d:
        raise ValueError(f"act has {f.shape[-1]} states, preference expects {d}")
    return f


@dataclass(frozen=True, eq=False)
class CRRASEU:
    """Subjective expected utility with CRRA curvature gamma >= 0.

    gamma = 0 is risk-neutral (degenerate prior entries allowed there and
    only there), gamma = 1 (the default) is expected log utility.
    """

    prior: np.ndarray
    gamma: float = 1.0

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
        return self._evaluate(f)

    def _evaluate(self, f):
        """U at acts f already checked to lie in the domain."""
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
        return self.prior / f**self.gamma


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
        v = np.asarray(self.prior_vertices, dtype=float)
        v = v if v.ndim > 1 else v.reshape(1, -1)  # a single prior is one vertex
        if v.size == 0:
            raise ValueError("prior polytope needs at least one vertex")
        v = _as_prior(v, strictly_positive=False, ndim=2)
        if self.bernoulli not in ("linear", "log"):
            raise ValueError("bernoulli must be 'linear' or 'log'")
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
        if self.bernoulli == "linear":
            return f
        return np.log(f)

    def utility(self, f):
        f = _acts(f, self.dim)
        if not np.all(self.in_domain(f)):
            raise ValueError("domain violation: log Bernoulli needs strictly positive payoffs")
        return self._evaluate(f)

    def _evaluate(self, f):
        """U at acts f already checked to lie in the domain."""
        return np.min(self._index(f) @ self.prior_vertices.T, axis=-1)

    def worst_case_face(self, f) -> np.ndarray:
        """Vertices attaining the worst-case value at f, within MEU_FACE_TOL."""
        f = _acts(f, self.dim)
        if f.ndim != 1:
            raise ValueError("worst_case_face takes a single act")
        return self._face(f)[0]

    def _face(self, f):
        """(worst-case face, worst-case value) at a single act f already checked."""
        scores = self.prior_vertices @ self._index(f)
        low = scores.min()
        return self.prior_vertices[scores <= low + MEU_FACE_TOL], low


Preference = CRRASEU | MaxMinEU


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
    base, at, off = _cap_pattern(d, idx, side)
    sign = 1.0 if side == "ge" else -1.0  # the last row of at is e_idx
    return base + level * at + (1.0 - level) * off, geometry.HalfSpace(sign * at[-1], sign * level)


@functools.lru_cache(maxsize=256, typed=True)
def _cap_pattern(d, idx, side):
    """Read-only 0/1 arrays whose base + level at + (1 - level) off are the cap's vertices:
    its basis vectors in base, then each facet point level e_idx + (1 - level) e_j."""
    eye = np.eye(d)
    e, rest = eye[idx], np.delete(eye, idx, axis=0)
    if side not in ("ge", "le"):
        raise ValueError("side must be 'ge' or 'le'")
    base = np.vstack([e[None, :] if side == "ge" else rest, np.zeros((d - 1, d))])
    at, off = np.zeros_like(base), np.zeros_like(base)
    at[1 - d:], off[1 - d:] = e, rest
    for a in (base, at, off):
        a.flags.writeable = False
    return base, at, off


def supergradient(pref: Preference, f) -> np.ndarray | None:
    """One supergradient s of U at the single act f: U(g) <= U(f) + s . (g - f) for all g.

    CRRA agents give the gradient (the prior at gamma = 0).  A max-min agent
    gives the gradient of a worst-case prior v*'s expected index, which
    bounds U from above: v* itself under the linear index, v*/f under the
    log index (log g <= log f + (g - f)/f).  Every supergradient returned is
    finite and nonnegative.  None means U has no finite supergradient at f
    (a zero payoff under 0 < gamma < 1) or one beyond float precision (a
    payoff whose power or reciprocal leaves the normal range).  Raises
    ValueError outside U's domain.
    """
    f = _acts(f, pref.dim)
    if f.ndim != 1:
        raise ValueError("supergradient takes a single act")
    if not pref.in_domain(f):
        raise ValueError("domain violation: no supergradient outside the utility's domain")
    if isinstance(pref, CRRASEU):
        # a payoff whose power overflows has a gradient entry of 0 (within tiny)
        with np.errstate(over="ignore"):
            if pref.gamma > 0 and np.any(f**pref.gamma < _TINY):
                return None
            return pref.gradient(f)
    v = pref.prior_vertices[np.argmin(pref.prior_vertices @ pref._index(f))]
    if pref.bernoulli == "linear":
        return v.copy()
    return None if np.any(f < _TINY) else v / f


def utility_extended(pref: Preference, f):
    """Utility extended by -inf outside the domain (batch-safe, never raises).

    The extension is the monotone lower-semicontinuous completion: acts with
    nonpositive payoffs where the family demands positive ones are strictly
    worse than every interior act, so event deciders can treat them as
    unimprovable rather than erroring mid-sweep.  The domain is checked once.
    """
    f = _acts(f, pref.dim)
    ok = pref.in_domain(f)
    if np.all(ok):
        return pref._evaluate(f)
    if f.ndim == 1:
        return -np.inf
    out = np.full(f.shape[:-1], -np.inf)
    if np.any(ok):
        safe = f.copy()
        safe[~ok] = 1.0
        out[ok] = pref._evaluate(safe)[ok]
    return out


def belief_set(pref: Preference, f) -> geometry.Polytope:
    """Supporting priors of the upper contour set at f, as a polytope on the simplex.

    CRRA agents give the singleton normalized utility gradient; the
    linear-Bernoulli max-min family gives the hull of the worst-case face
    (all of the prior polytope at constant acts).
    """
    f = _acts(f, pref.dim)
    if f.ndim != 1:
        raise ValueError("belief_set takes a single act")
    if isinstance(pref, CRRASEU):
        if pref.gamma == 0:
            vertices = pref.prior[None, :]
        else:
            g = pref.gradient(f)
            vertices = (g / g.sum())[None, :]
        return geometry.Polytope(vertices=vertices)
    if isinstance(pref, MaxMinEU):
        face, vmin = pref._face(f)
        if pref.bernoulli == "linear":
            halfspaces = pref.prior_halfspaces
            if halfspaces and len(face) < len(pref.prior_vertices):
                # cut the H-rep down to the supporting face of the worst-case value
                cut = geometry.HalfSpace(-f, -(float(vmin) + MEU_FACE_TOL))
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


def belief_set_extension_empty(distance: float, delta: float) -> bool:
    """Whether the open delta-extensions of two simplex sets have empty intersection.

    ``distance`` is the distance between the two sets (from
    :func:`geometry.polytope_distance`).  The extensions intersect iff some
    point of the simplex is within delta of both sets, i.e. iff min over the
    simplex of max_i dist(nu, B_i) is below delta; for two sets that minimax
    value is exactly half their distance (the midpoint of the
    distance-certificate pair).  Values within 1e-9 of delta raise a
    boundary-indeterminate error: the instance is too close to call and the
    caller should perturb delta.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    half = distance / 2.0
    if abs(half - delta) <= _BOUNDARY_GUARD:
        raise geometry.ConvergenceError(
            "boundary-indeterminate: minimax distance within 1e-9 of delta",
            value=half,
            gap=abs(half - delta),
        )
    return half >= delta
