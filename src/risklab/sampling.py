"""Seeded perturbation and simplex samplers with reproducible substreams.

Determinism contract
--------------------
Every sampler takes a :class:`SeedSpec` (master seed plus stream id).  Draws
are produced in fixed-size blocks of ``BLOCK_DRAWS`` trials; block ``b`` of
stream ``(master_seed, stream_id)`` uses a Philox counter-based generator
keyed by ``SeedSequence((master_seed, stream_id))`` and advanced by
``b * 2**64`` counters.  Block boundaries, and the draw order inside a block,
are frozen constants of the implementation, so the resulting sample stream is
bit-identical no matter how blocks are scheduled across threads or runs.
:func:`map_blocks` is the one scheduler every sampler and estimator goes
through.  Estimator accumulation is exact integer counting and therefore
associative.

Laws
----
Two perturbation laws are provided: the uniform law on the Euclidean ball
B(r) and the standard Gaussian restricted to that ball.  The restricted
Gaussian's density ratio against the uniform law is the radial integral ratio
computed by :func:`gaussian_kappa_ratio`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.special import gammainc, gammaincinv

BLOCK_DRAWS = 1 << 14
_BLOCK_COUNTER_STRIDE = 1 << 64
_Z95 = 1.959963984540054
_REJECTION_FALLBACK_ACCEPTANCE = 1e-3
_REJECTION_ERROR_ACCEPTANCE = 1e-6


@dataclass(frozen=True)
class SeedSpec:
    """Master seed and stream id naming one reproducible sample stream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.stream_id < 0:
            raise ValueError("stream_id must be nonnegative")

    def stream(self, stream_id: int) -> "SeedSpec":
        """A sibling stream under the same master seed."""
        return SeedSpec(self.master_seed, stream_id)


def as_seed(seed: SeedSpec | int | None) -> SeedSpec:
    if seed is None:
        raise ValueError("a seed is required; no wall-clock default exists")
    if isinstance(seed, SeedSpec):
        return seed
    return SeedSpec(int(seed))


def generator_for_block(seed: SeedSpec | int, block: int) -> np.random.Generator:
    """The Philox generator owning block ``block`` of the given stream."""
    seed = as_seed(seed)
    key = np.random.SeedSequence((seed.master_seed, seed.stream_id))
    bitgen = np.random.Philox(key=key.generate_state(2, np.uint64))
    if block:
        bitgen.advance(block * _BLOCK_COUNTER_STRIDE)
    return np.random.Generator(bitgen)


def _blocks(n: int):
    """Yield (block_index, trials_in_block) covering n trials."""
    full, rem = divmod(n, BLOCK_DRAWS)
    for b in range(full):
        yield b, BLOCK_DRAWS
    if rem:
        yield full, rem


def map_blocks(fn: Callable[[int, int], object], n: int, threads: int = 1) -> list:
    """``[fn(b, m) for (b, m) in _blocks(n)]`` in block order.

    The blocks run on a pool of ``threads`` workers when ``threads > 1``;
    the result list is in block order either way.
    """
    specs = list(_blocks(n))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda spec: fn(*spec), specs))
    return [fn(b, m) for b, m in specs]


def _fill_rows(n: int, d: int, block: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """The (n, d) array whose rows from ``b * BLOCK_DRAWS`` on are ``block(b, m)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.empty((n, d))

    def fill(b: int, m: int) -> None:
        out[b * BLOCK_DRAWS : b * BLOCK_DRAWS + m] = block(b, m)

    map_blocks(fill, n)
    return out


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _ball_block(gen: np.random.Generator, m: int, d: int, r: float) -> np.ndarray:
    direction = gen.standard_normal((m, d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = r * gen.random(m) ** (1.0 / d)
    return direction * radii[:, None]


def sample_uniform_ball(d: int, r: float, n: int, seed: SeedSpec | int) -> np.ndarray:
    """n i.i.d. draws from the uniform law on the open ball B_d(r).

    Gaussian direction times the U^(1/d)-scaled radius, blockwise per the
    module determinism contract.
    """
    return PerturbationLaw("uniform-ball", d, r).sample(n, seed)


def restricted_gaussian_acceptance(d: int, r: float) -> float:
    """Rejection acceptance probability P(||N(0, I_d)|| <= r) = gammainc(d/2, r^2/2)."""
    return float(gammainc(0.5 * d, 0.5 * r * r))


def _restricted_gaussian_mode(d: int, r: float, method: str = "auto") -> tuple[str, float]:
    """The sampling mode ``method`` resolves to at (d, r), and the rejection acceptance."""
    acceptance = restricted_gaussian_acceptance(d, r)
    if method == "auto":
        method = "rejection" if acceptance >= _REJECTION_FALLBACK_ACCEPTANCE else "radial"
    elif method == "rejection":
        if acceptance < _REJECTION_ERROR_ACCEPTANCE:
            raise ValueError(
                f"rejection acceptance {acceptance:.2e} below 1e-6; "
                "use method='radial' (exact inverse CDF) instead"
            )
    elif method != "radial":
        raise ValueError("method must be 'auto', 'rejection', or 'radial'")
    return method, acceptance


def _restricted_gaussian_block(
    gen: np.random.Generator, m: int, d: int, r: float, mode: str, acceptance: float
) -> np.ndarray:
    if mode == "rejection":
        out = np.empty((m, d))
        k = 0
        while k < m:
            chunk = int(math.ceil((m - k) / max(acceptance, 1e-9) * 1.1)) + 16
            while chunk and k < m:
                g = gen.standard_normal((min(chunk, BLOCK_DRAWS), d))
                chunk -= len(g)
                keep = g[(g * g).sum(axis=1) <= r * r]
                take = min(len(keep), m - k)
                out[k : k + take] = keep[:take]
                k += take
        return out
    # radial mode: exact inverse CDF of the radial law through the
    # regularized lower incomplete gamma in rho^2/2.
    direction = gen.standard_normal((m, d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    u = gen.random(m)
    radii = np.sqrt(2.0 * gammaincinv(0.5 * d, u * acceptance))
    return direction * radii[:, None]


def sample_restricted_gaussian(
    d: int, r: float, n: int, seed: SeedSpec | int, method: str = "auto"
) -> np.ndarray:
    """n draws from the standard Gaussian conditioned on ||z|| <= r.

    ``method='rejection'`` rejects whole-vector Gaussian draws and errors when
    the acceptance probability drops below 1e-6; ``'radial'`` inverts the
    radial CDF exactly; ``'auto'`` (default) switches to radial mode once
    acceptance falls below 1e-3.

    Rejection fills each block of m rows from logical chunks of
    ceil(want / acceptance * 1.1) + 16 Gaussian rows, want being the rows
    still missing.  A chunk is drawn in slabs of at most ``BLOCK_DRAWS`` rows,
    and drawing stops as soon as m rows are accepted, so memory stays at a few
    slabs whatever the acceptance.  Philox yields the same normals in one call
    or several, and the block's generator is discarded afterwards, so the
    accepted rows are those of drawing every chunk whole.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if r <= 0:
        raise ValueError("r must be positive")
    mode, acceptance = _restricted_gaussian_mode(d, r, method)
    seed = as_seed(seed)
    return _fill_rows(n, d, lambda b, m: _restricted_gaussian_block(
        generator_for_block(seed, b), m, d, r, mode, acceptance))


def sample_uniform_simplex(d: int, n: int, seed: SeedSpec | int) -> np.ndarray:
    """n i.i.d. uniform points of Delta_d via normalized exponential spacings."""
    if d < 2:
        raise ValueError("d must be >= 2")
    seed = as_seed(seed)

    def block(b: int, m: int) -> np.ndarray:
        e = generator_for_block(seed, b).standard_exponential((m, d))
        return e / e.sum(axis=1, keepdims=True)

    return _fill_rows(n, d, block)


@lru_cache(maxsize=4096)
def gaussian_kappa_ratio(d: int, r: float) -> float:
    """Density-ratio bound of the restricted Gaussian against the uniform ball law.

    Equals the ratio of radial integrals
    int_0^r rho^(d-1) drho / int_0^r e^(-rho^2/2) rho^(d-1) drho,
    evaluated by adaptive quadrature (relative tolerance 1e-12).  The ratio is
    the supremum of the Radon-Nikodym derivative (attained at the center) and
    is bounded by e^(r^2/2).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if r <= 0:
        raise ValueError("r must be positive")
    num, num_err = integrate.quad(lambda s: s ** (d - 1), 0.0, r, epsrel=1e-12, epsabs=0.0)
    den, den_err = integrate.quad(
        lambda s: math.exp(-0.5 * s * s) * s ** (d - 1), 0.0, r, epsrel=1e-12, epsabs=0.0
    )
    if den <= 0 or num_err > 1e-8 * num or den_err > 1e-8 * den:
        raise RuntimeError(f"quadrature failure for kappa ratio at d={d}, r={r}")
    return num / den


@dataclass(frozen=True)
class PerturbationLaw:
    """One of the perturbation laws the experiments draw from.

    ``kappa`` is the law's density bound relative to the uniform ball law:
    1 for the uniform law itself, the exact radial ratio (<= e^(r^2/2)) for
    the restricted Gaussian.
    """

    kind: str
    dim: int
    radius: float

    def __post_init__(self):
        if self.kind not in ("uniform-ball", "restricted-gaussian"):
            raise ValueError(f"unknown perturbation law {self.kind!r}")
        if self.dim < 1 or self.radius <= 0:
            raise ValueError("law needs dim >= 1 and radius > 0")

    @property
    def kappa(self) -> float:
        if self.kind == "uniform-ball":
            return 1.0
        return gaussian_kappa_ratio(self.dim, self.radius)

    def with_dim(self, d: int) -> "PerturbationLaw":
        return PerturbationLaw(self.kind, d, self.radius)

    def sample(self, n: int, seed: SeedSpec | int) -> np.ndarray:
        seed = as_seed(seed)
        return _fill_rows(n, self.dim, lambda b, m: self.sample_block(b, m, seed))

    def sample_block(self, block: int, m: int, seed: SeedSpec | int) -> np.ndarray:
        gen = generator_for_block(seed, block)
        if self.kind == "uniform-ball":
            return _ball_block(gen, m, self.dim, self.radius)
        return _restricted_gaussian_block(
            gen, m, self.dim, self.radius, *_restricted_gaussian_mode(self.dim, self.radius)
        )


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCEstimate:
    """Hit counts with a 95% confidence interval.

    Interior counts use the Wilson score interval; the k=0 and k=n edges use
    the exact Clopper-Pearson limits (the k=0 upper limit is about 3.69/n).
    Merging two estimates adds counts exactly, so partial estimates combine
    associatively and order-independently.
    """

    hits: int
    trials: int

    def __post_init__(self):
        if self.trials < 1 or not 0 <= self.hits <= self.trials:
            raise ValueError("need 0 <= hits <= trials, trials >= 1")

    @property
    def p_hat(self) -> float:
        return self.hits / self.trials

    def _wilson(self) -> tuple[float, float]:
        n = self.trials
        p = self.p_hat
        z2 = _Z95 * _Z95
        denom = 1.0 + z2 / n
        center = (p + z2 / (2 * n)) / denom
        half = _Z95 * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
        return center - half, center + half

    @property
    def ci_low(self) -> float:
        if self.hits == 0:
            return 0.0
        if self.hits == self.trials:
            return 0.025 ** (1.0 / self.trials)
        return self._wilson()[0]

    @property
    def ci_high(self) -> float:
        if self.hits == 0:
            return 1.0 - 0.025 ** (1.0 / self.trials)
        if self.hits == self.trials:
            return 1.0
        return self._wilson()[1]

    def merge(self, other: "MCEstimate") -> "MCEstimate":
        return MCEstimate(self.hits + other.hits, self.trials + other.trials)


def mc_probability(
    event: Callable[[np.ndarray], np.ndarray],
    law: PerturbationLaw,
    n: int,
    seed: SeedSpec | int,
    threads: int = 1,
) -> MCEstimate:
    """Estimate P(event) under the law by blockwise Monte Carlo.

    ``event`` receives an (m, d) block of samples and returns m booleans.
    The estimate is bit-identical for any ``threads`` value because block
    substreams are deterministic and counts merge exactly.
    """
    if n < 100:
        raise ValueError("n must be >= 100 for a meaningful estimate")
    seed = as_seed(seed)

    def run_block(b: int, m: int) -> int:
        z = law.sample_block(b, m, seed)
        try:
            flags = np.asarray(event(z), dtype=bool)
        except Exception as exc:
            raise RuntimeError(
                f"event predicate failed on block {b}; first sample {z[0]!r}"
            ) from exc
        if flags.shape != (m,):
            raise RuntimeError(f"event predicate returned shape {flags.shape}, wanted ({m},)")
        return int(np.count_nonzero(flags))

    return MCEstimate(hits=sum(map_blocks(run_block, n, threads)), trials=n)
