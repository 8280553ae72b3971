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
through: a run hands it all of its (cell, block) tasks at once, a cell being
one stream of draws (one (eps, d) point of a sweep), and they run in that
order, on one pool of worker threads when the run has more than one, so no
worker waits for a cell's last block before the next cell's blocks start.
Estimator accumulation is exact integer counting and therefore associative.

A block has one layout, drawn in a fixed order from the block's generator.
:meth:`PerturbationLaw.sample_projected_block`, which every sweep draws
through, draws a draw's coordinates in the orthonormal columns of a d x k
matrix Q first: an (m, k) array of normals A, then m chi-square variates C
with d - k degrees of freedom (skipped when k = d), then m radius uniforms U.
Only the rows its ``keep`` names are then completed to full draws, in row
order, from (n_kept, d) more normals (none when k = d); when k = 0 those
normals, scaled, are the draws.
:meth:`PerturbationLaw.sample_projected_coordinates` gives the same kept
draws with every row's exact coordinates, for ``lemma1``, which reads them.
The plain stream of :meth:`PerturbationLaw.sample_block` is the Q = I case
with every row kept: an (m, d) array of normals, then m radius uniforms.  No
runner draws through it; it stays as the reference stream that tests
compare against, and as the benchmark tracer's sampler hook.

A draw's coordinates are Y = fl(A fl(R / s)), with s = sqrt(|A|^2 + C) and R
the radius quantile at U, and the quantile is the expensive step.  When
k = 1, ``sample_projected_block`` takes it only for the rows that ``keep``
names at radius 0 or at R+ = r (1 + 2^-30), a bound on every radius the
quantile returns; every other row is dropped at its exact radius too, so the
kept rows and their draws are those that taking every row's radius gives,
bit for bit; every other row keeps its Y at R+, of the exact sign (that of
A) unless U = 0.  The argument: s > 0 is fixed per row and rounding is
monotone, so fl(R / s) does not fall as R grows, and fl(A fl(R / s)) moves
one way with it, by the sign of A; the exact Y therefore lies between Y = 0
and Y at R+.  ``keep`` must drop an interval of the line, so a row dropped
at both ends is dropped in between.  The uniform law's radius
fl(r fl(U^(1/d))) is at most r, as U < 1.  The restricted Gaussian's
radius sqrt(2 x), x the root of P(d/2, x) = U P(d/2, r^2/2)
(:func:`special.gammainc_inverse`), exceeds r by the rounding of the
inverse: at most 9 ulps over d in 1..64 and 100..4000, 80 radii in
[0.01, 37] and U near 1 (the worst at d = 256, r = 14.5), against the
margin's 2^22 ulps.  With k = 0 or k >= 2 every row's radius is taken.

Laws
----
Two perturbation laws are provided: the uniform law on the Euclidean ball
B(r) and the standard Gaussian restricted to that ball.  Both are drawn
exactly as a Gaussian direction times the inverse CDF of the radius at a
uniform: r U^(1/d) for the uniform law, and for the restricted Gaussian
sqrt(2 x) with P(d/2, x) = U P(d/2, r^2/2), P being the regularized lower
incomplete gamma function (Devroye, *Non-Uniform Random Variate
Generation*, 1986, ch. V).  The projected layout is exact too: for a
standard normal g in R^d, Q^T g, |g_perp|^2 (chi-square with d - k degrees
of freedom) and the direction of g_perp, its part orthogonal to Q, are
independent, so the draw R g/|g| can be built from the first two and its
radius R alone, and its orthogonal part added later from any other standard
normal projected off Q.  The restricted Gaussian's radius inverse works
from log u + log P(d/2, r^2/2), so a ball mass below the smallest normal
float (at r = 1, from d = 300 on) needs no special case.  Its density ratio
against the uniform law has the closed form computed by
:func:`gaussian_kappa_ratio`.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from . import special

BLOCK_DRAWS = 1 << 14
_BLOCK_COUNTER_STRIDE = 1 << 64
_Z95 = 1.959963984540054
# a whole-array sample holds at most 1 GiB of float64
_MAX_ARRAY_VALUES = 1 << 27
# r times this bounds every radius either law's quantile returns (see the
# module docstring)
_RADIUS_BOUND = 1.0 + 2.0**-30


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


@functools.lru_cache(maxsize=1024)
def _stream_key(master_seed: int, stream_id: int) -> np.ndarray:
    """The Philox key of stream ``(master_seed, stream_id)``, hashed once per stream."""
    key = SeedSequence((master_seed, stream_id)).generate_state(2, np.uint64)
    key.flags.writeable = False
    return key


def generator_for_block(seed: SeedSpec | int, block: int) -> Generator:
    """The Philox generator owning block ``block`` of the given stream."""
    seed = as_seed(seed)
    bitgen = Philox(key=_stream_key(seed.master_seed, seed.stream_id))
    if block:
        bitgen.advance(block * _BLOCK_COUNTER_STRIDE)
    return Generator(bitgen)


def _blocks(n: int):
    """Yield (block_index, trials_in_block) covering n trials."""
    full, rem = divmod(n, BLOCK_DRAWS)
    for b in range(full):
        yield b, BLOCK_DRAWS
    if rem:
        yield full, rem


def map_blocks(fn: Callable[[int, int, int], object], counts: Sequence[int],
               threads: int = 1) -> list:
    """Each cell's ``[fn(cell, b, m) for (b, m) in _blocks(counts[cell])]``, one list per cell.

    All the (cell, block) tasks are queued at once, cell by cell and in
    block order within a cell, and run on one pool of ``threads`` workers
    when ``threads > 1``, in the calling thread in that order otherwise.  A
    task that raises ends its cell: the cell's entry is then the exception
    of its first failing block in block order (:func:`cell_results` raises
    it), its later blocks are skipped or their results dropped, and the
    other cells run on.
    """
    results = [[None] * -(-n // BLOCK_DRAWS) for n in counts]

    def run(cell: int, b: int, m: int) -> None:
        # only a block after a failed one is skipped, so the first failing block runs
        if any(isinstance(r, Exception) for r in results[cell][:b]):
            return
        try:
            results[cell][b] = fn(cell, b, m)
        except Exception as exc:
            results[cell][b] = exc

    tasks = [(cell, b, m) for cell, n in enumerate(counts) for b, m in _blocks(n)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(run, *task) for task in tasks]:
                future.result()
    else:
        for task in tasks:
            run(*task)
    return [next((r for r in blocks if isinstance(r, Exception)), blocks) for blocks in results]


def cell_results(entry):
    """A cell's block results from :func:`map_blocks`, or the exception that ended the cell, raised."""
    if isinstance(entry, Exception):
        raise entry
    return entry


def _fill_rows(n: int, d: int, block: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """The (n, d) array whose rows from ``b * BLOCK_DRAWS`` on are ``block(b, m)``.

    Arrays above ``_MAX_ARRAY_VALUES`` values are refused before allocation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n * d > _MAX_ARRAY_VALUES:
        raise ValueError(
            f"{n} x {d} draws exceed the {_MAX_ARRAY_VALUES}-value array ceiling (1 GiB)"
        )
    out = np.empty((n, d))
    for b, m in _blocks(n):
        out[b * BLOCK_DRAWS : b * BLOCK_DRAWS + m] = block(b, m)
    return out


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def restricted_gaussian_acceptance(d: int, r: float) -> float:
    """Gaussian ball mass P(||N(0, I_d)|| <= r) = P(d/2, r^2/2)."""
    return special.gammainc(0.5 * d, 0.5 * r * r)


def sample_uniform_simplex(d: int, n: int, seed: SeedSpec | int) -> np.ndarray:
    """n i.i.d. uniform points of Delta_d via normalized exponential spacings."""
    if d < 2:
        raise ValueError("d must be >= 2")
    seed = as_seed(seed)

    def block(b: int, m: int) -> np.ndarray:
        e = generator_for_block(seed, b).standard_exponential((m, d))
        return e / e.sum(axis=1, keepdims=True)

    return _fill_rows(n, d, block)


def gaussian_kappa_ratio(d: int, r: float) -> float:
    """Density-ratio bound of the restricted Gaussian against the uniform ball law.

    The supremum of the Radon-Nikodym derivative, attained at the center, is
    the ratio of radial integrals
    int_0^r rho^(d-1) drho / int_0^r e^(-rho^2/2) rho^(d-1) drho,
    the reciprocal of E[e^(-||z||^2/2)] under the uniform ball law.  With
    t = rho^2/r^2 that mean is 1F1(d/2; d/2+1; -r^2/2), so
    kappa = 1 / 1F1(d/2; d/2+1; -r^2/2) = e^(r^2/2) / 1F1(1; d/2+1; r^2/2)
    by Kummer's transformation.  The first form is evaluated, as
    e^(-r^2/2) S(r^2/2) with S the positive series of
    :func:`special.kummer_mean`: it needs no e^(r^2/2), which overflows above
    r = 37.7.  kappa lies in [1, e^(r^2/2)).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if r <= 0:
        raise ValueError("r must be positive")
    mean = special.kummer_mean(0.5 * d, 0.5 * r * r)
    if not mean > 1.0 / np.finfo(float).max:
        raise ValueError(f"kappa overflows a float at d={d}, r={r}")
    return 1.0 / mean


@dataclass(frozen=True)
class PerturbationLaw:
    """One of the perturbation laws the experiments draw from.

    Both laws are spherically symmetric and are drawn the same way: a
    Gaussian direction times the inverse CDF of the radius at a uniform.
    ``kappa`` is the law's density bound relative to the uniform ball law:
    1 for the uniform law itself, the closed-form radial ratio
    (< e^(r^2/2)) for the restricted Gaussian.
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

    def _radius_quantile(self) -> Callable[[np.ndarray], np.ndarray]:
        """The inverse CDF of ||z|| under the law."""
        d, r = self.dim, self.radius
        if self.kind == "uniform-ball":
            return lambda u: r * u ** (1.0 / d)
        return lambda u: np.sqrt(2.0 * special.gammainc_inverse(0.5 * d, 0.5 * r * r, u))

    def sample(self, n: int, seed: SeedSpec | int) -> np.ndarray:
        """n draws of the law as one (n, dim) array, blockwise per the module contract.

        No runner draws through it; it stays as the reference stream that
        tests build their perturbations from and compare the samplers against.
        """
        seed = as_seed(seed)
        return _fill_rows(n, self.dim, lambda b, m: self.sample_block(b, m, seed))

    def sample_block(self, block: int, m: int, seed: SeedSpec | int) -> np.ndarray:
        """Block ``block`` of the law's stream: the projected layout at Q = I, every row kept.

        The draws are :meth:`sample_projected_coordinates`'s coordinates
        with Q = I, bit for bit, built without a d x d identity.  The
        reference stream behind :meth:`sample` and the plain
        :func:`mc_probability`; no runner reaches it.
        """
        _, z, _, U, norm = self._projected_draws(block, m, seed, None)
        z *= (self._radius_quantile()(U) / norm)[:, None]
        return z

    def _projected_draws(self, block: int, m: int, seed: SeedSpec | int, Q: np.ndarray | None):
        """Block ``block`` of the projected stream: its generator and its first draws.

        Returns ``(gen, A, C, U, norm)``: the (m, k) normals A, the m
        chi-square variates C = |g_perp|^2 (zeros when Q spans R^d), the m
        radius uniforms U, in that stream order, and each row's |g| =
        sqrt(|A|^2 + C).  ``gen`` is left where the orthogonal parts of the
        kept rows continue the stream.  ``Q = None`` stands for the identity.
        """
        d = self.dim
        k = d if Q is None else Q.shape[1]
        if Q is not None and (Q.shape[0] != d or k > d):
            raise ValueError(f"Q must be {d} x k with k <= {d}, got {Q.shape}")
        gen = generator_for_block(seed, block)
        A = gen.standard_normal((m, k))
        C = gen.standard_gamma(0.5 * (d - k), m) if k < d else np.zeros(m)
        C *= 2.0
        U = gen.random(m)
        norm = np.einsum("ij,ij->i", A, A)
        norm += C
        return gen, A, C, U, np.sqrt(norm, out=norm)

    def sample_projected_coordinates(
        self,
        block: int,
        m: int,
        seed: SeedSpec | int,
        Q: np.ndarray,
        keep: Callable[[np.ndarray], np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Block ``block`` of the law's projected stream: ``(Y, Z)``, every radius taken.

        ``Y`` (m, k) holds the exact coordinates Q^T z of every draw and ``Z``
        what :meth:`sample_projected_block` gives; ``lemma1`` counts every Y.
        """
        quantile = self._radius_quantile()
        gen, Y, C, U, norm = self._projected_draws(block, m, seed, Q)
        scale = quantile(U)
        scale /= norm
        Y *= scale[:, None]
        return Y, _completed_draws(gen, Q, Y, np.flatnonzero(keep(Y)), C, scale)

    def sample_projected_block(
        self,
        block: int,
        m: int,
        seed: SeedSpec | int,
        Q: np.ndarray,
        keep: Callable[[np.ndarray], np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Block ``block`` of the law's projected stream: ``(Y, Z)``.

        ``Q`` is a (dim, k) matrix with orthonormal columns, 0 <= k <= dim.
        ``keep(Y)`` takes an (m, k) array of the draws' coordinates Y = Q^T z
        and returns m booleans, each row's from that row (or its position)
        alone.  ``Y`` holds those coordinates, and ``Z`` the full draws of the
        rows ``keep(Y)`` keeps, in row order: their parts orthogonal to Q are
        standard normals projected off Q and scaled to the length the
        block's chi-square variates give them.  When k = 1 the coordinates
        ``keep`` drops must form an interval of the line (the module
        docstring says why): a keep that ignores Y, a half-line screen and an
        intersection of them all qualify.  ``Y`` is then exact only on the
        rows ``keep`` keeps at radius 0 or at the radius bound; the others
        keep Y at the bound, of the exact sign unless their radius uniform is
        0 (probability 2^-53 per draw), where the exact Y is 0.
        """
        quantile = self._radius_quantile()
        gen, A, C, U, norm = self._projected_draws(block, m, seed, Q)
        if Q.shape[1] == 1:
            # the verdicts at radius 0 and at the bound on every radius bracket
            # the exact one: only the rows either end keeps take their radius.
            # Every kept row is among them, so the others' scale is never read.
            scale = np.divide(self.radius * _RADIUS_BOUND, norm)
            Y = A * scale[:, None]
            at = np.flatnonzero(keep(np.zeros((m, 1))) | keep(Y))
            scale[at] = quantile(U[at]) / norm[at]
            Y[at] = A[at] * scale[at, None]
        else:
            scale = quantile(U)
            scale /= norm
            Y = np.multiply(A, scale[:, None], out=A)
        return Y, _completed_draws(gen, Q, Y, np.flatnonzero(keep(Y)), C, scale)


def _completed_draws(gen, Q, Y, rows, C, scale):
    """The full draws of the given rows of a projected block, continuing its stream from gen.

    Y, C and scale are the block's coordinates, chi-square variates and
    radius-over-|g| factors; only the given rows of each are read.
    """
    d, k = Q.shape
    if k == d:
        return Y[rows] @ Q.T
    P = gen.standard_normal((len(rows), d))
    if k:
        # projected twice, so the part left along Q is a rounding of |P|,
        # not of the normals' own length ("twice is enough")
        for _ in range(2):
            P -= (P @ Q) @ Q.T
    P *= (np.sqrt(C[rows]) * scale[rows] / np.linalg.norm(P, axis=1))[:, None]
    if k:
        P += Y[rows] @ Q.T
    return P


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCEstimate:
    """Hit counts with a 95% confidence interval.

    Interior counts use the Wilson score interval; the k=0 and k=n edges use
    the exact Clopper-Pearson limits (the k=0 upper limit is about 3.69/n).
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


def mc_probability(
    event: Callable[[np.ndarray], np.ndarray],
    law: PerturbationLaw,
    n: int,
    seed: SeedSpec | int,
    threads: int = 1,
    projection: tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]] | None = None,
) -> MCEstimate:
    """Estimate P(event) under the law by blockwise Monte Carlo: the library's one-cell call.

    ``event`` receives an (m, d) block of samples and returns m booleans; one
    that raises is reported as a RuntimeError naming the block, and one that
    returns the wrong shape is refused.  With ``projection = (Q, keep)`` the
    blocks are drawn by :meth:`PerturbationLaw.sample_projected_block`:
    ``event`` then receives only the full draws of the rows ``keep`` names,
    and every other row counts as a miss, so ``keep`` must name every row on
    which the event can hold (and meet that method's condition on one-column
    screens).  The
    estimate is bit-identical for any ``threads`` value because block
    substreams are deterministic and their hit counts add exactly.  No runner
    calls it (a sweep hands all its cells' blocks to one :func:`map_blocks`
    call); its plain path is the reference the projected estimates are
    tested against.
    """
    if n < 100:
        raise ValueError("n must be >= 100 for a meaningful estimate")
    seed = as_seed(seed)

    def hits(cell: int, b: int, m: int) -> int:
        if projection is None:
            z = law.sample_block(b, m, seed)
        else:
            _, z = law.sample_projected_block(b, m, seed, *projection)
        try:
            flags = np.asarray(event(z), dtype=bool)
        except Exception as exc:
            first = z[0] if len(z) else None
            raise RuntimeError(
                f"event predicate failed on block {b}; first sample {first!r}"
            ) from exc
        if flags.shape != (len(z),):
            raise RuntimeError(
                f"event predicate returned shape {flags.shape}, wanted ({len(z)},)")
        return int(np.count_nonzero(flags))

    blocks = map_blocks(hits, [n], threads)[0]
    return MCEstimate(hits=sum(cell_results(blocks)), trials=n)
