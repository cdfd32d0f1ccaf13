"""Initialization strategies: seven ways to pick K starting centroids.

Strategy ids (used by the CLI and benchmark reports):

    macqueen1      first K data points, in file order
    macqueen2      K distinct data points drawn uniformly at random
    faber          best of 10 macqueen2 relaunches (min final FW)
    kmeanspp       d^2-weighted probabilistic spreading
    kmeanspp_x10   best of 10 kmeanspp relaunches (min final FW)
    maxmin         farthest-pair start, then farthest-from-nearest-seed
                   (quadratic all-pairs scan; comparison oracle only)
    maxmin_linear  nearest-to-grand-mean start, then farthest-from-first,
                   then farthest-from-nearest-seed; O(n*k) distances total

Every argmax/argmin over data points breaks ties by lowest index, so the
deterministic strategies are exactly reproducible. Stochastic strategies
record their effective seed in the returned SeedSet.
"""

import inspect
from dataclasses import dataclass, replace

import numpy as np

from .data import SCHEMA, Dataset
from .engine import EngineError, FcmConfig, FcmResult, quiet_overflow, run_fcm, sq_dists
from .rng import RNG_NAME, derive_seed, fresh_seed, make_rng

# Default comparison set; the quadratic maxmin oracle is excluded.
DEFAULT_BENCH_METHODS = ("macqueen2", "faber", "kmeanspp", "kmeanspp_x10", "maxmin_linear")

RELAUNCH_COUNT = 10


@dataclass(frozen=True)
class SeedSet:
    """K initial centroids plus provenance.

    Seeds are always actual data points; `source_indices` gives their rows
    in the dataset. `distance_evals` counts point-to-point squared-distance
    computations for the distance-based strategies. `uniform_fallback`
    flags a kmeanspp draw that degenerated to a uniform choice.
    """

    centroids: np.ndarray
    method: str
    rng_seed: int | None = None
    rng: str | None = None
    relaunches: int | None = None
    source_indices: tuple[int, ...] | None = None
    distance_evals: int | None = None
    uniform_fallback: bool = False

    def __post_init__(self):
        pts = np.array(self.centroids, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "centroids", pts)
        if self.source_indices is not None:
            object.__setattr__(
                self, "source_indices", tuple(int(i) for i in self.source_indices)
            )

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "method": self.method,
            "k": int(self.k),
            "rng_seed": self.rng_seed,
            "rng": self.rng,
            "relaunches": self.relaunches,
            "source_indices": list(self.source_indices)
            if self.source_indices is not None
            else None,
            "distance_evals": self.distance_evals,
            "uniform_fallback": self.uniform_fallback,
            "centroids": [[float(v) for v in row] for row in self.centroids],
        }


def _check_k(d: Dataset, k: int, minimum: int = 1) -> None:
    if k < minimum:
        raise ValueError(f"k must be >= {minimum}, got {k}")
    if k > d.n:
        raise EngineError(f"k={k} exceeds n={d.n}")


def seed_macqueen_first_k(d: Dataset, k: int) -> SeedSet:
    """First K data points, in order (order-sensitive by design)."""
    _check_k(d, k)
    idx = tuple(range(k))
    return SeedSet(centroids=d.points[:k], method="macqueen1", source_indices=idx)


def seed_macqueen2(d: Dataset, k: int, seed: int | None = None) -> SeedSet:
    """K distinct data points drawn uniformly without replacement."""
    _check_k(d, k)
    seed = fresh_seed() if seed is None else int(seed)
    rng = make_rng(seed)
    idx = rng.choice(d.n, size=k, replace=False)
    return SeedSet(
        centroids=d.points[idx],
        method="macqueen2",
        rng_seed=seed,
        rng=RNG_NAME,
        source_indices=tuple(int(i) for i in idx),
    )


@quiet_overflow
def seed_kmeanspp(d: Dataset, k: int, seed: int | None = None) -> SeedSet:
    """d^2-weighted seeding: first seed uniform, each next one drawn with
    probability proportional to its squared distance to the nearest seed.

    If every remaining point coincides with a chosen seed (total weight 0)
    the draw falls back to a uniform choice among unchosen indices and the
    SeedSet is flagged. One n-pass per seed except the last: n*(k-1)
    squared-distance evaluations. Weights that overflow float64 raise
    EngineError.
    """
    _check_k(d, k)
    seed = fresh_seed() if seed is None else int(seed)
    rng = make_rng(seed)
    points = d.points
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    dmin = np.full(n, np.inf)
    evals = 0
    fallback = False
    while len(chosen) < k:
        dmin = np.minimum(dmin, ((points - points[chosen[-1]]) ** 2).sum(axis=1))
        evals += n
        total = dmin.sum()
        if not np.isfinite(total):
            raise EngineError(
                "non-finite kmeanspp weights: squared distances overflow float64 "
                "(rescale the data)"
            )
        if total > 0.0:
            nxt = int(rng.choice(n, p=dmin / total))
        else:
            remaining = np.setdiff1d(np.arange(n), np.array(chosen))
            nxt = int(rng.choice(remaining))
            fallback = True
        chosen.append(nxt)
    return SeedSet(
        centroids=points[chosen],
        method="kmeanspp",
        rng_seed=seed,
        rng=RNG_NAME,
        source_indices=tuple(chosen),
        distance_evals=evals,
        uniform_fallback=fallback,
    )


def _farthest_fill(points: np.ndarray, chosen: list[int], k: int) -> tuple[list[int], int]:
    """Greedy farthest-point completion, linear route.

    Maintains each point's min squared distance to the chosen seeds with
    one n-sized distance pass per new seed; already-chosen indices are
    excluded from the argmax. Returns (all indices, distance evaluations).
    """
    n = points.shape[0]
    chosen = list(chosen)
    dmin = np.full(n, np.inf)
    evals = 0
    last = chosen[0]
    for idx in chosen[1:]:
        dmin = np.minimum(dmin, ((points - points[last]) ** 2).sum(axis=1))
        evals += n
        last = idx
    while len(chosen) < k:
        dmin = np.minimum(dmin, ((points - points[last]) ** 2).sum(axis=1))
        evals += n
        candidates = dmin.copy()
        candidates[chosen] = -np.inf
        nxt = int(np.argmax(candidates))  # ties: lowest index
        chosen.append(nxt)
        last = nxt
    return chosen, evals


@quiet_overflow  # run_fcm then rejects overflowing data
def seed_maxmin_quadratic(d: Dataset, k: int) -> SeedSet:
    """All-pairs MaxMin: start from the two points at maximum squared
    distance (lowest index pair on ties), then repeatedly add the point
    whose distance to its nearest seed is largest.

    Quadratic in n; kept as the deterministic comparison oracle for the
    linear variant and excluded from the default benchmark set.
    """
    _check_k(d, k, minimum=2)
    points = d.points
    n = points.shape[0]
    dmat = sq_dists(points, points)
    evals = n * (n - 1) // 2
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    flat = np.where(upper, dmat, -1.0)
    best = int(np.argmax(flat))  # row-major scan = lexicographic (i, j)
    chosen = [best // n, best % n]
    while len(chosen) < k:
        dmin = dmat[:, chosen].min(axis=1)
        dmin[chosen] = -np.inf
        chosen.append(int(np.argmax(dmin)))
    return SeedSet(
        centroids=points[chosen],
        method="maxmin",
        source_indices=tuple(chosen),
        distance_evals=evals,
    )


@quiet_overflow  # run_fcm then rejects overflowing data
def seed_maxmin_linear(d: Dataset, k: int) -> SeedSet:
    """Linear MaxMin: first seed nearest the grand mean, second farthest
    from the first, remaining seeds by farthest-from-nearest-seed.

    Exactly n*k squared-distance evaluations: one n-pass against the grand
    mean and one per seed except the last.
    """
    _check_k(d, k, minimum=2)
    points = d.points
    n = points.shape[0]
    xbar = points.mean(axis=0)
    d2_mean = ((points - xbar) ** 2).sum(axis=1)
    evals = n
    first = int(np.argmin(d2_mean))  # ties: lowest index
    chosen, fill_evals = _farthest_fill(points, [first], k)
    return SeedSet(
        centroids=points[chosen],
        method="maxmin_linear",
        source_indices=tuple(chosen),
        distance_evals=evals + fill_evals,
    )


# The strategy registry, in report order: id -> the function that draws
# its seeds or, for a best-of-RELAUNCH_COUNT strategy, the id it relaunches.
# A strategy is stochastic when its function takes a `seed` (relaunches
# always are). Functions are plain dict values so that a wrapper rebound
# over this module's functions (a tracer) also sees calls made via the table.
SEEDERS = {
    "macqueen1": seed_macqueen_first_k,
    "macqueen2": seed_macqueen2,
    "faber": "macqueen2",
    "kmeanspp": seed_kmeanspp,
    "kmeanspp_x10": "kmeanspp",
    "maxmin": seed_maxmin_quadratic,
    "maxmin_linear": seed_maxmin_linear,
}

STRATEGIES = tuple(SEEDERS)

STOCHASTIC = frozenset(
    method
    for method, seeder in SEEDERS.items()
    if isinstance(seeder, str) or "seed" in inspect.signature(seeder).parameters
)


def _seeder(method: str):
    try:
        return SEEDERS[method]
    except KeyError:
        raise ValueError(f"unknown seeding method {method!r}") from None


def seed_repeated(
    strategy: str,
    d: Dataset,
    k: int,
    r: int = RELAUNCH_COUNT,
    seed: int | None = None,
    cfg: FcmConfig | None = None,
    label: str | None = None,
) -> tuple[SeedSet, FcmResult]:
    """Run r independent seed+FCM relaunches of a stochastic strategy and
    keep the run with the smallest final FW (ties: lowest relaunch index).

    Relaunch seeds are derived from the master seed by hashing the
    relaunch index. The winning FcmResult's `iterations` is replaced by
    the summed total over all relaunches, which is the cost the benchmark
    reports. A failed relaunch is discarded if at least one succeeds.
    """
    if r < 1:
        raise ValueError(f"relaunch count must be >= 1, got {r}")
    inner = SEEDERS.get(strategy)
    if not callable(inner) or strategy not in STOCHASTIC:
        raise ValueError(f"seed_repeated needs a stochastic strategy, got {strategy!r}")
    cfg = cfg or FcmConfig()
    seed = fresh_seed() if seed is None else int(seed)
    label = label or strategy

    best: tuple[SeedSet, FcmResult] | None = None
    total_iterations = 0
    last_error: EngineError | None = None
    for i in range(r):
        seeds = inner(d, k, seed=derive_seed(seed, i))
        try:
            result = run_fcm(d, seeds, cfg)
        except EngineError as exc:
            last_error = exc
            continue
        total_iterations += result.iterations
        if best is None or result.fw < best[1].fw:
            best = (seeds, result)
    if best is None:
        raise last_error if last_error is not None else EngineError("all relaunches failed")

    seeds, result = best
    seeds = replace(seeds, method=label, rng_seed=seed, relaunches=r)
    result.method = label
    result.iterations = total_iterations
    return seeds, result


def make_seeds(d: Dataset, k: int, method: str, seed: int | None = None,
               cfg: FcmConfig | None = None) -> SeedSet:
    """Produce a SeedSet for any strategy id.

    The relaunch strategies must run FCM internally to pick their winner,
    so they accept a config (defaulted) even though only seeds are
    returned.
    """
    seeder = _seeder(method)
    if isinstance(seeder, str):
        return seed_repeated(seeder, d, k, seed=seed, cfg=cfg, label=method)[0]
    return seeder(d, k, seed=seed) if method in STOCHASTIC else seeder(d, k)


def fit_method(d: Dataset, k: int, method: str, cfg: FcmConfig | None = None,
               seed: int | None = None) -> tuple[SeedSet, FcmResult]:
    """Seed with the named strategy and run FCM to convergence."""
    cfg = cfg or FcmConfig()
    seeder = _seeder(method)
    if isinstance(seeder, str):
        return seed_repeated(seeder, d, k, seed=seed, cfg=cfg, label=method)
    seeds = make_seeds(d, k, method, seed=seed)
    return seeds, run_fcm(d, seeds, cfg)
