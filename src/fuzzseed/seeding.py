"""Initialization strategies: seven ways to pick K starting centroids.

Strategy ids (used by the CLI and benchmark reports):

    macqueen1      first K data points, in file order
    macqueen2      K distinct data points drawn uniformly at random
    faber          best of 10 macqueen2 relaunches (min final FW)
    kmeanspp       d^2-weighted probabilistic spreading
    kmeanspp_x10   best of 10 kmeanspp relaunches (min final FW)
    maxmin         farthest-pair start, then farthest-from-nearest-seed
                   (quadratic all-pairs scan in O(n*block) memory; oracle only)
    maxmin_linear  nearest-to-grand-mean start, then farthest-from-first,
                   then farthest-from-nearest-seed; O(n*k) distances total

Every argmax/argmin over data points breaks ties by lowest index, so the
deterministic strategies are exactly reproducible. Stochastic strategies
record their effective seed in the returned SeedSet. The distance-based
strategies run the engine's distance kernel on one (p, n) copy of the points.
"""

import inspect
from dataclasses import dataclass, replace

import numpy as np

from .data import SCHEMA, Dataset
from .engine import (_BLOCK_CELLS, EngineError, FcmConfig, FcmResult, _cluster_major,
                     _finite, _sq_dists_t, quiet_overflow, run_fcm)
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


def _spread(points_t: np.ndarray, chosen: list[int], k: int, pick) -> tuple[list[int], int]:
    """Greedy seeding shared by kmeanspp and both maxmin strategies:
    completes `chosen` to k indices of the columns of the (p, n) array
    `points_t`, each next one `pick(dmin, chosen)`, where dmin holds every
    point's squared distance to its nearest chosen seed.

    One n-sized distance pass per seed except the last: returns (all
    indices, n*(k-1) distance evaluations).
    """
    n = points_t.shape[1]
    chosen = list(chosen)
    dmin = np.full(n, np.inf)
    for i in range(1, k):
        c = chosen[i - 1]
        np.minimum(dmin, _sq_dists_t(points_t[:, c : c + 1], points_t)[0], out=dmin)
        if i == len(chosen):
            chosen.append(pick(dmin, chosen))
    return chosen, n * (k - 1)


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
    fallback = False

    def draw(dmin, chosen):
        nonlocal fallback
        total = dmin.sum()
        _finite("kmeanspp weights", total)
        if total > 0.0:
            return int(rng.choice(n, p=dmin / total))
        fallback = True
        return int(rng.choice(np.setdiff1d(np.arange(n), np.array(chosen))))

    chosen, evals = _spread(_cluster_major(points), [int(rng.integers(n))], k, draw)
    return SeedSet(
        centroids=points[chosen],
        method="kmeanspp",
        rng_seed=seed,
        rng=RNG_NAME,
        source_indices=tuple(chosen),
        distance_evals=evals,
        uniform_fallback=fallback,
    )


def _farthest(dmin: np.ndarray, chosen: list[int]) -> int:
    """The unchosen point farthest from its nearest seed (ties: lowest index)."""
    candidates = dmin.copy()
    candidates[chosen] = -np.inf
    return int(np.argmax(candidates))


@quiet_overflow  # run_fcm then rejects overflowing data
def seed_maxmin_quadratic(d: Dataset, k: int) -> SeedSet:
    """All-pairs MaxMin: start from the two points at maximum squared
    distance (lowest index pair on ties), then repeatedly add the point
    whose distance to its nearest seed is largest.

    Quadratic in n in time, O(n * block) in memory: the distance matrix is
    scanned _BLOCK_CELLS // n rows at a time. Kept as the deterministic
    comparison oracle for the linear variant; not in the default bench set.
    """
    _check_k(d, k, minimum=2)
    points = d.points
    points_t = _cluster_major(points)
    n = points.shape[0]
    # The matrix is exactly symmetric with a zero diagonal, so its first
    # row-major maximum above 0 is the lowest pair i < j at that distance;
    # every distance 0 leaves the pair (0, 1).
    best, chosen = 0.0, [0, 1]
    rows = max(1, _BLOCK_CELLS // n)
    for start in range(0, n, rows):
        block = _sq_dists_t(points_t[:, start : start + rows], points_t)
        at = int(np.argmax(block))
        if block.flat[at] > best:
            best, chosen = block.flat[at], [start + at // n, at % n]
    chosen, _ = _spread(points_t, chosen, k, _farthest)
    return SeedSet(
        centroids=points[chosen],
        method="maxmin",
        source_indices=tuple(chosen),
        distance_evals=n * (n - 1) // 2,
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
    points_t = _cluster_major(points)
    # points.mean, not a mean over points_t's rows, which sums in another order
    d2_mean = _sq_dists_t(points.mean(axis=0)[:, None], points_t)[0]
    first = int(np.argmin(d2_mean))  # ties: lowest index
    chosen, fill_evals = _spread(points_t, [first], k, _farthest)
    return SeedSet(
        centroids=points[chosen],
        method="maxmin_linear",
        source_indices=tuple(chosen),
        distance_evals=points.shape[0] + fill_evals,
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
    _check_k(d, k, minimum=2)  # every relaunch runs FCM
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
        raise last_error  # r >= 1, so some relaunch failed

    seeds, result = best
    seeds = replace(seeds, method=label, rng_seed=seed, relaunches=r)
    result.method = label
    result.iterations = total_iterations
    return seeds, result


def make_seeds(d: Dataset, k: int, method: str, seed: int | None = None) -> SeedSet:
    """Produce a SeedSet for any strategy id; a relaunch strategy picks its
    winner by FCM runs at the default FcmConfig."""
    seeder = SEEDERS.get(method)
    if not callable(seeder):  # a relaunch strategy, or an unknown id fit_method rejects
        return fit_method(d, k, method, seed=seed)[0]
    return seeder(d, k, seed=seed) if method in STOCHASTIC else seeder(d, k)


def fit_method(d: Dataset, k: int, method: str, cfg: FcmConfig | None = None,
               seed: int | None = None) -> tuple[SeedSet, FcmResult]:
    """Seed with the named strategy and run FCM to convergence."""
    if method not in SEEDERS:
        raise ValueError(f"unknown seeding method {method!r}")
    _check_k(d, k, minimum=2)  # FCM needs two seeds, whichever strategy draws them
    if isinstance(SEEDERS[method], str):
        return seed_repeated(SEEDERS[method], d, k, seed=seed, cfg=cfg, label=method)
    seeds = make_seeds(d, k, method, seed=seed)
    return seeds, run_fcm(d, seeds, cfg)
