"""Fuzzy c-means iteration and the fuzzy inertia decomposition.

The alternating updates minimize the fuzzy within-inertia

    FW = sum_i sum_k u_ik^m d2(x_i, c_k)

over membership matrices U (rows sum to 1) and centroids C. The total
scatter FI = sum u_ik^m d2(x_i, xbar) splits as FI = FW + FB whenever
the centroids are the u^m-weighted means, with the between part
FB = sum_k (sum_i u_ik^m) d2(c_k, xbar). All distances are squared
Euclidean; no other metric is supported.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset


class EngineError(Exception):
    """Base class for iteration failures."""


class CollapsedClusterError(EngineError):
    """A cluster received zero total membership mass."""


@dataclass(frozen=True)
class FcmConfig:
    """Iteration parameters: fuzziness m > 1, relative-FW tolerance, cap."""

    m: float = 2.0
    epsilon: float = 1e-4
    max_iterations: int = 1000

    def __post_init__(self):
        if not self.m > 1.0:
            raise ValueError(f"fuzziness m must exceed 1, got {self.m}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass
class FcmResult:
    """Outcome of one fit: final state, trace, and inertia decomposition.

    `iterations` counts completed membership+centroid cycles. For results
    produced by multi-relaunch strategies it is the summed total over all
    relaunches (the reported cost), which may exceed len(objective_trace).
    """

    centroids: np.ndarray
    membership: np.ndarray
    iterations: int
    objective_trace: list[float]
    fw: float
    fb: float
    fi: float
    method: str | None = None
    dataset: str | None = None
    m: float = 2.0
    epsilon: float = 1e-4

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def to_dict(self) -> dict:
        return {
            "schema": "fuzzseed/1",
            "method": self.method,
            "dataset": self.dataset,
            "n": int(self.membership.shape[0]),
            "k": int(self.k),
            "m": float(self.m),
            "epsilon": float(self.epsilon),
            "iterations": int(self.iterations),
            "fw": float(self.fw),
            "fb": float(self.fb),
            "fi": float(self.fi),
            "centroids": [[float(v) for v in row] for row in self.centroids],
            "objective_trace": [float(v) for v in self.objective_trace],
        }


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (len(a), len(b)).

    Fills one column per row of `b` from a single reused (len(a), p)
    difference buffer, so the scratch memory is O(len(a) * p) and no
    (len(a), len(b), p) tensor is built. Each entry is the same
    sum-of-products over p as the broadcast einsum, bit for bit.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty((a.shape[0], b.shape[0]))
    diff = np.empty_like(a)
    for j, row in enumerate(b):
        np.subtract(a, row, out=diff)
        np.einsum("ij,ij->i", diff, diff, out=out[:, j])
    return out


def _membership(d2: np.ndarray, m: float) -> np.ndarray:
    """Membership from squared point-to-centroid distances (see
    update_membership); the one home of the coincident-point rule."""
    u = np.zeros_like(d2)
    zero = d2 == 0.0
    degenerate = zero.any(axis=1)
    if degenerate.any():
        hits = zero[degenerate]
        u[degenerate] = hits / hits.sum(axis=1, keepdims=True)
    regular = ~degenerate
    if regular.any():
        dr = d2[regular]
        w = (dr / dr.min(axis=1, keepdims=True)) ** (-1.0 / (m - 1.0))
        u[regular] = w / w.sum(axis=1, keepdims=True)
    return u


def update_membership(points: np.ndarray, centroids: np.ndarray, m: float) -> np.ndarray:
    """Membership update: u_ik = 1 / sum_j (d2_ik / d2_ij)^(1/(m-1)).

    Rows where the point coincides with one or more centroids (zero
    distance) split mass 1 equally among the coinciding centroids.
    Weights are normalized by the row-minimum distance before
    exponentiation so the computation cannot overflow.
    """
    points = np.asarray(points, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    if centroids.shape[0] < 2:
        raise ValueError("need at least 2 centroids")
    if not m > 1.0:
        raise ValueError(f"fuzziness m must exceed 1, got {m}")
    return _membership(sq_dists(points, centroids), m)


def update_centroids(points: np.ndarray, u: np.ndarray, m: float) -> np.ndarray:
    """Centroid update: c_k = sum_i u_ik^m x_i / sum_i u_ik^m."""
    points = np.asarray(points, dtype=float)
    um = np.asarray(u, dtype=float) ** m
    return _weighted_means(points, um, um.sum(axis=0))


def _weighted_means(points: np.ndarray, um: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Centroids from u^m and its column sums; a zero column collapses."""
    empty = np.nonzero(mass == 0.0)[0]
    if empty.size:
        raise CollapsedClusterError(f"cluster {empty[0]} has zero membership mass")
    return (um.T @ points) / mass[:, None]


def fuzzy_within(points, centroids, u, m: float) -> float:
    """FW: membership-weighted sum of squared point-to-centroid distances."""
    um = np.asarray(u, dtype=float) ** m
    return float((um * sq_dists(points, centroids)).sum())


def fuzzy_between(points, centroids, u, m: float) -> float:
    """FB: membership-weighted sum of squared centroid-to-grand-mean distances."""
    col_mass = (np.asarray(u, dtype=float) ** m).sum(axis=0)
    return _between(np.asarray(points, dtype=float), np.asarray(centroids, dtype=float), col_mass)


def _between(points: np.ndarray, centroids: np.ndarray, col_mass: np.ndarray) -> float:
    xbar = points.mean(axis=0)
    d2 = ((centroids - xbar) ** 2).sum(axis=1)
    return float((col_mass * d2).sum())


def fuzzy_inertia(points, u, m: float) -> float:
    """FI: membership-weighted total scatter about the grand mean."""
    row_mass = (np.asarray(u, dtype=float) ** m).sum(axis=1)
    return _inertia(np.asarray(points, dtype=float), row_mass)


def _inertia(points: np.ndarray, row_mass: np.ndarray) -> float:
    xbar = points.mean(axis=0)
    d2 = ((points - xbar) ** 2).sum(axis=1)
    return float((row_mass * d2).sum())


def run_fcm(d: Dataset, seeds, cfg: FcmConfig | None = None) -> FcmResult:
    """Alternate membership/centroid updates from the given seeds.

    Stops when the relative FW change drops below cfg.epsilon (a previous
    FW of exactly 0 counts as converged) or at cfg.max_iterations. One
    iteration is one completed membership+centroid cycle; FW is recorded
    after each cycle. A non-finite FW or centroid (squared distances that
    overflow float64) raises EngineError.

    `seeds` is a SeedSet or anything with a `.centroids` (K, p) array;
    a bare array works too.
    """
    cfg = cfg or FcmConfig()
    centroids = np.array(getattr(seeds, "centroids", seeds), dtype=float)
    method = getattr(seeds, "method", None)
    n = d.n
    k = centroids.shape[0]
    if k < 2:
        raise EngineError(f"need at least 2 seeds, got {k}")
    if k > n:
        raise EngineError(f"k={k} exceeds n={n}")
    if centroids.shape[1] != d.p:
        raise EngineError(
            f"seed dimension {centroids.shape[1]} does not match data p={d.p}"
        )

    points = d.points
    m = cfg.m
    # The distances that give FW for one cycle are the ones the next
    # cycle's membership update needs: one distance pass per cycle.
    d2 = sq_dists(points, centroids)
    trace: list[float] = []
    prev_fw = None
    for _ in range(cfg.max_iterations):
        u = _membership(d2, m)
        um = u**m
        mass = um.sum(axis=0)
        centroids = _weighted_means(points, um, mass)
        d2 = sq_dists(points, centroids)
        fw = float((um * d2).sum())
        if not (np.isfinite(fw) and np.isfinite(centroids).all()):
            raise EngineError(
                f"non-finite FW or centroids in iteration {len(trace) + 1}: "
                "squared distances overflow float64 (rescale the data)"
            )
        trace.append(fw)
        if prev_fw is not None and (
            prev_fw == 0.0 or abs(fw - prev_fw) / prev_fw < cfg.epsilon
        ):
            break
        prev_fw = fw

    return FcmResult(
        centroids=centroids,
        membership=u,
        iterations=len(trace),
        objective_trace=trace,
        fw=trace[-1],
        fb=_between(points, centroids, mass),
        fi=_inertia(points, um.sum(axis=1)),
        method=method,
        dataset=d.name,
        m=m,
        epsilon=cfg.epsilon,
    )
