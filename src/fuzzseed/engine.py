"""Fuzzy c-means iteration and the fuzzy inertia decomposition.

The alternating updates minimize the fuzzy within-inertia

    FW = sum_i sum_k u_ik^m d2(x_i, c_k)

over membership matrices U (rows sum to 1) and centroids C. The total
scatter FI = sum u_ik^m d2(x_i, xbar) splits as FI = FW + FB whenever
the centroids are the u^m-weighted means, with the between part
FB = sum_k (sum_i u_ik^m) d2(c_k, xbar). All distances are squared
Euclidean; no other metric is supported.

The kernel works cluster-major: points as a C-ordered (p, n) array,
distances, u and u^m as (k, n) arrays. run_fcm centres the points on
their grand mean once and keeps its centroids centred until it returns
them, so FW, FB and FI are summed from differences of the data's own
scale whatever its offset. The public single-step functions run the same
kernel on the coordinates they are given.
"""

from dataclasses import dataclass

import numpy as np

from .data import SCHEMA, Dataset


class EngineError(Exception):
    """Base class for iteration failures."""


class CollapsedClusterError(EngineError):
    """A cluster received zero total membership mass."""


# For routines whose overflowing squared distances end in an EngineError:
# numpy's warnings would only repeat it. numpy keeps this state per
# context, so a decorated call made by a bench worker thread is covered.
quiet_overflow = np.errstate(over="ignore", invalid="ignore")


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
            "schema": SCHEMA,
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


def _cluster_major(a) -> np.ndarray:
    """An (n, .) array as the C-ordered (., n) float array the kernel uses."""
    return np.ascontiguousarray(np.asarray(a, dtype=float).T)


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, a C-ordered (len(a), len(b))
    array accumulated one feature at a time (see _sq_dists_t). Each
    operand's columns are read as contiguous rows of its transpose, which
    costs no copy for an F-ordered operand such as run_fcm's centred
    points."""
    a_t, b_t = _cluster_major(a), _cluster_major(b)
    if a_t.shape[0] != b_t.shape[0]:
        raise ValueError(f"dimension mismatch: {a_t.shape[0]} vs {b_t.shape[0]} features")
    return _sq_dists_t(a_t, b_t)


def _sq_dists_t(a_t: np.ndarray, b_t: np.ndarray) -> np.ndarray:
    """Squared distances between the columns of two (p, .) arrays.

    Accumulates one feature at a time, (a_q - b_q)^2 added in feature
    order, so the scratch memory is one output-sized buffer and no
    (len(a), len(b), p) tensor is built. A point equal to a centroid gets
    an exact 0, which the coincident-point rule relies on.
    """
    out = np.zeros((a_t.shape[1], b_t.shape[1]))
    tmp = np.empty_like(out)
    for a_q, b_q in zip(a_t, b_t):
        np.subtract.outer(a_q, b_q, out=tmp)
        tmp *= tmp
        out += tmp
    return out


def _fuzzify(d2: np.ndarray, m: float) -> np.ndarray:
    """Memberships from (k, n) squared distances, written over `d2`; see
    update_membership. The one home of the coincident-point rule."""
    dmin = d2.min(axis=0)
    coincident = np.flatnonzero(dmin == 0.0)
    if coincident.size:
        hits = d2[:, coincident] == 0.0
        d2[:, coincident] = 1.0  # placeholders, overwritten below
        dmin[coincident] = 1.0
    d2 /= dmin
    d2 **= -1.0 / (m - 1.0)
    d2 /= d2.sum(axis=0)
    if coincident.size:
        d2[:, coincident] = hits / hits.sum(axis=0)
    return d2


def _centroids(points_t: np.ndarray, um: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """(k, p) centroids from (p, n) points, (k, n) u^m and its row sums;
    a cluster of zero mass collapses."""
    empty = np.flatnonzero(mass == 0.0)
    if empty.size:
        raise CollapsedClusterError(f"cluster {empty[0]} has zero membership mass")
    return (um @ points_t.T) / mass[:, None]


def _fw(um: np.ndarray, d2: np.ndarray) -> float:
    return float((um * d2).sum())


def _fb(points_t: np.ndarray, centroids: np.ndarray, mass: np.ndarray) -> float:
    xbar = points_t.mean(axis=1)[:, None]
    return float((mass * _sq_dists_t(centroids.T, xbar)[:, 0]).sum())


def _fi(points_t: np.ndarray, row_mass: np.ndarray) -> float:
    xbar = points_t.mean(axis=1)[:, None]
    return float((row_mass * _sq_dists_t(xbar, points_t)[0]).sum())


def update_membership(points: np.ndarray, centroids: np.ndarray, m: float) -> np.ndarray:
    """Membership update: u_ik = 1 / sum_j (d2_ik / d2_ij)^(1/(m-1)).

    Points that coincide with one or more centroids (zero distance)
    split mass 1 equally among the coinciding centroids. Weights are
    normalized by each point's minimum distance before exponentiation so
    the computation cannot overflow. Returns a C-ordered (n, k) array.
    """
    centroids = np.asarray(centroids, dtype=float)
    if centroids.shape[0] < 2:
        raise ValueError("need at least 2 centroids")
    if not m > 1.0:
        raise ValueError(f"fuzziness m must exceed 1, got {m}")
    return _fuzzify(sq_dists(centroids, points), m).T.copy()


def update_centroids(points: np.ndarray, u: np.ndarray, m: float) -> np.ndarray:
    """Centroid update: c_k = sum_i u_ik^m x_i / sum_i u_ik^m."""
    um = _cluster_major(u) ** m
    return _centroids(_cluster_major(points), um, um.sum(axis=1))


def fuzzy_within(points, centroids, u, m: float) -> float:
    """FW: membership-weighted sum of squared point-to-centroid distances."""
    return _fw(_cluster_major(u) ** m, sq_dists(centroids, points))


def fuzzy_between(points, centroids, u, m: float) -> float:
    """FB: membership-weighted sum of squared centroid-to-grand-mean distances."""
    mass = (_cluster_major(u) ** m).sum(axis=1)
    return _fb(_cluster_major(points), np.asarray(centroids, dtype=float), mass)


def fuzzy_inertia(points, u, m: float) -> float:
    """FI: membership-weighted total scatter about the grand mean."""
    row_mass = (_cluster_major(u) ** m).sum(axis=0)
    return _fi(_cluster_major(points), row_mass)


@quiet_overflow
def run_fcm(d: Dataset, seeds, cfg: FcmConfig | None = None) -> FcmResult:
    """Alternate membership/centroid updates from the given seeds.

    Stops when the relative FW change drops below cfg.epsilon (a previous
    FW of exactly 0 counts as converged) or at cfg.max_iterations. One
    iteration is one completed membership+centroid cycle; FW is recorded
    after each cycle. A non-finite FW or centroid (squared distances that
    overflow float64) raises EngineError, and so do n identical points,
    which admit no partition (FI = 0).

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
    if (points == points[0]).all():
        raise EngineError(f"all {n} points are identical: there is no partition to fit")
    m = cfg.m
    # The loop works on points centred on their grand mean, held
    # cluster-major; the centroids stay centred until they are returned.
    xbar = points.mean(axis=0)
    points_t = np.subtract(points.T, xbar[:, None], order="C")
    centroids = centroids - xbar
    # The distances that give FW for one cycle are the ones the next
    # cycle's membership update needs: one distance pass per cycle.
    d2 = sq_dists(centroids, points_t.T)
    trace: list[float] = []
    prev_fw = None
    for _ in range(cfg.max_iterations):
        u = _fuzzify(d2, m)
        um = u**m
        mass = um.sum(axis=1)
        centroids = _centroids(points_t, um, mass)
        d2 = sq_dists(centroids, points_t.T)
        fw = _fw(um, d2)
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
        centroids=centroids + xbar,
        membership=u.T.copy(),
        iterations=len(trace),
        objective_trace=trace,
        fw=trace[-1],
        fb=_fb(points_t, centroids, mass),
        fi=_fi(points_t, um.sum(axis=0)),
        method=method,
        dataset=d.name,
        m=m,
        epsilon=cfg.epsilon,
    )
