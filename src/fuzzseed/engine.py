"""Fuzzy c-means iteration and the fuzzy inertia decomposition.

The alternating updates minimize the fuzzy within-inertia

    FW = sum_i sum_k u_ik^m d2(x_i, c_k)

over membership matrices U (rows sum to 1) and centroids C. The total
scatter FI = sum u_ik^m d2(x_i, xbar) splits as FI = FW + FB whenever
the centroids are the u^m-weighted means, with the between part
FB = sum_k (sum_i u_ik^m) d2(c_k, xbar). All distances are squared
Euclidean; no other metric is supported.

The kernel works cluster-major: points as a C-ordered (p, n) array,
distances, u and u^m as (r, k, n) arrays for r seed sets iterated
together (run_fcm_stacked; run_fcm is its r = 1 case). Small distance
arrays are computed in one broadcast pass; larger ones, and the
memberships, are filled one cache-sized column block at a time, all under
quiet_overflow's small ufunc buffer, which spares short rows numpy's slow
buffered path. The loop centres the points on their grand mean once and
keeps its centroids centred until it returns them, so FW, FB and FI are
summed from differences of the data's own scale whatever its offset. The
public single-step functions run the same kernel on the coordinates they
are given.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import SCHEMA, Dataset, check_types


class EngineError(Exception):
    """Base class for iteration failures."""


class CollapsedClusterError(EngineError):
    """A cluster received zero total membership mass."""


_BUFSIZE = 512  # elements of numpy's ufunc buffer in the kernels; see quiet_overflow


def quiet_overflow(fn):
    """Run fn under a _BUFSIZE ufunc buffer and without overflow warnings,
    which its EngineError would only repeat. At numpy's default of 8192, a
    broadcast call on three operands at most 8192 // 3 columns wide (say
    np.subtract.outer) is buffered at about 4x the cost per cell; the buffer
    holds only copies, so no bit moves. The caller's (per-thread) state is restored."""
    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        bufsize = np.setbufsize(_BUFSIZE)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return fn(*args, **kwargs)
        finally:  # errstate restores the bufsize only from numpy 2.0 on
            np.setbufsize(bufsize)
    return scoped


def _overflow(what: str) -> EngineError:
    return EngineError(f"non-finite {what}: squared distances overflow float64 (rescale the data)")


def _finite(what: str, *values) -> None:
    """The one overflow rule: EngineError unless every value (float or array) is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise _overflow(what)


def _inertia_fault(fw: float, fb: float, fi: float) -> str | None:
    """How fw, fb, fi break the inertia rule (a NaN or inf does), or None when they keep it."""
    if not (fw >= 0.0 and fb >= 0.0 and 0.0 < fi < np.inf and abs(fi - (fw + fb)) <= 1e-9 * fi):
        return (f"need fw >= 0, fb >= 0, finite fi > 0 and fi = fw + fb within 1e-9 relative, "
                f"got {fw!r}, {fb!r}, {fi!r}")


@dataclass(frozen=True)
class FcmConfig:
    """Iteration parameters: finite fuzziness m > 1, finite relative-FW
    tolerance epsilon > 0, integer iteration cap >= 1."""

    m: float = 2.0
    epsilon: float = 1e-4
    max_iterations: int = 1000

    def __post_init__(self):
        check_types(vars(self), ("max_iterations",), ("m", "epsilon"))
        if not 1.0 < self.m < np.inf:
            raise ValueError(f"fuzziness m must be finite and exceed 1, got {self.m}")
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
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
    m: float = FcmConfig.m
    epsilon: float = FcmConfig.epsilon

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


# Output cells per column block of the distance and membership kernel:
# 2**16 float64 cells (512 KiB) keep a block and its scratch inside a
# core's L2 cache, so the per-feature passes over a large (k, n) array
# run from cache instead of from memory. A distance pass whose whole
# (p, k, n) difference tensor fits it is made in one broadcast instead.
_BLOCK_CELLS = 1 << 16


def _column_blocks(rows: int, cols: int) -> list[slice]:
    """Column slices of a (rows, cols) array: blocks _BLOCK_CELLS // rows
    columns wide (at least 2), the last one narrower; or the whole array,
    when it fits one block.

    numpy sums a single column over its rows pairwise, but a wider block
    row by row, as it sums the whole array; so a one-column remainder
    joins the first block, which is then the widest.
    """
    width = max(2, _BLOCK_CELLS // max(rows, 1))
    if cols <= width:
        return [slice(0, cols)]
    bounds = [0, *range(width + (cols % width == 1), cols, width), cols]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _sq_dists_t(a_t: np.ndarray, b_t: np.ndarray) -> np.ndarray:
    """Squared distances between the columns of two (p, .) arrays.

    Both paths add (a_q - b_q)^2 in feature order, so they agree to the
    bit, and a point equal to a centroid gets an exact 0, which the
    coincident-point rule relies on.

    When the whole (p, len(a), len(b)) difference tensor fits
    _BLOCK_CELLS cells and the output has at least 2 cells: one broadcast
    subtraction, an in-place square and a sum over the feature axis, 3
    numpy calls instead of about 3p. numpy sums that axis in order only
    when the tensor is C-ordered, which the explicit buffer ensures
    whatever the operands' order (for an F-ordered operand such as
    centroids.T the default output order would make the feature axis
    contiguous); it sums a one-cell output pairwise, so that takes the
    loop.

    Otherwise the output is filled one column block at a time
    (_column_blocks), the first square written in place, with one block
    of scratch memory and no tensor.
    """
    p, rows, cols = a_t.shape[0], a_t.shape[1], b_t.shape[1]
    if not p:  # no features: every distance is 0
        return np.zeros((rows, cols))
    if p * rows * cols <= _BLOCK_CELLS and rows * cols >= 2:
        diffs = np.empty((p, rows, cols))
        np.subtract(a_t[:, :, None], b_t[:, None, :], out=diffs)
        diffs *= diffs
        return np.add.reduce(diffs, axis=0)
    out = np.empty((rows, cols))
    blocks = _column_blocks(rows, cols)
    scratch = np.empty((rows, blocks[0].stop))
    for span in blocks:
        block, tmp = out[:, span], scratch[:, : span.stop - span.start]
        np.subtract.outer(a_t[0], b_t[0, span], out=block)
        block *= block
        for a_q, b_q in zip(a_t[1:], b_t[1:, span]):
            np.subtract.outer(a_q, b_q, out=tmp)
            tmp *= tmp
            block += tmp
    return out


def _fuzzify(d2: np.ndarray, m: float) -> np.ndarray:
    """Memberships from (r, k, n) squared distances, r independent (k, n)
    slices, written over `d2` one column block at a time; see
    update_membership. The one home of the coincident-point rule."""
    r, k, n = d2.shape
    for cols in _column_blocks(r * k, n):
        block = d2[:, :, cols]
        dmin = block.min(axis=1, keepdims=True)
        coincide = not dmin.all()  # some point sits on a centroid
        if coincide:
            at, _, col = np.nonzero(dmin == 0.0)  # (slice, column) of each such point
            hits = block[at, :, col] == 0.0
            block[at, :, col] = 1.0  # placeholders, overwritten below
            dmin[at, 0, col] = 1.0
        block /= dmin
        block **= -1.0 / (m - 1.0)
        block /= block.sum(axis=1, keepdims=True)
        if coincide:
            block[at, :, col] = hits / hits.sum(axis=1, keepdims=True)
    return d2


def _collapsed(mass: np.ndarray) -> CollapsedClusterError:
    """The error for a cluster mass row that holds a 0."""
    empty = np.flatnonzero(mass == 0.0)[0]
    return CollapsedClusterError(f"cluster {empty} has zero membership mass")


def _centroids(points_t: np.ndarray, um: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """(..., k, p) centroids from (p, n) points, (..., k, n) u^m and its
    row sums, all of them nonzero."""
    return (um @ points_t.T) / mass[..., None]


def _fb(points_t: np.ndarray, centroids: np.ndarray, mass: np.ndarray) -> float:
    xbar = points_t.mean(axis=1)[:, None]
    return float((mass * _sq_dists_t(centroids.T, xbar)[:, 0]).sum())


def _fi(points_t: np.ndarray, row_mass: np.ndarray) -> float:
    xbar = points_t.mean(axis=1)[:, None]
    return float((row_mass * _sq_dists_t(xbar, points_t)[0]).sum())


@quiet_overflow
def update_membership(points: np.ndarray, centroids: np.ndarray, m: float) -> np.ndarray:
    """Membership update: u_ik = 1 / sum_j (d2_ik / d2_ij)^(1/(m-1)).

    Points that coincide with one or more centroids (zero distance)
    split mass 1 equally among the coinciding centroids. Weights are
    normalized by each point's minimum distance before exponentiation so
    the computation cannot overflow. Returns a C-ordered (n, k) array.
    A squared distance that overflows float64 raises EngineError.
    """
    centroids = np.asarray(centroids, dtype=float)
    if centroids.shape[0] < 2:
        raise ValueError("need at least 2 centroids")
    FcmConfig(m=m)  # the one fuzziness rule: finite and above 1
    d2 = sq_dists(centroids, points)
    _finite("distances to the centroids", d2)
    return _fuzzify(d2[None], m)[0].T.copy()


def update_centroids(points: np.ndarray, u: np.ndarray, m: float) -> np.ndarray:
    """Centroid update: c_k = sum_i u_ik^m x_i / sum_i u_ik^m."""
    um = _cluster_major(u) ** m
    mass = um.sum(axis=1)
    if not mass.all():
        raise _collapsed(mass)
    return _centroids(_cluster_major(points), um, mass)


def fuzzy_within(points, centroids, u, m: float) -> float:
    """FW: membership-weighted sum of squared point-to-centroid distances."""
    um = _cluster_major(u) ** m
    um *= sq_dists(centroids, points)
    return float(um.sum())


def fuzzy_between(points, centroids, u, m: float) -> float:
    """FB: membership-weighted sum of squared centroid-to-grand-mean distances."""
    mass = (_cluster_major(u) ** m).sum(axis=1)
    return _fb(_cluster_major(points), np.asarray(centroids, dtype=float), mass)


def fuzzy_inertia(points, u, m: float) -> float:
    """FI: membership-weighted total scatter about the grand mean."""
    row_mass = (_cluster_major(u) ** m).sum(axis=0)
    return _fi(_cluster_major(points), row_mass)


def run_fcm(d: Dataset, seeds, cfg: FcmConfig | None = None) -> FcmResult:
    """Alternate membership/centroid updates from the given seeds.

    Stops when the relative FW change drops below cfg.epsilon (a previous
    FW of exactly 0 counts as converged) or at cfg.max_iterations. One
    iteration is one completed membership+centroid cycle; FW is recorded
    after each cycle. EngineError is raised by a non-finite FW, centroid,
    FB or FI (overflow), a split that breaks _inertia_fault's rule
    (underflow), n identical points, which admit no partition, and a final
    u^m row that underflows to 0 (a huge m), which leaves a point out of FW.

    `seeds` is a SeedSet or anything with a `.centroids` (K, p) array;
    a bare array works too. This is run_fcm_stacked on one seed set.
    """
    (outcome,) = run_fcm_stacked(d, [seeds], cfg)
    if isinstance(outcome, EngineError):
        raise outcome
    outcome.membership = outcome.membership.copy()
    return outcome


@quiet_overflow
def run_fcm_stacked(d: Dataset, seed_sets, cfg: FcmConfig | None = None) -> list:
    """run_fcm from each of r seed sets of one shape, iterated together.

    Returns one outcome per seed set, in order: the FcmResult run_fcm
    would return for it alone, to the bit, or the EngineError it would
    raise. A fault every seed set shares (k < 2, k > n, a seed dimension
    other than p, identical points) is raised instead.

    The loop holds (r, k, n) distances, u and u^m, and makes one sq_dists
    call per cycle over all r*k centroids. Each relaunch's exit is decided
    in one pass per cycle, once its FW is summed: one that collapses
    (carrying NaN centroids through that distance pass), goes non-finite,
    converges or reaches the iteration cap leaves the stack and the others
    go on. u^m is released before the stack is compacted, so a stack peaks
    at three (r, k, n) arrays plus the copies of the memberships of
    relaunches that left early. Each membership is an (n, k) view of the
    loop's arrays: copy the one you keep. The caller bounds r*k*n.
    """
    cfg = cfg or FcmConfig()
    seed_sets = list(seed_sets)  # read twice below
    centroids = np.array([getattr(seeds, "centroids", seeds) for seeds in seed_sets], dtype=float)
    if centroids.ndim != 3:
        raise ValueError(f"need one or more (k, p) seed arrays, got shape {centroids.shape}")
    methods = [getattr(seeds, "method", None) for seeds in seed_sets]
    r, k, p = centroids.shape
    n = d.n
    if k < 2:
        raise EngineError(f"need at least 2 seeds, got {k}")
    if k > n:
        raise EngineError(f"k={k} exceeds n={n}")
    if p != d.p:
        raise EngineError(f"seed dimension {p} does not match data p={d.p}")

    points = d.points
    if (points == points[0]).all():
        raise EngineError(f"all {n} points are identical: there is no partition to fit")
    m = cfg.m
    # The loop works on points centred on their grand mean, held
    # cluster-major; the centroids stay centred until they are returned.
    xbar = points.mean(axis=0)
    points_t = np.subtract(points.T, xbar[:, None], order="C")
    centroids -= xbar
    outcomes: list = [None] * r
    traces: list[list[float]] = [[] for _ in range(r)]
    ended = []  # (relaunch, final u, masses, centred centroids) of each that left with an FW
    live = list(range(r))  # the relaunch of each slice of the stack
    # The distances that give FW for one cycle are the ones the next
    # cycle's membership update needs: one distance pass per cycle.
    d2 = sq_dists(centroids.reshape(r * k, p), points_t.T).reshape(r, k, n)
    for cycle in range(cfg.max_iterations):
        u = _fuzzify(d2, m)
        um = u**m
        mass = um.sum(axis=2)
        # A collapsed slice's centroids are 0/0 = NaN; it is dropped below.
        centroids = _centroids(points_t, um, mass)
        d2 = sq_dists(centroids.reshape(-1, p), points_t.T).reshape(u.shape)
        um *= d2  # the products u^m d2, summed into FW in place of a fourth array
        fws = um.reshape(len(live), -1).sum(axis=1).tolist()
        del um
        stay, leave = [], []
        for pos, (fw, full) in enumerate(zip(fws, mass.all(axis=1).tolist())):
            i, trace = live[pos], traces[live[pos]]
            if not full:
                outcomes[i] = _collapsed(mass[pos])
                continue
            if not math.isfinite(fw):  # a non-finite centroid, of mass > 0, makes FW non-finite
                outcomes[i] = _overflow("FW")
                continue
            trace.append(fw)
            prev_fw = trace[-2] if len(trace) > 1 else None
            converged = prev_fw is not None and (
                prev_fw == 0.0 or abs(fw - prev_fw) / prev_fw < cfg.epsilon
            )
            (leave if converged or cycle + 1 == cfg.max_iterations else stay).append(pos)
        # on the last cycle the final memberships are slices of u itself
        ended += [(live[pos], u[pos].copy() if stay else u[pos], mass[pos], centroids[pos])
                  for pos in leave]
        if not stay:
            break
        if len(stay) < len(live):
            live = [live[pos] for pos in stay]
            d2 = d2[stay]

    # Some u_ik >= 1/k in every row, so only underflow zeroes a u^m row.
    # u^m is taken again, to the same bits, once the loop's arrays are gone.
    del d2
    for i, u, mass, centroids in ended:
        trace = traces[i]
        try:
            fb, fi = _final_split(points_t, u, mass, centroids, trace[-1], m)
        except EngineError as exc:
            outcomes[i] = exc
            continue
        outcomes[i] = FcmResult(
            centroids=centroids + xbar,
            membership=u.T,
            iterations=len(trace),
            objective_trace=trace,
            fw=trace[-1],
            fb=fb,
            fi=fi,
            method=methods[i],
            dataset=d.name,
            m=m,
            epsilon=cfg.epsilon,
        )
    return outcomes


def _final_split(points_t, u, mass, centroids, fw: float, m: float) -> tuple[float, float]:
    """FB and FI of one converged relaunch, from its (k, n) memberships,
    masses and centred centroids; EngineError when a point's u^m row is 0
    or the split breaks the inertia rule."""
    row_mass = (u**m).sum(axis=0)
    if not row_mass.all():
        raise EngineError(
            f"u**m underflows to 0 for {np.count_nonzero(row_mass == 0.0)} of {u.shape[1]} "
            f"points at m={m:g} (lower the fuzziness m)"
        )
    fb, fi = _fb(points_t, centroids, mass), _fi(points_t, row_mass)
    _finite("FB or FI", fb, fi)
    if fault := _inertia_fault(fw, fb, fi):
        raise EngineError(f"FI = FW + FB fails, as when squared distances underflow "
                          f"float64 (rescale the data): {fault}")
    return fb, fi
