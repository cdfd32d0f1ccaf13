"""Fuzzy cluster validity indices.

Seven scalar quality scores of a fuzzy partition, each with a fixed
optimization direction. They consume the final membership matrix,
centroids and inertia decomposition (FW, FB, FI) of a run; none makes a
distance pass over the data. Division-by-zero cases (zero within-inertia,
coincident centroids) yield an infinity sentinel plus a quality flag
rather than an exception.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .engine import FcmResult, _finite, quiet_overflow, sq_dists

INDEX_DIRECTIONS = {
    "pc": "maximize",
    "cl": "maximize",
    "fratio": "maximize",
    "fch": "maximize",
    "tsfd": "maximize",
    "fs": "minimize",
    "xb": "minimize",
}


@dataclass(frozen=True)
class ValidityScores:
    """The seven index values for one partition, plus quality flags."""

    pc: float
    cl: float
    fratio: float
    fch: float
    fs: float
    xb: float
    tsfd: float
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = {key: encode_inf(float(getattr(self, key))) for key in INDEX_DIRECTIONS}
        out["flags"] = list(self.flags)
        return out


def encode_inf(v):
    """JSON form of a value: an infinite float becomes "inf" or "-inf"."""
    if isinstance(v, float) and np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def decode_inf(v):
    """Inverse of encode_inf."""
    return float(v) if v in ("inf", "-inf") else v


def v_pc(u: np.ndarray) -> float:
    """Partition coefficient, (1/n) sum u_ik^2; in [1/K, 1], maximize."""
    u = np.asarray(u, dtype=float)
    return float((u**2).sum() / u.shape[0])


def v_cl(u: np.ndarray) -> float:
    """Chen-Linkens index: mean max-membership minus the normalized sum of
    pairwise mean min-memberships; in [0, 1], maximize."""
    u = np.asarray(u, dtype=float)
    n, k = u.shape
    if k < 2:
        raise ValueError("index needs at least 2 clusters")
    rows = np.ascontiguousarray(u.T)  # strided column pairs read slower
    compactness = float(rows.max(axis=0).mean())
    pairs = 0.0
    for a in range(k - 1):
        for b in range(a + 1, k):
            pairs += float(np.minimum(rows[a], rows[b]).mean())
    c = k * (k - 1) / 2
    return compactness - pairs / c


def v_fratio(fb: float, fw: float) -> float:
    """Between/within ratio FB/FW; maximize. FW = 0 gives +inf."""
    if fw == 0.0:
        return float("inf")
    return fb / fw


def v_fch(fb: float, fw: float, n: int, k: int) -> float:
    """Degrees-of-freedom penalized ratio ((n-k)/(k-1)) * FB/FW; maximize."""
    if k < 2:
        raise ValueError("index needs at least 2 clusters")
    if n <= k:
        raise ValueError(f"need n > k, got n={n}, k={k}")
    return (n - k) / (k - 1) * v_fratio(fb, fw)


def v_fs(fw: float, fb: float) -> float:
    """Within minus between, FW - FB; in [-FI, FI], minimize."""
    return fw - fb


@quiet_overflow
def v_xb(fw: float, n: int, centroids: np.ndarray) -> float:
    """Xie-Beni index: FW / (n * min pairwise squared centroid distance);
    minimize. FW is the FCM objective of the partition, so the fit's own
    value serves. Coincident centroids give +inf; a squared centroid
    distance that overflows float64 raises EngineError."""
    centroids = np.asarray(centroids, dtype=float)
    if centroids.shape[0] < 2:
        raise ValueError("index needs at least 2 centroids")
    cd2 = sq_dists(centroids, centroids)
    _finite("distances between centroids", cd2)
    np.fill_diagonal(cd2, np.inf)
    sep = float(cd2.min())
    if sep == 0.0:
        return float("inf")
    return fw / (n * sep)


def v_tsfd(fb: float, fi: float) -> float:
    """Between share of the total scatter, FB/FI; in [0, 1], maximize.

    Equals the affine rescaling (1 + (FB - FW)/FI) / 2 of the standardized
    difference when FI = FB + FW, which is FB/FI rewritten.
    """
    if fi <= 0.0:
        raise ValueError(f"fuzzy inertia must be positive, got {fi}")
    if fb < -1e-9 * fi or fb > fi * (1.0 + 1e-9):
        raise ValueError(f"need 0 <= fb <= fi, got fb={fb}, fi={fi}")
    return min(max(fb / fi, 0.0), 1.0)


def score_partition(n: int, centroids: np.ndarray, u: np.ndarray,
                    fw: float, fb: float, fi: float) -> ValidityScores:
    """Evaluate all seven indices on a partition of n points: its
    centroids, membership matrix and inertia decomposition FI = FW + FB.
    Zero FW is flagged "zero_fw" and coincident centroids
    "coincident_centroids"."""
    flags = []
    fratio = v_fratio(fb, fw)
    fch = v_fch(fb, fw, n, len(centroids))
    if np.isinf(fratio):
        flags.append("zero_fw")
    xb = v_xb(fw, n, centroids)
    if np.isinf(xb):
        flags.append("coincident_centroids")
    return ValidityScores(
        pc=v_pc(u),
        cl=v_cl(u),
        fratio=fratio,
        fch=fch,
        fs=v_fs(fw, fb),
        xb=xb,
        tsfd=v_tsfd(fb, fi),
        flags=tuple(flags),
    )


def score_result(d: Dataset, result: FcmResult) -> ValidityScores:
    """Evaluate all seven indices on the final state of a run."""
    return score_partition(d.n, result.centroids, result.membership,
                           result.fw, result.fb, result.fi)
