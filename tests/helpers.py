"""Independent reference routes used to cross-check the library.

Everything here is written with plain loops, straight from the defining
formulas, and must stay independent of the implementations it checks.
"""

import numpy as np


def brute_force_membership(points, centroids, m):
    """Membership by direct evaluation: u_ik = 1 / sum_j (d2ik/d2ij)^(1/(m-1))."""
    points = np.asarray(points, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    n, k = points.shape[0], centroids.shape[0]
    u = np.zeros((n, k))
    for i in range(n):
        d2 = [float(((points[i] - centroids[j]) ** 2).sum()) for j in range(k)]
        zeros = [j for j in range(k) if d2[j] == 0.0]
        if zeros:
            for j in zeros:
                u[i, j] = 1.0 / len(zeros)
            continue
        for j in range(k):
            u[i, j] = 1.0 / sum((d2[j] / d2[l]) ** (1.0 / (m - 1.0)) for l in range(k))
    return u


def brute_force_inertias(points, centroids, u, m):
    """(FW, FB, FI) by direct summation."""
    points = np.asarray(points, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    xbar = points.mean(axis=0)
    fw = fb = fi = 0.0
    for i in range(points.shape[0]):
        for k in range(centroids.shape[0]):
            w = u[i, k] ** m
            fw += w * float(((points[i] - centroids[k]) ** 2).sum())
            fb += w * float(((centroids[k] - xbar) ** 2).sum())
            fi += w * float(((points[i] - xbar) ** 2).sum())
    return fw, fb, fi


def random_membership(rng, n, k):
    """Valid random membership matrix: positive rows normalized to 1."""
    u = rng.uniform(0.01, 1.0, size=(n, k))
    return u / u.sum(axis=1, keepdims=True)


def random_instance(rng, max_n=30, max_k=6, max_p=4):
    """Random (points, centroids) pair with K <= n."""
    n = int(rng.integers(2, max_n + 1))
    k = int(rng.integers(2, min(max_k, n) + 1))
    p = int(rng.integers(1, max_p + 1))
    points = rng.normal(size=(n, p))
    centroids = rng.normal(size=(k, p))
    return points, centroids


def whole_array_sq_dists_t(a_t, b_t):
    """engine._sq_dists_t before column blocking: squared distances between
    the columns of two (p, .) arrays, (a_q - b_q)^2 added in feature order
    onto zeros over the whole output at once."""
    out = np.zeros((a_t.shape[1], b_t.shape[1]))
    tmp = np.empty_like(out)
    for a_q, b_q in zip(a_t, b_t):
        np.subtract.outer(a_q, b_q, out=tmp)
        tmp *= tmp
        out += tmp
    return out


def whole_array_fuzzify(d2, m):
    """engine._fuzzify before column blocking: memberships from (k, n)
    squared distances, each step over the whole array, written over d2."""
    dmin = d2.min(axis=0)
    coincident = np.flatnonzero(dmin == 0.0)
    if coincident.size:
        hits = d2[:, coincident] == 0.0
        d2[:, coincident] = 1.0
        dmin[coincident] = 1.0
    d2 /= dmin
    d2 **= -1.0 / (m - 1.0)
    d2 /= d2.sum(axis=0)
    if coincident.size:
        d2[:, coincident] = hits / hits.sum(axis=0)
    return d2


def reference_run_fcm(d, seeds, cfg=None):
    """run_fcm as the point-major engine computed it: (n, k) distances
    filled one centroid column at a time, memberships row by row, in the
    data's own coordinates. The parity tests run the strategies on it and
    on the library's engine and compare every fit."""
    from fuzzseed import EngineError, FcmConfig, FcmResult
    from fuzzseed.engine import CollapsedClusterError

    def sq_dists(a, b):
        out = np.empty((a.shape[0], b.shape[0]))
        diff = np.empty_like(a)
        for j, row in enumerate(b):
            np.subtract(a, row, out=diff)
            np.einsum("ij,ij->i", diff, diff, out=out[:, j])
        return out

    def membership(d2, m):
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

    cfg = cfg or FcmConfig()
    centroids = np.array(getattr(seeds, "centroids", seeds), dtype=float)
    points, m = d.points, cfg.m
    if (points == points[0]).all():
        raise EngineError(f"all {d.n} points are identical: there is no partition to fit")
    d2 = sq_dists(points, centroids)
    trace, prev_fw = [], None
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_iterations):
            u = membership(d2, m)
            um = u**m
            mass = um.sum(axis=0)
            if (mass == 0.0).any():
                raise CollapsedClusterError("a cluster has zero membership mass")
            centroids = (um.T @ points) / mass[:, None]
            d2 = sq_dists(points, centroids)
            fw = float((um * d2).sum())
            if not (np.isfinite(fw) and np.isfinite(centroids).all()):
                raise EngineError("non-finite FW or centroids")
            trace.append(fw)
            if prev_fw is not None and (prev_fw == 0.0 or abs(fw - prev_fw) / prev_fw < cfg.epsilon):
                break
            prev_fw = fw
    xbar = points.mean(axis=0)
    return FcmResult(
        centroids=centroids,
        membership=u,
        iterations=len(trace),
        objective_trace=trace,
        fw=trace[-1],
        fb=float((mass * ((centroids - xbar) ** 2).sum(axis=1)).sum()),
        fi=float((um.sum(axis=1) * ((points - xbar) ** 2).sum(axis=1)).sum()),
        method=getattr(seeds, "method", None),
        dataset=d.name,
        m=m,
        epsilon=cfg.epsilon,
    )


def _reference_spread(points, chosen, k, pick):
    """The seeders' nearest-seed loop as the point-major code ran it: a
    row sum of squared differences per seed, folded into dmin."""
    n = points.shape[0]
    chosen = list(chosen)
    dmin = np.full(n, np.inf)
    for i in range(1, k):
        dmin = np.minimum(dmin, ((points - points[chosen[i - 1]]) ** 2).sum(axis=1))
        if i == len(chosen):
            chosen.append(pick(dmin, chosen))
    return chosen, n * (k - 1)


def _reference_farthest(dmin, chosen):
    candidates = dmin.copy()
    candidates[chosen] = -np.inf
    return int(np.argmax(candidates))


def reference_seed_kmeanspp(points, k, seed):
    """seed_kmeanspp as the point-major seeders computed it. Returns
    (source_indices, distance_evals, uniform_fallback)."""
    from fuzzseed.rng import make_rng

    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    rng = make_rng(seed)
    fallback = False

    def draw(dmin, chosen):
        nonlocal fallback
        total = dmin.sum()
        if total > 0.0:
            return int(rng.choice(n, p=dmin / total))
        fallback = True
        return int(rng.choice(np.setdiff1d(np.arange(n), np.array(chosen))))

    chosen, evals = _reference_spread(points, [int(rng.integers(n))], k, draw)
    return tuple(chosen), evals, fallback


def reference_seed_maxmin_linear(points, k):
    """seed_maxmin_linear as the point-major seeders computed it. Returns
    (source_indices, distance_evals, uniform_fallback)."""
    points = np.asarray(points, dtype=float)
    first = int(np.argmin(((points - points.mean(axis=0)) ** 2).sum(axis=1)))
    chosen, evals = _reference_spread(points, [first], k, _reference_farthest)
    return tuple(chosen), points.shape[0] + evals, False


def reference_seed_maxmin_quadratic(points, k):
    """seed_maxmin_quadratic as the whole-matrix oracle computed it: the
    n x n matrix summed feature by feature, the first maximum of its
    strict upper triangle, then a greedy loop over matrix columns. Returns
    (source_indices, distance_evals, uniform_fallback)."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    dmat = np.zeros((n, n))
    for x_q in points.T:
        diff = np.subtract.outer(x_q, x_q)
        dmat += diff * diff
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    best = int(np.argmax(np.where(upper, dmat, -1.0)))
    chosen = [best // n, best % n]
    while len(chosen) < k:
        dmin = dmat[:, chosen].min(axis=1)
        dmin[chosen] = -np.inf
        chosen.append(int(np.argmax(dmin)))
    return tuple(chosen), n * (n - 1) // 2, False


def reference_load_csv(path, label_column=None, delimiter=","):
    """load_csv cell by cell: float() and isfinite on every feature cell;
    int() on every label cell, and float() only where int() rejects it,
    checked where it is met. Same contract and messages as load_csv, except
    that it reads the whole file before it looks at the header: a file the
    csv module cannot read fails here before a missing label column would."""
    import csv
    import math
    import os

    from fuzzseed import DataError, Dataset

    def parse(cell):
        try:
            value = float(cell)
        except ValueError:
            return None
        return value if math.isfinite(value) else None

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh, delimiter=delimiter))
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    numbered = [(i + 1, row) for i, row in enumerate(rows) if row]
    if not numbered:
        raise DataError(f"{path}: file contains no data")
    first = numbered[0][1]
    has_header = any(parse(cell) is None for cell in first)
    header = [cell.strip() for cell in first] if has_header else None
    data_rows = numbered[1:] if has_header else numbered
    if not data_rows:
        raise DataError(f"{path}: no data rows after header")
    label_idx = None
    if label_column is not None:
        if header is None or label_column not in header:
            raise DataError(f"{path}: label column {label_column!r} not found in header")
        label_idx = header.index(label_column)

    width = len(first)
    points, labels = [], []
    for line, row in data_rows:
        if len(row) != width:
            raise DataError(f"{path}: row at line {line} has {len(row)} cells, expected {width}")
        feats = []
        for col, cell in enumerate(row, start=1):
            cell = cell.strip()
            if col - 1 == label_idx:
                try:  # a label is read exactly when int() reads it
                    value = int(cell)
                except ValueError:
                    value = parse(cell)
            else:
                value = parse(cell)
            if value is None:
                raise DataError(f"{path}: non-numeric cell {cell!r} at line {line}, column {col}")
            if col - 1 == label_idx:
                if value != int(value):
                    raise DataError(f"{path}: non-integer label {cell!r} at line {line}")
                if abs(value) >= 2**63:
                    raise DataError(f"{path}: out-of-range label {cell!r} at line {line}")
                labels.append(int(value))
            else:
                feats.append(value)
        points.append(feats)
    return Dataset(
        points=np.array(points, dtype=float),
        labels=np.array(labels, dtype=int) if label_idx is not None else None,
        name=os.path.splitext(os.path.basename(str(path)))[0],
    )


def reference_write_csv(d, path, lineterminator="\r\n"):
    """data.write_csv through the csv module's writer, as it was before
    the %-format row writer; `lineterminator` "\\n" gives the newline
    style of `fit --membership-out`."""
    import csv

    header = [f"x{j + 1}" for j in range(d.p)]
    rows = d.points.tolist()
    if d.labels is not None:
        header.append("label")
        for row, label in zip(rows, d.labels.tolist()):
            row.append(label)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)
