"""Synthetic dataset generators.

Two constructions: equal-size Gaussian clusters whose cluster i is
centered at coordinate value i in every dimension (overlap is dialed in
by raising sigma), and a skewed-noise augmentation that plants outliers
around each label's gravity center, below it with a small probability
and above it otherwise.
"""

from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset, check_types, load_csv_source
from .rng import fresh_seed, make_rng


@dataclass(frozen=True)
class GaussianSpec:
    """k clusters of `size` points each; cluster i ~ Normal(i, sigma) per
    coordinate."""

    k: int
    size: int
    sigma: float
    dims: int
    rng_seed: int | None = None
    name: str | None = None

    def __post_init__(self):
        check_types(vars(self), ("k", "size", "dims", "rng_seed"), ("sigma",))
        if self.name is not None and not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {type(self.name).__name__}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.dims < 1:
            raise ValueError(f"dims must be >= 1, got {self.dims}")


@dataclass(frozen=True)
class NoiseSpec:
    """Skewed-noise parameters: how many points per label, the probability
    of landing below the label center, and how many label sds out the
    noise starts."""

    points_per_label: int = 5
    left_fraction: float = 0.25
    spread_multiplier: float = 2.0
    rng_seed: int | None = None

    def __post_init__(self):
        check_types(vars(self), ("points_per_label", "rng_seed"),
                    ("left_fraction", "spread_multiplier"))
        if self.points_per_label < 1:
            raise ValueError(f"points_per_label must be >= 1, got {self.points_per_label}")
        if not 0.0 < self.left_fraction < 1.0:
            raise ValueError(f"left_fraction must be in (0, 1), got {self.left_fraction}")
        if not self.spread_multiplier > 0:
            raise ValueError(f"spread_multiplier must be positive, got {self.spread_multiplier}")


def gen_gaussian_clusters(spec: GaussianSpec) -> Dataset:
    """Generate k labeled Gaussian clusters, deterministic under rng_seed.
    Each cluster's draw is written into one preallocated table, which the
    Dataset adopts, so the table is built once."""
    seed = fresh_seed() if spec.rng_seed is None else spec.rng_seed
    rng = make_rng(seed)
    size = spec.size
    points = np.empty((spec.k * size, spec.dims))
    for i in range(1, spec.k + 1):
        points[(i - 1) * size: i * size] = rng.normal(loc=float(i), scale=spec.sigma,
                                                      size=(size, spec.dims))
    labels = np.repeat(np.arange(1, spec.k + 1), size)
    name = spec.name or f"gaussian_k{spec.k}_sd{spec.sigma:g}"
    return Dataset._adopt(points, labels, name)


def add_skewed_noise(d: Dataset, spec: NoiseSpec) -> Dataset:
    """Append noisy points around each label's gravity center.

    Per label the center and per-feature sd are computed, then
    `points_per_label` points are placed beyond spread_multiplier sds of
    the center on every feature: below it when r <= left_fraction, above
    it otherwise (one r per point). Original rows are unchanged; new rows
    carry the label they noise.
    """
    if d.labels is None:
        raise ValueError("skewed noise needs a labeled dataset")
    seed = fresh_seed() if spec.rng_seed is None else spec.rng_seed
    rng = make_rng(seed)
    new_points, new_labels = [], []
    for label in sorted(set(d.labels.tolist())):  # np.unique would import numpy.ma
        group = d.points[d.labels == label]
        if group.shape[0] < 2:
            raise ValueError(f"label {label} has fewer than 2 points; sd undefined")
        center = group.mean(axis=0)
        sd = group.std(axis=0)  # population convention, as in data.standardize
        for _ in range(spec.points_per_label):
            r = rng.uniform()
            side = -1.0 if r <= spec.left_fraction else 1.0
            offset = spec.spread_multiplier * sd + np.abs(rng.normal(0.0, sd))
            new_points.append(center + side * offset)
            new_labels.append(label)
    return Dataset._adopt(
        np.vstack([d.points, np.array(new_points)]),
        np.concatenate([d.labels, np.array(new_labels)]),
        f"{d.name}_noised",
    )


def _spec_args(cls, spec: dict) -> dict:
    """The fields of `cls` a JSON spec sets; the others keep their defaults."""
    return {f.name: spec[f.name] for f in fields(cls) if f.name in spec}


def dataset_from_spec(spec: dict, base_dir=".") -> Dataset:
    """Build a dataset from a JSON generator spec.

    {"kind": "gaussian_clusters", "k", "size", "sigma", "dims", "rng_seed"?, "name"?}
    {"kind": "skewed_noise", "base": <path entry or nested spec>,
     "points_per_label"?, "left_fraction"?, "spread_multiplier"?, "rng_seed"?}

    The base of a skewed_noise spec is either {"path", "label_column"?,
    "delimiter"?} (resolved against base_dir) or another generator spec.
    Invalid parameter values, or values of the wrong type, raise
    ValueError.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("generator spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "gaussian_clusters":
        args = _spec_args(GaussianSpec, spec)
        missing = {"k", "size", "sigma", "dims"} - args.keys()
        if missing:
            raise ValueError(f"gaussian_clusters spec missing {sorted(missing)}")
        return gen_gaussian_clusters(GaussianSpec(**args))
    if kind == "skewed_noise":
        base = spec.get("base")
        if not isinstance(base, dict):
            raise ValueError("skewed_noise spec needs a 'base' object")
        if "path" in base:
            base_ds = load_csv_source(base, base_dir)
        else:
            base_ds = dataset_from_spec(base, base_dir=base_dir)
        return add_skewed_noise(base_ds, NoiseSpec(**_spec_args(NoiseSpec, spec)))
    raise ValueError(f"unknown generator kind {kind!r}")
