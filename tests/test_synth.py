import numpy as np
import pytest

from fuzzseed import (
    Dataset,
    GaussianSpec,
    NoiseSpec,
    add_skewed_noise,
    dataset_from_spec,
    gen_gaussian_clusters,
    load_csv,
    write_csv,
)
from fuzzseed.rng import make_rng

from .conftest import traced_peak


def test_gaussian_three_cluster_shape():
    ds = gen_gaussian_clusters(GaussianSpec(k=3, size=50, sigma=0.3, dims=3, rng_seed=1))
    assert (ds.n, ds.p) == (150, 3)
    assert sorted(np.unique(ds.labels)) == [1, 2, 3]
    assert all((ds.labels == lab).sum() == 50 for lab in (1, 2, 3))


def test_gaussian_five_cluster_overlapped_shape():
    ds = gen_gaussian_clusters(GaussianSpec(k=5, size=50, sigma=0.4, dims=3, rng_seed=2))
    assert (ds.n, ds.p) == (250, 3)
    assert len(np.unique(ds.labels)) == 5


def test_gaussian_moments():
    ds = gen_gaussian_clusters(GaussianSpec(k=1, size=10_000, sigma=0.3, dims=2, rng_seed=3))
    assert np.all(np.abs(ds.points.mean(axis=0) - 1.0) <= 0.01)
    assert np.all(np.abs(ds.points.std(axis=0) - 0.3) <= 0.01)


def test_gaussian_cluster_means_follow_index():
    ds = gen_gaussian_clusters(GaussianSpec(k=4, size=2_000, sigma=0.3, dims=2, rng_seed=4))
    for lab in range(1, 5):
        block = ds.points[ds.labels == lab]
        assert np.all(np.abs(block.mean(axis=0) - lab) <= 0.03)


def test_gaussian_deterministic():
    spec = GaussianSpec(k=3, size=20, sigma=0.3, dims=3, rng_seed=5)
    assert np.array_equal(gen_gaussian_clusters(spec).points, gen_gaussian_clusters(spec).points)


@pytest.mark.parametrize("k, size, dims", [(1, 30, 3), (4, 1, 2), (3, 20, 1), (10, 2000, 16)])
def test_gaussian_matches_a_list_and_vstack_reference_bitwise(k, size, dims):
    spec = GaussianSpec(k=k, size=size, sigma=0.7, dims=dims, rng_seed=21)
    rng = make_rng(21)
    blocks = [rng.normal(loc=float(i), scale=0.7, size=(size, dims)) for i in range(1, k + 1)]
    labels = [i for i in range(1, k + 1) for _ in range(size)]
    ds = gen_gaussian_clusters(spec)
    assert ds.points.tobytes() == np.vstack(blocks).tobytes()
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == labels


def test_gaussian_peak_memory_is_near_its_table():
    # one preallocated table, one cluster's draw, the labels and the
    # finiteness check; stacking cluster blocks peaked at about 3.3 tables
    spec = GaussianSpec(k=10, size=5000, sigma=0.6, dims=16, rng_seed=22)
    ds, peak = traced_peak(gen_gaussian_clusters, spec)
    assert peak <= 1.5 * ds.points.nbytes


def test_gaussian_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec(k=0, size=50, sigma=0.3, dims=3)
    with pytest.raises(ValueError):
        GaussianSpec(k=3, size=50, sigma=0.0, dims=3)
    with pytest.raises(ValueError):
        GaussianSpec(k=3, size=0, sigma=0.3, dims=3)


def test_noise_grows_dataset(ruspini_like):
    noised = add_skewed_noise(ruspini_like, NoiseSpec(points_per_label=5, rng_seed=6))
    assert (noised.n, noised.p) == (95, 2)
    assert len(np.unique(noised.labels)) == 4
    for lab in np.unique(ruspini_like.labels):
        assert (noised.labels == lab).sum() == (ruspini_like.labels == lab).sum() + 5
    # original rows are untouched and come first
    assert np.array_equal(noised.points[:75], ruspini_like.points)
    assert noised.name == "ruspini_like_noised"


def test_noise_side_fraction():
    rng = np.random.default_rng(7)
    base = Dataset(
        points=rng.normal(size=(40, 1)), labels=np.ones(40, dtype=int), name="b"
    )
    noised = add_skewed_noise(base, NoiseSpec(points_per_label=10_000, rng_seed=8))
    center = base.points.mean()
    below = (noised.points[40:, 0] < center).mean()
    assert below == pytest.approx(0.25, abs=0.02)


def test_noise_placed_beyond_two_sds(ruspini_like):
    noised = add_skewed_noise(ruspini_like, NoiseSpec(points_per_label=50, rng_seed=9))
    for lab in np.unique(ruspini_like.labels):
        group = ruspini_like.points[ruspini_like.labels == lab]
        center, sd = group.mean(axis=0), group.std(axis=0)
        fresh = noised.points[75:][noised.labels[75:] == lab]
        offsets = np.abs(fresh - center)
        assert np.all(offsets.max(axis=1) >= (2.0 * sd - 1e-9).min())
        # construction places every feature beyond two label sds
        assert np.all(offsets >= 2.0 * sd - 1e-9)


def test_noise_requires_labels_and_group_size():
    with pytest.raises(ValueError, match="label"):
        add_skewed_noise(Dataset(points=[[1.0], [2.0]]), NoiseSpec(rng_seed=1))
    lonely = Dataset(points=[[1.0], [2.0], [3.0]], labels=[1, 1, 2])
    with pytest.raises(ValueError, match="fewer than 2"):
        add_skewed_noise(lonely, NoiseSpec(rng_seed=1))


def test_noise_deterministic(ruspini_like):
    spec = NoiseSpec(points_per_label=5, rng_seed=10)
    a = add_skewed_noise(ruspini_like, spec)
    b = add_skewed_noise(ruspini_like, spec)
    assert np.array_equal(a.points, b.points)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(points_per_label=0)
    with pytest.raises(ValueError):
        NoiseSpec(left_fraction=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(spread_multiplier=0.0)


def test_generated_csv_line_count(tmp_path):
    ds = gen_gaussian_clusters(GaussianSpec(k=3, size=50, sigma=0.3, dims=3, rng_seed=11))
    path = tmp_path / "gen.csv"
    write_csv(ds, path)
    assert len(path.read_text().splitlines()) == 151  # header + 150 rows
    back = load_csv(path, label_column="label")
    assert np.array_equal(back.points, ds.points)
    assert np.array_equal(back.labels, ds.labels)


def test_dataset_from_spec_gaussian():
    ds = dataset_from_spec(
        {"kind": "gaussian_clusters", "k": 5, "size": 50, "sigma": 0.4, "dims": 3, "rng_seed": 12}
    )
    assert (ds.n, ds.p) == (250, 3)


def test_dataset_from_spec_noise_with_base_path(tmp_path, ruspini_like):
    write_csv(ruspini_like, tmp_path / "base.csv")
    ds = dataset_from_spec(
        {
            "kind": "skewed_noise",
            "base": {"path": "base.csv", "label_column": "label"},
            "points_per_label": 5,
            "rng_seed": 13,
        },
        base_dir=tmp_path,
    )
    assert (ds.n, ds.p) == (95, 2)


def test_dataset_from_spec_rejects_bad_input():
    with pytest.raises(ValueError, match="kind"):
        dataset_from_spec({"k": 3})
    with pytest.raises(ValueError, match="sigma"):
        dataset_from_spec({"kind": "gaussian_clusters", "k": 3, "size": 5, "sigma": -1, "dims": 2})
    with pytest.raises(ValueError, match="missing"):
        dataset_from_spec({"kind": "gaussian_clusters", "k": 3})
    with pytest.raises(ValueError, match="unknown"):
        dataset_from_spec({"kind": "moons"})
