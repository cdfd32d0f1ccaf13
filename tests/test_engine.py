import numpy as np
import pytest

from fuzzseed import (
    CollapsedClusterError,
    Dataset,
    EngineError,
    FcmConfig,
    FcmResult,
    fuzzy_between,
    fuzzy_inertia,
    fuzzy_within,
    run_fcm,
    update_centroids,
    update_membership,
)
from fuzzseed import engine
from fuzzseed.engine import sq_dists

from .helpers import brute_force_membership, random_instance, random_membership

# Fixed point of the two-pairs instance, computed by iterating the update
# equations to 1e-16 with an independent script; x is not exactly 0 because
# the far pair keeps a tiny membership share.
TWO_PAIRS_FIXED_X = 6.2189826312314563e-05


def test_config_validation():
    FcmConfig()  # defaults are valid
    with pytest.raises(ValueError):
        FcmConfig(m=1.0)
    with pytest.raises(ValueError):
        FcmConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        FcmConfig(max_iterations=0)


def test_membership_equidistant_is_half():
    u = update_membership(np.array([[0.0]]), np.array([[-1.0], [1.0]]), 2.0)
    assert np.allclose(u, [[0.5, 0.5]])


def test_membership_at_centroid_is_crisp():
    u = update_membership(np.array([[2.0]]), np.array([[2.0], [5.0], [9.0]]), 2.0)
    assert np.array_equal(u, [[1.0, 0.0, 0.0]])


def test_membership_splits_between_coincident_centroids():
    u = update_membership(np.array([[2.0]]), np.array([[2.0], [2.0], [9.0]]), 2.0)
    assert np.array_equal(u, [[0.5, 0.5, 0.0]])


def test_membership_hand_value():
    # d2 = 1 and 4 -> u = (0.8, 0.2)
    u = update_membership(np.array([[0.0]]), np.array([[-1.0], [2.0]]), 2.0)
    assert np.allclose(u, [[0.8, 0.2]], atol=1e-15)


def test_membership_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(50):
        points, centroids = random_instance(rng)
        m = float(rng.choice([1.5, 2.0, 3.0]))
        u = update_membership(points, centroids, m)
        assert np.abs(u.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.abs(u - brute_force_membership(points, centroids, m)).max() <= 1e-12


def test_membership_preconditions():
    with pytest.raises(ValueError):
        update_membership(np.zeros((3, 1)), np.zeros((1, 1)), 2.0)
    with pytest.raises(ValueError):
        update_membership(np.zeros((3, 1)), np.zeros((2, 1)), 1.0)


def test_centroids_crisp_reduces_to_means():
    points = np.array([[0.0], [2.0], [10.0], [14.0]])
    u = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
    c = update_centroids(points, u, 2.0)
    assert np.allclose(c, [[1.0], [12.0]])


def test_centroids_uniform_gives_grand_mean():
    rng = np.random.default_rng(2)
    points = rng.normal(size=(12, 3))
    u = np.full((12, 4), 0.25)
    c = update_centroids(points, u, 2.0)
    assert np.allclose(c, np.tile(points.mean(axis=0), (4, 1)))


def test_centroids_hand_value():
    points = np.array([[0.0], [3.0]])
    u = np.array([[0.8, 0.2], [0.2, 0.8]])
    c = update_centroids(points, u, 2.0)
    assert c[0, 0] == pytest.approx(3 / 17, abs=1e-15)


def test_centroids_collapsed_cluster():
    points = np.array([[0.0], [1.0]])
    u = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(CollapsedClusterError):
        update_centroids(points, u, 2.0)


def test_fuzzy_within_zero_at_coincidence():
    points = np.array([[1.0], [5.0]])
    u = np.eye(2)
    assert fuzzy_within(points, points, u, 2.0) == 0.0


def test_fuzzy_within_hand_sum():
    points = np.array([[0.0], [2.0]])
    u = np.ones((2, 1))
    assert fuzzy_within(points, np.array([[1.0]]), u, 2.0) == pytest.approx(2.0)


def test_fuzzy_between_zero_at_grand_mean():
    points = np.array([[0.0, 0.0], [2.0, 2.0]])
    centroids = np.tile(points.mean(axis=0), (2, 1))
    u = random_membership(np.random.default_rng(3), 2, 2)
    assert fuzzy_between(points, centroids, u, 2.0) == 0.0


def test_fuzzy_inertia_crisp_single_cluster_is_total_ss():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(15, 2))
    u = np.ones((15, 1))
    tss = float(((points - points.mean(axis=0)) ** 2).sum())
    assert fuzzy_inertia(points, u, 2.0) == pytest.approx(tss, rel=1e-12)


def test_decomposition_after_centroid_update():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(20, 2))
    u = random_membership(rng, 20, 3)
    c = update_centroids(points, u, 2.0)
    fw = fuzzy_within(points, c, u, 2.0)
    fb = fuzzy_between(points, c, u, 2.0)
    fi = fuzzy_inertia(points, u, 2.0)
    assert abs(fi - (fw + fb)) <= 1e-9 * fi


def test_run_fcm_two_pairs_fixed_point(two_pairs):
    seeds = np.array([[0.0, 0.0], [10.0, 0.0]])
    res = run_fcm(two_pairs, seeds, FcmConfig(epsilon=1e-12))
    assert np.allclose(res.centroids, [[0.0, 0.5], [10.0, 0.5]], atol=1e-3)
    assert res.centroids[0, 0] == pytest.approx(TWO_PAIRS_FIXED_X, abs=1e-9)
    assert res.centroids[1, 0] == pytest.approx(10.0 - TWO_PAIRS_FIXED_X, abs=1e-9)
    assert np.allclose(res.centroids[:, 1], 0.5, atol=1e-12)
    assert res.fi == pytest.approx(res.fw + res.fb, rel=1e-12)


def test_run_fcm_fixed_point_seeds_converge_fast(two_pairs):
    res = run_fcm(two_pairs, np.array([[0.0, 0.5], [10.0, 0.5]]), FcmConfig())
    assert res.iterations <= 2


def test_run_fcm_trace_non_increasing():
    rng = np.random.default_rng(6)
    for _ in range(20):
        points, centroids = random_instance(rng)
        d = Dataset(points=points, name="fuzz")
        res = run_fcm(d, points[: centroids.shape[0]], FcmConfig(m=1.7))
        trace = res.objective_trace
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-9 * abs(prev) + 1e-12
        assert res.iterations == len(trace) <= 1000


def test_run_fcm_zero_objective_converges():
    d = Dataset(points=[[0.0], [1.0]], name="tiny")
    res = run_fcm(d, d.points, FcmConfig())
    assert res.fw == 0.0
    assert res.iterations == 2


def test_run_fcm_seed_permutation_equivariance(two_pairs):
    seeds = np.array([[0.0, 0.0], [10.0, 0.0]])
    a = run_fcm(two_pairs, seeds, FcmConfig())
    b = run_fcm(two_pairs, seeds[::-1], FcmConfig())
    assert np.array_equal(a.centroids, b.centroids[::-1])
    assert np.array_equal(a.membership, b.membership[:, ::-1])


def test_run_fcm_row_permutation_equivariance():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(10, 2))
    perm = rng.permutation(10)
    seeds = points[[0, 4]]
    a = run_fcm(Dataset(points=points, name="a"), seeds, FcmConfig())
    b = run_fcm(Dataset(points=points[perm], name="b"), seeds, FcmConfig())
    assert np.allclose(a.membership[perm], b.membership)


def test_membership_crispens_as_m_approaches_one():
    rng = np.random.default_rng(8)
    points = rng.normal(size=(12, 2))
    centroids = rng.normal(size=(3, 2))
    peaks = [
        update_membership(points, centroids, m).max(axis=1) for m in (3.0, 2.0, 1.2)
    ]
    assert np.all(peaks[1] >= peaks[0] - 1e-12)
    assert np.all(peaks[2] >= peaks[1] - 1e-12)


def test_run_fcm_errors(two_pairs):
    with pytest.raises(EngineError, match="exceeds"):
        run_fcm(two_pairs, np.zeros((5, 2)), FcmConfig())
    with pytest.raises(EngineError, match="at least 2"):
        run_fcm(two_pairs, np.zeros((1, 2)), FcmConfig())
    with pytest.raises(EngineError, match="dimension"):
        run_fcm(two_pairs, np.zeros((2, 3)), FcmConfig())


def test_result_serialization(two_pairs):
    res = run_fcm(two_pairs, np.array([[0.0, 0.0], [10.0, 0.0]]), FcmConfig())
    payload = res.to_dict()
    assert payload["schema"] == "fuzzseed/1"
    assert payload["k"] == 2
    assert payload["n"] == 4
    assert payload["iterations"] == len(payload["objective_trace"])
    assert payload["fi"] == pytest.approx(payload["fw"] + payload["fb"], rel=1e-12)
    assert isinstance(payload["centroids"][0][0], float)


def stepwise_fcm(points, centroids, cfg):
    """run_fcm's loop composed from the public single-step operations,
    with two distance passes per cycle."""
    trace, prev_fw = [], None
    for _ in range(cfg.max_iterations):
        u = update_membership(points, centroids, cfg.m)
        centroids = update_centroids(points, u, cfg.m)
        fw = fuzzy_within(points, centroids, u, cfg.m)
        trace.append(fw)
        if prev_fw is not None and (prev_fw == 0.0 or abs(fw - prev_fw) / prev_fw < cfg.epsilon):
            break
        prev_fw = fw
    fb = fuzzy_between(points, centroids, u, cfg.m)
    return centroids, u, trace, fb, fuzzy_inertia(points, u, cfg.m)


def fusion_instance(rng):
    """Random points with duplicate rows, seeded from data points so some
    points coincide with seeds (and sometimes two seeds coincide)."""
    points, _ = random_instance(rng, max_n=40)
    n = points.shape[0]
    dup = rng.integers(n, size=int(rng.integers(0, n // 2 + 1)))
    points[dup] = points[rng.integers(n, size=dup.size)]
    k = int(rng.integers(2, min(6, n) + 1))
    seeds = points[rng.choice(n, size=k, replace=bool(rng.random() < 0.2))]
    return points, seeds


def test_run_fcm_matches_stepwise_composition_bitwise():
    # run_fcm iterates on points and seeds centred on the grand mean and
    # shifts its centroids back on output; so does the composition here
    rng = np.random.default_rng(9)
    for trial in range(150):
        points, seeds = fusion_instance(rng)
        cfg = FcmConfig(m=(1.5, 2.0, 3.0)[trial % 3], epsilon=1e-6)
        xbar = points.mean(axis=0)
        centroids, u, trace, fb, fi = stepwise_fcm(points - xbar, seeds - xbar, cfg)
        res = run_fcm(Dataset(points=points, name="fuzz"), seeds, cfg)
        assert np.array_equal(res.centroids, centroids + xbar)
        assert np.array_equal(res.membership, u)
        assert res.membership.flags.c_contiguous
        assert res.objective_trace == trace
        assert res.fw == trace[-1]
        assert res.fb == fb
        assert res.fi == fi


def test_sq_dists_matches_per_feature_accumulation_bitwise():
    rng = np.random.default_rng(10)
    for p in [*range(1, 34), 64, 129]:
        for n_a, n_b in [(50, 7), (9, 9), (3, 40), (0, 4), (5, 0)]:
            a = rng.normal(size=(n_a, p)) * 10.0 ** rng.uniform(-3, 3)
            b = rng.normal(size=(n_b, p)) + rng.uniform(-100, 100)
            expected = np.zeros((n_a, n_b))
            for q in range(p):
                expected += (a[:, q][:, None] - b[:, q][None, :]) ** 2
            for a_, b_ in [(a, b), (np.asfortranarray(a), np.asfortranarray(b))]:
                got = sq_dists(a_, b_)
                assert got.flags.c_contiguous
                assert np.array_equal(got, expected)


def test_run_fcm_one_distance_pass_per_cycle(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append(b.shape[0])
        return sq_dists(a, b)

    monkeypatch.setattr(engine, "sq_dists", counting)
    rng = np.random.default_rng(11)
    points = rng.normal(size=(60, 3))
    for cfg in (FcmConfig(), FcmConfig(epsilon=1e-15, max_iterations=7)):
        calls.clear()
        res = run_fcm(Dataset(points=points, name="r"), points[:4], cfg)
        assert len(calls) == res.iterations + 1
    assert res.iterations == 7


def test_run_fcm_non_finite_is_engine_error():
    points = np.random.default_rng(12).normal(size=(30, 2)) * 1e200
    with pytest.raises(EngineError, match="non-finite"):
        run_fcm(Dataset(points=points, name="huge"), points[:3], FcmConfig())


def test_run_fcm_identical_points_is_engine_error():
    # three copies of (0.1, 0.7) give FI = 1.9e-32, not 0, from the rounded
    # grand mean: the rows are compared, not FI
    for points in ([[1.0, 1.0]] * 4, [[0.1, 0.7]] * 3):
        with pytest.raises(EngineError, match="all .* points are identical"):
            run_fcm(Dataset(points=points, name="same"), points[:2], FcmConfig())
    res = run_fcm(Dataset(points=[[0.0], [0.0], [1.0]], name="two"), [[0.0], [1.0]])
    assert res.fw == 0.0
