import inspect
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzseed import (
    CollapsedClusterError,
    Dataset,
    EngineError,
    FcmConfig,
    FcmResult,
    GaussianSpec,
    fuzzy_between,
    fuzzy_inertia,
    fuzzy_within,
    gen_gaussian_clusters,
    run_comparison,
    run_fcm,
    run_fcm_stacked,
    seed_kmeanspp,
    seed_maxmin_linear,
    seed_maxmin_quadratic,
    update_centroids,
    update_membership,
)
from fuzzseed import engine, seeding, validity
from fuzzseed.engine import sq_dists

from .conftest import assert_same_fit, traced_peak
from .helpers import (
    brute_force_membership,
    random_instance,
    random_membership,
    whole_array_fuzzify,
    whole_array_sq_dists_t,
)

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
    # an integer float64 cannot hold passes a comparison with inf
    for name in ("m", "epsilon"):
        with pytest.raises(ValueError, match=f"{name} must be finite, got an integer too large"):
            FcmConfig(**{name: 10**400})
    # a value of the wrong JSON type: a float or bool cap, a bool or string m or epsilon
    for bad in ({"max_iterations": 2.5}, {"max_iterations": True}, {"epsilon": True},
                {"m": True}, {"m": "2"}):
        with pytest.raises(ValueError, match="must be an integer|must be a number"):
            FcmConfig(**bad)


@pytest.mark.parametrize("fw, fb, fi", [(1.0, 1.0, np.inf), (np.inf, 0.0, np.inf),
                                        (1.0, 1.0, np.nan), (0.0, 0.0, 0.0)])
def test_inertia_rule_needs_a_finite_positive_fi(fw, fb, fi):
    assert engine._inertia_fault(1.0, 1.0, 2.0) is None
    assert "finite fi > 0" in engine._inertia_fault(fw, fb, fi)


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
    with pytest.raises(ValueError, match="finite"):
        update_membership(np.zeros((3, 1)), np.zeros((2, 1)), np.inf)


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
    # outputs of several column blocks, with a partial or a one-column
    # remainder
    for k in (1, 3, 10, 16, 25):
        width = engine._BLOCK_CELLS // k
        for p, n_b in [(1, 3 * width + 5), (4, 2 * width + 1), (2, 2 * width - 3)]:
            a = rng.normal(size=(k, p)) * 10.0 ** rng.uniform(-3, 3)
            b = rng.normal(size=(n_b, p)) + rng.uniform(-100, 100)
            b[width - 1: width + 2] = a[0]  # exact zeros on both sides of a block end
            expected = np.zeros((k, n_b))
            for q in range(p):
                expected += (a[:, q][:, None] - b[:, q][None, :]) ** 2
            got = sq_dists(a, b)
            assert got.flags.c_contiguous
            assert np.array_equal(got, expected)
            assert np.array_equal(got, whole_array_sq_dists_t(a.T.copy(), b.T.copy()))
    # more than _BLOCK_CELLS // 2 rows: blocks of two columns, or three
    for k, n_b, widths in ((40000, 5, [3, 2]), (70000, 3, [3])):
        a, b = rng.normal(size=(k, 2)), rng.normal(size=(n_b, 2))
        assert [s.stop - s.start for s in engine._column_blocks(k, n_b)] == widths
        assert np.array_equal(sq_dists(a, b), whole_array_sq_dists_t(a.T.copy(), b.T.copy()))


def test_sq_dists_t_broadcast_pass_matches_whole_array_bitwise():
    # A (p, rows, cols) tensor within _BLOCK_CELLS takes the broadcast pass,
    # one cell more the loop; one-cell, one-row and one-column outputs;
    # F-ordered operands, as _fb passes centroids.T; 1e8 offsets; exact zeros
    rng = np.random.default_rng(16)
    for p in (1, 4, 8, 16, 33):
        widest = engine._BLOCK_CELLS // p  # one-row outputs up to this width fit
        shapes = [(1, 1), (1, 40), (7, 1), (10, 60), (1, widest), (1, widest + 1),
                  (4, widest // 4), (4, widest // 4 + 1)]
        for (rows, cols), offset, _ in itertools.product(shapes, (0.0, 1e8), range(3)):
            a = rng.normal(size=(rows, p)) * 10.0 ** rng.uniform(-3, 3) + offset
            b = rng.normal(size=(cols, p)) + offset
            if rows > 1:
                a[-1] = b[0]
            if cols > 1:
                b[-1] = a[0]
            expected = whole_array_sq_dists_t(a.T.copy(), b.T.copy())
            for a_t, b_t in [(a.T.copy(), b.T.copy()), (a.T, b.T), (a.T, b.T.copy())]:
                got = engine._sq_dists_t(a_t, b_t)
                assert got.flags.c_contiguous
                assert np.array_equal(got, expected), (p, rows, cols, offset)


def block_boundary_instance(rng, k, n, p):
    """n points and k seeds drawn from them, where points on both sides of
    each multiple of the block width (a block end, or one column before it
    when a one-column remainder joins the first block) coincide with a seed
    (exact zeros there), and with two seeds when k > 2."""
    width = engine._BLOCK_CELLS // k
    points = rng.normal(size=(n, p)) * 3.0
    seeds = points[rng.choice(n, size=k, replace=False)]
    if k > 2:
        seeds[2] = seeds[0]
    for end in range(width, n - 1, width):
        points[end - 1: end + 2] = seeds[[0, 1, 0]]
    return points, seeds


def test_update_membership_blocked_matches_whole_array_bitwise():
    rng = np.random.default_rng(14)
    for k in (2, 3, 10, 16, 25):
        width = engine._BLOCK_CELLS // k
        for n, m in [(2 * width + 1, 2.0), (3 * width - 7, 1.5), (2 * width, 3.0)]:
            points, centroids = block_boundary_instance(rng, k, n, 2)
            d2 = whole_array_sq_dists_t(centroids.T.copy(), points.T.copy())
            expected = whole_array_fuzzify(d2, m).T
            got = update_membership(points, centroids, m)
            assert np.array_equal(got, expected), (k, n, m)
            assert (got[width - 1: width + 2] % 0.5 == 0.0).all()  # the coincident rule
    # Points far nearer one centroid than the other 15: summed row by row,
    # 1 + 15 * 1e-16 rounds otherwise than summed pairwise, as numpy sums
    # a single column; so a one-column block would change bits.
    width = engine._BLOCK_CELLS // 16
    centroids = np.vstack([np.zeros(2), rng.normal(size=(15, 2)) * 1e8])
    points = rng.normal(size=(2 * width + 1, 2))
    d2 = whole_array_sq_dists_t(centroids.T.copy(), points.T.copy())
    assert np.array_equal(update_membership(points, centroids, 2.0),
                          whole_array_fuzzify(d2, 2.0).T)


def test_run_fcm_multi_block_matches_whole_array_composition_bitwise():
    # the stepwise composition of test_run_fcm_matches_stepwise_composition_bitwise,
    # over the whole-array kernel, on a fit of several column blocks
    rng = np.random.default_rng(15)
    k = 10
    n = 3 * (engine._BLOCK_CELLS // k) + 101
    points, seeds = block_boundary_instance(rng, k, n, 3)
    xbar = points.mean(axis=0)
    points_t = np.ascontiguousarray((points - xbar).T)
    for m in (1.5, 2.0, 3.0):
        centroids, trace = seeds - xbar, []
        for _ in range(4):
            u = whole_array_fuzzify(whole_array_sq_dists_t(centroids.T.copy(), points_t), m)
            um = u**m
            centroids = (um @ points_t.T) / um.sum(axis=1)[:, None]
            d2 = whole_array_sq_dists_t(centroids.T.copy(), points_t)
            trace.append(float((um * d2).sum()))
        res = run_fcm(Dataset(points=points, name="blocks"), seeds,
                      FcmConfig(m=m, epsilon=1e-15, max_iterations=4))
        assert np.array_equal(res.centroids, centroids + xbar)
        assert np.array_equal(res.membership, u.T)
        assert res.objective_trace == trace


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


@pytest.mark.parametrize("n, p, k", [(20000, 4, 8), (30000, 3, 16), (20000, 4, 25)])
def test_run_fcm_scratch_memory_is_three_k_by_n_arrays(n, p, k):
    # Beyond the data: the centred (p, n) copy; the distances, u and u^m
    # (FW is summed from u^m times the distances in place); one block of
    # the distance kernel's scratch, also for k > 16; numpy's iteration
    # buffers, the engine's bufsize cells for each of up to three operands;
    # and 64 KiB for the centroids, cluster masses and per-block vectors.
    assert len(engine._column_blocks(k, n)) > 1
    rng = np.random.default_rng(7)
    d = Dataset(points=rng.normal(size=(n, p)) + rng.integers(0, 5, size=(n, 1)))
    result, peak = traced_peak(run_fcm, d, d.points[:: n // k][:k], FcmConfig(max_iterations=6))
    assert result.iterations == 6
    cells = p * n + 3 * k * n + engine._BLOCK_CELLS + 3 * engine._BUFSIZE
    assert peak <= 8 * cells + 65536


def test_run_fcm_non_finite_is_engine_error():
    points = np.random.default_rng(12).normal(size=(30, 2)) * 1e200
    with pytest.raises(EngineError, match="non-finite"):
        run_fcm(Dataset(points=points, name="huge"), points[:3], FcmConfig())


def test_update_membership_non_finite_is_engine_error():
    points = np.random.default_rng(12).normal(size=(30, 2))
    with pytest.raises(EngineError, match="non-finite"):
        update_membership(points, [[1e200, 0.0], [0.0, 0.0]], 2.0)


def test_run_fcm_identical_points_is_engine_error():
    # three copies of (0.1, 0.7) give FI = 1.9e-32, not 0, from the rounded
    # grand mean: the rows are compared, not FI
    for points in ([[1.0, 1.0]] * 4, [[0.1, 0.7]] * 3):
        with pytest.raises(EngineError, match="all .* points are identical"):
            run_fcm(Dataset(points=points, name="same"), points[:2], FcmConfig())
    res = run_fcm(Dataset(points=[[0.0], [0.0], [1.0]], name="two"), [[0.0], [1.0]])
    assert res.fw == 0.0


def assert_stack_matches_run_fcm(d, seed_sets, cfg):
    """Every outcome of run_fcm_stacked is, to the bit, what run_fcm gives
    or raises for that seed set alone; returns the outcomes."""
    outcomes = run_fcm_stacked(d, seed_sets, cfg)
    assert len(outcomes) == len(seed_sets)
    for seeds, got in zip(seed_sets, outcomes):
        try:
            want = run_fcm(d, seeds, cfg)
        except EngineError as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
        else:
            assert_same_fit(got, want)
    return outcomes


def draw_seed_sets(rng, points, k, r, coincident=0.0):
    """r seed sets of k data rows, repeated rows with probability `coincident`."""
    n = len(points)
    return [points[rng.choice(n, size=k, replace=bool(rng.random() < coincident))]
            for _ in range(r)]


def test_run_fcm_stacked_matches_run_fcm_bitwise():
    rng = np.random.default_rng(16)
    # the relaunch grid's shapes: k 3, 4, 6 Gaussian clusters in 4 features;
    # at n=900, k=6 the stacked distance pass takes the per-feature loop
    for k, size in ((3, 40), (4, 40), (6, 40), (6, 150)):
        centers = rng.normal(scale=3.0, size=(k, 4))
        points = (centers[:, None, :] + rng.normal(scale=0.5, size=(k, size, 4))).reshape(-1, 4)
        d = Dataset(points=points, name=f"grid_k{k}")
        outcomes = assert_stack_matches_run_fcm(d, draw_seed_sets(rng, points, k, 10), FcmConfig())
        assert len({o.iterations for o in outcomes}) > 1  # relaunches leave at different cycles
        # the iteration cap: every relaunch stops at 3, or some converge first
        for cap in (3, 6):
            cfg = FcmConfig(epsilon=1e-3, max_iterations=cap)
            outcomes = assert_stack_matches_run_fcm(d, draw_seed_sets(rng, points, k, 5), cfg)
            assert max(o.iterations for o in outcomes) == cap
    # duplicate rows, and seeds that coincide with points and with each other
    for trial in range(40):
        points, _ = fusion_instance(rng)
        k = int(rng.integers(2, min(6, len(points)) + 1))
        cfg = FcmConfig(m=(1.5, 2.0, 3.0)[trial % 3], epsilon=1e-6)
        seed_sets = draw_seed_sets(rng, points, k, 4, coincident=0.3)
        assert_stack_matches_run_fcm(Dataset(points=points, name="fuzz"), seed_sets, cfg)
    # k >= 8 on a few points: numpy sums a reduction over one column pairwise
    for k in (8, 9, 12):
        for n in (k, k + 1, k + 3):
            points = rng.normal(size=(n, 2))
            assert_stack_matches_run_fcm(Dataset(points=points, name="tiny"),
                                         draw_seed_sets(rng, points, k, 5), FcmConfig())


def test_fcm_distance_count_is_n_k_t_plus_one(monkeypatch):
    # README's n*k*(t+1) point-to-centroid distances: sq_dists makes one pass
    # before the first cycle and one per cycle (FB and FI call _sq_dists_t)
    d = gen_gaussian_clusters(GaussianSpec(k=4, size=60, sigma=0.6, dims=3, rng_seed=5))
    n, k = d.n, 4
    cells = []

    def counted(a, b):
        out = sq_dists(a, b)
        cells.append(out.size)
        return out

    monkeypatch.setattr(engine, "sq_dists", counted)
    rng = np.random.default_rng(18)
    result = run_fcm(d, draw_seed_sets(rng, d.points, k, 1)[0])
    assert sum(cells) == n * k * (result.iterations + 1)
    cells.clear()
    outcomes = run_fcm_stacked(d, draw_seed_sets(rng, d.points, k, 7))
    assert len({o.iterations for o in outcomes}) > 1
    assert sum(cells) == sum(n * k * (o.iterations + 1) for o in outcomes)


def test_run_fcm_stacked_drops_a_collapsed_relaunch_alone():
    rng = np.random.default_rng(17)
    points = rng.normal(size=(30, 2))
    d = Dataset(points=points, name="far")
    far = np.array([[0.0, 0.0], [1e100, 1e100]])  # u^m of the far centroid underflows to 0
    seed_sets = [points[:2], far, points[5:7]]
    outcomes = assert_stack_matches_run_fcm(d, seed_sets, FcmConfig())
    assert isinstance(outcomes[1], CollapsedClusterError)
    assert str(outcomes[1]) == "cluster 1 has zero membership mass"
    assert all(isinstance(o, FcmResult) for o in (outcomes[0], outcomes[2]))
    # Points 0, 0 and 1, k = 3. From seeds 0, 1.00001, 3.3 the two
    # centroids seeded above 0 move onto the point at 1 in cycle 1, but only
    # the first lands on it to the bit; in cycle 2 that point is the first's alone
    # and the last cluster has no mass. Seeds on the points (FW = 0)
    # converge in that same cycle; seeds -1, 0.5, 2 go on.
    d = Dataset(points=[[0.0], [0.0], [1.0]], name="pair_and_one")
    late, on_points, going_on, far = (np.array(seeds)[:, None] for seeds in (
        [0.0, 1.00001, 3.3], [0.0, 1.0, 1.0], [-1.0, 0.5, 2.0], [0.0, 1.0, 1e100]))
    assert isinstance(run_fcm(d, late, FcmConfig(max_iterations=1)), FcmResult)
    outcomes = assert_stack_matches_run_fcm(d, [late, on_points, going_on], FcmConfig())
    assert str(outcomes[0]) == "cluster 2 has zero membership mass"
    assert outcomes[1].iterations == 2 < outcomes[2].iterations
    # every relaunch collapsing, in cycle 1 or 2
    outcomes = assert_stack_matches_run_fcm(d, [far, late, far], FcmConfig())
    assert [str(o) for o in outcomes] == ["cluster 2 has zero membership mass"] * 3


@pytest.mark.parametrize("case", ["one_leaves_early", "one_collapses"])
def test_run_fcm_stacked_scratch_memory_is_three_r_by_k_by_n_arrays(case):
    # The bound of the r = 1 test above, for a stack of r relaunches: u^m
    # is released before the stack is compacted, so a relaunch that leaves
    # (with a copy of its memberships) or collapses never makes a fourth array.
    n, p, k, r = 20000, 2, 4, 6
    rng = np.random.default_rng(7)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0]])
    d = Dataset(points=centers[rng.integers(0, k, size=n)] + rng.normal(size=(n, p)))
    if case == "one_leaves_early":  # seeded on its own fixed point, it converges first
        first = run_fcm(d, centers, FcmConfig(epsilon=1e-12)).centroids
    else:  # the far centroid's u^m underflows to 0 in cycle 1
        first = np.vstack([centers[:3], [1e100, 1e100]])
    seed_sets = [first] + [d.points[rng.choice(n, size=k, replace=False)] for _ in range(r - 1)]
    cfg = FcmConfig(epsilon=1e-6, max_iterations=8)
    outcomes, peak = traced_peak(run_fcm_stacked, d, seed_sets, cfg)
    if case == "one_leaves_early":
        assert outcomes[0].iterations < 8
    else:
        assert isinstance(outcomes[0], CollapsedClusterError)
    assert [o.iterations for o in outcomes[1:]] == [8] * (r - 1)
    cells = p * n + 3 * r * k * n + engine._BLOCK_CELLS + 3 * engine._BUFSIZE
    assert peak <= 8 * cells + 65536


def test_run_fcm_stacked_memberships_are_owned_c_ordered_arrays():
    # a relaunch that leaves early, the ones that leave on the last cycle, and
    # a stack of one each get their own C-ordered (n, k) membership
    n, k = 300, 3
    rng = np.random.default_rng(18)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    d = Dataset(points=centers[rng.integers(0, k, size=n)] + rng.normal(size=(n, 2)))
    fixed = run_fcm(d, centers, FcmConfig(epsilon=1e-12)).centroids  # converges first
    seed_sets = [fixed, *draw_seed_sets(rng, d.points, k, 3)]
    cfg = FcmConfig(epsilon=1e-9, max_iterations=4)
    outcomes = run_fcm_stacked(d, seed_sets, cfg) + run_fcm_stacked(d, seed_sets[1:2], cfg)
    assert [o.iterations for o in outcomes] == [2, 4, 4, 4, 4]
    for outcome in outcomes:
        assert outcome.membership.shape == (n, k)
        assert outcome.membership.flags.c_contiguous and outcome.membership.flags.owndata


def test_run_fcm_stacked_raises_faults_shared_by_every_seed_set(two_pairs):
    with pytest.raises(EngineError, match="exceeds"):
        run_fcm_stacked(two_pairs, [np.zeros((5, 2))] * 2)
    with pytest.raises(EngineError, match="dimension"):
        run_fcm_stacked(two_pairs, [np.zeros((2, 3))] * 2)
    with pytest.raises(ValueError, match="seed arrays"):
        run_fcm_stacked(two_pairs, [])


# Column counts on both sides of the width below which numpy buffers a
# three-operand broadcast call: 8192 // 3 at numpy's default bufsize, and
# engine._BUFSIZE // 3 at the engine's.
BUFFER_CLIFF_COLUMNS = sorted({w + dw for w in (8192 // 3, engine._BUFSIZE // 3)
                               for dw in (-2, -1, 0, 1, 2)})


def kernel_outputs(d, seed_sets, cfg, seed):
    """What the engine's scoped kernels give on one instance."""
    k = len(seed_sets[0])
    outcomes = run_fcm_stacked(d, seed_sets, cfg)
    return (
        [o if isinstance(o, FcmResult) else (type(o), str(o)) for o in outcomes],
        engine.quiet_overflow(sq_dists)(seed_sets[0], d.points),
        update_membership(d.points, seed_sets[0], cfg.m),
        seed_kmeanspp(d, k, seed=seed),
        seed_maxmin_linear(d, k),
    )


@pytest.mark.parametrize("n", [6, 40, *BUFFER_CLIFF_COLUMNS, 9000])
@settings(max_examples=4, deadline=None)
@given(
    p=st.integers(1, 6),
    k=st.integers(2, 6),
    r=st.integers(1, 3),
    m=st.sampled_from([1.5, 2.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernels_match_at_the_default_ufunc_buffer_bitwise(n, p, k, r, m, seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-2, 2) + rng.choice([0.0, 1e6])
    points[rng.integers(n, size=n // 4)] = points[rng.integers(n, size=n // 4)]  # duplicates
    d = Dataset(points=points, name="buffers")
    seed_sets = draw_seed_sets(rng, points, k, r, coincident=0.3)
    cfg = FcmConfig(m=m, epsilon=1e-6, max_iterations=8)
    own = kernel_outputs(d, seed_sets, cfg, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_BUFSIZE", 8192)
        default = kernel_outputs(d, seed_sets, cfg, seed)
    for got, want in zip(own[0], default[0]):
        if isinstance(want, FcmResult):
            assert_same_fit(got, want)
        else:
            assert got == want
    for got, want in zip(own[1:3], default[1:3]):
        assert np.array_equal(got, want)
    for got, want in zip(own[3:], default[3:]):
        assert got.to_dict() == want.to_dict()


# Every function that runs under engine.quiet_overflow, with a call that
# returns and one that raises EngineError on data near 1e200.
_NEAR = np.random.default_rng(3).normal(size=(40, 2))
_FAR = Dataset(points=_NEAR * 1e200, name="far")
SCOPED_CALLS = [
    ("run_fcm_stacked", lambda d: engine.run_fcm_stacked(d, [d.points[:3], d.points[5:8]])[0],
     lambda: engine.run_fcm(_FAR, _FAR.points[:3])),
    ("update_membership", lambda d: update_membership(d.points, d.points[:3], 2.0),
     lambda: update_membership(_NEAR, [[1e200, 0.0], [0.0, 0.0]], 2.0)),
    ("seed_kmeanspp", lambda d: seed_kmeanspp(d, 3, seed=1), lambda: seed_kmeanspp(_FAR, 3, seed=1)),
    ("seed_maxmin_linear", lambda d: seed_maxmin_linear(d, 3), None),
    ("seed_maxmin_quadratic", lambda d: seed_maxmin_quadratic(d, 3), None),
    ("v_xb", lambda d: validity.v_xb(1.0, d.n, d.points[:3]),
     lambda: validity.v_xb(1.0, 40, [[1e200, 0.0], [0.0, 0.0]])),
]


def record_kernel_bufsize(monkeypatch):
    """The bufsize each distance pass runs at, appended as it runs."""
    seen = []
    kernel = engine._sq_dists_t

    def recording(a_t, b_t):
        seen.append(np.getbufsize())
        return kernel(a_t, b_t)

    monkeypatch.setattr(engine, "_sq_dists_t", recording)
    monkeypatch.setattr(seeding, "_sq_dists_t", recording)
    return seen


@pytest.mark.parametrize("name, returns, raises", SCOPED_CALLS, ids=[c[0] for c in SCOPED_CALLS])
def test_scoped_kernels_restore_the_callers_numpy_state(monkeypatch, name, returns, raises):
    seen = record_kernel_bufsize(monkeypatch)
    caller = np.setbufsize(4096)
    try:
        with np.errstate(over="raise", invalid="raise", divide="warn", under="ignore"):
            state = np.getbufsize(), np.geterr()
            returns(Dataset(points=_NEAR, name="near"))
            assert (np.getbufsize(), np.geterr()) == state
            if raises is not None:
                with pytest.raises(EngineError, match="non-finite"):
                    raises()
                assert (np.getbufsize(), np.geterr()) == state
    finally:
        np.setbufsize(caller)
    assert seen and set(seen) == {engine._BUFSIZE}


def test_scoped_kernels_restore_a_bench_workers_numpy_state(monkeypatch):
    seen = record_kernel_bufsize(monkeypatch)
    states = []  # (thread, state before, state after) of each scoped call

    def checked(fn):
        def call(*args, **kwargs):
            before = np.getbufsize(), np.geterr()
            try:
                return fn(*args, **kwargs)
            finally:
                states.append((threading.current_thread(), before, (np.getbufsize(), np.geterr())))
        return call

    monkeypatch.setattr(engine, "run_fcm_stacked", checked(engine.run_fcm_stacked))
    monkeypatch.setattr(seeding, "run_fcm_stacked", checked(seeding.run_fcm_stacked))
    monkeypatch.setattr(validity, "v_xb", checked(validity.v_xb))
    for method in ("kmeanspp", "maxmin_linear"):
        monkeypatch.setitem(seeding.SEEDERS, method, checked(seeding.SEEDERS[method]))
    jobs = [(Dataset(points=_NEAR, name="near"), 3), (_FAR, 3)]
    methods = ["kmeanspp", "maxmin_linear", "kmeanspp_x10"]
    with ThreadPoolExecutor(max_workers=2) as pool:  # a library caller's worker threads
        _, far = pool.map(lambda job: run_comparison([job], methods=methods), jobs)
    assert any(cell["error"] for cell in far.cells["far"].values())
    assert states and all(thread is not threading.main_thread() for thread, _, _ in states)
    assert all(before == after for _, before, after in states)
    assert set(seen) == {engine._BUFSIZE}


def test_setbufsize_is_called_only_inside_quiet_overflow():
    scope = inspect.getsource(engine.quiet_overflow).count("setbufsize")
    calls = {path.name: path.read_text().count("setbufsize")
             for path in Path(engine.__file__).parent.glob("*.py")}
    assert scope == 2
    assert {name: count for name, count in calls.items() if count} == {"engine.py": scope}
