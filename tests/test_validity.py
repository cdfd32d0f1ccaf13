import numpy as np
import pytest

from fuzzseed import (
    Dataset,
    EngineError,
    FcmConfig,
    INDEX_DIRECTIONS,
    fit_method,
    fuzzy_within,
    run_fcm,
    score_result,
    update_centroids,
    v_cl,
    v_fch,
    v_fratio,
    v_fs,
    v_pc,
    v_tsfd,
    v_xb,
)
from fuzzseed.engine import sq_dists
from fuzzseed.validity import score_partition
from .helpers import random_membership


def crisp(n, k, rng):
    u = np.zeros((n, k))
    u[np.arange(n), rng.integers(0, k, size=n)] = 1.0
    return u


def test_directions_metadata():
    assert INDEX_DIRECTIONS == {
        "pc": "maximize",
        "cl": "maximize",
        "fratio": "maximize",
        "fch": "maximize",
        "tsfd": "maximize",
        "fs": "minimize",
        "xb": "minimize",
    }


def test_pc_limits():
    rng = np.random.default_rng(0)
    assert v_pc(crisp(8, 3, rng)) == 1.0
    assert v_pc(np.full((10, 4), 0.25)) == pytest.approx(0.25, abs=1e-15)


def test_pc_range_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n, k = int(rng.integers(2, 30)), int(rng.integers(2, 7))
        value = v_pc(random_membership(rng, n, k))
        assert 1.0 / k - 1e-12 <= value <= 1.0 + 1e-12


def test_cl_limits():
    rng = np.random.default_rng(2)
    assert v_cl(crisp(9, 4, rng)) == 1.0
    assert v_cl(np.full((6, 3), 1 / 3)) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        v_cl(np.ones((4, 1)))


def test_cl_range_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n, k = int(rng.integers(2, 30)), int(rng.integers(2, 7))
        value = v_cl(random_membership(rng, n, k))
        assert -1e-9 <= value <= 1.0 + 1e-9


def test_fratio():
    assert v_fratio(3.0, 3.0) == 1.0
    assert v_fratio(0.0, 5.0) == 0.0
    assert v_fratio(508.3, 162.9) == pytest.approx(3.12, abs=0.005)
    assert np.isinf(v_fratio(1.0, 0.0))


def test_fch():
    assert v_fch(2.0, 2.0, 12, 2) == pytest.approx(10.0)
    assert v_fch(0.0, 5.0, 12, 2) == 0.0
    # scales the ratio by (n-k)/(k-1): Glass-shaped numbers
    assert v_fch(508.3, 162.9, 214, 6) == pytest.approx(3.12 * 208 / 5, rel=2e-3)
    with pytest.raises(ValueError):
        v_fch(1.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        v_fch(1.0, 1.0, 5, 1)


def test_fch_consistency_with_fratio():
    rng = np.random.default_rng(4)
    for _ in range(100):
        fb, fw = rng.uniform(0.1, 10, size=2)
        n, k = int(rng.integers(5, 100)), int(rng.integers(2, 5))
        if n <= k:
            continue
        assert v_fch(fb, fw, n, k) == pytest.approx(
            v_fratio(fb, fw) * (n - k) / (k - 1), abs=1e-12, rel=1e-12
        )


def test_fs():
    assert v_fs(4.0, 4.0) == 0.0
    assert v_fs(162.9, 508.3) == pytest.approx(-345.4)


def test_xb_matches_direct_formula():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(12, 2))
    d = Dataset(points=points, name="t")
    u = random_membership(rng, 12, 3)
    centroids = update_centroids(points, u, 2.0)
    fw = float(((u**2) * ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(2)).sum())
    seps = [
        ((centroids[a] - centroids[b]) ** 2).sum()
        for a in range(3)
        for b in range(a + 1, 3)
    ]
    assert v_xb(fw, d.n, centroids) == pytest.approx(fw / (12 * min(seps)), rel=1e-12)


def test_xb_zero_when_points_sit_on_centroids():
    d = Dataset(points=[[0.0], [2.0]], name="t")
    u = np.eye(2)
    assert v_xb(fuzzy_within(d.points, d.points, u, 2.0), d.n, d.points) == 0.0


def test_xb_identical_centroids_is_inf():
    d = Dataset(points=[[0.0], [2.0]], name="t")
    c = np.array([[1.0], [1.0]])
    fw = fuzzy_within(d.points, c, np.full((2, 2), 0.5), 2.0)
    assert np.isinf(v_xb(fw, d.n, c))


def test_xb_non_finite_centroid_distance_is_engine_error():
    with pytest.raises(EngineError, match="non-finite"):
        v_xb(1.0, 2, np.array([[1e200, 0.0], [0.0, 0.0]]))


def test_tsfd_values():
    assert v_tsfd(5.0, 10.0) == 0.5  # fb == fw
    # table inputs are rounded to one decimal, hence the loose tolerance
    assert v_tsfd(508.3, 671.2) == pytest.approx(0.75725, abs=1e-4)
    assert v_tsfd(0.0, 3.0) == 0.0
    assert v_tsfd(3.0, 3.0) == 1.0


def test_tsfd_dual_form_agreement():
    rng = np.random.default_rng(6)
    for _ in range(500):
        fb, fw = rng.uniform(1e-6, 1e6, size=2)
        fi = fb + fw
        direct = v_tsfd(fb, fi)
        assert direct == pytest.approx((1.0 + (fb - fw) / fi) / 2.0, abs=1e-12)
        assert 0.0 <= direct <= 1.0


def test_tsfd_preconditions():
    with pytest.raises(ValueError):
        v_tsfd(1.0, 0.0)
    with pytest.raises(ValueError):
        v_tsfd(2.0, 1.0)
    with pytest.raises(ValueError):
        v_tsfd(-1.0, 2.0)


def test_fs_ordering_matches_difference_at_fixed_inertia():
    # with FI held fixed, sorting by FS ascending equals sorting by FB - FW
    # descending; not asserted across varying FI
    rng = np.random.default_rng(8)
    fi = 100.0
    fbs = rng.uniform(0.0, fi, size=20)
    fs_vals = [v_fs(fi - fb, fb) for fb in fbs]
    by_fs = np.argsort(fs_vals)
    by_diff = np.argsort([-(fb - (fi - fb)) for fb in fbs])
    assert np.array_equal(by_fs, by_diff)


def test_column_permutation_invariance():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(15, 3))
    d = Dataset(points=points, name="t")
    u = random_membership(rng, 15, 4)
    c = update_centroids(points, u, 2.0)
    perm = rng.permutation(4)
    assert v_pc(u[:, perm]) == pytest.approx(v_pc(u), abs=1e-15)
    assert v_cl(u[:, perm]) == pytest.approx(v_cl(u), abs=1e-12)
    permuted = v_xb(fuzzy_within(points, c[perm], u[:, perm], 2.0), d.n, c[perm])
    assert permuted == pytest.approx(v_xb(fuzzy_within(points, c, u, 2.0), d.n, c), rel=1e-12)


def test_score_result_end_to_end(two_pairs):
    res = run_fcm(two_pairs, np.array([[0.0, 0.0], [10.0, 0.0]]), FcmConfig())
    scores = score_result(two_pairs, res)
    assert scores.fratio == pytest.approx(res.fb / res.fw, rel=1e-12)
    assert scores.tsfd == pytest.approx(res.fb / res.fi, rel=1e-12)
    assert scores.fs == pytest.approx(res.fw - res.fb, rel=1e-12)
    assert scores.flags == ()
    payload = scores.to_dict()
    assert set(payload) == {"pc", "cl", "fratio", "fch", "fs", "xb", "tsfd", "flags"}


def min_separation(centroids):
    cd2 = sq_dists(centroids, centroids)
    np.fill_diagonal(cd2, np.inf)
    return float(cd2.min())


def test_score_result_xb_uses_the_fits_own_fw():
    # XB's numerator is the FCM objective: the FW a fit reports is the FW
    # of its final centroids and memberships, and XB takes it bit for bit,
    # also for the winner of a relaunch strategy and on data with
    # duplicate rows.
    rng = np.random.default_rng(9)
    for trial in range(12):
        n, p, k = int(rng.integers(12, 60)), int(rng.integers(1, 5)), int(rng.integers(2, 5))
        points = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-2, 3)
        points[: n // 4] = points[n // 4: 2 * (n // 4)]  # duplicate rows
        d = Dataset(points=points, name=f"t{trial}")
        method = ("maxmin_linear", "kmeanspp", "faber", "kmeanspp_x10")[trial % 4]
        m = (1.5, 2.0, 3.0)[trial % 3]
        _, r = fit_method(d, k, method, cfg=FcmConfig(m=m), seed=trial)
        fw = r.fw
        # the fit's FW is computed on centred points, this one is not
        assert fuzzy_within(points, r.centroids, r.membership, r.m) == pytest.approx(fw, rel=1e-14)
        assert score_result(d, r).xb == fw / (n * min_separation(r.centroids))


def test_scores_serialize_inf_sentinel():
    from fuzzseed.validity import ValidityScores

    scores = ValidityScores(
        pc=1.0, cl=1.0, fratio=float("inf"), fch=float("inf"),
        fs=0.0, xb=float("inf"), tsfd=1.0, flags=("zero_fw",),
    )
    payload = scores.to_dict()
    assert payload["fratio"] == "inf"
    assert payload["xb"] == "inf"
    assert payload["flags"] == ["zero_fw"]


def test_fch_zero_fw_is_inf():
    assert v_fch(3.0, 0.0, 10, 3) == float("inf")


def test_score_partition_flags_zero_fw():
    # points 0, 0 and 3 on their centroids: FW = 0, FB = FI = 2 * 1 + 1 * 4
    u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    scores = score_partition(3, np.array([[0.0], [3.0]]), u, 0.0, 6.0, 6.0)
    assert scores.flags == ("zero_fw",)
    assert scores.fratio == scores.fch == float("inf")
    assert scores.xb == 0.0 and scores.tsfd == 1.0
