import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fuzzseed import (
    CollapsedClusterError,
    Dataset,
    EngineError,
    FcmConfig,
    fit_method,
    make_seeds,
    run_fcm,
    seed_kmeanspp,
    seed_macqueen2,
    seed_macqueen_first_k,
    seed_maxmin_linear,
    seed_maxmin_quadratic,
    seed_repeated,
)
from fuzzseed import seeding
from fuzzseed.engine import _BLOCK_CELLS, run_fcm_stacked
from fuzzseed.rng import derive_seed
from fuzzseed.seeding import STRATEGIES, SeedSet, _farthest, _spread

from .conftest import assert_same_fit, traced_peak
from .helpers import (
    reference_seed_kmeanspp,
    reference_seed_maxmin_linear,
    reference_seed_maxmin_quadratic,
)


@pytest.fixture
def line3():
    return Dataset(points=[[0.0], [1.0], [10.0]], name="line3")


def test_macqueen1_first_k():
    ds = Dataset(points=[[5.0], [1.0], [9.0]])
    ss = seed_macqueen_first_k(ds, 2)
    assert ss.source_indices == (0, 1)
    assert list(ss.centroids[:, 0]) == [5.0, 1.0]


def test_macqueen1_k_equals_n():
    ds = Dataset(points=[[5.0], [1.0], [9.0]])
    assert seed_macqueen_first_k(ds, 3).source_indices == (0, 1, 2)


def test_macqueen1_is_order_sensitive():
    ds = Dataset(points=[[5.0], [1.0], [9.0]])
    shuffled = Dataset(points=[[9.0], [5.0], [1.0]])
    a = seed_macqueen_first_k(ds, 2).centroids
    b = seed_macqueen_first_k(shuffled, 2).centroids
    assert not np.array_equal(a, b)


def test_macqueen1_k_too_large():
    with pytest.raises(EngineError, match="exceeds"):
        seed_macqueen_first_k(Dataset(points=[[1.0]]), 2)


def test_macqueen2_exhausts_at_k_equals_n(line3):
    ss = seed_macqueen2(line3, 3, seed=9)
    assert sorted(ss.source_indices) == [0, 1, 2]


def test_macqueen2_deterministic_under_seed(line3):
    a = seed_macqueen2(line3, 2, seed=123)
    b = seed_macqueen2(line3, 2, seed=123)
    assert a.source_indices == b.source_indices
    assert np.array_equal(a.centroids, b.centroids)


def test_macqueen2_draws_fresh_seed_when_none(line3):
    ss = seed_macqueen2(line3, 2)
    assert ss.rng_seed is not None
    assert ss.rng == "numpy-pcg64"


def test_macqueen2_uniform_frequency():
    ds = Dataset(points=[[0.0], [1.0], [2.0], [3.0]])
    counts = np.zeros(4)
    for s in range(10_000):
        counts[seed_macqueen2(ds, 1, seed=s).source_indices[0]] += 1
    assert np.all(np.abs(counts / 10_000 - 0.25) <= 0.02)


def test_kmeanspp_certain_second_seed():
    # duplicates of the first seed carry zero weight; only (10) remains
    ds = Dataset(points=[[0.0], [0.0], [10.0]])
    for s in range(50):
        ss = seed_kmeanspp(ds, 2, seed=s)
        if ss.source_indices[0] in (0, 1):
            assert ss.source_indices[1] == 2


def test_kmeanspp_identical_points_fallback():
    ds = Dataset(points=[[3.0], [3.0], [3.0]])
    ss = seed_kmeanspp(ds, 2, seed=4)
    assert ss.uniform_fallback
    assert len(set(ss.source_indices)) == 2


def test_kmeanspp_d2_law_sanity():
    # weights 1 and 16 after first seed (0) -> P(next = index 2) = 16/17
    ds = Dataset(points=[[0.0], [1.0], [4.0]])
    hits = total = 0
    s = 0
    while total < 2_000:
        ss = seed_kmeanspp(ds, 2, seed=s)
        s += 1
        if ss.source_indices[0] == 0:
            total += 1
            hits += ss.source_indices[1] == 2
    assert hits / total == pytest.approx(16 / 17, abs=0.03)


def test_kmeanspp_distinct_indices():
    rng = np.random.default_rng(11)
    ds = Dataset(points=rng.normal(size=(20, 2)))
    ss = seed_kmeanspp(ds, 8, seed=5)
    assert len(set(ss.source_indices)) == 8


def test_kmeanspp_evals_and_pinned_draws(ruspini_like):
    # one n-pass per seed except the last; the pinned draws fix the RNG
    # stream of these seeds
    pinned = {
        0: (63, 14, 20, 7, 57),
        1: (35, 68, 5, 67, 47),
        2: (62, 14, 52, 21, 37),
        3: (60, 11, 54, 33, 14),
        42: (6, 42, 70, 55, 18),
    }
    for seed, indices in pinned.items():
        ss = seed_kmeanspp(ruspini_like, 5, seed=seed)
        assert ss.source_indices == indices
        assert ss.distance_evals == ruspini_like.n * (5 - 1)
    assert seed_kmeanspp(ruspini_like, 1, seed=0).distance_evals == 0


def test_repeated_r1_matches_single_run(line3):
    cfg = FcmConfig()
    seeds, res = seed_repeated("macqueen2", line3, 2, r=1, seed=77, cfg=cfg)
    direct = seed_macqueen2(line3, 2, seed=derive_seed(77, 0))
    ref = run_fcm(line3, direct, cfg)
    assert seeds.source_indices == direct.source_indices
    assert res.fw == ref.fw
    assert res.iterations == ref.iterations


def test_repeated_returns_min_fw_and_summed_iterations(ruspini_like):
    cfg = FcmConfig()
    r = 5
    seeds, res = seed_repeated("macqueen2", ruspini_like, 4, r=r, seed=3, cfg=cfg)
    assert seeds.relaunches == r
    assert seeds.rng_seed == 3
    fws, iters = [], []
    for i in range(r):
        ss = seed_macqueen2(ruspini_like, 4, seed=derive_seed(3, i))
        out = run_fcm(ruspini_like, ss, cfg)
        fws.append(out.fw)
        iters.append(out.iterations)
    assert res.fw == min(fws)
    assert res.iterations == sum(iters)


def test_repeated_validates_inputs(line3):
    with pytest.raises(ValueError, match="relaunch"):
        seed_repeated("macqueen2", line3, 2, r=0, seed=1)
    with pytest.raises(ValueError, match="stochastic"):
        seed_repeated("maxmin_linear", line3, 2, seed=1)


def record_stacks(monkeypatch):
    """The outcome lists of every stacked loop seed_repeated runs, each fit
    copied before seed_repeated sets the winner's summed iterations."""
    stacks = []

    def recording(d, seed_sets, cfg=None):
        outcomes = run_fcm_stacked(d, seed_sets, cfg)
        stacks.append([o if isinstance(o, EngineError) else replace(o) for o in outcomes])
        return outcomes

    monkeypatch.setattr(seeding, "run_fcm_stacked", recording)
    return stacks


# Two unit squares: under master seed 3, macqueen2 relaunches 3 and 4 draw
# different seed rows that reach the same minimum FW to the bit.
TWO_SQUARES = Dataset(points=[[0, 0], [0, 1], [1, 0], [1, 1], [5, 5], [5, 6], [6, 5], [6, 6]])


@pytest.mark.parametrize("per_stack, sizes", [(1, [1] * 10), (3, [3, 3, 3, 1]), (10, [10])])
def test_repeated_stacks_match_single_runs(monkeypatch, per_stack, sizes):
    d, k, r = TWO_SQUARES, 2, 10
    monkeypatch.setattr(seeding, "_STACK_CELLS", per_stack * k * d.n)
    stacks = record_stacks(monkeypatch)
    seeds, res = seed_repeated("macqueen2", d, k, r=r, seed=3, cfg=FcmConfig())
    assert [len(stack) for stack in stacks] == sizes
    draws = [seed_macqueen2(d, k, seed=derive_seed(3, i)) for i in range(r)]
    singles = [run_fcm(d, ss, FcmConfig()) for ss in draws]
    for got, want in zip([o for stack in stacks for o in stack], singles, strict=True):
        assert_same_fit(got, want)
    fws = [single.fw for single in singles]
    assert [i for i, fw in enumerate(fws) if fw == min(fws)] == [3, 4]
    assert draws[3].source_indices != draws[4].source_indices
    assert seeds.source_indices == draws[3].source_indices  # ties: the lowest index
    singles[3].iterations = sum(single.iterations for single in singles)  # the reported cost
    assert_same_fit(res, singles[3])
    assert res.membership.flags.c_contiguous


def test_repeated_drops_a_failed_relaunch_alone(monkeypatch, ruspini_like):
    # relaunch 4 of master seed 5 gets a centroid so far from the data that
    # its u^m underflows to 0: that cluster collapses
    far = SeedSet(centroids=[*ruspini_like.points[:3], [1e100, 1e100]], method="macqueen2")

    def seeder(d, k, seed=None):
        return far if seed == derive_seed(5, 4) else seed_macqueen2(d, k, seed=seed)

    monkeypatch.setitem(seeding.SEEDERS, "macqueen2", seeder)
    stacks = record_stacks(monkeypatch)
    seeds, res = seed_repeated("macqueen2", ruspini_like, 4, r=10, seed=5)
    outcomes = [o for stack in stacks for o in stack]
    assert isinstance(outcomes[4], CollapsedClusterError)
    with pytest.raises(CollapsedClusterError) as single:
        run_fcm(ruspini_like, far)
    assert str(outcomes[4]) == str(single.value) == "cluster 3 has zero membership mass"
    fits = outcomes[:4] + outcomes[5:]
    assert res.iterations == sum(fit.iterations for fit in fits)
    assert res.fw == min(fit.fw for fit in fits)

    def failing(d, k, seed=None):
        if seed == derive_seed(5, 3):
            raise RuntimeError("seeder fault")
        return seed_macqueen2(d, k, seed=seed)

    monkeypatch.setitem(seeding.SEEDERS, "macqueen2", failing)
    with pytest.raises(RuntimeError, match="seeder fault"):
        seed_repeated("macqueen2", ruspini_like, 4, r=10, seed=5)


def test_repeated_raises_the_last_failure_when_every_relaunch_fails(monkeypatch):
    d = Dataset(points=np.random.default_rng(12).normal(size=(30, 2)) * 1e200)
    monkeypatch.setattr(seeding, "_STACK_CELLS", 3 * 3 * d.n)
    stacks = record_stacks(monkeypatch)
    with pytest.raises(EngineError, match="non-finite FW") as raised:
        seed_repeated("macqueen2", d, 3, r=10, seed=1)
    assert [len(stack) for stack in stacks] == [3, 3, 3, 1]
    assert all(isinstance(o, EngineError) for stack in stacks for o in stack)
    assert raised.value is stacks[-1][-1]


def test_repeated_over_the_stack_budget_holds_one_relaunch_at_a_time():
    n, p, k, r = 20000, 2, 4, 10
    assert k * n > seeding._STACK_CELLS  # one relaunch per stack
    d = Dataset(points=np.random.default_rng(18).normal(size=(n, p)))
    _, peak = traced_peak(seed_repeated, "macqueen2", d, k, r=r, seed=1,
                          cfg=FcmConfig(max_iterations=3))
    # one stack's centred (p, n) points and (k, n) distances, u and u^m; the
    # best relaunch's memberships so far; one block of the distance kernel's
    # scratch and numpy's iteration buffers. All r at once hold 3r (k, n) arrays.
    cells = p * n + 4 * k * n + _BLOCK_CELLS + 3 * np.getbufsize()
    assert peak <= 8 * cells + 65536


def test_maxmin_quadratic_line(line3):
    ss = seed_maxmin_quadratic(line3, 3)
    assert ss.source_indices == (0, 2, 1)
    assert ss.method == "maxmin"


def test_maxmin_quadratic_identical_pair():
    ds = Dataset(points=[[4.0], [4.0]])
    ss = seed_maxmin_quadratic(ds, 2)
    assert ss.source_indices == (0, 1)


def test_maxmin_quadratic_tie_breaks_to_lowest_pair():
    corners = Dataset(points=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    # both diagonals tie at d2 = 2; lexicographically first pair wins
    assert seed_maxmin_quadratic(corners, 2).source_indices == (0, 3)


def test_maxmin_linear_line(line3):
    ss = seed_maxmin_linear(line3, 3)
    assert ss.source_indices == (1, 2, 0)
    assert ss.method == "maxmin_linear"


def test_maxmin_linear_symmetric_tie():
    ds = Dataset(points=[[-1.0], [1.0]])
    assert seed_maxmin_linear(ds, 2).source_indices == (0, 1)


def test_maxmin_linear_point_at_grand_mean():
    ds = Dataset(points=[[0.0], [6.0], [3.0]])  # mean is 3
    assert seed_maxmin_linear(ds, 2).source_indices[0] == 2


def test_maxmin_linear_eval_count():
    rng = np.random.default_rng(12)
    for n, k in [(10, 2), (50, 5), (200, 8)]:
        ds = Dataset(points=rng.normal(size=(n, 3)))
        ss = seed_maxmin_linear(ds, k)
        assert ss.distance_evals == n * k
        assert ss.distance_evals <= 2 * k * n


def test_maxmin_eval_counts_scale_linearly_vs_quadratically():
    rng = np.random.default_rng(13)
    small = Dataset(points=rng.normal(size=(60, 2)))
    big = Dataset(points=rng.normal(size=(120, 2)))
    k = 4
    lin_small = seed_maxmin_linear(small, k).distance_evals
    lin_big = seed_maxmin_linear(big, k).distance_evals
    assert lin_big == 2 * lin_small
    quad_small = seed_maxmin_quadratic(small, k).distance_evals
    quad_big = seed_maxmin_quadratic(big, k).distance_evals
    assert quad_small >= 60 * 59 // 2
    assert quad_big / quad_small > 3.5  # pair scan grows ~4x when n doubles


def test_maxmin_variants_deterministic(ruspini_like):
    for fn in (seed_maxmin_linear, seed_maxmin_quadratic):
        a, b = fn(ruspini_like, 4), fn(ruspini_like, 4)
        assert a.source_indices == b.source_indices
        assert np.array_equal(a.centroids, b.centroids)


def test_maxmin_suffix_equivalence():
    rng = np.random.default_rng(14)
    for _ in range(25):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(3, min(8, n) + 1))
        points = rng.normal(size=(n, int(rng.integers(1, 4))))
        i, j = rng.choice(n, size=2, replace=False)
        linear, _ = _spread(points.T.copy(), [int(i), int(j)], k, _farthest)
        # quadratic route: per-round argmax over matrix mins
        dmat = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        chosen = [int(i), int(j)]
        while len(chosen) < k:
            dmin = dmat[:, chosen].min(axis=1)
            dmin[chosen] = -np.inf
            chosen.append(int(np.argmax(dmin)))
        assert linear == chosen


def test_maxmin_greedy_spread_property(ruspini_like):
    ss = seed_maxmin_linear(ruspini_like, 5)
    points = ruspini_like.points
    idx = list(ss.source_indices)
    for j in range(2, 5):
        prior = idx[:j]
        dmin = ((points[:, None, :] - points[prior][None, :, :]) ** 2).sum(axis=2).min(axis=1)
        others = np.setdiff1d(np.arange(points.shape[0]), prior)
        assert dmin[idx[j]] >= dmin[others].max() - 1e-12


def _seed_triple(ss):
    return ss.source_indices, ss.distance_evals, ss.uniform_fallback


def test_seeders_match_the_point_major_reference():
    # p from 1 to 20; Gaussian, integer-lattice (exact ties, duplicates)
    # and duplicated-row sets; scales 1e-3..1e3, offsets up to 1e6
    rng = np.random.default_rng(15)
    for p in range(1, 21):
        for kind in ("normal", "lattice", "duplicates"):
            n = int(rng.integers(2, 301))
            if kind == "normal":
                points = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4)
            elif kind == "lattice":
                points = rng.integers(-2, 3, size=(n, p)).astype(float)
            else:
                base = rng.normal(size=(int(rng.integers(1, 12)), p))
                points = base[rng.integers(len(base), size=n)]
            points = points + rng.choice([0.0, 1e3, -1e6, 1e6])
            ds = Dataset(points=points)
            k = int(rng.integers(2, min(n, 9) + 1))
            assert _seed_triple(seed_maxmin_linear(ds, k)) == reference_seed_maxmin_linear(points, k)
            assert _seed_triple(seed_maxmin_quadratic(ds, k)) == reference_seed_maxmin_quadratic(
                points, k
            )
            for seed in range(3):
                k = int(rng.integers(1, min(n, 9) + 1))
                assert _seed_triple(seed_kmeanspp(ds, k, seed=seed)) == reference_seed_kmeanspp(
                    points, k, seed
                )


def test_maxmin_quadratic_memory_is_not_quadratic():
    ds = Dataset(points=np.random.default_rng(16).normal(size=(4000, 2)))
    tracemalloc.start()
    try:
        seed_maxmin_quadratic(ds, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6  # an n x n float matrix alone is 128 MB


# The oracle scans the distance matrix _BLOCK_CELLS // n rows at a time;
# at n=600 that is several row blocks.
BLOCKED_N = 600
BLOCK_ROWS = _BLOCK_CELLS // BLOCKED_N


def _blocked_noise():
    assert 1 < BLOCK_ROWS < BLOCKED_N // 5
    return np.random.default_rng(17).uniform(0.0, 1.0, size=(BLOCKED_N, 2))


def test_maxmin_quadratic_pair_in_a_later_block():
    points = _blocked_noise()
    i, j = 2 * BLOCK_ROWS - 1, 4 * BLOCK_ROWS + 3  # i ends the second block
    points[i], points[j] = (-10.0, -10.0), (10.0, 10.0)
    ds = Dataset(points=points)
    ss = seed_maxmin_quadratic(ds, 2)
    assert ss.source_indices == (i, j)
    assert ss.distance_evals == BLOCKED_N * (BLOCKED_N - 1) // 2
    assert _seed_triple(seed_maxmin_quadratic(ds, 6)) == reference_seed_maxmin_quadratic(points, 6)


def test_maxmin_quadratic_tie_across_blocks_goes_to_the_earlier_pair():
    points = _blocked_noise()
    # (0, BLOCK_ROWS) and a pair two blocks later are both at d2 = 400
    points[0], points[BLOCK_ROWS] = (-10.0, 0.0), (10.0, 0.0)
    points[3 * BLOCK_ROWS + 2], points[5 * BLOCK_ROWS + 1] = (0.0, -10.0), (0.0, 10.0)
    ds = Dataset(points=points)
    assert seed_maxmin_quadratic(ds, 2).source_indices == (0, BLOCK_ROWS)
    assert _seed_triple(seed_maxmin_quadratic(ds, 5)) == reference_seed_maxmin_quadratic(points, 5)


def test_maxmin_quadratic_identical_points_over_blocks():
    ds = Dataset(points=np.full((BLOCKED_N, 3), 2.5))
    assert seed_maxmin_quadratic(ds, 2).source_indices == (0, 1)
    assert seed_maxmin_quadratic(ds, 4).source_indices == (0, 1, 2, 3)


def test_distinct_indices_across_strategies(ruspini_like):
    for method in STRATEGIES:
        ss = make_seeds(ruspini_like, 4, method, seed=21)
        assert len(set(ss.source_indices)) == 4
        assert all(0 <= i < ruspini_like.n for i in ss.source_indices)


def test_fit_method_dispatch(ruspini_like):
    for method in STRATEGIES:
        seeds, res = fit_method(ruspini_like, 4, method, seed=33)
        assert seeds.method == method
        assert res.method == method
        assert res.fw > 0
    with pytest.raises(ValueError, match="unknown"):
        fit_method(ruspini_like, 4, "pca_part")


def test_seedset_serialization(line3):
    ss = seed_maxmin_linear(line3, 2)
    payload = ss.to_dict()
    assert payload["method"] == "maxmin_linear"
    assert payload["rng_seed"] is None
    assert payload["source_indices"] == [1, 2]
    assert payload["k"] == 2
