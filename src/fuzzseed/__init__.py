"""Fuzzy c-means clustering with pluggable seeding strategies, fuzzy
validity indices, synthetic dataset generators, and a ranking benchmark
harness."""

from .data import Dataset, DataError, grand_mean, load_csv, standardize, write_csv
from .engine import (
    CollapsedClusterError,
    EngineError,
    FcmConfig,
    FcmResult,
    fuzzy_between,
    fuzzy_inertia,
    fuzzy_within,
    run_fcm,
    run_fcm_stacked,
    update_centroids,
    update_membership,
)
from .seeding import (
    DEFAULT_BENCH_METHODS,
    STRATEGIES,
    SeedSet,
    fit_method,
    make_seeds,
    seed_kmeanspp,
    seed_macqueen2,
    seed_macqueen_first_k,
    seed_maxmin_linear,
    seed_maxmin_quadratic,
    seed_repeated,
)
from .synth import GaussianSpec, NoiseSpec, add_skewed_noise, dataset_from_spec, gen_gaussian_clusters
from .validity import (
    INDEX_DIRECTIONS,
    ValidityScores,
    score_result,
    v_cl,
    v_fch,
    v_fratio,
    v_fs,
    v_pc,
    v_tsfd,
    v_xb,
)
from .bench import (
    CRITERIA,
    BenchJob,
    ComparisonReport,
    load_manifest,
    rank_methods,
    run_comparison,
    write_report,
)

__version__ = "0.1.0"
