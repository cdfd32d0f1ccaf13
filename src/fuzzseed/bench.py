"""Comparison protocol: seed x dataset -> FCM -> criteria -> ranks.

Each (dataset, method) cell runs the named seeding strategy and FCM once
(relaunch strategies run their relaunches internally), records ten
criteria, and the harness then ranks methods per dataset and criterion
and averages ranks across datasets. Stochastic methods get sub-seeds
derived from the master seed and the cell identity, so reports are
byte-identical across runs and parallelism settings.
"""

import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import DataError, Dataset, load_csv, standardize
from .engine import EngineError, FcmConfig
from .rng import RNG_NAME, SEED_SCHEME, derive_seed
from .seeding import DEFAULT_BENCH_METHODS, RELAUNCH_COUNT, STRATEGIES, fit_method
from .synth import dataset_from_spec
from .validity import decode_inf, encode_inf, score_result

# Criterion -> optimization direction, in report column order. FB and FI
# follow the separation indices (maximize); iterations, FW, FS, XB are
# costs (minimize).
CRITERIA = {
    "iterations": "minimize",
    "pc": "maximize",
    "cl": "maximize",
    "fb": "maximize",
    "fw": "minimize",
    "fi": "maximize",
    "fratio": "maximize",
    "tsfd": "maximize",
    "fs": "minimize",
    "xb": "minimize",
}

SCHEMA = "fuzzseed/1"


@dataclass
class BenchJob:
    """One dataset to benchmark; `error` marks a failed load (the run
    continues and every cell of this dataset is recorded as errored)."""

    name: str
    expected_k: int
    dataset: Dataset | None = None
    error: str | None = None


@dataclass
class ComparisonReport:
    """Values, ranks, and average ranks for a datasets x methods grid.

    `cells[dataset][method]` holds {"values": {criterion: value},
    "rng_seed": ..., "flags": [...], "error": ...}; infinities are kept
    as floats internally and serialized as the string "inf".
    """

    datasets: list[str]
    methods: list[str]
    criteria: list[str]
    cells: dict
    ranks: dict = field(default_factory=dict)
    average_ranks: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "meta": self.meta,
            "datasets": self.datasets,
            "methods": self.methods,
            "criteria": self.criteria,
            "cells": {
                ds: {
                    method: {
                        "values": {c: encode_inf(v) for c, v in cell["values"].items()}
                        if cell["values"] is not None
                        else None,
                        "rng_seed": cell["rng_seed"],
                        "flags": cell["flags"],
                        "error": cell["error"],
                    }
                    for method, cell in per_ds.items()
                }
                for ds, per_ds in self.cells.items()
            },
            "ranks": self.ranks,
            "average_ranks": self.average_ranks,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ComparisonReport":
        cells = {
            ds: {
                method: {
                    "values": {c: decode_inf(v) for c, v in cell["values"].items()}
                    if cell["values"] is not None
                    else None,
                    "rng_seed": cell["rng_seed"],
                    "flags": list(cell["flags"]),
                    "error": cell["error"],
                }
                for method, cell in per_ds.items()
            }
            for ds, per_ds in payload["cells"].items()
        }
        return cls(
            datasets=list(payload["datasets"]),
            methods=list(payload["methods"]),
            criteria=list(payload["criteria"]),
            cells=cells,
            ranks=payload.get("ranks", {}),
            average_ranks=payload.get("average_ranks", {}),
            meta=payload.get("meta", {}),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def load_manifest(path) -> list[BenchJob]:
    """Read a dataset manifest: a JSON list of {name, expected_k, and
    either path (+ label_column, delimiter, standardize) or generator}.

    Relative paths resolve against the manifest's directory. A dataset
    that fails to load becomes an errored job instead of aborting.
    """
    path = Path(path)
    try:
        entries = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(entries, list):
        raise DataError(f"manifest {path} must be a JSON list")

    jobs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            jobs.append(BenchJob(name=f"dataset_{i}", expected_k=0,
                                 error=f"manifest entry {i} must be an object, "
                                       f"got {type(entry).__name__}"))
            continue
        name = entry.get("name", f"dataset_{i}")
        try:
            expected_k = int(entry["expected_k"])
            if "path" in entry:
                csv_path = Path(entry["path"])
                if not csv_path.is_absolute():
                    csv_path = path.parent / csv_path
                ds = load_csv(
                    csv_path,
                    label_column=entry.get("label_column"),
                    delimiter=entry.get("delimiter", ","),
                )
            elif "generator" in entry:
                ds = dataset_from_spec(entry["generator"], base_dir=path.parent)
            else:
                raise DataError(f"manifest entry {name!r} has neither path nor generator")
            ds = standardize(ds, entry.get("standardize", "none"))
            ds = replace(ds, name=name)
            jobs.append(BenchJob(name=name, expected_k=expected_k, dataset=ds))
        except (DataError, ValueError, KeyError) as exc:
            jobs.append(BenchJob(name=name, expected_k=entry.get("expected_k", 0), error=str(exc)))
    return jobs


def _run_cell(job: BenchJob, method: str, cfg: FcmConfig, master_seed: int) -> dict:
    if job.error is not None:
        return {"values": None, "rng_seed": None, "flags": [], "error": job.error}
    cell_seed = derive_seed(master_seed, job.name, method)
    try:
        seeds, result = fit_method(
            job.dataset, job.expected_k, method, cfg=cfg, seed=cell_seed
        )
        scores = score_result(job.dataset, result)
    except (EngineError, ValueError, ArithmeticError) as exc:
        return {"values": None, "rng_seed": None, "flags": [], "error": str(exc)}
    values = {
        "iterations": int(result.iterations),
        "pc": scores.pc,
        "cl": scores.cl,
        "fb": float(result.fb),
        "fw": float(result.fw),
        "fi": float(result.fi),
        "fratio": scores.fratio,
        "tsfd": scores.tsfd,
        "fs": scores.fs,
        "xb": scores.xb,
    }
    return {
        "values": values,
        "rng_seed": seeds.rng_seed,
        "flags": list(scores.flags),
        "error": None,
    }


def run_comparison(
    jobs,
    methods=DEFAULT_BENCH_METHODS,
    cfg: FcmConfig | None = None,
    master_seed: int = 0,
    n_jobs: int = 1,
) -> ComparisonReport:
    """Run every (dataset, method) cell and collect criterion values.

    `jobs` is a sequence of BenchJob or (Dataset, expected_k) pairs. Cells
    are independent and may run in parallel; assembly order (and therefore
    serialized output) is fixed by the input order regardless of n_jobs.
    """
    cfg = cfg or FcmConfig()
    jobs = [
        job if isinstance(job, BenchJob) else BenchJob(job[0].name, job[1], dataset=job[0])
        for job in jobs
    ]
    methods = list(methods)
    unknown = [m for m in methods if m not in STRATEGIES]
    if unknown:
        raise ValueError(f"unknown methods: {unknown}")
    if not methods:
        raise ValueError("methods list is empty")
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise ValueError("dataset names must be unique")

    grid = [(job, method) for job in jobs for method in methods]
    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            results = list(
                pool.map(lambda gm: _run_cell(gm[0], gm[1], cfg, master_seed), grid)
            )
    else:
        results = [_run_cell(job, method, cfg, master_seed) for job, method in grid]

    cells: dict = {}
    for (job, method), cell in zip(grid, results):
        cells.setdefault(job.name, {})[method] = cell

    meta = {
        "master_seed": int(master_seed),
        "m": float(cfg.m),
        "epsilon": float(cfg.epsilon),
        "max_iterations": int(cfg.max_iterations),
        "rng": RNG_NAME,
        "seed_scheme": f"{SEED_SCHEME}; cell seed = derive(master_seed, dataset, method), "
        f"relaunch seed = derive(cell_seed, relaunch_index)",
        "relaunches": RELAUNCH_COUNT,
    }
    return ComparisonReport(
        datasets=[job.name for job in jobs],
        methods=methods,
        criteria=list(CRITERIA),
        cells=cells,
        meta=meta,
    )


def _badness(value, direction: str) -> float:
    """Map a criterion value to an ascending sort key (lower = better).

    Missing values and infinity sentinels always rank last; finite values
    follow the criterion direction.
    """
    if value is None:
        return np.inf
    v = float(value)
    if np.isinf(v):
        return np.inf
    return -v if direction == "maximize" else v


def _average_ranks(keys: list[float]) -> np.ndarray:
    """1-based ascending ranks; equal keys share the mean of the ranks they
    cover. A NaN key makes every rank NaN."""
    keys = np.asarray(keys, dtype=float)
    if np.isnan(keys).any():
        return np.full(keys.size, np.nan)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], keys.size]
    ranks = np.empty(keys.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def rank_methods(report: ComparisonReport) -> ComparisonReport:
    """Fill per-(dataset, criterion) rank vectors and average ranks.

    Rank 1 is best under the criterion's direction, on full-precision
    values; exact ties share the average of the covered ranks, so every
    rank vector over M methods sums to M(M+1)/2.
    """
    ranks: dict = {}
    for ds in report.datasets:
        ranks[ds] = {}
        for criterion in report.criteria:
            direction = CRITERIA[criterion]
            values = [
                report.cells[ds][m]["values"].get(criterion)
                if report.cells[ds][m]["values"] is not None
                else None
                for m in report.methods
            ]
            vector = _average_ranks([_badness(v, direction) for v in values])
            ranks[ds][criterion] = {
                m: float(r) for m, r in zip(report.methods, vector)
            }
    average = {
        criterion: {
            m: float(np.mean([ranks[ds][criterion][m] for ds in report.datasets]))
            for m in report.methods
        }
        for criterion in report.criteria
    }
    return replace(report, ranks=ranks, average_ranks=average)


def _fmt(value) -> str:
    if value is None:
        return "error"
    value = encode_inf(value)
    return repr(value) if isinstance(value, float) else str(value)


def _table(rows: list[list[str]], header: list[str], fmt: str) -> str:
    if fmt == "csv":
        return "\n".join(",".join(cells) for cells in [header] + rows) + "\n"
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(cells) + " |" for cells in rows]
    return "\n".join(lines) + "\n"


def write_report(report: ComparisonReport, out_dir, formats=("json", "csv", "md")) -> list[Path]:
    """Write report.json plus per-dataset value/rank tables and the
    average-rank table (methods as rows, criteria as columns)."""
    out_dir = Path(out_dir)
    tables = out_dir / "tables"
    tables.mkdir(parents=True, exist_ok=True)
    written = []

    if "json" in formats:
        target = out_dir / "report.json"
        target.write_text(report.to_json())
        written.append(target)

    table_formats = [f for f in formats if f in ("csv", "md")]
    if not table_formats:
        return written

    header = ["method"] + report.criteria
    for ds in report.datasets:
        value_rows = [
            [m] + [_fmt(report.cells[ds][m]["values"].get(c)
                        if report.cells[ds][m]["values"] is not None else None)
                   for c in report.criteria]
            for m in report.methods
        ]
        rank_rows = (
            [
                [m] + [_fmt(report.ranks[ds][c][m]) for c in report.criteria]
                for m in report.methods
            ]
            if report.ranks
            else None
        )
        slug = re.sub(r"[^A-Za-z0-9._-]+", "_", ds)
        for fmt in table_formats:
            target = tables / f"{slug}_values.{fmt}"
            target.write_text(_table(value_rows, header, fmt))
            written.append(target)
            if rank_rows is not None:
                target = tables / f"{slug}_ranks.{fmt}"
                target.write_text(_table(rank_rows, header, fmt))
                written.append(target)

    if report.average_ranks:
        avg_rows = [
            [m] + [_fmt(report.average_ranks[c][m]) for c in report.criteria]
            for m in report.methods
        ]
        for fmt in table_formats:
            target = tables / f"average_ranks.{fmt}"
            target.write_text(_table(avg_rows, header, fmt))
            written.append(target)
    return written
