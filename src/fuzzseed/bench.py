"""Comparison protocol: seed x dataset -> FCM -> criteria -> ranks.

Each (dataset, method) cell runs the named seeding strategy and FCM once
(relaunch strategies run their relaunches internally), records ten
criteria, and the harness then ranks methods per dataset and criterion
and averages ranks across datasets. Stochastic methods get sub-seeds
derived from the master seed and the cell identity, and cells run in
dataset and method order, so reports are byte-identical across runs.
"""

import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import SCHEMA, DataError, Dataset, check_types, load_csv_source, read_json, standardize
from .engine import EngineError, FcmConfig
from .rng import RNG_NAME, SEED_SCHEME, derive_seed
from .seeding import DEFAULT_BENCH_METHODS, RELAUNCH_COUNT, STRATEGIES, fit_method
from .synth import dataset_from_spec
from .validity import INDEX_DIRECTIONS, decode_inf, encode_inf, score_result

# The fit's own numbers: iterations and FW are costs, FB and FI follow
# the separation indices. The validity indices bring their own direction.
_FIT_DIRECTIONS = {"iterations": "minimize", "fb": "maximize", "fw": "minimize", "fi": "maximize"}

# Criterion -> optimization direction, in report column order.
CRITERIA = {
    c: (_FIT_DIRECTIONS | INDEX_DIRECTIONS)[c]
    for c in ("iterations", "pc", "cl", "fb", "fw", "fi", "fratio", "tsfd", "fs", "xb")
}

# Output formats of write_report: report.json and the csv / md tables.
FORMATS = ("json", "csv", "md")


def resolve_formats(names) -> tuple[str, ...]:
    """The FORMATS entries for a list of format names: blank names are
    dropped, "markdown" / "markdown-table" mean "md" and only the first
    of repeated names is kept. An unknown name raises ValueError."""
    aliases = {"markdown": "md", "markdown-table": "md"}
    formats = tuple(dict.fromkeys(aliases.get(f.strip(), f.strip()) for f in names if f.strip()))
    unknown = [f for f in formats if f not in FORMATS]
    if unknown:
        raise ValueError(f"unknown formats: {unknown}; choose from {', '.join(FORMATS)}")
    return formats


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
            "cells": _map_values(self.cells, encode_inf),
            "ranks": self.ranks,
            "average_ranks": self.average_ranks,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ComparisonReport":
        return cls(
            datasets=list(payload["datasets"]),
            methods=list(payload["methods"]),
            criteria=list(payload["criteria"]),
            cells=_map_values(payload["cells"], decode_inf),
            ranks=payload.get("ranks", {}),
            average_ranks=payload.get("average_ranks", {}),
            meta=payload.get("meta", {}),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _cell(values, rng_seed, flags, error) -> dict:
    """One grid cell, keys in report order."""
    return {"values": values, "rng_seed": rng_seed, "flags": list(flags), "error": error}


def _map_values(cells: dict, f) -> dict:
    """Copy of a cells grid with `f` applied to every criterion value."""
    return {
        ds: {
            method: _cell(
                None if cell["values"] is None else {c: f(v) for c, v in cell["values"].items()},
                cell["rng_seed"], cell["flags"], cell["error"],
            )
            for method, cell in per_ds.items()
        }
        for ds, per_ds in cells.items()
    }


def _value(cell: dict, criterion: str):
    """A cell's value for one criterion; None when the cell errored."""
    return None if cell["values"] is None else cell["values"].get(criterion)


def load_manifest(path) -> list[BenchJob]:
    """Read a dataset manifest: a JSON list of {name, expected_k, and
    either path (+ label_column, delimiter, standardize) or generator}.

    Relative paths resolve against the manifest's directory. A dataset
    that fails to load becomes an errored job instead of aborting.
    """
    path = Path(path)
    entries = read_json(path, "manifest")
    if not isinstance(entries, list):
        raise DataError(f"manifest {path} must be a JSON list")

    jobs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            problem = f"must be an object, got {type(entry).__name__}"
        elif not isinstance(entry.get("name", ""), str):
            problem = f"name must be a string, got {type(entry['name']).__name__}"
        else:
            problem = None
        if problem is not None:
            jobs.append(BenchJob(name=f"dataset_{i}", expected_k=0,
                                 error=f"manifest entry {i} {problem}"))
            continue
        name = entry.get("name", f"dataset_{i}")
        try:
            check_types(entry, ("expected_k",), ())
            expected_k = entry["expected_k"]
            if "path" in entry:
                ds = load_csv_source(entry, path.parent)
            elif "generator" in entry:
                ds = dataset_from_spec(entry["generator"], base_dir=path.parent)
            else:
                raise DataError(f"manifest entry {name!r} has neither path nor generator")
            ds = standardize(ds, entry.get("standardize", "none"))
            ds = Dataset._adopt(ds.points, ds.labels, name)
            jobs.append(BenchJob(name=name, expected_k=expected_k, dataset=ds))
        except (DataError, ValueError, KeyError) as exc:
            jobs.append(BenchJob(name=name, expected_k=entry.get("expected_k", 0), error=str(exc)))
    return jobs


def _run_cell(job: BenchJob, method: str, cfg: FcmConfig, master_seed: int) -> dict:
    if job.error is not None:
        return _cell(None, None, [], job.error)
    cell_seed = derive_seed(master_seed, job.name, method)
    try:
        seeds, result = fit_method(
            job.dataset, job.expected_k, method, cfg=cfg, seed=cell_seed
        )
        scores = score_result(job.dataset, result)
    except (EngineError, ValueError, ArithmeticError) as exc:
        return _cell(None, None, [], str(exc))
    values = {c: getattr(scores if c in INDEX_DIRECTIONS else result, c) for c in CRITERIA}
    return _cell(values, seeds.rng_seed, scores.flags, None)


def _slug(name: str) -> str:  # the stem of a dataset's report tables
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def run_comparison(
    jobs,
    methods=DEFAULT_BENCH_METHODS,
    cfg: FcmConfig | None = None,
    master_seed: int = 0,
) -> ComparisonReport:
    """Run every (dataset, method) cell and collect criterion values.

    `jobs` (BenchJob or (Dataset, expected_k) pairs) and `methods` must be non-empty.
    Cells run serially in the input order, which fixes the assembly order and
    therefore the serialized output.
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
    grid = [(job, method) for job in jobs for method in methods]
    if not grid:
        raise ValueError(f"the grid is empty: {len(jobs)} datasets x {len(methods)} methods")
    slugs = [_slug(job.name) for job in jobs]  # unique slugs imply unique names
    if len(set(slugs + ["average"])) != len(slugs) + 1:
        raise ValueError(f"dataset names must be unique as table names, got {slugs}, "
                         "and 'average' is taken: its ranks would overwrite average_ranks")

    cells: dict = {}
    for job, method in grid:
        cells.setdefault(job.name, {})[method] = _run_cell(job, method, cfg, master_seed)

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


def _average_ranks(keys: list[float]) -> list[float]:
    """Ascending ranks #{smaller keys} + (#{equal keys} + 1) / 2: equal keys
    share the mean of the ranks they cover. A NaN key makes every rank NaN."""
    if np.isnan(keys).any():
        return [np.nan] * len(keys)
    return [sum(y < x for y in keys) + (sum(y == x for y in keys) + 1) / 2 for x in keys]


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
            vector = _average_ranks([
                _badness(_value(report.cells[ds][m], criterion), CRITERIA[criterion])
                for m in report.methods
            ])
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


def write_report(report: ComparisonReport, out_dir, formats=FORMATS) -> list[Path]:
    """Write report.json plus per-dataset value/rank tables and the
    average-rank table (methods as rows, criteria as columns), in the
    given formats (see resolve_formats). A file or directory that cannot
    be written is a DataError."""
    formats = resolve_formats(formats)
    out_dir = Path(out_dir)
    files = []  # (path, text) in writing order
    if "json" in formats:
        files.append((out_dir / "report.json", report.to_json()))

    def rows(lookup) -> list[list[str]]:
        return [[m] + [_fmt(lookup(m, c)) for c in report.criteria] for m in report.methods]

    # Each group is written once per table format, in this order.
    groups = []
    for ds in report.datasets:
        slug = _slug(ds)
        group = {f"{slug}_values": rows(lambda m, c: _value(report.cells[ds][m], c))}
        if report.ranks:
            group[f"{slug}_ranks"] = rows(lambda m, c: report.ranks[ds][c][m])
        groups.append(group)
    if report.average_ranks:
        groups.append({"average_ranks": rows(lambda m, c: report.average_ranks[c][m])})

    header = ["method"] + report.criteria
    for group in groups:
        for fmt in (f for f in formats if f != "json"):
            for stem, body in group.items():
                files.append((out_dir / "tables" / f"{stem}.{fmt}", _table(body, header, fmt)))

    target = out_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for target, text in files:
            target.parent.mkdir(exist_ok=True)  # tables/ only when a table is written
            target.write_text(text)
    except OSError as exc:
        raise DataError(f"cannot write {target}: {exc}") from exc
    return [target for target, _ in files]
