"""Command-line front door.

Subcommands: seed, fit, validate, generate, bench. JSON results go to
stdout (or --out), diagnostics to stderr. Exit codes: 0 success, 1 usage
error (bad flags or parameter values), 2 runtime error (unreadable data,
engine failures). Every stochastic path either takes --seed (or the
FUZZSEED_SEED env var) or draws a fresh seed; the effective seed is
always echoed in the output.
"""

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .data import (SCHEMA, STANDARDIZE_MODES, DataError, _table_rows, _write_rows, check_types,
                   load_csv, read_json, standardize, write_csv)
from .engine import EngineError, FcmConfig, _inertia_fault, update_membership
from .rng import fresh_seed
from .seeding import DEFAULT_BENCH_METHODS, STRATEGIES, fit_method, make_seeds
from .synth import dataset_from_spec
from .bench import (FORMATS, load_manifest, rank_methods, resolve_formats, run_comparison,
                    write_report)
from .validity import score_partition


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the CLI contract says 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _effective_seed(args) -> int | None:
    """--seed, else FUZZSEED_SEED unless unset or empty, else None (a fresh
    seed); a value that is not an integer >= 0 is a ValueError naming its source."""
    source, value = ("--seed", args.seed) if args.seed is not None else (
        "FUZZSEED_SEED", os.environ.get("FUZZSEED_SEED") or None)
    if value is not None and not str(value).strip().isdecimal():
        raise ValueError(f"{source} must be an integer >= 0, got {value!r}")
    return None if value is None else int(value)


def _load_dataset(args):
    ds = load_csv(args.data, label_column=args.label_column, delimiter=args.delimiter)
    return standardize(ds, args.standardize)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise DataError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _add_data_flags(p):
    p.add_argument("--data", required=True, help="CSV dataset path")
    p.add_argument("--label-column", default=None, help="header name of the label column")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--standardize", default="none", choices=STANDARDIZE_MODES)


def _add_fcm_flags(p):
    p.add_argument("--m", type=float, default=FcmConfig.m)
    p.add_argument("--epsilon", type=float, default=FcmConfig.epsilon)
    p.add_argument("--max-iter", type=int, default=FcmConfig.max_iterations)


def build_parser() -> _Parser:
    parser = _Parser(prog="fuzzseed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seed", help="pick initial centroids")
    _add_data_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", required=True, choices=STRATEGIES)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("fit", help="seed and run the clustering to convergence")
    _add_data_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", required=True, choices=STRATEGIES)
    p.add_argument("--seed", type=int, default=None)
    _add_fcm_flags(p)
    p.add_argument("--out", default=None, help="write result JSON here instead of stdout")
    p.add_argument("--membership-out", default=None, help="write the membership matrix as CSV")

    p = sub.add_parser("validate", help="score a fitted result with all validity indices")
    p.add_argument("--result", required=True, help="FcmResult JSON from fit")
    _add_data_flags(p)
    p.add_argument("--membership", default=None,
                   help="membership CSV from fit; recomputed from centroids when absent")

    p = sub.add_parser("generate", help="generate a synthetic dataset CSV")
    p.add_argument("--spec", required=True, help="generator spec JSON")
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("bench", help="run the full comparison protocol")
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p.add_argument("--methods", default=",".join(DEFAULT_BENCH_METHODS),
                   help="comma-separated strategy ids")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--jobs", type=int, default=1)
    _add_fcm_flags(p)
    p.add_argument("--formats", default=",".join(FORMATS),
                   help=f"comma-separated subset of {', '.join(FORMATS)}")
    return parser


def _make_config(args) -> FcmConfig:
    return FcmConfig(m=args.m, epsilon=args.epsilon, max_iterations=args.max_iter)


def cmd_seed(args) -> int:
    seed = _effective_seed(args)
    ds = _load_dataset(args)
    seeds = make_seeds(ds, args.k, args.method, seed=seed)
    if seeds.rng_seed is not None:
        print(f"seed={seeds.rng_seed}", file=sys.stderr)
    _emit(seeds.to_dict(), None)
    return 0


def cmd_fit(args) -> int:
    cfg = _make_config(args)
    seed = _effective_seed(args)
    ds = _load_dataset(args)
    seeds, result = fit_method(ds, args.k, args.method, cfg=cfg, seed=seed)
    if seeds.rng_seed is not None:
        print(f"seed={seeds.rng_seed}", file=sys.stderr)

    payload = result.to_dict()
    payload["rng_seed"] = seeds.rng_seed
    summary = (
        f"iterations={result.iterations} fw={result.fw!r} "
        f"fb={result.fb!r} fi={result.fi!r}"
    )
    # the membership CSV first, so that a failed write prints no result,
    # and removed again when the result cannot be written
    if args.membership_out:
        _write_rows(args.membership_out, [f"u{j + 1}" for j in range(result.k)],
                    _table_rows(result.membership), "\n")
    try:
        _emit(payload, args.out)
    except DataError:
        if args.membership_out:
            Path(args.membership_out).unlink(missing_ok=True)
        raise
    print(summary, file=sys.stdout if args.out else sys.stderr)
    return 0


def _load_membership(path, n, k):
    """The (n, k) membership CSV at `path`: every value in [0, 1], every
    row summing to 1 within 1e-9; otherwise a DataError naming the first
    bad line."""
    u = load_csv(path).points
    if u.shape != (n, k):
        raise DataError(f"{path}: membership shape {u.shape} does not match (n={n}, k={k})")
    with np.errstate(over="ignore", invalid="ignore"):  # huge values sum to inf or nan
        sums = u.sum(axis=1)
    ok = (np.abs(sums - 1.0) <= 1e-9) & (u.min(axis=1) >= 0.0) & (u.max(axis=1) <= 1.0)
    if not ok.all():
        row = int(np.argmin(ok))
        in_range = 0.0 <= u[row].min() and u[row].max() <= 1.0
        # the data rows are the last n non-blank ones
        with open(path, newline="", encoding="utf-8-sig") as fh:
            lines = [i + 1 for i, cells in enumerate(csv.reader(fh)) if cells]
        problem = (f"a sum of {float(sums[row])!r}" if in_range
                   else "a value outside [0, 1]")
        raise DataError(
            f"{path}: membership row at line {lines[row - n]} has {problem}; "
            "values must lie in [0, 1] and each row sum to 1"
        )
    return u


def cmd_validate(args) -> int:
    ds = _load_dataset(args)
    # Reading, checking and scoring the result file is one step: any defect
    # of the file, including a value an index rejects, is a DataError.
    payload = read_json(args.result, "result")
    try:
        coordinates = {f"centroids[{i}][{j}]": v
                       for i, row in enumerate(payload["centroids"]) for j, v in enumerate(row)}
        check_types(payload | coordinates, ("n",), ("m", "fw", "fb", "fi", *coordinates))
        centroids = np.array(payload["centroids"], dtype=float)
        m = FcmConfig(m=float(payload["m"])).m
        fw, fb, fi = (float(payload[key]) for key in ("fw", "fb", "fi"))
        if centroids.ndim != 2 or centroids.shape[1] != ds.p:
            raise ValueError(f"result dimension {centroids.shape} does not match data p={ds.p}")
        if not np.isfinite(centroids).all():
            raise ValueError("the centroids must be finite")
        if fault := _inertia_fault(fw, fb, fi):
            raise ValueError(fault)
        if payload.get("n", ds.n) != ds.n:
            raise ValueError(f"result n={payload['n']!r} does not match data n={ds.n}")
        if args.membership:
            u = _load_membership(args.membership, ds.n, centroids.shape[0])
        else:
            u = update_membership(ds.points, centroids, m)
        out = score_partition(ds.n, centroids, u, fw, fb, fi).to_dict()
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        raise DataError(f"cannot read result {args.result}: {exc}") from exc
    if not args.membership:
        print("membership not supplied; recomputing from centroids", file=sys.stderr)
    out["schema"] = SCHEMA
    _emit(out, None)
    return 0


def cmd_generate(args) -> int:
    spec = read_json(args.spec, "spec")
    ds = dataset_from_spec(spec, base_dir=Path(args.spec).parent)
    write_csv(ds, args.out)
    _emit(
        {
            "schema": SCHEMA,
            "name": ds.name,
            "n": ds.n,
            "p": ds.p,
            "labels": len(set(ds.labels.tolist())) if ds.labels is not None else 0,
            "path": str(args.out),
        },
        None,
    )
    return 0


def cmd_bench(args) -> int:
    cfg = _make_config(args)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    formats = resolve_formats(args.formats.split(","))
    seed = _effective_seed(args)
    if seed is None:
        seed = fresh_seed()
    print(f"master_seed={seed}", file=sys.stderr)

    jobs = load_manifest(args.manifest)
    report = run_comparison(jobs, methods, cfg=cfg, master_seed=seed, n_jobs=args.jobs)
    report = rank_methods(report)
    written = write_report(report, args.out, formats=formats)

    warnings = 0
    for ds, per_ds in report.cells.items():
        for method, cell in per_ds.items():
            if cell["error"] is not None:
                warnings += 1
                print(f"warning: {ds}/{method}: {cell['error']}", file=sys.stderr)
    _emit(
        {
            "schema": SCHEMA,
            "report": str(Path(args.out) / "report.json") if "json" in formats else None,
            "files": [str(p) for p in written],
            "master_seed": seed,
            "warnings": warnings,
        },
        None,
    )
    return 0


COMMANDS = {
    "seed": cmd_seed,
    "fit": cmd_fit,
    "validate": cmd_validate,
    "generate": cmd_generate,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"fuzzseed: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, EngineError, OSError) as exc:
        print(f"fuzzseed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
