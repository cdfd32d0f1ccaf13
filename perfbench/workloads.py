"""The workloads. Each derives its inputs from the workload seed in
`setup`, runs one operation in `op` and raises CheckFailed when an
output is wrong. fuzzseed is reached only through its package namespace
(`fz.<name>`) and the `fuzzseed` CLI, so the tracer's rebinding of the
public functions reaches every call.

Why these: each open performance item acts on a different layer, so each
layer gets a workload where it does most of the work and others where it
does almost none (see layers.NAMED).
"""

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import fuzzseed as fz

ROOT = Path(__file__).resolve().parent.parent
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"
CHILD_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An operation's output is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def derive(seed: int, *parts) -> int:
    """A 32-bit input seed for one named part of a workload."""
    payload = ":".join(str(p) for p in (seed, *parts)).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=4).digest(), "big")


def run_child(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run a Python child on this checkout's fuzzseed sources and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def same_as_first(state: dict, key: str, value) -> None:
    """Record `value` on the first operation; later ones must match it."""
    first = state.setdefault("first", {}).setdefault(key, value)
    check(first == value, f"{key} differs from the first operation")


class CliSession:
    name = "cli_session"
    why = ("five fuzzseed CLI calls (generate 20000x8 CSV, seed, fit, validate, "
           "bench on demo/manifest.json): cold import and CSV parsing dominate")
    sizes = {"rows": 20000, "features": 8, "clusters": 4, "sigma": 0.5,
             "bench_manifest": "demo/manifest.json"}
    warmup_ops = 0
    rusage = resource.RUSAGE_CHILDREN  # peak RSS of the CLI processes

    def setup(self, seed: int, workdir: Path) -> dict:
        manifest = ROOT / "demo" / "manifest.json"
        if not manifest.is_file():
            raise FileNotFoundError(manifest)
        spec = {"kind": "gaussian_clusters", "k": self.sizes["clusters"],
                "size": self.sizes["rows"] // self.sizes["clusters"],
                "sigma": self.sizes["sigma"], "dims": self.sizes["features"],
                "rng_seed": derive(seed, self.name, "data"), "name": "session"}
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        # The library's own output for the same spec: the CLI's generated
        # CSV must match it byte for byte, and its seeds exactly.
        ds = fz.dataset_from_spec(spec)
        fz.write_csv(ds, workdir / "reference.csv")
        return {
            "workdir": workdir,
            "spec": spec_path,
            "manifest": manifest,
            "bench_seed": derive(seed, self.name, "bench"),
            "reference_csv": (workdir / "reference.csv").read_bytes(),
            "reference_seeds": fz.seed_maxmin_linear(ds, spec["k"]).to_dict(),
        }

    def _cli(self, state, step, args, tracer):
        workdir = state["workdir"]
        if tracer is None:
            proc = run_child([sys.executable, "-m", "fuzzseed.cli", *args], workdir)
        else:
            spans = workdir / f"spans-{step}.json"
            spans.unlink(missing_ok=True)
            with tracer.step(f"cli.{step}") as span:
                proc = run_child([sys.executable, str(CLI_CHILD), str(spans), *args], workdir)
            if spans.is_file():
                tracer.adopt(json.loads(spans.read_text()), span)
        check(proc.returncode == 0,
              f"{step}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        try:
            return json.loads(proc.stdout) if proc.stdout.lstrip().startswith("{") else proc.stdout
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{step}: stdout is not JSON: {exc}") from exc

    def op(self, state: dict, tracer=None) -> None:
        wd = state["workdir"]
        k = str(self.sizes["clusters"])
        data = ["--data", "data.csv", "--label-column", "label"]
        for stale in ("data.csv", "fit.json", "u.csv"):
            (wd / stale).unlink(missing_ok=True)
        shutil.rmtree(wd / "report", ignore_errors=True)

        out = self._cli(state, "generate", ["generate", "--spec", str(state["spec"]),
                                            "--out", "data.csv"], tracer)
        check(isinstance(out, dict) and out.get("n") == self.sizes["rows"]
              and out.get("p") == self.sizes["features"], "generate: wrong summary")
        check((wd / "data.csv").read_bytes() == state["reference_csv"],
              "generate: CSV differs from the library's write_csv")

        out = self._cli(state, "seed", ["seed", *data, "--k", k, "--method", "maxmin_linear"],
                        tracer)
        check(out == state["reference_seeds"], "seed: differs from the library's maxmin_linear")
        check(out["distance_evals"] == self.sizes["rows"] * int(k),
              "seed: maxmin_linear distance_evals != n*k")

        self._cli(state, "fit", ["fit", *data, "--k", k, "--method", "maxmin_linear",
                                 "--out", "fit.json", "--membership-out", "u.csv"], tracer)
        fit_text = (wd / "fit.json").read_text()
        fit = json.loads(fit_text)
        check(abs(fit["fi"] - fit["fw"] - fit["fb"]) <= 1e-9 * fit["fi"], "fit: FI != FW + FB")
        same_as_first(state, "fit.json", fit_text)

        out = self._cli(state, "validate", ["validate", "--result", "fit.json", *data,
                                            "--membership", "u.csv"], tracer)
        check(isinstance(out, dict) and "tsfd" in out and out.get("flags") == [],
              "validate: missing indices or quality flags raised")
        same_as_first(state, "validate", out)

        out = self._cli(state, "bench", ["bench", "--manifest", str(state["manifest"]),
                                         "--out", "report", "--seed", str(state["bench_seed"]),
                                         "--jobs", "1"], tracer)
        check(isinstance(out, dict) and out.get("warnings") == 0, "bench: warnings reported")
        same_as_first(state, "report.json", (wd / "report" / "report.json").read_bytes())

    def probe(self, state: dict) -> dict:
        """Fresh-interpreter import cost of fuzzseed and of scipy.stats
        within it, from `python -X importtime` (median of three)."""
        fuzzseed_s, scipy_s = [], []
        for _ in range(3):
            proc = run_child([sys.executable, "-X", "importtime", "-c", "import fuzzseed"],
                             state["workdir"])
            cumulative = {}
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[1].strip().isdigit():
                    cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
            fuzzseed_s.append(cumulative.get("fuzzseed"))
            # Zero when fuzzseed no longer imports scipy.stats.
            scipy_s.append(cumulative.get("scipy.stats", 0.0))
        if None in fuzzseed_s:
            return {}
        return {"import_fuzzseed_s": statistics.median(fuzzseed_s),
                "import_scipy_stats_s": statistics.median(scipy_s)}


class GridRelaunch:
    name = "grid_relaunch"
    why = ("in-process run_comparison (5 default methods) + rank_methods + to_json over 18 "
           "Gaussian datasets, n 120..2400, p 4: per-call overhead of small FCM relaunches")
    sizes = {"datasets": 18, "k": [3, 4, 6], "cluster_size": [40, 150, 400],
             "sigma": [0.3, 0.5], "dims": 4, "methods": list(fz.DEFAULT_BENCH_METHODS)}
    warmup_ops = 1
    rusage = resource.RUSAGE_SELF

    def setup(self, seed: int, workdir: Path) -> dict:
        jobs = []
        for k in self.sizes["k"]:
            for size in self.sizes["cluster_size"]:
                for sigma in self.sizes["sigma"]:
                    name = f"k{k}_size{size}_sd{sigma}"
                    spec = fz.GaussianSpec(k=k, size=size, sigma=sigma, dims=self.sizes["dims"],
                                           rng_seed=derive(seed, self.name, name), name=name)
                    jobs.append(fz.BenchJob(name, k, dataset=fz.gen_gaussian_clusters(spec)))
        return {"jobs": jobs, "master_seed": derive(seed, self.name, "master")}

    def op(self, state: dict, tracer=None) -> None:
        methods = self.sizes["methods"]
        report = fz.run_comparison(state["jobs"], methods, master_seed=state["master_seed"])
        ranked = fz.rank_methods(report)
        text = ranked.to_json()
        errored = [f"{ds}/{m}" for ds, per in ranked.cells.items()
                   for m, cell in per.items() if cell["error"] is not None]
        check(not errored, f"errored cells: {errored[:3]}")
        full = len(methods) * (len(methods) + 1) / 2
        for ds, per_ds in ranked.ranks.items():
            for criterion, vector in per_ds.items():
                check(abs(sum(vector.values()) - full) <= 1e-9,
                      f"ranks of {ds}/{criterion} do not sum to M(M+1)/2")
        same_as_first(state, "to_json", text)


class FitLarge:
    name = "fit_large"
    why = ("maxmin_linear seeding, 12 FCM iterations and score_result on 100000x16, k=10, "
           "sigma 0.6: the (n,k,p) distance passes and u**m dominate")
    # A fixed iteration budget (epsilon far below any reachable change)
    # keeps the work per operation the same for every workload seed.
    sizes = {"n": 100000, "p": 16, "k": 10, "sigma": 0.6, "iterations": 12}
    engine_shape = (sizes["n"], sizes["k"], sizes["p"])
    warmup_ops = 1
    rusage = resource.RUSAGE_SELF

    def setup(self, seed: int, workdir: Path) -> dict:
        s = self.sizes
        spec = fz.GaussianSpec(k=s["k"], size=s["n"] // s["k"], sigma=s["sigma"], dims=s["p"],
                               rng_seed=derive(seed, self.name), name="fit_large")
        return {"ds": fz.gen_gaussian_clusters(spec),
                "cfg": fz.FcmConfig(m=2.0, epsilon=1e-15, max_iterations=s["iterations"])}

    def op(self, state: dict, tracer=None) -> None:
        ds, cfg = state["ds"], state["cfg"]
        seeds = fz.seed_maxmin_linear(ds, self.sizes["k"])
        check(seeds.distance_evals == ds.n * self.sizes["k"], "maxmin_linear: distance_evals != n*k")
        result = fz.run_fcm(ds, seeds, cfg)
        fz.score_result(ds, result)
        check(abs(result.fi - (result.fw + result.fb)) <= 1e-9 * result.fi, "FI != FW + FB")
        row_error = float(abs(result.membership.sum(axis=1) - 1.0).max())
        check(row_error <= 1e-12, f"membership rows off 1 by {row_error}")
        check(result.iterations == self.sizes["iterations"],
              f"fit stopped after {result.iterations} of {self.sizes['iterations']} iterations")
        trace = result.objective_trace
        check(all(b <= a for a, b in zip(trace, trace[1:])), "FW trace increases")
        same_as_first(state, "fw", (result.fw, result.iterations))
        state["last"] = result

    def probe(self, state: dict) -> dict:
        """Each engine step timed alone on the final state (median of 5)."""
        if "last" not in state:
            return {}
        ds, result = state["ds"], state["last"]
        points, centroids, m = ds.points, result.centroids, result.m
        u = result.membership
        steps = {
            "update_membership_s": lambda: fz.update_membership(points, centroids, m),
            "update_centroids_s": lambda: fz.update_centroids(points, u, m),
            "fuzzy_within_s": lambda: fz.fuzzy_within(points, centroids, u, m),
        }
        out = {}
        for key, fn in steps.items():
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            out[key] = statistics.median(times)
        return out


WORKLOADS = {w.name: w for w in (CliSession, GridRelaunch, FitLarge)}
