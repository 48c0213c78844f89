"""scoregate benchmark: one closed-loop client in one process and thread.

    python3 bench/run.py --workload train-attention --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``. Every
``--seed`` given to the package is drawn from the workload seed. The run
prints one JSON line with its environment, p50/p90 timings with sample
counts, output digests and failure share, then the result line:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the set-up runs ``setup_reps`` times (``setup_s`` is the
median) and, after one untimed warm-up round, the workload loop runs
untraced for ``--seconds``; the metrics are the end-to-end ones. With
``--trace 1`` a traced set-up is followed by a fixed number of round pairs,
one untraced and one traced; the metrics are the per-layer totals of
everything traced, plus the tracing overhead per round (traced minus
untraced round time). The fixed round count makes every count metric repeat
exactly.

Workloads (every operation goes through ``scoregate.cli.main``, except
``exact_shapley``, which has no command):

- ``train-attention``: repeated ``train`` fits of a gated attention model,
  about 900 tiny graph nodes per step; recompute and backward dominate,
  Adam is ~1%.
- ``explain``: kernel SHAP on the sampled and the full-enumeration path,
  exact Shapley, ``rank`` and ``compare`` on two gated MLPs trained in
  set-up; no autodiff runs outside set-up. Its ``fit_s_p50`` times the
  criterion-7 MLP fit of each set-up (16 graph nodes per step, Adam ~20%),
  so it also stands for small-matrix MLP training.

Every workload runs each operation the other times, so every end-to-end
metric is measured on every workload: ``train-attention`` explains its
freshly fitted model on 2 rows after each fit.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: default threading on a small
# machine makes the least-squares solves in kernel SHAP erratic.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import importlib
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracer as tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DATA_ARGS = ["--dataset", "synth", "--n", "1000"]


@dataclass(frozen=True)
class Workload:
    loop_fit: list[str]  # train flags of the fit each round starts with; [] for none
    setup_fits: list[tuple[str, list[str]]]  # (dataset, train flags) fitted in set-up
    setup_reps: int  # set-ups in a ``--trace 0`` run; setup_s is their median
    rows: int  # rows each SHAP operation explains
    coalitions: int  # budget of the sampled 16-feature SHAP
    repeats: int  # rank/compare command pairs per round
    traced_rounds: int  # untraced/traced round pairs in a ``--trace 1`` run


_ATTENTION = ["--model", "scores", "--backbone", "attention", "--batch-size", "32"]

WORKLOADS = {
    "train-attention": Workload(
        loop_fit=_ATTENTION + ["--epochs", "2"],
        setup_fits=[("n10", _ATTENTION + ["--epochs", "1"])], setup_reps=5,
        rows=2, coalitions=512, repeats=5, traced_rounds=8),
    # the 16-feature model follows acceptance criterion 7's protocol, the
    # 10-feature one criterion 9's
    "explain": Workload(
        loop_fit=[],
        setup_fits=[("n16", ["--model", "scores", "--hidden", "16", "--epochs", "1000",
                             "--lr", "0.001", "--batch-size", "128"]),
                    ("n10", ["--model", "scores", "--hidden", "8", "--epochs", "1000",
                             "--lr", "0.001", "--batch-size", "64"])],
        setup_reps=4,
        rows=100, coalitions=2048, repeats=5, traced_rounds=30),
}


def _read_json(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _read_checked(path: str, check) -> dict:
    payload = _read_json(path)
    check(payload)
    return payload


class Run:
    """One workload's set-up and rounds, with timings, checks and digests."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.tracer: tracing.Tracer | None = None

    # -- operations -----------------------------------------------------------

    def _next_seed(self) -> str:
        return str(self.rng.randrange(2 ** 31))

    def _untraced(self):
        """The benchmark's own calls into the package (checks, loading
        inputs) record no spans."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def _op(self, kind: str, call, check) -> dict | None:
        """Time ``call``, then check and digest its output outside the timing;
        returns the checked output. An operation that raises or fails its
        check counts as failed and returns None."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - start
            with self._untraced():
                payload = check(result)
        except Exception:  # a failed operation is counted; the loop goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.times.setdefault(kind, []).append(elapsed)
        self.digests.setdefault(kind, checks.digest(payload))
        return payload

    def _cli(self, kind: str, argv: list[str], check) -> dict | None:
        def checked(rc):
            if rc != 0:
                raise checks.CheckError(f"{' '.join(argv)} exited {rc}")
            return check()
        return self._op(kind, lambda: self.cli.main(argv), checked)

    def _gen(self, name: str, noise: int) -> None:
        argv = ["gen", *DATA_ARGS, "--noise", str(noise), "--seed", self._next_seed(),
                "--out", f"{name}.csv"]
        self._cli("gen", argv, lambda: {"csv": Path(f"{name}.csv").read_text(encoding="utf-8"),
                                        "sidecar": _read_json(f"{name}.sidecar.json")})

    def _fit(self, kind: str, dataset: str, flags: list[str], out: str) -> None:
        argv = ["train", "--data", f"{dataset}.csv", *flags, "--seed", self._next_seed(),
                "--out-model", f"{out}.json", "--out-report", f"{out}.report.json"]

        def check():
            report = _read_json(f"{out}.report.json")
            checks.check_fit(report)
            return {"model": _read_json(f"{out}.json"), "report": report}
        self._cli(kind, argv, check)

    def _shap(self, kind: str, model: str, dataset: str, coalitions: int) -> dict | None:
        out = f"{kind}.json"
        argv = ["shap", "--model", f"{model}.json", "--data", f"{dataset}.csv",
                "--samples", str(self.workload.rows), "--coalitions", str(coalitions),
                "--seed", self._next_seed(), "--out", out]

        def check():
            payload = _read_json(out)
            rows = self.X[dataset][payload["sample_indices"]]
            fx = self.pkg.Model.load(f"{model}.json").predict(rows)
            checks.check_efficiency(payload["phi"], fx, payload["base_value"])
            return payload
        return self._cli(kind, argv, check)

    # -- tracing, set-up and rounds ------------------------------------------------

    def trace(self, tracer: tracing.Tracer) -> None:
        self.tracer = tracer
        tracing.install(tracer, self.pkg, self.cli, self.pkg.autodiff, self.pkg.training,
                        self.pkg.models, self.pkg.data, np.linalg)

    def untrace(self) -> None:
        if self.tracer is not None:
            self.tracer.restore()
            self.tracer = None

    def setup(self, tracer: tracing.Tracer | None = None) -> None:
        """Import the package afresh, generate both datasets and fit the set-up
        models. With a tracer, everything after the import is traced."""
        for name in [m for m in sys.modules if m == "scoregate" or m.startswith("scoregate.")]:
            del sys.modules[name]
        self.pkg = importlib.import_module("scoregate")
        self.cli = importlib.import_module("scoregate.cli")
        if Path(self.pkg.__file__).resolve().parent != SRC / "scoregate":
            raise RuntimeError(f"imported scoregate from {self.pkg.__file__}, not {SRC}")
        if tracer is not None:
            self.trace(tracer)
        self.rng = random.Random(self.seed)
        self._gen("n16", 11)
        self._gen("n10", 5)
        for dataset, flags in self.workload.setup_fits:
            self._fit(f"setup_fit_{dataset}", dataset, flags, f"model_{dataset}")
        with self._untraced():
            self.X = {name: self.pkg.load_csv(f"{name}.csv").X for name in ("n16", "n10")}
            self.model10 = self.pkg.Model.load("model_n10.json")
            self.background10 = self.pkg.mean_background(self.X["n10"])

    def round(self) -> None:
        w = self.workload
        if w.loop_fit:
            self._fit("fit", "n16", w.loop_fit, "model_n16")
        self._shap("shap_sampled", "model_n16", "n16", w.coalitions)
        full = self._shap("shap_full", "model_n10", "n10", 2 ** 10)
        if full is not None:
            X = self.X["n10"][full["sample_indices"]]

            def check_exact(result):
                checks.check_efficiency(result.phi, self.model10.predict(X), result.base_value)
                checks.check_same_phi(result.phi, full["phi"])
                return result.to_dict()
            self._op("exact", lambda: self.pkg.exact_shapley(self.model10.predict, X,
                                                             self.background10), check_exact)
        for _ in range(w.repeats):
            self._cli("rank", ["rank", "--model", "model_n16.json", "--out", "rank.json"],
                      lambda: _read_checked("rank.json", checks.check_rank))
            self._cli("compare", ["compare", "--rankings", "rank.json", "shap_sampled.json",
                                  "--sidecar", "n16.sidecar.json", "--out", "compare.json"],
                      lambda: _read_checked("compare.json", checks.check_compare))


# -- reporting ---------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
            "blas_threads": _blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu}


def timing_summary(times: dict[str, list[float]]) -> dict:
    return {kind: {"p50": statistics.median(v),
                   "p90": statistics.quantiles(v, n=10)[-1] if len(v) > 1 else v[0],
                   "n": len(v)}
            for kind, v in times.items()}


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """Set up ``setup_reps`` times, then run one warm-up round and rounds for
    ``seconds``; returns the end-to-end metrics."""
    setup_s = []
    for _ in range(run.workload.setup_reps):
        start = time.perf_counter()
        run.setup()
        setup_s.append(time.perf_counter() - start)
    setup_times = {kind: list(v) for kind, v in run.times.items()}
    run.round()  # warm-up: checked and counted, not timed
    run.times = setup_times
    deadline = time.perf_counter() + seconds
    run.round()
    while time.perf_counter() < deadline:
        run.round()

    def p50(kind: str) -> float:
        return statistics.median(run.times[kind])
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        # the explain workload fits only in set-up; its fit metric is the
        # criterion-7 fit, one per set-up
        "fit_s_p50": (p50("fit" if run.workload.loop_fit else "setup_fit_n16"), "s"),
        "shap_sampled_s_p50": (p50("shap_sampled"), "s"),
        "shap_full_s_p50": (p50("shap_full"), "s"),
        "exact_s_p50": (p50("exact"), "s"),
        "rank_ms_p50": (p50("rank") * 1000.0, "ms"),
        "compare_ms_p50": (p50("compare") * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {"setup_s_samples": setup_s}


def measure_traced(run: Run) -> tuple[dict, dict]:
    """One traced set-up, then a fixed number of round pairs, one round of
    each pair untraced and the other traced, taking turns at going first;
    returns the per-layer totals of everything traced and the tracing
    overhead per round: the median over pairs of traced minus untraced round
    time, paired so machine drift cancels and alternated so the warmth the
    first round leaves the second does too."""
    tracer = tracing.Tracer()
    try:
        run.setup(tracer)
    finally:
        run.untrace()
    rounds_s: dict[bool, list[float]] = {False: [], True: []}
    for pair in range(run.workload.traced_rounds):
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                run.trace(tracer)
            start = time.perf_counter()
            try:
                run.round()
            finally:
                if traced:
                    run.untrace()
            rounds_s[traced].append(time.perf_counter() - start)
    metrics = {name: (value, "count" if isinstance(value, int) else "s")
               for name, value in tracing.layer_metrics(tracer.summary()).items()}
    overhead = statistics.median(t - u for u, t in zip(rounds_s[False], rounds_s[True]))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, {"untraced_round_s": statistics.median(rounds_s[False]),
                     "traced_round_s": statistics.median(rounds_s[True]),
                     "spans": len(tracer.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scoregate" / "__init__.py").is_file():
        print(f"error: no scoregate package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True  # every set-up compiles the package the same way

    run = Run(WORKLOADS[args.workload], args.seed)
    out = sys.stdout
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    cwd = Path.cwd()
    os.chdir(work)  # relative paths keep file names out of the outputs' digests
    try:
        with open(os.devnull, "w", encoding="utf-8") as devnull, \
                contextlib.redirect_stdout(devnull):
            if args.trace:
                metrics, extra = measure_traced(run)
            else:
                metrics, extra = measure(run, args.seconds)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": environment(), "timings": timing_summary(run.times),
            "failed_op_share": run.failed / run.attempted, "output_sha256": run.digests,
            **extra}
    print(json.dumps(info, sort_keys=True), file=out)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
