"""In-memory span tracer that wraps package functions where the code looks
them up, and turns the spans into per-layer metrics.

A span is ``[name, start, end, parent, size]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``size`` a count taken from the call's
result (rows predicted, nodes ordered). Spans stay in memory until the run
ends. The benchmark is single-threaded, so spans nest strictly and a span's
self time is its duration minus its direct children's durations.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._paused = False

    def wrap(self, owner, attr: str, name: str, size=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper until ``restore``."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if size is not None:
                span[4] = size(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record no spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def summary(self) -> defaultdict:
        """Per span name: calls, total and self seconds, summed and largest size;
        and per ``parent/child`` name pair the same for the child spans."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0, "max_size": 0})
        for i, (name, start, end, parent, size) in enumerate(self.spans):
            keys = [name] + ([f"{self.spans[parent][0]}/{name}"] if parent >= 0 else [])
            for key in keys:
                row = out[key]
                row["calls"] += 1
                row["s"] += end - start
                row["self_s"] += end - start - child_s[i]
                row["size"] += size
                row["max_size"] = max(row["max_size"], size)
        return out


def install(tracer: Tracer, pkg, cli, autodiff, training, models, data, linalg) -> None:
    """Wrap each traced function at the place its callers look it up.

    ``cli`` imports ``train``, ``kernel_shap`` and ``extract_ranking`` by name;
    ``train`` reaches ``recompute`` and ``backward`` through the autodiff module
    and ``adam_step`` as a global of the training module; ``recompute`` and
    ``backward`` call ``topo_order`` as an autodiff global; ``cli`` reaches
    ``load_csv`` and ``save_csv`` through the data module; the benchmark calls
    ``exact_shapley`` on the package and ``main`` on the cli module.
    """
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "train", "training.train")
    tracer.wrap(training, "adam_step", "training.adam_step")
    tracer.wrap(autodiff, "recompute", "autodiff.recompute")
    tracer.wrap(autodiff, "backward", "autodiff.backward")
    tracer.wrap(autodiff, "topo_order", "autodiff.topo_order", size=len)
    tracer.wrap(models.Model, "loss_graph", "models.loss_graph")
    tracer.wrap(models.DataLeaves, "assign", "models.DataLeaves.assign")
    tracer.wrap(models.Model, "predict", "models.predict", size=len)
    tracer.wrap(cli, "kernel_shap", "explain.kernel_shap")
    tracer.wrap(pkg, "exact_shapley", "explain.exact_shapley")
    tracer.wrap(linalg, "lstsq", "numpy.linalg.lstsq")
    tracer.wrap(data, "load_csv", "data.load_csv")
    tracer.wrap(data, "save_csv", "data.save_csv")
    tracer.wrap(cli, "extract_ranking", "scores.extract_ranking")


def layer_metrics(s: defaultdict) -> dict[str, float]:
    """The per-layer metrics, named ``<module>.<function>.<quantity>``, from
    the ``Tracer.summary`` ``s`` (a name that never ran reads as zero)."""
    return {
        "autodiff.recompute.self_s": s["autodiff.recompute"]["self_s"],
        "autodiff.recompute.calls": s["autodiff.recompute"]["calls"],
        "autodiff.backward.self_s": s["autodiff.backward"]["self_s"],
        "autodiff.backward.calls": s["autodiff.backward"]["calls"],
        "autodiff.topo_order.s": s["autodiff.topo_order"]["s"],
        "autodiff.topo_order.calls": s["autodiff.topo_order"]["calls"],
        "autodiff.graph_nodes": s["autodiff.topo_order"]["max_size"],
        "training.adam_step.s": s["training.adam_step"]["s"],
        "training.adam_step.calls": s["training.adam_step"]["calls"],
        "training.train.self_s": s["training.train"]["self_s"],
        "models.loss_graph.s": s["models.loss_graph"]["s"],
        "models.DataLeaves.assign.s": s["models.DataLeaves.assign"]["s"],
        "models.predict.s": s["models.predict"]["s"],
        "models.predict.calls": s["models.predict"]["calls"],
        "models.predict.rows": s["models.predict"]["size"],
        "explain.kernel_shap.eval_s": s["explain.kernel_shap/models.predict"]["s"],
        "explain.kernel_shap.eval_rows": s["explain.kernel_shap/models.predict"]["size"],
        "explain.kernel_shap.solve_s": s["explain.kernel_shap/numpy.linalg.lstsq"]["s"],
        "explain.kernel_shap.solve_calls": s["explain.kernel_shap/numpy.linalg.lstsq"]["calls"],
        "explain.kernel_shap.self_s": s["explain.kernel_shap"]["self_s"],
        "explain.exact_shapley.self_s": s["explain.exact_shapley"]["self_s"],
        "data.load_csv.s": s["data.load_csv"]["s"],
        "data.load_csv.calls": s["data.load_csv"]["calls"],
        "data.save_csv.s": s["data.save_csv"]["s"],
        "scores.extract_ranking.s": s["scores.extract_ranking"]["s"],
        "cli.main.self_s": s["cli.main"]["self_s"],
    }
