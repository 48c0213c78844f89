"""The benchmark's span tracer (bench/tracer.py) wraps package functions by
name. Installing it on the package as ``bench/run.py`` does for a
``--trace 1`` run fails here when a wrapped name is renamed or moved, not
only in the traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

import scoregate
from scoregate import cli

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("tracer", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _install(tracer):
    # the owners bench/run.py's Run.trace passes
    tracing.install(tracer, scoregate, cli, scoregate.autodiff, scoregate.training,
                    scoregate.models, scoregate.data, np.linalg)


def test_install_wraps_each_name_and_restore_puts_it_back():
    tracer = tracing.Tracer()
    _install(tracer)
    try:
        patched = list(tracer._patches)
        wrapped = [getattr(owner, attr) is not original for owner, attr, original in patched]
    finally:
        tracer.restore()
    assert patched and all(wrapped)
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


def test_a_traced_fit_records_the_training_spans(tmp_path):
    csv = tmp_path / "d.csv"
    assert cli.main(["gen", "--dataset", "synth", "--n", "40", "--noise", "1", "--seed", "0",
                     "--out", str(csv)]) == 0
    tracer = tracing.Tracer()
    _install(tracer)
    try:
        assert cli.main(["train", "--data", str(csv), "--hidden", "4", "--epochs", "2",
                         "--batch-size", "8", "--lam", "0.1", "--seed", "0",
                         "--out-model", str(tmp_path / "m.json"),
                         "--out-report", str(tmp_path / "r.json")]) == 0
    finally:
        tracer.restore()
    summary = tracer.summary()
    for name in ("cli.main", "training.train", "training.adam_step", "autodiff.recompute",
                 "autodiff.backward", "autodiff.topo_order", "models.loss_graph",
                 "models.DataLeaves.assign", "models.predict", "data.load_csv"):
        assert summary[name]["calls"] > 0, name
    # the gated MLP graph with the entropy penalty: 13 nodes plus 3
    assert tracing.layer_metrics(summary)["autodiff.graph_nodes"] == 16
