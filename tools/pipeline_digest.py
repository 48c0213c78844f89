"""Print one sha256 per artifact of a small fixed-seed CLI pipeline, so two
checkouts can be shown to write the same bytes.

    python3 tools/pipeline_digest.py [--src DIR]

The pipeline (``PIPELINE``) generates a synth and a friedman1 dataset; fits
gated, penalized (``--lam``, ``--init gt``), vanilla, attention and friedman1
models; ranks three of them and fails to rank the vanilla one (its error
message is an artifact too); explains the gated and attention models with
SHAP, compares, runs MLP and attention ``stability``, and exports a plot CSV.
It runs in one process, in a temporary directory, with relative paths, so no
artifact names where it ran. Before hashing, every JSON artifact loses its
``*_ms`` keys and its manifest ``cwd`` (each key with its value and what
follows it up to the next key), the only fields that differ between two equal
runs; every other byte is hashed as written. Each model file also gets a
``<stem>.params`` line: the name and float64 bytes of every parameter that
``Model.load`` decodes from it, in name order, so a change of the file's
layout can be shown to move no number. BLAS is pinned to one thread.
``--src`` imports the package, ``Model.load`` included, from another
checkout's ``src`` directory (a parent commit's, say). ``diff`` of the output
for two checkouts is empty when their artifacts are byte-identical.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

_FIT = ["--hidden", "8", "--epochs", "30", "--lr", "0.01", "--batch-size", "32"]
_SHAP = ["--samples", "20", "--coalitions", "256"]
_STABILITY = ["--epochs", "10", "--lr", "0.01", "--batch-size", "0", "--n-runs", "2",
              "--samples", "10", "--coalitions", "64", "--base-seed", "3"]

# (argv, exit code); a failing step's stderr is kept as the artifact <name>.stderr
PIPELINE = [
    (["gen", "--dataset", "synth", "--n", "300", "--noise", "3", "--seed", "1",
      "--out", "synth.csv"], 0),
    (["gen", "--dataset", "friedman1", "--n", "200", "--sigma", "0.5", "--seed", "2",
      "--out", "f1.csv"], 0),
    (["train", "--data", "synth.csv", *_FIT, "--record-every", "10", "--seed", "1",
      "--out-model", "gated.json", "--out-report", "gated-report.json"], 0),
    (["train", "--data", "synth.csv", *_FIT, "--lam", "0.1", "--init", "gt",
      "--init-values", "synth.sidecar.json", "--seed", "2",
      "--out-model", "lam.json", "--out-report", "lam-report.json"], 0),
    (["train", "--data", "synth.csv", *_FIT, "--model", "vanilla", "--seed", "1",
      "--out-model", "vanilla.json", "--out-report", "vanilla-report.json"], 0),
    (["train", "--data", "synth.csv", "--backbone", "attention", "--model-dim", "8",
      "--ffn-dim", "12", "--epochs", "5", "--batch-size", "64", "--init", "random",
      "--seed", "1", "--out-model", "att.json", "--out-report", "att-report.json"], 0),
    (["train", "--data", "f1.csv", *_FIT, "--seed", "2",
      "--out-model", "f1-model.json", "--out-report", "f1-report.json"], 0),
    (["rank", "--model", "gated.json", "--out", "rank.json"], 0),
    (["rank", "--model", "att.json", "--out", "rank-att.json"], 0),
    (["rank", "--model", "f1-model.json", "--out", "rank-f1.json"], 0),
    (["rank", "--model", "vanilla.json", "--out", "rank-vanilla.json"], 1),
    (["shap", "--model", "gated.json", "--data", "synth.csv", *_SHAP, "--seed", "1",
      "--out", "shap.json"], 0),
    (["shap", "--model", "att.json", "--data", "synth.csv", *_SHAP, "--seed", "1",
      "--out", "shap-att.json"], 0),
    (["compare", "--rankings", "rank.json", "shap.json", "--sidecar", "synth.sidecar.json",
      "--out", "compare.json"], 0),
    (["stability", "--data", "synth.csv", "--hidden", "4", *_STABILITY,
      "--out", "stability.json"], 0),
    (["stability", "--data", "synth.csv", "--backbone", "attention", *_STABILITY,
      "--out", "stability-att.json"], 0),
    (["plot", "--report", "gated-report.json", "--out", "trajectory.csv"], 0),
]


# a "*_ms" or "cwd" key, its number or string value, its comma and the space after
_VOLATILE = re.compile(rb'"(?:[^"\\]*_ms|cwd)": (?:"(?:[^"\\]|\\.)*"|[^,}\s]+),?\s*')


def artifacts(main, load, workdir: Path) -> dict[str, bytes]:
    """Run ``PIPELINE`` through the CLI's ``main`` in ``workdir``; every file
    it leaves there and every failing step's stderr, by name, the JSON ones
    stripped of ``*_ms`` and ``cwd``, and each model's parameters as ``load``
    decodes them."""
    out, caller = {}, os.getcwd()
    os.chdir(workdir)
    try:
        for argv, code in PIPELINE:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                got = main(argv)
            if got != code:
                raise RuntimeError(f"{' '.join(argv)} exited {got}, not {code}: {err.getvalue()}")
            if code:
                out[Path(argv[argv.index("--out") + 1]).stem + ".stderr"] = err.getvalue().encode()
            if "--out-model" in argv:
                model_path = argv[argv.index("--out-model") + 1]
                params = load(model_path).params
                out[Path(model_path).stem + ".params"] = b"".join(
                    name.encode() + np.asarray(params[name], dtype=np.float64).tobytes()
                    for name in sorted(params))
    finally:
        os.chdir(caller)
    for path in sorted(workdir.iterdir()):
        blob = path.read_bytes()
        out[path.name] = _VOLATILE.sub(b"", blob) if path.suffix == ".json" else blob
    return dict(sorted(out.items()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    os.environ.pop("SCOREGATE_SEED", None)
    from scoregate.cli import main as cli_main
    from scoregate.models import Model

    with tempfile.TemporaryDirectory(prefix="pipeline-digest-") as tmp:
        for name, blob in artifacts(cli_main, Model.load, Path(tmp)).items():
            print(f"{hashlib.sha256(blob).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
