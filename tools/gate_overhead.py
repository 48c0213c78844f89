"""Measure what the score gate costs inside training: alternate gated and
vanilla fits of criterion 7's MLP in one process and print the median of the
gated over vanilla fit-time ratios.

    python3 tools/gate_overhead.py [--src DIR]

The fit is criterion 7's: ``gen_synthetic(1000, 11)`` at seed 1, split 0.8,
hidden 16, 1,000 epochs, lr 0.001, batch 128, seed 1. Each of ``REPS`` reps
times one gated and one vanilla fit with ``time.perf_counter``, the gated
first in even-numbered reps and the vanilla first in odd-numbered ones, after
one untimed fit of each. BLAS is pinned to one thread. ``--src`` imports the
package from another checkout's ``src`` directory (a parent commit's, say),
so one script times both sides. Prints one JSON line.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

REPS = 7


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from scoregate import data
    from scoregate.models import ModelConfig, build_model
    from scoregate.training import TrainConfig, train

    train_ds, test_ds = data.split(data.gen_synthetic(1000, 11, 1), 0.8, 1)

    def fit(gated: bool) -> float:
        model = build_model(ModelConfig(d_in=train_ds.d, hidden=(16,), gated=gated), 1)
        cfg = TrainConfig(epochs=1000, lr=0.001, batch_size=128, shuffle_seed=1)
        start = time.perf_counter()
        train(model, train_ds.X, train_ds.y, "classification", cfg,
              X_test=test_ds.X, y_test=test_ds.y)
        return time.perf_counter() - start

    fit(True), fit(False)  # warm-up
    times = {True: [], False: []}
    for rep in range(REPS):
        for gated in ((True, False) if rep % 2 == 0 else (False, True)):
            times[gated].append(fit(gated))
    ratios = [g / v for g, v in zip(times[True], times[False])]
    print(json.dumps({"src": args.src, "reps": REPS,
                      "gated_s_p50": round(statistics.median(times[True]), 4),
                      "vanilla_s_p50": round(statistics.median(times[False]), 4),
                      "gated_over_vanilla_p50": round(statistics.median(ratios), 3)}))


if __name__ == "__main__":
    main()
