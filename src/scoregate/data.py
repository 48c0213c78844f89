"""Seeded dataset generators, CSV ingestion, and train/test splitting.

``stream`` is the one place in the package where a seed becomes a
generator; each purpose names its stream by a tag of the one table below.
Every generator draws each column from its own PCG64 stream keyed by
(seed, column), so adding noise columns never perturbs the draws of the
columns already present. Datasets are immutable once constructed.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import stat
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

# Stream tags: each purpose a seed serves names its stream by one, so purposes
# with different tags never read the same draws. Model weights, training batch
# order and kernel-SHAP coalitions share the root stream, ``stream(seed)``.
_COL = 0
_SIGN = 1
_SHUFFLE = 2  # a label shuffle and the train/test split
_MIX = 3
_TARGET_NOISE = 4
_DUPLICATE = 5
SCORE_INIT = 6  # random-uniform score init
SHAP_ROWS = 101  # the rows a SHAP run explains

SYNTH_COEFFS = np.array([0.2, 0.3, 0.1, 0.05, 0.5])
SYNTH_THRESHOLD = 7.5


def stream(seed: int, *key: int) -> np.random.Generator:
    """The generator for ``seed`` and the purpose that ``key`` names: a tag
    above, then any indices; no key gives the root stream."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def check_finite(name: str, values: np.ndarray, axes=("row", "column")) -> None:
    """Raise a ValueError naming ``name`` and the 0-based position of its first
    NaN or infinite cell, one index per entry of ``axes``."""
    finite = np.isfinite(values)
    if not finite.all():
        where = ", ".join(f"{axis} {i}" for axis, i in zip(axes, np.argwhere(~finite)[0]))
        raise ValueError(f"{name} holds a non-finite value at {where}")


@dataclass(frozen=True)
class FeatureMeta:
    name: str
    ground_truth_importance: float | None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix, targets, and per-feature ground-truth metadata."""

    X: np.ndarray
    y: np.ndarray
    feature_meta: tuple[FeatureMeta, ...]
    task: str  # "classification" | "regression"

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError(f"X must be a non-empty 2-D matrix, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y must have shape ({X.shape[0]},), got {y.shape}")
        if len(self.feature_meta) != X.shape[1]:
            raise ValueError("feature_meta length must match the number of columns")
        if self.task not in ("classification", "regression"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.task == "classification" and not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("classification targets must be 0 or 1")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "feature_meta", tuple(self.feature_meta))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def ground_truth_importances(self) -> list[float | None]:
        return [m.ground_truth_importance for m in self.feature_meta]


def _meta(importances) -> tuple[FeatureMeta, ...]:
    return tuple(FeatureMeta(f"f{i + 1}", imp) for i, imp in enumerate(importances))


def synthetic_targets(X) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sum of the first five columns and its strict-threshold label.

    z = 0.2*x1 + 0.3*x2 + 0.1*x3 + 0.05*x4 + 0.5*x5;  y = 1 iff z > 7.5.
    """
    X = np.asarray(X, dtype=np.float64)
    z = X[:, :5] @ SYNTH_COEFFS
    return z, (z > SYNTH_THRESHOLD).astype(np.float64)


def gen_synthetic(n: int, noise_features: int, seed: int) -> Dataset:
    """Binary classification with 5 relevant columns on U[4, 10] and
    ``noise_features`` irrelevant columns on U[0, 1]."""
    if n < 1 or noise_features < 0:
        raise ValueError("need n >= 1 and noise_features >= 0")
    d = 5 + noise_features
    cols = [stream(seed, _COL, i).uniform(4.0, 10.0, size=n) if i < 5
            else stream(seed, _COL, i).uniform(0.0, 1.0, size=n)
            for i in range(d)]
    X = np.column_stack(cols)
    _, y = synthetic_targets(X)
    importances = list(SYNTH_COEFFS) + [0.0] * noise_features
    return Dataset(X, y, _meta(importances), "classification")


def friedman1_targets(X) -> np.ndarray:
    """Noise-free response 10*sin(pi*x1*x2) + 20*(x3-0.5)^2 + 10*x4 + 5*x5."""
    X = np.asarray(X, dtype=np.float64)
    return (10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
            + 20.0 * (X[:, 2] - 0.5) ** 2 + 10.0 * X[:, 3] + 5.0 * X[:, 4])


def gen_friedman1(n: int, sigma: float, seed: int) -> Dataset:
    """Ten U[0, 1] columns; only the first five enter the response.

    Relevance is marked as a binary flag (importance 1 vs 0): the sin and
    quadratic terms do not induce a meaningful scalar ordering among the
    relevant features.
    """
    if n < 1 or not 0 <= sigma < math.inf:
        raise ValueError(f"need n >= 1 and 0 <= sigma < inf, got n {n}, sigma {sigma}")
    X = np.column_stack([stream(seed, _COL, i).uniform(0.0, 1.0, size=n) for i in range(10)])
    y = friedman1_targets(X)
    if sigma > 0:
        y = y + stream(seed, _TARGET_NOISE, 0).normal(0.0, sigma, size=n)
    return Dataset(X, y, _meta([1.0] * 5 + [0.0] * 5), "regression")


def friedman2_targets(X) -> np.ndarray:
    """Noise-free response sqrt(x0^2 + (x1*x2 - 1/(x1*x3))^2)."""
    X = np.asarray(X, dtype=np.float64)
    return np.sqrt(X[:, 0] ** 2 + (X[:, 1] * X[:, 2] - 1.0 / (X[:, 1] * X[:, 3])) ** 2)


def gen_friedman2(n: int, sigma: float, seed: int) -> Dataset:
    """Four-feature regression with multiplicative interactions."""
    if n < 1 or not 0 <= sigma < math.inf:
        raise ValueError(f"need n >= 1 and 0 <= sigma < inf, got n {n}, sigma {sigma}")
    ranges = [(0.0, 100.0), (40.0 * np.pi, 560.0 * np.pi), (0.0, 1.0), (1.0, 11.0)]
    X = np.column_stack([stream(seed, _COL, i).uniform(lo, hi, size=n)
                         for i, (lo, hi) in enumerate(ranges)])
    y = friedman2_targets(X)
    if sigma > 0:
        y = y + stream(seed, _TARGET_NOISE, 0).normal(0.0, sigma, size=n)
    return Dataset(X, y, _meta([1.0] * 4), "regression")


def gen_classification(n: int, d: int, n_informative: int, n_redundant: int,
                       n_duplicate: int, seed: int) -> Dataset:
    """Balanced binary classification with informative Gaussian-cluster
    columns, random linear combinations of them, exact duplicates, and
    standard-Gaussian noise columns, in that column order.

    Each informative column separates the class means by exactly 1.0 with a
    seeded random sign.
    """
    if n < 2 or n_informative < 1:
        raise ValueError("need n >= 2 and n_informative >= 1")
    if n_redundant < 0 or n_duplicate < 0:
        raise ValueError(f"need n_redundant >= 0 and n_duplicate >= 0, "
                         f"got {n_redundant} and {n_duplicate}")
    if n_informative + n_redundant + n_duplicate > d:
        raise ValueError("n_informative + n_redundant + n_duplicate must be <= d")

    y = np.zeros(n)
    y[: n // 2] = 1.0
    stream(seed, _SHUFFLE, 0).shuffle(y)

    columns = []
    for j in range(n_informative):
        sign = 1.0 if stream(seed, _SIGN, j).random() < 0.5 else -1.0
        centers = np.where(y == 1.0, 0.5 * sign, -0.5 * sign)
        columns.append(stream(seed, _COL, j).standard_normal(n) + centers)
    informative = np.column_stack(columns)

    for j in range(n_redundant):
        mix = stream(seed, _MIX, j).uniform(-1.0, 1.0, size=n_informative)
        columns.append(informative @ mix)
    for j in range(n_duplicate):
        src = int(stream(seed, _DUPLICATE, j).integers(0, n_informative))
        columns.append(informative[:, src].copy())
    for j in range(d - len(columns)):
        columns.append(stream(seed, _COL, n_informative + n_redundant + n_duplicate + j).standard_normal(n))

    X = np.column_stack(columns)
    importances = [1.0] * n_informative + [0.0] * (d - n_informative)
    return Dataset(X, y, _meta(importances), "classification")


@contextlib.contextmanager
def overwrite(path, newline: str | None = None) -> Iterator[TextIO]:
    """A UTF-8 text stream, with ``open``'s ``newline``, that writes over the
    old bytes of ``path`` and then cuts a regular file's stale tail at the end
    of what it wrote. Every artifact the package writes goes through here.

    It opens without ``O_TRUNC``: on ext4, emptying a non-empty file costs
    70-180 us at ``open`` and 10-25 us at ``close``, more than ``rank`` itself
    takes, where writing in place and cutting the tail costs a few us. The
    tail is cut only where the old file was longer than the new text, so a
    new path costs one ``fstat`` more than ``open(path, "w")`` and an
    ``ftruncate`` is paid only by a shorter rewrite. A missing file is
    created with the mode ``open(path, "w")`` gives; a device or FIFO is
    written and never truncated. A block that raises still cuts the tail, at
    what reached the file, so a failed write leaves a prefix of the new text,
    as ``open(path, "w")`` did; neither is atomic."""
    # O_BINARY: on Windows the C runtime would translate newlines a second time
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    info = os.fstat(fd)
    old_size = info.st_size if stat.S_ISREG(info.st_mode) else 0
    with open(fd, "w", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except BaseException:
            if old_size:
                # the buffered text is not flushed here, as a flush may be what
                # failed; closing appends it after the cut, new bytes only
                with contextlib.suppress(OSError):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
            raise
        if old_size and fh.tell() < old_size:
            fh.truncate()


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through ``overwrite``, newlines translated
    as ``Path.write_text`` translates them."""
    with overwrite(path) as fh:
        fh.write(text)


def write_json(path, obj) -> None:
    """Write ``obj`` as indented, key-sorted JSON and a final newline."""
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def save_csv(ds: Dataset, path) -> None:
    """Write the dataset as UTF-8 CSV: feature columns then a final "y"."""
    with overwrite(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([m.name for m in ds.feature_meta] + ["y"])
        writer.writerows(np.column_stack([ds.X, ds.y]).tolist())


def load_csv(path) -> Dataset:
    """Read a dataset written by ``save_csv`` (or any CSV with a trailing
    "y" target column). The task is classification iff all targets are 0/1;
    ground-truth metadata is not recoverable from a CSV.

    The header goes through ``csv``, the data rows through numpy's C reader.
    A cell must be a finite number in a spelling ``float`` accepts, less
    digit-group underscores and non-ASCII digits, which numpy's reader
    rejects; a blank row, a ragged row or a bad cell is reported by its row
    (the header is row 1) and column."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:  # universal newlines: rows end in "\n"
        lines = list(fh)
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    if len(header) < 2 or header[-1] != "y":
        raise ValueError(f"{path}: expected a header ending with target column 'y'")
    body = lines[reader.line_num:]
    if not body:
        raise ValueError(f"{path}: no data rows")
    data, reason = None, "a quoted cell holds a blank line"
    if "\n" not in body:  # no blank row, which loadtxt would skip
        try:
            data = np.loadtxt(body, delimiter=",", comments=None, quotechar='"', ndmin=2,
                              dtype=np.float64)
        except ValueError as exc:
            reason = str(exc)
    if data is None or data.shape[1] != len(header) or not np.isfinite(data).all():
        raise _first_bad_row(path, header, body) or ValueError(f"{path}: {reason}")
    X, y = data[:, :-1], data[:, -1]
    task = "classification" if np.all((y == 0.0) | (y == 1.0)) else "regression"
    meta = tuple(FeatureMeta(n, None) for n in header[:-1])
    return Dataset(X, y, meta, task)


def _finite_cell(cell: str) -> bool:
    """Whether numpy's reader takes ``cell`` to a finite float: it strips
    whitespace and parses ASCII as ``float`` does, without underscores."""
    cell = cell.strip()
    if not cell.isascii() or "_" in cell:
        return False
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _first_bad_row(path, header: list[str], body: list[str]) -> ValueError | None:
    """The error naming the first data row in ``body``'s lines with the wrong
    cell count, or its first cell that is not a finite number; None if none is."""
    for line_no, row in enumerate(csv.reader(body), start=2):
        if len(row) != len(header):
            return ValueError(f"{path}: row {line_no} has {len(row)} cells, expected {len(header)}")
        for name, cell in zip(header, row):
            if not _finite_cell(cell):
                return ValueError(f"{path}: non-numeric or non-finite cell at row {line_no}, "
                                  f"column {name}")
    return None


def write_sidecar(path, generator: str, params: dict, seed: int, ds: Dataset) -> None:
    """JSON sidecar recording how a dataset was generated and its ground truth."""
    payload = {
        "generator": generator,
        "params": params,
        "seed": seed,
        "ground_truth_importance": ds.ground_truth_importances(),
    }
    write_json(path, payload)


def read_sidecar(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_ground_truth(path) -> list[float]:
    """A sidecar's ``ground_truth_importance``, one finite number per feature;
    a ValueError names the file and what is wrong with it otherwise."""
    try:
        raw = read_sidecar(path)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not a sidecar: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path} is not a sidecar: it holds a JSON {type(raw).__name__}, "
                         f"not an object")
    if "ground_truth_importance" not in raw:
        raise ValueError(f"{path} is not a sidecar: it has no ground_truth_importance key")
    values = raw["ground_truth_importance"]
    if isinstance(values, list) and any(v is None for v in values):
        raise ValueError(f"{path} carries no ground-truth importances")
    if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
        raise ValueError(f"{path} holds a ground_truth_importance that is not a list of numbers")
    check_finite(f"{path} ground_truth_importance", np.asarray(values, dtype=np.float64),
                 axes=("feature",))
    return values


def split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle-then-split; the train side gets ceil(n * fraction) rows."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    if ds.n < 2:
        raise ValueError("need at least 2 rows to split")
    n_train = math.ceil(ds.n * train_fraction)
    if n_train == 0 or n_train == ds.n:
        raise ValueError(f"degenerate split: {n_train}/{ds.n - n_train} rows")
    perm = stream(seed, _SHUFFLE, 0).permutation(ds.n)
    tr, te = perm[:n_train], perm[n_train:]
    train = Dataset(ds.X[tr], ds.y[tr], ds.feature_meta, ds.task)
    test = Dataset(ds.X[te], ds.y[te], ds.feature_meta, ds.task)
    return train, test
