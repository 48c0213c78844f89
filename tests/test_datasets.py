"""Dataset generator validation.

Targets are re-derived here from the documented formulas with plain Python
loops, and the per-column stream layout is pinned by checking that adding
noise columns (or target noise) never changes the columns already drawn.
"""

import ast
import csv
import io
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoregate import data
from scoregate.data import (
    SYNTH_COEFFS,
    Dataset,
    FeatureMeta,
    friedman1_targets,
    friedman2_targets,
    gen_classification,
    gen_friedman1,
    gen_friedman2,
    gen_synthetic,
    load_csv,
    read_sidecar,
    save_csv,
    split,
    synthetic_targets,
    write_sidecar,
)


# --- synthetic -----------------------------------------------------------------


def test_synthetic_targets_formula():
    rng = np.random.default_rng(0)
    X = rng.uniform(4.0, 10.0, size=(50, 7))
    z, y = synthetic_targets(X)
    for i in range(50):
        zi = (0.2 * X[i, 0] + 0.3 * X[i, 1] + 0.1 * X[i, 2]
              + 0.05 * X[i, 3] + 0.5 * X[i, 4])
        assert abs(z[i] - zi) < 1e-12
        assert y[i] == (1.0 if zi > 7.5 else 0.0)


def test_synthetic_threshold_is_strict():
    # 0.5 * 15 is exact in binary, so z == 7.5 exactly: strictly-greater means 0
    X = np.array([[0.0, 0.0, 0.0, 0.0, 15.0],
                  [0.0, 0.0, 0.0, 0.0, np.nextafter(15.0, 16.0)]])
    z, y = synthetic_targets(X)
    assert z[0] == 7.5 and y[0] == 0.0
    assert y[1] == 1.0


def test_gen_synthetic_shapes_ranges_and_meta():
    ds = gen_synthetic(500, 11, seed=3)
    assert ds.X.shape == (500, 16) and ds.y.shape == (500,)
    assert ds.task == "classification"
    assert np.all(ds.X[:, :5] >= 4.0) and np.all(ds.X[:, :5] <= 10.0)
    assert np.all(ds.X[:, 5:] >= 0.0) and np.all(ds.X[:, 5:] <= 1.0)
    assert [m.name for m in ds.feature_meta] == [f"f{i}" for i in range(1, 17)]
    assert ds.ground_truth_importances() == list(SYNTH_COEFFS) + [0.0] * 11
    # labels come from the published formula
    _, y = synthetic_targets(ds.X)
    np.testing.assert_array_equal(ds.y, y)
    assert 0 < ds.y.sum() < 500  # both classes present


def test_gen_synthetic_noise_columns_do_not_disturb_relevant_draws():
    base = gen_synthetic(200, 0, seed=9)
    wide = gen_synthetic(200, 11, seed=9)
    np.testing.assert_array_equal(base.X, wide.X[:, :5])
    np.testing.assert_array_equal(base.y, wide.y)


def test_gen_synthetic_seeding():
    a = gen_synthetic(100, 3, seed=1)
    b = gen_synthetic(100, 3, seed=1)
    c = gen_synthetic(100, 3, seed=2)
    np.testing.assert_array_equal(a.X, b.X)
    assert not np.array_equal(a.X, c.X)


def test_gen_synthetic_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_synthetic(0, 3, seed=1)
    with pytest.raises(ValueError):
        gen_synthetic(10, -1, seed=1)


def test_dataset_arrays_are_read_only():
    ds = gen_synthetic(10, 2, seed=0)
    with pytest.raises(ValueError):
        ds.X[0, 0] = 99.0
    with pytest.raises(ValueError):
        ds.y[0] = 1.0


# --- friedman ---------------------------------------------------------------------


def test_friedman1_formula_and_meta():
    ds = gen_friedman1(80, sigma=0.0, seed=5)
    assert ds.X.shape == (80, 10) and ds.task == "regression"
    assert np.all(ds.X >= 0.0) and np.all(ds.X <= 1.0)
    for i in range(80):
        x = ds.X[i]
        yi = (10.0 * math.sin(math.pi * x[0] * x[1])
              + 20.0 * (x[2] - 0.5) ** 2 + 10.0 * x[3] + 5.0 * x[4])
        assert abs(ds.y[i] - yi) < 1e-12
    assert ds.ground_truth_importances() == [1.0] * 5 + [0.0] * 5


def test_friedman1_noise_leaves_features_alone():
    clean = gen_friedman1(60, sigma=0.0, seed=2)
    noisy = gen_friedman1(60, sigma=1.5, seed=2)
    np.testing.assert_array_equal(clean.X, noisy.X)
    assert not np.array_equal(clean.y, noisy.y)
    resid = noisy.y - friedman1_targets(noisy.X)
    assert 0.5 < resid.std() < 3.0  # noise scale is in the right ballpark


def test_friedman2_formula_and_ranges():
    ds = gen_friedman2(70, sigma=0.0, seed=4)
    assert ds.X.shape == (70, 4) and ds.task == "regression"
    lo = [0.0, 40.0 * math.pi, 0.0, 1.0]
    hi = [100.0, 560.0 * math.pi, 1.0, 11.0]
    for j in range(4):
        assert np.all(ds.X[:, j] >= lo[j]) and np.all(ds.X[:, j] <= hi[j])
    for i in range(70):
        x = ds.X[i]
        yi = math.sqrt(x[0] ** 2 + (x[1] * x[2] - 1.0 / (x[1] * x[3])) ** 2)
        assert abs(ds.y[i] - yi) < 1e-9
    np.testing.assert_array_equal(ds.y, friedman2_targets(ds.X))
    assert ds.ground_truth_importances() == [1.0] * 4


def test_friedman_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_friedman1(0, 0.0, seed=1)
    with pytest.raises(ValueError):
        gen_friedman1(10, -0.1, seed=1)
    with pytest.raises(ValueError):
        gen_friedman2(10, -1.0, seed=1)


@pytest.mark.parametrize("sigma", [math.inf, math.nan, -math.inf])
@pytest.mark.parametrize("generate", [gen_friedman1, gen_friedman2])
def test_friedman_rejects_a_sigma_that_is_not_a_finite_scale(generate, sigma):
    # inf wrote an all-inf target column; nan added no noise and put NaN in the sidecar
    with pytest.raises(ValueError, match=f"0 <= sigma < inf, got n 10, sigma {sigma}"):
        generate(10, sigma, seed=1)


# --- gaussian classification --------------------------------------------------------


def test_gen_classification_structure():
    ds = gen_classification(2000, d=10, n_informative=3, n_redundant=2,
                            n_duplicate=2, seed=7)
    assert ds.X.shape == (2000, 10) and ds.task == "classification"
    assert ds.y.sum() == 1000  # exactly balanced

    informative = ds.X[:, :3]
    # class means separated by 1.0 (up to sampling error) on informative columns
    for j in range(3):
        gap = informative[ds.y == 1.0, j].mean() - informative[ds.y == 0.0, j].mean()
        assert abs(abs(gap) - 1.0) < 0.2

    # redundant columns live exactly in the informative span
    for j in (3, 4):
        coef, resid, *_ = np.linalg.lstsq(informative, ds.X[:, j], rcond=None)
        assert float(resid[0]) < 1e-16 if resid.size else True
        np.testing.assert_allclose(informative @ coef, ds.X[:, j], atol=1e-9)

    # duplicates are bit-copies of some informative column
    for j in (5, 6):
        assert any(np.array_equal(ds.X[:, j], informative[:, k]) for k in range(3))

    # remaining columns are standard-gaussian noise, uncorrelated with y
    for j in (7, 8, 9):
        col = ds.X[:, j]
        assert abs(col.mean()) < 0.1 and abs(col.std() - 1.0) < 0.1
        assert abs(np.corrcoef(col, ds.y)[0, 1]) < 0.08

    assert ds.ground_truth_importances() == [1.0] * 3 + [0.0] * 7


def test_gen_classification_deterministic():
    a = gen_classification(100, 6, 2, 1, 1, seed=11)
    b = gen_classification(100, 6, 2, 1, 1, seed=11)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)


def test_gen_classification_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_classification(1, 4, 1, 0, 0, seed=0)
    with pytest.raises(ValueError):
        gen_classification(10, 4, 0, 0, 0, seed=0)
    with pytest.raises(ValueError):
        gen_classification(10, 4, 3, 1, 1, seed=0)  # 5 structured cols > d


@pytest.mark.parametrize("redundant, duplicate", [(-1, 0), (0, -1), (-2, 1)])
def test_gen_classification_rejects_a_negative_column_count(redundant, duplicate):
    # a negative count moved the noise columns' stream index back onto an
    # informative column's: f4 read f3's stream and the sidecar called it noise
    with pytest.raises(ValueError, match=f"need n_redundant >= 0 and n_duplicate >= 0, "
                                         f"got {redundant} and {duplicate}"):
        gen_classification(400, 8, 3, redundant, duplicate, seed=0)


# --- csv and sidecar ---------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    ds = gen_friedman2(40, sigma=0.5, seed=6)
    path = tmp_path / "fr2.csv"
    save_csv(ds, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.X, ds.X)  # str() round-trips float64
    np.testing.assert_array_equal(back.y, ds.y)
    assert back.task == "regression"
    assert [m.name for m in back.feature_meta] == [m.name for m in ds.feature_meta]
    assert back.ground_truth_importances() == [None] * 4


def test_csv_task_inference(tmp_path):
    ds = gen_synthetic(30, 1, seed=2)
    path = tmp_path / "synth.csv"
    save_csv(ds, path)
    assert load_csv(path).task == "classification"


def test_load_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        load_csv(p)
    p.write_text("a,b,target\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="'y'"):
        load_csv(p)
    p.write_text("a,y\n1,2\n3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(p)
    p.write_text("a,y\n1,oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv(p)
    for cell in ("nan", "inf"):
        p.write_text(f"a,y\n1,0\n{cell},1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-finite cell at row 3, column a"):
            load_csv(p)
    p.write_text("a,y\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(p)
    p.write_text("a,y\n1,0\n\n2,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="row 3 has 0 cells, expected 2"):
        load_csv(p)
    p.write_text("a,y\r\n1,0\r\n2,1\r\n\r\n", encoding="utf-8")
    with pytest.raises(ValueError, match="row 4 has 0 cells, expected 2"):
        load_csv(p)
    p.write_text("a,y\n1,0,5\n2,1,6\n", encoding="utf-8")  # even, but one cell too many
    with pytest.raises(ValueError, match="row 2 has 3 cells, expected 2"):
        load_csv(p)
    p.write_text("a,y\n1,0\n  \n", encoding="utf-8")
    with pytest.raises(ValueError, match="row 3 has 1 cells, expected 2"):
        load_csv(p)
    # float() takes digit-group underscores and non-ASCII digits; the reader does not
    for cell in ("1_000", "\u0661"):
        assert math.isfinite(float(cell))
        p.write_text(f"a,b,y\n1,2,0\n3,{cell},1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-numeric or non-finite cell at row 3, column b"):
            load_csv(p)
    p.write_text("a,y\n1,1e999\n", encoding="utf-8")  # overflows to inf
    with pytest.raises(ValueError, match="non-finite cell at row 2, column y"):
        load_csv(p)


# ±0, the smallest subnormal, the largest subnormal and ±max
_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, np.nextafter(2.2250738585072014e-308, 0.0),
             1.7976931348623157e308, -1.7976931348623157e308]


@given(st.integers(1, 4), st.integers(1, 6),
       st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EXTREMES),
                min_size=30, max_size=30))
@settings(max_examples=60, deadline=None)
def test_csv_round_trip_is_bit_exact(tmp_path_factory, d, n, values):
    cells = np.resize(np.array(values), n * (d + 1)).reshape(n, d + 1)
    meta = tuple(FeatureMeta(f"f{j + 1}", None) for j in range(d))
    ds = Dataset(cells[:, :d], cells[:, d], meta, "regression")
    path = tmp_path_factory.mktemp("round_trip") / "ds.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back.X.tobytes() == ds.X.tobytes()  # ±0 and subnormals included
    assert back.y.tobytes() == ds.y.tobytes()


def _reference_rows(text: str) -> np.ndarray:
    """Data rows parsed cell by cell with ``float``, as load_csv once did."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return np.array([[float(cell) for cell in row] for row in rows])


def test_load_csv_matches_a_per_cell_parser(tmp_path):
    text = ('a,b,c,y\r\n'
            '"1.5", 2 ,+1,0\r\n'
            '.5,5.,1E3,1\r\n'
            ' -0 ,"  -2.5e-3 ",1e-320,0\r\n'
            '"+.25",  7\t,"9",1\r\n')
    p = tmp_path / "spellings.csv"
    p.write_bytes(text.encode("utf-8"))
    ds = load_csv(p)
    expected = _reference_rows(text)
    assert ds.X.tobytes() == np.ascontiguousarray(expected[:, :-1]).tobytes()
    assert ds.y.tobytes() == np.ascontiguousarray(expected[:, -1]).tobytes()
    assert ds.task == "classification"


def test_sidecar_round_trip(tmp_path):
    ds = gen_synthetic(20, 2, seed=5)
    path = tmp_path / "synth.meta.json"
    write_sidecar(path, "synthetic", {"n": 20, "noise_features": 2}, 5, ds)
    meta = read_sidecar(path)
    assert meta["generator"] == "synthetic"
    assert meta["params"] == {"n": 20, "noise_features": 2}
    assert meta["seed"] == 5
    assert meta["ground_truth_importance"] == list(SYNTH_COEFFS) + [0.0, 0.0]


# --- writing artifacts -----------------------------------------------------------------


def test_a_shorter_rewrite_leaves_no_stale_tail(tmp_path):
    path, fresh = tmp_path / "out.json", tmp_path / "fresh.json"
    data.write_text(path, "a longer first text\n" * 50)
    data.write_json(path, {"b": 1})
    fresh.write_text(json.dumps({"b": 1}, indent=2) + "\n", encoding="utf-8")
    assert path.read_bytes() == fresh.read_bytes()


def test_a_rewrite_as_long_or_longer_is_the_new_text(tmp_path):
    # no tail is left to cut, so none is cut
    path = tmp_path / "out.txt"
    for text in ("0123456789\n", "abcdefghij\n", "a longer text than before\n"):
        data.write_text(path, text)
        assert path.read_text(encoding="utf-8") == text


def test_a_missing_file_gets_the_mode_open_gives(tmp_path):
    with open(tmp_path / "by_open", "w", encoding="utf-8"):
        pass
    data.write_text(tmp_path / "by_writer", "x\n")
    modes = {name: stat.S_IMODE((tmp_path / name).stat().st_mode)
             for name in ("by_open", "by_writer")}
    assert modes["by_writer"] == modes["by_open"]


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
def test_writing_through_a_symlink_updates_its_target(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old text, longer than the new\n", encoding="utf-8")
    link.symlink_to(target)
    data.write_text(link, "new\n")
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == "new\n"


def test_writing_to_the_null_device_succeeds():
    # a device is written, never truncated
    data.write_text(os.devnull, "discarded\n")
    with data.overwrite(os.devnull, newline="") as fh:
        csv.writer(fh).writerow(["a", "b"])


def test_a_failed_write_leaves_a_prefix_of_the_new_text(tmp_path):
    # a block that raises still cuts the old tail, as an O_TRUNC open left none
    path = tmp_path / "out.txt"
    path.write_text("0123456789\n", encoding="utf-8")
    with pytest.raises(RuntimeError), data.overwrite(path) as fh:
        fh.write("ab")
        raise RuntimeError
    assert path.read_text(encoding="utf-8") == "ab"


def test_a_failed_write_past_the_buffer_keeps_no_old_byte(tmp_path):
    # text already flushed stays, the old bytes past it go
    path = tmp_path / "out.txt"
    path.write_text("x" * 100_000, encoding="utf-8")
    with pytest.raises(RuntimeError), data.overwrite(path) as fh:
        fh.write("y" * 30_000)
        fh.flush()
        fh.write("z")
        raise RuntimeError
    assert path.read_text(encoding="utf-8") == "y" * 30_000 + "z"


def _write_call(call: ast.Call) -> str | None:
    """How ``call`` can open a file for writing, or None if it cannot."""
    func = call.func
    if isinstance(func, ast.Name):
        name, owner = func.id, None
    elif isinstance(func, ast.Attribute):
        name = func.attr
        owner = func.value.id if isinstance(func.value, ast.Name) else "<expr>"
    else:
        return None
    if name == "open" and owner == "os":
        return "os.open"
    if name == "open":
        # builtin open(file, mode) or Path.open(mode); a mode keyword not
        # written out as a constant counts as writing
        mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
        if mode is not None and not isinstance(mode, ast.Constant):
            return "open"
        texts = [m.value for m in [*call.args[:2], mode] if isinstance(m, ast.Constant)]
        if any(isinstance(t, str) and t and set(t) <= set("rwaxbt+") and set(t) & set("wax+")
               for t in texts):
            return "open"
        return None
    if name in ("write_text", "write_bytes") and owner is not None and owner != "data":
        return name
    if name == "tofile" or owner == "np" and name.startswith("save"):
        return name
    return None


def test_only_the_one_writer_opens_a_file_for_writing():
    # every module writes its artifacts through data.overwrite, or through
    # data.write_text / data.write_json on top of it
    found = {}
    for name, source in _module_sources().items():
        tree = ast.parse(source)
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            what = _write_call(call)
            if what:
                inside = [d for d in defs if d.lineno <= call.lineno <= d.end_lineno]
                where = max(inside, key=lambda d: d.lineno).name if inside else "<module>"
                found.setdefault(name, set()).add((where, what))
    assert found == {"data.py": {("overwrite", "os.open"), ("overwrite", "open")}}


# --- splitting -----------------------------------------------------------------------


def test_split_sizes_and_partition():
    ds = gen_friedman1(103, sigma=0.0, seed=1)
    train, test = split(ds, 0.8, seed=4)
    assert train.n == math.ceil(103 * 0.8) == 83
    assert test.n == 20
    # rows form a partition of the original (continuous draws, so rows are unique)
    def sorted_rows(X):
        return X[np.lexsort(X.T[::-1])]
    np.testing.assert_array_equal(
        sorted_rows(np.vstack([train.X, test.X])), sorted_rows(np.asarray(ds.X)))
    assert train.task == ds.task and test.feature_meta == ds.feature_meta


def test_split_deterministic_and_seed_sensitive():
    ds = gen_synthetic(60, 2, seed=0)
    a1, _ = split(ds, 0.5, seed=3)
    a2, _ = split(ds, 0.5, seed=3)
    b1, _ = split(ds, 0.5, seed=4)
    np.testing.assert_array_equal(a1.X, a2.X)
    assert not np.array_equal(a1.X, b1.X)


def test_split_rejects_bad_args():
    ds = gen_synthetic(10, 0, seed=0)
    with pytest.raises(ValueError):
        split(ds, 0.0, seed=1)
    with pytest.raises(ValueError):
        split(ds, 1.0, seed=1)
    with pytest.raises(ValueError):
        split(ds, 0.99, seed=1)  # ceil(9.9) == 10 leaves an empty test side


# --- dataset invariants ----------------------------------------------------------------


def test_dataset_validation():
    meta = (FeatureMeta("f1", None),)
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 1)), np.ones(2), meta, "regression")
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 1)), np.ones(3), meta * 2, "regression")
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 1)), np.ones(3), meta, "ranking")
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 1)), np.full(3, 0.5), meta, "classification")
    with pytest.raises(ValueError):
        Dataset(np.ones(3), np.ones(3), meta, "regression")


# --- seeded streams ----------------------------------------------------------------------


def _module_sources() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8")
            for p in Path(data.__file__).parent.glob("*.py")}


def test_only_data_turns_a_seed_into_a_generator():
    # every other module names its stream by a tag and calls data.stream
    constructors = {"SeedSequence", "default_rng"}
    calls = {name: sorted({node.func.attr for node in ast.walk(ast.parse(source))
                           if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                           and node.func.attr in constructors})
             for name, source in _module_sources().items()}
    assert {name: found for name, found in calls.items() if found} == \
        {"data.py": ["SeedSequence", "default_rng"]}


def test_stream_tags_are_distinct():
    # the tag table: data.py's module-level integer constants
    tags = {node.targets[0].id: node.value.value
            for node in ast.parse(_module_sources()["data.py"]).body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            and type(node.value.value) is int}
    assert {"_COL", "_SHUFFLE", "SCORE_INIT", "SHAP_ROWS"} <= tags.keys()
    assert len(set(tags.values())) == len(tags), tags


def test_stream_without_a_tag_is_the_root_stream():
    # model weights, batch order and SHAP coalitions read it; pinning it keeps their bits
    np.testing.assert_array_equal(data.stream(9).random(4),
                                  np.random.default_rng(np.random.SeedSequence(9)).random(4))
    assert data.stream(9, data.SCORE_INIT).random() != data.stream(9).random()
