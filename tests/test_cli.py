"""End-to-end CLI checks: every command drives the real pipeline in a temp
directory through ``main(argv)``, artifacts are re-read and cross-checked
against the library, and replay must reproduce outputs byte-for-byte.
"""

import argparse
import ast
import inspect
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scoregate
from scoregate import cli, data
from scoregate.cli import main
from scoregate.explain import Ranking
from scoregate.models import Model


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One generated dataset and one trained scores model shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "csv": root / "synth.csv",
        "sidecar": root / "synth.sidecar.json",
        "model": root / "model.json",
        "report": root / "report.json",
    }
    assert main(["gen", "--dataset", "synth", "--n", "60", "--noise", "2",
                 "--seed", "1", "--out", str(paths["csv"])]) == 0
    assert main(["train", "--data", str(paths["csv"]), "--model", "scores",
                 "--hidden", "4", "--epochs", "6", "--batch-size", "0",
                 "--record-every", "2", "--seed", "1",
                 "--out-model", str(paths["model"]),
                 "--out-report", str(paths["report"])]) == 0
    return paths


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# --- gen ------------------------------------------------------------------------


def test_gen_writes_csv_sidecar_manifest(workdir):
    ds = data.load_csv(workdir["csv"])
    assert ds.n == 60 and ds.d == 7 and ds.task == "classification"
    sidecar = read_json(workdir["sidecar"])
    assert sidecar["seed"] == 1
    assert sidecar["ground_truth_importance"] == [0.2, 0.3, 0.1, 0.05, 0.5, 0.0, 0.0]
    manifest = read_json(workdir["csv"].with_suffix(".manifest.json"))
    assert manifest["command"] == "gen"
    assert str(workdir["csv"]) in manifest["outputs"]
    assert manifest["argv"][0] == "gen"
    # the CSV matches an in-library generation under the same seed
    direct = data.gen_synthetic(60, 2, seed=1)
    np.testing.assert_array_equal(ds.X, direct.X)


def test_gen_over_a_longer_csv_writes_the_bytes_of_a_fresh_gen(tmp_path):
    # the artifacts are written over the old bytes, then cut to length
    old, fresh = tmp_path / "old", tmp_path / "fresh"
    old.mkdir(), fresh.mkdir()
    argv = ["gen", "--dataset", "synth", "--noise", "1", "--seed", "4"]
    assert main([*argv, "--n", "2000", "--out", str(old / "ds.csv")]) == 0
    long_size = (old / "ds.csv").stat().st_size
    assert main([*argv, "--n", "25", "--out", str(old / "ds.csv")]) == 0
    assert main([*argv, "--n", "25", "--out", str(fresh / "ds.csv")]) == 0
    for name in ("ds.csv", "ds.sidecar.json"):
        assert (old / name).read_bytes() == (fresh / name).read_bytes()
    assert (old / "ds.csv").stat().st_size < long_size
    # "2000" shrank to "25": a stale tail would leave the manifest unparseable
    assert read_json(old / "ds.manifest.json")["resolved_params"]["n"] == 25


def test_gen_other_generators(tmp_path):
    out = tmp_path / "f1.csv"
    assert main(["gen", "--dataset", "friedman1", "--n", "30", "--sigma", "0.5",
                 "--seed", "2", "--out", str(out)]) == 0
    assert data.load_csv(out).d == 10
    out2 = tmp_path / "clf.csv"
    assert main(["gen", "--dataset", "clf", "--n", "40", "--d", "6",
                 "--informative", "2", "--redundant", "1", "--duplicates", "1",
                 "--seed", "3", "--out", str(out2)]) == 0
    ds = data.load_csv(out2)
    assert ds.d == 6 and set(np.unique(ds.y)) == {0.0, 1.0}


@pytest.mark.parametrize("dataset, flags, params", [
    ("synth", ["--n", "30", "--noise", "3"], {"n": 30, "noise": 3}),
    ("friedman1", ["--n", "30", "--sigma", "0.5"], {"n": 30, "sigma": 0.5}),
    ("friedman2", ["--n", "30", "--sigma", "0.25"], {"n": 30, "sigma": 0.25}),
    ("clf", ["--n", "40", "--d", "6", "--informative", "2", "--redundant", "1",
             "--duplicates", "1"],
     {"n": 40, "d": 6, "informative": 2, "redundant": 1, "duplicates": 1}),
], ids=["synth", "friedman1", "friedman2", "clf"])
def test_gen_sidecar_params(dataset, flags, params, tmp_path):
    out = tmp_path / "ds.csv"
    assert main(["gen", "--dataset", dataset, *flags, "--seed", "2", "--out", str(out)]) == 0
    sidecar = read_json(out.with_suffix(".sidecar.json"))
    assert sidecar["generator"] == dataset
    assert sidecar["params"] == params


def test_gen_rejects_a_flag_its_generator_does_not_take(tmp_path, capsys):
    out = tmp_path / "f1.csv"
    assert main(["gen", "--dataset", "friedman1", "--n", "30", "--noise", "99", "--d", "3",
                 "--seed", "1", "--out", str(out)]) == 1
    assert "--dataset friedman1 does not take --d, --noise" in capsys.readouterr().err
    assert not out.exists()
    # a flag left at its default passes, as in every recorded manifest's argv
    assert main(["gen", "--dataset", "friedman1", "--n", "30", "--noise", "5", "--d", "10",
                 "--seed", "1", "--out", str(out)]) == 0
    manifest = read_json(out.with_suffix(".manifest.json"))
    assert "--noise" in manifest["argv"] and "--informative" in manifest["argv"]
    first = out.read_bytes()
    assert main(["replay", "--manifest", str(out.with_suffix(".manifest.json"))]) == 0
    assert out.read_bytes() == first


def test_gen_bad_args_exit_one(tmp_path):
    assert main(["gen", "--dataset", "synth", "--n", "0",
                 "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("flags, reason", [
    (["--dataset", "clf", "--n", "400", "--d", "8", "--informative", "3", "--redundant", "-1"],
     "need n_redundant >= 0 and n_duplicate >= 0, got -1 and 0"),
    (["--dataset", "clf", "--n", "400", "--d", "8", "--informative", "3", "--duplicates", "-1"],
     "need n_redundant >= 0 and n_duplicate >= 0, got 0 and -1"),
    (["--dataset", "friedman1", "--sigma", "inf"], "0 <= sigma < inf, got n 1000, sigma inf"),
    (["--dataset", "friedman2", "--sigma", "nan"], "0 <= sigma < inf, got n 1000, sigma nan"),
], ids=["redundant", "duplicates", "sigma-inf", "sigma-nan"])
def test_gen_names_a_count_or_sigma_that_would_write_a_wrong_dataset(flags, reason, tmp_path,
                                                                     capsys):
    out = tmp_path / "x.csv"
    assert main(["gen", *flags, "--seed", "0", "--out", str(out)]) == 1
    assert reason in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".sidecar.json").exists()


# --- train ----------------------------------------------------------------------


def test_train_artifacts(workdir):
    model = Model.load(workdir["model"])
    assert model.config.gated and model.config.hidden == (4,)
    report = read_json(workdir["report"])
    assert report["config"]["epochs"] == 6
    assert len(report["curve"]) == 6
    assert [t["epoch"] for t in report["scores_trajectory"]] == [0, 2, 4, 6]
    assert report["model_kind"] == "scores"
    assert "wall_time_ms" not in report
    assert report["final_test_accuracy"] is not None
    manifest = read_json(workdir["model"].with_suffix(".manifest.json"))
    assert manifest["seeds"] == {"seed": 1, "split_seed": 1}
    assert manifest["resolved_params"]["batch_size"] == 0


def test_train_vanilla_and_gt_init(workdir, tmp_path):
    out_m, out_r = tmp_path / "vanilla.json", tmp_path / "vreport.json"
    assert main(["train", "--data", str(workdir["csv"]), "--model", "vanilla",
                 "--hidden", "3", "--epochs", "2", "--batch-size", "0", "--seed", "0",
                 "--out-model", str(out_m), "--out-report", str(out_r)]) == 0
    assert Model.load(out_m).scores is None
    assert read_json(out_r)["scores_trajectory"] == []

    gt_m, gt_r = tmp_path / "gt.json", tmp_path / "gtreport.json"
    assert main(["train", "--data", str(workdir["csv"]), "--model", "scores",
                 "--hidden", "3", "--epochs", "1", "--batch-size", "0", "--seed", "0",
                 "--init", "gt", "--init-values", str(workdir["sidecar"]),
                 "--out-model", str(gt_m), "--out-report", str(gt_r)]) == 0
    report = read_json(gt_r)
    start = report["scores_trajectory"][0]
    assert start["scores"] == [0.2, 0.3, 0.1, 0.05, 0.5, 0.0, 0.0]
    stored = Model(Model.load(gt_m).config, {"scores": np.array([start["scores"]])})
    assert start["weights"] == stored.gate_weights().tolist()


def test_train_usage_failures(workdir, tmp_path):
    out_m, out_r = str(tmp_path / "m.json"), str(tmp_path / "r.json")
    base = ["train", "--data", str(workdir["csv"]), "--epochs", "1",
            "--out-model", out_m, "--out-report", out_r]
    assert main(base + ["--init", "gt"]) == 1  # no --init-values
    assert main(base + ["--hidden", "4,oops"]) == 1
    assert main(["train", "--data", str(tmp_path / "missing.csv"), "--epochs", "1",
                 "--out-model", out_m, "--out-report", out_r]) == 1


@pytest.mark.parametrize("flags, message", [
    (["--model", "vanilla", "--lam", "5"], "an ungated model has no gate"),
    (["--init-values", "{sidecar}"], "--init-values is read only with --init gt, not --init zero"),
    (["--init", "random", "--init-values", "{sidecar}"], "not --init random"),
    (["--lr", "-1"], "lr must be finite and > 0, got -1.0"),
    (["--lr", "nan"], "lr must be finite and > 0, got nan"),
    (["--lam", "inf"], "penalty_lam must be >= 0 and finite, got inf"),
    (["--backbone", "attention", "--hidden", "9"], "--backbone attention does not take --hidden"),
    (["--model-dim", "5"], "--backbone mlp does not take --model-dim"),
    (["--ffn-dim", "7", "--model-dim", "5"], "--backbone mlp does not take --ffn-dim, --model-dim"),
    (["--model", "vanilla", "--init", "random"], "--model vanilla does not take --init\n"),
    (["--model", "vanilla", "--init", "gt", "--init-values", "{sidecar}"],
     "--model vanilla does not take --init, --init-values"),
], ids=["lam-on-vanilla", "init-values-alone", "init-values-with-random",
        "negative-lr", "nan-lr", "inf-lam", "hidden-on-attention", "model-dim-on-mlp",
        "ffn-dim-on-mlp", "init-on-vanilla", "init-gt-on-vanilla"])
def test_train_rejects_an_option_it_would_ignore(flags, message, workdir, tmp_path,
                                                 monkeypatch, capsys):
    def no_graph(*args, **kwargs):
        raise AssertionError("the forward graph was built")

    monkeypatch.setattr(Model, "_forward", no_graph)
    out_m = tmp_path / "m.json"
    assert main(["train", "--data", str(workdir["csv"]), "--epochs", "1",
                 *[f.format(sidecar=workdir["sidecar"]) for f in flags],
                 "--out-model", str(out_m), "--out-report", str(tmp_path / "r.json")]) == 1
    assert message in capsys.readouterr().err
    assert not out_m.exists()


def test_train_replays_an_attention_manifest(workdir, tmp_path):
    # the manifest records --hidden at its default, which attention then accepts
    out_m = tmp_path / "att.json"
    assert main(["train", "--data", str(workdir["csv"]), "--backbone", "attention",
                 "--model-dim", "4", "--ffn-dim", "4", "--epochs", "1", "--seed", "0",
                 "--out-model", str(out_m), "--out-report", str(tmp_path / "r.json")]) == 0
    manifest = out_m.with_suffix(".manifest.json")
    assert "--hidden" in read_json(manifest)["argv"]
    first = out_m.read_bytes()
    assert main(["replay", "--manifest", str(manifest)]) == 0
    assert out_m.read_bytes() == first


def _train_options() -> list[str]:
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[-1] for a in sub.choices["train"]._actions if a.dest != "help"]


# For every train option: the options it needs to take effect, then a value
# that differs from the one the default run (or that context) gives it. The
# last occurrence of an option wins, so a context may set the option itself.
TRAIN_OPTION_CHANGES = {
    "--data": ([], "{other_csv}"),
    "--model": ([], "vanilla"),
    "--backbone": ([], "attention"),
    "--hidden": ([], "5"),
    "--model-dim": (["--backbone", "attention"], "5"),
    "--ffn-dim": (["--backbone", "attention"], "5"),
    "--epochs": ([], "3"),
    "--lr": ([], "0.01"),
    "--batch-size": ([], "0"),
    "--init": ([], "random"),
    "--init-values": (["--init", "gt", "--init-values", "{sidecar}"], "{other_sidecar}"),
    "--lam": ([], "0.5"),
    "--record-every": ([], "1"),
    "--seed": ([], "3"),
    "--out-model": ([], "moved.json"),
    "--out-report": ([], "moved.report.json"),
}


@pytest.mark.parametrize("option", _train_options())
def test_every_train_option_changes_the_result(option, workdir, tmp_path, monkeypatch):
    assert option in TRAIN_OPTION_CHANGES, \
        f"give {option} a value that changes what train writes, or delete the option"
    other_csv = tmp_path / "other.csv"
    assert main(["gen", "--dataset", "synth", "--n", "60", "--noise", "2", "--seed", "2",
                 "--out", str(other_csv)]) == 0
    other_sidecar = tmp_path / "other.sidecar.json"
    sidecar = read_json(workdir["sidecar"])
    sidecar["ground_truth_importance"].reverse()
    other_sidecar.write_text(json.dumps(sidecar), encoding="utf-8")
    paths = {"sidecar": workdir["sidecar"], "other_csv": other_csv,
             "other_sidecar": other_sidecar}
    monkeypatch.delenv("SCOREGATE_SEED", raising=False)

    def written(name, argv):
        """The model and report files one run writes, by name."""
        run_dir = tmp_path / name
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        small = [] if "attention" in argv else ["--hidden", "4"]  # attention rejects --hidden
        assert main(["train", "--data", str(workdir["csv"]), *small, "--epochs", "2",
                     "--batch-size", "8", "--out-model", "model.json",
                     "--out-report", "report.json",
                     *[a.format(**paths) for a in argv]]) == 0
        return {p.name: p.read_bytes() for p in run_dir.iterdir()
                if not p.name.endswith(".manifest.json")}

    context, value = TRAIN_OPTION_CHANGES[option]
    assert written("changed", context + [option, value]) != written("default", context)


# --- rank / shap -------------------------------------------------------------------


def test_rank_output(workdir, tmp_path):
    out = tmp_path / "rank.json"
    assert main(["rank", "--model", str(workdir["model"]), "--out", str(out)]) == 0
    payload = read_json(out)
    model = Model.load(workdir["model"])
    np.testing.assert_allclose(payload["values"], model.gate_weights(), rtol=1e-15)
    assert sorted(payload["order"]) == list(range(7))
    assert payload["order_one_indexed"] == [i + 1 for i in payload["order"]]
    assert payload["source"] == "scores"
    assert payload["elapsed_ms"] >= 0.0


def test_rank_rejects_vanilla_model(workdir, tmp_path, capsys):
    out_m, out_r = tmp_path / "v.json", tmp_path / "vr.json"
    main(["train", "--data", str(workdir["csv"]), "--model", "vanilla",
          "--hidden", "3", "--epochs", "1", "--batch-size", "0", "--seed", "0",
          "--out-model", str(out_m), "--out-report", str(out_r)])
    capsys.readouterr()
    assert main(["rank", "--model", str(out_m), "--out", str(tmp_path / "r.json")]) == 1
    assert "score gate" in capsys.readouterr().err


def test_shap_output(workdir, tmp_path):
    out = tmp_path / "shap.json"
    assert main(["shap", "--model", str(workdir["model"]), "--data", str(workdir["csv"]),
                 "--samples", "5", "--coalitions", "128", "--seed", "4",
                 "--out", str(out)]) == 0
    payload = read_json(out)
    assert len(payload["phi"]) == 5 and len(payload["phi"][0]) == 7
    assert payload["n_coalitions"] == 128  # d=7 fits inside the budget: full enum
    assert payload["design_condition"] >= 1.0 and payload["regression_residual"] >= 0.0
    assert payload["elapsed_ms"] >= 0.0
    assert payload["method"] == "kernel"
    assert payload["sample_indices"] == sorted(payload["sample_indices"])
    assert payload["ranking"]["source"] == "shap"
    assert payload["order_one_indexed"] == [i + 1 for i in payload["ranking"]["order"]]
    np.testing.assert_allclose(
        payload["global_importance"],
        np.abs(np.asarray(payload["phi"])).mean(axis=0), rtol=1e-12)


def test_shap_too_many_samples(workdir, tmp_path):
    assert main(["shap", "--model", str(workdir["model"]), "--data", str(workdir["csv"]),
                 "--samples", "500", "--out", str(tmp_path / "s.json")]) == 1


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_shap_rejects_an_empty_explanation(samples, workdir, tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["shap", "--model", str(workdir["model"]), "--data", str(workdir["csv"]),
                 "--samples", samples, "--out", str(out)]) == 1
    assert f"--samples must be at least 1, got {samples}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content, reason", [
    ("[1, 2]", "'list' object has no attribute 'keys'"),
    ("not json", "Expecting value: line 1 column 1"),
    ("report", "a model needs exactly the keys config and parameters, got ['config', "),
], ids=["json-list", "not-json", "train-report"])
@pytest.mark.parametrize("command", ["rank", "shap"])
def test_rank_and_shap_name_a_bad_model_file(command, content, reason, workdir, tmp_path,
                                             capsys):
    if content == "report":
        path = workdir["report"]
    else:
        path = tmp_path / "bad.json"
        path.write_text(content, encoding="utf-8")
    out = tmp_path / "out.json"
    extra = ["--data", str(workdir["csv"]), "--samples", "2"] if command == "shap" else []
    assert main([command, "--model", str(path), *extra, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path} holds no valid model: {reason}")
    assert not out.exists()


# --- compare / stability --------------------------------------------------------------


def test_compare_matrix_and_match_table(workdir, tmp_path):
    rank_out = tmp_path / "rank.json"
    shap_out = tmp_path / "shap.json"
    main(["rank", "--model", str(workdir["model"]), "--out", str(rank_out)])
    main(["shap", "--model", str(workdir["model"]), "--data", str(workdir["csv"]),
          "--samples", "5", "--coalitions", "128", "--seed", "0", "--out", str(shap_out)])
    out = tmp_path / "cmp.json"
    assert main(["compare", "--rankings", str(rank_out), str(shap_out),
                 "--sidecar", str(workdir["sidecar"]), "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["labels"][-1] == "ground-truth"
    m = np.asarray(payload["spearman"])
    assert m.shape == (3, 3)
    np.testing.assert_allclose(np.diag(m), 1.0, rtol=1e-12)
    np.testing.assert_allclose(m, m.T, rtol=1e-12)
    assert np.all(np.abs(m) <= 1.0 + 1e-12)
    assert payload["top_k"] == 5  # synth ranks five features
    assert len(payload["rank_match_table"]) == 5
    assert 0 <= payload["ours_matches"] <= 5
    row = payload["rank_match_table"][0]
    assert row["position"] == 1
    assert row["ours_match"] == (row["ours"] == row["ground_truth"])


def test_compare_without_sidecar(workdir, tmp_path):
    rank_out = tmp_path / "rank.json"
    main(["rank", "--model", str(workdir["model"]), "--out", str(rank_out)])
    out = tmp_path / "cmp.json"
    assert main(["compare", "--rankings", str(rank_out), str(rank_out),
                 "--out", str(out)]) == 0
    payload = read_json(out)
    assert "rank_match_table" not in payload
    np.testing.assert_allclose(payload["spearman"], [[1.0, 1.0], [1.0, 1.0]], rtol=1e-12)


def test_compare_reports_all_tie_ranking_as_null(workdir, tmp_path, capsys):
    rank_out = tmp_path / "rank.json"
    main(["rank", "--model", str(workdir["model"]), "--out", str(rank_out)])
    ties = tmp_path / "ties.json"
    ties.write_text(json.dumps({"order": list(range(7)), "values": [0.5] * 7,
                                "source": "shap"}), encoding="utf-8")
    out = tmp_path / "cmp.json"
    assert main(["compare", "--rankings", str(rank_out), str(ties),
                 "--out", str(out)]) == 0
    assert read_json(out)["spearman"] == [[1.0, None], [None, None]]
    assert "n/a" in capsys.readouterr().out


def test_compare_matrix_equals_every_ordered_pair(workdir, tmp_path):
    # each unordered pair is computed once and mirrored: the payload must hold
    # exactly what all n^2 calls give, null cells of an all-ties ranking included
    rank_out, shap_out = tmp_path / "rank.json", tmp_path / "shap.json"
    main(["rank", "--model", str(workdir["model"]), "--out", str(rank_out)])
    main(["shap", "--model", str(workdir["model"]), "--data", str(workdir["csv"]),
          "--samples", "5", "--coalitions", "64", "--seed", "0", "--out", str(shap_out)])
    ties = tmp_path / "ties.json"
    ties.write_text(json.dumps({"order": list(range(7)), "values": [0.5] * 7,
                                "source": "shap"}), encoding="utf-8")
    paths = [rank_out, shap_out, ties]
    out = tmp_path / "cmp.json"
    assert main(["compare", "--rankings", *map(str, paths), "--sidecar",
                 str(workdir["sidecar"]), "--out", str(out)]) == 0
    rankings = [cli._load_ranking(p) for p in paths]
    rankings.append(Ranking(data.read_ground_truth(workdir["sidecar"]), source="ground-truth"))
    expected = [[cli._spearman_or_none(a, b) for b in rankings] for a in rankings]
    matrix = read_json(out)["spearman"]
    assert matrix == expected
    assert matrix[2] == [None] * 4 and matrix[0][1] is not None


def test_compare_reports_a_single_ranked_feature_as_null(tmp_path):
    # a sidecar ranking one feature leaves fewer than two to correlate with it
    csv, model = tmp_path / "c4.csv", tmp_path / "m4.json"
    assert main(["gen", "--dataset", "clf", "--n", "60", "--d", "4", "--informative", "1",
                 "--seed", "3", "--out", str(csv)]) == 0
    assert main(["train", "--data", str(csv), "--hidden", "3", "--epochs", "2",
                 "--batch-size", "0", "--seed", "3", "--out-model", str(model),
                 "--out-report", str(tmp_path / "r4.json")]) == 0
    rank_out, shap_out, out = tmp_path / "rank.json", tmp_path / "shap.json", tmp_path / "cmp.json"
    assert main(["rank", "--model", str(model), "--out", str(rank_out)]) == 0
    assert main(["shap", "--model", str(model), "--data", str(csv), "--samples", "4",
                 "--coalitions", "16", "--seed", "3", "--out", str(shap_out)]) == 0
    assert main(["compare", "--rankings", str(rank_out), str(shap_out),
                 "--sidecar", str(csv.with_suffix(".sidecar.json")), "--out", str(out)]) == 0
    payload = read_json(out)
    m = payload["spearman"]
    assert m[2] == [None, None, None] and m[0][2] is None and m[1][2] is None
    assert m[0][0] == m[1][1] == 1.0 and m[0][1] is not None
    assert payload["top_k"] == 1 and len(payload["rank_match_table"]) == 1
    assert payload["rank_match_table"][0]["ground_truth"] == 0


def test_compare_skips_the_match_table_when_ground_truth_ranks_no_feature(workdir, tmp_path):
    # with no relevant feature there is no position to match: the payload is
    # the one compare writes without a scores/shap pair, its ground-truth cells null
    rank_out, shap_out = tmp_path / "rank.json", tmp_path / "shap.json"
    assert main(["rank", "--model", str(workdir["model"]), "--out", str(rank_out)]) == 0
    assert main(["shap", "--model", str(workdir["model"]), "--data", str(workdir["csv"]),
                 "--samples", "5", "--coalitions", "64", "--seed", "0",
                 "--out", str(shap_out)]) == 0
    sidecar = tmp_path / "none-relevant.sidecar.json"
    sidecar.write_text(json.dumps({**read_json(workdir["sidecar"]),
                                   "ground_truth_importance": [0.0] * 7}), encoding="utf-8")
    out = tmp_path / "cmp.json"
    assert main(["compare", "--rankings", str(rank_out), str(shap_out),
                 "--sidecar", str(sidecar), "--out", str(out)]) == 0
    payload = read_json(out)
    assert sorted(payload) == ["labels", "spearman"]
    m = payload["spearman"]
    assert m[2] == [None, None, None] and m[0][2] is None and m[1][2] is None
    assert m[0][0] == m[1][1] == 1.0


def test_compare_names_each_ranking_of_another_feature_count(workdir, tmp_path, capsys):
    rank_out, rank4 = tmp_path / "rank.json", tmp_path / "rank4.json"
    assert main(["rank", "--model", str(workdir["model"]), "--out", str(rank_out)]) == 0
    rank4.write_text(json.dumps({"order": [0, 1, 2, 3], "values": [0.4, 0.3, 0.2, 0.1],
                                 "source": "shap"}), encoding="utf-8")
    capsys.readouterr()
    assert main(["compare", "--rankings", str(rank_out), str(rank4),
                 "--out", str(tmp_path / "cmp.json")]) == 1
    assert capsys.readouterr().err.strip() == (
        f"error: rankings cover different feature counts: {rank_out} has 7 features, "
        f"{rank4} has 4")
    assert not (tmp_path / "cmp.json").exists()


def test_compare_names_a_sidecar_of_another_feature_count(workdir, tmp_path, capsys):
    rank_out, csv4 = tmp_path / "rank.json", tmp_path / "c4.csv"
    assert main(["rank", "--model", str(workdir["model"]), "--out", str(rank_out)]) == 0
    assert main(["gen", "--dataset", "clf", "--n", "20", "--d", "4", "--informative", "2",
                 "--seed", "3", "--out", str(csv4)]) == 0
    sidecar = csv4.with_suffix(".sidecar.json")
    capsys.readouterr()
    assert main(["compare", "--rankings", str(rank_out), "--sidecar", str(sidecar),
                 "--out", str(tmp_path / "cmp.json")]) == 1
    assert capsys.readouterr().err.strip() == (
        f"error: rankings cover different feature counts: {rank_out} has 7 features, "
        f"{sidecar} has 4")


@pytest.mark.parametrize("bad, reason", [
    (lambda p: {**p, "order": p["order"][::-1]},
     r"order \[.*\] is not the stable descending order of its values, \["),
    (lambda p: {**p, "values": [p["values"][0], float("nan")] + p["values"][2:]},
     "scores ranking holds a non-finite value at feature 1"),
    ("report", "a ranking needs keys order, values and source, got"),
    ("model", "a ranking needs keys order, values and source, got"),
    (lambda p: p["values"], r"holds no valid ranking: \S"),
], ids=["reversed-order", "nan-value", "train-report", "model-json", "json-list"])
def test_compare_rejects_a_bad_ranking_file(bad, reason, workdir, tmp_path, capsys):
    rank_out = tmp_path / "rank.json"
    assert main(["rank", "--model", str(workdir["model"]), "--out", str(rank_out)]) == 0
    if callable(bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad(read_json(rank_out))), encoding="utf-8")
    else:
        path = workdir[bad]
    out = tmp_path / "cmp.json"
    capsys.readouterr()
    assert main(["compare", "--rankings", str(rank_out), str(path),
                 "--sidecar", str(workdir["sidecar"]), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{path} holds no valid ranking: " in err
    assert re.search(reason, err), err
    assert not out.exists()


@pytest.mark.parametrize("sidecar, reason", [
    (lambda sc: {k: v for k, v in sc.items() if k != "ground_truth_importance"},
     "is not a sidecar: it has no ground_truth_importance key"),
    (lambda sc: sc["ground_truth_importance"], "is not a sidecar: it holds a JSON list"),
    (lambda sc: None, "is not a sidecar: Expecting value: line 1 column 1"),
    (lambda sc: {**sc, "ground_truth_importance": [None] * 7},
     "carries no ground-truth importances"),
    (lambda sc: {**sc, "ground_truth_importance": [0.2, 0.3, math.nan, 0.05, 0.5, 0.0, 0.0]},
     "ground_truth_importance holds a non-finite value at feature 2"),
    (lambda sc: {**sc, "ground_truth_importance": [0.2, 0.3, 0.1, 0.05, 0.5, 0.0, -math.inf]},
     "ground_truth_importance holds a non-finite value at feature 6"),
    (lambda sc: {**sc, "ground_truth_importance": [True, False, 1, 0, 1, 0, 0]},
     "holds a ground_truth_importance that is not a list of numbers"),
], ids=["no-key", "json-list", "not-json", "null", "nan", "inf", "booleans"])
@pytest.mark.parametrize("command", ["train", "compare"])
def test_train_and_compare_name_a_bad_sidecar(command, sidecar, reason, workdir, tmp_path,
                                              capsys):
    path = tmp_path / "bad.sidecar.json"
    content = sidecar(read_json(workdir["sidecar"]))
    path.write_text("not json" if content is None else json.dumps(content), encoding="utf-8")
    out = tmp_path / "out.json"
    if command == "train":
        argv = ["train", "--data", str(workdir["csv"]), "--hidden", "3", "--epochs", "1",
                "--init", "gt", "--init-values", str(path), "--out-model", str(out),
                "--out-report", str(tmp_path / "report.json")]
    else:
        rank_out = tmp_path / "rank.json"
        assert main(["rank", "--model", str(workdir["model"]), "--out", str(rank_out)]) == 0
        argv = ["compare", "--rankings", str(rank_out), "--sidecar", str(path),
                "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path} {reason}")
    assert not out.exists()


def test_train_names_both_files_when_init_values_has_another_feature_count(workdir, tmp_path,
                                                                           capsys):
    f2 = tmp_path / "f2.csv"
    assert main(["gen", "--dataset", "friedman2", "--n", "20", "--seed", "3",
                 "--out", str(f2)]) == 0
    sidecar, out = f2.with_suffix(".sidecar.json"), tmp_path / "m.json"
    capsys.readouterr()
    assert main(["train", "--data", str(workdir["csv"]), "--hidden", "3", "--epochs", "1",
                 "--init", "gt", "--init-values", str(sidecar), "--out-model", str(out),
                 "--out-report", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err.strip() == (
        f"error: --init-values covers another feature count: {workdir['csv']} has 7 features, "
        f"{sidecar} has 4")
    assert not out.exists()


def test_stability_payload(workdir, tmp_path):
    out = tmp_path / "stab.json"
    assert main(["stability", "--data", str(workdir["csv"]), "--hidden", "3",
                 "--epochs", "2", "--batch-size", "0", "--n-runs", "2", "--samples", "4",
                 "--coalitions", "128", "--base-seed", "5", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["run_seeds"] == [5, 6]
    assert len(payload["scores_rank_variance"]) == 7
    assert len(payload["shap_orders"]) == 2
    assert payload["scores_mean_variance"] == pytest.approx(
        float(np.mean(payload["scores_rank_variance"])))
    for order in payload["scores_orders"] + payload["shap_orders"]:
        assert sorted(order) == list(range(7))


def assert_stability_runs_are_train_rank_shap(fit, workdir, tmp_path):
    """stability fits and explains through train's and shap's own steps, so
    each run's orders are the ones those commands give at the run's seed."""
    explain = ["--samples", "6", "--coalitions", "64"]
    out = tmp_path / "stab.json"
    assert main(["stability", "--data", str(workdir["csv"]), *fit, *explain,
                 "--n-runs", "2", "--base-seed", "1", "--out", str(out)]) == 0
    payload = read_json(out)
    for i, seed in enumerate(["1", "2"]):
        model, rank_out, shap_out = (tmp_path / f"{kind}{seed}.json"
                                     for kind in ("model", "rank", "shap"))
        assert main(["train", "--data", str(workdir["csv"]), *fit, "--seed", seed,
                     "--out-model", str(model), "--out-report", str(tmp_path / "r.json")]) == 0
        assert main(["rank", "--model", str(model), "--out", str(rank_out)]) == 0
        assert main(["shap", "--model", str(model), "--data", str(workdir["csv"]), *explain,
                     "--seed", seed, "--out", str(shap_out)]) == 0
        assert payload["scores_orders"][i] == read_json(rank_out)["order"]
        assert payload["shap_orders"][i] == read_json(shap_out)["ranking"]["order"]


def test_each_stability_run_is_the_train_rank_shap_pipeline(workdir, tmp_path):
    assert_stability_runs_are_train_rank_shap(
        ["--hidden", "3", "--epochs", "20", "--lr", "0.01", "--batch-size", "16"],
        workdir, tmp_path)


def test_each_attention_stability_run_is_the_train_rank_shap_pipeline(workdir, tmp_path):
    # full batch, and the attention widths train takes by default
    assert_stability_runs_are_train_rank_shap(
        ["--backbone", "attention", "--epochs", "4", "--lr", "0.01", "--batch-size", "0"],
        workdir, tmp_path)


def test_stability_fits_and_explains_only_through_the_shared_steps():
    called = {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
              for node in ast.walk(ast.parse(inspect.getsource(cli.cmd_stability)))
              if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))}
    assert {"_fit", "_explain"} <= called
    assert not called & {"build_model", "split", "TrainConfig", "train", "kernel_shap"}


def test_stability_rejects_a_single_run_before_training(tmp_path, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("train was called")

    monkeypatch.setattr(cli, "train", no_training)
    # the data path does not exist either: the run count is checked before loading
    assert main(["stability", "--data", str(tmp_path / "missing.csv"), "--n-runs", "1",
                 "--out", str(tmp_path / "stab.json")]) == 1
    assert "--n-runs must be at least 2" in capsys.readouterr().err


def test_stability_rejects_a_flag_its_backbone_does_not_read(tmp_path, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("train was called")

    monkeypatch.setattr(cli, "train", no_training)
    out = tmp_path / "stab.json"
    assert main(["stability", "--data", str(tmp_path / "missing.csv"), "--backbone", "attention",
                 "--hidden", "9", "--out", str(out)]) == 1
    assert "--backbone attention does not take --hidden" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "stability"])
def test_a_negative_batch_size_is_rejected_before_training(command, workdir, tmp_path,
                                                          monkeypatch, capsys):
    # the CLI's full batch is 0; the library's None has no spelling on the command line
    def no_training(*args, **kwargs):
        raise AssertionError("train was called")

    monkeypatch.setattr(cli, "train", no_training)
    outs = {"train": ["--out-model", str(tmp_path / "m.json"),
                      "--out-report", str(tmp_path / "r.json")],
            "stability": ["--out", str(tmp_path / "stab.json")]}[command]
    assert main([command, "--data", str(workdir["csv"]), "--batch-size", "-1", *outs]) == 1
    assert ("--batch-size must be >= 0 (0 trains full-batch), got -1"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("samples, message", [
    ("0", "--samples must be at least 1, got 0"),
    ("61", "asked to explain 61 samples but the dataset has 60 rows"),
])
def test_stability_checks_samples_before_training(samples, message, workdir, tmp_path,
                                                  monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("train was called")

    monkeypatch.setattr(cli, "train", no_training)
    assert main(["stability", "--data", str(workdir["csv"]), "--samples", samples,
                 "--out", str(tmp_path / "stab.json")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "stab.json").exists()


@pytest.mark.parametrize("coalitions", ["8", "0"])
def test_stability_checks_coalitions_before_training(coalitions, workdir, tmp_path,
                                                     monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: calls.append(args))
    # 7 features need the empty, the full and 7 more coalitions
    assert main(["stability", "--data", str(workdir["csv"]), "--coalitions", coalitions,
                 "--out", str(tmp_path / "stab.json")]) == 1
    assert f"need at least 9 coalitions for 7 features, got {coalitions}" \
        in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "stab.json").exists()


# --- plot / replay -----------------------------------------------------------------------


def test_plot_trajectory_csv(workdir, tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["plot", "--report", str(workdir["report"]), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "epoch," + ",".join(f"s{i}" for i in range(1, 8))
    assert len(lines) == 1 + 4  # trajectory rows at epochs 0, 2, 4, 6
    report = read_json(workdir["report"])
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert [float(v) for v in first[1:]] == report["scores_trajectory"][0]["scores"]


def test_plot_needs_gated_report(workdir, tmp_path):
    out_m, out_r = tmp_path / "v.json", tmp_path / "vr.json"
    main(["train", "--data", str(workdir["csv"]), "--model", "vanilla",
          "--hidden", "3", "--epochs", "1", "--batch-size", "0", "--seed", "0",
          "--out-model", str(out_m), "--out-report", str(out_r)])
    assert main(["plot", "--report", str(out_r), "--out", str(tmp_path / "t.csv")]) == 1


@pytest.mark.parametrize("entry, fault", [
    ({"epoch": 0}, "scores_trajectory entry 1 has scores None, not a non-empty list"),
    ({"epoch": 0, "scores": [1.0, "x"]},
     "scores_trajectory entry 1 has a score 'x' that is no finite number"),
    ({"epoch": 0, "scores": [1.0, float("nan")]},
     "scores_trajectory entry 1 has a score nan that is no finite number"),
    ({"epoch": 0, "scores": [1.0, True]},
     "scores_trajectory entry 1 has a score True that is no finite number"),
    ({"epoch": 0, "scores": [1.0]}, "scores_trajectory entry 1 holds 1 scores, entry 0 2"),
    ({"epoch": 0, "scores": []}, "scores_trajectory entry 1 has scores [], not a non-empty list"),
    ({"epoch": 1.5, "scores": [1.0, 2.0]},
     "scores_trajectory entry 1 has epoch 1.5, not an integer"),
    ({"scores": [1.0, 2.0]}, "scores_trajectory entry 1 has epoch None, not an integer"),
    ([0, 1.0, 2.0], "scores_trajectory entry 1 is a JSON list, not an object"),
], ids=["no-scores", "string-score", "nan-score", "bool-score", "short", "empty", "float-epoch",
        "no-epoch", "list-entry"])
def test_plot_checks_every_entry_before_writing(entry, fault, tmp_path, capsys):
    report = tmp_path / "r.json"
    good = {"epoch": 10, "scores": [0.5, -0.25], "weights": [0.6, 0.4]}
    # json writes NaN as a bare NaN token, which json.loads reads back
    report.write_text(json.dumps({"scores_trajectory": [good, entry, good]}), encoding="utf-8")
    out = tmp_path / "t.csv"
    assert main(["plot", "--report", str(report), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {report} holds no valid report: {fault}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", ["gen", ["gen", 3], [], None, {"gen": 1}],
                         ids=["string", "non-string-item", "empty", "null", "object"])
def test_replay_needs_argv_as_a_non_empty_list_of_strings(argv, tmp_path, capsys, monkeypatch):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"argv": argv, "cwd": str(tmp_path)}), encoding="utf-8")
    ran = []  # replay re-enters the module's main; the test calls the original
    monkeypatch.setattr(cli, "main", lambda argv=None: ran.append(argv) or 0)
    assert main(["replay", "--manifest", str(manifest)]) == 1
    assert capsys.readouterr().err == (f"error: {manifest} has no argv to replay: it must be a "
                                       f"non-empty list of strings, got {argv!r}\n")
    assert ran == []


def test_replay_refuses_a_manifest_that_records_a_replay(tmp_path, capsys, monkeypatch):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"argv": ["replay", "--manifest", str(manifest)],
                                    "cwd": str(tmp_path)}), encoding="utf-8")
    ran = []  # replay re-enters the module's main; the test calls the original
    monkeypatch.setattr(cli, "main", lambda argv=None: ran.append(argv) or 0)
    assert main(["replay", "--manifest", str(manifest)]) == 1
    assert capsys.readouterr().err == \
        f"error: {manifest} records a replay, which replay does not re-run\n"
    assert ran == []


@pytest.mark.parametrize("content, reason", [
    ("[1, 2]", "it holds a JSON list, not an object"),
    ("not json", "Expecting value: line 1 column 1"),
], ids=["json-list", "not-json"])
@pytest.mark.parametrize("command, flag, what", [
    ("plot", "--report", "report"),
    ("replay", "--manifest", "manifest"),
])
def test_plot_and_replay_name_a_file_that_holds_no_json_object(command, flag, what, content,
                                                               reason, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(content, encoding="utf-8")
    extra = ["--out", str(tmp_path / "t.csv")] if command == "plot" else []
    assert main([command, flag, str(path), *extra]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path} holds no valid {what}: {reason}")


def test_replay_reproduces_gen_byte_for_byte(tmp_path):
    out = tmp_path / "ds.csv"
    main(["gen", "--dataset", "synth", "--n", "25", "--noise", "1", "--seed", "9",
          "--out", str(out)])
    original = out.read_bytes()
    out.unlink()
    manifest = out.with_suffix(".manifest.json")
    assert main(["replay", "--manifest", str(manifest)]) == 0
    assert out.read_bytes() == original


def test_replay_reproduces_training_byte_for_byte(workdir, tmp_path):
    out_m, out_r = tmp_path / "m.json", tmp_path / "r.json"
    argv = ["train", "--data", str(workdir["csv"]), "--model", "scores",
            "--hidden", "4", "--epochs", "3", "--batch-size", "4", "--seed", "2",
            "--out-model", str(out_m), "--out-report", str(out_r)]
    assert main(argv) == 0
    model_bytes, report_bytes = out_m.read_bytes(), out_r.read_bytes()
    assert main(["replay", "--manifest", str(out_m.with_suffix(".manifest.json"))]) == 0
    assert out_m.read_bytes() == model_bytes
    assert out_r.read_bytes() == report_bytes


def _artifact(path):
    """File content, with the wall-clock ``elapsed_ms`` of rank/SHAP payloads dropped."""
    if path.suffix == ".json":
        return {k: v for k, v in read_json(path).items() if k != "elapsed_ms"}
    return path.read_bytes()


# one recorded command per manifest-writing subcommand; {name} is a path in
# the shared workdir or, for files the test writes, in tmp_path
REPLAYED = {
    "gen": ["gen", "--dataset", "synth", "--n", "20", "--noise", "1", "--out", "{out_csv}"],
    "train": ["train", "--data", "{csv}", "--hidden", "3", "--epochs", "2",
              "--batch-size", "8", "--record-every", "1",
              "--out-model", "{out_json}", "--out-report", "{out_report}"],
    "rank": ["rank", "--model", "{model}", "--out", "{out_json}"],
    "shap": ["shap", "--model", "{model}", "--data", "{csv}", "--samples", "3",
             "--coalitions", "32", "--out", "{out_json}"],
    "compare": ["compare", "--rankings", "{rank}", "{rank}", "--sidecar", "{sidecar}",
                "--out", "{out_json}"],
    "stability": ["stability", "--data", "{csv}", "--hidden", "3", "--epochs", "1",
                  "--batch-size", "0", "--n-runs", "2", "--samples", "3",
                  "--coalitions", "32", "--out", "{out_json}"],
    "plot": ["plot", "--report", "{report}", "--out", "{out_csv}"],
}


@pytest.mark.parametrize("command", sorted(REPLAYED))
def test_replay_reproduces_every_command(command, workdir, tmp_path, monkeypatch):
    paths = {**{k: str(v) for k, v in workdir.items()}, "rank": str(tmp_path / "in_rank.json"),
             "out_csv": str(tmp_path / "out.csv"), "out_json": str(tmp_path / "out.json"),
             "out_report": str(tmp_path / "out_report.json")}
    assert main(["rank", "--model", paths["model"], "--out", paths["rank"]]) == 0
    monkeypatch.setenv("SCOREGATE_SEED", "7")
    assert main([a.format(**paths) for a in REPLAYED[command]]) == 0
    monkeypatch.delenv("SCOREGATE_SEED")

    primary = Path(paths["out_csv"] if command in ("gen", "plot") else paths["out_json"])
    manifest_path = primary.with_suffix(".manifest.json")
    manifest = read_json(manifest_path)
    assert manifest["command"] == command
    params, argv = manifest["resolved_params"], manifest["argv"]
    for key in ("seed", "base_seed"):
        if key in params:
            assert params[key] == 7  # the environment seed, resolved and recorded
    for key, value in params.items():
        if value is not None:
            assert "--" + key.replace("_", "-") in argv

    artifacts = [Path(p) for p in manifest["outputs"]] + [manifest_path]
    recorded = {p: _artifact(p) for p in artifacts}
    kept = tmp_path / "kept.manifest.json"
    shutil.copy(manifest_path, kept)
    for p in artifacts:
        p.unlink()
    assert main(["replay", "--manifest", str(kept)]) == 0
    for p in artifacts:
        assert _artifact(p) == recorded[p], p


def test_replay_runs_in_the_recorded_directory(workdir, tmp_path, monkeypatch):
    recorded, elsewhere = tmp_path / "recorded", tmp_path / "elsewhere"
    recorded.mkdir()
    elsewhere.mkdir()
    shutil.copy(workdir["model"], recorded / "m.json")
    monkeypatch.chdir(recorded)
    assert main(["rank", "--model", "m.json", "--out", "rank.json"]) == 0
    artifacts = [recorded / "rank.json", recorded / "rank.manifest.json"]
    before = {p: _artifact(p) for p in artifacts}
    shutil.copy(artifacts[1], elsewhere / "kept.manifest.json")
    for p in artifacts:
        p.unlink()

    monkeypatch.chdir(elsewhere)
    assert main(["replay", "--manifest", "kept.manifest.json"]) == 0
    assert Path.cwd() == elsewhere  # the caller's directory is restored
    for p in artifacts:
        assert _artifact(p) == before[p], p
    assert sorted(q.name for q in elsewhere.iterdir()) == ["kept.manifest.json"]


def test_replay_rejects_manifest_without_argv(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text("{}", encoding="utf-8")
    assert main(["replay", "--manifest", str(bad)]) == 1


# --- seeds, usage, entry point ---------------------------------------------------------------


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SCOREGATE_SEED", "7")
    out = tmp_path / "a.csv"
    main(["gen", "--dataset", "synth", "--n", "20", "--noise", "0", "--out", str(out)])
    assert read_json(out.with_suffix(".sidecar.json"))["seed"] == 7
    # an explicit flag still wins
    out2 = tmp_path / "b.csv"
    main(["gen", "--dataset", "synth", "--n", "20", "--noise", "0", "--seed", "3",
          "--out", str(out2)])
    assert read_json(out2.with_suffix(".sidecar.json"))["seed"] == 3
    monkeypatch.setenv("SCOREGATE_SEED", "")
    out3 = tmp_path / "c.csv"
    main(["gen", "--dataset", "synth", "--n", "20", "--noise", "0", "--out", str(out3)])
    assert read_json(out3.with_suffix(".sidecar.json"))["seed"] == 0


def test_env_seed_must_be_an_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SCOREGATE_SEED", "abc")
    out = tmp_path / "a.csv"
    assert main(["gen", "--dataset", "synth", "--n", "20", "--noise", "0",
                 "--out", str(out)]) == 1
    assert "SCOREGATE_SEED must be an integer, got 'abc'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, env, source", [
    (["gen", "--dataset", "synth", "--seed", "-1", "--out", "{out}"], None, "--seed"),
    (["stability", "--data", "{missing}", "--base-seed", "-1", "--out", "{out}"], None,
     "--base-seed"),
    (["train", "--data", "{missing}", "--out-model", "{out}", "--out-report", "r.json"], "-3",
     "SCOREGATE_SEED"),
], ids=["gen-seed", "stability-base-seed", "train-env"])
def test_a_negative_seed_is_named_before_any_file_is_read(argv, env, source, tmp_path,
                                                         monkeypatch, capsys):
    if env is None:
        monkeypatch.delenv("SCOREGATE_SEED", raising=False)
    else:
        monkeypatch.setenv("SCOREGATE_SEED", env)
    out = tmp_path / "out.json"
    paths = {"out": out, "missing": tmp_path / "missing.csv"}
    assert main([a.format(**paths) for a in argv]) == 1
    value = env or "-1"
    assert capsys.readouterr().err == f"error: {source} must be a non-negative integer, got {value}\n"
    assert not out.exists()


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["transmogrify"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["gen", "--dataset", "synth"])  # --out missing
    assert info.value.code == 2


def test_main_calls_in_one_process_stay_independent(tmp_path, monkeypatch):
    def gen_seed(name, *flags):
        out = tmp_path / name
        assert main(["gen", "--dataset", "synth", "--n", "10", "--noise", "0", *flags,
                     "--out", str(out)]) == 0
        return read_json(out.with_suffix(".sidecar.json"))["seed"]

    monkeypatch.setenv("SCOREGATE_SEED", "7")
    assert gen_seed("a.csv", "--seed", "3") == 3
    assert gen_seed("b.csv") == 7  # the earlier call's --seed does not stick
    with pytest.raises(SystemExit) as info:
        main(["gen", "--dataset", "synth"])  # --out missing
    assert info.value.code == 2
    assert gen_seed("c.csv", "--seed", "4") == 4  # a usage error leaves the parser usable
    assert gen_seed("d.csv") == 7


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "scoregate 0.1.0" in capsys.readouterr().out


@pytest.mark.skipif(shutil.which("scoregate") is None,
                    reason="console script not on PATH")
def test_console_script_smoke(tmp_path):
    out = tmp_path / "ds.csv"
    proc = subprocess.run(["scoregate", "gen", "--dataset", "synth", "--n", "10",
                           "--noise", "0", "--seed", "1", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; from scoregate.cli import main; sys.exit(main(['--version']))"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_all_lists_exactly_the_names_the_package_imports():
    # a stale entry would break `from scoregate import *`
    init = Path(scoregate.__file__)
    imported = {alias.asname or alias.name
                for node in ast.walk(ast.parse(init.read_text("utf-8")))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = sorted(name for name in imported if not name.startswith("_"))
    assert sorted(scoregate.__all__) == public
    namespace: dict = {}
    exec("from scoregate import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == public


def test_only_the_cli_reads_the_clock():
    # a command's timing goes into its payload; no library result carries one
    package = Path(cli.__file__).parent
    timed = sorted(p.name for p in package.glob("*.py") if "perf_counter" in p.read_text("utf-8"))
    assert timed == ["cli.py"]
