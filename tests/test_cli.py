"""End-to-end CLI checks: every command drives the real pipeline in a temp
directory through ``main(argv)``, artifacts are re-read and cross-checked
against the library, and replay must reproduce outputs byte-for-byte.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scoregate import data
from scoregate.cli import main
from scoregate.models import Model
from scoregate.scores import scores_to_weights


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


def test_gen_bad_args_exit_one(tmp_path):
    assert main(["gen", "--dataset", "synth", "--n", "0",
                 "--out", str(tmp_path / "x.csv")]) == 1


# --- train ----------------------------------------------------------------------


def test_train_artifacts(workdir):
    model = Model.load(workdir["model"])
    assert model.config.gated and model.config.hidden == (4,)
    report = read_json(workdir["report"])
    assert report["epochs_run"] == 6
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
    np.testing.assert_allclose(start["weights"],
                               scores_to_weights(start["scores"]), rtol=1e-15)


def test_train_usage_failures(workdir, tmp_path):
    out_m, out_r = str(tmp_path / "m.json"), str(tmp_path / "r.json")
    base = ["train", "--data", str(workdir["csv"]), "--epochs", "1",
            "--out-model", out_m, "--out-report", out_r]
    assert main(base + ["--loss", "mse"]) == 1  # classification CSV wants bce
    assert main(base + ["--init", "gt"]) == 1  # no --init-values
    assert main(base + ["--hidden", "4,oops"]) == 1
    assert main(["train", "--data", str(tmp_path / "missing.csv"), "--epochs", "1",
                 "--out-model", out_m, "--out-report", out_r]) == 1


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


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["transmogrify"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["gen", "--dataset", "synth"])  # --out missing
    assert info.value.code == 2


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
