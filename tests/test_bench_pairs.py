"""The summary of tools/bench_pairs.py and its ``--compare`` mode, on made-up
pairs (no benchmark process runs here)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "shap_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]


def made_up_pairs():
    # the change halves shap_s in 9 of 10 pairs and adds 10% to rss_mb
    pairs = []
    for i in range(10):
        shap = 0.10 + 0.001 * i
        pairs.append({"workload": "explain", "seed": 11 + i,
                      "parent": {"shap_s": shap, "rss_mb": 40.0},
                      "change": {"shap_s": shap * (2.0 if i == 3 else 0.5), "rss_mb": 44.0}})
    return pairs


def test_summary_counts_wins_and_checks_bounds():
    summary = bench_pairs.summarise(made_up_pairs(), END_TO_END)["explain"]
    shap = summary["shap_s"]
    assert shap["pairs"] == 10 and shap["change_wins"] == 9 and shap["change_losses"] == 1
    assert shap["parent"]["median"] == pytest.approx(0.1045)
    assert shap["parent"]["iqr"] == pytest.approx(0.0045)
    assert shap["gain_beyond_parent_iqr"] and not shap["worse_than_bound"]
    rss = summary["rss_mb"]
    assert rss["change_over_parent_median"] == pytest.approx(1.1)
    assert rss["worse_than_bound"] and rss["change_wins"] == 0
    assert bench_pairs.claim_met({"explain": summary}, "explain", "shap_s")
    assert not bench_pairs.claim_met({"explain": summary}, "explain", "rss_mb")


def test_compare_prints_change_over_parent_ratios(tmp_path, capsys):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps({"summary": bench_pairs.summarise(made_up_pairs(), END_TO_END)}),
                    encoding="utf-8")
    assert bench_pairs.main(["--compare", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"{path} explain shap_s: parent 0.1045 change 0.05275 ratio 0.5048 wins 9/10",
        f"{path} explain rss_mb: parent 40 change 44 ratio 1.1000 wins 0/10  WORSE THAN BOUND",
    ]


def test_a_run_needs_a_parent_and_an_output():
    with pytest.raises(SystemExit):
        bench_pairs.main(["--pairs", "2"])


def test_output_digests_are_compared_per_pair_and_kind(tmp_path, capsys):
    parent = {"fit": "a1", "rank": "b1", "shap_full": "c1"}
    same = bench_pairs.digests_match(parent, dict(parent))
    assert same == {"fit": True, "rank": True, "shap_full": True}
    # a changed digest, and a kind only one side ran, both read as differing
    moved = bench_pairs.digests_match(parent, {"fit": "a1", "rank": "b2", "exact": "d1"})
    assert moved == {"exact": False, "fit": True, "rank": False, "shap_full": False}
    pairs = [{"workload": "explain", "outputs_identical": same},
             {"workload": "explain", "outputs_identical": moved},
             {"workload": "train-attention", "outputs_identical": {"fit": True}}]
    identical = bench_pairs.outputs_identical(pairs)
    assert identical == {"explain": {"fit": True, "rank": False, "shap_full": False,
                                     "exact": False},
                         "train-attention": {"fit": True}}
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps({"summary": {}, "outputs_identical": identical}),
                    encoding="utf-8")
    assert bench_pairs.main(["--compare", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{path} explain rank: OUTPUTS DIFFER",
        f"{path} explain shap_full: OUTPUTS DIFFER",
        f"{path} explain exact: OUTPUTS DIFFER",
    ]
