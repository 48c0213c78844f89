"""Command-line frontend: dataset generation, training, ranking, SHAP
baselines, comparisons, stability experiments, and plot-data export.

Every command writes a run manifest next to its primary output, built from
the parsed arguments; ``replay`` re-executes a manifest's resolved argument
vector, reproducing the artifacts. Exit codes: 0 success, 1 runtime failure,
2 usage error. The ``SCOREGATE_SEED`` environment variable overrides the
built-in default seed wherever ``--seed`` (``--base-seed`` for ``stability``)
is not given explicitly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, data
from .explain import UndefinedCorrelation, global_importance, kernel_shap, mean_background, \
    rank_match_table, rank_stability, spearman
from .models import Model, ModelConfig, build_model
from .scores import Ranking, extract_ranking, ranking_from_values
from .training import TrainConfig, train

DEFAULT_SEED = 0
_ROW_STREAM = 101  # spawn key for choosing which rows a SHAP run explains


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("SCOREGATE_SEED")
    if not env:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"SCOREGATE_SEED must be an integer, got {env!r}") from None


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _manifest_path(primary_out) -> Path:
    return Path(primary_out).with_suffix(".manifest.json")


def _write_manifest(args, primary_out, seeds: dict, inputs: list[str],
                    outputs: list[str]) -> None:
    """Record every parsed option of the command, seeds already resolved, both
    as ``resolved_params`` and as the ``argv`` that ``replay`` re-runs."""
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    argv = [args.command]
    for dest, value in params.items():
        if value is not None:
            argv.append("--" + dest.replace("_", "-"))
            argv += [str(v) for v in value] if isinstance(value, list) else [str(value)]
    _write_json(_manifest_path(primary_out), {
        "command": args.command,
        "argv": argv,
        "resolved_params": params,
        "seeds": seeds,
        "inputs": inputs,
        "outputs": outputs,
        "tool_version": __version__,
    })


def _one_indexed(order: list[int]) -> list[int]:
    return [i + 1 for i in order]


def _sample_rows(n: int, samples: int, seed: int) -> np.ndarray:
    if samples > n:
        raise ValueError(f"asked to explain {samples} samples but the dataset has {n} rows")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_ROW_STREAM,)))
    return np.sort(rng.choice(n, size=samples, replace=False))


# -- gen ----------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.dataset == "synth":
        ds = data.gen_synthetic(args.n, args.noise, args.seed)
        params = {"n": args.n, "noise": args.noise}
    elif args.dataset == "friedman1":
        ds = data.gen_friedman1(args.n, args.sigma, args.seed)
        params = {"n": args.n, "sigma": args.sigma}
    elif args.dataset == "friedman2":
        ds = data.gen_friedman2(args.n, args.sigma, args.seed)
        params = {"n": args.n, "sigma": args.sigma}
    else:
        ds = data.gen_classification(args.n, args.d, args.informative, args.redundant,
                                     args.duplicates, args.seed)
        params = {"n": args.n, "d": args.d, "informative": args.informative,
                  "redundant": args.redundant, "duplicates": args.duplicates}

    data.save_csv(ds, args.out)
    sidecar = Path(args.out).with_suffix(".sidecar.json")
    data.write_sidecar(sidecar, args.dataset, params, args.seed, ds)
    _write_manifest(args, args.out, {"seed": args.seed}, [], [args.out, str(sidecar)])
    print(f"wrote {ds.n}x{ds.d} {ds.task} dataset to {args.out} (+ sidecar)")
    return 0


# -- train ---------------------------------------------------------------------


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValueError(f"--hidden expects comma-separated integers, got {text!r}") from None
    if not dims:
        raise ValueError("--hidden needs at least one width")
    return dims


def cmd_train(args) -> int:
    ds = data.load_csv(args.data)
    loss_for_task = "bce" if ds.task == "classification" else "mse"
    if args.loss != "auto" and args.loss != loss_for_task:
        raise ValueError(f"--loss {args.loss} does not fit a {ds.task} dataset; "
                         f"use --loss {loss_for_task} (or auto)")

    init_values = None
    if args.init == "gt":
        if not args.init_values:
            raise ValueError("--init gt needs --init-values <sidecar.json>")
        init_values = data.read_sidecar(args.init_values)["ground_truth_importance"]
        if any(v is None for v in init_values):
            raise ValueError(f"{args.init_values} carries no ground-truth importances")
    init_map = {"zero": "zero", "random": "random-uniform", "gt": "from-values"}

    config = ModelConfig(
        d_in=ds.d, backbone=args.backbone, hidden=_parse_hidden(args.hidden),
        model_dim=args.model_dim, ffn_dim=args.ffn_dim,
        gated=args.model == "scores", gate_index=args.gate_index,
        score_init=init_map[args.init], score_init_values=init_values,
    )
    model = build_model(config, args.seed)
    train_ds, test_ds = data.split(ds, 0.8, args.seed)
    batch_size = None if args.batch_size == 0 else args.batch_size
    tcfg = TrainConfig(epochs=args.epochs, lr=args.lr, batch_size=batch_size,
                       shuffle_seed=args.seed, penalty=args.penalty,
                       penalty_lam=args.lam, record_every=args.record_every)
    report = train(model, train_ds.X, train_ds.y, ds.task, tcfg,
                   X_test=test_ds.X, y_test=test_ds.y)

    model.save(args.out_model)
    payload = report.to_dict()
    payload["model_kind"] = args.model
    payload["data"] = args.data
    _write_json(args.out_report, payload)

    _write_manifest(args, args.out_model, {"seed": args.seed, "split_seed": args.seed},
                    [args.data] + ([args.init_values] if args.init_values else []),
                    [args.out_model, args.out_report])
    acc = payload["final_test_accuracy"]
    acc_txt = "n/a" if acc is None else f"{acc:.4f}"
    print(f"trained {args.model} {args.backbone} for {report.epochs_run} epochs: "
          f"final train loss {report.final_train_loss:.6g}, test accuracy {acc_txt}")
    return 0


# -- rank / shap -----------------------------------------------------------------


def cmd_rank(args) -> int:
    model = Model.load(args.model)
    if model.scores is None:
        raise ValueError("model has no score gate to rank features with; train with --model scores")
    t0 = time.perf_counter()
    ranking = extract_ranking(model.scores)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    payload = ranking.to_dict()
    payload["order_one_indexed"] = _one_indexed(ranking.order)
    payload["elapsed_ms"] = elapsed_ms
    _write_json(args.out, payload)
    _write_manifest(args, args.out, {}, [args.model], [args.out])
    print(f"ranking (one-indexed): {payload['order_one_indexed']} ({elapsed_ms:.4f} ms)")
    return 0


def cmd_shap(args) -> int:
    model = Model.load(args.model)
    ds = data.load_csv(args.data)
    idx = _sample_rows(ds.n, args.samples, args.seed)
    background = mean_background(ds.X)
    result = kernel_shap(model.predict, ds.X[idx], background,
                         n_coalitions=args.coalitions, seed=args.seed)
    ranking = global_importance(result)

    payload = result.to_dict()
    payload["ranking"] = ranking.to_dict()
    payload["order_one_indexed"] = _one_indexed(ranking.order)
    payload["sample_indices"] = [int(i) for i in idx]
    _write_json(args.out, payload)
    _write_manifest(args, args.out, {"seed": args.seed}, [args.model, args.data], [args.out])
    print(f"shap ranking (one-indexed): {payload['order_one_indexed']} "
          f"({result.elapsed_ms:.1f} ms, {result.n_coalitions} coalitions)")
    return 0


# -- compare / stability ----------------------------------------------------------


def _load_ranking(path) -> Ranking:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if "order" not in raw and "ranking" in raw:
        raw = raw["ranking"]
    return Ranking.from_dict({"order": raw["order"], "values": raw["values"],
                              "source": raw["source"]})


def _spearman_or_none(a: Ranking, b: Ranking) -> float | None:
    try:
        return spearman(a, b)
    except UndefinedCorrelation:  # an all-tie ranking: reported as null, not a failure
        return None


def cmd_compare(args) -> int:
    loaded = [_load_ranking(p) for p in args.rankings]
    entries = [(f"{r.source}:{Path(p).name}", r) for p, r in zip(args.rankings, loaded)]
    if args.sidecar:
        importances = data.read_sidecar(args.sidecar)["ground_truth_importance"]
        if any(v is None for v in importances):
            raise ValueError(f"{args.sidecar} carries no ground-truth importances")
        gt = ranking_from_values(importances, source="ground-truth")
        entries.append(("ground-truth", gt))
    else:
        gt = None
    labels = [label for label, _ in entries]
    rankings = [r for _, r in entries]

    matrix = [[_spearman_or_none(a, b) for b in rankings] for a in rankings]
    payload: dict = {"labels": labels, "spearman": matrix}

    if gt is not None:
        ours = next((r for r in rankings if r.source == "scores"), None)
        shap_r = next((r for r in rankings if r.source == "shap"), None)
        if ours is not None and shap_r is not None:
            top_k = int(np.sum(np.asarray(gt.values) > 0))
            table = rank_match_table(ours, shap_r, gt, top_k)
            payload["rank_match_table"] = table
            payload["top_k"] = top_k
            payload["ours_matches"] = sum(row["ours_match"] for row in table)
            payload["shap_matches"] = sum(row["shap_match"] for row in table)
    _write_json(args.out, payload)

    _write_manifest(args, args.out, {},
                    list(args.rankings) + ([args.sidecar] if args.sidecar else []), [args.out])
    for label, row in zip(labels, matrix):
        print(f"spearman {label}: " + " ".join("n/a" if v is None else f"{v:+.4f}" for v in row))
    return 0


def cmd_stability(args) -> int:
    ds = data.load_csv(args.data)
    run_seeds = [args.base_seed + r for r in range(args.n_runs)]
    background = mean_background(ds.X)

    score_rankings, shap_rankings = [], []
    for run_seed in run_seeds:
        config = ModelConfig(d_in=ds.d, backbone=args.backbone,
                             hidden=_parse_hidden(args.hidden), gated=True,
                             gate_index=args.gate_index, score_init="zero")
        model = build_model(config, run_seed)
        train_ds, _ = data.split(ds, 0.8, run_seed)
        batch_size = None if args.batch_size == 0 else args.batch_size
        train(model, train_ds.X, train_ds.y, ds.task,
              TrainConfig(epochs=args.epochs, lr=args.lr, batch_size=batch_size,
                          shuffle_seed=run_seed, record_every=args.epochs))
        score_rankings.append(extract_ranking(model.scores))
        idx = _sample_rows(ds.n, args.samples, run_seed)
        result = kernel_shap(model.predict, ds.X[idx], background,
                             n_coalitions=args.coalitions, seed=run_seed)
        shap_rankings.append(global_importance(result))

    scores_var = rank_stability(score_rankings)
    shap_var = rank_stability(shap_rankings)
    payload = {
        "n_runs": args.n_runs,
        "run_seeds": run_seeds,
        "scores_rank_variance": [float(v) for v in scores_var],
        "shap_rank_variance": [float(v) for v in shap_var],
        "scores_mean_variance": float(scores_var.mean()),
        "shap_mean_variance": float(shap_var.mean()),
        "scores_orders": [r.order for r in score_rankings],
        "shap_orders": [r.order for r in shap_rankings],
    }
    _write_json(args.out, payload)
    _write_manifest(args, args.out, {"base_seed": args.base_seed, "run_seeds": run_seeds},
                    [args.data], [args.out])
    print(f"mean rank variance: scores {payload['scores_mean_variance']:.4f} "
          f"vs shap {payload['shap_mean_variance']:.4f}")
    return 0


# -- plot / replay -----------------------------------------------------------------


def cmd_plot(args) -> int:
    report = json.loads(Path(args.report).read_text(encoding="utf-8"))
    trajectory = report.get("scores_trajectory") or []
    if not trajectory:
        raise ValueError(f"{args.report} has no scores trajectory; train a gated model")
    d = len(trajectory[0]["scores"])
    lines = ["epoch," + ",".join(f"s{i + 1}" for i in range(d))]
    for entry in trajectory:
        lines.append(str(entry["epoch"]) + "," + ",".join(repr(v) for v in entry["scores"]))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(args, args.out, {}, [args.report], [args.out])
    print(f"wrote {len(trajectory)} trajectory rows x {d + 1} columns to {args.out}")
    return 0


def cmd_replay(args) -> int:
    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    argv = manifest.get("argv")
    if not argv:
        raise ValueError(f"{args.manifest} has no argv to replay")
    print(f"replaying: {' '.join(argv)}")
    return main(argv)


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoregate",
        description="Train softmax-gated feature-scoring models and compare their "
                    "rankings against Shapley baselines.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a dataset CSV plus ground-truth sidecar")
    p.add_argument("--dataset", required=True, choices=["synth", "friedman1", "friedman2", "clf"])
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--noise", type=int, default=5, help="synth: number of irrelevant columns")
    p.add_argument("--sigma", type=float, default=0.0, help="friedman: target noise sd")
    p.add_argument("--d", type=int, default=10, help="clf: total feature count")
    p.add_argument("--informative", type=int, default=5)
    p.add_argument("--redundant", type=int, default=0)
    p.add_argument("--duplicates", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a vanilla or score-gated model")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=["vanilla", "scores"], default="scores")
    p.add_argument("--backbone", choices=["mlp", "attention"], default="mlp")
    p.add_argument("--hidden", default="32,16", help="comma-separated MLP widths")
    p.add_argument("--gate-index", type=int, default=0, help="layer whose input is gated")
    p.add_argument("--model-dim", type=int, default=16, help="attention: token width")
    p.add_argument("--ffn-dim", type=int, default=32, help="attention: feed-forward width")
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--batch-size", type=int, default=32, help="0 trains full-batch")
    p.add_argument("--loss", choices=["auto", "bce", "mse"], default="auto")
    p.add_argument("--init", choices=["zero", "random", "gt"], default="zero")
    p.add_argument("--init-values", default=None, help="sidecar JSON for --init gt")
    p.add_argument("--penalty", choices=["none", "entropy"], default="none")
    p.add_argument("--lam", type=float, default=0.0)
    p.add_argument("--record-every", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-report", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rank", help="extract the score-gate feature ranking from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("shap", help="kernel SHAP global importance for a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--coalitions", type=int, default=2048)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_shap)

    p = sub.add_parser("compare", help="pairwise Spearman + ground-truth match table")
    p.add_argument("--rankings", nargs="+", required=True)
    p.add_argument("--sidecar", default=None, help="dataset sidecar with ground truth")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stability", help="rank variance of scores vs SHAP over retrainings")
    p.add_argument("--data", required=True)
    p.add_argument("--backbone", choices=["mlp", "attention"], default="mlp")
    p.add_argument("--hidden", default="32,16")
    p.add_argument("--gate-index", type=int, default=0)
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--batch-size", type=int, default=32, help="0 trains full-batch")
    p.add_argument("--n-runs", type=int, default=5)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--coalitions", type=int, default=256)
    p.add_argument("--base-seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("plot", help="export a report's scores trajectory as CSV")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("replay", help="re-run the command recorded in a manifest")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for dest in ("seed", "base_seed"):
            if hasattr(args, dest):
                setattr(args, dest, _resolve_seed(getattr(args, dest)))
        return args.func(args)
    except Exception as exc:  # runtime failures -> exit 1, message on stderr
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
