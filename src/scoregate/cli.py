"""Command-line frontend: dataset generation, training, ranking, SHAP
baselines, comparisons, stability experiments, and plot-data export.

Every command writes a run manifest next to its primary output, built from
the parsed arguments; ``replay`` re-executes a manifest's resolved argument
vector from the working directory it was recorded in, reproducing the
artifacts. Exit codes: 0 success, 1 runtime failure, 2 usage error; a replayed
argv that the parser rejects is the manifest's failure, so it exits 1. The
``SCOREGATE_SEED`` environment variable overrides the built-in default seed
wherever ``--seed`` (``--base-seed`` for ``stability``) is not given
explicitly.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, data
from .explain import Ranking, UndefinedCorrelation, check_coalitions, extract_ranking, \
    global_importance, kernel_shap, mean_background, rank_match_table, rank_stability, spearman
from .models import Model, ModelConfig, build_model
from .training import TrainConfig, train

DEFAULT_SEED = 0


def _resolve_seed(flag: str, flag_value: int | None) -> int:
    """``flag``'s value, else ``SCOREGATE_SEED``, else the default; a negative
    seed fails naming where it came from."""
    source, seed = flag, flag_value
    if seed is None:
        source, env = "SCOREGATE_SEED", os.environ.get("SCOREGATE_SEED")
        if not env:
            return DEFAULT_SEED
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"SCOREGATE_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _manifest_path(primary_out) -> Path:
    return Path(primary_out).with_suffix(".manifest.json")


def _write_manifest(args, primary_out, seeds: dict, inputs: list[str],
                    outputs: list[str]) -> None:
    """Record every parsed option of the command, seeds already resolved, both
    as ``resolved_params`` and as the ``argv`` that ``replay`` re-runs, with
    the working directory that relative paths in it are resolved against."""
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    argv = [args.command]
    for dest, value in params.items():
        if value is not None:
            argv.append("--" + dest.replace("_", "-"))
            argv += [str(v) for v in value] if isinstance(value, list) else [str(value)]
    data.write_json(_manifest_path(primary_out), {
        "command": args.command,
        "argv": argv,
        "cwd": os.getcwd(),
        "resolved_params": params,
        "seeds": seeds,
        "inputs": inputs,
        "outputs": outputs,
        "tool_version": __version__,
    })


def _one_indexed(order: list[int]) -> list[int]:
    return [i + 1 for i in order]


def _check_samples(n: int, samples: int) -> None:
    if samples < 1:
        raise ValueError(f"--samples must be at least 1, got {samples}")
    if samples > n:
        raise ValueError(f"asked to explain {samples} samples but the dataset has {n} rows")


def _sample_rows(n: int, samples: int, seed: int) -> np.ndarray:
    _check_samples(n, samples)
    return np.sort(data.stream(seed, data.SHAP_ROWS).choice(n, size=samples, replace=False))


def _reject_unread(args, option: str, reads: dict[str, tuple[str, ...]]) -> None:
    """Fail, naming them, on flags that only another value of ``option`` reads
    (``reads`` maps each value to its flags) set to other than their default."""
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    defaults = {a.dest: a.default for a in sub.choices[args.command]._actions}
    value = getattr(args, option)
    unread = sorted({f for flags in reads.values() for f in flags
                     if f in defaults and f not in reads[value]
                     and getattr(args, f) != defaults[f]})
    if unread:
        raise ValueError(f"--{option} {value} does not take "
                         + ", ".join("--" + f.replace("_", "-") for f in unread))


# -- gen ----------------------------------------------------------------------


# each dataset's generator and the flags it takes, in call order before the seed
_GENERATORS = {
    "synth": (data.gen_synthetic, ("n", "noise")),
    "friedman1": (data.gen_friedman1, ("n", "sigma")),
    "friedman2": (data.gen_friedman2, ("n", "sigma")),
    "clf": (data.gen_classification, ("n", "d", "informative", "redundant", "duplicates")),
}


def cmd_gen(args) -> int:
    _reject_unread(args, "dataset", {name: flags for name, (_, flags) in _GENERATORS.items()})
    generate, flags = _GENERATORS[args.dataset]
    params = {flag: getattr(args, flag) for flag in flags}
    ds = generate(*params.values(), args.seed)

    data.save_csv(ds, args.out)
    sidecar = Path(args.out).with_suffix(".sidecar.json")
    data.write_sidecar(sidecar, args.dataset, params, args.seed, ds)
    _write_manifest(args, args.out, {"seed": args.seed}, [], [args.out, str(sidecar)])
    print(f"wrote {ds.n}x{ds.d} {ds.task} dataset to {args.out} (+ sidecar)")
    return 0


# -- train ---------------------------------------------------------------------


# the architecture flags each backbone reads, and the score-init flags each model kind reads
_BACKBONE_FLAGS = {"mlp": ("hidden",), "attention": ("model_dim", "ffn_dim")}
_MODEL_FLAGS = {"vanilla": (), "scores": ("init", "init_values")}


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValueError(f"--hidden expects comma-separated integers, got {text!r}") from None
    if not dims:
        raise ValueError("--hidden needs at least one width")
    return dims


def _fit(ds, config: ModelConfig, seed: int, args, **options):
    """A model built from ``config``, fit to 80% of ``ds`` by ``args``' epochs,
    lr and batch size (0: full batch) and scored on the other 20%, with its
    report; ``seed`` draws the weights, the split and the batch order, and
    ``options`` are further ``TrainConfig`` fields."""
    if args.batch_size < 0:
        raise ValueError(f"--batch-size must be >= 0 (0 trains full-batch), got {args.batch_size}")
    model = build_model(config, seed)
    train_ds, test_ds = data.split(ds, 0.8, seed)
    tcfg = TrainConfig(epochs=args.epochs, lr=args.lr, shuffle_seed=seed,
                       batch_size=None if args.batch_size == 0 else args.batch_size, **options)
    return model, train(model, train_ds.X, train_ds.y, ds.task, tcfg,
                        X_test=test_ds.X, y_test=test_ds.y)


def cmd_train(args) -> int:
    _reject_unread(args, "backbone", _BACKBONE_FLAGS)
    _reject_unread(args, "model", _MODEL_FLAGS)
    if args.init_values and args.init != "gt":
        raise ValueError(f"--init-values is read only with --init gt, not --init {args.init}")
    ds = data.load_csv(args.data)
    init_values = None
    if args.init == "gt":
        if not args.init_values:
            raise ValueError("--init gt needs --init-values <sidecar.json>")
        init_values = data.read_ground_truth(args.init_values)
        if len(init_values) != ds.d:
            raise ValueError(f"--init-values covers another feature count: {args.data} has "
                             f"{ds.d} features, {args.init_values} has {len(init_values)}")
    init_map = {"zero": "zero", "random": "random-uniform", "gt": "from-values"}

    config = ModelConfig(
        d_in=ds.d, backbone=args.backbone, hidden=_parse_hidden(args.hidden),
        model_dim=args.model_dim, ffn_dim=args.ffn_dim,
        gated=args.model == "scores", score_init=init_map[args.init],
        score_init_values=init_values,
    )
    model, report = _fit(ds, config, args.seed, args, record_every=args.record_every)

    model.save(args.out_model)
    payload = report.to_dict()
    payload["model_kind"] = args.model
    payload["data"] = args.data
    data.write_json(args.out_report, payload)

    _write_manifest(args, args.out_model, {"seed": args.seed, "split_seed": args.seed},
                    [args.data] + ([args.init_values] if args.init_values else []),
                    [args.out_model, args.out_report])
    acc = payload["final_test_accuracy"]
    acc_txt = "n/a" if acc is None else f"{acc:.4f}"
    print(f"trained {args.model} {args.backbone} for {args.epochs} epochs: "
          f"final train loss {report.final_train_loss:.6g}, test accuracy {acc_txt}")
    return 0


# -- rank / shap -----------------------------------------------------------------


def _load(path, what: str, from_dict):
    """``from_dict`` of the JSON in ``path``; a file that holds no valid
    ``what`` fails with a ValueError naming the file and the reason."""
    try:
        return from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path} holds no valid {what}: {exc}") from None


def cmd_rank(args) -> int:
    model = _load(args.model, "model", Model.from_dict)
    t0 = time.perf_counter()
    ranking = extract_ranking(model)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    payload = ranking.to_dict()
    payload["order_one_indexed"] = _one_indexed(ranking.order)
    payload["elapsed_ms"] = elapsed_ms
    data.write_json(args.out, payload)
    _write_manifest(args, args.out, {}, [args.model], [args.out])
    print(f"ranking (one-indexed): {payload['order_one_indexed']} ({elapsed_ms:.4f} ms)")
    return 0


def _explain(model: Model, ds, args, seed: int):
    """Kernel SHAP of ``model`` on ``args.samples`` rows of ``ds`` against its
    mean, rows and coalitions drawn by ``seed``: the result, the rows and the
    milliseconds ``kernel_shap`` took."""
    idx = _sample_rows(ds.n, args.samples, seed)
    background = mean_background(ds.X)
    t0 = time.perf_counter()
    result = kernel_shap(model.predict, ds.X[idx], background,
                         n_coalitions=args.coalitions, seed=seed)
    return result, idx, (time.perf_counter() - t0) * 1000.0


def cmd_shap(args) -> int:
    model = _load(args.model, "model", Model.from_dict)
    ds = data.load_csv(args.data)
    result, idx, elapsed_ms = _explain(model, ds, args, args.seed)
    ranking = global_importance(result)

    payload = result.to_dict()
    payload["ranking"] = ranking.to_dict()
    payload["order_one_indexed"] = _one_indexed(ranking.order)
    payload["sample_indices"] = [int(i) for i in idx]
    payload["elapsed_ms"] = elapsed_ms
    data.write_json(args.out, payload)
    _write_manifest(args, args.out, {"seed": args.seed}, [args.model, args.data], [args.out])
    print(f"shap ranking (one-indexed): {payload['order_one_indexed']} "
          f"({elapsed_ms:.1f} ms, {result.n_coalitions} coalitions)")
    return 0


# -- compare / stability ----------------------------------------------------------


def _load_ranking(path) -> Ranking:
    # a rank payload, or a shap payload's nested ranking
    return _load(path, "ranking", lambda raw: Ranking.from_dict(raw.get("ranking", raw)))


def _spearman_or_none(a: Ranking, b: Ranking) -> float | None:
    try:
        return spearman(a, b)
    except UndefinedCorrelation:  # reported as null, not a failure
        return None


def cmd_compare(args) -> int:
    loaded = [_load_ranking(p) for p in args.rankings]
    entries = [(f"{r.source}:{Path(p).name}", r) for p, r in zip(args.rankings, loaded)]
    if args.sidecar:
        gt = Ranking(data.read_ground_truth(args.sidecar), source="ground-truth")
        entries.append(("ground-truth", gt))
    else:
        gt = None
    # the entries end with the sidecar's ground truth, when one is given
    counts = {path: len(r.values) for path, (_, r) in zip([*args.rankings, args.sidecar], entries)}
    if len(set(counts.values())) > 1:
        (path, count), *rest = counts.items()
        raise ValueError("rankings cover different feature counts: " + ", ".join(
            [f"{path} has {count} features", *(f"{p} has {n}" for p, n in rest)]))
    labels = [label for label, _ in entries]
    rankings = [r for _, r in entries]

    # spearman is symmetric to the bit, so each unordered pair is computed once;
    # the diagonal is computed too, as an all-ties ranking reads null there
    matrix: list[list[float | None]] = [[None] * len(rankings) for _ in rankings]
    for i, a in enumerate(rankings):
        for j in range(i, len(rankings)):
            matrix[i][j] = matrix[j][i] = _spearman_or_none(a, rankings[j])
    payload: dict = {"labels": labels, "spearman": matrix}

    if gt is not None:
        ours = next((r for r in rankings if r.source == "scores"), None)
        shap_r = next((r for r in rankings if r.source == "shap"), None)
        top_k = int(np.sum(np.asarray(gt.values) > 0))
        if ours is not None and shap_r is not None and top_k:  # a ground truth may rank none
            table = rank_match_table(ours, shap_r, gt, top_k)
            payload["rank_match_table"] = table
            payload["top_k"] = top_k
            payload["ours_matches"] = sum(row["ours_match"] for row in table)
            payload["shap_matches"] = sum(row["shap_match"] for row in table)
    data.write_json(args.out, payload)

    _write_manifest(args, args.out, {},
                    list(args.rankings) + ([args.sidecar] if args.sidecar else []), [args.out])
    for label, row in zip(labels, matrix):
        print(f"spearman {label}: " + " ".join("n/a" if v is None else f"{v:+.4f}" for v in row))
    return 0


def cmd_stability(args) -> int:
    if args.n_runs < 2:
        raise ValueError(f"--n-runs must be at least 2 to compare rankings, got {args.n_runs}")
    _reject_unread(args, "backbone", _BACKBONE_FLAGS)
    ds = data.load_csv(args.data)
    # checked here, as they would fail only after the first run had trained
    _check_samples(ds.n, args.samples)
    check_coalitions(args.coalitions, ds.d)
    run_seeds = [args.base_seed + r for r in range(args.n_runs)]
    config = ModelConfig(d_in=ds.d, backbone=args.backbone,
                         hidden=_parse_hidden(args.hidden), gated=True)

    score_rankings, shap_rankings = [], []
    for run_seed in run_seeds:
        model, _ = _fit(ds, config, run_seed, args, record_every=args.epochs)
        score_rankings.append(extract_ranking(model))
        shap_rankings.append(global_importance(_explain(model, ds, args, run_seed)[0]))

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
    data.write_json(args.out, payload)
    _write_manifest(args, args.out, {"base_seed": args.base_seed, "run_seeds": run_seeds},
                    [args.data], [args.out])
    print(f"mean rank variance: scores {payload['scores_mean_variance']:.4f} "
          f"vs shap {payload['shap_mean_variance']:.4f}")
    return 0


# -- plot / replay -----------------------------------------------------------------


def _scores_trajectory(raw) -> list[dict]:
    """A report's ``scores_trajectory``, every entry checked before any is
    used: an integer ``epoch`` and a non-empty ``scores`` list of finite
    numbers as long as the first entry's."""
    trajectory = data.json_object(raw).get("scores_trajectory") or []
    for i, entry in enumerate(trajectory):
        where = f"scores_trajectory entry {i}"
        if not isinstance(entry, dict):
            raise TypeError(f"{where} is a JSON {type(entry).__name__}, not an object")
        epoch, scores = entry.get("epoch"), entry.get("scores")
        if type(epoch) is not int:
            raise ValueError(f"{where} has epoch {epoch!r}, not an integer")
        if not isinstance(scores, list) or not scores:
            raise ValueError(f"{where} has scores {scores!r}, not a non-empty list")
        bad = [v for v in scores
               if not (type(v) is int or type(v) is float and math.isfinite(v))]
        if bad:
            raise ValueError(f"{where} has a score {bad[0]!r} that is no finite number")
        if len(scores) != len(trajectory[0]["scores"]):
            raise ValueError(f"{where} holds {len(scores)} scores, entry 0 "
                             f"{len(trajectory[0]['scores'])}")
    return trajectory


def cmd_plot(args) -> int:
    trajectory = _load(args.report, "report", _scores_trajectory)
    if not trajectory:
        raise ValueError(f"{args.report} has no scores trajectory; train a gated model")
    d = len(trajectory[0]["scores"])
    lines = ["epoch," + ",".join(f"s{i + 1}" for i in range(d))]
    for entry in trajectory:
        lines.append(str(entry["epoch"]) + "," + ",".join(repr(v) for v in entry["scores"]))
    data.write_text(args.out, "\n".join(lines) + "\n")
    _write_manifest(args, args.out, {}, [args.report], [args.out])
    print(f"wrote {len(trajectory)} trajectory rows x {d + 1} columns to {args.out}")
    return 0


def cmd_replay(args) -> int:
    manifest = _load(args.manifest, "manifest", data.json_object)
    argv = manifest.get("argv")
    if not (isinstance(argv, list) and argv and all(isinstance(a, str) for a in argv)):
        raise ValueError(f"{args.manifest} has no argv to replay: it must be a non-empty "
                         f"list of strings, got {argv!r}")
    if argv[0] == "replay":  # no command records one; it could only replay itself
        raise ValueError(f"{args.manifest} records a replay, which replay does not re-run")
    try:  # before anything runs, so a rejected argv writes nothing
        _parser().parse_args(argv)
    except _Rejected as exc:
        raise ValueError(f"{args.manifest} records arguments that {exc.parser.prog} "
                         f"rejects: {exc}") from None
    caller = os.getcwd()
    cwd = manifest.get("cwd", caller)  # manifests from before cwd was recorded
    print(f"replaying in {cwd}: {' '.join(argv)}")
    os.chdir(cwd)
    try:
        return main(argv)
    finally:
        os.chdir(caller)


# -- parser -------------------------------------------------------------------------


class _Rejected(Exception):
    """An argument vector the parser rejects, with the (sub)parser that
    rejected it: ``main`` prints that parser's usage and exits 2, as argparse
    does, and ``replay`` fails naming the manifest that recorded the vector."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # subparsers are built as this class too
        raise _Rejected(self, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scoregate",
        description="Train softmax-gated feature-scoring models and compare their "
                    "rankings against Shapley baselines.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a dataset CSV plus ground-truth sidecar")
    p.add_argument("--dataset", required=True, choices=list(_GENERATORS))
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
    p.add_argument("--model-dim", type=int, default=16, help="attention: token width")
    p.add_argument("--ffn-dim", type=int, default=32, help="attention: feed-forward width")
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--batch-size", type=int, default=32, help="0 trains full-batch")
    p.add_argument("--init", choices=["zero", "random", "gt"], default="zero")
    p.add_argument("--init-values", default=None, help="sidecar JSON for --init gt")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` keeps no state
    between calls, and building it costs more than most commands' work."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _Rejected as exc:  # usage errors -> exit 2, with argparse's own usage and message
        argparse.ArgumentParser.error(exc.parser, str(exc))
    try:
        for dest in ("seed", "base_seed"):
            if hasattr(args, dest):
                setattr(args, dest, _resolve_seed("--" + dest.replace("_", "-"),
                                                  getattr(args, dest)))
        return args.func(args)
    except Exception as exc:  # runtime failures -> exit 1, message on stderr
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
