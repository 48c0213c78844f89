"""Release gate: the ten headline claims, one test and one PASS/FAIL line
each (run with ``pytest tests/test_acceptance.py -s`` to see the lines).

Criteria 3-8 build canonical JSON payloads (timing stripped); criterion 10
rebuilds every one of them from scratch and demands byte-identical JSON.
Payloads are cached in-module so a full-file run executes each experiment
twice in total: once for its own criterion, once for the determinism check.
"""

import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np

import scoregate.autodiff as ad
from scoregate import data
from scoregate.cli import main
from scoregate.explain import exact_shapley, kernel_shap, spearman
from scoregate.models import ModelConfig, build_model
from scoregate.scores import Ranking, analytic_grads, extract_ranking
from scoregate.training import TrainConfig, train

CACHE: dict = {}

RELEVANT_ONE_INDEXED = [5, 2, 1, 3, 4]  # descending generator coefficients


def check(ok: bool, name: str, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def get(name: str, builder) -> dict:
    if name not in CACHE:
        CACHE[name] = builder()
    return CACHE[name]


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def strip_timing(obj):
    """Drop *_ms keys: they measure the run, they are not results of it."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if not k.endswith("_ms")}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def one_indexed(order) -> list[int]:
    return [int(i) + 1 for i in order]


# --- criterion 1: gradient fidelity ------------------------------------------------


def fd_jacobians(W, s, x, eps=1e-6):
    def forward(sv, Wm):
        e = np.exp(sv - sv.max())
        return ((e / e.sum()) * x) @ Wm

    d, K = W.shape
    dS = np.zeros((K, d))
    for l in range(d):
        sp, sm = s.copy(), s.copy()
        sp[l] += eps
        sm[l] -= eps
        dS[:, l] = (forward(sp, W) - forward(sm, W)) / (2 * eps)
    dW = np.zeros((d, K))
    for i in range(d):
        for k in range(K):
            Wp, Wm = W.copy(), W.copy()
            Wp[i, k] += eps
            Wm[i, k] -= eps
            dW[i, k] = (forward(s, Wp)[k] - forward(s, Wm)[k]) / (2 * eps)
    return dW, dS


def autodiff_jacobians(W, s, x):
    d, K = W.shape
    dW = np.zeros((d, K))
    dS = np.zeros((K, d))
    for k in range(K):
        e_k = np.zeros((K, 1))
        e_k[k, 0] = 1.0
        x_leaf, s_leaf, W_leaf = ad.leaf(x[None, :]), ad.leaf(s[None, :]), ad.leaf(W)
        y = ad.matmul(ad.hadamard(x_leaf, ad.softmax_rows(s_leaf)), W_leaf)
        grads = ad.backward(ad.mean(ad.matmul(y, ad.leaf(e_k))))
        dS[k] = grads[s_leaf][0]
        dW[:, k] = grads[W_leaf][:, k]
    return dW, dS


def rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b) / denom))


def norm_rel_err(a, b):
    # norm-wise comparison: central differences carry ~1e-10 absolute noise,
    # which an entrywise ratio would blow up on near-zero jacobian entries
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def test_criterion_01_gradient_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst_ad, worst_fd = 0.0, 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        K = int(rng.integers(1, 5))
        W = rng.normal(size=(d, K))
        s = rng.normal(size=d)
        x = rng.normal(size=d)
        d_w, d_s = analytic_grads(W, s, x)
        aW, aS = autodiff_jacobians(W, s, x)
        worst_ad = max(worst_ad, rel_err(d_s, aS), rel_err(d_w, aW))
        fW, fS = fd_jacobians(W, s, x)
        worst_fd = max(worst_fd, norm_rel_err(d_s, fS), norm_rel_err(d_w, fW))
    elapsed = time.perf_counter() - t0
    ok = worst_ad < 1e-6 and worst_fd < 1e-4 and elapsed < 10.0
    check(ok, "criterion 1 (gradient fidelity)",
          f"1000 instances, max rel err {worst_ad:.2e} vs graph, "
          f"{worst_fd:.2e} vs finite differences, {elapsed:.1f}s")


# --- criterion 2: shapley oracle equivalence ------------------------------------------


def test_criterion_02_kernel_equals_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    worst_gap, worst_eff = 0.0, 0.0
    for i in range(50):
        d = int(rng.integers(2, 11))
        if i % 7 == 3:
            cfg = ModelConfig(d_in=d, backbone="attention", model_dim=8, ffn_dim=12,
                              gated=bool(i % 2), score_init="zero")
        else:
            hidden = [(4,), (6, 3), (8,)][i % 3]
            cfg = ModelConfig(d_in=d, hidden=hidden, gated=bool(i % 2),
                              score_init="random-uniform" if i % 2 else "zero")
        model = build_model(cfg, seed=i)
        X = rng.normal(size=(2, d))
        bg = rng.normal(size=d)
        ker = kernel_shap(model.predict, X, bg, n_coalitions=2 ** d)
        exa = exact_shapley(model.predict, X, bg)
        worst_gap = max(worst_gap, float(np.max(np.abs(ker.phi - exa.phi))))
        fx = model.predict(X)
        for res in (ker, exa):
            eff = np.abs(res.phi.sum(axis=1) - (fx - res.base_value))
            worst_eff = max(worst_eff, float(eff.max()))
    elapsed = time.perf_counter() - t0
    ok = worst_gap < 1e-8 and worst_eff < 1e-10 and elapsed < 60.0
    check(ok, "criterion 2 (kernel SHAP = exact Shapley under full enumeration)",
          f"50 models d<=10, max |diff| {worst_gap:.2e}, "
          f"max efficiency residual {worst_eff:.2e}, {elapsed:.1f}s")


# --- criterion 3: synthetic ranking recovery ---------------------------------------------


def train_synth_model(n, noise, seed, hidden, epochs, lr, batch_size):
    ds = data.gen_synthetic(n, noise, seed)
    train_ds, test_ds = data.split(ds, 0.8, seed)
    model = build_model(ModelConfig(d_in=ds.d, hidden=hidden, gated=True), seed)
    report = train(model, train_ds.X, train_ds.y, "classification",
                   TrainConfig(epochs=epochs, lr=lr, batch_size=batch_size,
                               shuffle_seed=seed),
                   X_test=test_ds.X, y_test=test_ds.y)
    return ds, model, report


def build_c3() -> dict:
    runs = []
    for seed in range(5):
        ds, model, _ = train_synth_model(1000, 5, seed, (8,), 1000, 0.001, 64)
        if seed == 0:  # criterion 9 explains this model; kept beside the payload
            CACHE["c3_seed0_model"] = model
        ranking = extract_ranking(model)
        gt = Ranking(ds.ground_truth_importances(), "ground-truth")
        runs.append({
            "seed": seed,
            "top5_one_indexed": one_indexed(ranking.order[:5]),
            "spearman_vs_gt": spearman(ranking, gt),
            "order": [int(i) for i in ranking.order],
            "weights": [float(v) for v in ranking.values],
        })
    return {"criterion": 3, "runs": runs}


def test_criterion_03_ranking_recovery():
    t0 = time.perf_counter()
    payload = get("c3", build_c3)
    elapsed = time.perf_counter() - t0
    tops = [r["top5_one_indexed"] for r in payload["runs"]]
    rhos = [r["spearman_vs_gt"] for r in payload["runs"]]
    ok = (all(t == RELEVANT_ONE_INDEXED for t in tops)
          and all(r == 1.0 for r in rhos) and elapsed < 300.0)
    check(ok, "criterion 3 (synthetic ranking recovery)",
          f"5/5 seeds ranked {RELEVANT_ONE_INDEXED}: {tops}, "
          f"spearman {rhos}, {elapsed:.0f}s")


# --- criterion 4: initialization invariance ------------------------------------------------


def build_c4() -> dict:
    ds = data.gen_synthetic(1000, 0, 0)
    train_ds, _ = data.split(ds, 0.8, 0)
    variants = [
        ("zero", 0, "zero", None),
        ("random-1", 1, "random-uniform", None),
        ("random-2", 2, "random-uniform", None),
        ("random-3", 3, "random-uniform", None),
        ("ground-truth", 0, "from-values", [0.2, 0.3, 0.1, 0.05, 0.5]),
    ]
    runs = []
    for label, seed, init, values in variants:
        cfg = ModelConfig(d_in=5, hidden=(8,), gated=True,
                          score_init=init, score_init_values=values)
        model = build_model(cfg, seed)
        train(model, train_ds.X, train_ds.y, "classification",
              TrainConfig(epochs=2000, lr=0.01, batch_size=64, shuffle_seed=0))
        order = extract_ranking(model).order
        runs.append({"init": label, "seed": seed,
                     "order_one_indexed": one_indexed(order)})
    return {"criterion": 4, "runs": runs}


def test_criterion_04_init_invariance():
    t0 = time.perf_counter()
    payload = get("c4", build_c4)
    elapsed = time.perf_counter() - t0
    orders = [r["order_one_indexed"] for r in payload["runs"]]
    ok = all(o == orders[0] for o in orders) and elapsed < 300.0
    check(ok, "criterion 4 (initialization invariance)",
          f"zero / 3x random / ground-truth inits all end at {orders[0]}: "
          f"{orders}, {elapsed:.0f}s")


# --- criterion 5: irrelevant-feature suppression --------------------------------------------


def build_c5() -> dict:
    runs = []
    for seed in range(5):
        _, model, _ = train_synth_model(1000, 11, seed, (8,), 1000, 0.001, 64)
        w = model.gate_weights()
        runs.append({
            "seed": seed,
            "max_noise_weight": float(w[5:].max()),
            "min_relevant_weight": float(w[:5].min()),
            "weights": [float(v) for v in w],
        })
    return {"criterion": 5, "runs": runs}


def test_criterion_05_noise_suppression():
    payload = get("c5", build_c5)
    uniform = 1.0 / 16.0
    bad = [r for r in payload["runs"]
           if r["max_noise_weight"] >= uniform
           or r["min_relevant_weight"] <= r["max_noise_weight"]]
    ok = not bad
    worst = max(r["max_noise_weight"] for r in payload["runs"])
    check(ok, "criterion 5 (irrelevant-feature suppression)",
          f"5 seeds on 5+11 features: max noise weight {worst:.4f} < 1/16 "
          f"and every noise feature ranks below every relevant one"
          + ("" if ok else f"; violations: {bad}"))


# --- criterion 6: accuracy direction ----------------------------------------------------------


def build_c6() -> dict:
    runs = []
    for seed in (1, 2, 3):
        ds = data.gen_synthetic(400, 11, seed)
        train_ds, test_ds = data.split(ds, 0.8, seed)
        accs, losses = {}, {}
        for kind, gated in (("gated", True), ("vanilla", False)):
            model = build_model(ModelConfig(d_in=16, hidden=(16,), gated=gated), seed)
            report = train(model, train_ds.X, train_ds.y, "classification",
                           TrainConfig(epochs=1000, lr=0.001, batch_size=128,
                                       shuffle_seed=seed),
                           X_test=test_ds.X, y_test=test_ds.y)
            accs[kind] = report.final_test_accuracy
            losses[kind] = report.final_train_loss
        runs.append({
            "seed": seed,
            "gated_test_accuracy": accs["gated"],
            "vanilla_test_accuracy": accs["vanilla"],
            "gap_points": (accs["gated"] - accs["vanilla"]) * 100.0,
            "gated_train_loss": losses["gated"],
            "vanilla_train_loss": losses["vanilla"],
        })
    return {"criterion": 6, "runs": runs}


def test_criterion_06_accuracy_direction():
    payload = get("c6", build_c6)
    # the 5-point bound is a decimal statement; 1e-9 absorbs binary rounding
    ok = all(r["gap_points"] >= 5.0 - 1e-9
             and r["gated_train_loss"] < r["vanilla_train_loss"]
             for r in payload["runs"])
    gaps = [round(r["gap_points"], 2) for r in payload["runs"]]
    check(ok, "criterion 6 (accuracy direction)",
          f"3 seeds, gated vs vanilla test-accuracy gaps {gaps} pts "
          f"(all >= 5) with lower gated train loss")


# --- criterion 7: explanation speed ------------------------------------------------------------


def build_c7() -> dict:
    with tempfile.TemporaryDirectory(prefix="speed-") as tmp:
        return _c7_payload(Path(tmp))


def _c7_payload(tmp: Path) -> dict:
    csv = tmp / "n16.csv"
    model = tmp / "model.json"
    report = tmp / "report.json"
    rank_out = tmp / "rank.json"
    shap_out = tmp / "shap.json"
    assert main(["gen", "--dataset", "synth", "--n", "1000", "--noise", "11",
                 "--seed", "1", "--out", str(csv)]) == 0
    assert main(["train", "--data", str(csv), "--model", "scores", "--hidden", "16",
                 "--epochs", "1000", "--lr", "0.001", "--batch-size", "128",
                 "--seed", "1", "--out-model", str(model),
                 "--out-report", str(report)]) == 0
    assert main(["rank", "--model", str(model), "--out", str(rank_out)]) == 0
    assert main(["shap", "--model", str(model), "--data", str(csv),
                 "--samples", "100", "--coalitions", "2048", "--seed", "1",
                 "--out", str(shap_out)]) == 0
    rank_payload = json.loads(rank_out.read_text(encoding="utf-8"))
    shap_payload = json.loads(shap_out.read_text(encoding="utf-8"))
    payload = {
        "criterion": 7,
        "rank_elapsed_ms": rank_payload.pop("elapsed_ms"),
        "shap_elapsed_ms": shap_payload.pop("elapsed_ms"),
        "rank": rank_payload,  # deterministic parts only
        "shap": shap_payload,
    }
    return payload


def test_criterion_07_explanation_speed():
    payload = get("c7", build_c7)
    rank_ms = payload["rank_elapsed_ms"]
    shap_ms = payload["shap_elapsed_ms"]
    ok = rank_ms * 100.0 <= shap_ms
    ratio = shap_ms / rank_ms if rank_ms > 0 else math.inf
    check(ok, "criterion 7 (explanation speed)",
          f"rank {rank_ms:.4f} ms vs kernel SHAP (100x2048) {shap_ms:.1f} ms "
          f"= {ratio:.0f}x, need >= 100x")


# --- criterion 8: ranking stability --------------------------------------------------------------


def gen_synth_n10(tmp: Path) -> Path:
    """Criterion 3's seed-0 dataset (5 relevant + 5 noise features) as a CSV."""
    csv = tmp / "n10.csv"
    assert main(["gen", "--dataset", "synth", "--n", "1000", "--noise", "5",
                 "--seed", "0", "--out", str(csv)]) == 0
    return csv


def build_c8() -> dict:
    with tempfile.TemporaryDirectory(prefix="stability-") as tmp:
        out = Path(tmp) / "stability.json"
        assert main(["stability", "--data", str(gen_synth_n10(Path(tmp))), "--hidden", "8",
                     "--epochs", "1000", "--lr", "0.001", "--batch-size", "64",
                     "--n-runs", "5", "--samples", "50", "--coalitions", "256",
                     "--base-seed", "0", "--out", str(out)]) == 0
        return {"criterion": 8, **json.loads(out.read_text(encoding="utf-8"))}


def test_criterion_08_stability():
    payload = get("c8", build_c8)
    ok = payload["scores_mean_variance"] <= payload["shap_mean_variance"]
    detail = (f"5 retrainings: scores mean rank variance "
              f"{payload['scores_mean_variance']:.4f} <= shap "
              f"{payload['shap_mean_variance']:.4f}")
    if not ok:  # report both vectors, per the claim's own terms
        detail += (f"; scores per-feature {payload['scores_rank_variance']} "
                   f"vs shap {payload['shap_rank_variance']}")
    check(ok, "criterion 8 (ranking stability)", detail)


# --- criterion 9: SHAP ground-truth agreement -------------------------------------------------------


def build_c9() -> dict:
    # criterion 3's seed-0 model (the one `train --hidden 8 --epochs 1000 --lr 0.001
    # --batch-size 64 --seed 0` writes, byte for byte), explained by the baseline
    get("c3", build_c3)
    with tempfile.TemporaryDirectory(prefix="shap-gt-") as tmp:
        tmp = Path(tmp)
        csv, model, out = gen_synth_n10(tmp), tmp / "model.json", tmp / "shap.json"
        CACHE["c3_seed0_model"].save(model)
        assert main(["shap", "--model", str(model), "--data", str(csv),
                     "--samples", "100", "--coalitions", "2048", "--seed", "0",
                     "--out", str(out)]) == 0
        sidecar = data.read_sidecar(csv.with_suffix(".sidecar.json"))
        return {"ranking": json.loads(out.read_text(encoding="utf-8"))["ranking"],
                "ground_truth": sidecar["ground_truth_importance"]}


def test_criterion_09_shap_recovers_ranking():
    payload = get("c9", build_c9)
    ranking = Ranking.from_dict(payload["ranking"])
    gt = Ranking(payload["ground_truth"], "ground-truth")
    top5 = one_indexed(ranking.order[:5])
    rel = one_indexed([i for i in ranking.order if gt.values[i] > 0])
    ok = top5 == RELEVANT_ONE_INDEXED and rel == RELEVANT_ONE_INDEXED
    check(ok, "criterion 9 (kernel SHAP ground-truth agreement)",
          f"full-enumeration SHAP top-5 {top5}, need {RELEVANT_ONE_INDEXED}")


# --- criterion 10: determinism ------------------------------------------------------------------------


def test_criterion_10_bit_identical_reruns():
    builders = {"c3": build_c3, "c4": build_c4, "c5": build_c5,
                "c6": build_c6, "c7": build_c7, "c8": build_c8}
    mismatched = []
    for name, builder in builders.items():
        first = canonical(strip_timing(get(name, builder)))
        second = canonical(strip_timing(builder()))
        if first != second:
            mismatched.append(name)
    ok = not mismatched
    check(ok, "criterion 10 (determinism)",
          "criteria 3-8 rebuilt from scratch, all result JSON byte-identical"
          if ok else f"non-reproducible payloads: {mismatched}")
