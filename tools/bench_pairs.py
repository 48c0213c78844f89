"""Run the benchmark on a parent commit and on the working tree in alternating
pairs, and summarise the end-to-end metrics of each side.

    python3 tools/bench_pairs.py --parent REV --pairs 10 --seed 11 \\
        --claim explain:shap_sampled_s_p50 --what "..." --out BENCH_name.json
    python3 tools/bench_pairs.py --compare BENCH_name.json [BENCH_other.json ...]

Run from anywhere inside the repository. The parent side runs ``bench/run.py``
from a ``git archive`` export of ``REV`` in a temporary directory, so it runs
the parent's own benchmark and source; the change side runs the working tree's.
Every workload in BENCHMARK.json runs ``--pairs`` pairs. Pair ``i`` uses seed
``--seed + i`` on both sides, the parent first in even-numbered pairs and the
change first in odd-numbered ones; every run is a fresh process of
BENCHMARK.json's ``run_seconds``.
After the pairs, one ``--trace 1`` run per side and workload at the first seed
records the per-layer metrics. The summary gives each side's median and
quartiles (``statistics.quantiles(n=4, method='inclusive')``), the change's
median over the parent's, the pairs each side wins (lower reads better unless
BENCHMARK.json says otherwise) and whether the change is worse than the
metric's bound. Each pair also compares the two sides' ``output_sha256`` maps
(the first output digest per operation kind, timing keys stripped); the BENCH
file records per workload and kind whether every pair's outputs were
identical, and any mismatch is printed. ``--compare`` prints those ratios and
mismatches from BENCH files already written, one line per file, workload and
metric or kind.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the files committed at ``rev`` into ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process in ``tree``; returns its info and result lines."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, check=True, capture_output=True, text=True)
    info, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return {"info": info, "result": result}


def _values(run: dict) -> dict:
    result = run["result"]
    return {"failed": result["failed"], "attempted": result["attempted"],
            **{name: round(m["value"], 6) for name, m in result["metrics"].items()}}


def digests_match(parent: dict, change: dict) -> dict[str, bool]:
    """Per operation kind in either ``output_sha256`` map, whether the two
    sides' digests are equal; a kind only one side ran reads False."""
    return {kind: parent.get(kind) == change.get(kind)
            for kind in sorted(parent.keys() | change.keys())}


def outputs_identical(pairs: list[dict]) -> dict:
    """Per workload and operation kind, whether every pair's outputs matched."""
    out: dict[str, dict[str, bool]] = {}
    for p in pairs:
        kinds = out.setdefault(p["workload"], {})
        for kind, same in p["outputs_identical"].items():
            kinds[kind] = kinds.get(kind, True) and same
    return out


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "iqr": round(q3 - q1, 6)}


def summarise(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric: both sides' quartiles, the median
    ratio, wins, and the bound check."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        rows = [p for p in pairs if p["workload"] == workload]
        out[workload] = {}
        for metric in end_to_end:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            parent = [p["parent"][name] for p in rows]
            change = [p["change"][name] for p in rows]
            ps, cs = _stats(parent), _stats(change)
            ratio = cs["median"] / ps["median"]
            out[workload][name] = {
                "parent": ps, "change": cs,
                "change_over_parent_median": round(ratio, 4),
                "parent_iqr_over_median": round(ps["iqr"] / ps["median"], 4),
                "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                "change_losses": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "pairs": len(rows),
                "gain_beyond_parent_iqr": sign * (ps["median"] - cs["median"]) > ps["iqr"],
                "bound": metric["bound"],
                "worse_than_bound": sign * (ratio - 1.0) > metric["bound"],
            }
    return out


def claim_met(summary: dict, workload: str, metric: str) -> bool:
    """The change wins at least nine tenths of the pairs, and its median is
    better than the parent's by more than the parent's IQR."""
    s = summary[workload][metric]
    return s["change_wins"] * 10 >= 9 * s["pairs"] and s["gain_beyond_parent_iqr"]


def compare(paths: list[str]) -> None:
    """Print change/parent median ratios, and the operation kinds whose
    outputs differed, from written BENCH files."""
    for path in paths:
        bench = json.loads(Path(path).read_text(encoding="utf-8"))
        for workload, kinds in bench.get("outputs_identical", {}).items():
            for kind in (k for k, same in kinds.items() if not same):
                print(f"{path} {workload} {kind}: OUTPUTS DIFFER")
        for workload, metrics in bench["summary"].items():
            for name, s in metrics.items():
                flag = "  WORSE THAN BOUND" if s["worse_than_bound"] else ""
                print(f"{path} {workload} {name}: parent {s['parent']['median']:.6g} "
                      f"change {s['change']['median']:.6g} "
                      f"ratio {s['change_over_parent_median']:.4f} "
                      f"wins {s['change_wins']}/{s['pairs']}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs="+", metavar="BENCH_JSON",
                        help="print the ratios of BENCH files and exit")
    parser.add_argument("--parent", help="commit to run as the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11, help="seed of the first pair")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    parser.add_argument("--what", default="", help="what the change does, for the record")
    parser.add_argument("--previous", help="the BENCH file this one follows")
    parser.add_argument("--out", help="BENCH file to write")
    args = parser.parse_args(argv)
    if args.compare:
        compare(args.compare)
        return 0
    if not (args.parent and args.out):
        parser.error("--parent and --out are required unless --compare is given")
    if args.pairs < 2:
        parser.error("quartiles need --pairs 2 or more")

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    parent_commit = _git("rev-parse", "--short", args.parent)
    pairs, traces, environment = [], [], None
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        export(parent_commit, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload in workloads:
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                runs = {side: bench_run(trees[side], workload, seed, seconds, 0)
                        for side in order}
                environment = environment or runs["change"]["info"]["environment"]
                same = digests_match(*(runs[side]["info"]["output_sha256"]
                                       for side in ("parent", "change")))
                pairs.append({"workload": workload, "seed": seed, "first": order[0],
                              **{side: _values(runs[side]) for side in ("parent", "change")},
                              "outputs_identical": same})
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{side} {pairs[-1][side]}" for side in order), file=sys.stderr)
                differ = [kind for kind, s in same.items() if not s]
                if differ:
                    print(f"{workload} seed {seed}: outputs differ for {', '.join(differ)}",
                          file=sys.stderr)
            for side in ("parent", "change"):
                traces.append({"workload": workload, "side": side, "seed": args.seed,
                               **_values(bench_run(trees[side], workload, args.seed,
                                                   seconds, 1))})

    summary = summarise(pairs, config["end_to_end"])
    record = {
        "what": args.what,
        "parent_commit": parent_commit,
        "change_tree": _git("rev-parse", "--short", "HEAD")
        + (" + uncommitted changes" if _git("status", "--porcelain", "--", "src", "bench") else ""),
        "command": f"python3 bench/run.py --workload WORKLOAD --seed SEED --seconds {seconds:g} "
                   "--trace 0",
        "protocol": f"{args.pairs} pairs per workload at seeds {args.seed}-"
                    f"{args.seed + args.pairs - 1}, each side a fresh process, the parent "
                    "first in even-numbered pairs; one --trace 1 run per side and workload "
                    f"at seed {args.seed}. The parent runs from a git archive export of "
                    "its commit, the change from the working tree.",
        "environment": environment,
        "previous_bench": args.previous,
        "summary": summary,
        "outputs_identical": outputs_identical(pairs),
        "trace": traces,
        "pairs": pairs,
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        record["claim"] = {"workload": workload, "metric": metric,
                           "rule": "change wins >= 9 of 10 pairs and its median is better "
                                   "than the parent's by more than the parent's IQR",
                           "met": claim_met(summary, workload, metric)}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    compare([args.out])
    return 0


if __name__ == "__main__":
    sys.exit(main())
