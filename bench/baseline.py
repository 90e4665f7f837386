"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/baseline.py --workloads fixture,wide,evidence --seeds 1-10 \
        [--trace 0|1] [--out bench/baseline.json] [--compare bench/baseline.json]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
prints for every metric the median, the quartiles and the spread: the
distance between the quartiles as a share of the median, the figure the
metric's bound in BENCHMARK.json must cover. With ``--out`` the summary
is written as JSON together with the machine facts it was measured with.
``--compare`` prints how far each median moved from a summary written
earlier, and flags a move for the worse beyond the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(REPO / "src")]

from run import BLAS_THREADS, CAL_REF_S, HASH_SEED  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def dumps(doc: dict) -> str:
    """JSON with one metric per line, so a re-measured baseline diffs by metric."""
    head = json.dumps({k: v for k, v in doc.items() if k != "workloads"})
    lines = [head[:-1] + ', "workloads": {']
    for i, (workload, metrics) in enumerate(doc["workloads"].items()):
        lines.append(f" {json.dumps(workload)}: {{")
        lines += [f"  {json.dumps(k)}: {json.dumps(v)}," for k, v in metrics.items()]
        lines[-1] = lines[-1].rstrip(",")
        lines.append(" }," if i < len(doc["workloads"]) - 1 else " }")
    return "\n".join(lines + ["}}"]) + "\n"


def main() -> int:
    config = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary: dict[str, dict] = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        metrics: dict[str, dict] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / abs(med) if med else float("inf")
            metrics[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                             "spread": spread, "unit": results[0]["metrics"][name]["unit"]}
            bound = bounds.get(name) if not args.trace else None
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above a third of bound"
            print(f"{workload:<9} {name:<38} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f}{flag}")
        failed = sum(r["failed"] for r in results)
        print(f"{workload:<9} {len(results)} runs, {failed} failed checks or stages, "
              f"all correct: {all(r['correct'] for r in results)}")
        summary[workload] = metrics

    if args.out:
        doc = {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS, "hash_seed": HASH_SEED,
               "cal_ref_s": CAL_REF_S, "seeds": seeds, "run_seconds": args.seconds,
               "trace": args.trace, "workloads": summary}
        Path(args.out).write_text(dumps(doc), encoding="utf-8")
    if args.compare:
        compare(summary, json.loads(Path(args.compare).read_text(encoding="utf-8")), config)
    return 0


def compare(summary: dict, earlier: dict, config: dict) -> None:
    """Each median's move from an earlier summary, signed so that > 0 is worse."""
    metrics = {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}
    for workload, rows in summary.items():
        for name, row in rows.items():
            before = earlier["workloads"].get(workload, {}).get(name)
            if before is None or name not in metrics or not before["median"]:
                continue
            move = row["median"] / before["median"] - 1
            if metrics[name]["better"] == "higher":
                move = -move
            bound = metrics[name].get("bound")
            flag = "" if bound is None or move <= bound else "  <-- worse beyond bound"
            print(f"{workload:<9} {name:<38} {before['median']:<12.6g} -> "
                  f"{row['median']:<12.6g} worse by {move:+.4f}{flag}")


if __name__ == "__main__":
    sys.exit(main())
