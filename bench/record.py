"""Record a baseline: every workload on several seeds, then one traced run each.

    python3 bench/record.py --seeds 1 2 3 4 5 6 7 8 9 10 --out bench/results/BENCH_<commit>.json

Runs bench/run.py for each seed and workload in turn (seed-major, so slow
phases of a shared machine spread over all workloads), prints every run's
metric table, and at the end the median of each end-to-end metric with its
spread: the distance between the first and third quartiles as a share of
the median, next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
    return json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]

    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in args.seeds:
        for w in names:
            runs[w].append(bench(w, seed, spec["run_seconds"], 0))
    summary: dict[str, dict] = {}
    for w in names:
        traced = bench(w, args.seeds[0], spec["run_seconds"], 1)
        entry = summary[w] = {
            "attempted": sum(r["attempted"] for r in runs[w]),
            "failed": sum(r["failed"] for r in runs[w]),
            "end_to_end": {},
            "per_layer": traced["metrics"],
        }
        tails = [r["reported"]["op_tail_s"]["value"] for r in runs[w]]
        extra = [{"name": "op_tail_s", "unit": "s", "bound": None}] if None not in tails else []
        for metric in spec["end_to_end"] + extra:
            values = [{**r["metrics"], **r["reported"]}[metric["name"]]["value"] for r in runs[w]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"], "values": values,
            }
        entry["op_tail"] = runs[w][0]["reported"]["op_tail_s"]["note"] + ("" if extra else ": below p90, not reported")

    print(f"\n{'workload':8s} {'metric':14s} {'median':>12s} {'unit':5s} {'spread':>7s} {'bound':>6s}")
    for w, entry in summary.items():
        for name, m in entry["end_to_end"].items():
            bound = "-" if m["bound"] is None else f"{m['bound']:.2f}"
            print(f"{w:8s} {name:14s} {m['median']:12.6g} {m['unit']:5s} {m['spread']:7.3f} {bound:>6s}")
        print(f"{w:8s} {'failed_ratio':14s} {entry['failed'] / entry['attempted']:12.6g} ratio "
              f"({entry['failed']} of {entry['attempted']} ops)")
    if args.out:
        first = runs[names[0]][0]
        record = {"machine": first["machine"], "run_seconds": spec["run_seconds"], "seeds": args.seeds,
                  "workloads": summary}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
