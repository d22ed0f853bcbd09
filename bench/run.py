"""mdim benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {verify,minimal,search,cli} --seed N --seconds S --trace {0,1}

Run from the repository root.  The workload runs in a child process
(child.py) against the sources in src/; nothing needs installing.  With
--trace 0 the set-up is repeated in further children and the median is
reported.  The output is a table of every metric with its unit, then, as
the last line, one JSON object with the keys correct, attempted, failed
and metrics; metric names and units are those listed in BENCHMARK.json.
The full record, machine and raw times included, is written to bench/out/.

Every time reported is scaled to a fixed machine speed by a calibration
kernel run between ops (see child.py); calibration_s, printed but not
gated, is the kernel's median time in this run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 7  # children that each time the set-up; setup_s is their median
DEADLINE_S = 170  # the whole run must end before this
TAIL_FLOOR = 90.0  # op_tail_s is reported only at this percentile or above


def _first_line(path: str, prefix: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine(numpy_version: str) -> dict[str, object]:
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as fh:
            l3 = fh.read().strip()
    except OSError:
        l3 = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total": _first_line("/proc/meminfo", "MemTotal"),
        "cpu": _first_line("/proc/cpuinfo", "model name"),
        "l3": l3,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def tail(latencies: list[float]) -> tuple[float | None, float]:
    """Latency at the highest percentile with at least ten ops beyond it, and that percentile.

    A percentile below TAIL_FLOOR is no tail; the latency is then None.
    """
    ordered = sorted(latencies)
    rank = len(ordered) - 10
    percentile = 100.0 * max(rank, 0) / len(ordered)
    return (ordered[rank - 1] if percentile >= TAIL_FLOOR else None), percentile


def spawn(args, workdir: Path, passes: int, deadline: float, cores: list[int], *extra: str) -> dict:
    # One malloc arena: with a second per-thread arena, minimal's peak RSS landed at
    # 76-78 or 85-87 MiB from run to run, depending on which thread allocated first.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MALLOC_ARENA_MAX="1")
    command = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
        "--passes", str(passes), "--trace", str(args.trace), "--workdir", str(workdir),
        "--spawned-at", repr(time.monotonic()), *extra,
    ]
    # A session of its own, so a child that overruns is killed with the processes it started.
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, cores))
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("verify", "minimal", "search", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time one run aims at")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: small inputs for smoke tests")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "mdim" / "__init__.py").is_file():
        print(f"error: no mdim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    passes = max(1, round(args.seconds / WORKLOADS[args.workload].nominal_pass_s))
    out_dir = BENCH / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # As many cores as the workload has threads, so that calibration runs where the ops do.
    cores = sorted(os.sched_getaffinity(0))[:WORKLOADS[args.workload].threads]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(spawn(args, workdir, passes, deadline, cores, "--setup-only")["setup_s"])
        child = spawn(args, workdir, passes, deadline, cores, "--spans-out", str(out_dir / f"spans-{stem}.json"))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(child["setup_s"])

    op_tail, percentile = tail(child["op_s"])
    ops = len(child["op_s"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(child["pass_wall_s"]),
        "op_p50_s": statistics.median(child["op_s"]),
        "peak_rss_mib": child["peak_rss_mib"],
    }
    values.update(child.get("layers", {}))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    # Printed and recorded but not in BENCHMARK.json: failed_ratio is 0 whenever the
    # run is correct, and the tail is an order statistic too noisy to gate on.  Where
    # the op list is too short for a tail, it prints as n/a.
    reported = {} if args.trace else {
        "op_tail_s": {"value": op_tail, "unit": "s", "note": f"p{percentile:.1f} of {ops} ops"},
        "failed_ratio": {"value": child["failed"] / child["attempted"], "unit": "ratio",
                         "note": f"{child['failed']} of {child['attempted']} ops"},
        "calibration_s": {"value": statistics.median(child["cal_s"]), "unit": "s",
                          "note": f"over {len(child['cal_s'])} ops; unscaled times are in the record"},
    }

    print(f"# mdim bench  workload={args.workload}  seed={args.seed}  trace={args.trace}  passes={passes}")
    info = machine(child["numpy"])
    print("# machine  " + "  ".join(f"{k}={v}" for k, v in info.items()))
    for name, metric in {**metrics, **reported}.items():
        value = "n/a" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{name:42s} {value:>16s} {metric['unit']:10s} {metric.get('note', '')}")
    for failure in child["failures"]:
        print(f"# FAILED {failure}")

    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, passes=passes,
                  machine=info, reported=reported, setup_runs_s=setups, child=child)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
