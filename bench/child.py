"""One workload in one process: set up, run the timed passes, gate the answers.

run.py starts this script and reads the JSON object it prints as its last
line of standard output.  With --trace 1 the untraced passes are followed
by as many span-traced passes and, for workloads with memory metrics, one
pass under tracemalloc; end-to-end figures come from untraced passes only.

The machine is shared: each core on its own slows by a quarter or more,
for a second or so at a time.  run.py pins this process to as many cores
as the workload has threads, and a fixed calibration kernel runs on each
of them between ops and after set-up.  Each op's time is scaled by
CAL_REFERENCE_S over the kernel's mean time before and after it, and the
set-up time by the same ratio after it, which gives the time at a fixed
machine speed.  Raw times are returned beside the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer, child_counts, summarize
from workloads import WORKLOADS, Workload, gate

SRC = Path(__file__).resolve().parent.parent / "src"
# Per-layer metrics that only some workloads measure, outside the spans.
EXTRAS = ("search.subsets_examined", "cli.interpreter_s", "cli.import_s", "cli.import_numpy_s",
          "cli.exit_0", "cli.exit_1", "cli.exit_2")


CAL_REFERENCE_S = 0.02  # the calibration kernel's time on a 2-core 2.1 GHz Xeon in a quiet phase
_CAL_KEYS = np.random.default_rng(0).integers(0, 1 << 40, 1 << 18)


def calibrate() -> float:
    """Mean seconds, over the cores this process may use, of a fixed mix of numpy sorting
    and interpreted Python that shares no code with mdim."""
    cores = os.sched_getaffinity(0)
    times = []
    for core in sorted(cores):
        if len(cores) > 1:
            os.sched_setaffinity(0, {core})
        t0 = time.perf_counter()
        for _ in range(4):
            np.sort(_CAL_KEYS)
        total = 0
        for i in range(300_000):
            total += i & 7
        times.append(time.perf_counter() - t0)
    if len(cores) > 1:
        os.sched_setaffinity(0, cores)
    return sum(times) / len(times)


def scaled(seconds: float, cal: float) -> float:
    return seconds * CAL_REFERENCE_S / cal


def run_passes(wl: Workload, passes: int, record: list, tracer: Tracer | None = None) -> None:
    """Run the op list ``passes`` times; append (op, answer, seconds, calibration seconds) to record.

    An op's calibration is the mean of the kernel's times right before and right after it.
    """
    before = calibrate()
    for _ in range(passes):
        for op in wl.ops:
            if tracer is not None:
                tracer.op = len(record)
            t0 = time.perf_counter()
            try:
                answer = op.run()
            except Exception as exc:  # a failed op is counted by the gate, and the run goes on
                traceback.print_exc()
                answer = exc
            seconds = time.perf_counter() - t0
            after = calibrate()
            record.append((op, answer, seconds, (before + after) / 2))
            before = after


def traced_run(wl: Workload, passes: int, record: list, tracer: Tracer) -> None:
    wl.tracer = tracer
    tracer.install()
    try:
        run_passes(wl, passes, record, tracer)
    finally:
        tracer.uninstall()
        wl.tracer = None


def pass_walls(entries: list, ops: int) -> list[float]:
    """Scaled wall time of each pass: the sum of its ops' scaled times."""
    times = [scaled(seconds, cal) for _, _, seconds, cal in entries]
    return [sum(times[i:i + ops]) for i in range(0, len(times), ops)]


def layer_metrics(timing: list, memory: list, passes: int, extras: dict[str, float]) -> dict[str, float]:
    """Per-layer figures; counts and seconds are per traced pass of the op list."""
    t, m = summarize(timing), summarize(memory)

    def get(summary: dict, name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    out: dict[str, float] = {name: 0.0 for name in EXTRAS}
    for fn in ("resolve.is_resolving", "resolve.is_resolving_fast"):
        out[f"{fn}.calls"] = get(t, fn, "calls") / passes
        out[f"{fn}.self_s"] = get(t, fn, "self_s") / passes
        out[f"{fn}.ns_per_vertex"] = ratio(get(t, fn, "self_s"), get(t, fn, "vertices"), 1e9)
        out[f"{fn}.bytes_per_vertex"] = get(m, fn, "bytes_per_vertex")
    out["resolve.is_minimal.calls"] = get(t, "resolve.is_minimal", "calls") / passes
    out["resolve.is_minimal.self_s"] = get(t, "resolve.is_minimal", "self_s") / passes
    out["resolve.is_minimal.verifies_per_call"] = ratio(
        child_counts(timing, "resolve.is_minimal", "resolve.is_resolving_fast"), get(t, "resolve.is_minimal", "calls")
    )
    out["construct.product_chain_set.self_s"] = get(t, "construct.product_chain_set", "self_s") / passes
    search_fns = ("search.min_resolving_size", "search.find_all_min_sets")
    for fn in search_fns:
        out[f"{fn}.self_s"] = get(t, fn, "self_s") / passes
    out.update(extras)
    out["search.ns_per_subset"] = ratio(sum(out[f"{fn}.self_s"] for fn in search_fns), out["search.subsets_examined"], 1e9)
    out["search.peak_alloc_mib"] = max(get(m, fn, "peak_bytes") for fn in search_fns) / 2**20
    mains = [span[2] - span[1] for span in timing if span[0] == "cli.main"]
    out["cli.main_s"] = statistics.median(mains) if mains else 0.0
    out["graphs.load_graph_s"] = get(t, "graphs.load_graph", "total_s") / passes
    out["graphs.is_resolving_general.self_s"] = get(t, "graphs.is_resolving_general", "self_s") / passes
    out["graphs.bfs_distances.calls"] = get(t, "graphs.bfs_distances", "calls") / passes
    out["core.parse_landmarks.calls"] = get(t, "core.parse_landmarks", "calls") / passes
    out["core.parse_landmarks.s"] = get(t, "core.parse_landmarks", "total_s") / passes
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() when run.py started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.scale, Path(args.workdir))
    wl.setup()
    setup_s = time.monotonic() - args.spawned_at
    import mdim

    if not Path(mdim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"mdim was imported from {mdim.__file__}, not from {SRC}")
    setup_cal = calibrate()
    result: dict = {"setup_s": scaled(setup_s, setup_cal), "raw_setup_s": setup_s, "setup_cal_s": setup_cal}
    if not args.setup_only:
        record: list = []
        passes = max(1, args.passes // 2) if args.trace else args.passes
        run_passes(wl, passes, record)
        result["pass_wall_s"] = pass_walls(record, len(wl.ops))
        result["op_s"] = [scaled(seconds, cal) for _, _, seconds, cal in record]
        result["raw_op_s"] = [seconds for _, _, seconds, _ in record]
        result["cal_s"] = [cal for *_, cal in record]
        if args.trace:
            timing, memory = Tracer(), Tracer(wl.memory_spans)
            first_traced = len(record)
            traced_run(wl, passes, record, timing)
            traced_walls = pass_walls(record[first_traced:], len(wl.ops))
            traced = [(op, answer) for op, answer, *_ in record[first_traced:]]
            if wl.memory_spans:
                tracemalloc.start()
                try:
                    traced_run(wl, 1, record, memory)
                finally:
                    tracemalloc.stop()
            layers = layer_metrics(timing.spans, memory.spans, passes, wl.layer_extras(traced, passes))
            layers["trace_overhead_ratio"] = statistics.median(traced_walls) / statistics.median(result["pass_wall_s"]) - 1
            result["traced_pass_wall_s"] = traced_walls
            result["layers"] = layers
            if args.spans_out:
                timing.dump(args.spans_out)
        # Read before the gate: the references it computes must not set the high-water mark.
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024
        failures = gate(record)
        result["attempted"] = len(record)
        result["failed"] = len(failures)
        result["failures"] = failures[:20]
        result["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
