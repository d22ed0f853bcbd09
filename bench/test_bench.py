"""Tests of the benchmark itself: a tiny-size run of every workload, the
metric names it reports, and the correctness gate.  No wall-clock time is
asserted."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# The metrics the benchmark is specified to report, by workload-independent name.
END_TO_END = {"setup_s", "wall_s", "op_p50_s", "op_tail_s", "peak_rss_mib", "failed_ratio"}
PER_LAYER = {
    *(f"resolve.is_resolving.{m}" for m in ("calls", "self_s", "ns_per_vertex", "bytes_per_vertex")),
    *(f"resolve.is_resolving_fast.{m}" for m in ("calls", "self_s", "ns_per_vertex", "bytes_per_vertex")),
    *(f"resolve.is_minimal.{m}" for m in ("calls", "self_s", "verifies_per_call")),
    "construct.product_chain_set.self_s",
    "search.min_resolving_size.self_s",
    "search.find_all_min_sets.self_s",
    "search.subsets_examined",
    "search.ns_per_subset",
    "search.peak_alloc_mib",
    *(f"cli.{m}" for m in ("interpreter_s", "import_s", "import_numpy_s", "main_s", "exit_0", "exit_1", "exit_2")),
    "graphs.load_graph_s",
    "graphs.is_resolving_general.self_s",
    "graphs.bfs_distances.calls",
    "core.parse_landmarks.calls",
    "core.parse_landmarks.s",
    "trace_overhead_ratio",
}


def tiny_run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_spec_lists_every_specified_metric():
    assert {m["name"] for m in SPEC["end_to_end"]} | {"failed_ratio", "op_tail_s"} == END_TO_END
    assert {m["name"] for m in SPEC["per_layer"]} == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload):
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result, table = tiny_run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert result["metrics"] == {
            m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in listed
        }
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        if trace == 0:
            assert "\nop_tail_s " in table and "\nfailed_ratio " in table


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", ["verify", "minimal", "search"])
def test_gate_counts_an_injected_wrong_answer(workload, tmp_path):
    wl = workloads.WORKLOADS[workload](3, "tiny", tmp_path)
    wl.setup()
    record = [(op, op.run()) for op in wl.ops]
    assert workloads.gate(record) == []

    op, answer = record[0]
    wrong = (not answer[0],) + tuple(answer[1:])
    failures = workloads.gate([(op, wrong)] + record[1:])
    assert len(failures) == 1 and failures[0].startswith(op.label)
    crashed = workloads.gate(record + [(op, RuntimeError("boom"))])
    assert len(crashed) == 1 and "boom" in crashed[0]


def test_gate_confirms_witnesses_directly(tmp_path):
    wl = workloads.Verify(3, "tiny", tmp_path)
    wl.setup()
    op = next(op for op in wl.ops if op.label.startswith("failing"))
    resolving, witness, checked = op.run()
    assert op.confirm((resolving, witness, checked)) is None
    assert op.confirm((resolving, (witness[0], witness[1] + 1), checked)) is not None


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert run.tail([float(i) for i in range(1, 105)]) == (94.0, 100.0 * 94 / 104)
    assert run.tail([float(i) for i in range(1, 41)]) == (None, 75.0)
    assert run.tail([2.0, 1.0, 3.0]) == (None, 0.0)


def test_reference_witness_matches_brute_force():
    import random

    import oracle

    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 9)
        members = rng.sample(range(1 << n), rng.randrange(1, n + 1))
        vectors = [oracle.distance_vector(v, members) for v in range(1 << n)]
        pairs = [(u, v) for u in range(1 << n) for v in range(u + 1, 1 << n) if vectors[u] == vectors[v]]
        assert oracle.witness(n, members) == (min(pairs) if pairs else None)
