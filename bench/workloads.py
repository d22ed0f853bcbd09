"""The benchmark's four workloads.

Each workload turns a seed into a fixed list of ops.  An op is one timed
call into mdim (or, for ``cli``, one cold-start ``mdim`` process) that
returns a plain answer, plus a reference answer computed by another path
once the timing is over.  Ops call mdim through module attributes, so the
tracer's wrappers are seen when tracing is on.

Why these four:

* ``verify``  -- one-shot ``is_resolving`` at n = 20 (about 46 MiB, inside
  the 300 MiB L3) and n = 23 (about 370 MiB, beyond it); named families,
  a failing set with a known witness and seeded random sets.  Only
  ``resolve`` is busy.
* ``minimal`` -- ``is_minimal`` on two threads: many near-identical
  verifies through the level-bucketed verifier and its thread pool, plus
  ``product_chain_set`` builds.  A change that speeds a one-shot verify
  but costs repeated ones shows here.
* ``search``  -- the exhaustive search kernel: an early hit, four full
  strata with no hit, and a hit-heavy enumeration.
* ``cli``     -- cold ``mdim`` processes, where start-up and imports
  dominate; the only workload that reaches ``graphs`` and ``core``
  parsing.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Any, Callable

import oracle

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    expect: Callable[[], Any]
    confirm: Callable[[Any], str | None] | None = None


def gate(record: list[tuple]) -> list[str]:
    """Failure messages for a list of (op, answer, ...) entries; each op's reference is computed once."""
    expected: dict[int, Any] = {}
    failures = []
    for op, answer, *_ in record:
        if id(op) not in expected:
            expected[id(op)] = op.expect()
        if isinstance(answer, BaseException):
            message = f"{op.label}: raised {type(answer).__name__}: {answer}"
        elif answer != expected[id(op)]:
            message = f"{op.label}: got {_short(answer)}, expected {_short(expected[id(op)])}"
        else:
            message = op.confirm(answer) if op.confirm else None
        if message:
            failures.append(message)
    return failures


def _short(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


def _verdict(report) -> tuple[bool, tuple[int, int] | None, int]:
    return report.resolving, report.witness, report.vertices_checked


def _random_set(rng: random.Random, n: int, size: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(1 << n), size))


def _resolving_random_set(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random n-set that resolves Q^n, found with the same work for every seed.

    The first resolving draw of a fixed generator is translated by a seeded
    random vertex.  Translation is an automorphism of Q^n, so the set still
    resolves, and no seed makes set-up draw again.
    """
    fixed = random.Random(0)
    members = _random_set(fixed, n, n)
    while oracle.witness(n, members) is not None:
        members = _random_set(fixed, n, n)
    x = rng.randrange(1 << n)
    return tuple(s ^ x for s in members)


def _reference_verdict(S) -> tuple[bool, tuple[int, int] | None, int]:
    witness = oracle.witness(S.n, S.members)
    return witness is None, witness, 1 << S.n


class Workload:
    name = ""
    # About how long one pass of the op list takes on a 2-core Xeon.  A run
    # makes round(seconds / nominal_pass_s) passes: a fixed count, not a
    # timer, so the parent and the change run the same ops and percentiles
    # are taken over the same number of them.
    nominal_pass_s = 1.0
    memory_spans: tuple[str, ...] = ()
    threads = 1  # run.py gives the process this many cores

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        self.seed = seed
        self.tiny = scale == "tiny"
        self.workdir = workdir
        self.ops: list[Op] = []
        self.tracer = None

    def setup(self) -> None:
        raise NotImplementedError

    def layer_extras(self, traced: list[tuple[Op, Any]], passes: int) -> dict[str, float]:
        """Per-layer metrics the spans cannot give, from the traced passes' answers."""
        return {}


class Verify(Workload):
    name = "verify"
    nominal_pass_s = 12.0
    memory_spans = ("resolve.is_resolving",)

    def setup(self) -> None:
        import mdim.construct as construct
        import mdim.resolve as resolve
        from mdim.core import Landmarks

        builders = {
            "basis-minimal": construct.basis_minimal_set,
            "er-reduced": construct.reduced_erdos_renyi_set,
            "erdos-renyi": construct.erdos_renyi_set,
        }
        plan = [(8, tuple(builders), 2), (10, ("basis-minimal",), 1)] if self.tiny else [
            (20, tuple(builders), 4),
            (23, ("basis-minimal",), 1),
        ]
        rng = random.Random(self.seed)

        def add(label: str, S, expect: Callable[[], Any]) -> None:
            self.ops.append(Op(
                label,
                lambda: _verdict(resolve.is_resolving(S, threads=1)),
                expect,
                lambda answer: oracle.witness_error(S.n, S.members, answer[1]),
            ))

        for n, families, randoms in plan:
            size = 1 << n
            for name in families:
                add(f"{name} n={n}", builders[name](n), lambda size=size: (True, None, size))
            # {2..n} minus {j}: {1} and {j} both sit at distance 2 from every member
            j = rng.randrange(2, n + 1)
            failing = Landmarks(n, tuple(1 << (i - 1) for i in range(2, n + 1) if i != j))
            add(f"failing n={n} j={j}", failing, lambda size=size, j=j: (False, (1, 1 << (j - 1)), size))
            for r in range(randoms):
                S = Landmarks(n, _random_set(rng, n, n))
                add(f"random#{r} n={n}", S, lambda S=S: _reference_verdict(S))
        resolve.is_resolving(construct.basis_minimal_set(8))  # warm numpy's kernels


class Minimal(Workload):
    name = "minimal"
    nominal_pass_s = 6.0
    memory_spans = ("resolve.is_resolving_fast",)
    threads = 2

    def setup(self) -> None:
        import mdim.construct as construct
        import mdim.resolve as resolve
        from mdim.core import Landmarks

        basis_n, er_n, random_n = (8, 7, 6) if self.tiny else (20, 19, 18)
        members = _resolving_random_set(random.Random(self.seed), random_n)
        random_set = Landmarks(random_n, members)

        def minimal_op(label: str, S, expect: Callable[[], Any]) -> Op:
            def run():
                minimal, removable = resolve.is_minimal(S, threads=self.threads)
                return minimal, tuple(removable)

            return Op(label, run, expect)

        def random_expect():
            removable = oracle.removable(random_n, members)
            return not removable, removable

        def chain_op(n: int) -> Op:
            def run():
                S = construct.product_chain_set(n)
                return S.n, S.members

            return Op(f"product_chain_set n={n}", run, lambda: (n, oracle.er_q5_chain(n)))

        self.ops = [
            minimal_op(f"basis-minimal n={basis_n}", construct.basis_minimal_set(basis_n), lambda: (True, ())),
            minimal_op(
                f"erdos-renyi n={er_n}", construct.erdos_renyi_set(er_n), lambda: (False, ((1 << er_n) - 1,))
            ),
            minimal_op(f"random n={random_n}", random_set, random_expect),
            chain_op(basis_n),
            chain_op(er_n),
        ]
        resolve.is_minimal(construct.basis_minimal_set(8), threads=self.threads)  # warm the pool path


class Search(Workload):
    name = "search"
    nominal_pass_s = 5.0
    memory_spans = ("search.min_resolving_size", "search.find_all_min_sets")

    def setup(self) -> None:
        """The three searches are fixed; the seed does not change them."""
        import mdim.search as search

        plan = [("min", 4, None), ("min", 5, 3), ("all", 5, 4)] if self.tiny else [
            ("min", 6, None),  # early hit at k = 5
            ("min", 7, 4),  # four full strata, no hit
            ("all", 6, 5),  # every hit of one stratum
        ]
        references: dict[int, oracle.SearchReference] = {}
        self.enumerated: dict[str, int] = {}  # candidates a find_all op scans

        def reference(n: int) -> oracle.SearchReference:
            if n not in references:
                references[n] = oracle.SearchReference(n)
            return references[n]

        for kind, n, k in plan:
            if kind == "min":
                def run(n=n, k=k):
                    report = search.min_resolving_size(n, k, threads=1)
                    return report.min_size, report.exhaustive, report.example.members, report.subsets_examined

                self.ops.append(Op(
                    f"min_resolving_size n={n} max_k={k}", run,
                    lambda n=n, k=k: reference(n).min_search(k if k is not None else n),
                ))
            else:
                def run(n=n, k=k):
                    return tuple(S.members for S in search.find_all_min_sets(n, k, threads=1))

                label = f"find_all_min_sets n={n} k={k}"
                self.enumerated[label] = comb((1 << n) - 1, k - 1)
                self.ops.append(Op(label, run, lambda n=n, k=k: tuple(reference(n).hits(k))))
        for _, n, _ in plan:
            search.min_resolving_size(n, 1)  # builds the cached distance table

    def layer_extras(self, traced: list[tuple[Op, Any]], passes: int) -> dict[str, float]:
        subsets = 0
        for op, answer in traced:
            if isinstance(answer, BaseException):
                continue
            subsets += self.enumerated.get(op.label) or answer[3]
        return {"search.subsets_examined": subsets / passes}


def _binary(v: int, n: int) -> str:
    return "".join("1" if v >> i & 1 else "0" for i in range(n))


class Cli(Workload):
    name = "cli"
    nominal_pass_s = 1.5  # 13 passes of 8 ops: enough for a p90 tail
    probes = 5

    def setup(self) -> None:
        rng = random.Random(self.seed)
        verify_n, minimal_n, dimension_n, graph_n = (6, 5, 4, 6) if self.tiny else (10, 8, 5, 12)
        self.env = dict(os.environ, PYTHONPATH=str(BENCH_DIR.parent / "src"))
        self.env.pop("MDIM_THREADS", None)
        graph = self.workdir / f"q{graph_n}.txt"
        with open(graph, "w", encoding="utf-8") as fh:
            fh.write(f"# Q^{graph_n}: vertex v is adjacent to v ^ 2^i\np {1 << graph_n}\n")
            for v in range(1 << graph_n):
                fh.writelines(f"{v} {v ^ 1 << i}\n" for i in range(graph_n) if v < v ^ 1 << i)

        def text(n: int, members) -> str:
            return ",".join(_binary(v, n) for v in members)

        def op(label: str, argv: list[str], answer: Callable[[int, dict, str, str], Any], expect) -> None:
            def run():
                code, out, err = self._invoke(argv)
                record = json.loads(out) if out.strip() else {}
                return answer(code, record.get("result", {}), out, err)

            self.ops.append(Op(label, run, expect))

        def verdict(code, result, out, err):
            return code, result.get("resolving"), result.get("witness")

        good = _resolving_random_set(rng, verify_n)
        op("verify resolving", ["verify", "--n", str(verify_n), "--set", text(verify_n, good)], verdict,
           lambda: (0, True, None))
        bad = _random_set(rng, verify_n, 2)  # (n+1)^2 < 2^n vectors: cannot resolve
        op("verify failing", ["verify", "--n", str(verify_n), "--set", text(verify_n, bad)], verdict,
           lambda: (1, False, [_binary(v, verify_n) for v in oracle.witness(verify_n, bad)]))

        padded = _resolving_random_set(rng, minimal_n)

        def minimal_expect():
            removable = oracle.removable(minimal_n, padded)
            return 0, not removable, [_binary(v, minimal_n) for v in removable]

        op("minimal", ["minimal", "--n", str(minimal_n), "--set", text(minimal_n, padded)],
           lambda code, result, out, err: (code, result.get("minimal"), result.get("removable")),
           minimal_expect)

        name = rng.choice(("basis-minimal", "er-reduced", "erdos-renyi", "product-chain"))
        construct_n = rng.randrange(6, 13)
        op(f"construct {name}", ["construct", "--name", name, "--n", str(construct_n)],
           lambda code, result, out, err: (code, result.get("members")),
           lambda: (0, [_binary(v, construct_n) for v in oracle.family(name, construct_n)]))

        def dimension_expect():
            size, exhaustive, example, examined = oracle.SearchReference(dimension_n).min_search(dimension_n)
            return 0, size, exhaustive, [_binary(v, dimension_n) for v in example], examined

        op("dimension", ["dimension", "--n", str(dimension_n)],
           lambda code, result, out, err: (code, result.get("min_size"), result.get("exhaustive"),
                                           result.get("example"), result.get("subsets_examined")),
           dimension_expect)

        def graph_verdict(code, result, out, err):
            witness = result.get("witness")
            return code, result.get("resolving"), tuple(witness) if witness else None

        landmarks = _resolving_random_set(rng, graph_n)
        op("graph-verify resolving", ["graph-verify", "--graph", str(graph), "--landmarks", ",".join(map(str, landmarks))],
           graph_verdict, lambda: (0, True, None))
        few = _random_set(rng, graph_n, 3)
        op("graph-verify failing", ["graph-verify", "--graph", str(graph), "--landmarks", ",".join(map(str, few))],
           graph_verdict, lambda: (1, False, oracle.witness(graph_n, few)))

        broken = rng.randrange(len(good))
        tokens = [_binary(v, verify_n) for v in good]
        tokens[broken] = tokens[broken][:-1]
        op("malformed", ["verify", "--n", str(verify_n), "--set", ",".join(tokens)],
           lambda code, result, out, err: (code, out, f"landmark {broken + 1}:" in err),
           lambda: (2, "", True))

        self._invoke(["construct", "--list"])  # compiles bytecode, warms the page cache

    def _invoke(self, argv: list[str]) -> tuple[int, str, str]:
        if self.tracer is None:
            command = [sys.executable, "-m", "mdim.cli", *argv]
        else:
            spans_file = self.workdir / "cli-spans.json"
            command = [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(spans_file), *argv]
        proc = subprocess.run(command, env=self.env, capture_output=True, text=True, timeout=60)
        if self.tracer is not None:
            self._merge_spans(spans_file)
        return proc.returncode, proc.stdout, proc.stderr

    def _merge_spans(self, path: Path) -> None:
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)
        path.unlink()
        offset = len(self.tracer.spans)
        for span in spans:
            span[3] = None if span[3] is None else span[3] + offset
            span[4] = self.tracer.op
        self.tracer.spans.extend(spans)

    def layer_extras(self, traced: list[tuple[Op, Any]], passes: int) -> dict[str, float]:
        exits = [answer[0] for _, answer in traced if not isinstance(answer, BaseException)]
        extras = {f"cli.exit_{code}": exits.count(code) / passes for code in (0, 1, 2)}
        extras["cli.interpreter_s"] = statistics.median(
            self._wall([sys.executable, "-c", "pass"]) for _ in range(self.probes)
        )
        imports = [self._import_times() for _ in range(self.probes)]
        extras["cli.import_s"] = statistics.median(t["mdim.cli"] for t in imports)
        extras["cli.import_numpy_s"] = statistics.median(t["numpy"] for t in imports)
        return extras

    def _wall(self, command: list[str]) -> float:
        start = time.perf_counter()
        subprocess.run(command, env=self.env, capture_output=True, check=True, timeout=60)
        return time.perf_counter() - start

    def _import_times(self) -> dict[str, float]:
        """Cumulative import seconds per top-level module, from -X importtime."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mdim.cli"],
            env=self.env, capture_output=True, text=True, check=True, timeout=60,
        )
        times = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                times[fields[2].strip()] = int(fields[1]) / 1e6
        return times


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Verify, Minimal, Search, Cli)}
