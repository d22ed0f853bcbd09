"""Command-line front end.

Every invocation prints exactly one JSON record on stdout:
{"schema_version": ..., "command": ..., "inputs": ..., "result": ..., "elapsed_ms": ...}
with stable key order, or a human-readable block behind --pretty.

Exit codes are a contract: 0 = the checked property holds (or the command
simply succeeded), 1 = the property fails (witness in the payload),
2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .construct import CATALOG, catalog_rows
from .core import Landmarks, format_vertex, parse_landmarks
from .graphs import is_resolving_general, load_graph
from .resolve import is_minimal, is_resolving
from .search import min_resolving_size

SCHEMA_VERSION = "2"


def _emit(args, command: str, inputs: dict, result: dict, t0: float) -> None:
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    if args.pretty:
        print(f"command: {command}")
        for key, value in inputs.items():
            print(f"  {key}: {value}")
        print("result:")
        for key, value in result.items():
            print(f"  {key}: {value}")
        print(f"elapsed_ms: {elapsed_ms}")
        return
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
        "elapsed_ms": elapsed_ms,
    }
    print(json.dumps(record, separators=(",", ":")))


def _fmt_members(S: Landmarks) -> list[str]:
    return [format_vertex(v, S.n) for v in S.members]


def _fmt_witness(witness, n: int):
    if witness is None:
        return None
    return [format_vertex(witness[0], n), format_vertex(witness[1], n)]


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    S = parse_landmarks(args.set, args.n)
    report = is_resolving(S)
    inputs = {"n": args.n, "set": _fmt_members(S), "fast": bool(args.fast)}
    result = {
        "resolving": report.resolving,
        "witness": _fmt_witness(report.witness, args.n),
        "vertices_checked": report.vertices_checked,
    }
    _emit(args, "verify", inputs, result, t0)
    return 0 if report.resolving else 1


def cmd_minimal(args) -> int:
    t0 = time.perf_counter()
    S = parse_landmarks(args.set, args.n)
    report = is_resolving(S)
    inputs = {"n": args.n, "set": _fmt_members(S)}
    if not report.resolving:
        result = {
            "resolving": False,
            "witness": _fmt_witness(report.witness, args.n),
            "minimal": None,
            "removable": None,
        }
        _emit(args, "minimal", inputs, result, t0)
        return 1
    minimal, removable = is_minimal(S)
    result = {
        "resolving": True,
        "witness": None,
        "minimal": minimal,
        "removable": [format_vertex(v, args.n) for v in removable],
    }
    _emit(args, "minimal", inputs, result, t0)
    return 0


def cmd_construct(args) -> int:
    t0 = time.perf_counter()
    if args.list:
        inputs = {"name": None, "n": None, "k": None}
        _emit(args, "construct", inputs, {"catalog": catalog_rows()}, t0)
        return 0
    if not args.name:
        raise ValueError("construct needs --name or --list")
    entry = CATALOG.get(args.name)
    if entry is None:
        raise ValueError(f"unknown construction {args.name!r}; valid: {', '.join(sorted(CATALOG))}")
    S = entry.build(args.n, args.k)
    inputs = {"name": args.name, "n": args.n, "k": args.k}
    result = {
        "n": S.n,
        "size": len(S),
        "members": _fmt_members(S),
        "description": entry.description,
    }
    _emit(args, "construct", inputs, result, t0)
    return 0


def cmd_dimension(args) -> int:
    t0 = time.perf_counter()
    report = min_resolving_size(args.n, max_k=args.max_k, force=args.force)
    inputs = {"n": args.n, "max_k": args.max_k, "force": bool(args.force)}
    result = {
        "min_size": report.min_size,
        "example": _fmt_members(report.example),
        "subsets_examined": report.subsets_examined,
        "exhaustive": report.exhaustive,
    }
    _emit(args, "dimension", inputs, result, t0)
    return 0


def cmd_graph_verify(args) -> int:
    t0 = time.perf_counter()
    g = load_graph(args.graph)
    tokens = [tok.strip() for tok in args.landmarks.split(",")]
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ValueError(f"landmarks must be comma-separated vertex indices, got {args.landmarks!r}")
    landmarks = [int(tok) for tok in tokens]
    report = is_resolving_general(g, landmarks)
    inputs = {"graph": args.graph, "landmarks": landmarks}
    result = {
        "resolving": report.resolving,
        "witness": list(report.witness) if report.witness else None,
        "vertices_checked": report.vertices_checked,
    }
    _emit(args, "graph-verify", inputs, result, t0)
    return 0 if report.resolving else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdim",
        description="Resolving sets and metric dimension of hypercubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; changes nothing")
        p.add_argument("--pretty", action="store_true", help="human-readable output instead of JSON")

    p = sub.add_parser("verify", help="check whether a landmark set resolves Q^n")
    p.add_argument("--n", type=int, required=True, help="hypercube dimension")
    p.add_argument("--set", required=True,
                   help="comma-separated landmarks, binary ('01000') or set ('{2}') form")
    p.add_argument("--fast", action="store_true", help="kept for compatibility; runs the same verifier")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("minimal", help="list removable landmarks of a resolving set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True)
    add_common(p)
    p.set_defaults(func=cmd_minimal)

    p = sub.add_parser("construct", help="emit a named landmark-set construction")
    p.add_argument("--name", help="construction name (see --list)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="level (only for --name level)")
    p.add_argument("--list", action="store_true", help="dump the construction catalog")
    add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("dimension", help="exhaustive minimum resolving-set search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-k", dest="max_k", type=int, default=None,
                   help="largest size to try (default: n)")
    p.add_argument("--force", action="store_true", help="override the exhaustive-cost guard")
    add_common(p)
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("graph-verify", help="BFS resolving check on an edge-list graph file")
    p.add_argument("--graph", required=True, help="path to edge-list file ('p <count>' then 'u v' lines)")
    p.add_argument("--landmarks", required=True, help="comma-separated vertex indices")
    add_common(p)
    p.set_defaults(func=cmd_graph_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
