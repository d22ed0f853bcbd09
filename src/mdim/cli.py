"""Command-line front end.

Every invocation prints exactly one JSON record on stdout:
{"schema_version": ..., "command": ..., "inputs": ..., "result": ..., "elapsed_ms": ...}
with stable key order, or a human-readable block behind --pretty.

Exit codes are a contract: 0 = the checked property holds (or the command
simply succeeded), 1 = the property fails (witness in the payload),
2 = usage or parse error.

Each cmd_* maps parsed arguments to (inputs, result, exit_code) and reads
no clock and prints nothing.  main alone times the command from just after
parsing, renders its one record under the command's name, and turns a
ValueError or OSError, from the command or the render, into exit 2 with
one line on stderr.  construct, dimension and graph-verify import their
library module inside the command, so their elapsed_ms includes that
first import.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .core import format_vertex, parse_landmarks
# resolve (and numpy with it) loads here even though only verify and minimal
# use it: the cli bench reads numpy's row from `-X importtime` of this module.
from .resolve import _minimality, is_resolving

SCHEMA_VERSION = "3"


def _render(args, inputs: dict, result: dict, elapsed_ms: int) -> str:
    if args.pretty:
        return "\n".join([
            f"command: {args.command}",
            *(f"  {key}: {value}" for key, value in inputs.items()),
            "result:",
            *(f"  {key}: {value}" for key, value in result.items()),
            f"elapsed_ms: {elapsed_ms}",
        ])
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "elapsed_ms": elapsed_ms,
    }
    return json.dumps(record, separators=(",", ":"))


def _fmt(vertices, n: int) -> list[str] | None:
    return None if vertices is None else [format_vertex(v, n) for v in vertices]


def _verdict(report, witness) -> tuple[dict, int]:
    result = {"resolving": report.resolving, "witness": witness, "vertices_checked": report.vertices_checked}
    return result, 0 if report.resolving else 1


def cmd_verify(args) -> tuple[dict, dict, int]:
    S = parse_landmarks(args.set, args.n)
    report = is_resolving(S)
    inputs = {"n": args.n, "set": _fmt(S.members, args.n)}
    return inputs, *_verdict(report, _fmt(report.witness, args.n))


def cmd_minimal(args) -> tuple[dict, dict, int]:
    S = parse_landmarks(args.set, args.n)
    witness, removable = _minimality(S)
    inputs = {"n": args.n, "set": _fmt(S.members, args.n)}
    result = {
        "resolving": witness is None,
        "witness": _fmt(witness, args.n),
        "minimal": None if witness else not removable,
        "removable": _fmt(removable, args.n),
    }
    return inputs, result, 0 if witness is None else 1


def cmd_construct(args) -> tuple[dict, dict, int]:
    from .construct import CATALOG, catalog_rows

    if args.list:
        if (args.name, args.n, args.k) != (None, None, None):
            raise ValueError("construct --list takes no --name, --n or --k")
        return {"name": None, "n": None, "k": None}, {"catalog": catalog_rows()}, 0
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
        "members": _fmt(S.members, S.n),
        "description": entry.description,
    }
    return inputs, result, 0


def cmd_dimension(args) -> tuple[dict, dict, int]:
    from .search import min_resolving_size

    report = min_resolving_size(args.n, max_k=args.max_k, force=args.force)
    inputs = {"n": args.n, "max_k": args.max_k, "force": bool(args.force)}
    result = {
        "min_size": report.min_size,
        "example": _fmt(report.example.members, args.n),
        "subsets_examined": report.subsets_examined,
        "exhaustive": report.exhaustive,
    }
    return inputs, result, 0


def cmd_graph_verify(args) -> tuple[dict, dict, int]:
    from .graphs import is_resolving_general, load_graph

    g = load_graph(args.graph)
    tokens = [tok.strip() for tok in args.landmarks.split(",")]
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ValueError(f"landmarks must be comma-separated vertex indices, got {args.landmarks!r}")
    landmarks = [int(tok) for tok in tokens]
    report = is_resolving_general(g, landmarks)
    inputs = {"graph": args.graph, "landmarks": landmarks}
    return inputs, *_verdict(report, list(report.witness) if report.witness else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdim",
        description="Resolving sets and metric dimension of hypercubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--pretty", action="store_true", help="human-readable output instead of JSON")

    p = sub.add_parser("verify", help="check whether a landmark set resolves Q^n")
    p.add_argument("--n", type=int, required=True, help="hypercube dimension")
    p.add_argument("--set", required=True,
                   help="comma-separated landmarks, binary ('01000') or set ('{2}') form")
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
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        inputs, result, code = args.func(args)
        elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
        print(_render(args, inputs, result, elapsed_ms))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
