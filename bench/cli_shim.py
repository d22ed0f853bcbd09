"""Run the mdim CLI under the span tracer.

    python3 bench/cli_shim.py SPANS_FILE ARG...

behaves like ``python3 -m mdim.cli ARG...`` and also writes the spans of
the invocation to SPANS_FILE.  The cli workload uses it for its traced
passes.
"""

import sys

from spans import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import mdim.cli

    try:
        return mdim.cli.main(argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    raise SystemExit(main())
