"""Traced stand-in for the `fracsolve` console script.

    python bench/cli_shim.py SPANS_FILE [fracsolve arguments...]

Installs the benchmark's span wrappers, runs `fracsolve.cli.main` exactly as
the console script does, and writes the spans to SPANS_FILE on exit.
"""

import json
import sys

import tracing


def main():
    spans_file, sys.argv[1:] = sys.argv[1], sys.argv[2:]
    import fracsolve.cli
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        fracsolve.cli.main()
    finally:
        with open(spans_file, "w") as f:
            json.dump(tracer.export(), f)


if __name__ == "__main__":
    main()
