"""Run one `nvqpt.cli` stage with the span tracer installed.

Usage: python perfbench/cli_stage.py SPANS.npz <cli arguments...>

Equivalent to `python -m nvqpt.cli <cli arguments...>`, except that the
traced functions record spans, written to SPANS.npz when the stage ends.
"""

import sys

import numpy as np

from nvqpt import cli

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        np.savez(spans_path, **tracer.arrays())
    return code


if __name__ == "__main__":
    sys.exit(main())
