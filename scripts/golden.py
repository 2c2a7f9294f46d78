#!/usr/bin/env python3
"""Golden outputs of the CLI chain and of the scripts, kept in tests/golden/.

For each of seeds 1-3 the chain

    simulate --shots 1000 --seed S, reconstruct --time 20, project,
    metrics --json, lindblad, ellipsoid --points 50

runs in-process through nvqpt.cli.main.  Every file a stage writes, each
stage's stdout and stderr and the exit codes are kept, as is the stdout of
reproduce_reference_tables.py and run_synthetic_pipeline.py run with their
defaults.  manifest.json records the Python, numpy and machine that wrote
them.  A comparison takes every number to within 1e-12 relative and all
other text exactly; where the manifest matches the environment it also
compares bytes.

Usage:
    PYTHONPATH=src python scripts/golden.py           # compare with tests/golden/
    PYTHONPATH=src python scripts/golden.py --write   # regenerate tests/golden/

A change that moves an output regenerates the files and says why.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import platform
import re
import runpy
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from nvqpt import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SEEDS = (1, 2, 3)
# each stage's argv after its name; {dir} is the seed's scratch directory
CHAIN = (
    ("simulate", "--shots 1000 --seed {seed} --out {dir}/record.json"),
    ("reconstruct", "{dir}/record.json --time 20 --out {dir}/raw.json"),
    ("project", "{dir}/raw.json --out {dir}/fixed.json"),
    ("metrics", "{dir}/raw.json {dir}/fixed.json --json"),
    ("lindblad", "{dir}/record.json --out {dir}/generator.json"),
    ("ellipsoid", "{dir}/fixed.json --points 50 --out {dir}/cloud.csv"),
)
SCRIPTS = ("reproduce_reference_tables.py", "run_synthetic_pipeline.py")
RTOL = 1e-12
# A decimal number that is not part of a word such as L1, p2 or chi_re.
NUMBER = re.compile(r"(?<![\w.])(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)(?!\w)")


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def _captured(fn):
    """fn()'s result, with what it wrote to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = fn()
    return result, out.getvalue(), err.getvalue()


def _run_script(name: str) -> None:
    argv, sys.argv = sys.argv, [name]
    try:
        runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")
    finally:
        sys.argv = argv


def collect(scratch: Path) -> dict[str, str]:
    """Every golden output, by its path under tests/golden/, with the chain's
    files written under scratch."""
    outputs = {}
    for seed in SEEDS:
        where = scratch / f"seed{seed}"
        where.mkdir()
        codes = {}
        for stage, argv in CHAIN:
            argv = [arg.format(seed=seed, dir=where) for arg in argv.split()]
            codes[stage], out, err = _captured(lambda: cli.main([stage, *argv]))
            outputs[f"seed{seed}/{stage}.stdout"] = out
            outputs[f"seed{seed}/{stage}.stderr"] = err
        outputs[f"seed{seed}/exit_codes.json"] = json.dumps(codes, indent=2) + "\n"
        for path in sorted(where.iterdir()):
            outputs[f"seed{seed}/{path.name}"] = path.read_bytes().decode()
    for name in SCRIPTS:
        outputs[f"scripts/{Path(name).stem}.stdout"] = _captured(lambda: _run_script(name))[1]
    return outputs


def read_golden() -> tuple[dict[str, str], dict]:
    """The golden outputs, by path, and the manifest."""
    files = {p.relative_to(GOLDEN).as_posix(): p.read_bytes().decode()
             for p in GOLDEN.rglob("*") if p.is_file()}
    return files, json.loads(files.pop("manifest.json"))


def differences(got: dict[str, str], want: dict[str, str], exact: bool) -> list[str]:
    """One line per output of got that is missing from want, extra, or
    different: in its text, in a number by more than RTOL relative or RTOL
    absolute, whichever is larger (so numbers below 1 in size compare to RTOL
    absolute), or, if exact, in its bytes.  A number or byte difference says
    how many numbers moved and the largest relative move."""
    lines = [f"{name}: missing" for name in sorted(want.keys() - got.keys())]
    lines += [f"{name}: not in the golden set" for name in sorted(got.keys() - want.keys())]
    for name in sorted(got.keys() & want.keys()):
        a, b = NUMBER.split(got[name]), NUMBER.split(want[name])
        if len(a) != len(b) or a[::2] != b[::2]:
            lines.append(f"{name}: text differs")
            continue
        pairs = [(x, y) for x, y in zip(a[1::2], b[1::2]) if x != y]
        moved = [(x, y) for x, y in pairs
                 if not math.isclose(float(x), float(y), rel_tol=RTOL, abs_tol=RTOL)]
        if moved:
            lines.append(f"{name}: {len(moved)} numbers differ, largest {_largest(moved):.2g} "
                         f"relative, first {moved[0][0]} against {moved[0][1]}")
        elif exact and pairs:
            lines.append(f"{name}: bytes differ, {len(pairs)} numbers moved, "
                         f"largest {_largest(pairs):.2g} relative")
    return lines


def _largest(pairs: list[tuple[str, str]]) -> float:
    """The largest |x - y| / max(|x|, |y|, RTOL) over pairs of decimal numbers."""
    return max(abs(float(x) - float(y)) / max(abs(float(x)), abs(float(y)), RTOL)
               for x, y in pairs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help="regenerate tests/golden/")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        got = collect(Path(scratch))
    if args.write:
        shutil.rmtree(GOLDEN, ignore_errors=True)
        got["manifest.json"] = json.dumps(environment(), indent=2) + "\n"
        for name, text in got.items():
            (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
            (GOLDEN / name).write_bytes(text.encode())
        print(f"wrote {len(got)} files to {GOLDEN.relative_to(ROOT)}")
        return
    want, manifest = read_golden()
    exact = manifest == environment()
    lines = differences(got, want, exact)
    print("\n".join(lines) or f"all {len(want)} outputs match "
          f"({'bytes' if exact else f'numbers to {RTOL:g}'})")
    sys.exit(1 if lines else 0)


if __name__ == "__main__":
    main()
