"""Self-test of the benchmark on tiny inputs (about a minute).

Usage: python3 perfbench/selftest.py   (from the repository root)

For every workload it runs the benchmark untraced and traced and asserts:
  - every metric named in BENCHMARK.json prints, by name, with its unit;
  - traced and untraced runs give identical quality numbers and evaluation
    counts, and the traced objective-call counts match the solvers' own;
  - spans nest inside their parents with every self time >= 0, and the self
    times of all spans of an item add up to the item's time.
Exits 0 when every check passes and 1 otherwise.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / "perfbench" / "out"
SEED = 5


def run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "4", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def check_printed(result: dict, stdout: str, declared: list[dict], label: str) -> None:
    names = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(names), f"{label}: metric names differ from BENCHMARK.json"
    for name, unit in names.items():
        assert result["metrics"][name]["unit"] == unit, f"{label}: {name} unit"
        line = re.search(rf"^metric {re.escape(name)} = (\S+) (\S+)", stdout, re.M)
        assert line and line.group(2) == unit, f"{label}: {name} not printed with {unit}"
        assert float(line.group(1)) == result["metrics"][name]["value"], f"{label}: {name} value"
    assert result["correct"] and result["failed"] == 0, f"{label}: {result}"


def check_trace(workload: str, untraced_report: dict) -> None:
    report = json.loads((OUT / f"report-{workload}-seed{SEED}-trace1.json").read_text())
    assert report["traced_identical"], f"{workload}: traced results differ from untraced"
    assert report["quality_traced"] == report["quality_untraced"], f"{workload}: quality"
    assert untraced_report["attempted"] >= untraced_report["inputs"], \
        f"{workload}: the timed run did not reach every input"
    assert report["quality_untraced"] == untraced_report["quality"], \
        f"{workload}: quality differs between the trace 0 and trace 1 runs"
    n = len(report["evaluations"]["cpfit"]) // 2
    cp = report["evaluations"]["cpfit"]
    assert cp[:n] == cp[n:], f"{workload}: cpfit evaluations differ traced vs untraced"
    metrics = report["metrics"]
    assert metrics["cpfit.evaluations"]["value"] == metrics["cpfit.deviation.calls"]["value"]
    assert metrics["lindblad.evaluations"]["value"] == metrics["lindblad.fit_objective.calls"]["value"]

    with np.load(OUT / f"spans-{workload}-seed{SEED}-trace1.npz") as f:
        spans = dict(f)
    errors = tracing.nesting_errors(spans)
    assert not errors, f"{workload}: {errors}"
    in_items = spans["item"] >= 0
    roots = in_items & (spans["parent"] < 0)
    item_ns = int(np.sum(spans["end"][roots] - spans["start"][roots]))
    self_ns = int(np.sum(tracing.self_times(spans)[in_items]))
    assert item_ns == self_ns, f"{workload}: self times {self_ns} != item time {item_ns}"
    assert np.all(spans["names"][spans["name"][roots]] == tracing.ITEM)


def main() -> int:
    failures = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        try:
            result, stdout = run(workload, 0)
            check_printed(result, stdout, SPEC["end_to_end"], f"{workload} trace 0")
            untraced = json.loads(
                (OUT / f"report-{workload}-seed{SEED}-trace0.json").read_text())
            result, stdout = run(workload, 1)
            check_printed(result, stdout, SPEC["per_layer"], f"{workload} trace 1")
            check_trace(workload, untraced)
            print(f"PASS {workload}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {workload}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
