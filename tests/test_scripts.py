"""The scripts under scripts/, run in-process with a patched sys.argv."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_noise_free_pipeline_recovers_the_gks_matrix(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "run_synthetic_pipeline.py", "--shots", "0")
    assert "GKS matrix relative error vs ground truth: 0.00%\n" in out


def test_reference_tables_print_the_fro_rows(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "reproduce_reference_tables.py")
    rows = [row.split() for row in out.split("\n\n")[0].splitlines()[2:]]
    assert [(row[0], row[-1]) for row in rows] == [
        ("20", "0.0636"), ("40", "0.0529"), ("80", "0.1276")]  # t (ns), reported fro
    assert all(len(row) == 6 for row in rows)


_SOURCE = '''"""A module docstring
on two lines."""

# a comment alone
x = 1  # code, with a comment
s = """a string literal
that is code"""


def f():
    """A function docstring."""
    return x
'''


def test_loc_counts_code_apart_from_blanks_comments_and_docstrings(monkeypatch, capsys):
    assert runpy.run_path(str(SCRIPTS / "loc.py"))["code_lines"](_SOURCE) == 5
    rows = [row.split() for row in run_script(monkeypatch, capsys, "loc.py").splitlines()[1:]]
    modules = sorted((SCRIPTS.parent / "src" / "nvqpt").glob("*.py"))
    assert [row[:2] for row in rows[:-1]] == [[p.name, str(p.read_text().count("\n"))]
                                             for p in modules]
    assert rows[-1] == ["total", *(str(sum(int(row[k]) for row in rows[:-1])) for k in (1, 2))]


_PARENT = [100.0 + k for k in range(10)]  # quartiles 102.25 and 106.75: IQR 4.5
_SPREAD = [60.0, 70.0, 80.0, 90.0, 100.0, 100.0, 110.0, 120.0, 130.0, 140.0]  # IQR 35


@pytest.mark.parametrize("better, bound, parent, change, verdict", [
    ("higher", 0.25, _PARENT, [x + 10 for x in _PARENT[:9]] + [_PARENT[9] - 1],
     "claim: better in 9 of 10 pairs, median gain 9 against the parent's IQR 4.5: holds"),
    ("higher", 0.25, _PARENT, [x + 10 for x in _PARENT[:8]] + [x - 1 for x in _PARENT[8:]],
     "claim: better in 8 of 10 pairs, median gain 8 against the parent's IQR 4.5: "
     "does not hold"),
    ("lower", 0.25, [100.0] * 10, [130.0] * 10,
     "bound: worse by +30.0% (bound 25%): BEYOND BOUND"),
    ("lower", 0.25, _SPREAD, [x + 5 for x in _SPREAD],
     "bound: worse by +5.0% (bound 25%): unresolved: the parent's IQR is wider than the bound"),
])
def test_bench_compare_verdicts(better, bound, parent, change, verdict):
    """bench.py's pair verdicts on synthetic 10-pair series: the 9-of-10 claim rule with its
    IQR margin, a median beyond the bound, and a parent spread too wide to tell."""
    compare = runpy.run_path(str(SCRIPTS / "bench.py"))["compare"]
    lines = [line.strip() for line in compare("m", better, bound, parent, change).splitlines()]
    assert verdict in lines
