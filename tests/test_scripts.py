"""The scripts under scripts/, run in-process with a patched sys.argv."""

import runpy
import sys
from pathlib import Path

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
