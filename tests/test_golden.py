"""The seed 1-3 CLI chain and both scripts against the files in tests/golden/.

scripts/golden.py runs the chain and compares; `--write` regenerates the
files after a change that moves an output on purpose.
"""

import runpy
from pathlib import Path

import pytest

golden = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "golden.py"))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(what the chain and scripts write now, the golden files, the manifest)."""
    return golden["collect"](tmp_path_factory.mktemp("golden")), *golden["read_golden"]()


def test_outputs_match_the_golden_numbers_and_text(outputs):
    got, want, _ = outputs
    assert golden["differences"](got, want, exact=False) == []


def test_outputs_match_the_golden_bytes(outputs):
    got, want, manifest = outputs
    if manifest != golden["environment"]():
        pytest.skip(f"written under {manifest}, not this environment")
    assert golden["differences"](got, want, exact=True) == []


@pytest.mark.parametrize("text, loose, exact", [
    ("L1 at 0.1 ns\n", [], []),
    ("L1 at 0.10000000000000002 ns\n", [],  # the last bit of 0.1
     ["a: bytes differ, 1 numbers moved, largest 1.4e-16 relative"]),
    ("L1 at 0.1000001 ns\n",
     ["a: 1 numbers differ, largest 1e-06 relative, first 0.1000001 against 0.1"],
     ["a: 1 numbers differ, largest 1e-06 relative, first 0.1000001 against 0.1"]),
    ("L2 at 0.1 ns\n", ["a: text differs"], ["a: text differs"]),  # a digit in a word is text
    ("L1 at 0.1 ns", ["a: text differs"], ["a: text differs"]),
])
def test_differences_tell_numbers_text_and_bytes_apart(text, loose, exact):
    differences = golden["differences"]
    want = {"a": "L1 at 0.1 ns\n"}
    assert differences({"a": text}, want, exact=False) == loose
    assert differences({"a": text}, want, exact=True) == exact
    assert differences({"b": text}, want, exact=False) == ["a: missing",
                                                           "b: not in the golden set"]


def test_differences_give_the_count_and_the_largest_move():
    # the first move is not the largest; a move within RTOL is not counted
    want = {"a": "0.1 ns, 4 s, 7 m\n"}
    got = {"a": "0.1000001 ns, 4.00001 s, 7.000000000000001 m\n"}
    expected = ["a: 2 numbers differ, largest 2.5e-06 relative, first 0.1000001 against 0.1"]
    assert golden["differences"](got, want, exact=False) == expected
    assert golden["differences"](got, want, exact=True) == expected
