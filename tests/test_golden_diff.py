"""Tests of tools/golden_diff.py on small hand-written corpora."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden_diff.py"

TRACE = "iter,loss,stable_rank\n0,1.0,nan\n10,0.5,2.0\n"
MATRIX = "rows,cols\n2,2\n1.0,2.0\n3.0,4.0\n"
SIDECAR = '{\n  "final_loss": 0.5,\n  "method": "lora"\n}\n'


def _corpus(root: Path, trace=TRACE, matrix=MATRIX, sidecar=SIDECAR) -> Path:
    (root / "run" / "checkpoint").mkdir(parents=True)
    (root / "run" / "lora.csv").write_text(trace)
    (root / "run" / "lora.json").write_text(sidecar)
    (root / "run" / "checkpoint" / "Z1.csv").write_text(matrix)
    return root


def _diff(old: Path, new: Path):
    proc = subprocess.run([sys.executable, str(TOOL), str(old), str(new)], capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_reports_the_largest_relative_change_per_column_and_matrix(tmp_path):
    old = _corpus(tmp_path / "old")
    new = _corpus(tmp_path / "new", trace=TRACE.replace("2.0\n", "2.000000000000001\n"),
                  matrix=MATRIX.replace("4.0", "4.4"))
    code, out = _diff(old, new)
    assert code == 0
    lines = out.splitlines()
    assert lines[:4] == [
        "run/checkpoint/Z1.csv",
        "  matrix Z1: 1 changed, largest relative change 0.0909",
        "run/lora.csv",
        "  stable_rank: 1 changed, largest relative change 4.44e-16",
    ]
    assert lines[4] == "byte-identical (1): run/lora.json"


@pytest.mark.parametrize("old, new", [("nan", "1.5"), ("inf", "1.5"), ("-inf", "inf")])
def test_nan_or_infinity_against_another_number_is_an_infinite_change(tmp_path, old, new):
    code, out = _diff(_corpus(tmp_path / "old", trace=TRACE.replace("nan", old)),
                      _corpus(tmp_path / "new", trace=TRACE.replace("nan", new)))
    assert code == 0
    assert "  stable_rank: 1 changed, largest relative change inf" in out.splitlines()


def test_token_count_change_or_missing_file_exits_nonzero(tmp_path):
    old = _corpus(tmp_path / "old")
    code, out = _diff(old, _corpus(tmp_path / "longer", trace=TRACE + "20,0.25,2.5\n"))
    assert code == 1
    assert "  token counts differ: 9 vs 12" in out.splitlines()
    missing = _corpus(tmp_path / "missing")
    (missing / "run" / "lora.json").unlink()
    code, out = _diff(old, missing)
    assert code == 1
    assert out.splitlines()[-1] == "only in OLD (1): run/lora.json"
