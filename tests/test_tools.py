"""Tests of the tools: ``tools/report_digests.py`` at tiny sizes, and ``tools/code_lines.py``."""
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"


def test_report_digests_prints_one_stable_line_per_named_report(tmp_path):
    runs = [subprocess.run([sys.executable, str(TOOL), "--seed", "2", "--tiny"], cwd=tmp_path,
                           capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    names = [line.split("  ")[1] for line in lines]
    assert len(set(names)) == len(names)
    assert names[0] == "manifest/multilabel.jsonl"  # the saved file the multi-label runs read
    for prefix in ("desk_sweep/", "mid_stage2/", "hidden/", "manifest/bce_ml",
                   "manifest/focal_bce_ml", "cosine", "mixup", "sam/sgd", "sam/adam",
                   "sampler/difficulty", "sampler/batch-above-cap",
                   "sampler/difficulty-short-last-draw", "stage2/ncm", "stage2/cosine_retrain",
                   "manifest/single-crlf-pareto", "manifest/single-integral"):
        assert any(name.startswith(prefix) for name in names), prefix
    assert names[-2:] == ["manifest/single-integral", "manifest/single-integral.jsonl"]
    assert list(tmp_path.iterdir()) == []  # its files went to a directory of its own


CODE_LINES = TOOL.with_name("code_lines.py")
SRC = TOOL.parents[1] / "src" / "longtail_lab"
FIXTURE = '''"""A module docstring

over three lines."""
import os  # a comment after code is code


# a comment line
def f(x):
    """One line."""
    text = """a string, not a docstring
# not a comment

"""
    "a second string statement is code"
    return x


class C:
    """Two
    lines."""
'''


def code_lines(*files):
    """The rows ``tools/code_lines.py`` prints for ``files``: {name: (code, docstring,
    comment, blank, lines)}."""
    out = subprocess.run([sys.executable, str(CODE_LINES), *map(str, files)],
                         capture_output=True, text=True, check=True).stdout
    header, *rows = out.splitlines()
    assert header.split() == ["code", "docstring", "comment", "blank", "lines", "file"]
    return {row.split()[-1]: tuple(int(v) for v in row.split()[:-1]) for row in rows}


def test_code_lines_counts_a_fixture_module_exactly(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    rows = code_lines(path)
    # code: lines 4, 8, 10-15, 18; docstring: 1-3, 9, 19-20; comment: 7; blank: 5-6, 16-17
    assert rows["fixture.py"] == (9, 6, 1, 4, 20)
    assert rows["total"] == rows["fixture.py"]


def test_code_lines_sum_to_each_modules_line_count():
    rows = code_lines()
    files = sorted(SRC.glob("*.py"))
    assert list(rows) == [path.name for path in files] + ["total"]
    for path in files:
        *counts, lines = rows[path.name]
        assert sum(counts) == lines == path.read_bytes().count(b"\n"), path.name
    assert rows["total"] == tuple(map(sum, zip(*(rows[path.name] for path in files))))
