"""Smoke test of ``tools/report_digests.py`` at tiny sizes."""
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
                   "manifest/single-crlf-pareto"):
        assert any(name.startswith(prefix) for name in names), prefix
    assert list(tmp_path.iterdir()) == []  # its files went to a directory of its own
