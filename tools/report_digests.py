"""Print one ``sha256  name`` line per ``run_experiment`` report of a fixed, named config set.

The first line is that of the multi-label manifest file the multi-label configs
train from, ``manifest/multilabel.jsonl``, as ``save_manifest`` wrote it. A
change that must keep every report and the saved manifest byte-identical runs
this on the parent tree and on the changed tree, at the same seed, and
compares the outputs:

    python3 tools/report_digests.py --seed 1 > digests.txt

The set, at ``--seed``: the bench's ``desk_sweep`` and ``mid_stage2`` configs
(``bench/workloads.py``); every loss kind with a hidden layer; cosine heads;
MixUp, SGD+SAM and Adam+SAM; every sampler kind, one epoch of it longer than a
fit draws at once; every stage-2 kind; the multi-label kinds trained from a
saved manifest; two edges of a fit's draw schedule, a batch above the draw
cap and difficulty epochs whose last draw is short; and a Pareto cut of a saved
single-label manifest, ``single-crlf.jsonl``, whose line breaks are rewritten as
``"\r\n"``. Last come a run from a saved single-label manifest whose features are
whole numbers, ``-0.0`` among them, and that file, ``manifest/single-integral.jsonl``.
``--tiny`` shrinks every dataset and epoch count, for a smoke test.

Reports and the manifest are written to a temporary directory that is removed
at the end, so nothing is written into the checkout. The configs name the
manifest by a path relative to that directory, which is the working directory
while they run: ``config_digest`` hashes the path, and it is the same in every
tree and every run.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import longtail_lab  # noqa: E402
import workloads  # noqa: E402  (bench/workloads.py)
from longtail_lab.losses import MULTI_LABEL_KINDS, SINGLE_LABEL_KINDS  # noqa: E402
from longtail_lab.samplers import SAMPLER_KINDS  # noqa: E402
from longtail_lab.training import _HEAD_FITS, MAX_DRAWN_ROWS, STAGE2_KINDS  # noqa: E402

MANIFEST = "multilabel.jsonl"  # relative to the working directory of the runs
SINGLE = "single-crlf.jsonl"  # a balanced synth draw, saved, its breaks rewritten as "\r\n"
INTEGRAL = "single-integral.jsonl"  # that draw, its features doubled and rounded to whole numbers


def named_configs(seed: int, tiny: bool) -> list[tuple[str, dict]]:
    """The (name, raw config) pairs, in print order."""
    entries = [(f"desk_sweep/{name}", raw) for name, raw in workloads._desk_configs(seed, tiny)]
    entries += [(f"mid_stage2/{name}", raw) for name, raw in workloads._mid_configs(seed, tiny)]
    synth = {"synth": {"num_classes": 5, "feature_dim": 6, "n0": 60 if tiny else 300,
                       "ratio": 10.0, "val_per_class": 10, "test_per_class": 20}}
    base = {"epochs": 2 if tiny else 4, "batch_size": 16 if tiny else 32,
            "optimizer": {"kind": "adam", "lr": 0.01}}
    own = []

    def entry(name, dataset=synth, **train):
        own.append((name, {"name": name, "dataset": dataset, "train": {**base, **train}}))

    for kind in SINGLE_LABEL_KINDS:
        entry(f"hidden/{kind}", hidden_dim=8, loss={"kind": kind})
    for kind in MULTI_LABEL_KINDS:
        entry(f"manifest/{kind}", dataset={"manifest": MANIFEST}, loss={"kind": kind})
        entry(f"manifest/{kind}-hidden", dataset={"manifest": MANIFEST}, hidden_dim=8,
              loss={"kind": kind})
    entry("cosine", classifier_kind="cosine", temperature=10.0)
    entry("cosine/hidden-class_balanced", classifier_kind="cosine", hidden_dim=8,
          sampler={"kind": "class_balanced"})
    entry("mixup", mixup={"enabled": True, "alpha": 0.4})
    entry("mixup/gcl-difficulty", mixup={"enabled": True, "alpha": 0.4}, loss={"kind": "gcl"},
          sampler={"kind": "difficulty"})
    sgd_sam = {"kind": "sgd", "lr": 0.05, "sam": True, "sam_rho": 0.05}
    adam_sam = {"kind": "adam", "lr": 0.01, "sam": True, "sam_rho": 0.05}
    entry("sam/sgd", optimizer=sgd_sam)
    entry("sam/adam", optimizer=adam_sam)
    entry("sam/adam-cosine-hidden", optimizer=adam_sam, classifier_kind="cosine", hidden_dim=8)
    entry("sam/sgd-seql-class_balanced", optimizer=sgd_sam, loss={"kind": "seql"},
          sampler={"kind": "class_balanced"})
    for kind in SAMPLER_KINDS:
        entry(f"sampler/{kind}", hidden_dim=8, sampler={"kind": kind})
    # an epoch of more indices than training.MAX_DRAWN_ROWS: its batches are drawn in chunks
    entry("sampler/long-epoch", epochs=1, batch_size=64,
          sampler={"kind": "class_balanced", "epoch_length": 20_000})
    for kind in STAGE2_KINDS:
        stage2 = {"kind": kind, **({"epochs": 2} if kind in _HEAD_FITS else {})}
        entry(f"stage2/{kind}", hidden_dim=8, stage2=stage2)
    for i, (_, raw) in enumerate(own):
        raw["seed"] = seed * len(own) + i
    # added after the seeds above, which they leave as they were: a batch above the draw
    # cap, drawn alone; and epochs of 11 batches drawn 8 at a time, the last draw short
    entry("sampler/batch-above-cap", epochs=2, batch_size=MAX_DRAWN_ROWS + 1,
          sampler={"kind": "class_balanced", "epoch_length": 2 * (MAX_DRAWN_ROWS + 1)})
    entry("sampler/difficulty-short-last-draw", batch_size=MAX_DRAWN_ROWS // 8,
          sampler={"kind": "difficulty", "epoch_length": 11 * (MAX_DRAWN_ROWS // 8)})
    # a single-label manifest read from a file and cut to a long tail
    entry("manifest/single-crlf-pareto", dataset={"manifest": SINGLE,
                                                  "pareto": {"n0": 40 if tiny else 200,
                                                             "ratio": 10.0}})
    # features that %.17g prints with neither a point nor an exponent
    entry("manifest/single-integral", dataset={"manifest": INTEGRAL})
    for _, raw in own[-4:]:
        raw["seed"] = seed
    return entries + own


def _digest_line(path: str, name: str) -> str:
    with open(path, "rb") as fh:
        return f"{hashlib.sha256(fh.read()).hexdigest()}  {name}"


def report_digests(seed: int, tiny: bool) -> list[str]:
    """The ``sha256  name`` lines; every run's files live and die in a temporary directory."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="report_digests_") as workdir:
        os.chdir(workdir)
        try:
            ml = (12, 8, 400) if tiny else (60, 16, 1200)  # labels, feature dim, records
            longtail_lab.save_manifest(workloads.multilabel_manifest(seed, *ml, 2.3), MANIFEST)
            lines = [_digest_line(MANIFEST, f"manifest/{MANIFEST}")]
            single = longtail_lab.synth_gaussian(5, 6, 60 if tiny else 300, 1.0, seed=seed,
                                                 val_per_class=10, test_per_class=20)
            longtail_lab.save_manifest(single, SINGLE)
            crlf = Path(SINGLE).read_bytes().replace(b"\n", b"\r\n")
            Path(SINGLE).write_bytes(crlf)
            features = np.round(2.0 * single.features)
            features[0, 0] = -0.0
            longtail_lab.save_manifest(dataclasses.replace(single, features=features), INTEGRAL)
            for i, (name, raw) in enumerate(named_configs(seed, tiny)):
                out = f"report-{i}.json"
                longtail_lab.run_experiment(longtail_lab.parse_config(raw), out_path=out)
                lines.append(_digest_line(out, name))
            lines.append(_digest_line(INTEGRAL, f"manifest/{INTEGRAL}"))
        finally:
            os.chdir(here)
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tiny", action="store_true", help="tiny datasets and epoch counts")
    args = parser.parse_args(argv)
    for line in report_digests(args.seed, args.tiny):
        print(line, flush=True)


if __name__ == "__main__":
    main()
