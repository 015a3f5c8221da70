import hashlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtail_lab import (Manifest, ManifestFormatError, SynthSpec, compute_distribution,
                          load_manifest, pareto_targets, run_sweep,
                          save_manifest, subsample_longtail, synth_gaussian)
from longtail_lab import manifest as manifest_module
from longtail_lab import model as model_module

from conftest import blob_manifest, multilabel_manifest, traced_peak


class TestSubsampleLongtail:
    def test_noop_keeps_same_records(self, tiny_manifest):
        counts = np.bincount(tiny_manifest.labels[tiny_manifest.split_indices("train")],
                             minlength=3)
        out = subsample_longtail(tiny_manifest, counts, seed=1)
        assert set(out.ids) == set(tiny_manifest.ids)

    def test_exact_target_counts(self):
        manifest = blob_manifest([50, 50, 50])
        out = subsample_longtail(manifest, [50, 5, 1], seed=3)
        dist = compute_distribution(out.labels[out.split_indices("train")], 3)
        assert dist.counts.tolist() == [50, 5, 1]
        # val/test untouched
        assert out.split_indices("val").size == manifest.split_indices("val").size
        assert out.split_indices("test").size == manifest.split_indices("test").size

    def test_subset_keeps_its_new_splits_read_only_without_a_copy(self, monkeypatch,
                                                                    tiny_manifest):
        given, post_init = [], Manifest.__post_init__

        def recording_post_init(self):
            given.append(self.splits)
            post_init(self)

        monkeypatch.setattr(Manifest, "__post_init__", recording_post_init)
        idx = [0, 3, 40, 41, 60]
        out = tiny_manifest.subset(idx)
        assert out.splits is given[-1] and not out.splits.flags.writeable
        assert out.splits.tolist() == tiny_manifest.splits[idx].tolist()

    def test_subsample_records_are_the_source_records(self):
        manifest = blob_manifest([50, 50, 50])
        out = subsample_longtail(manifest, [50, 5, 1], seed=3)
        at = {rid: i for i, rid in enumerate(manifest.ids)}
        idx = [at[rid] for rid in out.ids]
        assert out.splits.dtype == "U8" and not out.splits.flags.writeable
        assert out.splits.tolist() == manifest.splits[idx].tolist()
        assert out.features.tobytes() == manifest.features[idx].tobytes()
        assert np.array_equal(out.labels, manifest.labels[idx])

    def test_deterministic(self, tiny_manifest):
        a = subsample_longtail(tiny_manifest, [10, 5, 2], seed=11)
        b = subsample_longtail(tiny_manifest, [10, 5, 2], seed=11)
        assert a.ids == b.ids
        c = subsample_longtail(tiny_manifest, [10, 5, 2], seed=12)
        assert a.ids != c.ids

    def test_shortfall_names_class(self, tiny_manifest):
        with pytest.raises(ValueError, match="class 2 has 5 train records, 9 requested"):
            subsample_longtail(tiny_manifest, [10, 5, 9], seed=0)

    def test_multilabel_rejected(self):
        with pytest.raises(ValueError, match="single-label only"):
            subsample_longtail(multilabel_manifest(), [5, 5, 5], seed=0)

    def test_compose_with_pareto_targets(self):
        manifest = blob_manifest([100, 100, 100], feature_dim=4)
        targets = pareto_targets(100, 3, 100)
        out = subsample_longtail(manifest, targets, seed=0)
        dist = out.train_distribution()
        assert dist.counts.tolist() == targets.tolist()


class TestSynthGaussian:
    @pytest.mark.parametrize("name", ["ratio", "class_separation"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_ratio_or_separation_refused_by_name(self, name, value):
        message = f"^{name} must be a finite number, got {value}$"
        with pytest.raises(ValueError, match=message):
            synth_gaussian(**{"num_classes": 3, "feature_dim": 4, "n0": 20, "ratio": 4.0,
                              name: value})
        with pytest.raises(ValueError, match=message):
            SynthSpec(**{name: value})

    def test_balanced_two_blobs(self):
        m = synth_gaussian(2, 4, 50, 1, seed=0, val_per_class=10, test_per_class=10)
        dist = m.train_distribution()
        assert dist.counts.tolist() == [50, 50]

    def test_deterministic_bit_identical(self, tmp_path):
        a, b = (synth_gaussian(4, 6, 100, 20, seed=5) for _ in range(2))
        assert np.array_equal(a.features, b.features)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_manifest(a, pa)
        save_manifest(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_counts_follow_pareto_oracle(self):
        m = synth_gaussian(10, 16, 1000, 100, seed=0)
        dist = m.train_distribution()
        assert dist.counts.tolist() == pareto_targets(1000, 10, 100).tolist()
        assert np.count_nonzero(m.splits == "val") == 10 * 100
        assert np.count_nonzero(m.splits == "test") == 10 * 100

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synth_gaussian(1, 4, 100, 10)
        with pytest.raises(ValueError):
            synth_gaussian(3, 1, 100, 10)

    @settings(max_examples=60, deadline=None)
    @given(num_classes=st.integers(2, 12), feature_dim=st.integers(2, 9), n0=st.integers(1, 300),
           ratio=st.floats(1.0, 200.0), separation=st.floats(0.0, 30.0),
           seed=st.integers(0, 2 ** 64), val=st.integers(1, 20), test=st.integers(1, 20))
    def test_one_draw_equals_class_by_class_draws(self, num_classes, feature_dim, n0, ratio,
                                                  separation, seed, val, test):
        args = (num_classes, feature_dim, n0, ratio, separation, seed, val, test)
        got, expected = synth_gaussian(*args), reference_synth(*args)
        assert got.ids == expected.ids
        assert got.features.tobytes() == expected.features.tobytes()
        assert got.labels.tobytes() == expected.labels.tobytes()
        assert got.splits.tolist() == expected.splits.tolist()

    def test_alternating_layouts_and_seeds_equal_reference(self):
        layouts = [(5, 3, 40, 10.0, 2.0), (7, 4, 30, 5.0, 3.0)]
        for seed in (0, 1, 2):
            for layout in layouts:  # each call replaces the kept layout of the one before
                args = (*layout, seed, 6, 4)
                got, expected = synth_gaussian(*args), reference_synth(*args)
                assert got.ids == expected.ids
                assert got.features.tobytes() == expected.features.tobytes()
                assert got.labels.tobytes() == expected.labels.tobytes()
                assert got.splits.tolist() == expected.splits.tolist()

    def test_ids_are_built_once_per_layout(self):
        first = synth_gaussian(4, 3, 50, 10.0, seed=0)
        assert synth_gaussian(4, 3, 50, 10.0, seed=1).ids is first.ids
        assert synth_gaussian(4, 3, 50, 10.0, seed=0, val_per_class=99).ids is not first.ids

    def test_peak_memory_below_features_plus_1mb(self):
        spec = dict(num_classes=100, feature_dim=64, n0=250, ratio=100.0,
                    class_separation=30.0, val_per_class=10, test_per_class=30)
        synth_gaussian(**spec, seed=1)  # keeps the layout's ids, and does numpy's lazy imports
        manifest, peak = traced_peak(synth_gaussian, **spec, seed=2)
        assert peak < manifest.features.nbytes + 2 ** 20


def reference_synth(num_classes, feature_dim, n0, ratio, class_separation, seed,
                    val_per_class, test_per_class):
    """``synth_gaussian`` drawn class by class: one normal draw per (split, class)."""
    targets = pareto_targets(n0, num_classes, ratio)
    means = np.zeros((num_classes, feature_dim))
    angles = 2.0 * math.pi * np.arange(num_classes) / num_classes
    means[:, 0] = class_separation * np.cos(angles)
    means[:, 1] = class_separation * np.sin(angles)
    rng = np.random.default_rng(seed)
    ids, rows, labels, splits = [], [], [], []
    for split, counts in (("train", targets), ("val", [val_per_class] * num_classes),
                          ("test", [test_per_class] * num_classes)):
        for c in range(num_classes):
            n = int(counts[c])
            rows.append(means[c] + rng.standard_normal((n, feature_dim)))
            labels.extend([c] * n)
            splits.extend([split] * n)
            ids.extend(f"{split}-{c}-{i}" for i in range(n))
    return Manifest(ids=tuple(ids), features=np.concatenate(rows, axis=0),
                    labels=np.asarray(labels, dtype=np.int64), splits=np.asarray(splits),
                    num_classes=num_classes, feature_dim=feature_dim, task_kind="single")


class TestManifestIO:
    def test_round_trip_single(self, tiny_manifest, tmp_path):
        path = tmp_path / "m.jsonl"
        save_manifest(tiny_manifest, path)
        loaded = load_manifest(path)
        assert loaded.ids == tiny_manifest.ids
        assert np.array_equal(loaded.features, tiny_manifest.features)
        assert np.array_equal(loaded.labels, tiny_manifest.labels)
        assert loaded.task_kind == "single"

    def test_round_trip_multi(self, tmp_path):
        m = multilabel_manifest()
        path = tmp_path / "ml.jsonl"
        save_manifest(m, path)
        loaded = load_manifest(path)
        assert np.array_equal(loaded.labels, m.labels)
        assert loaded.task_kind == "multi"

    def _write(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_rejects_wrong_feature_length(self, tmp_path):
        path = self._write(tmp_path, [
            '{"num_classes": 2, "feature_dim": 3, "task": "single"}',
            '{"id": "a", "features": [1.0, 2.0], "label": 0, "split": "train"}',
        ])
        with pytest.raises(ManifestFormatError, match="3 numbers"):
            load_manifest(path)

    def test_rejects_label_out_of_range(self, tmp_path):
        path = self._write(tmp_path, [
            '{"num_classes": 2, "feature_dim": 2, "task": "single"}',
            '{"id": "a", "features": [1.0, 2.0], "label": 5, "split": "train"}',
        ])
        with pytest.raises(ManifestFormatError):
            load_manifest(path)

    def test_rejects_bad_split(self, tmp_path):
        path = self._write(tmp_path, [
            '{"num_classes": 2, "feature_dim": 2, "task": "single"}',
            '{"id": "a", "features": [1.0, 2.0], "label": 0, "split": "dev"}',
        ])
        with pytest.raises(ManifestFormatError):
            load_manifest(path)

    def test_rejects_unknown_record_key(self, tmp_path):
        path = self._write(tmp_path, [
            '{"num_classes": 2, "feature_dim": 2, "task": "single"}',
            '{"id": "a", "features": [1.0, 2.0], "label": 0, "split": "train", "extra": 1}',
        ])
        with pytest.raises(ManifestFormatError):
            load_manifest(path)

    def test_rejects_multilabel_record_in_single_task(self, tmp_path):
        path = self._write(tmp_path, [
            '{"num_classes": 2, "feature_dim": 2, "task": "single"}',
            '{"id": "a", "features": [1.0, 2.0], "labels": [1, 0], "split": "train"}',
        ])
        with pytest.raises(ManifestFormatError):
            load_manifest(path)

    def test_rejects_missing_header(self, tmp_path):
        path = self._write(tmp_path, [
            '{"id": "a", "features": [1.0, 2.0], "label": 0, "split": "train"}',
        ])
        with pytest.raises(ManifestFormatError):
            load_manifest(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = self._write(tmp_path, [
            '{"num_classes": 2, "feature_dim": 2, "task": "single"}',
            "not json",
        ])
        with pytest.raises(ManifestFormatError, match="line 2"):
            load_manifest(path)

    def test_crlf_line_ends_load_bitwise_equal(self, tiny_manifest, tmp_path):
        path, crlf = tmp_path / "m.jsonl", tmp_path / "crlf.jsonl"
        save_manifest(tiny_manifest, path)
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert _outcome(load_manifest, crlf) == _outcome(load_manifest, path)

    @pytest.mark.parametrize("line_end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("bad_line", [1, 3])
    def test_rejects_non_utf8_naming_line(self, tmp_path, line_end, bad_line):
        lines = [b'{"num_classes": 2, "feature_dim": 2, "task": "single"}',
                 b'{"id": "a", "features": [1.0, 2.0], "label": 0, "split": "train"}',
                 b'{"id": "b", "features": [1.0, 2.0], "label": 1, "split": "train"}']
        lines[bad_line - 1] = lines[bad_line - 1].replace(b'"', b'"\xff', 1)
        path = tmp_path / "m.jsonl"
        path.write_bytes(line_end.join(lines) + line_end)
        with pytest.raises(ManifestFormatError, match=f"^line {bad_line}: not valid UTF-8$"):
            load_manifest(path)

    def test_splits_partition_records(self, tiny_manifest):
        n = len(tiny_manifest)
        total = sum(tiny_manifest.split_indices(s).size for s in ("train", "val", "test"))
        assert total == n


class TestDuplicateIds:
    def test_manifest_rejects_duplicate_id(self):
        with pytest.raises(ValueError, match="duplicate id 'a'"):
            Manifest(ids=("a", "b", "a"), features=np.zeros((3, 2)), labels=np.array([0, 1, 0]),
                     splits=np.array(["train"] * 3), num_classes=2, feature_dim=2,
                     task_kind="single")

    def test_load_rejects_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text("\n".join([
            '{"num_classes": 2, "feature_dim": 2, "task": "single"}',
            '{"id": "a", "features": [1.0, 2.0], "label": 0, "split": "train"}',
            '{"id": "a", "features": [3.0, 4.0], "label": 1, "split": "test"}',
        ]) + "\n")
        with pytest.raises(ManifestFormatError, match="duplicate id 'a'"):
            load_manifest(path)

    def test_load_names_line_of_repeated_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text("\n".join([
            '{"num_classes": 2, "feature_dim": 2, "task": "single"}',
            '{"id": "a", "features": [1.0, 2.0], "label": 0, "split": "train"}',
            '{"id": "b", "features": [1.0, 2.0], "label": 0, "split": "train"}',
            "",
            '{"id": "b", "features": [3.0, 4.0], "label": 1, "split": "test"}',
            '{"id": "a", "features": [3.0, 4.0], "label": 1, "split": "test"}',
        ]) + "\n")
        with pytest.raises(ManifestFormatError,
                           match=r"^line 5: duplicate id 'b' \(first on line 3\)$"):
            load_manifest(path)


def _single(ids, splits=None):
    n = len(ids)
    return Manifest(ids=ids, features=np.zeros((n, 2)), labels=np.zeros(n, dtype=np.int64),
                    splits=["train"] * n if splits is None else splits, num_classes=2,
                    feature_dim=2, task_kind="single")


class TestIdsAndSplits:
    @pytest.mark.parametrize("ids, at", [((1, 2, 3), 0), (("a", b"b", "c"), 1),
                                         (("a", "b", None), 2), (["a", ["b"], "c"], 1)])
    def test_non_string_id_refused_naming_its_position(self, ids, at):
        with pytest.raises(ValueError, match=f"^id at position {at} must be a string"):
            _single(ids)

    def test_ids_list_stored_as_tuple(self):
        assert _single(["a", "b"]).ids == ("a", "b")

    def test_bad_ids_refused_right_after_a_valid_construction(self, tmp_path):
        path = tmp_path / "m.jsonl"
        save_manifest(blob_manifest([6, 4]), path)
        for valid in (lambda: _single(("a", "b", "c")), lambda: synth_gaussian(3, 2, 20, 4.0),
                      lambda: load_manifest(path)):
            ids = valid().ids
            with pytest.raises(ValueError, match="duplicate id"):
                _single(ids[:-1] + ids[:1])
            with pytest.raises(ValueError, match="must be a string"):
                _single(ids[:-1] + (7,))
            assert _single(tuple(ids)).ids is ids  # tuple() of a tuple is the same object

    @pytest.mark.parametrize("split", ["val\x00", "train\x00\x00", "test\x00\x00\x00\x00x"])
    def test_split_with_nul_refused(self, split):
        with pytest.raises(ValueError, match="splits must be one of"):
            _single(("a", "b", "c"), splits=["train", split, "test"])

    def test_split_array_checked_before_its_cut_to_8_characters(self):
        splits = np.array(["train", "test\x00\x00\x00\x00x", "test"])  # "test" once cut
        with pytest.raises(ValueError, match="splits must be one of"):
            _single(("a", "b", "c"), splits=splits)

    @pytest.mark.parametrize("pick", [lambda n: [n - 1], lambda n: np.arange(1, n, 3),
                                      lambda n: np.arange(n)],
                             ids=["one row", "strided", "all rows"])
    def test_subset_ids_equal_a_per_index_build(self, pick):
        manifest = blob_manifest([6, 4, 2])
        idx = pick(len(manifest))
        sub = manifest.subset(idx)
        assert sub.ids == tuple(manifest.ids[int(i)] for i in idx)
        assert sub.splits.tolist() == [manifest.splits[int(i)] for i in idx]

    @pytest.mark.parametrize("make", [lambda: blob_manifest([6, 4, 2]),
                                      lambda: multilabel_manifest(n=30)], ids=["single", "multi"])
    def test_subset_arrays_share_no_memory_with_the_source(self, make):
        manifest = make()
        sub = manifest.subset(np.arange(1, len(manifest), 2))
        for name in ("features", "labels", "splits"):
            assert not np.shares_memory(getattr(sub, name), getattr(manifest, name)), name
        assert np.array_equal(sub.features, manifest.features[1::2])
        assert np.array_equal(sub.labels, manifest.labels[1::2])

    def test_read_only_u8_splits_are_shared_and_any_other_array_copied(self):
        ids = ("a", "b", "c")
        frozen = np.array(["train", "val", "test"], dtype="U8")
        frozen.flags.writeable = False
        assert _single(ids, splits=frozen).splits is frozen  # no copy of a read-only U8 array
        for splits in (np.array(["train", "val", "test"], dtype="U8"),  # writable
                       np.array(["train", "val", "test"]),  # U5
                       np.array(["train", "val", "test"], dtype=object)):
            kept = _single(ids, splits=splits).splits
            assert not np.shares_memory(kept, splits) and splits.flags.writeable
            assert kept.dtype == "U8" and not kept.flags.writeable
            assert kept.tolist() == ["train", "val", "test"]
        non_u8 = np.array(["train", "val", "test"])
        non_u8.flags.writeable = False
        assert _single(ids, splits=non_u8).splits.dtype == "U8"

    def test_loaded_splits_are_the_parsed_column(self, tmp_path, monkeypatch):
        path = tmp_path / "m.jsonl"
        save_manifest(blob_manifest([6, 4]), path)
        built = []
        init = Manifest.__post_init__

        def recording_init(self):
            built.append(self.splits)  # the array handed to the constructor
            init(self)

        monkeypatch.setattr(Manifest, "__post_init__", recording_init)
        loaded = load_manifest(path)
        assert loaded.splits is built[-1] and not loaded.splits.flags.writeable

    def test_splits_of_another_length_refused(self):
        with pytest.raises(ValueError, match=r"splits must have shape \(3,\)"):
            _single(("a", "b", "c"), splits=["train"])


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_load_names_line(self, tmp_path, token):
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([
            '{"num_classes": 2, "feature_dim": 2, "task": "single"}',
            '{"id": "a", "features": [1.0, 2.0], "label": 0, "split": "train"}',
            f'{{"id": "b", "features": [{token}, 2.0], "label": 1, "split": "train"}}',
            f'{{"id": "c", "features": [1.0, {token}], "label": 1, "split": "val"}}',
        ]) + "\n")
        with pytest.raises(ManifestFormatError, match="^line 3: features must be finite$"):
            load_manifest(path)

    def test_repeated_id_is_named_before_a_non_finite_feature(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([
            '{"num_classes": 2, "feature_dim": 2, "task": "single"}',
            '{"id": "a", "features": [NaN, 2.0], "label": 0, "split": "train"}',
            '{"id": "a", "features": [1.0, 2.0], "label": 1, "split": "train"}',
        ]) + "\n")
        with pytest.raises(ManifestFormatError, match="^line 3: duplicate id 'a'"):
            load_manifest(path)


class TestValueChecks:
    """``Manifest`` checks features and multi-label entries over every row block."""

    @pytest.mark.parametrize("row", [0, 511, 512, 1023, 1299])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_in_any_block_refused(self, row, value):
        features = np.zeros((1300, 3))
        features[row, 2] = value
        with pytest.raises(ValueError, match="^features must be finite$"):
            Manifest(ids=tuple(map(str, range(1300))), features=features,
                     labels=np.zeros(1300, dtype=np.int64), splits=["train"] * 1300,
                     num_classes=2, feature_dim=3, task_kind="single")

    @pytest.mark.parametrize("row", [0, 700])
    @pytest.mark.parametrize("value", [-1, 2, -(2 ** 63), 2 ** 63 - 1,
                                       256, 257, -255])  # these three wrap to 0, 1, 1 in int8
    def test_multilabel_entry_other_than_0_or_1_refused(self, row, value):
        labels = np.ones((800, 4), dtype=np.int64)
        labels[row, 3] = value
        with pytest.raises(ValueError, match="^multi-label entries must be 0 or 1$"):
            Manifest(ids=tuple(map(str, range(800))), features=np.zeros((800, 2)),
                     labels=labels, splits=["test"] * 800, num_classes=4, feature_dim=2,
                     task_kind="multi")

    def _traced_multi_label_build(self, dtype):
        n, d, k = 4000, 256, 256
        rng = np.random.default_rng(0)
        features, labels = rng.standard_normal((n, d)), (rng.random((n, k)) < 0.1).astype(dtype)
        ids, splits = tuple(f"r{i}" for i in range(n)), np.array(["train"] * n)
        manifest, peak = traced_peak(Manifest, ids=ids, features=features, labels=labels,
                                     splits=splits, num_classes=k, feature_dim=d,
                                     task_kind="multi")
        return manifest, peak, labels, (n, d, k)

    def test_checks_hold_no_whole_array_temporary(self):
        manifest, peak, labels, (n, d, k) = self._traced_multi_label_build(np.int8)
        assert manifest.labels is labels  # the stored dtype: kept, not copied
        assert peak < n * d // 2  # one (n, d) or (n, K) bool array is n * d bytes

    def test_int64_labels_are_narrowed_into_one_int8_column(self):
        manifest, peak, labels, (n, d, k) = self._traced_multi_label_build(np.int64)
        assert manifest.labels.dtype == np.int8 and np.array_equal(manifest.labels, labels)
        assert peak < n * k + n * d // 2  # the kept int8 column, and no whole-array temporary

    @pytest.mark.parametrize("task, labels", [
        ("single", [0.5, 1.7]), ("single", [1.0, np.nan]),
        ("single", np.array([0.5, 1], dtype=object)), ("single", np.array([1, 0.5], np.float32)),
        ("multi", [[0.9, 1.0], [0.0, 1.0]]), ("multi", [[1.0, 0.0], [np.nan, 1.0]]),
        ("multi", np.array([[1, 0], [0.9, 1]], dtype=object)),
    ])
    def test_labels_that_are_not_whole_numbers_refused(self, task, labels):
        with pytest.raises(ValueError, match="^labels must be whole numbers$"):
            Manifest(ids=("a", "b"), features=np.zeros((2, 1)), labels=np.asarray(labels),
                     splits=["train"] * 2, num_classes=2, feature_dim=1, task_kind=task)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, 1e30, 2.0 ** 63, 2.0])
    @pytest.mark.parametrize("task", ["single", "multi"])
    def test_whole_float_labels_converted_through_int64_and_range_checked(self, task, value):
        labels = np.array([1.0, value] if task == "single" else [[1.0, 0.0], [value, 1.0]])
        message = "^labels must lie in \\[0, 2\\)$" if task == "single" else "^multi-label entries"
        with pytest.raises(ValueError, match=message):  # and no cast warning
            Manifest(ids=("a", "b"), features=np.zeros((2, 1)), labels=labels,
                     splits=["train"] * 2, num_classes=2, feature_dim=1, task_kind=task)
        labels[labels == value] = 0.0
        kept = Manifest(ids=("a", "b"), features=np.zeros((2, 1)), labels=labels,
                        splits=["train"] * 2, num_classes=2, feature_dim=1, task_kind=task)
        assert kept.labels.dtype == (np.int64 if task == "single" else np.int8)
        assert kept.labels.tolist() == labels.astype(int).tolist()

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.bool_])
    @pytest.mark.parametrize("task", ["single", "multi"])
    def test_integer_labels_skip_the_whole_number_check(self, monkeypatch, task, dtype):
        monkeypatch.setattr(np, "trunc", None)  # any float label would fail on it
        labels = np.array([1, 0] if task == "single" else [[1, 0], [0, 1]], dtype=dtype)
        kept = Manifest(ids=("a", "b"), features=np.zeros((2, 1)), labels=labels,
                        splits=["train"] * 2, num_classes=2, feature_dim=1, task_kind=task)
        assert kept.labels.tolist() == labels.astype(int).tolist()


class TestMultiLabelStorage:
    """A multi-label column is stored as one int8 0/1 entry per (record, label)."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=8)))
    def test_every_integer_form_stores_equal_int8_and_saves_equal_bytes(self, rows):
        import tempfile
        from pathlib import Path

        n, k = len(rows), len(rows[0])
        bits = np.array(rows, dtype=np.int64)
        expected = "".join([json.dumps({"num_classes": k, "feature_dim": 1, "task": "multi"}) + "\n"]
                           + [json.dumps({"id": f"r{i}", "features": [0.0], "labels": row,
                                          "split": "train"}) + "\n"
                              for i, row in enumerate(rows)])
        for labels in (bits, bits.astype(np.int8), bits.astype(np.bool_), rows):
            manifest = Manifest(ids=tuple(f"r{i}" for i in range(n)), features=np.zeros((n, 1)),
                                labels=labels, splits=["train"] * n, num_classes=k,
                                feature_dim=1, task_kind="multi")
            assert manifest.labels.dtype == np.int8 and manifest.labels.tolist() == rows
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "m.jsonl"
                save_manifest(manifest, path)
                assert path.read_text(encoding="utf-8") == expected

    def test_loaded_column_is_the_parsed_read_only_int8_array(self, tmp_path, monkeypatch):
        path = tmp_path / "ml.jsonl"
        save_manifest(multilabel_manifest(), path)
        built = []
        init = Manifest.__post_init__

        def recording_init(self):
            built.append(self.labels)  # the array handed to the constructor
            init(self)

        monkeypatch.setattr(Manifest, "__post_init__", recording_init)
        loaded = load_manifest(path)
        assert loaded.labels is built[-1]
        assert loaded.labels.dtype == np.int8 and not loaded.labels.flags.writeable


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large to convert to float
        return False


def _reference_load(path):
    """The record-by-record loader: every value checked in Python, line by line.

    A line ends only at "\\r\\n", "\\r" or "\\n"; blank lines, the piece after a
    trailing break among them, are skipped.
    """
    import json
    import re

    text = path.read_bytes().decode("utf-8")
    if text == "":
        raise ManifestFormatError("manifest file is empty")
    lines = re.split("\r\n|\r|\n", text)

    def parse(line, lineno):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ManifestFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise ManifestFormatError(f"line {lineno}: expected a JSON object")
        return obj

    header = parse(lines[0], 1)
    if set(header) != {"num_classes", "feature_dim", "task"}:
        raise ManifestFormatError("header must carry exactly num_classes, feature_dim, task")
    k, d, task = header["num_classes"], header["feature_dim"], header["task"]
    if (not isinstance(k, int) or isinstance(k, bool) or k < 2
            or not isinstance(d, int) or isinstance(d, bool) or d < 1
            or task not in ("single", "multi")):
        raise ManifestFormatError("malformed header values")
    label_key = "label" if task == "single" else "labels"
    splits_ok = ("train", "val", "test")
    ids, features, labels, splits, linenos = [], [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        record = parse(line, lineno)
        if set(record) != {"id", "features", label_key, "split"}:
            raise ManifestFormatError(
                f"line {lineno}: record keys must be {sorted(['id', 'features', label_key, 'split'])}")
        if not isinstance(record["id"], str):
            raise ManifestFormatError(f"line {lineno}: id must be a string")
        feats = record["features"]
        if (not isinstance(feats, list) or len(feats) != d
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in feats)):
            raise ManifestFormatError(f"line {lineno}: features must be {d} numbers")
        lab = record[label_key]
        if task == "single":
            if not isinstance(lab, int) or isinstance(lab, bool) or not 0 <= lab < k:
                raise ManifestFormatError(f"line {lineno}: label must be an int in [0, {k})")
        elif not isinstance(lab, list) or len(lab) != k or any(v not in (0, 1) for v in lab):
            raise ManifestFormatError(f"line {lineno}: labels must be {k} binary values")
        if record["split"] not in splits_ok:
            raise ManifestFormatError(f"line {lineno}: split must be one of {splits_ok}")
        ids.append(record["id"])
        features.append(feats)
        labels.append(lab)
        splits.append(record["split"])
        linenos.append(lineno)
    if not ids:
        raise ManifestFormatError("manifest has no records")
    try:
        return Manifest(ids=tuple(ids), features=np.asarray(features, dtype=np.float64),
                        labels=np.asarray(labels, dtype=np.int64), splits=np.asarray(splits),
                        num_classes=k, feature_dim=d, task_kind=task)
    except (ValueError, OverflowError) as exc:
        first_line = {}
        for rid, lineno in zip(ids, linenos):
            if rid in first_line:
                raise ManifestFormatError(
                    f"line {lineno}: duplicate id {rid!r} (first on line {first_line[rid]})") from exc
            first_line[rid] = lineno
        for feats, lineno in zip(features, linenos):
            if not all(_finite(v) for v in feats):
                raise ManifestFormatError(f"line {lineno}: features must be finite") from exc
        raise ManifestFormatError(str(exc)) from exc


# Field values for a K=3, d=2 manifest, the first of each valid, the rest each a case
# some check must catch (or a valid corner). "{i}" becomes the line's index, so
# ids are unique unless a line says "dup".
FEATURES = ("[0.5, -1.0]", "[1, 2]", "[1e5, 100000000000000000000000]", "[true, 1.0]",
            "[0.5, false]", "[null, 1.0]", '["1.0", 2.0]', "[1.0]", "[[1.0], 2.0]", "[1.0, 1e400]",
            "[NaN, 1.0]", "{}", "3.0")
# Listed after FEATURES so that the enumerated cases above keep their test ids.
LATE_FEATURES = ("[1.0, 1" + "0" * 400 + "]",)
# Enumerated after every case above, for the same reason: an object, which is unhashable,
# inside a list of values, an int beyond int64 among labels and NaN beside 0 and 1, and a
# valid id holding false (as "true-{i}" holds true).
LATE_IDS = ('"false-{i}"',)
LATE_OBJECT_FEATURES = ('[{"a": 1}, 1.0]',)
LATE_MULTI_LABELS = ('[{"a": 1}, 0, 0]', "[1, 0, 100000000000000000000000]", "[NaN, 0, 1]")
SINGLE_LABELS = ("0", "2", "3", "-1", "1.0", "true", "null", "[1]", "100000000000000000000000")
MULTI_LABELS = ("[1, 0, 1]", "[1.0, 0, -0.0]", "[true, false, 0]", "[2, 0, 0]", "[1, 0]",
                '["1", 0, 0]', "[null, 0, 0]", "1", "[[1], 0, 0]", "[NaN, 0, 0]")
IDS = ('"r{i}"', '"dup"', '"true-{i}"', "5", "null")
SPLITS_JSON = ('"train"', '"test"', '"dev"', "1", '["train"]')


@st.composite
def record_line(draw, task):
    if draw(st.integers(0, 15)) == 0:
        return draw(st.sampled_from(("", "not json", "[1, 2]", '{"id": "r{i}"}')))
    label_key, label_values = (("label", SINGLE_LABELS) if task == "single"
                               else ("labels", MULTI_LABELS))

    def pick(values):  # the valid value half the time, so most lines have one fault
        return draw(st.sampled_from(values)) if draw(st.booleans()) else values[0]

    if task == "multi":
        label_values += LATE_MULTI_LABELS
    fields = {"id": pick(IDS + LATE_IDS), "features": pick(FEATURES + LATE_FEATURES + LATE_OBJECT_FEATURES),
              label_key: pick(label_values), "split": pick(SPLITS_JSON)}
    if draw(st.integers(0, 15)) == 0:
        fields["extra"] = "1"
    return "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}"


# Header values: the first of each is the K=3, d=2 the records are drawn for, the rest
# are refused (or, for num_classes 2, shift which labels are in range).
NUM_CLASSES = ("3", "2", "1", "0", "-3", "true", "3.0")
FEATURE_DIMS = ("2", "1", "0", "false", "2.0")


@st.composite
def manifest_text(draw):
    task = draw(st.sampled_from(("single", "multi")))
    lines = draw(st.lists(record_line(task), min_size=0, max_size=5))
    k, d = NUM_CLASSES[0], FEATURE_DIMS[0]
    if draw(st.integers(0, 7)) == 0:
        k, d = draw(st.sampled_from(NUM_CLASSES)), draw(st.sampled_from(FEATURE_DIMS))
    header = f'{{"num_classes": {k}, "feature_dim": {d}, "task": "{task}"}}'
    return "\n".join([header] + [line.replace("{i}", str(i)) for i, line in enumerate(lines)]) + "\n"


def _outcome(load, path):
    try:
        m = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return (m.ids, m.features.tobytes(), m.features.shape, m.labels.tobytes(), m.labels.shape,
            m.splits.tolist(), m.task_kind)


def _one_fault_cases():
    late, later = [], []
    for task, label_key, label_values, late_labels in (
            ("single", "label", SINGLE_LABELS, ()),
            ("multi", "labels", MULTI_LABELS, LATE_MULTI_LABELS)):
        pools = {"id": IDS, "features": FEATURES, label_key: label_values, "split": SPLITS_JSON}
        valid = {key: pool[0] for key, pool in pools.items()}
        for field, values in pools.items():
            for value in values[1:]:
                yield task, {**valid, field: value}
        late += [(task, {**valid, "features": value}) for value in LATE_FEATURES]
        later += [(task, {**valid, "id": value}) for value in LATE_IDS]
        later += [(task, {**valid, "features": value}) for value in LATE_OBJECT_FEATURES]
        later += [(task, {**valid, label_key: value}) for value in late_labels]
    yield from late
    yield from later


def _loads_as_reference(text):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.jsonl"
        path.write_text(text, encoding="utf-8")
        expected = _outcome(_reference_load, path)
        assert _outcome(load_manifest, path) == expected
        assert _outcome(load_manifest, path) == expected  # a kept parse, or a failed one again


class TestLoaderMatchesReference:
    @pytest.mark.parametrize("task, fields", list(_one_fault_cases()))
    def test_each_field_value(self, tmp_path, task, fields):
        record = "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}"
        valid = ('{"id": "dup", "features": [0.5, -1.0], '
                 + ('"label": 1' if task == "single" else '"labels": [1, 0, 1]')
                 + ', "split": "train"}')
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([f'{{"num_classes": 3, "feature_dim": 2, "task": "{task}"}}',
                                   valid, record.replace("{i}", "1")]) + "\n")
        assert _outcome(load_manifest, path) == _outcome(_reference_load, path)

    @settings(max_examples=400, deadline=None)
    @given(manifest_text())
    def test_same_acceptance_and_messages(self, text):
        _loads_as_reference(text)

    @pytest.mark.parametrize("num_classes, feature_dim", [
        ("true", "2"), ("false", "2"), ("0", "2"), ("1", "2"), ("-1", "2"), ("3", "0"),
        ("3", "true"), ("3", "-2"), ("3.0", "2"), ("3", '"2"'),
    ])
    def test_degenerate_header_rejected(self, tmp_path, num_classes, feature_dim):
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([
            f'{{"num_classes": {num_classes}, "feature_dim": {feature_dim}, "task": "single"}}',
            '{"id": "a", "features": [1.0, 2.0], "label": 0, "split": "train"}',
        ]) + "\n")
        with pytest.raises(ManifestFormatError, match="^malformed header values$"):
            load_manifest(path)
        assert _outcome(_reference_load, path) == _outcome(load_manifest, path)

    def test_smallest_header_accepted(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([
            '{"num_classes": 2, "feature_dim": 1, "task": "single"}',
            '{"id": "a", "features": [1.0], "label": 1, "split": "train"}',
        ]) + "\n")
        assert load_manifest(path).features.shape == (1, 1)
        assert _outcome(_reference_load, path) == _outcome(load_manifest, path)

    def test_bool_feature_rejected_and_float_label_accepted(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([
            '{"num_classes": 2, "feature_dim": 2, "task": "multi"}',
            '{"id": "a", "features": [1.0, 2.0], "labels": [1.0, 0], "split": "train"}',
            '{"id": "b", "features": [true, 2.0], "labels": [0, 1], "split": "train"}',
        ]) + "\n")
        with pytest.raises(ManifestFormatError, match="^line 3: features must be 2 numbers$"):
            load_manifest(path)
        path.write_text(path.read_text().replace("true", "3.0"))
        assert load_manifest(path).labels.tolist() == [[1, 0], [0, 1]]


# the line breaks of str.splitlines() besides "\n", "\r\n" and "\r"; JSON holds the last
# three raw inside a string
SOFT_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
HARD_BREAKS = ("\n", "\r\n", "\r")


class TestLineBreaks:
    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"])
    def test_round_trip_of_ids_holding_a_raw_break(self, tmp_path, char):
        m = Manifest(ids=(f"a{char}b", char, f"{char}\n{char}{char}", "plain"),
                     features=np.arange(8.0).reshape(4, 2), labels=np.array([0, 1, 1, 0]),
                     splits=np.array(["train", "train", "val", "test"]), num_classes=2,
                     feature_dim=2, task_kind="single")
        path = tmp_path / "m.jsonl"
        save_manifest(m, path)
        assert char.encode("utf-8") in path.read_bytes()  # written raw, not escaped
        assert _outcome(load_manifest, path) == _outcome(lambda _: m, path)

    @settings(max_examples=300, deadline=None)
    @given(manifest_text(), st.data())
    def test_only_hard_breaks_split_lines(self, text, data):
        # every break of str.splitlines() between lines: only "\n", "\r\n" and "\r" end one
        import tempfile
        from pathlib import Path

        lines = text.split("\n")
        breaks = data.draw(st.lists(st.sampled_from(SOFT_BREAKS + HARD_BREAKS),
                                    min_size=len(lines) - 1, max_size=len(lines) - 1))
        text = lines[0] + "".join(b + line for b, line in zip(breaks, lines[1:]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.jsonl"
            path.write_bytes(text.encode("utf-8"))
            assert _outcome(load_manifest, path) == _outcome(_reference_load, path)

    @pytest.mark.parametrize("char", SOFT_BREAKS)
    def test_records_joined_by_a_soft_break_refused(self, tmp_path, char):
        records = ['{"id": "a", "features": [1.0, 2.0], "label": 0, "split": "train"}',
                   '{"id": "b", "features": [3.0, 4.0], "label": 1, "split": "train"}']
        path = tmp_path / "m.jsonl"
        path.write_bytes(('{"num_classes": 2, "feature_dim": 2, "task": "single"}\n'
                          + char.join(records) + "\n").encode("utf-8"))
        with pytest.raises(ManifestFormatError, match=r"^line 2: invalid JSON \(Extra data\)$"):
            load_manifest(path)

    @pytest.mark.parametrize("end", HARD_BREAKS, ids=["lf", "crlf", "cr"])
    def test_string_left_open_at_a_break_named_as_the_reference(self, tmp_path, end):
        # the break that ends the line is not part of the JSON text that is decoded
        path = tmp_path / "m.jsonl"
        path.write_bytes(end.join(['{"num_classes": 2, "feature_dim": 2, "task": "single"}',
                                   '{"id": "a', _record("b"), ""]).encode("utf-8"))
        with pytest.raises(ManifestFormatError,
                           match=r"^line 2: invalid JSON \(Unterminated string starting at\)$"):
            load_manifest(path)
        assert _outcome(_reference_load, path) == _outcome(load_manifest, path)

    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"])
    def test_non_utf8_line_named_after_an_id_holding_a_raw_break(self, tmp_path, char):
        lines = [b'{"num_classes": 2, "feature_dim": 2, "task": "single"}',
                 f'{{"id": "a{char}", "features": [1.0, 2.0], "label": 0, "split": "train"}}'
                 .encode("utf-8"),
                 b'{"id": "\xff", "features": [1.0, 2.0], "label": 1, "split": "train"}']
        path = tmp_path / "m.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ManifestFormatError, match="^line 3: not valid UTF-8$"):
            load_manifest(path)


@pytest.fixture
def blocks_of_two(monkeypatch):
    """Read manifest lines two at a time (``model.BLOCK_ROWS``)."""
    monkeypatch.setattr(model_module, "BLOCK_ROWS", 2)


@pytest.mark.usefixtures("blocks_of_two")
class TestLoaderMatchesReferenceInBlocksOfTwo(TestLoaderMatchesReference):
    """Every reference case, with record lines read two at a time: faults and blank lines
    then fall on either side of a block edge."""

    @settings(max_examples=400, deadline=None)
    @given(manifest_text())
    def test_same_acceptance_and_messages(self, text):  # hypothesis runs each test from one class
        _loads_as_reference(text)


def _record(rid, features="[1.0, 2.0]", label="0", split="train"):
    return f'{{"id": "{rid}", "features": {features}, "label": {label}, "split": "{split}"}}'


@pytest.mark.usefixtures("blocks_of_two")
class TestBlockEdges:
    """A file of 7 records and a trailing break is read in blocks of lines 2-3, 4-5, 6-7, 8-9."""

    HEADER = '{"num_classes": 2, "feature_dim": 2, "task": "single"}'

    def load(self, tmp_path, records, end="\n"):
        lines = [self.HEADER] + [_record(f"r{i}") if r is None else r for i, r in enumerate(records)]
        path = tmp_path / "m.jsonl"
        path.write_bytes((end.join(lines) + end).encode("utf-8"))
        expected = _outcome(_reference_load, path)
        assert _outcome(load_manifest, path) == expected
        return expected

    def test_structural_fault_in_block_3_wins_over_non_finite_feature_in_block_1(self, tmp_path):
        records = [None] * 7
        records[1] = _record("nan", features="[NaN, 1.0]")  # line 3
        records[5] = _record("bad", split="dev")  # line 7
        assert self.load(tmp_path, records) == (
            ManifestFormatError, "line 7: split must be one of ('train', 'val', 'test')")

    def test_duplicate_id_across_blocks_wins_over_an_earlier_non_finite_feature(self, tmp_path):
        records = [None] * 7
        records[2] = _record("nan", features="[1.0, Infinity]")  # line 4
        records[6] = _record("r0")  # line 8 repeats line 2
        assert self.load(tmp_path, records) == (
            ManifestFormatError, "line 8: duplicate id 'r0' (first on line 2)")

    def test_integer_beyond_float_range_in_a_later_block(self, tmp_path):
        records = [None] * 7
        records[5] = _record("big", features="[1.0, 1" + "0" * 400 + "]")  # line 7
        records[6] = _record("nan", features="[NaN, 1.0]")  # line 8
        assert self.load(tmp_path, records) == (ManifestFormatError, "line 7: features must be finite")

    @pytest.mark.parametrize("end", HARD_BREAKS, ids=["lf", "crlf", "cr"])
    def test_blank_lines_at_block_edges(self, tmp_path, end):
        records = [None, "", "  ", None, None, "", None]  # blanks end block 1 and open block 2
        outcome = self.load(tmp_path, records, end)
        assert outcome[0] == ("r0", "r3", "r4", "r6")
        assert self.load(tmp_path, [""] * 6 + [None], end)[0] == ("r6",)
        assert self.load(tmp_path, [None] + [""] * 6, end)[0] == ("r0",)

    def test_parse_draws_one_block_of_lines_at_a_time(self, tmp_path, monkeypatch):
        manifest = blob_manifest([3, 2])
        path = tmp_path / "m.jsonl"
        save_manifest(manifest, path)
        events = []
        parse_line = manifest_module._parse_line

        def logged_parse_line(line, lineno):
            events.append(("parse", lineno))
            return parse_line(line, lineno)

        def lines():
            for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
                events.append(("draw", lineno))
                yield line

        monkeypatch.setattr(manifest_module, "_parse_line", logged_parse_line)
        parsed = manifest_module._parse(lines(), len(manifest))
        # the header, then lines 2-3, 4-5, ..., each block drawn whole before it is parsed;
        # the last line is the blank one after the trailing break
        last = len(manifest) + 2
        expected = [("draw", 1), ("parse", 1)]
        for first in range(2, last + 1, 2):
            block = range(first, min(first + 2, last + 1))
            expected += [("draw", i) for i in block] + [("parse", i) for i in block if i < last]
        assert events == expected
        assert parsed.ids == manifest.ids
        assert parsed.features.tobytes() == manifest.features.tobytes()

    def test_all_blank_records_refused(self, tmp_path):
        assert self.load(tmp_path, [""] * 7) == (ManifestFormatError, "manifest has no records")


def _reference_outcome(path):
    """``_reference_load``'s outcome, with bytes that are not UTF-8 named on their line:
    the number of breaks before the first such byte, plus one."""
    import re

    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = re.split("\r\n|\r|\n", data[:exc.start].decode("utf-8"))
        return ManifestFormatError, f"line {len(lines)}: not valid UTF-8"
    return _outcome(_reference_load, path)


# characters of 2, 3 and 4 bytes in UTF-8, and byte runs that are not UTF-8: a stray
# continuation byte, a cut 3-byte sequence, a cut 4-byte one and an encoded surrogate
WIDE_CHARS = ("\u00e9", "\u20ac", "\U0001d11e", "\u2028")
NOT_UTF8 = (b"\xff", b"\x80", b"\xe2\x82", b"\xf0\x9d\x84", b"\xed\xa0\x80")


@st.composite
def manifest_bytes(draw):
    """A drawn manifest text with any hard breaks, wide characters in its ids and at times
    one run of bytes that is not UTF-8, anywhere."""
    lines = draw(manifest_text()).split("\n")
    breaks = draw(st.lists(st.sampled_from(HARD_BREAKS), min_size=len(lines) - 1,
                           max_size=len(lines) - 1))
    text = lines[0] + "".join(b + line for b, line in zip(breaks, lines[1:]))
    data = text.replace('"r', '"r' + draw(st.sampled_from(WIDE_CHARS))).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data


def decode_chunks_of(patch, size):
    """Make every ``io.TextIOWrapper`` built from now on read and decode ``size`` bytes at
    a time."""
    class SmallChunks(io.TextIOWrapper):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._CHUNK_SIZE = size

    patch.setattr(io, "TextIOWrapper", SmallChunks)


class TestReadBufferEdges:
    """Decode chunks of 1-7 bytes: every break, wide character and byte run that is not
    UTF-8 then straddles the edge of some chunk."""

    @settings(max_examples=300, deadline=None)
    @given(manifest_bytes(), st.integers(1, 7))
    def test_same_outcome_as_reference(self, data, read_bytes):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            decode_chunks_of(patch, read_bytes)
            patch.setattr(manifest_module, "_last_parse", None)  # a cold load
            path = Path(tmp) / "m.jsonl"
            path.write_bytes(data)
            assert _outcome(load_manifest, path) == _reference_outcome(path)

    def test_bad_byte_past_the_first_decode_chunk(self, tmp_path):
        lines = [TestBlockEdges.HEADER] + [_record(f"r{i:04d}") for i in range(1200)] + [""]
        data = "\r\n".join(lines).encode("utf-8")
        at = data.index(b'"r1100"') + 2
        path = tmp_path / "m.jsonl"
        path.write_bytes(data[:at] + b"\xe2\x82" + data[at:])
        assert at > 64 * 2 ** 10
        with pytest.raises(ManifestFormatError, match="^line 1102: not valid UTF-8$"):
            load_manifest(path)
        assert _outcome(load_manifest, path) == _reference_outcome(path)

    @pytest.mark.parametrize("read_bytes", [1, 2, 3])
    def test_crlf_cut_by_a_read_is_one_break(self, tmp_path, monkeypatch, read_bytes):
        decode_chunks_of(monkeypatch, read_bytes)
        records = [_record("a"), "", _record("b")]
        path = tmp_path / "m.jsonl"
        path.write_bytes("\r\n".join([TestBlockEdges.HEADER] + records + ["\xff"]).encode("latin-1"))
        with pytest.raises(ManifestFormatError, match="^line 5: not valid UTF-8$"):
            load_manifest(path)
        path.write_bytes("\r\n".join([TestBlockEdges.HEADER] + records + [""]).encode("utf-8"))
        assert load_manifest(path).ids == ("a", "b")


class TestSplitIndices:
    @settings(max_examples=60, deadline=None)
    @given(assignments=st.lists(st.lists(st.sampled_from(["train", "val", "test"]),
                                         min_size=12, max_size=12), min_size=1, max_size=3))
    def test_cached_indices_follow_a_replaced_splits_array(self, assignments):
        manifest = blob_manifest([2, 2], val_per_class=2, test_per_class=2)
        for splits in [manifest.splits] + [np.asarray(a) for a in assignments]:
            manifest.splits = splits
            for split in ("train", "val", "test"):
                idx = manifest.split_indices(split)
                assert np.array_equal(idx, np.flatnonzero(np.asarray(splits) == split))
                assert manifest.split_indices(split) is idx  # computed once per splits array
                assert not idx.flags.writeable

    def test_indices_and_constructor_splits_are_read_only(self, tiny_manifest):
        with pytest.raises(ValueError, match="read-only"):
            tiny_manifest.split_indices("train")[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            tiny_manifest.splits[0] = "test"


def count_parses(monkeypatch) -> list:
    """A list that grows by one on every parse of a manifest file's lines from now on."""
    calls = []
    parse = manifest_module._parse

    def counting(lines, n):
        calls.append(1)
        return parse(lines, n)

    monkeypatch.setattr(manifest_module, "_parse", counting)
    return calls


class TestLoadCache:
    def test_same_bytes_parsed_once(self, tiny_manifest, tmp_path, monkeypatch):
        parses = count_parses(monkeypatch)
        path, copy = tmp_path / "m.jsonl", tmp_path / "copy.jsonl"
        save_manifest(tiny_manifest, path)
        copy.write_bytes(path.read_bytes())
        first = _outcome(load_manifest, path)
        assert _outcome(load_manifest, path) == first
        assert _outcome(load_manifest, copy) == first  # the key is the content, not the path
        assert parses == [1]

    def test_returned_arrays_are_shared_and_read_only(self, tmp_path):
        path = tmp_path / "ml.jsonl"
        save_manifest(multilabel_manifest(), path)
        expected = _outcome(_reference_load, path)
        first = load_manifest(path)
        features, labels = first.features, first.labels
        for loaded in (first, load_manifest(path)):  # the parsed manifest, then a hit
            assert loaded.features is features and loaded.labels is labels
            with pytest.raises(ValueError, match="read-only"):
                loaded.features[0, 0] += 1.0
            with pytest.raises(ValueError, match="read-only"):
                loaded.labels[0] = 1 - loaded.labels[0]
            loaded.labels = np.zeros_like(loaded.labels)  # rebinds this manifest's field only
            assert _outcome(load_manifest, path) == expected

    def test_cold_load_peak_below_three_times_the_file(self, tmp_path):
        rng = np.random.default_rng(3)
        n, k, d = 2000, 200, 64
        labels = (rng.random((n, k)) < 0.02).astype(np.int64)
        labels[:, 0] = 1
        path = tmp_path / "ml.jsonl"
        save_manifest(Manifest(ids=tuple(f"r{i:06d}" for i in range(n)),
                               features=rng.standard_normal((n, d)), labels=labels,
                               splits=rng.choice(["train", "val", "test"], size=n),
                               num_classes=k, feature_dim=d, task_kind="multi"), path)
        size = os.path.getsize(path)
        loaded, peak = traced_peak(load_manifest, path)
        assert peak < 3 * size
        assert loaded.labels.nbytes == n * k  # one byte a 0/1 entry
        # a hit reads and hashes the file's bytes, and copies no array
        _, hit = traced_peak(load_manifest, path)
        assert hit - size < loaded.features.nbytes

    def test_cold_load_holds_the_columns_and_a_few_mib(self, tmp_path):
        # the file is read a buffer at a time, so nothing beyond the kept columns grows with it
        rng = np.random.default_rng(5)
        n, k, d = 6000, 200, 64
        labels = (rng.random((n, k)) < 0.02).astype(np.int64)
        labels[:, 0] = 1
        path = tmp_path / "ml.jsonl"
        save_manifest(Manifest(ids=tuple(f"r{i:06d}" for i in range(n)),
                               features=rng.standard_normal((n, d)), labels=labels,
                               splits=rng.choice(["train", "val", "test"], size=n),
                               num_classes=k, feature_dim=d, task_kind="multi"), path)
        size = os.path.getsize(path)
        assert size >= 10 * 2 ** 20
        loaded, peak = traced_peak(load_manifest, path)
        columns = loaded.features.nbytes + loaded.labels.nbytes + loaded.splits.nbytes
        assert peak < columns + size // 2
        _, hit = traced_peak(load_manifest, path)  # one read buffer, no whole-file bytes
        assert hit < 2 * 2 ** 20

    def test_hit_decodes_nothing(self, tiny_manifest, tmp_path, monkeypatch):
        passes = []

        class Counting(io.TextIOWrapper):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                passes.append(1)  # the count pass

            def seek(self, *args):
                passes.append(1)  # the parse pass
                return super().seek(*args)

        monkeypatch.setattr(io, "TextIOWrapper", Counting)
        path = tmp_path / "m.jsonl"
        save_manifest(tiny_manifest, path)
        load_manifest(path)
        assert passes == [1, 1]  # a miss: one pass counts the record lines, one parses them
        load_manifest(path)
        assert passes == [1, 1]

    def test_file_replaced_after_hashing_parses_the_hashed_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "m.jsonl"
        first, second = blob_manifest([3, 2]), blob_manifest([4, 1])
        save_manifest(first, path)
        hashed = path.read_bytes()

        class Replacing(io.TextIOWrapper):  # built once the bytes are hashed
            def __init__(self, *args, **kwargs):
                if path.read_bytes() == hashed:  # save_manifest replaces the path with os.replace
                    save_manifest(second, path)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(io, "TextIOWrapper", Replacing)
        assert _outcome(load_manifest, path) == _outcome(lambda _: first, path)
        assert manifest_module._last_parse[0] == hashlib.sha256(hashed).digest()
        assert _outcome(load_manifest, path) == _outcome(lambda _: second, path)

    def test_rewritten_bytes_parsed_again(self, tiny_manifest, tmp_path, monkeypatch):
        parses = count_parses(monkeypatch)
        path = tmp_path / "m.jsonl"
        save_manifest(tiny_manifest, path)
        before = load_manifest(path)
        stat = os.stat(path)
        data = path.read_bytes()
        at = data.index(b'"label": 1') + len(b'"label": ')
        path.write_bytes(data[:at] + b"2" + data[at + 1:])  # one digit: same size
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert os.stat(path).st_size == stat.st_size
        assert os.stat(path).st_mtime_ns == stat.st_mtime_ns
        after = load_manifest(path)
        assert parses == [1, 1]
        changed = np.flatnonzero(before.labels != after.labels)
        assert changed.size == 1 and before.labels[changed[0]] == 1 and after.labels[changed[0]] == 2

    def test_failed_parse_is_not_kept(self, tiny_manifest, tmp_path, monkeypatch):
        parses = count_parses(monkeypatch)
        path = tmp_path / "m.jsonl"
        path.write_text('{"num_classes": 1, "feature_dim": 2, "task": "single"}\n')
        for _ in range(2):
            with pytest.raises(ManifestFormatError):
                load_manifest(path)
        assert parses == [1, 1]
        save_manifest(tiny_manifest, path)  # a save does not fill the kept parse
        load_manifest(path)
        assert parses == [1, 1, 1]

    def test_sweep_parses_its_manifest_once(self, tmp_path, monkeypatch):
        path = tmp_path / "m.jsonl"
        save_manifest(blob_manifest([40, 20, 8]), path)
        entries = [(loss, {"seed": seed, "dataset": {"manifest": str(path),
                                                     "group_boundaries": [1, 2]},
                           "train": {"epochs": 2, "batch_size": 16, "loss": {"kind": loss},
                                     "optimizer": {"kind": "sgd", "lr": 0.05}}})
                   for seed, loss in enumerate(("ce", "focal", "balanced_softmax"))]
        cold = []
        for entry in entries:
            manifest_module._last_parse = None
            cold += run_sweep([entry])
        parses = count_parses(monkeypatch)
        manifest_module._last_parse = None
        rows = run_sweep(entries)
        assert parses == [1]
        assert all(row["error"] is None for row in rows)
        assert json.dumps(rows).encode() == json.dumps(cold).encode()
