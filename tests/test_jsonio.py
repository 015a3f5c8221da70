import os
from dataclasses import dataclass, field
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays, from_dtype

from longtail_lab import Manifest, jsonio, save_manifest
from longtail_lab import manifest as manifest_module

from conftest import traced_peak

# -0.0, integral values either side of 1e16 and 1e17 (where %.17g switches to an
# exponent), the smallest subnormal, and NaN (written as null)
SPECIAL = (-0.0, 0.0, 1.0, 1e16, 1e16 + 2, 1e17 - 16, 1e17, 1e17 + 16, -1e17,
           99999998430674944.0, 5e-324, 2.2250738585072014e-308, 0.1, float("nan"))
DTYPES = (np.float64, np.float32, np.int64, np.uint8, np.bool_)
SHAPES = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)


def _elements(dtype):
    if np.dtype(dtype).kind != "f":
        return from_dtype(np.dtype(dtype))
    special = sorted({np.dtype(dtype).type(v).item() for v in SPECIAL}, key=repr)
    return st.one_of(st.sampled_from(special),
                     st.floats(allow_infinity=False, width=8 * np.dtype(dtype).itemsize))


@st.composite
def numeric_arrays(draw):
    dtype = draw(st.sampled_from(DTYPES))
    return draw(arrays(dtype, SHAPES, elements=_elements(dtype)))


class TestArrayEncoding:
    @settings(max_examples=300, deadline=None)
    @given(numeric_arrays())
    def test_array_matches_list_encoding(self, a):
        assert jsonio.dumps(a) == jsonio.dumps(a.tolist())
        assert jsonio.dumps(a.T) == jsonio.dumps(a.T.tolist())
        assert jsonio.dumps({"k": a}) == jsonio.dumps({"k": a.tolist()})

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((np.float64, np.float32)),
           array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=4), st.data())
    def test_infinity_raises(self, dtype, shape, data):
        a = data.draw(arrays(dtype, shape, elements=_elements(dtype)))
        flat = a.reshape(-1)  # a view: writing it writes a
        flat[data.draw(st.integers(0, flat.size - 1))] = data.draw(st.sampled_from((np.inf, -np.inf)))
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps(a)
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps(a.tolist())

    def test_boundary_tokens(self):
        a = np.array([[1e16, 1e17 - 16, 1e17], [-0.0, np.nan, 0.5]])
        assert jsonio.dumps(a) == ("[[10000000000000000.0, 99999999999999984.0, 1e+17], "
                                   "[-0.0, null, 0.5]]")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats(allow_infinity=False),
                              st.integers(-10 ** 20, 10 ** 20)), max_size=8))
    def test_float_list_matches_element_wise_encoding(self, items):
        # a list of floats only takes one %.17g pass; a mixed or empty list goes item by item
        element_wise = "[" + ", ".join(jsonio.dumps(item) for item in items) + "]"
        assert jsonio.dumps(items) == element_wise
        assert jsonio.dumps(tuple(items)) == element_wise
        assert jsonio.dumps({"k": items}) == '{"k": ' + element_wise + "}"

    @pytest.mark.parametrize("items", [[1.0, float("inf")], [float("-inf")]])
    def test_float_list_infinity_raises(self, items):
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps(items)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(DTYPES), array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
           st.data())
    def test_row_texts_equal_row_encodings(self, dtype, shape, data):
        elements = (st.integers(0, 9) if dtype is np.int64 and data.draw(st.booleans())
                    else _elements(dtype))  # the digit table, or the %.17g/str pass
        a = data.draw(arrays(dtype, shape, elements=elements))
        assert jsonio.row_texts(a) == [jsonio.dumps(row) for row in a]


# The on-disk manifest format, byte for byte (see the manifest module docstring).
GOLDEN_SINGLE = (
    '{"num_classes": 3, "feature_dim": 2, "task": "single"}\n'
    '{"id": "a", "features": [0.5, -1.0], "label": 2, "split": "train"}\n'
    '{"id": "b", "features": [0.10000000000000001, -0.0], "label": 0, "split": "val"}\n'
    '{"id": "c", "features": [9.9999999999999995e-08, 2.5e+17], "label": 1, "split": "test"}\n'
)
GOLDEN_MULTI = (
    '{"num_classes": 3, "feature_dim": 2, "task": "multi"}\n'
    '{"id": "x", "features": [1.0, 0.66666666666666663], "labels": [1, 0, 1], "split": "train"}\n'
    '{"id": "y", "features": [-3.0, 10000000000000000.0], "labels": [0, 0, 1], "split": "test"}\n'
)


@dataclass(frozen=True)
class Inner:
    flag: bool = False


@dataclass(frozen=True)
class Switch:
    on: bool = False
    level: int = field(default=1, metadata=jsonio.takes(lambda switch: switch.on))
    pair: tuple[int, int] = field(default=None, metadata=jsonio.OMIT_UNSET)


@dataclass(frozen=True)
class Spec:
    count: int
    scale: float = 1.0
    name: str = "a"
    limit: int | None = None
    inner: Inner = field(default_factory=Inner)
    hidden: int = field(default=0, metadata={"config": False})

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")


class TestConfigFields:
    def test_values_of_their_annotated_types(self):
        raw = {"count": 2, "scale": 3, "name": "b", "limit": None, "inner": {"flag": True}}
        spec = jsonio.parse_fields(Spec, raw, "spec")
        assert spec == Spec(2, 3, "b", None, Inner(True))
        assert jsonio.fields_to_config(spec) == raw
        assert jsonio.fields_to_config(Spec(1, limit=4, hidden=9)) == {
            "count": 1, "scale": 1.0, "name": "a", "limit": 4, "inner": {"flag": False}}

    @pytest.mark.parametrize("raw, message", [
        ([], "spec must be a JSON object"),
        ({"count": 1, "hidden": 1}, r"unknown spec keys: \['hidden'\]"),
        ({"scale": 1.0}, r"spec needs the keys \['count'\]"),
        ({"count": True}, "spec count must be an integer, got True"),
        ({"count": 1.0}, "spec count must be an integer, got 1.0"),
        ({"count": None}, "spec count must be an integer, got None"),
        ({"count": 1, "scale": False}, "spec scale must be a number, got False"),
        ({"count": 1, "scale": "1"}, "spec scale must be a number, got '1'"),
        ({"count": 1, "name": 5}, "spec name must be a string, got 5"),
        ({"count": 1, "limit": 2.5}, "spec limit must be an integer, got 2.5"),
        ({"count": 1, "inner": {"flag": 1}}, "inner flag must be true or false, got 1"),
        ({"count": 1, "inner": None}, "inner must be a JSON object, got None"),
        ({"count": -1}, "count must be >= 0"),
    ])
    def test_rejected(self, raw, message):
        with pytest.raises(ValueError, match=message):
            jsonio.parse_fields(Spec, raw, "spec")

    def test_taken_and_unset_fields(self):
        raw = {"on": True, "level": 3, "pair": [2, 5]}
        switch = jsonio.parse_fields(Switch, raw, "switch")
        assert switch == Switch(True, 3, (2, 5))
        assert jsonio.fields_to_config(switch) == raw
        assert jsonio.fields_to_config(Switch(level=3)) == {"on": False}  # level not taken

    @pytest.mark.parametrize("raw, message", [
        ({"level": 2}, r"switch does not take \['level'\]"),
        ({"on": False, "level": 1}, r"switch does not take \['level'\]"),
        ({"pair": None}, r"switch pair must be a list of 2 values, got None"),
        ({"pair": [1]}, r"switch pair must be a list of 2 values, got \[1\]"),
        ({"pair": [1, 2.0]}, r"switch pair must be a list of 2 values, got \[1, 2.0\]"),
        ({"pair": (1, 2)}, r"switch pair must be a list of 2 values, got \(1, 2\)"),
    ])
    def test_switch_rejected(self, raw, message):
        with pytest.raises(ValueError, match=message):
            jsonio.parse_fields(Switch, raw, "switch")


class TestManifestGoldenBytes:
    def test_single_label(self, tmp_path):
        m = Manifest(ids=("a", "b", "c"),
                     features=np.array([[0.5, -1.0], [0.1, -0.0], [1e-7, 2.5e17]]),
                     labels=np.array([2, 0, 1]), splits=np.array(["train", "val", "test"]),
                     num_classes=3, feature_dim=2, task_kind="single")
        save_manifest(m, tmp_path / "m.jsonl")
        assert (tmp_path / "m.jsonl").read_bytes() == GOLDEN_SINGLE.encode("utf-8")

    def test_multi_label(self, tmp_path):
        m = Manifest(ids=("x", "y"), features=np.array([[1.0, 2.0 / 3.0], [-3.0, 1e16]]),
                     labels=np.array([[1, 0, 1], [0, 0, 1]]), splits=np.array(["train", "test"]),
                     num_classes=3, feature_dim=2, task_kind="multi")
        save_manifest(m, tmp_path / "m.jsonl")
        assert (tmp_path / "m.jsonl").read_bytes() == GOLDEN_MULTI.encode("utf-8")


class TestWriteAtomic:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.json"
        jsonio.write_atomic(path, "old\n")
        jsonio.write_atomic(path, "new\n")
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_writes_chunks_in_turn(self, tmp_path):
        path = tmp_path / "out.json"
        jsonio.write_atomic(path, (chunk for chunk in ("a", "", "b\n", "c\n")))
        assert path.read_text() == "ab\nc\n"

    def test_failed_chunk_leaves_old_content(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old\n")

        def chunks():
            yield "new\n"
            raise RuntimeError("render failed")

        with pytest.raises(RuntimeError, match="render failed"):
            jsonio.write_atomic(path, chunks())
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_write_leaves_nothing(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(UnicodeEncodeError):
            jsonio.write_atomic(path, "ok\ud800")  # a lone surrogate cannot be UTF-8 encoded
        assert os.listdir(tmp_path) == []

    def test_failed_write_keeps_old_content(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            jsonio.write_atomic(path, "new\ud800")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_manifest_save_beyond_first_block_leaves_no_file(self, tmp_path):
        rows = manifest_module.SAVE_BLOCK_VALUES // 8
        n = 2 * rows + 1
        m = Manifest(ids=tuple(f"r{i}" for i in range(n - 1)) + ("bad\ud800",),
                     features=np.zeros((n, 8)), labels=np.zeros(n, dtype=np.int64),
                     splits=np.full(n, "train"), num_classes=2, feature_dim=8,
                     task_kind="single")
        with pytest.raises(UnicodeEncodeError):
            save_manifest(m, tmp_path / "m.jsonl")
        assert os.listdir(tmp_path) == []

    def test_failed_manifest_save_leaves_no_file(self, tmp_path):
        m = Manifest(ids=("ok", "bad\ud800"), features=np.zeros((2, 1)), labels=np.array([0, 1]),
                     splits=np.array(["train", "test"]), num_classes=2, feature_dim=1,
                     task_kind="single")
        with pytest.raises(UnicodeEncodeError):
            save_manifest(m, tmp_path / "m.jsonl")
        assert os.listdir(tmp_path) == []


def reference_save(manifest: Manifest) -> bytes:
    """The record-by-record writer: one ``jsonio.dumps`` call per line."""
    header = {"num_classes": manifest.num_classes, "feature_dim": manifest.feature_dim,
              "task": manifest.task_kind}
    label_key = "label" if manifest.task_kind == "single" else "labels"
    lines = [jsonio.dumps(header)]
    for rid, feats, label, split in zip(manifest.ids, manifest.features, manifest.labels,
                                        manifest.splits.tolist()):
        lines.append(jsonio.dumps({"id": rid, "features": feats, label_key: label,
                                   "split": split}))
    lines.append("")
    return "\n".join(lines).encode("utf-8")


# whole values, -0.0, either side of 1e17 (where %.17g switches to an exponent), the
# smallest subnormal
FEATURE_VALUES = st.one_of(st.sampled_from((-0.0, 0.0, 3.0, -7.0, 1e16, 2.5e17, 5e-324)),
                           st.floats(allow_nan=False, allow_infinity=False))
# ids that need escapes: quotes, backslashes, control characters, U+2028 and non-ASCII
ID_TEXT = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x7f\x85\u2028\u2029é😀'),
                            st.characters(exclude_categories=("Cs",))), max_size=6)


@st.composite
def block_manifests(draw):
    """(manifest, feature values a block): n at one block of rows -1, +0, +1, or two blocks +1."""
    d = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 4))
    block_values = rows * d + draw(st.integers(0, d - 1))  # a block holds whole rows only
    n = draw(st.sampled_from((rows - 1, rows, rows + 1, 2 * rows + 1)).filter(lambda v: v > 0))
    k = draw(st.integers(2, 5))
    task = draw(st.sampled_from(("single", "multi")))
    if task == "single":
        labels = draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    else:
        labels = draw(arrays(np.int64, (n, k), elements=st.integers(0, 1)))
    manifest = Manifest(
        ids=tuple(draw(st.lists(ID_TEXT, min_size=n, max_size=n, unique=True))),
        features=draw(arrays(np.float64, (n, d), elements=FEATURE_VALUES)),
        labels=labels, splits=np.array(draw(st.lists(st.sampled_from(("train", "val", "test")),
                                                     min_size=n, max_size=n))),
        num_classes=k, feature_dim=d, task_kind=task)
    return manifest, block_values


class TestBlockWriter:
    @settings(max_examples=300, deadline=None)
    @given(block_manifests())
    def test_bytes_equal_record_by_record_writer(self, tmp_path_factory, drawn):
        manifest, block_values = drawn
        path = tmp_path_factory.mktemp("save") / "m.jsonl"
        with mock.patch.object(manifest_module, "SAVE_BLOCK_VALUES", block_values):
            save_manifest(manifest, path)
        assert path.read_bytes() == reference_save(manifest)

    @pytest.mark.parametrize("extra_rows", [-1, 0, 1, "2x+1"])
    def test_bytes_equal_at_the_block_size(self, tmp_path, extra_rows):
        d, k = 64, 30
        rows = manifest_module.SAVE_BLOCK_VALUES // d
        n = 2 * rows + 1 if extra_rows == "2x+1" else rows + extra_rows
        rng = np.random.default_rng(n)
        for task, labels in (("single", rng.integers(0, k, n)),
                             ("multi", (rng.random((n, k)) < 0.2).astype(np.int64))):
            manifest = Manifest(ids=tuple(f"r{i}" for i in range(n)),
                                features=np.round(rng.standard_normal((n, d)), rng.integers(0, 3)),
                                labels=labels, splits=np.array(["train", "val", "test"] * n)[:n],
                                num_classes=k, feature_dim=d, task_kind=task)
            save_manifest(manifest, tmp_path / "m.jsonl")
            assert (tmp_path / "m.jsonl").read_bytes() == reference_save(manifest)

    def test_peak_memory_does_not_grow_with_n(self, tmp_path):
        d, k = 64, 200
        rows = manifest_module.SAVE_BLOCK_VALUES // d
        peaks = []
        for n in (2 * rows, 32 * rows):
            rng = np.random.default_rng(0)
            manifest = Manifest(ids=tuple(f"r{i}" for i in range(n)),
                                features=rng.standard_normal((n, d)),
                                labels=(rng.random((n, k)) < 0.02).astype(np.int64),
                                splits=np.full(n, "train"), num_classes=k, feature_dim=d,
                                task_kind="multi")
            peaks.append(traced_peak(save_manifest, manifest, tmp_path / "m.jsonl")[1])
        file_bytes = (tmp_path / "m.jsonl").stat().st_size
        # a writer that holds the whole text peaks above the file size, which grows 16x here;
        # a block of 128 rows of 64 features and 200 labels renders in about 0.9 MB
        assert peaks[1] < 1.25 * peaks[0]
        assert peaks[1] < file_bytes / 4
