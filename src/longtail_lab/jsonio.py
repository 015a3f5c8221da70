"""Deterministic JSON emission (fixed float formatting, so equal runs give equal bytes)
and atomic file writes."""
from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Any

import numpy as np


def format_float(value: float) -> str:
    """Render a float with 17 significant digits (round-trips float64 exactly)."""
    if math.isnan(value):
        return "null"
    if math.isinf(value):
        raise ValueError("cannot serialize non-finite float")
    text = format(value, ".17g")
    if not any(ch in text for ch in ".eE"):
        text += ".0"
    return text


def _encode(obj: Any, parts: list[str], sort_keys: bool) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(float(obj)))
    elif isinstance(obj, np.ndarray) and obj.dtype.kind in "biuf":
        parts.append(_array_text(obj))
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), parts, sort_keys)
    elif isinstance(obj, dict):
        parts.append("{")
        keys = sorted(obj) if sort_keys else list(obj)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key).__name__}")
            if i:
                parts.append(", ")
            parts.append(json.dumps(key, ensure_ascii=False))
            parts.append(": ")
            _encode(obj[key], parts, sort_keys)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(", ")
            _encode(item, parts, sort_keys)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _array_text(a: np.ndarray) -> str:
    """A numeric array as JSON in one pass, byte-identical to encoding ``a.tolist()``."""
    if a.dtype.kind == "b":
        return str(a.tolist()).replace("True", "true").replace("False", "false")
    if a.dtype.kind in "iu":
        return str(a.tolist())  # a list's repr is its JSON text: ", " separators, str ints
    x = a.astype(np.float64, copy=False)
    if np.isinf(x).any():
        raise ValueError("cannot serialize non-finite float")
    nan = np.isnan(x)
    # format_float appends ".0" to a token with neither a point nor an exponent;
    # %.17g prints such a token for exactly the integral values below 1e17 in magnitude
    whole = (x == np.trunc(x)) & (np.abs(x) < 1e17)
    if not (nan.any() or whole.any()):
        return _template("%.17g", x.shape) % tuple(x.ravel().tolist())
    tokens = np.where(nan, "null", np.where(whole, "%.17g.0", "%.17g"))
    return str(tokens.tolist()).replace("'", "") % tuple(x[~nan].tolist())


def _template(token: str, shape: tuple[int, ...]) -> str:
    """``token`` nested in JSON brackets to ``shape``: the %-format of a whole array."""
    for size in reversed(shape):
        token = "[" + ", ".join([token] * size) + "]"
    return token


def dumps(obj: Any, *, sort_keys: bool = False) -> str:
    parts: list[str] = []
    _encode(obj, parts, sort_keys)
    return "".join(parts)


def digest(obj: Any) -> str:
    """Content hash of an object's canonical (key-sorted) JSON form."""
    return hashlib.sha256(dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def write_atomic(path, text: str) -> None:
    """Write ``text`` so that ``path`` holds either its old content or all of ``text``.

    The text goes to a uniquely named file beside ``path``, which then replaces
    it; concurrent writers never share a temporary file, and a failed write
    removes its own.
    """
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")  # exclusive: never another writer's file
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
