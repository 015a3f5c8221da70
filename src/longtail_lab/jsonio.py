"""Deterministic JSON emission (fixed float formatting, so equal runs give equal bytes),
atomic file writes, and config sections read from and written as dataclass fields."""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import typing
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


# what a config value of each annotated type may be; a bool is only ever a bool
_ACCEPTS = {int: int, float: (int, float), bool: bool, str: str}
_DESCRIBES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}
_INT64 = np.iinfo(np.int64)


@functools.cache  # get_type_hints evaluates every string annotation on each call
def _config_types(cls) -> dict:
    """The annotation of each field of dataclass ``cls`` that a config sets: all fields but
    those marked ``config: False``."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)
            if f.metadata.get("config", True)}


def parse_fields(cls, raw, section: str):
    """Build dataclass ``cls`` from the config ``section`` ``raw``.

    ``raw`` must be a JSON object whose keys are config fields of ``cls``, each
    value of the type its annotation names: ``int`` an int, ``float`` an int or
    a float, ``bool`` and ``str`` only themselves, ``np.ndarray`` a rectangular
    nested list of numbers (read as float64), ``X | None`` also null, and a
    nested spec an object read by the spec's ``from_config``. An integer must
    lie within the int64 range, so that no later numpy call overflows on it, and
    a float, also in an array, must be finite (``json.load`` reads ``NaN`` and
    ``Infinity``). An annotation ``Annotated[X, "..."]`` says in its text what a
    value must be.
    The constructor of ``cls`` then checks ranges. Faults raise ``ValueError``.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"{section} must be a JSON object, got {raw!r}")
    types = _config_types(cls)
    unknown = set(raw) - set(types)
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    missing = [f.name for f in dataclasses.fields(cls) if f.name in types and f.name not in raw
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{section} needs the keys {missing}")
    return cls(**{key: _field_value(types[key], value, f"{section} {key}")
                  for key, value in raw.items()})


def _field_value(hint, value, name: str):
    """``value`` if it has the type ``hint`` names; a nested spec is read by its ``from_config``,
    an array as float64."""
    describes = None
    if typing.get_origin(hint) is typing.Annotated:
        hint, describes = typing.get_args(hint)
    options = typing.get_args(hint) or (hint,)  # ``X | None`` gives (X, NoneType)
    if value is None and type(None) in options:
        return None
    kind = options[0]
    if dataclasses.is_dataclass(kind):
        return kind.from_config(value)
    if kind is np.ndarray:
        return _array_value(value, name)
    if isinstance(value, bool) == (kind is bool) and isinstance(value, _ACCEPTS[kind]):
        if isinstance(value, int) and not _INT64.min <= value <= _INT64.max:
            raise ValueError(f"{name} must lie within the int64 range, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be {describes or 'a finite number'}, got {value!r}")
        return value
    raise ValueError(f"{name} must be {describes or _DESCRIBES[kind]}, got {value!r}")


def _array_value(value, name: str) -> np.ndarray:
    """``value``, a nested list of finite ints or floats with rows of equal length, as float64."""
    if isinstance(value, list) and all(type(v) in (int, float) for v in _leaves(value)):
        try:
            array = np.array(value, dtype=np.float64)
        except (ValueError, OverflowError):  # ragged rows; an int beyond float64
            array = None
        if array is not None and np.isfinite(array).all():
            return array
    raise ValueError(f"{name} must be a rectangular nested list of finite numbers")


def _leaves(items: list):
    for item in items:
        if isinstance(item, list):
            yield from _leaves(item)
        else:
            yield item


def fields_to_config(spec) -> dict:
    """The config fields of dataclass instance ``spec``; a nested spec gives its ``to_config``."""
    config = {}
    for name in _config_types(type(spec)):
        value = getattr(spec, name)
        config[name] = value.to_config() if dataclasses.is_dataclass(value) else value
    return config
