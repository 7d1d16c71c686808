"""The one JSON codec behind every config, bucket and checkpoint file.

``encode`` and ``decode`` follow ``dataclasses.fields`` and each class's type
hints (resolved once per class). ``decode`` is the one place that rejects a
malformed document: unknown or missing keys (only ``X | None`` fields may be
absent), wrong types (a bool is not a number; a float is an int only when
integral), non-finite numbers, and the ``ValueError``s of a dataclass's own
checks. An int in a float field stays that int when a float holds it exactly,
so a file that says ``2`` re-saves as ``2``.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from typing import Any, TypeVar

T = TypeVar("T")


class DecodeError(ValueError):
    """A document does not have the declared shape; ``path`` names where."""

    def __init__(self, path: str, problem: str):
        super().__init__(f"{path or '(root)'}: {problem}")  # e.g. ssrs[2].functions[0].code_size
        self.path = path


def encode(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj):
        return {f.name: encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [encode(v) for v in obj]
    return obj


def decode(cls: type[T], doc: Any) -> T:
    return _decode(cls, doc, "")


@functools.cache
def _fields(cls: type) -> dict[str, Any]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _optional(tp: Any) -> bool:
    """True for ``X | None``, the one union the codec knows."""
    return typing.get_origin(tp) in (typing.Union, types.UnionType)


def _wrong(path: str, expected: str, value: Any) -> DecodeError:
    got = ("an object" if isinstance(value, dict)
           else "an array" if isinstance(value, list) else json.dumps(value))
    return DecodeError(path, f"expected {expected}, got {got}")


def _decode(tp: Any, value: Any, path: str) -> Any:
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise _wrong(path, "an object", value)
        fields = _fields(tp)
        for key in value:
            if key not in fields:
                raise DecodeError(f"{path}.{key}" if path else key, "unknown key")
        kwargs = {}
        for name, hint in fields.items():
            where = f"{path}.{name}" if path else name
            if name in value:
                kwargs[name] = _decode(hint, value[name], where)
            elif _optional(hint):
                kwargs[name] = None
            else:
                raise DecodeError(where, "missing")
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise DecodeError(path, str(exc)) from exc
    if tp is Any:
        return value
    if _optional(tp):
        (tp,) = [t for t in typing.get_args(tp) if t is not type(None)]
        return None if value is None else _decode(tp, value, path)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise _wrong(path, "an array", value)
        args = typing.get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(args) != len(value):
            raise DecodeError(path, f"expected {len(args)} entries, got {len(value)}")
        return tuple(_decode(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    if tp is str:
        if type(value) is not str:
            raise _wrong(path, "a string", value)
        return value
    if tp not in (int, float):
        raise TypeError(f"no decoding rule for {tp!r}")
    if type(value) not in (int, float):  # bools and strings are not numbers
        raise _wrong(path, "an integer" if tp is int else "a number", value)
    if tp is int and type(value) is int:
        return value
    try:
        as_float = float(value)
    except OverflowError:  # an int beyond the float range
        as_float = math.inf
    if not math.isfinite(as_float):
        raise DecodeError(path, "not finite")
    if tp is float:
        return value if as_float == value else as_float
    if not value.is_integer():
        raise _wrong(path, "an integer", value)
    return int(value)
