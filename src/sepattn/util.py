"""Small shared helpers."""
from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import os
import typing
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Tuple

THREADS_ENV = "SATT_THREADS"


def worker_count() -> int:
    """Worker cap for parallelizable batch work (dataset synthesis, scoring).

    Controlled by the SATT_THREADS environment variable; defaults to 1. All
    parallel work units are seeded independently, so the result never depends
    on this value.
    """
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
    return max(1, n)


def map_units(fn: Callable, units: Iterable) -> List:
    """``[fn(u) for u in units]``, spread over ``worker_count()`` threads.

    Results keep the order of ``units``. One worker runs the units inline: a
    one-thread pool measured about 6 % slower on image scoring and rendering.
    """
    workers = worker_count()
    if workers == 1:
        return [fn(u) for u in units]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, units))


def typed_fields(cls, doc: dict, where: str, nested: bool = False) -> dict:
    """``doc``'s values checked against the types of dataclass ``cls``'s fields.

    int fields reject bools and floats; float fields also take ints (stored as
    float) and reject NaN and the infinities; a fixed-length tuple field such as
    ``Tuple[float, float, float]`` takes a list of exactly that many reals; a
    nested dataclass must be an object. Unknown keys, and any mismatch, are a
    ValueError naming the key; an unknown key of a nested dataclass is named
    ``section.key``.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object, got {doc!r}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(doc) - set(hints))
    if unknown:
        unknown = [f"{where}.{k}" for k in unknown] if nested else unknown
        raise ValueError(f"unknown {where} keys {unknown}; known keys: {sorted(hints)}")
    out = {}
    for key, value in doc.items():
        want = hints[key]
        if dataclasses.is_dataclass(want):
            value = want(**typed_fields(want, value, key, nested=True))
        elif typing.get_origin(want) is tuple:
            items = typing.get_args(want)
            if not isinstance(value, (list, tuple)) or len(value) != len(items):
                raise ValueError(
                    f"{where} key {key!r} must be a list of {len(items)} numbers, got {value!r}"
                )
            value = tuple(_typed_value(t, v, where, key) for t, v in zip(items, value))
        else:
            value = _typed_value(want, value, where, key)
        out[key] = value
    return out


def _typed_value(want: type, value, where: str, key: str):
    if isinstance(value, bool) or not isinstance(
        value, numbers.Integral if want is int else numbers.Real
    ):
        raise ValueError(f"{where} key {key!r} must be {want.__name__}, got {value!r}")
    try:
        value = want(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if want is float and not math.isfinite(value):
        raise ValueError(f"{where} key {key!r} must be a finite number, got {value!r}")
    return value


@functools.cache
def _int_fields(cls) -> Tuple[str, ...]:
    hints = typing.get_type_hints(cls)
    return tuple(f.name for f in dataclasses.fields(cls) if hints[f.name] is int)


def check_int_fields(obj) -> None:
    """Refuse a bool or a non-integer, NaN included, in any int field of dataclass ``obj``.

    For ``__post_init__``, before range checks that NaN would pass. The
    ValueError names the field, worded like ``typed_fields``.
    """
    for name in _int_fields(type(obj)):
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{type(obj).__name__} field {name!r} must be int, got {value!r}")
