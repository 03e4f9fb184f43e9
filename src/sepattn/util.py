"""Small shared helpers."""
from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import os
import typing
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterable, List, Tuple

THREADS_ENV = "SATT_THREADS"


def worker_count() -> int:
    """Worker cap for parallelizable batch work (dataset synthesis, scoring).

    Controlled by the SATT_THREADS environment variable, a positive integer;
    defaults to 1. All parallel work units are seeded independently, so the
    result never depends on this value.
    """
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return n


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


def from_doc(base, doc: dict, where: str, nested: bool = False):
    """Dataclass ``base`` with the keys of JSON object ``doc`` laid over its fields.

    Only the JSON shape is checked here: ``doc`` is an object, an unknown key is
    a ValueError naming it (``section.key`` in a nested section), and an object
    for a dataclass field is laid over that field. Values are ``check_fields``'s.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object, got {doc!r}")
    known = sorted(_field_rules(type(base)))
    unknown = [f"{where}.{k}" if nested else k for k in sorted(set(doc) - set(known))]
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}; known keys: {known}")
    sections = {k: from_doc(getattr(base, k), v, k, nested=True) for k, v in doc.items()
                if isinstance(v, dict) and dataclasses.is_dataclass(getattr(base, k))}
    return dataclasses.replace(base, **{**doc, **sections})


@functools.cache
def _field_rules(cls) -> Dict[str, Tuple[object, str]]:
    """Field name -> (annotation, what the error message says the field must be)."""
    hints, rules = typing.get_type_hints(cls), {}
    for f in dataclasses.fields(cls):
        want = hints[f.name]
        n = len(typing.get_args(want))
        wording = {int: "int", float: "a finite float"}.get(want, want.__name__)
        rules[f.name] = (want, f"a list of {n} finite floats" if n else wording)
    return rules


def check_fields(obj, cls=None) -> None:
    """Check each field of dataclass ``obj`` by its annotation and store it normalised.

    The config types' one value checker, first in each ``__post_init__``: an int
    field takes an integral non-bool; a float field a finite real non-bool, kept
    as ``float`` (``7`` and NumPy scalars too); a float tuple a list or tuple of
    its length, kept as a tuple; a dataclass field an instance of its class. Else
    a ValueError ``<Class> field '<name>' must be ..., got ...``. ``cls``
    (default ``type(obj)``) gives the rules for an ``obj`` that only holds values.
    """
    cls = cls or type(obj)
    for name, (want, wording) in _field_rules(cls).items():
        value = getattr(obj, name)
        checked = _checked(want, value)
        if checked is None:
            raise ValueError(f"{cls.__name__} field {name!r} must be {wording}, got {value!r}")
        if checked is not value:
            object.__setattr__(obj, name, checked)  # frozen types too


def _checked(want, value):
    """``value`` as a field annotated ``want`` stores it, or None if it does not fit."""
    if type(value) is want:  # int, float or a dataclass, as stored: the common case
        return value if want is not float or math.isfinite(value) else None
    if typing.get_origin(want) is tuple:
        items = typing.get_args(want)
        if not isinstance(value, (list, tuple)) or len(value) != len(items):
            return None
        out = tuple(_checked(t, v) for t, v in zip(items, value))
        return None if None in out else out
    kind = {int: numbers.Integral, float: numbers.Real}.get(want, ())  # () admits nothing
    if isinstance(value, bool) or not isinstance(value, kind):
        return None
    try:
        value = want(value)
    except OverflowError:  # an int beyond the float range
        return None
    return value if want is int or math.isfinite(value) else None
