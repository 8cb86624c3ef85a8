"""Find the coefficient arrays inside a solver state or trajectory without
knowing its classes, so the benchmark survives a change of state layout."""

from dataclasses import fields, is_dataclass

import numpy as np

MAX_DEPTH = 8


def complex_arrays(obj, seen=None, depth: int = 0) -> list:
    """Complex ndarrays reachable from obj through dataclass fields, object
    attributes, lists, tuples and dicts, in declaration order, each memory
    block once."""
    if seen is None:
        seen = set()
    if depth > MAX_DEPTH:
        return []
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind != "c":
            return []
        key = id(obj if obj.base is None else obj.base)
        if key in seen:
            return []
        seen.add(key)
        return [obj]
    if isinstance(obj, (list, tuple)):
        children = obj
    elif isinstance(obj, dict):
        children = obj.values()
    elif is_dataclass(obj) and not isinstance(obj, type):
        children = [getattr(obj, f.name) for f in fields(obj)]
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        children = vars(obj).values()
    else:
        return []
    out = []
    for child in children:
        out.extend(complex_arrays(child, seen, depth + 1))
    return out
