"""Deterministic text formatting for CSV/JSON artifacts.

All real numbers written to disk go through fmt_real so that identical
inputs produce byte-identical files (17 significant digits round-trips
float64 exactly).
"""

import functools
import json

# exact types whose JSON text json's encoders agree on; a container holding
# only these is a leaf, and goes to the C encoder in one piece per slice
_SCALARS = {str, int, float, bool, type(None)}
# items per C encoder call: one call builds its whole output in one buffer
_SLICE = 1024


def fmt_real(x: float) -> str:
    return f"{float(x):.17g}"


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_json(path, obj) -> None:
    """Write json.dumps(obj, indent=2, sort_keys=True) + "\\n" to path, streamed.

    The document is never held whole: containers that hold containers are
    walked here, and every other value goes through json's encoder without
    indent, which CPython runs in C. A value json.dumps rejects raises as
    it does, but after the file is opened, so the file is left partly
    written.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_value(fh.write, obj, 0, set())
        fh.write("\n")


@functools.cache
def _encoder(depth: int) -> json.JSONEncoder:
    # indent=2 puts each item of a container at depth on its own line
    return json.JSONEncoder(sort_keys=True,
                            separators=(",\n" + "  " * (depth + 1), ": "))


def _write_value(write, obj, depth: int, walking: set) -> None:
    """Write obj, a value at nesting depth `depth`, as json.dumps(indent=2) does."""
    enc = _encoder(depth)
    if isinstance(obj, dict):
        is_dict, values = True, obj.values()
    elif isinstance(obj, (list, tuple)):
        is_dict, values = False, obj
    else:
        write(enc.encode(obj))
        return
    if not obj:
        write("{}" if is_dict else "[]")
        return
    sep = ("{" if is_dict else "[") + enc.item_separator[1:]
    if set(map(type, values)) <= _SCALARS:
        if len(obj) <= _SLICE:
            parts = (obj,)
        else:
            # sorted here so that the slices come out in order; sorting a
            # slice again, as the encoder does, moves nothing
            items = sorted(obj.items()) if is_dict else obj
            parts = (items[i:i + _SLICE] for i in range(0, len(items), _SLICE))
            if is_dict:
                parts = map(dict, parts)
        for part in parts:
            write(sep + enc.encode(part)[1:-1])
            sep = enc.item_separator
    else:
        # only a walked container can close a cycle: a leaf holds none
        if id(obj) in walking:
            raise ValueError("Circular reference detected")
        walking.add(id(obj))
        # json sorts a dict's keys as given, then turns each into text
        for key, value in sorted(obj.items()) if is_dict else enumerate(obj):
            write(sep + _key(enc, key) + ": " if is_dict else sep)
            _write_value(write, value, depth + 1, walking)
            sep = enc.item_separator
        walking.remove(id(obj))
    write("\n" + "  " * depth + ("}" if is_dict else "]"))


def _key(enc: json.JSONEncoder, key) -> str:
    if isinstance(key, str):
        return enc.encode(key)
    if isinstance(key, (int, float)) or key is None:
        # the text json gives the key as a value (true, NaN, 1e+100), quoted
        return enc.encode(enc.encode(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")
