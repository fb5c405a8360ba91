"""Deterministic text formatting for CSV/JSON artifacts.

All real numbers written to disk go through fmt_real so that identical
inputs produce byte-identical files (17 significant digits round-trips
float64 exactly).
"""

import json


def fmt_real(x: float) -> str:
    return f"{float(x):.17g}"


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_json(path, obj) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
