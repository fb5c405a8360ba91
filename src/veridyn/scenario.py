"""Scenario files: one JSON document driving every CLI command.

Top-level keys (all optional; each command names the sections it needs):

  seed          unsigned 64-bit integer, recorded in outputs
  universe      categorical layer: objects, morphisms, functors, transformations
  entropy       {"C": .., "K": .., "alpha": ..} bound constants
  entropy_trace {"start": obj, "initial_probs": [..], "transition": mor,
                 "observer": mor, "steps": n}
  phases        {"carrier": obj, "assignments": {elem: "p/q"},
                 "theta": mor, "cycle": [[mor, "p/q"], ...]}
  cascade       {"stages": [{"lambda": .., "theta": {...}}, ...]}
  phi, observer MapSpec descriptors for the dynamical layer
  x0, steps, r, schedule        simulate settings
  r_grid, transient, sample     sweep settings {"lo", "hi", "steps"}
  ledger        {"bins": .., "lo": .., "hi": ..} state-binning for entropy columns
  theta_limit   {"verification": functor, "update": functor,
                 "start": obj, "max_iter": n}
"""

from __future__ import annotations

import json
from typing import Mapping

import numpy as np

from ._formats import content_hash
from .cascade import CascadeSpec, CascadeStage, LinOp
from .category import Universe, permutation_order
from .dynamics import (
    AffineMap,
    MapSpec,
    PipelineMap,
    PolynomialMap,
    WeightedSumMap,
)
from .entropy import EntropyParams
from .errors import MissingSectionError, ScenarioParseError
from .phase import RationalPhase

__all__ = [
    "load_scenario",
    "scenario_hash",
    "require_section",
    "parse_universe",
    "parse_entropy_params",
    "parse_map_spec",
    "parse_cascade_spec",
    "parse_theta_operator",
]


def load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario must be a JSON object")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
        raise ScenarioParseError("seed must be an unsigned 64-bit integer")
    return doc


def scenario_hash(doc: Mapping) -> str:
    return content_hash(doc)


def require_section(doc: Mapping, key: str):
    if key not in doc:
        raise MissingSectionError(key)
    return doc[key]


def parse_universe(doc: Mapping) -> Universe:
    section = require_section(doc, "universe")
    try:
        return Universe.from_dict(section)
    except (KeyError, TypeError) as exc:
        raise ScenarioParseError(f"malformed universe entry: {exc!r}") from exc


def parse_entropy_params(doc: Mapping) -> EntropyParams:
    section = require_section(doc, "entropy")
    try:
        return EntropyParams(C=float(section.get("C", 0.0)),
                             K=float(section.get("K", 0.0)),
                             alpha=float(section.get("alpha", 1.0)))
    except (TypeError, ValueError) as exc:
        raise ScenarioParseError(f"bad entropy parameters: {exc}") from exc


def parse_map_spec(desc: Mapping) -> MapSpec:
    try:
        kind = desc["kind"]
        if kind == "affine":
            return AffineMap(np.asarray(desc["A"], dtype=float),
                             np.asarray(desc["b"], dtype=float))
        if kind == "polynomial":
            coords = tuple(
                tuple((float(t["coeff"]), tuple(int(p) for p in t["powers"]))
                      for t in terms)
                for terms in desc["coords"])
            return PolynomialMap(int(desc["dim"]), coords)
        if kind == "pipeline":
            return PipelineMap(tuple(parse_map_spec(p) for p in desc["parts"]))
        if kind == "sum":
            return WeightedSumMap(
                tuple(parse_map_spec(p) for p in desc["parts"]),
                tuple(float(w) for w in desc["weights"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"malformed map descriptor: {exc!r}") from exc
    raise ScenarioParseError(f"unknown map kind {desc.get('kind')!r}")


def parse_theta_operator(desc: Mapping) -> tuple[LinOp, int]:
    """Build a finite-order operator plus its declared period."""
    try:
        kind = desc["kind"]
        if kind == "rotation":
            turns = RationalPhase.parse(str(desc.get("turns", "0")))
            dim = int(desc.get("dim", 2))
            plane = tuple(desc.get("plane", (0, 1)))
            period = turns.denominator if turns.numerator else 1
            return LinOp.rotation(turns, dim=dim, plane=plane), period
        if kind == "permutation":
            perm = [int(i) for i in desc["perm"]]
            op = LinOp.permutation(perm)
            return op, permutation_order(dict(enumerate(perm)))
        if kind == "matrix":
            return LinOp(np.asarray(desc["entries"], dtype=float)), int(desc["period"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"malformed operator descriptor: {exc!r}") from exc
    raise ScenarioParseError(f"unknown operator kind {desc.get('kind')!r}")


def parse_cascade_spec(doc: Mapping) -> CascadeSpec:
    section = require_section(doc, "cascade")
    try:
        stages = []
        for st in section["stages"]:
            theta, period = parse_theta_operator(st["theta"])
            stages.append(CascadeStage(float(st["lambda"]), theta,
                                       int(st.get("period", period))))
        return CascadeSpec(tuple(stages))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"malformed cascade section: {exc!r}") from exc
