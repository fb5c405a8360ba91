"""Scenario files: one JSON document driving every CLI command.

Top-level keys (all optional; each command names the sections it needs):

  seed          unsigned 64-bit integer, recorded in outputs
  universe      categorical layer: objects, morphisms, functors, transformations
  entropy       {"C": .., "K": .., "alpha": .., "k_schedule": [..]} bound constants
  entropy_trace {"start": obj, "initial_probs": [..], "transition": mor,
                 "observer": mor, "steps": n}
  phases        {"carrier": obj, "assignments": {elem: "p/q"},
                 "theta": mor, "period": k, "cycle": [[mor, "p/q"], ...]}
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
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._formats import content_hash
from .cascade import CascadeSpec, CascadeStage, LinOp
from .category import (
    FinMor,
    FinObj,
    FunctorRep,
    Universe,
    automorphism_order,
    permutation_order,
)
from .coalgebra import DEFAULT_MAX_ITER
from .dynamics import (
    DEFAULT_SAMPLE,
    DEFAULT_TRANSIENT,
    DIVERGENCE_THRESHOLD,
    MAX_PERIOD,
    PERIOD_TOL,
    AffineMap,
    MapSpec,
    PipelineMap,
    PolynomialMap,
    WeightedSumMap,
)
from .entropy import EntropyParams, ProbState
from .errors import MissingSectionError, ScenarioParseError
from .phase import PhasedMorphism, RationalPhase

__all__ = [
    "load_scenario",
    "scenario_hash",
    "require_section",
    "parse_universe",
    "parse_entropy_params",
    "parse_map_spec",
    "parse_cascade_spec",
    "parse_theta_operator",
    "SimulateSettings",
    "SweepSettings",
    "ThetaSettings",
    "EntropyTraceSettings",
    "PhaseSettings",
    "parse_simulate_settings",
    "parse_sweep_settings",
    "parse_theta_settings",
    "parse_entropy_trace",
    "parse_phase_settings",
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
    """The universe section, its entry shapes checked before anything is built."""
    section = _mapping(require_section(doc, "universe"), "universe")
    for od in _entries(section, "objects"):
        _name(od, "id", "universe object")
        _names(od.get("elements"), "universe object elements")
    for md in _entries(section, "morphisms"):
        for key in ("id", "src", "dst"):
            _name(md, key, "universe morphism")
        _mapping(md.get("mapping"), "universe morphism mapping")
    for fd in _entries(section, "functors"):
        _name(fd, "name", "universe functor")
        if not fd.get("identity"):
            _mapping(fd.get("obj_map", {}), "universe functor obj_map")
            _mapping(fd.get("mor_map", {}), "universe functor mor_map")
    for td in _entries(section, "transformations"):
        _name(td, "name", "universe transformation")
        for key in ("source", "target"):
            if key in td:
                _name(td, key, "universe transformation")
        _mapping(td.get("components", {}),
                 "universe transformation components")
    try:
        return Universe.from_dict(section)
    except (KeyError, TypeError) as exc:
        raise ScenarioParseError(f"malformed universe entry: {exc!r}") from exc


def parse_entropy_params(doc: Mapping) -> EntropyParams:
    section = _mapping(require_section(doc, "entropy"), "entropy")
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


# --- dynamical layer: simulate and sweep -------------------------------------


def _real(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioParseError(f"{what} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ScenarioParseError(f"{what} must be finite, got {value!r}")
    return out


def _integer(value, what: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioParseError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise ScenarioParseError(f"{what} must be >= {minimum}, got {value}")
    return value


def _mapping(value, what: str) -> Mapping:
    if not isinstance(value, dict):
        raise ScenarioParseError(f"{what} must be a JSON object")
    return value


def _entries(section: Mapping, key: str) -> list:
    value = section.get(key, [])
    if not isinstance(value, list) or not all(isinstance(e, dict) for e in value):
        raise ScenarioParseError(f"universe {key} must be a list of objects")
    return value


def _names(value, what: str) -> list:
    # one C-level pass over the element types keeps large carriers cheap
    if not isinstance(value, list) or not set(map(type, value)) <= {str}:
        raise ScenarioParseError(f"{what} must be a list of names")
    return value


def _coupled_maps(doc: Mapping) -> tuple[MapSpec, MapSpec]:
    update = parse_map_spec(require_section(doc, "phi"))
    observer = parse_map_spec(require_section(doc, "observer"))
    if observer.dim != update.dim:
        raise ScenarioParseError(
            f"observer dim {observer.dim} differs from phi dim {update.dim}")
    return update, observer


def _vector(value, size: int, what: str) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != size:
        raise ScenarioParseError(
            f"{what} must be a list of {size} numbers, got {value!r}")
    return tuple(_real(v, f"{what} entry") for v in value)


def _name(section: Mapping, key: str, what: str) -> str:
    value = section.get(key)
    if not isinstance(value, str):
        raise ScenarioParseError(f"{what} {key} must be a name, got {value!r}")
    return value


@dataclass(frozen=True)
class SimulateSettings:
    update: MapSpec
    observer: MapSpec
    x0: tuple[float, ...]
    steps: int
    r: float
    schedule: int
    bins: int
    lo: float
    hi: float


@dataclass(frozen=True)
class SweepSettings:
    update: MapSpec
    observer: MapSpec
    x0: tuple[float, ...] | None
    lo: float
    hi: float
    steps: int
    transient: int
    sample: int
    period_tol: float
    max_period: int
    divergence: float


def parse_simulate_settings(doc: Mapping) -> SimulateSettings:
    """The simulate command's sections, checked before anything runs."""
    update, observer = _coupled_maps(doc)
    ledger = _mapping(doc.get("ledger", {}), "ledger")
    lo = _real(ledger.get("lo", -2.0), "ledger lo")
    hi = _real(ledger.get("hi", 2.0), "ledger hi")
    if not (hi > lo and math.isfinite(hi - lo)):
        raise ScenarioParseError("ledger binning needs hi > lo and a finite hi - lo")
    bins = _integer(ledger.get("bins", 16), "ledger bins", 1)
    try:
        float(bins)  # the ledger scales by bins in floating point
    except OverflowError:
        raise ScenarioParseError(f"ledger bins {bins} exceeds the float range") from None
    return SimulateSettings(
        update, observer,
        x0=_vector(require_section(doc, "x0"), update.dim, "x0"),
        steps=_integer(require_section(doc, "steps"), "steps", 0),
        r=_real(doc.get("r", 0.0), "r"),
        schedule=_integer(doc.get("schedule", 1), "schedule", 1),
        bins=bins, lo=lo, hi=hi)


def parse_sweep_settings(doc: Mapping) -> SweepSettings:
    """The sweep command's sections, checked before anything runs."""
    update, observer = _coupled_maps(doc)
    grid = _mapping(require_section(doc, "r_grid"), "r_grid")
    try:
        lo, hi, steps = grid["lo"], grid["hi"], grid["steps"]
    except KeyError as exc:
        raise ScenarioParseError(f"r_grid needs lo, hi and steps: {exc!r}") from exc
    lo, hi = _real(lo, "r_grid lo"), _real(hi, "r_grid hi")
    if not lo < hi:
        raise ScenarioParseError(f"r_grid needs lo < hi, got {lo} and {hi}")
    x0 = doc.get("x0")
    return SweepSettings(
        update, observer,
        x0=None if x0 is None else _vector(x0, update.dim, "x0"),
        lo=lo, hi=hi,
        steps=_integer(steps, "r_grid steps", 2),
        transient=_integer(doc.get("transient", DEFAULT_TRANSIENT), "transient", 1),
        sample=_integer(doc.get("sample", DEFAULT_SAMPLE), "sample", 2),
        period_tol=_real(doc.get("period_tol", PERIOD_TOL), "period_tol"),
        max_period=_integer(doc.get("max_period", MAX_PERIOD), "max_period", 0),
        divergence=_real(doc.get("divergence", DIVERGENCE_THRESHOLD), "divergence"))


# --- finite-set layer: theta, entropy traces and phases ----------------------


@dataclass(frozen=True)
class ThetaSettings:
    verification: FunctorRep
    update: FunctorRep
    start: FinObj
    max_iter: int


@dataclass(frozen=True)
class EntropyTraceSettings:
    initial: ProbState
    transition: FinMor
    observer: FinMor
    steps: int
    k_schedule: tuple[float, ...] | None


@dataclass(frozen=True)
class PhaseSettings:
    """The parts of the phases section that are present, each resolved."""

    pairing: tuple[FinObj, dict[str, RationalPhase]] | None
    lock: tuple[FinMor, int] | None
    cycle: tuple[PhasedMorphism, ...] | None


def parse_theta_settings(doc: Mapping) -> ThetaSettings:
    """The theta command's sections, checked before anything runs."""
    uni = parse_universe(doc)
    section = _mapping(require_section(doc, "theta_limit"), "theta_limit")
    return ThetaSettings(
        verification=uni.functor(_name(section, "verification", "theta_limit")),
        update=uni.functor(_name(section, "update", "theta_limit")),
        start=uni.object(_name(section, "start", "theta_limit")),
        max_iter=_integer(section.get("max_iter", DEFAULT_MAX_ITER),
                          "theta_limit max_iter", 1))


def parse_entropy_trace(doc: Mapping, uni: Universe) -> EntropyTraceSettings:
    """The entropy_trace section and its k_schedule, checked before anything runs."""
    section = _mapping(require_section(doc, "entropy_trace"), "entropy_trace")
    start = uni.object(_name(section, "start", "entropy_trace"))
    transition = uni.morphism(_name(section, "transition", "entropy_trace"))
    observer = uni.morphism(_name(section, "observer", "entropy_trace"))
    if transition.src != transition.dst:
        raise ScenarioParseError("entropy_trace transition must be an endomap")
    steps = _integer(section.get("steps", 16), "entropy_trace steps", 0)
    probs = section.get("initial_probs")
    k_schedule = _mapping(doc.get("entropy", {}), "entropy").get("k_schedule")
    if k_schedule is not None:
        if not isinstance(k_schedule, list) or len(k_schedule) < steps:
            raise ScenarioParseError(
                f"entropy k_schedule must list at least {steps} numbers")
        k_schedule = tuple(_real(k, "entropy k_schedule entry") for k in k_schedule)
    return EntropyTraceSettings(
        initial=(ProbState(start, _vector(probs, start.size,
                                          "entropy_trace initial_probs"))
                 if probs else ProbState.uniform(start)),
        transition=transition, observer=observer, steps=steps,
        k_schedule=k_schedule)


def _phase(value, what: str) -> RationalPhase:
    if not isinstance(value, str):
        raise ScenarioParseError(f'{what} must be a "p/q" string, got {value!r}')
    try:
        return RationalPhase.parse(value)
    except ValueError as exc:
        raise ScenarioParseError(f"{what}: {exc}") from None


def parse_phase_settings(doc: Mapping, uni: Universe) -> PhaseSettings:
    """The phases section, checked before anything runs."""
    section = _mapping(require_section(doc, "phases"), "phases")
    if ("carrier" in section) != ("assignments" in section):
        raise ScenarioParseError("phases carrier and assignments go together")
    if "period" in section and "theta" not in section:
        raise ScenarioParseError("phases period needs theta")
    if not section.keys() & {"carrier", "theta", "cycle"}:
        raise ScenarioParseError(
            "phases must name a part: carrier and assignments, theta, or cycle")
    pairing = lock = cycle = None
    if "carrier" in section:
        table = _mapping(section["assignments"], "phases assignments")
        pairing = (uni.object(_name(section, "carrier", "phases")),
                   {k: _phase(v, f"phase of {k!r}") for k, v in table.items()})
    if "theta" in section:
        theta = uni.morphism(_name(section, "theta", "phases"))
        period = (_integer(section["period"], "phases period", 1) if "period" in section
                  else automorphism_order(theta))
        lock = (theta, period)
    if "cycle" in section:
        entries = section["cycle"]
        if not isinstance(entries, list) or not all(
                isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
                for e in entries):
            raise ScenarioParseError(
                f'phases cycle must list [morphism, "p/q"] pairs, got {entries!r}')
        cycle = tuple(PhasedMorphism(uni.morphism(mid), _phase(ph, "cycle phase"))
                      for mid, ph in entries)
    return PhaseSettings(pairing, lock, cycle)
