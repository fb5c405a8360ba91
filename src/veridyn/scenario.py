"""Scenario files: one JSON document driving every CLI command.

No other module reads scenario JSON: the parsers check and resolve the
sections a command needs before anything runs. The parsers of maps and
operators import the matrix layer (dynamics, cascade) when they run, so
the finite-set parsers load no numpy.

Top-level keys (all optional; each command names the sections it needs):

  seed          unsigned 64-bit integer, recorded in outputs
  universe      categorical layer: objects, morphisms, functors, transformations
  checks        explicit check-axioms entries: {"type": "observer_square" or
                "verification_square", "functor", "transformation", "morphism"}
                or {"type": "equalizer", "left", "right", "expect_elements"}
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
  theta_limit   {"verification": functor, "update": functor, "start": obj}
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .category import (
    FinMor,
    FinObj,
    FunctorRep,
    NatTransRep,
    Universe,
    automorphism_order,
    identity_functor,
    permutation_order,
)
from .entropy import EntropyParams, ProbState
from .errors import MissingSectionError, ScenarioParseError
from .phase import PhasedMorphism, RationalPhase

if TYPE_CHECKING:
    from .cascade import CascadeSpec, LinOp
    from .dynamics import MapSpec

__all__ = [
    "load_scenario",
    "scenario_seed",
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
    "SquareCheck",
    "EqualizerCheck",
    "parse_simulate_settings",
    "check_ledger_work",
    "parse_sweep_settings",
    "parse_theta_settings",
    "parse_entropy_trace",
    "parse_phase_settings",
    "parse_entropy_settings",
    "parse_checks",
]


# simulate, sweep and the entropy trace are priced in float operations of a
# generated map evaluator (20 to 40 ns on a shared 2-core Xeon) before they
# run: at WORK_CAP each shape of tests/conftest.py takes 1.5 to 5 s, and a
# simulate holds at most 260 000 rows (peak RSS 188 MB at dim 1, 200 MB at dim 64)
WORK_CAP = 10 ** 8
# a numpy call, about 1 us: a dim-2 affine node on floats (two) takes 2.1 us,
# and a batched map step 0.9 us per float operation (one each)
CALL_WORK = 40
# F_r calls of the critical scan and row solves per grid value, plus 32 grid
# values' worth to bisect a root: across the flip of the bundled sweeps' maps
# on 2 to 181 grid values, up to 961 calls per grid value, and in all up to
# 43 864 on 2 to 31 values (24 708 on 2, which 1 024 each prices at 2 048)
SOLVE_CALLS = 1024
# a simulate row per state coordinate, plus two: 9.6, 12.8 and 212 us at dim
# 1, 2 and 64 to roll out, bin, sum entropies and write when no state repeats
ROW_WORK = 128
# a term of a Python-level sum over a distribution: a ledger cell, or an
# element of a pushforward or of an entropy sum (2 * 10^7 ledger terms, the
# cap's worth, took 2.7 to 3.4 s)
TERM_WORK = 5
# the size of one map tree: each node (the map and every part below it)
# counts its dim and each polynomial term one more; a map is compiled at its
# first call in time and memory linear in its size
MAP_SIZE_CAP = 10 ** 4


def load_scenario(path: str) -> tuple[dict, str]:
    """The scenario document at `path` and the sha256 of the file's bytes.

    The file is read once; the hash identifies it exactly, whitespace included.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario {path!r}: {exc}") from exc
    digest = hashlib.sha256(data).hexdigest()
    try:
        # strict UTF-8: json.loads(bytes) would also accept UTF-16/32 and a BOM
        text = data.decode("utf-8")
        del data  # not held while the document is built
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # bad UTF-8, bad JSON, nesting too deep, or an integer beyond int's digit limit
        raise ScenarioParseError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario must be a JSON object")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
        raise ScenarioParseError("seed must be an unsigned 64-bit integer")
    return doc, digest


def scenario_seed(doc: Mapping) -> int:
    """The seed recorded in outputs, as checked by load_scenario."""
    return int(doc.get("seed", 0))


def require_section(doc: Mapping, key: str):
    if key not in doc:
        raise MissingSectionError(key)
    return doc[key]


def parse_universe(doc: Mapping) -> Universe:
    """The universe section, each entry checked as it is built."""
    section = _mapping(require_section(doc, "universe"), "universe")
    uni = Universe()
    for od in _entries(section, "objects"):
        oid = _fresh(uni.objects, _name(od, "id", "universe object"), "object id")
        uni.objects[oid] = FinObj(
            oid, tuple(_names(od.get("elements"), "universe object elements")))
    for md in _entries(section, "morphisms"):
        mid = _fresh(uni.morphisms, _name(md, "id", "universe morphism"), "morphism id")
        src = uni.object(_name(md, "src", "universe morphism"))
        dst = uni.object(_name(md, "dst", "universe morphism"))
        uni.morphisms[mid] = FinMor.from_mapping(
            src, dst, _name_table(md.get("mapping"), "universe morphism mapping"))
    for fd in _entries(section, "functors"):
        name = _fresh(uni.functors, _name(fd, "name", "universe functor"),
                      "functor name")
        identity = fd.get("identity", False)
        if not isinstance(identity, bool):
            raise ScenarioParseError(
                f"universe functor identity must be true or false, got {identity!r}")
        if identity:
            if "obj_map" in fd or "mor_map" in fd:
                raise ScenarioParseError(
                    f"universe functor {name} is the identity and cannot give "
                    "obj_map or mor_map")
            uni.functors[name] = identity_functor(
                uni.objects.values(), uni.morphisms.values(), name=name)
            continue
        obj_map = _name_table(fd.get("obj_map", {}), "universe functor obj_map")
        mor_map = _name_table(fd.get("mor_map", {}), "universe functor mor_map")
        uni.functors[name] = FunctorRep(
            name, {uni.object(a): uni.object(b) for a, b in obj_map.items()},
            {uni.morphism(a): uni.morphism(b) for a, b in mor_map.items()})
    for td in _entries(section, "transformations"):
        what = "universe transformation"
        name = _fresh(uni.transformations, _name(td, "name", what),
                      "transformation name")
        source = _name(td, "source", what) if "source" in td else "Id"
        target = _name(td, "target", what)
        # resolved here, so that a misspelt functor is an input error and not
        # a transformation whose squares are all skipped
        uni.functor(target)
        if source != "Id":  # absent or "Id": the identity functor
            uni.functor(source)
        comps = _name_table(td.get("components"), f"{what} components")
        uni.transformations[name] = NatTransRep(
            name, source, target,
            {uni.object(a): uni.morphism(b) for a, b in comps.items()})
    return uni


def parse_entropy_params(doc: Mapping) -> EntropyParams:
    section = _mapping(require_section(doc, "entropy"), "entropy")
    return EntropyParams(**{key: _real(section.get(key, default), f"entropy {key}")
                            for key, default in (("C", 0.0), ("K", 0.0), ("alpha", 1.0))})


def parse_map_spec(desc) -> MapSpec:
    spec = _map_spec(desc)
    _within_cap(_map_cost(spec)[0], "map size", MAP_SIZE_CAP)
    return spec


def _map_cost(spec: MapSpec) -> tuple[int, int, int]:
    """Size of `spec` (each node's dim, plus one per polynomial term), and
    the float operations of one call on floats and batched.

    On floats a polynomial term costs 1, 1 per factor and 2 more per power
    other than 1 (libm); a dim-1 affine node 3; a dim-d one two numpy calls,
    2d outputs and d^2 / CALL_WORK for BLAS; a sum 2 per part and coordinate.
    Batched, each is a numpy call, and a dim-d affine node makes 6 + 2d.
    """
    from .dynamics import AffineMap, PolynomialMap, WeightedSumMap
    d = spec.dim
    if isinstance(spec, AffineMap):
        if d == 1:
            return 1, 3, 3 * CALL_WORK
        return d, 2 * CALL_WORK + 2 * d + d * d // CALL_WORK, CALL_WORK * (6 + 2 * d)
    if isinstance(spec, PolynomialMap):
        ops = sum(1 + sum(1 + 2 * (p > 1) for p in powers if p)
                  for terms in spec.coords for _, powers in terms)
        return d + sum(map(len, spec.coords)), ops, CALL_WORK * ops
    size, ops, batched = map(sum, zip(*map(_map_cost, spec.parts)))
    own = 2 * len(spec.parts) * d if isinstance(spec, WeightedSumMap) else 0
    return d + size, ops + own, batched + CALL_WORK * own


def _map_spec(desc) -> MapSpec:
    from .dynamics import AffineMap, PipelineMap, PolynomialMap, WeightedSumMap
    kind = _mapping(desc, "map descriptor").get("kind")
    if kind == "affine":
        rows = _list(desc.get("A"), "affine A")
        return AffineMap([_vector(row, len(rows), "affine A row") for row in rows],
                         _vector(desc.get("b"), len(rows), "affine b"))
    if kind == "polynomial":
        dim = _integer(desc.get("dim"), "polynomial dim", 1)
        coords = tuple(tuple(map(_poly_term, _list(terms, "polynomial coord")))
                       for terms in _list(desc.get("coords"), "polynomial coords"))
        return PolynomialMap(dim, coords)
    if kind == "pipeline":
        return PipelineMap(tuple(
            _map_spec(p) for p in _list(desc.get("parts"), "pipeline parts")))
    if kind == "sum":
        parts = _list(desc.get("parts"), "sum parts")
        return WeightedSumMap(tuple(_map_spec(p) for p in parts),
                              _vector(desc.get("weights"), len(parts), "sum weights"))
    raise ScenarioParseError(f"unknown map kind {kind!r}")


def _poly_term(value) -> tuple[float, tuple[int, ...]]:
    term = _mapping(value, "polynomial term")
    return (_real(term.get("coeff"), "polynomial coeff"),
            tuple(_integer(p, "polynomial power", 0)
                  for p in _list(term.get("powers"), "polynomial powers")))


def parse_theta_operator(desc: Mapping) -> tuple[LinOp, int]:
    """Build a finite-order operator plus its declared period."""
    from .cascade import LinOp
    kind = _mapping(desc, "cascade stage theta").get("kind")
    if kind == "rotation":
        turns = _phase(desc.get("turns", "0"), "rotation turns")
        dim = _integer(desc.get("dim", 2), "rotation dim", 2)
        plane = desc.get("plane", [0, 1])
        if not (isinstance(plane, list) and len(plane) == 2 and plane[0] != plane[1]
                and all(_integer(axis, "rotation plane axis", 0) < dim for axis in plane)):
            raise ScenarioParseError(
                f"rotation plane must be two distinct axes below dim {dim}, got {plane!r}")
        period = turns.denominator if turns.numerator else 1
        return LinOp.rotation(turns, dim=dim, plane=tuple(plane)), period
    if kind == "permutation":
        perm = [_integer(i, "permutation entry", 0)
                for i in _list(desc.get("perm"), "permutation perm")]
        return LinOp.permutation(perm), permutation_order(perm)
    if kind == "matrix":
        rows = _list(desc.get("entries"), "matrix entries")
        return (LinOp([_vector(row, len(rows), "matrix row") for row in rows]),
                _integer(desc.get("period"), "matrix period", 1))
    raise ScenarioParseError(f"unknown operator kind {kind!r}")


def parse_cascade_spec(doc: Mapping) -> CascadeSpec:
    from .cascade import CascadeSpec, CascadeStage
    section = _mapping(require_section(doc, "cascade"), "cascade")
    stages = []
    for st in _entries(section, "stages", "cascade"):
        theta, period = parse_theta_operator(st.get("theta"))
        stages.append(CascadeStage(
            _real(st.get("lambda"), "cascade stage lambda"), theta,
            _integer(st.get("period", period), "cascade stage period", 1)))
    return CascadeSpec(tuple(stages))


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


def _within_cap(count: int, what: str, cap: int) -> int:
    if count > cap:
        raise ScenarioParseError(f"{what} {count} exceeds cap {cap}")
    return count


def _mapping(value, what: str) -> Mapping:
    if not isinstance(value, dict):
        raise ScenarioParseError(f"{what} must be a JSON object")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ScenarioParseError(f"{what} must be a list, got {value!r}")
    return value


def _entries(section: Mapping, key: str, where: str = "universe") -> list:
    value = section.get(key, [])
    if not isinstance(value, list) or not all(isinstance(e, dict) for e in value):
        raise ScenarioParseError(f"{where} {key} must be a list of objects")
    return value


def _names(value, what: str) -> list:
    # one C-level pass over the element types keeps large carriers cheap
    if not isinstance(value, list) or not set(map(type, value)) <= {str}:
        raise ScenarioParseError(f"{what} must be a list of names")
    return value


def _name_table(value, what: str) -> Mapping[str, str]:
    # JSON object keys are always names; the values are checked in one pass
    if not isinstance(value, dict) or not set(map(type, value.values())) <= {str}:
        raise ScenarioParseError(f"{what} must map names to names")
    return value


def _fresh(table: Mapping, key: str, what: str) -> str:
    if key in table:
        raise ScenarioParseError(f"duplicate {what} {key!r}")
    return key


def _coupled_maps(doc: Mapping) -> tuple[MapSpec, MapSpec, int, int]:
    """phi and the observer, and the float operations of one call of
    F_r = phi + r * observer on floats and batched."""
    from .dynamics import perturbed_map
    update = parse_map_spec(require_section(doc, "phi"))
    observer = parse_map_spec(require_section(doc, "observer"))
    if observer.dim != update.dim:
        raise ScenarioParseError(
            f"observer dim {observer.dim} differs from phi dim {update.dim}")
    return update, observer, *_map_cost(perturbed_map(update, observer, 0.0))[1:]


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
    alpha: float


@dataclass(frozen=True)
class SweepSettings:
    update: MapSpec
    observer: MapSpec
    x0: tuple[float, ...] | None
    transient: int
    sample: int
    r_grid: tuple[float, ...]  # r_grid steps values from lo to hi


def parse_simulate_settings(doc: Mapping) -> SimulateSettings:
    """The simulate command's sections, checked before anything runs."""
    update, observer, f_r, _ = _coupled_maps(doc)
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
    sim = SimulateSettings(
        update, observer,
        x0=_vector(require_section(doc, "x0"), update.dim, "x0"),
        steps=_integer(require_section(doc, "steps"), "steps", 0),
        r=_real(doc.get("r", 0.0), "r"),
        schedule=_integer(doc.get("schedule", 1), "schedule", 1),
        bins=bins, lo=lo, hi=hi,
        alpha=parse_entropy_params(doc).alpha if "entropy" in doc else 1.0)
    # a call of F_r and of the observer per step, and a row per state
    _within_cap((sim.steps + 1) * (f_r + _map_cost(observer)[1]
                                   + ROW_WORK * (update.dim + 2)),
                "simulate work", WORK_CAP)
    return sim


def check_ledger_work(terms: int) -> None:
    """ScenarioParseError if `terms`, the terms of the simulate ledgers'
    entropy sums, are beyond WORK_CAP at TERM_WORK each. Known only after
    the rollout, they are not added to the simulate work, whose ROW_WORK
    already prices a ledger of few cells."""
    _within_cap(TERM_WORK * terms, "ledger work", WORK_CAP)


def parse_sweep_settings(doc: Mapping) -> SweepSettings:
    """The sweep command's sections, checked before anything runs."""
    import numpy as np
    from .cascade import DIM_CAP
    from .dynamics import DEFAULT_SAMPLE, DEFAULT_TRANSIENT
    update, observer, f_r, f_r_batch = _coupled_maps(doc)
    # each row's Jacobian is an operator, which DIM_CAP bounds
    _within_cap(update.dim, "dimension", DIM_CAP)
    grid = _mapping(require_section(doc, "r_grid"), "r_grid")
    lo, hi = _real(grid.get("lo"), "r_grid lo"), _real(grid.get("hi"), "r_grid hi")
    if not lo < hi:
        raise ScenarioParseError(f"r_grid needs lo < hi, got {lo} and {hi}")
    steps = _integer(grid.get("steps"), "r_grid steps", 2)
    transient = _integer(doc.get("transient", DEFAULT_TRANSIENT), "transient", 1)
    sample = _integer(doc.get("sample", DEFAULT_SAMPLE), "sample", 2)
    x0 = doc.get("x0")
    x0 = None if x0 is None else _vector(x0, update.dim, "x0")
    # a batch step per transient and sample step: a numpy call per float
    # operation of F_r, 15 calls of loop checks and an F_r call per row; then
    # solves as if for 32 grid values more than it has
    step = f_r_batch + CALL_WORK * 15 + steps * f_r
    _within_cap((transient + sample) * step
                + (steps + 32) * SOLVE_CALLS * (f_r + CALL_WORK), "sweep work", WORK_CAP)
    # built once its size is within the work cap; hi - lo must not overflow
    if not math.isfinite(hi - lo):
        raise ScenarioParseError(f"r_grid needs a finite hi - lo, got {lo} and {hi}")
    r_grid = tuple(np.linspace(lo, hi, steps).tolist())
    if not all(a < b for a, b in zip(r_grid, r_grid[1:])):
        raise ScenarioParseError(
            f"r_grid of {steps} values from {lo} to {hi} is not strictly increasing")
    return SweepSettings(update, observer, x0, transient, sample, r_grid)


# --- finite-set layer: theta, entropy traces and phases ----------------------


@dataclass(frozen=True)
class ThetaSettings:
    verification: FunctorRep
    update: FunctorRep
    start: FinObj


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


@dataclass(frozen=True)
class SquareCheck:
    """A resolved checks entry; `entry` is the entry as written, for the report."""

    entry: Mapping
    kind: str  # "observer_square" or "verification_square"
    functor: FunctorRep
    transformation: NatTransRep
    morphism: FinMor


@dataclass(frozen=True)
class EqualizerCheck:
    entry: Mapping
    left: FinMor
    right: FinMor
    expect: list[str] | None  # sorted


def parse_checks(doc: Mapping, uni: Universe) -> list[SquareCheck | EqualizerCheck]:
    """The checks section of check-axioms, resolved before anything runs."""
    out = []
    for entry in _entries(doc, "checks", "scenario"):
        kind = entry.get("type")
        what = f"{kind} check"
        if kind in ("observer_square", "verification_square"):
            out.append(SquareCheck(
                entry, kind, uni.functor(_name(entry, "functor", what)),
                uni.transformation(_name(entry, "transformation", what)),
                uni.morphism(_name(entry, "morphism", what))))
        elif kind == "equalizer":
            expect = entry.get("expect_elements")
            out.append(EqualizerCheck(
                entry, uni.morphism(_name(entry, "left", what)),
                uni.morphism(_name(entry, "right", what)),
                None if expect is None
                else sorted(_names(expect, "equalizer check expect_elements"))))
        else:
            raise ScenarioParseError(f"unknown check type {kind!r}")
    return out


def parse_theta_settings(doc: Mapping) -> ThetaSettings:
    """The theta command's sections, checked before anything runs."""
    uni = parse_universe(doc)
    section = _mapping(require_section(doc, "theta_limit"), "theta_limit")
    return ThetaSettings(
        verification=uni.functor(_name(section, "verification", "theta_limit")),
        update=uni.functor(_name(section, "update", "theta_limit")),
        start=uni.object(_name(section, "start", "theta_limit")))


def parse_entropy_trace(doc: Mapping, uni: Universe) -> EntropyTraceSettings:
    """The entropy_trace section and its k_schedule, checked before anything runs."""
    section = _mapping(require_section(doc, "entropy_trace"), "entropy_trace")
    start = uni.object(_name(section, "start", "entropy_trace"))
    transition = uni.morphism(_name(section, "transition", "entropy_trace"))
    observer = uni.morphism(_name(section, "observer", "entropy_trace"))
    if transition.src != transition.dst:
        raise ScenarioParseError("entropy_trace transition must be an endomap")
    steps = _integer(section.get("steps", 16), "entropy_trace steps", 0)
    # a step pushes the state through both maps, checks both distributions
    # and sums both entropies: about three terms an element, plus a trace row
    # (15 to 23 us) priced as four simulate rows
    _within_cap((steps + 1) * (4 * ROW_WORK + 3 * TERM_WORK
                               * (start.size + observer.dst.size)),
                "entropy_trace work", WORK_CAP)
    probs = section.get("initial_probs")
    k_schedule = _mapping(doc.get("entropy", {}), "entropy").get("k_schedule")
    if k_schedule is not None:
        if not isinstance(k_schedule, list) or len(k_schedule) < steps:
            raise ScenarioParseError(
                f"entropy k_schedule must list at least {steps} numbers")
        k_schedule = tuple(_real(k, "entropy k_schedule entry") for k in k_schedule)
        if min(k_schedule, default=0.0) < 0:  # as EntropyParams holds K
            raise ScenarioParseError("entropy k_schedule entries must be non-negative")
    return EntropyTraceSettings(
        initial=(ProbState(start, _vector(probs, start.size,
                                          "entropy_trace initial_probs"))
                 if probs else ProbState.uniform(start)),
        transition=transition, observer=observer, steps=steps,
        k_schedule=k_schedule)


def parse_entropy_settings(doc: Mapping) -> tuple[
        EntropyParams, EntropyTraceSettings | None, PhaseSettings | None]:
    """The entropy command's sections, at least one of entropy_trace and phases."""
    params = parse_entropy_params(doc)
    if "entropy_trace" not in doc and "phases" not in doc:
        raise MissingSectionError("entropy_trace")
    uni = parse_universe(doc)
    return (params, parse_entropy_trace(doc, uni) if "entropy_trace" in doc else None,
            parse_phase_settings(doc, uni) if "phases" in doc else None)


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
        carrier = uni.object(_name(section, "carrier", "phases"))
        pairing = (carrier, {k: _phase(v, f"phase of {k!r}") for k, v in table.items()})
        missing = [x for x in carrier.elements if x not in table]
        extra = [x for x in table if x not in carrier.index]
        if missing or extra:
            raise ScenarioParseError(
                f"phases assignments must name exactly the elements of {carrier.id}: "
                f"missing {missing}, extra {extra}")
        # the pairing makes |g|^2 pairs of each group g of one phase; a pair
        # (about 0.9 us and 165 bytes) is priced as a simulate row
        sizes: dict[RationalPhase, int] = {}
        for phase in pairing[1].values():
            sizes[phase] = sizes.get(phase, 0) + 1
        _within_cap(ROW_WORK * sum(k * k for k in sizes.values()),
                    "phases pairing work", WORK_CAP)
    if "theta" in section:
        theta = uni.morphism(_name(section, "theta", "phases"))
        order = automorphism_order(theta)
        period = (_integer(section["period"], "phases period", 1) if "period" in section
                  else order)
        if period % order:
            raise ScenarioParseError(
                f"phases period {period} is not a multiple of theta's order {order}")
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
        if not cycle or any(a.base.dst != b.base.src
                            for a, b in zip(cycle, cycle[1:] + cycle[:1])):
            raise ScenarioParseError("phases cycle must chain head to tail and close")
    return PhaseSettings(pairing, lock, cycle)
