"""Scenario-driven command line: load JSON, dispatch, emit deterministic artifacts.

Exit codes: 0 success, 1 check failure, 2 input error, 3 non-convergence.
Every command writes a run_manifest.json listing the files it produced;
identical scenario and seed produce byte-identical CSV/JSON artifacts
(the manifest itself carries wall time and is exempt).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._formats import write_json, write_text
from .cascade import (
    build_cascade,
    cascade_fixed_points,
    check_commuting,
    check_hull_claim,
    spectrum,
    spectrum_to_csv,
)
from .category import (
    FinObj,
    check_observer_square,
    check_verification_square,
    equalizer,
    validate_functor,
)
from .coalgebra import build_chain, chain_to_csv, iterate_to_theta, verify_theta
from .dynamics import (
    diagram_to_csv,
    find_critical_r,
    lyapunov_trace,
    simulate_coupled,
    sweep_bifurcation,
    trajectory_to_csv,
)
from .entropy import (
    ProbState,
    build_trace,
    pushforward,
    shannon_entropy,
    trace_to_csv,
)
from .errors import (
    MissingSectionError,
    NoConvergenceError,
    ScenarioParseError,
    UndefinedClaimError,
    UnresolvedReferenceError,
    VeridynError,
)
from .phase import (
    RationalPhase,
    PhasedMorphism,
    cycle_net_phase,
    interference_pairing,
    parse_phase_table,
    phase_lock_space,
)
from .scenario import (
    load_scenario,
    parse_cascade_spec,
    parse_entropy_params,
    parse_map_spec,
    parse_universe,
    require_section,
    scenario_hash,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_CONVERGENCE = 3


def _state_histogram(states, bins: int, lo: float, hi: float) -> list[ProbState]:
    """Prefix-empirical distributions of visited state bins.

    Memory-flavoured discretization: the distribution at step n is the
    histogram of all states seen up to n over a fixed per-coordinate grid.
    """
    dim = len(states[0])
    labels = []
    width = len(str(bins - 1))
    if dim == 1:
        labels = [f"b{i:0{width}d}" for i in range(bins)]
    else:
        from itertools import product
        labels = ["b" + "_".join(f"{i:0{width}d}" for i in idx)
                  for idx in product(range(bins), repeat=dim)]
    carrier = FinObj("bins", tuple(labels))
    index_of = {lab: i for i, lab in enumerate(carrier.elements)}
    span = hi - lo
    counts = np.zeros(carrier.size)
    out = []
    for n, vec in enumerate(states):
        idx = tuple(min(bins - 1, max(0, int((v - lo) / span * bins)))
                    for v in vec)
        if dim == 1:
            lab = f"b{idx[0]:0{width}d}"
        else:
            lab = "b" + "_".join(f"{i:0{width}d}" for i in idx)
        counts[index_of[lab]] += 1.0
        out.append(ProbState(carrier, tuple(counts / (n + 1))))
    return out


# --- commands -------------------------------------------------------------


def cmd_check_axioms(doc: dict, out: Path) -> tuple[int, list[str]]:
    uni = parse_universe(doc)
    functor_reports = {}
    all_ok = True
    for name, functor in sorted(uni.functors.items()):
        defects = validate_functor(functor)
        functor_reports[name] = {
            "accepted": not defects,
            "defects": [d.to_dict() for d in defects],
        }
        all_ok = all_ok and not defects
    squares = uni.all_square_checks()
    for entry in squares:
        if entry["status"] == "checked" and not entry["report"]["holds"]:
            all_ok = False
    explicit = []
    for check in doc.get("checks", []):
        kind = check.get("type")
        if kind in ("observer_square", "verification_square"):
            checker = (check_observer_square if kind == "observer_square"
                       else check_verification_square)
            functor = uni.functor(check["functor"])
            trans = uni.transformation(check["transformation"])
            mor = uni.morphism(check["morphism"])
            report = checker(functor, trans, mor)
            explicit.append({"check": check, "report": report.to_dict()})
            all_ok = all_ok and report.holds
        elif kind == "equalizer":
            sub, _ = equalizer(uni.morphism(check["left"]),
                               uni.morphism(check["right"]))
            expected = check.get("expect_elements")
            ok = expected is None or list(sub.elements) == sorted(expected)
            explicit.append({"check": check, "elements": list(sub.elements),
                             "holds": ok})
            all_ok = all_ok and ok
        else:
            raise ScenarioParseError(f"unknown check type {kind!r}")
    report_doc = {
        "functors": functor_reports,
        "squares": squares,
        "explicit_checks": explicit,
        "all_hold": all_ok,
    }
    write_json(out / "axioms_report.json", report_doc)
    return (EXIT_OK if all_ok else EXIT_CHECK_FAILED), ["axioms_report.json"]


def cmd_theta(doc: dict, out: Path) -> tuple[int, list[str]]:
    uni = parse_universe(doc)
    section = require_section(doc, "theta_limit")
    verification = uni.functor(section["verification"])
    update = uni.functor(section["update"])
    start = uni.object(section["start"])
    max_iter = int(section.get("max_iter", 64))
    result = iterate_to_theta(verification, update, start, max_iter)
    outputs = ["theta_result.json", "theta_chain.csv"]
    chain = build_chain(verification, update, start,
                        result.iterations if result.converged else max_iter)
    write_text(out / "theta_chain.csv", chain_to_csv(chain))
    doc_out = result.to_dict()
    if result.converged:
        verdict = verify_theta(verification, update, result)
        doc_out["verified"] = verdict.to_dict()
        write_json(out / "theta_result.json", doc_out)
        return (EXIT_OK if verdict.holds else EXIT_CHECK_FAILED), outputs
    doc_out["verified"] = None
    write_json(out / "theta_result.json", doc_out)
    return EXIT_NO_CONVERGENCE, outputs


def cmd_simulate(doc: dict, out: Path, seed: int) -> tuple[int, list[str]]:
    update = parse_map_spec(require_section(doc, "phi"))
    observer = parse_map_spec(require_section(doc, "observer"))
    x0 = require_section(doc, "x0")
    steps = int(require_section(doc, "steps"))
    r = float(doc.get("r", 0.0))
    schedule = int(doc.get("schedule", 1))
    traj = simulate_coupled(update, observer, x0, steps, r=r,
                            schedule=schedule, seed=seed)
    ledger = doc.get("ledger", {})
    bins = int(ledger.get("bins", 16))
    lo = float(ledger.get("lo", -2.0))
    hi = float(ledger.get("hi", 2.0))
    if bins < 1 or not hi > lo:
        raise ScenarioParseError("ledger binning needs bins >= 1 and hi > lo")
    alpha = 1.0
    if "entropy" in doc:
        alpha = parse_entropy_params(doc).alpha
    px = _state_histogram([s.x for s in traj.states], bins, lo, hi)
    po = _state_histogram([s.o for s in traj.states], bins, lo, hi)
    report = lyapunov_trace(traj, list(zip(px, po)), alpha)
    write_text(out / "trajectory.csv", trajectory_to_csv(traj, report))
    write_json(out / "lyapunov.json", {
        "alpha": alpha,
        "schedule": schedule,
        "monotone": report.monotone,
        "violations": list(report.violations),
    })
    return EXIT_OK, ["trajectory.csv", "lyapunov.json"]


def cmd_sweep(doc: dict, out: Path, seed: int, threads: int) -> tuple[int, list[str]]:
    update = parse_map_spec(require_section(doc, "phi"))
    observer = parse_map_spec(require_section(doc, "observer"))
    grid_spec = require_section(doc, "r_grid")
    lo, hi = float(grid_spec["lo"]), float(grid_spec["hi"])
    steps = int(grid_spec["steps"])
    transient = int(doc.get("transient", 500))
    sample = int(doc.get("sample", 64))
    x0 = doc.get("x0")
    r_grid = np.linspace(lo, hi, steps)
    diagram = sweep_bifurcation(update, observer, r_grid, transient=transient,
                                sample=sample, x0=x0, seed=seed, threads=threads,
                                period_tol=float(doc.get("period_tol", 1e-6)),
                                max_period=int(doc.get("max_period", 16)),
                                divergence=float(doc.get("divergence", 1e12)))
    write_text(out / "diagram.csv", diagram_to_csv(diagram, update.dim))
    critical = find_critical_r(update, observer, lo, hi, steps, x0=x0)
    write_json(out / "critical_report.json", critical.to_dict())
    return EXIT_OK, ["diagram.csv", "critical_report.json"]


def cmd_cascade(doc: dict, out: Path) -> tuple[int, list[str]]:
    spec = parse_cascade_spec(doc)
    op = build_cascade(spec)
    report = spectrum(op)
    try:
        hull = check_hull_claim(report, spec)
        hull_note = None
    except UndefinedClaimError as exc:
        hull = None
        hull_note = str(exc)
    from dataclasses import replace
    report = replace(report, hull_check=tuple(hull) if hull is not None else None)
    write_text(out / "spectrum.csv", spectrum_to_csv(report))
    basis = cascade_fixed_points(op)
    commuting = []
    for i in range(len(spec.stages)):
        for j in range(i + 1, len(spec.stages)):
            ok, norm = check_commuting(spec.stages[i].theta, spec.stages[j].theta)
            commuting.append({"i": i, "j": j, "commute": ok, "norm": norm})
    unit_eig_note = None
    if any(s.lam == 1.0 for s in spec.stages):
        # containment claim side-note: nearest distance of the spectrum
        # to unit modulus when some damping factor equals one
        unit_eig_note = min(abs(abs(ev) - 1.0) for ev in report.eigenvalues)
    write_json(out / "cascade_report.json", {
        "dim": spec.dim,
        "contraction": spec.contraction,
        "operator": [[float(v) for v in row] for row in op.entries],
        "spectrum": report.to_dict(),
        "hull_note": hull_note,
        "fixed_point_basis": [[float(v) for v in vec] for vec in basis],
        "commuting": commuting,
        "unit_modulus_gap_with_undamped_stage": unit_eig_note,
    })
    return EXIT_OK, ["spectrum.csv", "cascade_report.json"]


def cmd_entropy(doc: dict, out: Path) -> tuple[int, list[str]]:
    params = parse_entropy_params(doc)
    outputs = []
    wrote_something = False
    if "entropy_trace" in doc:
        uni = parse_universe(doc)
        section = doc["entropy_trace"]
        start = uni.object(section["start"])
        transition = uni.morphism(section["transition"])
        observer = uni.morphism(section["observer"])
        steps = int(section.get("steps", 16))
        if transition.src != transition.dst:
            raise ScenarioParseError("entropy_trace transition must be an endomap")
        probs = section.get("initial_probs")
        state = (ProbState(start, tuple(float(p) for p in probs))
                 if probs else ProbState.uniform(start))
        H = []
        H_O = []
        k_schedule = doc.get("entropy", {}).get("k_schedule")
        for _ in range(steps + 1):
            H.append(shannon_entropy(state))
            H_O.append(shannon_entropy(pushforward(state, observer)))
            state = pushforward(state, transition)
        trace = build_trace(H, H_O, params, k_schedule=k_schedule)
        write_text(out / "entropy_trace.csv", trace_to_csv(trace, params))
        write_json(out / "entropy_report.json", {
            "steps": steps,
            "step_violations": [s.n for s in trace.steps if not s.step_bound_ok],
            "obs_violations": [s.n for s in trace.steps if not s.obs_bound_ok],
        })
        outputs += ["entropy_trace.csv", "entropy_report.json"]
        wrote_something = True
    if "phases" in doc:
        uni = parse_universe(doc)
        section = doc["phases"]
        phase_doc = {}
        if "carrier" in section and "assignments" in section:
            carrier = uni.object(section["carrier"])
            table = parse_phase_table(section["assignments"])
            pairing = interference_pairing(carrier, table)
            phase_doc["pairing"] = list(pairing.elements)
        if "theta" in section:
            theta = uni.morphism(section["theta"])
            from .category import automorphism_order
            k = int(section.get("period", automorphism_order(theta)))
            locked = phase_lock_space(theta, k)
            phase_doc["lock_space"] = list(locked.elements)
            phase_doc["period"] = k
        if "cycle" in section:
            loop = [PhasedMorphism(uni.morphism(mid), RationalPhase.parse(ph))
                    for mid, ph in section["cycle"]]
            net = cycle_net_phase(loop)
            phase_doc["cycle_net_phase"] = str(net)
            phase_doc["cycle_zero_net"] = net.is_zero()
        write_json(out / "phase_report.json", phase_doc)
        outputs.append("phase_report.json")
        wrote_something = True
    if not wrote_something:
        raise MissingSectionError("entropy_trace")
    return EXIT_OK, outputs


# --- dispatch ---------------------------------------------------------------

# Handlers are looked up by name at call time, so wrapping a cmd_* function
# on the module also wraps its command.
COMMANDS = {
    "check-axioms": lambda doc, out, seed, threads: cmd_check_axioms(doc, out),
    "theta": lambda doc, out, seed, threads: cmd_theta(doc, out),
    "simulate": lambda doc, out, seed, threads: cmd_simulate(doc, out, seed),
    "sweep": lambda doc, out, seed, threads: cmd_sweep(doc, out, seed, threads),
    "cascade": lambda doc, out, seed, threads: cmd_cascade(doc, out),
    "entropy": lambda doc, out, seed, threads: cmd_entropy(doc, out),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veridyn",
        description="Scenario-driven checks and simulations for "
                    "observer-coupled fixed-point dynamics.",
    )
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--scenario", required=True, help="scenario JSON path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed (unsigned 64-bit)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for sweep rows")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        if args.seed is not None and not 0 <= args.seed < 2 ** 64:
            raise ScenarioParseError("--seed must be an unsigned 64-bit integer")
        doc = load_scenario(args.scenario)
        seed = args.seed if args.seed is not None else int(doc.get("seed", 0))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        code, outputs = COMMANDS[args.command](doc, out, seed,
                                               max(1, args.threads))
        write_json(out / "run_manifest.json", {
            "scenario_hash": scenario_hash(doc),
            "tool_version": __version__,
            "command": args.command,
            "outputs": sorted(outputs),
            "wall_time_s": time.monotonic() - t0,
            "seed": seed,
        })
        return code
    except (ScenarioParseError, MissingSectionError, UnresolvedReferenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except VeridynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
