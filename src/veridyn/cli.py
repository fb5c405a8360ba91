"""Scenario-driven command line: load JSON, dispatch, emit deterministic artifacts.

Exit codes: 0 success, 1 check failure, 2 input error, 3 non-convergence.
A command computes its artifacts and returns them; main writes them and a
run_manifest.json listing them into a temporary directory beside --out,
then moves each into --out, the manifest last. A command that raises, or a
write that fails, leaves --out as it was. Files that the manifest already
in --out listed and this run did not write are then deleted; no other file
is. Identical scenario and seed produce byte-identical CSV/JSON artifacts
(the manifest itself carries wall time and is exempt).

The matrix layer (numpy, dynamics, cascade) is imported inside simulate,
sweep and cascade, the commands that run it, so check-axioms, theta and
entropy start without it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from ._formats import write_json, write_text
from .category import (
    check_observer_square,
    check_verification_square,
    equalizer,
    validate_functor,
)
from .coalgebra import build_chain, chain_to_csv, iterate_to_theta, verify_theta
from .entropy import (
    build_trace,
    entropy_direction_report,
    histogram_cells,
    ledger_work,
    prefix_entropies,
    pushforward,
    shannon_entropy,
    trace_to_csv,
)
from .errors import (
    NoConvergenceError,
    ScenarioParseError,
    UndefinedClaimError,
    VeridynError,
)
from .phase import cycle_net_phase, interference_pairing, phase_lock_space
from .scenario import (
    SquareCheck,
    check_ledger_work,
    load_scenario,
    parse_cascade_spec,
    parse_checks,
    parse_entropy_settings,
    parse_simulate_settings,
    parse_sweep_settings,
    parse_theta_settings,
    parse_universe,
    scenario_seed,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_CONVERGENCE = 3


# --- commands -------------------------------------------------------------


def cmd_check_axioms(doc: dict) -> tuple[int, dict]:
    uni = parse_universe(doc)
    checks = parse_checks(doc, uni)
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
    for check in checks:
        if isinstance(check, SquareCheck):
            checker = (check_observer_square if check.kind == "observer_square"
                       else check_verification_square)
            report = checker(check.functor, check.transformation, check.morphism)
            explicit.append({"check": check.entry, "report": report.to_dict()})
            all_ok = all_ok and report.holds
        else:
            sub, _ = equalizer(check.left, check.right)
            ok = check.expect is None or list(sub.elements) == check.expect
            explicit.append({"check": check.entry, "elements": list(sub.elements),
                             "holds": ok})
            all_ok = all_ok and ok
    report_doc = {
        "functors": functor_reports,
        "squares": squares,
        "explicit_checks": explicit,
        "all_hold": all_ok,
    }
    return (EXIT_OK if all_ok else EXIT_CHECK_FAILED), {"axioms_report.json": report_doc}


def cmd_theta(doc: dict) -> tuple[int, dict]:
    th = parse_theta_settings(doc)
    result = iterate_to_theta(th.verification, th.update, th.start)
    doc_out = result.to_dict()
    if result.converged:
        verdict = verify_theta(th.verification, th.update, result)
        doc_out["verified"] = verdict.to_dict()
        code = EXIT_OK if verdict.holds else EXIT_CHECK_FAILED
    else:
        doc_out["verified"] = None
        code = EXIT_NO_CONVERGENCE
    return code, {"theta_chain.csv": chain_to_csv(build_chain(result)),
                  "theta_result.json": doc_out}


def cmd_simulate(doc: dict) -> tuple[int, dict]:
    from .dynamics import lyapunov_trace, simulate_coupled, trajectory_to_csv
    sim = parse_simulate_settings(doc)
    traj = simulate_coupled(sim.update, sim.observer, sim.x0, sim.steps, r=sim.r,
                            schedule=sim.schedule)
    cells = [histogram_cells(states, sim.bins, sim.lo, sim.hi)
             for states in (traj.xs, traj.os)]
    check_ledger_work(sum(map(ledger_work, cells)))
    h_state, h_obs = map(prefix_entropies, cells)
    # dropped after their last use: at the work cap, keeping every list alive
    # while the CSV is built held about 800 bytes a row
    del cells
    report = lyapunov_trace(traj, h_state, h_obs, sim.alpha)
    del h_state, h_obs
    return EXIT_OK, {
        "trajectory.csv": trajectory_to_csv(traj, report),
        "lyapunov.json": {
            "alpha": sim.alpha,
            "schedule": sim.schedule,
            "monotone": report.monotone,
            "violations": list(report.violations),
        },
    }


def cmd_sweep(doc: dict) -> tuple[int, dict]:
    from .dynamics import diagram_to_csv, find_critical_r, sweep_bifurcation
    sw = parse_sweep_settings(doc)
    diagram = sweep_bifurcation(sw.update, sw.observer, sw.r_grid,
                                transient=sw.transient, sample=sw.sample, x0=sw.x0)
    critical = find_critical_r(sw.update, sw.observer, sw.r_grid, x0=sw.x0)
    return EXIT_OK, {"diagram.csv": diagram_to_csv(diagram, sw.update.dim),
                     "critical_report.json": critical.to_dict()}


def cmd_cascade(doc: dict) -> tuple[int, dict]:
    from .cascade import (build_cascade, cascade_fixed_points, check_commuting,
                          check_hull_claim, spectrum, spectrum_to_csv)
    spec = parse_cascade_spec(doc)
    op = build_cascade(spec)
    report = spectrum(op)
    try:
        hull = check_hull_claim(report, spec)
        hull_note = None
    except UndefinedClaimError as exc:
        hull = None
        hull_note = str(exc)
    report = replace(report, hull_check=tuple(hull) if hull is not None else None)
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
    return EXIT_OK, {
        "spectrum.csv": spectrum_to_csv(report),
        "cascade_report.json": {
            "dim": spec.dim,
            "contraction": spec.contraction,
            "operator": op.entries.tolist(),
            "spectrum": report.to_dict(),
            "hull_note": hull_note,
            "fixed_point_basis": [vec.tolist() for vec in basis],
            "commuting": commuting,
            "unit_modulus_gap_with_undamped_stage": unit_eig_note,
        },
    }


def cmd_entropy(doc: dict) -> tuple[int, dict]:
    params, tr, ph = parse_entropy_settings(doc)
    artifacts = {}
    if tr is not None:
        state = tr.initial
        H = []
        H_O = []
        for _ in range(tr.steps + 1):
            H.append(shannon_entropy(state))
            H_O.append(shannon_entropy(pushforward(state, tr.observer)))
            state = pushforward(state, tr.transition)
        trace = build_trace(H, H_O, params, k_schedule=tr.k_schedule)
        drops, rises = entropy_direction_report(H)
        artifacts["entropy_trace.csv"] = trace_to_csv(trace, params)
        artifacts["entropy_report.json"] = {
            "steps": tr.steps,
            "step_violations": [s.n for s in trace.steps if not s.step_bound_ok],
            "obs_violations": [s.n for s in trace.steps if not s.obs_bound_ok],
            # findings: neither direction claim sets the exit code
            "postulate_violations": drops,
            "contraction_violations": rises,
        }
    if ph is not None:
        phase_report = {}
        if ph.pairing is not None:
            phase_report["pairing"] = list(interference_pairing(*ph.pairing).elements)
        if ph.lock is not None:
            theta, k = ph.lock
            phase_report["lock_space"] = list(phase_lock_space(theta, k).elements)
            phase_report["period"] = k
        if ph.cycle is not None:
            net = cycle_net_phase(ph.cycle)
            phase_report["cycle_net_phase"] = str(net)
            phase_report["cycle_zero_net"] = net.is_zero()
        artifacts["phase_report.json"] = phase_report
    return EXIT_OK, artifacts


# --- dispatch ---------------------------------------------------------------

# Each command runs cmd_<command>(doc), looked up by name at call time, so
# wrapping a cmd_* function on the module also wraps its command. It returns
# (exit code, artifacts): each file name mapped to its CSV text or JSON value.
COMMANDS = ("check-axioms", "theta", "simulate", "sweep", "cascade", "entropy")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veridyn",
        description="Scenario-driven checks and simulations for "
                    "observer-coupled fixed-point dynamics.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", required=True, help="scenario JSON path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed (unsigned 64-bit)")
    return parser


def _listed_outputs(out: Path) -> set[str]:
    """The file names that the run manifest already in `out` lists.

    A run deletes those it did not write, so a reused --out holds only its
    manifest's files. A manifest that cannot be read lists nothing, and a
    name that is not a plain file name in `out` is dropped.
    """
    try:
        listed = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
        listed = listed["outputs"]
    except (OSError, ValueError, RecursionError, TypeError, KeyError):
        return set()
    if not isinstance(listed, list):
        return set()
    return {name for name in listed if isinstance(name, str)
            and Path(name).name == name and name != "run_manifest.json"}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        if args.seed is not None and not 0 <= args.seed < 2 ** 64:
            raise ScenarioParseError("--seed must be an unsigned 64-bit integer")
        doc, digest = load_scenario(args.scenario)
        seed = args.seed if args.seed is not None else scenario_seed(doc)
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        code, artifacts = handler(doc)
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except VeridynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    out = Path(args.out)
    try:
        stale = _listed_outputs(out) - artifacts.keys()
        out.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=f".{out.name}.", dir=out.parent) as tmp:
            for name, value in artifacts.items():
                (write_text if isinstance(value, str) else write_json)(Path(tmp, name), value)
            write_json(Path(tmp, "run_manifest.json"), {
                "scenario_hash": digest,
                "tool_version": __version__,
                "command": args.command,
                "outputs": sorted(artifacts),
                "wall_time_s": time.monotonic() - t0,
                "seed": seed,
            })
            out.mkdir(exist_ok=True)
            for name in [*artifacts, "run_manifest.json"]:
                os.replace(Path(tmp, name), out / name)
        for name in stale:
            if (out / name).is_file():
                (out / name).unlink()
    except OSError as exc:
        print(f"error: cannot write to --out {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
