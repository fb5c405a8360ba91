import cmath
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ENTROPY_CAP_SHAPES,
    WORK_CAP_SHAPES,
    entropy_cap_scenario,
    pairing_scenario,
    scan_scenario,
    work_cap_scenario,
)

from veridyn import _formats, cli, dynamics
from veridyn.cascade import DIM_CAP, RESIDUAL_TOL
from veridyn.cli import main
from veridyn.dynamics import (
    AffineMap,
    PipelineMap,
    PolynomialMap,
    WeightedSumMap,
    simulate_coupled,
)
from veridyn.entropy import histogram_cells, ledger_work, pushforward
from veridyn.errors import ScenarioParseError
from veridyn.scenario import (
    MAP_SIZE_CAP,
    ROW_WORK,
    TERM_WORK,
    WORK_CAP,
    parse_entropy_settings,
    parse_entropy_trace,
    parse_simulate_settings,
    parse_sweep_settings,
    parse_universe,
)

GOOD_UNIVERSE = {
    "objects": [
        {"id": "X", "elements": ["a", "b"]},
        {"id": "S", "elements": ["s"]},
    ],
    "morphisms": [
        {"id": "swap", "src": "X", "dst": "X", "mapping": {"a": "b", "b": "a"}},
        {"id": "collapse", "src": "X", "dst": "S", "mapping": {"a": "s", "b": "s"}},
        {"id": "id_S", "src": "S", "dst": "S", "mapping": {"s": "s"}},
    ],
    "functors": [
        {"name": "O", "obj_map": {"X": "S", "S": "S"},
         "mor_map": {"swap": "id_S", "id_S": "id_S"}},
    ],
    "transformations": [
        {"name": "v", "source": "Id", "target": "O",
         "components": {"X": "collapse", "S": "id_S"}},
    ],
}

LOGISTIC = {
    "seed": 11,
    "phi": {"kind": "affine", "A": [[0.0]], "b": [0.0]},
    "observer": {"kind": "polynomial", "dim": 1,
                 "coords": [[{"coeff": 1.0, "powers": [1]},
                             {"coeff": -1.0, "powers": [2]}]]},
    "x0": [0.5],
    "steps": 40,
    "r": 2.5,
    "r_grid": {"lo": 2.8, "hi": 3.2, "steps": 9},
    "transient": 1500,
    "sample": 32,
}


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(cmd, scenario, out, *extra):
    return main([cmd, "--scenario", scenario, "--out", str(out), *extra])


def test_check_axioms_pass_and_manifest(tmp_path):
    scen = _write(tmp_path, {"universe": GOOD_UNIVERSE})
    out = tmp_path / "out"
    assert _run("check-axioms", scen, out) == 0
    report = json.loads((out / "axioms_report.json").read_text())
    assert report["all_hold"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "check-axioms"
    assert "axioms_report.json" in manifest["outputs"]
    assert len(manifest["scenario_hash"]) == 64


def test_check_axioms_localizes_broken_component(tmp_path):
    doc = json.loads(json.dumps(GOOD_UNIVERSE))
    doc["objects"].append({"id": "T", "elements": ["t", "u"]})
    doc["morphisms"] += [
        {"id": "emb", "src": "X", "dst": "T", "mapping": {"a": "t", "b": "u"}},
        {"id": "emb_bad", "src": "X", "dst": "T", "mapping": {"a": "u", "b": "t"}},
        {"id": "keep", "src": "T", "dst": "T", "mapping": {"t": "t", "u": "u"}},
    ]
    doc["functors"] = [{"name": "O", "obj_map": {"X": "T", "T": "T"},
                        "mor_map": {"swap": "keep", "keep": "keep"}}]
    doc["transformations"] = [{"name": "v", "source": "Id", "target": "O",
                               "components": {"X": "emb_bad", "T": "keep"}}]
    scen = _write(tmp_path, {"universe": doc})
    out = tmp_path / "out"
    assert _run("check-axioms", scen, out) == 1
    report = json.loads((out / "axioms_report.json").read_text())
    assert not report["all_hold"]
    bad = [s for s in report["squares"]
           if s["status"] == "checked" and not s["report"]["holds"]]
    assert bad and bad[0]["report"]["violations"]


def test_check_axioms_explicit_checks(tmp_path):
    scen = _write(tmp_path, {
        "universe": GOOD_UNIVERSE,
        "checks": [
            {"type": "observer_square", "functor": "O",
             "transformation": "v", "morphism": "swap"},
            {"type": "equalizer", "left": "collapse", "right": "collapse",
             "expect_elements": ["a", "b"]},
        ],
    })
    out = tmp_path / "out"
    assert _run("check-axioms", scen, out) == 0
    report = json.loads((out / "axioms_report.json").read_text())
    assert len(report["explicit_checks"]) == 2
    assert report["explicit_checks"][0]["report"]["holds"]
    assert report["explicit_checks"][1]["holds"]
    bad = _write(tmp_path, {
        "universe": GOOD_UNIVERSE,
        "checks": [{"type": "equalizer", "left": "collapse",
                    "right": "collapse", "expect_elements": ["a"]}],
    }, name="bad.json")
    assert _run("check-axioms", bad, tmp_path / "out2") == 1


def test_malformed_json_is_input_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["check-axioms", "--scenario", str(path),
                 "--out", str(tmp_path / "o")]) == 2


def test_missing_section_named(tmp_path, capsys):
    scen = _write(tmp_path, {"observer": LOGISTIC["observer"], "x0": [0.5],
                             "steps": 5})
    assert _run("simulate", scen, tmp_path / "o") == 2
    assert "phi" in capsys.readouterr().err


def test_theta_converging_and_nonconverging(tmp_path):
    universe = {
        "objects": [
            {"id": "A", "elements": ["a1", "a2"]},
            {"id": "W", "elements": ["w1", "w2", "w3"]},
            {"id": "S", "elements": ["s"]},
        ],
        "morphisms": [],
        "functors": [
            {"name": "Id", "identity": True},
            {"name": "P", "obj_map": {"A": "W", "W": "S", "S": "S"}, "mor_map": {}},
        ],
    }
    scen = _write(tmp_path, {
        "universe": universe,
        "theta_limit": {"verification": "Id", "update": "P", "start": "A"},
    })
    out = tmp_path / "out"
    assert _run("theta", scen, out) == 0
    result = json.loads((out / "theta_result.json").read_text())
    assert result["converged"] and result["carrier"]["id"] == "S"
    assert (out / "theta_chain.csv").read_text().splitlines()[0] == "stage,carrier_size"

    # P swaps carriers of 2 and 1 elements: the orbit repeats from stage 0
    universe["functors"][1]["obj_map"] = {"A": "S", "S": "A", "W": "W"}
    out2 = tmp_path / "out2"
    assert _run("theta", _write(tmp_path, {
        "universe": universe,
        "theta_limit": {"verification": "Id", "update": "P", "start": "A"},
    }, name="swap.json"), out2) == 3
    result = json.loads((out2 / "theta_result.json").read_text())
    assert not result["converged"] and result["verified"] is None
    assert result["cycle"] == {"from": 0, "period": 2}
    assert (result["iterations"], result["carrier"]["id"]) == (2, "A")
    assert (out2 / "theta_chain.csv").read_text() == "stage,carrier_size\n0,2\n1,1\n2,2\n"


def test_theta_cycle_after_a_tail(tmp_path):
    out = tmp_path / "out"
    assert _run("theta", str(SCENARIOS / "theta_cycle.json"), out) == 3
    result = json.loads((out / "theta_result.json").read_text())
    assert result["cycle"] == {"from": 2, "period": 3}
    assert (result["iterations"], result["carrier"]["id"]) == (5, "C0")
    # a tail of 1 and 2 elements, then the cycle 3 -> 4 -> 5 -> 3
    assert (out / "theta_chain.csv").read_text().splitlines() == [
        "stage,carrier_size", "0,1", "1,2", "2,3", "3,4", "4,5", "5,3"]


def test_theta_orbit_leaving_the_universe_is_an_input_error(tmp_path, capsys):
    growing = {
        "objects": [{"id": f"G{i}", "elements": [f"x{j}" for j in range(i + 1)]}
                    for i in range(6)],
        "morphisms": [],
        "functors": [
            {"name": "Id", "identity": True},
            {"name": "V", "obj_map": {f"G{i}": f"G{i + 1}" for i in range(5)},
             "mor_map": {}},
        ],
    }
    scen = _write(tmp_path, {
        "universe": growing,
        "theta_limit": {"verification": "V", "update": "Id", "start": "G0"},
    })
    out = tmp_path / "out"
    assert _run("theta", scen, out) == 2
    assert "G5" in _assert_rejected(capsys, out)


def test_theta_max_iter_is_not_read(tmp_path):
    doc = json.loads(UNIVERSE_SCENARIO.read_text())
    outputs = {}
    for max_iter in (None, 1):
        if max_iter is not None:
            doc["theta_limit"]["max_iter"] = max_iter
        out = tmp_path / f"out-{max_iter}"
        assert _run("theta", _write(tmp_path, doc), out) == 0
        outputs[max_iter] = {p.name: p.read_bytes() for p in out.iterdir()
                             if p.name != "run_manifest.json"}
    assert outputs[None] and outputs[1] == outputs[None]


def test_simulate_outputs(tmp_path):
    scen = _write(tmp_path, LOGISTIC)
    out = tmp_path / "sim"
    assert _run("simulate", scen, out) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "n,x0,o0,L"
    assert len(lines) == LOGISTIC["steps"] + 2
    lyap = json.loads((out / "lyapunov.json").read_text())
    assert "monotone" in lyap and lyap["schedule"] == 1


def _sparse_prefix_entropies(points, bins, lo, hi):
    counts = {}
    out = []
    for n, vec in enumerate(points, start=1):
        cell = tuple(min(bins - 1, max(0, int((v - lo) / (hi - lo) * bins)))
                     for v in vec)
        counts[cell] = counts.get(cell, 0) + 1
        qs = [counts[c] / n for c in sorted(counts)]
        out.append(-sum(q * math.log2(q) for q in qs) + 0.0)
    return out


def test_simulate_ledger_without_dense_grid(tmp_path):
    # dim 3 with 1000 bins: a dense ledger would hold 10**9 cells per step
    def logistic(i):
        return [{"coeff": 3.9, "powers": [int(j == i) for j in range(3)]},
                {"coeff": -3.9, "powers": [2 * int(j == i) for j in range(3)]}]

    doc = {"phi": {"kind": "polynomial", "dim": 3,
                   "coords": [logistic(i) for i in range(3)]},
           "observer": {"kind": "affine", "A": np.diag([2.0, 1.0, 0.5]).tolist(),
                        "b": [-0.5, 0.0, 0.25]},
           "x0": [0.1, 0.2, 0.3], "steps": 300, "schedule": 2,
           "ledger": {"bins": 1000, "lo": 0.0, "hi": 1.0}, "entropy": {"alpha": 0.5}}
    out = tmp_path / "ledger"
    assert _run("simulate", _write(tmp_path, doc), out) == 0
    rows = [line.split(",") for line in
            (out / "trajectory.csv").read_text().splitlines()[1:]]
    xs = [[float(v) for v in row[1:4]] for row in rows]
    os_ = [[float(v) for v in row[4:7]] for row in rows]
    h_x = _sparse_prefix_entropies(xs, 1000, 0.0, 1.0)
    h_o = _sparse_prefix_entropies(os_, 1000, 0.0, 1.0)
    assert [float(row[7]) for row in rows] == \
        [hx + 0.5 * ho for hx, ho in zip(h_x, h_o)]


def test_simulate_ledger_bins_state_near_float_max(tmp_path):
    # (x - lo) / (hi - lo) * bins overflows to inf: the state takes the top cell
    doc = {"phi": {"kind": "affine", "A": [[1.0]], "b": [0.0]},
           "observer": {"kind": "affine", "A": [[0.0]], "b": [0.0]},
           "x0": [1.7e308], "steps": 3}
    out = tmp_path / "huge"
    assert _run("simulate", _write(tmp_path, doc), out) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert [[float(v) for v in row.split(",")[1:]] for row in rows] == \
        [[1.7e308, 0.0, 0.0]] * 4


def _chaotic_ledger(steps):
    """F(x) = 4x(1 - x) with 10**9 ledger cells on [0, 1]: a new cell almost
    every step, so the ledger work grows as steps squared."""
    doc = json.loads((SCENARIOS / "chaotic_ledger.json").read_text())
    doc["steps"] = steps
    return doc


def test_ledger_work_beyond_the_cap_exits_2_before_any_sum(tmp_path, capsys,
                                                           monkeypatch):
    # summed, this ledger would take tens of minutes
    out = tmp_path / "out"
    assert _run("simulate", str(SCENARIOS / "logistic_sweep.json"), out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()

    def summed(cells):
        raise AssertionError("an entropy was summed")

    monkeypatch.setattr(cli, "prefix_entropies", summed)
    scen = _write(tmp_path, _chaotic_ledger(10 ** 5))
    start = time.perf_counter()
    assert _run("simulate", scen, out) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ledger work ")
    assert err[0].endswith(f"exceeds cap {WORK_CAP}")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _count_map_calls(monkeypatch) -> list[int]:
    """A one-item list that counts outermost map calls, through each class's
    __call__, from now on."""
    depth, calls = [0], [0]
    for cls in (AffineMap, PolynomialMap, PipelineMap, WeightedSumMap):
        def counted(self, x, _call=cls.__dict__["__call__"]):
            calls[0] += depth[0] == 0
            depth[0] += 1
            try:
                return _call(self, x)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(cls, "__call__", counted)
    return calls


def test_runaway_ledger_is_rejected_after_its_rollout(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert _run("simulate", str(SCENARIOS / "logistic_sweep.json"), out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    calls = _count_map_calls(monkeypatch)
    scen = SCENARIOS / "runaway_ledger.json"
    assert json.loads(scen.read_text())["steps"] == 10 ** 5
    assert _run("simulate", str(scen), out) == 2
    # F_r once per step and the observer once per state: each state once
    assert calls[0] == 2 * 10 ** 5 + 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ledger work ")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_runaway_ledger_at_the_simulate_cap_exits_2_before_any_sum(tmp_path, capsys,
                                                                  monkeypatch):
    # the most steps the simulate work accepts for runaway_ledger.json's maps:
    # the longest rollout a ledger can be rejected after
    doc = json.loads((SCENARIOS / "runaway_ledger.json").read_text())
    steps = 246304
    assert parse_simulate_settings({**doc, "steps": steps}).steps == steps
    with pytest.raises(ScenarioParseError,
                       match=f"^simulate work [0-9]+ exceeds cap {WORK_CAP}$"):
        parse_simulate_settings({**doc, "steps": steps + 1})

    def summed(cells):
        raise AssertionError("an entropy was summed")

    monkeypatch.setattr(cli, "prefix_entropies", summed)
    out = tmp_path / "out"
    assert _run("simulate", _write(tmp_path, {**doc, "steps": steps}), out) == 2
    err = _assert_rejected(capsys, out)
    assert err.startswith("error: ledger work ")
    assert err.endswith(f"exceeds cap {WORK_CAP}")


def test_ledger_work_just_under_the_cap_runs(tmp_path):
    steps = 4470
    doc = _chaotic_ledger(steps + 1)
    sim = parse_simulate_settings(doc)
    traj = simulate_coupled(sim.update, sim.observer, sim.x0, sim.steps)
    cells = [histogram_cells(points, sim.bins, sim.lo, sim.hi)
             for points in (traj.xs, traj.os)]
    # one step more would pass the cap
    assert TERM_WORK * sum(ledger_work(c[:steps + 1]) for c in cells) <= WORK_CAP \
        < TERM_WORK * sum(map(ledger_work, cells))
    out = tmp_path / "out"
    assert _run("simulate", _write(tmp_path, _chaotic_ledger(steps)), out) == 0
    assert len((out / "trajectory.csv").read_text().splitlines()) == steps + 2


def test_ledger_work_one_step_beyond_the_cap_exits_2(tmp_path, capsys, monkeypatch):
    # the step after test_ledger_work_just_under_the_cap_runs: rolled out,
    # then rejected before any sum
    def summed(cells):
        raise AssertionError("an entropy was summed")

    monkeypatch.setattr(cli, "prefix_entropies", summed)
    out = tmp_path / "out"
    assert _run("simulate", _write(tmp_path, _chaotic_ledger(4471)), out) == 2
    err = _assert_rejected(capsys, out)
    assert err.startswith("error: ledger work ")
    assert err.endswith(f"exceeds cap {WORK_CAP}")


def test_sweep_deterministic_and_transition(tmp_path):
    scen = _write(tmp_path, LOGISTIC)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert _run("sweep", scen, out1) == 0
    assert _run("sweep", scen, out2) == 0
    bytes1 = (out1 / "diagram.csv").read_bytes()
    assert bytes1 == (out2 / "diagram.csv").read_bytes()
    rows = [line.split(",") for line in bytes1.decode().splitlines()[1:]]
    classes = {float(r[0]): r[1] for r in rows}
    assert classes[2.8] == "fixed-point"
    assert classes[3.2] == "period-2"
    critical = json.loads((out1 / "critical_report.json").read_text())
    assert critical["r_c_flip"] == pytest.approx(3.0, abs=1e-6)


def test_sweep_flip_at_observer_scale_098(tmp_path):
    # c = 0.98 moves the flip to 3/c = 3.0612...; the grid point r = 3.06
    # loses the fixed-point branch and is also the first bisection midpoint
    doc = json.loads(json.dumps(LOGISTIC))
    doc["r_grid"] = {"lo": 2.5, "hi": 3.4, "steps": 91}
    for term in doc["observer"]["coords"][0]:
        term["coeff"] *= 0.98
    out = tmp_path / "c098"
    assert _run("sweep", _write(tmp_path, doc), out) == 0
    critical = json.loads((out / "critical_report.json").read_text())
    flip = 3.0 / 0.98
    assert any(lo <= flip <= hi for lo, hi in critical["branch_failures"]) or \
        any(abs(root["r"] - flip) <= 1e-6 for root in critical["roots"]
            if root["kind"] == "flip")


@pytest.mark.parametrize("name, evals, solves", [
    ("logistic_sweep", 8143, 182),
    ("pipeline_ledger", 26118, 85),
])
def test_sweep_evaluates_the_pinned_number_of_points(tmp_path, monkeypatch, name,
                                                     evals, solves):
    # the critical scan and the rows' solves call F_r at the points the plain
    # damped iteration evaluates, however that loop is run
    calls = _count_map_calls(monkeypatch)
    solved = [0]

    def counted(*args, _solve=dynamics.find_fixed_point, **kwargs):
        solved[0] += 1
        return _solve(*args, **kwargs)

    monkeypatch.setattr(dynamics, "find_fixed_point", counted)
    assert _run("sweep", str(SCENARIOS / f"{name}.json"), tmp_path / "out") == 0
    assert (calls[0], solved[0]) == (evals, solves)


def test_sweep_failure_leaves_no_diagram(tmp_path, monkeypatch):
    from veridyn.errors import NoConvergenceError

    def stalled(*args, **kwargs):
        raise NoConvergenceError("stalled")

    # cmd_sweep imports find_critical_r from dynamics when it runs
    monkeypatch.setattr(dynamics, "find_critical_r", stalled)
    out = tmp_path / "stalled"
    assert _run("sweep", _write(tmp_path, LOGISTIC), out) == 3
    assert not (out / "diagram.csv").exists()


BAD_DYNAMICS = {
    "x0 longer than phi": {"x0": [0.5, 0.5]},
    "x0 not numbers": {"x0": ["a"]},
    "x0 not finite": {"x0": [float("nan")]},
    "observer dim differs": {"observer": {"kind": "affine", "A": [[1.0, 0.0], [0.0, 1.0]],
                                          "b": [0.0, 0.0]}},
    "seed a boolean": {"seed": True},
    "map not an object": {"phi": [[0.0]]},
    "map kind unknown": {"phi": {"kind": "linear", "A": [[0.0]], "b": [0.0]}},
    "affine A entry a boolean": {"phi": {"kind": "affine", "A": [[True]], "b": [0.0]}},
    "affine A ragged": {"phi": {"kind": "affine", "A": [[0.0, 1.0]], "b": [0.0]}},
    "affine b entry a string": {"phi": {"kind": "affine", "A": [[0.0]], "b": ["0.5"]}},
    "affine entry beyond float range": {"phi": {"kind": "affine", "A": [[10 ** 400]],
                                                "b": [0.0]}},
    "polynomial power fractional": {"observer": {"kind": "polynomial", "dim": 1, "coords": [
        [{"coeff": 1.0, "powers": [2.7]}]]}},
    "polynomial coeff a boolean": {"observer": {"kind": "polynomial", "dim": 1, "coords": [
        [{"coeff": True, "powers": [1]}]]}},
    "polynomial term not an object": {"observer": {"kind": "polynomial", "dim": 1,
                                                   "coords": [[[1.0, [1]]]]}},
    "observer dim fractional": {"observer": {**LOGISTIC["observer"], "dim": 1.9}},
    "sum weight a string": {"observer": {"kind": "sum", "parts": [LOGISTIC["observer"]],
                                         "weights": ["1.0"]}},
    "pipeline parts not a list": {"phi": {"kind": "pipeline", "parts": LOGISTIC["phi"]}},
}


def _logistic_sweep(grid, transient, sample=32):
    return {**LOGISTIC, "r_grid": {"lo": 2.8, "hi": 3.2, "steps": grid},
            "transient": transient, "sample": sample}


# each sweep as a function of the count n it grows (transient, the grid for
# "grid", zero terms for "scan"), with the largest n within WORK_CAP;
# README.md, "Caps", times the calibration shapes at these counts
SWEEPS_AT_THE_WORK_CAP = {
    "grid": (lambda n: _logistic_sweep(n, 1, 2), 1809),
    "row": (lambda n: _logistic_sweep(2, n), 85617),
    "work": (lambda n: _logistic_sweep(91, n), 40491),
    "map work": (functools.partial(work_cap_scenario, "sweep", "polynomial"), 5711),
    "scan": (scan_scenario, 842),
    **{shape: (functools.partial(work_cap_scenario, "sweep", shape), n)
       for shape, n in zip(WORK_CAP_SHAPES[1:], (96268, 44569, 2857, 38913, 7242))},
}
# the steps of each simulate within WORK_CAP, likewise
SIMULATES_AT_THE_WORK_CAP = {
    "logistic": (lambda n: {**LOGISTIC, "steps": n}, 248137),
    **{shape: (functools.partial(work_cap_scenario, "simulate", shape), n)
       for shape, n in zip(WORK_CAP_SHAPES,
                           (94072, 251888, 129532, 10378, 156984, 42300))},
}
# the steps of each entropy trace within WORK_CAP, likewise
ENTROPIES_AT_THE_WORK_CAP = {
    shape: (functools.partial(entropy_cap_scenario, shape), n)
    for shape, n in zip(ENTROPY_CAP_SHAPES, (179532, 179532, 33646, 2020, 206))}


def _one_above(at_cap, name):
    scenario, n = at_cap[name]
    return scenario(n + 1)


BAD_SWEEP = {
    "one-point grid": {"r_grid": {"lo": 2.8, "hi": 3.2, "steps": 1}},
    "empty grid range": {"r_grid": {"lo": 3.2, "hi": 2.8, "steps": 9}},
    "fractional grid steps": {"r_grid": {"lo": 2.8, "hi": 3.2, "steps": 8.5}},
    "grid without hi": {"r_grid": {"lo": 2.8, "steps": 9}},
    "grid width overflows": {"r_grid": {"lo": -1e308, "hi": 1e308, "steps": 9}},
    "grid finer than the float spacing": {"r_grid": {"lo": 1.0, "hi": 1.0000000000000002,
                                                     "steps": 91}},
    "zero transient": {"transient": 0},
    "one sample": {"sample": 1},
    "sample beyond the row cap": {"sample": 10 ** 30},
    # one step or grid value beyond WORK_CAP
    "transient beyond the row cap": _one_above(SWEEPS_AT_THE_WORK_CAP, "row"),
    "grid beyond the cap": _one_above(SWEEPS_AT_THE_WORK_CAP, "grid"),
    "grid beyond the work cap": _one_above(SWEEPS_AT_THE_WORK_CAP, "work"),
    "map work beyond the cap": {"observer": {"kind": "polynomial", "dim": 1, "coords": [
        [{"coeff": 0.5, "powers": [2]}] * 9999]}},
    # about 12 854 F_r calls of 3 * 10^4 float operations, were it run
    "scan of a map at the size cap": scan_scenario(MAP_SIZE_CAP - 3),
}
OVERFLOWING_OBSERVER = {  # phi = identity, observer x^3 overflows at every step
    "phi": {"kind": "affine", "A": [[1.0]], "b": [0.0]},
    "observer": {"kind": "polynomial", "dim": 1,
                 "coords": [[{"coeff": 1.0, "powers": [3]}]]},
    "x0": [1e120], "r": 0.0}
BAD_SIMULATE = {
    "negative steps": {"steps": -3},
    "string steps": {"steps": "40"},
    "ledger hi below lo": {"ledger": {"bins": 4, "lo": 1.0, "hi": -1.0}},
    "ledger bins beyond float range": {"ledger": {"bins": 10 ** 400}},
    "ledger width overflows": {"ledger": {"bins": 4, "lo": -1e308, "hi": 1e308}},
    "observer reading overflows": OVERFLOWING_OBSERVER,
    "first observer reading overflows": {**OVERFLOWING_OBSERVER, "steps": 0},
    "steps beyond the cap": _one_above(SIMULATES_AT_THE_WORK_CAP, "logistic"),
}


@pytest.mark.parametrize("cmd, patch", [
    *[("sweep", p) for p in (*BAD_DYNAMICS.values(), *BAD_SWEEP.values())],
    *[("simulate", p) for p in (*BAD_DYNAMICS.values(), *BAD_SIMULATE.values())],
], ids=[*[f"sweep-{k}" for k in (*BAD_DYNAMICS, *BAD_SWEEP)],
        *[f"simulate-{k}" for k in (*BAD_DYNAMICS, *BAD_SIMULATE)]])
@pytest.mark.filterwarnings("error")
def test_bad_dynamics_input_is_rejected_before_compute(tmp_path, capsys, cmd, patch):
    out = tmp_path / "out"
    assert _run(cmd, _write(tmp_path, {**LOGISTIC, **patch}), out) == 2
    _assert_rejected(capsys, out)


def test_too_fine_r_grid_is_rejected_before_any_map_call(tmp_path, capsys, monkeypatch):
    # 91 values within one ulp repeat: found at parse time, not after the sweep
    calls = _count_map_calls(monkeypatch)
    out = tmp_path / "out"
    scen = _write(tmp_path, {**LOGISTIC, **BAD_SWEEP["grid finer than the float spacing"]})
    assert _run("sweep", scen, out) == 2
    assert _assert_rejected(capsys, out).endswith("is not strictly increasing")
    assert calls == [0]


def _scale(a):
    return {"kind": "affine", "A": [[a]], "b": [0.0]}


# phi = (x1^2, x0^2) from x0 = (1e200, 0) overflows on its second step
SQUARES = {"kind": "polynomial", "dim": 2, "coords": [[{"coeff": 1.0, "powers": [0, 2]}],
                                                      [{"coeff": 1.0, "powers": [2, 0]}]]}
OVERFLOWING_SWEEPS = {
    "affine": {"phi": SQUARES, "x0": [1e200, 0.0], "observer": {
        "kind": "affine", "A": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 0.0]}},
    "polynomial": {"phi": SQUARES, "x0": [1e200, 0.0], "observer": {
        "kind": "polynomial", "dim": 2, "coords": [[], []]}},
    # F_r's fixed point 0 is found at every r, but the chain rule overflows
    # at 1e200 * 1e200: the scan and the rows both lose the point
    "non-finite Jacobian": {"x0": [0.0], "observer": _scale(1.0),
                            "r_grid": {"lo": 0.1, "hi": 0.5, "steps": 5},
                            "phi": {"kind": "pipeline", "parts": [
                                _scale(a) for a in (1e200, 1e200, 1e-300, 1e-250)]}},
}


@pytest.mark.parametrize("patch", OVERFLOWING_SWEEPS.values(), ids=list(OVERFLOWING_SWEEPS))
@pytest.mark.filterwarnings("error")
def test_overflowing_sweep_exits_0_with_empty_stderr(tmp_path, capsys, patch):
    # the sweep, the fixed-point solves and the Jacobians judge non-finite
    # values themselves
    scen = _write(tmp_path, {**LOGISTIC, **patch})
    assert _run("sweep", scen, tmp_path / "out") == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", SWEEPS_AT_THE_WORK_CAP)
def test_sweep_at_its_caps_is_accepted_and_one_more_is_not(name):
    # parsed only, since a run at the cap takes seconds (README, "Caps")
    scenario, n = SWEEPS_AT_THE_WORK_CAP[name]
    parse_sweep_settings(scenario(n))
    with pytest.raises(ScenarioParseError, match=f"^sweep work [0-9]+ exceeds cap {WORK_CAP}$"):
        parse_sweep_settings(scenario(n + 1))


def test_step_counts_at_their_caps_are_accepted():
    for scenario, n in SIMULATES_AT_THE_WORK_CAP.values():
        assert parse_simulate_settings(scenario(n)).steps == n
        with pytest.raises(ScenarioParseError,
                           match=f"^simulate work [0-9]+ exceeds cap {WORK_CAP}$"):
            parse_simulate_settings(scenario(n + 1))
    for scenario, n in ENTROPIES_AT_THE_WORK_CAP.values():
        doc = scenario(n)
        assert parse_entropy_trace(doc, parse_universe(doc)).steps == n
        doc = scenario(n + 1)
        with pytest.raises(ScenarioParseError,
                           match=f"^entropy_trace work [0-9]+ exceeds cap {WORK_CAP}$"):
            parse_entropy_trace(doc, parse_universe(doc))


def test_runaway_simulate_exits_2_uncompiled(tmp_path, capsys, monkeypatch):
    # 10^5 steps of an observer at MAP_SIZE_CAP: about 90 s of work if run
    doc = json.loads((SCENARIOS / "runaway_simulate.json").read_text())
    assert doc["steps"] == 10 ** 5
    assert len(doc["observer"]["coords"][0]) + 1 == MAP_SIZE_CAP
    compiled = []
    monkeypatch.setattr(dynamics, "_generate", compiled.append)
    out = tmp_path / "out"
    assert _run("simulate", str(SCENARIOS / "runaway_simulate.json"), out) == 2
    assert re.fullmatch(f"error: simulate work [0-9]+ exceeds cap {WORK_CAP}",
                        _assert_rejected(capsys, out))
    assert compiled == []


def test_runaway_entropy_exits_2_before_any_step(tmp_path, capsys, monkeypatch):
    # 10^4 steps on 3 200 elements: about 9 s if run
    doc = json.loads((SCENARIOS / "runaway_entropy.json").read_text())
    assert doc["entropy_trace"]["steps"] == 10 ** 4
    assert len(doc["universe"]["objects"][0]["elements"]) == 3200

    def pushed(state, f):
        raise AssertionError("a step ran")

    monkeypatch.setattr(cli, "pushforward", pushed)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert _run("entropy", str(SCENARIOS / "runaway_entropy.json"), out) == 2
    assert time.perf_counter() - start < 1.0
    assert re.fullmatch(f"error: entropy_trace work [0-9]+ exceeds cap {WORK_CAP}",
                        _assert_rejected(capsys, out))


def test_long_entropy_trace_on_a_small_carrier_runs(tmp_path):
    # 50 000 steps of the bundled 2-element trace are well within the work
    # cap, and its first rows are the 16-step trace's
    scenario, _ = ENTROPIES_AT_THE_WORK_CAP["universe"]
    rows = []
    for steps in (16, 50_000):
        out = tmp_path / f"out{steps}"
        assert _run("entropy", _write(tmp_path, scenario(steps)), out) == 0
        rows.append((out / "entropy_trace.csv").read_bytes().splitlines(keepends=True))
    short, long = rows
    assert len(short) == 18 and len(long) == 50_002
    assert long[:18] == short


def test_entropy_pushes_the_state_through_the_transition_once_a_step(tmp_path,
                                                                     monkeypatch):
    # steps + 1 observer pushes and steps transition pushes: the state after
    # the last step is never formed
    targets = []

    def counted(state, f):
        targets.append(f.dst.id)
        return pushforward(state, f)

    monkeypatch.setattr(cli, "pushforward", counted)
    steps = json.loads(UNIVERSE_SCENARIO.read_text())["entropy_trace"]["steps"]
    assert _run("entropy", str(UNIVERSE_SCENARIO), tmp_path / "out") == 0
    assert len(targets) == 2 * steps + 1
    assert targets.count("X") == steps and targets.count("S") == steps + 1


# the pairings within WORK_CAP: n elements of one phase make n^2 pairs, and
# two phases of 625 elements 781 250, the cap's worth at ROW_WORK a pair;
# README.md, "Caps", times the first at its count
PAIRINGS_AT_THE_WORK_CAP = {
    "one phase": (pairing_scenario, 883),
    "two phases": (lambda n: pairing_scenario(625, n), 625),
}


def test_pairing_at_its_cap_is_accepted_and_one_more_pair_is_not():
    rejected = f"^phases pairing work [0-9]+ exceeds cap {WORK_CAP}$"
    for scenario, n in PAIRINGS_AT_THE_WORK_CAP.values():
        parse_entropy_settings(scenario(n))
        with pytest.raises(ScenarioParseError, match=rejected):
            parse_entropy_settings(scenario(n + 1))
    assert ROW_WORK * 2 * 625 ** 2 == WORK_CAP
    with pytest.raises(ScenarioParseError, match=rejected):
        parse_entropy_settings(pairing_scenario(625, 625, 1))


def test_runaway_pairing_exits_2_before_any_pair(tmp_path, capsys, monkeypatch):
    # 2 000 elements of one phase: 4 * 10^6 pairs, about 3.6 s, 680 MB and a
    # 92 MB phase_report.json if run
    doc = json.loads((SCENARIOS / "runaway_pairing.json").read_text())
    assert list(doc["phases"]["assignments"].values()) == ["0/1"] * 2000

    def paired(carrier, phases):
        raise AssertionError("the pairing ran")

    monkeypatch.setattr(cli, "interference_pairing", paired)
    out = tmp_path / "out"
    assert _run("entropy", str(SCENARIOS / "runaway_pairing.json"), out) == 2
    assert re.fullmatch(f"error: phases pairing work [0-9]+ exceeds cap {WORK_CAP}",
                        _assert_rejected(capsys, out))


def _assert_rejected(capsys, out):
    """Checks one error line on stderr and no --out; returns that line."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()
    return err[0]


def _map_of_size(kind, size):
    """A dim-1 map tree of `size`: the map and each part count 1 (their dim),
    each polynomial term 1."""
    if kind == "polynomial":
        return {"kind": "polynomial", "dim": 1,
                "coords": [[{"coeff": 0.5, "powers": [1]}] * (size - 1)]}
    return {"kind": "sum", "parts": [{"kind": "affine", "A": [[0.5]], "b": [0.0]}] * (size - 1),
            "weights": [1.0] * (size - 1)}


@pytest.mark.parametrize("kind", ["polynomial", "sum"])
def test_map_at_its_size_cap_is_accepted_and_one_more_exits_2_uncompiled(
        tmp_path, capsys, monkeypatch, kind):
    # parsed only at the cap, since a run at the cap takes seconds (README, "Caps")
    assert parse_simulate_settings(
        {**LOGISTIC, "observer": _map_of_size(kind, MAP_SIZE_CAP)}).observer.dim == 1
    compiled = []
    monkeypatch.setattr(dynamics, "_generate", compiled.append)
    out = tmp_path / "out"
    scen = _write(tmp_path, {**LOGISTIC, "observer": _map_of_size(kind, MAP_SIZE_CAP + 1)})
    assert _run("simulate", scen, out) == 2
    assert _assert_rejected(capsys, out).endswith(
        f"map size {MAP_SIZE_CAP + 1} exceeds cap {MAP_SIZE_CAP}")
    assert compiled == []


SCENARIOS = Path(__file__).parents[1] / "scenarios"
UNIVERSE_SCENARIO = SCENARIOS / "observer_universe.json"


def test_sweep_beyond_the_dimension_cap_exits_2_uncompiled(tmp_path, capsys, monkeypatch):
    # the bundled dim-100 sweep is inside every other sweep cap
    doc = json.loads((SCENARIOS / "oversized_sweep.json").read_text())
    assert doc["phi"]["dim"] == 100
    at_cap = {"kind": "polynomial", "dim": DIM_CAP, "coords": [[]] * DIM_CAP}
    assert parse_sweep_settings({**doc, "phi": at_cap, "observer": at_cap}).update.dim \
        == DIM_CAP
    compiled = []
    monkeypatch.setattr(dynamics, "_generate", compiled.append)
    out = tmp_path / "out"
    assert _run("sweep", str(SCENARIOS / "oversized_sweep.json"), out) == 2
    assert _assert_rejected(capsys, out).endswith(f"dimension 100 exceeds cap {DIM_CAP}")
    assert compiled == []


# scenario files that do not decode to a JSON document
UNDECODABLE = {
    "invalid UTF-8": b'{"seed": "\xff"}',
    "arrays nested 100 000 deep": b"[" * 100_000 + b"]" * 100_000,
    "integer of 5 000 digits": b'{"seed": ' + b"9" * 5000 + b"}",
    # json.loads(bytes) would detect these encodings; a scenario is UTF-8 only
    "UTF-8 BOM": b"\xef\xbb\xbf" + json.dumps(LOGISTIC).encode(),
    "UTF-16": json.dumps(LOGISTIC).encode("utf-16"),
    "UTF-16 without BOM": json.dumps(LOGISTIC).encode("utf-16-le"),
}


@pytest.mark.parametrize("data", UNDECODABLE.values(), ids=list(UNDECODABLE))
def test_undecodable_scenario_is_rejected(tmp_path, capsys, data):
    scen = tmp_path / "scenario.json"
    scen.write_bytes(data)
    out = tmp_path / "out"
    assert _run("simulate", str(scen), out) == 2
    assert _assert_rejected(capsys, out).startswith("error: scenario is not valid JSON: ")


# (command, section, key, value) patches; a value of None deletes the key,
# a key of None replaces the whole section
BAD_FINITE_SET = {
    "theta_limit not an object": ("theta", "theta_limit", None, 3),
    "theta without verification": ("theta", "theta_limit", "verification", None),
    "theta functor not a name": ("theta", "theta_limit", "update", ["V"]),
    "entropy_trace without start": ("entropy", "entropy_trace", "start", None),
    "entropy_trace steps not a number": ("entropy", "entropy_trace", "steps", "x"),
    # the bundled universe's 2 + 1 elements, one step beyond WORK_CAP
    "entropy_trace steps beyond the cap": ("entropy", "entropy_trace", "steps",
                                           ENTROPIES_AT_THE_WORK_CAP["universe"][1] + 1),
    "entropy_trace probs not numbers": ("entropy", "entropy_trace", "initial_probs",
                                        ["x", 1]),
    "k_schedule shorter than steps": ("entropy", "entropy", "k_schedule", [1.0]),
    # EntropyParams rejects a negative K, and an entry overrides K for a step
    "k_schedule entry negative": ("entropy", "entropy", "k_schedule", [1.0] * 7 + [-1.0]),
    "entropy not an object": ("entropy", "entropy", None, [1.0]),
    "phases not an object": ("entropy", "phases", None, []),
    "phases period not a number": ("entropy", "phases", "period", "x"),
    "phases period fractional": ("entropy", "phases", "period", 2.5),
    "phases period not a multiple of the order": ("entropy", "phases", "period", 3),
    "phases unknown carrier": ("entropy", "phases", "carrier", "nope"),
    "phases zero denominator": ("entropy", "phases", "assignments",
                                {"a": "1/0", "b": "1/4", "m": "0"}),
    "phases phase not a string": ("entropy", "phases", "assignments",
                                  {"a": 0.25, "b": "1/4", "m": "0"}),
    "phases phase not a fraction": ("entropy", "phases", "assignments",
                                    {"a": "1/4/2", "b": "1/4", "m": "0"}),
    "phases cycle entry without phase": ("entropy", "phases", "cycle", [["inv"]]),
    "phases cycle morphism not a name": ("entropy", "phases", "cycle",
                                         [[["swap"], "1/3"], ["swap", "2/3"]]),
    "phases cycle does not close": ("entropy", "phases", "cycle",
                                    [["embed", "1/3"]]),
    "phases theta not a bijection": ("entropy", "phases", None,
                                     {"theta": "collapse", "period": 2}),
    "phases assignments miss an element": ("entropy", "phases", "assignments",
                                           {"a": "1/4", "b": "1/4"}),
    "phases assignments name an extra element": ("entropy", "phases", "assignments",
                                                 {"a": "1/4", "b": "1/4", "m": "0",
                                                  "zz": "1/2"}),
    "phases empty": ("entropy", "phases", None, {}),
    "phases carrier without assignments": ("entropy", "phases", None,
                                           {"carrier": "VX"}),
    "phases assignments without carrier": ("entropy", "phases", "carrier", None),
    "phases period without theta": ("entropy", "phases", None,
                                    {"cycle": [["swap", "1/2"]] * 2, "period": 2}),
}


@pytest.mark.parametrize("cmd, section, key, value", BAD_FINITE_SET.values(),
                         ids=list(BAD_FINITE_SET))
def test_bad_finite_set_input_is_rejected_before_compute(tmp_path, capsys, monkeypatch,
                                                         cmd, section, key, value):
    def no_compute(*args):
        raise AssertionError("an entropy step ran before the input was checked")
    monkeypatch.setattr(cli, "pushforward", no_compute)
    doc = json.loads(UNIVERSE_SCENARIO.read_text())
    if key is None:
        doc[section] = value
    elif value is None:
        del doc[section][key]
    else:
        doc[section][key] = value
    out = tmp_path / "out"
    assert _run(cmd, _write(tmp_path, doc), out) == 2
    _assert_rejected(capsys, out)


def _set_first(key, field, value):
    def patch(uni):
        uni[key][0][field] = value
    return patch


def _duplicate_first(key):
    def patch(uni):
        uni[key].append(dict(uni[key][0]))
    return patch


# patches of the bundled universe section, applied in place
BAD_UNIVERSE = {
    "objects not a list": lambda uni: uni.update(objects={"X": ["a"]}),
    "object entry not an object": lambda uni: uni["objects"].append("X"),
    "object id not a name": _set_first("objects", "id", 3),
    "object elements not a list": _set_first("objects", "elements", "ab"),
    "object element not a name": _set_first("objects", "elements", ["a", 1]),
    "morphism entry not an object": lambda uni: uni["morphisms"].append(["swap"]),
    "morphism src not a name": _set_first("morphisms", "src", ["X"]),
    "morphism mapping a list": _set_first("morphisms", "mapping", [["a", "b"]]),
    "morphism image not a name": _set_first("morphisms", "mapping",
                                            {"a": ["b"], "b": "a"}),
    "morphism key outside source": _set_first("morphisms", "mapping",
                                              {"a": "b", "b": "a", "z": "a"}),
    "morphism mapping not total": _set_first("morphisms", "mapping", {"a": "b"}),
    "morphism image outside target": _set_first("morphisms", "mapping",
                                                {"a": "z", "b": "a"}),
    "functors not a list": lambda uni: uni.update(functors={"V": {}}),
    "functor obj_map a list": _set_first("functors", "obj_map", [["X", "VX"]]),
    "functor mor_map a list": _set_first("functors", "mor_map", ["swap"]),
    "functor object image not a name": _set_first("functors", "obj_map",
                                                  {"X": ["VX"]}),
    "functor name not a name": _set_first("functors", "name", None),
    "functor identity a string": lambda uni: uni["functors"].append(
        {"name": "Id", "identity": "no"}),
    "functor identity a number": _set_first("functors", "identity", 1),
    "identity functor with maps": _set_first("functors", "identity", True),
    "identity functor with a mor_map": lambda uni: uni["functors"].append(
        {"name": "Id", "identity": True, "mor_map": {}}),
    "duplicate functor name": _duplicate_first("functors"),
    "transformation components a list": _set_first("transformations", "components",
                                                   [["X", "embed"]]),
    # a misspelt key is ignored, so this is a transformation without components,
    # whose squares would all be skipped
    "transformation components misspelt": lambda uni: uni["transformations"][0].update(
        componentz=uni["transformations"][0].pop("components")),
    "transformation target not a name": _set_first("transformations", "target",
                                                   ["V"]),
    # an unknown functor would leave every square of the transformation skipped
    "transformation without target": lambda uni: uni["transformations"][0].pop("target"),
    "transformation target unknown": _set_first("transformations", "target", "ZZ"),
    "transformation target empty": _set_first("transformations", "target", ""),
    "transformation source unknown": _set_first("transformations", "source", "ZZ"),
    "transformation source empty": _set_first("transformations", "source", ""),
    "duplicate transformation name": _duplicate_first("transformations"),
}


@pytest.mark.parametrize("cmd", ["check-axioms", "theta", "entropy"])
@pytest.mark.parametrize("patch", BAD_UNIVERSE.values(), ids=list(BAD_UNIVERSE))
def test_bad_universe_entry_is_rejected_before_compute(tmp_path, capsys, cmd, patch):
    doc = json.loads(UNIVERSE_SCENARIO.read_text())
    patch(doc["universe"])
    out = tmp_path / "out"
    assert _run(cmd, _write(tmp_path, doc), out) == 2
    _assert_rejected(capsys, out)


def test_universe_not_an_object_is_rejected(tmp_path, capsys):
    doc = json.loads(UNIVERSE_SCENARIO.read_text())
    doc["universe"] = [doc["universe"]]
    out = tmp_path / "out"
    assert _run("check-axioms", _write(tmp_path, doc), out) == 2
    _assert_rejected(capsys, out)


SQUARE_CHECK = {"type": "observer_square", "functor": "O", "transformation": "v",
                "morphism": "swap"}
EQUALIZER_CHECK = {"type": "equalizer", "left": "swap", "right": "swap",
                   "expect_elements": ["b", "a"]}


def _without(entry, key):
    return {k: v for k, v in entry.items() if k != key}


# values of the checks section of the bundled universe scenario
BAD_CHECKS = {
    "checks not a list": SQUARE_CHECK,
    "check entry a string": ["x"],
    "square check without functor": [_without(SQUARE_CHECK, "functor")],
    "square check without transformation": [_without(SQUARE_CHECK, "transformation")],
    "square check without morphism": [_without(SQUARE_CHECK, "morphism")],
    "square check functor not a name": [{**SQUARE_CHECK, "functor": ["O"]}],
    "equalizer without left": [_without(EQUALIZER_CHECK, "left")],
    "unknown check type": [SQUARE_CHECK, {**SQUARE_CHECK, "type": "naturality"}],
    "unresolved morphism": [{**SQUARE_CHECK, "morphism": "nope"}],
    "expect_elements not a name list": [{**EQUALIZER_CHECK,
                                         "expect_elements": [1, "a"]}],
    "expect_elements a string": [{**EQUALIZER_CHECK, "expect_elements": "ab"}],
}


def test_checks_on_bundled_universe(tmp_path):
    doc = json.loads(UNIVERSE_SCENARIO.read_text())
    doc["checks"] = [SQUARE_CHECK, EQUALIZER_CHECK]
    out = tmp_path / "out"
    assert _run("check-axioms", _write(tmp_path, doc), out) in (0, 1)
    explicit = json.loads((out / "axioms_report.json").read_text())["explicit_checks"]
    assert [e["check"] for e in explicit] == doc["checks"]
    assert explicit[1]["holds"]


@pytest.mark.parametrize("checks", BAD_CHECKS.values(), ids=list(BAD_CHECKS))
def test_bad_checks_are_rejected_before_compute(tmp_path, capsys, checks):
    doc = json.loads(UNIVERSE_SCENARIO.read_text())
    doc["checks"] = checks
    out = tmp_path / "out"
    assert _run("check-axioms", _write(tmp_path, doc), out) == 2
    _assert_rejected(capsys, out)


QUARTER_TURN = {"kind": "rotation", "turns": "1/4", "dim": 2}
SWAP_MATRIX = {"kind": "matrix", "entries": [[0.0, 1.0], [1.0, 0.0]], "period": 2}
SWAP_PERM = {"kind": "permutation", "perm": [1, 0]}


def _stage(theta=QUARTER_TURN, **fields):
    return {"lambda": 0.5, "theta": theta, **fields}


# values of cascade.stages
BAD_CASCADE = {
    "stages not a list": _stage(),
    "theta not an object": [_stage(["rotation"])],
    "rotation dim 1": [_stage({**QUARTER_TURN, "dim": 1})],
    "rotation dim beyond the cap": [_stage({**QUARTER_TURN, "dim": 10 ** 6})],
    "rotation plane out of range": [_stage({**QUARTER_TURN, "plane": [0, 5]})],
    "rotation plane repeats an axis": [_stage({**QUARTER_TURN, "plane": [1, 1]})],
    "rotation plane axis fractional": [_stage({**QUARTER_TURN, "plane": [0, 1.0]})],
    "rotation plane of three axes": [_stage({**QUARTER_TURN, "dim": 3,
                                             "plane": [0, 1, 2]})],
    "rotation turns a number": [_stage({**QUARTER_TURN, "turns": 1})],
    "permutation entry fractional": [_stage({**SWAP_PERM, "perm": [1.5, 0]})],
    "permutation entry a string": [_stage({**SWAP_PERM, "perm": ["1", "0"]})],
    "permutation empty": [_stage({**SWAP_PERM, "perm": []})],
    "matrix entries empty": [_stage({**SWAP_MATRIX, "entries": []})],
    "matrix period fractional": [_stage({**SWAP_MATRIX, "period": 2.9})],
    "matrix entry a string": [_stage({**SWAP_MATRIX,
                                      "entries": [["0", 1.0], [1.0, 0.0]]})],
    "stage period fractional": [_stage(period=4.5)],
    "lambda a boolean": [{**_stage(), "lambda": True}],
}


def test_cascade_stage_kinds_are_accepted(tmp_path):
    scen = _write(tmp_path, {"cascade": {"stages": [
        _stage(), _stage(SWAP_MATRIX), _stage(SWAP_PERM, period=4)]}})
    assert _run("cascade", scen, tmp_path / "out") == 0


@pytest.mark.parametrize("stages", BAD_CASCADE.values(), ids=list(BAD_CASCADE))
def test_bad_cascade_is_rejected_before_compute(tmp_path, capsys, stages):
    out = tmp_path / "out"
    assert _run("cascade", _write(tmp_path, {"cascade": {"stages": stages}}), out) == 2
    _assert_rejected(capsys, out)


@pytest.mark.parametrize("period, code", [(10 ** 12, 0), (10 ** 12 + 1, 2)])
def test_entropy_huge_declared_period_is_checked_not_iterated(tmp_path, capsys,
                                                             period, code):
    # the bundled phase symmetry v_swap has order 2
    doc = json.loads(UNIVERSE_SCENARIO.read_text())
    doc["phases"]["period"] = period
    out = tmp_path / "out"
    start = time.perf_counter()
    assert _run("entropy", _write(tmp_path, doc), out) == code
    assert time.perf_counter() - start < 1.0
    if code == 0:
        assert json.loads((out / "phase_report.json").read_text())["period"] == period
    else:
        _assert_rejected(capsys, out)


@pytest.mark.parametrize("theta", [
    {"kind": "permutation", "perm": [1, 2, 3, 0, 5, 4]},  # order 4
    {"kind": "rotation", "turns": "1/4", "dim": 3, "plane": [0, 2]},  # order 4
], ids=["permutation", "quarter-turn"])
@pytest.mark.parametrize("period, code", [(10 ** 12, 0), (10 ** 12 + 1, 2)])
def test_cascade_huge_declared_period_is_checked_in_log_time(tmp_path, theta,
                                                            period, code):
    scen = _write(tmp_path, {"cascade": {"stages": [
        {"lambda": 0.5, "theta": theta, "period": period}]}})
    start = time.perf_counter()
    assert _run("cascade", scen, tmp_path / "out") == code
    assert time.perf_counter() - start < 1.0


@pytest.mark.filterwarnings("error")
def test_cascade_overflowing_period_power_is_rejected(tmp_path, capsys):
    # 2^(10^12) overflows within a few squarings: a period mismatch, not a warning
    scen = _write(tmp_path, {"cascade": {"stages": [
        {"lambda": 0.5, "theta": {"kind": "matrix", "entries": [[2.0, 0.0], [0.0, 1.0]],
                                  "period": 10 ** 12}}]}})
    out = tmp_path / "out"
    assert _run("cascade", scen, out) == 2
    _assert_rejected(capsys, out)


def test_cascade_outputs(tmp_path):
    scen = _write(tmp_path, {
        "cascade": {"stages": [
            {"lambda": 0.5, "theta": {"kind": "rotation", "turns": "1/4", "dim": 2}},
        ]},
    })
    out = tmp_path / "casc"
    assert _run("cascade", scen, out) == 0
    csv = (out / "spectrum.csv").read_text().splitlines()
    assert csv[0] == "re,im,modulus,hull_ok"
    assert all(line.endswith("false") for line in csv[1:])
    report = json.loads((out / "cascade_report.json").read_text())
    assert report["contraction"] == 0.5
    assert report["fixed_point_basis"] == []


def test_cascade_identity_scenario(tmp_path):
    scen = _write(tmp_path, {
        "cascade": {"stages": [
            {"lambda": 1.0, "theta": {"kind": "permutation", "perm": [1, 0]}},
            {"lambda": 1.0, "theta": {"kind": "rotation", "turns": "1/2", "dim": 2}},
        ]},
    })
    out = tmp_path / "cascid"
    assert _run("cascade", scen, out) == 0
    report = json.loads((out / "cascade_report.json").read_text())
    assert report["operator"] == [[1.0, 0.0], [0.0, 1.0]]
    assert len(report["fixed_point_basis"]) == 2
    assert report["unit_modulus_gap_with_undamped_stage"] == 0.0


def test_cascade_short_cycle_permutation_dim64(tmp_path):
    # many cycles of length 1-4 give highly repeated eigenvalues on the
    # circle 0.5 + 0.5 w; each must be found and re-verified
    rng = np.random.default_rng(0)
    n = 64
    order = [int(i) for i in rng.permutation(n)]
    perm = [0] * n
    want = []
    i = 0
    while i < n:
        length = min(int(rng.integers(1, 5)), n - i)
        cycle = order[i:i + length]
        for j, v in enumerate(cycle):
            perm[v] = cycle[(j + 1) % length]
        want += [0.5 + 0.5 * cmath.exp(2j * cmath.pi * k / length)
                 for k in range(length)]
        i += length
    scen = _write(tmp_path, {"cascade": {"stages": [
        {"lambda": 0.5, "theta": {"kind": "permutation", "perm": perm}},
    ]}})
    out = tmp_path / "casc64"
    assert _run("cascade", scen, out) == 0
    report = json.loads((out / "cascade_report.json").read_text())["spectrum"]
    got = [complex(ev["re"], ev["im"]) for ev in report["eigenvalues"]]
    assert len(got) == n
    for ev in got:
        j = int(np.argmin([abs(ev - w) for w in want]))
        assert abs(ev - want.pop(j)) <= 1e-8
    assert max(report["residuals"]) <= RESIDUAL_TOL


def test_entropy_command(tmp_path):
    scen = _write(tmp_path, {
        "universe": GOOD_UNIVERSE,
        "entropy": {"C": 1.0, "K": 1.0, "alpha": 1.0},
        "entropy_trace": {"start": "X", "transition": "swap",
                          "observer": "collapse", "steps": 5},
        "phases": {"carrier": "X", "assignments": {"a": "1/4", "b": "3/4"},
                   "theta": "swap",
                   "cycle": [["swap", "1/2"], ["swap", "1/2"]]},
    })
    out = tmp_path / "ent"
    assert _run("entropy", scen, out) == 0
    lines = (out / "entropy_trace.csv").read_text().splitlines()
    assert lines[0].startswith("n,H,H_O")
    assert len(lines) == 7
    phase_doc = json.loads((out / "phase_report.json").read_text())
    assert phase_doc["pairing"] == ["(a,a)", "(b,b)"]
    assert phase_doc["lock_space"] == []
    assert phase_doc["cycle_zero_net"] is True


@pytest.mark.parametrize("scenario, transition, drops", [
    ("observer_universe", "swap", []),     # a bijection keeps the entropy
    ("entropy_merge", "merge", [0]),       # {a: a, b: a} drops the uniform bit
])
def test_entropy_report_lists_the_direction_findings(tmp_path, scenario, transition,
                                                     drops):
    path = SCENARIOS / f"{scenario}.json"
    assert json.loads(path.read_text())["entropy_trace"]["transition"] == transition
    out = tmp_path / "out"
    # findings, not verdicts: a failed postulate still exits 0
    assert _run("entropy", str(path), out) == 0
    report = json.loads((out / "entropy_report.json").read_text())
    assert report["postulate_violations"] == drops
    assert report["contraction_violations"] == []


# exit code and sha256 of every artifact but the manifest; a change of the
# finite-set layer's representation that moves a byte fails here
GOLDEN_FINITE_SET_RUNS = {
    ("observer_universe", "check-axioms"): (0, {
        "axioms_report.json":
            "be259f78b9e7e5cb36a16193e466cee5a852bf62a29b92a319a8389df499bd50"}),
    ("observer_universe", "theta"): (0, {
        "theta_chain.csv":
            "bb634b194676561275ed8bb5292a69fef9ef97542c2de014ecf7fa9a299a40d0",
        "theta_result.json":
            "1443a4e72764d671b22e4923bb8b71b82ad87cb5c5632dbd8217329f2495e760"}),
    ("observer_universe", "entropy"): (0, {
        "entropy_report.json":
            "ec5dba794bf305103fd162589a8cc4f419043db914f90df846d73842098223df",
        "entropy_trace.csv":
            "050c30987d1de0635b8f3c845449b7788fa10f23117bb8aada0ea40c98358574",
        "phase_report.json":
            "f0a6452203fe5b986499b1e9823bcc06e0921ee1261f4ba1f73a6ad146559564"}),
    ("entropy_merge", "check-axioms"): (0, {
        "axioms_report.json":
            "a5aac0a6e5d926a511af3b5c20bca915da57121d28b9a2c841d9307251471a5f"}),
    ("entropy_merge", "theta"): (0, {
        "theta_chain.csv":
            "bb634b194676561275ed8bb5292a69fef9ef97542c2de014ecf7fa9a299a40d0",
        "theta_result.json":
            "1443a4e72764d671b22e4923bb8b71b82ad87cb5c5632dbd8217329f2495e760"}),
    ("entropy_merge", "entropy"): (0, {
        "entropy_report.json":
            "0f98505f8f580398235416f703475df8109dea4f135cf256ba793f7af53c9c1a",
        "entropy_trace.csv":
            "5ef22095c23c0151606eec18c2615166a514736544c0e174fddd282671a9ed72",
        "phase_report.json":
            "f0a6452203fe5b986499b1e9823bcc06e0921ee1261f4ba1f73a6ad146559564"}),
    ("theta_cycle", "check-axioms"): (0, {
        "axioms_report.json":
            "6a7fc01a604b8d0092de029854b00d8dd59df2a2cc7e2da1d91e575e4c59cfee"}),
    ("theta_cycle", "theta"): (3, {
        "theta_chain.csv":
            "e0688cd2aa49a908cf1ff000cb1bf8b2058234c4be6f8bb605add31af5a82a82",
        "theta_result.json":
            "27da0ac8651745b00949839368926308dc3385bfc03dc9ef7b12308e6d0e76e7"}),
    ("theta_cycle", "entropy"): (2, {}),   # no entropy section
}


# the same for the dim-1 dynamical layer, where no BLAS summation order
# enters; a change of the map evaluation that moves a bit fails here
GOLDEN_DYNAMICS_RUNS = {
    ("logistic_sweep", "sweep"): (0, {
        "critical_report.json":
            "aad0d97c08784ad6762c2124b803f366358e6ca74fc13ecc7dff8fbd6a310383",
        "diagram.csv":
            "93537d95a69947753fd6a3d3951c3537508066245b947d5112d15be556f7c709"}),
    ("logistic_sweep", "simulate"): (0, {
        "lyapunov.json":
            "9361d2225ba0a2d22bfe698b41712234188a753ab2ae3fc394b9cedb0b99517a",
        "trajectory.csv":
            "9cd557e08bcbb2b1d28ec9ec6b22b7aacd6f72ebf00285edb0b30d688cbcc33e"}),
    ("chaotic_ledger", "simulate"): (0, {
        "lyapunov.json":
            "13eef67463c56a53ac644333b962a3f331a502f36c384d1d62783e69e8b6592b",
        "trajectory.csv":
            "da6610052b5fd4da7ce50bbf42278ce70f75c2f88e4d236c83a45c8ecea405fe"}),
}


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (out.iterdir() if out.is_dir() else ())
            if p.name != "run_manifest.json"}


def _check_digests(tmp_path, scenario, cmd, code, digests):
    out = tmp_path / "out"
    assert _run(cmd, str(SCENARIOS / f"{scenario}.json"), out) == code
    assert _digests(out) == digests


@pytest.mark.parametrize("scenario, cmd", list(GOLDEN_FINITE_SET_RUNS),
                         ids=[f"{s}-{c}" for s, c in GOLDEN_FINITE_SET_RUNS])
def test_finite_set_artifacts_keep_their_digests(tmp_path, scenario, cmd):
    _check_digests(tmp_path, scenario, cmd, *GOLDEN_FINITE_SET_RUNS[scenario, cmd])


@pytest.mark.parametrize("scenario, cmd", list(GOLDEN_DYNAMICS_RUNS),
                         ids=[f"{s}-{c}" for s, c in GOLDEN_DYNAMICS_RUNS])
def test_dynamics_artifacts_keep_their_digests(tmp_path, scenario, cmd):
    _check_digests(tmp_path, scenario, cmd, *GOLDEN_DYNAMICS_RUNS[scenario, cmd])


# Runs each argument list through veridyn.cli.main in one fresh interpreter in
# which any import of numpy raises, and prints one JSON line: for each run its
# exit code, or "ImportError" if it raised one, its stdout and its stderr.
NUMPY_BLOCKED = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from veridyn.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except ImportError:
            code = "ImportError"
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def test_finite_set_commands_run_without_numpy(tmp_path, capsys):
    # check-axioms, theta and entropy load neither numpy nor the matrix layer
    doc = json.loads(UNIVERSE_SCENARIO.read_text())
    BAD_UNIVERSE["morphism mapping not total"](doc["universe"])
    runs = [*((str(SCENARIOS / f"{s}.json"), cmd) for s, cmd in GOLDEN_FINITE_SET_RUNS),
            (_write(tmp_path, doc), "check-axioms")]
    outs = [tmp_path / "blocked" / str(i) for i in range(len(runs))]
    argvs = [[cmd, "--scenario", scen, "--out", str(out)]
             for (scen, cmd), out in zip(runs, outs)]
    sweep = ["sweep", "--scenario", str(SCENARIOS / "logistic_sweep.json"),
             "--out", str(tmp_path / "sweep")]
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NUMPY_BLOCKED, json.dumps([*argvs, sweep])],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    # the negative control: sweep runs the matrix layer, which needs numpy
    assert blocked.pop() == ["ImportError", "", ""]
    assert not (tmp_path / "sweep").exists()
    for (_, digests), out in zip(GOLDEN_FINITE_SET_RUNS.values(), outs):
        assert _digests(out) == digests
    # exit code, stdout and stderr as with numpy loaded
    for (scen, cmd), run in zip(runs, blocked):
        code = _run(cmd, scen, tmp_path / "ref")
        captured = capsys.readouterr()
        assert run == [code, captured.out, captured.err]
    assert [run[0] for run in blocked] == \
        [code for code, _ in GOLDEN_FINITE_SET_RUNS.values()] + [2]
    err = blocked[-1][2].splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not outs[-1].exists()


def test_entropy_without_sections_is_input_error(tmp_path):
    scen = _write(tmp_path, {"entropy": {"C": 1.0, "K": 1.0, "alpha": 1.0}})
    assert _run("entropy", scen, tmp_path / "o") == 2


def test_seed_flag_overrides_scenario(tmp_path):
    scen = _write(tmp_path, LOGISTIC)
    out = tmp_path / "seeded"
    assert _run("simulate", scen, out, "--seed", "777") == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seed"] == 777


def test_entropy_obs_bound_is_the_scheduled_bound(tmp_path):
    doc = json.loads(UNIVERSE_SCENARIO.read_text())
    k = [0.5, 0.25, 0.0, 1.0, 2.0, 0.0, 0.125, 3.0]
    doc["entropy"]["k_schedule"] = k
    out = tmp_path / "out"
    assert _run("entropy", _write(tmp_path, doc), out) == 0
    rows = [line.split(",") for line in
            (out / "entropy_trace.csv").read_text().splitlines()[1:]]
    # the observation flag of row n tests H_O(n+1) <= H(n) + k_n
    tested = rows[:doc["entropy_trace"]["steps"]]
    assert len(tested) == len(k)
    assert [float(row[4]) for row in tested] == [float(row[1]) + k_n
                                                 for row, k_n in zip(tested, k)]


@pytest.mark.parametrize("k", [[0] * 8, [0.5, 0.25, 0.0, 1.0, 2.0, 0.0, 0.125, 3.0]],
                         ids=["zero", "dyadic"])
def test_entropy_total_bound_sums_the_schedule(tmp_path, k):
    doc = json.loads(UNIVERSE_SCENARIO.read_text())
    doc["entropy"]["k_schedule"] = k
    out = tmp_path / "out"
    assert _run("entropy", _write(tmp_path, doc), out) == 0
    rows = [line.split(",") for line in
            (out / "entropy_trace.csv").read_text().splitlines()[1:]]
    H0, C = float(rows[0][1]), doc["entropy"]["C"]
    # row n grants k_0 + ... + k_(n-1), not n K (K = 1 here)
    assert [float(row[5]) for row in rows[1:]] == [
        H0 + C * math.log(n) + sum(k[:n]) for n in range(1, len(rows))]
    if not any(k):
        assert float(rows[7][5]) == H0 + C * math.log(7)


@pytest.mark.parametrize("under", [False, True], ids=["file", "path-under-file"])
def test_out_naming_a_file_is_rejected(tmp_path, capsys, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    out = blocker / "sub" if under else blocker
    assert _run("simulate", _write(tmp_path, LOGISTIC), out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert blocker.read_text() == "keep\n"


def _failing_check(doc):
    doc["checks"] = [{**EQUALIZER_CHECK, "expect_elements": ["a"]}]


def _swap_cycle(doc):
    doc["universe"]["functors"] += [
        {"name": "Id", "identity": True},
        {"name": "W", "obj_map": {"X": "S", "S": "X"}, "mor_map": {}}]
    doc["theta_limit"] = {"verification": "W", "update": "Id", "start": "X"}


@pytest.mark.parametrize("cmd, scenario, patch, code", [
    ("check-axioms", "observer_universe", None, 0),
    ("check-axioms", "observer_universe", _failing_check, 1),
    ("theta", "observer_universe", None, 0),
    ("theta", "observer_universe", _swap_cycle, 3),
    ("theta", "theta_cycle", None, 3),
    ("entropy", "observer_universe", None, 0),
    ("cascade", "damped_cascade", None, 0),
    ("cascade", "cascade_64_pairs", None, 0),
    ("simulate", "logistic_sweep", None, 0),
    ("sweep", "logistic_sweep", None, 0),
], ids=lambda v: getattr(v, "__name__", None))
def test_out_holds_exactly_the_manifest_outputs(tmp_path, cmd, scenario, patch, code):
    doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    if patch is not None:
        patch(doc)
    out = tmp_path / "out"
    assert _run(cmd, _write(tmp_path, doc), out) == code
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["outputs"]
    assert sorted(p.name for p in out.iterdir()) == \
        sorted([*manifest["outputs"], "run_manifest.json"])


# every bundled (command, scenario) pair the CI runs, with its exit code
BUNDLED_RUNS = [
    ("check-axioms", "observer_universe", 0),
    ("theta", "observer_universe", 0),
    ("theta", "theta_cycle", 3),
    ("entropy", "observer_universe", 0),
    ("entropy", "entropy_merge", 0),
    ("cascade", "damped_cascade", 0),
    ("cascade", "cascade_64_pairs", 0),
    ("simulate", "logistic_sweep", 0),
    ("sweep", "logistic_sweep", 0),
    ("simulate", "pipeline_ledger", 0),
    ("sweep", "pipeline_ledger", 0),
    ("simulate", "chaotic_ledger", 0),
    ("simulate", "runaway_ledger", 2),
    ("sweep", "runaway_sweep", 2),
    ("simulate", "runaway_simulate", 2),
    ("entropy", "runaway_entropy", 2),
    ("entropy", "runaway_pairing", 2),
    ("sweep", "oversized_sweep", 2),
]


def test_ci_and_readme_list_the_bundled_runs():
    root = Path(__file__).parents[1]
    ci = (root / ".github" / "workflows" / "tier1.yml").read_text()
    step = ci.split("- name: Artifacts are byte-identical across hash seeds", 1)[1]
    step = step.split("- name:", 1)[0]
    ci_runs = [(cmd, scenario, int(code or 0)) for cmd, scenario, code in re.findall(
        r"^ *run \$hs (\S+) (\S+)(?: \|\| test \$\? -eq (\d+))?$", step, re.M)]
    assert ci_runs == BUNDLED_RUNS
    # a failed run writes no run directory
    assert re.findall(r'^ *test ! -e "\$RUNNER_TEMP/hashseed-\$hs/(\S+)"$', step, re.M) \
        == [scenario for _, scenario, code in BUNDLED_RUNS if code == 2]
    readme = (root / "README.md").read_text()
    block = readme.split("Worked scenarios live in `scenarios/`:", 1)[1]
    block = block.split("```bash\n", 1)[1].split("```", 1)[0]
    readme_runs = [(cmd, scenario, int(code or 0)) for cmd, scenario, code in re.findall(
        r"^veridyn (\S+) +--scenario scenarios/(\S+)\.json +--out \S+ *(?:# exits (\d+))?$",
        block, re.M)]
    assert readme_runs == BUNDLED_RUNS
    assert len(block.splitlines()) == len(BUNDLED_RUNS)


def _cpu_while_sleeping(seconds):
    start = time.process_time()
    time.sleep(seconds)
    return time.process_time() - start


@pytest.mark.parametrize("cmd, scenario, code", BUNDLED_RUNS)
def test_command_leaves_no_cpu_busy(tmp_path, cmd, scenario, code):
    # a BLAS thread pool woken by a threaded call spins on after it returns;
    # let any spin an earlier test left behind run out first
    deadline = time.monotonic() + 2.0
    while _cpu_while_sleeping(0.05) >= 0.002 and time.monotonic() < deadline:
        pass
    assert _run(cmd, str(SCENARIOS / f"{scenario}.json"), tmp_path / "out") == code
    assert _cpu_while_sleeping(0.1) < 0.020


def test_reused_out_drops_the_previous_runs_outputs(tmp_path):
    doc = json.loads(UNIVERSE_SCENARIO.read_text())
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("mine\n")
    assert _run("entropy", _write(tmp_path, doc), out) == 0
    assert (out / "phase_report.json").is_file()
    del doc["phases"]
    assert _run("entropy", _write(tmp_path, doc), out) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert "phase_report.json" not in manifest["outputs"]
    assert sorted(p.name for p in out.iterdir()) == \
        sorted([*manifest["outputs"], "run_manifest.json", "notes.txt"])
    assert (out / "notes.txt").read_text() == "mine\n"


@pytest.mark.parametrize("old_manifest", [
    "{not json",
    json.dumps(["phase_report.json"]),
    json.dumps({"outputs": "phase_report.json"}),
    json.dumps({"outputs": ["../outside.txt", "sub/phase_report.json", ".",
                            "run_manifest.json", 7]}),
    "[" * 100_000 + "]" * 100_000,
], ids=["unreadable", "not-an-object", "not-a-list", "not-plain-names",
        "nested-too-deep"])
def test_reused_out_deletes_only_what_a_manifest_listed(tmp_path, old_manifest):
    doc = json.loads(UNIVERSE_SCENARIO.read_text())
    del doc["phases"]
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    kept = [tmp_path / "outside.txt", out / "phase_report.json",
            out / "sub" / "phase_report.json"]
    for path in kept:
        path.write_text("mine\n")
    (out / "run_manifest.json").write_text(old_manifest)
    assert _run("entropy", _write(tmp_path, doc), out) == 0
    assert all(path.read_text() == "mine\n" for path in kept)
    assert json.loads((out / "run_manifest.json").read_text())["outputs"] == [
        "entropy_report.json", "entropy_trace.csv"]


class _FailsAfterFirstPiece:
    """A text file whose second write raises, as a disk that fills up would."""

    def __init__(self, fh):
        self.fh = fh
        self.pieces = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        if self.pieces:
            raise OSError(28, "No space left on device")
        self.pieces += 1
        self.fh.write(text)
        self.fh.flush()


@pytest.mark.parametrize("failing, midway", [
    *(pytest.param(name, False, id=name) for name in (
        "entropy_trace.csv", "entropy_report.json", "phase_report.json",
        "run_manifest.json")),
    # the fault strikes after the first piece of a streamed JSON artifact
    *(pytest.param(name, True, id=f"{name}-midway") for name in (
        "phase_report.json", "run_manifest.json")),
])
def test_failed_write_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, failing, midway):
    doc = json.loads(UNIVERSE_SCENARIO.read_text())
    out = tmp_path / "out"
    assert _run("entropy", _write(tmp_path, doc), out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    doc["entropy_trace"]["steps"] = 6
    doc["phases"]["period"] = 4
    scen = _write(tmp_path, doc)
    # without the fault, the second run rewrites every file
    assert _run("entropy", scen, tmp_path / "unfaulted") == 0
    assert all((tmp_path / "unfaulted" / name).read_bytes() != data
               for name, data in before.items())
    capsys.readouterr()

    def refuse(write):
        def wrapped(path, value):
            if Path(path).name == failing:
                raise OSError(28, "No space left on device")
            write(path, value)
        return wrapped

    streams = []

    def open_failing(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if Path(path).name != failing:
            return fh
        streams.append(_FailsAfterFirstPiece(fh))
        return streams[-1]

    if midway:
        monkeypatch.setattr(_formats, "open", open_failing, raising=False)
    else:
        monkeypatch.setattr(cli, "write_text", refuse(cli.write_text))
        monkeypatch.setattr(cli, "write_json", refuse(cli.write_json))
    assert _run("entropy", scen, out) == 2
    assert [s.pieces for s in streams] == ([1] if midway else [])
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # the temporary directory beside --out is gone
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "out", "scenario.json", "unfaulted"]


def test_scenario_hash_is_the_sha256_of_the_file_bytes(tmp_path):
    text = UNIVERSE_SCENARIO.read_text()
    copies = {"bundled": UNIVERSE_SCENARIO,
              "whitespace": tmp_path / "whitespace.json",
              "crlf": tmp_path / "crlf.json"}
    copies["whitespace"].write_bytes(text.replace("\n", "\n  ").encode())
    copies["crlf"].write_bytes(text.replace("\n", "\r\n").encode())
    hashes, artifacts = {}, {}
    for name, path in copies.items():
        for cmd in ("check-axioms", "theta", "entropy"):
            out = tmp_path / name / cmd
            assert _run(cmd, str(path), out) == 0
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert manifest["scenario_hash"] == hashlib.sha256(path.read_bytes()).hexdigest()
            hashes[name] = manifest["scenario_hash"]
            artifacts[name, cmd] = {p.name: p.read_bytes() for p in out.iterdir()
                                    if p.name != "run_manifest.json"}
    # a whitespace or line-end edit changes the hash, not the artifacts
    assert len(set(hashes.values())) == 3
    for cmd in ("check-axioms", "theta", "entropy"):
        assert artifacts["bundled", cmd]
        assert artifacts["whitespace", cmd] == artifacts["crlf", cmd] == \
            artifacts["bundled", cmd]


# single-field mutations of the bundled scenarios, run by the commands that
# read them; the scenarios keep their own sizes, the caps bound the work
FUZZ_RUNS = {"observer_universe": ("check-axioms", "theta", "entropy"),
             "damped_cascade": ("cascade",),
             "logistic_sweep": ("simulate", "sweep")}
DELETE = "<delete>"
FUZZ_VALUES = [None, "x", -1, 0, 2.5, [], {}, True, 1e308, 10 ** 30, DELETE]


def _field_paths(node, path=()):
    """The key or index path of every value below the root of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield (*path, key)
        yield from _field_paths(child, (*path, key))


FUZZ_CASES = [(name, cmd, path)
              for name, cmds in FUZZ_RUNS.items()
              for path in _field_paths(json.loads((SCENARIOS / f"{name}.json").read_text()))
              for cmd in cmds]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(case=st.sampled_from(FUZZ_CASES), value=st.sampled_from(FUZZ_VALUES))
def test_single_field_mutation_keeps_the_exit_contract(case, value):
    name, cmd, path = case
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = _run(cmd, _write(Path(tmp), doc), out)
        assert code in (0, 1, 2, 3)
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert not out.exists()
