import cmath
import json

import numpy as np
import pytest

from veridyn.cascade import RESIDUAL_TOL
from veridyn.cli import main

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
    scen2 = _write(tmp_path, {
        "universe": growing,
        "theta_limit": {"verification": "V", "update": "Id", "start": "G0",
                        "max_iter": 4},
    }, name="grow.json")
    out2 = tmp_path / "out2"
    assert _run("theta", scen2, out2) == 3
    result = json.loads((out2 / "theta_result.json").read_text())
    assert not result["converged"]


def test_simulate_outputs(tmp_path):
    scen = _write(tmp_path, LOGISTIC)
    out = tmp_path / "sim"
    assert _run("simulate", scen, out) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "n,x0,o0,L"
    assert len(lines) == LOGISTIC["steps"] + 2
    lyap = json.loads((out / "lyapunov.json").read_text())
    assert "monotone" in lyap and lyap["schedule"] == 1


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


def test_sweep_threads_flag_keeps_bytes(tmp_path):
    scen = _write(tmp_path, LOGISTIC)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert _run("sweep", scen, out1) == 0
    assert _run("sweep", scen, out2, "--threads", "4") == 0
    assert (out1 / "diagram.csv").read_bytes() == (out2 / "diagram.csv").read_bytes()


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


def test_entropy_without_sections_is_input_error(tmp_path):
    scen = _write(tmp_path, {"entropy": {"C": 1.0, "K": 1.0, "alpha": 1.0}})
    assert _run("entropy", scen, tmp_path / "o") == 2


def test_seed_flag_overrides_scenario(tmp_path):
    scen = _write(tmp_path, LOGISTIC)
    out = tmp_path / "seeded"
    assert _run("simulate", scen, out, "--seed", "777") == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seed"] == 777
