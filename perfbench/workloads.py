"""Seeded workload generators and the reference checks for their artifacts.

Every workload is built in code from the benchmark seed; veridyn only ever
sees the generated scenario file.  Each generator returns the scenario
document plus the facts the reference check needs, computed here without
veridyn: the exact flip point of the logistic family, a plain recurrence
for the contracting pipeline, a numpy eigenvalue oracle, and the planted
square violations and theta-iteration count of the finite universe.

A check returns a list of problems; an empty list means the artifacts are
correct.  Checks read artifacts from disk, so a corrupted file or a wrong
exit code is caught the same way a wrong computation is.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# veridyn.cascade.RESIDUAL_TOL, restated so the check does not import veridyn
RESIDUAL_TOL = 1e-6
FLIP_TOL = 1e-6
SWEEP_POINT_TOL = 1e-6
TRAJ_RTOL = 1e-12
ENTROPY_TOL = 1e-9
EIG_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (command, expected exit code) in the order one operation runs them
    commands: tuple[tuple[str, int], ...]
    generate: Callable[[int, bool], tuple[dict, dict]]
    check: Callable[[dict, dict[str, Path], dict[str, int]], list[str]]
    # scenarios one operation runs the commands on; copy i of seed s is
    # generated from seed s * copies + i, so distinct seeds share no input
    copies: int = 1

    def verify(self, expect: dict, outs: dict[str, Path], codes: dict) -> list[str]:
        """Problems in one operation's artifacts; an unreadable artifact is one."""
        try:
            return self.check(expect, outs, codes)
        except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"unreadable artifact: {type(exc).__name__}: {exc}"]


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _exit_problems(commands, codes: dict[str, int]) -> list[str]:
    return [f"{cmd}: exit {codes.get(cmd)} (expected {want})"
            for cmd, want in commands if codes.get(cmd) != want]


# --- sweep-logistic ----------------------------------------------------------
#
# F_r(x) = 0 + r * (x - x^2) = r x (1 - x), the bundled sweep's family.  Its
# fixed point x* = 1 - 1/r has multiplier 2 - r, so det(I + DF) vanishes
# exactly at r = 3 (flip) and every r <= 2.7 contracts to x*.  The seed picks
# x0.  An observer scale c != 1 would move the flip point to 3/c, but
# find_critical_r exits 3 for about a third of c in [0.95, 1.05]; see
# README.md, "Known defects".


def gen_sweep(seed: int, tiny: bool) -> tuple[dict, dict]:
    rng = random.Random(f"sweep-logistic/{seed}")
    steps = 7 if tiny else 91
    doc = {
        "seed": seed,
        "phi": {"kind": "affine", "A": [[0.0]], "b": [0.0]},
        "observer": {"kind": "polynomial", "dim": 1,
                     "coords": [[{"coeff": 1.0, "powers": [1]},
                                 {"coeff": -1.0, "powers": [2]}]]},
        "x0": [rng.uniform(0.2, 0.8)],
        "r_grid": {"lo": 2.5, "hi": 3.4, "steps": steps},
        "transient": 50 if tiny else 500,
        "sample": 16 if tiny else 64,
    }
    return doc, {"steps": steps}


def check_sweep(expect: dict, outs: dict[str, Path], codes: dict[str, int]) -> list[str]:
    problems = _exit_problems(SWEEP.commands, codes)
    if problems:
        return problems
    critical = _read_json(outs["sweep"] / "critical_report.json")
    flip = critical.get("r_c_flip")
    if flip is None or abs(flip - 3.0) > FLIP_TOL:
        problems.append(f"r_c_flip {flip} is not within {FLIP_TOL} of 3")
    rows = _read_csv(outs["sweep"] / "diagram.csv")
    if len(rows) != expect["steps"]:
        problems.append(f"diagram has {len(rows)} rows, expected {expect['steps']}")
    for row in rows:
        r = float(row["r"])
        if r > 2.7:
            continue
        if row["class"] != "fixed-point" or \
                abs(float(row["pt0_x0"]) - (1.0 - 1.0 / r)) > SWEEP_POINT_TOL or \
                abs(float(row["lead_eig_re"]) - (2.0 - r)) > SWEEP_POINT_TOL:
            problems.append(f"row r={row['r']} is not the fixed point {1.0 - 1.0 / r}")
    return problems


# --- simulate-ledger ---------------------------------------------------------
#
# Contracting dim-2 pipeline x -> A P(x) + b with
#   P(x) = (p0 x0 + q0 x1^2, p1 x1 + q1 x0 x1)
# and a polynomial observer o(x) = (x0^2 - h x1, x0 x1 + g), read every
# second step.  The L column is H(prefix histogram of x) + alpha H(... of o).


def gen_simulate(seed: int, tiny: bool) -> tuple[dict, dict]:
    rng = random.Random(f"simulate-ledger/{seed}")
    p = [rng.uniform(0.5, 0.8), rng.uniform(0.5, 0.8)]
    q = [rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)]
    a = [[rng.uniform(0.4, 0.6), rng.uniform(-0.3, 0.3)],
         [rng.uniform(-0.3, 0.3), rng.uniform(0.4, 0.6)]]
    b = [rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)]
    h, g = rng.uniform(0.2, 0.6), rng.uniform(-0.3, 0.3)
    x0 = [rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)]
    alpha = rng.uniform(0.25, 1.0)
    steps = 40 if tiny else 2_000

    def term(coeff, powers):
        return {"coeff": coeff, "powers": powers}

    doc = {
        "seed": seed,
        "phi": {"kind": "pipeline", "parts": [
            {"kind": "polynomial", "dim": 2, "coords": [
                [term(p[0], [1, 0]), term(q[0], [0, 2])],
                [term(p[1], [0, 1]), term(q[1], [1, 1])]]},
            {"kind": "affine", "A": a, "b": b}]},
        "observer": {"kind": "polynomial", "dim": 2, "coords": [
            [term(1.0, [2, 0]), term(-h, [0, 1])],
            [term(1.0, [1, 1]), term(g, [0, 0])]]},
        "x0": x0,
        "steps": steps,
        "schedule": 2,
        "ledger": {"bins": 16, "lo": -2.0, "hi": 2.0},
        "entropy": {"alpha": alpha},
    }
    return doc, {"p": p, "q": q, "a": a, "b": b, "h": h, "g": g, "x0": x0,
                 "alpha": alpha, "steps": steps, "schedule": 2,
                 "bins": 16, "lo": -2.0, "hi": 2.0}


def _reference_trajectory(e: dict) -> tuple[np.ndarray, np.ndarray]:
    (p0, p1), (q0, q1), a, b = e["p"], e["q"], e["a"], e["b"]
    h, g = e["h"], e["g"]
    xs = np.empty((e["steps"] + 1, 2))
    os_ = np.empty((e["steps"] + 1, 2))
    x0, x1 = e["x0"]
    o = (x0 * x0 - h * x1, x0 * x1 + g)
    xs[0], os_[0] = (x0, x1), o
    for n in range(1, e["steps"] + 1):
        y0, y1 = p0 * x0 + q0 * x1 * x1, p1 * x1 + q1 * x0 * x1
        x0 = a[0][0] * y0 + a[0][1] * y1 + b[0]
        x1 = a[1][0] * y0 + a[1][1] * y1 + b[1]
        if n % e["schedule"] == 0:
            o = (x0 * x0 - h * x1, x0 * x1 + g)
        xs[n], os_[n] = (x0, x1), o
    return xs, os_


def _prefix_entropies(points: np.ndarray, bins: int, lo: float, hi: float) -> np.ndarray:
    """Entropy (bits) of the histogram of points[:n+1] for every n."""
    idx = np.clip(((points - lo) / (hi - lo) * bins).astype(int), 0, bins - 1)
    counts: dict[tuple, int] = {}
    out = np.empty(len(points))
    for n, key in enumerate(map(tuple, idx)):
        counts[key] = counts.get(key, 0) + 1
        total = n + 1
        out[n] = -sum(k / total * math.log2(k / total) for k in counts.values())
    return out


def check_simulate(expect: dict, outs: dict[str, Path], codes: dict[str, int]) -> list[str]:
    problems = _exit_problems(SIMULATE.commands, codes)
    if problems:
        return problems
    rows = _read_csv(outs["simulate"] / "trajectory.csv")
    if len(rows) != expect["steps"] + 1:
        return [f"trajectory has {len(rows)} rows, expected {expect['steps'] + 1}"]
    got_x = np.array([[float(r["x0"]), float(r["x1"])] for r in rows])
    got_o = np.array([[float(r["o0"]), float(r["o1"])] for r in rows])
    got_l = np.array([float(r["L"]) for r in rows])
    want_x, want_o = _reference_trajectory(expect)
    for label, got, want in (("x", got_x, want_x), ("o", got_o, want_o)):
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        if not np.all(err <= TRAJ_RTOL):
            n = int(np.argmax(err.max(axis=1)))
            problems.append(f"{label} differs from the reference recurrence at step {n}")
    bins, lo, hi = expect["bins"], expect["lo"], expect["hi"]
    want_l = (_prefix_entropies(want_x, bins, lo, hi)
              + expect["alpha"] * _prefix_entropies(want_o, bins, lo, hi))
    err = np.abs(got_l - want_l)
    if not np.all(err <= ENTROPY_TOL):
        problems.append(f"L differs from the prefix-histogram entropy at step "
                        f"{int(np.argmax(err))}")
    return problems


# --- cascade-64 --------------------------------------------------------------
#
# C = (prod lambda) I + sum (1 - lambda_i) theta_i with theta_1 a seeded
# permutation that is one cycle through all coordinates and theta_2, theta_3
# rotations by turns whose denominators divide 12, each in a seeded coordinate
# plane.  Permutations made of short cycles give repeated complex eigenvalue
# pairs, on which veridyn's eigensolver stalls; see README.md, "Known defects".


TURNS = ("1/3", "1/4", "1/6", "1/12", "5/12", "2/3", "3/4")


def _short_cycle_perm(rng: random.Random, n: int, lengths=(1, 2, 3, 4)) -> list[int]:
    """Permutation of range(n) whose cycle lengths are drawn from `lengths`."""
    order = list(range(n))
    rng.shuffle(order)
    perm = [0] * n
    i = 0
    while i < n:
        k = min(rng.choice(lengths), n - i)
        cyc = order[i:i + k]
        for j, v in enumerate(cyc):
            perm[v] = cyc[(j + 1) % k]
        i += k
    return perm


def gen_cascade(seed: int, tiny: bool) -> tuple[dict, dict]:
    rng = random.Random(f"cascade-64/{seed}")
    dim = 8 if tiny else 64
    perm = _short_cycle_perm(rng, dim, lengths=(dim,))
    stages = [{"lambda": rng.uniform(0.3, 0.8),
               "theta": {"kind": "permutation", "perm": perm}}]
    for _ in range(2):
        i, j = rng.sample(range(dim), 2)
        stages.append({"lambda": rng.uniform(0.3, 0.8),
                       "theta": {"kind": "rotation", "turns": rng.choice(TURNS),
                                 "dim": dim, "plane": [i, j]}})
    return {"seed": seed, "cascade": {"stages": stages}}, {"dim": dim, "stages": stages}


def _oracle_eigenvalues(expect: dict) -> np.ndarray:
    dim = expect["dim"]
    contraction = math.prod(st["lambda"] for st in expect["stages"])
    c = contraction * np.eye(dim)
    for st in expect["stages"]:
        th = st["theta"]
        m = np.zeros((dim, dim)) if th["kind"] == "permutation" else np.eye(dim)
        if th["kind"] == "permutation":
            m[th["perm"], range(dim)] = 1.0
        else:
            num, den = (int(v) for v in th["turns"].split("/"))
            angle = 2.0 * math.pi * num / den
            i, j = th["plane"]
            m[i, i] = m[j, j] = math.cos(angle)
            m[i, j], m[j, i] = -math.sin(angle), math.sin(angle)
        c += (1.0 - st["lambda"]) * m
    return np.linalg.eigvals(c)


def check_cascade(expect: dict, outs: dict[str, Path], codes: dict[str, int]) -> list[str]:
    problems = _exit_problems(CASCADE.commands, codes)
    if problems:
        return problems
    report = _read_json(outs["cascade"] / "cascade_report.json")["spectrum"]
    got = [complex(ev["re"], ev["im"]) for ev in report["eigenvalues"]]
    oracle = list(_oracle_eigenvalues(expect))
    if len(got) != len(oracle):
        return [f"{len(got)} eigenvalues for dimension {len(oracle)}"]
    for ev in got:
        k = min(range(len(oracle)), key=lambda i: abs(oracle[i] - ev))
        if abs(oracle[k] - ev) > EIG_TOL:
            problems.append(f"eigenvalue {ev} has no oracle match within {EIG_TOL}")
        oracle.pop(k)
    worst = max(report["residuals"], default=0.0)
    if not worst <= RESIDUAL_TOL:
        problems.append(f"max residual {worst} exceeds {RESIDUAL_TOL}")
    return problems


# --- universe-3200 -----------------------------------------------------------
#
# Carriers X and OX of n elements.  phi is a short-cycle permutation of X
# (order 12), inv an involution, obs : X -> OX a bijection and the
# transformation v : Id => O has component obs.  O(inv) is obs inv obs^-1
# with `plant` pairs of its 2-cycles rewired, so the naturality square of v
# at inv fails at exactly the elements computed below.  V walks the chain
# Y_0 < Y_1 < ... < Y_{k-1} < X and fixes X, so iterate_to_theta stops after
# exactly k iterations.


def _labels(prefix: str, n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def gen_universe(seed: int, tiny: bool) -> tuple[dict, dict]:
    rng = random.Random(f"universe-3200/{seed}")
    n = 48 if tiny else 3200
    n_pair = 24 if tiny else 400
    xs, os_ = _labels("x", n), _labels("o", n)
    phi_perm = _short_cycle_perm(rng, n)
    phi = {xs[i]: xs[phi_perm[i]] for i in range(n)}
    inv_perm = _short_cycle_perm(rng, n, lengths=(1, 2, 2))
    inv = {xs[i]: xs[inv_perm[i]] for i in range(n)}
    sigma = list(range(n))
    rng.shuffle(sigma)
    obs = {xs[i]: os_[sigma[i]] for i in range(n)}
    obs_inv = {v: k for k, v in obs.items()}
    o_inv = {y: obs[inv[obs_inv[y]]] for y in os_}
    two_cycles = sorted({tuple(sorted((y, o_inv[y]))) for y in os_ if o_inv[y] != y})
    plant = rng.randint(2, 4) if not tiny else 1
    for (a, b), (c, d) in zip(*[iter(rng.sample(two_cycles, 2 * plant))] * 2):
        o_inv[a], o_inv[c], o_inv[b], o_inv[d] = c, a, d, b
    violations = [{"element": x, "left_path": o_inv[obs[x]], "right_path": obs[inv[x]]}
                  for x in xs if o_inv[obs[x]] != obs[inv[x]]]
    k = rng.randint(5, 6)
    chain = [f"Y{j}" for j in range(k)] + ["X"]
    sizes = [n * (j + 1) // (k + 1) for j in range(k)] + [n]
    buckets = _labels("b", 64 if not tiny else 4)
    coarse = {x: buckets[i % len(buckets)] for i, x in enumerate(xs)}
    weights = [rng.randint(1, 4) for _ in xs]
    total = sum(weights)
    probs = [w / total for w in weights]
    pairs = _labels("p", n_pair)
    phase_values = ("0", "1/4", "1/3", "1/2", "2/3", "3/4")
    assignments = {p: rng.choice(phase_values) for p in pairs}
    steps = 4 if tiny else 16
    universe = {
        "objects": [{"id": "X", "elements": xs}, {"id": "OX", "elements": os_},
                    {"id": "B", "elements": buckets}, {"id": "P", "elements": pairs}]
                   + [{"id": f"Y{j}", "elements": xs[:sizes[j]]} for j in range(k)],
        "morphisms": [
            {"id": "phi", "src": "X", "dst": "X", "mapping": phi},
            {"id": "inv", "src": "X", "dst": "X", "mapping": inv},
            {"id": "obs", "src": "X", "dst": "OX", "mapping": obs},
            {"id": "o_inv", "src": "OX", "dst": "OX", "mapping": o_inv},
            {"id": "coarse", "src": "X", "dst": "B", "mapping": coarse},
        ],
        "functors": [
            {"name": "V", "obj_map": {**{chain[j]: chain[j + 1] for j in range(k)},
                                      "X": "X"},
             "mor_map": {"inv": "inv"}},
            {"name": "U", "obj_map": {c: c for c in chain}, "mor_map": {"inv": "inv"}},
            {"name": "O", "obj_map": {"X": "OX", "OX": "OX"},
             "mor_map": {"inv": "o_inv"}},
        ],
        "transformations": [
            {"name": "v", "source": "Id", "target": "O", "components": {"X": "obs"}},
        ],
    }
    doc = {
        "seed": seed,
        "universe": universe,
        "theta_limit": {"verification": "V", "update": "U", "start": "Y0",
                        "max_iter": 16},
        "entropy": {"C": 1.0, "K": 1.0, "alpha": 0.5},
        "entropy_trace": {"start": "X", "transition": "phi", "observer": "coarse",
                          "steps": steps, "initial_probs": probs},
        "phases": {"carrier": "P", "assignments": assignments, "theta": "phi",
                   "cycle": [["inv", "1/3"], ["inv", "2/3"]]},
    }
    counts: dict[str, int] = {}
    for ph in assignments.values():
        counts[ph] = counts.get(ph, 0) + 1
    expect = {
        "violations": violations,
        "checked": [["v", "inv"]],
        "iterations": k,
        "chain_sizes": sizes,
        "phi": phi, "coarse": coarse, "probs": dict(zip(xs, probs)),
        "steps": steps,
        "pairs": sum(m * m for m in counts.values()),
        "lock_space": sorted(x for x in xs if phi[x] == x),
        "period": math.lcm(*{_cycle_length(phi, x) for x in xs}),
    }
    return doc, expect


def _cycle_length(perm: dict, start: str) -> int:
    n, x = 1, perm[start]
    while x != start:
        n, x = n + 1, perm[x]
    return n


def _entropy_bits(mass: dict[str, float]) -> float:
    return -sum(q * math.log2(q) for q in mass.values() if q > 0.0)


def check_universe(expect: dict, outs: dict[str, Path], codes: dict[str, int]) -> list[str]:
    problems = _exit_problems(UNIVERSE.commands, codes)
    if problems:
        return problems
    axioms = _read_json(outs["check-axioms"] / "axioms_report.json")
    if not all(f["accepted"] for f in axioms["functors"].values()):
        problems.append("a functor was rejected")
    checked = [e for e in axioms["squares"] if e["status"] == "checked"]
    if [[e["transformation"], e["morphism"]] for e in checked] != expect["checked"]:
        problems.append("checked squares differ from the planted set")
    found = [v for e in checked for v in e["report"]["violations"]]
    if found != expect["violations"] or axioms["all_hold"]:
        problems.append(f"{len(found)} square violations reported, "
                        f"{len(expect['violations'])} planted")
    theta = _read_json(outs["theta"] / "theta_result.json")
    if theta["iterations"] != expect["iterations"] or not theta["converged"] \
            or not (theta["verified"] or {}).get("holds"):
        problems.append(f"theta took {theta['iterations']} iterations, "
                        f"planted {expect['iterations']}")
    sizes = [int(r["carrier_size"]) for r in _read_csv(outs["theta"] / "theta_chain.csv")]
    if sizes != expect["chain_sizes"]:
        problems.append(f"theta chain sizes {sizes} differ from {expect['chain_sizes']}")
    phases = _read_json(outs["entropy"] / "phase_report.json")
    if len(phases["pairing"]) != expect["pairs"]:
        problems.append(f"{len(phases['pairing'])} phase pairs, expected {expect['pairs']}")
    if phases["lock_space"] != expect["lock_space"] or phases["period"] != expect["period"]:
        problems.append("phase lock space or period differs from phi's fixed points")
    if not phases["cycle_zero_net"]:
        problems.append("the 1/3 + 2/3 cycle does not close to zero phase")
    rows = _read_csv(outs["entropy"] / "entropy_trace.csv")
    state = expect["probs"]
    for n in range(expect["steps"] + 1):
        image: dict[str, float] = {}
        for x, q in state.items():
            image[expect["coarse"][x]] = image.get(expect["coarse"][x], 0.0) + q
        if n >= len(rows) or \
                abs(float(rows[n]["H"]) - _entropy_bits(state)) > ENTROPY_TOL or \
                abs(float(rows[n]["H_O"]) - _entropy_bits(image)) > ENTROPY_TOL:
            problems.append(f"entropy trace differs from the reference at step {n}")
            break
        state = {expect["phi"][x]: q for x, q in state.items()}
    return problems


SWEEP = Workload(
    "sweep-logistic",
    "scalar map evaluation and per-row dispatch over a 91-point coupling grid",
    (("sweep", 0),), gen_sweep, check_sweep)
SIMULATE = Workload(
    "simulate-ledger",
    "one state at a time through a dim-2 pipeline with a dense 256-label entropy ledger",
    (("simulate", 0),), gen_simulate, check_simulate)
CASCADE = Workload(
    "cascade-64",
    "dense 64-dim eigensolves plus inverse-iteration verification, four operators per operation",
    (("cascade", 0),), gen_cascade, check_cascade, copies=4)
UNIVERSE = Workload(
    "universe-3200",
    "finite-set layer only: squares, functor laws, theta, entropy and phases on 3200-element carriers",
    (("check-axioms", 1), ("theta", 0), ("entropy", 0)), gen_universe, check_universe)

WORKLOADS = {w.name: w for w in (SWEEP, SIMULATE, CASCADE, UNIVERSE)}
