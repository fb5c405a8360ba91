"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines.  Every expected value is either computed by an
independent oracle inside this module or is an exact identity.
"""

import itertools
import json
import math
import sys
from math import gcd

import numpy as np

from conftest import (
    make_theta_system,
    random_mor,
    random_obj,
    random_square_setup,
    scale_map,
    zero_map,
)
from veridyn.cascade import (
    CascadeSpec,
    CascadeStage,
    LinOp,
    build_cascade,
    check_hull_claim,
    spectrum,
)
from veridyn.category import FinObj, automorphism_order, equalizer
from veridyn.cli import main as cli_main
from veridyn.coalgebra import apply_F, iterate_to_theta, verify_theta
from veridyn.dynamics import (
    PolynomialMap,
    find_critical_r,
    jacobian_fd,
    sweep_bifurcation,
)
from veridyn.entropy import (
    EntropyParams,
    ProbState,
    build_trace,
    pushforward,
    shannon_entropy,
)
from veridyn.phase import RationalPhase, phase_add, phase_inverse, phase_lock_space


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}", file=sys.stderr, flush=True)


# -------------------------------------------------------------------------
# 1. square-check verdicts match exhaustive two-path evaluation


def test_criterion_1_square_checks():
    from veridyn.category import check_observer_square, check_verification_square

    rng = np.random.default_rng(1001)
    agree = 0
    total = 200
    for i in range(total):
        functor, trans, f = random_square_setup(rng)
        checker = check_observer_square if i % 2 == 0 else check_verification_square
        report = checker(functor, trans, f)
        ff = functor.apply_mor(f)
        tx, ty = trans.components[f.src], trans.components[f.dst]
        brute = {x for x in f.src.elements
                 if ff.apply(tx.apply(x)) != ty.apply(f.apply(x))}
        if report.holds == (not brute) and \
                {w.element for w in report.violations} == brute:
            agree += 1
    ok = agree == total
    _report(1, ok, f"square verdicts vs two-path oracle {agree}/{total} "
                   f"(observer and verification checkers alternated)")
    assert ok


# -------------------------------------------------------------------------
# 2. equalizer equals brute-force agreement filter


def test_criterion_2_equalizer_oracle():
    rng = np.random.default_rng(1002)
    agree = 0
    total = 500
    for _ in range(total):
        src = random_obj(rng, "S", max_elems=5)
        dst = random_obj(rng, "D", max_elems=5, pool="ijklmn")
        eta = random_mor(rng, src, dst)
        theta = random_mor(rng, src, dst)
        sub, incl = equalizer(eta, theta)
        brute = tuple(x for x in src.elements if eta.apply(x) == theta.apply(x))
        if sub.elements == brute and incl.pairs == tuple((x, x) for x in brute):
            agree += 1
    ok = agree == total
    _report(2, ok, f"equalizer vs brute-force filter {agree}/{total}")
    assert ok


# -------------------------------------------------------------------------
# 3. verification limit converges, verifies, and is idempotent


def test_criterion_3_theta_fixed_point():
    rng = np.random.default_rng(1003)
    good = 0
    total = 50
    for _ in range(total):
        verification, update, start, objects = make_theta_system(
            rng, n_objects=int(rng.integers(4, 9)))
        result = iterate_to_theta(verification, update, start)
        if not result.converged or result.iterations > len(objects):
            continue
        if not verify_theta(verification, update, result).holds:
            continue
        if apply_F(verification, update, result.carrier).size != result.carrier.size:
            continue
        good += 1
    ok = good == total
    _report(3, ok, f"stabilization + witness + idempotence {good}/{total}")
    assert ok


# -------------------------------------------------------------------------
# 4. entropy ledger agrees with brute force; pushforward never expands;
#    entropy_report.json's direction lists agree with brute force


def _entropy_trace_scenario(rng) -> tuple[dict, list[float]]:
    """A random endomap trace on one carrier, and its H sequence by hand."""
    carrier = random_obj(rng, "X", max_elems=6, pool="abcdefgh")
    step = random_mor(rng, carrier, carrier)
    raw = rng.random(carrier.size) + 1e-9
    probs = (raw / raw.sum()).tolist()
    state = dict(zip(carrier.elements, probs))
    steps = int(rng.integers(1, 8))
    H = []
    for _ in range(steps + 1):
        H.append(-sum(q * math.log2(q) for q in state.values() if q > 0.0))
        image = dict.fromkeys(carrier.elements, 0.0)
        for x, q in state.items():
            image[step.apply(x)] += q
        state = image
    doc = {
        "universe": {
            "objects": [{"id": "X", "elements": list(carrier.elements)}],
            "morphisms": [{"id": "t", "src": "X", "dst": "X",
                           "mapping": dict(step.pairs)}],
            "functors": [], "transformations": []},
        "entropy": {"C": 1.0, "K": 1.0},
        "entropy_trace": {"start": "X", "transition": "t", "observer": "t",
                          "steps": steps, "initial_probs": probs},
    }
    return doc, H


def test_criterion_4_entropy_bounds(tmp_path):
    rng = np.random.default_rng(1004)
    trace_ok = 0
    for _ in range(100):
        length = int(rng.integers(2, 24))
        H = np.abs(rng.standard_normal(length).cumsum()).tolist()
        C = float(rng.random() * 1.5)
        trace = build_trace(H, [0.0] * length, EntropyParams(C=C))
        flagged = [s.n for s in trace.steps if not s.step_bound_ok]
        brute = [n for n in range(length - 1)
                 if H[n + 1] - H[n] > C * math.log(n + 1) + 1e-9]
        if flagged == brute:
            trace_ok += 1
    dpi_ok = 0
    postulate_violations = 0
    total_pairs = 1000
    for _ in range(total_pairs):
        src = random_obj(rng, "S", max_elems=6, pool="abcdefgh")
        dst = random_obj(rng, "D", max_elems=6, pool="ijklmnop")
        raw = rng.random(src.size) + 1e-9
        p = ProbState(src, tuple(raw / raw.sum()))
        f = random_mor(rng, src, dst)
        h_src = shannon_entropy(p)
        h_img = shannon_entropy(pushforward(p, f))
        if h_img <= h_src + 1e-9:
            dpi_ok += 1
        if h_img < h_src - 1e-9:
            # the non-decreasing postulate says entropy never drops;
            # deterministic merges drop it, so this rate is reported only
            postulate_violations += 1
    # entropy_report.json lists the same direction findings as the oracle
    report_ok = 0
    total_runs = 40
    for i in range(total_runs):
        doc, H = _entropy_trace_scenario(rng)
        path = tmp_path / f"trace{i}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"out{i}"
        assert cli_main(["entropy", "--scenario", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "entropy_report.json").read_text())
        drops = [n for n in range(len(H) - 1) if H[n + 1] < H[n] - 1e-9]
        rises = [n for n in range(len(H) - 1) if H[n + 1] > H[n] + 1e-9]
        if report["postulate_violations"] == drops and \
                report["contraction_violations"] == rises == []:
            report_ok += 1
    ok = trace_ok == 100 and dpi_ok == total_pairs and report_ok == total_runs
    _report(4, ok,
            f"step-bound oracle {trace_ok}/100, contraction {dpi_ok}/{total_pairs}; "
            f"non-decreasing postulate violated in {postulate_violations}/"
            f"{total_pairs} pairs (reported, not asserted); direction lists "
            f"match the oracle in {report_ok}/{total_runs} entropy runs")
    assert ok


# -------------------------------------------------------------------------
# 5. phase algebra: exhaustive group laws, lock spaces, cycle invariance


def _exhaustive_group_laws() -> tuple[bool, str]:
    """Group laws over every phase with denominator <= 24, exactly.

    All 5.8M ordered triples are covered: each distinct addition is a real
    phase_add call, tabulated, and the per-triple comparisons run over an
    exact integer encoding (denominators of all intermediates divide
    lcm(1..24), so encoding as multiples of 1/lcm is injective and exact).
    """
    phases = [RationalPhase(n, d)
              for d in range(1, 25) for n in range(d) if gcd(n, d) == 1]
    n_ph = len(phases)
    big_l = math.lcm(*range(1, 25))

    def encode(p: RationalPhase) -> int:
        return p.numerator * (big_l // p.denominator)

    # identity and inverse, exhaustively
    zero = RationalPhase(0, 1)
    for p in phases:
        if phase_add(p, zero) != p or phase_add(zero, p) != p:
            return False, f"identity law fails at {p}"
        inv = phase_inverse(p)
        if phase_add(p, inv) != zero:
            return False, f"inverse law fails at {p}"
        if p.numerator and (inv.numerator, inv.denominator) != \
                (p.denominator - p.numerator, p.denominator):
            return False, f"inverse form fails at {p}"

    # first-level sums: real calls, interned and encoded
    index: dict[tuple[int, int], int] = {}
    pool: list[RationalPhase] = []

    def intern(p: RationalPhase) -> int:
        key = (p.numerator, p.denominator)
        i = index.get(key)
        if i is None:
            if big_l % p.denominator != 0 or not (0 <= p.numerator < p.denominator):
                raise AssertionError(f"non-canonical sum {p}")
            i = len(pool)
            index[key] = i
            pool.append(p)
        return i

    s_idx = np.empty((n_ph, n_ph), dtype=np.int64)
    for i, a in enumerate(phases):
        for j, b in enumerate(phases):
            s_idx[i, j] = intern(phase_add(a, b))
    if not np.array_equal(s_idx, s_idx.T):
        return False, "commutativity fails on the base set"

    n_sums = len(pool)
    left = np.empty((n_sums, n_ph), dtype=np.int64)
    for u, pu in enumerate(pool):
        row = left[u]
        for k, c in enumerate(phases):
            row[k] = encode(phase_add(pu, c))
    right = np.empty((n_ph, n_sums), dtype=np.int64)
    for i, a in enumerate(phases):
        row = right[i]
        for v, pv in enumerate(pool):
            row[v] = encode(phase_add(a, pv))

    lhs = left[s_idx, :]          # (a+b)+c over all ordered triples
    rhs = right[:, s_idx]         # a+(b+c) over all ordered triples
    if not np.array_equal(lhs, rhs):
        bad = np.argwhere(lhs != rhs)[0]
        return False, f"associativity fails at triple index {tuple(bad)}"
    # direct spot re-check without the tables
    rng = np.random.default_rng(1005)
    for _ in range(20_000):
        a, b, c = (phases[int(i)] for i in rng.integers(0, n_ph, 3))
        if phase_add(phase_add(a, b), c) != phase_add(a, phase_add(b, c)):
            return False, f"direct associativity fails at {(a, b, c)}"
    return True, f"{n_ph}^3 ordered triples, {n_ph} identities/inverses"


def _all_permutation_lock_spaces() -> tuple[bool, int]:
    count = 0
    for size in range(1, 8):
        obj = FinObj("P", tuple(f"e{i}" for i in range(size)))
        for images in itertools.permutations(obj.elements):
            from veridyn.category import FinMor
            theta = FinMor(obj, obj, tuple(zip(obj.elements, images)))
            k = automorphism_order(theta)
            locked = phase_lock_space(theta, k)
            fixed = tuple(x for x, y in zip(obj.elements, images) if x == y)
            if locked.elements != fixed:
                return False, count
            count += 1
    return True, count


def _cycle_rotation_invariance() -> bool:
    from conftest import random_permutation_mor
    from veridyn.phase import PhasedMorphism, cycle_net_phase

    denoms = [d for d in range(1, 2521) if 2520 % d == 0]
    rng = np.random.default_rng(1006)
    carrier = FinObj("C", ("a", "b", "c", "d"))
    for _ in range(200):
        k = int(rng.integers(2, 8))
        loop = [PhasedMorphism(random_permutation_mor(rng, carrier),
                               RationalPhase(int(rng.integers(0, 5040)),
                                             int(rng.choice(denoms))))
                for _ in range(k)]
        net = cycle_net_phase(loop)
        for shift in range(1, k):
            if cycle_net_phase(loop[shift:] + loop[:shift]) != net:
                return False
    return True


def test_criterion_5_phase_algebra():
    laws_ok, law_detail = _exhaustive_group_laws()
    locks_ok, n_perms = _all_permutation_lock_spaces()
    cycles_ok = _cycle_rotation_invariance()
    ok = laws_ok and locks_ok and cycles_ok
    _report(5, ok,
            f"group laws ({law_detail}); lock space = fixed set on {n_perms} "
            f"permutations; 200 cycle rotations exact")
    assert laws_ok, law_detail
    assert locks_ok
    assert cycles_ok


# -------------------------------------------------------------------------
# 6. cascades: identity case, spectral mapping, hull counterexample


def test_criterion_6_cascade():
    quarter = RationalPhase(1, 4)
    ident_spec = CascadeSpec(tuple(
        CascadeStage(1.0, LinOp.rotation(quarter), 4) for _ in range(3)))
    c_ident = build_cascade(ident_spec)
    ident_gap = float(np.max(np.abs(c_ident.entries - np.eye(2))))

    rng = np.random.default_rng(1007)
    mapping_worst = 0.0
    for n in range(2, 9):
        for _ in range(6):
            q, r = np.linalg.qr(rng.standard_normal((n, n)))
            theta = q * np.sign(np.diag(r))
            lam = float(rng.uniform(0.05, 0.95))
            base = spectrum(LinOp(theta)).eigenvalues
            mapped = sorted((lam + (1 - lam) * mu for mu in base),
                            key=lambda z: (z.real, z.imag))
            got = list(spectrum(LinOp(lam * np.eye(n) + (1 - lam) * theta)).eigenvalues)
            for want in mapped:
                j = int(np.argmin([abs(want - g) for g in got]))
                mapping_worst = max(mapping_worst, abs(want - got.pop(j)))

    counter_spec = CascadeSpec((CascadeStage(0.5, LinOp.rotation(quarter), 4),))
    counter_rep = spectrum(build_cascade(counter_spec))
    expected = [0.5 - 0.5j, 0.5 + 0.5j]
    counter_worst = max(abs(g - w) for g, w in
                        zip(sorted(counter_rep.eigenvalues,
                                   key=lambda z: (z.real, z.imag)),
                            sorted(expected, key=lambda z: (z.real, z.imag))))
    hull = check_hull_claim(counter_rep, counter_spec)

    ok = ident_gap == 0.0 and mapping_worst <= 1e-6 \
        and counter_worst <= 1e-9 and hull == [False, False]
    _report(6, ok,
            f"identity gap {ident_gap}; spectral-mapping worst {mapping_worst:.2e}; "
            f"counterexample eigenvalue error {counter_worst:.2e}, "
            f"hull containment reported {hull}")
    assert ident_gap == 0.0
    assert mapping_worst <= 1e-6
    assert counter_worst <= 1e-9
    assert hull == [False, False]


# -------------------------------------------------------------------------
# 7. bifurcation: linear flip at 1.5; logistic transition at 3 with oracle


def _oracle_orbit_class(r: float, steps: int = 3000) -> str:
    # independent plain-float logistic simulation and classification
    x = 0.5
    for _ in range(steps):
        x = r * x * (1.0 - x)
    a = x
    b = r * a * (1.0 - a)
    c = r * b * (1.0 - b)
    if abs(b - a) <= 1e-6:
        return "fixed-point"
    if abs(c - a) <= 1e-6:
        return "period-2"
    return "other"


def test_criterion_7_bifurcation():
    linear = find_critical_r(scale_map(1, 0.5), scale_map(1, -1.0), 0.0, 2.0, 41)
    flip_err = abs((linear.r_c_flip or np.inf) - 1.5)
    no_fold = linear.r_c_fold is None and not linear.fold_degenerate

    phi = zero_map(1)
    obs = PolynomialMap(1, (((1.0, (1,)), (-1.0, (2,))),))
    grid = np.linspace(2.5, 3.4, 91)          # step 0.01
    diag = sweep_bifurcation(phi, obs, grid, transient=2000, sample=64, x0=[0.5])
    last_fp = max(row.r for row in diag.rows if row.attractor == "fixed-point")
    first_p2 = min(row.r for row in diag.rows if row.attractor == "period-2")
    cell = float(grid[1] - grid[0])
    transition_ok = (3.0 - last_fp) <= cell + 1e-9 and (first_p2 - 3.0) <= cell + 1e-9

    by_r = {round(row.r, 4): row.attractor for row in diag.rows}
    oracle_ok = True
    for r in (2.5, 2.7, 2.9, 3.05, 3.2, 3.4):
        want = _oracle_orbit_class(r)
        if want != "other" and by_r[round(r, 4)] != want:
            oracle_ok = False

    ok = flip_err <= 1e-6 and no_fold and transition_ok and oracle_ok
    _report(7, ok,
            f"linear flip error {flip_err:.2e}, fold absent {no_fold}; logistic "
            f"last fixed-point r={last_fp:.2f}, first period-2 r={first_p2:.2f} "
            f"(cell {cell:.2f}); oracle agreement {oracle_ok}")
    assert flip_err <= 1e-6
    assert no_fold
    assert transition_ok
    assert oracle_ok


# -------------------------------------------------------------------------
# 8. stability report and Jacobian cross-validation


def _random_polynomial(rng, dim):
    coords = []
    for _ in range(dim):
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            powers = [0] * dim
            budget = 3
            for j in rng.permutation(dim):
                p = int(rng.integers(0, budget + 1))
                powers[int(j)] = p
                budget -= p
            terms.append((float(rng.uniform(-2, 2)), tuple(powers)))
        coords.append(tuple(terms))
    return PolynomialMap(dim, tuple(coords))


def test_criterion_8_stability_and_jacobians():
    rng = np.random.default_rng(1008)
    radius_worst = 0.0
    for _ in range(20):
        d = rng.uniform(-1.5, 1.5, size=int(rng.integers(1, 7)))
        radius = spectrum(LinOp(np.diag(d))).max_modulus
        radius_worst = max(radius_worst, abs(radius - float(np.max(np.abs(d)))))
        # stable: every eigenvalue strictly inside the unit disk
        assert (radius < 1.0 - 1e-9) == (float(np.max(np.abs(d))) < 1.0 - 1e-9)
    for den in (3, 5, 6, 8, 12):
        radius = spectrum(LinOp.rotation(RationalPhase(1, den))).max_modulus
        radius_worst = max(radius_worst, abs(radius - 1.0))
        assert not radius < 1.0 - 1e-9

    fd_worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 7))
        f = _random_polynomial(rng, dim)
        x = rng.uniform(-1, 1, dim)
        ja = f.jacobian_analytic(x)
        jf = jacobian_fd(f, x)
        fd_worst = max(fd_worst,
                       float(np.max(np.abs(ja - jf))) / max(1.0, float(np.max(np.abs(ja)))))

    ok = radius_worst <= 1e-9 and fd_worst <= 1e-5
    _report(8, ok, f"spectral-radius worst {radius_worst:.2e}; "
                   f"FD vs analytic worst relative {fd_worst:.2e} over 100 maps")
    assert radius_worst <= 1e-9
    assert fd_worst <= 1e-5


# -------------------------------------------------------------------------
# 9. byte determinism of the sweep command


def test_criterion_9_determinism(tmp_path):
    scenario = {
        "seed": 9,
        "phi": {"kind": "affine", "A": [[0.0]], "b": [0.0]},
        "observer": {"kind": "polynomial", "dim": 1,
                     "coords": [[{"coeff": 1.0, "powers": [1]},
                                 {"coeff": -1.0, "powers": [2]}]]},
        "x0": [0.5],
        "r_grid": {"lo": 2.8, "hi": 3.3, "steps": 11},
        "transient": 1200,
        "sample": 48,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli_main(["sweep", "--scenario", str(path), "--out", str(out)])
        assert code == 0
        outs.append((out / "diagram.csv").read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    _report(9, ok, f"two sweep runs, {len(outs[0])} CSV bytes, byte-identical {ok}")
    assert ok
