"""Shared builders and random generators for the test suite.

Everything random is driven by numpy Generators with explicit seeds so
failures reproduce exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from veridyn.category import FinMor, FinObj, FunctorRep, NatTransRep
from veridyn.dynamics import AffineMap, MapSpec
from veridyn.entropy import ProbState

SCENARIOS = Path(__file__).parents[1] / "scenarios"


def zero_map(dim: int) -> AffineMap:
    return AffineMap(np.zeros((dim, dim)), np.zeros(dim))


def scale_map(dim: int, c: float) -> AffineMap:
    return AffineMap(c * np.eye(dim), np.zeros(dim))


def jacobian_fd(F: MapSpec, x: np.ndarray) -> np.ndarray:
    """Central finite differences with per-coordinate step 1e-6 max(1, |x_i|)."""
    x = np.asarray(x, dtype=np.float64)
    n = F.dim
    jac = np.zeros((n, n))
    for j in range(n):
        h = 1e-6 * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = np.subtract(F(xp.tolist()), F(xm.tolist())) / (2.0 * h)
    return jac


def point_mass(carrier: FinObj, element: str) -> ProbState:
    return ProbState(carrier, tuple(1.0 if x == element else 0.0
                                    for x in carrier.elements))


def random_obj(rng: np.random.Generator, oid: str, max_elems: int = 4,
               min_elems: int = 1, pool: str = "abcdefgh") -> FinObj:
    k = int(rng.integers(min_elems, max_elems + 1))
    labels = rng.choice(list(pool), size=min(k, len(pool)), replace=False)
    return FinObj(oid, tuple(str(x) for x in labels))


def pairs_of(f: FinMor) -> tuple[tuple[str, str], ...]:
    """The (x, f(x)) table of a morphism, in the sorted order of its source."""
    return tuple((x, f.apply(x)) for x in f.src.elements)


def random_mor(rng: np.random.Generator, src: FinObj, dst: FinObj) -> FinMor:
    if dst.size == 0:
        raise ValueError("cannot map into an empty object")
    images = rng.integers(0, dst.size, size=src.size)
    return FinMor(src, dst, tuple(int(i) for i in images))


def random_permutation_mor(rng: np.random.Generator, obj: FinObj) -> FinMor:
    perm = rng.permutation(obj.size)
    return FinMor(obj, obj, tuple(int(j) for j in perm))


def random_square_setup(rng: np.random.Generator):
    """A morphism f with a table functor O and components v at both endpoints."""
    src = random_obj(rng, "X", pool="abcd")
    dst = random_obj(rng, "Y", pool="efgh")
    osrc = random_obj(rng, "OX", pool="mnop")
    odst = random_obj(rng, "OY", pool="qrst")
    f = random_mor(rng, src, dst)
    functor = FunctorRep("O", {src: osrc, dst: odst},
                         {f: random_mor(rng, osrc, odst)})
    v = NatTransRep("v", "Id", "O", {
        src: random_mor(rng, src, osrc),
        dst: random_mor(rng, dst, odst),
    })
    return functor, v, f


def make_theta_system(rng: np.random.Generator, n_objects: int = 6):
    """An eventually-stabilizing pair of table functors, by construction.

    The composite of the two object tables is forced to be a tree map
    toward a sink object that maps to itself, so iteration from any start
    reaches the sink and stays there.  The split into the two factors uses
    a random permutation, keeping both functors non-trivial.
    """
    objs = [random_obj(rng, f"N{i}", max_elems=4) for i in range(n_objects)]
    sink = int(rng.integers(0, n_objects))
    composite = {}
    for i in range(n_objects):
        if i == sink:
            composite[i] = sink
        else:
            # map strictly closer to the sink index: a random tree, no cycles
            closer = [j for j in range(n_objects) if abs(j - sink) < abs(i - sink)]
            composite[i] = int(rng.choice(closer))
    perm = [int(p) for p in rng.permutation(n_objects)]
    inv = [0] * n_objects
    for i, p in enumerate(perm):
        inv[p] = i
    verification = FunctorRep("V", {objs[i]: objs[perm[i]]
                                    for i in range(n_objects)}, {})
    update = FunctorRep("P", {objs[i]: objs[inv[composite[i]]]
                              for i in range(n_objects)}, {})
    start = objs[int(rng.integers(0, n_objects))]
    return verification, update, start, objs


def relabel_obj(obj: FinObj, table: dict[str, str], suffix: str = "") -> FinObj:
    return FinObj(obj.id + suffix, tuple(table[x] for x in obj.elements))


# --- the shapes that set the simulate and sweep work weights -----------------


def _affine(a, b) -> dict:
    return {"kind": "affine", "A": a, "b": b}


def _rotation(rho: float, theta: float = 0.5) -> list[list[float]]:
    c, s = rho * math.cos(theta), rho * math.sin(theta)
    return [[c, -s], [s, c]]


def _zero_affine(dim: int) -> dict:
    return _affine([[0.0] * dim for _ in range(dim)], [0.0] * dim)


def work_cap_shape(name: str, zeros: int = 99) -> dict:
    """phi, observer, x0 and r of one calibration shape of the work cap.

    F_r = phi + r * observer, with phi zero except for the pipeline. Each
    simulate orbit approaches a fixed point inside one ledger cell with a
    multiplier within 1e-4 of modulus 1, so no state repeats during an
    at-cap run (a settled orbit stops calling the maps and writes its
    repeated state once, which would be faster).
    """
    r = 1.5
    if name == "polynomial":
        # r x (1 - x) near its flip, plus `zeros` zero terms of powers 1 to 3
        terms = [{"coeff": 1.0, "powers": [1]}, {"coeff": -1.0, "powers": [2]},
                 *({"coeff": 0.0, "powers": [1 + k % 3]} for k in range(zeros))]
        return {"phi": _zero_affine(1), "x0": [0.66], "r": 2.9999,
                "observer": {"kind": "polynomial", "dim": 1, "coords": [terms]}}
    if name == "affine-1":
        a = -0.99999 / r
        return {"phi": _zero_affine(1), "x0": [0.2], "r": r,
                "observer": _affine([[a]], [0.1 * (1 - r * a) / r])}
    if name == "affine-2":
        return {"phi": _zero_affine(2), "x0": [0.1, 0.1], "r": r,
                "observer": _affine(_rotation(0.9999 / r), [0.001, 0.0])}
    if name == "affine-64":
        a = 0.9999 / r
        return {"phi": _zero_affine(64), "x0": [0.2] * 64, "r": r,
                "observer": _affine([[a * (i == j) for j in range(64)] for i in range(64)],
                                    [0.1 * (1 - r * a) / r] * 64)}
    if name == "pipeline":
        # pipeline_ledger.json's maps just below their flip at r = 1.43558
        doc = json.loads((SCENARIOS / "pipeline_ledger.json").read_text())
        return {"phi": doc["phi"], "observer": doc["observer"], "x0": doc["x0"],
                "r": 1.4355}
    if name == "sum-affine-2":
        part = _affine(_rotation(0.9999 / r / 10), [0.001 / 10, 0.0])
        return {"phi": _zero_affine(2), "x0": [0.1, 0.1], "r": r,
                "observer": {"kind": "sum", "parts": [part] * 10, "weights": [1.0] * 10}}
    raise KeyError(name)


WORK_CAP_SHAPES = ("polynomial", "affine-1", "affine-2", "affine-64", "pipeline",
                   "sum-affine-2")


def work_cap_scenario(command: str, name: str, n: int, grid: int = 2) -> dict:
    """A calibration scenario: simulate of n steps, or a sweep of `grid`
    values with rows of n + 64 steps (grid 0: n + 1 values, rows of 3)."""
    doc = {"seed": 7, **work_cap_shape(name)}
    if command == "simulate":
        return {**doc, "steps": n, "schedule": 1,
                "ledger": {"bins": 16, "lo": -2.0, "hi": 2.0}}
    lo, hi = (2.5, 3.4) if name == "polynomial" else (0.5, 1.0)
    if grid == 0:
        return {**doc, "r_grid": {"lo": lo, "hi": hi, "steps": n + 1},
                "transient": 1, "sample": 2}
    return {**doc, "r_grid": {"lo": lo, "hi": hi, "steps": grid},
            "transient": n, "sample": 64}



def scan_scenario(zeros: int) -> dict:
    """A sweep that is mostly its critical scan: the polynomial shape with
    `zeros` zero terms on 2 grid values across its flip at r = 3, rows of 3."""
    return {"seed": 7, **work_cap_shape("polynomial", zeros),
            "r_grid": {"lo": 2.5, "hi": 3.4, "steps": 2}, "transient": 1, "sample": 2}


# --- the shapes that set the entropy trace's work weights --------------------


def carrier_universe(size: int, steps: int) -> dict:
    """The sections of an entropy trace on a carrier X of `size` elements.

    The transition shifts X cyclically by one, the observer bins it into 64
    buckets, and the initial weights 1 to 4 keep every probability positive,
    so each step sums a term per element of X and of the buckets.
    """
    xs = [f"x{i:05d}" for i in range(size)]
    buckets = [f"b{i:02d}" for i in range(64)]
    weights = [1 + i % 4 for i in range(size)]
    total = sum(weights)
    return {
        "seed": 7,
        "universe": {
            "objects": [{"id": "X", "elements": xs}, {"id": "B", "elements": buckets}],
            "morphisms": [
                {"id": "shift", "src": "X", "dst": "X",
                 "mapping": {x: xs[i - 1] for i, x in enumerate(xs)}},
                {"id": "bin", "src": "X", "dst": "B",
                 "mapping": {x: buckets[i % 64] for i, x in enumerate(xs)}},
            ]},
        "entropy": {"C": 1.0, "K": 1.0, "alpha": 0.5},
        "entropy_trace": {"start": "X", "transition": "shift", "observer": "bin",
                          "steps": steps,
                          "initial_probs": [w / total for w in weights]},
    }


ENTROPY_CAP_SHAPES = ("universe", "merge", "100", "3200", "32000")


def entropy_cap_scenario(name: str, n: int) -> dict:
    """A calibration scenario of the entropy trace's work: n steps of the
    bundled 2-element universe, of its merging transition
    (entropy_merge.json), or of a carrier of 100 to 32 000 elements."""
    if name in ("universe", "merge"):
        file = "observer_universe.json" if name == "universe" else "entropy_merge.json"
        doc = json.loads((SCENARIOS / file).read_text())
        doc["entropy_trace"]["steps"] = n
        return doc
    return carrier_universe(int(name), n)


# --- the shape that sets the phase pairing's work weight ----------------------


def pairing_scenario(*sizes: int) -> dict:
    """The bundled universe with a carrier P for `phases`' pairing alone: one
    group of elements per entry of `sizes`, the group k of phase k/len(sizes),
    so the pairing makes the sum of the squared sizes in pairs."""
    doc = json.loads((SCENARIOS / "observer_universe.json").read_text())
    del doc["entropy_trace"]
    groups = [[f"p{k}x{i:05d}" for i in range(size)] for k, size in enumerate(sizes)]
    doc["universe"]["objects"].append(
        {"id": "P", "elements": [x for group in groups for x in group]})
    doc["phases"] = {"carrier": "P", "assignments": {
        x: f"{k}/{len(sizes)}" for k, group in enumerate(groups) for x in group}}
    return doc
