"""Shared builders and random generators for the test suite.

Everything random is driven by numpy Generators with explicit seeds so
failures reproduce exactly.
"""

from __future__ import annotations

import numpy as np

from veridyn.category import FinMor, FinObj, FunctorRep, NatTransRep
from veridyn.dynamics import AffineMap, MapSpec
from veridyn.entropy import ProbState


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
