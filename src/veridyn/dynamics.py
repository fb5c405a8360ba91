"""Coupled state/observer updates, critical-coupling scans, bifurcation sweeps.

A coupled step advances the state by the update map and lets the
observer read the new state; the perturbed family F_r adds an observer
back-action r * O(x) to the update.  The critical-coupling search locates
parameter values where det(I - DF) or det(I + DF) vanishes at the tracked
fixed point (fold and flip candidates respectively), and the sweep
classifies the long-run attractor per coupling value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from types import CodeType, FunctionType, MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from ._formats import fmt_real
from .cascade import LinOp, spectrum
from .errors import (
    DimMismatchError,
    DomainError,
    LengthMismatchError,
    NoConvergenceError,
    NonFiniteError,
)

__all__ = [
    "MapSpec",
    "AffineMap",
    "PolynomialMap",
    "PipelineMap",
    "WeightedSumMap",
    "Trajectory",
    "DiagramRow",
    "BifRoot",
    "CriticalReport",
    "LyapunovReport",
    "perturbed_map",
    "jacobian",
    "find_fixed_point",
    "find_critical_r",
    "sweep_bifurcation",
    "simulate_coupled",
    "lyapunov_trace",
    "diagram_to_csv",
    "trajectory_to_csv",
]

MAX_POLY_DEGREE = 3
PERIOD_TOL = 1e-6
MAX_PERIOD = 16
DIVERGENCE_THRESHOLD = 1e12
DEFAULT_TRANSIENT = 500
DEFAULT_SAMPLE = 64
DET_TOL = 1e-8
LYAPUNOV_TOL = 1e-9
REPRESENTATIVE_SLOTS = 4


def _pow(x: float, p: int) -> float:
    """x ** p as np.float64(x) ** p gives it: libm pow, and the signed
    infinity where math.pow raises OverflowError."""
    try:
        return math.pow(x, p)
    except OverflowError:
        return math.copysign(math.inf, x) if p % 2 else math.inf


def _libm_pow(col, p: int) -> np.ndarray | float:
    """col ** p, for an array or a float, through libm pow as _pow takes it:
    numpy's float_power loop calls C pow on each double and overflows to
    _pow's signed infinity (the caller sets np.errstate); np.power takes SIMD
    paths (x * x for p = 2) that round differently from the scalar rows."""
    if isinstance(col, float):  # a constant column
        return _pow(col, p)
    return np.float_power(col, float(p))


def _affine(a: np.ndarray, b: np.ndarray, x: tuple) -> list[float]:
    # a Python sum cannot match the order OpenBLAS sums a small matvec in
    return (a @ np.array(x, np.float64) + b).tolist()


def _affine_rows(a: np.ndarray, b: np.ndarray, cols: tuple) -> np.ndarray:
    # one A @ x product per row: a single (B, dim) @ A.T product sums in
    # another order and differs in the last bits; a constant column is a float
    xs = np.column_stack(np.broadcast_arrays(*cols))
    return (np.matmul(a, xs[:, :, None])[:, :, 0] + b).T


# the names a generated evaluator calls: on floats, and on the columns of a batch
_SCALAR = {"_pow": _pow, "_affine": _affine}
_COLUMNS = {"_pow": _libm_pow, "_affine": _affine_rows}


# statements of at most this many summands, so that a long polynomial or a
# wide sum never nests one expression deeper than the compiler allows
_TERMS_PER_STATEMENT = 64


class _Source:
    """The statements of one generated evaluator.

    Constants are named c0, c1, ... in the order the `_emit` methods ask
    for them, which is the order of the map's `_consts`; values are named
    v0, v1, ... in the order they are computed.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.consts = 0
        self.values = 0

    def const(self) -> str:
        self.consts += 1
        return f"c{self.consts - 1}"

    def unpack(self, expr: str, n: int) -> list[str]:
        names = [f"v{self.values + k}" for k in range(n)]
        self.values += n
        self.lines.append(f"{', '.join(names)}, = {expr}")
        return names

    def value(self, expr: str) -> str:
        name = f"v{self.values}"
        self.values += 1
        self.lines.append(f"{name} = {expr}")
        return name

    def total(self, terms: list[str]) -> str:
        """0.0 + terms[0] + terms[1] + ..., added left to right."""
        k = _TERMS_PER_STATEMENT
        name = self.value(" + ".join(["0.0", *terms[:k]]))
        for i in range(k, len(terms), k):
            self.lines.append(f"{name} = {' + '.join([name, *terms[i:i + k]])}")
        return name


# map shapes, numbered in order of first sight; a part enters its parent's
# shape by number, so no shape is hashed deeper than its own node
_SHAPES: dict[tuple, int] = {}
# the code of the generated evaluator of each shape number
_GENERATED: dict[int, CodeType] = {}


def _generate(node: MapSpec) -> CodeType:
    """The code of an evaluator for `node`'s shape, compiled at its first use.

    It is a function of one sequence x that unpacks x, runs straight-line
    statements and returns the output tuple.  The constants are parameters
    c0, c1, ... after x, so each map of the shape binds its own as their
    defaults.  (Closure cells would be as fast to read, but the compiler
    takes time quadratic in their number.)
    """
    if node._shape in _GENERATED:
        return _GENERATED[node._shape]
    src = _Source()
    ins = [f"x{j}" for j in range(node.dim)]
    outs = node._emit(src, ins)
    params = "".join(f", c{k}=None" for k in range(src.consts))
    text = "\n".join([
        f"def _eval(x{params}):",
        f"    {', '.join(ins)}, = x",
        *(f"    {line}" for line in src.lines),
        f"    return ({', '.join(outs)},)",
    ])
    scope: dict = {}
    exec(compile(text, f"<{type(node).__name__} evaluator>", "exec"), scope)
    code = _GENERATED[node._shape] = scope["_eval"].__code__
    return code


class MapSpec:
    """Interface for the state-update maps: evaluate and differentiate.

    Calling a map takes a sequence of `dim` floats and returns a tuple of
    `dim` Python floats, with the bits the numpy evaluation of the same
    map gives.  At its first call a map is compiled into one generated
    function: straight-line statements over the whole map tree, with no
    loops and no calls into its parts.  The source depends on the map's
    shape only (kinds, dimensions, which powers are 1), so it is compiled
    once per shape; coefficients, exponents and weights are bound as
    constants, never written into the source, and each coupling value r
    only binds its own.  `batch` runs the same code on numpy columns.
    Every map has an exact `jacobian_analytic`; it and everything
    downstream of it stay on arrays.
    """

    dim: int

    def __call__(self, x: Sequence[float]) -> tuple[float, ...]:
        return self._eval(x)

    def batch(self) -> Callable[..., np.ndarray]:
        """The map over the rows of a (B, dim) array: its generated code run on
        the array's columns, so row i is self(xs[i]) bit for bit, but for the
        sign and payload of a NaN (C pow clears the sign of pow(NaN, odd p),
        math.pow keeps it).  An optional second argument gives the map's last
        constant, one value per row."""
        run = FunctionType(_generate(self), _COLUMNS, "_batch", self._consts)
        last = f"c{len(self._consts) - 1}"

        def evaluate(xs: np.ndarray, per_row: np.ndarray | None = None) -> np.ndarray:
            out = np.empty(xs.shape)
            cols = run(xs.T) if per_row is None else run(xs.T, **{last: per_row})
            for i, col in enumerate(cols):
                out[:, i] = col
            return out
        return evaluate

    def jacobian_analytic(self, x: np.ndarray) -> np.ndarray:
        """The exact (dim, dim) Jacobian at x."""
        raise NotImplementedError

    def _emit(self, src: _Source, ins: list[str]) -> list[str]:
        """Add this map's statements on the values named `ins`; the output names."""
        raise NotImplementedError

    def _bind(self, shape: tuple, consts: tuple) -> None:
        """Record the map's shape, which fixes its generated source, and
        `consts`, the values that source names, in `_emit` order."""
        object.__setattr__(self, "_shape", _SHAPES.setdefault(shape, len(_SHAPES)))
        object.__setattr__(self, "_consts", consts)
        object.__setattr__(self, "_eval", self._first_eval)

    def _first_eval(self, x):
        # a map that is only ever a part is never compiled
        evaluate = FunctionType(_generate(self), _SCALAR, "_eval", self._consts)
        object.__setattr__(self, "_eval", evaluate)
        return evaluate(x)


@dataclass(frozen=True)
class AffineMap(MapSpec):
    """x -> A x + b."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=np.float64, copy=True)
        b = np.array(self.b, dtype=np.float64, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
            raise DimMismatchError("affine map needs square A and matching b")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise NonFiniteError("affine coefficients must be finite")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        self._bind((AffineMap, self.dim),
                   (float(a[0, 0]), float(b[0])) if self.dim == 1 else (a, b))

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    # each map class holds __call__ itself, so it can be wrapped per class
    __call__ = MapSpec.__call__

    def _emit(self, src, ins):
        a, b = src.const(), src.const()
        if self.dim == 1:
            # A @ x accumulates onto +0.0, which turns a -0.0 product into +0.0
            return [src.value(f"0.0 + {a} * {ins[0]} + {b}")]
        return src.unpack(f"_affine({a}, {b}, ({', '.join(ins)},))", self.dim)

    def jacobian_analytic(self, x):
        return np.array(self.a, copy=True)


@dataclass(frozen=True)
class PolynomialMap(MapSpec):
    """Per-coordinate polynomial terms (coeff, exponent tuple), degree <= 3."""

    dim: int
    coords: tuple[tuple[tuple[float, tuple[int, ...]], ...], ...]

    def __post_init__(self):
        if len(self.coords) != self.dim:
            raise DimMismatchError("one term list per output coordinate required")
        for terms in self.coords:
            for coeff, powers in terms:
                if len(powers) != self.dim:
                    raise DimMismatchError("exponent tuple length must equal dim")
                if any(p < 0 for p in powers) or sum(powers) > MAX_POLY_DEGREE:
                    raise DomainError(
                        f"total degree above {MAX_POLY_DEGREE} is not supported"
                    )
                if not math.isfinite(coeff):
                    raise NonFiniteError("polynomial coefficient must be finite")
        # each term as (coeff, ((j, p), ...)) over its nonzero powers, in order
        terms = tuple(tuple((coeff, tuple((j, p) for j, p in enumerate(powers) if p))
                            for coeff, powers in coord)
                      for coord in self.coords)
        object.__setattr__(self, "_terms", terms)
        self._bind(
            (PolynomialMap, self.dim, tuple(
                tuple(tuple((j, p == 1) for j, p in factors) for _, factors in coord)
                for coord in terms)),
            tuple(v for coord in terms for coeff, factors in coord
                  for v in (coeff, *(p for _, p in factors if p != 1))))

    __call__ = MapSpec.__call__

    def _emit(self, src, ins):
        outs = []
        for coord in self._terms:
            exprs = []
            for _, factors in coord:
                # coeff * x_j for a power of 1: math.pow(v, 1) is v, bit for bit
                exprs.append(" * ".join([src.const(), *(
                    ins[j] if p == 1 else f"_pow({ins[j]}, {src.const()})"
                    for j, p in factors)]))
            outs.append(src.total(exprs))
        return outs

    def jacobian_analytic(self, x):
        x = np.asarray(x, dtype=np.float64)
        jac = np.zeros((self.dim, self.dim))
        for i, terms in enumerate(self.coords):
            for coeff, powers in terms:
                for j, p in enumerate(powers):
                    if p == 0:
                        continue
                    term = coeff * p
                    for k, q in enumerate(powers):
                        e = q - 1 if k == j else q
                        if e:
                            term *= x[k] ** e
                    jac[i, j] += term
        return jac


@dataclass(frozen=True)
class PipelineMap(MapSpec):
    """Sequential composition of endomaps; differentiated by the chain rule."""

    parts: tuple[MapSpec, ...]

    def __post_init__(self):
        if not self.parts:
            raise DimMismatchError("pipeline needs at least one part")
        dims = {p.dim for p in self.parts}
        if len(dims) != 1:
            raise DimMismatchError("pipeline parts must share one dimension")
        self._bind((PipelineMap, *(p._shape for p in self.parts)),
                   tuple(v for p in self.parts for v in p._consts))

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    __call__ = MapSpec.__call__

    def _emit(self, src, ins):
        for p in self.parts:
            ins = p._emit(src, ins)
        return ins

    def jacobian_analytic(self, x):
        # the chain rule, J_k(x_k-1) ... J_1(x_0) with x_0 = x and x_i the point
        # part i leaves; a part's own evaluator runs the pipeline's statements
        # for it, so x_i has the pipeline's bits
        jac = np.eye(self.dim)
        point = tuple(map(float, x))
        for i, p in enumerate(self.parts):
            if i:
                point = self.parts[i - 1](point)
            jac = p.jacobian_analytic(np.array(point)) @ jac
        return jac


@dataclass(frozen=True)
class WeightedSumMap(MapSpec):
    """Pointwise weighted sum of maps; its Jacobian is the weighted sum of theirs."""

    parts: tuple[MapSpec, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.parts) != len(self.weights) or not self.parts:
            raise DimMismatchError("need one weight per part")
        dims = {p.dim for p in self.parts}
        if len(dims) != 1:
            raise DimMismatchError("summed maps must share one dimension")
        self._bind((WeightedSumMap, *(p._shape for p in self.parts)),
                   (*(v for p in self.parts for v in p._consts), *self.weights))

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    __call__ = MapSpec.__call__

    def _emit(self, src, ins):
        outs = []
        for p in self.parts:
            outs.append(p._emit(src, ins))
        weights = [src.const() for _ in self.parts]
        # 0.0 + w_0 v_0 + w_1 v_1 + ..., as a sum of the parts' arrays adds
        return [src.total([f"{w} * {out[i]}" for w, out in zip(weights, outs)])
                for i in range(len(ins))]

    def jacobian_analytic(self, x):
        total = np.zeros((self.dim, self.dim))
        for w, p in zip(self.weights, self.parts):
            total += w * p.jacobian_analytic(x)
        return total


@dataclass(frozen=True)
class Trajectory:
    """States x_n and observer readings o_n for n = 0..steps, each a tuple
    of Python floats as the map calls return them."""

    xs: tuple[tuple[float, ...], ...]
    os: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.xs:
            raise LengthMismatchError("trajectory must contain at least one state")
        if len(self.xs) != len(self.os):
            raise LengthMismatchError(
                f"{len(self.xs)} states and {len(self.os)} observer readings")


def perturbed_map(update: MapSpec, observer: MapSpec, r: float) -> MapSpec:
    """Observer back-action family F_r(x) = update(x) + r * observer(x).

    r is F_r's last constant, so a batch of F_r can take one r per row.
    """
    return WeightedSumMap((update, observer), (1.0, float(r)))


def jacobian(F: MapSpec, x: np.ndarray) -> LinOp:
    """F's exact Jacobian at x, which must be finite."""
    return LinOp(F.jacobian_analytic(np.asarray(x, dtype=np.float64)))


def _emit_residual(src: _Source, diffs: list[str]) -> str:
    """Add statements for max |d_i| over the values named `diffs`, NaN when
    any d_i is NaN, as np.abs(d).max() gives; the result's name.

    max() alone keeps a NaN only when it comes first, and the sum of the
    |d_i| is NaN exactly when some |d_i| is.
    """
    norms = [src.value(f"abs({d})") for d in diffs]
    if len(norms) == 1:
        return norms[0]
    total = src.total(norms)
    return src.value(f"{total} if {total} != {total} else max({', '.join(norms)})")


@cache
def _damped_loop(dim: int) -> Callable:
    """`find_fixed_point`'s iteration for points of `dim` floats, generated as
    straight-line statements over scalar locals and compiled once per dim.

    It calls F, a black box, once per step on the candidate's tuple, and
    returns the fixed point's tuple, or None once the iteration stalls,
    with the last residual.
    """
    # x, d = F(x) - x, the candidate c, its residual vector e and F's output f
    xs, ds, cs, es, fs = ([f"{v}{j}" for j in range(dim)] for v in "xdcef")
    head, body = _Source(), _Source()
    start = _emit_residual(head, ds)
    step = _emit_residual(body, es)
    text = "\n".join([
        "def _solve(F, x, max_iter, tol):",
        f"    {', '.join(xs)}, = x",
        f"    {', '.join(fs)}, = F(x)",
        *(f"    {d} = {f} - {x}" for d, f, x in zip(ds, fs, xs)),
        *(f"    {line}" for line in head.lines),
        f"    res = {start}",
        "    if res <= tol:",
        "        return x, res",
        "    beta = 1.0",
        "    for _ in range(max_iter):",
        *(f"        {c} = {x} + beta * {d}" for c, x, d in zip(cs, xs, ds)),
        f"        cand = ({', '.join(cs)},)",
        "        fc = F(cand)",
        f"        {', '.join(fs)}, = fc",
        *(f"        {e} = {f} - {c}" for e, f, c in zip(es, fs, cs)),
        *(f"        {line}" for line in body.lines),
        f"        cres = {step}",
        "        if cres <= tol:",
        "            return cand, cres",
        # a finite cres implies a finite F(cand); an infinite one passes
        # against an infinite res, so there F(cand) must be checked
        "        if cres <= res * (1.0 - 1e-3) and (cres < inf",
        "                                            or all(map(isfinite, fc))):",
        *(f"            {x} = {c}" for x, c in zip(xs, cs)),
        *(f"            {d} = {e}" for d, e in zip(ds, es)),
        "            res = cres",
        "            continue",
        "        beta *= 0.5",
        "        if beta < 1e-16:",
        "            break",
        "    return None, res",
    ])
    scope = {"inf": math.inf, "isfinite": math.isfinite}
    exec(compile(text, f"<damped loop, dim {dim}>", "exec"), scope)
    return scope["_solve"]


# a dim > 1 affine node evaluates in numpy; the residual and step checks
# decide on non-finite values themselves
@np.errstate(over="ignore", invalid="ignore")
def find_fixed_point(F: MapSpec, x0: Sequence[float], max_iter: int = 10_000,
                     tol: float = 1e-10) -> np.ndarray:
    """Damped iteration x <- x + beta (F(x) - x), beta halving on stalled residual.

    A step is accepted only when it shrinks the residual by a relative
    margin; merely-not-worse progress (the signature of a neutral
    multiplier) triggers the same halving as an outright increase, which
    restores contraction near flip-neutral points.  beta never grows back.
    The iteration is generated code for x0's dimension, which calls F as a
    black box at the points the plain iteration on floats evaluates; the
    fixed point is returned as an array.
    """
    x = tuple(map(float, x0))
    point, res = _damped_loop(len(x))(F, x, max_iter, tol)
    if point is None:
        raise NoConvergenceError(
            f"fixed-point iteration stalled at residual {res:.3e} (tol {tol:.1e})"
        )
    return np.array(point)


@dataclass(frozen=True)
class BifRoot:
    kind: str            # a key of _TEST_FUNCTIONS: "fold" or "flip"
    r: float
    residual: float
    bracket: tuple[float, float]
    even_multiplicity: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "r": self.r,
            "residual": self.residual,
            "bracket": list(self.bracket),
            "even_multiplicity": self.even_multiplicity,
        }


@dataclass(frozen=True)
class CriticalReport:
    """The scan's roots and lost cells on its grid, and, by root kind, each
    test function's values over the grid and its degenerate flag."""

    roots: tuple[BifRoot, ...]
    branch_failures: tuple[tuple[float, float], ...]
    grid: tuple[float, ...]
    values: Mapping[str, tuple[float | None, ...]]
    degenerate: Mapping[str, bool]

    def r_c(self, kind: str) -> float | None:
        """The first root of `kind`, or None."""
        return next((b.r for b in self.roots if b.kind == kind), None)

    def to_dict(self) -> dict:
        return {
            **{f"r_c_{kind}": self.r_c(kind) for kind in self.values},
            "roots": [r.to_dict() for r in self.roots],
            **{f"{kind}_degenerate": flag for kind, flag in self.degenerate.items()},
            "branch_failures": [list(b) for b in self.branch_failures],
            "grid": list(self.grid),
            **{_TEST_FUNCTIONS[kind][0]: list(column)
               for kind, column in self.values.items()},
        }


# The critical scan's test functions of the fixed point's Jacobian J, by root
# kind, each with the report field that tabulates it over the grid.  A root
# is where one changes sign or touches zero: det(I - J) at an eigenvalue +1,
# det(I + J) at an eigenvalue -1.
_TEST_FUNCTIONS: dict[str, tuple[str, Callable[[LinOp], float]]] = {
    "fold": ("d_minus", lambda jac: float(np.linalg.det(np.eye(jac.dim) - jac.entries))),
    "flip": ("d_plus", lambda jac: float(np.linalg.det(np.eye(jac.dim) + jac.entries))),
}


def _jacobian_at(update: MapSpec, observer: MapSpec, r: float, guess: np.ndarray,
                 max_iter: int = 10_000, tol: float = 1e-10) -> tuple[LinOp, np.ndarray]:
    """The Jacobian of F_r at its fixed point solved from `guess`, and the point.

    The critical scan and every diagram row take this one step.  A Jacobian
    that is not finite loses the point, as a stalled solve does.
    """
    fr = perturbed_map(update, observer, r)
    xstar = find_fixed_point(fr, guess, max_iter, tol)
    try:
        return jacobian(fr, xstar), xstar
    except NonFiniteError as exc:
        raise NoConvergenceError(f"Jacobian at the fixed point: {exc}") from None


def _bisect_root(eval_det: Callable[[float], float], r_a: float, r_b: float,
                 d_a: float, d_b: float) -> tuple[float, float]:
    """Bisect a sign change of the determinant down to |det| <= DET_TOL, or
    until no float lies between the bracket's ends.

    When the fixed-point solve stalls at the midpoint, the points at 3/8
    and then 5/8 of the bracket stand in for it; NoConvergenceError is
    raised only when all three stall.
    """
    for _ in range(200):
        if not r_a < 0.5 * (r_a + r_b) < r_b:
            break
        for mid in (0.5 * (r_a + r_b), r_a + 0.375 * (r_b - r_a),
                    r_a + 0.625 * (r_b - r_a)):
            try:
                d_mid = eval_det(mid)
                break
            except NoConvergenceError as exc:
                stalled = exc
        else:
            raise stalled
        if abs(d_mid) <= DET_TOL or (r_b - r_a) < 1e-15:
            return mid, abs(d_mid)
        if (d_a < 0.0) != (d_mid < 0.0):
            r_b, d_b = mid, d_mid
        else:
            r_a, d_a = mid, d_mid
    return 0.5 * (r_a + r_b), abs(eval_det(0.5 * (r_a + r_b)))


def _refine_touch_root(eval_det: Callable[[float], float], r_a: float,
                       r_b: float) -> tuple[float, float] | None:
    """Golden-section search for a |det| minimum that touches zero."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = r_a, r_b
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = abs(eval_det(c)), abs(eval_det(d))
    for _ in range(120):
        if b - a < 1e-13:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = abs(eval_det(c))
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = abs(eval_det(d))
    r_min = c if fc < fd else d
    val = abs(eval_det(r_min))
    if val <= DET_TOL:
        return r_min, val
    return None


def _coupling_grid(r_grid: Sequence[float]) -> list[float]:
    """`r_grid` as floats, once it holds at least two strictly increasing values."""
    rs = [float(r) for r in r_grid]
    if len(rs) < 2:
        raise DomainError("need at least two grid points")
    if not all(a < b for a, b in zip(rs, rs[1:])):
        raise DomainError("coupling grid must be strictly increasing")
    return rs


# the fixed-point solves and Jacobians judge non-finite values themselves
@np.errstate(over="ignore", invalid="ignore")
def find_critical_r(update: MapSpec, observer: MapSpec, r_grid: Sequence[float],
                    x0: Sequence[float] | None = None) -> CriticalReport:
    """Scan a strictly increasing grid of coupling values for the roots of
    each test function at the fixed point.

    For each grid value the fixed point of F_r is located by continuation
    from the previous root, and every function of _TEST_FUNCTIONS is
    tabulated.  Then one pass per function over its values bisects sign
    changes to |value| <= DET_TOL and refines interior local minima of
    |value| that reach zero without a sign change, which are reported with
    the even-multiplicity flag, as is a zero at a grid value whose nearest
    nonzero values on each side have one sign.  Grid cells where the
    fixed-point branch is lost, in the scan or while refining a root
    between two grid values, are reported, not raised.
    """
    rs = _coupling_grid(r_grid)
    r_lo, r_hi = rs[0], rs[-1]
    cell = (r_hi - r_lo) / (len(rs) - 1)
    guess = np.zeros(update.dim) if x0 is None else np.asarray(x0, dtype=np.float64)
    table: dict[str, list[float | None]] = {kind: [] for kind in _TEST_FUNCTIONS}
    branch: list[tuple[float, np.ndarray]] = []
    failures: list[tuple[float, float]] = []
    for r in rs:
        try:
            jac, guess = _jacobian_at(update, observer, r, guess)
            branch.append((r, guess))
        except NoConvergenceError:
            jac = None
            failures.append((float(max(r_lo, r - cell)), float(min(r_hi, r + cell))))
        for kind, (_, test) in _TEST_FUNCTIONS.items():
            table[kind].append(None if jac is None else test(jac))

    found: list[tuple[str, float, float, bool]] = []

    def refine(kind: str, search: Callable, ra: float, rb: float, *args,
               even: bool) -> None:
        # a root of `kind` between grid values, each step solved from the
        # nearest tracked fixed point (continuation); a lost branch inside
        # [ra, rb] is reported unless a reported cell holds it
        test = _TEST_FUNCTIONS[kind][1]

        def eval_test(r: float) -> float:
            seed = min(branch, key=lambda t: abs(t[0] - r))[1]
            return test(_jacobian_at(update, observer, r, seed)[0])

        try:
            hit = search(eval_test, ra, rb, *args)
        except NoConvergenceError:
            if not any(a <= ra and rb <= b for a, b in failures):
                failures.append((ra, rb))
            return
        if hit is not None:
            found.append((kind, *hit, even))

    degenerate: dict[str, bool] = {}
    for kind, values in table.items():
        valid = [(r, d) for r, d in zip(rs, values) if d is not None]
        degenerate[kind] = bool(valid) and all(abs(d) <= DET_TOL for _, d in valid)
        if degenerate[kind]:
            continue  # no isolated roots
        last = len(valid) - 1
        for i, (r, d) in enumerate(valid):
            if abs(d) <= DET_TOL:
                # a zero at a grid value is touched, not crossed, when the
                # nearest nonzero values on its two sides have one sign
                signs = [next((e < 0.0 for _, e in side if abs(e) > DET_TOL), None)
                         for side in (reversed(valid[:i]), valid[i + 1:])]
                found.append((kind, r, abs(d), None not in signs and signs[0] == signs[1]))
            elif i < last and (d < 0.0) != (valid[i + 1][1] < 0.0):
                refine(kind, _bisect_root, r, valid[i + 1][0], d, valid[i + 1][1],
                       even=False)
            elif 0 < i < last:
                (ra, da), (rb, db) = valid[i - 1], valid[i + 1]
                if abs(d) < abs(da) and abs(d) < abs(db) \
                        and (da < 0.0) == (d < 0.0) == (db < 0.0):
                    refine(kind, _refine_touch_root, ra, rb, even=True)

    # sorted by kind, then r; of roots of one kind within half a cell the
    # first stays
    roots: list[BifRoot] = []
    for kind, r, resid, even in sorted(found):
        if not roots or roots[-1].kind != kind or abs(r - roots[-1].r) >= 0.5 * cell:
            roots.append(BifRoot(kind, r, resid,
                                 (max(r_lo, r - cell), min(r_hi, r + cell)), even))
    return CriticalReport(
        tuple(roots), tuple(sorted(failures)), tuple(rs),
        MappingProxyType({kind: tuple(column) for kind, column in table.items()}),
        MappingProxyType(degenerate))


@dataclass(frozen=True)
class DiagramRow:
    r: float
    attractor: str       # fixed-point | period-2 | period-p | aperiodic | divergent
    period: int | None
    points: tuple[tuple[float, ...], ...]
    lead_eig: complex | None


def _classify(samples: np.ndarray, period_tol: float,
              max_period: int) -> tuple[str, int | None]:
    s = np.asarray(samples)
    for p in range(1, min(max_period, len(s) - 1) + 1):
        if (np.abs(s[p:] - s[:-p]).max(axis=1, initial=0.0) <= period_tol).all():
            if p == 1:
                return "fixed-point", 1
            return f"period-{p}", p
    return "aperiodic", None


def _diagram_row(update: MapSpec, observer: MapSpec, r: float,
                 samples: np.ndarray, x0: np.ndarray) -> DiagramRow:
    """Classify one row from its (sample, dim) samples (none when divergent)."""
    if len(samples):
        attractor, period = _classify(samples, PERIOD_TOL, MAX_PERIOD)
    else:
        attractor, period = "divergent", None
    reps = samples[-min(len(samples), period or REPRESENTATIVE_SLOTS):]
    try:
        jac, _ = _jacobian_at(update, observer, r, samples[-1] if len(samples) else x0,
                              max_iter=2000, tol=1e-9)
        lead = max(spectrum(jac).eigenvalues, key=abs)
    except NoConvergenceError:
        lead = None
    return DiagramRow(r, attractor, period,
                      tuple(tuple(float(v) for v in p) for p in reps), lead)


# a row whose samples leave the finite range is classified as divergent
@np.errstate(over="ignore", invalid="ignore")
def sweep_bifurcation(update: MapSpec, observer: MapSpec,
                      r_grid: Sequence[float],
                      transient: int = DEFAULT_TRANSIENT,
                      sample: int = DEFAULT_SAMPLE,
                      x0: Sequence[float] | None = None) -> tuple[DiagramRow, ...]:
    """Classify the attractor of F_r on a strictly increasing grid of at
    least two coupling values; one row per value, in grid order.

    Every r advances at once: each step is one batched evaluation of F_r
    with one weight per row, and each row gets the same bits as iterating
    its own F_r.  A row leaves the batch at its first non-finite step or
    its first step beyond DIVERGENCE_THRESHOLD, and is classified
    divergent.  The remaining rows are classified from their last `sample`
    states, and a fixed point near the last one gives the leading
    eigenvalue.
    """
    if transient < 1:
        raise DomainError("transient must be >= 1")
    if sample < 2:
        raise DomainError("sample must be >= 2")
    rs = np.array(_coupling_grid(r_grid))
    start = np.zeros(update.dim) if x0 is None else np.asarray(x0, dtype=np.float64)
    batch = perturbed_map(update, observer, 0.0).batch()
    samples = np.empty((rs.size, sample, update.dim))
    divergent = np.zeros(rs.size, dtype=bool)
    live, r_live = np.arange(rs.size), rs
    x = np.tile(start, (rs.size, 1))
    for step in range(transient + sample):
        if not live.size:
            break
        x = batch(x, r_live)
        if step >= transient:
            samples[live, step - transient] = x
        # NaN, inf and any value above the threshold all fail <=; only then
        # is it worth finding the rows that left
        if not np.abs(x).max() <= DIVERGENCE_THRESHOLD:
            ok = np.abs(x).max(axis=1) <= DIVERGENCE_THRESHOLD
            divergent[live[~ok]] = True
            live, x = live[ok], x[ok]
            r_live = rs[live]
    return tuple(_diagram_row(update, observer, float(r),
                              samples[i, :0] if divergent[i] else samples[i], start)
                 for i, r in enumerate(rs))


# overflow shows up as a non-finite value, which the rollout checks and
# raises; only a dim > 1 affine node evaluates in numpy
@np.errstate(over="ignore", invalid="ignore")
def simulate_coupled(update: MapSpec, observer: MapSpec, x0: Sequence[float],
                     steps: int, r: float = 0.0, schedule: int = 1) -> Trajectory:
    """Roll out the coupled system, observing every `schedule`-th step.

    The state advances under F_r = update + r * observer back-action; the
    observer coordinate refreshes only on scheduled steps and holds its
    last reading in between.  A non-finite state or observer reading
    raises NonFiniteError, naming its step.

    Once F_r maps a state to itself bit for bit, every later state is that
    state, so the maps are not called again: the rest of the trajectory
    repeats it, and the observer reads it once more, at the next scheduled
    step, if one is left.  == cannot see a zero's sign, so a state with a
    zero coordinate never counts as fixed and is stepped like any other.
    """
    if schedule < 1:
        raise DomainError("schedule must be >= 1")

    def observe(x: tuple[float, ...], n: int) -> tuple[float, ...]:
        o = observer(x)
        if not all(map(math.isfinite, o)):
            raise NonFiniteError(f"observer reading left the finite range at step {n}")
        return o

    fr = perturbed_map(update, observer, r) if r != 0.0 else update
    x = tuple(map(float, x0))
    o = observe(x, 0)
    xs, os_ = [x], [o]
    for n in range(1, steps + 1):
        y = fr(x)
        if not all(map(math.isfinite, y)):
            raise NonFiniteError(f"trajectory left the finite range at step {n}")
        if all(a == b != 0.0 for a, b in zip(y, x)):
            xs += [x] * (steps + 1 - n)
            m = n + (-n) % schedule  # the next scheduled step
            if m <= steps:
                os_ += [o] * (m - n)
                o = observe(x, m)
            os_ += [o] * (steps + 1 - len(os_))
            break
        x = y
        if n % schedule == 0:
            o = observe(x, n)
        xs.append(x)
        os_.append(o)
    return Trajectory(tuple(xs), tuple(os_))


@dataclass(frozen=True)
class LyapunovReport:
    values: tuple[float, ...]
    monotone: bool
    violations: tuple[int, ...]


def lyapunov_trace(traj: Trajectory, h_state: Sequence[float],
                   h_obs: Sequence[float], alpha: float) -> LyapunovReport:
    """Entropy functional H(state) + alpha H(observer) along a trajectory.

    `h_state` and `h_obs` hold the two entropies at each state of `traj`.
    The verdict is non-increase up to tolerance at every step; violating
    step indices are listed so a spreading observation can be located.
    """
    if not len(h_state) == len(h_obs) == len(traj.xs):
        raise LengthMismatchError(
            f"{len(h_state)} state and {len(h_obs)} observer entropies "
            f"for {len(traj.xs)} states"
        )
    values = [hx + alpha * ho for hx, ho in zip(h_state, h_obs)]
    violations = [n for n in range(len(values) - 1)
                  if values[n + 1] > values[n] + LYAPUNOV_TOL]
    return LyapunovReport(tuple(values), not violations, tuple(violations))


# --- CSV artifacts --------------------------------------------------------


def diagram_to_csv(rows: Sequence[DiagramRow], dim: int) -> str:
    header = ["r", "class", "period"]
    for k in range(REPRESENTATIVE_SLOTS):
        for j in range(dim):
            header.append(f"pt{k}_x{j}")
    header += ["lead_eig_re", "lead_eig_im"]
    lines = [",".join(header)]
    for row in rows:
        cells = [fmt_real(row.r), row.attractor,
                 "" if row.period is None else str(row.period)]
        pts = list(row.points)[:REPRESENTATIVE_SLOTS]
        for k in range(REPRESENTATIVE_SLOTS):
            if k < len(pts):
                cells.extend(fmt_real(v) for v in pts[k])
            else:
                cells.extend([""] * dim)
        if row.lead_eig is None:
            cells.extend(["", ""])
        else:
            cells.extend([fmt_real(row.lead_eig.real), fmt_real(row.lead_eig.imag)])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def trajectory_to_csv(traj: Trajectory,
                      lyapunov: LyapunovReport | None = None) -> str:
    dim_x, dim_o = len(traj.xs[0]), len(traj.os[0])
    header = ["n"] + [f"x{j}" for j in range(dim_x)] \
        + [f"o{j}" for j in range(dim_o)] + ["L"]
    lines = [",".join(header)]
    # fmt_real's 17 significant digits; a settled orbit repeats its states,
    # so each distinct (x, o) is formatted once.  -0.0 == 0.0 as a key, so a
    # state with a zero coordinate is formatted on its own.
    state_fmt = "{:.17g}," * (dim_x + dim_o)
    memo: dict[tuple, str] = {}
    l_cells = (map("{:.17g}".format, lyapunov.values) if lyapunov is not None
               else [""] * len(traj.xs))
    for n, (x, o, l_cell) in enumerate(zip(traj.xs, traj.os, l_cells)):
        key = (*x, *o)
        state = memo.get(key)
        if state is None:
            state = state_fmt.format(*key)
            if all(key):
                memo[key] = state
        lines.append(f"{n},{state}{l_cell}")
    return "\n".join(lines) + "\n"
