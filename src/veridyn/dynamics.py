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
from typing import Callable, Sequence

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
    "CoupledState",
    "Trajectory",
    "DiagramRow",
    "BifurcationDiagram",
    "BifRoot",
    "CriticalReport",
    "LyapunovReport",
    "perturbed_map",
    "jacobian",
    "jacobian_fd",
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


_math_pow = np.frompyfunc(math.pow, 2, 1)


def _libm_pow(col: np.ndarray, p: int) -> np.ndarray:
    """col ** p through libm pow, as _pow and the scalar evaluation take it.

    numpy's array power takes SIMD paths (x * x for p = 2) that round
    differently, so batched rows would drift from the scalar ones.
    """
    try:
        return _math_pow(col, p).astype(np.float64)
    except OverflowError:
        return np.array([_pow(v, p) for v in col.tolist()])


class MapSpec:
    """Interface for the state-update maps: evaluate and differentiate.

    Calling a map takes a sequence of `dim` floats and returns a tuple of
    `dim` Python floats, with the bits the numpy evaluation of the same
    map gives.  Scalar solves run on these tuples, because numpy's
    per-call dispatch costs far more than the arithmetic at these sizes.
    `batch`, `jacobian_analytic` and everything downstream of them stay
    on numpy arrays.
    """

    dim: int

    def __call__(self, x: Sequence[float]) -> tuple[float, ...]:
        raise NotImplementedError

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate every row of a (B, dim) array; row i is self(xs[i]) bit for bit."""
        raise NotImplementedError

    def jacobian_analytic(self, x: np.ndarray) -> np.ndarray | None:
        """Exact Jacobian when the map's form supports one, else None."""
        raise NotImplementedError


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
        object.__setattr__(self, "_scalar", (float(a[0, 0]), float(b[0]))
                           if a.shape == (1, 1) else None)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def __call__(self, x):
        if self._scalar is None:
            # a Python sum cannot match the order OpenBLAS sums a small matvec in
            return tuple((self.a @ np.array(x, dtype=np.float64) + self.b).tolist())
        a, b = self._scalar
        # A @ x accumulates onto +0.0, which turns a -0.0 product into +0.0
        return (0.0 + a * x[0] + b,)

    def batch(self, xs):
        # one A @ x product per row: a single (B, dim) @ A.T product sums
        # in another order and differs in the last bits for dim > 1
        return np.matmul(self.a, xs[:, :, None])[:, :, 0] + self.b

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
        object.__setattr__(self, "_terms", tuple(
            tuple((coeff, tuple((j, p) for j, p in enumerate(powers) if p))
                  for coeff, powers in terms)
            for terms in self.coords))

    def __call__(self, x):
        out = []
        for terms in self._terms:
            acc = 0.0
            for term, factors in terms:
                for j, p in factors:
                    term *= _pow(x[j], p)
                acc += term
            out.append(acc)
        return tuple(out)

    def batch(self, xs):
        out = np.zeros(xs.shape)
        for i, terms in enumerate(self.coords):
            acc = 0.0
            for coeff, powers in terms:
                term = coeff
                for j, p in enumerate(powers):
                    if p:
                        term = term * _libm_pow(xs[:, j], p)
                acc = acc + term
            out[:, i] = acc
        return out

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
    """Sequential composition of endomaps; differentiated numerically."""

    parts: tuple[MapSpec, ...]

    def __post_init__(self):
        if not self.parts:
            raise DimMismatchError("pipeline needs at least one part")
        dims = {p.dim for p in self.parts}
        if len(dims) != 1:
            raise DimMismatchError("pipeline parts must share one dimension")

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def __call__(self, x):
        for p in self.parts:
            x = p(x)
        return x

    def batch(self, xs):
        out = xs
        for p in self.parts:
            out = p.batch(out)
        return out

    def jacobian_analytic(self, x):
        return None


@dataclass(frozen=True)
class WeightedSumMap(MapSpec):
    """Pointwise weighted sum of maps; analytic iff all parts are."""

    parts: tuple[MapSpec, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.parts) != len(self.weights) or not self.parts:
            raise DimMismatchError("need one weight per part")
        dims = {p.dim for p in self.parts}
        if len(dims) != 1:
            raise DimMismatchError("summed maps must share one dimension")

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def __call__(self, x):
        out = [0.0] * len(x)
        for w, p in zip(self.weights, self.parts):
            out = [o + w * v for o, v in zip(out, p(x))]
        return tuple(out)

    def batch(self, xs, weights=None):
        """Rows of the sum; `weights` may replace self.weights, each entry a
        scalar or one value per row."""
        out = np.zeros(xs.shape)
        for w, p in zip(self.weights if weights is None else weights, self.parts):
            out = out + np.reshape(w, (-1, 1)) * p.batch(xs)
        return out

    def jacobian_analytic(self, x):
        total = np.zeros((self.dim, self.dim))
        for w, p in zip(self.weights, self.parts):
            jac = p.jacobian_analytic(x)
            if jac is None:
                return None
            total += w * jac
        return total


@dataclass(frozen=True)
class CoupledState:
    x: np.ndarray
    o: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.array(self.x, dtype=np.float64, copy=True))
        object.__setattr__(self, "o", np.array(self.o, dtype=np.float64, copy=True))


@dataclass(frozen=True)
class Trajectory:
    states: tuple[CoupledState, ...]
    r: float

    def __post_init__(self):
        if not self.states:
            raise LengthMismatchError("trajectory must contain at least one state")


def perturbed_map(update: MapSpec, observer: MapSpec, r: float) -> MapSpec:
    """Observer back-action family F_r(x) = update(x) + r * observer(x)."""
    if update.dim != observer.dim:
        raise DimMismatchError("update and observer dimensions differ")
    return WeightedSumMap((update, observer), (1.0, float(r)))


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


def jacobian(F: MapSpec, x: np.ndarray) -> LinOp:
    """Jacobian at x: analytic where the map supports it, else central FD."""
    jac = F.jacobian_analytic(np.asarray(x, dtype=np.float64))
    if jac is None:
        jac = jacobian_fd(F, x)
    if not np.all(np.isfinite(jac)):
        raise NonFiniteError("Jacobian contains non-finite entries")
    return LinOp(jac)


def _residual(d: list[float]) -> float:
    """max |d_i|, NaN when any d_i is NaN, as np.abs(d).max() gives.

    max() alone keeps a NaN only when it comes first.
    """
    norms = list(map(abs, d))
    total = sum(norms)  # NaN exactly when some |d_i| is NaN
    return total if total != total else max(norms)


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
    The iteration runs on tuples of floats; the fixed point is returned
    as an array.
    """
    x = tuple(map(float, x0))
    d = [f - c for f, c in zip(F(x), x)]
    res = _residual(d)
    if res <= tol:
        return np.array(x)
    beta = 1.0
    for _ in range(max_iter):
        cand = tuple([c + beta * e for c, e in zip(x, d)])
        fc = F(cand)
        dc = [f - c for f, c in zip(fc, cand)]
        cres = _residual(dc)
        if cres <= tol:
            return np.array(cand)
        # a finite cres implies a finite F(cand); an infinite one passes
        # against an infinite res, so there F(cand) must be checked
        if cres <= res * (1.0 - 1e-3) and (cres < math.inf
                                            or all(map(math.isfinite, fc))):
            x, d, res = cand, dc, cres
            continue
        beta *= 0.5
        if beta < 1e-16:
            break
    raise NoConvergenceError(
        f"fixed-point iteration stalled at residual {res:.3e} (tol {tol:.1e})"
    )


@dataclass(frozen=True)
class BifRoot:
    kind: str            # "fold" (det(I - DF) = 0) or "flip" (det(I + DF) = 0)
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
    r_c_fold: float | None
    r_c_flip: float | None
    roots: tuple[BifRoot, ...]
    fold_degenerate: bool
    flip_degenerate: bool
    branch_failures: tuple[tuple[float, float], ...]
    grid: tuple[float, ...]
    d_minus: tuple[float | None, ...]
    d_plus: tuple[float | None, ...]

    def to_dict(self) -> dict:
        return {
            "r_c_fold": self.r_c_fold,
            "r_c_flip": self.r_c_flip,
            "roots": [r.to_dict() for r in self.roots],
            "fold_degenerate": self.fold_degenerate,
            "flip_degenerate": self.flip_degenerate,
            "branch_failures": [list(b) for b in self.branch_failures],
            "grid": list(self.grid),
            "d_minus": list(self.d_minus),
            "d_plus": list(self.d_plus),
        }


def _dets_at(update: MapSpec, observer: MapSpec, r: float,
             guess: np.ndarray) -> tuple[float, float, np.ndarray]:
    fr = perturbed_map(update, observer, r)
    xstar = find_fixed_point(fr, guess)
    jac = jacobian(fr, xstar).entries
    eye = np.eye(update.dim)
    return (float(np.linalg.det(eye - jac)),
            float(np.linalg.det(eye + jac)),
            xstar)


def _bisect_root(eval_det: Callable[[float], float], r_a: float, r_b: float,
                 d_a: float, d_b: float, det_tol: float) -> tuple[float, float]:
    """Bisect a sign change of the determinant down to |det| <= det_tol.

    When the fixed-point solve stalls at the midpoint, the points at 3/8
    and then 5/8 of the bracket stand in for it; NoConvergenceError is
    raised only when all three stall.
    """
    for _ in range(200):
        for mid in (0.5 * (r_a + r_b), r_a + 0.375 * (r_b - r_a),
                    r_a + 0.625 * (r_b - r_a)):
            try:
                d_mid = eval_det(mid)
                break
            except NoConvergenceError as exc:
                stalled = exc
        else:
            raise stalled
        if abs(d_mid) <= det_tol or (r_b - r_a) < 1e-15:
            return mid, abs(d_mid)
        if (d_a < 0.0) != (d_mid < 0.0):
            r_b, d_b = mid, d_mid
        else:
            r_a, d_a = mid, d_mid
    return 0.5 * (r_a + r_b), abs(eval_det(0.5 * (r_a + r_b)))


def _refine_touch_root(eval_det: Callable[[float], float], r_a: float,
                       r_b: float, det_tol: float) -> tuple[float, float] | None:
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
    if val <= det_tol:
        return r_min, val
    return None


def find_critical_r(update: MapSpec, observer: MapSpec, r_lo: float, r_hi: float,
                    grid: int, x0: Sequence[float] | None = None,
                    det_tol: float = DET_TOL) -> CriticalReport:
    """Scan the coupling range for fold and flip conditions at the fixed point.

    For each grid value the fixed point of F_r is located by continuation
    from the previous root, and the two determinants det(I -/+ DF) are
    tabulated.  Sign changes are bisected to |det| <= det_tol; interior
    local minima of |det| that reach zero without a sign change are
    reported with the even-multiplicity flag.  Grid cells where the
    fixed-point branch is lost, in the scan or while refining a root
    between two grid points, are reported, not raised.
    """
    if not r_lo < r_hi:
        raise DomainError("need r_lo < r_hi")
    if grid < 2:
        raise DomainError("need at least two grid points")
    start = np.zeros(update.dim) if x0 is None else np.asarray(x0, dtype=np.float64)
    rs = np.linspace(r_lo, r_hi, grid)
    d_minus: list[float | None] = []
    d_plus: list[float | None] = []
    xstars: list[np.ndarray | None] = []
    failures: list[tuple[float, float]] = []
    guess = start.copy()
    cell = (r_hi - r_lo) / (grid - 1)
    for r in rs:
        try:
            dm, dp, xstar = _dets_at(update, observer, float(r), guess)
            guess = xstar
            d_minus.append(dm)
            d_plus.append(dp)
            xstars.append(xstar)
        except NoConvergenceError:
            failures.append((float(max(r_lo, r - cell)), float(min(r_hi, r + cell))))
            d_minus.append(None)
            d_plus.append(None)
            xstars.append(None)
    branch = [(float(rs[i]), xs) for i, xs in enumerate(xstars) if xs is not None]

    def branch_lost(ra: float, rb: float) -> None:
        # a root refinement lost the branch inside [ra, rb]
        if not any(a <= ra and rb <= b for a, b in failures):
            failures.append((ra, rb))

    roots: list[BifRoot] = []
    for kind, dvals in (("fold", d_minus), ("flip", d_plus)):
        valid = [(float(rs[i]), d) for i, d in enumerate(dvals) if d is not None]
        if not valid:
            continue
        if all(abs(d) <= det_tol for _, d in valid):
            continue  # degenerate: flagged below, no isolated roots

        def eval_det(r: float, _kind=kind) -> float:
            # nearest tracked fixed point seeds the local solve (continuation)
            seed_guess = min(branch, key=lambda t: abs(t[0] - r))[1] if branch else start
            dm, dp, _ = _dets_at(update, observer, r, seed_guess)
            return dm if _kind == "fold" else dp

        def _grid_root_is_even(idx: int) -> bool:
            # a zero at a grid point without a sign change across it
            before = next((d for _, d in reversed(valid[:idx]) if abs(d) > det_tol),
                          None)
            after = next((d for _, d in valid[idx + 1:] if abs(d) > det_tol), None)
            if before is None or after is None:
                return False
            return (before < 0.0) == (after < 0.0)

        found: list[tuple[float, float, bool]] = []
        for i, ((ra, da), (rb, db)) in enumerate(zip(valid, valid[1:])):
            if abs(da) <= det_tol:
                found.append((ra, abs(da), _grid_root_is_even(i)))
                continue
            if (da < 0.0) != (db < 0.0):
                try:
                    root, resid = _bisect_root(eval_det, ra, rb, da, db, det_tol)
                except NoConvergenceError:
                    branch_lost(ra, rb)
                    continue
                found.append((root, resid, False))
        if abs(valid[-1][1]) <= det_tol:
            found.append((valid[-1][0], abs(valid[-1][1]),
                          _grid_root_is_even(len(valid) - 1)))
        # touch-zero minima (even multiplicity): |det| dips to zero between
        # grid points without changing sign
        for j in range(1, len(valid) - 1):
            ra, da = valid[j - 1]
            rm, dm_ = valid[j]
            rb, db = valid[j + 1]
            if abs(dm_) < abs(da) and abs(dm_) < abs(db) and abs(dm_) > det_tol \
                    and (da < 0.0) == (dm_ < 0.0) == (db < 0.0):
                try:
                    refined = _refine_touch_root(eval_det, ra, rb, det_tol)
                except NoConvergenceError:
                    branch_lost(ra, rb)
                    continue
                if refined is not None:
                    found.append((refined[0], refined[1], True))
        found.sort()
        dedup: list[tuple[float, float, bool]] = []
        for root, resid, even in found:
            if dedup and abs(root - dedup[-1][0]) < 0.5 * cell:
                continue
            dedup.append((root, resid, even))
        for root, resid, even in dedup:
            lo_b = max(r_lo, root - cell)
            hi_b = min(r_hi, root + cell)
            roots.append(BifRoot(kind, root, resid, (lo_b, hi_b), even))
    fold_roots = [r for r in roots if r.kind == "fold"]
    flip_roots = [r for r in roots if r.kind == "flip"]
    valid_minus = [d for d in d_minus if d is not None]
    valid_plus = [d for d in d_plus if d is not None]
    return CriticalReport(
        r_c_fold=fold_roots[0].r if fold_roots else None,
        r_c_flip=flip_roots[0].r if flip_roots else None,
        roots=tuple(sorted(roots, key=lambda b: (b.kind, b.r))),
        fold_degenerate=bool(valid_minus) and all(abs(d) <= det_tol
                                                  for d in valid_minus),
        flip_degenerate=bool(valid_plus) and all(abs(d) <= det_tol
                                                 for d in valid_plus),
        branch_failures=tuple(sorted(failures)),
        grid=tuple(float(r) for r in rs),
        d_minus=tuple(d_minus),
        d_plus=tuple(d_plus),
    )


@dataclass(frozen=True)
class DiagramRow:
    r: float
    attractor: str       # fixed-point | period-2 | period-p | aperiodic | divergent
    period: int | None
    points: tuple[tuple[float, ...], ...]
    lead_eig: complex | None


@dataclass(frozen=True)
class BifurcationDiagram:
    rows: tuple[DiagramRow, ...]

    def __post_init__(self):
        rs = [row.r for row in self.rows]
        if any(b <= a for a, b in zip(rs, rs[1:])):
            raise DomainError("diagram grid must be strictly increasing")


def _classify(samples: list[np.ndarray], period_tol: float,
              max_period: int) -> tuple[str, int | None]:
    s = np.asarray(samples)
    for p in range(1, min(max_period, len(s) - 1) + 1):
        if (np.abs(s[p:] - s[:-p]).max(axis=1, initial=0.0) <= period_tol).all():
            if p == 1:
                return "fixed-point", 1
            return f"period-{p}", p
    return "aperiodic", None


def _diagram_row(update: MapSpec, observer: MapSpec, r: float,
                 samples: list[np.ndarray], x0: np.ndarray) -> DiagramRow:
    """Classify one row from its samples (empty when divergent)."""
    if samples:
        attractor, period = _classify(samples, PERIOD_TOL, MAX_PERIOD)
    else:
        attractor, period = "divergent", None
    reps = samples[-min(len(samples), period or REPRESENTATIVE_SLOTS):]
    fr = perturbed_map(update, observer, r)
    lead = None
    try:
        xstar = find_fixed_point(fr, samples[-1] if samples else x0,
                                 max_iter=2000, tol=1e-9)
        eigs = spectrum(jacobian(fr, xstar)).eigenvalues
        lead = max(eigs, key=abs) if eigs else None
    except (NoConvergenceError, NonFiniteError):
        lead = None
    return DiagramRow(r, attractor, period,
                      tuple(tuple(float(v) for v in p) for p in reps), lead)


# a row whose samples leave the finite range is classified as divergent
@np.errstate(over="ignore", invalid="ignore")
def sweep_bifurcation(update: MapSpec, observer: MapSpec,
                      r_grid: Sequence[float],
                      transient: int = DEFAULT_TRANSIENT,
                      sample: int = DEFAULT_SAMPLE,
                      x0: Sequence[float] | None = None) -> BifurcationDiagram:
    """Classify the attractor of F_r on a grid of coupling values.

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
    start = np.zeros(update.dim) if x0 is None else np.asarray(x0, dtype=np.float64)
    rs = np.array([float(r) for r in r_grid])
    family = perturbed_map(update, observer, 0.0)
    samples = np.empty((rs.size, sample, update.dim))
    divergent = np.zeros(rs.size, dtype=bool)
    live = np.arange(rs.size)
    x = np.tile(start, (rs.size, 1))
    for step in range(transient + sample):
        if not live.size:
            break
        x = family.batch(x, (1.0, rs[live]))
        bad = ~np.all(np.isfinite(x), axis=1) \
            | (np.max(np.abs(x), axis=1, initial=0.0) > DIVERGENCE_THRESHOLD)
        if step >= transient:
            samples[live, step - transient] = x
        if bad.any():
            divergent[live[bad]] = True
            live, x = live[~bad], x[~bad]
    rows = [_diagram_row(update, observer, float(r),
                         [] if divergent[i] else list(samples[i]), start)
            for i, r in enumerate(rs)]
    return BifurcationDiagram(tuple(rows))


# overflow shows up as a non-finite value, which the rollout checks and
# raises; only a dim > 1 affine node evaluates in numpy
@np.errstate(over="ignore", invalid="ignore")
def simulate_coupled(update: MapSpec, observer: MapSpec, x0: Sequence[float],
                     steps: int, r: float = 0.0, schedule: int = 1) -> Trajectory:
    """Roll out the coupled system, observing every `schedule`-th step.

    The state advances under F_r = update + r * observer back-action; the
    observer coordinate refreshes only on scheduled steps and holds its
    last reading in between.  A non-finite state or observer reading
    raises NonFiniteError.
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
    states = [CoupledState(x, o)]
    for n in range(1, steps + 1):
        x = fr(x)
        if not all(map(math.isfinite, x)):
            raise NonFiniteError(f"trajectory left the finite range at step {n}")
        if n % schedule == 0:
            o = observe(x, n)
        states.append(CoupledState(x, o))
    return Trajectory(tuple(states), r=float(r))


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
    if not len(h_state) == len(h_obs) == len(traj.states):
        raise LengthMismatchError(
            f"{len(h_state)} state and {len(h_obs)} observer entropies "
            f"for {len(traj.states)} states"
        )
    values = [hx + alpha * ho for hx, ho in zip(h_state, h_obs)]
    violations = [n for n in range(len(values) - 1)
                  if values[n + 1] > values[n] + LYAPUNOV_TOL]
    return LyapunovReport(tuple(values), not violations, tuple(violations))


# --- CSV artifacts --------------------------------------------------------


def diagram_to_csv(diagram: BifurcationDiagram, dim: int) -> str:
    header = ["r", "class", "period"]
    for k in range(REPRESENTATIVE_SLOTS):
        for j in range(dim):
            header.append(f"pt{k}_x{j}")
    header += ["lead_eig_re", "lead_eig_im"]
    lines = [",".join(header)]
    for row in diagram.rows:
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
    dim_x = traj.states[0].x.shape[0]
    dim_o = traj.states[0].o.shape[0]
    header = ["n"] + [f"x{j}" for j in range(dim_x)] \
        + [f"o{j}" for j in range(dim_o)] + ["L"]
    lines = [",".join(header)]
    for n, s in enumerate(traj.states):
        cells = [str(n)]
        cells.extend(fmt_real(v) for v in s.x)
        cells.extend(fmt_real(v) for v in s.o)
        if lyapunov is not None:
            cells.append(fmt_real(lyapunov.values[n]))
        else:
            cells.append("")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
