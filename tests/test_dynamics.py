import contextlib
import hashlib
import json
import math
from bisect import insort
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jacobian_fd, point_mass, scale_map, zero_map
from veridyn import cli, dynamics
from veridyn._formats import fmt_real
from veridyn.cascade import DIM_CAP, LinOp, spectrum
from veridyn.category import FinObj
from veridyn.dynamics import (
    AffineMap,
    PERIOD_TOL,
    REPRESENTATIVE_SLOTS,
    DiagramRow,
    PipelineMap,
    PolynomialMap,
    Trajectory,
    WeightedSumMap,
    diagram_to_csv,
    find_critical_r,
    find_fixed_point,
    jacobian,
    lyapunov_trace,
    _classify,
    perturbed_map,
    simulate_coupled,
    sweep_bifurcation,
    trajectory_to_csv,
)
from veridyn.entropy import ProbState, shannon_entropy
from veridyn.errors import (
    DomainError,
    LengthMismatchError,
    NoConvergenceError,
    NonFiniteError,
)
from veridyn.phase import RationalPhase
from veridyn.scenario import parse_simulate_settings


def logistic_observer():
    """O(x) = x - x^2, so that phi = 0 gives F_r(x) = r x (1 - x)."""
    return PolynomialMap(1, (((1.0, (1,)), (-1.0, (2,))),))


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
            terms.append((float(rng.uniform(-1, 1)), tuple(powers)))
        coords.append(tuple(terms))
    return PolynomialMap(dim, tuple(coords))


# --- map specs -----------------------------------------------------------


def test_polynomial_degree_enforced():
    with pytest.raises(DomainError):
        PolynomialMap(1, (((1.0, (4,)),),))


def test_pipeline_and_sum_eval():
    double = scale_map(1, 2.0)
    square = PolynomialMap(1, (((1.0, (2,)),),))
    pipe = PipelineMap((double, square))
    assert pipe(np.array([3.0]))[0] == pytest.approx(36.0)
    mix = WeightedSumMap((double, square), (1.0, -1.0))
    assert mix(np.array([3.0]))[0] == pytest.approx(6.0 - 9.0)


def _coupled_step(update, observer, x):
    """The state after one step of simulate_coupled, observed on that step."""
    traj = simulate_coupled(update, observer, x, steps=1)
    return SimpleNamespace(x=np.array(traj.xs[1]), o=np.array(traj.os[1]))


def test_coupled_step_examples():
    ident = scale_map(1, 1.0)
    out = _coupled_step(ident, ident, [0.4])
    assert out.x[0] == pytest.approx(0.4)
    halver = scale_map(1, 0.5)
    out = _coupled_step(halver, ident, [1.0])
    assert (out.x[0], out.o[0]) == (0.5, 0.5)
    origin = _coupled_step(halver, halver, [0.0])
    assert origin.x[0] == 0.0 and origin.o[0] == 0.0


def test_coupled_step_nonfinite_guard():
    big = AffineMap(np.array([[1e308]]), np.zeros(1))
    with pytest.raises(NonFiniteError, match="trajectory left the finite range at step 1"):
        _coupled_step(big, scale_map(1, 1.0), [10.0])
    with pytest.raises(NonFiniteError, match="observer reading"):
        _coupled_step(scale_map(1, 1.0), big, [10.0])


def test_perturbed_map_examples():
    phi = scale_map(1, 0.5)
    obs = scale_map(1, -1.0)
    f0 = perturbed_map(phi, obs, 0.0)
    assert f0(np.array([2.0]))[0] == pytest.approx(1.0)
    fq = perturbed_map(phi, obs, 0.25)
    assert fq(np.array([2.0]))[0] == pytest.approx(0.5)
    cancel = perturbed_map(phi, WeightedSumMap((phi,), (-1.0,)), 1.0)
    assert cancel(np.array([5.0]))[0] == 0.0


# --- batched evaluation ------------------------------------------------------


def _random_spec(rng, dim, depth):
    kind = int(rng.integers(0, 4 if depth else 2))
    if kind == 0:
        return AffineMap(rng.uniform(-1, 1, (dim, dim)), rng.uniform(-1, 1, dim))
    if kind == 1:
        # a coordinate gets a cube, the power whose SIMD path rounds
        # differently from the scalar one most often, or is constant: no
        # term at all, or a constant term alone, which a batch holds as a
        # float until a later power or affine part takes it
        coords = []
        for terms in _random_polynomial(rng, dim).coords:
            form = int(rng.integers(0, 4))
            if form == 0:
                coords.append(())
            elif form == 1:
                coords.append(((float(rng.uniform(-1, 1)), (0,) * dim),))
            else:
                j = int(rng.integers(0, dim))
                cube = tuple(3 if k == j else 0 for k in range(dim))
                coords.append(terms + ((float(rng.uniform(-1, 1)), cube),))
        return PolynomialMap(dim, tuple(coords))
    parts = tuple(_random_spec(rng, dim, depth - 1)
                  for _ in range(int(rng.integers(1, 4))))
    if kind == 2:
        return PipelineMap(parts)
    return WeightedSumMap(parts, tuple(float(w) for w in rng.uniform(-2, 2, len(parts))))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@given(st.integers(1, 4), st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_batch_rows_match_scalar_bitwise(dim, rows, seed):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-2, 2, (rows, dim))
    spec = _random_spec(rng, dim, depth=2)
    got = spec.batch()(xs)
    assert got.shape == (rows, dim)
    for i in range(rows):
        assert _same_bits(got[i], spec(xs[i]))
    # one last weight per row, as the sweep runs F_r for every r at once
    family = WeightedSumMap((spec, _random_spec(rng, dim, depth=1)), (1.0, 1.0))
    weights = rng.uniform(-2, 2, rows)
    got = family.batch()(xs, weights)
    for i in range(rows):
        row_map = WeightedSumMap(family.parts, (1.0, float(weights[i])))
        assert _same_bits(got[i], row_map(xs[i]))


@pytest.mark.filterwarnings("ignore:overflow")
def test_batch_power_overflow_matches_scalar():
    cube = PolynomialMap(1, (((1.0, (3,)), (0.5, (1,))),))
    xs = np.array([[1e200], [-1e200], [2.0]])
    got = cube.batch()(xs)
    for i in range(3):
        assert _same_bits(got[i], cube(xs[i]))
    assert got[0, 0] == np.inf and got[1, 0] == -np.inf


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("overflow", [False, True])
def test_libm_pow_matches_scalar_pow(p, overflow):
    # an array takes libm pow through np.float_power, which overflows to the
    # signed infinity _pow gives; a float, a constant column, takes _pow itself
    values = [0.0, -0.0, -1.5, -2.0, -3.0, 0.7, 1e100, np.nan]
    if overflow:
        values += [1e200, -1e200]
    got = dynamics._libm_pow(np.array(values), p)
    assert got.dtype == np.float64 and got.shape == (len(values),)
    for v, g in zip(values, got.tolist()):
        want = dynamics._pow(v, p)
        for res in (g, dynamics._libm_pow(v, p)):
            assert type(res) is float
            assert math.isnan(res) == math.isnan(want)
            assert math.isnan(want) or _same_bits(res, want)
    if overflow and p > 1:
        assert got[-2] == np.inf and got[-1] == (-np.inf if p == 3 else np.inf)


# raw float64 bit patterns, with subnormals, bases whose square or cube
# overflows, signed zeros and infinities drawn often
POW_BASES = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(
        lambda bits: float(np.array(bits, np.uint64).view(np.float64))),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                     2.0 ** -1030, -2.0 ** -1040, 1e200, -1e200, 1e308, -1e308]))


@given(st.sampled_from([1, 2, 3]), st.lists(POW_BASES, min_size=1, max_size=32))
@settings(max_examples=300, deadline=None)
def test_libm_pow_on_arrays_matches_scalar_pow_on_bit_patterns(p, values):
    with np.errstate(over="ignore", invalid="ignore"):  # as the sweep runs
        got = dynamics._libm_pow(np.array(values), p)
    assert _value_bits(got) == _value_bits([dynamics._pow(v, p) for v in values])


# --- pinned references: numpy scalar evaluation --------------------------------
#
# Each map's __call__ as it stood when scalar evaluation ran on numpy arrays.
# The float evaluators must return the same bits at every point, and a
# solve must visit the same points, so that every artifact keeps its bytes.


def _ref_affine_call(self, x):
    return self.a @ np.asarray(x, dtype=np.float64) + self.b


def _ref_polynomial_call(self, x):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(self.dim)
    for i, terms in enumerate(self.coords):
        acc = 0.0
        for coeff, powers in terms:
            term = coeff
            for j, p in enumerate(powers):
                if p:
                    term *= x[j] ** p
            acc += term
        out[i] = acc
    return out


def _ref_pipeline_call(self, x):
    out = np.asarray(x, dtype=np.float64)
    for p in self.parts:
        out = p(out)
    return out


def _ref_sum_call(self, x):
    x = np.asarray(x, dtype=np.float64)
    out = 0.0
    for w, p in zip(self.weights, self.parts):
        out = out + w * p(x)
    return out


REFERENCE_CALLS = {AffineMap: _ref_affine_call, PolynomialMap: _ref_polynomial_call,
                   PipelineMap: _ref_pipeline_call, WeightedSumMap: _ref_sum_call}


@contextlib.contextmanager
def _reference_calls():
    """Every map class evaluates through its numpy reference inside the block."""
    saved = {cls: cls.__dict__["__call__"] for cls in REFERENCE_CALLS}
    try:
        for cls, call in REFERENCE_CALLS.items():
            cls.__call__ = call
        yield
    finally:
        for cls, call in saved.items():
            cls.__call__ = call


# --- pinned references: damped fixed-point solve and period test -------------
#
# find_fixed_point and _classify as they stood before the solver kept its
# residual vector between steps and the period test was vectorised.  Run on
# the numpy evaluators above, the solver is the numpy scalar solve; the
# current code must evaluate F at the same points and return the same bits.


def _ref_ninf(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def _ref_find_fixed_point(F, x0, max_iter: int = 10_000,
                          tol: float = 1e-10) -> np.ndarray:
    """Damped iteration x <- x + beta (F(x) - x), beta halving on stalled residual.

    A step is accepted only when it shrinks the residual by a relative
    margin; merely-not-worse progress (the signature of a neutral
    multiplier) triggers the same halving as an outright increase, which
    restores contraction near flip-neutral points.  beta never grows back.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    fx = F(x)
    res = _ref_ninf(fx - x)
    if res <= tol:
        return x
    beta = 1.0
    for _ in range(max_iter):
        cand = x + beta * (fx - x)
        fc = F(cand)
        if np.all(np.isfinite(fc)):
            cres = _ref_ninf(fc - cand)
            if cres <= tol:
                return cand
            if cres <= res * (1.0 - 1e-3):
                x, fx, res = cand, fc, cres
                continue
        beta *= 0.5
        if beta < 1e-16:
            break
    raise NoConvergenceError(
        f"fixed-point iteration stalled at residual {res:.3e} (tol {tol:.1e})"
    )


def _ref_classify(samples, period_tol: float, max_period: int):
    for p in range(1, max_period + 1):
        if len(samples) <= p:
            break
        if all(_ref_ninf(samples[i + p] - samples[i]) <= period_tol
               for i in range(len(samples) - p)):
            if p == 1:
                return "fixed-point", 1
            return f"period-{p}", p
    return "aperiodic", None


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64).tolist()


def _value_bits(x):
    """_bits with every NaN as one pattern.

    C leaves the sign and payload of pow(NaN, p) to the libm: glibc clears
    the sign for odd p, and math.pow returns its NaN argument unchanged.
    From F's output the sign passes into the solver's next candidate.
    Nothing in veridyn reads it: a NaN fails every comparison and
    isfinite, and fmt_real prints it as nan.
    """
    x = np.asarray(x, dtype=np.float64)
    return _bits(np.where(np.isnan(x), np.nan, x))


def _traced_solve(solver, F, x0, **kwargs):
    """(outcome, bit patterns of every point F was evaluated at and of F there)."""
    calls = []

    def recorded(x):
        fx = F(x)
        calls.append((_value_bits(x), _value_bits(fx)))
        return fx

    try:
        outcome = ("converged", _bits(solver(recorded, x0, **kwargs)))
    except NoConvergenceError as exc:
        outcome = ("stalled", str(exc))
    return outcome, calls


def _reference_solve(F, x0, **kwargs):
    """_traced_solve of the numpy solver on the numpy evaluators."""
    with _reference_calls():
        return _traced_solve(_ref_find_fixed_point, F, x0, **kwargs)


SPECIAL = (0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e200, -1e200, 5e-324, -1.5)


def _evaluation_points(rng, dim, count):
    """Points in [-2, 2]^dim, some coordinates replaced by special values."""
    xs = rng.uniform(-2, 2, (count, dim))
    mask = rng.random((count, dim)) < 0.2
    xs[mask] = rng.choice(SPECIAL, int(mask.sum()))
    return xs


def _assert_evaluates_as_reference(spec, xs):
    for x in xs:
        got = spec(x.tolist())
        assert type(got) is tuple and all(type(v) is float for v in got)
        with _reference_calls():
            want = spec(x)
        assert _value_bits(got) == _value_bits(want), (spec, x)


@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluation_matches_numpy_reference_bitwise(dim, seed):
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng, dim, depth=2)
    _assert_evaluates_as_reference(spec, _evaluation_points(rng, dim, 8))


CUBE = PolynomialMap(1, (((1.0, (3,)),),))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("spec, x", [
    # A @ x sums onto +0.0, so 0 * (negative x) gives +0.0 before b = -0.0
    (AffineMap([[0.0]], [-0.0]), [-1.0]),
    (AffineMap([[0.0]], [-0.0]), [-0.0]),
    (AffineMap([[1.0]], [-0.0]), [-0.0]),
    (AffineMap([[-0.0]], [0.0]), [3.0]),
    (AffineMap(np.zeros((2, 2)), [-0.0, -0.0]), [-1.0, -2.0]),
    (WeightedSumMap((AffineMap([[1.0]], [0.0]),), (-1.0,)), [0.0]),
    # an odd power of a huge negative base overflows to -inf, an even one to
    # +inf; a zero coefficient turns the infinity into NaN
    (CUBE, [-1e200]),
    (CUBE, [1e200]),
    (PolynomialMap(1, (((1.0, (2,)),),)), [-1e200]),
    (PolynomialMap(1, (((0.0, (3,)), (2.0, (1,))),)), [-1e200]),
    (PolynomialMap(2, (((-3.0, (2, 1)),), ((1.0, (0, 3)),))), [-1e200, -1e120]),
    (CUBE, [np.nan]),
    (CUBE, [-np.inf]),
    # NaN in a later coordinate
    (PolynomialMap(3, (((1.0, (0, 0, 1)),), ((1.0, (1, 0, 0)),), ((1.0, (0, 1, 0)),))),
     [0.5, 0.25, np.nan]),
    (PipelineMap((AffineMap(np.eye(4), np.zeros(4)), PolynomialMap(
        4, tuple(((1.0, tuple(3 if k == i else 0 for k in range(4))),)
                 for i in range(4))))), [1.0, -1e200, 2.0, np.nan]),
])
def test_evaluation_edge_cases_match_numpy_reference(spec, x):
    _assert_evaluates_as_reference(spec, [np.array(x, dtype=np.float64)])


# every term takes a coordinate to the power 1, alone or beside a higher power
LINEAR_FACTORS = PolynomialMap(2, (
    ((1.5, (1, 0)), (-0.75, (0, 1)), (1.0, (1, 1))),
    ((2.0, (2, 1)), (-1.0, (1, 2)), (0.5, (0, 1))),
))
# signed zeros, infinities, NaN, and subnormals down to the smallest
BIT_SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               2.0 ** -1040, -1.5 * 2.0 ** -1030)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exponent_one_matches_numpy_reference_on_bit_patterns():
    rng = np.random.default_rng(2024)
    patterns = rng.integers(0, 2 ** 64, (400, 2), dtype=np.uint64).view(np.float64)
    special = np.array(BIT_SPECIAL)
    k = len(special)
    xs = np.concatenate([
        patterns,
        np.array(np.meshgrid(special, special)).reshape(2, -1).T,
        np.column_stack([special, patterns[:k, 1]]),
        np.column_stack([patterns[:k, 0], special]),
    ])
    for spec, pts in [(LINEAR_FACTORS, xs), (logistic_observer(), xs[:, :1])]:
        _assert_evaluates_as_reference(spec, pts)
        got = spec.batch()(pts)
        for row, x in zip(got, pts):
            assert _value_bits(row) == _value_bits(spec(x.tolist())), (spec, x)


# --- generated evaluators: the run-time loops as oracle -----------------------
#
# Each map's __call__ as it stood before maps were compiled into one
# straight-line function: loops over the terms and parts at run time, on
# Python floats.  The generated evaluator must return the same bits.


def _loop_call(spec, x):
    if isinstance(spec, AffineMap):
        if spec.dim != 1:
            return tuple((spec.a @ np.array(x, dtype=np.float64) + spec.b).tolist())
        a, b = float(spec.a[0, 0]), float(spec.b[0])
        return (0.0 + a * x[0] + b,)
    if isinstance(spec, PolynomialMap):
        out = []
        for terms in spec.coords:
            acc = 0.0
            for term, powers in terms:
                for j, p in enumerate(powers):
                    if p:
                        term *= x[j] if p == 1 else dynamics._pow(x[j], p)
                acc += term
            out.append(acc)
        return tuple(out)
    if isinstance(spec, PipelineMap):
        for p in spec.parts:
            x = _loop_call(p, x)
        return x
    out = [0.0] * len(x)
    for w, p in zip(spec.weights, spec.parts):
        out = [o + w * v for o, v in zip(out, _loop_call(p, x))]
    return tuple(out)


def _assert_evaluates_as_loops(spec, x):
    got = spec(x)
    assert type(got) is tuple and all(type(v) is float for v in got)
    assert _value_bits(got) == _value_bits(_loop_call(spec, x)), (spec, x)


# coefficients and weights: finite, with signed zeros and units often
FINITE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(allow_nan=False, allow_infinity=False))
# any float, with signed zeros, infinities, NaN and bases whose cube overflows
INPUTS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200, 1e120, -1e120]))


@st.composite
def _leaf_maps(draw, dim):
    if draw(st.booleans()):
        return AffineMap(draw(st.lists(st.lists(FINITE, min_size=dim, max_size=dim),
                                       min_size=dim, max_size=dim)),
                         draw(st.lists(FINITE, min_size=dim, max_size=dim)))
    # powers 0-3 of total degree at most 3; all zero makes a constant term
    powers = st.lists(st.integers(0, 3), min_size=dim, max_size=dim).filter(
        lambda ps: sum(ps) <= 3).map(tuple)
    terms = st.lists(st.tuples(FINITE, powers), max_size=4).map(tuple)
    return PolynomialMap(dim, tuple(draw(terms) for _ in range(dim)))


@st.composite
def _map_trees(draw, dim, depth):
    """A pipeline or sum with a `depth - 1` tree among its parts."""
    if depth == 0:
        return draw(_leaf_maps(dim))
    parts = [draw(_map_trees(dim, depth - 1)), *draw(st.lists(_leaf_maps(dim), max_size=2))]
    parts = tuple(draw(st.permutations(parts)))
    if draw(st.booleans()):
        return PipelineMap(parts)
    return WeightedSumMap(parts, tuple(draw(st.lists(FINITE, min_size=len(parts),
                                                     max_size=len(parts)))))


# a single node shows its own signed zeros, which a part in a sum cannot
@pytest.mark.parametrize("depth", [0, 3])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_generated_evaluator_matches_loop_oracle(depth, data):
    dim = data.draw(st.integers(1, 3))
    spec = data.draw(_map_trees(dim, depth))
    for _ in range(3):
        _assert_evaluates_as_loops(
            spec, data.draw(st.lists(INPUTS, min_size=dim, max_size=dim)))


def test_long_polynomial_and_long_pipeline_build_and_evaluate():
    rng = np.random.default_rng(18)
    powers = [(int(p), int(q)) for p, q in rng.integers(0, 2, (5000, 2))]
    long_poly = PolynomialMap(2, tuple(
        tuple((float(c), ps) for c, ps in zip(rng.uniform(-1, 1, 5000), powers))
        for _ in range(2)))
    for x in ([0.5, -0.25], [1e200, -0.0], [math.nan, 2.0]):
        _assert_evaluates_as_loops(long_poly, x)
    long_pipe = PipelineMap(tuple(
        AffineMap([[0.5]], [0.125]) if k % 2 else
        PolynomialMap(1, (((0.5, (0,)), (0.9, (1,)), (-0.25, (3,))),))
        for k in range(300)))
    for x in ([0.3], [-1e120], [math.inf]):
        _assert_evaluates_as_loops(long_pipe, x)


def test_coupling_values_share_one_compiled_evaluator(monkeypatch):
    update = PipelineMap((AffineMap([[0.25]], [0.125]),
                          PolynomialMap(1, (((0.5, (0,)), (-1.0, (3,))),))))
    observer = PolynomialMap(1, (((1.0, (1,)), (-1.0, (2,)), (0.75, (0,))),))
    compiles = []

    def counted(*args, **kwargs):
        compiles.append(args)
        return compile(*args, **kwargs)

    monkeypatch.setattr(dynamics, "compile", counted, raising=False)
    rs = np.linspace(-2.0, 2.0, 100)
    family = [perturbed_map(update, observer, float(r)) for r in rs]
    for f in family:
        _assert_evaluates_as_loops(f, [0.3])
    assert len(compiles) <= 1
    assert len({f._eval.__code__ for f in family}) == 1
    # each value binds its own r
    assert len({f((0.3,)) for f in family}) == len(rs)


SWAP_SQUARES = PolynomialMap(2, (((1.0, (0, 2)),), ((1.0, (2, 0)),)))
SQUARE_AND_CONSTANT = PolynomialMap(2, (((1.0, (0, 2)),), ((1.0, (0, 0)),)))


def _keep_and_square_last(dim):
    """x -> (x_0, ..., x_(dim-2), x_(dim-1)^2)."""
    return PolynomialMap(dim, tuple(
        ((1.0, tuple(2 if (k == i == dim - 1) else int(k == i) for k in range(dim))),)
        for i in range(dim)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("spec, x0", [
    # F(x0) overflows to (0, inf); the candidates keep an infinite coordinate,
    # so F(cand) is non-finite and beta halves, although cres <= res holds
    (SWAP_SQUARES, [1e200, 0.0]),
    # F(x0) overflows, but F of the infinite candidate is finite: the step
    # with an infinite residual against an infinite one is accepted
    (SQUARE_AND_CONSTANT, [0.0, 1e200]),
    (SWAP_SQUARES, [np.nan, 0.5]),
    (scale_map(2, 2.0), [1.0, -1.0]),
    # NaN in a later coordinate: the residual is NaN, never the max of the rest
    (scale_map(2, 0.5), [0.25, np.nan]),
    (scale_map(3, 0.5), [0.25, -0.5, np.nan]),
    (scale_map(4, 0.5), [0.25, 1.0, np.nan, 2.0]),
    # inf - inf makes the last residual coordinate NaN; a residual that
    # dropped it would read 0 and accept (0.5, ..., inf) as a fixed point
    (_keep_and_square_last(2), [0.5, 1e200]),
    (_keep_and_square_last(3), [0.5, -0.25, 1e200]),
    (_keep_and_square_last(4), [0.5, -0.25, 0.125, 1e200]),
    # divergent: the cube overflows, and so does an expanding affine step
    (CUBE, [1e120]),
    (CUBE, [-1e120]),
    (AffineMap([[3.0]], [1.0]), [1e308]),
    # |d| = (1e308, 1e308): their sum overflows to inf with no NaN, so the
    # residual is the max; an infinite one would accept the step at beta 1/4
    (AffineMap(2.0 * np.eye(2), [1e308, 1e308]), [0.0, 0.0]),
])
def test_fixed_point_overflow_paths_match_reference(spec, x0):
    got = _traced_solve(find_fixed_point, spec, x0, max_iter=300)
    assert got == _reference_solve(spec, x0, max_iter=300)
    assert got[0][0] == "stalled"


@pytest.mark.parametrize("spec, x0, max_iter", [
    # flip-neutral logistic at r = 3: converges too slowly for 50 steps
    (perturbed_map(AffineMap([[0.0]], [0.0]),
                   PolynomialMap(1, (((1.0, (1,)), (-1.0, (2,))),)), 3.0), [0.5], 50),
    (scale_map(1, 2.0), [1.0], 10_000),
    (AffineMap([[0.0, -1.1], [1.1, 0.0]], [0.1, 0.2]), [1.0, 1.0], 200),
    # the widest map a sweep takes: a damped cyclic shift, so each step moves
    # the residual's largest coordinate one place on, through all of them
    (AffineMap(0.99 * np.roll(np.eye(DIM_CAP), 1, axis=0), np.zeros(DIM_CAP)),
     np.r_[1.0, np.linspace(1e-3, 2e-3, DIM_CAP - 1)], 80),
])
def test_stalled_solves_match_reference(spec, x0, max_iter):
    got = _traced_solve(find_fixed_point, spec, x0, max_iter=max_iter)
    assert got == _reference_solve(spec, x0, max_iter=max_iter)
    assert got[0][0] == "stalled"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fixed_point_overflow_candidates_pinned():
    _, calls = _traced_solve(find_fixed_point, SWAP_SQUARES, [1e200, 0.0], max_iter=3)
    inf = float("inf")
    assert [x for x, _ in calls] == [_bits(x) for x in ([1e200, 0.0], [0.0, inf],
                                                         [5e199, inf], [7.5e199, inf])]


def test_fixed_point_is_an_array():
    x = find_fixed_point(scale_map(2, 0.5), (1.0, -1.0))
    assert isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape == (2,)
    start = np.array([-0.0])
    x = find_fixed_point(AffineMap([[1.0]], [0.0]), start)
    assert x is not start and _bits(x) == _bits(start)


@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.5, 1e3, 1e160]), st.sampled_from([1e-10, 1e-9]))
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fixed_point_matches_reference_bitwise(dim, seed, scale, tol):
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng, dim, depth=2)
    x0 = rng.uniform(-scale, scale, dim)
    got = _traced_solve(find_fixed_point, spec, x0, max_iter=200, tol=tol)
    assert got == _reference_solve(spec, x0, max_iter=200, tol=tol)


@given(st.integers(1, 3), st.integers(1, 20), st.integers(1, 6), st.integers(0, 17),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_classify_matches_reference(dim, length, cycle, max_period, seed):
    rng = np.random.default_rng(seed)
    tol = PERIOD_TOL
    # near-periodic samples whose differences sit on, just inside and just
    # beyond period_tol, and sometimes are nan
    base = rng.integers(0, 2, (cycle, dim)).astype(np.float64)
    jitter = np.array([0.0, tol, -tol, np.nextafter(tol, 0.0), np.nextafter(tol, 1.0),
                       np.nan])
    weights = [0.6, 0.12, 0.1, 0.08, 0.08, 0.02]
    samples = [base[i % cycle] + rng.choice(jitter, dim, p=weights)
               for i in range(length)]
    assert _classify(samples, tol, max_period) == _ref_classify(samples, tol, max_period)


def test_classify_tolerance_is_inclusive():
    tol = PERIOD_TOL
    on = [np.array([0.0]), np.array([tol]), np.array([0.0])]
    beyond = [np.array([0.0]), np.array([np.nextafter(tol, 1.0)]), np.array([0.0])]
    for samples, want in ((on, ("fixed-point", 1)), (beyond, ("period-2", 2))):
        assert _classify(samples, tol, 16) == _ref_classify(samples, tol, 16) == want
    assert _classify(on, tol, 0) == _ref_classify(on, tol, 0) == ("aperiodic", None)


# --- jacobians --------------------------------------------------------------


def test_affine_jacobian_exact_everywhere():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3))
    f = AffineMap(a, rng.standard_normal(3))
    for _ in range(5):
        x = rng.standard_normal(3)
        assert np.array_equal(jacobian(f, x).entries, a)


def test_square_jacobian_matches_fd():
    sq = PolynomialMap(1, (((1.0, (2,)),),))
    x = np.array([3.0])
    assert jacobian(sq, x).entries[0, 0] == pytest.approx(6.0, abs=1e-12)
    assert jacobian_fd(sq, x)[0, 0] == pytest.approx(6.0, abs=1e-6)


def test_identity_jacobian():
    ident = scale_map(2, 1.0)
    assert np.array_equal(jacobian(ident, np.zeros(2)).entries, np.eye(2))


def test_fd_vs_analytic_on_random_polynomials():
    rng = np.random.default_rng(9)
    for _ in range(60):
        dim = int(rng.integers(1, 7))
        f = _random_polynomial(rng, dim)
        x = rng.uniform(-1, 1, dim)
        ja = f.jacobian_analytic(x)
        jf = jacobian_fd(f, x)
        denom = max(1.0, float(np.max(np.abs(ja))))
        assert float(np.max(np.abs(ja - jf))) / denom <= 1e-5


def test_pipeline_jacobian_is_the_chain_rule():
    pipe = PipelineMap((scale_map(1, 2.0), PolynomialMap(1, (((1.0, (2,)),),))))
    # d/dx (2x)^2 = 8x
    assert jacobian(pipe, np.array([1.0])).entries[0, 0] == 8.0


def _chain_rule(spec, x):
    """The closed form: a pipeline's Jacobian is the product of its parts'
    at the points the parts before them leave, a sum's the weighted sum."""
    if isinstance(spec, PipelineMap):
        points = [x.tolist()]
        for p in spec.parts[:-1]:
            points.append(p(points[-1]))
        factors = [_chain_rule(p, np.array(pt)) for p, pt in zip(spec.parts, points)]
        jac = factors[0]
        for factor in factors[1:]:
            jac = factor @ jac
        return jac
    if isinstance(spec, WeightedSumMap):
        return sum(w * _chain_rule(p, x) for w, p in zip(spec.weights, spec.parts))
    return spec.jacobian_analytic(x)


UNIT = st.floats(-1.0, 1.0)


@st.composite
def _unit_leaves(draw, dim):
    """A polynomial or affine map with coefficients in [-1, 1]."""
    if draw(st.booleans()):
        return AffineMap(draw(st.lists(st.lists(UNIT, min_size=dim, max_size=dim),
                                       min_size=dim, max_size=dim)),
                         draw(st.lists(UNIT, min_size=dim, max_size=dim)))
    powers = st.lists(st.integers(0, 3), min_size=dim, max_size=dim).filter(
        lambda ps: sum(ps) <= 3).map(tuple)
    terms = st.lists(st.tuples(UNIT, powers), max_size=3).map(tuple)
    return PolynomialMap(dim, tuple(draw(terms) for _ in range(dim)))


@st.composite
def _pipelines(draw, dim):
    """A pipeline of leaves, and at times a pipeline among its parts, or a
    sum with a pipeline among its parts, or the pipeline inside a sum."""
    parts = draw(st.lists(_unit_leaves(dim), min_size=1, max_size=3))
    nested = PipelineMap(tuple(draw(st.lists(_unit_leaves(dim), min_size=1,
                                             max_size=2))))
    form = draw(st.sampled_from(["flat", "pipeline of pipelines", "sum inside",
                                 "inside a sum"]))
    if form == "pipeline of pipelines":
        parts.insert(draw(st.integers(0, len(parts))), nested)
    elif form == "sum inside":
        parts.insert(draw(st.integers(0, len(parts))),
                     WeightedSumMap((nested, draw(_unit_leaves(dim))),
                                    (draw(UNIT), draw(UNIT))))
    pipe = PipelineMap(tuple(parts))
    if form == "inside a sum":
        return WeightedSumMap((pipe, draw(_unit_leaves(dim))), (draw(UNIT), draw(UNIT)))
    return pipe


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_pipeline_jacobian_is_the_product_of_its_parts(data):
    dim = data.draw(st.integers(1, 4))
    spec = data.draw(_pipelines(dim))
    x = np.array(data.draw(st.lists(UNIT, min_size=dim, max_size=dim)))
    jac = jacobian(spec, x).entries
    assert np.array_equal(jac, _chain_rule(spec, x))
    fd = jacobian_fd(spec, x)
    assert float(np.max(np.abs(jac - fd))) / max(1.0, float(np.max(np.abs(jac)))) <= 1e-5


# --- fixed points -------------------------------------------------------------


def test_fixed_point_contraction():
    x = find_fixed_point(scale_map(1, 0.5), [1.0])
    assert abs(x[0]) <= 1e-9


def test_fixed_point_identity_immediate():
    x0 = np.array([0.3, -0.7])
    assert np.array_equal(find_fixed_point(scale_map(2, 1.0), x0), x0)


def test_fixed_point_expanding_diverges():
    with pytest.raises(NoConvergenceError):
        find_fixed_point(scale_map(1, 2.0), [1.0])


def test_fixed_point_residual_reverified():
    # row-sum norm below one keeps the damped iteration inside its
    # guaranteed-contraction regime
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n, n))
        a = 0.9 * a / float(np.max(np.sum(np.abs(a), axis=1)))
        f = AffineMap(a, rng.standard_normal(n))
        x = find_fixed_point(f, np.zeros(n), tol=1e-10)
        assert float(np.max(np.abs(f(x) - x))) <= 1e-10


def test_fixed_point_flip_unstable_located_by_damping():
    # logistic at r = 3.2: the interior fixed point is flip-unstable, the
    # damped iteration still lands on it
    fr = perturbed_map(zero_map(1), logistic_observer(), 3.2)
    x = find_fixed_point(fr, [0.5])
    assert x[0] == pytest.approx(1 - 1 / 3.2, abs=1e-9)


# --- critical coupling ----------------------------------------------------------


def test_linear_family_flip_at_three_halves():
    rep = find_critical_r(scale_map(1, 0.5), scale_map(1, -1.0), np.linspace(0.0, 2.0, 21))
    assert rep.r_c("flip") == pytest.approx(1.5, abs=1e-6)
    assert rep.r_c("fold") is None
    assert not rep.branch_failures


def test_degenerate_family_flagged():
    rep = find_critical_r(scale_map(1, 1.0), zero_map(1), np.linspace(0.0, 2.0, 11))
    assert rep.degenerate["fold"]
    assert rep.r_c("fold") is None


def test_two_dimensional_double_flip_flagged_even():
    rep = find_critical_r(scale_map(2, 0.5), scale_map(2, -1.0), np.linspace(0.0, 2.0, 21))
    flips = [b for b in rep.roots if b.kind == "flip"]
    assert len(flips) == 1
    assert flips[0].r == pytest.approx(1.5, abs=1e-6)
    assert flips[0].even_multiplicity


def test_logistic_flip_matches_sweep_transition():
    phi = zero_map(1)
    obs = logistic_observer()
    rep = find_critical_r(phi, obs, np.linspace(2.5, 3.4, 10), x0=[0.5])
    assert rep.r_c("flip") == pytest.approx(3.0, abs=1e-6)
    grid = np.linspace(2.8, 3.2, 21)
    diag = sweep_bifurcation(phi, obs, grid, transient=3000, sample=64, x0=[0.5])
    last_fp = max(row.r for row in diag if row.attractor == "fixed-point")
    first_p2 = min(row.r for row in diag if row.attractor == "period-2")
    cell = grid[1] - grid[0]
    assert last_fp <= rep.r_c("flip") + cell + 1e-9
    assert first_p2 >= rep.r_c("flip") - cell - 1e-9


@pytest.mark.parametrize("c", [0.955, 0.965, 0.98, 1.02, 1.035])
def test_flip_recovered_when_bisection_midpoint_stalls(c):
    # the damped solve stalls at the first bisection midpoint of the flip
    # bracket for these observer scales; a point beside it carries on
    obs = PolynomialMap(1, (((c, (1,)), (-c, (2,))),))
    rep = find_critical_r(zero_map(1), obs, np.linspace(2.5, 3.4, 91), x0=[0.5])
    assert abs(rep.r_c("flip") - 3.0 / c) <= 1e-6


# sha256 of find_critical_r(...).to_dict() as JSON, one case per refinement
# path; dim 1, so no BLAS summation order enters
GOLDEN_SCANS = {
    # the branch is lost at the grid point 3.06, and the flip bracket's first
    # midpoint stalls, so the 3/8 and 5/8 stand-ins run
    "observer-scale-0.98": (
        (zero_map(1), PolynomialMap(1, (((0.98, (1,)), (-0.98, (2,))),)), 2.5, 3.4, 91),
        "0a803a4fc03146af572d48be91662044e3a90f32a44fee0435ccc239a2d35041"),
    # logistic_sweep.json's maps: the flip is bisected from the two grid
    # values (12 854 F_r calls)
    "coarse-bisection": (
        (zero_map(1), logistic_observer(), 2.5, 3.4, 2),
        "f2924f94a4afcd25d0defc1577f3f43c9c972913edd20cc7b38458519c58f9df"),
    # the same on 16 values: three midpoint solves stall at 10 000 iterations
    "stalled-midpoints": (
        (zero_map(1), logistic_observer(), 2.5, 3.4, 16),
        "642ac0039936a8447d0fd996ee849dde894c479dd5809fb2573e7a4bde3c44c3"),
    # a cubic whose scan loses the branch at a grid point, in a bisection and
    # in a touch search
    "branch-lost": (
        (PolynomialMap(1, (((0.867, (1,)), (1.99, (2,)), (-0.876, (3,))),)),
         PolynomialMap(1, (((0.498, (1,)), (-0.294, (2,)), (-0.803, (3,))),)),
         0.42, 4.26, 13),
        "36b8613afc9c68425520232af7420ca32cf4f46e5c5be2a7fe5a4618d04b8ef1"),
    # det(I + J) is -1.5e-10 at the grid value 1.5: a grid zero, and the end
    # of a sign change whose bisected root, 6e-9 below it, is the one kept
    "duplicate-root": (
        (scale_map(1, 0.5), scale_map(1, -1.0000000001), 0.0, 2.0, 21),
        "dede28ad74d371fabecc5f43e3163f1a939b6b510642ca08455677e92c15a4d2"),
    # lo = -0.0, where linspace starts at +0.0: the cell width is taken from
    # the grid's ends, and the flip's bracket lies inside them
    "negative-zero-lo": (
        (scale_map(1, 0.5), scale_map(1, -1.0), -0.0, 2.0, 21),
        "93d669de8f84e7ee4561e6ad8f90ae8796cd5499d6bdf6344a8b3fcc3d5e3aba"),
}
GOLDEN_SCAN_X0 = {"branch-lost": [-0.886]}


@pytest.mark.parametrize("case", list(GOLDEN_SCANS))
def test_critical_scan_keeps_its_digest(case):
    args, digest = GOLDEN_SCANS[case]
    update, observer, lo, hi, steps = args
    rep = find_critical_r(update, observer, np.linspace(lo, hi, steps),
                          x0=GOLDEN_SCAN_X0.get(case, [0.5]))
    assert hashlib.sha256(json.dumps(rep.to_dict()).encode()).hexdigest() == digest


def test_critical_report_follows_its_table_of_test_functions(monkeypatch):
    # one more entry of _TEST_FUNCTIONS reaches the report and its JSON with
    # no other edit: its root, degenerate flag and column follow fold's and flip's
    grid = np.linspace(0.0, 2.0, 21)
    args = (scale_map(1, 0.5), scale_map(1, -1.0), grid)
    before = find_critical_r(*args).to_dict()
    # J = 0.5 - r, so the probe J - 0.25 changes sign at r = 0.25
    monkeypatch.setitem(dynamics._TEST_FUNCTIONS, "probe",
                        ("d_probe", lambda jac: float(jac.entries[0, 0]) - 0.25))
    rep = find_critical_r(*args)
    after = rep.to_dict()
    assert list(after) == [
        "r_c_fold", "r_c_flip", "r_c_probe", "roots",
        "fold_degenerate", "flip_degenerate", "probe_degenerate",
        "branch_failures", "grid", "d_minus", "d_plus", "d_probe"]
    assert rep.r_c("probe") == after["r_c_probe"] == pytest.approx(0.25, abs=1e-8)
    assert after["probe_degenerate"] is False
    assert after["d_probe"] == pytest.approx([0.25 - r for r in grid], abs=1e-12)
    assert [root for root in after["roots"] if root["kind"] != "probe"] == before["roots"]
    assert {k: v for k, v in after.items() if "probe" not in k and k != "roots"} \
        == {k: v for k, v in before.items() if k != "roots"}


def test_scan_brackets_end_at_the_grid_ends():
    # a bracket cut at the low end reads the grid's first value, +0.0 for a
    # grid from lo = -0.0, whether it holds a root or a lost branch
    grid = np.linspace(-0.0, 2.0, 21)
    flip = find_critical_r(scale_map(1, -1.05), scale_map(1, 1.0), grid, x0=[0.5])
    lost = find_critical_r(AffineMap(np.array([[2.0]]), np.array([1.0])),
                           scale_map(1, -1.0), grid, x0=[0.5])
    ends = [flip.roots[0].bracket[0], lost.branch_failures[0][0]]
    assert ends == [0.0, 0.0] and [math.copysign(1.0, end) for end in ends] == [1.0, 1.0]


def test_critical_scan_needs_an_increasing_grid():
    for grid in ([1.0], [0.0, 1.0, 1.0], [2.0, 1.0]):
        with pytest.raises(DomainError):
            find_critical_r(scale_map(1, 0.5), scale_map(1, -1.0), grid)


def test_bisection_stops_at_one_ulp(monkeypatch):
    # both roots lie near r = 10, where one ulp of r moves det by about
    # 1.8e-8 > DET_TOL, so the flip's bisection ends on adjacent floats
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return find_fixed_point(*args, **kwargs)

    monkeypatch.setattr(dynamics, "find_fixed_point", counted)
    rep = find_critical_r(AffineMap(np.array([[99999999.3]]), np.array([0.0])),
                          AffineMap(np.array([[-1e7]]), np.array([0.0])),
                          np.linspace(0.31, 19.7, 21))
    assert [(b.kind, b.r, b.residual) for b in rep.roots] == [
        ("flip", 10.000000029999999, 1.4901161193847676e-08),
        ("fold", 9.99999983, 0.0)]
    assert len(calls) <= 130


# --- sweeps ---------------------------------------------------------------------


def test_sweep_constant_families():
    phi = scale_map(1, 0.5)
    diag = sweep_bifurcation(phi, zero_map(1), [0.1, 0.2, 0.3],
                             transient=50, sample=8, x0=[1.0])
    assert all(row.attractor == "fixed-point" for row in diag)
    diag = sweep_bifurcation(scale_map(1, 2.0), zero_map(1), [0.1, 0.2],
                             transient=50, sample=8, x0=[1.0])
    assert all(row.attractor == "divergent" for row in diag)


def _scalar_sweep_row(update, observer, r, transient, sample, x0):
    """One row iterated on its own, as the sweep did before batching.

    Run it inside _reference_calls(): it iterates the numpy evaluators.
    """
    fr = perturbed_map(update, observer, r)
    x = np.asarray(x0, dtype=np.float64).copy()
    samples = []
    for n in range(transient + sample):
        x = fr(x)
        if not np.all(np.isfinite(x)) or float(np.max(np.abs(x))) > 1e12:
            samples = None
            break
        if n >= transient:
            samples.append(x.copy())
    if samples is None:
        attractor, period, samples = "divergent", None, []
    else:
        attractor, period = _ref_classify(samples, 1e-6, 16)
    reps = samples[-min(len(samples), period or REPRESENTATIVE_SLOTS):]
    try:
        xstar = _ref_find_fixed_point(fr, samples[-1] if samples else x0,
                                      max_iter=2000, tol=1e-9)
        eigs = spectrum(jacobian(fr, xstar)).eigenvalues
        lead = max(eigs, key=abs) if eigs else None
    except (NoConvergenceError, NonFiniteError):
        lead = None
    return DiagramRow(float(r), attractor, period,
                      tuple(tuple(float(v) for v in p) for p in reps), lead)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("family", ["logistic", "pipeline2", "escape", "nan"])
def test_sweep_rows_match_scalar_reference(family):
    if family == "logistic":
        phi, obs, x0 = zero_map(1), logistic_observer(), [0.5]
        grid = np.linspace(2.5, 4.3, 37)   # fixed point, cycles, chaos, escape
    elif family == "escape":
        # F_r(x) = (1 + r) x from 1 passes 1e12 after 198 steps at |1 + r| =
        # 1.15, 244 at 1.12 and 321 at 1.09, in the sample window; never at
        # 1.06 or below. Rows leave from both ends of the grid and, at 198
        # and 321 steps, two at once
        phi, obs, x0 = scale_map(1, 1.0), scale_map(1, 1.0), [1.0]
        grid = np.array([-2.15, -2.09, -2.06, -1.5, -1.0, -0.5, 0.0, 0.06, 0.09, 0.12,
                         0.15])
        first = [next((n for n in range(332) if abs(1.0 + r) ** (n + 1) > 1e12), None)
                 for r in grid]
        assert first == [197, 320, None, None, None, None, None, None, 320, 243, 197]
    elif family == "nan":
        # F_r(x) = r x + (1e300 x^2 - 1e300 x^2): once |x| passes about 1.3e4
        # the two squares overflow and the row turns NaN, far below 1e12
        phi = PolynomialMap(1, (((1e300, (2,)), (-1e300, (2,))),))
        obs, x0 = scale_map(1, 1.0), [1.0]
        grid = np.array([-3.0, -1.5, -0.5, 0.5, 1.0, 1.5, 2.0])
    else:
        rot = AffineMap(np.array([[0.6, -0.3], [0.2, 0.5]]), np.array([0.1, -0.05]))
        square = PolynomialMap(2, (((1.0, (1, 0)), (0.4, (0, 2))),
                                   ((1.0, (0, 1)), (-0.3, (2, 1)))))
        phi = PipelineMap((rot, square))
        obs = PolynomialMap(2, (((0.5, (1, 1)), (1.0, (3, 0))),
                                ((-1.0, (0, 1)), (0.2, (0, 0)))))
        x0 = [0.3, -0.2]
        grid = np.linspace(-2.0, 3.0, 26)
    diag = sweep_bifurcation(phi, obs, grid, transient=300, sample=32, x0=x0)
    with _reference_calls():
        want = [_scalar_sweep_row(phi, obs, float(r), 300, 32, np.asarray(x0))
                for r in grid]
    assert [repr(row) for row in diag] == [repr(row) for row in want]
    classes = {row.attractor for row in want}
    assert "divergent" in classes and len(classes) > 1


SCENARIOS = Path(__file__).parents[1] / "scenarios"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scenario", ["logistic_sweep", "pipeline_ledger"])
def test_sweep_and_simulate_artifacts_match_numpy_reference(scenario, monkeypatch):
    # the same run on the numpy evaluators and the numpy solver, so no digest
    # pinned on one machine's libm or BLAS
    doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())

    def artifacts():
        return json.dumps([cli.cmd_sweep(doc), cli.cmd_simulate(doc)])

    got = artifacts()
    for cls, call in REFERENCE_CALLS.items():
        monkeypatch.setattr(cls, "__call__", call)
    monkeypatch.setattr(dynamics, "find_fixed_point", _ref_find_fixed_point)
    assert artifacts() == got


def _array_state_simulate(doc):
    """cmd_simulate's artifacts as computed with numpy-array states: each
    step's ledger cell from float(v), a sorted cell list and a count dict
    summed every step, and every CSV real through fmt_real on its own."""
    sim = parse_simulate_settings(doc)
    fr = perturbed_map(sim.update, sim.observer, sim.r) if sim.r != 0.0 else sim.update
    x = tuple(map(float, sim.x0))
    o = sim.observer(x)
    states = [(np.array(x, dtype=np.float64), np.array(o, dtype=np.float64))]
    for n in range(1, sim.steps + 1):
        x = fr(x)
        if n % sim.schedule == 0:
            o = sim.observer(x)
        states.append((np.array(x, dtype=np.float64), np.array(o, dtype=np.float64)))

    def ledger(points):
        span = sim.hi - sim.lo
        counts, cells, out = {}, [], []
        for n, vec in enumerate(points, start=1):
            cell = tuple(int(min(sim.bins - 1, max(0.0, (float(v) - sim.lo) / span * sim.bins)))
                         for v in vec)
            if cell not in counts:
                insort(cells, cell)
            counts[cell] = counts.get(cell, 0) + 1
            total = 0.0
            for c in cells:
                total += counts[c] / n * math.log2(counts[c] / n)
            out.append(-total + 0.0)
        return out

    h_x, h_o = ledger([s[0] for s in states]), ledger([s[1] for s in states])
    values = [hx + sim.alpha * ho for hx, ho in zip(h_x, h_o)]
    violations = [n for n in range(len(values) - 1)
                  if values[n + 1] > values[n] + dynamics.LYAPUNOV_TOL]
    dim_x, dim_o = len(states[0][0]), len(states[0][1])
    lines = [",".join(["n", *(f"x{j}" for j in range(dim_x)),
                       *(f"o{j}" for j in range(dim_o)), "L"])]
    for n, (xs, os_) in enumerate(states):
        lines.append(",".join([str(n), *(fmt_real(v) for v in xs),
                               *(fmt_real(v) for v in os_), fmt_real(values[n])]))
    return {"trajectory.csv": "\n".join(lines) + "\n",
            "lyapunov.json": {"alpha": sim.alpha, "schedule": sim.schedule,
                              "monotone": not violations, "violations": violations}}


@pytest.mark.parametrize("scenario", ["pipeline_ledger", "logistic_sweep", "chaotic_ledger"])
def test_simulate_float_path_matches_array_states(scenario):
    # chaotic_ledger occupies a new cell at almost every step, below the work cap
    doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    code, got = cli.cmd_simulate(doc)
    want = _array_state_simulate(doc)
    assert code == 0
    assert got["trajectory.csv"] == want["trajectory.csv"]
    assert json.dumps(got["lyapunov.json"], sort_keys=True) == \
        json.dumps(want["lyapunov.json"], sort_keys=True)


@pytest.mark.parametrize("grid", [[0.1], [0.1, 0.3, 0.2], [0.2, 0.2]])
def test_sweep_rejects_a_bad_grid_before_any_map_call(monkeypatch, grid):
    def no_map(*args):
        raise AssertionError("F_r was built before the grid was checked")
    monkeypatch.setattr(dynamics, "perturbed_map", no_map)
    with pytest.raises(DomainError):
        sweep_bifurcation(zero_map(1), zero_map(1), grid, transient=5, sample=4)


@pytest.mark.filterwarnings("error")
def test_non_finite_jacobian_loses_the_point_in_the_scan_and_the_rows():
    # the fixed point 0 is found at every r, but the chain rule overflows at
    # 1e200 * 1e200, as a stalled solve would lose it
    phi = PipelineMap(tuple(scale_map(1, a) for a in (1e200, 1e200, 1e-300, 1e-250)))
    grid = [0.1, 0.2, 0.3, 0.4, 0.5]
    rep = find_critical_r(phi, scale_map(1, 1.0), grid, x0=[0.0])
    assert rep.values["fold"] == rep.values["flip"] == (None,) * 5
    assert rep.roots == () and len(rep.branch_failures) == 5
    rows = sweep_bifurcation(phi, scale_map(1, 1.0), grid, transient=5, sample=4, x0=[0.0])
    assert [(row.attractor, row.lead_eig) for row in rows] == [("fixed-point", None)] * 5


def test_sweep_validates_settings():
    with pytest.raises(DomainError):
        sweep_bifurcation(zero_map(1), zero_map(1), [0.1], transient=0, sample=8)
    with pytest.raises(DomainError):
        sweep_bifurcation(zero_map(1), zero_map(1), [0.1], transient=5, sample=1)


def test_coupled_fixed_point_residuals():
    # at a coupled fixed point both the state and the observer settle
    phi = scale_map(2, 0.5)
    obs = AffineMap(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.2, -0.1]))
    xstar = find_fixed_point(phi, [1.0, -1.0])
    s = _coupled_step(phi, obs, xstar)
    assert float(np.max(np.abs(s.x - xstar))) <= 1e-9
    assert float(np.max(np.abs(s.o - obs(xstar)))) <= 1e-9


# --- lyapunov -------------------------------------------------------------------


def _traj(n):
    states = ((0.0,),) * n
    return Trajectory(states, states)


def test_lyapunov_constant_is_monotone():
    carrier = FinObj("C", ("u", "v"))
    h = [shannon_entropy(ProbState.uniform(carrier))] * 4
    report = lyapunov_trace(_traj(4), h, h, alpha=0.5)
    assert report.monotone
    assert report.values == (1.5,) * 4


def test_lyapunov_sharpening_decreases():
    carrier = FinObj("C", ("u", "v", "w", "z"))
    seq = [ProbState.uniform(carrier),
           ProbState(carrier, (0.5, 0.5, 0.0, 0.0)),
           point_mass(carrier, "u")]
    h = [shannon_entropy(p) for p in seq]
    report = lyapunov_trace(_traj(3), h, h, alpha=1.0)
    assert report.monotone
    assert report.values[0] > report.values[1] > report.values[2]


def test_lyapunov_spreading_observer_flagged():
    carrier = FinObj("C", ("u", "v"))
    sharp = point_mass(carrier, "u")
    wide = ProbState.uniform(carrier)
    h_state = [shannon_entropy(p) for p in (sharp, sharp, sharp)]
    h_obs = [shannon_entropy(p) for p in (sharp, wide, wide)]
    report = lyapunov_trace(_traj(3), h_state, h_obs, alpha=2.0)
    assert not report.monotone
    assert report.violations == (0,)


def test_lyapunov_length_mismatch():
    carrier = FinObj("C", ("u",))
    h = [shannon_entropy(ProbState.uniform(carrier))]
    with pytest.raises(LengthMismatchError):
        lyapunov_trace(_traj(3), h, h, alpha=1.0)


# --- stability -------------------------------------------------------------------


def test_stability_known_cases():
    # linearly stable: every eigenvalue strictly inside the unit disk
    radius = spectrum(LinOp(0.5 * np.eye(3))).max_modulus
    assert radius < 1.0 - 1e-9 and radius == pytest.approx(0.5, abs=1e-9)
    rot = spectrum(LinOp.rotation(RationalPhase(1, 6))).max_modulus
    assert not rot < 1.0 - 1e-9
    assert rot == pytest.approx(1.0, abs=1e-9)
    mixed = spectrum(LinOp(np.diag([0.9, 1.1]))).max_modulus
    assert not mixed < 1.0 - 1e-9
    assert mixed == pytest.approx(1.1, abs=1e-9)


# --- trajectories and CSV ----------------------------------------------------------


def test_simulate_schedule_holds_observer():
    phi = scale_map(1, 0.5)
    obs = scale_map(1, 1.0)
    traj = simulate_coupled(phi, obs, [1.0], steps=4, schedule=2)
    xs = [x[0] for x in traj.xs]
    os_ = [o[0] for o in traj.os]
    assert xs == pytest.approx([1.0, 0.5, 0.25, 0.125, 0.0625])
    assert os_ == pytest.approx([1.0, 1.0, 0.25, 0.25, 0.0625])


def _stepwise_rollout(update, observer, x0, steps, r=0.0, schedule=1):
    """simulate_coupled without the early stop: F_r at every step and the
    observer at every scheduled one, each step checked as the rollout does."""
    fr = perturbed_map(update, observer, r) if r != 0.0 else update

    def observe(x, n):
        o = observer(x)
        if not all(map(math.isfinite, o)):
            raise NonFiniteError(f"observer reading left the finite range at step {n}")
        return o

    x = tuple(map(float, x0))
    xs, os_ = [x], [observe(x, 0)]
    for n in range(1, steps + 1):
        x = fr(x)
        if not all(map(math.isfinite, x)):
            raise NonFiniteError(f"trajectory left the finite range at step {n}")
        xs.append(x)
        os_.append(observe(x, n) if n % schedule == 0 else os_[-1])
    return Trajectory(tuple(xs), tuple(os_))


def _counted(f, calls):
    def call(x):
        calls[0] += 1
        return f(x)
    return call


# x -> 0.5 x + 1 from 2 - 2^-k reaches its fixed point 2.0 in floats, one
# step sooner for each k; the identity observer reads every transient state
HALVING = AffineMap(np.array([[0.5]]), np.array([1.0]))
HALVING_STARTS = (1.0, 1.5, 1.75)


@pytest.mark.parametrize("schedule", [1, 2, 3])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_settled_rollout_matches_the_stepwise_rollout(schedule, offset):
    settles = []
    for x0 in HALVING_STARTS:
        long = _stepwise_rollout(HALVING, scale_map(1, 1.0), [x0], 80)
        # the step whose F_r call returns its own argument, bit for bit
        settle = next(n for n in range(1, 81) if _bits(long.xs[n]) == _bits(long.xs[n - 1]))
        settles.append(settle)
        steps = settle + offset
        calls = [0]
        got = simulate_coupled(_counted(HALVING, calls), scale_map(1, 1.0), [x0], steps,
                               schedule=schedule)
        want = _stepwise_rollout(HALVING, scale_map(1, 1.0), [x0], steps,
                                 schedule=schedule)
        assert [_bits(x) for x in got.xs] == [_bits(x) for x in want.xs]
        assert [_bits(o) for o in got.os] == [_bits(o) for o in want.os]
        assert calls[0] == min(steps, settle)
    # the settle step falls before, on and after a scheduled step
    assert {n % schedule for n in settles} == set(range(schedule))


def test_fixed_point_with_a_zero_coordinate_takes_the_long_path():
    # F fixes (0.0, 2.0), which has a zero coordinate, and F(-0.0, 2.0) ==
    # (-0.0, 2.0) by == though F returns +0.0: the -0.0 stays at step 0 only,
    # and every step calls F
    phi = AffineMap(np.diag([0.5, 0.5]), np.array([0.0, 1.0]))
    for x0 in ([-0.0, 2.0], [-0.0, 1.0]):
        calls = [0]
        got = simulate_coupled(_counted(phi, calls), scale_map(2, 1.0), x0, 80, schedule=3)
        want = _stepwise_rollout(phi, scale_map(2, 1.0), x0, 80, schedule=3)
        assert [_bits(x) for x in got.xs] == [_bits(x) for x in want.xs]
        assert [_bits(o) for o in got.os] == [_bits(o) for o in want.os]
        assert calls[0] == 80
        assert _bits(got.xs[0][0]) == _bits(-0.0) and _bits(got.xs[1][0]) == _bits(0.0)
        assert got.xs[-1] == (0.0, 2.0)


@pytest.mark.parametrize("schedule", [1, 2, 3])
@pytest.mark.parametrize("x0", HALVING_STARTS)
def test_observer_non_finite_at_the_fixed_point_names_the_same_step(schedule, x0):
    def observer(x):
        return (math.inf if x[0] == 2.0 else x[0],)

    with pytest.raises(NonFiniteError) as want:
        _stepwise_rollout(HALVING, observer, [x0], 80, schedule=schedule)
    with pytest.raises(NonFiniteError) as got:
        simulate_coupled(HALVING, observer, [x0], 80, schedule=schedule)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("observer reading")


@pytest.mark.parametrize("scenario, calls", [
    # a float 2-cycle, never settled: F_r at each of 400 steps, the observer
    # at step 0 and at each of the 200 scheduled steps
    ("pipeline_ledger", (400, 201)),
    # settled at step 51 of 200, where F_r returns state 50: F_r at each step
    # up to there, the observer at each of steps 0 to 51
    ("logistic_sweep", (51, 52)),
])
def test_simulate_makes_the_pinned_number_of_map_calls(monkeypatch, scenario, calls):
    sim = parse_simulate_settings(json.loads((SCENARIOS / f"{scenario}.json").read_text()))
    fr_calls, obs_calls = [0], [0]
    # F_r is built from the observer itself; the rollout reads the counted one
    monkeypatch.setattr(dynamics, "perturbed_map", lambda update, observer, r: _counted(
        perturbed_map(update, sim.observer, r), fr_calls))
    traj = simulate_coupled(sim.update, _counted(sim.observer, obs_calls), sim.x0,
                            sim.steps, sim.r, sim.schedule)
    assert len(traj.xs) == sim.steps + 1
    assert (fr_calls[0], obs_calls[0]) == calls


def test_trajectory_csv_keeps_signed_zeros():
    # -0.0 == 0.0, so a state with a zero coordinate is never looked up as another
    zeros = ((-0.0,), (0.0,), (-0.0,), (0.5,), (0.5,))
    text = trajectory_to_csv(Trajectory(zeros, ((1.0,),) * 5))
    assert text.splitlines()[1:] == ["0,-0,1,", "1,0,1,", "2,-0,1,",
                                     "3,0.5,1,", "4,0.5,1,"]


def test_csv_outputs_deterministic():
    phi = zero_map(1)
    obs = logistic_observer()
    grid = [2.6, 3.2]
    d1 = sweep_bifurcation(phi, obs, grid, transient=600, sample=16, x0=[0.5])
    d2 = sweep_bifurcation(phi, obs, grid, transient=600, sample=16, x0=[0.5])
    assert diagram_to_csv(d1, 1) == diagram_to_csv(d2, 1)
    traj = simulate_coupled(phi, obs, [0.5], steps=5, r=2.5)
    text = trajectory_to_csv(traj)
    assert text.splitlines()[0] == "n,x0,o0,L"
    assert len(text.splitlines()) == 7
