import contextlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import point_mass, scale_map, zero_map
from veridyn import cli, dynamics
from veridyn.cascade import LinOp, spectrum
from veridyn.category import FinObj
from veridyn.dynamics import (
    AffineMap,
    PERIOD_TOL,
    REPRESENTATIVE_SLOTS,
    CoupledState,
    DiagramRow,
    PipelineMap,
    PolynomialMap,
    Trajectory,
    WeightedSumMap,
    diagram_to_csv,
    find_critical_r,
    find_fixed_point,
    jacobian,
    jacobian_fd,
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
    return simulate_coupled(update, observer, x, steps=1).states[1]


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
        # every coordinate also gets a cube, the power whose SIMD path
        # rounds differently from the scalar one most often
        j = int(rng.integers(0, dim))
        cube = tuple(3 if k == j else 0 for k in range(dim))
        poly = _random_polynomial(rng, dim)
        return PolynomialMap(dim, tuple(terms + ((float(rng.uniform(-1, 1)), cube),)
                                        for terms in poly.coords))
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
    got = spec.batch(xs)
    assert got.shape == (rows, dim)
    for i in range(rows):
        assert _same_bits(got[i], spec(xs[i]))
    # per-row weights, as the sweep runs F_r for every r at once
    family = WeightedSumMap((spec, _random_spec(rng, dim, depth=1)), (1.0, 1.0))
    weights = (1.0, rng.uniform(-2, 2, rows))
    got = family.batch(xs, weights)
    for i in range(rows):
        row_map = WeightedSumMap(family.parts, (1.0, float(weights[1][i])))
        assert _same_bits(got[i], row_map(xs[i]))


@pytest.mark.filterwarnings("ignore:overflow")
def test_batch_power_overflow_matches_scalar():
    cube = PolynomialMap(1, (((1.0, (3,)), (0.5, (1,))),))
    xs = np.array([[1e200], [-1e200], [2.0]])
    got = cube.batch(xs)
    for i in range(3):
        assert _same_bits(got[i], cube(xs[i]))
    assert got[0, 0] == np.inf and got[1, 0] == -np.inf


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


def test_pipeline_uses_fd():
    pipe = PipelineMap((scale_map(1, 2.0), PolynomialMap(1, (((1.0, (2,)),),))))
    assert pipe.jacobian_analytic(np.array([1.0])) is None
    # d/dx (2x)^2 = 8x
    assert jacobian(pipe, np.array([1.0])).entries[0, 0] == pytest.approx(8.0, rel=1e-6)


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
    rep = find_critical_r(scale_map(1, 0.5), scale_map(1, -1.0), 0.0, 2.0, 21)
    assert rep.r_c_flip == pytest.approx(1.5, abs=1e-6)
    assert rep.r_c_fold is None
    assert not rep.branch_failures


def test_degenerate_family_flagged():
    rep = find_critical_r(scale_map(1, 1.0), zero_map(1), 0.0, 2.0, 11)
    assert rep.fold_degenerate
    assert rep.r_c_fold is None


def test_two_dimensional_double_flip_flagged_even():
    rep = find_critical_r(scale_map(2, 0.5), scale_map(2, -1.0), 0.0, 2.0, 21)
    flips = [b for b in rep.roots if b.kind == "flip"]
    assert len(flips) == 1
    assert flips[0].r == pytest.approx(1.5, abs=1e-6)
    assert flips[0].even_multiplicity


def test_logistic_flip_matches_sweep_transition():
    phi = zero_map(1)
    obs = logistic_observer()
    rep = find_critical_r(phi, obs, 2.5, 3.4, 10, x0=[0.5])
    assert rep.r_c_flip == pytest.approx(3.0, abs=1e-6)
    grid = np.linspace(2.8, 3.2, 21)
    diag = sweep_bifurcation(phi, obs, grid, transient=3000, sample=64, x0=[0.5])
    last_fp = max(row.r for row in diag.rows if row.attractor == "fixed-point")
    first_p2 = min(row.r for row in diag.rows if row.attractor == "period-2")
    cell = grid[1] - grid[0]
    assert last_fp <= rep.r_c_flip + cell + 1e-9
    assert first_p2 >= rep.r_c_flip - cell - 1e-9


@pytest.mark.parametrize("c", [0.955, 0.965, 0.98, 1.02, 1.035])
def test_flip_recovered_when_bisection_midpoint_stalls(c):
    # the damped solve stalls at the first bisection midpoint of the flip
    # bracket for these observer scales; a point beside it carries on
    obs = PolynomialMap(1, (((c, (1,)), (-c, (2,))),))
    rep = find_critical_r(zero_map(1), obs, 2.5, 3.4, 91, x0=[0.5])
    assert abs(rep.r_c_flip - 3.0 / c) <= 1e-6


# --- sweeps ---------------------------------------------------------------------


def test_sweep_constant_families():
    phi = scale_map(1, 0.5)
    diag = sweep_bifurcation(phi, zero_map(1), [0.1, 0.2, 0.3],
                             transient=50, sample=8, x0=[1.0])
    assert all(row.attractor == "fixed-point" for row in diag.rows)
    diag = sweep_bifurcation(scale_map(1, 2.0), zero_map(1), [0.1, 0.2],
                             transient=50, sample=8, x0=[1.0])
    assert all(row.attractor == "divergent" for row in diag.rows)


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


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("family", ["logistic", "pipeline2"])
def test_sweep_rows_match_scalar_reference(family):
    if family == "logistic":
        phi, obs, x0 = zero_map(1), logistic_observer(), [0.5]
        grid = np.linspace(2.5, 4.3, 37)   # fixed point, cycles, chaos, escape
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
    assert [repr(row) for row in diag.rows] == [repr(row) for row in want]
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
    states = tuple(CoupledState(np.array([0.0]), np.array([0.0]))
                   for _ in range(n))
    return Trajectory(states, r=0.0)


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
    xs = [s.x[0] for s in traj.states]
    os_ = [s.o[0] for s in traj.states]
    assert xs == pytest.approx([1.0, 0.5, 0.25, 0.125, 0.0625])
    assert os_ == pytest.approx([1.0, 1.0, 0.25, 0.25, 0.0625])


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
