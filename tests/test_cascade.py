import math

import numpy as np
import pytest

from veridyn import cascade
from veridyn.cascade import (
    CascadeSpec,
    CascadeStage,
    LinOp,
    build_cascade,
    cascade_fixed_points,
    check_commuting,
    check_hull_claim,
    spectrum,
    spectrum_to_csv,
)
from veridyn.errors import (
    DimensionCapError,
    DimMismatchError,
    NonFiniteError,
    PeriodMismatchError,
    UndefinedClaimError,
)
from veridyn.phase import RationalPhase

QUARTER = RationalPhase(1, 4)
HALF = RationalPhase(1, 2)


def _match_sets(got, want, tol):
    want = list(want)
    worst = 0.0
    for g in got:
        j = int(np.argmin([abs(g - w) for w in want]))
        worst = max(worst, abs(g - want.pop(j)))
    return worst <= tol


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


# --- LinOp validation -------------------------------------------------------


def test_linop_validation():
    with pytest.raises(DimMismatchError):
        LinOp(np.zeros((2, 3)))
    with pytest.raises(NonFiniteError):
        LinOp([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionCapError):
        LinOp(np.eye(65))
    op = LinOp(np.eye(3))
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0  # read-only


def test_rotation_quarter_turns_exact():
    assert np.array_equal(LinOp.rotation(HALF).entries, -np.eye(2))
    assert np.array_equal(LinOp.rotation(QUARTER).entries,
                          np.array([[0.0, -1.0], [1.0, 0.0]]))
    third = LinOp.rotation(RationalPhase(1, 3))
    assert third.entries[0, 0] == pytest.approx(-0.5)


def test_permutation_matrix_and_period():
    op = LinOp.permutation([1, 2, 0])
    assert np.array_equal(op.power(3).entries, np.eye(3))
    with pytest.raises(DimMismatchError):
        LinOp.permutation([0, 0, 1])


def test_stage_period_validated():
    CascadeStage(0.5, LinOp.rotation(QUARTER), 4)
    with pytest.raises(PeriodMismatchError):
        CascadeStage(0.5, LinOp.rotation(QUARTER), 3)
    with pytest.raises(PeriodMismatchError):
        CascadeStage(0.5, LinOp([[2.0]]), 1)
    with pytest.raises(DimMismatchError):
        CascadeStage(1.5, LinOp(np.eye(2)), 1)


def test_spec_requires_uniform_dims():
    with pytest.raises(DimMismatchError):
        CascadeSpec((CascadeStage(1.0, LinOp(np.eye(2)), 1),
                     CascadeStage(1.0, LinOp(np.eye(3)), 1)))


# --- build_cascade -----------------------------------------------------------


def test_all_lambda_one_gives_identity_exactly():
    spec = CascadeSpec(tuple(
        CascadeStage(1.0, LinOp.rotation(QUARTER), 4) for _ in range(3)))
    c = build_cascade(spec)
    assert float(np.max(np.abs(c.entries - np.eye(2)))) == 0.0


def test_half_damped_half_turn_cancels():
    spec = CascadeSpec((CascadeStage(0.5, LinOp.rotation(HALF), 2),))
    c = build_cascade(spec)
    assert np.array_equal(c.entries, np.zeros((2, 2)))


def test_half_damped_quarter_turn_matrix():
    spec = CascadeSpec((CascadeStage(0.5, LinOp.rotation(QUARTER), 4),))
    c = build_cascade(spec)
    assert np.array_equal(c.entries, np.array([[0.5, -0.5], [0.5, 0.5]]))


def test_affine_in_each_stage_exact_delta():
    # dyadic damping factors keep every float operation exact
    theta = LinOp.permutation([1, 0, 2])
    base = CascadeSpec((CascadeStage(0.5, theta, 2),
                        CascadeStage(0.25, LinOp(np.eye(3)), 1)))
    halved = CascadeSpec((CascadeStage(0.25, theta, 2),
                          CascadeStage(0.25, LinOp(np.eye(3)), 1)))
    c0 = build_cascade(base)
    c1 = build_cascade(halved)
    delta = (halved.contraction - base.contraction) * np.eye(3) \
        + (0.5 - 0.25) * theta.entries
    assert np.array_equal(c1.entries - c0.entries, delta)


# --- fixed points -------------------------------------------------------------


def test_fixed_points_identity_full_space():
    basis = cascade_fixed_points(LinOp(np.eye(4)))
    assert len(basis) == 4
    gram = np.array([[u @ v for v in basis] for u in basis])
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_fixed_points_zero_matrix_trivial():
    assert cascade_fixed_points(LinOp(np.zeros((3, 3)))) == []


def test_fixed_points_diagonal():
    basis = cascade_fixed_points(LinOp(np.diag([1.0, 0.5])))
    assert len(basis) == 1
    assert np.allclose(np.abs(basis[0]), [1.0, 0.0])


def test_fixed_points_satisfy_residual_bound():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(0, n + 1))
        q = _random_orthogonal(rng, n)
        eigs = np.concatenate([np.ones(k), rng.uniform(-0.8, 0.8, n - k)])
        c = LinOp(q @ np.diag(eigs) @ q.T)
        basis = cascade_fixed_points(c, tol=1e-10)
        assert len(basis) == k
        for v in basis:
            resid = float(np.max(np.abs(c.entries @ v - v)))
            assert resid <= 10 * 1e-10 * float(np.max(np.abs(v))) + 1e-12


# Reference for cascade_fixed_points: the same elimination, clearing each
# pivot column one row at a time instead of with one masked rank-1 update.


def _fixed_points_rowwise(C, tol=cascade.PIVOT_RTOL):
    n = C.dim
    a = np.eye(n) - C.entries
    scale = float(np.max(np.abs(a)))
    noise_floor = 64.0 * cascade._EPS * max(1.0, float(np.max(np.abs(C.entries))))
    if scale <= noise_floor:
        return [np.eye(n)[:, k] for k in range(n)]
    thresh = tol * scale
    a = a.copy()
    pivots = []
    row = 0
    for col in range(n):
        if row >= n:
            break
        p = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[p, col]) <= thresh:
            continue
        a[[row, p]] = a[[p, row]]
        a[row] /= a[row, col]
        for r in range(n):
            if r != row and a[r, col] != 0.0:
                a[r] -= a[r, col] * a[row]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = np.zeros(n)
        v[fc] = 1.0
        for i, pc in enumerate(pivots):
            v[pc] = -a[i, fc]
        basis.append(v)
    ortho = []
    for v in basis:
        w = v.copy()
        for u in ortho:
            w -= (u @ w) * u
        norm = float(np.linalg.norm(w))
        if norm > thresh:
            ortho.append(w / norm)
    return ortho


def _bits(basis):
    return [v.tobytes() for v in basis]


def _seeded_cascade(seed, lengths, turns=()):
    """A dim-64 cascade: a damped permutation whose cycle lengths are drawn
    from `lengths`, then one damped rotation per (p, q) in `turns`, each in a
    seeded plane."""
    rng = np.random.default_rng(seed)
    n = 64
    order = [int(i) for i in rng.permutation(n)]
    perm, period, i = [0] * n, 1, 0
    while i < n:
        k = min(int(rng.choice(lengths)), n - i)
        cycle = order[i:i + k]
        for j, v in enumerate(cycle):
            perm[v] = cycle[(j + 1) % k]
        period = math.lcm(period, k)
        i += k
    stages = [CascadeStage(float(rng.uniform(0.3, 0.8)), LinOp.permutation(perm), period)]
    for p, q in turns:
        plane = tuple(int(a) for a in rng.choice(n, 2, replace=False))
        phase = RationalPhase(p, q)
        stages.append(CascadeStage(float(rng.uniform(0.3, 0.8)),
                                   LinOp.rotation(phase, dim=n, plane=plane),
                                   phase.denominator))
    return build_cascade(CascadeSpec(tuple(stages)))


SEEDED_64 = {
    "one 64-cycle, two rotations": [
        _seeded_cascade(s, (64,), ((1, 3), (5, 12))) for s in (1, 2, 3)],
    "short cycles": [_seeded_cascade(s, (1, 2, 3, 4)) for s in (4, 5, 6)],
    "short cycles, quarter turns": [
        _seeded_cascade(s, (1, 2, 4), ((1, 4), (3, 4))) for s in (7, 8, 9)],
}


def _up_to_conjugation(eigenvalues):
    return {ev.conjugate() if ev.imag < 0.0 else ev for ev in eigenvalues}


def test_fixed_points_match_rowwise_elimination_bitwise():
    rng = np.random.default_rng(3)
    ops = [LinOp(np.eye(4)), LinOp(np.zeros((3, 3))), LinOp(np.diag([1.0, 0.5]))]
    for _ in range(25):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(0, n + 1))
        q = _random_orthogonal(rng, n)
        eigs = np.concatenate([np.ones(k), rng.uniform(-0.8, 0.8, n - k)])
        ops.append(LinOp(q @ np.diag(eigs) @ q.T))
    # single-stage short-cycle permutations: one fixed direction per cycle
    ops += [_seeded_cascade(s, (1, 2, 3, 4)) for s in range(10, 16)]
    ops += [op for group in SEEDED_64.values() for op in group]
    nonempty = 0
    for op in ops:
        basis = cascade_fixed_points(op)
        assert _bits(basis) == _bits(_fixed_points_rowwise(op))
        nonempty += bool(basis)
    assert nonempty >= 10


def test_fixed_points_keep_negative_zero():
    # the pivot row of column 1 is divided by -1, so the pivot row of column 0
    # holds -0.0 in column 2, where it must stay: the mask skips that row
    # because its column-1 entry is already zero
    c = LinOp([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, -1.0]])
    basis = cascade_fixed_points(c)
    assert _bits(basis) == _bits(_fixed_points_rowwise(c))
    assert np.signbit(basis[0]).tolist() == [False, False, True]


# --- spectrum ------------------------------------------------------------------


@pytest.mark.parametrize("group", list(SEEDED_64))
def test_spectrum_shared_residuals_are_the_per_eigenvalue_bits(group):
    for op in SEEDED_64[group]:
        rep = spectrum(op)
        assert len(_up_to_conjugation(rep.eigenvalues)) < op.dim
        for ev, res in zip(rep.eigenvalues, rep.residuals):
            assert res == cascade._eigenvector_residual(op.entries, ev)


def test_spectrum_verifies_once_per_eigenvalue_up_to_conjugation(monkeypatch):
    verify = cascade._eigenvector_residual
    calls = []

    def counted(a, lam):
        calls.append(lam)
        return verify(a, lam)

    monkeypatch.setattr(cascade, "_eigenvector_residual", counted)
    for group in SEEDED_64.values():
        for op in group:
            calls.clear()
            rep = spectrum(op)
            assert len(rep.residuals) == op.dim
            assert len(calls) == len(_up_to_conjugation(rep.eigenvalues))
    calls.clear()
    rep = spectrum(SEEDED_64["one 64-cycle, two rotations"][0])
    # two real eigenvalues and 31 conjugate pairs
    assert sum(ev.imag != 0.0 for ev in rep.eigenvalues) == 62
    assert len(calls) == 33


def test_spectrum_diagonal():
    rep = spectrum(LinOp(np.diag([0.3, 0.7])))
    assert rep.eigenvalues == (complex(0.3), complex(0.7))
    assert rep.max_modulus == pytest.approx(0.7, abs=1e-15)


def test_spectrum_damped_quarter_rotation():
    spec = CascadeSpec((CascadeStage(0.5, LinOp.rotation(QUARTER), 4),))
    rep = spectrum(build_cascade(spec))
    assert _match_sets(rep.eigenvalues, [0.5 + 0.5j, 0.5 - 0.5j], 1e-9)
    assert all(r <= 1e-6 for r in rep.residuals)


def test_spectrum_nilpotent():
    rep = spectrum(LinOp([[0.0, 1.0], [0.0, 0.0]]))
    assert rep.eigenvalues == (0j, 0j)


# Closed-form oracles: each builder returns a matrix and its exact spectrum,
# computed without an eigensolver.


def _unit(turns):
    return complex(np.cos(2 * np.pi * turns), np.sin(2 * np.pi * turns))


def _damped_permutation(rng, n):
    """lam I + (1 - lam) P: a cycle of length L gives lam + (1 - lam) w, w^L = 1."""
    order = [int(i) for i in rng.permutation(n)]
    perm = [0] * n
    lam = float(rng.uniform(0.1, 0.9))
    eigs = []
    i = 0
    while i < n:
        length = int(rng.integers(1, n - i + 1))
        cycle = order[i:i + length]
        for j, v in enumerate(cycle):
            perm[v] = cycle[(j + 1) % length]
        eigs += [lam + (1 - lam) * _unit(k / length) for k in range(length)]
        i += length
    return lam * np.eye(n) + (1 - lam) * LinOp.permutation(perm).entries, eigs


def _plane_rotations(rng, n):
    """Rotations by p/q turns in disjoint seeded planes: exp(+-2 pi i p/q), else 1."""
    order = [int(i) for i in rng.permutation(n)]
    a = np.eye(n)
    eigs = [1.0 + 0j] * n
    for k in range(int(rng.integers(0, n // 2 + 1))):
        q = int(rng.integers(2, 13))
        p = int(rng.integers(1, q))
        plane = (order[2 * k], order[2 * k + 1])
        a = a @ LinOp.rotation(RationalPhase(p, q), dim=n, plane=plane).entries
        eigs[2 * k:2 * k + 2] = [_unit(p / q), _unit(-p / q)]
    return a, eigs


def _triangular(rng, n):
    """Upper or lower triangular: the spectrum is the (distinct) diagonal."""
    diag = 0.5 * rng.permutation(np.arange(-n, n + 1))[:n]
    a = rng.uniform(-1.0, 1.0, (n, n))
    a = np.triu(a, 1) if rng.integers(2) else np.tril(a, -1)
    return a + np.diag(diag), [complex(d) for d in diag]


REAL_ROOTS = (-2, -1, 0, 1, 2)
PAIR_ROOTS = (1j, 2j, 1 + 1j, -1 + 1j, 1 + 2j, -1 + 2j, 2 + 1j, -2 + 1j)


def _companion(rng, n):
    """Companion matrix of a polynomial with distinct Gaussian-integer roots.

    The roots are closed under conjugation and small, so the coefficients
    are integers held exactly in floating point.
    """
    min_pairs = max(0, -(-(n - len(REAL_ROOTS)) // 2))
    pairs = int(rng.integers(min_pairs, n // 2 + 1))
    upper = [complex(z) for z in rng.choice(PAIR_ROOTS, pairs, replace=False)]
    roots = [complex(r) for r in rng.choice(REAL_ROOTS, n - 2 * pairs, replace=False)]
    roots += upper + [z.conjugate() for z in upper]
    coeffs = np.real(np.poly(roots))
    a = np.zeros((n, n))
    a[0] = -coeffs[1:]
    a[np.arange(1, n), np.arange(n - 1)] = 1.0
    return a, roots


def test_spectrum_matches_closed_form_oracle():
    rng = np.random.default_rng(21)
    builders = (_damped_permutation, _plane_rotations, _triangular, _companion)
    for case in range(40):
        n = int(rng.integers(1, 11))
        a, want = builders[case % len(builders)](rng, n)
        assert len(want) == n
        rep = spectrum(LinOp(a))
        assert _match_sets(rep.eigenvalues, want, 1e-8)


def test_spectral_mapping_single_stage():
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        theta = LinOp(_random_orthogonal(rng, n))
        lam = float(rng.uniform(0.1, 0.9))
        c = LinOp(lam * np.eye(n) + (1 - lam) * theta.entries)
        mapped = [lam + (1 - lam) * mu for mu in spectrum(theta).eigenvalues]
        assert _match_sets(spectrum(c).eigenvalues, mapped, 1e-6)


def test_spectrum_residuals_rechecked():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((8, 8))
    rep = spectrum(LinOp(a))
    for ev, res in zip(rep.eigenvalues, rep.residuals):
        assert res <= 1e-6


# --- hull claim -----------------------------------------------------------------


def test_hull_identity_case():
    spec = CascadeSpec((CascadeStage(1.0, LinOp(np.eye(2)), 1),))
    rep = spectrum(build_cascade(spec))
    assert check_hull_claim(rep, spec) == [True, True]


def test_hull_counterexample_reported_outside():
    spec = CascadeSpec((CascadeStage(0.5, LinOp.rotation(QUARTER), 4),))
    rep = spectrum(build_cascade(spec))
    verdicts = check_hull_claim(rep, spec)
    assert verdicts == [False, False]  # 0.5 +/- 0.5i is not in [1, 2]


def test_hull_undefined_for_zero_damping():
    spec = CascadeSpec((CascadeStage(0.0, LinOp(np.eye(2)), 1),))
    rep = spectrum(build_cascade(spec))
    with pytest.raises(UndefinedClaimError):
        check_hull_claim(rep, spec)


# --- commutation -----------------------------------------------------------------


def test_commuting_self_and_planar_rotations():
    r1 = LinOp.rotation(QUARTER)
    ok, norm = check_commuting(r1, r1)
    assert ok and norm == 0.0
    r2 = LinOp.rotation(RationalPhase(1, 8))
    ok, norm = check_commuting(r1, r2)
    assert ok and norm <= 1e-15


def test_non_commuting_pair_detected():
    r = LinOp.rotation(QUARTER, dim=3, plane=(0, 1))
    swap = LinOp.permutation([0, 2, 1])
    ok, norm = check_commuting(r, swap, tol=1e-9)
    assert not ok and norm > 0.5


def test_commuting_implies_order_free_composite():
    a = build_cascade(CascadeSpec((CascadeStage(0.5, LinOp.rotation(QUARTER), 4),)))
    b = build_cascade(CascadeSpec((CascadeStage(0.25, LinOp.rotation(HALF), 2),)))
    ab = b @ a
    ba = a @ b
    assert float(np.max(np.abs(ab.entries - ba.entries))) <= 1e-6


def test_csv_export():
    spec = CascadeSpec((CascadeStage(0.5, LinOp.rotation(QUARTER), 4),))
    rep = spectrum(build_cascade(spec))
    from dataclasses import replace
    rep = replace(rep, hull_check=tuple(check_hull_claim(rep, spec)))
    csv = spectrum_to_csv(rep)
    lines = csv.splitlines()
    assert lines[0] == "re,im,modulus,hull_ok"
    assert len(lines) == 3
    assert lines[1].split(",")[3] == "false"
