"""Damped observer cascades on a real vector space.

The cascade operator is the affine combination  C = Lambda*I + sum_i
(1 - lambda_i) * theta_i  with Lambda the product of the damping factors
and each theta_i a real matrix of finite multiplicative order.  This
module builds C, extracts its fixed directions, takes its full spectrum
from LAPACK and re-verifies every eigenvalue by an inverse-iteration
residual, and evaluates the convex-hull containment of the spectrum as
an empirical verdict (the containment fails on easy examples and is
never asserted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._formats import fmt_real
from .errors import (
    DimensionCapError,
    DimMismatchError,
    NoConvergenceError,
    NonFiniteError,
    PeriodMismatchError,
    UndefinedClaimError,
)
from .phase import RationalPhase

__all__ = [
    "LinOp",
    "CascadeStage",
    "CascadeSpec",
    "SpectrumReport",
    "build_cascade",
    "cascade_fixed_points",
    "spectrum",
    "check_hull_claim",
    "check_commuting",
    "spectrum_to_csv",
]

DIM_CAP = 64
PERIOD_TOL = 1e-9
PIVOT_RTOL = 1e-10
RESIDUAL_TOL = 1e-6
_EPS = float(np.finfo(np.float64).eps)


def _check_dim(n: int) -> None:
    if n > DIM_CAP:
        raise DimensionCapError(f"dimension {n} exceeds cap {DIM_CAP}")


@dataclass(frozen=True)
class LinOp:
    """A dense square real operator with immutable entries."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimMismatchError(f"operator must be square, got shape {arr.shape}")
        _check_dim(arr.shape[0])
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("operator entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def rotation(cls, turns: RationalPhase, dim: int = 2,
                 plane: tuple[int, int] = (0, 1)) -> "LinOp":
        """Plane rotation by a rational fraction of a full turn.

        Quarter-turn multiples produce exact integer entries so damping
        identities on them hold to the last bit.
        """
        if 4 % turns.denominator == 0:
            quarter = (turns.numerator * 4 // turns.denominator) % 4
            cos_a, sin_a = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)][quarter]
        else:
            angle = 2.0 * math.pi * turns.numerator / turns.denominator
            cos_a, sin_a = math.cos(angle), math.sin(angle)
        i, j = plane
        _check_dim(dim)  # before the dim x dim allocation
        m = np.eye(dim)
        m[i, i] = cos_a
        m[i, j] = -sin_a
        m[j, i] = sin_a
        m[j, j] = cos_a
        return cls(m)

    @classmethod
    def permutation(cls, perm: Sequence[int]) -> "LinOp":
        """Matrix sending basis vector j to basis vector perm[j]."""
        n = len(perm)
        _check_dim(n)  # before the n x n allocation
        if sorted(perm) != list(range(n)):
            raise DimMismatchError(f"{list(perm)} is not a permutation of 0..{n - 1}")
        m = np.zeros((n, n))
        for j, i in enumerate(perm):
            m[i, j] = 1.0
        return cls(m)

    def __matmul__(self, other: "LinOp") -> "LinOp":
        if self.dim != other.dim:
            raise DimMismatchError("operator dimensions differ")
        return LinOp(self.entries @ other.entries)

    def power(self, k: int) -> "LinOp":
        """self^k (k >= 0) by repeated squaring, in O(log k) products."""
        out = np.eye(self.dim)
        square = self.entries
        while k:
            if k & 1:
                out = out @ square
            k >>= 1
            if k:
                square = square @ square
        return LinOp(out)


def matrix_order_defect(theta: LinOp, period: int) -> float:
    """Entrywise distance of theta^period from the identity (inf on overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            power = theta.power(period)
        except NonFiniteError:
            return math.inf
    return float(np.max(np.abs(power.entries - np.eye(theta.dim))))


@dataclass(frozen=True)
class CascadeStage:
    """One damped observer: damping factor in [0, 1] plus a finite-order matrix."""

    lam: float
    theta: LinOp
    period: int

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise DimMismatchError(f"damping factor {self.lam} outside [0, 1]")
        if self.period < 1:
            raise PeriodMismatchError("declared period must be >= 1")
        defect = matrix_order_defect(self.theta, self.period)
        if defect > PERIOD_TOL:
            raise PeriodMismatchError(
                f"theta^{self.period} differs from the identity by {defect:.3e}"
            )


@dataclass(frozen=True)
class CascadeSpec:
    stages: tuple[CascadeStage, ...]

    def __post_init__(self):
        if not self.stages:
            raise DimMismatchError("cascade needs at least one stage")
        dims = {s.theta.dim for s in self.stages}
        if len(dims) != 1:
            raise DimMismatchError(f"stage dimensions differ: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.stages[0].theta.dim

    @property
    def contraction(self) -> float:
        out = 1.0
        for s in self.stages:
            out *= s.lam
        return out


def build_cascade(spec: CascadeSpec) -> LinOp:
    """C = (prod lambda_i) I + sum (1 - lambda_i) theta_i."""
    n = spec.dim
    c = spec.contraction * np.eye(n)
    for s in spec.stages:
        c = c + (1.0 - s.lam) * s.theta.entries
    return LinOp(c)


def cascade_fixed_points(C: LinOp, tol: float = PIVOT_RTOL) -> list[np.ndarray]:
    """Orthonormal basis of the fixed directions, null(I - C).

    Gaussian elimination with partial pivoting; a pivot below tol times
    the largest entry of I - C counts as zero.  An empty list means only
    the trivial fixed point.
    """
    n = C.dim
    a = np.eye(n) - C.entries
    scale = float(np.max(np.abs(a)))
    # I - C that is pure roundoff relative to C counts as the zero matrix
    noise_floor = 64.0 * _EPS * max(1.0, float(np.max(np.abs(C.entries))))
    if scale <= noise_floor:
        return [np.eye(n)[:, k] for k in range(n)]
    thresh = tol * scale
    a = a.copy()
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row >= n:
            break
        p = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[p, col]) <= thresh:
            continue
        a[[row, p]] = a[[p, row]]
        a[row] /= a[row, col]
        # one rank-1 update clears the column; rows already zero there are
        # left alone, so a -0.0 entry keeps its sign
        rows = a[:, col] != 0.0
        rows[row] = False
        a[rows] -= np.outer(a[rows, col], a[row])
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
    # modified Gram-Schmidt; deterministic order from the free columns
    ortho: list[np.ndarray] = []
    for v in basis:
        w = v.copy()
        for u in ortho:
            w -= (u @ w) * u
        norm = float(np.linalg.norm(w))
        if norm > thresh:
            ortho.append(w / norm)
    return ortho


# --- spectrum: LAPACK eigenvalues, each one re-verified ------------------


def _eigenvector_residual(a: np.ndarray, lam: complex) -> float:
    """Relative residual of an eigenvector extracted by inverse iteration."""
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
    b = a.astype(complex) - lam * np.eye(n)
    v = np.ones(n, dtype=complex) / math.sqrt(n)
    nudge = _EPS * scale
    for _ in range(5):
        try:
            w = np.linalg.solve(b, v)
        except np.linalg.LinAlgError:
            b = b + nudge * np.eye(n)
            nudge *= 16.0
            continue
        norm = float(np.linalg.norm(w))
        if not math.isfinite(norm) or norm == 0.0:
            b = b + nudge * np.eye(n)
            nudge *= 16.0
            continue
        v = w / norm
    return float(np.linalg.norm(a @ v - lam * v) / np.linalg.norm(v))


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues with multiplicity, sorted by (real, imaginary) part."""

    eigenvalues: tuple[complex, ...]
    max_modulus: float
    residuals: tuple[float, ...]
    hull_check: tuple[bool, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [{"re": ev.real, "im": ev.imag}
                            for ev in self.eigenvalues],
            "max_modulus": self.max_modulus,
            "residuals": list(self.residuals),
            "hull_check": list(self.hull_check) if self.hull_check is not None else None,
        }


def spectrum(C: LinOp) -> SpectrumReport:
    """Full spectrum of C from LAPACK (numpy.linalg.eigvals, i.e. geev).

    Every eigenvalue is re-verified after the solve: an eigenvector is
    extracted by inverse iteration and must satisfy the relative residual
    bound, with a determinant fallback for extreme cases.  Verification
    failure raises NoConvergenceError rather than returning silently.
    """
    n = C.dim
    try:
        eigs = [complex(ev) for ev in np.linalg.eigvals(C.entries)]
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigenvalue solve failed: {exc}") from exc
    eigs.sort(key=lambda ev: (ev.real, ev.imag))
    residuals = []
    scale = max(1.0, float(np.max(np.abs(C.entries))) if n else 1.0)
    # C is real, so A v - lam v = r gives A conj(v) - conj(lam) conj(v) =
    # conj(r): an exact conjugate (or repeat) has the same residual, bit for bit
    shared: dict[complex, float] = {}
    for ev in eigs:
        key = ev.conjugate() if ev.imag < 0.0 else ev
        res = shared.get(key)
        if res is None:
            res = shared[key] = _eigenvector_residual(C.entries, ev)
        if res > RESIDUAL_TOL:
            detval = abs(np.linalg.det(C.entries.astype(complex)
                                       - ev * np.eye(n)))
            if detval > RESIDUAL_TOL * scale ** n:
                raise NoConvergenceError(
                    f"eigenvalue {ev} failed verification "
                    f"(residual {res:.3e}, |det| {detval:.3e})"
                )
        residuals.append(res)
    max_mod = max((abs(ev) for ev in eigs), default=0.0)
    return SpectrumReport(tuple(eigs), float(max_mod), tuple(residuals))


def check_hull_claim(report: SpectrumReport, spec: CascadeSpec,
                     tol: float = 1e-6) -> list[bool]:
    """Is each eigenvalue inside the convex hull of {1} and the 1/lambda_i?

    The hull of real points is a segment on the real axis, so membership
    requires a near-real eigenvalue inside the segment.  The verdicts are
    an empirical finding about the containment claim, never an assertion.
    """
    lams = [s.lam for s in spec.stages]
    if any(l == 0.0 for l in lams):
        raise UndefinedClaimError("hull is undefined when some damping factor is 0")
    points = [1.0] + [1.0 / l for l in lams]
    lo, hi = min(points), max(points)
    verdicts = []
    for ev in report.eigenvalues:
        inside = abs(ev.imag) <= tol and lo - tol <= ev.real <= hi + tol
        verdicts.append(inside)
    return verdicts


def check_commuting(theta_i: LinOp, theta_j: LinOp,
                    tol: float = 1e-9) -> tuple[bool, float]:
    """Commutator check; returns the verdict and the max-abs commutator norm."""
    if theta_i.dim != theta_j.dim:
        raise DimMismatchError("operators have different dimensions")
    comm = theta_i.entries @ theta_j.entries - theta_j.entries @ theta_i.entries
    norm = float(np.max(np.abs(comm))) if comm.size else 0.0
    return norm <= tol, norm


def spectrum_to_csv(report: SpectrumReport) -> str:
    lines = ["re,im,modulus,hull_ok"]
    hull = report.hull_check
    for i, ev in enumerate(report.eigenvalues):
        flag = "" if hull is None else str(hull[i]).lower()
        lines.append(",".join([
            fmt_real(ev.real), fmt_real(ev.imag), fmt_real(abs(ev)), flag,
        ]))
    return "\n".join(lines) + "\n"
