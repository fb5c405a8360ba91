"""Entropy bookkeeping: Shannon entropy and its accumulation bounds.

Entropy values are base-2 (bits); the growth bounds use the natural log,
with the constants C and K absorbing the base.  The classical postulate
that entropy never decreases under transitions is treated as a checked
property that may fail: deterministic maps contract entropy, and
`entropy_direction_report` lists the steps of a trace that move against
either direction, for `entropy_report.json` to report, never to enforce.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from ._formats import fmt_real
from .category import FinMor, FinObj
from .errors import (
    DomainError,
    InvalidDistributionError,
    LengthMismatchError,
    ShapeMismatchError,
)

__all__ = [
    "ProbState",
    "EntropyParams",
    "TraceStep",
    "shannon_entropy",
    "histogram_cells",
    "ledger_work",
    "prefix_entropies",
    "pushforward",
    "check_observation_bound",
    "total_entropy_bound",
    "build_trace",
    "entropy_direction_report",
    "trace_to_csv",
]

NORMALIZATION_TOL = 1e-12
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class ProbState:
    """A probability vector over the elements of a finite carrier."""

    carrier: FinObj
    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(map(float, self.probs))
        object.__setattr__(self, "probs", probs)
        if len(probs) != self.carrier.size:
            raise InvalidDistributionError(
                f"{len(probs)} probabilities for carrier of size {self.carrier.size}"
            )
        # written so that NaN fails both tests
        if not all(p >= 0.0 for p in probs):
            raise InvalidDistributionError("negative or NaN probability")
        if not abs(sum(probs) - 1.0) <= NORMALIZATION_TOL:
            raise InvalidDistributionError(
                f"probabilities sum to {sum(probs)!r}, not 1"
            )

    @classmethod
    def uniform(cls, carrier: FinObj) -> "ProbState":
        if carrier.size == 0:
            raise InvalidDistributionError("no distribution on an empty carrier")
        return cls(carrier, tuple(1.0 / carrier.size for _ in carrier.elements))


@dataclass(frozen=True)
class EntropyParams:
    """Bound constants: per-step growth C, observation injection K, weight alpha."""

    C: float = 0.0
    K: float = 0.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.C < 0 or self.K < 0:
            raise DomainError("C and K must be non-negative")
        if self.alpha <= 0:
            raise DomainError("alpha must be positive")


def _entropy_bits(probs: Sequence[float]) -> float:
    # left to right: sum() of floats is compensated from Python 3.12 on
    total = 0.0
    for q in probs:
        if q > 0.0:
            total += q * math.log2(q)
    return -total + 0.0


def shannon_entropy(p: ProbState) -> float:
    """Base-2 Shannon entropy, with 0 log 0 = 0."""
    return _entropy_bits(p.probs)


def histogram_cells(points: Sequence[Sequence[float]], bins: int, lo: float,
                    hi: float) -> list[tuple[int, ...]]:
    """The ledger cell of each point, one coordinate at a time.

    Each coordinate is cut into `bins` equal cells on [lo, hi], the end
    cells taking what lies outside.
    """
    span = hi - lo
    top = bins - 1
    # in Python floats, which overflow to inf without a warning.  The cell is
    # int(min(top, max(0.0, q))) written as one comparison chain: an
    # overflowing or NaN quotient never reaches int()
    return list(zip(*[
        [int(q) if 0.0 < (q := (float(v) - lo) / span * bins) < top
         else top if q > 0.0 else 0 for v in coord]
        for coord in zip(*points)]))


def ledger_work(cells: Sequence[tuple[int, ...]]) -> int:
    """The terms prefix_entropies sums over `cells`: after each cell, the
    number of distinct cells seen so far."""
    n = len(cells)
    # each cell's first step i, kept over its later ones by walking backwards;
    # from there on it is one of the terms at each of the n - i steps
    first = dict(zip(reversed(cells), range(n - 1, -1, -1)))
    return len(first) * n - sum(first.values())


def prefix_entropies(cells: Sequence[tuple[int, ...]]) -> list[float]:
    """Entropy of the histogram of the cells seen so far, after each cell.

    Only visited cells are stored.  Each step makes one pass over them in
    sorted cell order, adding each probability into the normalization mass
    it checks and its q log2 q into the entropy, so the entropy is
    `shannon_entropy` of the ProbState over all bins**dim cells bit for bit.
    """
    visited: list[tuple[int, ...]] = []  # sorted
    counts: list[int] = []  # counts[i] is the count of visited[i]
    out = []
    for n, cell in enumerate(cells, start=1):
        i = bisect_left(visited, cell)
        if i < len(visited) and visited[i] == cell:
            counts[i] += 1
        else:
            visited.insert(i, cell)
            counts.insert(i, 1)
        mass = total = 0.0
        for c in counts:
            q = c / n
            mass += q
            total += q * math.log2(q)
        if not abs(mass - 1.0) <= NORMALIZATION_TOL:
            raise InvalidDistributionError(f"probabilities sum to {mass!r}, not 1")
        out.append(-total + 0.0)
    return out


def pushforward(p: ProbState, f: FinMor) -> ProbState:
    """Image distribution q(y) = sum of p over the fiber of y.

    f's targets and p's probabilities both run in the sorted order of the
    common source, so they pair up positionally; each fiber is summed in
    that order into its target position.
    """
    if f.src != p.carrier:
        raise ShapeMismatchError(
            f"distribution lives on {p.carrier.id!r}, map starts at {f.src.id!r}"
        )
    mass = [0.0] * f.dst.size
    for j, q in zip(f.targets, p.probs):
        mass[j] += q
    return ProbState(f.dst, tuple(mass))


@dataclass(frozen=True)
class TraceStep:
    n: int
    H: float
    H_O: float
    step_bound_ok: bool
    obs_bound_ok: bool
    total_bound_ok: bool
    step_bound: float  # C ln(n + 1), the bound H(n+1) - H(n) was tested against
    obs_bound: float  # H(n) + K_n, the bound H_O(n+1) was tested against
    total_bound: float  # H(0) + C ln n + K_0 + ... + K_(n-1); H(0) + H_O(0) at n = 0

    def __post_init__(self):
        if self.H < 0 or self.H_O < 0:
            raise InvalidDistributionError("entropies must be non-negative")


def build_trace(H: Sequence[float], H_O: Sequence[float], params: EntropyParams,
                k_schedule: Sequence[float] | None = None) -> tuple[TraceStep, ...]:
    """Assemble a trace from per-step entropies and decide all three bounds.

    Step n carries the growth check for the step n -> n+1 (the final step
    trivially passes) and the observation check H_O(n+1) <= H(n) + K_n,
    each with the bound it tested, and the total bound after n rounds,
    which H(n) + H_O(n) must not exceed from n = 1 on.  A per-step
    schedule may override the constant K, in both K bounds.
    """
    if len(H) != len(H_O):
        raise LengthMismatchError("H and H_O sequences differ in length")
    steps = []
    spent = 0.0  # K_0 + ... + K_(n-1) under a schedule
    for n in range(len(H)):
        h, h_o = float(H[n]), float(H_O[n])
        step_bound = params.C * math.log(n + 1)
        step_ok = True
        obs_ok = True
        k_n = params.K
        total = h + h_o if n == 0 else total_entropy_bound(
            n, float(H[0]), params, None if k_schedule is None else spent)
        if n + 1 < len(H):
            step_ok = H[n + 1] - H[n] <= step_bound + BOUND_TOL
            if k_schedule is not None:
                k_n = float(k_schedule[n])
                spent += k_n
            obs_ok = check_observation_bound(H[n], H_O[n + 1], k_n)
        total_ok = not (n >= 1 and h + h_o > total + BOUND_TOL)
        steps.append(TraceStep(n, h, h_o, step_ok, obs_ok, total_ok,
                               step_bound, h + k_n, total))
    return tuple(steps)


def check_observation_bound(H_X: float, H_O_next: float, K: float) -> bool:
    """Observation injects at most K bits: H_O(next) <= H(current) + K."""
    if H_X < 0 or H_O_next < 0:
        raise DomainError("entropies must be non-negative")
    return H_O_next <= H_X + K + BOUND_TOL


def total_entropy_bound(n: int, H0: float, params: EntropyParams,
                        k_spent: float | None = None) -> float:
    """Accumulated budget H0 + C ln(n) + K_0 + ... + K_(n-1) after n >= 1 rounds.

    `k_spent` is that sum under a k_schedule; without one every K_i is K
    and the sum is n K.
    """
    if n < 1:
        raise DomainError("total bound starts at n = 1 (log of 0 is undefined)")
    return H0 + params.C * math.log(n) + (n * params.K if k_spent is None else k_spent)


def entropy_direction_report(H: Sequence[float]) -> tuple[list[int], list[int]]:
    """Steps n where the entropy trace H moves against either direction claim.

    The first list holds the steps with H(n+1) < H(n) - BOUND_TOL, where
    the non-decrease postulate fails; the second those with H(n+1) > H(n)
    + BOUND_TOL, where the contraction a deterministic map guarantees
    fails.  Both are findings, never verdicts.
    """
    steps = range(len(H) - 1)
    return ([n for n in steps if H[n + 1] < H[n] - BOUND_TOL],
            [n for n in steps if H[n + 1] > H[n] + BOUND_TOL])


def trace_to_csv(trace: Sequence[TraceStep]) -> str:
    """CSV rows n, H, H_O, step_bound, obs_bound, total_bound, violated_flags.

    The total bound column at n = 0 reports H(0) + H_O(0) directly since
    the accumulation formula starts at n = 1.
    """
    lines = ["n,H,H_O,step_bound,obs_bound,total_bound,violated_flags"]
    for s in trace:
        flags = [flag for flag, ok in (("step", s.step_bound_ok), ("obs", s.obs_bound_ok),
                                       ("total", s.total_bound_ok)) if not ok]
        lines.append(",".join([
            str(s.n), fmt_real(s.H), fmt_real(s.H_O), fmt_real(s.step_bound),
            fmt_real(s.obs_bound), fmt_real(s.total_bound), ";".join(flags),
        ]))
    return "\n".join(lines) + "\n"
