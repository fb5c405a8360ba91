"""Entropy bookkeeping: Shannon entropy, accumulation bounds, memory layers.

Entropy values are base-2 (bits); the growth bounds use the natural log,
with the constants C and K absorbing the base.  The classical postulate
that entropy never decreases under transitions is treated as a checked
property that may fail: deterministic maps contract entropy, and the
ledger reports violations in either direction instead of enforcing one.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from typing import Sequence

from ._formats import fmt_real
from .category import FinMor, FinObj
from .errors import (
    DomainError,
    InvalidDistributionError,
    LengthMismatchError,
    NotMonotoneError,
    ShapeMismatchError,
)

__all__ = [
    "ProbState",
    "EntropyParams",
    "TraceStep",
    "EntropyTrace",
    "Filtration",
    "shannon_entropy",
    "prefix_entropies",
    "pushforward",
    "check_step_bound",
    "check_observation_bound",
    "total_entropy_bound",
    "build_trace",
    "build_filtration",
    "memory_sequence",
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

    @classmethod
    def point_mass(cls, carrier: FinObj, element: str) -> "ProbState":
        return cls(carrier, tuple(1.0 if x == element else 0.0
                                  for x in carrier.elements))


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
    return -sum(q * math.log2(q) for q in probs if q > 0.0) + 0.0


def shannon_entropy(p: ProbState) -> float:
    """Base-2 Shannon entropy, with 0 log 0 = 0."""
    return _entropy_bits(p.probs)


def prefix_entropies(points: Sequence[Sequence[float]], bins: int, lo: float,
                     hi: float) -> list[float]:
    """Entropy of the histogram of the points seen so far, after each point.

    Each coordinate is cut into `bins` equal cells on [lo, hi], the end
    cells taking what lies outside.  Only visited cells are stored; summed
    in sorted cell order they give `shannon_entropy` of the ProbState over
    all bins**dim cells bit for bit.
    """
    span = hi - lo
    counts: dict[tuple[int, ...], int] = {}
    cells: list[tuple[int, ...]] = []
    out = []
    for n, vec in enumerate(points, start=1):
        # in Python floats, which overflow to inf without a warning; clamped
        # before int(), so an overflowing quotient lands in the end cell
        cell = tuple(int(min(bins - 1, max(0.0, (float(v) - lo) / span * bins)))
                     for v in vec)
        if cell not in counts:
            insort(cells, cell)
        counts[cell] = counts.get(cell, 0) + 1
        probs = [counts[c] / n for c in cells]
        if not abs(sum(probs) - 1.0) <= NORMALIZATION_TOL:
            raise InvalidDistributionError(f"probabilities sum to {sum(probs)!r}, not 1")
        out.append(_entropy_bits(probs))
    return out


def pushforward(p: ProbState, f: FinMor) -> ProbState:
    """Image distribution q(y) = sum of p over the fiber of y.

    f's table and p's probabilities both run in the sorted order of the
    common source, so they pair up positionally; each fiber is summed in
    that order into the slot the target's index gives its image.
    """
    if f.src != p.carrier:
        raise ShapeMismatchError(
            f"distribution lives on {p.carrier.id!r}, map starts at {f.src.id!r}"
        )
    index = f.dst.index
    mass = [0.0] * f.dst.size
    for y, q in zip(f.mapping.values(), p.probs):
        mass[index[y]] += q
    return ProbState(f.dst, tuple(mass))


@dataclass(frozen=True)
class TraceStep:
    n: int
    H: float
    H_O: float
    step_bound_ok: bool
    obs_bound_ok: bool
    obs_bound: float  # H(n) + K_n, the bound H_O(n+1) was tested against

    def __post_init__(self):
        if self.H < 0 or self.H_O < 0:
            raise InvalidDistributionError("entropies must be non-negative")


@dataclass(frozen=True)
class EntropyTrace:
    steps: tuple[TraceStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def H(self) -> list[float]:
        return [s.H for s in self.steps]

    @property
    def H_O(self) -> list[float]:
        return [s.H_O for s in self.steps]


def build_trace(H: Sequence[float], H_O: Sequence[float], params: EntropyParams,
                k_schedule: Sequence[float] | None = None) -> EntropyTrace:
    """Assemble a trace from per-step entropies and flag both bounds.

    Step n carries the growth check for the step n -> n+1 (the final step
    trivially passes) and the observation check H_O(n+1) <= H(n) + K_n,
    with the bound it tested.  A per-step schedule may override the
    constant K.
    """
    if len(H) != len(H_O):
        raise LengthMismatchError("H and H_O sequences differ in length")
    steps = []
    for n in range(len(H)):
        step_ok = True
        obs_ok = True
        k_n = params.K
        if n + 1 < len(H):
            step_ok = H[n + 1] - H[n] <= params.C * math.log(n + 1) + BOUND_TOL
            if k_schedule is not None:
                k_n = float(k_schedule[n])
            obs_ok = check_observation_bound(H[n], H_O[n + 1], k_n)
        steps.append(TraceStep(n, float(H[n]), float(H_O[n]), step_ok, obs_ok,
                               float(H[n]) + k_n))
    return EntropyTrace(tuple(steps))


def check_step_bound(trace: EntropyTrace, C: float) -> list[int]:
    """Indices n at which H(n+1) - H(n) exceeds C ln(n+1) (plus tolerance)."""
    if len(trace) == 0:
        raise DomainError("empty trace")
    H = trace.H
    return [n for n in range(len(H) - 1)
            if H[n + 1] - H[n] > C * math.log(n + 1) + BOUND_TOL]


def check_observation_bound(H_X: float, H_O_next: float, K: float) -> bool:
    """Observation injects at most K bits: H_O(next) <= H(current) + K."""
    if H_X < 0 or H_O_next < 0:
        raise DomainError("entropies must be non-negative")
    return H_O_next <= H_X + K + BOUND_TOL


def total_entropy_bound(n: int, H0: float, params: EntropyParams) -> float:
    """Accumulated budget H0 + C ln(n) + n K after n >= 1 rounds."""
    if n < 1:
        raise DomainError("total bound starts at n = 1 (log of 0 is undefined)")
    return H0 + params.C * math.log(n) + n * params.K


@dataclass(frozen=True)
class Filtration:
    """Increasing chain of memory layers with verified inclusion maps."""

    layers: tuple[FinObj, ...]
    inclusions: tuple[FinMor, ...] = field(default=())

    def __post_init__(self):
        if len(self.inclusions) != max(len(self.layers) - 1, 0):
            raise LengthMismatchError("need one inclusion per consecutive layer pair")


def build_filtration(verification, start: FinObj, n: int) -> Filtration:
    """Layers [X, V(X), V(V(X)), ...] with identity-on-label inclusions.

    Raises NotMonotoneError when some step drops or relabels elements of
    the previous layer: the memory reading requires every layer to embed
    into the next unchanged.
    """
    layers = [start]
    inclusions = []
    for _ in range(n):
        nxt = verification.apply_obj(layers[-1])
        missing = [x for x in layers[-1].elements if x not in nxt]
        if missing:
            raise NotMonotoneError(
                f"step from {layers[-1].id!r} to {nxt.id!r} loses elements {missing}"
            )
        inclusions.append(FinMor(layers[-1], nxt,
                                 tuple((x, x) for x in layers[-1].elements)))
        layers.append(nxt)
    return Filtration(tuple(layers), tuple(inclusions))


def memory_sequence(orbit: Sequence[FinObj], base_id: str = "M") -> list[FinObj]:
    """Cumulative unions M_k of the carriers seen along an orbit."""
    out = []
    seen: set[str] = set()
    for k, carrier in enumerate(orbit):
        seen |= set(carrier.elements)
        out.append(FinObj(f"{base_id}{k}", tuple(sorted(seen))))
    return out


def entropy_direction_report(pairs: Sequence[tuple[ProbState, FinMor]]) -> dict:
    """Compare source and image entropies on concrete (state, map) pairs.

    Counts contraction steps (image entropy below source, the direction
    deterministic maps guarantee) and expansion steps (the opposite
    postulate).  Both rates are reported; neither is asserted.
    """
    contract = 0
    strict_drops = 0
    for p, f in pairs:
        h_src = shannon_entropy(p)
        h_img = shannon_entropy(pushforward(p, f))
        if h_img <= h_src + BOUND_TOL:
            contract += 1
        if h_img < h_src - BOUND_TOL:
            strict_drops += 1
    total = len(pairs)
    return {
        "pairs": total,
        "contraction_holds": contract,
        "nondecreasing_postulate_violations": strict_drops,
        "nondecreasing_postulate_violation_rate":
            strict_drops / total if total else 0.0,
    }


def trace_to_csv(trace: EntropyTrace, params: EntropyParams) -> str:
    """CSV rows n, H, H_O, step_bound, obs_bound, total_bound, violated_flags.

    The total bound column at n = 0 reports H(0) + H_O(0) directly since
    the accumulation formula starts at n = 1.
    """
    lines = ["n,H,H_O,step_bound,obs_bound,total_bound,violated_flags"]
    H0 = trace.H[0] if len(trace) else 0.0
    for s in trace.steps:
        step_bound = params.C * math.log(s.n + 1)
        total = s.H + s.H_O if s.n == 0 else total_entropy_bound(s.n, H0, params)
        flags = []
        if not s.step_bound_ok:
            flags.append("step")
        if not s.obs_bound_ok:
            flags.append("obs")
        if s.n >= 1 and s.H + s.H_O > total + BOUND_TOL:
            flags.append("total")
        lines.append(",".join([
            str(s.n), fmt_real(s.H), fmt_real(s.H_O), fmt_real(step_bound),
            fmt_real(s.obs_bound), fmt_real(total), ";".join(flags),
        ]))
    return "\n".join(lines) + "\n"
