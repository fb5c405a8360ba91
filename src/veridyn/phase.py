"""Exact phase arithmetic and phase-coherence constructions.

A phase is a rational fraction of a full turn kept in canonical residue
form (reduced, in [0, 1)), so the mod-2pi identities become exact equality
tests with no tolerance policy.  On top of the phase group sit the cycle
checks, the locked subspace of a finite-order symmetry, and the matched
pairing of equal-phase elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .category import FinMor, FinObj, automorphism_order
from .errors import (
    DenominatorOverflowError,
    NotAClosedLoopError,
    NotAutomorphismError,
    PartialPhaseMapError,
)

__all__ = [
    "RationalPhase",
    "PhasedMorphism",
    "ZERO_PHASE",
    "phase_add",
    "phase_inverse",
    "cycle_net_phase",
    "phase_lock_space",
    "interference_pairing",
]

DENOMINATOR_CAP = 10 ** 6


@dataclass(frozen=True, slots=True)
class RationalPhase:
    """An exact phase: (numerator / denominator) of a full turn, canonical."""

    numerator: int
    denominator: int = 1

    def __post_init__(self):
        den = self.denominator
        if den <= 0:
            raise DenominatorOverflowError("denominator must be positive")
        num = self.numerator % den
        g = math.gcd(num, den)
        num //= g
        den //= g
        if den > DENOMINATOR_CAP:
            raise DenominatorOverflowError(
                f"reduced denominator {den} exceeds cap {DENOMINATOR_CAP}"
            )
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def parse(cls, text: str) -> "RationalPhase":
        """Accepts "p/q" or a bare integer numerator."""
        part = text.strip().split("/")
        if len(part) == 1:
            return cls(int(part[0]), 1)
        if len(part) == 2:
            return cls(int(part[0]), int(part[1]))
        raise ValueError(f"cannot parse phase {text!r}")

    def is_zero(self) -> bool:
        return self.numerator == 0

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


ZERO_PHASE = RationalPhase(0, 1)


def phase_add(a: RationalPhase, b: RationalPhase) -> RationalPhase:
    """Exact sum of two phases, reduced mod one full turn."""
    return RationalPhase(a.numerator * b.denominator + b.numerator * a.denominator,
                         a.denominator * b.denominator)


def phase_inverse(a: RationalPhase) -> RationalPhase:
    return RationalPhase(-a.numerator, a.denominator)


@dataclass(frozen=True)
class PhasedMorphism:
    base: FinMor
    phase: RationalPhase


def cycle_net_phase(cycle: Sequence[PhasedMorphism]) -> RationalPhase:
    """Exact phase accumulated around a closed loop of morphisms.

    The morphisms must chain head-to-tail and close up; the caller decides
    what to make of a non-zero result.
    """
    if not cycle:
        raise NotAClosedLoopError("empty morphism list")
    for cur, nxt in zip(cycle, cycle[1:]):
        if cur.base.dst != nxt.base.src:
            raise NotAClosedLoopError(
                f"step ending at {cur.base.dst.id!r} does not meet the next step"
            )
    if cycle[-1].base.dst != cycle[0].base.src:
        raise NotAClosedLoopError("loop does not close")
    total = ZERO_PHASE
    for m in cycle:
        total = phase_add(total, m.phase)
    return total


def phase_lock_space(theta: FinMor, k: int) -> FinObj:
    """Elements invariant under every power of the finite-order symmetry.

    A fixed point of theta is fixed by all its powers, so this is the fixed
    set of theta alone.  The declared period k is checked against the
    symmetry's order (lcm of its cycle lengths, O(n)) and never iterated.
    """
    if theta.src != theta.dst or not theta.is_bijection():
        raise NotAutomorphismError(
            f"phase symmetry on {theta.src.id!r} must be a bijective endomap"
        )
    if k < 1 or k % automorphism_order(theta) != 0:
        raise NotAutomorphismError(
            f"declared period {k} is not a multiple of the symmetry's order"
        )
    return FinObj(f"PhaseLock({theta.src.id})",
                  tuple(theta.src.elements[i] for i, j in enumerate(theta.targets) if i == j))


def interference_pairing(carrier: FinObj,
                         phases: Mapping[str, RationalPhase]) -> FinObj:
    """Carrier of all ordered element pairs with exactly matching phases.

    The phases must name exactly the carrier's elements. Elements are
    grouped by phase in one pass, so the work is O(n + pairs).
    """
    if carrier.index.keys() != phases.keys():
        missing = [x for x in carrier.elements if x not in phases]
        extra = [x for x in phases if x not in carrier.index]
        raise PartialPhaseMapError(f"phases must name exactly the elements of "
                                   f"{carrier.id!r}: missing {missing}, extra {extra}")
    groups: dict[RationalPhase, list[str]] = {}
    for x in carrier.elements:
        groups.setdefault(phases[x], []).append(x)
    pairs = [f"({x},{y})" for x in carrier.elements for y in groups[phases[x]]]
    return FinObj(f"PhasePairs({carrier.id})", tuple(pairs))
