"""Temporal iteration and the distributed verification limit.

Walks the orbit of the verification-augmented update F(Y) = V(update(Y))
over a declared finite universe and decides whether it reaches a stage
whose carrier is isomorphic to its own image.  Isomorphism of finite
carriers is decided by the canonical positional bijection (lexicographic
tie-breaking), which doubles as the stored witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import (
    FinMor,
    FinObj,
    FunctorRep,
    SquareReport,
    SquareViolation,
    canonical_bijection,
)
from .errors import NoWitnessError

__all__ = [
    "ThetaResult",
    "apply_F",
    "iterate_to_theta",
    "verify_theta",
    "build_chain",
    "chain_to_csv",
]


@dataclass(frozen=True)
class ThetaResult:
    """Outcome of walking the F-orbit until it stabilizes or repeats a carrier.

    stages holds the carriers Y_0 .. Y_n walked, so `carrier` is Y_n and
    `iterations` is n.  When the orbit repeats a carrier instead of
    converging, Y_n is that carrier and cycle is (stage first seen, period).
    """

    stages: tuple[FinObj, ...]
    converged: bool
    witness: FinMor | None = None
    inclusion_chain: bool = False   # True when every step embedded the previous carrier
    cycle: tuple[int, int] | None = None

    @property
    def carrier(self) -> FinObj:
        return self.stages[-1]

    @property
    def iterations(self) -> int:
        return len(self.stages) - 1

    def to_dict(self) -> dict:
        doc = {
            "carrier": self.carrier.to_dict(),
            "iterations": self.iterations,
            "converged": self.converged,
            "witness": self.witness.to_dict() if self.witness else None,
            "inclusion_chain": self.inclusion_chain,
        }
        if self.cycle is not None:
            doc["cycle"] = {"from": self.cycle[0], "period": self.cycle[1]}
        return doc


def apply_F(verification: FunctorRep, update: FunctorRep, carrier: FinObj) -> FinObj:
    """One verification-augmented step: verification(update(Y))."""
    return verification.apply_obj(update.apply_obj(carrier))


def _is_inclusion(a: FinObj, b: FinObj) -> bool:
    return set(a.elements) <= set(b.elements)


def iterate_to_theta(verification: FunctorRep, update: FunctorRep,
                     start: FinObj) -> ThetaResult:
    """Decide whether Y_{n+1} = F(Y_n) reaches a carrier isomorphic to its image.

    F maps the universe's declared objects to themselves, so the orbit either
    reaches a stage n with a canonical bijection Y_n ~ F(Y_n), stored as the
    witness, or repeats a carrier within |objects| + 1 stages and has no
    limit.  An object outside the functors' tables raises UniverseEscapeError.
    """
    stages = [start]
    seen = {start: 0}   # keyed by FinObj, as FunctorRep.obj_map is
    inclusions = True
    while True:
        carrier = stages[-1]
        image = apply_F(verification, update, carrier)
        witness = canonical_bijection(carrier, image)
        if witness is not None:
            return ThetaResult(tuple(stages), True, witness, inclusions)
        inclusions = inclusions and _is_inclusion(carrier, image)
        stages.append(image)
        if image in seen:
            first = seen[image]
            return ThetaResult(tuple(stages), False, None, inclusions,
                               (first, len(stages) - 1 - first))
        seen[image] = len(stages) - 1


def verify_theta(verification: FunctorRep, update: FunctorRep,
                 result: ThetaResult) -> SquareReport:
    """Independent re-check that the stored witness exhibits the fixed point.

    Recomputes the image F(carrier), re-derives the canonical bijection and
    confirms the stored witness is a bijection identical to it.  Any
    discrepancy (including a tampered witness) yields holds=False with the
    offending elements listed.
    """
    if not result.converged or result.witness is None:
        raise NoWitnessError("verification requested on a non-converged result")
    image = apply_F(verification, update, result.carrier)
    expected = canonical_bijection(result.carrier, image)
    violations = []
    if expected is None:
        violations.append(SquareViolation("<carrier>", str(result.carrier.size),
                                          str(image.size)))
        return SquareReport(False, tuple(violations))
    w = result.witness
    if w.src != result.carrier or w.dst != image or not w.is_bijection():
        violations.append(SquareViolation("<witness>", f"{w.src.id}->{w.dst.id}",
                                          f"{expected.src.id}->{expected.dst.id}"))
    else:
        labels = image.elements
        violations.extend(SquareViolation(x, labels[got], labels[want])
                          for x, got, want in zip(w.src.elements, w.targets,
                                                  expected.targets) if got != want)
    return SquareReport(not violations, tuple(violations))


# The name stays while the benchmark's tracer wraps it (ROADMAP item 2).
def build_chain(result: ThetaResult) -> list[tuple[int, FinObj]]:
    """The (stage, carrier) rows of the chain the theta walk recorded."""
    return list(enumerate(result.stages))


def chain_to_csv(records: list[tuple[int, FinObj]]) -> str:
    lines = ["stage,carrier_size"]
    for stage, carrier in records:
        lines.append(f"{stage},{carrier.size}")
    return "\n".join(lines) + "\n"
