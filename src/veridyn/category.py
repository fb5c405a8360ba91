"""Finite-set semantics for the categorical layer.

Objects are finite sets of labelled elements kept in canonical
(lexicographic) order, morphisms are total maps given by explicit tables,
functors and natural transformations are finite tables over a declared
universe.  Every commutativity condition is decidable by enumeration, and
the checkers below report the exact elements at which a square fails.

All types are immutable values and all operations are pure functions, so
independent checks may run concurrently without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import (
    MissingComponentError,
    NonComposableError,
    NotAutomorphismError,
    ShapeMismatchError,
    UniverseEscapeError,
    UnresolvedReferenceError,
)

__all__ = [
    "FinObj",
    "FinMor",
    "FunctorRep",
    "NatTransRep",
    "SquareViolation",
    "SquareReport",
    "FunctorDefect",
    "Universe",
    "compose",
    "identity_morphism",
    "check_observer_square",
    "check_verification_square",
    "automorphism_order",
    "permutation_order",
    "equalizer",
    "canonical_bijection",
    "validate_functor",
    "identity_functor",
]


@dataclass(frozen=True)
class FinObj:
    """A finite carrier: unique id plus canonically ordered element labels."""

    id: str
    elements: tuple[str, ...]
    # read-only position of each label in `elements`
    index: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elems = tuple(sorted(self.elements))
        index = dict(zip(elems, range(len(elems))))
        if len(index) != len(elems):
            raise ShapeMismatchError(f"object {self.id!r} has duplicate elements")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "index", MappingProxyType(index))

    @property
    def size(self) -> int:
        return len(self.elements)

    def to_dict(self) -> dict:
        return {"id": self.id, "elements": list(self.elements)}


@dataclass(frozen=True)
class FinMor:
    """A total map between finite carriers, stored as target positions.

    targets[i] is the position in dst.elements of the image of src.elements[i].
    """

    src: FinObj
    dst: FinObj
    targets: tuple[int, ...]

    def __post_init__(self):
        targets = tuple(self.targets)
        # positions lie in range(dst.size): a negative one would wrap as an index
        if (len(targets) != self.src.size or min(targets, default=0) < 0
                or max(targets, default=-1) >= self.dst.size):
            raise ShapeMismatchError(
                f"morphism targets do not map {self.src.id!r} into {self.dst.id!r}")
        object.__setattr__(self, "targets", targets)

    @classmethod
    def from_mapping(cls, src: FinObj, dst: FinObj, mapping: Mapping[str, str]) -> "FinMor":
        if mapping.keys() != src.index.keys():
            raise ShapeMismatchError(f"morphism table is not total on source {src.id!r}")
        try:
            targets = tuple(map(dst.index.__getitem__, map(mapping.__getitem__, src.elements)))
        except KeyError as exc:
            raise ShapeMismatchError(
                f"morphism image {exc.args[0]!r} is not an element of {dst.id!r}"
            ) from None
        return cls(src, dst, targets)

    def apply(self, x: str) -> str:
        try:
            return self.dst.elements[self.targets[self.src.index[x]]]
        except KeyError:
            raise ShapeMismatchError(
                f"{x!r} is not an element of {self.src.id!r}"
            ) from None

    def is_identity(self) -> bool:
        return self.src == self.dst and self.targets == tuple(range(self.src.size))

    def is_bijection(self) -> bool:
        return len(set(self.targets)) == len(self.targets) == self.dst.size

    def to_dict(self) -> dict:
        labels = self.dst.elements
        return {
            "src": self.src.id,
            "dst": self.dst.id,
            "mapping": {x: labels[j] for x, j in zip(self.src.elements, self.targets)},
        }


def identity_morphism(obj: FinObj) -> FinMor:
    return FinMor(obj, obj, tuple(range(obj.size)))


def compose(f: FinMor, g: FinMor) -> FinMor:
    """Diagrammatic composite: first f, then g (requires f.dst == g.src)."""
    if f.dst != g.src:
        raise NonComposableError(
            f"cannot compose: first map lands in {f.dst.id!r}, "
            f"second starts at {g.src.id!r}"
        )
    return FinMor(f.src, g.dst, tuple(g.targets[j] for j in f.targets))


@dataclass(frozen=True)
class FunctorRep:
    """A functor given by explicit object and morphism tables."""

    name: str
    obj_map: Mapping[FinObj, FinObj]
    mor_map: Mapping[FinMor, FinMor]

    def apply_obj(self, x: FinObj) -> FinObj:
        try:
            return self.obj_map[x]
        except KeyError:
            raise UniverseEscapeError(
                f"functor {self.name!r} is not defined on object {x.id!r}"
            ) from None

    def apply_mor(self, f: FinMor) -> FinMor:
        try:
            return self.mor_map[f]
        except KeyError:
            pass
        # identities are implicit: undeclared id_X maps to id_{F(X)}
        if f.is_identity() and f.src in self.obj_map:
            return identity_morphism(self.obj_map[f.src])
        raise UniverseEscapeError(
            f"functor {self.name!r} is not defined on morphism "
            f"{f.src.id!r} -> {f.dst.id!r}"
        )


def identity_functor(objects: Iterable[FinObj], morphisms: Iterable[FinMor] = (),
                     name: str = "Id") -> FunctorRep:
    return FunctorRep(
        name,
        {x: x for x in objects},
        {f: f for f in morphisms},
    )


@dataclass(frozen=True)
class NatTransRep:
    """Componentwise transformation between two named functors."""

    name: str
    source: str
    target: str
    components: Mapping[FinObj, FinMor]

    def component_at(self, x: FinObj) -> FinMor:
        try:
            return self.components[x]
        except KeyError:
            raise MissingComponentError(
                f"transformation {self.name!r} has no component at {x.id!r}"
            ) from None


@dataclass(frozen=True)
class SquareViolation:
    element: str
    left_path: str
    right_path: str

    def to_dict(self) -> dict:
        return {
            "element": self.element,
            "left_path": self.left_path,
            "right_path": self.right_path,
        }


@dataclass(frozen=True)
class SquareReport:
    holds: bool
    violations: tuple[SquareViolation, ...] = ()

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "violations": [v.to_dict() for v in self.violations],
        }


def _check_square(target: FunctorRep, trans: NatTransRep, f: FinMor,
                  source: FunctorRep | None = None) -> SquareReport:
    """Pointwise naturality square at f.

    With source functor F (None meaning the identity) and target functor G,
    compares G(f) . t_src against t_dst . F(f) on every element of F(src).
    """
    t_src = trans.component_at(f.src)
    t_dst = trans.component_at(f.dst)
    bottom = source.apply_mor(f) if source is not None else f
    top = target.apply_mor(f)
    if t_src.src != bottom.src or t_dst.src != bottom.dst:
        raise ShapeMismatchError(
            f"components of {trans.name!r} do not start at the endpoints of the morphism"
        )
    if top.src != t_src.dst or top.dst != t_dst.dst:
        raise ShapeMismatchError(
            f"image of the morphism under {target.name!r} does not connect "
            f"the component targets"
        )
    left = compose(t_src, top).targets
    right = compose(bottom, t_dst).targets
    labels = top.dst.elements
    violations = tuple(SquareViolation(x, labels[i], labels[j])
                       for x, i, j in zip(bottom.src.elements, left, right) if i != j)
    return SquareReport(not violations, violations)


def check_observer_square(observer: FunctorRep, v: NatTransRep, f: FinMor) -> SquareReport:
    """Does observation commute with the transition f?

    Compares observer(f) . v_src against v_dst . f elementwise and lists
    every element where the two paths disagree.
    """
    return _check_square(observer, v, f)


def check_verification_square(verification: FunctorRep, eta: NatTransRep,
                              f: FinMor) -> SquareReport:
    """Does verification embedding commute with the transition f?"""
    return _check_square(verification, eta, f)


def permutation_order(perm: Sequence[int]) -> int:
    """Least k >= 1 with perm^k = id for a permutation of range(n): lcm of cycle lengths."""
    seen = set()
    order = 1
    for start in range(len(perm)):
        if start in seen:
            continue
        length = 0
        x = start
        while True:
            seen.add(x)
            x = perm[x]
            length += 1
            if x == start:
                break
        order = math.lcm(order, length)
    return order


def automorphism_order(theta: FinMor) -> int:
    """Least k >= 1 with theta^k = id, via lcm of cycle lengths."""
    if theta.src != theta.dst or not theta.is_bijection():
        raise NotAutomorphismError(
            f"map on {theta.src.id!r} is not a bijective endomap"
        )
    return permutation_order(theta.targets)


def equalizer(f: FinMor, g: FinMor) -> tuple[FinObj, FinMor]:
    """Subobject of the common source on which f and g agree, plus its inclusion."""
    if f.src != g.src or f.dst != g.dst:
        raise ShapeMismatchError("equalizer needs a parallel pair of morphisms")
    keep = tuple(i for i, (a, b) in enumerate(zip(f.targets, g.targets)) if a == b)
    sub = FinObj(f"Eq({f.src.id})", tuple(f.src.elements[i] for i in keep))
    return sub, FinMor(sub, f.src, keep)


def canonical_bijection(a: FinObj, b: FinObj) -> FinMor | None:
    """Deterministic bijection pairing the sorted elements positionally.

    It is the identity on positions.  Returns None when the carriers have
    different sizes.  This is the lexicographic tie-breaking rule used
    everywhere "up to isomorphism" has to be decided.
    """
    if a.size != b.size:
        return None
    return FinMor(a, b, tuple(range(a.size)))


@dataclass(frozen=True)
class FunctorDefect:
    kind: str       # "endpoint" | "identity" | "composition" | "closure"
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}


def validate_functor(functor: FunctorRep) -> list[FunctorDefect]:
    """Check the functor laws over the declared tables.

    Reports endpoint consistency, identity preservation and composition
    preservation; a composable pair whose composite is missing from the
    table is reported as a closure defect since the law cannot be checked
    on it.  An empty return value means the functor is accepted.
    """
    defects = []
    for f, ff in functor.mor_map.items():
        if f.src not in functor.obj_map or f.dst not in functor.obj_map:
            defects.append(FunctorDefect(
                "endpoint",
                f"morphism {f.src.id}->{f.dst.id} has an endpoint outside the object table",
            ))
            continue
        if ff.src != functor.obj_map[f.src] or ff.dst != functor.obj_map[f.dst]:
            defects.append(FunctorDefect(
                "endpoint",
                f"image of {f.src.id}->{f.dst.id} does not connect the object images",
            ))
        if f.is_identity() and not ff.is_identity():
            defects.append(FunctorDefect(
                "identity", f"identity on {f.src.id} is not sent to an identity"
            ))
    doms = list(functor.mor_map)
    for f in doms:
        for g in doms:
            if f.dst != g.src:
                continue
            comp = compose(f, g)
            if comp not in functor.mor_map and not comp.is_identity():
                defects.append(FunctorDefect(
                    "closure",
                    f"composite {f.src.id}->{g.dst.id} is not declared in the universe",
                ))
                continue
            lhs = functor.apply_mor(comp)
            rhs = compose(functor.apply_mor(f), functor.apply_mor(g))
            if lhs != rhs:
                defects.append(FunctorDefect(
                    "composition",
                    f"composite of {f.src.id}->{f.dst.id} and {g.src.id}->{g.dst.id} "
                    f"is not preserved",
                ))
    return defects


# --- declared universes -------------------------------------------------


def _lookup(table: dict, key: str, what: str):
    try:
        return table[key]
    except KeyError:
        raise UnresolvedReferenceError(f"unknown {what} {key!r}") from None


@dataclass
class Universe:
    """A declared finite universe: objects, morphisms, functors, transformations.

    `scenario.parse_universe` builds one from a scenario's universe section.
    """

    objects: dict[str, FinObj] = field(default_factory=dict)
    morphisms: dict[str, FinMor] = field(default_factory=dict)
    functors: dict[str, FunctorRep] = field(default_factory=dict)
    transformations: dict[str, NatTransRep] = field(default_factory=dict)

    def object(self, oid: str) -> FinObj:
        return _lookup(self.objects, oid, "object id")

    def morphism(self, mid: str) -> FinMor:
        return _lookup(self.morphisms, mid, "morphism id")

    def functor(self, name: str) -> FunctorRep:
        return _lookup(self.functors, name, "functor")

    def transformation(self, name: str) -> NatTransRep:
        return _lookup(self.transformations, name, "transformation")

    def all_square_checks(self) -> list[dict]:
        """Naturality of every declared transformation against every morphism.

        A square is only evaluated where the functors cover the morphism;
        uncovered squares are reported as skipped so coverage gaps stay
        visible.  The functors a transformation names are resolved when the
        scenario is parsed.
        """
        results = []
        for tname, trans in sorted(self.transformations.items()):
            target = self.functor(trans.target)
            # None is the identity functor, named "Id"
            source = None if trans.source == "Id" else self.functor(trans.source)
            for mid, f in sorted(self.morphisms.items()):
                try:
                    report = _check_square(target, trans, f, source=source)
                except (MissingComponentError, UniverseEscapeError, ShapeMismatchError) as exc:
                    results.append({"transformation": tname, "morphism": mid,
                                    "status": "skipped", "reason": str(exc)})
                    continue
                results.append({"transformation": tname, "morphism": mid,
                                "status": "checked", "report": report.to_dict()})
        return results
