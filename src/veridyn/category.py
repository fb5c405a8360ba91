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
from typing import Iterable, Mapping

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

    def __contains__(self, label: str) -> bool:
        return label in self.index

    def to_dict(self) -> dict:
        return {"id": self.id, "elements": list(self.elements)}


@dataclass(frozen=True)
class FinMor:
    """A total map between finite carriers, stored as sorted (x, f(x)) pairs."""

    src: FinObj
    dst: FinObj
    pairs: tuple[tuple[str, str], ...]
    _table: Mapping[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pairs = tuple(sorted(self.pairs))
        object.__setattr__(self, "pairs", pairs)
        table = dict(pairs)
        if len(table) != len(pairs):
            raise ShapeMismatchError("morphism table has a repeated source element")
        if table.keys() != self.src.index.keys():
            raise ShapeMismatchError(
                f"morphism table is not total on source {self.src.id!r}"
            )
        dst_index = self.dst.index
        for y in table.values():
            if y not in dst_index:
                raise ShapeMismatchError(
                    f"morphism image {y!r} is not an element of {self.dst.id!r}"
                )
        object.__setattr__(self, "_table", MappingProxyType(table))

    @classmethod
    def from_mapping(cls, src: FinObj, dst: FinObj, mapping: Mapping[str, str]) -> "FinMor":
        return cls(src, dst, tuple(mapping.items()))

    @property
    def mapping(self) -> Mapping[str, str]:
        """Read-only source-to-image table, in sorted source order."""
        return self._table

    def apply(self, x: str) -> str:
        try:
            return self._table[x]
        except KeyError:
            raise ShapeMismatchError(
                f"{x!r} is not an element of {self.src.id!r}"
            ) from None

    def __call__(self, x: str) -> str:
        return self.apply(x)

    def is_identity(self) -> bool:
        return self.src == self.dst and all(a == b for a, b in self.pairs)

    def is_bijection(self) -> bool:
        images = {b for _, b in self.pairs}
        return len(images) == len(self.pairs) and len(images) == self.dst.size

    def to_dict(self) -> dict:
        return {
            "src": self.src.id,
            "dst": self.dst.id,
            "mapping": dict(self._table),
        }


def identity_morphism(obj: FinObj) -> FinMor:
    return FinMor(obj, obj, tuple((x, x) for x in obj.elements))


def compose(f: FinMor, g: FinMor) -> FinMor:
    """Diagrammatic composite: first f, then g (requires f.dst == g.src)."""
    if f.dst != g.src:
        raise NonComposableError(
            f"cannot compose: first map lands in {f.dst.id!r}, "
            f"second starts at {g.src.id!r}"
        )
    gmap = g.mapping
    return FinMor(f.src, g.dst, tuple((x, gmap[y]) for x, y in f.pairs))


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
    violations = []
    for x in bottom.src.elements:
        left = top.apply(t_src.apply(x))
        right = t_dst.apply(bottom.apply(x))
        if left != right:
            violations.append(SquareViolation(x, left, right))
    return SquareReport(not violations, tuple(violations))


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


def permutation_order(table: Mapping) -> int:
    """Least k >= 1 with table^k = id for a bijective table, via lcm of cycle lengths."""
    seen = set()
    order = 1
    for start in table:
        if start in seen:
            continue
        length = 0
        x = start
        while True:
            seen.add(x)
            x = table[x]
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
    return permutation_order(theta.mapping)


def equalizer(f: FinMor, g: FinMor) -> tuple[FinObj, FinMor]:
    """Subobject of the common source on which f and g agree, plus its inclusion."""
    if f.src != g.src or f.dst != g.dst:
        raise ShapeMismatchError("equalizer needs a parallel pair of morphisms")
    agree = tuple(x for x in f.src.elements if f.apply(x) == g.apply(x))
    sub = FinObj(f"Eq({f.src.id})", agree)
    incl = FinMor(sub, f.src, tuple((x, x) for x in agree))
    return sub, incl


def canonical_bijection(a: FinObj, b: FinObj) -> FinMor | None:
    """Deterministic bijection pairing the sorted elements positionally.

    Returns None when the carriers have different sizes.  This is the
    lexicographic tie-breaking rule used everywhere "up to isomorphism"
    has to be decided.
    """
    if a.size != b.size:
        return None
    return FinMor(a, b, tuple(zip(a.elements, b.elements)))


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
            try:
                comp = compose(f, g)
            except NonComposableError:  # pragma: no cover - guarded above
                continue
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
        try:
            return self.objects[oid]
        except KeyError:
            raise UnresolvedReferenceError(f"unknown object id {oid!r}") from None

    def morphism(self, mid: str) -> FinMor:
        try:
            return self.morphisms[mid]
        except KeyError:
            raise UnresolvedReferenceError(f"unknown morphism id {mid!r}") from None

    def functor(self, name: str) -> FunctorRep:
        try:
            return self.functors[name]
        except KeyError:
            raise UnresolvedReferenceError(f"unknown functor {name!r}") from None

    def transformation(self, name: str) -> NatTransRep:
        try:
            return self.transformations[name]
        except KeyError:
            raise UnresolvedReferenceError(f"unknown transformation {name!r}") from None

    def _resolve_functor_name(self, name: str) -> FunctorRep | None:
        """None encodes the identity functor (names "Id" or empty)."""
        if name in ("Id", "", None):
            return None
        return self.functor(name)

    def all_square_checks(self) -> list[dict]:
        """Naturality of every declared transformation against every morphism.

        A square is only evaluated where the functors cover the morphism;
        uncovered squares are reported as skipped so coverage gaps stay
        visible.
        """
        results = []
        for tname, trans in sorted(self.transformations.items()):
            try:
                target = self.functor(trans.target)
                source = self._resolve_functor_name(trans.source)
            except UnresolvedReferenceError as exc:
                results.append({"transformation": tname, "morphism": None,
                                "status": "skipped", "reason": str(exc)})
                continue
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
