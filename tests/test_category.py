import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_mor, random_obj, random_square_setup
from veridyn.category import (
    FinMor,
    FinObj,
    FunctorRep,
    NatTransRep,
    automorphism_order,
    canonical_bijection,
    check_observer_square,
    check_verification_square,
    compose,
    equalizer,
    identity_functor,
    identity_morphism,
    validate_functor,
)
from veridyn.errors import (
    MissingComponentError,
    NonComposableError,
    NotAutomorphismError,
    ShapeMismatchError,
    UnresolvedReferenceError,
)
from veridyn.scenario import parse_universe


X = FinObj("X", ("a", "b"))
Y = FinObj("Y", ("c",))
Z = FinObj("Z", ("d",))


def test_elements_are_canonicalized_and_distinct():
    assert FinObj("W", ("q", "p")).elements == ("p", "q")
    with pytest.raises(ShapeMismatchError):
        FinObj("W", ("p", "p"))


def test_empty_object_allowed():
    empty = FinObj("E", ())
    assert empty.size == 0
    incl = FinMor(empty, X, ())
    assert compose(incl, identity_morphism(X)).pairs == ()


def test_morphism_totality_and_image_checked():
    with pytest.raises(ShapeMismatchError):
        FinMor.from_mapping(X, Y, {"a": "c"})  # missing b
    with pytest.raises(ShapeMismatchError):
        FinMor.from_mapping(X, Y, {"a": "c", "b": "z"})  # z not in Y


def test_compose_identity_is_neutral():
    f = random_mor(np.random.default_rng(0), X, Y)
    assert compose(identity_morphism(X), f) == f
    assert compose(f, identity_morphism(Y)) == f


def test_compose_constant_chain():
    f = FinMor.from_mapping(X, Y, {"a": "c", "b": "c"})
    g = FinMor.from_mapping(Y, Z, {"c": "d"})
    gf = compose(f, g)
    assert gf.src == X and gf.dst == Z
    assert all(gf.apply(x) == "d" for x in X.elements)


def test_compose_rejects_mismatched_endpoints():
    f = FinMor.from_mapping(X, Y, {"a": "c", "b": "c"})
    with pytest.raises(NonComposableError):
        compose(f, FinMor.from_mapping(Z, Z, {"d": "d"}))


def test_compose_pointwise_against_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = random_obj(rng, "A")
        b = random_obj(rng, "B", pool="ijkl")
        c = random_obj(rng, "C", pool="uvwx")
        f = random_mor(rng, a, b)
        g = random_mor(rng, b, c)
        gf = compose(f, g)
        for x in a.elements:
            assert gf.apply(x) == g.apply(f.apply(x))


# --- commuting squares ----------------------------------------------------


def test_identity_square_holds():
    functor = identity_functor([X, Y])
    f = FinMor.from_mapping(X, Y, {"a": "c", "b": "c"})
    v = NatTransRep("v", "Id", "Id",
                    {X: identity_morphism(X), Y: identity_morphism(Y)})
    report = check_observer_square(FunctorRep("Id", functor.obj_map, {f: f}), v, f)
    assert report.holds and not report.violations


def test_collapsing_observer_square_holds():
    star = FinObj("S", ("s",))
    f = FinMor.from_mapping(X, X, {"a": "b", "b": "a"})
    functor = FunctorRep("O", {X: star},
                         {f: identity_morphism(star)})
    v = NatTransRep("v", "Id", "O",
                    {X: FinMor.from_mapping(X, star, {"a": "s", "b": "s"})})
    assert check_observer_square(functor, v, f).holds


def test_broken_component_is_localized():
    # a swapped component on a 2-element target with asymmetric f
    f = FinMor.from_mapping(X, X, {"a": "a", "b": "a"})
    functor = FunctorRep("O", {X: X}, {f: f})
    good = NatTransRep("v", "Id", "O", {X: identity_morphism(X)})
    assert check_observer_square(functor, good, f).holds
    swapped = FinMor.from_mapping(X, X, {"a": "b", "b": "a"})
    bad = NatTransRep("v", "Id", "O", {X: swapped})
    report = check_observer_square(functor, bad, f)
    assert not report.holds
    assert {v.element for v in report.violations} == {"a", "b"}


def test_missing_component_raises():
    f = FinMor.from_mapping(X, Y, {"a": "c", "b": "c"})
    functor = FunctorRep("O", {X: X, Y: Y}, {f: f})
    v = NatTransRep("v", "Id", "O", {X: identity_morphism(X)})
    with pytest.raises(MissingComponentError):
        check_observer_square(functor, v, f)


def test_marker_extension_square():
    # verification adds a marker element; embedding plus marker-fixing image
    vx = FinObj("VX", ("a", "b", "marker"))
    vy = FinObj("VY", ("c", "marker"))
    f = FinMor.from_mapping(X, Y, {"a": "c", "b": "c"})
    vf = FinMor.from_mapping(vx, vy, {"a": "c", "b": "c", "marker": "marker"})
    functor = FunctorRep("V", {X: vx, Y: vy}, {f: vf})
    eta = NatTransRep("eta", "Id", "V", {
        X: FinMor.from_mapping(X, vx, {"a": "a", "b": "b"}),
        Y: FinMor.from_mapping(Y, vy, {"c": "c"}),
    })
    assert check_verification_square(functor, eta, f).holds
    # redirecting the marker stays off the embedding image: still holds
    vf2 = FinMor.from_mapping(vx, vy, {"a": "c", "b": "c", "marker": "c"})
    functor2 = FunctorRep("V", {X: vx, Y: vy}, {f: vf2})
    assert check_verification_square(functor2, eta, f).holds
    # perturbing an embedded point breaks the square
    vf3 = FinMor.from_mapping(vx, vy, {"a": "marker", "b": "c", "marker": "marker"})
    functor3 = FunctorRep("V", {X: vx, Y: vy}, {f: vf3})
    report = check_verification_square(functor3, eta, f)
    assert not report.holds
    assert [v.element for v in report.violations] == ["a"]


def test_square_checks_agree_with_two_path_enumeration():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        functor, v, f = random_square_setup(rng)
        report = check_observer_square(functor, v, f)
        ff = functor.apply_mor(f)
        vx, vy = v.components[f.src], v.components[f.dst]
        expected = {x for x in f.src.elements
                    if ff.apply(vx.apply(x)) != vy.apply(f.apply(x))}
        assert report.holds == (not expected)
        assert {viol.element for viol in report.violations} == expected


# --- automorphism order -----------------------------------------------------


def test_order_examples():
    abc = FinObj("A", ("a", "b", "c"))
    assert automorphism_order(identity_morphism(abc)) == 1
    swap = FinMor.from_mapping(abc, abc, {"a": "b", "b": "a", "c": "c"})
    assert automorphism_order(swap) == 2
    five = FinObj("F", ("p", "q", "r", "s", "t"))
    mixed = FinMor.from_mapping(
        five, five, {"p": "q", "q": "r", "r": "p", "s": "t", "t": "s"})
    assert automorphism_order(mixed) == 6


def test_order_rejects_non_bijection():
    f = FinMor.from_mapping(X, X, {"a": "a", "b": "a"})
    with pytest.raises(NotAutomorphismError):
        automorphism_order(f)
    with pytest.raises(NotAutomorphismError):
        automorphism_order(FinMor.from_mapping(X, Y, {"a": "c", "b": "c"}))


@given(st.integers(1, 7), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_order_divides_factorial_and_power_is_identity(n, pyrandom):
    import math
    obj = FinObj("P", tuple(f"e{i}" for i in range(n)))
    perm = list(obj.elements)
    pyrandom.shuffle(perm)
    theta = FinMor(obj, obj, tuple(zip(obj.elements, perm)))
    k = automorphism_order(theta)
    assert math.factorial(n) % k == 0
    power = identity_morphism(obj)
    for m in range(1, k + 1):
        power = compose(power, theta)
        # theta^m is the identity first at m = k
        assert (power == identity_morphism(obj)) == (m == k)


# --- equalizers -------------------------------------------------------------


def test_equalizer_whole_source_when_equal():
    f = random_mor(np.random.default_rng(3), X, Y)
    sub, incl = equalizer(f, f)
    assert sub.elements == X.elements
    assert incl.src == sub and incl.dst == X


def test_equalizer_examples():
    abc = FinObj("A", ("a", "b", "c"))
    ident = identity_morphism(abc)
    swap = FinMor.from_mapping(abc, abc, {"a": "b", "b": "a", "c": "c"})
    sub, _ = equalizer(ident, swap)
    assert sub.elements == ("c",)
    cyc = FinMor.from_mapping(abc, abc, {"a": "b", "b": "c", "c": "a"})
    empty, incl = equalizer(ident, cyc)
    assert empty.elements == ()
    assert incl.pairs == ()


def test_equalizer_shape_mismatch():
    f = FinMor.from_mapping(X, Y, {"a": "c", "b": "c"})
    g = FinMor.from_mapping(X, X, {"a": "a", "b": "b"})
    with pytest.raises(ShapeMismatchError):
        equalizer(f, g)


def test_equalizer_matches_brute_force_filter():
    rng = np.random.default_rng(55)
    for _ in range(200):
        src = random_obj(rng, "S")
        dst = random_obj(rng, "D", pool="ijkl")
        f = random_mor(rng, src, dst)
        g = random_mor(rng, src, dst)
        sub, incl = equalizer(f, g)
        brute = tuple(x for x in src.elements if f.apply(x) == g.apply(x))
        assert sub.elements == brute
        assert all(incl.apply(x) == x for x in sub.elements)


# --- functor validation -----------------------------------------------------


def _closed_universe(rng):
    obj = random_obj(rng, "U", max_elems=4, min_elems=2)
    gens = [random_mor(rng, obj, obj) for _ in range(2)]
    mors = {identity_morphism(obj)}
    frontier = list(gens)
    while frontier:
        mors.update(frontier)
        nxt = []
        for f in list(mors):
            for g in frontier:
                for comp in (compose(f, g), compose(g, f)):
                    if comp not in mors and comp not in nxt:
                        nxt.append(comp)
        frontier = [m for m in nxt if m not in mors]
    return obj, sorted(mors, key=lambda m: m.pairs)


def test_identity_functor_is_accepted_on_closed_universe():
    rng = np.random.default_rng(99)
    for _ in range(20):
        obj, mors = _closed_universe(rng)
        functor = identity_functor([obj], mors)
        assert validate_functor(functor) == []


def test_collapse_functor_is_accepted():
    rng = np.random.default_rng(100)
    star = FinObj("S", ("s",))
    for _ in range(20):
        obj, mors = _closed_universe(rng)
        functor = FunctorRep("C", {obj: star, star: star},
                             {m: identity_morphism(star) for m in mors})
        assert validate_functor(functor) == []


def test_relabeling_functor_is_accepted_and_mutation_rejected():
    rng = np.random.default_rng(101)
    obj, mors = _closed_universe(rng)
    table = {x: x.upper() for x in obj.elements}
    image = FinObj("R", tuple(table[x] for x in obj.elements))

    def relabel(m):
        return FinMor(image, image,
                      tuple((table[a], table[b]) for a, b in m.pairs))

    functor = FunctorRep("R", {obj: image}, {m: relabel(m) for m in mors})
    assert validate_functor(functor) == []
    if len(mors) > 1:
        non_id = next(m for m in mors if not m.is_identity())
        broken = dict(functor.mor_map)
        broken[identity_morphism(obj)] = relabel(non_id)
        defects = validate_functor(FunctorRep("R", functor.obj_map, broken))
        assert any(d.kind == "identity" for d in defects)


def test_composition_defect_detected():
    f = FinMor.from_mapping(X, X, {"a": "b", "b": "a"})
    ff = compose(f, f)  # identity
    # send the swap to itself but its square to the swap: breaks composition
    functor = FunctorRep("B", {X: X}, {f: f, ff: f})
    defects = validate_functor(functor)
    assert any(d.kind in ("composition", "identity") for d in defects)


def test_multi_object_closed_universe_validation():
    # chain universe: X -> Y2 -> Z2 with the composite declared, relabeled
    y = FinObj("Y2", ("i", "j"))
    z = FinObj("Z2", ("u", "v"))
    f = FinMor.from_mapping(X, y, {"a": "i", "b": "j"})
    g = FinMor.from_mapping(y, z, {"i": "v", "j": "u"})
    gf = compose(f, g)
    mors = [f, g, gf, identity_morphism(X), identity_morphism(y),
            identity_morphism(z)]
    table = {lab: lab.upper() for obj in (X, y, z) for lab in obj.elements}
    images = {obj: FinObj(obj.id + "'", tuple(table[lab] for lab in obj.elements))
              for obj in (X, y, z)}

    def relabel(m):
        return FinMor(images[m.src], images[m.dst],
                      tuple((table[p], table[q]) for p, q in m.pairs))

    functor = FunctorRep("R", images, {m: relabel(m) for m in mors})
    assert validate_functor(functor) == []
    # redirect the declared composite: composition preservation must fail
    broken = dict(functor.mor_map)
    broken[gf] = relabel(compose(f, FinMor.from_mapping(y, z, {"i": "u", "j": "v"})))
    defects = validate_functor(FunctorRep("R", images, broken))
    assert any(d.kind == "composition" for d in defects)
    # drop the composite from the tables: closure gap must be reported
    partial = {m: relabel(m) for m in mors if m != gf}
    defects = validate_functor(FunctorRep("R", images, partial))
    assert any(d.kind == "closure" for d in defects)


# --- canonical bijections ---------------------------------------------------


def test_canonical_bijection_pairs_sorted_elements():
    a = FinObj("A", ("u", "t"))
    b = FinObj("B", ("y", "x"))
    w = canonical_bijection(a, b)
    assert w.pairs == (("t", "x"), ("u", "y"))
    assert canonical_bijection(a, Y) is None


# --- universe files ---------------------------------------------------------


UNIVERSE_DOC = {
    "objects": [
        {"id": "X", "elements": ["a", "b"]},
        {"id": "S", "elements": ["s"]},
    ],
    "morphisms": [
        {"id": "f", "src": "X", "dst": "X", "mapping": {"a": "b", "b": "a"}},
        {"id": "collapse", "src": "X", "dst": "S", "mapping": {"a": "s", "b": "s"}},
        {"id": "id_S", "src": "S", "dst": "S", "mapping": {"s": "s"}},
    ],
    "functors": [
        {"name": "O", "obj_map": {"X": "S", "S": "S"},
         "mor_map": {"f": "id_S", "id_S": "id_S"}},
    ],
    "transformations": [
        {"name": "v", "source": "Id", "target": "O",
         "components": {"X": "collapse", "S": "id_S"}},
    ],
}


def test_universe_roundtrip_and_square_checks():
    uni = parse_universe({"universe": json.loads(json.dumps(UNIVERSE_DOC))})
    assert uni.object("X").elements == ("a", "b")
    results = uni.all_square_checks()
    checked = [r for r in results if r["status"] == "checked"]
    assert checked and all(r["report"]["holds"] for r in checked)


def test_universe_unresolved_reference():
    doc = json.loads(json.dumps(UNIVERSE_DOC))
    doc["morphisms"][0]["src"] = "NOPE"
    with pytest.raises(UnresolvedReferenceError):
        parse_universe({"universe": doc})


def test_square_report_serializes():
    f = FinMor.from_mapping(X, X, {"a": "a", "b": "a"})
    functor = FunctorRep("O", {X: X}, {f: f})
    bad = NatTransRep("v", "Id", "O",
                      {X: FinMor.from_mapping(X, X, {"a": "b", "b": "a"})})
    doc = check_observer_square(functor, bad, f).to_dict()
    assert doc["holds"] is False
    assert {"element", "left_path", "right_path"} == set(doc["violations"][0])
