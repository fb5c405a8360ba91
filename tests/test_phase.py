import itertools
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pairs_of, random_permutation_mor
from veridyn.category import FinMor, FinObj, compose, identity_morphism
from veridyn.errors import (
    DenominatorOverflowError,
    NotAClosedLoopError,
    NotAutomorphismError,
    PartialPhaseMapError,
    ShapeMismatchError,
)
from veridyn.phase import (
    ZERO_PHASE,
    PhasedMorphism,
    RationalPhase,
    cycle_net_phase,
    interference_pairing,
    phase_add,
    phase_inverse,
    phase_lock_space,
)

# denominators divide 2520 so exact sums never exceed the denominator cap
_DENOMS = sorted(d for d in range(1, 2521) if 2520 % d == 0)
rationals = st.builds(
    RationalPhase,
    numerator=st.integers(-5000, 5000),
    denominator=st.sampled_from(_DENOMS),
)


def test_canonical_residue():
    assert RationalPhase(3, 2) == RationalPhase(1, 2)
    assert RationalPhase(-1, 4) == RationalPhase(3, 4)
    assert RationalPhase(4, 8) == RationalPhase(1, 2)
    assert RationalPhase(7, 7) == ZERO_PHASE
    p = RationalPhase(5, 10)
    assert (p.numerator, p.denominator) == (1, 2)


def test_parse():
    assert RationalPhase.parse("3/4") == RationalPhase(3, 4)
    assert RationalPhase.parse(" 0 ") == ZERO_PHASE
    assert RationalPhase.parse("-1/3") == RationalPhase(2, 3)
    with pytest.raises(ValueError):
        RationalPhase.parse("1/2/3")


def test_add_examples():
    q = RationalPhase(1, 4)
    assert phase_add(q, ZERO_PHASE) == q
    assert phase_add(q, q) == RationalPhase(1, 2)
    assert phase_add(RationalPhase(3, 4), RationalPhase(3, 4)) == RationalPhase(1, 2)
    assert phase_add(RationalPhase(1, 3), RationalPhase(2, 3)) == ZERO_PHASE
    assert phase_add(RationalPhase(1, 2), RationalPhase(1, 3)) == RationalPhase(5, 6)


def test_denominator_cap():
    with pytest.raises(DenominatorOverflowError):
        phase_add(RationalPhase(1, 999_983), RationalPhase(1, 999_979))


@given(rationals, rationals, rationals)
@settings(max_examples=300, deadline=None)
def test_group_laws_sampled(a, b, c):
    assert phase_add(a, b) == phase_add(b, a)
    assert phase_add(phase_add(a, b), c) == phase_add(a, phase_add(b, c))
    assert phase_add(a, ZERO_PHASE) == a
    assert phase_add(a, phase_inverse(a)) == ZERO_PHASE


def test_group_laws_exhaustive_small_denominators():
    phases = [RationalPhase(n, d)
              for d in range(1, 9) for n in range(d) if gcd(n, d) == 1]
    for a in phases:
        assert phase_add(a, ZERO_PHASE) == a
        inv = phase_inverse(a)
        assert phase_add(a, inv) == ZERO_PHASE
        assert inv == RationalPhase(a.denominator - a.numerator, a.denominator)
    for a, b in itertools.product(phases, repeat=2):
        assert phase_add(a, b) == phase_add(b, a)
    for a, b, c in itertools.product(phases, repeat=3):
        assert phase_add(phase_add(a, b), c) == phase_add(a, phase_add(b, c))


# --- cycles of phased morphisms -----------------------------------------------

X = FinObj("X", ("a", "b", "c"))
Y = FinObj("Y", ("u", "v"))


def _mor(src, dst, mapping, phase):
    return PhasedMorphism(FinMor.from_mapping(src, dst, mapping), phase)


def _loop(phases):
    ident = {x: x for x in X.elements}
    return [_mor(X, X, ident, p) for p in phases]


def test_cycle_net_phase_examples():
    assert cycle_net_phase(_loop([ZERO_PHASE] * 3)) == ZERO_PHASE
    tri = _loop([RationalPhase(1, 4), RationalPhase(1, 4), RationalPhase(1, 2)])
    assert cycle_net_phase(tri) == ZERO_PHASE
    tq = _loop([RationalPhase(1, 4)] * 3)
    assert cycle_net_phase(tq) == RationalPhase(3, 4)


def test_cycle_must_close():
    f = _mor(X, Y, {"a": "u", "b": "u", "c": "v"}, ZERO_PHASE)
    with pytest.raises(NotAClosedLoopError):
        cycle_net_phase([f])
    with pytest.raises(NotAClosedLoopError):
        cycle_net_phase([])
    g = _mor(Y, X, {"u": "a", "v": "b"}, ZERO_PHASE)
    assert cycle_net_phase([f, g]) == ZERO_PHASE


def test_cycle_rotation_invariance():
    rng = np.random.default_rng(12)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        loop = []
        for _ in range(k):
            base = random_permutation_mor(rng, X)
            den = int(rng.choice(_DENOMS))
            loop.append(PhasedMorphism(
                base, RationalPhase(int(rng.integers(0, den * 2)), den)))
        net = cycle_net_phase(loop)
        for shift in range(1, k):
            rotated = loop[shift:] + loop[:shift]
            assert cycle_net_phase(rotated) == net


# --- lock space ---------------------------------------------------------------


def test_lock_space_examples():
    ident = identity_morphism(X)
    assert phase_lock_space(ident, 1).elements == X.elements
    cyc = FinMor.from_mapping(X, X, {"a": "b", "b": "c", "c": "a"})
    assert phase_lock_space(cyc, 3).elements == ()
    swap = FinMor.from_mapping(X, X, {"a": "b", "b": "a", "c": "c"})
    assert phase_lock_space(swap, 2).elements == ("c",)


def test_lock_space_validates_inputs():
    notbij = FinMor.from_mapping(X, X, {"a": "a", "b": "a", "c": "c"})
    with pytest.raises(NotAutomorphismError):
        phase_lock_space(notbij, 2)
    swap = FinMor.from_mapping(X, X, {"a": "b", "b": "a", "c": "c"})
    with pytest.raises(NotAutomorphismError):
        phase_lock_space(swap, 3)  # 3 is not a multiple of the order 2


def test_lock_space_equals_fixed_set_on_random_permutations():
    from veridyn.category import automorphism_order
    rng = np.random.default_rng(77)
    for size in range(1, 8):
        obj = FinObj("P", tuple(f"e{i}" for i in range(size)))
        for _ in range(30):
            theta = random_permutation_mor(rng, obj)
            k = automorphism_order(theta)
            locked = phase_lock_space(theta, k)
            fixed = tuple(x for x, y in pairs_of(theta) if x == y)
            assert locked.elements == fixed


def _lock_space_reference(theta, k):
    """The k-fold construction: intersect the fixed sets of theta^0 .. theta^(k-1)."""
    locked = set(theta.src.elements)
    power = identity_morphism(theta.src)
    for _ in range(k):
        locked &= {x for x, y in pairs_of(power) if x == y}
        power = compose(power, theta)
    return tuple(sorted(locked))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(n))),
       st.integers(1, 3))
def test_lock_space_matches_k_fold_reference(perm, multiple):
    from veridyn.category import automorphism_order
    obj = FinObj("P", tuple(f"e{i}" for i in range(len(perm))))
    theta = FinMor.from_mapping(obj, obj, dict((f"e{i}", f"e{j}") for i, j in enumerate(perm)))
    k = automorphism_order(theta) * multiple
    assert phase_lock_space(theta, k).elements == _lock_space_reference(theta, k)


def test_lock_space_huge_period_is_checked_not_iterated():
    four = FinObj("C4", ("a", "b", "c", "d"))
    cyc = FinMor.from_mapping(four, four, {"a": "b", "b": "a", "c": "d", "d": "c"})
    assert phase_lock_space(cyc, 10 ** 12).elements == ()
    with pytest.raises(NotAutomorphismError):
        phase_lock_space(cyc, 10 ** 12 + 1)


# --- pairing ------------------------------------------------------------------


def _pairing_reference(carrier, phases):
    """The all-pairs construction: compare every ordered pair of phases."""
    pairs = [f"({x},{y})" for x in carrier.elements for y in carrier.elements
             if phases[x] == phases[y]]
    return FinObj(f"PhasePairs({carrier.id})", tuple(pairs))


def _outcome(fn, *args):
    try:
        return fn(*args).elements
    except ShapeMismatchError:
        return ShapeMismatchError


# labels of mixed lengths, so string order differs from tuple order, and with
# commas, so that two different pairs can print as the same label
labels = st.text(alphabet="ab,", min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.lists(labels, min_size=1, max_size=8, unique=True), st.data())
def test_pairing_matches_all_pairs_reference(elements, data):
    carrier = FinObj("L", tuple(elements))
    phases = {x: data.draw(st.sampled_from([ZERO_PHASE, RationalPhase(1, 3),
                                            RationalPhase(1, 2)]))
              for x in elements}
    assert _outcome(interference_pairing, carrier, phases) == \
        _outcome(_pairing_reference, carrier, phases)


def test_pairing_comma_collision_raises_like_reference():
    # ("a,b", "c") and ("a", "b,c") both print as "(a,b,c)"
    carrier = FinObj("L", ("a", "a,b", "b,c", "c"))
    phases = {x: ZERO_PHASE for x in carrier.elements}
    for fn in (interference_pairing, _pairing_reference):
        with pytest.raises(ShapeMismatchError):
            fn(carrier, phases)


def test_pairing_all_equal_and_all_distinct():
    same = {x: RationalPhase(1, 4) for x in X.elements}
    full = interference_pairing(X, same)
    assert full.size == X.size ** 2
    distinct = {"a": ZERO_PHASE, "b": RationalPhase(1, 3), "c": RationalPhase(2, 3)}
    diag = interference_pairing(X, distinct)
    assert diag.elements == ("(a,a)", "(b,b)", "(c,c)")


def test_pairing_mixed_example():
    phases = {"a": ZERO_PHASE, "b": ZERO_PHASE, "c": RationalPhase(1, 2)}
    got = interference_pairing(X, phases)
    assert got.elements == ("(a,a)", "(a,b)", "(b,a)", "(b,b)", "(c,c)")


def test_pairing_requires_total_assignment():
    with pytest.raises(PartialPhaseMapError):
        interference_pairing(X, {"a": ZERO_PHASE})


def test_pairing_rejects_phases_outside_the_carrier():
    ab = FinObj("X", ("a", "b"))
    quarter = RationalPhase(1, 4)
    extra = {"a": quarter, "b": quarter, "zz": RationalPhase(1, 2)}
    with pytest.raises(PartialPhaseMapError, match=r"missing \[\], extra \['zz'\]"):
        interference_pairing(ab, extra)
    with pytest.raises(PartialPhaseMapError, match=r"missing \['b'\], extra \['zz'\]"):
        interference_pairing(ab, {"a": quarter, "zz": quarter})
    assert interference_pairing(ab, {"a": quarter, "b": quarter}).size == 4
