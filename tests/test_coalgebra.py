import numpy as np
import pytest

from conftest import make_theta_system, pairs_of, relabel_obj
from veridyn.category import FinMor, FinObj, FunctorRep, identity_functor
from veridyn.coalgebra import (
    apply_F,
    build_chain,
    chain_to_csv,
    iterate_to_theta,
    verify_theta,
)
from veridyn.errors import NoWitnessError, UniverseEscapeError

A = FinObj("A", ("a1", "a2"))
B = FinObj("B", ("b1", "b2"))
MARKED = FinObj("Am", ("a1", "a2", "m"))
STAR = FinObj("S", ("s",))


# --- temporal iteration: the one walk of the F-orbit -----------------------


def test_iterate_temporal_zero_steps():
    # a carrier isomorphic to its image at once: one stage, no step taken
    ident = identity_functor([A])
    result = iterate_to_theta(ident, ident, A)
    assert result.stages == (A,)
    assert build_chain(result) == [(0, A)]


def test_iterate_temporal_identity():
    # V(Y) = Y: a carrier is isomorphic to itself, so the walk never needs a repeat
    update = FunctorRep("P", {A: MARKED, MARKED: STAR, STAR: STAR}, {})
    ident = identity_functor([A, MARKED, STAR])
    result = iterate_to_theta(ident, update, A)
    assert result.converged and result.cycle is None
    assert result.stages == (A, MARKED, STAR)
    assert result.witness.is_identity()
    assert "cycle" not in result.to_dict()
    assert verify_theta(ident, update, result).holds


def test_iterate_temporal_two_cycle():
    # carriers of 2 and 1 elements that update swaps: no limit exists
    update = FunctorRep("P", {A: STAR, STAR: A}, {})
    ident = identity_functor([A, STAR])
    result = iterate_to_theta(ident, update, A)
    assert not result.converged and result.witness is None
    assert result.stages == (A, STAR, A)
    assert result.cycle == (0, 2)
    assert (result.iterations, result.carrier) == (2, A)
    assert not result.inclusion_chain
    assert result.to_dict()["cycle"] == {"from": 0, "period": 2}
    with pytest.raises(NoWitnessError):
        verify_theta(ident, update, result)


def test_iterate_temporal_escape():
    partial = FunctorRep("P", {A: STAR}, {})
    with pytest.raises(UniverseEscapeError):
        iterate_to_theta(identity_functor([A, STAR]), partial, A)


def test_iterate_temporal_append_recurrence():
    rng = np.random.default_rng(5)
    for _ in range(20):
        verification, update, start, objs = make_theta_system(rng)
        result = iterate_to_theta(verification, update, start)
        assert result.stages[0] == start
        assert len(result.stages) <= len(objs) + 1
        for prev, nxt in zip(result.stages, result.stages[1:]):
            assert nxt == apply_F(verification, update, prev)


# --- the verification limit -------------------------------------------------


def test_apply_F_identity_and_marker():
    ident = identity_functor([A, MARKED])
    assert apply_F(ident, ident, A) == A
    grower = FunctorRep("V", {A: MARKED, MARKED: MARKED}, {})
    assert apply_F(grower, ident, A) == MARKED
    collapser = FunctorRep("P", {A: STAR, STAR: STAR}, {})
    assert apply_F(identity_functor([A, STAR]), collapser, A) == STAR


def test_theta_identity_converges_at_zero():
    ident = identity_functor([A])
    result = iterate_to_theta(ident, ident, A)
    assert result.converged and result.iterations == 0
    assert result.carrier == A
    assert result.witness.is_identity()
    assert verify_theta(ident, ident, result).holds


def test_theta_eventually_constant_chain():
    # sizes 2 -> 3 -> 1 -> 1: no early isomorphism, settles on the sink
    wide = FinObj("W", ("w1", "w2", "w3"))
    update = FunctorRep("P", {A: wide, wide: STAR, STAR: STAR}, {})
    ident = identity_functor([A, wide, STAR])
    result = iterate_to_theta(ident, update, A)
    assert result.converged
    assert result.carrier == STAR
    assert result.iterations == 2
    assert verify_theta(ident, update, result).holds


def test_theta_equal_size_step_counts_as_isomorphic():
    # carriers of equal size are isomorphic as bare finite sets, so the
    # stabilization criterion may fire before the chain is constant
    update = FunctorRep("P", {A: B, B: A}, {})
    ident = identity_functor([A, B])
    result = iterate_to_theta(ident, update, A)
    assert result.converged and result.iterations == 0
    assert pairs_of(result.witness) == (("a1", "b1"), ("a2", "b2"))
    assert verify_theta(ident, update, result).holds


def test_theta_growing_chain_does_not_converge():
    # V is undefined on G3: the orbit leaves the universe before it could repeat
    g0 = FinObj("G0", ("x0",))
    g1 = FinObj("G1", ("x0", "x1"))
    g2 = FinObj("G2", ("x0", "x1", "x2"))
    g3 = FinObj("G3", ("x0", "x1", "x2", "x3"))
    grower = FunctorRep("V", {g0: g1, g1: g2, g2: g3}, {})
    ident = identity_functor([g0, g1, g2, g3])
    with pytest.raises(UniverseEscapeError):
        iterate_to_theta(grower, ident, g0)


def test_theta_cycle_after_tail():
    # sizes 1, 2, then the 3-cycle 3 -> 4 -> 5 -> 3
    objs = [FinObj(f"T{i}", tuple(f"t{i}_{j}" for j in range(i + 1))) for i in range(5)]
    verification = FunctorRep("V", {**{objs[i]: objs[i + 1] for i in range(4)},
                                    objs[4]: objs[2]}, {})
    result = iterate_to_theta(verification, identity_functor(objs), objs[0])
    assert not result.converged
    assert result.stages == (*objs, objs[2])
    assert result.cycle == (2, 3)
    assert len(chain_to_csv(build_chain(result)).splitlines()) == 1 + 6


def test_generated_systems_converge_and_idempotent():
    rng = np.random.default_rng(17)
    for _ in range(30):
        verification, update, start, _ = make_theta_system(rng)
        result = iterate_to_theta(verification, update, start)
        assert result.converged
        assert verify_theta(verification, update, result).holds
        once_more = apply_F(verification, update, result.carrier)
        assert once_more.size == result.carrier.size


def test_corrupted_witness_detected():
    rng = np.random.default_rng(23)
    found = 0
    for _ in range(60):
        verification, update, start, _ = make_theta_system(rng)
        result = iterate_to_theta(verification, update, start)
        if not result.converged or result.carrier.size < 2:
            continue
        w = result.witness
        (x1, y1), (x2, y2) = pairs_of(w)[0], pairs_of(w)[1]
        tampered = FinMor.from_mapping(w.src, w.dst,
                                       dict(((x1, y2), (x2, y1)) + pairs_of(w)[2:]))
        from dataclasses import replace
        bad = replace(result, witness=tampered)
        report = verify_theta(verification, update, bad)
        assert not report.holds
        assert {v.element for v in report.violations} == {x1, x2}
        found += 1
    assert found >= 5


def test_convergence_invariant_under_relabeling():
    rng = np.random.default_rng(31)
    for _ in range(20):
        verification, update, start, objs = make_theta_system(rng)
        labels = sorted({x for o in objs for x in o.elements})
        shuffled = list(labels)
        rng.shuffle(shuffled)
        table = dict(zip(labels, shuffled))
        mapped = {o: relabel_obj(o, table) for o in objs}
        verification2 = FunctorRep("V", {mapped[a]: mapped[b]
                                         for a, b in verification.obj_map.items()}, {})
        update2 = FunctorRep("P", {mapped[a]: mapped[b]
                                   for a, b in update.obj_map.items()}, {})
        r1 = iterate_to_theta(verification, update, start)
        r2 = iterate_to_theta(verification2, update2, mapped[start])
        assert (r1.converged, r1.iterations) == (r2.converged, r2.iterations)


def test_chain_records_and_csv():
    update = FunctorRep("P", {A: B, B: STAR, STAR: STAR}, {})
    ident = identity_functor([A, B, STAR])
    result = iterate_to_theta(ident, update, A)
    chain = build_chain(result)
    # A and B have equal sizes, so the walk converges at stage 0
    assert chain == [(0, A)]
    result = iterate_to_theta(ident, update, B)
    chain = build_chain(result)
    assert chain == [(0, B), (1, STAR)]
    csv = chain_to_csv(chain)
    assert csv.splitlines() == ["stage,carrier_size", "0,2", "1,1"]


def test_theta_result_serializes():
    ident = identity_functor([A])
    doc = iterate_to_theta(ident, ident, A).to_dict()
    assert doc["converged"] is True
    assert doc["carrier"]["id"] == "A"
    assert doc["witness"]["mapping"] == {"a1": "a1", "a2": "a2"}
