import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import point_mass, random_mor, random_obj
from veridyn.category import FinMor, FinObj, FunctorRep, compose, identity_functor
from veridyn.coalgebra import iterate_to_theta
from veridyn.entropy import (
    EntropyParams,
    ProbState,
    build_trace,
    check_observation_bound,
    entropy_direction_report,
    prefix_entropies,
    pushforward,
    shannon_entropy,
    total_entropy_bound,
    trace_to_csv,
)
from veridyn.errors import (
    DomainError,
    InvalidDistributionError,
    ShapeMismatchError,
)

FOUR = FinObj("F4", ("w", "x", "y", "z"))
THREE = FinObj("T3", ("p", "q", "r"))
TWO = FinObj("T2", ("m", "n"))


def _random_dist(rng, carrier):
    raw = rng.random(carrier.size) + 1e-9
    return ProbState(carrier, tuple(raw / raw.sum()))


def test_normalization_enforced():
    with pytest.raises(InvalidDistributionError):
        ProbState(FOUR, (0.5, 0.5, 0.1, 0.0))
    with pytest.raises(InvalidDistributionError):
        ProbState(FOUR, (0.5, 0.5))
    with pytest.raises(InvalidDistributionError):
        ProbState(TWO, (1.5, -0.5))


@pytest.mark.parametrize("probs", [(math.nan, 0.5), (math.inf, 0.0)],
                         ids=["nan", "inf"])
def test_non_finite_probability_rejected(probs):
    # NaN compares false both ways, so each check must fail on it
    with pytest.raises(InvalidDistributionError):
        ProbState(TWO, probs)


def test_entropy_known_values():
    assert shannon_entropy(ProbState.uniform(FOUR)) == pytest.approx(2.0, abs=1e-12)
    assert shannon_entropy(point_mass(FOUR, "x")) == 0.0
    assert shannon_entropy(ProbState(THREE, (0.5, 0.25, 0.25))) == pytest.approx(
        1.5, abs=1e-12)


def test_pushforward_identity_and_collapse():
    p = _random_dist(np.random.default_rng(1), THREE)
    ident = FinMor.from_mapping(THREE, THREE, {x: x for x in THREE.elements})
    assert pushforward(p, ident).probs == pytest.approx(p.probs)
    const = FinMor.from_mapping(THREE, TWO, {x: "m" for x in THREE.elements})
    q = pushforward(p, const)
    assert q.probs == pytest.approx((1.0, 0.0))
    assert shannon_entropy(q) == 0.0


def test_pushforward_merge_example():
    p = ProbState.uniform(THREE)
    merge = FinMor.from_mapping(THREE, TWO, {"p": "m", "q": "m", "r": "n"})
    q = pushforward(p, merge)
    assert q.probs == pytest.approx((2 / 3, 1 / 3))
    assert shannon_entropy(q) == pytest.approx(0.9182958340544896, abs=1e-12)


def _pushforward_reference(p, f):
    """Label-keyed fiber sums: the mass of each image, summed in source order."""
    by_label = dict(zip(p.carrier.elements, p.probs))
    mass = {y: 0.0 for y in f.dst.elements}
    for x, y in f.pairs:
        mass[y] += by_label[x]
    return ProbState(f.dst, tuple(mass[y] for y in f.dst.elements))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9), st.integers(1, 5))
def test_pushforward_matches_label_reference_bitwise(seed, n_src, n_dst):
    rng = np.random.default_rng(seed)
    # labels of mixed lengths, so sorted string order differs from numeric order
    src = FinObj("S", tuple(f"s{int(i)}" for i in rng.choice(100, n_src, replace=False)))
    dst = FinObj("D", tuple(f"d{int(i)}" for i in rng.choice(100, n_dst, replace=False)))
    f = random_mor(rng, src, dst)
    p = _random_dist(rng, src)
    assert pushforward(p, f).probs == _pushforward_reference(p, f).probs


def test_pushforward_shape_mismatch():
    p = ProbState.uniform(THREE)
    f = FinMor.from_mapping(TWO, TWO, {"m": "m", "n": "n"})
    with pytest.raises(ShapeMismatchError):
        pushforward(p, f)


def _direction_oracle(H):
    """Steps where H falls by more than 1e-9 bits, and where it rises by more."""
    drops, rises = [], []
    for n, (now, nxt) in enumerate(zip(H, H[1:])):
        if now - nxt > 1e-9:
            drops.append(n)
        elif nxt - now > 1e-9:
            rises.append(n)
    return drops, rises


def test_data_processing_inequality_and_direction_report():
    rng = np.random.default_rng(42)
    for _ in range(500):
        src = random_obj(rng, "S", max_elems=5)
        dst = random_obj(rng, "D", max_elems=5, pool="ijklmn")
        p = _random_dist(rng, src)
        f = random_mor(rng, src, dst)
        h_src, h_img = shannon_entropy(p), shannon_entropy(pushforward(p, f))
        assert h_img <= h_src + 1e-9
        drops, rises = entropy_direction_report([h_src, h_img])
        # a map never expands entropy: no step contradicts contraction
        assert (drops, rises) == _direction_oracle([h_src, h_img]) and rises == []
    # random traces on levels 0.25 apart, each nudged by 0, 1e-12 or 1e-6,
    # so no difference lies near the 1e-9 tolerance
    for _ in range(500):
        length = int(rng.integers(0, 12))
        H = (rng.integers(0, 5, length) * 0.25
             + rng.choice([0.0, 1e-12, 1e-6], length)).tolist()
        assert entropy_direction_report(H) == _direction_oracle(H)


# --- bounds -----------------------------------------------------------------


def _step_violations(trace):
    # the expression cmd_entropy writes as step_violations
    return [s.n for s in trace.steps if not s.step_bound_ok]


def test_step_bound_no_violation_for_constant_trace():
    trace = build_trace([1.0] * 6, [0.5] * 6, EntropyParams(C=0.0))
    assert _step_violations(trace) == []


def test_step_bound_flags_initial_jump():
    trace = build_trace([0.0, 3.0, 3.0], [0.0, 0.0, 0.0], EntropyParams(C=1.0))
    assert _step_violations(trace) == [0]
    assert not trace.steps[0].step_bound_ok


def test_step_bound_half_log_growth_passes():
    H = [0.0]
    for n in range(8):
        H.append(H[-1] + 0.5 * math.log(n + 1))
    trace = build_trace(H, [0.0] * len(H), EntropyParams(C=1.0))
    assert _step_violations(trace) == []


def test_step_bound_oracle_agreement_random_traces():
    rng = np.random.default_rng(7)
    for _ in range(100):
        length = int(rng.integers(2, 20))
        H = np.abs(rng.standard_normal(length).cumsum()).tolist()
        C = float(rng.random() * 2)
        trace = build_trace(H, [0.0] * length, EntropyParams(C=C))
        brute = [n for n in range(length - 1)
                 if H[n + 1] - H[n] > C * math.log(n + 1) + 1e-9]
        assert _step_violations(trace) == brute


def test_observation_bound_cases():
    assert check_observation_bound(2.0, 2.5, 1.0)
    assert check_observation_bound(2.0, 2.0, 0.0)
    assert not check_observation_bound(1.0, 2.0, 0.5)


def test_total_bound_values_and_domain():
    params = EntropyParams(C=2.0, K=0.5)
    assert total_entropy_bound(1, 1.0, params) == pytest.approx(1.5)
    assert total_entropy_bound(3, 1.0, params) == pytest.approx(
        1.0 + 2.0 * math.log(3) + 1.5)
    assert total_entropy_bound(5, 1.0, EntropyParams()) == 1.0
    with pytest.raises(DomainError):
        total_entropy_bound(0, 1.0, params)


@given(st.integers(1, 50), st.floats(0, 10), st.floats(0, 5), st.floats(0, 5))
@settings(max_examples=80, deadline=None)
def test_total_bound_monotone(n, H0, C, K):
    params = EntropyParams(C=C, K=K)
    base = total_entropy_bound(n, H0, params)
    assert total_entropy_bound(n + 1, H0, params) >= base
    assert total_entropy_bound(n, H0 + 1.0, params) >= base
    assert total_entropy_bound(n, H0, EntropyParams(C=C + 1, K=K)) >= base
    assert total_entropy_bound(n, H0, EntropyParams(C=C, K=K + 1)) >= base


def test_params_validation():
    with pytest.raises(DomainError):
        EntropyParams(C=-1.0)
    with pytest.raises(DomainError):
        EntropyParams(alpha=0.0)


def test_k_schedule_overrides_constant():
    H = [1.0, 1.0, 1.0]
    H_O = [0.0, 3.0, 1.0]
    loose = build_trace(H, H_O, EntropyParams(K=0.1), k_schedule=[5.0, 5.0, 5.0])
    assert all(s.obs_bound_ok for s in loose.steps)
    tight = build_trace(H, H_O, EntropyParams(K=5.0), k_schedule=[0.1, 0.1, 0.1])
    assert not tight.steps[0].obs_bound_ok


# --- prefix-histogram ledger -----------------------------------------------


def _dense_prefix_entropies(points, bins, lo, hi):
    """The dense ledger: a ProbState over all bins**dim zero-padded cell labels."""
    width = len(str(bins - 1))

    def label(idx):
        return "b" + "_".join(f"{i:0{width}d}" for i in idx)

    cells = itertools.product(range(bins), repeat=len(points[0]))
    carrier = FinObj("bins", tuple(label(idx) for idx in cells))
    index_of = {lab: i for i, lab in enumerate(carrier.elements)}
    counts = np.zeros(carrier.size)
    out = []
    for n, vec in enumerate(points):
        idx = tuple(min(bins - 1, max(0, int((v - lo) / (hi - lo) * bins)))
                    for v in vec)
        counts[index_of[label(idx)]] += 1.0
        out.append(shannon_entropy(ProbState(carrier, tuple(counts / (n + 1)))))
    return out


@pytest.mark.parametrize("bins", [1, 10, 11, 16])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_prefix_entropies_match_dense_ledger_bitwise(dim, bins):
    lo, hi = -0.75, 1.25
    cell = (hi - lo) / bins
    rng = np.random.default_rng(100 * dim + bins)
    points = list(rng.uniform(lo - 0.5, hi + 0.5, size=(60, dim)))
    # below lo, above hi, just inside lo, just below lo (truncates toward
    # zero into cell 0), on hi, and repeats
    edges = [lo - 3.0, hi + 3.0, lo + 1e-12, lo - 0.3 * cell, hi, lo]
    points += [np.array([edges[(k + j) % len(edges)] for j in range(dim)])
               for k in range(len(edges))]
    points += points[:20] + [points[3]] * 5
    got = prefix_entropies(points, bins, lo, hi)
    assert got == _dense_prefix_entropies(points, bins, lo, hi)


def test_prefix_entropies_known_values():
    assert prefix_entropies([], 4, 0.0, 1.0) == []
    third = -(1 / 3 * math.log2(1 / 3) + 2 / 3 * math.log2(2 / 3))
    got = prefix_entropies([[0.1], [0.9], [0.6], [0.95]], 2, 0.0, 1.0)
    assert got == [0.0, 1.0, third, 0.8112781244591328]
    # the cell quotient overflows to +-inf: the point takes the end cell
    huge = prefix_entropies([[1.7e308], [1.9], [-1.7e308], [-1.9]], 16, -2.0, 2.0)
    assert huge == [0.0, 0.0, third, 1.0]


# --- memory filtration: the theta walk's inclusion_chain ----------------
#
# With update the identity functor, inclusion_chain is True exactly when
# every layer V^n(X) embeds into the next one label for label.


def test_filtration_identity_functor():
    ident = identity_functor([THREE])
    result = iterate_to_theta(ident, ident, THREE)
    assert result.stages == (THREE,)
    assert result.inclusion_chain


def test_filtration_growing_layers():
    l0 = FinObj("L0", ("a",))
    l1 = FinObj("L1", ("a", "b"))
    l2 = FinObj("L2", ("a", "b", "c"))
    grower = FunctorRep("V", {l0: l1, l1: l2, l2: l2}, {})
    result = iterate_to_theta(grower, identity_functor([l0, l1, l2]), l0)
    assert [layer.size for layer in result.stages] == [1, 2, 3]
    assert result.inclusion_chain


def test_filtration_collapse_rejected():
    l1 = FinObj("L1", ("a", "b"))
    l0 = FinObj("L0", ("a",))
    collapser = FunctorRep("V", {l1: l0, l0: l0}, {})
    result = iterate_to_theta(collapser, identity_functor([l0, l1]), l1)
    assert result.stages == (l1, l0)
    assert not result.inclusion_chain


def test_filtration_inclusions_compose_exactly():
    l0 = FinObj("L0", ("a",))
    l1 = FinObj("L1", ("a", "b"))
    l2 = FinObj("L2", ("a", "b", "c"))
    grower = FunctorRep("V", {l0: l1, l1: l2, l2: l2}, {})
    result = iterate_to_theta(grower, identity_functor([l0, l1, l2]), l0)
    assert result.inclusion_chain

    def inclusion(a, b):
        return FinMor(a, b, tuple((x, x) for x in a.elements))

    layers = result.stages
    assert compose(inclusion(layers[0], layers[1]), inclusion(layers[1], layers[2])) == \
        inclusion(layers[0], layers[2])


# --- CSV --------------------------------------------------------------------


def test_trace_csv_shape_and_flags():
    params = EntropyParams(C=0.0, K=0.0)
    trace = build_trace([0.0, 3.0], [0.0, 5.0], params)
    csv = trace_to_csv(trace, params)
    lines = csv.splitlines()
    assert lines[0] == "n,H,H_O,step_bound,obs_bound,total_bound,violated_flags"
    assert len(lines) == 3
    assert lines[1].endswith("step;obs")
    assert "total" in lines[2]
