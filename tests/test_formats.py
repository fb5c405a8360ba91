"""write_json writes exactly json.dumps(obj, indent=2, sort_keys=True) + "\\n"."""

import json
import math
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from veridyn import _formats
from veridyn._formats import write_json


class Real(float):
    """A float subclass: json prints it through float.__repr__."""


def _outcome(write, obj):
    try:
        return write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _stdlib(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _written(path, obj):
    write_json(path, obj)
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


# values of the exact scalar types only, so a container of them is a leaf
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e308,
           2 ** 64, -(2 ** 64) - 1, 10 ** 40, True, False, None, "", "é中",
           "\x00\x1f\n\t\"\\", "\ud800"]
scalars = st.one_of(
    st.sampled_from(SPECIAL + [Real(2.5), Real(math.nan)]),
    st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.floats(),
    st.text(max_size=6),
    st.text(alphabet=st.characters(max_codepoint=0x1f), max_size=4),
    st.builds(Real, st.floats()),
)
# keys of one family per dict sort among themselves; mixing str with the
# others makes json.dumps raise TypeError, and the writer must raise it too
key_families = [
    st.text(max_size=4),
    st.one_of(st.integers(-3, 3), st.floats(), st.booleans(), st.builds(Real, st.floats())),
    st.none(),
    st.one_of(st.text(max_size=2), st.integers(-2, 2)),
]


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        *(st.dictionaries(keys, children, max_size=5) for keys in key_families),
    )


trees = st.recursive(scalars, _containers, max_leaves=40)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trees)
def test_write_json_matches_json_dumps(tmp_path, obj):
    path = tmp_path / "doc.json"
    assert _outcome(lambda o: _written(path, o), obj) == _outcome(_stdlib, obj)


def _leaf(kind, n, rng):
    values = [rng.choice(SPECIAL) for _ in range(n)]
    if kind == "list":
        return values
    if kind == "tuple":
        return tuple(values)
    if kind == "str-keyed dict":
        # shuffled insertion, so the writer's sort is what puts them in order
        keys = [f"k{i}" for i in rng.sample(range(n), n)]
    else:
        keys = rng.sample(range(n), n)
    return dict(zip(keys, values))


@pytest.mark.parametrize("kind", ["list", "tuple", "str-keyed dict", "int-keyed dict"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_leaf_containers_around_the_slice_size(tmp_path, kind, offset):
    rng = random.Random(offset)
    leaf = _leaf(kind, _formats._SLICE + offset, rng)
    assert set(map(type, leaf.values() if isinstance(leaf, dict) else leaf)) <= \
        _formats._SCALARS
    for obj in (leaf, {"nested": [leaf, {"deeper": leaf}], "scalar": 1}):
        assert _written(tmp_path / "doc.json", obj) == _stdlib(obj)


def test_unsupported_values_raise_like_json_dumps(tmp_path):
    cyclic = [1]
    cyclic.append({"back": cyclic})
    for obj in (cyclic, {(1, 2): [1]}, {"a": [object()]}, {"a": 1, 2: [3]}):
        expected = _outcome(_stdlib, obj)
        assert isinstance(expected, tuple)
        assert _outcome(lambda o: _written(tmp_path / "doc.json", o), obj) == expected


def test_write_json_streams_a_large_document(tmp_path):
    rows = [{"i": i, "x": i / 7, "name": f"e{i}"} for i in range(10 ** 5)]
    tracemalloc.start()
    try:
        write_json(tmp_path / "rows.json", rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the document is 7.3 MB; json.dumps holds 70 MB of chunks for it
    assert peak < 2 * 2 ** 20
    with open(tmp_path / "rows.json", encoding="utf-8") as fh:
        assert json.load(fh) == rows
