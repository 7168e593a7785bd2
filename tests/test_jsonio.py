"""`jsonio.dumps` against the plain tolist() encoding, byte for byte."""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_oracle
from cpsdlab import jsonio
from cpsdlab.bell import (behavior_from_correlation, behavior_matrix_factorization,
                          exponential_family, exponential_family_vectors)
from cpsdlab.lorentz import gl_to_cpsd

# -0.0, subnormals down to 5e-324, and both sides of the points where repr
# switches between plain and exponent form (1e16 and 1e-4 / 1e-5)
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e16, -1e16,
           9999999999999998.0, 1.0000000000000002e16, 1e-5, 1.0000000000000001e-05,
           9.999999999999999e-06, 0.0001, 9.999999999999999e-05, 1e22, 0.1, 1 / 3, 2.0]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


@contextmanager
def table_for_every_array():
    """Write every float array through the shared repr table, however small."""
    saved = jsonio.TABLE_MIN_SIZE
    jsonio.TABLE_MIN_SIZE = 1
    try:
        yield
    finally:
        jsonio.TABLE_MIN_SIZE = saved


def assert_matches_oracle(payload):
    want = json_oracle(payload)
    assert jsonio.dumps(payload) == want
    with table_for_every_array():
        assert jsonio.dumps(payload) == want


@st.composite
def float_arrays(draw, values=VALUES):
    """Float arrays of 0 to 3 dimensions, zero-length axes included, holding a
    few values many times or all-distinct draws, sometimes as a strided view."""
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    size = math.prod(shape)
    if draw(st.booleans()):
        pool = draw(st.lists(values, min_size=1, max_size=3))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
        vals = [pool[i] for i in picks]
    else:
        vals = draw(st.lists(values, min_size=size, max_size=size))
    a = np.array(vals, dtype=float).reshape(shape)
    return a.T if draw(st.booleans()) else a


LEAVES = st.one_of(
    float_arrays(),
    st.lists(st.integers(-5, 5), max_size=6).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=4).map(lambda v: np.array(v, dtype=bool).reshape(-1, 1)),
    VALUES.map(np.float64),
    st.integers(-10, 10).map(np.int64),
    st.booleans().map(np.bool_),
    VALUES, st.integers(), st.booleans(), st.none(), st.text(max_size=4),
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)


@given(PAYLOADS)
@settings(max_examples=300, deadline=None)
def test_dumps_matches_the_tolist_oracle(payload):
    assert_matches_oracle(payload)


@given(PAYLOADS, st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_a_non_finite_value_anywhere_is_refused(payload, bad, where):
    a = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    a.flat[where % a.size] = bad
    for obj in ({"payload": payload, "array": a}, [payload, [float(bad)]]):
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps(obj)
        with table_for_every_array(), pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps(obj)


@pytest.mark.parametrize("value", SPECIAL)
def test_each_special_value_in_every_position(value):
    for shape in [(1,), (5,), (2, 3), (3, 1, 2)]:
        a = np.zeros(shape)
        for k in range(a.size):
            b = a.copy()
            b.flat[k] = value
            assert_matches_oracle(b)


@pytest.mark.parametrize("a", [np.array(1.5), np.array(-0.0), np.zeros(0), np.zeros((3, 0)),
                               np.zeros((0, 3)), np.zeros((2, 0, 2))])
def test_zero_dimensional_and_empty_arrays(a):
    assert_matches_oracle({"a": a, "b": [a, a]})


def test_nul_characters_in_strings_are_written_the_long_way():
    payload = {"\x00": "\x00", "a": np.array([1.0, -0.0]), "b": ["\x00", np.eye(20)]}
    assert_matches_oracle(payload)


def test_factor_family_and_behavior_payloads():
    C, _ = exponential_family(3)
    fam = behavior_matrix_factorization(C, U=exponential_family_vectors(3))
    payload = {"factorization": jsonio.factorization_to_json(gl_to_cpsd(fam)),
               "vectors": jsonio.lorentz_to_json(fam),
               "gram": jsonio.matrix_to_json(fam.vectors @ fam.vectors.T),
               "behavior": jsonio.behavior_to_json(behavior_from_correlation(C))}
    assert_matches_oracle(payload)


def test_all_distinct_values():
    magnitudes = 10.0 ** np.arange(-8, 7, 0.05)[:, None]
    a = np.random.default_rng(5).standard_normal((300, 2)) * magnitudes
    assert len(np.unique(a)) == a.size
    assert_matches_oracle([a, a[::-1], a.T])


def test_factorization_reads_back_into_the_same_stack_bit_for_bit():
    C, _ = exponential_family(2)
    fact = gl_to_cpsd(behavior_matrix_factorization(C, U=exponential_family_vectors(2)))
    back = jsonio.factorization_from_json(
        json.loads(jsonio.dumps(jsonio.factorization_to_json(fact))))
    assert back.factors.shape == fact.factors.shape
    assert np.array_equal(back.factors.view(np.uint64), fact.factors.view(np.uint64))
