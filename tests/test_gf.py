"""Field arithmetic: frozen moduli, group axioms, table consistency."""

import numpy as np
import pytest

from otlab.gf import GF, MAX_DEGREE, Field, canonical_polynomial
from otlab.linalg import dot, pack
from tuple_reference import mul

# Lexicographically smallest primitive polynomial per degree, as ints.
# Pinned so encoded field elements never change meaning between versions.
FROZEN_POLYS = {1: 3, 2: 7, 3: 11, 4: 19, 5: 37, 6: 67, 7: 131, 8: 285}


def test_canonical_polynomials_are_frozen():
    for degree, poly in FROZEN_POLYS.items():
        assert canonical_polynomial(degree) == poly


def test_degree_bounds_rejected():
    with pytest.raises(ValueError):
        GF(0)
    with pytest.raises(ValueError):
        GF(MAX_DEGREE + 1)


def test_gf_cache_returns_same_object():
    assert GF(3) is GF(3)
    assert GF(3) == Field(3)
    assert GF(3) != GF(4)


def test_binary_field_is_plain_bits():
    f = GF(1)
    assert f.order == 2
    assert mul(f, 1, 1) == 1
    assert 1 ^ 1 == 0  # addition is XOR
    assert f.inv(1) == 1


def test_gf8_sample_product():
    # x * x^2 = x^3 = x + 1 under x^3 + x + 1, i.e. 2 * 4 = 3; and the
    # often-quoted 4 * 4 = x^4 = x^2 + x = 6.
    f = GF(3)
    assert mul(f, 2, 4) == 3
    assert mul(f, 4, 4) == 6


def test_check_rejects_out_of_range():
    f = GF(2)
    for a in (-1, 4, 5):
        with pytest.raises(ValueError):
            f.check(a)
    assert f.check(3) == 3


def test_check_rejects_bools_and_floats():
    # JSON true is not the element 1, nor 1.0
    f = GF(1)
    for a in (True, False, 1.0, "1"):
        with pytest.raises(ValueError):
            f.check(a)
    assert f.check(1) == 1


def exhaustive_field_axioms(f):
    els = list(range(f.order))
    for a in els:
        assert mul(f, a, 1) == a
        assert mul(f, a, 0) == 0
    for a in els:
        for b in els:
            assert mul(f, a, b) == mul(f, b, a)
            for c in els:
                assert mul(f, a, b ^ c) == mul(f, a, b) ^ mul(f, a, c)
                assert mul(f, a, mul(f, b, c)) == mul(f, mul(f, a, b), c)


def test_axioms_exhaustive_small_fields():
    for degree in (1, 2, 3, 4):
        exhaustive_field_axioms(GF(degree))


def test_inverses_exhaustive():
    for degree in range(1, MAX_DEGREE + 1):
        f = GF(degree)
        for a in range(1, f.order):
            assert mul(f, a, f.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_pow_matches_repeated_multiplication():
    for degree in (2, 3, 5):
        f = GF(degree)
        for a in range(1, f.order):
            acc = 1
            for k in range(2 * f.order):
                assert f.pow(a, k) == acc
                acc = mul(f, acc, a)
        assert f.pow(0, 0) == 1
        assert f.pow(0, 3) == 0


def test_sqrt_unique_in_characteristic_two():
    # Squaring is a bijection, so every element has exactly one root.
    for degree in range(1, 6):
        f = GF(degree)
        squares = sorted(mul(f, a, a) for a in range(f.order))
        assert squares == list(range(f.order))
        for a in range(f.order):
            r = f.sqrt(a)
            assert mul(f, r, r) == a


def test_multiplicative_group_is_cyclic_with_generator_x():
    for degree in range(1, MAX_DEGREE + 1):
        f = GF(degree)
        seen = set()
        for i in range(f.order - 1):
            seen.add(f.alpha_power(i))
        assert seen == set(range(1, f.order))
        for a in range(1, f.order):
            assert f.alpha_power(f.dlog(a)) == a
        with pytest.raises(ValueError):
            f.dlog(0)


def test_dlog_of_x_is_one():
    for degree in range(2, MAX_DEGREE + 1):
        assert GF(degree).dlog(2) == 1


def test_dot():
    """The inner product of packed words: a worked example, the empty word
    and linearity in the first argument."""
    f = GF(2)
    assert dot(f, pack(f, (1, 2, 3)), pack(f, (3, 2, 1))) == (
        mul(f, 1, 3) ^ mul(f, 2, 2) ^ mul(f, 3, 1))
    assert dot(f, 0, 0) == 0
    rng = np.random.default_rng(5)
    for _ in range(50):
        u, v, w = (pack(f, rng.integers(0, 4, size=6).tolist())
                   for _ in range(3))
        assert dot(f, u, w) ^ dot(f, v, w) == dot(f, u ^ v, w)


def test_random_products_stay_in_range():
    rng = np.random.default_rng(1)
    for degree in (6, 7, 8):
        f = GF(degree)
        for _ in range(200):
            a = int(rng.integers(0, f.order))
            b = int(rng.integers(0, f.order))
            c = mul(f, a, b)
            assert 0 <= c < f.order
            if a and b:
                assert mul(f, c, f.inv(a)) == b
