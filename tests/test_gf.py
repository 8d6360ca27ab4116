"""Field arithmetic: frozen moduli, group axioms, table consistency."""

import numpy as np
import pytest

from otlab.gf import GF, MAX_DEGREE, Field, canonical_polynomial

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
    assert f.mul(1, 1) == 1
    assert 1 ^ 1 == 0  # addition is XOR
    assert f.inv(1) == 1


def test_gf8_sample_product():
    # x * x^2 = x^3 = x + 1 under x^3 + x + 1, i.e. 2 * 4 = 3; and the
    # often-quoted 4 * 4 = x^4 = x^2 + x = 6.
    f = GF(3)
    assert f.mul(2, 4) == 3
    assert f.mul(4, 4) == 6


def test_check_rejects_out_of_range():
    f = GF(2)
    for a in (-1, 4, 5):
        with pytest.raises(ValueError):
            f.check(a)
    assert f.check(3) == 3


def exhaustive_field_axioms(f):
    els = list(range(f.order))
    for a in els:
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
    for a in els:
        for b in els:
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)


def test_axioms_exhaustive_small_fields():
    for degree in (1, 2, 3, 4):
        exhaustive_field_axioms(GF(degree))


def test_inverses_exhaustive():
    for degree in range(1, MAX_DEGREE + 1):
        f = GF(degree)
        for a in range(1, f.order):
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_pow_matches_repeated_multiplication():
    for degree in (2, 3, 5):
        f = GF(degree)
        for a in range(1, f.order):
            acc = 1
            for k in range(2 * f.order):
                assert f.pow(a, k) == acc
                acc = f.mul(acc, a)
        assert f.pow(0, 0) == 1
        assert f.pow(0, 3) == 0


def test_sqrt_unique_in_characteristic_two():
    # Squaring is a bijection, so every element has exactly one root.
    for degree in range(1, 6):
        f = GF(degree)
        squares = sorted(f.mul(a, a) for a in range(f.order))
        assert squares == list(range(f.order))
        for a in range(f.order):
            r = f.sqrt(a)
            assert f.mul(r, r) == a


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
    f = GF(2)
    assert f.dot((1, 2, 3), (3, 2, 1)) == (f.mul(1, 3) ^ f.mul(2, 2)
                                           ^ f.mul(3, 1))
    assert f.dot((), ()) == 0
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = tuple(int(a) for a in rng.integers(0, 4, size=6))
        v = tuple(int(a) for a in rng.integers(0, 4, size=6))
        w = tuple(int(a) for a in rng.integers(0, 4, size=6))
        uv = tuple(a ^ b for a, b in zip(u, v))
        assert f.dot(u, w) ^ f.dot(v, w) == f.dot(uv, w)


def test_random_products_stay_in_range():
    rng = np.random.default_rng(1)
    for degree in (6, 7, 8):
        f = GF(degree)
        for _ in range(200):
            a = int(rng.integers(0, f.order))
            b = int(rng.integers(0, f.order))
            c = f.mul(a, b)
            assert 0 <= c < f.order
            if a and b:
                assert f.mul(c, f.inv(a)) == b
