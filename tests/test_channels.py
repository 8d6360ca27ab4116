"""Channel simulation: BSC, duplication folding, false pairs."""

import math

import numpy as np
import pytest

from otlab.channels import (ERASED, BscParams, TernaryWord, derive_rng,
                            duplicate_round_trip)

from false_pairs import bsc_transmit, transmit_with_false_pairs


def test_erased_sentinel():
    assert ERASED == 2


def test_derive_rng_reproducible_and_keyed():
    assert derive_rng(5).integers(0, 1 << 30) == 720255338
    assert derive_rng(5, 0).integers(0, 1 << 30) == 236600005
    assert derive_rng(5, 0, 1).integers(0, 1 << 30) == 884820139
    a = derive_rng(42, 1, 7).random(8)
    b = derive_rng(42, 1, 7).random(8)
    c = derive_rng(42, 1, 8).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bsc_params_values():
    p = BscParams(0.198)
    assert p.erasure_rate == pytest.approx(0.317592)
    assert p.residual_error == pytest.approx(0.0574495, rel=1e-5)
    z = BscParams(0.0)
    assert z.erasure_rate == 0.0
    assert z.residual_error == 0.0
    for bad in (-0.01, 0.5, 0.7):
        with pytest.raises(ValueError):
            BscParams(bad)


def test_bsc_params_consistency_identity():
    # eps + (1 - eps)(1 - p) + (1 - eps) p = 1 for every phi
    for phi in np.linspace(0.0, 0.499, 60):
        p = BscParams(float(phi))
        eps, err = p.erasure_rate, p.residual_error
        assert eps + (1 - eps) == pytest.approx(1.0)
        # survivors carry probability mass (1-phi)^2 + phi^2
        assert (1 - eps) == pytest.approx((1 - phi) ** 2 + phi ** 2)
        assert (1 - eps) * err == pytest.approx(phi * phi)


def test_ternary_word_counts_and_trace():
    w = TernaryWord((0, 1, ERASED, 1, ERASED))
    assert len(w) == 5
    assert w.erased_count == 2
    assert w.unerased_count == 3
    assert w.non_erased_indices() == (0, 1, 3)
    assert w.trace() == "01*1*"
    with pytest.raises(ValueError):
        TernaryWord((0, 3, 1))


def test_bsc_transmit_extremes_and_validation():
    rng = np.random.default_rng(1)
    bits = tuple(int(b) for b in rng.integers(0, 2, size=200))
    assert bsc_transmit(bits, 0.0, rng) == bits
    with pytest.raises(ValueError):
        bsc_transmit(bits, 0.5, rng)
    with pytest.raises(ValueError):
        bsc_transmit(bits, -0.1, rng)


def test_bsc_transmit_flip_rate():
    rng = np.random.default_rng(2)
    n = 1_000_000
    bits = (0,) * n
    out = bsc_transmit(bits, 0.198, rng)
    flips = sum(out)
    sigma = (n * 0.198 * 0.802) ** 0.5
    assert abs(flips - n * 0.198) < 5 * sigma


def test_duplicate_round_trip_noiseless():
    rng = np.random.default_rng(3)
    bits = tuple(int(b) for b in rng.integers(0, 2, size=64))
    w = duplicate_round_trip(bits, 0.0, rng)
    assert w.symbols == bits
    assert w.erased_count == 0


def test_duplicate_round_trip_golden():
    rng = derive_rng(7, 3, 1)
    w = duplicate_round_trip((0, 1) * 10, 0.25, rng)
    assert w.trace() == "0*0*0**1*11*01*10101"


def test_duplicate_round_trip_statistics():
    """Erasure and survivor-error rates match the closed forms."""
    rng = np.random.default_rng(4)
    phi = 0.198
    params = BscParams(phi)
    n = 400_000
    bits = (0,) * n
    w = duplicate_round_trip(bits, phi, rng)
    eps = params.erasure_rate
    sig_e = (n * eps * (1 - eps)) ** 0.5
    assert abs(w.erased_count - n * eps) < 5 * sig_e
    survivors = w.unerased_count
    wrong = sum(1 for s in w.symbols if s == 1)
    p = params.residual_error
    sig_p = (survivors * p * (1 - p)) ** 0.5
    assert abs(wrong - survivors * p) < 5 * sig_p


def test_duplicate_round_trip_matches_per_symbol_loop():
    """The vectorized fold against the per-symbol reference loop."""
    def reference(bits, phi, rng):
        flips = rng.random((len(bits), 2)) < phi
        out = []
        for b, (f1, f2) in zip(bits, flips):
            out.append(int(b) ^ int(f1) if f1 == f2 else ERASED)
        return TernaryWord(tuple(out))

    for n0 in (15, 63):
        for seed in range(2000):
            bits = tuple(int(b) for b in
                         derive_rng(seed, 1).integers(0, 2, size=n0))
            got = duplicate_round_trip(bits, 0.198, derive_rng(seed, 2))
            want = reference(bits, 0.198, derive_rng(seed, 2))
            assert got == want
            assert all(type(s) is int for s in got.symbols)


def test_duplicate_round_trip_validation():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        duplicate_round_trip((0, 1), 0.6, rng)


def test_false_duplicate_statistics():
    """Mismatched pairs erase w.p. 1 - eps, else land on each value
    w.p. phi (1 - phi)."""
    rng = derive_rng(95)
    phi = 0.3
    n = 200_000
    word = transmit_with_false_pairs((1,) * n, range(n), phi, rng)
    p_erase = 1 - BscParams(phi).erasure_rate
    sig = math.sqrt(n * p_erase * (1 - p_erase))
    assert abs(word.erased_count - n * p_erase) < 5 * sig
    p_side = phi * (1 - phi)
    sig_side = math.sqrt(n * p_side * (1 - p_side))
    for value in (0, 1):
        landed = word.symbols.count(value)
        assert abs(landed - n * p_side) < 5 * sig_side


def test_false_duplicate_validation():
    rng = derive_rng(96)
    assert transmit_with_false_pairs((0, 1), (0, 1), 0.0,
                                     rng).erased_count == 2
    with pytest.raises(ValueError):
        transmit_with_false_pairs((0,), (0,), 0.5, rng)
