"""Channel simulation: BSC, duplication folding, false pairs, and the
pure-Python PCG64 stream against numpy's Generator."""

import math
import random

import numpy as np
import pytest

from otlab.channels import (BscParams, derive_rng, duplicate_round_trip,
                            random_bits)
from otlab.gf import GF
from otlab.linalg import pack

from false_pairs import bsc_transmit, transmit_with_false_pairs
from tuple_reference import ERASED, pack_received


def test_derive_rng_reproducible_and_keyed():
    assert derive_rng(5).integers(0, 1 << 30) == 720255338
    assert derive_rng(5, 0).integers(0, 1 << 30) == 236600005
    assert derive_rng(5, 0, 1).integers(0, 1 << 30) == 884820139
    a = derive_rng(42, 1, 7).random(8)
    b = derive_rng(42, 1, 7).random(8)
    c = derive_rng(42, 1, 8).random(8)
    assert a == b
    assert a != c


def numpy_stream(seed, key=()):
    """The reference: numpy's Generator on the same seed and key path."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def position(rng):
    """The stream's PCG64 state and its spare 32-bit half, if any (once a
    spare is used, numpy leaves a stale value behind that no draw reads)."""
    return (rng.state, rng.inc, rng.has_uint32,
            rng.uinteger if rng.has_uint32 else None)


def numpy_position(gen):
    state = gen.bit_generator.state
    return (state["state"]["state"], state["state"]["inc"],
            state["has_uint32"],
            state["uinteger"] if state["has_uint32"] else None)


def test_stream_draws_equal_numpy_draws_bit_for_bit():
    """3,000 seeded streams of 12 mixed draws each: sized and scalar
    integers over ranges 1, 2, 3, 4, 16 and 256 (size 0 included), random
    and permutation (of 0, 1 and more items), at seeds 0, below 2^32,
    above 2^32 and above 2^64 with spawn keys of up to three words of up
    to 40 bits; then numpy takes over the stream mid-way."""
    plan = random.Random(2020)
    spans = (1, 2, 3, 4, 16, 256)
    for t in range(3000):
        seed = (0, 1 + t, (1 << 32) + t, (1 << 64) + 3 * t)[t % 4]
        key = tuple(plan.getrandbits(plan.choice((1, 16, 40)))
                    for _ in range(plan.randrange(4)))
        ours, ref = derive_rng(seed, *key), numpy_stream(seed, key)
        assert position(ours) == numpy_position(ref)
        for _ in range(12):
            kind = plan.randrange(5)
            if kind == 0:
                low, span = plan.randrange(3), plan.choice(spans)
                size = plan.randrange(9)
                got = ours.integers(low, low + span, size=size)
                assert got == ref.integers(low, low + span, size=size).tolist()
            elif kind == 1:
                span = plan.choice(spans)
                got = ours.integers(span)
                assert got == ref.integers(span) and type(got) is int
            elif kind == 2:
                size = plan.randrange(5)
                assert ours.random(size) == ref.random(size).tolist()
            elif kind == 3:
                assert ours.random() == ref.random()
            else:
                n = plan.choice((0, 1, 2, 15, 30, 100))
                assert ours.permutation(n) == ref.permutation(n).tolist()
        assert position(ours) == numpy_position(ref)
        handoff = ours.numpy_generator()
        assert numpy_position(handoff) == numpy_position(ref)
        assert (handoff.integers(0, 7, size=5).tolist()
                == ref.integers(0, 7, size=5).tolist())
        assert handoff.random() == ref.random()


def test_stream_keeps_the_spare_half_across_calls():
    """A bounded draw uses the low 32 bits of a 64-bit output first and
    keeps the high half for the next bounded draw, across calls and past
    64-bit draws (random), as numpy's bit generator does; ranges up to
    2^32 itself are drawn."""
    ours, ref = derive_rng(11, 5), numpy_stream(11, (5,))
    assert ours.integers(0, 2, size=3) == ref.integers(0, 2, size=3).tolist()
    assert ours.has_uint32 == 1
    spare = ours.uinteger
    assert ours.random(2) == ref.random(2).tolist()
    assert (ours.has_uint32, ours.uinteger) == (1, spare)
    assert ours.integers(0, 256) == ref.integers(0, 256) == spare * 256 >> 32
    assert ours.has_uint32 == 0
    # merged draws are the split ones
    merged = derive_rng(11, 6).integers(0, 4, size=7)
    split = derive_rng(11, 6)
    assert split.integers(0, 4, size=3) + split.integers(0, 4, size=4) == merged
    top = 1 << 32
    assert (ours.integers(0, top, size=3)
            == ref.integers(0, top, size=3).tolist())
    assert ours.integers(top) == ref.integers(top)
    assert position(ours) == numpy_position(ref)


def test_stream_refuses_what_it_does_not_replicate():
    rng = derive_rng(1)
    for low, high in ((0, (1 << 32) + 1), (0, 1 << 40), (0, 0), (5, 4)):
        with pytest.raises(ValueError):
            rng.integers(low, high)
    with pytest.raises(ValueError):
        rng.integers(0, 1 << 33, size=2)
    with pytest.raises(ValueError):
        rng.permutation((1 << 32) + 1)
    for seed, key in ((-1, ()), (3, (0, -2))):
        with pytest.raises(ValueError):
            derive_rng(seed, *key)
        with pytest.raises(ValueError):
            numpy_stream(seed, key)
    assert position(rng) == position(derive_rng(1))


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
    with pytest.raises(AttributeError, match="immutable"):
        p.crossover = 0.1


def test_bsc_params_consistency_identity():
    # eps + (1 - eps)(1 - p) + (1 - eps) p = 1 for every phi
    for phi in np.linspace(0.0, 0.499, 60):
        p = BscParams(float(phi))
        eps, err = p.erasure_rate, p.residual_error
        assert eps + (1 - eps) == pytest.approx(1.0)
        # survivors carry probability mass (1-phi)^2 + phi^2
        assert (1 - eps) == pytest.approx((1 - phi) ** 2 + phi ** 2)
        assert (1 - eps) * err == pytest.approx(phi * phi)


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
    rng = derive_rng(3)
    bits = tuple(int(b) for b in rng.integers(0, 2, size=64))
    clean, values = duplicate_round_trip(pack(GF(1), bits), 64, 0.0, rng)
    assert clean == (1 << 64) - 1
    assert values == pack(GF(1), bits)


def test_duplicate_round_trip_golden():
    rng = derive_rng(7, 3, 1)
    got = duplicate_round_trip(pack(GF(1), (0, 1) * 10), 20, 0.25, rng)
    assert got == pack_received(tuple(ERASED if c == "*" else int(c)
                                      for c in "0*0*0**1*11*01*10101"))


def test_duplicate_round_trip_statistics():
    """Erasure and survivor-error rates match the closed forms."""
    rng = derive_rng(4)
    phi = 0.198
    params = BscParams(phi)
    n = 400_000
    clean, values = duplicate_round_trip(0, n, phi, rng)
    eps = params.erasure_rate
    sig_e = (n * eps * (1 - eps)) ** 0.5
    survivors = clean.bit_count()
    assert abs(n - survivors - n * eps) < 5 * sig_e
    wrong = values.bit_count()  # every bit sent was 0
    p = params.residual_error
    sig_p = (survivors * p * (1 - p)) ** 0.5
    assert abs(wrong - survivors * p) < 5 * sig_p


def test_duplicate_round_trip_matches_per_symbol_loop():
    """The packed fold against a per-symbol reference loop over numpy's
    own (len, 2) block of uniforms from the same stream."""
    def reference(bits, phi, rng):
        flips = rng.numpy_generator().random((len(bits), 2)) < phi
        out = []
        for b, (f1, f2) in zip(bits, flips):
            out.append(int(b) ^ int(f1) if f1 == f2 else ERASED)
        return pack_received(out)

    for n0 in (15, 63):
        for seed in range(2000):
            bits = tuple(int(b) for b in
                         derive_rng(seed, 1).integers(0, 2, size=n0))
            got = duplicate_round_trip(pack(GF(1), bits), n0, 0.198,
                                       derive_rng(seed, 2))
            want = reference(bits, 0.198, derive_rng(seed, 2))
            assert got == want


def test_duplicate_round_trip_validation():
    rng = derive_rng(5)
    with pytest.raises(ValueError):
        duplicate_round_trip(0b10, 2, 0.6, rng)
    for bits in (0b100, 0b110, -1):  # a bit at or above n = 2
        with pytest.raises(ValueError):
            duplicate_round_trip(bits, 2, 0.1, rng)
    assert duplicate_round_trip(0b11, 2, 0.0, rng) == (0b11, 0b11)


def test_random_bits_packs_one_integers_draw():
    for m in (0, 1, 5, 64, 200):
        want = derive_rng(6, m).integers(0, 2, size=m)
        assert random_bits(derive_rng(6, m), m) == pack(GF(1), want)


def test_false_duplicate_statistics():
    """Mismatched pairs erase w.p. 1 - eps, else land on each value
    w.p. phi (1 - phi)."""
    rng = derive_rng(95)
    phi = 0.3
    n = 200_000
    word = transmit_with_false_pairs((1,) * n, range(n), phi, rng)
    p_erase = 1 - BscParams(phi).erasure_rate
    sig = math.sqrt(n * p_erase * (1 - p_erase))
    assert abs(word.count(ERASED) - n * p_erase) < 5 * sig
    p_side = phi * (1 - phi)
    sig_side = math.sqrt(n * p_side * (1 - p_side))
    for value in (0, 1):
        landed = word.count(value)
        assert abs(landed - n * p_side) < 5 * sig_side


def test_false_duplicate_validation():
    rng = derive_rng(96)
    assert transmit_with_false_pairs((0, 1), (0, 1), 0.0,
                                     rng).count(ERASED) == 2
    with pytest.raises(ValueError):
        transmit_with_false_pairs((0,), (0,), 0.5, rng)
