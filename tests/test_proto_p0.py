"""The 1-of-2 transfer over the duplicated channel, and its 1-of-q chain."""

import math

import pytest

from otlab.channels import BscParams, derive_rng
from otlab.codes import EnumerationLimit, LinearCode, cyclic_code
from otlab.gf import GF
from otlab.linalg import Matrix, pack, rank, unpack
from otlab.proto_p0 import (ChannelAbort, MLDecoder, P0Params,
                            chain_1_of_q, chain_access_audit, p0_alice_encode,
                            p0_bob_decode, p0_partition, p0_run,
                            p0_secret_length, p0q_run)

from tuple_reference import apply, pack_received

C15_5_GEN = (1, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1)
F2 = GF(1)


def rep_code(n):
    return LinearCode.from_rows(GF(1), ((1,) * n,))


def make_params(n0=15, phi=0.198, m=1, code=None, **kw):
    code = code if code is not None else rep_code(n0)
    return P0Params(channel=BscParams(phi), code=code, secret_bits=m, **kw)


def parity_check(code):
    return code.dual_basis()


def test_secret_length_frozen_values():
    assert p0_secret_length(200, 0.19385297824369357, 0.01) == 42
    assert p0_secret_length(200, 0.198, 0.05) == 40
    assert p0_secret_length(15, 0.198, 0.05) == 3
    # slack -> 0 at the optimal crossover approaches 2 R0* per block bit
    assert p0_secret_length(1000, 0.19385297824369357, 1e-4) == 216
    with pytest.raises(ValueError):
        p0_secret_length(15, 0.198, 0.0)
    with pytest.raises(ValueError):
        p0_secret_length(2, 0.01, 0.5)


def test_ml_decoder_repetition():
    dec = MLDecoder(rep_code(5))
    assert dec.decode(0b11111, 0b11111) == 0b11111
    assert dec.decode(0b11111, 0b00100) == 0
    # erasures drop positions: two ones against one zero still decodes
    assert dec.decode(0b11100, 0b01100) == 0b11111
    assert dec.decode(0b01110, 0b00110) == 0b11111
    # an even split on the kept positions is a tie
    assert dec.decode(0b11110, 0b00110) is None


def test_ml_decoder_tie_is_failure():
    dec = MLDecoder(LinearCode(Matrix.identity(GF(1), 2)))
    # one erased position leaves two codewords at distance zero
    assert dec.decode(0b01, 0b01) is None
    assert dec.decode(0b11, 0b01) == 0b01
    with pytest.raises(ValueError):
        dec.decode(0b111, 0b101)


def test_ml_decoder_failure_bound_closed_form():
    dec = MLDecoder(rep_code(3))
    for p in (0.05, 0.1, 0.3):
        want = 3 * p * p * (1 - p) + p ** 3
        assert dec.failure_bound(p) == pytest.approx(want, rel=1e-12)
    assert dec.failure_bound(0.0) == 0.0
    with pytest.raises(ValueError):
        dec.failure_bound(0.5)


def test_params_validation():
    assert make_params(code=rep_code(14)).block_len == 14
    with pytest.raises(ValueError):
        make_params(m=2)                     # k = 1 < m
    with pytest.raises(ValueError):
        make_params(m=0)
    code = cyclic_code(GF(1), 15, C15_5_GEN)
    params = make_params(code=code, m=3, security_slack=0.05)
    with pytest.raises(AttributeError, match="immutable"):
        params.secret_bits = 1
    with pytest.raises(ValueError):
        make_params(code=code, m=4, security_slack=0.05)
    with pytest.raises(ValueError):
        P0Params(channel=BscParams(0.1),
                 code=LinearCode.from_rows(GF(2), ((1, 2, 1),)),
                 secret_bits=1)


def test_draw_hash_reaches_full_stacked_rank():
    code = cyclic_code(GF(1), 15, C15_5_GEN)
    rng = derive_rng(40)
    params = make_params(code=code, m=3)
    for _ in range(20):
        hm, _ = params.draw_hash(rng)
        assert (hm.nrows, hm.ncols) == (3, 15)
        stacked = Matrix(code.field, parity_check(code).rows + hm.rows)
        assert rank(stacked) == 15 - 5 + 3


def test_partition_shapes_and_choice():
    clean = 0b10111011                    # positions 2 and 6 erased
    first, second = p0_partition(clean, 4, want_first=True)
    assert first == (0, 1, 3, 4)          # first 4 clean indices
    assert second == (2, 5, 6, 7)         # erasures plus the clean surplus
    swapped_f, swapped_s = p0_partition(clean, 4, want_first=False)
    assert (swapped_f, swapped_s) == (second, first)
    assert sorted(first + second) == list(range(8))


def test_partition_abort_and_validation():
    with pytest.raises(ChannelAbort):
        p0_partition(0b0001, 2, True)
    with pytest.raises(ValueError):
        p0_partition(0b10000, 2, True)    # a bit at 2 n0


def test_partition_random_properties():
    rng = derive_rng(41)
    for _ in range(200):
        n0 = int(rng.integers(2, 9))
        clean = int(rng.integers(0, 1 << 2 * n0))
        if clean.bit_count() < n0:
            with pytest.raises(ChannelAbort):
                p0_partition(clean, n0, True)
            continue
        first, second = p0_partition(clean, n0, True)
        assert len(first) == n0
        assert sorted(first + second) == list(range(2 * n0))
        assert all(clean >> i & 1 for i in first)
        assert list(first) == sorted(first)
        assert list(second) == sorted(second)


def test_encode_decode_round_trip_noiseless():
    rng = derive_rng(42, 0)
    code = cyclic_code(GF(1), 15, C15_5_GEN)
    params = make_params(phi=0.0, code=code, m=3)
    hm, coset = params.draw_hash(rng)
    sent = tuple(int(b) for b in rng.integers(0, 2, size=30))
    clean, values = pack_received(sent)   # nothing erased
    first, second = p0_partition(clean, 15, True)
    s1, s2 = (1, 0, 1), (0, 1, 1)
    sides = p0_alice_encode(pack(F2, s1), pack(F2, s2), first, second,
                            pack(F2, sent), params, coset, rng)
    for (perm, cw, masked), s, positions in zip(sides, (s1, s2),
                                                (first, second)):
        # embedded codewords carry the right hash and parity
        word = unpack(F2, cw, 15)
        assert apply(parity_check(code), word) == (0,) * 10
        assert apply(hm, word) == s
        # bit t is masked by the sent bit at positions[perm[t]]
        assert unpack(F2, masked, 15) == tuple(
            word[t] ^ sent[positions[perm[t]]] for t in range(15))
    (perm1, cw1, masked1), (perm2, _, masked2) = sides
    got, cw = p0_bob_decode(masked1, clean, values, first, perm1,
                            params.decoder, hm)
    assert got == pack(F2, s1)
    assert cw == cw1
    got2, _ = p0_bob_decode(masked2, clean, values, second, perm2,
                            params.decoder, hm)
    assert got2 == pack(F2, s2)


def test_encode_validation():
    rng = derive_rng(43)
    params = make_params(phi=0.0, n0=3, code=rep_code(3))
    _, coset = params.draw_hash(rng)
    with pytest.raises(ValueError):
        p0_alice_encode(1, 0, (0, 1, 2), (2, 3, 4), 0, params, coset,
                        rng)       # overlap
    with pytest.raises(ValueError):
        p0_alice_encode(1, 0, (0, 1), (2, 3, 4), 0, params, coset, rng)
    for bad in (0b10, 0b11, -1):   # m = 1: negative or a bit at or above m
        with pytest.raises(ValueError):
            p0_alice_encode(bad, 0, (0, 1, 2), (3, 4, 5), 0, params,
                            coset, rng)
        with pytest.raises(ValueError):
            p0_alice_encode(0, bad, (0, 1, 2), (3, 4, 5), 0, params,
                            coset, rng)


def test_codeword_coset_sampling_uniform():
    """With hash and secret pinned, the embedded codeword is uniform
    over the 2^(k-m) solutions of the stacked system."""
    rng = derive_rng(44)
    code = LinearCode.from_rows(GF(1), ((1, 0, 1, 0), (0, 1, 0, 1)))
    params = P0Params(channel=BscParams(0.0), code=code, secret_bits=1)
    _, coset = params.draw_hash(rng)
    counts = {}
    for _ in range(2000):
        (_, cw, _), _ = p0_alice_encode(1, 0, (0, 1, 2, 3), (4, 5, 6, 7),
                                        0, params, coset, rng)
        counts[cw] = counts.get(cw, 0) + 1
    assert len(counts) == 2
    for c in counts.values():
        assert abs(c - 1000) < 5 * math.sqrt(2000 * 0.25)


def test_p0_run_noiseless_exact():
    code = cyclic_code(GF(1), 15, C15_5_GEN)
    params = make_params(phi=0.0, code=code, m=3)
    for want_first, seed in ((True, 1), (False, 2)):
        rng = derive_rng(seed, 7)
        s1 = pack(F2, (1, 0, 1))
        s2 = pack(F2, (0, 1, 0))
        session = p0_run(s1, s2, want_first, params, rng)
        assert session.status == "ok"
        assert session.output == (s1 if want_first else s2)
        t = session.transcript()
        assert t["params"]["channel_bits"] == 60
        assert t["outcome"]["unerased_count"] == 30
        assert t["outcome"]["status"] == "ok"
        assert t["bob_view"]["secret"] == ([1, 0, 1] if want_first
                                           else [0, 1, 0])


def test_p0_run_statuses_match_transcript():
    params = make_params(n0=6, phi=0.4, m=1)
    ok = aborts = fails = 0
    for t in range(300):
        rng = derive_rng(45, t)
        session = p0_run(1, 0, bool(t % 2), params, rng)
        tr = session.transcript()
        if session.status == "abort":
            aborts += 1
            assert tr["outcome"]["unerased_count"] < 6
            assert session.output is None
        elif session.status == "decode_failure":
            fails += 1
            assert session.output is None
        else:
            ok += 1
            assert tr["outcome"]["unerased_count"] >= 6
            assert session.output in (0, 1)
        assert tr["outcome"]["status"] == session.status
    assert ok > 0 and aborts > 0
    assert ok + aborts + fails == 300


def test_p0_run_success_rate_moderate_noise():
    params = make_params(n0=15, phi=0.1, m=1)
    wins = 0
    for t in range(300):
        rng = derive_rng(46, t)
        want = bool(t % 2)
        session = p0_run(1, 0, want, params, rng)
        if session.status == "ok" and session.output == (1 if want else 0):
            wins += 1
    assert wins >= 290


def test_p0_run_transcript_json_shape():
    params = make_params(n0=4, phi=0.0, code=rep_code(4))
    session = p0_run(1, 0, True, params, derive_rng(47))
    blob = session.transcript()
    assert blob["params"]["block_len"] == 4
    assert blob["params"]["channel_bits"] == 16
    assert blob["outcome"]["status"] == "ok"
    assert blob["bob_view"]["want_first"] is True
    assert len(blob["alice_view"]["sent_bits"]) == 8


def test_chain_pairs_reconstruct_each_secret():
    rng = derive_rng(48)
    for q in (2, 4, 8):
        secrets = [pack(F2, rng.integers(0, 2, size=3)) for _ in range(q)]
        pairs = chain_1_of_q(secrets, 3, rng)
        assert len(pairs) == q - 1
        for index in range(q):
            # honest pattern: seconds before `index`, first at `index`
            prefix = 0
            if index < q - 1:
                for j in range(index):
                    prefix ^= pairs[j][1]
                got = pairs[index][0] ^ prefix
            else:
                for j in range(q - 1):
                    prefix ^= pairs[j][1]
                got = prefix
            assert got == secrets[index]


def test_chain_validation():
    rng = derive_rng(49)
    with pytest.raises(ValueError):
        chain_1_of_q([1, 0, 1], 1, rng)
    for bad in (0b10, -1):   # m = 1: negative or a bit at or above m
        with pytest.raises(ValueError):
            chain_1_of_q([1, bad], 1, rng)
        with pytest.raises(ValueError):
            chain_1_of_q([bad, 0, 1, 1], 1, rng)


def test_chain_access_audit_q2():
    table = chain_access_audit(2, 2)
    assert table == {(0,): (0,), (1,): (1,)}


def test_chain_access_audit_q4():
    """Every honest pattern pins exactly its own secret; nothing pins two."""
    table = chain_access_audit(4, 2)
    assert len(table) == 8
    for index in range(4):
        if index < 3:
            pattern = tuple(0 if j == index else 1 for j in range(3))
        else:
            pattern = (1, 1, 1)
        assert table[pattern] == (index,)
    for recovered in table.values():
        assert len(recovered) <= 1
    with pytest.raises(ValueError):
        chain_access_audit(3, 2)
    with pytest.raises(EnumerationLimit,
                       match=r"^2\^30 worlds exceed the enumeration budget "
                             r"16777216; raise the limit \(--enum-limit\)$"):
        chain_access_audit(4, 5)


def test_p0q_run_noiseless_all_indices():
    code = cyclic_code(GF(1), 15, C15_5_GEN)
    params = make_params(phi=0.0, code=code, m=3)
    rng = derive_rng(50)
    secrets = [pack(F2, rng.integers(0, 2, size=3)) for _ in range(4)]
    for index in range(4):
        session = p0q_run(secrets, index, params, derive_rng(51, index))
        assert session.status == "ok"
        assert session.output == secrets[index]
        inner = session.transcript()["inner"]
        assert len(inner) == 3
        assert sum(tr["params"]["channel_bits"] for tr in inner) == 3 * 4 * 15


def test_p0q_run_validation():
    params = make_params(phi=0.0, n0=3, code=rep_code(3))
    with pytest.raises(ValueError):
        p0q_run([1, 0], 2, params, derive_rng(52))
