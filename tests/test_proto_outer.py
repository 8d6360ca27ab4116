"""String transfer over chained inner sessions: setup algebra and runs."""

from itertools import product

import pytest

from otlab.channels import BscParams, derive_rng
from otlab.codes import LinearCode, OrthonormalCode, cyclic_code, orthonormalize
from otlab.gf import GF
from otlab.linalg import Matrix, pack, random_matrix, rank, unpack
from otlab.proto_outer import (OuterParams, bits_to_block, block_to_bits,
                               cheat_matrix_V, compress_setup,
                               compressed_length, outer_offset,
                               p2_alice_setup, request_indices, run_session)
from otlab.proto_p0 import P0Params
import tuple_reference
from tuple_reference import mul

C15_5_GEN = (1, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1)


def toy_basis():
    """[I_4 | ones]: orthonormal over GF(2), 8 rounds, dimension 4."""
    rows = tuple(tuple(1 if j == i else 0 for j in range(4)) + (1, 1, 1, 1)
                 for i in range(4))
    return OrthonormalCode(Matrix(GF(1), rows))


def gf4_basis():
    """Identity rows are trivially orthonormal; square stays proper."""
    return OrthonormalCode(Matrix(GF(2), ((1, 0, 0), (0, 1, 0))))


def binary_inner(n0=15, phi=0.0, m=1):
    return P0Params(channel=BscParams(phi),
                    code=LinearCode.from_rows(GF(1), ((1,) * n0,)),
                    secret_bits=m)


def gf4_inner(phi=0.0):
    code = LinearCode.from_rows(GF(1), ((1, 0, 1, 0), (0, 1, 0, 1)))
    return P0Params(channel=BscParams(phi), code=code, secret_bits=2)


def all_square_dual_masks(basis):
    sq = basis.base.schur_square()
    dual = sq.dual_basis().rows
    f = basis.field
    masks = set()
    for combo in product(range(f.order), repeat=len(dual)):
        acc = [0] * basis.length
        for c, vec in zip(combo, dual):
            for i, a in enumerate(vec):
                acc[i] ^= mul(f, c, a)
        masks.add(tuple(acc))
    return [pack(f, m) for m in sorted(masks)]


def test_block_bit_serialization_round_trip():
    for degree in (1, 2, 3, 4):
        f = GF(degree)
        for width in (1, 2):
            for combo in product(range(f.order), repeat=width):
                bits = block_to_bits(pack(f, combo), width, degree)
                assert bits >> width * degree == 0
                assert bits_to_block(bits, width, degree) == pack(f, combo)
                if degree == 1:
                    assert bits == pack(f, combo)


def test_block_bit_serialization_is_additive():
    for a in range(8):
        for b in range(8):
            lhs = block_to_bits(a, 1, 3) ^ block_to_bits(b, 1, 3)
            assert lhs == block_to_bits(a ^ b, 1, 3)
    for bits in (0b10000, -1):  # a bit at or above m degree = 4
        with pytest.raises(ValueError):
            bits_to_block(bits, 2, 2)


def test_block_bit_serialization_matches_tuple_reference():
    """The packed serialization writes and reads the same plane-major bits
    as the symbol-by-symbol tuple loops."""
    f2 = GF(1)
    for degree in (1, 2, 3, 4):
        f = GF(degree)
        for width in (1, 2, 3):
            for combo in product(range(f.order), repeat=width):
                bits = block_to_bits(pack(f, combo), width, degree)
                ref = tuple_reference.block_to_bits(combo, degree)
                assert unpack(f2, bits, width * degree) == ref
                assert (tuple_reference.bits_to_block(ref, degree)
                        == unpack(f, bits_to_block(bits, width, degree),
                                  width))


def test_setup_identity_when_secrets_match():
    rng = derive_rng(60)
    basis = toy_basis()
    s = random_matrix(GF(1), 4, 1, rng)
    x, ys = p2_alice_setup(s, s, basis, rng)
    assert ys[0].rows == x.rows
    assert (basis.rows @ x).rows == s.rows


def test_setup_candidates_carry_both_secrets():
    rng = derive_rng(61)
    basis = toy_basis()
    for _ in range(20):
        s = random_matrix(GF(1), 4, 2, rng)
        t = random_matrix(GF(1), 4, 2, rng)
        x, ys = p2_alice_setup(s, t, basis, rng)
        y = ys[0]
        assert (basis.rows @ x).rows == s.rows
        assert (basis.rows @ y).rows == t.rows
        assert (x + y).rows == outer_offset(basis, s, t).rows


def test_setup_qary_offsets_in_dlog_order():
    rng = derive_rng(62)
    f = GF(2)
    basis = gf4_basis()
    s = random_matrix(f, 2, 1, rng)
    t = random_matrix(f, 2, 1, rng)
    x, ys = p2_alice_setup(s, t, basis, rng)
    assert len(ys) == 3
    d = outer_offset(basis, s, t)
    for i, y in enumerate(ys):
        lam = f.alpha_power(i)
        assert y.rows == (x + d.scale(lam)).rows
        got = basis.rows @ y
        want = s + (s + t).scale(lam)
        assert got.rows == want.rows


def test_setup_validation():
    rng = derive_rng(63)
    basis = toy_basis()
    wrong_field = random_matrix(GF(2), 4, 1, rng)
    good = random_matrix(GF(1), 4, 1, rng)
    with pytest.raises(ValueError):
        p2_alice_setup(wrong_field, wrong_field, basis, rng)
    with pytest.raises(ValueError):
        p2_alice_setup(random_matrix(GF(1), 3, 1, rng), good, basis, rng)
    with pytest.raises(ValueError):
        p2_alice_setup(good, random_matrix(GF(1), 4, 2, rng), basis, rng)


def test_request_indices_binary():
    f = GF(1)
    assert request_indices(0b0110, 4, True, f) == (0, 1, 1, 0)
    assert request_indices(0b0110, 4, False, f) == (1, 0, 0, 1)
    # the rounds past the mask's top set bit still count
    assert request_indices(0b01, 3, False, f) == (0, 1, 1)


def test_request_indices_qary_select_matching_offset():
    """Requested candidate index i resolves to the offset lambda = mu."""
    f = GF(2)
    for u in range(4):
        for want_first in (True, False):
            idx = request_indices(u, 1, want_first, f)[0]
            mu = u if want_first else u ^ 1
            if mu == 0:
                assert idx == 0
            else:
                assert f.alpha_power(idx - 1) == mu


def test_cheat_matrix_zero_iff_dual():
    basis = toy_basis()
    duals = set(all_square_dual_masks(basis))
    assert duals
    for mask in duals:
        assert not any(any(row) for row in cheat_matrix_V(basis.rows,
                                                          mask).rows)
    nonzero_seen = 0
    for mask in range(1 << 8):
        if mask in duals:
            continue
        v = cheat_matrix_V(basis.rows, mask)
        if any(any(row) for row in v.rows):
            nonzero_seen += 1
        # V is symmetric whatever the mask
        assert v.rows == v.transpose().rows
    assert nonzero_seen > 0
    for bad in (1 << 8, -1, (0, 1), (0,) * 8):
        with pytest.raises(ValueError):
            cheat_matrix_V(basis.rows, bad)


def test_compressed_length_values():
    assert compressed_length(4, 0.25) == 1
    assert compressed_length(20, 0.05) == 9
    assert compressed_length(8, 0.25) == 2
    with pytest.raises(ValueError):
        compressed_length(4, 0.05)      # 1.8 symbols is not an integer
    with pytest.raises(ValueError):
        compressed_length(4, 0.5)
    with pytest.raises(ValueError):
        compressed_length(2, 0.49)      # rounds to zero symbols


def test_compress_setup_lifts_exactly():
    rng = derive_rng(64)
    f = GF(1)
    cf = random_matrix(f, 2, 3, rng)
    cs = random_matrix(f, 2, 3, rng)
    pair, s, t = compress_setup(cf, cs, 8, 0.25, rng)
    assert rank(pair.m_first) == 2
    assert rank(pair.m_second) == 2
    assert (pair.m_first @ s).rows == cf.rows
    assert (pair.m_second @ t).rows == cs.rows
    assert s.nrows == 8 and t.nrows == 8
    with pytest.raises(ValueError):
        compress_setup(random_matrix(f, 3, 3, rng), cs, 8, 0.25, rng)


def test_outer_params_validation_and_properties():
    basis = toy_basis()
    params = OuterParams(basis=basis, inner=binary_inner())
    assert params.rounds == 8
    assert params.outer_dim == 4
    assert params.field is GF(1)
    assert params.block_syms == 1
    with pytest.raises(AttributeError, match="immutable"):
        params.margin = 0.25
    wide = P0Params(channel=BscParams(0.0),
                    code=cyclic_code(GF(1), 15, C15_5_GEN), secret_bits=3)
    assert OuterParams(basis=basis, inner=wide).block_syms == 3
    assert OuterParams(basis=gf4_basis(), inner=gf4_inner()).block_syms == 1
    with pytest.raises(ValueError):
        OuterParams(basis=basis, inner=binary_inner(), margin=0.05)


def test_outer_params_rejects_a_field_wider_than_the_inner_bits():
    # one inner bit is half a GF(4) symbol
    with pytest.raises(ValueError, match="not a whole number"):
        OuterParams(basis=gf4_basis(), inner=binary_inner(m=1))


def test_run_session_noiseless_recovers_chosen_secret():
    basis = toy_basis()
    params = OuterParams(basis=basis, inner=binary_inner())
    rng = derive_rng(65)
    s = random_matrix(GF(1), 4, 1, rng)
    t = random_matrix(GF(1), 4, 1, rng)
    for want_first in (True, False):
        session = run_session(params, s, t, want_first,
                              derive_rng(66, want_first))
        assert session.status == "ok"
        want = s if want_first else t
        assert session.output.rows == want.rows
        tr = session.transcript()
        assert tr["params"]["channel_bits"] == 8 * 4 * 15
        assert tr["params"]["observed_rate"] == pytest.approx(2 * 4 / 480)
        assert tr["params"]["events"] == ["mask_drawn", "rounds_complete"]
        assert tr["outcome"]["statuses"] == ["ok"] * 8
        assert not any(any(row) for row in tr["V_matrix"])
        assert tr["compression"] is None


def test_run_session_every_dual_mask_exact():
    """Exhaustive: each square-dual mask recovers both sides exactly."""
    basis = toy_basis()
    params = OuterParams(basis=basis, inner=binary_inner())
    rng = derive_rng(67)
    s = random_matrix(GF(1), 4, 1, rng)
    t = random_matrix(GF(1), 4, 1, rng)
    for i, mask in enumerate(all_square_dual_masks(basis)):
        for want_first in (True, False):
            session = run_session(params, s, t, want_first,
                                  derive_rng(68, i, want_first),
                                  request_mask=mask)
            assert session.status == "ok"
            want = s if want_first else t
            assert session.output.rows == want.rows
            assert session.transcript()["u"] == list(unpack(GF(1), mask, 8))


def test_run_session_non_dual_mask_follows_algebra():
    """A forced mask outside the dual lands on s + V(u)(s + t)."""
    basis = toy_basis()
    params = OuterParams(basis=basis, inner=binary_inner())
    rng = derive_rng(69)
    s = random_matrix(GF(1), 4, 1, rng)
    t = random_matrix(GF(1), 4, 1, rng)
    mask = 1  # round 0 only
    v = cheat_matrix_V(basis.rows, mask)
    assert any(any(row) for row in v.rows)
    session = run_session(params, s, t, True, derive_rng(70),
                          request_mask=mask)
    assert session.status == "ok"
    want = s + (v @ (s + t))
    assert session.output.rows == want.rows


def test_run_session_qary_noiseless():
    basis = gf4_basis()
    params = OuterParams(basis=basis, inner=gf4_inner())
    rng = derive_rng(71)
    s = random_matrix(GF(2), 2, 1, rng)
    t = random_matrix(GF(2), 2, 1, rng)
    for want_first in (True, False):
        session = run_session(params, s, t, want_first,
                              derive_rng(72, want_first))
        assert session.status == "ok"
        want = s if want_first else t
        assert session.output.rows == want.rows
        tr = session.transcript()
        assert tr["params"]["channel_bits"] == 3 * 3 * 4 * 4
        assert tr["params"]["observed_rate"] == pytest.approx(2 * 4 / 144)


def test_run_session_compressed_variants():
    basis = toy_basis()
    params = OuterParams(basis=basis, inner=binary_inner(), margin=0.25)
    rng = derive_rng(73)
    cf = random_matrix(GF(1), 1, 1, rng)
    cs = random_matrix(GF(1), 1, 1, rng)
    for want_first in (True, False):
        session = run_session(params, cf, cs, want_first,
                              derive_rng(74, want_first))
        assert session.status == "ok"
        want = cf if want_first else cs
        assert session.output.rows == want.rows
        tr = session.transcript()
        assert tr["params"]["events"] == ["mask_drawn", "rounds_complete",
                                          "compression_revealed"]
        assert set(tr["compression"]) == {"M_s", "M_t"}
        assert tr["params"]["observed_rate"] == pytest.approx(2 * 1 / 480)


def test_compressed_margin_needs_integral_length():
    basis = gf4_basis()
    with pytest.raises(ValueError):
        OuterParams(basis=basis, inner=gf4_inner(), margin=0.25)


def test_run_session_validation():
    basis = toy_basis()
    params = OuterParams(basis=basis, inner=binary_inner())
    rng = derive_rng(75)
    s = random_matrix(GF(1), 4, 1, rng)
    t = random_matrix(GF(1), 4, 1, rng)
    with pytest.raises(ValueError):
        run_session(params, random_matrix(GF(1), 4, 2, rng), t, True, rng)
    for bad in (1 << 8, -1, (0, 1)):
        with pytest.raises(ValueError):
            run_session(params, s, t, True, rng, request_mask=bad)
    # with a margin the secrets are the compressed ones, u = 1 row here
    compressed = OuterParams(basis=basis, inner=binary_inner(), margin=0.25)
    with pytest.raises(ValueError):
        run_session(compressed, s, t, True, rng)


def test_run_session_noisy_statuses_consistent():
    basis = toy_basis()
    params = OuterParams(basis=basis, inner=binary_inner(n0=6, phi=0.35))
    oks = others = 0
    for trial in range(40):
        rng = derive_rng(76, trial)
        s = random_matrix(GF(1), 4, 1, rng)
        t = random_matrix(GF(1), 4, 1, rng)
        session = run_session(params, s, t, bool(trial % 2), rng)
        tr = session.transcript()
        statuses = tr["outcome"]["statuses"]
        assert len(statuses) == 8
        if session.status == "ok":
            oks += 1
            assert all(st == "ok" for st in statuses)
            assert session.output is not None
        else:
            others += 1
            assert session.status in ("abort", "decode_failure")
            assert session.status in statuses
            assert session.output is None
    assert oks > 0 and others > 0


def test_transcript_json_shape():
    basis = toy_basis()
    params = OuterParams(basis=basis, inner=binary_inner())
    rng = derive_rng(77)
    s = random_matrix(GF(1), 4, 1, rng)
    t = random_matrix(GF(1), 4, 1, rng)
    session = run_session(params, s, t, True, rng)
    blob = session.transcript()
    assert blob["outer_params"]["rounds"] == 8
    assert blob["bob_view"]["want_first"] is True
    assert len(blob["u"]) == 8
    assert len(blob["V_matrix"]) == 4
    assert blob["compression"] is None
    assert blob["alice_view"]["announced_sets"] == 8


def test_disjoint_block_basis_end_to_end():
    """Repetition blocks with disjoint support form a working basis."""
    rows = ((1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1))
    basis = OrthonormalCode(Matrix(GF(1), rows))
    params = OuterParams(basis=basis, inner=binary_inner())
    rng = derive_rng(78)
    s = random_matrix(GF(1), 2, 1, rng)
    t = random_matrix(GF(1), 2, 1, rng)
    session = run_session(params, s, t, False, derive_rng(79))
    assert session.status == "ok"
    assert session.output.rows == t.rows
    assert session.transcript()["params"]["channel_bits"] == 6 * 60


def test_orthonormalized_cyclic_square_fills_space():
    """The [15,5] cyclic code survives orthonormalization, but the
    punctured code's square spans everything, so no request mask exists
    and a session cannot be built on it."""
    code = cyclic_code(GF(1), 15, C15_5_GEN)
    basis, removed = orthonormalize(code)
    assert basis.dimension == 5
    sq = basis.base.schur_square()
    assert sq.dimension == basis.length
    params = OuterParams(basis=basis, inner=binary_inner())
    rng = derive_rng(80)
    s = random_matrix(GF(1), 5, 1, rng)
    t = random_matrix(GF(1), 5, 1, rng)
    with pytest.raises(ValueError):
        run_session(params, s, t, True, rng)
