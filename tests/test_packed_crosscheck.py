"""Seeded cross-checks of the packed row layer against dense references.

`rref`, `rank`, `rank_and_kernel`, `solve_columns` and the square-dual
mask draw run on packed rows over every field GF(2^e); here each is
compared, over GF(2), GF(4), GF(8), GF(16) and GF(256), with the dense
reduction loop (`dense_rref`) and the dense kernel/sampling code kept
below as the reference, the stream position included.  `span` is
compared with the Gray walk of iter_codewords.  Both paths of the ML decoder (the Python
scan of small codes and the numpy limb search of larger ones) are
compared with brute force over iter_codewords.  Both minimum-distance
sides, the enumeration of small codes and the Brouwer-Zimmermann search,
are compared with the brute-force minimum over iter_codewords, and
min_distance also with a Gray walk.  The packed cheat matrix V(u) is
compared with the dense product, the matrix draws and column solves with
the row and column loops they replaced, and the rank-difference
request-mask audit with the bincount audit it replaced
(tests/bob_audit_reference.py).
"""

import itertools
import pickle
from bisect import bisect_right
from itertools import islice, product

import numpy as np
import pytest

from otlab.adversary import audit_bob_strategies
from otlab.channels import BscParams, derive_rng
from otlab.codes import (LinearCode, OrthonormalCode, cyclic_code,
                         orthonormalize, random_code, square_dual_sample)
from otlab.gf import GF
from otlab.linalg import (InconsistentSystem, Matrix, full_rank_matrix,
                          pack, random_matrix, rank, rank_and_kernel, rref,
                          solve_columns, span, span_words, unpack)
from otlab.proto_outer import cheat_matrix_V
from otlab import codes, proto_p0
from otlab.proto_p0 import DECODER_WORD_CAP, MLDecoder, P0Params
from bob_audit_reference import reference_audit
from tuple_reference import (ERASED, apply, dot, mul, naive_matmul,
                             pack_received)

F2 = GF(1)
DEGREES = (1, 2, 3, 4, 8)


# -- dense references --------------------------------------------------------

def dense_rref(m):
    """Dense reduced row echelon form over any GF(2^e), lowest-index
    pivots, zero rows last."""
    f = m.field
    rows = [list(r) for r in m.rows]
    pivots = []
    pr = 0
    for col in range(m.ncols):
        sel = None
        for i in range(pr, len(rows)):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        inv = f.inv(rows[pr][col])
        rows[pr] = [mul(f, inv, a) for a in rows[pr]]
        for i in range(len(rows)):
            if i != pr and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a ^ mul(f, c, b) for a, b in zip(rows[i], rows[pr])]
        pivots.append(col)
        pr += 1
        if pr == len(rows):
            break
    return (Matrix(f, tuple(tuple(r) for r in rows), ncols=m.ncols),
            tuple(pivots))


def dense_rank_and_kernel(m):
    red, pivots = dense_rref(m)
    red_rows = red.rows
    basis = []
    for free in range(m.ncols):
        if free in pivots:
            continue
        v = [0] * m.ncols
        v[free] = 1
        for i, p in enumerate(pivots):
            v[p] = red_rows[i][free]
        basis.append(tuple(v))
    return len(pivots), tuple(basis)


def dense_solve_affine(m, b, rng):
    f = m.field
    particular = [0] * m.ncols
    if m.nrows:
        aug = Matrix(f, tuple(row + (bi,) for row, bi in zip(m.rows, b)))
        red, pivots = dense_rref(aug)
        if m.ncols in pivots:
            raise InconsistentSystem("no solution")
        red_rows = red.rows
        for i, p in enumerate(pivots):
            particular[p] = red_rows[i][m.ncols]
    _, kernel = dense_rank_and_kernel(m)
    if kernel:
        coeffs = rng.integers(0, f.order, size=len(kernel))
        for c, kv in zip(coeffs, kernel):
            for i, a in enumerate(kv):
                particular[i] ^= mul(f, int(c), a)
    return tuple(particular)


def position(rng):
    """Where a stream stands: its PCG64 state and spare 32-bit half."""
    return rng.state, rng.inc, rng.has_uint32, rng.uinteger


def random_over(field, rng, nrows, ncols, rank_cap=None):
    """A random matrix over field; rank_cap forces rank <= rank_cap.  The
    entries are one row-major draw."""
    def draw(r, c):
        flat = rng.integers(0, field.order, size=r * c)
        return Matrix(field, [flat[i * c:(i + 1) * c] for i in range(r)],
                      ncols=c)
    if rank_cap is None:
        return draw(nrows, ncols)
    return draw(nrows, rank_cap) @ draw(rank_cap, ncols)


SHAPES = [
    (0, 5, None), (3, 0, None), (1, 1, None), (3, 8, None), (8, 3, None),
    (6, 6, None), (12, 5, None), (5, 12, None), (7, 9, 3), (9, 7, 2),
    (10, 10, 1), (4, 40, None), (12, 70, 8), (3, 70, None),
]


@pytest.mark.parametrize("nrows,ncols,cap", SHAPES)
def test_packed_reduction_matches_dense(nrows, ncols, cap):
    for degree in DEGREES:
        f = GF(degree)
        rng = derive_rng(1000 + nrows * 101 + ncols
                                    + 7 * (degree - 1))
        for _ in range(20):
            m = random_over(f, rng, nrows, ncols, cap)
            assert rref(m) == dense_rref(m)
            assert rank(m) == len(dense_rref(m)[1])
            r, kernel = rank_and_kernel(m)
            assert kernel.ncols == ncols
            assert (r, kernel.rows) == dense_rank_and_kernel(m)


def column(field, values):
    """values as a one-column matrix."""
    return Matrix(field, tuple((a,) for a in values), ncols=1)


@pytest.mark.parametrize("nrows,ncols,cap", SHAPES)
def test_packed_solve_affine_matches_dense(nrows, ncols, cap):
    for degree in DEGREES:
        f = GF(degree)
        rng = derive_rng(2000 + nrows * 101 + ncols
                                    + 7 * (degree - 1))
        inconsistent = 0
        for trial in range(20):
            m = random_over(f, rng, nrows, ncols, cap)
            if trial % 2:
                b = tuple(int(a) for a in rng.integers(0, f.order, size=nrows))
            else:
                x = tuple(int(a) for a in rng.integers(0, f.order, size=ncols))
                b = apply(m, x)
            ours, ref = (derive_rng(trial),
                         derive_rng(trial))
            try:
                want = dense_solve_affine(m, b, ref)
            except InconsistentSystem:
                inconsistent += 1
                with pytest.raises(InconsistentSystem):
                    solve_columns(m, column(f, b), ours)
            else:
                assert solve_columns(m, column(f, b), ours) == column(f, want)
            assert position(ours) == position(ref)
        if nrows > ncols or (cap is not None and cap < nrows):
            assert inconsistent > 0


def test_session_coset_matches_dense_solve_of_stacked_system():
    """One elimination of the hash rows into the reduced parity check
    samples what the dense solve of the stacked system samples, rng and
    all."""
    rng = derive_rng(3000)
    for n, k, m in ((15, 5, 3), (15, 1, 1), (20, 16, 1), (20, 16, 5),
                    (12, 12, 4), (70, 6, 2)):
        code = random_code(F2, n, k, rng)
        parity = code.dual_basis()
        params = P0Params(channel=BscParams(0.1), code=code, secret_bits=m)
        for trial in range(10):
            hm, coset = params.draw_hash(rng)
            stacked = Matrix(F2, parity.rows + hm.rows)
            assert rank(stacked) == n - k + m
            secret = tuple(int(a) for a in rng.integers(0, 2, size=m))
            ours, ref = (derive_rng(trial),
                         derive_rng(trial))
            got = unpack(F2, coset.sample(pack(F2, secret), ours), n)
            zeros = (0,) * parity.nrows
            assert got == dense_solve_affine(stacked, zeros + secret, ref)
            assert position(ours) == position(ref)


def test_draw_hash_redraws_like_the_stacked_rank_loop():
    """draw_hash keeps the first hash whose stacked parity/hash matrix
    reaches rank n - k + m: the hash and the rng state match a loop of
    random_matrix draws tested by the stacked rank.  With m = k a
    first draw is deficient about 70% of the time."""
    rng = derive_rng(3050)
    redraws = 0
    for n, k in ((6, 3), (10, 4), (12, 12), (20, 5)):
        code = random_code(F2, n, k, rng)
        parity_rows = code.dual_basis().rows
        params = P0Params(channel=BscParams(0.1), code=code, secret_bits=k)
        for trial in range(20):
            ours, ref = (derive_rng(trial),
                         derive_rng(trial))
            got, _ = params.draw_hash(ours)
            while True:
                want = random_matrix(F2, k, n, ref)
                if rank(Matrix(F2, parity_rows + want.rows)) == n:  # m = k
                    break
                redraws += 1
            assert got == want
            assert position(ours) == position(ref)
    assert redraws > 20


def test_span_words_match_direct_products():
    rng = derive_rng(3100)
    for n, k in ((9, 4), (63, 3), (64, 3), (130, 4)):
        code = random_code(F2, n, k, rng)
        words = span_words(code.generator.packed, n)
        packed = [pack(F2, w) for w in code.iter_codewords()]
        got = [sum(int(limb) << (63 * j) for j, limb in enumerate(row))
               for row in words]
        assert got == packed


@pytest.mark.parametrize("degree", (1, 2, 3))
def test_span_lists_the_codewords_in_message_order(degree):
    """span equals the Gray walk of iter_codewords word for word: word j
    sums each row times digit i of j in base q."""
    f = GF(degree)
    rng = derive_rng(3150 + degree)
    assert span(f, []) == [0]
    for n, k in ((1, 1), (5, 1), (6, 3), (9, 4), (4, 4)):
        if f.order ** k > 5000:
            continue
        code = random_code(f, n, k, rng)
        assert span(f, code.generator.packed) == [
            pack(f, w) for w in code.iter_codewords()]


def toy_outer_code(field):
    """[I_4 | 1 1 1 1], the toy outer code, over field."""
    return LinearCode(Matrix(field, tuple(
        tuple(int(j == i) for j in range(4)) + (1, 1, 1, 1)
        for i in range(4))))


def test_square_dual_sample_matches_the_dense_solve():
    """The request-mask draw is the dense uniform solve of G v = 0 for the
    square's generator G, from an identical stream, and leaves both
    streams at the same position: the toy outer code and random codes
    whose square is not the whole space, over GF(2) and GF(4)."""
    rng = derive_rng(3200)
    for degree in (1, 2):
        f = GF(degree)
        outer_codes = [toy_outer_code(f)]
        while len(outer_codes) < 25:
            n = int(rng.integers(4, 16))
            code = random_code(f, n, int(rng.integers(1, min(n, 5))), rng)
            if code.schur_square().dimension < n:
                outer_codes.append(code)
        for i, code in enumerate(outer_codes):
            sq = code.schur_square()
            zeros = (0,) * sq.dimension
            for trial in range(4):
                ours, ref = derive_rng(i, trial), derive_rng(i, trial)
                got = square_dual_sample(code, ours)
                assert got == pack(f, dense_solve_affine(sq.generator, zeros,
                                                         ref))
                assert position(ours) == position(ref)


# -- packed matrix operations ---------------------------------------------------

OP_SHAPES = [(0, 0), (0, 4), (3, 0), (1, 1), (3, 5), (6, 2), (4, 9)]


@pytest.mark.parametrize("degree", DEGREES)
def test_matrix_ops_match_tuple_references(degree):
    """Every Matrix operation on packed rows equals the same operation on
    the unpacked tuple rows, zero-row and zero-column shapes included."""
    f = GF(degree)
    rng = derive_rng(7000 + degree)
    for nrows, ncols in OP_SHAPES:
        for _ in range(6):
            a = random_over(f, rng, nrows, ncols)
            b = random_over(f, rng, nrows, ncols)
            rows, brows = a.rows, b.rows
            assert a.packed == tuple(pack(f, r) for r in rows)
            assert Matrix(f, rows, ncols=ncols) == a
            cols = tuple(tuple(r[j] for r in rows) for j in range(ncols))
            assert a.transpose() == Matrix(f, cols, ncols=nrows)
            assert a.transpose().transpose() == a
            assert (a + b).rows == tuple(tuple(x ^ y for x, y in zip(r, s))
                                         for r, s in zip(rows, brows))
            for c in (0, 1, int(rng.integers(f.order))):
                assert a.scale(c) == Matrix(f, tuple(
                    tuple(mul(f, c, x) for x in r) for r in rows), ncols=ncols)
            v = tuple(rng.integers(0, f.order, size=ncols))
            col = Matrix(f, tuple((x,) for x in v), ncols=1)
            assert (a @ col) == column(f, [dot(f, r, v) for r in rows])
            for width in (0, 3):
                other = random_over(f, rng, ncols, width)
                got = a @ other
                assert (got.nrows, got.ncols) == (nrows, width)
                assert got == naive_matmul(a, other)
            drop = {j for j in range(ncols) if rng.random() < 0.4}
            assert a.drop_columns(drop) == Matrix(f, tuple(
                tuple(x for j, x in enumerate(r) if j not in drop)
                for r in rows), ncols=ncols - len(drop))
            back = pickle.loads(pickle.dumps(a))
            assert back == a and (back.nrows, back.ncols) == (nrows, ncols)
    for n in range(5):
        assert Matrix.identity(f, n) == Matrix(f, tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)), ncols=n)


# -- random matrices and column solves -----------------------------------------

def loop_full_rank(field, k, n, rng):
    """The row-by-row rejection loop random_code ran before full_rank_matrix;
    also returns how many draws it took."""
    draws = 0
    while True:
        draws += 1
        rows = tuple(tuple(int(a) for a in rng.integers(0, field.order, size=n))
                     for _ in range(k))
        m = Matrix(field, rows)
        if len(rref(m)[1]) == k:
            return m, draws


def loop_solve_columns(m, target, rng):
    """The per-column solve loop of p2_alice_setup and compress_setup, on
    the dense solver: an m.ncols x target.ncols solution, also when
    either is zero."""
    cols = [dense_solve_affine(m, tuple(r[j] for r in target.rows), rng)
            for j in range(target.ncols)]
    return Matrix(m.field, tuple(zip(*cols)) if cols else ((),) * m.ncols,
                  ncols=target.ncols)


DRAW_SHAPES = [(1, 1, 1), (1, 3, 3), (1, 4, 7), (1, 8, 8), (1, 12, 23),
               (2, 1, 1), (2, 2, 2), (2, 3, 5), (2, 6, 6),
               (8, 1, 1), (8, 2, 3), (8, 4, 4)]


@pytest.mark.parametrize("degree,k,n", DRAW_SHAPES)
def test_matrix_draws_match_the_row_loop(degree, k, n):
    """Same matrix and same stream position as the replaced loop, for one
    draw and for the rejection loop; small square binary shapes reject."""
    field = GF(degree)
    rejected = 0
    for seed in range(60):
        ours, ref = derive_rng(seed), derive_rng(seed)
        want, draws = loop_full_rank(field, k, n, ref)
        assert full_rank_matrix(field, k, n, ours) == want
        assert position(ours) == position(ref)
        rejected += draws > 1
        ours, ref = derive_rng(seed), derive_rng(seed)
        want = Matrix(field, tuple(
            tuple(int(a) for a in ref.integers(0, field.order, size=n))
            for _ in range(k)))
        assert random_matrix(field, k, n, ours) == want
        assert position(ours) == position(ref)
    if (degree, k, n) in ((1, 3, 3), (1, 8, 8), (2, 2, 2)):
        assert rejected > 0


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 8])
def test_solve_columns_matches_per_column_solve_affine(degree):
    field = GF(degree)
    rng = derive_rng(6000 + degree)
    inconsistent = 0
    for trial in range(80):
        nrows, ncols = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        width = int(rng.integers(0, 4))
        m = random_matrix(field, nrows, ncols, rng)
        if trial % 2:
            target = random_matrix(field, nrows, width, rng)
        else:
            target = m @ random_matrix(field, ncols, width, rng)
        ours, ref = (derive_rng(trial),
                     derive_rng(trial))
        try:
            want = loop_solve_columns(m, target, ref)
        except InconsistentSystem:
            inconsistent += 1
            with pytest.raises(InconsistentSystem):
                solve_columns(m, target, ours)
        else:
            got = solve_columns(m, target, ours)
            assert got == want
            assert m @ got == target
        assert position(ours) == position(ref)
    assert inconsistent > 0
    # a consistent column drawn, then an inconsistent one stops the solve
    m = Matrix(field, ((1, 1, 0), (1, 1, 0)))
    ours, ref = derive_rng(9), derive_rng(9)
    dense_solve_affine(m, (1, 1), ref)
    with pytest.raises(InconsistentSystem):
        solve_columns(m, Matrix(field, ((1, 0), (1, 1))), ours)
    assert position(ours) == position(ref)


# -- ML decoding ---------------------------------------------------------------

def brute_force_decode(code, symbols):
    """The unique nearest codeword on the non-erased positions, packed,
    or None on a tie."""
    best, best_dist, count = None, None, 0
    for w in code.iter_codewords():
        d = sum(1 for a, s in zip(w, symbols) if s != ERASED and a != s)
        if best_dist is None or d < best_dist:
            best, best_dist, count = w, d, 1
        elif d == best_dist:
            count += 1
    return pack(code.field, best) if count == 1 else None


def decode(decoder, symbols):
    return decoder.decode(*pack_received(symbols))


@pytest.mark.parametrize("n,k", [(5, 1), (7, 4), (10, 3), (12, 6), (70, 3)])
def test_ml_decoder_matches_brute_force(n, k):
    rng = derive_rng(4000 + n * 10 + k)
    code = random_code(F2, n, k, rng)
    dec = MLDecoder(code)
    assert len(dec.words) == 1 << k
    outcomes = set()
    for _ in range(60):
        # numpy's choice with p=(0.4, 0.4, 0.2), draw for draw
        symbols = tuple((0, 1, ERASED)[bisect_right((0.4, 0.8, 1.0), u)]
                        for u in rng.random(n))
        want = brute_force_decode(code, symbols)
        assert decode(dec, symbols) == want
        outcomes.add(want is None)
    assert decode(dec, (ERASED,) * n) is None
    if n < 20:
        assert outcomes == {True, False}


def test_ml_decoder_tie_and_erasure_cases():
    rep = MLDecoder(LinearCode.from_rows(F2, ((1,) * 4,)))
    assert decode(rep, (1, 1, 0, 0)) is None            # even split ties
    assert decode(rep, (1, 1, 0, ERASED)) == 0b1111
    assert decode(rep, (ERASED,) * 4) is None
    assert decode(rep, (0, ERASED, ERASED, ERASED)) == 0


def both_decoders(code, monkeypatch):
    """The decoder that scans a Python list and the one that searches
    numpy limbs, for one code, whatever its size."""
    decoders = []
    for scan_words in (DECODER_WORD_CAP, 0):
        monkeypatch.setattr(proto_p0, "SCAN_WORDS", scan_words)
        decoders.append(MLDecoder(code))
    assert isinstance(decoders[0].words, list)
    assert isinstance(decoders[1].words, np.ndarray)
    return decoders


@pytest.mark.parametrize("n,k", [(k + 1, k) for k in range(1, 7)]
                         + [(9, 7), (10, 8), (70, 5)])
def test_ml_decoder_scan_and_limb_search_match_brute_force(n, k, monkeypatch):
    """Both decoding paths equal brute force on every received word over
    {0, 1, erased} of a random [k + 1, k] code for k = 1..6, and on 500
    drawn words for k = 7, 8 and for a code two limbs wide, ties
    included; their union bounds are equal floats."""
    rng = derive_rng(4100 + n * 10 + k)
    code = random_code(F2, n, k, rng)
    scan, limbs = both_decoders(code, monkeypatch)
    if n <= 7:
        received = product((0, 1, ERASED), repeat=n)
    else:
        received = (tuple(rng.integers(0, 3, size=n)) for _ in range(500))
    ties = 0
    for symbols in received:
        want = brute_force_decode(code, symbols)
        assert decode(scan, symbols) == decode(limbs, symbols) == want
        ties += want is None
    assert ties
    for p in (0.0, 0.01, 0.05, 0.1, 0.3, 0.49):
        assert scan.failure_bound(p) == limbs.failure_bound(p)


def test_failure_bound_hamming_7_4_frozen(monkeypatch):
    for dec in both_decoders(cyclic_code(F2, 7, (1, 1, 0, 1)), monkeypatch):
        assert dec.failure_bound(0.01) == 0.006230551669800001
        assert dec.failure_bound(0.05) == 0.14907482812500003
        assert dec.failure_bound(0.1) == 0.5648280000000001
        assert dec.failure_bound(0.3) == 1.0


# -- minimum distance ------------------------------------------------------------

def gray_walk_distance(code):
    rows = code.generator.packed
    best, word = code.length, 0
    for m in range(1, 1 << len(rows)):
        word ^= rows[(m & -m).bit_length() - 1]
        best = min(best, word.bit_count())
    return best


@pytest.mark.parametrize("n,k", [(12, 5), (16, 16), (21, 18), (24, 17),
                                 (70, 4)])
def test_min_distance_matches_gray_walk(n, k):
    rng = derive_rng(5000 + n * 10 + k)
    code = random_code(F2, n, k, rng)
    assert code.min_distance() == gray_walk_distance(code)


def test_min_distance_finds_a_light_word_among_the_high_rows():
    rng = derive_rng(5100)
    low = random_code(F2, 30, 16, rng).generator.rows
    assert LinearCode.from_rows(F2, low).min_distance() > 1
    unit = tuple(1 if j == 0 else 0 for j in range(30))
    code = LinearCode.from_rows(F2, low + (unit,))
    assert code.min_distance() == gray_walk_distance(code) == 1


def brute_force_distance(code):
    return min(sum(1 for a in w if a)
               for w in islice(code.iter_codewords(), 1, None))


def full_rank_code(field, rows_of, rng):
    """LinearCode on the first draw of rows_of(rng) with full row rank."""
    while True:
        rows = rows_of(rng)
        m = Matrix(field, rows)
        if rank(m) == m.nrows:
            return LinearCode(m)


def systematic_twice(field, b_rows):
    """[I_k | B | B]: past the first, every information set has rank(B)
    fresh pivots, so with B narrower than k they are partly fresh."""
    k = len(b_rows)
    return LinearCode.from_rows(field, (
        tuple(1 if j == i else 0 for j in range(k)) + tuple(b) + tuple(b)
        for i, b in enumerate(b_rows)))


# (n, k) with q^k = k n per field degree: min_distance enumerates such a
# code and searches the [n - 1, k] code beside it
ENUMERATION_EDGE = {1: (32, 8), 2: (8, 2), 3: (32, 2)}


def distance_cases(field, max_k, count, rng):
    """Dense and sparse random codes, [I | B | B] codes with partly fresh
    information sets, k = 1, k = n - 1, a unit vector as the last row
    (its d = 1 only shows beside the other rows), and codes at and just
    past q^k = k n."""
    q = field.order
    for _ in range(count):
        k = int(rng.integers(1, max_k + 1))
        n = int(rng.integers(k + 1, k + 12))
        yield random_code(field, n, k, rng)
        yield systematic_twice(field, [
            [int(a) for a in rng.integers(0, q, size=max(1, k - 2))]
            for _ in range(k)])
        density = 0.1 + (0.4 - 0.1) * rng.random()  # numpy's uniform
        yield full_rank_code(field, lambda r: [
            [int(a) if r.random() < density else 0
             for a in r.integers(1, q, size=n)] for _ in range(k)], rng)
        unit = [0] * n
        unit[int(rng.integers(n))] = int(rng.integers(1, q))
        yield full_rank_code(field, lambda r: [
            [int(a) for a in r.integers(0, q, size=n)]
            for _ in range(k - 1)] + [unit], rng)
    for n in (2, 5, max_k + 1):
        yield random_code(field, n, 1, rng)
        yield random_code(field, n, n - 1, rng)
    n, k = ENUMERATION_EDGE[field.degree]
    for _ in range(3):
        yield random_code(field, n, k, rng)
        yield random_code(field, n - 1, k, rng)


@pytest.mark.parametrize("degree,max_k,count", [(1, 9, 60), (2, 4, 30),
                                                (3, 3, 20)])
def test_min_distance_matches_brute_force(degree, max_k, count):
    # both sides on every case: the enumeration in min_distance takes
    # the codes of at most k n words, the search all of them
    field = GF(degree)
    rng = derive_rng(5200 + degree)
    found = set()
    for code in distance_cases(field, max_k, count, rng):
        want = brute_force_distance(code)
        assert codes._distance(code.generator) == want, code.generator.rows
        assert code.min_distance() == want, code.generator.rows
        found.add(want)
    assert 1 in found and max(found) >= 4


@pytest.mark.parametrize("degree", sorted(ENUMERATION_EDGE))
def test_min_distance_searches_only_past_k_n_codewords(degree, monkeypatch):
    searched = []
    monkeypatch.setattr(codes, "_distance",
                        lambda generator: searched.append(generator) or 0)
    n, k = ENUMERATION_EDGE[degree]
    rng = derive_rng(5300 + degree)
    at_edge = random_code(GF(degree), n, k, rng)
    past_edge = random_code(GF(degree), n - 1, k, rng)
    assert at_edge.min_distance() == brute_force_distance(at_edge)
    assert searched == []
    assert past_edge.min_distance() == 0
    assert searched == [past_edge.generator]


def test_min_distance_with_partly_fresh_information_sets():
    # rows 0, 2 and 3 sum to 1011000|00000|00000; the later sets have 5
    # fresh pivots of 7, so a bound that skips their low levels stops at 5
    code = systematic_twice(F2, [
        [int(c) for c in b] for b in ("11000", "00011", "01100", "10100",
                                      "00110", "00101", "11111")])
    assert brute_force_distance(code) == 3
    assert code.min_distance() == 3


def test_min_distance_of_golay_and_its_extension():
    golay = cyclic_code(F2, 23, (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1))
    extended = LinearCode.from_rows(
        F2, (row + (sum(row) % 2,) for row in golay.generator.rows))
    for code, d in ((golay, 7), (extended, 8)):
        assert brute_force_distance(code) == d
        assert code.min_distance() == d


# -- the cheat matrix ------------------------------------------------------------

def dense_cheat_matrix(basis, mask):
    f, rows = basis.field, basis.rows.rows
    return tuple(tuple(dot(f, hi, [mul(f, u, a) for u, a in zip(mask, hj)])
                       for hj in rows) for hi in rows)


@pytest.mark.parametrize("basis", [
    # [I_4 | ones] over GF(2), the toy outer code; [I_2 | a a] over GF(4)
    # and GF(8), orthonormal since a a + a a = 0 in characteristic 2
    OrthonormalCode(Matrix(F2, tuple(
        tuple(1 if j == i else 0 for j in range(4)) + (1, 1, 1, 1)
        for i in range(4)))),
    OrthonormalCode(Matrix(GF(2), ((1, 0, 1, 1), (0, 1, 1, 1)))),
    OrthonormalCode(Matrix(GF(3), ((1, 0, 3, 3), (0, 1, 5, 5)))),
])
def test_cheat_matrix_matches_the_dense_product(basis):
    f = basis.field
    for mask in product(range(f.order), repeat=basis.length):
        v = cheat_matrix_V(basis.rows, pack(f, mask))
        assert (v.nrows, v.ncols) == (basis.dimension, basis.dimension)
        assert v.rows == dense_cheat_matrix(basis, mask)
    # a symbol past the last round, a negative int, an unpacked mask
    for bad in (1 << f.degree * basis.length, -1, (0,) * basis.length):
        with pytest.raises(ValueError):
            cheat_matrix_V(basis.rows, bad)


# -- the request-mask audit -------------------------------------------------------

TOY_BASIS = OrthonormalCode(Matrix(F2, tuple(
    tuple(1 if j == i else 0 for j in range(4)) + (1, 1, 1, 1)
    for i in range(4))))


def assert_audits_agree(basis, margin, masks=None, pair_samples=None,
                        seed=None):
    """The rank audit's report equals the bincount reference's, and every
    per-pair entropy of the reference is an integer (the identity the
    rank audit rests on)."""
    got, (want, entropies) = (
        audit(basis, margin, masks=masks, pair_samples=pair_samples,
              rng=None if seed is None else derive_rng(seed))
        for audit in (audit_bob_strategies, reference_audit))
    assert got == want
    for h in itertools.chain.from_iterable(entropies):
        assert np.array_equal(h, np.round(h))


def test_rank_audit_matches_bincount_on_every_toy_mask():
    assert_audits_agree(TOY_BASIS, 0.25)


@pytest.mark.parametrize("pair_samples", [1, 3, 7])
def test_rank_audit_matches_bincount_on_sampled_toy_pairs(pair_samples):
    for seed in range(20):
        assert_audits_agree(TOY_BASIS, 0.25, pair_samples=pair_samples,
                            seed=seed)


def test_rank_audit_matches_bincount_on_random_bases():
    """Orthonormal bases of random [10-16, 4-8] codes, r up to 8, at
    compressed lengths 1 and 2, each with 12 random masks."""
    rng = derive_rng(3300)
    dims = set()
    for case in range(40):
        code = random_code(F2, rng.integers(10, 17), rng.integers(4, 9), rng)
        basis, _ = orthonormalize(code)
        r, n = basis.dimension, basis.length
        u_len = 1 if r < 5 else 1 + rng.integers(0, 2)
        masks = [rng.integers(0, 1 << n) for _ in range(12)]
        assert_audits_agree(basis, 0.5 - u_len / r, masks=masks,
                            pair_samples=4, seed=3400 + case)
        dims.add((r, u_len))
    assert {r for r, _ in dims} == {4, 5, 6, 7, 8}
    assert {u for _, u in dims} == {1, 2}
