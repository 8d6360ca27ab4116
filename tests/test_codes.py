"""Linear codes: distances, squares, orthonormal bases, dual sampling."""

import pytest

from otlab.channels import derive_rng
from otlab.codes import (EnumerationLimit, LinearCode, OrthonormalCode,
                         code_from_json, code_to_json, cyclic_code,
                         orthonormalize, puncture, random_code, rs_code,
                         square_dual_sample)
from otlab.gf import GF
from otlab.linalg import Matrix, pack, product, rank, rref, unpack
from tuple_reference import apply, mul, schur

# generator polynomial of the [15,5] cyclic code used in the session-level
# tests, low-degree coefficient first: x^10+x^8+x^5+x^4+x^2+x+1
C15_5_GEN = (1, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1)


def hamming_7_4():
    return LinearCode.from_rows(GF(1), (
        (1, 0, 0, 0, 1, 1, 0),
        (0, 1, 0, 0, 1, 0, 1),
        (0, 0, 1, 0, 0, 1, 1),
        (0, 0, 0, 1, 1, 1, 1)))


def _span_basis(field, rows, length):
    m = Matrix(field, tuple(rows), ncols=length)
    red, pivots = rref(m)
    return list(red.rows[:len(pivots)])


def definitional_square(code):
    """Span of all pairwise products of actual codewords (the oracle)."""
    words = list(code.iter_codewords())
    prods = [schur(code.field, u, v) for u in words for v in words]
    rows = [p for p in prods if any(p)]
    return LinearCode.from_rows(code.field,
                                _span_basis(code.field, rows, code.length))


def same_code(a, b):
    if a.length != b.length or a.dimension != b.dimension:
        return False
    aw = set(a.iter_codewords())
    return all(w in aw for w in b.iter_codewords())


def test_schur_componentwise():
    f = GF(3)
    u, v = (1, 2, 0), (3, 4, 5)
    want = (3, mul(f, 2, 4), 0)
    assert schur(f, u, v) == want
    assert unpack(f, product(f, pack(f, u), pack(f, v)), 3) == want


def test_linear_code_validates_generator():
    f = GF(1)
    with pytest.raises(ValueError):
        LinearCode(Matrix(f, ((1, 0), (1, 0))))   # rank deficient
    code = LinearCode(Matrix(f, ((1, 1),)))
    assert (code.length, code.dimension) == (2, 1)


def test_encode_and_iter_codewords():
    code = hamming_7_4()

    def encode(msg):
        (word,) = (Matrix(code.field, (msg,)) @ code.generator).rows
        return word

    words = list(code.iter_codewords())
    assert len(words) == 16
    assert len(set(words)) == 16
    assert encode((0, 0, 0, 0)) == (0,) * 7
    seen = set(words)
    for msg in ((1, 0, 0, 0), (1, 1, 0, 1), (0, 0, 1, 1)):
        assert encode(msg) in seen


def test_min_distance_known_codes():
    assert hamming_7_4().min_distance() == 3
    rep = LinearCode.from_rows(GF(1), ((1, 1, 1, 1, 1),))
    assert rep.min_distance() == 5
    parity = LinearCode.from_rows(GF(1), ((1, 1, 0), (0, 1, 1)))
    assert parity.min_distance() == 2
    c15 = cyclic_code(GF(1), 15, C15_5_GEN)
    assert (c15.length, c15.dimension) == (15, 5)
    assert c15.min_distance() == 7


def test_min_distance_matches_naive_enumeration():
    rng = derive_rng(11)
    for degree in (1, 2, 3):
        f = GF(degree)
        for _ in range(15):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(k, 8))
            code = random_code(f, n, k, rng)
            naive = code.length
            for word in code.iter_codewords():
                w = sum(1 for a in word if a)
                if 0 < w < naive:
                    naive = w
            assert code.min_distance() == naive


def test_min_distance_enumeration_limit():
    big = LinearCode(Matrix.identity(GF(1), 30))
    with pytest.raises(EnumerationLimit):
        big.min_distance(limit=1 << 20)


def test_min_distance_of_the_whole_space():
    """k = n holds every unit vector, so d = 1; the budget still applies."""
    rng = derive_rng(13)
    for degree, n in ((1, 23), (2, 11)):
        f = GF(degree)
        space = random_code(f, n, n, rng)
        assert space.min_distance() == 1
        with pytest.raises(EnumerationLimit):
            random_code(f, n, n, rng).min_distance(limit=f.order ** n - 1)


def test_schur_square_matches_definitional_span():
    """Generator-pair computation equals the span over all codeword pairs."""
    rng = derive_rng(12)
    checked = 0
    while checked < 100:
        degree = int(rng.integers(1, 3))
        f = GF(degree)
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, 9))
        if f.order ** k > 1 << 12:
            continue
        code = random_code(f, n, k, rng)
        assert same_code(code.schur_square(), definitional_square(code))
        checked += 1


def test_d_at_least_square_d_on_audited_codes():
    rng = derive_rng(13)
    for _ in range(60):
        f = GF(int(rng.integers(1, 3)))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, 9))
        audit = random_code(f, n, k, rng).audit()
        assert audit.d >= audit.d_hat


def test_rs_code_shape_and_distance():
    f = GF(3)
    code = rs_code(f, 2)
    assert (code.length, code.dimension) == (7, 3)
    assert code.min_distance() == 5          # MDS: d = n - k + 1
    assert code.square_distance() == 3       # square is degree-4 evaluations
    with pytest.raises(ValueError):
        rs_code(f, 7)
    with pytest.raises(ValueError):
        rs_code(f, 1, points=(1, 1))


def test_rs_square_containment():
    """Products of degree-g evaluations live in the degree-2g code."""
    for field_degree in (3, 4):
        f = GF(field_degree)
        n = f.order - 1
        for deg_g in range(1, (n - 1) // 2 + 1):
            low = rs_code(f, deg_g)
            high = rs_code(f, 2 * deg_g)
            sq = low.schur_square()
            # adding the square's rows to the big code must not grow rank
            stacked = Matrix(f, high.generator.rows + sq.generator.rows,
                             ncols=n)
            assert rank(stacked) == high.dimension
            assert sq.dimension == min(2 * deg_g + 1, n)


def test_puncture_basics():
    code = hamming_7_4()
    short = puncture(code, (0, 6))
    assert short.length == 5
    assert short.dimension == 4
    with pytest.raises(ValueError):
        puncture(code, (0, 1, 2))   # >= d positions would risk collapse
    with pytest.raises(ValueError):
        puncture(code, (9,))


def test_puncture_square_commutes():
    """Squaring then puncturing equals puncturing then squaring."""
    rng = derive_rng(14)
    done = 0
    while done < 100:
        f = GF(int(rng.integers(1, 3)))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 2, 10))
        code = random_code(f, n, k, rng)
        room = min(code.min_distance(), code.square_distance())
        if room < 2:
            continue
        npos = int(rng.integers(1, room))
        pos = tuple(sorted(rng.permutation(n)[:npos]))
        sq_then_punct = puncture(code.schur_square(), pos)
        punctured = puncture(code, pos)
        assert same_code(sq_then_punct, punctured.schur_square())
        done += 1


def test_orthonormalize_properties_binary():
    rng = derive_rng(15)
    done = 0
    while done < 100:
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k + 3, 14))
        code = random_code(GF(1), n, k, rng)
        audit = code.audit()
        r = code.dimension
        if audit.d <= r:
            continue
        ortho, removed = orthonormalize(code)
        assert isinstance(ortho, OrthonormalCode)
        assert ortho.dimension == r
        assert len(removed) <= r
        assert ortho.length == n - len(removed)
        gram = ortho.rows @ ortho.rows.transpose()
        assert gram.rows == Matrix.identity(GF(1), r).rows
        # basis rows span exactly the punctured original code
        assert same_code(ortho.base, puncture(code, removed))
        done += 1


def test_orthonormalize_properties_gf4():
    rng = derive_rng(16)
    f = GF(2)
    done = 0
    while done < 40:
        k = int(rng.integers(2, 4))
        n = int(rng.integers(k + 3, 9))
        code = random_code(f, n, k, rng)
        if code.min_distance() <= code.dimension:
            continue
        ortho, removed = orthonormalize(code)
        gram = ortho.rows @ ortho.rows.transpose()
        assert gram.rows == Matrix.identity(f, code.dimension).rows
        assert len(removed) <= code.dimension
        done += 1


def test_orthonormalize_square_distance_floor():
    """Punctured square distance stays within r of the original d_hat."""
    rng = derive_rng(17)
    done = 0
    while done < 50:
        k = int(rng.integers(2, 4))
        n = int(rng.integers(k + 4, 13))
        code = random_code(GF(1), n, k, rng)
        audit = code.audit()
        if audit.d <= code.dimension or audit.d_hat <= code.dimension:
            continue
        ortho, removed = orthonormalize(code)
        got = ortho.base.square_distance()
        assert got >= audit.d_hat - len(removed)
        done += 1


def test_orthonormalize_small_distance_still_orthonormal():
    # d = 2 = r: puncturing may touch every row, result still checks out
    rep = LinearCode.from_rows(GF(1), ((1, 1, 0, 0), (0, 0, 1, 1)))
    ortho, removed = orthonormalize(rep)
    assert ortho.dimension == 2
    assert len(removed) <= 2
    gram = ortho.rows @ ortho.rows.transpose()
    assert gram.rows == Matrix.identity(GF(1), 2).rows


def test_orthonormal_constructor_rejects_bad_rows():
    f = GF(1)
    with pytest.raises(ValueError):
        OrthonormalCode(Matrix(f, ((1, 1, 0),)))          # self-product 0
    with pytest.raises(ValueError):
        OrthonormalCode(Matrix(f, ((1, 0, 1), (0, 1, 1))))  # cross-product 1
    ok = OrthonormalCode(Matrix(f, ((1, 0, 0), (0, 1, 0))))
    assert (ok.length, ok.dimension) == (3, 2)


def test_orthonormalize_cyclic_15_5():
    code = cyclic_code(GF(1), 15, C15_5_GEN)
    ortho, removed = orthonormalize(code)
    assert ortho.dimension == 5
    assert ortho.length == 15 - len(removed)
    # a message encodes to a word of the punctured code
    msg = (1, 0, 1, 1, 0)
    (word,) = (Matrix(GF(1), (msg,)) @ ortho.rows).rows
    punct = puncture(code, removed) if removed else code
    assert word in set(punct.iter_codewords())


def test_square_dual_sample_is_orthogonal():
    rng = derive_rng(18)
    code = cyclic_code(GF(1), 15, C15_5_GEN)
    sq = code.schur_square()
    for _ in range(50):
        u = square_dual_sample(code, rng)
        assert 0 <= u < 1 << code.length
        assert apply(sq.generator, unpack(GF(1), u, code.length)) == (
            (0,) * sq.dimension)


def test_square_dual_sample_rejects_full_square():
    rng = derive_rng(19)
    full = LinearCode(Matrix.identity(GF(1), 4))
    with pytest.raises(ValueError):
        square_dual_sample(full, rng)


def test_square_dual_sample_covers_dual():
    """Over many draws every dual-of-square vector should appear."""
    rng = derive_rng(20)
    code = LinearCode.from_rows(GF(1), ((1, 1, 1, 1, 1, 1),))
    sq = code.schur_square()
    dual_dim = code.length - sq.dimension
    seen = set()
    for _ in range(400):
        seen.add(square_dual_sample(code, rng))
    assert len(seen) == 1 << dual_dim


def test_code_json_round_trip():
    for code in (hamming_7_4(),
                 rs_code(GF(3), 2),
                 cyclic_code(GF(1), 15, C15_5_GEN)):
        blob = code_to_json(code)
        back, audit = code_from_json(blob)
        assert audit is None
        assert back.field is code.field
        assert back.generator.rows == code.generator.rows


def test_code_json_round_trip_with_audit():
    code = hamming_7_4()
    audit = code.audit()
    blob = code_to_json(code, audit)
    back, got = code_from_json(blob)
    assert got == audit
    assert back.generator.rows == code.generator.rows
    with pytest.raises(ValueError):
        code_from_json({"field_degree": 1, "n": 3, "k": 2,
                        "generator": [1, 0, 0]})
    # k is checked against the file's own n, not a zero-row matrix's width
    with pytest.raises(ValueError, match=r"got k=0, n=3$"):
        code_from_json({"field_degree": 1, "n": 3, "k": 0, "generator": []})


def test_random_code_full_rank_and_shape():
    rng = derive_rng(23)
    for degree in (1, 2, 4):
        f = GF(degree)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(k, 12))
            code = random_code(f, n, k, rng)
            assert (code.length, code.dimension) == (n, k)
            assert rank(code.generator) == k


def test_cyclic_code_validation_and_normalization():
    with pytest.raises(ValueError):
        cyclic_code(GF(1), 15, (0, 0, 0))
    with pytest.raises(ValueError):
        cyclic_code(GF(1), 4, (1, 0, 0, 0, 1))   # degree not below n
    # trailing zero coefficients are stripped before shifting
    a = cyclic_code(GF(1), 6, (1, 1))
    b = cyclic_code(GF(1), 6, (1, 1, 0, 0))
    assert a.generator.rows == b.generator.rows
    assert a.dimension == 5

