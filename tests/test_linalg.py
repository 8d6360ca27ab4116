"""Matrix layer: reduction, kernels, affine sampling, packed rows."""

import itertools
import pickle
from collections import Counter

import pytest

from otlab.channels import derive_rng
from otlab.gf import GF
from otlab.linalg import (DimensionMismatch, InconsistentSystem, Matrix, dot,
                          pack, product, random_matrix, rank,
                          rank_and_kernel, rref, scale, solve_columns, unpack,
                          weight)
from tuple_reference import dot as reference_dot
from tuple_reference import apply, mul, naive_matmul


def span(m):
    """Every combination of the rows of m."""
    combos = tuple(itertools.product(range(m.field.order), repeat=m.nrows))
    return set((Matrix(m.field, combos, ncols=m.nrows) @ m).rows)


def test_constructor_validates_shape():
    f = GF(1)
    with pytest.raises(DimensionMismatch):
        Matrix(f, ((1, 0), (1,)))
    with pytest.raises(DimensionMismatch):
        Matrix(f, ((1, 0),), ncols=3)
    empty = Matrix(f, (), ncols=4)
    assert empty.nrows == 0 and empty.ncols == 4


def test_matrix_is_immutable():
    m = Matrix(GF(1), ((1, 0),))
    with pytest.raises(AttributeError):
        m.rows = ((0, 0),)


def test_matmul_matches_naive():
    rng = derive_rng(2)
    for degree in (1, 2, 3):
        f = GF(degree)
        for _ in range(20):
            a = random_matrix(f, 3, 4, rng)
            b = random_matrix(f, 4, 2, rng)
            assert a @ b == naive_matmul(a, b)


def test_matmul_shape_checks():
    f = GF(1)
    a = Matrix(f, ((1, 0),))
    with pytest.raises(DimensionMismatch):
        a @ a
    with pytest.raises(DimensionMismatch):
        a @ Matrix(GF(2), ((1,), (0,)))


def test_add_scale_transpose():
    f = GF(2)
    a = Matrix(f, ((1, 2), (3, 0)))
    zero = Matrix(f, ((0, 0), (0, 0)))
    assert a + a == zero
    assert a.transpose().transpose() == a
    assert a.scale(1) == a
    assert a.scale(0) == zero
    # scaling distributes over addition
    b = Matrix(f, ((2, 2), (1, 3)))
    assert (a + b).scale(3) == a.scale(3) + b.scale(3)


def test_apply_agrees_with_matmul():
    rng = derive_rng(3)
    f = GF(2)
    for _ in range(20):
        a = random_matrix(f, 3, 5, rng)
        v = tuple(int(x) for x in rng.integers(0, 4, size=5))
        col = Matrix(f, tuple((x,) for x in v))
        assert (a @ col).rows == tuple((x,) for x in apply(a, v))


def test_stack_and_drop_columns():
    f = GF(1)
    a = Matrix(f, ((1, 0), (0, 1)))
    b = Matrix(f, ((1, 1),))
    assert Matrix(f, a.rows + b.rows).nrows == 3
    assert a.drop_columns([0]) == Matrix(f, ((0,), (1,)))
    assert a.drop_columns([]) == a


def test_rref_exhaustive_2x2_binary():
    """Every binary 2x2 matrix: reduced form reproduces the row space."""
    f = GF(1)
    for bits in range(16):
        rows = ((bits & 1, (bits >> 1) & 1), ((bits >> 2) & 1, (bits >> 3) & 1))
        m = Matrix(f, rows)
        red, pivots = rref(m)
        assert span(m) == span(red)
        assert rank(m) == len(pivots)


def test_rank_and_kernel_exhaustive_small():
    """All 3x3 binary matrices: kernel vectors annihilate, dims add up."""
    f = GF(1)
    for bits in range(512):
        rows = tuple(tuple((bits >> (3 * i + j)) & 1 for j in range(3))
                     for i in range(3))
        m = Matrix(f, rows)
        r, kernel = rank_and_kernel(m)
        assert r + kernel.nrows == 3 and kernel.ncols == 3
        for v in kernel.rows:
            assert apply(m, v) == (0, 0, 0)
        # kernel vectors are independent
        assert rank(kernel) == kernel.nrows


def test_rank_over_gf4():
    f = GF(2)
    assert rank(Matrix.identity(f, 3)) == 3
    # 2*(1,2) = (2, x^2) = (2,3), so those rows are dependent
    assert rank(Matrix(f, ((1, 2), (2, 3)))) == 1
    assert rank(Matrix(f, ((1, 2), (2, 1)))) == 2


def test_solve_columns_solves():
    rng = derive_rng(4)
    f = GF(2)
    for _ in range(30):
        m = random_matrix(f, 3, 5, rng)
        x = random_matrix(f, 5, 2, rng)
        b = m @ x
        y = solve_columns(m, b, rng)
        assert m @ y == b


def test_solve_columns_inconsistent():
    f = GF(1)
    m = Matrix(f, ((1, 0), (1, 0)))
    rng = derive_rng(0)
    with pytest.raises(InconsistentSystem):
        solve_columns(m, Matrix(f, ((0,), (1,))), rng)
    with pytest.raises(DimensionMismatch):
        solve_columns(m, Matrix(f, ((0,),)), rng)


def test_solve_columns_uniform_over_solution_set():
    """The sampled solution is uniform over the coset (chi-square)."""
    f = GF(1)
    m = Matrix(f, ((1, 1, 0, 0),))
    b = Matrix(f, ((1,),))
    rng = derive_rng(9)
    counts = Counter(solve_columns(m, b, rng) for _ in range(4000))
    assert len(counts) == 8          # kernel dim 3 -> 8 solutions
    expected = 4000 / 8
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 24.3               # chi-square_{7, 0.999}


def test_pickle_round_trip():
    f = GF(2)
    m = Matrix(f, ((1, 2), (3, 0)))
    assert pickle.loads(pickle.dumps(m)) == m
    empty = Matrix(f, (), ncols=5)
    back = pickle.loads(pickle.dumps(empty))
    assert back == empty and back.ncols == 5


def test_pack_unpack_bits():
    for bits in range(32):
        v = tuple((bits >> i) & 1 for i in range(5))
        assert pack(GF(1), v) == bits
        assert unpack(GF(1), bits, 5) == v


def test_gf2_rank_matches_matrix_rank():
    """The rank is r exactly when the rows span 2^r words."""
    rng = derive_rng(7)
    f = GF(1)
    for _ in range(100):
        m = random_matrix(f, 4, 6, rng)
        assert len(span(m)) == 1 << rank(m)
    assert rank(Matrix(f, (), ncols=3)) == 0
    assert rank(Matrix(f, ((0, 0), (0, 0)))) == 0


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 8])
def test_packed_symbols_match_field_arithmetic(degree):
    """Symbol j of a packed row sits in bits e j .. e j + e - 1; scale,
    product, dot and weight agree with Field arithmetic symbol by symbol,
    also on the top symbol and on words shorter than their length."""
    f = GF(degree)
    rng = derive_rng(8 + degree)
    for n in (0, 1, 2, 7, 30):
        for _ in range(40):
            u = tuple(int(a) for a in rng.integers(0, f.order, size=n))
            v = tuple(int(a) for a in rng.integers(0, f.order, size=n))
            c = int(rng.integers(0, f.order))
            pu, pv = pack(f, u), pack(f, v)
            assert unpack(f, pu, n) == u
            assert unpack(f, scale(f, pu, c), n) == tuple(mul(f, c, a)
                                                          for a in u)
            assert unpack(f, product(f, pu, pv), n) == tuple(
                mul(f, a, b) for a, b in zip(u, v))
            assert dot(f, pu, pv) == reference_dot(f, u, v)
            assert weight(f, pu) == sum(1 for a in u if a)
    top = (f.order - 1,) * 3
    assert unpack(f, scale(f, pack(f, top), f.order - 1), 3) == (
        mul(f, f.order - 1, f.order - 1),) * 3
