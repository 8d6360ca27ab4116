"""Tuple arithmetic over GF(2^e): the symbol-by-symbol references that
the packed rows of `otlab.linalg` and the outer rounds' bit-plane
serialization are checked against, and received words over {0, 1,
ERASED} for the packed (mask, target) pairs of the channel and the
decoder."""

import functools

from otlab.linalg import Matrix

ERASED = 2  # a received symbol whose two copies disagreed


@functools.cache
def _products(degree, poly):
    """The multiplication table of GF(2^degree) under the modulus poly:
    carry-less products, reduced one bit at a time."""
    def product(a, b):
        acc = 0
        for t in range(degree):
            if b >> t & 1:
                acc ^= a << t
        for t in range(2 * degree - 2, degree - 1, -1):
            if acc >> t & 1:
                acc ^= poly << t - degree
        return acc
    q = 1 << degree
    return tuple(tuple(product(a, b) for b in range(q)) for a in range(q))


def mul(field, a, b):
    """a times b, independent of the field's exp/log tables."""
    if not a or not b:
        return 0
    return _products(field.degree, field.poly)[a][b]


def dot(field, u, v):
    """Inner product of two words."""
    if len(u) != len(v):
        raise ValueError("length mismatch in dot product")
    acc = 0
    for a, b in zip(u, v):
        acc ^= mul(field, a, b)
    return acc


def schur(field, u, v):
    """Componentwise product of two words."""
    if len(u) != len(v):
        raise ValueError("length mismatch in componentwise product")
    return tuple(mul(field, a, b) for a, b in zip(u, v))


def apply(matrix, v):
    """The matrix-vector product A v, row by row."""
    if len(v) != matrix.ncols:
        raise ValueError(f"expected length {matrix.ncols}, got {len(v)}")
    return tuple(dot(matrix.field, r, v) for r in matrix.rows)


def naive_matmul(a, b):
    """a @ b by the triple loop over entries."""
    f, arows, brows = a.field, a.rows, b.rows
    return Matrix(f, tuple(
        tuple(dot(f, arows[i], [r[j] for r in brows]) for j in range(b.ncols))
        for i in range(a.nrows)), ncols=b.ncols)


def block_to_bits(block, degree):
    """A tuple of GF(2^degree) symbols as degree bit-planes, plane b
    holding bit b of every symbol, planes in ascending order."""
    m = len(block)
    out = [0] * (m * degree)
    for b in range(degree):
        for i, sym in enumerate(block):
            out[b * m + i] = (sym >> b) & 1
    return tuple(out)


def bits_to_block(bits, degree):
    """The tuple of symbols that block_to_bits serialized as bits."""
    m = len(bits) // degree
    block = [0] * m
    for b in range(degree):
        for i in range(m):
            if bits[b * m + i]:
                block[i] |= 1 << b
    return tuple(block)


def pack_received(symbols):
    """A word over {0, 1, ERASED} as (mask, target): the mask of its
    non-erased positions and its values there."""
    mask = target = 0
    for i, s in enumerate(symbols):
        if s != ERASED:
            mask |= 1 << i
            target |= s << i
    return mask, target
