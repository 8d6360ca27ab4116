"""String transfer built on top of the bit-level sessions.

Alice holds two secrets s and t, each an outer_dim x block_syms matrix
over GF(q).  She samples x uniform with H x = s (H is an orthonormal
spanning basis of the outer code) and offsets it: the round-l candidates
are x_l and x_l + lambda_i * D_l, where D = H^T (s + t) and lambda_i runs
over the nonzero field elements in discrete-log order.  Bob draws a mask
u from the dual of the square of the outer code and requests, in round l,
the candidate indexed by mu_l = u_l (wanting s) or u_l + 1 (wanting t);
each request rides one 1-of-q inner transfer.  His harvest is
v = x + diag(mu) D, so H v^T = s + V(u)(s + t) with V(u)_{ij} =
u . (H_i * H_j): the mask's membership in the dual of the square kills V
and yields s, and the +1 shift flips it to t, while any single round
looks like a uniform block either way.  A candidate row rides its inner
transfer as one packed int of bit-planes (block_to_bits), and Bob's
harvest comes back through bits_to_block.

The compressed ("private") variants publish compression matrices M_s and
M_t only after the last round; the halved secrets M_s s, M_t t are what
the rank dichotomy of the cheating analysis protects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from .codes import OrthonormalCode, square_dual_sample
from .gf import Field
from .linalg import (Matrix, dot, full_rank_matrix, product, solve_columns,
                     unpack)
from .proto_p0 import P0Params, Session, p0q_run

if TYPE_CHECKING:
    from .channels import Stream


def block_to_bits(row: int, m: int, degree: int) -> int:
    """Serialize a packed row of m GF(2^degree) symbols as degree
    bit-planes, packed.

    Plane b holds bit b of every symbol: bit b m + i of the result is bit
    b of symbol i (bit degree i + b of row), so XOR of serialized rows
    matches field addition of the rows, and degree 1 is the identity.
    """
    return sum((row >> degree * i + b & 1) << b * m + i
               for b in range(degree) for i in range(m))


def bits_to_block(bits: int, m: int, degree: int) -> int:
    """The packed row of m symbols that block_to_bits serialized as
    `bits`."""
    if bits >> m * degree:  # also true for a negative int
        raise ValueError("serialized block is wider than m degree bits")
    return sum((bits >> b * m + i & 1) << degree * i + b
               for b in range(degree) for i in range(m))


def outer_offset(basis: OrthonormalCode, first_secret: Matrix,
                 second_secret: Matrix) -> Matrix:
    """D = H^T (s + t): the row-l offset between adjacent candidates."""
    return basis.rows.transpose() @ (first_secret + second_secret)


def p2_alice_setup(first_secret: Matrix, second_secret: Matrix,
                   basis: OrthonormalCode,
                   rng: Stream) -> tuple[Matrix, list[Matrix]]:
    """Alice's setup: x uniform with H x = s, plus the q - 1 offsets
    x + lambda_i H^T(s + t).

    lambda_i runs over nonzero elements in discrete-log order, so
    lambda_1 = 1 and over GF(2) the single offset is y = x + H^T(s + t).
    """
    f = basis.field
    r = basis.dimension
    for s in (first_secret, second_secret):
        if s.field != f or s.nrows != r:
            raise ValueError("secrets must be outer_dim-row matrices "
                             "over the basis field")
    if first_secret.ncols != second_secret.ncols:
        raise ValueError("secrets must share a block width")
    x = solve_columns(basis.rows, first_secret, rng)
    offset = outer_offset(basis, first_secret, second_secret)
    ys = [x + offset.scale(f.alpha_power(i)) for i in range(f.order - 1)]
    return x, ys


def check_mask(mask: int, field: Field, length: int) -> None:
    """Refuse a request mask that is not a packed word of `length`
    symbols of the field: a negative or wider int, or no int at all."""
    if not isinstance(mask, int) or mask >> field.degree * length:
        raise ValueError(f"request mask must be a packed word of {length} "
                         f"GF({field.order}) symbols, got {mask!r}")


def request_indices(mask: int, rounds: int, want_first: bool,
                    field: Field) -> tuple:
    """Per-round candidate indices of a packed mask of `rounds` symbols:
    mu_l = u_l (+1 for the second secret).

    Candidate 0 is x itself; candidate i >= 1 is the lambda_i offset, so
    the index of a nonzero mu is dlog(mu) + 1.
    """
    check_mask(mask, field, rounds)
    e, top = field.degree, field.order - 1
    flip = 0 if want_first else 1
    out = []
    for ell in range(rounds):
        mu = (mask >> e * ell & top) ^ flip
        out.append(0 if mu == 0 else field.dlog(mu) + 1)
    return tuple(out)


def cheat_matrix_V(rows: Matrix, mask: int) -> Matrix:
    """V(u) with V_ij = u . (H_i * H_j), the inner product of u * H_i with
    H_j, for the packed mask u; zero iff u is dual to the square."""
    f, e, h = rows.field, rows.field.degree, rows.packed
    check_mask(mask, f, rows.ncols)
    v = []
    for hi in h:
        masked = product(f, mask, hi)
        v.append(sum(dot(f, masked, hj) << e * j for j, hj in enumerate(h)))
    return Matrix.from_packed(f, v, rows.nrows)


class CompressionPair(NamedTuple):
    m_first: Matrix
    m_second: Matrix


def compressed_length(outer_dim: int, margin: float) -> int:
    """u = outer_dim (1/2 - margin); must be a positive integer."""
    if not 0.0 < margin < 0.5:
        raise ValueError(f"margin must be in (0, 1/2), got {margin}")
    val = outer_dim * (0.5 - margin)
    u_len = round(val)
    if abs(val - u_len) > 1e-9 or u_len < 1:
        raise ValueError(
            f"outer_dim {outer_dim} and margin {margin} give compressed "
            f"length {val}, not a positive integer")
    return u_len


def compress_setup(compressed_first: Matrix, compressed_second: Matrix,
                   outer_dim: int, margin: float,
                   rng: Stream) -> tuple[CompressionPair,
                                                      Matrix, Matrix]:
    """Lift compressed secrets to full ones under fresh full-rank maps.

    Draws M_first, M_second uniform u x outer_dim (resampled until full
    rank), then samples s, t uniform with M_first s = compressed_first,
    M_second t = compressed_second.
    """
    f = compressed_first.field
    u_len = compressed_length(outer_dim, margin)
    for c in (compressed_first, compressed_second):
        if c.nrows != u_len or c.field != f:
            raise ValueError("compressed secrets must have u rows")
    if compressed_first.ncols != compressed_second.ncols:
        raise ValueError("compressed secrets must share a block width")

    m_first = full_rank_matrix(f, u_len, outer_dim, rng)
    m_second = full_rank_matrix(f, u_len, outer_dim, rng)
    return (CompressionPair(m_first, m_second),
            solve_columns(m_first, compressed_first, rng),
            solve_columns(m_second, compressed_second, rng))


class OuterParams:
    """Parameters shared by the string protocols (immutable).

    The round count equals the basis length; each round moves block_syms
    field symbols, the inner sessions' bits read as GF(2^degree)
    symbols.  A margin makes the session compressed (p1prime/p2prime).
    """

    __slots__ = ("basis", "inner", "margin")

    def __init__(self, basis: OrthonormalCode, inner: P0Params,
                 margin: Optional[float] = None):
        bits, degree = inner.secret_bits, basis.field.degree
        if bits % degree:
            raise ValueError(
                f"inner sessions carry {bits} bits, not a whole number of "
                f"GF(2^{degree}) symbols")
        if margin is not None:
            compressed_length(basis.dimension, margin)
        for name, value in zip(self.__slots__, (basis, inner, margin)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("OuterParams is immutable")

    @property
    def block_syms(self) -> int:
        return self.inner.secret_bits // self.field.degree

    @property
    def rounds(self) -> int:
        return self.basis.length

    @property
    def outer_dim(self) -> int:
        return self.basis.dimension

    @property
    def field(self) -> Field:
        return self.basis.field


def run_session(params: OuterParams, first_secret: Matrix,
                second_secret: Matrix, want_first: bool,
                rng: Stream,
                request_mask: Optional[int] = None) -> Session:
    """One full outer session (honest parties unless a mask is forced).

    The single entry point of every string protocol: p1/p2 run a binary
    or q-ary outer code, p1prime/p2prime add compression.  When the params
    carry a margin the given secrets are the compressed ones; the
    compression pair is generated up front but revealed in the transcript
    event order strictly after the last inner round, which is what the
    cheating analysis relies on.
    """
    f = params.field
    basis = params.basis
    if first_secret.ncols != params.block_syms:
        raise ValueError(
            f"secrets must have block_syms = {params.block_syms} columns, "
            f"got {first_secret.ncols}")
    events = ["mask_drawn"]
    compressed = params.margin is not None
    if compressed:
        pair, s, t = compress_setup(first_secret, second_secret,
                                    params.outer_dim, params.margin, rng)
    else:
        pair, s, t = None, first_secret, second_secret
    x, ys = p2_alice_setup(s, t, basis, rng)
    mask = (square_dual_sample(basis.base, rng) if request_mask is None
            else request_mask)
    requests = request_indices(mask, params.rounds, want_first, f)

    harvest_rows = []
    statuses = []
    degree, width = f.degree, params.block_syms
    for ell in range(params.rounds):
        blocks = [block_to_bits(c.packed[ell], width, degree)
                  for c in [x, *ys]]
        inner = p0q_run(blocks, requests[ell], params.inner, rng)
        statuses.append(inner.status)
        harvest_rows.append(None if inner.output is None
                            else bits_to_block(inner.output, width, degree))
    events.append("rounds_complete")

    harvest = None
    output = None
    if all(r is not None for r in harvest_rows):
        harvest = Matrix.from_packed(f, harvest_rows, width)
        output = basis.rows @ harvest  # H v collapses the rounds
        if compressed:
            output = (pair.m_first if want_first else pair.m_second) @ output
    if compressed:
        events.append("compression_revealed")

    def transcript() -> dict:
        secret_syms = (params.outer_dim if not compressed
                       else compressed_length(params.outer_dim, params.margin))
        secret_bits = secret_syms * params.block_syms * degree
        # each round's 1-of-q transfer runs q - 1 sessions of 4 n0 bits
        channel_bits = (params.rounds * (f.order - 1) * 4
                        * params.inner.block_len)
        return {
            "params": {"events": events, "channel_bits": channel_bits,
                       "observed_rate": 2.0 * secret_bits / channel_bits},
            # each round's 1-of-q transfer announces q - 1 partitions
            "alice_view": {"announced_sets": params.rounds * (f.order - 1)},
            "bob_view": {"want_first": want_first},
            "outcome": {"statuses": statuses},
            "outer_params": {"rounds": params.rounds,
                             "block_syms": params.block_syms},
            "u": list(unpack(f, mask, params.rounds)),
            "v": None if harvest is None else [list(r) for r in harvest.rows],
            "V_matrix": [list(r) for r
                         in cheat_matrix_V(basis.rows, mask).rows],
            "compression": None if pair is None else {
                "M_s": pair.m_first.to_json(), "M_t": pair.m_second.to_json()},
        }
    status = next((s for s in statuses if s != "ok"), "ok")
    return Session(status, output, transcript)
