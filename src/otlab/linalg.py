"""Linear algebra over GF(2^e), with one packed layer for GF(2).

Matrices are immutable (tuple-of-tuples storage) and carry their field.
Row reduction uses lowest-index pivot selection so every reduced form,
rank, kernel basis, and sampled solution is reproducible bit for bit.

Over GF(2) the work runs on packed rows: a row is one Python int whose
bit i is the entry in column i.  `rref`, `rank`, `rank_and_kernel` and
`solve_affine` take that path whenever field.degree == 1.  The reduced
row echelon form, the kernel basis and the particular solution with the
free variables at zero are unique for a given row space, so the packed
path returns exactly what the dense loop returns and `solve_affine`
draws the same random coefficients; the dense loop (`_rref_dense`) is
the GF(2^e > 1) implementation and the reference the tests compare
against.  GF2Coset keeps a reduced system so that many solutions can be
sampled from one elimination.  `random_matrix`, `full_rank_matrix` and
`solve_columns` are the one way to draw a matrix, draw one of full row
rank, and sample a matrix solution column by column.

Codeword enumeration uses numpy: `span_words` lists every combination of
packed rows as int64 words (63 bits to a limb, limbs on the last axis),
`weights` counts their bits through a 16-bit table, and `gf2_apply`
evaluates a packed matrix on every word at once.  numpy and the table load
on first use, so importing this module does not import numpy.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Iterable, Sequence

from .gf import Field

if TYPE_CHECKING:
    import numpy as np

Vector = tuple  # length-n tuple of field elements (ints)

LIMB_BITS = 63  # bits of a packed word per int64 limb (the sign bit stays 0)


class DimensionMismatch(ValueError):
    pass


class InconsistentSystem(ValueError):
    pass


class Matrix:
    """Immutable dense matrix over a GF(2^e) field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: Iterable[Sequence[int]],
                 ncols: int | None = None):
        rows = tuple(tuple(field.check(a) for a in row) for row in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatch("ragged rows")
            if ncols is not None and ncols != width:
                raise DimensionMismatch("ncols hint does not match rows")
        else:
            width = 0 if ncols is None else ncols
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", width)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, field: Field, rows: tuple,
                 ncols: int | None = None) -> "Matrix":
        """__init__ without Field.check, for rows already known to be
        equal-width tuples of field elements (same shape rule)."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "nrows", len(rows))
        object.__setattr__(m, "ncols", len(rows[0]) if rows
                           else (0 if ncols is None else ncols))
        object.__setattr__(m, "rows", rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, tuple(tuple(1 if i == j else 0 for j in range(n))
                                for i in range(n)))

    # -- basic ops -------------------------------------------------------

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix._trusted(self.field,
                               tuple(zip(*self.rows)) if self.rows else (),
                               ncols=self.nrows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}")
        f = self.field
        ocols = other.transpose().rows
        return Matrix._trusted(f, tuple(tuple(f.dot(r, c) for c in ocols)
                                        for r in self.rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shape mismatch in addition")
        return Matrix._trusted(self.field,
                               tuple(tuple(a ^ b for a, b in zip(r1, r2))
                                     for r1, r2 in zip(self.rows, other.rows)))

    def scale(self, c: int) -> "Matrix":
        f = self.field
        f.check(c)
        return Matrix._trusted(f, tuple(tuple(f.mul(c, a) for a in r)
                                        for r in self.rows))

    def apply(self, v: Sequence[int]) -> Vector:
        """Matrix-vector product A v."""
        if len(v) != self.ncols:
            raise DimensionMismatch(f"expected length {self.ncols}, got {len(v)}")
        f = self.field
        return tuple(f.dot(r, v) for r in self.rows)

    def left_apply(self, v: Sequence[int]) -> Vector:
        """Vector-matrix product v A."""
        if len(v) != self.nrows:
            raise DimensionMismatch(f"expected length {self.nrows}, got {len(v)}")
        f = self.field
        return tuple(f.dot(v, col) for col in zip(*self.rows))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or (self.nrows and other.nrows
                                         and self.ncols != other.ncols):
            raise DimensionMismatch("vstack shape mismatch")
        width = self.ncols if self.nrows else other.ncols
        return Matrix._trusted(self.field, self.rows + other.rows, ncols=width)

    def drop_columns(self, positions: Iterable[int]) -> "Matrix":
        drop = set(positions)
        keep = [j for j in range(self.ncols) if j not in drop]
        return Matrix._trusted(self.field,
                               tuple(tuple(r[j] for j in keep)
                                     for r in self.rows),
                               ncols=len(keep))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows
                and self.ncols == other.ncols)

    def __hash__(self) -> int:
        return hash((self.field, self.nrows, self.ncols, self.rows))

    def __reduce__(self):
        # __slots__ plus the immutability guard break the default pickle
        # path, and worker pools need to ship matrices across processes.
        return (Matrix, (self.field, self.rows, self.ncols))

    def __repr__(self) -> str:
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "field_degree": self.field.degree,
            "rows": self.nrows,
            "cols": self.ncols,
            "entries": [a for row in self.rows for a in row],
        }


# -- packed GF(2) rows ------------------------------------------------------

def pack_bits(bits: Sequence[int]) -> int:
    """Pack a 0/1 sequence into an int, bit i = bits[i]."""
    acc = 0
    for i, b in enumerate(bits):
        if b:
            acc |= 1 << i
    return acc


def unpack_bits(x: int, n: int) -> tuple:
    return tuple((x >> i) & 1 for i in range(n))


def pack_rows(m: Matrix) -> list[int]:
    """The rows of a binary matrix as packed ints."""
    return [pack_bits(r) for r in m.rows]


def gf2_eliminate(rows: list[int], pivots: list[int], new: Iterable[int],
                  ncols: int) -> list[int]:
    """Eliminate packed rows into a reduced echelon form, in place.

    (rows, pivots) must already be reduced: row i has its lowest set bit
    at column pivots[i], and that bit is clear in every other row.  Bits
    at ncols and above ride along (an augmented right-hand side) but are
    never pivots.  Each new row is reduced against the pivots; a nonzero
    remainder joins with its lowest bit as pivot and is cleared from the
    older rows.  This yields the lowest-index-pivot reduced form of the
    stacked system, its rows in insertion order rather than pivot order.
    Returns the remainders of the dependent rows (their coefficient bits
    are zero; any bits left above ncols mean an inconsistent system).
    """
    coeff_mask = (1 << ncols) - 1
    dependent = []
    for r in new:
        for row, p in zip(rows, pivots):
            if r >> p & 1:
                r ^= row
        coeffs = r & coeff_mask
        if not coeffs:
            dependent.append(r)
            continue
        bit = coeffs & -coeffs
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row ^ r
        rows.append(r)
        pivots.append(bit.bit_length() - 1)
    return dependent


def gf2_rank(rows: Sequence[int]) -> int:
    """Rank of packed GF(2) rows."""
    width = max((r.bit_length() for r in rows), default=0)
    red: list[int] = []
    pivots: list[int] = []
    gf2_eliminate(red, pivots, rows, width)
    return len(pivots)


class GF2Coset:
    """The solutions of a reduced packed system, ready for sampling.

    rows/pivots come from gf2_eliminate over a consistent system whose
    right-hand sides sit above bit ncols.  sample(select, rng) takes the
    right-hand side of each row as the parity of its high bits masked by
    select, so one elimination serves every right-hand side that is a
    fixed linear function of select.
    """

    __slots__ = ("ncols", "rows", "pivots", "free")

    def __init__(self, rows: Sequence[int], pivots: Sequence[int], ncols: int):
        self.ncols = ncols
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)
        taken = set(pivots)
        self.free = tuple(j for j in range(ncols) if j not in taken)

    def sample(self, select: int, rng: np.random.Generator) -> int:
        """Particular solution (free variables zero) plus a uniform kernel
        element; the kernel coefficients are one rng draw, one per free
        column in ascending order, made only when the kernel is nonzero."""
        x = 0
        if self.free:
            coeffs = rng.integers(0, 2, size=len(self.free)).tolist()
            for c, j in zip(coeffs, self.free):
                if c:
                    x |= 1 << j
        # Pivot bit = its row's right-hand side plus the row's entries at
        # the chosen free columns, i.e. the parity of row & mask.
        mask = x | (select << self.ncols)
        for row, p in zip(self.rows, self.pivots):
            x |= ((row & mask).bit_count() & 1) << p
        return x


# -- row reduction -----------------------------------------------------------

def _rref_dense(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Dense reduced row echelon form over any GF(2^e), same pivot rule."""
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
        rows[pr] = [f.mul(inv, a) for a in rows[pr]]
        for i in range(len(rows)):
            if i != pr and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a ^ f.mul(c, b) for a, b in zip(rows[i], rows[pr])]
        pivots.append(col)
        pr += 1
        if pr == len(rows):
            break
    return (Matrix._trusted(f, tuple(tuple(r) for r in rows), ncols=m.ncols),
            tuple(pivots))


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with lowest-index pivot selection.

    Returns (reduced matrix, pivot column indices).  Deterministic: for
    each column, the first not-yet-used row with a nonzero entry becomes
    the pivot row; pivot rows come first in pivot order, zero rows last.
    """
    if m.field.degree != 1:
        return _rref_dense(m)
    n = m.ncols
    red: list[int] = []
    pivots: list[int] = []
    gf2_eliminate(red, pivots, pack_rows(m), n)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    rows = (tuple(unpack_bits(red[i], n) for i in order)
            + ((0,) * n,) * (m.nrows - len(red)))
    return (Matrix._trusted(m.field, rows, ncols=n),
            tuple(pivots[i] for i in order))


def rank(m: Matrix) -> int:
    if m.field.degree != 1:
        return len(_rref_dense(m)[1])
    return gf2_rank(pack_rows(m))


def rank_and_kernel(m: Matrix) -> tuple[int, tuple[Vector, ...]]:
    """Rank and a deterministic kernel basis of {v : M v = 0}.

    One basis vector per free column, in ascending free-column order: the
    vector has 1 at its free column and the matching reduced-form entry at
    each pivot column (char 2, so no sign fix-up).
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        v = [0] * m.ncols
        v[free] = 1
        for i, p in enumerate(pivots):
            v[p] = red.rows[i][free]
        basis.append(tuple(v))
    return len(pivots), tuple(basis)


def row_span_basis(field: Field, rows: Iterable[Sequence[int]]) -> tuple[Vector, ...]:
    """Reduced basis (nonzero RREF rows) of the span of the given rows."""
    m = Matrix(field, tuple(tuple(r) for r in rows))
    if m.nrows == 0:
        return ()
    red, pivots = rref(m)
    return red.rows[: len(pivots)]


def solve_affine(m: Matrix, b: Sequence[int], rng: np.random.Generator) -> Vector:
    """A uniform sample from {v : M v = b}.

    Raises DimensionMismatch when b has the wrong length and
    InconsistentSystem when the system has no solution.  Sampling is the
    deterministic particular solution (free variables zero) plus a
    uniformly random kernel combination drawn from rng, which makes the
    output uniform over the full solution coset.
    """
    if len(b) != m.nrows:
        raise DimensionMismatch(f"expected length {m.nrows}, got {len(b)}")
    f = m.field
    n = m.ncols
    if f.degree == 1:
        aug = [r | f.check(bi) << n for r, bi in zip(pack_rows(m), b)]
        red: list[int] = []
        pivots: list[int] = []
        if any(gf2_eliminate(red, pivots, aug, n)):
            raise InconsistentSystem("no solution: contradictory row")
        return unpack_bits(GF2Coset(red, pivots, n).sample(1, rng), n)
    particular = [0] * n
    if m.nrows:
        aug = Matrix(f, tuple(row + (f.check(bi),)
                              for row, bi in zip(m.rows, b)))
        red_m, pivots = _rref_dense(aug)
        if n in pivots:
            raise InconsistentSystem("no solution: contradictory row")
        for i, p in enumerate(pivots):
            particular[p] = red_m.rows[i][n]
    _, kernel = rank_and_kernel(m)
    if kernel:
        coeffs = rng.integers(0, f.order, size=len(kernel))
        for c, kv in zip(coeffs, kernel):
            c = int(c)
            if c:
                for i, a in enumerate(kv):
                    particular[i] ^= f.mul(c, a)
    return tuple(particular)


def solve_columns(m: Matrix, target: Matrix,
                  rng: np.random.Generator) -> Matrix:
    """A uniform sample from {X : M X = target}: solve_affine on each
    column of target, left to right."""
    cols = [solve_affine(m, target.column(j), rng)
            for j in range(target.ncols)]
    return Matrix._trusted(m.field, tuple(zip(*cols)), ncols=target.ncols)


# -- random matrices ---------------------------------------------------------

def random_matrix(field: Field, nrows: int, ncols: int,
                  rng: np.random.Generator) -> Matrix:
    """A uniform nrows x ncols matrix: one rng.integers call per row, in
    row order."""
    return Matrix._trusted(field, tuple(
        tuple(rng.integers(0, field.order, size=ncols).tolist())
        for _ in range(nrows)), ncols=ncols)


def full_rank_matrix(field: Field, nrows: int, ncols: int,
                     rng: np.random.Generator) -> Matrix:
    """A uniform nrows x ncols matrix of rank nrows: random_matrix drawn
    again until the rank is full."""
    while True:
        m = random_matrix(field, nrows, ncols, rng)
        if rank(m) == nrows:
            return m


# -- codeword enumeration over packed words ---------------------------------

@functools.cache
def _popcount_table() -> np.ndarray:
    import numpy as np
    table = np.zeros(1 << 16, dtype=np.uint8)
    for i in range(16):
        step = 1 << i
        table[step: 2 * step] = table[:step] + 1
    table.setflags(write=False)
    return table


def to_limbs(x: int, limbs: int) -> np.ndarray:
    """A packed int as an int64 array of `limbs` 63-bit limbs."""
    import numpy as np
    mask = (1 << LIMB_BITS) - 1
    return np.array([(x >> (LIMB_BITS * j)) & mask for j in range(limbs)],
                    dtype=np.int64)


def span_words(rows: Sequence[int], width: int) -> np.ndarray:
    """Every GF(2) combination of packed rows of `width` bits.

    Returns an int64 array of shape (2^len(rows), limbs); word j is the
    sum of the rows whose bit is set in j (built by doubling, so this is
    also the message-counting order of iter_codewords).
    """
    import numpy as np
    limbs = max(1, -(-width // LIMB_BITS))
    words = np.zeros((1 << len(rows), limbs), dtype=np.int64)
    for i, r in enumerate(rows):
        step = 1 << i
        np.bitwise_xor(words[:step], to_limbs(r, limbs),
                       out=words[step: 2 * step])
    return words


def popcount(a: np.ndarray, width: int = LIMB_BITS) -> np.ndarray:
    """Bit count of each element of a non-negative int64 array, as uint8.

    The elements must be below 2^width; they are counted 16 bits at a
    time through one lookup table.
    """
    table = _popcount_table()
    counts = table[a & 0xFFFF]
    for shift in range(16, min(width, LIMB_BITS), 16):
        counts += table[(a >> shift) & 0xFFFF]
    return counts


def weights(words: np.ndarray, width: int) -> np.ndarray:
    """Hamming weight of each packed word of `width` bits (limbs on the
    last axis), as uint8 for single-limb words."""
    import numpy as np
    counts = popcount(words, width)
    if words.shape[-1] == 1:
        return counts[..., 0]
    return counts.sum(axis=-1, dtype=np.int64)


def gf2_apply(rows: Sequence[int], words: np.ndarray, width: int) -> np.ndarray:
    """Packed matrix-vector products, one per word of `width` bits.

    Bit i of out[j] is parity(rows[i] & words[j]); words has shape
    (N, limbs) as from span_words, and out holds N int64 values.
    """
    import numpy as np
    limbs = words.shape[-1]
    masks = np.stack([to_limbs(int(r), limbs) for r in rows])
    parity = weights(words[:, None, :] & masks[None, :, :], width) & 1
    shifts = np.arange(len(rows), dtype=np.int64)
    return (parity.astype(np.int64) << shifts).sum(axis=-1)
