"""Linear algebra over GF(2^e) on one packed row layer.

Matrices are immutable, carry their field and store packed rows: a row
over GF(2^e) is one Python int whose bits e j .. e j + e - 1 hold the
symbol in column j, so over GF(2) bit j is the entry in column j.  The
tuple rows are unpacked only on demand (`rows`).  Row reduction uses
lowest-index pivot selection so every reduced form, rank, kernel basis,
and sampled solution is reproducible bit for bit.

Every row operation runs on packed rows.  Addition is XOR; `scale`
multiplies every symbol by one field element with at most e masked
shifts, `product` multiplies two words symbol by symbol, `dot` sums that
product and `weight` counts nonzero symbols; a matrix product sums the
rows of the right factor scaled by the symbols of each row of the left
one, and `span` lists every combination of packed rows in message
order.  One elimination loop (`eliminate`) serves every field: `rref`,
`rank`, `rank_and_kernel` and `solve_columns` all reduce through it,
and one sampler (`Coset`) draws the uniform solutions, so one
elimination can serve many right-hand sides.  `random_matrix` and
`full_rank_matrix` are the one way to draw a matrix and to draw one of
full row rank.

Only the ML decoder's codeword enumeration uses numpy: `span_words`
lists every combination of packed rows as int64 words (63 bits to a
limb, limbs on the last axis), `weights` counts their bits through a
16-bit table, and `NearestSpanWord` finds the word nearest a received
one in scratch arrays allocated once.  The limb layout stays inside this
module.  numpy and the table load on first use, so importing this module
does not import numpy.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Iterable, Sequence

from .gf import Field

if TYPE_CHECKING:
    import numpy as np

    from .channels import Stream

LIMB_BITS = 63  # bits of a packed word per int64 limb (the sign bit stays 0)


class DimensionMismatch(ValueError):
    pass


class InconsistentSystem(ValueError):
    pass


class Matrix:
    """Immutable matrix over a GF(2^e) field, stored as packed rows."""

    __slots__ = ("field", "nrows", "ncols", "packed")

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
        object.__setattr__(self, "packed", tuple(pack(field, r) for r in rows))

    @classmethod
    def from_packed(cls, field: Field, packed: Iterable[int],
                    ncols: int) -> "Matrix":
        """The matrix whose rows are the packed words, taken unchecked:
        each must hold at most ncols symbols of the field."""
        m = object.__new__(cls)
        packed = tuple(packed)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "nrows", len(packed))
        object.__setattr__(m, "ncols", ncols)
        object.__setattr__(m, "packed", packed)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        e = field.degree
        return cls.from_packed(field, (1 << e * i for i in range(n)), n)

    # -- basic ops -------------------------------------------------------

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The rows as tuples of field elements (unpacked on each read)."""
        return tuple(unpack(self.field, x, self.ncols) for x in self.packed)

    def transpose(self) -> "Matrix":
        """The transpose: its row j is column j of self, packed (symbol i
        is the symbol of row i at column j)."""
        f, e, mask = self.field, self.field.degree, self.field.order - 1
        return Matrix.from_packed(f, (
            sum((x >> e * j & mask) << e * i for i, x in enumerate(self.packed))
            for j in range(self.ncols)), self.nrows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}")
        f, e, mask = self.field, self.field.degree, self.field.order - 1
        rows = []
        for word in self.packed:
            # the rows of other scaled by the symbols of word, summed
            acc = 0
            for i, row in enumerate(other.packed):
                a = word >> e * i & mask
                if a:
                    acc ^= scale(f, row, a)
            rows.append(acc)
        return Matrix.from_packed(f, rows, other.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shape mismatch in addition")
        return Matrix.from_packed(self.field, map(int.__xor__, self.packed,
                                                  other.packed), self.ncols)

    def scale(self, c: int) -> "Matrix":
        f = self.field
        f.check(c)
        return Matrix.from_packed(f, (scale(f, x, c) for x in self.packed),
                                  self.ncols)

    def drop_columns(self, positions: Iterable[int]) -> "Matrix":
        drop = set(positions)
        cols = self.transpose().packed
        return Matrix.from_packed(self.field, (
            x for j, x in enumerate(cols) if j not in drop),
            self.nrows).transpose()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.packed == other.packed
                and self.ncols == other.ncols)

    def __hash__(self) -> int:
        return hash((self.field, self.ncols, self.packed))

    def __reduce__(self):
        # __slots__ plus the immutability guard break the default pickle
        # path; a pickled Matrix rebuilds from its packed rows.
        return (Matrix.from_packed, (self.field, self.packed, self.ncols))

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


# -- packed rows -------------------------------------------------------------

def pack(field: Field, row: Sequence[int]) -> int:
    """Pack symbols into one int: symbol j in bits e j .. e j + e - 1."""
    e = field.degree
    acc = 0
    for j, a in enumerate(row):
        if a:
            acc |= a << e * j
    return acc


def unpack(field: Field, x: int, n: int) -> tuple:
    """The first n symbols of a packed int."""
    e, mask = field.degree, field.order - 1
    return tuple([x >> s & mask for s in range(0, e * n, e)])


def _low_bits(e: int, bits: int) -> int:
    """Bit e j set for every symbol j of a word `bits` bits long."""
    width = -(-bits // e) * e
    return ((1 << width) - 1) // ((1 << e) - 1)


def scale(field: Field, x: int, c: int) -> int:
    """Every symbol of packed x times the field element c (x for c = 1).

    The sum of x times x^t over the set bits t of c.  Multiplying every
    symbol by x is one masked shift: each symbol's top bit is cleared
    before the shift and, where it was set, x^e reduced by the modulus is
    added back into that symbol.
    """
    if c == 1:
        return x
    e = field.degree
    low = _low_bits(e, x.bit_length())
    top, spill = low << e - 1, field.poly ^ field.order
    acc = 0
    while True:
        if c & 1:
            acc ^= x
        c >>= 1
        if not c:
            return acc
        x = ((x & ~top) << 1) ^ ((x & top) >> e - 1) * spill


def product(field: Field, a: int, b: int) -> int:
    """Symbol-wise product of two packed words (a & b over GF(2)): bit
    plane t of b selects the symbols of a times x^t."""
    e, q = field.degree, field.order
    low = _low_bits(e, max(a.bit_length(), b.bit_length()))
    acc = 0
    for t in range(e):
        acc ^= scale(field, a, 1 << t) & (b >> t & low) * (q - 1)
    return acc


def dot(field: Field, a: int, b: int) -> int:
    """Inner product of two packed words: the sum of their symbols'
    products, taken one bit plane at a time as a parity."""
    e = field.degree
    if e == 1:
        return (a & b).bit_count() & 1
    x = product(field, a, b)
    low = _low_bits(e, x.bit_length())
    acc = 0
    for t in range(e):
        acc |= ((x >> t & low).bit_count() & 1) << t
    return acc


def weight(field: Field, x: int) -> int:
    """Number of nonzero symbols of a packed word: each symbol's bits
    folded onto its lowest bit, then counted."""
    e = field.degree
    if e == 1:
        return x.bit_count()
    folded = x
    for t in range(1, e):
        folded |= x >> t
    return (folded & _low_bits(e, x.bit_length())).bit_count()


def span(field: Field, rows: Sequence[int]) -> list[int]:
    """Every combination of packed rows, q^len(rows) words in message
    order: word j sums each row i times the field element that is digit
    i of j in base q, so over GF(2) it adds the rows set in j, as in
    span_words."""
    words = [0]
    for row in rows:
        multiples = [scale(field, row, c) for c in range(1, field.order)]
        words += [w ^ m for m in multiples for w in words]
    return words


def eliminate(field: Field, rows: list[int], pivots: list[int],
              new: Iterable[int], ncols: int) -> list[int]:
    """Eliminate packed rows into a reduced echelon form, in place.

    (rows, pivots) must already be reduced: row i has its lowest nonzero
    symbol, equal to 1, at column pivots[i], and that symbol is zero in
    every other row.  Symbols at ncols and above ride along (augmented
    right-hand sides) but are never pivots.  Each new row is reduced
    against the pivots; a nonzero remainder is scaled to lead with 1,
    joins with its lowest nonzero symbol as pivot and is cleared from
    the older rows.  This yields the lowest-index-pivot reduced form of
    the stacked system, its rows in insertion order rather than pivot
    order.  Returns the remainders of the dependent rows (their
    coefficient symbols are zero; any symbol left above ncols means an
    inconsistent system).
    """
    e, mask = field.degree, field.order - 1
    coeff_mask = (1 << e * ncols) - 1
    dependent = []
    for r in new:
        for row, p in zip(rows, pivots):
            a = r >> e * p & mask
            if a:
                r ^= row if a == 1 else scale(field, row, a)
        coeffs = r & coeff_mask
        if not coeffs:
            dependent.append(r)
            continue
        p = ((coeffs & -coeffs).bit_length() - 1) // e
        lead = r >> e * p & mask
        if lead != 1:
            r = scale(field, r, field.inv(lead))
        for i, row in enumerate(rows):
            a = row >> e * p & mask
            if a:
                rows[i] = row ^ (r if a == 1 else scale(field, r, a))
        rows.append(r)
        pivots.append(p)
    return dependent


class Coset:
    """The solutions of a reduced packed system, ready for sampling.

    rows/pivots come from eliminate over a consistent system whose
    right-hand sides sit at symbols ncols and above.  sample(select, rng)
    takes the right-hand side of each row as the inner product of those
    symbols with the packed select, so one elimination serves every
    right-hand side that is a fixed linear function of select.
    """

    __slots__ = ("field", "ncols", "rows", "pivots", "free")

    def __init__(self, field: Field, rows: Sequence[int],
                 pivots: Sequence[int], ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)
        taken = set(pivots)
        self.free = tuple(j for j in range(ncols) if j not in taken)

    def sample(self, select: int, rng: Stream) -> int:
        """Particular solution (free variables zero) plus a uniform kernel
        element; the kernel coefficients are one rng draw, one per free
        column in ascending order, made only when the kernel is nonzero."""
        f = self.field
        e = f.degree
        x = 0
        if self.free:
            coeffs = rng.integers(0, f.order, size=len(self.free))
            for c, j in zip(coeffs, self.free):
                x |= c << e * j
        # Pivot symbol = its row's right-hand side plus the row's entries
        # at the free columns times their values: the row's inner product
        # with mask, where the pivots themselves are still zero.
        mask = x | select << e * self.ncols
        for row, p in zip(self.rows, self.pivots):
            x |= dot(f, row, mask) << e * p
        return x


# -- row reduction -----------------------------------------------------------

def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with lowest-index pivot selection.

    Returns (reduced matrix, pivot column indices).  Deterministic: for
    each column, the first not-yet-used row with a nonzero entry becomes
    the pivot row; pivot rows come first in pivot order, zero rows last.
    """
    rows: list[int] = []
    pivots: list[int] = []
    eliminate(m.field, rows, pivots, m.packed, m.ncols)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    red = [rows[i] for i in order] + [0] * (m.nrows - len(rows))
    return (Matrix.from_packed(m.field, red, m.ncols),
            tuple(pivots[i] for i in order))


def rank(m: Matrix) -> int:
    pivots: list[int] = []
    eliminate(m.field, [], pivots, m.packed, m.ncols)
    return len(pivots)


def rank_and_kernel(m: Matrix) -> tuple[int, Matrix]:
    """Rank and a deterministic kernel basis of {v : M v = 0}, as the rows
    of a matrix.

    One basis vector per free column, in ascending free-column order: the
    vector has 1 at its free column and the matching reduced-form entry at
    each pivot column (char 2, so no sign fix-up).
    """
    red, pivots = rref(m)
    e, mask = m.field.degree, m.field.order - 1
    basis = []
    for free in range(m.ncols):
        if free in pivots:
            continue
        v = 1 << e * free
        for row, p in zip(red.packed, pivots):
            v |= (row >> e * free & mask) << e * p
        basis.append(v)
    return len(pivots), Matrix.from_packed(m.field, basis, m.ncols)


def solve_columns(m: Matrix, target: Matrix,
                  rng: Stream) -> Matrix:
    """A uniform sample from {X : M X = target}, one column of target at
    a time, left to right, from one elimination.

    The rows of M and target are packed side by side, so target column j
    rides at symbol ncols + j and coset.sample with that symbol selected
    draws its solution: the particular solution (free variables zero)
    plus a uniform kernel combination, one rng draw a column.  Raises
    InconsistentSystem at the first column that a dependent row keeps a
    nonzero symbol of, after drawing the columns before it.
    """
    if target.nrows != m.nrows:
        raise DimensionMismatch(f"expected {m.nrows} rows, got {target.nrows}")
    f, n, e = m.field, m.ncols, m.field.degree
    rows: list[int] = []
    pivots: list[int] = []
    dependent = eliminate(f, rows, pivots, [
        r | t << e * n for r, t in zip(m.packed, target.packed)], n)
    coset = Coset(f, rows, pivots, n)
    cols = []
    for j in range(target.ncols):
        if any(d >> e * (n + j) & f.order - 1 for d in dependent):
            raise InconsistentSystem("no solution: contradictory row")
        cols.append(coset.sample(1 << e * j, rng))
    return Matrix.from_packed(f, cols, n).transpose()


# -- random matrices ---------------------------------------------------------

def random_matrix(field: Field, nrows: int, ncols: int,
                  rng: Stream) -> Matrix:
    """A uniform nrows x ncols matrix: one rng.integers call per row, in
    row order."""
    return Matrix.from_packed(field, [
        pack(field, rng.integers(0, field.order, size=ncols))
        for _ in range(nrows)], ncols)


def full_rank_matrix(field: Field, nrows: int, ncols: int,
                     rng: Stream) -> Matrix:
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


def weights(words: np.ndarray, width: int) -> np.ndarray:
    """Hamming weight of each packed word of `width` bits (limbs on the
    last axis), counted 16 bits at a time through one lookup table, as
    uint8 for single-limb words."""
    import numpy as np
    table = _popcount_table()
    counts = table[words & 0xFFFF]
    for shift in range(16, min(width, LIMB_BITS), 16):
        counts += table[(words >> shift) & 0xFFFF]
    if words.shape[-1] == 1:
        return counts[..., 0]
    return counts.sum(axis=-1, dtype=np.int64)


class NearestSpanWord:
    """The unique span word nearest a received word, over numpy limbs.

    words come from span_words(rows, width).  nearest(mask, target)
    counts, for every word, the bits of mask where it differs from target
    and returns the index of the unique closest word, or None on a tie.
    Every call works in arrays allocated here, once: fresh temporaries of
    half a megabyte per call cost glibc an mmap and a munmap each.
    """

    __slots__ = ("words", "width", "_diff", "_part", "_counts", "_more",
                 "_sums", "_ties")

    def __init__(self, words: np.ndarray, width: int):
        import numpy as np
        self.words = words
        self.width = width
        self._diff = np.empty_like(words)
        self._part = np.empty_like(words)
        self._counts = np.empty(words.shape, dtype=np.uint8)
        self._more = np.empty(words.shape, dtype=np.uint8)
        # per-word sums of the limbs' counts, when there is more than one
        self._sums = (np.empty(len(words), dtype=np.int64)
                      if words.shape[1] > 1 else None)
        self._ties = np.empty(len(words), dtype=bool)

    def nearest(self, mask: int, target: int) -> int | None:
        import numpy as np
        table = _popcount_table()
        diff, part, counts, more = (self._diff, self._part, self._counts,
                                    self._more)
        limbs = diff.shape[1]
        np.bitwise_and(self.words, to_limbs(mask, limbs), out=diff)
        np.bitwise_xor(diff, to_limbs(target, limbs), out=diff)
        np.bitwise_and(diff, 0xFFFF, out=part)
        np.take(table, part, out=counts, mode="clip")
        for shift in range(16, min(self.width, LIMB_BITS), 16):
            np.right_shift(diff, shift, out=part)
            np.bitwise_and(part, 0xFFFF, out=part)
            np.take(table, part, out=more, mode="clip")
            np.add(counts, more, out=counts)
        dist = (counts[:, 0] if self._sums is None
                else np.sum(counts, axis=1, dtype=np.int64, out=self._sums))
        best = int(dist.argmin())
        np.equal(dist, dist[best], out=self._ties)
        return None if np.count_nonzero(self._ties) > 1 else best
