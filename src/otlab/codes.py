"""Linear codes over GF(2^e) and the audits the protocols depend on.

A LinearCode wraps a full-row-rank generator matrix and lazily caches the
expensive audits: minimum distance d (exact on packed symbols, without
numpy, by enumeration for codes of at most k n codewords and by the
Brouwer-Zimmermann search otherwise, its q^k codewords gated by
`check_budget`), the componentwise-product span ("square") of the code,
and the square's distance d-hat.  The square governs how much an
adversarial request mask can correlate rounds, so d and d-hat together
are the security dial the outer protocols read.

Also here: puncturing, the inductive construction of an orthonormal row
basis (self-orthogonal rows scaled to unit self-product, puncturing at
most one position per row), Reed-Solomon style evaluation codes at genus
zero, and samplers for the dual of the square.
"""

from __future__ import annotations

from functools import partial
from typing import (TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional,
                    Sequence)

from .gf import GF, Field
from .linalg import (Coset, Matrix, dot, eliminate, full_rank_matrix, product,
                     rank, rank_and_kernel, rref, scale, span, unpack, weight)

if TYPE_CHECKING:
    from .channels import Stream

DEFAULT_ENUM_LIMIT = 1 << 24


class EnumerationLimit(RuntimeError):
    """Raised when an enumeration would exceed its budget or a cap.

    A budget can be raised (the commands' --enum-limit); a cap cannot.
    """


def check_budget(count: int, limit: int, what: str) -> None:
    """The one budget rule: every enumeration of the package states its
    work as one count, described by `what`, and calls this before any
    work; a count above the limit raises EnumerationLimit."""
    if count > limit:
        raise EnumerationLimit(
            f"{what} exceed the enumeration budget {limit}; "
            "raise the limit (--enum-limit)")


class LinearCode:
    """An [n, k] linear code given by a full-row-rank generator matrix."""

    def __init__(self, generator: Matrix):
        k, n = generator.nrows, generator.ncols
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if rank(generator) != k:
            raise ValueError("generator must have full row rank")
        self._generator = generator
        self._min_distance: Optional[int] = None
        self._square: Optional["LinearCode"] = None

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Sequence[int]]) -> "LinearCode":
        return cls(Matrix(field, tuple(tuple(r) for r in rows)))

    @property
    def field(self) -> Field:
        return self._generator.field

    @property
    def length(self) -> int:
        return self._generator.ncols

    @property
    def dimension(self) -> int:
        return self._generator.nrows

    @property
    def generator(self) -> Matrix:
        return self._generator

    def __repr__(self) -> str:
        return f"LinearCode([{self.length},{self.dimension}] over {self.field})"

    def iter_codewords(self, limit: int = DEFAULT_ENUM_LIMIT):
        """Yield every codeword once (tuples), cheapest-change order."""
        q, k = self.field.order, self.dimension
        check_budget(q ** k, limit, f"{q}^{k} codewords")
        f, n = self.field, self.length
        rows = self._generator.packed
        word = 0
        digits = [0] * k
        yield unpack(f, word, n)
        for _ in range(q ** k - 1):
            pos = 0
            while True:
                old = digits[pos]
                new = (old + 1) % q
                digits[pos] = new
                word ^= scale(f, rows[pos], old ^ new)
                if new != 0:
                    break
                pos += 1
            yield unpack(f, word, n)

    def min_distance(self, limit: int = DEFAULT_ENUM_LIMIT) -> int:
        """Exact minimum distance, for every field (cached).

        The whole space (k = n) has distance 1.  A code whose q^k
        codewords number at most k n, the cost of one information set's
        elimination, is enumerated: every combination of the packed
        generator rows, the lightest nonzero one wins.  Any other code
        takes the Brouwer-Zimmermann search (`_distance`), which walks
        codewords of growing message weight over a few systematic
        generators with disjoint new pivots and stops as soon as the
        lower bound those generators give meets the lightest word found.
        Raises EnumerationLimit when q^k exceeds the budget, on every
        side.
        """
        if self._min_distance is not None:
            return self._min_distance
        f, k, n = self.field, self.dimension, self.length
        q = f.order
        check_budget(q ** k, limit, f"{q}^{k} codewords")
        if k == n:
            best = 1  # the whole space holds every unit vector
        elif q ** k <= k * n:
            best = min(weight(f, w) for w in span(f, self._generator.packed)
                       if w)
        else:
            best = _distance(self._generator)
        self._min_distance = best
        return best

    def schur_square(self) -> "LinearCode":
        """The span of all componentwise products of codeword pairs (cached).

        Computed from the generator: products of generator-row pairs
        (i <= j) span the same space by bilinearity, and the result is
        row-reduced to a canonical basis.
        """
        if self._square is not None:
            return self._square
        f, n = self.field, self.length
        rows = self._generator.packed
        prods = [product(f, rows[i], rows[j])
                 for i in range(len(rows)) for j in range(i, len(rows))]
        red, pivots = rref(Matrix.from_packed(f, prods, n))
        self._square = LinearCode(
            Matrix.from_packed(f, red.packed[:len(pivots)], n))
        return self._square

    def square_distance(self, limit: int = DEFAULT_ENUM_LIMIT) -> int:
        return self.schur_square().min_distance(limit)

    def dual_basis(self) -> Matrix:
        """Deterministic basis of the dual code {v : G v = 0}, as rows."""
        _, kernel = rank_and_kernel(self._generator)
        return kernel

    def audit(self, limit: int = DEFAULT_ENUM_LIMIT) -> "CodeAudit":
        sq = self.schur_square()
        return CodeAudit(d=self.min_distance(limit),
                         d_hat=sq.min_distance(limit),
                         square_dim=sq.dimension)

    def _adopt_distance(self, d: int) -> None:
        """Install a distance known exactly by construction (write-once)."""
        if self._min_distance is None:
            self._min_distance = d


# -- minimum distance ----------------------------------------------------------

def _information_sets(generator: Matrix) -> Iterator[tuple[int, list[int]]]:
    """Systematic generators of one code whose new pivots are disjoint.

    Each elimination runs on the columns reordered with the ones no
    earlier set pivoted on first, so its pivots take as many fresh columns
    as the rank of those columns allows; the fresh pivots count as the
    set's `new`.  The reduced rows stay packed and in the reordered
    coordinates, which changes no weight.  Yields (new, packed reduced
    rows) per set, up to the first elimination that adds no fresh pivot.
    """
    f, k, n = generator.field, generator.nrows, generator.ncols
    columns = generator.transpose().packed
    used: set[int] = set()
    while len(used) < n:
        unused = [j for j in range(n) if j not in used]
        reordered = Matrix.from_packed(f, [
            columns[j] for j in unused + sorted(used)], k).transpose()
        rows: list[int] = []
        pivots: list[int] = []
        eliminate(f, rows, pivots, reordered.packed, n)
        fresh = [unused[p] for p in pivots if p < len(unused)]
        if not fresh:
            return
        used.update(fresh)
        yield len(fresh), rows


def _distance(generator: Matrix) -> int:
    """Minimum weight of the nonzero words of a k < n code: the
    Brouwer-Zimmermann search (K.-H. Zimmermann 1996; M. Grassl,
    "Searching for linear codes with large minimum distance", 2006).

    Words are packed rows (see linalg), so field addition is XOR and the
    weight is linalg.weight.  For w = 1, 2, ... each systematic generator
    enumerates its words of message weight w with the first coefficient
    1 (scaling keeps the weight), as XORs of the rows' precomputed
    multiples.  Every generator walks every level from 1: a word missed
    after level w then has message weight above w under each generator,
    hence at least w + 1 - (k - new) nonzero symbols on that generator's
    fresh pivots.  Those columns are disjoint, so the sum over generators
    bounds its weight, and the search stops once that bound reaches the
    lightest word found.
    """
    f = generator.field
    k, n = generator.nrows, generator.ncols
    count = partial(weight, f)

    def prepare(new: int, rows: list[int]) -> tuple:
        # every nonzero multiple of each row, the row itself (c = 1) first
        mults = [[scale(f, row, c) for c in range(1, f.order)]
                 for row in rows]
        # tails[s]: every multiple of rows s.. k-1, for the last coefficient
        tails = [[m for ms in mults[s:] for m in ms] for s in range(k + 1)]
        return new, mults, tails

    def lightest(mults: list, tails: list, w: int) -> int:
        def walk(word: int, start: int, left: int) -> int:
            if left == 0:
                return count(word)
            if left == 1:
                return min(map(count, map(word.__xor__, tails[start])))
            return min(walk(word ^ m, j + 1, left - 1)
                       for j in range(start, k - left + 1) for m in mults[j])
        return min(walk(mults[i][0], i + 1, w - 1) for i in range(k - w + 1))

    searches = [prepare(*s) for s in _information_sets(generator)]
    best = n
    for w in range(1, k + 1):
        for _, mults, tails in searches:
            best = min(best, lightest(mults, tails, w))
        if sum(max(0, w + 1 - (k - new)) for new, _, _ in searches) >= best:
            break
    return best


class CodeAudit(NamedTuple):
    d: int
    d_hat: int
    square_dim: int


def puncture(code: LinearCode, positions: Iterable[int],
             limit: int = DEFAULT_ENUM_LIMIT) -> LinearCode:
    """Delete the given coordinates.

    Requires |positions| < d so the projection is injective on the code
    and the dimension is preserved (checked: d is computed if not
    already cached).
    """
    pos = sorted(set(positions))
    n = code.length
    for p in pos:
        if not 0 <= p < n:
            raise ValueError(f"position {p} out of range for length {n}")
    d = code.min_distance(limit)
    if len(pos) >= d:
        raise ValueError(
            f"cannot puncture {len(pos)} positions: minimum distance is {d}")
    return LinearCode(code.generator.drop_columns(pos))


class OrthonormalCode:
    """A code together with a spanning row basis H satisfying H H^T = I."""

    def __init__(self, rows: Matrix):
        f, packed = rows.field, rows.packed
        for i, hi in enumerate(packed):
            for j in range(i, len(packed)):
                if dot(f, hi, packed[j]) != (i == j):
                    raise ValueError("rows are not orthonormal")
        self.rows = rows
        self.base = LinearCode(rows)

    @property
    def field(self) -> Field:
        return self.rows.field

    @property
    def length(self) -> int:
        return self.rows.ncols

    @property
    def dimension(self) -> int:
        return self.rows.nrows

    def __repr__(self) -> str:
        return (f"OrthonormalCode([{self.length},{self.dimension}] "
                f"over {self.field})")


def orthonormalize(code: LinearCode) -> tuple[OrthonormalCode, tuple[int, ...]]:
    """Build an orthonormal spanning basis, puncturing where forced.

    Inductive construction over the reduced generator's rows: each new row
    is made orthogonal to the settled ones via inner products on the
    surviving positions; a zero self-product is repaired by puncturing
    that row's pivot column (the candidate always has a 1 there, and the
    settled rows have 0, so nothing established is disturbed); the row is
    then scaled by the inverse square root of its self-product.  At most
    one position is punctured per row, so at most r = dim(code) in total.
    A minimum distance d > r guarantees a priori that puncturing cannot
    cost dimension; the postcondition (exact orthonormality, which forces
    independence) is checked unconditionally on the result.

    Returns (orthonormal code on the surviving positions, punctured
    positions in the original indexing, ascending).
    """
    f, e, n = code.field, code.field.degree, code.length
    red, pivots = rref(code.generator)
    kept = (1 << e * n) - 1  # the symbols of the surviving positions
    settled: list[int] = []
    for step, cand in enumerate(red.packed[:code.dimension]):
        for h in settled:
            cand ^= scale(f, h, dot(f, cand & kept, h))
        nrm = dot(f, cand & kept, cand)
        if nrm == 0:
            kept &= ~((1 << e) - 1 << e * pivots[step])
            nrm = dot(f, cand & kept, cand)
            if nrm == 0:
                raise AssertionError("pivot puncture failed to fix self-product")
        settled.append(scale(f, cand, f.inv(f.sqrt(nrm))))

    punctured = tuple(j for j in range(n) if not kept >> e * j & 1)
    hmat = Matrix.from_packed(f, settled, n).drop_columns(punctured)
    return OrthonormalCode(hmat), punctured


def rs_code(field: Field, deg_g: int,
            points: Optional[Sequence[int]] = None) -> LinearCode:
    """Evaluation code of polynomials of degree <= deg_g at distinct points.

    Default evaluation points are all q - 1 nonzero field elements in
    discrete-log order.  k = deg_g + 1, and d = n - deg_g exactly (the
    code is MDS), which is installed into the distance cache.
    """
    if points is None:
        points = [field.alpha_power(i) for i in range(field.order - 1)]
    points = [field.check(p) for p in points]
    n = len(points)
    if len(set(points)) != n:
        raise ValueError("evaluation points must be distinct")
    if not 0 <= deg_g < n:
        raise ValueError(f"need 0 <= deg_g < n, got deg_g={deg_g}, n={n}")
    rows = tuple(tuple(field.pow(p, j) for p in points)
                 for j in range(deg_g + 1))
    code = LinearCode(Matrix(field, rows))
    code._adopt_distance(n - deg_g)
    return code


def square_dual_sample(code: LinearCode, rng: Stream) -> int:
    """A uniform element of the dual of the code's square, packed.

    The solutions of G v = 0 for the square's generator G: one elimination
    and one rng draw of a symbol per free column.  Raises ValueError when
    the square is the full space (trivial dual): the request mask would
    then be constant zero and the outer protocol degenerates.
    """
    sq = code.schur_square()
    if sq.dimension == code.length:
        raise ValueError(
            "the square spans the full space; its dual is trivial")
    f, n = code.field, code.length
    rows: list[int] = []
    pivots: list[int] = []
    eliminate(f, rows, pivots, sq.generator.packed, n)
    return Coset(f, rows, pivots, n).sample(0, rng)


def random_code(field: Field, n: int, k: int,
                rng: Stream) -> LinearCode:
    """A uniformly random [n, k] code (full-rank generator by rejection)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return LinearCode(full_rank_matrix(field, k, n, rng))


def cyclic_code(field: Field, n: int, gen_coeffs: Sequence[int]) -> LinearCode:
    """Cyclic code of length n from generator polynomial coefficients.

    gen_coeffs[i] is the coefficient of x^i; the generator matrix rows are
    the first n - deg shifts of the polynomial.  The polynomial must
    divide x^n - 1 is not checked here; rank is.
    """
    coeffs = [field.check(c) for c in gen_coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero generator polynomial")
    deg = len(coeffs) - 1
    if deg >= n:
        raise ValueError("generator polynomial degree must be below n")
    k = n - deg
    rows = []
    for s in range(k):
        row = [0] * n
        for i, c in enumerate(coeffs):
            row[s + i] = c
        rows.append(tuple(row))
    return LinearCode(Matrix(field, tuple(rows)))


def code_to_json(code: LinearCode,
                 audit: Optional[CodeAudit] = None) -> dict:
    obj = {
        "field_degree": code.field.degree,
        "n": code.length,
        "k": code.dimension,
        "generator": [a for row in code.generator.rows for a in row],
    }
    if audit is not None:
        obj["audit"] = {"d": audit.d, "d_hat": audit.d_hat,
                        "square_dim": audit.square_dim}
    return obj


def _integer(key: str, value) -> int:
    """value when it is a JSON integer (an int, not a bool)."""
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def code_from_json(obj: dict) -> tuple[LinearCode, Optional[CodeAudit]]:
    field = GF(_integer("field_degree", obj["field_degree"]))
    n, k = _integer("n", obj["n"]), _integer("k", obj["k"])
    # the file's own n: a k = 0 matrix has no rows to count columns in
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    entries = [_integer("each generator entry", a) for a in obj["generator"]]
    if len(entries) != n * k:
        raise ValueError("generator entry count does not match n*k")
    it = iter(entries)
    rows = tuple(tuple(next(it) for _ in range(n)) for _ in range(k))
    code = LinearCode(Matrix(field, rows))
    audit = None
    if "audit" in obj and obj["audit"] is not None:
        a = obj["audit"]
        audit = CodeAudit(d=_integer("audit d", a["d"]),
                          d_hat=_integer("audit d_hat", a["d_hat"]),
                          square_dim=_integer("audit square_dim",
                                              a["square_dim"]))
    return code, audit
