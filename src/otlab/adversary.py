"""Cheating strategies and the audits that bound them.

Three threat surfaces:

* Alice corrupts pair slots (sends a value and its complement instead of
  a duplicate).  A false pair survives the channel unerased only when
  the two noisy copies happen to agree, probability eps, against 1 - eps
  for an honest pair; each corruption therefore drags the expected
  unerased count down by 1 - 2 eps, and Bob accuses whenever the count
  falls below a threshold placed eta under the honest mean.

* Alice uses the same corruptions as a tracker: erased slots land in
  Bob's unchosen set, so the labels of her corrupt slots leak his
  choice.

* Bob picks an arbitrary request mask u instead of a dual-of-square
  element.  His harvest then collapses to z = U s + V t with
  V_ij = u . (H_i * H_j) and U = I + V, and the compressed variants
  survive because one side of (M_s s, M_t t) stays near-uniform given z
  for every u.  The audit computes each posterior entropy exactly, as a
  difference of GF(2) ranks.

The detection campaigns and the tracker draw in bulk from a numpy
Generator, and only they import numpy; `attack` hands them its seeded
streams through `Stream.numpy_generator()`, so the draws follow from the
same seed derivation as every session's.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from .analysis import (AccusationRule, detection_rule, expected_unerased,
                       wilson_interval)
from .channels import BscParams, Stream
from .codes import (DEFAULT_ENUM_LIMIT, EnumerationLimit, OrthonormalCode,
                    check_budget)
from .gf import GF
from .linalg import Matrix, eliminate, full_rank_matrix, rank
from .proto_outer import cheat_matrix_V, check_mask, compressed_length

if TYPE_CHECKING:
    import numpy as np


# -- detection of corrupted pairs -----------------------------------------


def simulate_unerased_counts(rounds: int, block_len: int, phi: float,
                             corrupted: int, trials: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Unerased-count draws; false pairs survive w.p. eps, honest 1 - eps.

    Slot outcomes are independent, so the count is the sum of two
    binomials; sampling them directly is exact and keeps large campaigns
    cheap.
    """
    eps = BscParams(phi).erasure_rate
    slots = 2 * rounds * block_len
    if not 0 <= corrupted <= slots:
        raise ValueError(f"corrupted must be in 0..{slots}")
    honest = rng.binomial(slots - corrupted, 1.0 - eps, size=trials)
    false = rng.binomial(corrupted, eps, size=trials)
    return honest + false


class DetectionReport(NamedTuple):
    rule: AccusationRule
    corrupted: int
    trials: int
    accusation_rate: float
    mean_unerased: float
    expected_mean: float
    ci_95: tuple[float, float]


def detection_campaign(rounds: int, block_len: int, phi: float,
                       corrupted: int, trials: int, rng: np.random.Generator,
                       c: float = 1.0) -> DetectionReport:
    import numpy as np
    rule = detection_rule(rounds, block_len, phi, c)
    counts = simulate_unerased_counts(rounds, block_len, phi, corrupted,
                                      trials, rng)
    accused = counts < rule.threshold
    return DetectionReport(
        rule=rule, corrupted=corrupted, trials=trials,
        accusation_rate=float(np.mean(accused)),
        mean_unerased=float(np.mean(counts)),
        expected_mean=expected_unerased(rounds, block_len, phi, corrupted),
        ci_95=wilson_interval(int(accused.sum()), trials))


class SweepReport(NamedTuple):
    points: tuple  # one DetectionReport per grid point
    slope: float
    expected_slope: float


def detection_sweep(rounds: int, block_len: int, phi: float,
                    corrupted_grid: Sequence[int], trials: int,
                    rng: np.random.Generator, c: float = 1.0) -> SweepReport:
    """One detection campaign per corruption count, drawn in grid order
    from one stream; the least-squares slope of the mean unerased count
    against the corruption count should sit at -(1 - 2 eps)."""
    import numpy as np
    points = tuple(detection_campaign(rounds, block_len, phi, m, trials,
                                      rng, c) for m in corrupted_grid)
    xs = np.asarray(corrupted_grid, dtype=float)
    means = np.asarray([p.mean_unerased for p in points])
    eps = BscParams(phi).erasure_rate
    return SweepReport(points=points, slope=float(np.polyfit(xs, means, 1)[0]),
                       expected_slope=-(1.0 - 2.0 * eps))


# -- choice tracking by a corrupting Alice ---------------------------------


class AdvantageReport(NamedTuple):
    trials: int
    advantage: float
    std_error: float
    tie_rate: float


# trials per block of the tracker kernel: larger blocks leave the cache and
# raise the process's peak memory, smaller ones pay more numpy calls
TRACKER_BLOCK_ROWS = 512


def tracker_advantage_p0(block_len: int, phi: float, corrupted: int,
                         trials: int, rng: np.random.Generator) -> AdvantageReport:
    """Alice's edge at guessing Bob's choice from corrupt-slot labels.

    She plants `corrupted` false pairs among the 2 n0 slots of one
    session and later sees which announced set each one landed in; the
    erasure-heavy set is the unchosen one, so she guesses against the
    set holding the majority of her corruptions (coin on a tie).
    Vectorized over trials in blocks of TRACKER_BLOCK_ROWS, so memory is
    about one byte per slot plus one block; the first-fit partition
    matches the honest procedure exactly.
    """
    import numpy as np
    slots = 2 * block_len
    if not 0 <= corrupted <= slots:
        raise ValueError(f"corrupted must be in 0..{slots}")
    eps = BscParams(phi).erasure_rate
    honest = slots - corrupted
    # erasure per slot: honest slots (the first `honest`) w.p. eps, corrupt
    # slots (placed last; positions are exchangeable as honest Bob never
    # sees which is which before erasing) w.p. 1 - eps.  Every erasure
    # draw precedes every shuffle key, and row blocks drawn in turn are
    # the rows of one whole draw, so the blocks keep the stream's order.
    cutoff = np.where(np.arange(slots) < honest, eps, 1.0 - eps)
    blocks = [slice(i, i + TRACKER_BLOCK_ROWS)
              for i in range(0, trials, TRACKER_BLOCK_ROWS)]
    erased = np.empty((trials, slots), dtype=bool)
    for b in blocks:
        erased[b] = rng.random(erased[b].shape) < cutoff
    enough = np.empty(trials, dtype=bool)
    corrupt_in_chosen = np.empty(trials, dtype=np.int64)
    row_start = np.arange(TRACKER_BLOCK_ROWS)[:, None] * slots
    for b in blocks:
        # shuffle slot positions per trial so corrupt slots sit anywhere
        perm = np.argsort(rng.random(erased[b].shape), axis=1)
        clean = ~np.take(erased[b], perm + row_start[:len(perm)])
        enough[b] = clean.sum(axis=1) >= block_len
        # chosen set = first block_len clean positions
        order = np.cumsum(clean, axis=1, dtype=np.min_scalar_type(slots))
        in_chosen = clean & (order <= block_len)
        corrupt_in_chosen[b] = (in_chosen & (perm >= honest)).sum(axis=1)
    rest = corrupted - corrupt_in_chosen
    # guess: the set with more corruptions is the unchosen one
    correct = np.where(corrupt_in_chosen < rest, 1.0,
                       np.where(corrupt_in_chosen == rest, 0.5, 0.0))
    correct = correct[enough]
    ties = float(np.mean(corrupt_in_chosen[enough] == rest[enough])) \
        if enough.any() else 0.0
    n = int(enough.sum())
    adv = float(np.mean(correct)) - 0.5 if n else 0.0
    se = float(np.std(correct) / math.sqrt(n)) if n else 0.0
    return AdvantageReport(trials=n, advantage=adv, std_error=se,
                           tie_rate=ties)


# -- cheating Bob against the compressed variants --------------------------


def _full_rank_row_sets(r: int, u_len: int) -> list[tuple]:
    """All full-rank u_len x r binary matrices as packed row tuples."""
    return [rows for rows in itertools.product(range(1, 1 << r),
                                               repeat=u_len)
            if rank(Matrix.from_packed(GF(1), rows, r)) == u_len]


class MaskAudit(NamedTuple):
    """Pair-averaged posterior entropies for one request mask.

    mean_first / mean_second average H(s~|t~,z) and H(t~|s~,z) over the
    compression-pair ensemble (the reveal happens after Bob commits to
    the mask, so the ensemble average is the operative quantity).
    """

    mask: int  # packed, bit i the mask's entry in round i
    rank_v: int
    rank_u: int
    mean_first: float
    mean_second: float

    def predicted_side(self, outer_dim: int) -> str:
        """Low-rank V starves z of t, high-rank starves it of s."""
        return "second" if 2 * self.rank_v <= outer_dim else "first"

    def predicted_entropy(self, outer_dim: int) -> float:
        return (self.mean_second if self.predicted_side(outer_dim) == "second"
                else self.mean_first)


class DichotomyReport(NamedTuple):
    outer_dim: int
    compressed_len: int
    margin: float
    cells: tuple
    worst_predicted: float
    slack_bits: float
    rank_histogram: dict
    prediction_mismatches: int


def audit_bob_strategies(basis: OrthonormalCode, margin: float,
                         masks: Optional[Sequence[int]] = None,
                         pair_samples: Optional[int] = None,
                         rng: Optional[Stream] = None,
                         limit: int = DEFAULT_ENUM_LIMIT,
                         ) -> DichotomyReport:
    """Exhaust Bob's request masks against the compression-pair ensemble.

    For each packed mask u (all 2^n of them, 0 .. 2^n - 1 in order, by
    default; a given mask outside that range raises ValueError) the
    audit takes H(s~|t~,z) and H(t~|s~,z) for every full-rank
    compression pair (A, B) (all of them when the compressed length is 1
    and pair_samples is None, else pair_samples random ones) and
    averages them over pairs.  With s and t uniform, each is an entropy
    of a linear image, so a rank difference of the stacked maps
    (s, t) -> (A s, B t, z):
    H(s~|t~,z) = rank[A 0; 0 B; U V] - rank[0 B; U V] and
    H(t~|s~,z) = rank[A 0; 0 B; U V] - rank[A 0; U V].  A pair mean is
    an integer sum over the pair count, so the two sides compare
    exactly.  The report's slack is how far the worst mask's
    rank-predicted side falls below the full compressed_len bits;
    mismatches count masks whose better-protected side differs from the
    rank prediction.  Before any work it checks masks x compression
    pairs against limit; all 2^n masks need n <= 16, which no limit
    lifts.
    """
    f = basis.field
    if f.degree != 1:
        raise ValueError("strategy audit is binary only")
    r, n = basis.dimension, basis.length
    if masks is None and n > 16:
        raise EnumerationLimit(
            f"n={n} exceeds the request-mask audit's cap (n <= 16 over all "
            "masks); --enum-limit cannot raise it")
    u_len = compressed_length(r, margin)
    if pair_samples is None:
        # counted before enumerating: u_len independent rows of length r
        count = math.prod((1 << r) - (1 << i) for i in range(u_len))
        if count > 64:
            raise ValueError(f"{count}^2 compression pairs; pass pair_samples")
        n_pairs = count * count
    elif rng is None:
        raise ValueError("pair_samples needs an rng")
    elif pair_samples < 1:
        raise ValueError("pair_samples must be positive")
    else:
        n_pairs = pair_samples
    n_masks = 1 << n if masks is None else len(masks)
    check_budget(n_masks * n_pairs, limit,
                 f"{n_masks} masks x {n_pairs} compression pairs")
    if masks is None:
        masks = range(1 << n)
    else:
        for mask in masks:
            check_mask(mask, f, n)
    if pair_samples is None:
        pairs = _full_rank_row_sets(r, u_len)
        pair_list = [(a, b) for a in pairs for b in pairs]
    else:
        draws = [full_rank_matrix(f, u_len, r, rng).packed
                 for _ in range(2 * pair_samples)]
        pair_list = list(zip(draws[::2], draws[1::2]))

    firsts, seconds = (set(side) for side in zip(*pair_list))

    def extend(reduced: tuple, new: Iterable[int]) -> tuple:
        """A copy of the reduced (rows, pivots) with new rows eliminated
        in; (s, t) sit side by side in rows 2r bits wide, t at bit r."""
        rows, pivots = reduced[0].copy(), reduced[1].copy()
        eliminate(f, rows, pivots, new, 2 * r)
        return rows, pivots

    cells = []
    mismatches = 0
    hist: dict[int, int] = {}
    # a mask enters the posterior only through V, and many masks share one
    by_v: dict[tuple, tuple] = {}
    for mask in masks:
        v = cheat_matrix_V(basis.rows, mask)
        if v.packed not in by_v:
            u = v + Matrix.identity(f, r)
            z = extend(([], []), (a | b << r for a, b in
                                  zip(u.packed, v.packed)))
            with_t = {b: extend(z, (x << r for x in b)) for b in seconds}
            rank_s = {a: len(extend(z, a)[0]) for a in firsts}
            sum_first = sum_second = 0
            for a, b in pair_list:
                full = len(extend(with_t[b], a)[0])
                sum_first += full - len(with_t[b][0])
                sum_second += full - rank_s[a]
            by_v[v.packed] = (rank(v), rank(u), sum_first / n_pairs,
                              sum_second / n_pairs)
        cell = MaskAudit(mask, *by_v[v.packed])
        hist[cell.rank_v] = hist.get(cell.rank_v, 0) + 1
        cells.append(cell)
        first, second = cell.mean_first, cell.mean_second
        if first != second and cell.predicted_side(r) != (
                "second" if second > first else "first"):
            mismatches += 1
    worst = min(c.predicted_entropy(r) for c in cells)
    return DichotomyReport(
        outer_dim=r, compressed_len=u_len, margin=margin, cells=tuple(cells),
        worst_predicted=worst, slack_bits=u_len - worst,
        rank_histogram=dict(sorted(hist.items())),
        prediction_mismatches=mismatches)
