"""Rate formulas and exact entropy oracles at enumerable sizes.

The rate of the duplication-based transfer is
rate_p0(phi) = phi(1-phi) (1 - h(phi^2 / (1 - 2 phi (1 - phi)))),
maximized near phi = 0.198.  Outer constructions multiply it by the outer
code rate, divide by q - 1 in the q-ary chaining, and halve it again in
the compressed ("private") variants.  The closed-form side of the
corrupted-pair detection (Bob's accusation threshold and the expected
unerased count) lives here too, so `run` reports it without loading the
adversary module.

The oracles enumerate every erasure pattern and every channel output of a
small binary code and compute exact posteriors: min-entropy of the
codeword given the view (against the linear-programming style bound
n[R - (1 - e/n)(1 - h(p)) - alpha]) and the fixed-flip-weight variant
with its bipartite edge-degree bound.  An output's distances to the
codewords are the weights of its coset of the projected code, counted on
packed ints.  They exist to crosscheck the protocol-side security
accounting at desk scale, so they are deliberately independent of the
protocol implementations.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterator, NamedTuple, Optional, Sequence

from .channels import BscParams
from .codes import DEFAULT_ENUM_LIMIT, LinearCode, check_budget
from .linalg import eliminate, span

Z_95 = 1.96  # two-sided 95% normal quantile


def binary_entropy(p: float) -> float:
    """h(p) in bits; h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"entropy argument must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion (Wilson, JASA 1927).

    Unlike the Wald interval it keeps a nonzero width when none or all of
    the trials succeed, and it never leaves [0, 1]; at k = 0 and k = n the
    end at the point estimate is exact, so the interval always holds it.
    """
    if not 0 <= successes <= trials or trials < 1:
        raise ValueError(f"need 0 <= successes <= trials >= 1, got "
                         f"{successes} of {trials}")
    p = successes / trials
    z2 = Z_95 * Z_95 / trials
    center = (p + z2 / 2.0) / (1.0 + z2)
    half = (Z_95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials))
            / (1.0 + z2))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


class AccusationRule(NamedTuple):
    """Bob's unerased-count test over a whole session batch.

    slots is the number of duplicated pairs observed (2 n n0 for n rounds
    of block length n0); the threshold sits eta below the honest survival
    rate 1 - eps, with eta = c (1 - 2 eps) / (4 n0) so that c corruptions
    per round move the mean by twice the margin.  The false-accusation
    bound is Hoeffding's exp(-2 eta^2 slots).
    """

    slots: int
    crossover: float
    eta: float
    threshold: float
    false_accusation_bound: float


def detection_rule(rounds: int, block_len: int, phi: float,
                   c: float = 1.0) -> AccusationRule:
    eps = BscParams(phi).erasure_rate
    slots = 2 * rounds * block_len
    eta = c * (1.0 - 2.0 * eps) / (4.0 * block_len)
    threshold = slots * (1.0 - eps - eta)
    bound = math.exp(-2.0 * eta * eta * slots)
    return AccusationRule(slots=slots, crossover=phi, eta=eta,
                          threshold=threshold, false_accusation_bound=bound)


def expected_unerased(rounds: int, block_len: int, phi: float,
                      corrupted: int) -> float:
    """Mean surviving pairs when `corrupted` of the slots are false.

    A false pair survives w.p. eps against 1 - eps for an honest one, so
    each corruption lowers the mean by 1 - 2 eps.
    """
    eps = BscParams(phi).erasure_rate
    slots = 2 * rounds * block_len
    return slots * (1.0 - eps) - corrupted * (1.0 - 2.0 * eps)


def rate_p0(phi: float) -> float:
    """Secret bits per channel bit of the duplication protocol at crossover phi."""
    channel = BscParams(phi)
    if phi == 0.0:
        return 0.0
    return phi * (1.0 - phi) * (1.0 - binary_entropy(channel.residual_error))


def optimize_rate_p0(tol: float = 1e-6) -> tuple[float, float]:
    """Golden-section maximization of rate_p0 on (1e-4, 1/2 - 1e-4).

    Returns (phi_star, rate_star).  The rate is unimodal on the interval;
    the search is deterministic.
    """
    lo, hi = 1e-4, 0.5 - 1e-4
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = rate_p0(c), rate_p0(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = rate_p0(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = rate_p0(d)
    phi_star = (a + b) / 2.0
    return phi_star, rate_p0(phi_star)


class RateBreakdown(NamedTuple):
    """One outer-protocol rate chain evaluated end to end."""

    crossover: float
    erasure_rate: float
    residual_error: float
    inner_rate: float
    code_rate: float
    q: int
    outer_rate: float
    private_rate: float

    def to_json(self) -> dict:
        return {
            "crossover": self.crossover,
            "erasure_rate": self.erasure_rate,
            "residual_error": self.residual_error,
            "inner_rate": self.inner_rate,
            "code_rate": self.code_rate,
            "q": self.q,
            "outer_rate": self.outer_rate,
            "private_rate": self.private_rate,
        }


def rate_chain(code_rate: float, q: int,
               phi: Optional[float] = None) -> RateBreakdown:
    """Chain the inner rate through an outer code of rate code_rate.

    The outer construction spends (q - 1) inner transfers per q-ary round,
    so outer_rate = code_rate * inner_rate / (q - 1); the compressed
    variant halves it.  With phi omitted, the optimized crossover is used.
    """
    if not 0.0 < code_rate <= 1.0:
        raise ValueError(f"code rate must be in (0, 1], got {code_rate}")
    if q < 2 or (q & (q - 1)) != 0:
        raise ValueError(f"q must be a power of two >= 2, got {q}")
    if phi is None:
        phi, r0 = optimize_rate_p0()
    else:
        r0 = rate_p0(phi)
    channel = BscParams(phi)
    outer = code_rate * r0 / (q - 1)
    return RateBreakdown(crossover=phi, erasure_rate=channel.erasure_rate,
                         residual_error=channel.residual_error, inner_rate=r0,
                         code_rate=code_rate, q=q, outer_rate=outer,
                         private_rate=outer / 2.0)


def curve_grid(points: int) -> list[float]:
    """`points` crossovers evenly spaced over [0.005, 0.495], ends included.

    This is numpy.linspace's arithmetic (start + i * step, then the stop
    itself last), so the floats equal np.linspace(0.005, 0.495, points).
    """
    step = (0.495 - 0.005) / (points - 1)
    return [i * step + 0.005 for i in range(points - 1)] + [0.495]


def rate_curve(phis: Sequence[float]) -> list[tuple[float, float, float]]:
    """Rows of (phi, erasure_rate, rate) for curve export."""
    return [(phi, BscParams(phi).erasure_rate, rate_p0(phi)) for phi in phis]


def min_entropy_bound(n: int, k: int, erasures: int, error_rate: float,
                      alpha: float) -> float:
    """n [R - (1 - e/n)(1 - h(p)) - alpha] in bits."""
    rate = k / n
    return n * (rate - (1.0 - erasures / n)
                * (1.0 - binary_entropy(error_rate)) - alpha)


def _coset_tables(code: LinearCode, erasures: int,
                  limit: int) -> Iterator[tuple[int, Iterator[list[int]]]]:
    """Per erasure pattern, in combinations order of the kept positions:
    the rank r of the projected code C' (each of its words stands for
    2^(k - r) codewords) and, for every coset z + C', its words' weights:
    the distances from each of its 2^r outputs to the words of C'
    (standard-array decoding; MacWilliams and Sloane 1977, ch. 1 sec. 3).
    A coset is its representative, zero at the pivots of the eliminated
    projection, plus the span of the reduced rows.  The representatives
    are the sums h + l of one from the span of the high half of the free
    columns and one from the span of the low half, so a pattern holds
    about 2^((n - e - r) / 2) of them at once, not all 2^(n - e - r); h
    runs slowest, so coset j still sums the free columns set in j.
    C(n, e) 2^(n - e) outputs are checked against the limit before any
    elimination.
    """
    if code.field.degree != 1:
        raise ValueError("entropy oracles require a binary code")
    n, field, rows = code.length, code.field, code.generator.packed
    kept_count = n - erasures
    patterns = math.comb(n, erasures)
    check_budget(patterns << kept_count, limit,
                 f"{patterns} patterns x 2^{kept_count} outputs")

    def table(kept: tuple[int, ...]) -> tuple[int, Iterator[list[int]]]:
        reduced: list[int] = []
        pivots: list[int] = []
        eliminate(field, reduced, pivots,
                  (sum((r >> pos & 1) << t for t, pos in enumerate(kept))
                   for r in rows), kept_count)
        words = span(field, reduced)
        free = [1 << t for t in range(kept_count) if t not in pivots]
        half = len(free) // 2
        low, high = span(field, free[:half]), span(field, free[half:])
        return len(reduced), (
            [*map(int.bit_count, map((h ^ l).__xor__, words))]
            for h in high for l in low)
    return map(table, combinations(range(n), kept_count))


class EntropyReport(NamedTuple):
    """Exact conditional min-entropy census over all views of a code."""

    alpha: float
    bound_bits: float
    violating_mass: float
    views: int
    avg_min_entropy: float
    histogram: tuple  # (lo, hi, mass) buckets over H_inf values


def min_entropy_oracle(code: LinearCode, erasures: int, error_rate: float,
                       alpha: float,
                       limit: int = DEFAULT_ENUM_LIMIT) -> EntropyReport:
    """Exhaustive H_inf(codeword | view) census for a uniform codeword.

    The view is the channel output: a uniform set of `erasures` erased
    positions and the remaining positions flipped independently with
    probability error_rate.  For every (pattern, output) pair the exact
    posterior over codewords gives H_inf = -log2 max posterior; the report
    carries the probability mass of views falling below the bound
    n[R - (1 - e/n)(1 - h(p)) - alpha], the view-average of H_inf, and a
    bucketed histogram.
    """
    n, k = code.length, code.dimension
    if not 0 <= erasures <= n:
        raise ValueError("erasure count out of range")
    if not 0.0 <= error_rate < 0.5:
        raise ValueError("error rate must be in [0, 1/2)")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    kept_count = n - erasures
    pattern_count = math.comb(n, erasures)
    tables = _coset_tables(code, erasures, limit)
    bound = min_entropy_bound(n, k, erasures, error_rate, alpha)
    rho = error_rate / (1.0 - error_rate)
    pattern_w = 1.0 / pattern_count
    prior = 1.0 / (1 << k)
    keep_scale = (1.0 - error_rate) ** kept_count

    total_mass = 0.0
    violating = 0.0
    avg = 0.0
    bucket = 0.25
    hist: dict[int, float] = {}
    powers = [rho ** w for w in range(kept_count + 1)]
    for rank, cosets in tables:
        for ws in cosets:
            # sum of all 2^k codewords' likelihoods over (1 - p)^(n - e)
            like = (1 << k - rank) * math.fsum(map(powers.__getitem__, ws))
            if like == 0.0:
                continue  # outputs the noiseless channel never gives
            hinf = -math.log2(powers[min(ws)] / like)
            mass = (1 << rank) * like * keep_scale * prior * pattern_w
            total_mass += mass
            if hinf < bound:
                violating += mass
            avg += mass * hinf
            b = int(hinf / bucket)
            hist[b] = hist.get(b, 0.0) + mass
    if not math.isclose(total_mass, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise AssertionError(f"posterior masses sum to {total_mass}, not 1")
    histogram = tuple(sorted((b * bucket, (b + 1) * bucket, m)
                             for b, m in hist.items()))
    # Erasure patterns with their binomial weights all share the same
    # output alphabet size, so the view count is exact.
    views = pattern_count * (1 << kept_count)
    return EntropyReport(alpha=alpha, bound_bits=bound,
                         violating_mass=violating, views=views,
                         avg_min_entropy=avg, histogram=histogram)


class FixedWeightBound(NamedTuple):
    alpha: float
    threshold: float
    max_fraction: float
    aggregate_fraction: float
    bound: float


class FixedWeightReport(NamedTuple):
    """Census of the exact-flip-weight bipartite view graph."""

    r_bits: float
    r_positive: bool
    total_edges: int
    min_degree: int
    max_degree: int
    avg_min_entropy: float
    bounds: tuple  # FixedWeightBound per alpha


def fixed_weight_oracle(code: LinearCode, erasures: int, weight: int,
                        alphas: Sequence[float] = (1.0, 2.0, 3.0),
                        limit: int = DEFAULT_ENUM_LIMIT) -> FixedWeightReport:
    """Exact audit of the fixed-flip-weight view graph.

    For each erasure pattern, left nodes are the 2^k codewords, right
    nodes the 2^(n-e) outputs, with an edge when the output sits at
    Hamming distance exactly `weight` from the codeword on the kept
    positions.  The posterior given an output is uniform over its degree,
    so H_inf(view) = log2 deg(view).  With
    r = k - (n - e) + log2 C(n - e, weight), the mass of edges into views
    of degree < 2^(r - alpha) is at most 2^(-alpha); the report carries
    the measured fractions (worst pattern and aggregate) per alpha.
    r <= 0 is flagged via r_positive rather than rejected.
    """
    n, k = code.length, code.dimension
    if not 0 <= erasures <= n:
        raise ValueError("erasure count out of range")
    kept_count = n - erasures
    if not 0 <= weight <= kept_count:
        raise ValueError("flip weight out of range")
    pattern_count = math.comb(n, erasures)
    per_pattern_edges = (1 << k) * math.comb(kept_count, weight)
    total_edges = pattern_count * per_pattern_edges
    tables = _coset_tables(code, erasures, limit)
    r_bits = k - kept_count + math.log2(math.comb(kept_count, weight))

    agg_bad = {float(a): 0 for a in alphas}
    max_frac = {float(a): 0.0 for a in alphas}
    min_deg, max_deg = per_pattern_edges, 0
    entropy_sum = 0.0
    for rank, cosets in tables:
        # the degree shared by a coset's 2^rank outputs
        degrees = [ws.count(weight) << k - rank for ws in cosets]
        if sum(degrees) << rank != per_pattern_edges:
            raise AssertionError("edge count mismatch against C(n-e, w) 2^k")
        reached = [d for d in degrees if d]
        min_deg = min(min_deg, min(reached))
        max_deg = max(max_deg, max(degrees))
        entropy_sum += (1 << rank) * sum(d * math.log2(d) for d in reached)
        for a in alphas:
            thr = 2.0 ** (r_bits - a)
            bad = sum(d for d in reached if d < thr) << rank
            agg_bad[float(a)] += bad
            max_frac[float(a)] = max(max_frac[float(a)],
                                     bad / per_pattern_edges)
    bounds = tuple(FixedWeightBound(alpha=float(a),
                                    threshold=2.0 ** (r_bits - a),
                                    max_fraction=max_frac[float(a)],
                                    aggregate_fraction=agg_bad[float(a)]
                                    / total_edges,
                                    bound=2.0 ** (-float(a)))
                   for a in alphas)
    return FixedWeightReport(r_bits=r_bits, r_positive=r_bits > 0.0,
                             total_edges=total_edges, min_degree=min_deg,
                             max_degree=max_deg,
                             avg_min_entropy=entropy_sum / total_edges,
                             bounds=bounds)
