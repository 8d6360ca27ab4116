"""The entropy oracles the long way: the references that the coset weight
tables of `otlab.analysis` are checked against.

Each erasure pattern spans the generator rows projected onto its kept
positions into all 2^k codewords (numpy int64 words, one limb) and
compares every codeword with every one of the 2^(n - e) outputs in one
2^k x 2^(n - e) broadcast of distances.
"""

import math
from itertools import combinations

import numpy as np

from otlab.analysis import (EntropyReport, FixedWeightBound,
                            FixedWeightReport, min_entropy_bound)
from otlab.codes import DEFAULT_ENUM_LIMIT, check_budget
from otlab.linalg import span_words, weights


def _kept_words(code, erasures, limit):
    """The codewords seen through each erasure pattern.

    An oracle builds a 2^k x 2^(n - e) array per pattern, so C(n, e)
    2^(k + n - e) is checked against the limit before any is built (for
    a limit below 2^63 that also keeps each word in one int64 limb).
    Each item, one per pattern in combinations order of the kept
    positions, is an int64 array of shape (2^k, 1): the 2^k codewords in
    message order with kept position t at bit t, the generator rows
    projected onto the kept positions, then spanned.
    """
    if code.field.degree != 1:
        raise ValueError("entropy oracles require a binary code")
    n, k = code.length, code.dimension
    kept_count = n - erasures
    patterns = math.comb(n, erasures)
    check_budget(patterns << k + kept_count, limit,
                 f"{patterns} patterns x 2^{k} codewords x 2^{kept_count} "
                 "outputs")
    rows = code.generator.packed
    return (span_words([sum((r >> pos & 1) << t for t, pos in enumerate(kept))
                        for r in rows], kept_count)
            for kept in combinations(range(n), kept_count))


def _distances(proj, kept_count):
    """Distance of each codeword (rows) to each output (columns)."""
    z = np.arange(1 << kept_count, dtype=np.int64)
    return weights(proj[:, None] ^ z[:, None], kept_count)


def min_entropy_views(code, erasures, error_rate, limit=DEFAULT_ENUM_LIMIT):
    """Per pattern: (H_inf, view probability, reachable) of every output."""
    n, k = code.length, code.dimension
    kept_count = n - erasures
    pattern_count = math.comb(n, erasures)
    rho = error_rate / (1.0 - error_rate)
    pattern_w = 1.0 / pattern_count
    prior = 1.0 / (1 << k)
    keep_scale = (1.0 - error_rate) ** kept_count
    for proj in _kept_words(code, erasures, limit):
        dist = _distances(proj, kept_count)
        like = np.power(rho, dist.astype(np.float64))
        colsum = like.sum(axis=0)
        reachable = colsum > 0.0
        view_p = colsum * keep_scale * prior * pattern_w
        maxpost = np.zeros_like(colsum)
        maxpost[reachable] = like.max(axis=0)[reachable] / colsum[reachable]
        hinf = np.full_like(colsum, np.inf)
        hinf[reachable] = -np.log2(maxpost[reachable])
        yield hinf, view_p, reachable


def min_entropy_oracle(code, erasures, error_rate, alpha,
                       limit=DEFAULT_ENUM_LIMIT):
    """`otlab.analysis.min_entropy_oracle` over the full distance array."""
    n, k = code.length, code.dimension
    if not 0 <= erasures <= n:
        raise ValueError("erasure count out of range")
    if not 0.0 <= error_rate < 0.5:
        raise ValueError("error rate must be in [0, 1/2)")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    kept_count = n - erasures
    pattern_count = math.comb(n, erasures)
    bound = min_entropy_bound(n, k, erasures, error_rate, alpha)

    total_mass = 0.0
    violating = 0.0
    avg = 0.0
    bucket = 0.25
    hist = {}
    for hinf, view_p, reachable in min_entropy_views(code, erasures,
                                                     error_rate, limit):
        total_mass += float(view_p.sum())
        violating += float(view_p[reachable & (hinf < bound)].sum())
        avg += float((view_p[reachable] * hinf[reachable]).sum())
        for b, m in zip((hinf[reachable] / bucket).astype(np.int64),
                        view_p[reachable]):
            hist[int(b)] = hist.get(int(b), 0.0) + float(m)
    if not math.isclose(total_mass, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise AssertionError(f"posterior masses sum to {total_mass}, not 1")
    histogram = tuple(sorted((b * bucket, (b + 1) * bucket, m)
                             for b, m in hist.items()))
    views = pattern_count * (1 << kept_count)
    return EntropyReport(alpha=alpha, bound_bits=bound,
                         violating_mass=violating, views=views,
                         avg_min_entropy=avg, histogram=histogram)


def fixed_weight_oracle(code, erasures, weight, alphas=(1.0, 2.0, 3.0),
                        limit=DEFAULT_ENUM_LIMIT):
    """`otlab.analysis.fixed_weight_oracle` over the full distance array."""
    n, k = code.length, code.dimension
    if not 0 <= erasures <= n:
        raise ValueError("erasure count out of range")
    kept_count = n - erasures
    if not 0 <= weight <= kept_count:
        raise ValueError("flip weight out of range")
    pattern_count = math.comb(n, erasures)
    per_pattern_edges = (1 << k) * math.comb(kept_count, weight)
    total_edges = pattern_count * per_pattern_edges
    projections = _kept_words(code, erasures, limit)
    r_bits = k - kept_count + math.log2(math.comb(kept_count, weight))

    agg_bad = {float(a): 0 for a in alphas}
    max_frac = {float(a): 0.0 for a in alphas}
    min_deg, max_deg = per_pattern_edges, 0
    entropy_sum = 0.0
    for proj in projections:
        dist = _distances(proj, kept_count)
        deg = (dist == weight).sum(axis=0)
        if int(deg.sum()) != per_pattern_edges:
            raise AssertionError("edge count mismatch against C(n-e, w) 2^k")
        reachable = deg > 0
        min_deg = min(min_deg, int(deg[reachable].min()))
        max_deg = max(max_deg, int(deg.max()))
        entropy_sum += float((deg[reachable] * np.log2(deg[reachable])).sum())
        for a in alphas:
            thr = 2.0 ** (r_bits - a)
            bad = int(deg[(deg > 0) & (deg < thr)].sum())
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
