"""Rate formulas and the exhaustive entropy oracles."""

import math
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import oracle_reference
from otlab.analysis import (binary_entropy, curve_grid, fixed_weight_oracle,
                            min_entropy_bound, min_entropy_oracle,
                            optimize_rate_p0, rate_chain, rate_curve, rate_p0,
                            wilson_interval)
from otlab.channels import derive_rng
from otlab.codes import EnumerationLimit, LinearCode, random_code
from otlab.gf import GF
from otlab.linalg import Matrix


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328)
    for p in np.linspace(0.01, 0.99, 33):
        assert binary_entropy(float(p)) == pytest.approx(
            binary_entropy(float(1 - p)))
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_wilson_interval_pinned_values_and_endpoints():
    lo, hi = wilson_interval(8, 10)
    assert lo == pytest.approx(0.490157, abs=1e-6)
    assert hi == pytest.approx(0.943319, abs=1e-6)
    lo, hi = wilson_interval(10, 10)
    assert lo == pytest.approx(0.722460, abs=1e-6)
    assert hi == 1.0
    # k = 0 mirrors k = n, and neither end collapses to a point
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0
    assert hi == pytest.approx(1.0 - 0.722460, abs=1e-6)
    for n in (1, 7, 20, 200, 16000):
        for k in (0, n):
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0
            assert hi - lo > 0.0
    with pytest.raises(ValueError):
        wilson_interval(3, 2)
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_rate_p0_endpoints_and_frozen_value():
    assert rate_p0(0.0) == 0.0
    assert rate_p0(0.198) == pytest.approx(0.10842018099476232, rel=1e-12)
    with pytest.raises(ValueError):
        rate_p0(0.5)
    with pytest.raises(ValueError):
        rate_p0(-0.01)


def test_rate_p0_two_formula_forms_agree():
    """phi(1-phi)(1-h(p)) and eps(1-h(p))/2 are the same number."""
    for phi in np.linspace(0.001, 0.499, 1000):
        phi = float(phi)
        eps = 2.0 * phi * (1.0 - phi)
        p = phi * phi / (1.0 - eps)
        via_eps = eps * (1.0 - binary_entropy(p)) / 2.0
        assert rate_p0(phi) == pytest.approx(via_eps, abs=1e-12)


def test_optimize_rate_p0_frozen_and_beats_grid():
    phi_star, rate_star = optimize_rate_p0()
    assert phi_star == pytest.approx(0.19385297824369357, abs=1e-5)
    assert rate_star == pytest.approx(0.10847152648944172, rel=1e-9)
    grid_best = max(rate_p0(float(p))
                    for p in np.linspace(0.001, 0.499, 20000))
    assert rate_star >= grid_best - 1e-9
    # tighter tolerance narrows the bracket, never changes the optimum
    phi_fine, rate_fine = optimize_rate_p0(tol=1e-9)
    assert rate_fine == pytest.approx(rate_star, rel=1e-9)


def test_rate_chain_identity_at_unit_code_rate():
    rb = rate_chain(1.0, 2, phi=0.198)
    assert rb.inner_rate == pytest.approx(rate_p0(0.198), rel=1e-12)
    assert rb.outer_rate == pytest.approx(rb.inner_rate, rel=1e-12)
    assert rb.private_rate == pytest.approx(rb.outer_rate / 2.0, rel=1e-12)
    assert rb.q == 2
    assert rb.erasure_rate == pytest.approx(0.317592)


def test_rate_chain_frozen_defaults():
    rb = rate_chain(1.0 / 1575.0, 2)
    assert rb.crossover == pytest.approx(0.19385297824369357, abs=1e-5)
    assert rb.outer_rate == pytest.approx(6.887081046948681e-05, rel=1e-9)
    assert rb.private_rate == pytest.approx(3.4435405234743404e-05, rel=1e-9)
    rb16 = rate_chain(1.0 / 9.0, 16)
    assert rb16.outer_rate == pytest.approx(8.034927888106794e-04, rel=1e-9)
    assert rb16.private_rate == pytest.approx(4.017463944053397e-04, rel=1e-9)


def test_rate_chain_q_scaling_and_overrides():
    base = rate_chain(0.5, 2, phi=0.2)
    for q in (4, 8, 16, 32):
        rb = rate_chain(0.5, q, phi=0.2)
        assert rb.outer_rate == pytest.approx(base.outer_rate / (q - 1),
                                              rel=1e-12)


def test_rate_chain_validation():
    with pytest.raises(ValueError):
        rate_chain(0.0, 2)
    with pytest.raises(ValueError):
        rate_chain(1.5, 2)
    with pytest.raises(ValueError):
        rate_chain(0.5, 3)
    with pytest.raises(ValueError):
        rate_chain(0.5, 1)


def test_rate_curve_rows():
    phis = [0.0, 0.1, 0.198, 0.3]
    rows = rate_curve(phis)
    assert len(rows) == 4
    for (phi, eps, rate), want in zip(rows, phis):
        assert phi == want
        assert eps == pytest.approx(2 * want * (1 - want))
        assert rate == pytest.approx(rate_p0(want))


def test_curve_grid_is_numpy_linspace_float_for_float():
    # `rates --curve` draws its crossovers without numpy; nothing else pins
    # these floats (the golden rates report has no curve)
    for points in range(2, 2001):
        want = np.linspace(0.005, 0.495, points).tolist()
        assert curve_grid(points) == want, points


def test_min_entropy_bound_formula():
    got = min_entropy_bound(10, 4, 3, 0.1, 0.5)
    want = 10 * (0.4 - 0.7 * (1 - binary_entropy(0.1)) - 0.5)
    assert got == pytest.approx(want, rel=1e-12)


def _posterior_census(code, erasures, error_rate):
    """Definitional Bayes census: avg H_inf weighted by view probability.

    Walks every erasure pattern and every kept-position output, scoring
    codewords with per-position match probabilities instead of the
    likelihood-ratio shortcut used by the implementation.
    """
    n, k = code.length, code.dimension
    words = list(code.iter_codewords())
    kept_count = n - erasures
    patterns = list(combinations(range(n), kept_count))
    avg = 0.0
    total = 0.0
    for kept in patterns:
        for out in range(1 << kept_count):
            y = [(out >> t) & 1 for t in range(kept_count)]
            joint = []
            for w in words:
                pr = 1.0
                for t, pos in enumerate(kept):
                    pr *= (1 - error_rate) if w[pos] == y[t] else error_rate
                joint.append(pr / len(words) / len(patterns))
            mass = sum(joint)
            if mass == 0.0:
                continue
            total += mass
            h = -math.log2(max(joint) / mass)
            avg += mass * h
    assert total == pytest.approx(1.0, abs=1e-9)
    return avg


def test_min_entropy_oracle_matches_definitional_census():
    rng = derive_rng(30)
    for _ in range(6):
        k = int(rng.integers(1, 3))
        n = int(rng.integers(k, 5))
        code = random_code(GF(1), n, k, rng)
        for erasures in (0, 1):
            if erasures > n:
                continue
            rep = min_entropy_oracle(code, erasures, 0.2, alpha=0.5)
            want = _posterior_census(code, erasures, 0.2)
            assert rep.avg_min_entropy == pytest.approx(want, abs=1e-9)


def wide_code():
    """A [66,3] code: at 64 erasures the two kept positions of many
    patterns straddle bit 63, the end of the first int64 limb."""
    code = random_code(GF(1), 66, 3, derive_rng(32))
    assert any(row >> 63 for row in code.generator.packed)
    return code


def test_min_entropy_oracle_matches_census_past_one_limb():
    code = wide_code()
    rep = min_entropy_oracle(code, 64, 0.2, alpha=0.5)
    assert rep.avg_min_entropy == pytest.approx(
        _posterior_census(code, 64, 0.2), abs=1e-9)


def test_fixed_weight_oracle_matches_degree_count_past_one_limb():
    code = wide_code()
    words = list(code.iter_codewords())
    degrees = []
    for kept in combinations(range(66), 2):
        for out in range(4):
            degrees.append(sum(
                1 for w in words
                if sum(w[pos] != (out >> t) & 1
                       for t, pos in enumerate(kept)) == 1))
    rep = fixed_weight_oracle(code, 64, 1)
    total = sum(degrees)
    assert rep.total_edges == total
    assert rep.min_degree == min(d for d in degrees if d)
    assert rep.max_degree == max(degrees)
    assert rep.avg_min_entropy == pytest.approx(
        sum(d * math.log2(d) for d in degrees if d) / total, abs=1e-12)


ERROR_RATES = (0.0, 0.05, 0.1, 0.2, 0.3)


def near_edges(code, erasures, error_rate):
    """Indices of the bucket edges within 1e-9 of a reference H_inf."""
    near = set()
    for hinf, view_p, reachable in oracle_reference.min_entropy_views(
            code, erasures, error_rate):
        for h in hinf[reachable & (view_p > 0.0)].tolist():
            edge = round(h / 0.25)
            if abs(h - edge * 0.25) < 1e-9:
                near.add(edge)
    return near


def assert_same_census(code, erasures, error_rate):
    """The coset-table census against the reference; True when the
    histograms differ and were compared around the bucket edges that a
    reference H_inf sits on."""
    got = min_entropy_oracle(code, erasures, error_rate, alpha=0.25)
    want = oracle_reference.min_entropy_oracle(code, erasures, error_rate,
                                               alpha=0.25)
    assert (got.views, got.bound_bits) == (want.views, want.bound_bits)
    for a, b in ((got.avg_min_entropy, want.avg_min_entropy),
                 (got.violating_mass, want.violating_mass)):
        assert math.isclose(a, b, rel_tol=1e-12), (a, b)
    got_mass = {round(lo / 0.25): m for lo, _, m in got.histogram}
    want_mass = {round(lo / 0.25): m for lo, _, m in want.histogram}
    if got_mass.keys() == want_mass.keys() and all(
            math.isclose(m, want_mass[b], rel_tol=1e-12)
            for b, m in got_mass.items()):
        return False
    # a view whose H_inf rounds across an edge lands one bucket over
    moved = {b for edge in near_edges(code, erasures, error_rate)
             for b in (edge - 1, edge)}
    assert moved
    assert math.isclose(sum(got_mass.get(b, 0.0) for b in moved),
                        sum(want_mass.get(b, 0.0) for b in moved),
                        rel_tol=1e-12)
    assert got_mass.keys() - moved == want_mass.keys() - moved
    for b in got_mass.keys() - moved:
        assert math.isclose(got_mass[b], want_mass[b], rel_tol=1e-12)
    return True


def assert_same_graph(code, erasures, weight):
    got = fixed_weight_oracle(code, erasures, weight)
    want = oracle_reference.fixed_weight_oracle(code, erasures, weight)
    assert ((got.r_bits, got.r_positive, got.total_edges, got.min_degree,
             got.max_degree, got.bounds)
            == (want.r_bits, want.r_positive, want.total_edges,
                want.min_degree, want.max_degree, want.bounds))
    assert math.isclose(got.avg_min_entropy, want.avg_min_entropy,
                        rel_tol=1e-12)


def test_oracles_match_the_full_distance_array_reference():
    # 300 random codes with k <= 5 and n <= 8, every tenth up to n = 10
    # (the reference walks about 3^n views of a code over all e), at every
    # erasure count, cycling through the error rates and drawing a flip
    # weight; e > n - k leaves projections of rank below k
    rng = derive_rng(35)
    deficient = edge_cases = 0
    for i in range(300):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(k, 11 if i % 10 == 0 else 9))
        code = random_code(GF(1), n, k, rng)
        for e in range(n + 1):
            deficient += e > n - k
            edge_cases += assert_same_census(
                code, e, ERROR_RATES[(i + e) % len(ERROR_RATES)])
            assert_same_graph(code, e, int(rng.integers(0, n - e + 1)))
    assert deficient > 300 and edge_cases > 0
    code = wide_code()
    for error_rate in (0.0, 0.2):
        assert_same_census(code, 64, error_rate)
    assert_same_graph(code, 64, 1)


def test_uniform_posterior_sits_in_the_bucket_of_k_bits():
    # every codeword equally likely: H_inf = k = 3 exactly, which the sum
    # of 2^k equal float likelihoods once rounded to just below 3
    code = LinearCode.from_rows(GF(1), ((0, 0, 0, 0, 1), (1, 1, 0, 0, 1),
                                        (1, 1, 1, 1, 0)))
    rep = min_entropy_oracle(code, 1, 0.3, alpha=0.5)
    lo, hi, mass = rep.histogram[-1]
    assert (lo, hi) == (3.0, 3.25)
    assert mass == pytest.approx(0.03528, rel=1e-12)
    assert all(b[:2] != (2.75, 3.0) for b in rep.histogram)


def test_min_entropy_oracle_noiseless_is_zero():
    code = LinearCode.from_rows(GF(1), ((1, 0, 1), (0, 1, 1)))
    rep = min_entropy_oracle(code, 0, 0.0, alpha=0.5)
    assert rep.avg_min_entropy == pytest.approx(0.0, abs=1e-12)
    assert rep.views == 8
    assert rep.violating_mass == 0.0


def test_min_entropy_oracle_full_erasure_gives_k_bits():
    code = LinearCode.from_rows(GF(1), ((1, 1, 1, 1),))
    rep = min_entropy_oracle(code, 4, 0.1, alpha=0.1)
    assert rep.avg_min_entropy == pytest.approx(1.0, abs=1e-12)
    assert rep.views == 1


def test_min_entropy_oracle_erasure_ladder():
    """More erasures leak less, comparing like parities of kept positions.

    The raw sequence is not monotone: an even number of kept repetition
    bits can tie (forcing a full bit of entropy) while an odd number
    never does, so adjacent erasure counts seesaw.  Within each parity
    class the average entropy climbs, and full erasure tops the ladder.
    """
    code = LinearCode.from_rows(GF(1), ((1, 1, 1, 1, 1),))
    vals = [min_entropy_oracle(code, e, 0.1, alpha=0.5).avg_min_entropy
            for e in range(6)]
    assert vals[5] == pytest.approx(1.0, abs=1e-12)
    assert max(vals) == vals[5]
    for lo, hi in ((0, 2), (2, 4), (1, 3), (3, 5)):
        assert vals[lo] < vals[hi]


def test_min_entropy_oracle_single_bit_closed_form():
    code = LinearCode.from_rows(GF(1), ((1,),))
    for p in (0.1, 0.25, 0.4):
        rep = min_entropy_oracle(code, 0, p, alpha=0.1)
        assert rep.avg_min_entropy == pytest.approx(-math.log2(1 - p),
                                                    abs=1e-12)


def test_min_entropy_oracle_histogram_masses_sum_to_one():
    code = LinearCode.from_rows(GF(1), ((1, 0, 1), (0, 1, 1)))
    rep = min_entropy_oracle(code, 1, 0.2, alpha=0.5)
    mass = sum(m for (_, _, m) in rep.histogram)
    assert mass == pytest.approx(1.0, abs=1e-9)
    for lo, hi, m in rep.histogram:
        assert hi == pytest.approx(lo + 0.25)
        assert m > 0.0


def test_min_entropy_oracle_limits_and_validation():
    big = LinearCode(Matrix.identity(GF(1), 26))
    with pytest.raises(EnumerationLimit):
        min_entropy_oracle(big, 0, 0.1, alpha=0.5)
    # the one pattern's 2^12 outputs are counted, not its 2^6 codewords:
    # they exceed a limit of 2^11 that the codewords would fit
    code12 = random_code(GF(1), 12, 6, derive_rng(33))
    with pytest.raises(EnumerationLimit):
        min_entropy_oracle(code12, 0, 0.1, alpha=0.5, limit=1 << 11)
    code = LinearCode.from_rows(GF(1), ((1, 1),))
    with pytest.raises(ValueError):
        min_entropy_oracle(code, 3, 0.1, alpha=0.5)
    with pytest.raises(ValueError):
        min_entropy_oracle(code, 0, 0.6, alpha=0.5)
    with pytest.raises(ValueError):
        min_entropy_oracle(code, 0, 0.1, alpha=0.0)


PEAK_OF_REPETITION_ORACLE = """
import sys
from otlab.analysis import min_entropy_oracle
from otlab.codes import LinearCode
from otlab.gf import GF
from otlab.linalg import Matrix
n = int(sys.argv[1])
min_entropy_oracle(LinearCode(Matrix(GF(1), ((1,) * n,))), 0, 0.1, 0.25)
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM")))
"""


def test_min_entropy_oracle_memory_follows_the_root_of_the_coset_count():
    """The walk holds about 2^((n - e - r) / 2) coset representatives of a
    pattern at once, not all 2^(n - e - r): the [20, 1] repetition code
    at e = 0 (2^19 cosets) peaks within 8 MB of the [8, 1] one (2^7).
    Each call runs in a child process that reads its own VmHWM (kB); a
    child's ru_maxrss starts from the parent's high-water mark, which a
    pytest process can hold above both."""
    if not Path("/proc/self/status").exists():
        pytest.skip("VmHWM is read from Linux's /proc/self/status")
    peaks = {}
    for n in (8, 20):
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_OF_REPETITION_ORACLE, str(n)],
            capture_output=True, text=True, check=True)
        peaks[n] = int(proc.stdout)
    assert peaks[20] - peaks[8] < 8 * 1024, peaks


def test_fixed_weight_oracle_repetition_code():
    code = LinearCode.from_rows(GF(1), ((1, 1, 1),))
    rep = fixed_weight_oracle(code, 0, 1)
    assert rep.total_edges == 6
    assert rep.min_degree == 1
    assert rep.max_degree == 1
    assert rep.avg_min_entropy == 0.0
    assert not rep.r_positive
    for b in rep.bounds:
        assert b.max_fraction == 0.0
        assert b.aggregate_fraction == 0.0


def test_fixed_weight_oracle_identity_code():
    code = LinearCode(Matrix.identity(GF(1), 2))
    rep = fixed_weight_oracle(code, 0, 1)
    assert rep.total_edges == 8
    assert rep.min_degree == 2
    assert rep.max_degree == 2
    assert rep.avg_min_entropy == pytest.approx(1.0)
    assert rep.r_bits == pytest.approx(1.0)
    assert rep.r_positive


def test_fixed_weight_oracle_fractions_below_bound():
    """Low-degree views can carry at most 2^-alpha of the edge mass."""
    rng = derive_rng(31)
    for _ in range(12):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, 7))
        code = random_code(GF(1), n, k, rng)
        e = int(rng.integers(0, n - k + 1)) if n > k else 0
        w = int(rng.integers(0, n - e + 1))
        rep = fixed_weight_oracle(code, e, w, alphas=(1.0, 2.0, 3.0))
        for b in rep.bounds:
            assert b.max_fraction <= b.bound + 1e-12
            assert b.aggregate_fraction <= b.max_fraction + 1e-12


def test_fixed_weight_oracle_validation():
    code = LinearCode.from_rows(GF(1), ((1, 1, 1),))
    with pytest.raises(ValueError):
        fixed_weight_oracle(code, 0, 4)
    with pytest.raises(ValueError):
        fixed_weight_oracle(code, 4, 0)
    # 2^25 outputs, one above the default budget
    big = LinearCode(Matrix.identity(GF(1), 25))
    with pytest.raises(EnumerationLimit):
        fixed_weight_oracle(big, 0, 12)
    # 4 edges, but the 2^12 outputs are what the oracle walks
    code12 = random_code(GF(1), 12, 2, derive_rng(34))
    with pytest.raises(EnumerationLimit):
        fixed_weight_oracle(code12, 0, 0, limit=64)
