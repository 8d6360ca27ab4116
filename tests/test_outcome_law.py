"""The exact outcome law of honest p0 and p0q sessions, against `run`.

An honest Bob keeps the first n0 cleanly received positions of the 2 n0
duplicated bits, so a session aborts exactly when fewer than n0 of them
survive: P(abort) = P(Bin(2 n0, 1 - eps) < n0).  Without an abort he
decodes y = c + e, where e has i.i.d. Bernoulli(p) entries (p the
residual error of a surviving symbol).  The distances from y to the
codewords are the weights of the coset e + C, so decoding fails exactly
when that coset has a tied minimum weight (MacWilliams & Sloane, ch. 1):
P(decode_failure | no abort) is the sum of p^wt(e) (1 - p)^(n0 - wt(e))
over those e.

A p0q trial runs q - 1 independent p0 sessions and reports the status
of the first one that is not ok.  With a = P(abort) and f =
P(decode_failure) for one session, some session fails with probability
1 - (1 - a - f)^(q - 1), and the first failure is an abort with
probability a / (a + f).

The oracle enumerates the 2^n0 error patterns; `run`'s counts must lie
inside both binomial tails at 1e-6.

The detection campaign counts surviving pairs over all 2 n n0 slots of
n rounds: an honest pair survives w.p. 1 - eps and a false one w.p. eps,
so with c of the slots corrupted Bob accuses Alice w.p. P(B1 + B2 <
threshold), where B1 ~ Bin(slots - c, 1 - eps) and B2 ~ Bin(c, eps).
Each campaign and each point of a sweep must lie inside both binomial
tails of that law at 1e-6 too.

Every 95% interval those reports and `run` carry must be the Wilson
interval of the report's own count, and the number of detection
intervals that hold the exact accusation law must lie inside both 1e-6
tails of Bin(intervals, 0.95).  (`run`'s interval is for the success
rate, whose law also needs the chance of a wrong decode; it is checked
as an interval only.)

The tracker plants c false pairs among the 2 n0 slots of one session.
With H ~ Bin(2 n0 - c, 1 - eps) clean honest slots and C ~ Bin(c, eps)
clean corrupt ones, Bob has enough exactly when H + C >= n0; the slots
are in uniform order, so his chosen set, the first n0 clean slots, then
holds X ~ Hypergeometric(H + C, C, n0) corrupt ones.  Alice names the
set with fewer corruptions as the chosen one and is right when X < c -
X; a tie goes to a coin.  The trial count, the ties and the wins must
lie inside both binomial tails at 1e-6, and the sample variance behind
the standard error inside the normal bound of the same tails around the
law's variance.  The seeds were fixed before the first run.
"""

import functools
import itertools
import math

import pytest

from otlab.adversary import (detection_campaign, detection_sweep,
                             tracker_advantage_p0)
from otlab.analysis import detection_rule, wilson_interval
from otlab.channels import BscParams, derive_rng
from otlab.cli import cmd_run
from otlab.codes import LinearCode, code_to_json
from otlab.gf import GF
from otlab.linalg import Matrix

TAIL = 1e-6
Z_TAIL = 4.8916  # the normal quantile with TAIL in its two tails
P0Q_SECRETS = 4

EXTENDED_HAMMING_8_4 = ((1, 0, 0, 0, 0, 1, 1, 1),
                        (0, 1, 0, 0, 1, 0, 1, 1),
                        (0, 0, 1, 0, 1, 1, 0, 1),
                        (0, 0, 0, 1, 1, 1, 1, 0))


def p0_outcome_law(generator, phi):
    """(P(abort), P(decode_failure)) of one honest p0 session."""
    n0 = len(generator[0])
    channel = BscParams(phi)
    eps, p = channel.erasure_rate, channel.residual_error
    p_abort = sum(math.comb(2 * n0, j) * (1 - eps) ** j * eps ** (2 * n0 - j)
                  for j in range(n0))
    codewords = {tuple(sum(c * row[i] for c, row in zip(coeffs, generator))
                       % 2 for i in range(n0))
                 for coeffs in itertools.product((0, 1),
                                                 repeat=len(generator))}
    p_tie = 0.0
    for e in itertools.product((0, 1), repeat=n0):
        weights = [sum(a ^ b for a, b in zip(e, c)) for c in codewords]
        if weights.count(min(weights)) > 1:
            wt = sum(e)
            p_tie += p ** wt * (1 - p) ** (n0 - wt)
    return p_abort, (1 - p_abort) * p_tie


def p0q_outcome_law(generator, phi, q):
    """(P(abort), P(decode_failure)) of one honest 1-of-q trial."""
    a, f = p0_outcome_law(generator, phi)
    some_failure = 1 - (1 - a - f) ** (q - 1)
    return a * some_failure / (a + f), f * some_failure / (a + f)


def binomial_pmf(trials, prob):
    """P(X = k) for k = 0 .. trials, X ~ Bin(trials, prob), from logs."""
    if prob in (0.0, 1.0):  # a point mass, whose log is -inf elsewhere
        return [float(k == trials * prob) for k in range(trials + 1)]
    return [math.exp(math.lgamma(trials + 1) - math.lgamma(k + 1)
                     - math.lgamma(trials - k + 1) + k * math.log(prob)
                     + (trials - k) * math.log1p(-prob))
            for k in range(trials + 1)]


def binomial_tails(count, trials, prob):
    """(P(X <= count), P(X >= count)) for X ~ Bin(trials, prob)."""
    pmf = binomial_pmf(trials, prob)
    return sum(pmf[:count + 1]), sum(pmf[count:])


def accusation_law(rule, corrupted):
    """P(B1 + B2 < threshold), B1 ~ Bin(slots - corrupted, 1 - eps) the
    surviving honest pairs and B2 ~ Bin(corrupted, eps) the surviving
    false ones: B1's CDF below the threshold minus each value of B2,
    weighted by that value's chance."""
    eps = BscParams(rule.crossover).erasure_rate
    top = math.ceil(rule.threshold) - 1  # the largest accused count
    honest_cdf = list(itertools.accumulate(
        binomial_pmf(rule.slots - corrupted, 1 - eps)))
    return sum(p * honest_cdf[min(top - j, len(honest_cdf) - 1)]
               for j, p in enumerate(binomial_pmf(corrupted, eps))
               if j <= top)


def tracker_law(block_len, phi, corrupted):
    """(P(enough), P(right | enough), P(tie | enough)) of the tracker:
    a double sum over the clean counts of the honest and the corrupt
    slots, and the hypergeometric count of corrupt slots among the
    first block_len clean ones."""
    eps = BscParams(phi).erasure_rate
    enough = right = tie = 0.0
    for h, p_h in enumerate(binomial_pmf(2 * block_len - corrupted, 1 - eps)):
        for f, p_f in enumerate(binomial_pmf(corrupted, eps)):
            if h + f < block_len:
                continue
            enough += p_h * p_f
            for x in range(max(0, block_len - h), min(f, block_len) + 1):
                p = (p_h * p_f * math.comb(f, x) * math.comb(h, block_len - x)
                     / math.comb(h + f, block_len))
                if 2 * x < corrupted:
                    right += p
                elif 2 * x == corrupted:
                    tie += p
    return enough, right / enough, tie / enough


def test_oracle_on_the_four_bit_repetition_code():
    # a tie is exactly a weight-2 error: 6 of the 16 patterns
    phi = 0.3
    p = BscParams(phi).residual_error
    p_abort, p_fail = p0_outcome_law(((1, 1, 1, 1),), phi)
    assert p_fail == pytest.approx(
        (1 - p_abort) * 6 * p ** 2 * (1 - p) ** 2, rel=1e-12)


def test_p0q_law_matches_enumerated_session_statuses():
    # every sequence of q - 1 session statuses, weighted by its chance
    a, f = p0_outcome_law(EXTENDED_HAMMING_8_4, 0.15)
    for q in (2, 3, 4, 6):
        law = {"abort": 0.0, "decode_failure": 0.0}
        for statuses in itertools.product(("ok", "abort", "decode_failure"),
                                          repeat=q - 1):
            chance = math.prod({"ok": 1 - a - f, "abort": a,
                                "decode_failure": f}[s] for s in statuses)
            first = next((s for s in statuses if s != "ok"), "ok")
            if first != "ok":
                law[first] += chance
        assert p0q_outcome_law(EXTENDED_HAMMING_8_4, 0.15, q) == pytest.approx(
            (law["abort"], law["decode_failure"]), rel=1e-12)


def exact_count(rate, trials):
    """The count behind a reported rate, checked to be rate * trials
    exactly."""
    count = round(rate * trials)
    assert count / trials == rate, (rate, trials)
    return count


RUN_CASES = {
    "repetition-4-1": ("p0", ((1, 1, 1, 1),), 0.3, 3000, 101),
    "extended-hamming-8-4": ("p0", EXTENDED_HAMMING_8_4, 0.15, 2000, 102),
    "p0q-repetition-4-1": ("p0q", ((1, 1, 1, 1),), 0.3, 1000, 103),
    "p0q-extended-hamming-8-4": ("p0q", EXTENDED_HAMMING_8_4, 0.15, 700, 104),
}


@functools.cache
def run_case(protocol, generator, phi, trials, seed):
    """`run`'s aggregates and the exact (P(abort), P(decode_failure))."""
    code = LinearCode(Matrix(GF(1), generator))
    config = {"protocol": protocol, "phi": phi, "trials": trials,
              "code": code_to_json(code)}
    if protocol == "p0q":
        config["q"] = P0Q_SECRETS
        law = p0q_outcome_law(generator, phi, P0Q_SECRETS)
    else:
        law = p0_outcome_law(generator, phi)
    return cmd_run(config, seed)["aggregates"], law


@pytest.mark.parametrize("case", RUN_CASES.values(), ids=RUN_CASES.keys())
def test_run_rates_follow_the_exact_law(case):
    agg, law = run_case(*case)
    trials = agg["trials"]
    for rate, prob in zip((agg["abort_rate"], agg["decode_failure_rate"]),
                          law):
        count = exact_count(rate, trials)
        low, high = binomial_tails(count, trials, prob)
        assert min(low, high) > TAIL, (count, trials, prob)


def test_accusation_law_against_the_pmf_convolution():
    # the two values quoted for phi 0.198, n0 15 and n 225
    rule = detection_rule(225, 15, 0.198)
    assert accusation_law(rule, 225) == pytest.approx(0.8601127, abs=1e-7)
    assert accusation_law(rule, 0) == pytest.approx(0.1433675, abs=1e-7)
    # the full convolution of the two pmfs on a small case
    rule = detection_rule(3, 4, 0.2)
    eps = BscParams(0.2).erasure_rate
    for corrupted in (0, 1, 7, rule.slots):
        honest = binomial_pmf(rule.slots - corrupted, 1 - eps)
        false = binomial_pmf(corrupted, eps)
        want = sum(a * b for i, a in enumerate(honest)
                   for j, b in enumerate(false) if i + j < rule.threshold)
        assert accusation_law(rule, corrupted) == pytest.approx(
            want, rel=1e-12)


DETECTION_ROUNDS = 225
DETECTION_TRIALS = 4000
CORRUPTED_GRID = (0, 120, 225)


DETECTION_CASES = ((0.198, 8, 121), (0.198, 15, 122), (0.1, 8, 123),
                   (0.1, 15, 124))


@functools.cache
def detection_reports(phi, n0, seed):
    """One campaign per corruption count, then one sweep over them."""
    campaigns = [detection_campaign(DETECTION_ROUNDS, n0, phi, corrupted,
                                    DETECTION_TRIALS,
                                    derive_rng(seed, 0, i).numpy_generator())
                 for i, corrupted in enumerate(CORRUPTED_GRID)]
    sweep = detection_sweep(DETECTION_ROUNDS, n0, phi, CORRUPTED_GRID,
                            DETECTION_TRIALS,
                            derive_rng(seed, 1).numpy_generator())
    return (*campaigns, *sweep.points)


@pytest.mark.parametrize("phi, n0, seed", DETECTION_CASES)
def test_detection_campaigns_follow_the_exact_law(phi, n0, seed):
    for rep in detection_reports(phi, n0, seed):
        prob = accusation_law(rep.rule, rep.corrupted)
        count = exact_count(rep.accusation_rate, rep.trials)
        low, high = binomial_tails(count, rep.trials, prob)
        assert min(low, high) > TAIL, (rep.corrupted, count, prob)


def test_reported_intervals_are_wilson_and_cover_the_exact_law():
    """Each detection report's ci_95 and `run`'s ci_95 (for the success
    rate) is wilson_interval of the report's own count; the detection
    intervals that hold the accusation law number inside both 1e-6 tails
    of Bin(intervals, 0.95)."""
    for case in RUN_CASES.values():
        agg, _ = run_case(*case)
        count = exact_count(agg["success_rate"], agg["trials"])
        assert agg["ci_95"] == list(wilson_interval(count, agg["trials"]))
    covered = cases = 0
    for phi, n0, seed in DETECTION_CASES:
        for rep in detection_reports(phi, n0, seed):
            count = exact_count(rep.accusation_rate, rep.trials)
            assert rep.ci_95 == wilson_interval(count, rep.trials)
            lo, hi = rep.ci_95
            covered += lo <= accusation_law(rep.rule, rep.corrupted) <= hi
            cases += 1
    assert cases == 4 * 6
    low, high = binomial_tails(covered, cases, 0.95)
    assert min(low, high) > TAIL, (covered, cases)


def test_tracker_law_against_enumeration():
    # the quoted default (phi 0.198, n0 15, one corrupt slot)
    enough, right, tie = tracker_law(15, 0.198, 1)
    assert (enough, right + tie / 2 - 0.5, tie) == pytest.approx(
        (0.983908, 0.266228, 0.0), abs=5e-7)
    # every erasure pattern of 6 slots in every order: honest slots are
    # 0 .. 5 - c, and the chosen set is the first 3 clean slots in order
    n0, phi = 3, 0.2
    eps = BscParams(phi).erasure_rate
    for corrupted in (1, 2, 3):
        honest = 2 * n0 - corrupted
        want = [0.0, 0.0, 0.0]
        orders = list(itertools.permutations(range(2 * n0)))
        for erased in itertools.product((False, True), repeat=2 * n0):
            chance = math.prod(
                (eps if e else 1 - eps) if slot < honest
                else (1 - eps if e else eps)
                for slot, e in enumerate(erased))
            for order in orders:
                chosen = [slot for slot in order if not erased[slot]][:n0]
                if len(chosen) < n0:
                    continue
                x = sum(slot >= honest for slot in chosen)
                want[0] += chance / len(orders)
                want[1] += chance / len(orders) * (2 * x < corrupted)
                want[2] += chance / len(orders) * (2 * x == corrupted)
        law = tracker_law(n0, phi, corrupted)
        assert law == pytest.approx(
            (want[0], want[1] / want[0], want[2] / want[0]), rel=1e-12)


TRACKER_TRIALS = 20000


@pytest.mark.parametrize("n0, phi, corrupted, seed", [
    (15, 0.198, 1, 131), (15, 0.198, 2, 132), (8, 0.1, 4, 133),
    (6, 0.3, 5, 134)])
def test_tracker_follows_the_exact_law(n0, phi, corrupted, seed):
    enough, right, tie = tracker_law(n0, phi, corrupted)
    rep = tracker_advantage_p0(n0, phi, corrupted, TRACKER_TRIALS,
                               derive_rng(seed).numpy_generator())
    n = rep.trials
    ties = round(rep.tie_rate * n)
    wins = round((rep.advantage + 0.5) * n - ties / 2)
    assert (wins + ties / 2) / n - 0.5 == pytest.approx(rep.advantage,
                                                        abs=1e-12)
    for count, trials, prob in ((n, TRACKER_TRIALS, enough),
                                (ties, n, tie), (wins, n, right)):
        low, high = binomial_tails(count, trials, prob)
        assert min(low, high) > TAIL, (count, trials, prob)
    # a trial scores 1, 1/2 or 0; its sample variance s^2 has variance
    # about (mu4 - sigma^4) / n around sigma^2 (the delta method)
    scores = ((1.0, right), (0.5, tie), (0.0, 1 - right - tie))
    mean = sum(v * p for v, p in scores)
    var = sum((v - mean) ** 2 * p for v, p in scores)
    mu4 = sum((v - mean) ** 4 * p for v, p in scores)
    sample_var = rep.std_error ** 2 * n
    assert abs(sample_var - var) <= Z_TAIL * math.sqrt((mu4 - var ** 2) / n)
