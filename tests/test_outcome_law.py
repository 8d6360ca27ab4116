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
tails of that law at 1e-6 too.  The seeds were fixed before the first
run.
"""

import itertools
import math

import pytest

from otlab.adversary import detection_campaign, detection_sweep
from otlab.analysis import detection_rule
from otlab.channels import BscParams, derive_rng
from otlab.cli import cmd_run
from otlab.codes import LinearCode, code_to_json
from otlab.gf import GF
from otlab.linalg import Matrix

TAIL = 1e-6
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


@pytest.mark.parametrize("protocol, generator, phi, trials, seed", [
    ("p0", ((1, 1, 1, 1),), 0.3, 3000, 101),
    ("p0", EXTENDED_HAMMING_8_4, 0.15, 2000, 102),
    ("p0q", ((1, 1, 1, 1),), 0.3, 1000, 103),
    ("p0q", EXTENDED_HAMMING_8_4, 0.15, 700, 104),
], ids=["repetition-4-1", "extended-hamming-8-4", "p0q-repetition-4-1",
        "p0q-extended-hamming-8-4"])
def test_run_rates_follow_the_exact_law(protocol, generator, phi, trials,
                                        seed):
    code = LinearCode(Matrix(GF(1), generator))
    config = {"protocol": protocol, "phi": phi, "trials": trials,
              "code": code_to_json(code)}
    if protocol == "p0q":
        config["q"] = P0Q_SECRETS
        law = p0q_outcome_law(generator, phi, P0Q_SECRETS)
    else:
        law = p0_outcome_law(generator, phi)
    agg = cmd_run(config, seed)["aggregates"]
    for rate, prob in zip((agg["abort_rate"], agg["decode_failure_rate"]),
                          law):
        count = round(rate * trials)
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


@pytest.mark.parametrize("phi, n0, seed", [
    (0.198, 8, 121), (0.198, 15, 122), (0.1, 8, 123), (0.1, 15, 124)])
def test_detection_campaigns_follow_the_exact_law(phi, n0, seed):
    campaigns = [detection_campaign(DETECTION_ROUNDS, n0, phi, corrupted,
                                    DETECTION_TRIALS,
                                    derive_rng(seed, 0, i).numpy_generator())
                 for i, corrupted in enumerate(CORRUPTED_GRID)]
    sweep = detection_sweep(DETECTION_ROUNDS, n0, phi, CORRUPTED_GRID,
                            DETECTION_TRIALS,
                            derive_rng(seed, 1).numpy_generator())
    for rep in (*campaigns, *sweep.points):
        prob = accusation_law(rep.rule, rep.corrupted)
        count = round(rep.accusation_rate * rep.trials)
        low, high = binomial_tails(count, rep.trials, prob)
        assert min(low, high) > TAIL, (rep.corrupted, count, prob)
