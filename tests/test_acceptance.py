"""Acceptance checklist: one test per shipped claim, one verdict line each.

Run with `pytest tests/test_acceptance.py -v` to get a pass/fail line per
criterion, or add -s to also see the computed numbers. Two criteria encode
reference values that the exact computation contradicts; they fail, on
purpose, with the honest numbers in the message (see the README's
acceptance section).
"""

import json
import math
import subprocess
import sys
import time
from itertools import product

from otlab.adversary import (audit_bob_strategies, detection_campaign,
                             detection_sweep)
from otlab.analysis import (fixed_weight_oracle, min_entropy_oracle,
                            optimize_rate_p0)
from otlab.channels import BscParams, derive_rng
from otlab.codes import (EnumerationLimit, LinearCode, OrthonormalCode,
                         cyclic_code, orthonormalize, puncture, random_code,
                         rs_code)
from otlab.gf import GF
from otlab.linalg import Matrix, random_matrix, rank, rref
from otlab.proto_outer import (OuterParams, cheat_matrix_V,
                               compressed_length, p2_alice_setup,
                               run_session)
from otlab.proto_p0 import MLDecoder, P0Params, chain_access_audit, p0_run
from tuple_reference import schur

C15_5_GEN = (1, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1)


def verdict(num, ok, detail):
    print(f"acceptance {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    return detail


def toy_basis(field):
    """[I_4 | ones]: orthonormal rows, 8 columns, over GF(2) or GF(4)."""
    rows = tuple(tuple(1 if j == i else 0 for j in range(4)) + (1, 1, 1, 1)
                 for i in range(4))
    return OrthonormalCode(Matrix(field, rows))


def span_basis(field, rows, length):
    m = Matrix(field, tuple(rows), ncols=length)
    red, pivots = rref(m)
    return list(red.rows[:len(pivots)])


def definitional_square(code):
    words = list(code.iter_codewords())
    prods = [schur(code.field, u, v) for u in words for v in words]
    rows = [p for p in prods if any(p)]
    return LinearCode.from_rows(code.field,
                                span_basis(code.field, rows, code.length))


def same_code(a, b):
    if a.length != b.length or a.dimension != b.dimension:
        return False
    aw = set(a.iter_codewords())
    return all(w in aw for w in b.iter_codewords())


def test_criterion_01_rate_optimum():
    start = time.perf_counter()
    phi_star, rate_star = optimize_rate_p0()
    elapsed = time.perf_counter() - start
    ok_phi = abs(phi_star - 0.198) <= 0.001
    ok_rate = abs(rate_star - 0.108) <= 0.001
    ok_time = elapsed < 1.0
    detail = verdict(1, ok_phi and ok_rate and ok_time,
                     f"phi*={phi_star:.6f} (want 0.198+-0.001), "
                     f"R0*={rate_star:.6f} (want 0.108+-0.001), "
                     f"{elapsed * 1e3:.2f} ms")
    assert ok_rate and ok_time, detail
    # the exact argmax of the shipped rate formula is 0.19385, which the
    # 0.198 +- 0.001 window cannot contain; asserted as stated regardless
    assert ok_phi, detail


def test_criterion_02_rate_table_two_sig_figs():
    proc = subprocess.run([sys.executable, "-m", "otlab", "rates"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    table = {row["q"]: row
             for row in json.loads(proc.stdout)["aggregates"]["table"]}
    got = (f"{table[2]['outer_rate']:.1e}", f"{table[2]['private_rate']:.1e}",
           f"{table[16]['outer_rate']:.1e}", f"{table[16]['private_rate']:.1e}")
    want = ("6.9e-05", "3.4e-05", "8.0e-04", "4.0e-04")
    ok = got == want
    detail = verdict(2, ok, f"chained rates {got}, reference {want}")
    assert ok, detail


def test_criterion_03_protocol_correctness():
    # 1-of-2 at desk scale: n0 = 15, phi = 0.1, exact ML on the [15,5] code
    code = cyclic_code(GF(1), 15, C15_5_GEN)
    channel = BscParams(0.1)
    params = P0Params(channel=channel, code=code,
                      secret_bits=1)
    bound = MLDecoder(code).failure_bound(channel.residual_error)
    rng = derive_rng(1003)
    sessions = 10_000
    hits = 0
    for _ in range(sessions):
        s1 = int(rng.integers(0, 2))  # one-bit packed secrets
        s2 = int(rng.integers(0, 2))
        want_first = bool(rng.integers(0, 2))
        out = p0_run(s1, s2, want_first, params, rng)
        if out.status == "ok" and out.output == (s1 if want_first else s2):
            hits += 1
    rate = hits / sessions
    ok_p0 = rate >= 0.99 and bound < 0.01

    # the four string variants must be exact on a noiseless channel
    inner1 = P0Params(channel=BscParams(0.0), code=code,
                      secret_bits=1)
    inner2 = P0Params(channel=BscParams(0.0), code=code,
                      secret_bits=2)
    f2, f4 = GF(1), GF(2)
    nine2 = OrthonormalCode(Matrix(f2, ((1,) * 9,)))
    nine4 = OrthonormalCode(Matrix(f4, ((1,) * 9,)))
    variants = {
        "p1": (OuterParams(basis=nine2, inner=inner1), f2, 1),
        "p1prime": (OuterParams(basis=toy_basis(f2), inner=inner1,
                                margin=0.25), f2, 1),
        "p2": (OuterParams(basis=nine4, inner=inner2), f4, 1),
        "p2prime": (OuterParams(basis=toy_basis(f4), inner=inner2,
                                margin=0.25), f4, 1),
    }
    exact = {}
    for name, (oparams, field, width) in variants.items():
        compressed = name.endswith("prime")
        nrows = (compressed_length(oparams.outer_dim, oparams.margin)
                 if compressed else oparams.outer_dim)
        good = 0
        for trial in range(300):
            trng = derive_rng(1004, name == "p2" or name == "p2prime",
                              name.endswith("prime"), trial)
            s = random_matrix(field, nrows, width, trng)
            t = random_matrix(field, nrows, width, trng)
            session = run_session(oparams, s, t, bool(trial % 2), trng)
            want = s if trial % 2 else t
            if session.status == "ok" and session.output.rows == want.rows:
                good += 1
        exact[name] = good
    ok_outer = all(v == 300 for v in exact.values())
    detail = verdict(3, ok_p0 and ok_outer,
                     f"p0 success {rate:.4f} of {sessions} (union bound "
                     f"{bound:.2e}); noiseless exact counts {exact} of 300")
    assert ok_p0 and ok_outer, detail


def test_criterion_04_min_entropy_mass():
    hamming_ext = LinearCode.from_rows(GF(1), (
        (1, 0, 0, 0, 0, 1, 1, 1),
        (0, 1, 0, 0, 1, 0, 1, 1),
        (0, 0, 1, 0, 1, 1, 0, 1),
        (0, 0, 0, 1, 1, 1, 1, 0)))
    rng = derive_rng(1042)
    longer = random_code(GF(1), 12, 6, rng)
    start = time.perf_counter()
    rep8 = min_entropy_oracle(hamming_ext, erasures=2, error_rate=0.1,
                              alpha=0.25)
    rep12 = min_entropy_oracle(longer, erasures=4, error_rate=0.1,
                               alpha=0.25)
    elapsed = time.perf_counter() - start
    ok_small = rep8.violating_mass < 0.1 and rep12.violating_mass < 0.1
    ok_decreasing = rep12.violating_mass < rep8.violating_mass
    ok_time = elapsed < 300.0
    detail = verdict(4, ok_small and ok_decreasing and ok_time,
                     f"violating mass [8,4]e=2: {rep8.violating_mass:.3e} "
                     f"(bound {rep8.bound_bits:.2f} bits), [12,6]e=4: "
                     f"{rep12.violating_mass:.3e} (bound "
                     f"{rep12.bound_bits:.2f} bits), {elapsed:.1f} s")
    assert ok_small and ok_time, detail
    # at alpha = 0.25 both bounds are negative, so both masses are exactly
    # zero and "strictly smaller" asks for 0 < 0; asserted as stated
    assert ok_decreasing, detail


def test_criterion_05_fixed_weight_fractions():
    rng = derive_rng(1005)
    checked = 0
    worst = 0.0
    for n in range(4, 9):
        for k in range(1, n + 1):
            code = random_code(GF(1), n, k, rng)
            for erasures in (0, 1):
                for weight in (1, 2):
                    if weight > n - erasures:
                        continue
                    try:
                        rep = fixed_weight_oracle(code, erasures, weight,
                                                  alphas=(1.0, 2.0, 3.0))
                    except EnumerationLimit:
                        continue
                    assert rep.total_edges <= 1 << 20
                    for entry in rep.bounds:
                        assert entry.bound == 2.0 ** -entry.alpha
                        assert entry.max_fraction <= entry.bound + 1e-12, (
                            n, k, erasures, weight, entry)
                        margin = entry.max_fraction / entry.bound
                        worst = max(worst, margin)
                    checked += 1
    ok = checked >= 40
    detail = verdict(5, ok,
                     f"{checked} exhaustive view graphs, all fractions "
                     f"within 2^-alpha (tightest at {worst:.3f} of bound)")
    assert ok, detail


def test_criterion_06_square_machinery():
    rng = derive_rng(1006)

    checked = 0
    while checked < 100:
        f = GF(int(rng.integers(1, 3)))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, 9))
        if f.order ** k > 1 << 12:
            continue
        code = random_code(f, n, k, rng)
        assert same_code(code.schur_square(), definitional_square(code))
        audit = code.audit()
        assert audit.d >= audit.d_hat
        checked += 1

    commuted = 0
    while commuted < 100:
        f = GF(int(rng.integers(1, 3)))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 2, 10))
        code = random_code(f, n, k, rng)
        room = min(code.min_distance(), code.square_distance())
        if room < 2:
            continue
        npos = int(rng.integers(1, room))
        pos = tuple(sorted(rng.permutation(n)[:npos]))
        assert same_code(puncture(code.schur_square(), pos),
                         puncture(code, pos).schur_square())
        commuted += 1

    containments = 0
    for degree in (3, 4):          # GF(8) and GF(16) evaluation codes
        f = GF(degree)
        n = f.order - 1
        for deg_g in range(1, (n - 1) // 2 + 1):
            sq = rs_code(f, deg_g).schur_square()
            high = rs_code(f, 2 * deg_g)
            stacked = Matrix(f, high.generator.rows + sq.generator.rows,
                             ncols=n)
            assert rank(stacked) == high.dimension
            containments += 1
    detail = verdict(6, True,
                     f"{checked} span equivalences with d >= d_hat, "
                     f"{commuted} puncture commutations, "
                     f"{containments} evaluation-code containments")
    assert checked == 100 and commuted == 100


def test_criterion_07_orthonormalization():
    rng = derive_rng(1007)
    done = {1: 0, 2: 0}
    want = {1: 50, 2: 50}
    while any(done[d] < want[d] for d in done):
        degree = 1 if done[1] < want[1] else 2
        f = GF(degree)
        k = int(rng.integers(2, 5 if degree == 1 else 4))
        n = int(rng.integers(k + 3, 14 if degree == 1 else 9))
        code = random_code(f, n, k, rng)
        audit = code.audit()
        if audit.d <= k:
            continue
        ortho, removed = orthonormalize(code)
        gram = ortho.rows @ ortho.rows.transpose()
        assert gram.rows == Matrix.identity(f, k).rows
        assert len(removed) <= k
        assert ortho.dimension == k
        assert ortho.base.square_distance() >= audit.d_hat - len(removed)
        done[degree] += 1
    detail = verdict(7, True,
                     f"{done[1]} binary and {done[2]} quaternary codes with "
                     "d > r: exact gram identity, <= r punctures, "
                     "dimension kept, square distance floor held")
    assert done == want


def test_criterion_08_reconstruction_and_cheat_matrix():
    f = GF(1)
    # setup identities on random instances
    basis = toy_basis(f)
    for trial in range(20):
        rng = derive_rng(1008, trial)
        s = random_matrix(f, 4, 1, rng)
        t = random_matrix(f, 4, 1, rng)
        x, ys = p2_alice_setup(s, t, basis, rng)
        assert (basis.rows @ x).rows == s.rows
        assert (basis.rows @ ys[0]).rows == t.rows

    # every dual-of-square mask recovers the requested secret, m in {1, 2}
    instances = [
        (toy_basis(f),
         P0Params(channel=BscParams(0.0),
                  code=cyclic_code(GF(1), 15, C15_5_GEN), secret_bits=1),
         1),
        (OrthonormalCode(Matrix(f, ((1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)))),
         P0Params(channel=BscParams(0.0),
                  code=cyclic_code(GF(1), 15, C15_5_GEN), secret_bits=2),
         2),
    ]
    masks_run = 0
    for basis, inner, width in instances:
        params = OuterParams(basis=basis, inner=inner)
        sq = basis.base.schur_square()
        dual = sq.dual_basis().packed
        for combo in product((0, 1), repeat=len(dual)):
            mask = 0
            for c, vec in zip(combo, dual):
                if c:
                    mask ^= vec
            for want_first in (True, False):
                rng = derive_rng(1009, masks_run, want_first)
                s = random_matrix(f, basis.dimension, width, rng)
                t = random_matrix(f, basis.dimension, width, rng)
                session = run_session(params, s, t, want_first, rng,
                                      request_mask=mask)
                assert session.status == "ok"
                want = s if want_first else t
                assert session.output.rows == want.rows
            masks_run += 1

    # cheat matrix against its definition, every mask, n = 8 and n = 9
    oracle_checked = 0
    for basis in (toy_basis(f), OrthonormalCode(Matrix(f, ((1,) * 9,)))):
        rows = basis.rows.rows
        r, n = basis.dimension, basis.length
        for bits in range(1 << n):
            u = tuple((bits >> i) & 1 for i in range(n))
            expect = tuple(tuple(
                sum(u[i] * rows[a][i] * rows[b][i] for i in range(n)) & 1
                for b in range(r)) for a in range(r))
            assert cheat_matrix_V(basis.rows, bits).rows == expect
            oracle_checked += 1
    detail = verdict(8, True,
                     f"20 setup identities, {masks_run} dual masks replayed "
                     f"on both sides, {oracle_checked} cheat matrices "
                     "matched the definition")
    assert masks_run == 8 + 16 and oracle_checked == 256 + 512


def test_criterion_09_detection_statistics():
    rng = derive_rng(1010).numpy_generator()
    trials = 1000
    honest = detection_campaign(900, 30, 0.198, 0, trials, rng)
    tracker = detection_campaign(900, 30, 0.198, 900, trials, rng)
    bound = honest.rule.false_accusation_bound
    slack = 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
    missed = 1.0 - tracker.accusation_rate
    ok_rates = (honest.accusation_rate < bound + slack
                and missed < bound + slack)

    sweep = detection_sweep(900, 30, 0.198, (0, 225, 450, 675, 900),
                            4000, rng)
    rel = abs(sweep.slope - sweep.expected_slope) / abs(sweep.expected_slope)
    ok_slope = rel <= 0.02
    detail = verdict(9, ok_rates and ok_slope,
                     f"false accusation {honest.accusation_rate:.4f} and "
                     f"missed detection {missed:.4f} vs bound {bound:.4f}"
                     f"+{slack:.4f}; unerased slope {sweep.slope:.4f} vs "
                     f"{sweep.expected_slope:.4f} ({rel * 100:.2f}% off)")
    assert ok_rates and ok_slope, detail


def test_criterion_10_request_dichotomy():
    start = time.perf_counter()
    rep = audit_bob_strategies(toy_basis(GF(1)), 0.25)
    elapsed = time.perf_counter() - start
    ok = (len(rep.cells) == 256
          and rep.slack_bits <= 0.25
          and rep.prediction_mismatches == 0
          and elapsed < 600.0)
    detail = verdict(10, ok,
                     f"256 request masks, worst protected side "
                     f"{rep.worst_predicted:.3f} of 1.0 bits (slack "
                     f"{rep.slack_bits:.3f} <= 0.25), "
                     f"{rep.prediction_mismatches} rank-rule mismatches, "
                     f"{elapsed:.1f} s")
    assert ok, detail


def test_criterion_11_chained_access_patterns():
    table = chain_access_audit(4, 2)
    honest_ok = True
    for index in range(4):
        if index < 3:
            pattern = tuple(0 if j == index else 1 for j in range(3))
        else:
            pattern = (1, 1, 1)
        honest_ok = honest_ok and table[pattern] == (index,)
    nobody_two = all(len(v) <= 1 for v in table.values())
    detail = verdict(11, honest_ok and nobody_two,
                     f"{len(table)} access patterns: honest ones pin "
                     "exactly their own secret, none pins two")
    assert honest_ok and nobody_two, detail
