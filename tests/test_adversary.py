"""Corruption detection, choice tracking, and the mask-posterior audits."""

import math
import tracemalloc

import numpy as np
import pytest

from otlab.adversary import (TRACKER_BLOCK_ROWS, AdvantageReport,
                             audit_bob_strategies, detection_campaign,
                             detection_sweep, simulate_unerased_counts,
                             tracker_advantage_p0)
from otlab.analysis import detection_rule, expected_unerased
from otlab.channels import BscParams, derive_rng
from otlab.codes import EnumerationLimit, OrthonormalCode
from otlab.gf import GF
from otlab.linalg import Matrix
from otlab.proto_outer import cheat_matrix_V

from false_pairs import transmit_with_false_pairs
from tuple_reference import ERASED

# crossover with erasure rate exactly 0.3: 2 phi (1 - phi) = 0.3
PHI_EPS_03 = (1.0 - math.sqrt(0.4)) / 2.0


def toy_basis():
    rows = tuple(tuple(1 if j == i else 0 for j in range(4)) + (1, 1, 1, 1)
                 for i in range(4))
    return OrthonormalCode(Matrix(GF(1), rows))


def test_detection_rule_worked_example():
    rule = detection_rule(100, 10, PHI_EPS_03, 1.0)
    assert rule.slots == 2000
    assert rule.eta == pytest.approx(0.01, rel=1e-12)
    assert rule.threshold == pytest.approx(1380.0, rel=1e-12)
    assert rule.false_accusation_bound == pytest.approx(math.exp(-0.4),
                                                        rel=1e-12)
    assert 1379 < rule.threshold <= 1380


def test_detection_rule_frozen_batch_parameters():
    rule = detection_rule(900, 30, 0.198, 1.0)
    assert rule.slots == 54000
    assert rule.eta == pytest.approx(0.0030401333333333, rel=1e-10)
    assert rule.threshold == pytest.approx(36685.8648, rel=1e-10)
    assert rule.false_accusation_bound == pytest.approx(0.368549460969056,
                                                        rel=1e-10)


def test_detection_rule_zero_confidence_sits_at_honest_mean():
    rule = detection_rule(50, 10, 0.198, 0.0)
    assert rule.eta == 0.0
    assert rule.threshold == pytest.approx(
        rule.slots * (1.0 - BscParams(0.198).erasure_rate))
    assert rule.false_accusation_bound == 1.0


def test_expected_unerased_linear_in_corruptions():
    eps = BscParams(0.198).erasure_rate
    base = expected_unerased(10, 15, 0.198, 0)
    assert base == pytest.approx(300 * (1.0 - eps))
    for m in (1, 5, 20):
        drop = base - expected_unerased(10, 15, 0.198, m)
        assert drop == pytest.approx(m * (1.0 - 2.0 * eps), rel=1e-12)


def test_simulate_counts_match_expectation():
    rng = derive_rng(90).numpy_generator()
    for corrupted in (0, 40, 200):
        counts = simulate_unerased_counts(20, 10, 0.198, corrupted, 4000, rng)
        assert counts.shape == (4000,)
        want = expected_unerased(20, 10, 0.198, corrupted)
        sigma = math.sqrt(400 * 0.25)   # loose per-draw bound, 400 slots
        assert abs(float(counts.mean()) - want) < 5 * sigma / math.sqrt(4000)


def test_simulate_counts_noiseless_exact():
    rng = derive_rng(91).numpy_generator()
    counts = simulate_unerased_counts(5, 10, 0.0, 30, 100, rng)
    assert (counts == 70).all()
    with pytest.raises(ValueError):
        simulate_unerased_counts(5, 10, 0.0, 101, 10, rng)


def test_transmit_with_false_pairs_noiseless():
    rng = derive_rng(92)
    bits = (0, 1, 1, 0, 1)
    word = transmit_with_false_pairs(bits, (1, 3), 0.0, rng)
    assert word[1] == ERASED and word[3] == ERASED
    for i in (0, 2, 4):
        assert word[i] == bits[i]


def test_transmit_with_false_pairs_matches_binomial_model():
    """Channel-level survival rates agree with the two-binomial shortcut."""
    rng = derive_rng(93)
    phi = 0.198
    eps = BscParams(phi).erasure_rate
    n, trials = 40, 2500
    corrupt = tuple(range(10))
    honest_survive = corrupt_survive = 0
    for _ in range(trials):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
        word = transmit_with_false_pairs(bits, corrupt, phi, rng)
        for i in range(n):
            if word[i] != ERASED:
                if i < 10:
                    corrupt_survive += 1
                else:
                    honest_survive += 1
    h_total = trials * 30
    c_total = trials * 10
    sig_h = math.sqrt(h_total * eps * (1 - eps))
    sig_c = math.sqrt(c_total * eps * (1 - eps))
    assert abs(honest_survive - h_total * (1 - eps)) < 5 * sig_h
    assert abs(corrupt_survive - c_total * eps) < 5 * sig_c


def test_detection_campaign_honest_rate_below_bound():
    rng = derive_rng(94).numpy_generator()
    rep = detection_campaign(30, 15, 0.198, 0, 3000, rng)
    assert rep.corrupted == 0
    # Hoeffding bound plus 5 sigma of Monte-Carlo noise
    limit = rep.rule.false_accusation_bound
    assert rep.accusation_rate <= limit + 5 * math.sqrt(0.25 / 3000)
    assert rep.ci_95[0] <= rep.accusation_rate <= rep.ci_95[1]
    assert rep.mean_unerased == pytest.approx(rep.expected_mean, rel=0.01)


def test_detection_campaign_heavy_corruption_always_caught():
    rng = derive_rng(95).numpy_generator()
    slots = 2 * 30 * 15
    rep = detection_campaign(30, 15, 0.198, slots // 2, 500, rng)
    assert rep.accusation_rate == 1.0


def test_detection_sweep_slope():
    rng = derive_rng(96).numpy_generator()
    grid = (0, 100, 200, 400)
    rep = detection_sweep(60, 15, 0.198, grid, 2000, rng)
    assert tuple(p.corrupted for p in rep.points) == grid
    eps = BscParams(0.198).erasure_rate
    assert rep.expected_slope == pytest.approx(-(1 - 2 * eps))
    assert rep.slope == pytest.approx(rep.expected_slope, rel=0.05)


def test_tracker_advantage_no_corruption_is_coin_flip():
    rng = derive_rng(97).numpy_generator()
    rep = tracker_advantage_p0(15, 0.198, 0, 2000, rng)
    assert rep.advantage == 0.0
    assert rep.tie_rate == 1.0
    assert rep.trials <= 2000


def test_tracker_advantage_noiseless_corruption_is_total():
    """At phi = 0 every corrupt slot erases, landing in the unchosen set."""
    rng = derive_rng(98).numpy_generator()
    rep = tracker_advantage_p0(15, 0.0, 10, 500, rng)
    assert rep.advantage == pytest.approx(0.5)
    assert rep.tie_rate == 0.0
    assert rep.trials == 500


def test_tracker_advantage_grows_with_corruptions():
    rng = derive_rng(99).numpy_generator()
    small = tracker_advantage_p0(15, 0.198, 2, 20000, rng)
    large = tracker_advantage_p0(15, 0.198, 15, 20000, rng)
    assert large.advantage > small.advantage
    assert large.advantage > 5 * large.std_error
    with pytest.raises(ValueError):
        tracker_advantage_p0(15, 0.198, 31, 10, rng)


def _tracker_one_shot(block_len, phi, corrupted, trials, rng):
    """The tracker kernel as it was before row blocks: whole-array draws."""
    slots = 2 * block_len
    eps = BscParams(phi).erasure_rate
    u = rng.random(size=(trials, slots))
    erased = np.empty((trials, slots), dtype=bool)
    erased[:, :slots - corrupted] = u[:, :slots - corrupted] < eps
    erased[:, slots - corrupted:] = u[:, slots - corrupted:] < 1.0 - eps
    perm = np.argsort(rng.random(size=(trials, slots)), axis=1)
    corrupt_mask = np.zeros((trials, slots), dtype=bool)
    corrupt_mask[perm >= slots - corrupted] = True
    erased = np.take_along_axis(erased, perm, axis=1)
    clean = ~erased
    enough = clean.sum(axis=1) >= block_len
    order = np.cumsum(clean, axis=1)
    in_chosen = clean & (order <= block_len)
    corrupt_in_chosen = (in_chosen & corrupt_mask).sum(axis=1)
    rest = corrupted - corrupt_in_chosen
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


def test_row_blocks_of_one_stream_are_one_draw():
    """The fact the blocked tracker rests on: consecutive (a, s) and (b, s)
    uniform draws are the rows of one (a + b, s) draw."""
    for a, b, s in ((1, 1, 4), (3, 5, 30), (TRACKER_BLOCK_ROWS, 7, 126)):
        whole = derive_rng(a, b).numpy_generator().random((a + b, s))
        rng = derive_rng(a, b).numpy_generator()
        assert np.array_equal(whole, np.vstack([rng.random((a, s)),
                                                rng.random((b, s))]))


def test_tracker_advantage_blocks_match_one_shot_reference():
    """Same report and same stream position as the whole-array kernel, at
    block edges, for every corruption level from none to every slot."""
    block = TRACKER_BLOCK_ROWS
    cases = []
    for trials in (1, block - 1, block, block + 1, 3 * block + 7):
        for seed in (0, 1):
            cases += [(n0, phi, c, trials, seed)
                      for n0 in (2, 15, 30, 63) for phi in (0.0, 0.198)
                      for c in (0, 1, n0, 2 * n0)]
    # the benchmark's size, each n0, phi and corruption level once
    cases += [(n0, phi, c, 16000, 3) for n0, phi, c in
              ((2, 0.0, 0), (15, 0.198, 1), (30, 0.198, 30), (63, 0.0, 126))]
    cases.append((130, 0.198, 130, 3 * block + 7, 3))  # over 255 slots
    for i, (n0, phi, c, trials, seed) in enumerate(cases):
        got_rng = derive_rng(seed, i).numpy_generator()
        want_rng = derive_rng(seed, i).numpy_generator()
        got = tracker_advantage_p0(n0, phi, c, trials, got_rng)
        want = _tracker_one_shot(n0, phi, c, trials, want_rng)
        assert got == want, (n0, phi, c, trials, seed)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("trials", [16000, 64000])
def test_tracker_advantage_memory_is_a_byte_per_slot(trials):
    """One bool per slot plus per-trial scalars and one block; a single
    trials x 2 n0 array of floats or indices would break the bound."""
    n0 = 30
    tracemalloc.start()
    try:
        tracker_advantage_p0(n0, 0.198, 30, trials,
                             derive_rng(5).numpy_generator())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < trials * (2 * n0 + 64) + 4 * 2**20


def test_audit_bob_strategies_toy_dichotomy():
    """Frozen full audit of the 8-round toy basis at margin 1/4."""
    rep = audit_bob_strategies(toy_basis(), 0.25)
    assert rep.outer_dim == 4
    assert rep.compressed_len == 1
    assert [cell.mask for cell in rep.cells] == list(range(256))
    assert rep.worst_predicted == pytest.approx(0.8, abs=1e-9)
    assert rep.slack_bits == pytest.approx(0.2, abs=1e-9)
    assert rep.prediction_mismatches == 0
    assert rep.rank_histogram == {0: 8, 1: 40, 2: 80, 3: 80, 4: 48}
    for cell in rep.cells:
        assert 0.0 <= cell.mean_first <= 1.0 + 1e-9
        assert 0.0 <= cell.mean_second <= 1.0 + 1e-9
        side = cell.predicted_side(4)
        assert side in ("first", "second")
        assert cell.predicted_entropy(4) == (
            cell.mean_second if side == "second" else cell.mean_first)


def test_audit_bob_strategies_dual_masks_only():
    """Masks with V = 0 leave the second secret perfectly hidden."""
    basis = toy_basis()
    sq = basis.base.schur_square()
    dual = sq.dual_basis().packed
    masks = []
    for x in range(1 << len(dual)):
        acc = 0
        for i, vec in enumerate(dual):
            if (x >> i) & 1:
                acc ^= vec
        masks.append(acc)
    rep = audit_bob_strategies(basis, 0.25, masks=masks)
    assert len(rep.cells) == 8
    assert rep.worst_predicted == pytest.approx(1.0, abs=1e-9)
    assert rep.slack_bits == pytest.approx(0.0, abs=1e-9)
    for cell in rep.cells:
        assert cell.rank_v == 0
        assert cell.rank_u == 4
        assert cell.mean_first == pytest.approx(0.0, abs=1e-9)
        assert cell.mean_second == pytest.approx(1.0, abs=1e-9)


def test_posterior_cell_zero_v_protects_second():
    """The zero mask gives V = 0 and U = I: z reveals s, t stays hidden."""
    rep = audit_bob_strategies(toy_basis(), 0.25, masks=[0])
    (cell,) = rep.cells
    assert cell.rank_v == 0
    assert cell.rank_u == 4
    assert cell.mean_first == pytest.approx(0.0, abs=1e-9)
    assert cell.mean_second == pytest.approx(1.0, abs=1e-9)
    assert max(cell.mean_first, cell.mean_second) == pytest.approx(1.0)


def test_audit_bob_strategies_identity_v_protects_first():
    """The all-ones mask gives V = H H^T = I and U = 0: z reveals t."""
    rep = audit_bob_strategies(toy_basis(), 0.25, masks=[(1 << 8) - 1])
    (cell,) = rep.cells
    assert cell.rank_v == 4
    assert cell.rank_u == 0
    assert cell.mean_first == pytest.approx(1.0, abs=1e-9)
    assert cell.mean_second == pytest.approx(0.0, abs=1e-9)


def test_audit_bob_strategies_sampled_pairs_close_to_exact():
    basis = toy_basis()
    exact = audit_bob_strategies(basis, 0.25, masks=[1])
    sampled = audit_bob_strategies(basis, 0.25, masks=[1],
                                   pair_samples=400, rng=derive_rng(101))
    e, s = exact.cells[0], sampled.cells[0]
    assert abs(e.mean_first - s.mean_first) < 0.1
    assert abs(e.mean_second - s.mean_second) < 0.1
    with pytest.raises(ValueError):
        audit_bob_strategies(basis, 0.25, pair_samples=5)


def test_audit_bob_strategies_cells_match_one_mask_audits():
    """Masks sharing V share one posterior; every cell still equals the
    audit of its mask alone (the same seed draws the same pairs), and the
    histogram counts masks, not distinct V."""
    rows = ((1, 0, 0, 0, 1, 1, 0, 0), (0, 1, 0, 0, 1, 1, 0, 0),
            (0, 0, 1, 0, 0, 0, 1, 1), (0, 0, 0, 1, 0, 0, 1, 1))
    basis = OrthonormalCode(Matrix(GF(1), rows))
    full = audit_bob_strategies(basis, 0.25, pair_samples=3,
                                rng=derive_rng(7))
    assert len(full.cells) == 256
    distinct = {cheat_matrix_V(basis.rows, c.mask).rows for c in full.cells}
    assert len(distinct) < len(full.cells)
    ranks: dict[int, int] = {}
    for cell in full.cells:
        alone = audit_bob_strategies(basis, 0.25, masks=[cell.mask],
                                     pair_samples=3, rng=derive_rng(7))
        assert alone.cells == (cell,)
        ranks[cell.rank_v] = ranks.get(cell.rank_v, 0) + 1
    assert full.rank_histogram == dict(sorted(ranks.items()))
    assert sum(full.rank_histogram.values()) == 256


def test_posterior_cell_validation():
    """A one-mask audit is refused over GF(4) and runs at r = 15 with
    sampled pairs.  On the identity basis the all-ones mask gives V = I,
    U = 0 (z reveals t) and the zero mask V = 0, U = I (z reveals s)."""
    gf4 = OrthonormalCode(Matrix.identity(GF(2), 2))
    with pytest.raises(ValueError, match="binary only"):
        audit_bob_strategies(gf4, 0.25, masks=[1])
    r15 = OrthonormalCode(Matrix.identity(GF(1), 15))
    rep = audit_bob_strategies(r15, 0.3, masks=[(1 << 15) - 1, 0],
                               pair_samples=4, rng=derive_rng(15))
    assert rep.compressed_len == 3
    assert [(c.rank_v, c.rank_u, c.mean_first, c.mean_second)
            for c in rep.cells] == [(15, 0, 3.0, 0.0), (0, 15, 0.0, 3.0)]
    assert rep.slack_bits == 0.0 and rep.prediction_mismatches == 0


def test_audit_bob_strategies_rejects_masks_outside_the_range():
    """A mask is a packed word of n bits, 0 .. 2^n - 1: a wider or
    negative int and a tuple of symbols are refused before any work, as
    cheat_matrix_V refuses them, instead of being read bit by bit."""
    basis = toy_basis()
    for bad in ((2,) * 8, (3,) * 8, (-1,) * 8, 1 << 8, -1, 1 << 9 | 3):
        with pytest.raises(ValueError, match="packed word of 8"):
            audit_bob_strategies(basis, 0.25, masks=[bad])


def test_audit_bob_strategies_validation():
    big = OrthonormalCode(Matrix.identity(GF(1), 17))
    with pytest.raises(EnumerationLimit,
                       match=r"^n=17 exceeds the request-mask audit's cap "
                             r".*; --enum-limit cannot raise it$"):
        audit_bob_strategies(big, 0.25)
    gf4 = OrthonormalCode(Matrix.identity(GF(2), 2))
    with pytest.raises(ValueError):
        audit_bob_strategies(gf4, 0.25)
    # 4095^3 compression matrices: refused before any is enumerated and
    # before the budget check
    whole = OrthonormalCode(Matrix.identity(GF(1), 12))
    with pytest.raises(ValueError, match="pass pair_samples"):
        audit_bob_strategies(whole, 0.25, limit=1 << 36)
