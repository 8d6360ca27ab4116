"""Bob's request-mask audit the long way: the reference that the rank
audit of `otlab.adversary` is checked against.

For every compression pair (A, B) it tabulates the joint law of
(A s, B t, z = U s + V t) over all 4^r secret pairs with a numpy
bincount, and takes Shannon entropies from the counts as float
p log2 p sums.  The pairs are drawn exactly as the library draws them,
so a seeded run of both sees the same ensemble.
"""

import itertools

import numpy as np

from otlab.adversary import (DichotomyReport, MaskAudit,
                             _full_rank_row_sets)
from otlab.linalg import Matrix, full_rank_matrix, rank, weights
from otlab.proto_outer import cheat_matrix_V, compressed_length

# entropy gaps below this are float noise, neither side better protected
SIDE_TOLERANCE = 1e-9


def parity_lut(rows, states):
    """Packed GF(2) matrix-vector products on every state x (each below
    2^63): bit i of the result is parity(rows[i] & x)."""
    out = np.zeros(len(states), dtype=np.int64)
    for i, row in enumerate(rows):
        parity = weights((states & row)[:, None], 63) & 1
        out |= parity.astype(np.int64) << i
    return out


def row_entropies(counts):
    totals = counts.sum(axis=1, keepdims=True)
    p = counts / totals
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log2(p), 0.0)
    return -plogp.sum(axis=1)


def reference_audit(basis, margin, masks=None, pair_samples=None, rng=None):
    """The audit's report, and the per-pair entropy arrays
    (H(s~|t~,z), H(t~|s~,z)) of each distinct V in order of first use.
    No caps or budget: callers keep r and the pair count small."""
    f = basis.field
    r, n = basis.dimension, basis.length
    u_len = compressed_length(r, margin)
    if masks is None:
        masks = range(1 << n)
    if pair_samples is None:
        pairs = _full_rank_row_sets(r, u_len)
        pair_list = [(a, b) for a in pairs for b in pairs]
    else:
        draws = [full_rank_matrix(f, u_len, r, rng).packed
                 for _ in range(2 * pair_samples)]
        pair_list = list(zip(draws[::2], draws[1::2]))

    states = np.arange(1 << r, dtype=np.int64)
    lut_cache = {}
    for rows in itertools.chain.from_iterable(pair_list):
        if rows not in lut_cache:
            lut_cache[rows] = parity_lut(rows, states)
    # one packed (pair, s, t) -> joint-bin index array, reused per mask
    n_pairs = len(pair_list)
    bins = 1 << (r + 2 * u_len)
    s_part = np.stack([lut_cache[a] for a, _ in pair_list])
    t_part = np.stack([lut_cache[b] for _, b in pair_list])
    high = (s_part[:, :, None] << (r + u_len)) | (t_part[:, None, :] << r)
    offsets = (np.arange(n_pairs, dtype=np.int64) * bins)[:, None, None]

    cells = []
    mismatches = 0
    hist = {}
    by_v = {}
    entropies = []
    for mask in masks:
        v = cheat_matrix_V(basis.rows, mask)
        if v.packed not in by_v:
            u = v + Matrix.identity(f, r)
            z_s = parity_lut(u.packed, states)
            z_t = parity_lut(v.packed, states)
            z = z_s[:, None] ^ z_t[None, :]
            flat = (offsets + (high | z[None, :, :])).ravel()
            counts = np.bincount(flat, minlength=n_pairs * bins)
            cube = counts.reshape(n_pairs, 1 << u_len, 1 << u_len, 1 << r)
            h_stz = row_entropies(cube.reshape(n_pairs, bins))
            h_sz = row_entropies(cube.sum(axis=2).reshape(n_pairs, -1))
            h_tz = row_entropies(cube.sum(axis=1).reshape(n_pairs, -1))
            h_first = h_stz - h_tz
            h_second = h_stz - h_sz
            entropies.append((h_first, h_second))
            by_v[v.packed] = (rank(v), rank(u),
                              float(h_first.mean()), float(h_second.mean()))
        cell = MaskAudit(mask, *by_v[v.packed])
        hist[cell.rank_v] = hist.get(cell.rank_v, 0) + 1
        cells.append(cell)
        first, second = cell.mean_first, cell.mean_second
        observed = "second" if second >= first - SIDE_TOLERANCE else "first"
        if (cell.predicted_side(r) != observed
                and abs(first - second) > SIDE_TOLERANCE):
            mismatches += 1
    worst = min(c.predicted_entropy(r) for c in cells)
    report = DichotomyReport(
        outer_dim=r, compressed_len=u_len, margin=margin, cells=tuple(cells),
        worst_predicted=worst, slack_bits=u_len - worst,
        rank_histogram=dict(sorted(hist.items())),
        prediction_mismatches=mismatches)
    return report, entropies
