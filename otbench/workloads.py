"""The benchmark's workloads: generated inputs, otlab commands and checks.

Inputs depend only on the workload seed and are generated here, without
otlab's own random draws, so every commit sees the same inputs for a seed.
Each check reads a report (and any CSV it names) and returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1, coefficient of x^i at index i
GOLAY_POLY = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)
WIDE_N, WIDE_K, WIDE_DRAWS = 20, 16, 8
WIDE_PHI = 0.02
TRACKER_PHI = 0.198           # otlab's default attack crossover
TRACKER_N, TRACKER_N0 = 900, 30
SWEEP_GRID = (0, 225, 450, 675, 900)
RATE_TABLE = ("6.9e-05", "3.4e-05", "8.0e-04", "4.0e-04")   # criterion 2


@dataclass
class Command:
    """One otlab CLI invocation (without --seed and --out)."""

    name: str
    args: list
    check: Callable[[dict], list]
    sessions: bool = False     # a `run`: session throughput applies


@dataclass
class Workload:
    name: str
    why: str
    trials: int     # per `run` invocation; on audit, per tracker campaign
    make: Callable = field(repr=False)   # (workdir, seed, trials) -> [Command]


# -- generated inputs --------------------------------------------------------

def gf2_rref(rows, n: int) -> list[int]:
    """Reduced row echelon form of packed rows (bit i is column i), lowest
    pivot column first; dependent rows come out as zeros at the end."""
    rows = list(rows)
    top = 0
    for col in range(n):
        pick = next((i for i in range(top, len(rows)) if rows[i] >> col & 1), None)
        if pick is None:
            continue
        rows[top], rows[pick] = rows[pick], rows[top]
        for i in range(len(rows)):
            if i != top and rows[i] >> col & 1:
                rows[i] ^= rows[top]
        top += 1
    return rows


def weight_distribution(rows, n: int) -> list[int]:
    """A_w for w = 0..n of the binary code spanned by packed `rows`."""
    counts = [0] * (n + 1)
    counts[0] = 1
    word = 0
    for m in range(1, 1 << len(rows)):
        word ^= rows[(m & -m).bit_length() - 1]
        counts[word.bit_count()] += 1
    return counts


def wide_code(seed: int) -> tuple[dict, list[int]]:
    """Best of WIDE_DRAWS random full-rank [20,16] codes: largest d, then
    fewest minimum-weight words.  Returns (code JSON, weight distribution).

    The generator is written in reduced row echelon form: decoder set-up
    time grows with the weight of the first generator rows, and a random
    basis would make it vary from seed to seed by a quarter."""
    rng = random.Random(f"p0-wide-code/{seed}")
    best = None
    for _ in range(WIDE_DRAWS):
        while True:
            rows = gf2_rref([rng.getrandbits(WIDE_N) for _ in range(WIDE_K)],
                            WIDE_N)
            if all(rows):
                break
        dist = weight_distribution(rows, WIDE_N)
        d = next(w for w in range(1, WIDE_N + 1) if dist[w])
        key = (d, -dist[d])
        if best is None or key > best[0]:
            best = (key, rows, dist)
    _, rows, dist = best
    generator = [(r >> i) & 1 for r in rows for i in range(WIDE_N)]
    return ({"field_degree": 1, "n": WIDE_N, "k": WIDE_K,
             "generator": generator}, dist)


def golay_code() -> dict:
    """The [23,12] cyclic Golay code, built by otlab's cyclic_code."""
    from otlab.codes import code_to_json, cyclic_code
    from otlab.gf import GF
    return code_to_json(cyclic_code(GF(1), 23, GOLAY_POLY))


def residual_error(phi: float) -> float:
    eps = 2.0 * phi * (1.0 - phi)
    return phi * phi / (1.0 - eps)


def binomial_ceiling(trials: int, rate: float, alpha: float = 1e-6) -> int:
    """Fewest failures f with P(Binomial(trials, rate) > f) < alpha."""
    tail = 1.0
    for f in range(trials + 1):
        tail -= math.comb(trials, f) * rate ** f * (1.0 - rate) ** (trials - f)
        if tail < alpha:
            return f
    return trials


def ml_failure_bound(dist: list[int], p: float) -> float:
    """Union bound on ML decoding failure over BSC(p), ties as failures."""
    total = 0.0
    for w, a in enumerate(dist):
        if w and a:
            total += a * sum(math.comb(w, j) * p ** j * (1.0 - p) ** (w - j)
                             for j in range((w + 1) // 2, w + 1))
    return min(total, 1.0)


# -- checks ------------------------------------------------------------------

def _need(ok: bool, message: str) -> list:
    return [] if ok else [message]


def check_success(floor: float, trials: int, transcripts: int = 0):
    def check(report: dict) -> list:
        agg = report["aggregates"]
        rows = report.get("trials") or []
        kept = sum(1 for r in rows if "transcript" in r)
        return (_need(agg["trials"] == trials,
                      f"{agg['trials']} trials, want {trials}")
                + _need(agg["success_rate"] >= floor,
                        f"success {agg['success_rate']} below {floor:.6f}")
                + _need(kept == transcripts,
                        f"{kept} transcripts, want {transcripts}"))
    return check


def check_golay(report: dict) -> list:
    agg = report["aggregates"]
    return _need((agg["n"], agg["k"], agg["d"]) == (23, 12, 7),
                 f"Golay audit gave [{agg['n']},{agg['k']}] d={agg['d']}")


def check_bob(report: dict) -> list:
    agg = report["aggregates"]
    ent = agg["posterior_entropies"]
    return (_need(agg["trials"] == 256, f"{agg['trials']} masks, want 256")
            + _need(ent["prediction_mismatches"] == 0,
                    f"{ent['prediction_mismatches']} rank-rule mismatches")
            + _need(ent["slack_bits"] <= 0.25,
                    f"slack {ent['slack_bits']} above 0.25 bits"))


def check_tracker(sweep_csv: Path):
    def check(report: dict) -> list:
        """Criterion 9: both error rates under the Hoeffding bound plus 3
        sigma, and the unerased-count slope within 2% of -(1 - 2 eps)."""
        eps = 2.0 * TRACKER_PHI * (1.0 - TRACKER_PHI)
        slots = 2 * TRACKER_N * TRACKER_N0
        eta = (1.0 - 2.0 * eps) / (4.0 * TRACKER_N0)
        bound = math.exp(-2.0 * eta * eta * slots)
        trials = report["aggregates"]["trials"]
        slack = 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
        sweep = report["derived"]["sweep"]
        missed = 1.0 - report["aggregates"]["accusation_rate"]
        honest = sweep["accusation_rates"][sweep["grid"].index(0)]
        want = -(1.0 - 2.0 * eps)
        rel = abs(sweep["slope"] - want) / abs(want)
        with open(sweep_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        return (_need(sweep["grid"] == list(SWEEP_GRID),
                      f"sweep grid {sweep['grid']}")
                + _need(honest < bound + slack,
                        f"false accusation {honest} >= {bound + slack}")
                + _need(missed < bound + slack,
                        f"missed detection {missed} >= {bound + slack}")
                + _need(rel <= 0.02, f"slope {sweep['slope']} is "
                        f"{rel:.2%} off {want}")
                + _need(rows[:1] == [["x", "y", "ci_low", "ci_high"]]
                        and len(rows) == 1 + len(SWEEP_GRID),
                        "sweep CSV has the wrong shape"))
    return check


def check_rates(curve_csv: Path):
    def check(report: dict) -> list:
        table = {row["q"]: row for row in report["aggregates"]["table"]}
        got = (f"{table[2]['outer_rate']:.1e}",
               f"{table[2]['private_rate']:.1e}",
               f"{table[16]['outer_rate']:.1e}",
               f"{table[16]['private_rate']:.1e}")
        with open(curve_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        return (_need(got == RATE_TABLE, f"rate table {got}, want {RATE_TABLE}")
                + _need(len(rows) == 100, f"curve CSV has {len(rows)} lines"))
    return check


# -- workloads ---------------------------------------------------------------

def _run_args(protocol: str, phi: float, trials: int) -> list:
    return ["run", "--protocol", protocol, "--phi", repr(phi),
            "--trials", str(trials), "--workers", "1"]


def make_p0_repetition(workdir: Path, seed: int, trials: int) -> list:
    return [Command("run", _run_args("p0", 0.1, trials),
                    check_success(0.99, trials), sessions=True)]


def make_p0_wide_code(workdir: Path, seed: int, trials: int) -> list:
    code, dist = wide_code(seed)
    path = workdir / "wide-code.json"
    path.write_text(json.dumps(code) + "\n")
    # Success may fall short of 1 - union bound only by a failure count that
    # a correct decoder reaches with probability below 1e-6; a Gaussian
    # 3-sigma margin would wrongly fail about 1 seed in 200 at this size.
    bound = ml_failure_bound(dist, residual_error(WIDE_PHI))
    floor = 1.0 - binomial_ceiling(trials, bound) / trials
    args = _run_args("p0", WIDE_PHI, trials) + [
        "--code", str(path), "--transcripts", str(trials)]
    return [Command("run", args, check_success(floor, trials, trials),
                    sessions=True)]


def make_string_gf4(workdir: Path, seed: int, trials: int) -> list:
    args = _run_args("p2prime", 0.0, trials) + ["--delta", "0.25"]
    return [Command("run", args, check_success(1.0, trials), sessions=True)]


def make_audit(workdir: Path, seed: int, trials: int) -> list:
    golay = workdir / "golay.json"
    golay.write_text(json.dumps(golay_code()) + "\n")
    sweep, curve = workdir / "sweep.csv", workdir / "curve.csv"
    return [
        Command("code-audit", ["code-audit", "--code", str(golay)],
                check_golay),
        Command("attack-bob", ["attack", "--strategy", "bob",
                               "--delta", "0.25"], check_bob),
        Command("attack-tracker", [
            "attack", "--strategy", "tracker", "--n", str(TRACKER_N),
            "--n0", str(TRACKER_N0), "--corrupted", str(TRACKER_N),
            "--trials", str(trials), "--sweep", str(sweep),
            "--sweep-grid", ",".join(str(g) for g in SWEEP_GRID)],
            check_tracker(sweep)),
        Command("rates", ["rates", "--curve", str(curve)], check_rates(curve)),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("p0-repetition",
             "ROADMAP headline: p0 at phi=0.1 on the [15,1] repetition code; "
             "rref via solve_affine and draw_hash is ~90% of the time",
             trials=200, make=make_p0_repetition),
    Workload("p0-wide-code",
             "p0 at phi=0.02 on a seeded [20,16] code: ML decoding over 2^16 "
             "codewords dominates the trials, decoder set-up adds to setup_s, "
             "and every trial writes a transcript",
             trials=100, make=make_p0_wide_code),
    Workload("string-gf4",
             "p2prime over GF(4) with 24 chained sessions per trial: the only "
             "workload that reaches proto_outer and p0q_run chaining",
             trials=10, make=make_string_gf4),
    Workload("audit",
             "code-audit (Golay), attack bob, attack tracker with sweep, rates: "
             "codes/adversary/analysis work and four process starts",
             trials=16000, make=make_audit),
)}
