"""Self-tests for the otlab benchmark.

    python3 -m pytest otbench/tests -q

Run from the root of an otlab checkout.  The smoke test runs every workload
once at a tiny size and takes about half a minute.
"""

import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402


def span(start, end, parent):
    return [0, start, end, parent, 0, 0]


def test_self_times_subtract_the_time_children_cover():
    spans = [
        span(0.0, 10.0, -1),   # root
        span(1.0, 4.0, 0),     # child, overlaps the next one
        span(3.0, 6.0, 0),     # child
        span(1.5, 2.0, 1),     # grandchild, covers part of span 1 only
        span(9.0, 12.0, 0),    # child running past the root's end
        span(11.0, 11.5, -1),  # second root, no children
    ]
    got = tracing.self_times(spans)
    # root: children cover [1, 6] and [9, 10], 6 of its 10 seconds
    want = [4.0, 2.5, 3.0, 0.5, 3.0, 0.5]
    assert all(abs(g - w) < 1e-12 for g, w in zip(got, want)), got


def test_recorder_wraps_every_binding_site_and_restores_it():
    import otlab.cli  # noqa: F401  (loads every otlab module)
    from otlab import codes, linalg, proto_outer, proto_p0
    from otlab.channels import BscParams, derive_rng
    from otlab.gf import GF

    sites = [(linalg, "rref"), (codes, "rref"), (linalg, "rank"),
             (proto_p0, "rank"), (linalg, "solve_affine"),
             (proto_p0, "solve_affine"), (proto_outer, "solve_affine"),
             (proto_p0, "p0_run"), (otlab.cli, "p0_run")]
    before = {site: getattr(*site) for site in sites}
    methods = [(proto_p0.P0Params, "draw_hash"),
               (proto_p0.MLDecoder, "__init__"),
               (proto_p0.MLDecoder, "decode"),
               (codes.LinearCode, "min_distance")]
    before_methods = {m: m[0].__dict__[m[1]] for m in methods}

    rec = tracing.Recorder()
    rec.install()
    try:
        assert not rec.missing
        for site, original in before.items():
            assert getattr(*site).__wrapped__ is original, site
        for m, original in before_methods.items():
            assert m[0].__dict__[m[1]].__wrapped__ is original, m
        code = codes.LinearCode.from_rows(GF(1), ((1,) * 5,))
        params = proto_p0.P0Params(block_len=5, channel=BscParams(0.0),
                                   code=code, secret_bits=1)
        otlab.cli.p0_run((0,), (1,), True, params, derive_rng(3))
        otlab.cli.p0_run((1,), (0,), False, params, derive_rng(4))
    finally:
        rec.uninstall()
    for site, original in before.items():
        assert getattr(*site) is original, site
    for m, original in before_methods.items():
        assert m[0].__dict__[m[1]] is original, m

    names = [rec.names[s[0]] for s in rec.spans]
    assert names.count("proto_p0.p0_run") == 2
    assert names.count("proto_p0.decoder_init") == 1
    assert rec.counters == {"proto_p0.decoder_words": 2}
    for wanted in ("proto_p0.draw_hash", "channels.duplicate_round_trip",
                   "proto_p0.p0_partition", "proto_p0.p0_alice_encode",
                   "linalg.solve_affine", "linalg.rref", "proto_p0.decode"):
        assert wanted in names, wanted
    sessions = [s[4] for s in rec.spans]
    first = names.index("proto_p0.p0_run")
    second = names.index("proto_p0.p0_run", first + 1)
    assert set(sessions[first:second]) == {0}
    assert set(sessions[second:]) == {1}


def test_generated_inputs_are_seeded_and_match_otlab():
    from otlab.codes import code_from_json
    from otlab.proto_p0 import MLDecoder

    code, dist = workloads.wide_code(5)
    assert workloads.wide_code(5) == (code, dist)
    assert workloads.wide_code(6)[0] != code
    wide, _ = code_from_json(code)
    assert (wide.length, wide.dimension) == (20, 16)
    assert wide.min_distance() == min(w for w in range(1, 21) if dist[w])
    p = workloads.residual_error(workloads.WIDE_PHI)
    ours = workloads.ml_failure_bound(dist, p)
    theirs = MLDecoder(wide).failure_bound(p)
    assert abs(ours - theirs) <= 1e-12 * theirs

    golay, _ = code_from_json(workloads.golay_code())
    assert (golay.length, golay.dimension, golay.min_distance()) == (23, 12, 7)


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.rstrip().endswith("smoke: ok")


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "p0-repetition",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
