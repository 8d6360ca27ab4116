"""End-to-end checks of the command line interface.

Most tests call `otlab.cli.main` in this process through `run_cli`, which
captures stdout and stderr and turns a `SystemExit` into a return code, so
they exercise argument parsing, config merging, seed resolution, report
emission and exit codes without an interpreter start each.  Where a fresh
interpreter is the subject (the import probe, `--version`, the
`python -m otlab` entry and one exit code of each class) `run_module`
starts a real subprocess.  Statistical behaviour is covered by the library
tests; this file sticks to plumbing and frozen values.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from otlab import cli, linalg, proto_outer
from otlab.analysis import detection_rule
from otlab.channels import derive_rng
from otlab.cli import ConfigError, _normalize_run
from otlab.codes import (CodeAudit, LinearCode, code_to_json, cyclic_code,
                         random_code, rs_code)
from otlab.gf import GF
from otlab.linalg import Matrix
from otlab.reports import (
    CSV_HEADER,
    ReportError,
    build_report,
    canonical_json,
    render_csv,
    validate_report,
)

C15_5_GEN = (1, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1)
GOLDEN_CODES = Path(__file__).parent / "golden" / "codes"
REPO = Path(__file__).resolve().parent.parent


def run_module(*args, env=None):
    """Invoke the installed module in a subprocess with a scrubbed seed env."""
    full_env = dict(os.environ)
    full_env.pop("OTLAB_SEED", None)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "otlab", *map(str, args)],
        capture_output=True, text=True, env=full_env)


def run_cli(*args, env=None):
    """Call `cli.main` in this process, as `run_module` would run it."""
    saved = dict(os.environ)
    os.environ.pop("OTLAB_SEED", None)
    os.environ.update(env or {})
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([str(a) for a in args])
            except SystemExit as exc:  # argparse errors
                code = 0 if exc.code is None else exc.code
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return subprocess.CompletedProcess(args, code, out.getvalue(),
                                       err.getvalue())


def report_from(proc, expect_code=0):
    assert proc.returncode == expect_code, proc.stderr
    rep = json.loads(proc.stdout)
    validate_report(rep)
    return rep


def write_code(tmp_path, name, code, audit=None):
    path = tmp_path / name
    path.write_text(json.dumps(code_to_json(code, audit)))
    return str(path)


def all_ones_code(n):
    return LinearCode(Matrix(GF(1), ((1,) * n,)))


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    return [tuple(float(cell) for cell in line.split(",")) for line in lines[1:]]


# ---------------------------------------------------------------- run


def test_run_noiseless_report_and_determinism():
    args = ("run", "--protocol", "p0", "--phi", "0", "--n0", "8",
            "--trials", "10", "--seed", "3")
    first = run_cli(*args)
    rep = report_from(first)
    assert rep["command"] == "run"
    assert rep["seed"] == 3
    assert rep["config"]["phi"] == 0.0
    agg = rep["aggregates"]
    assert agg["success_rate"] == 1.0
    # Wilson interval for 10 of 10: it does not collapse to [1, 1]
    assert agg["ci_95"] == [pytest.approx(0.722460, abs=1e-6), 1.0]
    assert agg["abort_rate"] == 0.0
    assert agg["decode_failure_rate"] == 0.0
    assert agg["wrong_output_rate"] == 0.0
    assert rep["derived"]["channel_bits"] == 32
    assert rep["derived"]["observed_rate"] == 2 / 32
    assert len(rep["trials"]) == 10
    assert all(row == {"trial": t, "outcome": "ok"}
               for t, row in enumerate(rep["trials"]))

    second = run_cli(*args)
    assert second.stdout == first.stdout


def test_run_workers_do_not_change_bytes():
    base = ("run", "--protocol", "p0", "--phi", "0.1", "--n0", "8",
            "--trials", "12", "--seed", "9")
    serial = run_cli(*base, "--workers", "1")
    parallel = run_cli(*base, "--workers", "4")
    assert serial.returncode == 0 and parallel.returncode == 0
    assert serial.stdout == parallel.stdout


def test_import_leaves_out_schema_library_and_process_pool(tmp_path):
    # start-up pays only for what a serial command uses; numpy loads where
    # it computes, so `rates`, `--help`, `code-audit`, a config error
    # (also one in the outer structure, caught before the inner decoder is
    # built) and an output into a missing directory (refused before any
    # trial) never load it; sessions draw from the pure-Python stream and
    # decode codes of at most 128 words by a Python scan, so a p0 run, a
    # p2prime run and the replay of a p0 report never load it either; the
    # bob audit computes in GF(2) ranks, so `attack --strategy bob`, with
    # exhaustive or sampled pairs, and its replay leave it out too, and so
    # do the library's entropy oracles, which count coset weights on
    # packed ints, while a decoder over 2^16 words and the honest and
    # tracker campaigns load it; the benchmark's shim finds the session
    # modules and the dispatch table after import; main freezes the
    # import-time heap so exit skips collecting it; no command loads
    # dataclasses, and inspect, which numpy imports itself, stays out
    # wherever numpy does
    probe = ("import contextlib, gc, io, json, os, sys, otlab.cli\n"
             "def loaded():\n"
             "    return json.dumps({m: m in sys.modules for m in sys.argv[5:]})\n"
             "def heavy():\n"
             "    return ' '.join(str(m in sys.modules)\n"
             "                    for m in ('numpy', 'inspect', 'dataclasses'))\n"
             "def quiet(argv):\n"
             "    out = io.StringIO()\n"
             "    with contextlib.redirect_stdout(out), \\\n"
             "            contextlib.redirect_stderr(out):\n"
             "        try:\n"
             "            return otlab.cli.main(argv)\n"
             "        except SystemExit as exc:\n"
             "            return exc.code\n"
             "print(loaded())\n"
             "print(sorted(otlab.cli._DISPATCH))\n"
             "print(quiet(['run', '--phi', '0.7']), heavy())\n"
             "print(quiet(['run', '--protocol', 'p1', '--n', '4']),\n"
             "      heavy())\n"
             "missing = os.path.join(os.path.dirname(sys.argv[1]), 'no', 'x')\n"
             "print(quiet(['run', '--trials', '3000', '--out', missing]),\n"
             "      heavy())\n"
             "print(quiet(['rates', '--help']), heavy())\n"
             "print(quiet(['code-audit', '--code', sys.argv[2]]),\n"
             "      heavy())\n"
             "print(quiet(['rates', '--curve', sys.argv[1]]), loaded())\n"
             "print(gc.get_freeze_count() > 0)\n"
             "for argv in (['run', '--protocol', 'p0', '--trials', '3'],\n"
             "             ['run', '--protocol', 'p2prime', '--phi', '0',\n"
             "              '--delta', '0.25', '--trials', '1'],\n"
             "             ['replay', sys.argv[3]],\n"
             "             ['attack', '--strategy', 'bob'],\n"
             "             ['attack', '--strategy', 'bob', '--pair-samples', '3'],\n"
             "             ['replay', os.path.join(os.path.dirname(sys.argv[3]),\n"
             "                                     'attack-bob.json')]):\n"
             "    print(quiet(argv), heavy())\n"
             "from otlab.analysis import fixed_weight_oracle, min_entropy_oracle\n"
             "from otlab.codes import LinearCode\n"
             "from otlab.gf import GF\n"
             "code = LinearCode.from_rows(GF(1), ((1, 0, 1, 1), (0, 1, 1, 0)))\n"
             "print(min_entropy_oracle(code, 1, 0.1, alpha=0.5).views,\n"
             "      fixed_weight_oracle(code, 1, 1).total_edges,\n"
             "      heavy())\n"
             "print(quiet(sys.argv[4].split()), heavy())")
    names = ("numpy", "jsonschema", "multiprocessing",
             "concurrent.futures.process", "otlab.adversary",
             "otlab.proto_p0", "otlab.proto_outer", "dataclasses", "inspect")
    curve = tmp_path / "curve.csv"
    wide = f"run --code {GOLDEN_CODES / 'wide20_16.json'} --trials 2"
    lines = []
    loaders = (wide, "attack --trials 10", "attack --strategy tracker "
               "--n 40 --n0 15 --corrupted 40 --trials 10")
    for loader in loaders:
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(curve),
             str(GOLDEN_CODES / "golay.json"),
             str(GOLDEN_CODES.parent / "run-p0.json"), loader, *names],
            capture_output=True, text=True, check=True)
        lines.append(proc.stdout.splitlines())
    assert lines[0][:-1] == lines[1][:-1] == lines[2][:-1]
    assert [found[-1] for found in lines] == ["0 True True False"] * 3
    (import_line, dispatch_line, config_error_line, outer_error_line,
     output_error_line, help_line, audit_line, rates_line,
     frozen_line, p0_line, p2prime_line, replay_line, *bob_lines,
     oracle_line, _) = lines[0]
    want = {"numpy": False, "jsonschema": False, "multiprocessing": False,
            "concurrent.futures.process": False, "otlab.adversary": False,
            "otlab.proto_p0": True, "otlab.proto_outer": True,
            "dataclasses": False, "inspect": False}
    assert json.loads(import_line) == want
    assert dispatch_line == str(["attack", "code-audit", "rates", "run"])
    assert config_error_line == "2 False False False"
    assert outer_error_line == "2 False False False"
    assert output_error_line == "2 False False False"
    assert help_line == "0 False False False"
    assert audit_line == "0 False False False"
    code, rates_loaded = rates_line.split(" ", 1)
    assert code == "0" and json.loads(rates_loaded) == want
    assert len(read_csv(curve)) == 99
    assert frozen_line == "True"
    assert p0_line == p2prime_line == replay_line == "0 False False False"
    assert bob_lines == ["0 False False False"] * 3
    # C(4, 1) patterns x 2^3 outputs; 2^2 codewords x C(3, 1) flips each
    assert oracle_line == "32 48 False False False"


@pytest.mark.parametrize("command", ["run", "attack", "code-audit"])
def test_enum_limit_help_says_what_it_bounds_and_what_it_cannot_lift(
        command):
    proc = run_cli(command, "--help")
    assert proc.returncode == 0
    text = " ".join(proc.stdout.split())
    assert ("--enum-limit N budget of each exhaustive enumeration, checked "
            "before it starts (exit 3 above): q^k codewords for the distance "
            "search, 2^k for the ML decoder, 2^n masks x compression pairs "
            "for the bob audit; it cannot lift the decoder's cap of 2^20 "
            "codewords or the bob audit's cap n <= 16; at least 1") in text


@pytest.mark.parametrize("argv", [
    ["rates"],
    ["run", "--protocol", "p0", "--trials", "2"],
    ["run", "--protocol", "p2prime", "--phi", "0", "--delta", "0.25",
     "--trials", "1"],
])
def test_benchmark_shim_stamps_the_end_of_set_up(argv, tmp_path):
    # otbench/shim.py runs cli.main after `import otlab.cli`, patching
    # _DISPATCH entries and the p0_run/run_session module globals; each
    # command must reach one of them
    stamp = tmp_path / "stamp.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, str(REPO / "otbench" / "shim.py"), str(stamp),
         "plain", "--", *argv],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "t_first" in json.loads(stamp.read_text())


def test_run_out_file_matches_stdout(tmp_path):
    out = tmp_path / "report.json"
    args = ("run", "--protocol", "p0", "--phi", "0", "--n0", "6",
            "--trials", "4", "--seed", "1")
    piped = run_cli(*args)
    saved = run_cli(*args, "--out", str(out))
    assert saved.returncode == 0
    assert "wrote" in saved.stdout  # only the summary line, not the report
    text = out.read_text()
    assert text == piped.stdout
    assert text.endswith("\n")
    assert text == canonical_json(json.loads(text))


def test_run_abort_dominated_exits_4():
    proc = run_module("run", "--protocol", "p1", "--phi", "0.49", "--n0", "6",
                      "--trials", "10", "--seed", "0")
    rep = report_from(proc, expect_code=4)
    assert rep["aggregates"]["abort_rate"] >= 0.5


def test_run_every_protocol_noiseless(monkeypatch):
    """Every protocol succeeds at phi = 0.  A transcript is built only for
    a trial the report keeps: at --transcripts 0 no session serializes a
    matrix, computes V(u) or unpacks a bit vector into a list, and
    keeping trial 0's transcript changes no other byte of the report."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Matrix, "to_json", counted("to_json", Matrix.to_json))
    monkeypatch.setattr(proto_outer, "cheat_matrix_V",
                        counted("V", proto_outer.cheat_matrix_V))
    unpack = linalg.unpack
    sites = [name for name, module in sys.modules.items()
             if name.startswith("otlab.")
             and getattr(module, "unpack", None) is unpack]
    assert {"otlab.linalg", "otlab.codes", "otlab.proto_p0"} <= set(sites)
    for name in sites:
        monkeypatch.setattr(sys.modules[name], "unpack",
                            counted("unpack", unpack))
    for protocol in ("p0", "p0q", "p1", "p1prime", "p2", "p2prime"):
        args = ["run", "--protocol", protocol, "--phi", "0",
                "--n0", "6", "--trials", "2", "--seed", "4"]
        if protocol.endswith("prime"):
            args += ["--delta", "0.25"]
        rep = report_from(run_cli(*args))
        assert rep["aggregates"]["success_rate"] == 1.0, protocol
        assert calls == [], protocol
        kept = report_from(run_cli(*args, "--transcripts", "1"))
        assert calls, protocol
        calls.clear()
        assert "transcript" in kept["trials"][0]
        del kept["trials"][0]["transcript"]
        del kept["config"]["transcripts"], rep["config"]["transcripts"]
        assert kept == rep, protocol


def test_primed_run_default_delta_fits_the_built_in_basis():
    # the built-in basis has outer_dim 4: delta 0.25 leaves u = 1 row
    rep = report_from(run_cli("run", "--protocol", "p1prime", "--phi", "0",
                              "--trials", "2"))
    assert rep["config"]["delta"] == 0.25
    assert rep["aggregates"]["success_rate"] == 1.0


# ---------------------------------------------------------------- config and seeds


def test_seed_resolution_order(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("seed = 7\n")

    assert report_from(run_cli("rates"))["seed"] == 0
    assert report_from(run_cli("rates", env={"OTLAB_SEED": "11"}))["seed"] == 11
    assert report_from(run_cli("rates", "--config", str(cfg),
                               env={"OTLAB_SEED": "11"}))["seed"] == 7
    assert report_from(run_cli("rates", "--config", str(cfg), "--seed", "3",
                               env={"OTLAB_SEED": "11"}))["seed"] == 3


def test_config_file_merges_under_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# toy run\n"
        "protocol = p0\n"
        "phi = 0.3\n"
        "n0 = 8\n"
        "trials = 5\n")
    rep = report_from(run_cli("run", "--config", str(cfg), "--phi", "0"))
    assert rep["config"]["phi"] == 0.0
    assert rep["config"]["n0"] == 8
    assert rep["config"]["trials"] == 5
    assert rep["aggregates"]["success_rate"] == 1.0


def test_config_errors_exit_2(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("wibble = 3\n")
    bad_line = tmp_path / "b.cfg"
    bad_line.write_text("phi 0.1\n")
    bad_type = tmp_path / "c.cfg"
    bad_type.write_text("phi = banana\n")
    no_n = tmp_path / "no_n.json"
    obj = code_to_json(all_ones_code(9))
    del obj["n"]
    no_n.write_text(json.dumps(obj))
    nine = write_code(tmp_path, "nine.json", all_ones_code(9))
    nine_gf4 = write_code(tmp_path, "nine_gf4.json",
                          LinearCode(Matrix(GF(2), ((1,) * 9,))))
    # 255 x 254 full-rank compression matrices: too many to enumerate
    eye8 = write_code(tmp_path, "eye8.json",
                      LinearCode(Matrix.identity(GF(1), 8)))

    for args, env in [
        (("run", "--config", str(bad_key)), None),
        (("run", "--config", str(bad_line)), None),
        (("run", "--config", str(bad_type)), None),
        (("run", "--config", str(tmp_path / "missing.cfg")), None),
        (("run", "--protocol", "p0", "--phi", "0.6"), None),
        (("rates",), {"OTLAB_SEED": "banana"}),
        (("run", "--code", no_n), None),
        (("run", "--protocol", "p1", "--outer-code", no_n), None),
        (("attack", "--strategy", "bob", "--outer-code", no_n), None),
        (("attack", "--strategy", "tracker", "--outer-code", no_n), None),
        (("attack", "--strategy", "honest", "--outer-code", nine), None),
        (("run", "--protocol", "p1", "--q", "4"), None),
        (("run", "--protocol", "p1", "--outer-code", nine_gf4), None),
        (("run", "--protocol", "p2", "--q", "2"), None),
        (("run", "--protocol", "p2", "--q", "512"), None),
        (("run", "--protocol", "p0", "--q", "4"), None),
        (("run", "--protocol", "p0", "--outer-code", nine), None),
        (("rates", "--code-rate", "0"), None),
        (("rates", "--code-rate", "2"), None),
        (("rates", "--code-rate", "0.1", "--q", "3"), None),
        (("run", "--slack", "0.5"), None),
        (("attack", "--strategy", "bob", "--pair-samples", "0"), None),
        (("attack", "--strategy", "bob", "--outer-code", eye8), None),
        (("attack", "--strategy", "tracker", "--pair-samples", "5"), None),
        (("attack", "--strategy", "honest", "--delta", "0.3"), None),
        (("attack", "--strategy", "tracker", "--sweep-grid", "1,2"), None),
        (("run", "--protocol", "p0", "--delta", "0.3"), None),
        (("run", "--protocol", "p0", "--n", "5"), None),
        (("run", "--protocol", "p0q", "--q", "4", "--delta", "0.3"), None),
    ]:
        proc = run_cli(*args, env=env)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stderr.startswith("otlab: config error: "), proc.stderr
    # checked up front, not numpy's "need at least one array to stack"
    proc = run_cli("attack", "--strategy", "bob", "--pair-samples", "0")
    assert "pair_samples must be at least 1" in proc.stderr


@pytest.mark.parametrize("args, key", [
    (("run", "--c", "nan"), "c"),
    (("run", "--c", "inf"), "c"),
    (("run", "--c", "-1"), "c"),
    (("run", "--c", "0"), "c"),
    (("attack", "--strategy", "honest", "--c", "nan"), "c"),
    (("attack", "--strategy", "honest", "--c", "inf"), "c"),
    (("attack", "--strategy", "honest", "--c", "-1"), "c"),
    (("attack", "--strategy", "tracker", "--c", "0"), "c"),
    (("run", "--slack", "inf"), "slack"),
    (("run", "--workers", "0"), "workers"),
    (("run", "--workers", "-2"), "workers"),
    # keys the selected protocol never reads
    (("run", "--protocol", "p0", "--delta", "0.3"), "delta"),
    (("run", "--protocol", "p0", "--n", "5"), "n"),
    (("run", "--protocol", "p0q", "--q", "4", "--delta", "0.3"), "delta"),
    # an enumeration budget is at least 1 on every command and strategy
    (("run", "--enum-limit", "0"), "enum_limit"),
    (("run", "--enum-limit", "-1"), "enum_limit"),
    (("code-audit", "--code", str(GOLDEN_CODES / "golay.json"),
      "--enum-limit", "-1"), "enum_limit"),
    (("attack", "--strategy", "bob", "--enum-limit", "-1"), "enum_limit"),
    (("attack", "--strategy", "honest", "--enum-limit", "0"), "enum_limit"),
    (("attack", "--strategy", "tracker", "--enum-limit", "-1"),
     "enum_limit"),
    # checked whether or not --curve asks for the curve
    (("rates", "--curve-points", "0"), "curve_points"),
])
def test_config_domains_exit_2_before_any_work(args, key, monkeypatch):
    # no trial, campaign or worker pool may start on a rejected value
    def no_work(*args):
        raise AssertionError("work started on a rejected config")

    monkeypatch.setattr(cli, "_run_all_trials", no_work)
    for strategy in cli._ATTACKS:
        monkeypatch.setitem(cli._ATTACKS, strategy, no_work)
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"otlab: config error: {key} must be ")


# numeric keys whose range depends on another key, checked where that key
# is read: q (the protocol's q_range; rate_chain), corrupted (at most
# 2 n n0), delta (compressed_length) and code_rate (rate_chain)
UNDECLARED_DOMAINS = {("run", "q"), ("run", "delta"), ("attack", "corrupted"),
                      ("attack", "delta"), ("rates", "code_rate"),
                      ("rates", "q")}


def just_past(bound, closed, away, kind):
    """The nearest value of kind outside a finite bound, `away` being -1
    below a lower bound and +1 above an upper one."""
    if not closed:
        return kind(bound)
    if kind is int:
        return int(bound) + away
    return math.nextafter(bound, away * math.inf)


def test_take_checks_every_numeric_key_against_its_domain():
    # _take alone: no config is normalized, no code built, no trial run
    # and no pool started, and no value is a large size
    selectable = set(cli.PROTOCOLS) | set(cli._ATTACKS)
    undeclared = set()
    for name, command in cli.COMMANDS.items():
        selector = next((k for k, o in command.keys.items() if o.choices),
                        None)
        for key, opt in command.keys.items():
            assert set(opt.only or ()) <= selectable, (name, key)
            if opt.kind not in (int, float):
                continue
            if opt.domain is None:
                undeclared.add((name, key))
            base = {selector: opt.only[0]} if opt.only else {}
            for value in (math.nan, math.inf, -math.inf, -1, 0):
                try:
                    taken = cli._take({**base, key: value}, name)[key]
                except ConfigError as exc:
                    assert str(exc).startswith(f"{key} must be "), exc
                    continue
                # a declared domain never holds nan or an infinity
                assert opt.domain is None or math.isfinite(value), (name, key)
                assert taken == value or math.isnan(value), (name, key)
            if opt.domain is None:
                continue
            low, high = (float(end) for end in opt.domain[1:-1].split(","))
            for bound, closed, away in ((low, opt.domain[0] == "[", -1),
                                        (high, opt.domain[-1] == "]", 1)):
                if not math.isfinite(bound):
                    continue
                outside = just_past(bound, closed, away, opt.kind)
                with pytest.raises(ConfigError, match=f"^{key} must be "):
                    cli._take({**base, key: outside}, name)
                if closed:
                    inside = opt.kind(bound)
                    assert cli._take({**base, key: inside}, name)[key] == inside
    assert undeclared == UNDECLARED_DOMAINS


def test_value_error_inside_a_trial_propagates(monkeypatch):
    # only config errors exit 2; a failing trial is a bug and keeps its
    # traceback (exit 1 from the interpreter)
    def failing_trial(*args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "_run_trial", failing_trial)
    with pytest.raises(ValueError, match="boom"):
        run_cli("run", "--trials", "2")


def test_argparse_errors_exit_2():
    assert run_module().returncode == 2
    assert run_cli("run", "--protocol", "p9").returncode == 2
    assert run_cli("run", "--no-such-flag").returncode == 2


def test_version_flag():
    proc = run_module("--version")
    assert proc.returncode == 0
    import otlab
    assert otlab.__version__ in proc.stdout


# ---------------------------------------------------------------- rates


def test_rates_default_table_frozen():
    first = run_module("rates")
    rep = report_from(first)
    opt = rep["aggregates"]["optimum"]
    assert opt["phi"] == pytest.approx(0.19385297824369357, abs=1e-12)
    assert opt["rate"] == pytest.approx(0.10847152648944172, abs=1e-12)

    by_q = {row["q"]: row for row in rep["aggregates"]["table"]}
    assert set(by_q) == {2, 16}
    assert by_q[2]["outer_rate"] == pytest.approx(6.887081046948681e-05, rel=1e-12)
    assert by_q[2]["private_rate"] == pytest.approx(3.4435405234743404e-05, rel=1e-12)
    assert by_q[16]["outer_rate"] == pytest.approx(8.034927888106794e-04, rel=1e-12)
    assert by_q[16]["private_rate"] == pytest.approx(4.017463944053397e-04, rel=1e-12)

    assert first.stderr == ""
    assert run_cli("rates").stdout == first.stdout


def test_rates_trivial_outer_code_keeps_inner_rate():
    rep = report_from(run_cli("rates", "--code-rate", "1", "--q", "2"))
    table = rep["aggregates"]["table"]
    assert len(table) == 1
    row = table[0]
    assert row["outer_rate"] == row["inner_rate"]
    assert row["private_rate"] == row["outer_rate"] / 2


def test_rates_curve_csv(tmp_path):
    curve = tmp_path / "curve.csv"
    proc = run_cli("rates", "--curve", str(curve), "--curve-points", "25")
    assert proc.returncode == 0
    rows = read_csv(curve)
    assert len(rows) == 25
    xs = [r[0] for r in rows]
    assert xs == sorted(xs) and len(set(xs)) == 25
    assert all(0.0 < x < 0.5 for x in xs)
    best = max(r[1] for r in rows)
    assert 0.10 < best <= 0.10847152648944172 + 1e-12


# ---------------------------------------------------------------- code-audit


def test_code_audit_repetition_code(tmp_path):
    path = write_code(tmp_path, "rep4.json", all_ones_code(4))
    rep = report_from(run_cli("code-audit", "--code", path, "--seed", "1"))
    agg = rep["aggregates"]
    assert agg["n"] == 4 and agg["k"] == 1
    assert agg["d"] == 4
    assert agg["d_hat"] == 4
    assert agg["square_dim"] == 1
    assert agg["square_dual_dim"] == 3
    assert agg["orthonormal_guaranteed"] is True
    assert agg["usable_outer"] is True
    assert agg["matches_embedded_audit"] is None


def test_code_audit_reed_solomon(tmp_path):
    path = write_code(tmp_path, "rs73.json", rs_code(GF(3), 2))
    agg = report_from(run_cli("code-audit", "--code", path))["aggregates"]
    assert agg["d"] == 5
    assert agg["d_hat"] == 3
    assert agg["square_dim"] == 5
    assert agg["field_degree"] == 3


@pytest.mark.parametrize("command", [("code-audit",),
                                     ("run", "--protocol", "p0")])
@pytest.mark.parametrize("change, key", [
    # strings, floats and bools used to be coerced: a [3,1] code ran while
    # the config recorded n = 3.9
    ({"field_degree": "1", "n": 3.9, "k": True}, "field_degree"),
    ({"n": 3.9}, "n"),
    ({"k": True}, "k"),
    ({"audit": {"d": "3", "d_hat": 3, "square_dim": 1}}, "audit d"),
    # JSON true is not the field element 1, as 1.0 is not
    ({"generator": [True, True, True]}, "generator"),
    ({"generator": [1.0, 1, 1]}, "generator"),
])
def test_code_files_take_json_integers_only(tmp_path, command, change, key):
    obj = {**code_to_json(all_ones_code(3)), **change}
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    proc = run_cli(*command, "--code", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("otlab: config error: ")
    assert key in proc.stderr and "must be an integer" in proc.stderr


def test_code_audit_embeds_and_checks_audit(tmp_path):
    src = write_code(tmp_path, "c155.json",
                     cyclic_code(GF(1), 15, C15_5_GEN))
    stamped = tmp_path / "stamped.json"
    proc = run_cli("code-audit", "--code", src, "--out-code", str(stamped))
    assert proc.returncode == 0
    obj = json.loads(stamped.read_text())
    assert obj["audit"]["d"] == 7

    agg = report_from(run_cli("code-audit", "--code", str(stamped)))["aggregates"]
    assert agg["matches_embedded_audit"] is True

    obj["audit"]["d"] = 6
    lied = tmp_path / "lied.json"
    lied.write_text(json.dumps(obj))
    agg = report_from(run_cli("code-audit", "--code", str(lied)))["aggregates"]
    assert agg["matches_embedded_audit"] is False


def test_run_rechecks_embedded_inner_code_audit(tmp_path):
    code = cyclic_code(GF(1), 15, C15_5_GEN)
    audit = code.audit()
    base = ("run", "--protocol", "p0", "--phi", "0.0", "--trials", "2")
    stamped = write_code(tmp_path, "stamped.json", code, audit)
    rep = report_from(run_cli(*base, "--code", stamped))
    assert rep["derived"]["inner_code"]["d"] == 7
    plain = write_code(tmp_path, "plain.json", code)
    rep = report_from(run_cli(*base, "--code", plain))
    assert rep["derived"]["inner_code"]["d"] is None
    lied = write_code(tmp_path, "lied.json", code,
                      CodeAudit(d=99, d_hat=audit.d_hat,
                                square_dim=audit.square_dim))
    proc = run_cli(*base, "--code", lied)
    assert proc.returncode == 2
    assert "d=99" in proc.stderr and proc.stdout == ""


def test_run_rejects_outer_code_whose_square_fills_the_space():
    # the [15,5] cyclic code's square is all of GF(2)^15, so its dual holds
    # no request mask; set-up refuses it before the trials
    config = {"protocol": "p1",
              "outer_code": code_to_json(cyclic_code(GF(1), 15, C15_5_GEN))}
    with pytest.raises(ConfigError, match="square spans the whole space"):
        _normalize_run(config, seed=0)


@pytest.mark.parametrize("protocol", ["p1", "p2"])
def test_run_rejects_built_in_outer_basis_whose_square_fills_the_space(
        protocol):
    # at n = 1 the built-in all-ones basis squares to the whole space
    with pytest.raises(ConfigError, match="square spans the whole space"):
        _normalize_run({"protocol": protocol, "n": 1}, seed=0)


def test_run_enum_limit_bounds_the_decoder(monkeypatch, capsys):
    # the [20,16] code has no embedded audit, so only the decoder
    # enumerates its 2^16 codewords; the budget stops it before any trial
    trials = []
    monkeypatch.setattr(cli, "_run_trial", lambda *a: trials.append(a))
    code = cli.main(["run", "--protocol", "p0", "--code",
                     str(GOLDEN_CODES / "wide20_16.json"),
                     "--enum-limit", "1000", "--trials", "3"])
    assert code == 3
    assert trials == []
    assert ("2^16 codewords exceed the enumeration budget 1000"
            in capsys.readouterr().err)


def test_run_decoder_cap_is_not_a_budget(tmp_path, monkeypatch, capsys):
    # the decoder holds at most 2^20 codewords whatever --enum-limit says,
    # and run refuses a larger inner code before it searches for one
    searched = []
    monkeypatch.setattr(cli, "_default_inner_code",
                        lambda *a: searched.append(a))
    path = write_code(tmp_path, "k21.json", random_code(
        GF(1), 24, 21, derive_rng(21)))
    cap = ("otlab: enumeration limit: 2^{k} codewords exceed the ML "
           "decoder's memory cap of 2^20 codewords; --enum-limit cannot "
           "raise it")
    for argv, k in ((["--code", path], 21),
                    (["--code", path, "--enum-limit", "100000000"], 21),
                    (["--n0", "30", "--m", "25"], 25)):
        assert cli.main(["run", "--trials", "3", *argv]) == 3
        assert capsys.readouterr().err.splitlines() == [cap.format(k=k)]
    assert searched == []


def test_code_audit_enum_limit_exits_3(tmp_path):
    path = write_code(tmp_path, "c155.json",
                      cyclic_code(GF(1), 15, C15_5_GEN))
    proc = run_module("code-audit", "--code", path, "--enum-limit", "20")
    assert proc.returncode == 3
    assert "enumeration" in proc.stderr.lower()


# ---------------------------------------------------------------- attack


def test_attack_bob_toy_audit_frozen():
    rep = report_from(run_cli("attack", "--strategy", "bob", "--seed", "1"))
    agg = rep["aggregates"]
    post = agg["posterior_entropies"]
    assert post["worst_predicted_bits"] == pytest.approx(0.8, abs=1e-12)
    assert post["slack_bits"] == pytest.approx(0.2, abs=1e-12)
    assert post["prediction_mismatches"] == 0
    assert agg["rank_V_histogram"] == {"0": 8, "1": 40, "2": 80, "3": 80, "4": 48}
    assert len(rep["trials"]) == 256
    assert agg["advantage"] == pytest.approx(post["slack_bits"])
    assert agg["accusation_rate"] is None


def test_attack_bob_rejects_oversized_basis(tmp_path):
    path = write_code(tmp_path, "c17.json", all_ones_code(17))
    proc = run_cli("attack", "--strategy", "bob", "--outer-code", path)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "otlab: enumeration limit: n=17 exceeds the request-mask audit's "
        "cap (n <= 16 over all masks); --enum-limit cannot raise it"]
    # the toy audit's 2^8 masks x 15^2 compression pairs exceed a budget
    # of 4
    proc = run_cli("attack", "--strategy", "bob", "--enum-limit", "4")
    assert proc.returncode == 3
    assert "enumeration budget 4" in proc.stderr


def test_attack_honest_matches_detection_rule():
    rep = report_from(run_cli("attack", "--strategy", "honest",
                              "--trials", "20", "--n", "40", "--n0", "10",
                              "--phi", "0.198", "--seed", "2"))
    agg = rep["aggregates"]
    assert agg["advantage"] == 0.0
    assert agg["posterior_entropies"] is None
    assert 0.0 <= agg["accusation_rate"] <= 1.0
    lo, hi = agg["ci_95"]
    assert lo <= agg["accusation_rate"] <= hi

    rule = detection_rule(rounds=40, block_len=10, phi=0.198, c=1.0)
    assert rep["derived"]["eta"] == pytest.approx(rule.eta, rel=1e-12)
    assert rep["derived"]["threshold"] == pytest.approx(rule.threshold, rel=1e-12)
    assert rep["derived"]["false_accusation_bound"] == pytest.approx(
        rule.false_accusation_bound, rel=1e-12)


def test_attack_tracker_sweep_csv(tmp_path):
    sweep = tmp_path / "sweep.csv"
    proc = run_cli("attack", "--strategy", "tracker", "--trials", "8",
                   "--n", "30", "--n0", "8", "--corrupted", "3",
                   "--sweep", str(sweep), "--sweep-grid", "0,2,4",
                   "--seed", "5")
    assert proc.returncode == 0
    rows = read_csv(sweep)
    assert [r[0] for r in rows] == [0.0, 2.0, 4.0]
    for x, y, lo, hi in rows:
        assert 0.0 <= lo <= y <= hi <= 1.0


# ---------------------------------------------------------------- replay


def test_replay_reproduces_each_command(tmp_path):
    recipes = {
        "rates.json": ("rates",),
        "run.json": ("run", "--protocol", "p0", "--phi", "0.1", "--n0", "8",
                     "--trials", "6", "--seed", "5"),
        "attack.json": ("attack", "--strategy", "bob", "--seed", "1"),
    }
    for name, args in recipes.items():
        out = tmp_path / name
        assert run_cli(*args, "--out", str(out)).returncode == 0
        proc = run_cli("replay", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "reproduced exactly" in proc.stdout


def test_replay_mismatch_exits_1(tmp_path):
    out = tmp_path / "rates.json"
    assert run_cli("rates", "--out", str(out)).returncode == 0
    rep = json.loads(out.read_text())
    rep["aggregates"]["optimum"]["rate"] = 0.5
    doctored = tmp_path / "doctored.json"
    doctored.write_text(canonical_json(rep))
    proc = run_module("replay", str(doctored))
    assert proc.returncode == 1
    assert "aggregates" in proc.stdout + proc.stderr


def test_replay_out_restores_canonical_bytes(tmp_path):
    out = tmp_path / "run.json"
    args = ("run", "--protocol", "p0", "--phi", "0", "--n0", "6",
            "--trials", "3", "--seed", "8")
    assert run_cli(*args, "--out", str(out)).returncode == 0
    fresh = tmp_path / "fresh.json"
    assert run_cli("replay", str(out), "--out", str(fresh)).returncode == 0
    assert fresh.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("args", [
    ("run", "--trials", "3", "--out", "{missing}/x.json"),
    ("rates", "--curve", "{missing}/c.csv"),
    ("code-audit", "--code", str(GOLDEN_CODES / "golay.json"),
     "--out-code", "{missing}/g.json"),
    ("attack", "--strategy", "tracker", "--trials", "20",
     "--sweep", "{missing}/s.csv"),
    ("replay", str(GOLDEN_CODES.parent / "rates.json"),
     "--out", "{missing}/r.json"),
], ids=["run-out", "rates-curve", "code-audit-out-code", "attack-sweep",
        "replay-out"])
def test_unwritable_output_file_exits_2(tmp_path, args):
    missing = tmp_path / "missing"
    proc = run_cli(*(a.replace("{missing}", str(missing)) for a in args))
    assert proc.returncode == 2, proc.stderr
    path = next(a for a in args if "{missing}" in a)
    assert proc.stderr.splitlines()[-1] == (
        f"otlab: cannot write {path.replace('{missing}', str(missing))}: "
        "No such file or directory")


def test_replay_rejects_bad_input(tmp_path, monkeypatch):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{this is not json")
    assert run_cli("replay", str(garbled)).returncode == 2

    wrong_shape = tmp_path / "shape.json"
    wrong_shape.write_text(json.dumps({"version": "0.1.0", "command": "rates"}))
    assert run_cli("replay", str(wrong_shape)).returncode == 2

    assert run_cli("replay", str(tmp_path / "absent.json")).returncode == 2

    # a replayed config meets the checker that flags meet: a bad value
    # exits 2 naming its key, before any trial
    fresh = tmp_path / "fresh.json"
    assert run_cli("run", "--n0", "4", "--trials", "2",
                   "--out", str(fresh)).returncode == 0
    rep = json.loads(fresh.read_text())

    def no_work(*args):
        raise AssertionError("work started on a rejected config")

    monkeypatch.setattr(cli, "_run_all_trials", no_work)
    for i, (key, value) in enumerate([("trials", math.nan), ("m", None),
                                      ("phi", None), ("trials", 2.5)]):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(
            {**rep, "config": {**rep["config"], key: value}}))
        proc = run_cli("replay", str(bad))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"otlab: config error: {key} must be ")


# ---------------------------------------------------------------- report helpers


def test_canonical_json_layout():
    text = canonical_json({"b": 1, "a": [1.5, 2]})
    assert text == '{\n  "a": [\n    1.5,\n    2\n  ],\n  "b": 1\n}\n'
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_render_csv_layout():
    text = render_csv([(0.25, 1.0, 0.875, 1.0)])
    assert text == "x,y,ci_low,ci_high\n0.25,1.0,0.875,1.0\n"
    with pytest.raises(ValueError):
        render_csv([(1.0, 2.0, 3.0)])


def test_build_report_validates():
    rep = build_report("rates", config={"phi": None}, seed=0,
                       derived={}, aggregates={})
    validate_report(rep)
    assert rep["version"]
    with pytest.raises(ReportError):
        build_report("frobnicate", config={}, seed=0, derived={}, aggregates={})
    with pytest.raises(ReportError):
        validate_report({**rep, "extra": 1})
    # an invalid report is a bug, not a config error: main must not map it
    # to exit 2 through its ValueError handler
    assert not issubclass(ReportError, ValueError)
