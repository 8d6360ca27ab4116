"""otlab benchmark: fresh single-process CLI invocations, timed from outside.

    python3 otbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 otbench/run.py --smoke

Run from the root of an otlab checkout; the package is imported from
./src.  A run generates its inputs from --seed, warms the bytecode and file
caches with one invocation, then repeats the workload's invocations for
--seconds (stopping before a round that would overrun, but after at least
MIN_ROUNDS rounds), and finally
replays each report with `otlab replay`.  A round is one invocation, or on
`audit` its four commands in turn.  Every invocation is checked: exit code
0, canonical and schema-valid report bytes, the same sha256 on every
repeat, and the workload's own criteria (workloads.py).

--trace 0 prints the end-to-end metrics (medians over rounds, except
the mean for wall_s):
  wall_s       process start to exit with the report written
  setup_s      process start to the first session call (`run`) or to
               command dispatch (other commands), stamped once by shim.py
  peak_rss_mb  the child's maximum resident set size (wait4)
On audit the times are sums over the four commands and the RSS their max.
The lines above the result also give work_s = wall_s - setup_s and, on the
`run` workloads, sessions_per_s = sessions / work_s.
--trace 1 interleaves traced and untraced rounds and prints the per-layer
metrics (medians over traced rounds; p50/p99 over all traced sessions).
--smoke runs every workload once at a tiny size, traced and untraced, and
checks that each metric named in BENCHMARK.json prints with its unit.

The last line of stdout is one JSON object: correct, attempted, failed
(operations are CLI invocations, replays included) and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import FLAG_NONE, FLAG_RAISED, self_times
from workloads import WORKLOADS, Command

BENCH_DIR = Path(__file__).resolve().parent

MIN_ROUNDS = 3
MIN_TRACED_SESSIONS = 1000      # so p99 has at least 10 samples beyond it
DEADLINE_S = 170.0              # the whole run, including replays
SMOKE_TRIALS = {"p0-repetition": 4, "p0-wide-code": 4, "string-gf4": 1}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# On a shared host whose speed switches between regimes lasting tens of
# seconds, a run's rounds mix fast and slow ones: the median jumps to the
# regime holding half the rounds, while the mean moves with the mix (its
# run-to-run spread was 15-40% smaller on a 2-core shared host).  The mean
# is also the total wall time divided by the number of rounds.
MEAN_METRICS = ("wall_s",)


class Deadline(Exception):
    pass


@dataclass
class Invocation:
    command: Command
    wall: float = 0.0
    setup: float = 0.0
    rss_mb: float = 0.0
    stamps: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    report_bytes: int = 0
    digest: str = ""
    problems: list = field(default_factory=list)


class Runner:
    """Spawns, times and checks otlab invocations for one workload run."""

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.child = None
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []
        self._validator = None

    def spawn(self, argv: list, log: Path) -> tuple[int, float, float, float]:
        """Run argv to completion; (exit code, start, end, max RSS in MB)."""
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(log),
                    os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
                   (os.POSIX_SPAWN_DUP2, 1, 2)]
        start = time.monotonic()
        self.child = os.posix_spawn(sys.executable, argv, self.env,
                                    file_actions=actions)
        _, status, usage = os.wait4(self.child, 0)
        end = time.monotonic()
        self.child = None
        return os.waitstatus_to_exitcode(status), start, end, usage.ru_maxrss / 1024.0

    def kill_child(self) -> None:
        if self.child is not None:
            try:
                os.kill(self.child, signal.SIGKILL)
                os.waitpid(self.child, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            self.child = None

    def invoke(self, command: Command, mode: str) -> Invocation:
        stamp = self.workdir / "stamp.json"
        stamp.unlink(missing_ok=True)
        out = self.workdir / f"{command.name}.json"
        argv = [sys.executable, str(BENCH_DIR / "shim.py"), str(stamp), mode,
                "--", *command.args, "--seed", str(self.seed),
                "--out", str(out)]
        code, start, end, rss = self.spawn(argv, self.workdir / "child.log")
        inv = Invocation(command, wall=end - start, rss_mb=rss)
        if code != 0:
            inv.problems.append(f"exit code {code}: {self._log_tail()}")
        else:
            inv.stamps = json.loads(stamp.read_text())
            if "t_first" in inv.stamps:
                inv.setup = inv.stamps["t_first"] - start
            else:
                inv.problems.append("set-up stamp never fired")
            inv.problems += self.check_report(inv, out)
        self.record(f"{command.name} ({mode})", inv.problems)
        return inv

    def check_report(self, inv: Invocation, out: Path) -> list:
        try:
            data = out.read_bytes()
        except OSError as exc:
            return [f"no report: {exc}"]
        inv.report_bytes = len(data)
        inv.digest = hashlib.sha256(data).hexdigest()
        try:
            report = json.loads(data)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        inv.report = report
        problems = []
        canonical = json.dumps(report, sort_keys=True, indent=2,
                               allow_nan=False) + "\n"
        if canonical.encode() != data:
            problems.append("report bytes are not canonical")
        error = self.schema_error(report)
        if error:
            problems.append(f"report fails the schema: {error}")
        first = self.digests.setdefault(inv.command.name, inv.digest)
        if inv.digest != first:
            problems.append(f"sha256 {inv.digest} differs from {first}")
        try:
            problems += inv.command.check(report)
        except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
            problems.append(f"check could not read the output: {exc!r}")
        return problems

    def schema_error(self, report: dict):
        import jsonschema
        if self._validator is None:
            schema = json.loads((self.root / "src" / "otlab" / "schema"
                                 / "report.schema.json").read_text())
            self._validator = jsonschema.Draft202012Validator(schema)
        error = jsonschema.exceptions.best_match(
            self._validator.iter_errors(report))
        return None if error is None else error.message

    def replay(self, command: Command) -> None:
        report = self.workdir / f"{command.name}.json"
        argv = [sys.executable, "-m", "otlab", "replay", str(report)]
        code, _, _, _ = self.spawn(argv, self.workdir / "child.log")
        self.record(f"replay {command.name}",
                    [] if code == 0 else
                    [f"replay exit code {code}: {self._log_tail()}"])

    def record(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def _log_tail(self) -> str:
        try:
            text = (self.workdir / "child.log").read_text(errors="replace")
        except OSError:
            return ""
        return " | ".join(text.strip().splitlines()[-3:])


# -- metrics -----------------------------------------------------------------

def round_e2e(invocations: list) -> dict:
    wall = sum(i.wall for i in invocations)
    setup = sum(i.setup for i in invocations)
    return {"wall_s": wall, "setup_s": setup, "work_s": wall - setup,
            "peak_rss_mb": max(i.rss_mb for i in invocations)}


def round_sessions(invocations: list) -> int:
    return sum(i.report["aggregates"]["trials"]
               * i.report["derived"]["sessions_per_trial"]
               for i in invocations if i.command.sessions)


def layer_stats(stamps: dict) -> tuple[dict, dict, int]:
    """Per span name: calls, total_s, self_s, raised, none; plus the
    durations of the session spans and draw_hash's resample count (rank
    calls under each draw_hash span beyond the first)."""
    trace = stamps["trace"]
    names, spans = trace["names"], trace["spans"]
    selfs = self_times(spans)
    stats: dict[str, dict] = {}
    durations: dict[str, list] = {"proto_p0.p0_run": [],
                                  "proto_outer.run_session": []}
    rank_under_hash: dict[int, int] = {}
    for i, (span, own) in enumerate(zip(spans, selfs)):
        name = names[span[0]]
        s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "raised": 0, "none": 0})
        s["calls"] += 1
        s["total_s"] += span[2] - span[1]
        s["self_s"] += own
        s["raised"] += span[5] == FLAG_RAISED
        s["none"] += span[5] == FLAG_NONE
        if name in durations:
            durations[name].append((span[2] - span[1]) * 1e3)
        if name == "proto_p0.draw_hash":
            rank_under_hash.setdefault(i, 0)
        if name == "linalg.rank" and span[3] in rank_under_hash:
            rank_under_hash[span[3]] += 1
    resamples = sum(max(0, c - 1) for c in rank_under_hash.values())
    return stats, durations, resamples


def layer_metrics(invocations: list) -> tuple[dict, dict]:
    """Per-layer metric values of one traced round, and its session times."""
    total: dict[str, dict] = {}
    durations = {"proto_p0.p0_run": [], "proto_outer.run_session": []}
    import_s = setup_s = 0.0
    counters: dict[str, int] = {}
    for inv in invocations:
        st = inv.stamps
        import_s += st["t_import1"] - st["t_import0"]
        setup_s += st["t_first"] - st["t_main"]
        stats, durs, resamples = layer_stats(st)
        counters["proto_p0.draw_hash.resamples"] = (
            counters.get("proto_p0.draw_hash.resamples", 0) + resamples)
        for name, s in stats.items():
            acc = total.setdefault(name, dict.fromkeys(s, 0))
            for key, value in s.items():
                acc[key] += value
        for name, values in durs.items():
            durations[name] += values
        for name, value in st["trace"]["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def get(name: str, key: str):
        return total.get(name, {}).get(key, 0)

    def layer_self(prefix: str) -> float:
        return sum(s["self_s"] for n, s in total.items()
                   if n.startswith(prefix))

    m = {"cli.import_s": import_s, "cli.setup_s": setup_s}
    for name in ("channels.duplicate_round_trip", "linalg.rref",
                 "linalg.solve_affine", "proto_p0.p0_run", "proto_p0.decode",
                 "proto_outer.run_session", "codes.min_distance"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["linalg.rank.calls"] = get("linalg.rank", "calls")
    m["linalg.self_s"] = layer_self("linalg.")
    m["proto_p0.p0_run.total_s"] = get("proto_p0.p0_run", "total_s")
    m["proto_p0.draw_hash.self_s"] = get("proto_p0.draw_hash", "self_s")
    m["proto_p0.draw_hash.resamples"] = counters["proto_p0.draw_hash.resamples"]
    m["proto_p0.p0_partition.aborts"] = get("proto_p0.p0_partition", "raised")
    m["proto_p0.p0_alice_encode.self_s"] = get("proto_p0.p0_alice_encode",
                                               "self_s")
    m["proto_p0.decode.failures"] = get("proto_p0.decode", "none")
    m["proto_p0.decoder_init_s"] = get("proto_p0.decoder_init", "total_s")
    m["proto_p0.decoder_words"] = counters.get("proto_p0.decoder_words", 0)
    m["proto_p0.p0q_run.self_s"] = get("proto_p0.p0q_run", "self_s")
    for name in ("proto_outer.compress_setup", "proto_outer.p2_alice_setup",
                 "codes.orthonormalize", "codes.square_dual_sample",
                 "adversary.audit_bob_strategies",
                 "adversary.detection_campaign",
                 "adversary.tracker_advantage_p0", "reports.build_report",
                 "reports.validate_report", "reports.canonical_json"):
        m[f"{name}.self_s"] = get(name, "self_s")
    m["analysis.self_s"] = layer_self("analysis.")
    m["reports.report_bytes"] = sum(i.report_bytes for i in invocations)
    return m, durations


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- one workload run --------------------------------------------------------

def run_workload(root: Path, name: str, seed: int, seconds: float,
                 trace: bool, smoke: bool = False) -> dict:
    """Measure one workload; returns the result object the CLI prints."""
    workload = WORKLOADS[name]
    begun = time.monotonic()
    workdir = root / ".otbench" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, workdir, seed)
    try:
        trials = (SMOKE_TRIALS.get(name, workload.trials) if smoke
                  else workload.trials)
        commands = workload.make(workdir, seed, trials)
        plain, traced = [], []

        def measure(mode: str) -> bool:
            """One round; kept for the metrics only when every check passed."""
            invocations = [runner.invoke(c, mode) for c in commands]
            if any(i.problems for i in invocations):
                return False
            (traced if mode == "trace" else plain).append(invocations)
            return True

        if smoke:
            if measure("plain") and trace:
                measure("trace")
        elif measure("plain"):           # warms the caches; not timed
            plain.clear()
            started = time.monotonic()
            wants_sessions = any(c.sessions for c in commands)
            while True:
                elapsed = time.monotonic() - started
                rounds = plain + traced
                typical = (statistics.median(sum(i.wall for i in r)
                                             for r in rounds)
                           if rounds else 0.0)
                sessions = sum(round_sessions(r) for r in traced)
                if trace:
                    done = len(traced) >= MIN_ROUNDS and (
                        sessions >= MIN_TRACED_SESSIONS or not wants_sessions)
                else:
                    done = len(plain) >= MIN_ROUNDS
                if (done and elapsed + typical > seconds or
                        time.monotonic() - begun + typical > DEADLINE_S - 30):
                    break
                # traced runs go traced, traced, untraced, ...
                traced_turn = trace and len(traced) < 2 * len(plain) + 2
                if not measure("trace" if traced_turn else "plain"):
                    break
        for c in commands:
            runner.replay(c)
        return summarize(workload, commands, runner, plain, traced, trace)
    finally:
        runner.kill_child()
        shutil.rmtree(workdir, ignore_errors=True)


def summarize(workload, commands: list, runner: Runner, plain: list,
              traced: list, trace: bool) -> dict:
    correct = runner.failed == 0 and bool(plain) and (bool(traced) or not trace)
    metrics: dict[str, dict] = {}
    lines = [f"workload {workload.name}: {workload.why}"]
    rounds = [round_e2e(r) for r in plain]
    if not trace and rounds:
        shown = dict(E2E_UNITS, work_s="s")
        if any(c.sessions for c in commands):
            shown["sessions_per_s"] = "1/s"
            for r, invocations in zip(rounds, plain):
                r["sessions_per_s"] = round_sessions(invocations) / r["work_s"]
        for key, unit in shown.items():
            values = [r[key] for r in rounds]
            q1, med, q3 = quartiles(values)
            mean = statistics.fmean(values)
            if key in E2E_UNITS:
                metrics[key] = {"value": mean if key in MEAN_METRICS else med,
                                "unit": unit}
            lines.append(f"  {key:<14} median {med:.4f} {unit}  "
                         f"q1 {q1:.4f}  q3 {q3:.4f}  mean {mean:.4f}  "
                         f"n={len(rounds)}")
    else:
        per_round = []
        durations = {"proto_p0.p0_run": [], "proto_outer.run_session": []}
        for r in traced:
            values, durs = layer_metrics(r)
            per_round.append(values)
            for k, v in durs.items():
                durations[k] += v
        if per_round:
            for key in per_round[0]:
                metrics[key] = {"value": statistics.median(
                    v[key] for v in per_round), "unit": layer_unit(key)}
            runs = durations["proto_p0.p0_run"]
            metrics["proto_p0.p0_run.p50_ms"] = {
                "value": percentile(runs, 0.50), "unit": "ms"}
            metrics["proto_p0.p0_run.p99_ms"] = {
                "value": percentile(runs, 0.99), "unit": "ms"}
            metrics["proto_outer.run_session.p50_ms"] = {
                "value": percentile(durations["proto_outer.run_session"],
                                    0.50), "unit": "ms"}
            lines.append(f"  traced rounds {len(traced)}, p0_run samples "
                         f"{len(runs)}, untraced rounds {len(plain)}")
            missing = traced[0][0].stamps["trace"]["missing"]
            if missing:
                lines.append(f"  not found, so not traced: {', '.join(missing)}")
            p0_time = metrics["proto_p0.p0_run.total_s"]["value"]
            if p0_time:
                lines.append("  share of p0_run time: linalg self "
                             f"{metrics['linalg.self_s']['value'] / p0_time:.3f}"
                             ", decode self "
                             f"{metrics['proto_p0.decode.self_s']['value'] / p0_time:.3f}")
        if per_round and rounds:
            traced_wall = statistics.median(round_e2e(r)["wall_s"]
                                            for r in traced)
            plain_wall = statistics.median(r["wall_s"] for r in rounds)
            metrics["trace.overhead_ratio"] = {
                "value": traced_wall / plain_wall, "unit": "ratio"}
    digests = ", ".join(f"{k} {v[:16]}" for k, v in runner.digests.items())
    lines.append(f"  fail_rate {runner.failed}/{runner.attempted} = "
                 f"{runner.failed / max(1, runner.attempted):.4f}  "
                 f"(operations are CLI invocations, replays included)")
    lines.append(f"  report sha256 {digests}")
    lines += [f"  FAILED {p}" for p in runner.problems[:20]]
    return {"lines": lines,
            "result": {"correct": correct, "attempted": runner.attempted,
                       "failed": runner.failed, "metrics": metrics}}


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_bytes"):
        return "bytes"
    return "count"


# -- entry points ------------------------------------------------------------

def check_root(root: Path) -> bool:
    if (root / "src" / "otlab" / "cli.py").is_file():
        return True
    print(f"otbench: {root} holds no otlab source tree (src/otlab); run "
          "from the root of an otlab checkout", file=sys.stderr)
    return False


def smoke(root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bad = []
    for name in WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            out = run_workload(root, name, 1, 0.0, trace, smoke=True)
            print("\n".join(out["lines"]))
            result = out["result"]
            if not result["correct"]:
                bad.append(f"{name} trace={int(trace)}: not correct")
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    bad.append(f"{name} trace={int(trace)}: {metric['name']} "
                               f"missing or not in {metric['unit']}")
    for line in bad:
        print(f"smoke: {line}", file=sys.stderr)
    print("smoke: ok" if not bad else f"smoke: {len(bad)} problems")
    return 0 if not bad else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not check_root(root):
        return 2
    sys.path.insert(0, str(root / "src"))    # the otlab under test, for inputs
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    def on_signal(signum, frame):
        raise Deadline(f"signal {signum}")

    for sig in (signal.SIGALRM, signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, on_signal)
    if not args.smoke:
        signal.alarm(int(DEADLINE_S))
    try:
        if args.smoke:
            return smoke(root)
        out = run_workload(root, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except Deadline as exc:
        print(f"otbench: stopped ({exc}) before the run finished",
              file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
