"""Command-line front end.

Subcommands: `run` (honest protocol sessions), `attack` (adversary
campaigns), `rates` (achievable-rate table and curve), `code-audit`
(distance and square structure of a stored code), `replay` (re-run a
report and compare).

Every subcommand is a pure function of (config, master seed) to its
report: trial t always draws from the child stream (seed, 0, t), setup
randomness from (seed, 1), campaign streams from (seed, 2...), so the
worker count never changes the bytes.  Reports are canonical JSON
validated against the schema shipped with the package.

Exit codes: 0 success, 1 replay mismatch or internal error (with a
traceback), 2 config error or an output file that cannot be written (its
directory is checked before any work), 3 an enumeration over its
--enum-limit budget or over a cap that no limit lifts, 4 aborts
dominated a run (half or more of the sessions).
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional

from . import __version__
from .analysis import (curve_grid, detection_rule, expected_unerased,
                       optimize_rate_p0, rate_chain, rate_curve, rate_p0,
                       wilson_interval)
from .channels import BscParams, derive_rng, random_bits
from .codes import (DEFAULT_ENUM_LIMIT, EnumerationLimit, LinearCode,
                    OrthonormalCode, code_from_json, orthonormalize,
                    random_code)
from .gf import GF, MAX_DEGREE
from .linalg import Matrix, random_matrix, unpack
from .proto_outer import OuterParams, compressed_length, run_session
from .proto_p0 import (MLDecoder, P0Params, check_decoder_cap, p0_run,
                       p0_secret_length, p0q_run)
from .reports import (ReportError, build_report, canonical_json,
                      validate_report, write_csv, write_report)

if TYPE_CHECKING:
    from .channels import Stream

ENV_SEED = "OTLAB_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ENUM = 3
EXIT_ABORT = 4

DEFAULT_N0 = 15
DEFAULT_PHI = 0.198
DEFAULT_DELTA = 0.25
DEFAULT_C = 1.0
CODE_SEARCH_TRIES = 32


class ConfigError(Exception):
    """Bad or inconsistent configuration; maps to exit code 2."""


class OutputError(Exception):
    """A named output file cannot be written; maps to exit code 2."""


def _check_writable(*paths: Optional[str]) -> None:
    """Refuse a named output whose directory is missing, not a directory
    or not writable, before any work; the file is not touched, and
    `_write` still catches what this cannot see."""
    for path in filter(None, paths):
        folder = os.path.dirname(path) or os.curdir
        error = (errno.ENOENT if not os.path.exists(folder)
                 else errno.ENOTDIR if not os.path.isdir(folder)
                 else errno.EACCES if not os.access(folder, os.W_OK)
                 else None)
        if error is not None:
            raise OutputError(f"cannot write {path}: {os.strerror(error)}")


def _write(write: Callable[[str, dict], None], path: str,
           report: dict) -> None:
    try:
        write(path, report)
    except OSError as exc:
        raise OutputError(
            f"cannot write {path}: {exc.strerror or exc}") from exc


# -- config plumbing --------------------------------------------------------

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}

FILE = "FILE"  # the kind of a key that names a code file

# the Python types each kind accepts (a bool is not a number) and its name
_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
          str: ((str,), "a string"), bool: ((bool,), "true or false"),
          FILE: ((dict,), "a code JSON object")}


class Opt(NamedTuple):
    """A config key: kind (int, float, str, bool or FILE), default and the
    help of its flag --key; a bool key is set by a side output's flag.
    domain, an interval such as "[0, 0.5)", bounds a number; only names
    the protocols or strategies that read the key (others keep its
    default)."""

    kind: Any
    default: Any = None
    help: Optional[str] = None
    metavar: Optional[str] = None
    choices: Any = None
    domain: Optional[str] = None
    only: Optional[tuple] = None


class Output(NamedTuple):
    """A side file written from the report when its flag names a path;
    key, when set, is the bool config key the flag turns on."""

    flag: str
    dest: str
    help: str
    write: Callable[[str, dict], None]
    key: Optional[str] = None


class Command(NamedTuple):
    """One subcommand, as the parser, the checker and emission read it."""

    help: str
    keys: dict  # config key -> Opt, in the order errors list them
    execute: Callable[[dict, int], dict]
    summary: Callable[[dict], str]
    outputs: tuple = ()


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def parse_config_file(path: str) -> dict:
    """Flat `key = value` lines; `#` starts a comment, blanks are skipped."""
    out = {}
    for ln, raw in enumerate(_read(path, "config file").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{ln}: expected `key = value`")
        out[key.strip()] = value.strip()
    return out


def _load_code_value(key: str, value):
    """Paths become inline code JSON so reports are self-contained."""
    if not isinstance(value, str):
        return value
    try:
        obj = json.loads(_read(value, f"{key} file"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{key} file {value} is not JSON: {exc}") from exc
    _require(isinstance(obj, dict),
             f"{key} file {value} must hold a JSON object")
    return obj


def resolve_config(command: str, file_cfg: dict,
                   flag_cfg: dict) -> tuple[dict, Optional[str]]:
    """Config file < flags, code files loaded; execute checks the values
    and fills the defaults.  Returns the config and the file's seed."""
    keys = COMMANDS[command].keys
    merged = {**file_cfg, **flag_cfg}
    file_seed = merged.pop("seed", None)
    for key, value in merged.items():
        if key in keys and keys[key].kind == FILE:
            merged[key] = _load_code_value(key, value)
    return merged, file_seed


def resolve_seed(flag_seed: Optional[int], file_seed: Optional[str]) -> int:
    """--seed, else the config file's seed, else $OTLAB_SEED, else 0."""
    raw = next(value for value in (flag_seed, file_seed,
                                   os.environ.get(ENV_SEED) or None, "0")
               if value is not None)
    try:
        seed = int(raw)
    except ValueError as exc:
        raise ConfigError(f"seed must be an integer, got {raw!r}") from exc
    _require(seed >= 0, f"seed must be non-negative, got {seed}")
    return seed


def _domain_text(opt: Opt) -> str:
    """An integer's "[N, inf)" reads "at least N", any other "in <domain>"."""
    low, high = opt.domain[1:-1].split(",")
    if opt.kind is int and opt.domain[0] == "[" and high.strip() == "inf":
        return f"at least {low}"
    return f"in {opt.domain}"


def _in_domain(value, domain: str) -> bool:
    """Whether value lies in the interval; nan lies in none."""
    low, high = (float(end) for end in domain[1:-1].split(","))
    return ((low <= value if domain[0] == "[" else low < value)
            and (value <= high if domain[-1] == "]" else value < high))


def _value(key: str, opt: Opt, raw):
    """raw (a flag's value, a config file's string or a replayed JSON value)
    as a value of the key's kind, in its choices and domain."""
    types, name = _KINDS[opt.kind]
    if raw is None and opt.default is None:
        return None
    if isinstance(raw, str) and opt.kind in (int, float, bool):
        try:
            raw = (_BOOL_WORDS[raw.lower()] if opt.kind is bool
                   else opt.kind(raw))
        except (KeyError, ValueError):
            pass  # rejected as a string just below
    _require(type(raw) in types, f"{key} must be {name}, got {raw!r}")
    value = float(raw) if opt.kind is float else raw
    if opt.choices is not None:
        _require(value in opt.choices,
                 f"{key} must be one of {', '.join(opt.choices)}, "
                 f"got {value!r}")
    if opt.domain is not None:
        _require(_in_domain(value, opt.domain),
                 f"{key} must be {_domain_text(opt)}, got {value}")
    return value


def _take(config: dict, command: str) -> dict:
    """The one config checker, for flags, config files and replays: each
    key filled in, typed and checked against its Opt, before any work."""
    keys = COMMANDS[command].keys
    extra = set(config) - set(keys)
    if extra:
        raise ConfigError(
            f"unknown {command} config keys: {', '.join(sorted(extra))} "
            f"(valid: {', '.join(keys)})")
    cfg = {key: _value(key, opt, config.get(key, opt.default))
           for key, opt in keys.items()}
    # the key with choices (protocol, strategy) selects who reads the rest
    selector = next((key for key, opt in keys.items() if opt.choices), None)
    for key, opt in keys.items():
        if opt.only and cfg[key] != opt.default:
            _require(cfg[selector] in opt.only,
                     f"{key} must be left at its default for {selector} "
                     f"{cfg[selector]}; it is read by "
                     f"{', '.join(opt.only)} only")
    return cfg


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _checked(fn: Callable, *args, **kwargs):
    """fn(*args, **kwargs), a rejected value's ValueError as a ConfigError."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- code files ---------------------------------------------------------------

def _load_code(obj: dict, what: str, orthonormal: bool = False) -> tuple:
    """(code, embedded audit) from a code file's JSON object.

    With orthonormal=True the code is replaced by its orthonormal basis.
    A malformed file, or a code with no orthonormal basis, is a config
    error.
    """
    try:
        code, embedded = code_from_json(obj)
        return (orthonormalize(code)[0] if orthonormal else code), embedded
    except KeyError as exc:
        raise ConfigError(f"the {what} file has no {exc} entry") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad {what} file: {exc}") from exc


# the budget key of run, attack and code-audit
_ENUM_LIMIT = Opt(
    int, DEFAULT_ENUM_LIMIT,
    "budget of each exhaustive enumeration, checked before it starts "
    "(exit 3 above): q^k codewords for the distance search, 2^k for the "
    "ML decoder, 2^n masks x compression pairs for the bob audit; it "
    "cannot lift the decoder's cap of 2^20 codewords or the bob audit's "
    "cap n <= 16", "N", domain="[1, inf)")


# -- run subcommand ----------------------------------------------------------

class Protocol(NamedTuple):
    """One row of the run subcommand's protocol table.

    outer: an orthonormal outer code over 1-of-q inner transfers;
    compressed: the primed variants; q_range: the least and greatest
    secret alphabet size, a power of two.  trial(setup, rng) runs one
    trial and returns (session, expected output).
    """

    outer: bool
    compressed: bool
    q_range: tuple
    trial: Callable


class RunSetup(NamedTuple):
    protocol: Protocol
    inner: P0Params
    outer: Optional[OuterParams]
    q: int
    transcripts: int
    inner_distance: Optional[int]
    sessions_per_trial: int
    channel_bits: int  # 4 n0 per inner session, whatever each one does
    observed_rate: float  # both secrets' bits per channel bit


def _toy_compressed_basis(field) -> OrthonormalCode:
    """[I_4 | ones] has orthonormal rows over any of our fields."""
    rows = tuple(tuple(int(j == i) for j in range(4)) + (1, 1, 1, 1)
                 for i in range(4))
    return OrthonormalCode(Matrix(field, rows))


def _default_inner_code(n0: int, bits: int, limit: int,
                        rng: Stream) -> tuple[LinearCode, Optional[int]]:
    if bits == 1:
        return LinearCode(Matrix(GF(1), ((1,) * n0,))), n0
    # the first of the farthest candidates; min_distance is cached
    best = max((random_code(GF(1), n0, bits, rng)
                for _ in range(CODE_SEARCH_TRIES)),
               key=lambda code: code.min_distance(limit))
    return best, best.min_distance(limit)


def _p0_trial(setup: RunSetup, rng: Stream) -> tuple:
    bits = setup.inner.secret_bits
    first, second = random_bits(rng, bits), random_bits(rng, bits)
    want_first = bool(rng.integers(0, 2))
    session = p0_run(first, second, want_first, setup.inner, rng)
    return session, first if want_first else second


def _p0q_trial(setup: RunSetup, rng: Stream) -> tuple:
    bits = setup.inner.secret_bits
    secrets = [random_bits(rng, bits) for _ in range(setup.q)]
    index = int(rng.integers(setup.q))
    session = p0q_run(secrets, index, setup.inner, rng)
    return session, secrets[index]


def _outer_trial(setup: RunSetup, rng: Stream) -> tuple:
    params = setup.outer
    field = params.field
    rows_n = (params.outer_dim if params.margin is None
              else compressed_length(params.outer_dim, params.margin))
    first = random_matrix(field, rows_n, params.block_syms, rng)
    second = random_matrix(field, rows_n, params.block_syms, rng)
    want_first = bool(rng.integers(0, 2))
    session = run_session(params, first, second, want_first, rng)
    return session, first if want_first else second


PROTOCOLS = {
    "p0": Protocol(False, False, (2, 2), _p0_trial),
    "p0q": Protocol(False, False, (2, math.inf), _p0q_trial),
    "p1": Protocol(True, False, (2, 2), _outer_trial),
    "p1prime": Protocol(True, True, (2, 2), _outer_trial),
    "p2": Protocol(True, False, (4, 2 ** MAX_DEGREE), _outer_trial),
    "p2prime": Protocol(True, True, (4, 2 ** MAX_DEGREE), _outer_trial),
}
_OUTER = tuple(name for name, spec in PROTOCOLS.items() if spec.outer)
_PRIMED = tuple(name for name, spec in PROTOCOLS.items() if spec.compressed)


def _alphabet(protocol: str, q: Optional[int], code_q: Optional[int]) -> int:
    """The secret alphabet size: q, else the outer code's field order (None
    without a code), else the least of the protocol's q_range."""
    _require(None in (q, code_q) or q == code_q,
             f"outer code lives over a {code_q}-symbol field; q={q} "
             "disagrees")
    low, high = PROTOCOLS[protocol].q_range
    size = q if q is not None else code_q if code_q is not None else low
    _require(low <= size <= high and size & (size - 1) == 0,
             f"{protocol} needs q (or an outer code's field order) a power "
             f"of two from {low} to {high}, got {size}")
    return size


def _normalize_run(config: dict, seed: int) -> tuple[dict, RunSetup]:
    cfg = _take(config, "run")
    spec = PROTOCOLS[cfg["protocol"]]
    m, slack, limit = cfg["m"], cfg["slack"], cfg["enum_limit"]

    # secret alphabet, fixed by the outer code's field when one is given
    basis = None
    if cfg["outer_code"] is not None:
        basis, _ = _load_code(cfg["outer_code"], "outer code",
                              orthonormal=True)
    q = _alphabet(cfg["protocol"], cfg["q"],
                  None if basis is None else basis.field.order)
    degree = q.bit_length() - 1 if spec.outer else 1

    # inner session code from a file; the default one, the session
    # parameters and the decoder come after the outer checks
    bits = m * degree
    code = embedded = inner_d = None
    if cfg["code"] is not None:
        code, embedded = _load_code(cfg["code"], "inner code")
        _require(code.field.degree == 1, "the inner code must be binary")
        n0 = code.length
        _require(cfg["n0"] in (None, n0),
                 f"inner code length {n0} disagrees with n0={cfg['n0']}")
    else:
        n0 = DEFAULT_N0 if cfg["n0"] is None else cfg["n0"]
        _require(bits <= n0, f"secrets of {bits} bits do not fit n0={n0}")
    # the decoder's cap, before any distance search (default code: k = bits)
    check_decoder_cap(bits if code is None else code.dimension)
    if embedded is not None:
        inner_d = code.min_distance(limit)
        _require(inner_d == embedded.d,
                 f"the inner code file claims d={embedded.d} in its "
                 f"embedded audit, but the code has d={inner_d}")

    # outer structure
    margin = None
    secret_rows = 1
    if spec.outer:
        if basis is not None:
            _require(cfg["n"] in (None, basis.length),
                     f"orthonormalized outer code runs {basis.length} rounds; "
                     f"n={cfg['n']} disagrees")
        elif spec.compressed:
            _require(cfg["n"] in (None, 8),
                     "the built-in compressed-variant code runs 8 rounds; "
                     "pass outer_code to change n")
            basis = _toy_compressed_basis(GF(degree))
        else:
            if cfg["n"] is None:
                rounds = n0 * n0 if n0 % 2 else n0 * n0 - 1
            else:
                rounds = cfg["n"]
                _require(rounds % 2 == 1,
                         "the built-in outer basis is the all-ones row, "
                         "which is orthonormal only at odd n; pass "
                         "outer_code for even lengths")
            basis = OrthonormalCode(Matrix(GF(degree), ((1,) * rounds,)))
        _require(basis.base.schur_square().dimension < basis.length,
                 "the outer code's square spans the whole space, so its "
                 "dual has no request mask; use a code with a smaller "
                 "square")
        secret_rows = basis.dimension
        if spec.compressed:
            margin = DEFAULT_DELTA if cfg["delta"] is None else cfg["delta"]
            try:
                secret_rows = compressed_length(basis.dimension, margin)
            except ValueError as exc:
                raise ConfigError(f"{exc}; with the default 8-round outer "
                                  "code use delta = 0.25") from exc

    # inner session parameters and decoder
    if code is None:
        code, inner_d = _default_inner_code(n0, bits, limit,
                                            derive_rng(seed, 1))
    inner = _checked(P0Params, channel=BscParams(cfg["phi"]),
                     code=code, secret_bits=bits,
                     security_slack=slack if slack > 0 else None,
                     decoder=MLDecoder(code, limit))
    outer = (OuterParams(basis=basis, inner=inner, margin=margin)
             if spec.outer else None)
    secret_bits = secret_rows * bits

    resolved = {**cfg, "n0": n0, "n": outer.rounds if outer else None,
                "q": q, "delta": margin}
    # q - 1 inner sessions per round; one round without an outer code
    sessions = (q - 1) * (outer.rounds if outer else 1)
    channel_bits = 4 * n0 * sessions
    setup = RunSetup(protocol=spec, inner=inner, outer=outer, q=q,
                     transcripts=cfg["transcripts"], inner_distance=inner_d,
                     sessions_per_trial=sessions, channel_bits=channel_bits,
                     observed_rate=2.0 * secret_bits / channel_bits)
    return resolved, setup


def _run_trial(setup: RunSetup, seed: int, trial: int) -> dict:
    rng = derive_rng(seed, 0, trial)
    session, expected = setup.protocol.trial(setup, rng)
    outcome = session.status
    if outcome == "ok" and session.output != expected:
        outcome = "wrong_output"
    row = {"trial": trial, "outcome": outcome}
    if trial < setup.transcripts:
        row["transcript"] = session.transcript()
    return row


_WORKER_CACHE: dict = {}


def _trial_chunk(payload: tuple) -> list[dict]:
    config_json, seed, lo, hi = payload
    key = (config_json, seed)
    setup = _WORKER_CACHE.get(key)
    if setup is None:
        _, setup = _normalize_run(json.loads(config_json), seed)
        _WORKER_CACHE[key] = setup
    return [_run_trial(setup, seed, t) for t in range(lo, hi)]


def _run_all_trials(resolved: dict, setup: RunSetup, seed: int,
                    workers: int) -> list[dict]:
    trials = resolved["trials"]
    if workers == 1 or trials < 2 * workers:
        return [_run_trial(setup, seed, t) for t in range(trials)]
    config_json = json.dumps(resolved, sort_keys=True)
    # contiguous chunks, none empty since trials >= 2 workers
    payloads = [(config_json, seed, trials * i // workers,
                 trials * (i + 1) // workers) for i in range(workers)]
    # imported here: the pool modules add start-up time to every command
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [row for chunk in pool.map(_trial_chunk, payloads)
                for row in chunk]


def cmd_run(config: dict, seed: int, workers: int = 1) -> dict:
    _require(workers >= 1, f"workers must be at least 1, got {workers}")
    resolved, setup = _normalize_run(config, seed)
    rows = _run_all_trials(resolved, setup, seed, workers)
    trials = len(rows)
    counts = Counter(r["outcome"] for r in rows)
    channel = BscParams(resolved["phi"])
    rule = detection_rule(setup.sessions_per_trial, setup.inner.block_len,
                          resolved["phi"], resolved["c"])
    derived = {
        "erasure_rate": channel.erasure_rate,
        "residual_error": channel.residual_error,
        "formula_rate": rate_p0(resolved["phi"]),
        "secret_bits_inner": setup.inner.secret_bits,
        "secret_cap": (p0_secret_length(setup.inner.block_len,
                                        resolved["phi"], resolved["slack"])
                       if resolved["slack"] > 0 else None),
        "sessions_per_trial": setup.sessions_per_trial,
        "channel_bits": setup.channel_bits,
        "observed_rate": setup.observed_rate,
        "eta": rule.eta,
        "threshold": rule.threshold,
        "false_accusation_bound": rule.false_accusation_bound,
        "inner_code": {"n": setup.inner.block_len,
                       "k": setup.inner.code.dimension,
                       "d": setup.inner_distance},
    }
    if setup.outer is not None:
        derived["outer"] = {
            "rounds": setup.outer.rounds,
            "dim": setup.outer.outer_dim,
            "field_order": setup.q,
            "compressed_len": (compressed_length(setup.outer.outer_dim,
                                                 setup.outer.margin)
                               if setup.protocol.compressed else None),
        }
    aggregates = {
        "trials": trials,
        "success_rate": counts["ok"] / trials,
        "wrong_output_rate": counts["wrong_output"] / trials,
        "abort_rate": counts["abort"] / trials,
        "decode_failure_rate": counts["decode_failure"] / trials,
        "ci_95": list(wilson_interval(counts["ok"], trials)),
    }
    return build_report("run", resolved, seed, derived, aggregates,
                        trials=rows)


_RUN = Command(
    "simulate honest protocol sessions",
    {"protocol": Opt(str, "p0", choices=PROTOCOLS),
     "phi": Opt(float, DEFAULT_PHI, "channel crossover", domain="[0, 0.5)"),
     "n0": Opt(int, None, "inner block length", domain="[2, inf)"),
     "n": Opt(int, None, "outer rounds", domain="[1, inf)", only=_OUTER),
     "m": Opt(int, 1, "secret bits (p0/p0q) or symbols per round",
              domain="[1, inf)"),
     "q": Opt(int, None, "secret count (p0q) or outer field order (p2)"),
     "delta": Opt(float, None, "compression margin for the primed variants",
                  only=_PRIMED),
     # the detection rule's Hoeffding bound holds only for c > 0
     "c": Opt(float, DEFAULT_C, "detection threshold constant",
              domain="(0, inf)"),
     "slack": Opt(float, 0.0, "privacy-amplification sizing margin (0 = off)",
                  domain="[0, inf)"),
     "trials": Opt(int, 100, domain="[1, inf)"),
     "transcripts": Opt(int, 0, "embed full transcripts for the first N "
                        "trials", "N", domain="[0, inf)"),
     "code": Opt(FILE, None, "inner code JSON"),
     "outer_code": Opt(FILE, None, "outer code JSON (orthonormalized on load)",
                       only=_OUTER),
     "enum_limit": _ENUM_LIMIT},
    cmd_run,
    lambda rep: ("run {protocol}: trials={trials} success={success_rate:.4f} "
                 "abort={abort_rate:.4f} "
                 "decode_failure={decode_failure_rate:.4f}").format(
                     protocol=rep["config"]["protocol"], **rep["aggregates"]))


# -- attack subcommand -------------------------------------------------------

def _parse_grid(raw: Optional[str], n: int, slots: int) -> list[int]:
    if raw:
        try:
            grid = [int(part) for part in raw.split(",") if part.strip()]
        except ValueError as exc:
            raise ConfigError(
                f"sweep_grid expects comma-separated integers, got {raw!r}"
            ) from exc
    else:
        grid = [0, n // 4, n // 2, n]
    grid = sorted(set(grid))
    _require(len(grid) >= 2, "sweep_grid needs at least two distinct points")
    for point in grid:
        _require(0 <= point <= slots,
                 f"sweep point {point} outside 0..{slots}")
    return grid


def _normalize_attack(config: dict) -> dict:
    cfg = _take(config, "attack")
    strategy, n0 = cfg["strategy"], cfg["n0"]
    n = n0 * n0 if cfg["n"] is None else cfg["n"]
    slots = 2 * n * n0
    if strategy == "tracker":
        corrupted = n if cfg["corrupted"] is None else cfg["corrupted"]
        _require(0 <= corrupted <= slots,
                 f"corrupted must be in 0..{slots} (2 n n0 slots)")
    else:
        _require(cfg["corrupted"] in (None, 0),
                 "honest strategy fixes corrupted = 0" if strategy == "honest"
                 else "the request-mask audit does not corrupt pairs; drop "
                 "corrupted")
        corrupted = 0
    _require(cfg["sweep_grid"] is None or cfg["sweep"],
             "sweep_grid applies to the sweep only")
    delta = cfg["delta"]
    if strategy == "bob" and delta is None:
        delta = DEFAULT_DELTA
    return {**cfg, "n": n, "corrupted": corrupted, "delta": delta}


# Each strategy returns (derived, aggregates, trial rows or None).  It
# imports adversary itself: every command would pay for it at start-up.

def _attack_detection(cfg: dict, seed: int) -> tuple:
    """Honest and tracker: the detection campaign, the tracker's edge and
    the optional corruption sweep."""
    from .adversary import (detection_campaign, detection_sweep,
                            tracker_advantage_p0)
    strategy = cfg["strategy"]
    phi, n0, n, c = cfg["phi"], cfg["n0"], cfg["n"], cfg["c"]
    trials, corrupted = cfg["trials"], cfg["corrupted"]
    rule = detection_rule(n, n0, phi, c)
    derived = {
        "eta": rule.eta,
        "threshold": rule.threshold,
        "false_accusation_bound": rule.false_accusation_bound,
        "expected_unerased_honest": expected_unerased(n, n0, phi, 0),
        "expected_unerased": expected_unerased(n, n0, phi, corrupted),
    }
    campaign = detection_campaign(n, n0, phi, corrupted, trials,
                                  derive_rng(seed, 2).numpy_generator(), c)
    derived["campaign"] = {
        "mean_unerased": campaign.mean_unerased,
        "expected_mean": campaign.expected_mean,
    }
    advantage = 0.0
    if strategy == "tracker":
        per_session = min(2 * n0, (corrupted + n // 2) // n)
        derived["per_session_corrupt"] = per_session
        adv = tracker_advantage_p0(n0, phi, per_session, trials,
                                   derive_rng(seed, 3).numpy_generator())
        advantage = adv.advantage
        derived["advantage_std_error"] = adv.std_error
        derived["tie_rate"] = adv.tie_rate
    if cfg["sweep"]:
        grid = _parse_grid(cfg["sweep_grid"], n, rule.slots)
        sweep = detection_sweep(n, n0, phi, grid, trials,
                                derive_rng(seed, 4).numpy_generator(), c)
        derived["sweep"] = {
            "grid": grid,
            "accusation_rates": [p.accusation_rate for p in sweep.points],
            "mean_unerased": [p.mean_unerased for p in sweep.points],
            "slope": sweep.slope,
            "expected_slope": sweep.expected_slope,
            "rows": [[float(p.corrupted), p.accusation_rate, *p.ci_95]
                     for p in sweep.points],
        }
    aggregates = {
        "params": {"phi": phi, "n0": n0, "n": n, "c": c,
                   "corrupted": corrupted, "eta": rule.eta,
                   "threshold": rule.threshold},
        "strategy": strategy,
        "trials": trials,
        "accusation_rate": campaign.accusation_rate,
        "advantage": advantage,
        "posterior_entropies": None,
        "rank_V_histogram": None,
        "ci_95": list(campaign.ci_95),
    }
    return derived, aggregates, None


def _attack_bob(cfg: dict, seed: int) -> tuple:
    """Bob's request-mask audit: every mask of the outer code against the
    compression-pair ensemble."""
    from .adversary import audit_bob_strategies
    if cfg["outer_code"] is None:
        basis = _toy_compressed_basis(GF(1))
    else:
        basis, _ = _load_code(cfg["outer_code"], "outer code",
                              orthonormal=True)
        _require(basis.field.degree == 1, "the request-mask audit is "
                 "binary; supply a binary code")
    margin = cfg["delta"]
    # the audit checks its caps and budget first (exit 3); its ValueErrors
    # are argument checks, such as a bad margin or too many pairs
    audit = _checked(audit_bob_strategies, basis, margin,
                     pair_samples=cfg["pair_samples"],
                     rng=derive_rng(seed, 5), limit=cfg["enum_limit"])
    rows = [{
        "mask": "".join(map(str, unpack(basis.field, cell.mask,
                                        basis.length))),
        "rank_V": cell.rank_v,
        "rank_U": cell.rank_u,
        "mean_entropy_first": cell.mean_first,
        "mean_entropy_second": cell.mean_second,
        "predicted_side": cell.predicted_side(audit.outer_dim),
        "predicted_entropy": cell.predicted_entropy(audit.outer_dim),
    } for cell in audit.cells]
    derived = {
        "outer_len": basis.length,
        "outer_dim": audit.outer_dim,
        "compressed_len": audit.compressed_len,
        "margin": audit.margin,
    }
    aggregates = {
        "params": {"phi": cfg["phi"], "outer_len": basis.length,
                   "outer_dim": audit.outer_dim, "delta": margin,
                   "compressed_len": audit.compressed_len},
        "strategy": "bob",
        "trials": len(audit.cells),
        "accusation_rate": None,
        "advantage": audit.slack_bits,
        "posterior_entropies": {
            "worst_predicted_bits": audit.worst_predicted,
            "full_bits": float(audit.compressed_len),
            "slack_bits": audit.slack_bits,
            "prediction_mismatches": audit.prediction_mismatches,
        },
        "rank_V_histogram": {str(k): v
                             for k, v in sorted(audit.rank_histogram.items())},
        "ci_95": None,
    }
    return derived, aggregates, rows


_ATTACKS = {"honest": _attack_detection, "tracker": _attack_detection,
            "bob": _attack_bob}


def cmd_attack(config: dict, seed: int) -> dict:
    cfg = _normalize_attack(config)
    derived, aggregates, rows = _ATTACKS[cfg["strategy"]](cfg, seed)
    derived["erasure_rate"] = BscParams(cfg["phi"]).erasure_rate
    return build_report("attack", cfg, seed, derived, aggregates,
                        trials=rows)


def _attack_summary(report: dict) -> str:
    agg = report["aggregates"]
    if agg["strategy"] == "bob":
        ent = agg["posterior_entropies"]
        return (f"attack bob: masks={agg['trials']} "
                f"worst_predicted={ent['worst_predicted_bits']:.4f} of "
                f"{ent['full_bits']:.0f} bits, "
                f"mismatches={ent['prediction_mismatches']}")
    return (f"attack {agg['strategy']}: trials={agg['trials']} "
            f"accusation_rate={agg['accusation_rate']:.4f} "
            f"advantage={agg['advantage']:.4f}")


_ATTACK = Command(
    "adversary campaigns",
    {"strategy": Opt(str, "tracker", choices=_ATTACKS),
     "phi": Opt(float, DEFAULT_PHI, domain="[0, 0.5)"),
     "n0": Opt(int, DEFAULT_N0, domain="[2, inf)"),
     "n": Opt(int, None, "sessions per campaign", domain="[1, inf)"),
     "corrupted": Opt(int, None, "false pairs per campaign (tracker)", "M"),
     "c": Opt(float, DEFAULT_C, domain="(0, inf)"),
     "trials": Opt(int, 1000, domain="[1, inf)"),
     "delta": Opt(float, None, "compression margin for the mask audit",
                  only=("bob",)),
     "outer_code": Opt(FILE, only=("bob",)),
     "pair_samples": Opt(int, None,
                         "sample this many compression pairs per mask",
                         domain="[1, inf)", only=("bob",)),
     "sweep": Opt(bool, False, only=("tracker",)),
     "sweep_grid": Opt(str, None, "corruption counts for the sweep",
                       "A,B,..."),
     "enum_limit": _ENUM_LIMIT},
    cmd_attack, _attack_summary,
    (Output("--sweep", "sweep_out", "sweep corruption counts; CSV goes here",
            lambda path, rep: write_csv(path, rep["derived"]["sweep"]["rows"]),
            key="sweep"),))


# -- rates subcommand --------------------------------------------------------

def cmd_rates(config: dict, seed: int) -> dict:
    cfg = _take(config, "rates")
    phi = cfg["phi"]
    if cfg["code_rate"] is not None:
        chains = [(cfg["code_rate"], 2 if cfg["q"] is None else cfg["q"])]
    else:
        _require(cfg["q"] is None, "q only applies together with code_rate")
        chains = [(1.0 / 1575.0, 2), (1.0 / 9.0, 16)]
    phi_star, rate_star = optimize_rate_p0()
    used_phi = phi_star if phi is None else phi
    channel = BscParams(used_phi)
    derived = {
        "phi": used_phi,
        "phi_star": phi_star,
        "rate_star": rate_star,
        "erasure_rate": channel.erasure_rate,
        "residual_error": channel.residual_error,
        "inner_rate": rate_p0(used_phi),
    }
    table = [_checked(rate_chain, code_rate, q, phi=phi).to_json()
             for code_rate, q in chains]
    if cfg["curve"]:
        points = cfg["curve_points"]
        curve = rate_curve(curve_grid(points))
        derived["curve"] = {
            "points": points,
            "erasure_rates": [e for _, e, _ in curve],
            "rows": [[p, r, r, r] for p, _, r in curve],
        }
    aggregates = {
        "optimum": {"phi": phi_star, "rate": rate_star},
        "table": table,
    }
    return build_report("rates", cfg, seed, derived, aggregates)


def _rates_summary(report: dict) -> str:
    agg = report["aggregates"]
    opt = agg["optimum"]
    cells = ", ".join(
        f"R(q={row['q']})={row['outer_rate']:.3e}/{row['private_rate']:.3e}"
        for row in agg["table"])
    return f"rates: phi*={opt['phi']:.4f} R0*={opt['rate']:.4f}; {cells}"


_RATES = Command(
    "achievable-rate table",
    {"phi": Opt(float, None, "evaluate at this crossover (default: optimum)",
                domain="(0, 0.5)"),
     "code_rate": Opt(float, None, "outer code rate for a single chain row"),
     "q": Opt(int, None, "outer field order for the chain"),
     "curve": Opt(bool, False),
     "curve_points": Opt(int, 99, domain="[2, inf)")},
    cmd_rates, _rates_summary,
    (Output("--curve", "curve_out", "write the rate-vs-crossover CSV here",
            lambda path, rep: write_csv(path, rep["derived"]["curve"]["rows"]),
            key="curve"),))


# -- code-audit subcommand ---------------------------------------------------

def cmd_code_audit(config: dict, seed: int) -> dict:
    cfg = _take(config, "code-audit")
    _require(cfg["code"] is not None, "code-audit needs --code FILE")
    limit = cfg["enum_limit"]
    code, embedded = _load_code(cfg["code"], "code")
    audit = code.audit(limit)
    try:
        _, punctured = orthonormalize(code)
        punctures: Optional[list[int]] = [int(i) for i in punctured]
    except ValueError:
        punctures = None
    aggregates = {
        "n": code.length,
        "k": code.dimension,
        "field_degree": code.field.degree,
        "d": audit.d,
        "d_hat": audit.d_hat,
        "square_dim": audit.square_dim,
        "square_dual_dim": code.length - audit.square_dim,
        "orthonormal_guaranteed": audit.d > code.dimension,
        "orthonormalized": punctures is not None,
        "punctures": punctures,
        "usable_outer": audit.square_dim < code.length,
        "matches_embedded_audit": (None if embedded is None
                                   else embedded == audit),
    }
    derived = {
        "enum_limit": limit,
        "codewords": code.field.order ** code.dimension,
    }
    return build_report("code-audit", cfg, seed, derived, aggregates)


def _write_audited_code(path: str, report: dict) -> None:
    agg = report["aggregates"]
    obj = dict(report["config"]["code"])
    obj["audit"] = {"d": agg["d"], "d_hat": agg["d_hat"],
                    "square_dim": agg["square_dim"]}
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


_CODE_AUDIT = Command(
    "distances and square structure",
    {"code": Opt(FILE, None, "code JSON to audit"),
     "enum_limit": _ENUM_LIMIT},
    cmd_code_audit,
    lambda rep: ("code-audit [{n},{k}]: d={d} d_hat={d_hat} "
                 "square_dim={square_dim} usable={usable_outer}").format(
                     **rep["aggregates"]),
    (Output("--out-code", "out_code",
            "write the code back with the audit embedded",
            _write_audited_code),))


COMMANDS = {"run": _RUN, "attack": _ATTACK, "rates": _RATES,
            "code-audit": _CODE_AUDIT}

# replay, and main for every command but run, call through this plain
# dict: otbench/shim.py patches its entries to stamp the end of set-up
_DISPATCH = {name: command.execute for name, command in COMMANDS.items()}


# -- replay ------------------------------------------------------------------

def _do_replay(args: argparse.Namespace) -> int:
    try:
        stored = json.loads(_read(args.report, "report"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.report} is not JSON: {exc}") from exc
    try:
        validate_report(stored)
    except ReportError as exc:
        raise ConfigError(
            f"{args.report} is not a valid report: {exc}") from exc
    command = stored["command"]
    _require(command in _DISPATCH, f"cannot replay a {command} report")
    fresh = _DISPATCH[command](stored["config"], stored["seed"])
    if args.out:
        _write(write_report, args.out, fresh)
    if canonical_json(fresh) == canonical_json(stored):
        print(f"replay: {args.report} reproduced exactly "
              f"({command}, seed {stored['seed']})")
        return EXIT_OK
    parts = [k for k in ("version", "config", "derived", "aggregates",
                         "trials")
             if canonical_json(fresh.get(k)) != canonical_json(stored.get(k))]
    message = (f"replay: MISMATCH against {args.report} "
               f"(differs in: {', '.join(parts) or 'unknown'})")
    if fresh["version"] != stored.get("version"):
        message += (f"; report written by version {stored.get('version')}, "
                    f"this package is {fresh['version']}")
    print(message, file=sys.stderr)
    return 1


# -- argument parsing and dispatch -------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otlab",
        description="Oblivious-transfer protocol workbench over simulated "
                    "noisy channels.")
    parser.add_argument("--version", action="version",
                        version=f"otlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="flat `key = value` config file")
    common.add_argument("--seed", type=int, metavar="N",
                        help=f"master seed (default ${ENV_SEED}, then 0)")
    common.add_argument("--out", metavar="FILE",
                        help="write the JSON report here instead of stdout")
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=command.help)
        for key, opt in command.keys.items():
            if opt.kind is not bool:
                # the help ends with the key's domain and who reads it
                notes = [opt.help, opt.domain and _domain_text(opt),
                         opt.only and ", ".join(opt.only) + " only"]
                sp.add_argument(
                    "--" + key.replace("_", "-"),
                    type=opt.kind if opt.kind in (int, float) else None,
                    metavar=FILE if opt.kind == FILE else opt.metavar,
                    choices=opt.choices,
                    help="; ".join(note for note in notes if note) or None)
        for output in command.outputs:
            sp.add_argument(output.flag, dest=output.dest, metavar=FILE,
                            help=output.help)
    # the worker count is not config: reports do not depend on it
    sub.choices["run"].add_argument("--workers", type=int, default=1,
                                    help="trial-level process parallelism")

    replay = sub.add_parser("replay", help="re-run a report and compare")
    replay.add_argument("report", help="report JSON to reproduce")
    replay.add_argument("--out", metavar="FILE",
                        help="write the freshly computed report here")
    return parser


def _flags_to_config(args: argparse.Namespace, command: Command) -> dict:
    out = {key: getattr(args, key) for key, opt in command.keys.items()
           if opt.kind is not bool and getattr(args, key) is not None}
    out.update((output.key, True) for output in command.outputs
               if output.key and getattr(args, output.dest))
    return out


def _emit_outputs(args: argparse.Namespace, command: Command,
                  report: dict) -> None:
    if args.out:
        _write(write_report, args.out, report)
        print(command.summary(report))
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(canonical_json(report))
    for output in command.outputs:
        path = getattr(args, output.dest)
        if path:
            _write(output.write, path, report)
            print(f"wrote {path}", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    # otlab's import-time heap lives until exit: skip it at shutdown (numpy
    # is not in it; it loads later, where a command first computes)
    gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            _check_writable(args.out)
            return _do_replay(args)
        command = COMMANDS[args.command]
        _check_writable(args.out, *(getattr(args, output.dest)
                                    for output in command.outputs))
        file_cfg = parse_config_file(args.config) if args.config else {}
        config, file_seed = resolve_config(args.command, file_cfg,
                                           _flags_to_config(args, command))
        seed = resolve_seed(args.seed, file_seed)
        if args.command == "run":
            report = cmd_run(config, seed, workers=args.workers)
        else:
            report = _DISPATCH[args.command](config, seed)
        _emit_outputs(args, command, report)
    except ConfigError as exc:
        print(f"otlab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as exc:
        print(f"otlab: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnumerationLimit as exc:
        print(f"otlab: enumeration limit: {exc}", file=sys.stderr)
        return EXIT_ENUM
    if args.command == "run" and report["aggregates"]["abort_rate"] >= 0.5:
        print("otlab: aborts dominated the run; see the report",
              file=sys.stderr)
        return EXIT_ABORT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
