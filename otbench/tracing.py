"""Span recording around otlab's public functions, from outside the package.

`Recorder.install` replaces each target function at every binding site in
the loaded `otlab` modules (a `from .linalg import rref` copies the name, so
`codes.rref` and `linalg.rref` are both rebound) and each targeted class
attribute, and `uninstall` puts the originals back.  A span is
(name, start, end, parent, session, flag); the spans stay in memory and are
written once, when the process ends.  `self_times` turns a span list into
per-span self time: duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

FLAG_RAISED = 1    # the call raised (p0_partition's ChannelAbort)
FLAG_NONE = 2      # the call returned None (a decoding failure)

# (module, attribute or Class.attribute, span name).  gf is left out on
# purpose: Field.mul runs millions of times per run, so a wrapper would
# dominate the trace; its cost lands in the self time of linalg.
TARGETS = (
    ("otlab.channels", "duplicate_round_trip", "channels.duplicate_round_trip"),
    ("otlab.linalg", "rref", "linalg.rref"),
    ("otlab.linalg", "rank", "linalg.rank"),
    ("otlab.linalg", "solve_affine", "linalg.solve_affine"),
    ("otlab.proto_p0", "p0_run", "proto_p0.p0_run"),
    ("otlab.proto_p0", "P0Params.draw_hash", "proto_p0.draw_hash"),
    ("otlab.proto_p0", "p0_partition", "proto_p0.p0_partition"),
    ("otlab.proto_p0", "p0_alice_encode", "proto_p0.p0_alice_encode"),
    ("otlab.proto_p0", "MLDecoder.__init__", "proto_p0.decoder_init"),
    ("otlab.proto_p0", "MLDecoder.decode", "proto_p0.decode"),
    ("otlab.proto_p0", "p0q_run", "proto_p0.p0q_run"),
    ("otlab.proto_outer", "run_session", "proto_outer.run_session"),
    ("otlab.proto_outer", "compress_setup", "proto_outer.compress_setup"),
    ("otlab.proto_outer", "p2_alice_setup", "proto_outer.p2_alice_setup"),
    ("otlab.codes", "LinearCode.min_distance", "codes.min_distance"),
    ("otlab.codes", "orthonormalize", "codes.orthonormalize"),
    ("otlab.codes", "square_dual_sample", "codes.square_dual_sample"),
    ("otlab.adversary", "audit_bob_strategies", "adversary.audit_bob_strategies"),
    ("otlab.adversary", "detection_campaign", "adversary.detection_campaign"),
    ("otlab.adversary", "tracker_advantage_p0", "adversary.tracker_advantage_p0"),
    ("otlab.reports", "build_report", "reports.build_report"),
    ("otlab.reports", "validate_report", "reports.validate_report"),
    ("otlab.reports", "canonical_json", "reports.canonical_json"),
)
# every public function of otlab.analysis is wrapped as analysis.<name>
WHOLE_MODULES = ("otlab.analysis",)
SESSION_SPANS = ("proto_p0.p0_run", "proto_outer.run_session")
# MLDecoder.__init__ also counts the codewords it enumerated
WORDS_SPAN, WORDS_COUNTER = "proto_p0.decoder_init", "proto_p0.decoder_words"


def otlab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "otlab" or name.startswith("otlab."))]


def rebind(old, new) -> list:
    """Point every otlab module global bound to `old` at `new`.

    Returns (module, name, old) triples for `restore`."""
    undo = []
    for mod in otlab_modules():
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)
                undo.append((mod, name, old))
    return undo


def restore(undo: list) -> None:
    for owner, name, old in reversed(undo):
        setattr(owner, name, old)


def resolve(module: str, attr: str):
    """(owner class or None, original object) for a TARGETS entry."""
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, name = attr.split(".", 1)
        cls = getattr(mod, cls_name)
        return cls, cls.__dict__[name]
    return None, getattr(mod, attr)


def public_functions(module: str) -> list:
    mod = importlib.import_module(module)
    short = module.rsplit(".", 1)[1]
    return [(name, f"{short}.{name}") for name, value in sorted(vars(mod).items())
            if not name.startswith("_") and callable(value)
            and getattr(value, "__module__", None) == module
            and not isinstance(value, type)]


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[list] = []   # [name_id, start, end, parent, session, flag]
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._session = -1
        self._session_depth = 0
        self._undo: list = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, self.clock
        is_session = name in SESSION_SPANS
        counts_words = name == WORDS_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_session:
                if self._session_depth == 0:
                    self._session += 1
                self._session_depth += 1
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1,
                   self._session, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = FLAG_RAISED
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if is_session:
                    self._session_depth -= 1
            if result is None:
                rec[5] = FLAG_NONE
            if counts_words:
                self.counters[WORDS_COUNTER] = (
                    self.counters.get(WORDS_COUNTER, 0) + len(args[0].words))
            return result
        return wrapper

    def install(self) -> None:
        targets = list(TARGETS)
        for module in WHOLE_MODULES:
            targets += [(module, name, span) for name, span
                        in public_functions(module)]
        for module, attr, span in targets:
            try:
                owner, original = resolve(module, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(span)
                continue
            wrapper = self.wrap(span, original)
            if owner is not None:
                name = attr.split(".", 1)[1]
                setattr(owner, name, wrapper)
                self._undo.append((owner, name, original))
            else:
                self._undo += rebind(original, wrapper)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counters": self.counters, "missing": self.missing}


def self_times(spans: list) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    Child intervals are clipped to the parent and merged before being
    subtracted, so overlapping or out-of-range children never count twice.
    """
    children: dict[int, list] = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
