"""Run one otlab CLI command in this process and record when set-up ended.

Usage: python3 otbench/shim.py STAMP_JSON MODE -- <otlab arguments>

MODE `plain` installs only a one-shot timestamp at the end of set-up: the
first session call (`p0_run`/`run_session`) for `run`, command dispatch for
every other command.  The stamp removes itself when it fires.  MODE `trace`
also wraps otlab's public functions (see tracing.py) and records spans.
The stamps and spans are written to STAMP_JSON once, when the command ends.
Times are CLOCK_MONOTONIC seconds, comparable with the parent's clock.
"""

import json
import sys
import time

from tracing import Recorder, rebind, restore

SESSION_ENTRIES = (("otlab.proto_p0", "p0_run"),
                   ("otlab.proto_outer", "run_session"))


def install_setup_stamp(command: str, stamps: dict) -> None:
    restorers = []

    def stamped(fn):
        def first_call(*args, **kwargs):
            stamps.setdefault("t_first", time.monotonic())
            for undo in restorers:
                undo()
            restorers.clear()
            return fn(*args, **kwargs)
        return first_call

    if command == "run":
        for module, name in SESSION_ENTRIES:
            current = getattr(sys.modules[module], name)
            bindings = rebind(current, stamped(current))
            restorers.append(lambda bindings=bindings: restore(bindings))
    else:
        table = sys.modules["otlab.cli"]._DISPATCH
        original = table[command]
        table[command] = stamped(original)
        restorers.append(lambda: table.__setitem__(command, original))


def main() -> int:
    stamp_path, mode, sep, *argv = sys.argv[1:]
    if mode not in ("plain", "trace") or sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    stamps: dict = {"t_import0": time.monotonic()}
    import otlab.cli
    stamps["t_import1"] = time.monotonic()
    recorder = None
    if mode == "trace":
        recorder = Recorder(clock=time.monotonic)
        recorder.install()
    install_setup_stamp(argv[0], stamps)
    code = 1
    try:
        stamps["t_main"] = time.monotonic()
        code = otlab.cli.main(argv)
    finally:
        if recorder is not None:
            stamps["trace"] = recorder.dump()
        with open(stamp_path, "w") as fh:
            json.dump(stamps, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
