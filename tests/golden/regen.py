"""The golden replay corpus: its command list, and a script that rewrites it.

    PYTHONPATH=src python tests/golden/regen.py

Each case is one `otlab` command line (without --out).  Its canonical
report is checked in as `<name>.json` next to this file, and
tests/test_golden.py regenerates every case through `otlab.cli.main` and
byte-compares the result with the checked-in file.  The inner and outer
code inputs live in `codes/`; `{tmp}` stands for a temporary directory
that holds side outputs such as a sweep CSV, which are not part of the
corpus.

The corpus pins the exact order and size of every random draw across
commits.  A change that alters report bytes on purpose reruns this script
in the same change, bumps `otlab.__version__` and says so in CHANGES.md.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
CODES_DIR = GOLDEN_DIR / "codes"

CASES = {
    "run-p0": ["run", "--protocol", "p0", "--phi", "0.25", "--trials", "40",
               "--transcripts", "3", "--seed", "11"],
    "run-p0q": ["run", "--protocol", "p0q", "--q", "4", "--phi", "0.1",
                "--trials", "20", "--seed", "12"],
    "run-p1": ["run", "--protocol", "p1", "--phi", "0.05", "--n", "9",
               "--trials", "3", "--seed", "13"],
    "run-p2prime": ["run", "--protocol", "p2prime", "--phi", "0.05",
                    "--delta", "0.25", "--trials", "2", "--seed", "14"],
    "run-p0-code": ["run", "--protocol", "p0", "--phi", "0.1",
                    "--code", "{codes}/wide20_16.json", "--trials", "30",
                    "--transcripts", "2", "--seed", "15"],
    "attack-bob": ["attack", "--strategy", "bob", "--delta", "0.25",
                   "--seed", "16"],
    # Sampled compression pairs: pins the derive_rng(seed, 5) draws.
    "attack-bob-sampled": ["attack", "--strategy", "bob", "--delta", "0.25",
                           "--pair-samples", "5", "--seed", "25"],
    "attack-tracker": ["attack", "--strategy", "tracker", "--n", "40",
                       "--n0", "15", "--corrupted", "40", "--trials", "200",
                       "--seed", "17"],
    "rates": ["rates", "--seed", "18"],
    "code-audit-golay": ["code-audit", "--code", "{codes}/golay.json",
                         "--seed", "19"],
    "run-p1prime": ["run", "--protocol", "p1prime", "--phi", "0.05",
                    "--delta", "0.25", "--trials", "3", "--seed", "20"],
    "run-p2": ["run", "--protocol", "p2", "--q", "4", "--phi", "0.05",
               "--n", "9", "--trials", "2", "--seed", "21"],
    "attack-tracker-sweep": ["attack", "--strategy", "tracker", "--n", "40",
                             "--n0", "15", "--corrupted", "40", "--trials",
                             "200", "--sweep", "{tmp}/sweep.csv",
                             "--sweep-grid", "0,20,40", "--seed", "22"],
    # One transcript of every shape: p0 ok/decode_failure/abort, p0q with
    # inner aborts, an outer run with a failed round ("v": null) and a
    # compressed outer run over GF(4).
    "run-p0-statuses": ["run", "--protocol", "p0", "--n0", "4", "--phi",
                        "0.2", "--trials", "10", "--transcripts", "10",
                        "--seed", "41"],
    # Every trial outcome: ok, wrong_output, abort and decode_failure.
    "run-p0-outcomes": ["run", "--protocol", "p0", "--n0", "4", "--phi",
                        "0.3", "--trials", "20", "--seed", "41"],
    "run-p0q-transcripts": ["run", "--protocol", "p0q", "--q", "4", "--phi",
                            "0.3", "--trials", "6", "--transcripts", "6",
                            "--seed", "23"],
    "run-p1-transcripts": ["run", "--protocol", "p1", "--phi", "0.15",
                           "--n", "9", "--trials", "3", "--transcripts", "3",
                           "--seed", "36"],
    "run-p2prime-transcripts": ["run", "--protocol", "p2prime", "--phi",
                                "0.05", "--delta", "0.25", "--trials", "2",
                                "--transcripts", "2", "--seed", "24"],
}


def argv_for(name: str, tmp: str) -> list[str]:
    """The command line of one case, with code and side-output paths made
    absolute (side outputs go under tmp)."""
    return [arg.replace("{codes}", str(CODES_DIR)).replace("{tmp}", tmp)
            for arg in CASES[name]]


def render(name: str, out_path: Path) -> int:
    """Write the case's report to out_path; returns the CLI exit code."""
    from otlab.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        return main(argv_for(name, tmp) + ["--out", str(out_path)])


def regenerate() -> int:
    for name in CASES:
        code = render(name, GOLDEN_DIR / f"{name}.json")
        if code != 0:
            print(f"{name}: exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
