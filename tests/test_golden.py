"""Golden replay corpus: each checked-in report regenerates byte for byte.

The cases and the script that rewrites the corpus live in
tests/golden/regen.py.  Unlike the in-process replay tests, these reports
were written by an earlier commit, so they pin the order and size of
every random draw across commits.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_REGEN_PATH = Path(__file__).resolve().parent / "golden" / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN_PATH)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_corpus_files_match_the_case_list():
    on_disk = {p.stem for p in regen.GOLDEN_DIR.glob("*.json")}
    assert on_disk == set(regen.CASES)


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_golden_report_replays_byte_for_byte(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    assert regen.render(name, out) == 0
    want = (regen.GOLDEN_DIR / f"{name}.json").read_bytes()
    assert out.read_bytes() == want, (
        f"{name} no longer reproduces its golden report; a deliberate "
        "change regenerates the corpus with tests/golden/regen.py")



def test_corpus_holds_every_transcript_shape():
    found = []  # (protocol, q, transcript) from every run report
    outcomes = set()
    for name in regen.CASES:
        report = json.loads((regen.GOLDEN_DIR / f"{name}.json").read_text())
        if report["command"] == "run":
            cfg = report["config"]
            found.extend((cfg["protocol"], cfg["q"], row["transcript"])
                         for row in report["trials"] if "transcript" in row)
            outcomes.update(row["outcome"] for row in report["trials"])
    assert outcomes == {"ok", "wrong_output", "abort", "decode_failure"}
    p0_statuses = {tr["outcome"]["status"] for proto, _, tr in found
                   if proto == "p0"}
    assert p0_statuses == {"ok", "abort", "decode_failure"}
    assert any(proto == "p0q" and tr["inner"] for proto, _, tr in found)
    outer = [(q, tr) for proto, q, tr in found
             if proto not in ("p0", "p0q")]
    assert any(tr["v"] is None for _, tr in outer)
    assert any(q == 4 and tr["v"] is not None for q, tr in outer)
