"""The one budget rule, pinned on every enumerator of the package.

Each enumeration states its work as one count and checks it with
`codes.check_budget` before any work: a limit equal to the count is
admitted, one less raises EnumerationLimit with the shared message, and
nothing is built before that raise.
"""

import re
from types import SimpleNamespace

import pytest

from otlab import adversary, analysis, codes, proto_p0
from otlab.adversary import audit_bob_strategies
from otlab.analysis import fixed_weight_oracle, min_entropy_oracle
from otlab.codes import EnumerationLimit, LinearCode, OrthonormalCode
from otlab.gf import GF
from otlab.linalg import Matrix
from otlab.proto_p0 import MLDecoder, chain_access_audit


def gf4_code():
    """A fresh [3,2] code over GF(4): min_distance caches on the code."""
    return LinearCode.from_rows(GF(2), ((1, 0, 1), (0, 1, 2)))


def hamming_7_4():
    return LinearCode.from_rows(GF(1), ((1, 0, 0, 0, 1, 1, 0),
                                        (0, 1, 0, 0, 1, 0, 1),
                                        (0, 0, 1, 0, 0, 1, 1),
                                        (0, 0, 0, 1, 1, 1, 1)))


def chain_audit(limit):
    # the audit has no limit parameter: it reads the package default
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(proto_p0, "DEFAULT_ENUM_LIMIT", limit)
        return chain_access_audit(2, 2)


def refuse_work(*args, **kwargs):
    raise AssertionError("work started before the budget check")


IDENTITY_4 = OrthonormalCode(Matrix.identity(GF(1), 4))

# enumerator: its count, run(limit), and (module, name, stand-in) for each
# name whose first use would be work
CASES = {
    "iter_codewords": (16, lambda limit: list(
        gf4_code().iter_codewords(limit)), [(codes, "unpack", refuse_work)]),
    "min_distance": (16, lambda limit: gf4_code().min_distance(limit),
                     [(codes, "_distance", refuse_work)]),
    "MLDecoder": (16, lambda limit: MLDecoder(hamming_7_4(), limit),
                  [(proto_p0, "span_words", refuse_work)]),
    # C(7, 2) patterns x 2^5 outputs
    "min_entropy_oracle": (21 << 5, lambda limit: min_entropy_oracle(
        hamming_7_4(), 2, 0.1, alpha=0.5, limit=limit),
        [(analysis, "eliminate", refuse_work)]),
    "fixed_weight_oracle": (21 << 5, lambda limit: fixed_weight_oracle(
        hamming_7_4(), 2, 1, limit=limit),
        [(analysis, "eliminate", refuse_work)]),
    # 2^4 masks x 15^2 compression pairs
    "audit_bob_strategies": (16 * 225, lambda limit: audit_bob_strategies(
        IDENTITY_4, 0.25, limit=limit),
        [(adversary, name, refuse_work) for name in (
            "_full_rank_row_sets", "cheat_matrix_V", "eliminate")]),
    # 2^((2q - 2) m) worlds at q = 2, m = 2
    "chain_access_audit": (16, chain_audit, [
        (proto_p0, "itertools", SimpleNamespace(product=refuse_work))]),
}


@pytest.mark.parametrize("name", CASES)
def test_every_enumerator_checks_its_count_before_any_work(
        name, monkeypatch):
    count, run, work = CASES[name]
    assert run(count) is not None
    for module, attr, stand_in in work:
        monkeypatch.setattr(module, attr, stand_in)
    message = (f" exceed the enumeration budget {count - 1}; raise the limit "
               "(--enum-limit)")
    with pytest.raises(EnumerationLimit, match=re.escape(message) + "$"):
        run(count - 1)
