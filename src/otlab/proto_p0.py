"""The duplication-based 1-of-2 transfer and its 1-of-q chaining.

One session moves one of two m-bit secrets from Alice to Bob over a
BSC(phi), spending 4*n0 channel bits:

1. Alice draws 2*n0 random bits and sends each twice; Bob folds each
   received pair into a value or an erasure, kept as two ints: the mask
   of clean positions and the values under it.
2. Bob splits the indices into two n0-sized sets and announces (I, J):
   his chosen set holds the first n0 positions he received cleanly, the
   other set gets everything else.  Too few clean positions aborts.
3. Alice draws a random codeword of the session code whose hash is the
   first secret (a uniform solution of the stacked parity/hash system),
   another for the second secret, permutes each announced set with a
   fresh uniform permutation, and sends each codeword masked by her sent
   bits at the permuted positions.
4. Bob unmasks on his chosen set (he knows those bits), decodes the
   residual-noise codeword, and hashes it down to the secret.

The unchosen mask looks to Bob like a codeword through the
erasure-plus-error analysis channel; the random permutation is what makes
the erasure pattern uniform.  The 1-of-q variant chains q - 1 sessions
with one-time pads so that asking for the first element of a pair burns
every later pad.  Secrets, pads, sent bits, codewords and masked words
are packed ints, bit i being entry i; only a transcript lists them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from .analysis import binary_entropy
from .channels import BscParams, duplicate_round_trip, random_bits
from .codes import (DEFAULT_ENUM_LIMIT, EnumerationLimit, LinearCode,
                    check_budget)
from .linalg import (Coset, Matrix, NearestSpanWord, dot, eliminate,
                     random_matrix, span, span_words, unpack, weights)

if TYPE_CHECKING:
    from .channels import Stream


DECODER_WORD_CAP = 1 << 20  # the decoder holds every codeword in memory
# up to this many codewords a decode scans a Python list of ints; above it
# the numpy search repays its per-call overhead.  Scan against numpy per
# decode on a 2-core x86-64 host: 12.6 against 18.4 us at k = 6, 17.8
# against 18.8 at k = 7 and 35.9 against 20.4 at k = 8 for [15, k] codes;
# 18.3 against 30.0, 26.7 against 27.8 and 46.3 against 32.2 for [31, k].
# Only codes one limb wide were timed.
SCAN_WORDS = 128


def check_decoder_cap(k: int) -> None:
    """Refuse more codewords than the decoder holds; no limit lifts this."""
    if 1 << k > DECODER_WORD_CAP:
        cap = DECODER_WORD_CAP.bit_length() - 1
        raise EnumerationLimit(
            f"2^{k} codewords exceed the ML decoder's memory cap of 2^{cap} "
            "codewords; --enum-limit cannot raise it")


class ChannelAbort(Exception):
    """Too few cleanly received positions to fill the chosen set."""


def p0_secret_length(block_len: int, phi: float, slack: float) -> int:
    """Largest safe secret length floor(n0 eps (1 - h(p) - slack)).

    slack is the security margin eaten by privacy amplification; the
    result must come out >= 1 or the parameters are rejected.
    """
    if slack <= 0.0:
        raise ValueError(f"slack must be positive, got {slack}")
    params = BscParams(phi)
    eps, p = params.erasure_rate, params.residual_error
    m = math.floor(block_len * eps * (1.0 - binary_entropy(p) - slack))
    if m < 1:
        raise ValueError(
            f"no positive secret length at n0={block_len}, phi={phi}, "
            f"slack={slack}")
    return m


class MLDecoder:
    """Exact maximum-likelihood decoding by codeword enumeration.

    A received word comes packed as (mask, target): the mask of its
    non-erased positions and its values there, with no bit of target
    outside mask.  decode(mask, target) returns the packed codeword
    nearest it on the masked positions; a tie for the minimum is a
    decoding failure (None).  The 2^k codewords are held as packed words
    in message order (`words`): up to SCAN_WORDS of them as a Python
    list of ints (span) that a decode scans with int.bit_count,
    more as one numpy limb array (span_words) that a decode searches in
    scratch arrays allocated once (NearestSpanWord).  They are checked
    against the memory cap, then against the budget `limit`, before any
    is built.
    """

    def __init__(self, code: LinearCode, limit: int = DEFAULT_ENUM_LIMIT):
        if code.field.degree != 1:
            raise ValueError("decoder expects a binary code")
        k = code.dimension
        check_decoder_cap(k)
        check_budget(1 << k, limit, f"2^{k} codewords")
        self.code = code
        self.length = code.length
        rows = code.generator.packed
        self._search = None
        if 1 << k <= SCAN_WORDS:
            self.words = span(code.field, rows)
        else:
            self.words = span_words(rows, code.length)
            self._search = NearestSpanWord(self.words, code.length)

    def decode(self, mask: int, target: int) -> Optional[int]:
        if mask >> self.length:
            raise ValueError("received word is longer than the code")
        if self._search is not None:
            best = self._search.nearest(mask, target)
        else:
            best, low, tie = None, self.length + 1, False
            for j, w in enumerate(self.words):
                dist = (w & mask ^ target).bit_count()
                if dist < low:
                    best, low, tie = j, dist, False
                elif dist == low:
                    tie = True
            if tie:
                best = None
        if best is None:
            return None
        # word j is the sum of the rows set in j
        word = 0
        for i, row in enumerate(self.code.generator.packed):
            if best >> i & 1:
                word ^= row
        return word

    def failure_bound(self, p: float) -> float:
        """Union bound on ML failure over BSC(p), ties counted as failures."""
        if not 0.0 <= p < 0.5:
            raise ValueError("error rate must be in [0, 1/2)")
        if self._search is None:
            counts = Counter(w.bit_count() for w in self.words)
        else:
            counts = Counter(weights(self.words, self.length).tolist())
        # Terms are added in order of each weight's first appearance in
        # message order, which pins the rounding of the float sum.
        total = 0.0
        for wt, a in counts.items():
            if not wt:
                continue
            half = (wt + 1) // 2 if wt % 2 else wt // 2
            pw = sum(math.comb(wt, j) * p ** j * (1.0 - p) ** (wt - j)
                     for j in range(half, wt + 1))
            total += a * pw
        return min(total, 1.0)


class P0Params:
    """Session parameters for the 1-of-2 transfer (immutable).

    The block length n0 is the code length.  Each session draws a fresh
    uniform hash (see draw_hash).  security_slack, when set, checks the
    sizing invariant m <= n0 eps (1 - h(p) - slack) here and is not
    kept; leave it None for correctness-only runs (for instance phi = 0
    demos, where no m satisfies the bound).  The parity check is
    row-reduced once, here; a session eliminates only its m hash rows
    into it.
    """

    __slots__ = ("channel", "code", "secret_bits", "decoder", "_parity_rref")

    def __init__(self, channel: BscParams, code: LinearCode, secret_bits: int,
                 security_slack: Optional[float] = None,
                 decoder: object = None):
        if code.field.degree != 1:
            raise ValueError("session code must be binary")
        if not 1 <= secret_bits <= code.dimension:
            raise ValueError(
                f"secret length must be in 1..k={code.dimension}, "
                f"got {secret_bits}")
        rows: list[int] = []
        pivots: list[int] = []
        eliminate(code.field, rows, pivots, code.dual_basis().packed,
                  code.length)
        if security_slack is not None:
            cap = p0_secret_length(code.length, channel.crossover,
                                   security_slack)
            if secret_bits > cap:
                raise ValueError(
                    f"secret length {secret_bits} exceeds the safe "
                    f"cap {cap} at this slack")
        if decoder is None:
            decoder = MLDecoder(code)
        for name, value in zip(self.__slots__, (
                channel, code, secret_bits, decoder,
                (tuple(rows), tuple(pivots)))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("P0Params is immutable")

    @property
    def block_len(self) -> int:
        return self.code.length

    def draw_hash(self, rng: Stream) -> tuple[Matrix, Coset]:
        """A fresh uniform m x n0 session hash and its codeword cosets.

        The hash is redrawn until the stacked parity/hash matrix has full
        rank.  Hash row i, tagged with bit n0 + i, is eliminated into the
        reduced parity check; coset.sample(packed secret, rng) then draws
        a uniform codeword whose hash is the secret.
        """
        f, n = self.code.field, self.block_len
        while True:
            hash_matrix = random_matrix(f, self.secret_bits, n, rng)
            rows, pivots = map(list, self._parity_rref)
            tagged = [r | 1 << (n + i)
                      for i, r in enumerate(hash_matrix.packed)]
            if not eliminate(f, rows, pivots, tagged, n):
                return hash_matrix, Coset(f, rows, pivots, n)


def p0_partition(clean: int, block_len: int,
                 want_first: bool) -> tuple[tuple, tuple]:
    """Honest Bob's announcement (I, J) from the mask of his clean
    positions among 2 block_len.

    The chosen set gets the first block_len cleanly received indices; the
    other set gets all remaining indices (erasures plus clean surplus).
    Raises ChannelAbort when fewer than block_len positions survived.
    Both sets come back ascending; I is always the first-secret mask.
    """
    if clean >> 2 * block_len:
        raise ValueError("clean mask has a bit at or above 2 n0")
    count = clean.bit_count()
    if count < block_len:
        raise ChannelAbort(f"only {count} of {block_len} clean positions")
    good = tuple(i for i in range(2 * block_len) if clean >> i & 1)[:block_len]
    chosen = sum(1 << i for i in good)
    rest = tuple(i for i in range(2 * block_len) if not chosen >> i & 1)
    return (good, rest) if want_first else (rest, good)


def _gather(word: int, positions: Sequence[int], perm: Sequence[int]) -> int:
    """The packed word whose bit t is the bit of word at positions[perm[t]]."""
    out = 0
    for t, j in enumerate(perm):
        out |= (word >> positions[j] & 1) << t
    return out


def p0_alice_encode(first_secret: int, second_secret: int,
                    set_first: Sequence[int], set_second: Sequence[int],
                    sent: int, params: P0Params, coset: Coset,
                    rng: Stream) -> tuple[tuple, tuple]:
    """Alice's response to the announced partition: (perm, codeword,
    masked) for each secret, first then second, the words packed.

    Each m-bit secret is embedded as a uniform codeword with that hash (a
    sample of the session's coset from draw_hash), then masked by the
    sent bits at freshly permuted positions of the announced set.
    """
    n0, m = params.block_len, params.secret_bits
    if len(set_first) != n0 or len(set_second) != n0:
        raise ValueError("both announced sets must have size n0")
    if set(set_first) & set(set_second):
        raise ValueError("announced sets overlap")
    if first_secret >> m or second_secret >> m:  # or either is negative
        raise ValueError(f"secrets must be ints in 0..2^{m} - 1")
    sides = []
    for secret, positions in ((first_secret, set_first),
                              (second_secret, set_second)):
        cw = coset.sample(secret, rng)
        perm = rng.permutation(n0)
        sides.append((perm, cw, cw ^ _gather(sent, positions, perm)))
    return tuple(sides)


def p0_bob_decode(masked: int, clean: int, values: int,
                  positions: Sequence[int], perm: Sequence[int],
                  decoder: MLDecoder, hash_matrix: Matrix
                  ) -> tuple[Optional[int], Optional[int]]:
    """Unmask on the chosen set and decode; returns the packed (secret,
    codeword), or (None, None).  Position t reads the received pair at
    positions[perm[t]], erased unless its bit is set in clean."""
    mask = _gather(clean, positions, perm)
    cw = decoder.decode(mask, (masked ^ _gather(values, positions, perm))
                        & mask)
    if cw is None:
        return None, None
    f = hash_matrix.field
    return sum(dot(f, row, cw) << i
               for i, row in enumerate(hash_matrix.packed)), cw


class Session(NamedTuple):
    """The result of one session of any protocol.

    status is "ok", "abort" or "decode_failure"; output is what Bob
    recovered (a packed secret, or a Matrix for the string protocols), or
    None.  transcript() builds both parties' views as the
    report JSON; only `cli._run_trial` calls it, for the trials below
    `run --transcripts`, so a session builds nothing for the others.
    """

    status: str
    output: Optional[object]
    transcript: Callable[[], dict]


def p0_run(first_secret: int, second_secret: int, want_first: bool,
           params: P0Params, rng: Stream) -> Session:
    """One full honest session on m-bit packed secrets; spends 4 n0
    channel bits regardless."""
    n0 = params.block_len
    phi = params.channel.crossover
    hash_matrix, coset = params.draw_hash(rng)
    sent = random_bits(rng, 2 * n0)
    clean, values = duplicate_round_trip(sent, 2 * n0, phi, rng)
    status, secret, cw, sides = "abort", None, None, None
    try:
        sets = p0_partition(clean, n0, want_first)
    except ChannelAbort as exc:
        abort_reason = str(exc)
    else:
        sides = p0_alice_encode(first_secret, second_secret, *sets, sent,
                                params, coset, rng)
        chosen = 0 if want_first else 1
        perm, _, masked = sides[chosen]
        secret, cw = p0_bob_decode(masked, clean, values, sets[chosen], perm,
                                   params.decoder, hash_matrix)
        status = "decode_failure" if secret is None else "ok"

    def transcript() -> dict:
        def bits(word: int, n: int = n0) -> list:
            return list(unpack(hash_matrix.field, word, n))
        alice_view = {"sent_bits": bits(sent, 2 * n0)}
        bob_view = {"received": "".join(
            str(values >> i & 1) if clean >> i & 1 else "*"
            for i in range(2 * n0)), "want_first": want_first}
        if sides is None:
            bob_view["abort_reason"] = abort_reason
        else:
            for name, positions, (perm, word, masked) in zip(
                    ("first", "second"), sets, sides):
                alice_view.update({
                    f"set_{name}": list(positions), f"perm_{name}": perm,
                    f"codeword_{name}": bits(word),
                    f"masked_{name}": bits(masked)})
                bob_view[f"masked_{name}"] = alice_view[f"masked_{name}"]
            alice_view["hash_matrix"] = hash_matrix.to_json()
            bob_view["decoded"] = None if cw is None else bits(cw)
            if secret is not None:
                bob_view["secret"] = bits(secret, params.secret_bits)
        return {
            "params": {"block_len": n0, "crossover": phi,
                       "secret_bits": params.secret_bits,
                       "channel_bits": 4 * n0},
            "alice_view": alice_view,
            "bob_view": bob_view,
            "outcome": {"status": status,
                        "unerased_count": clean.bit_count()},
        }
    return Session(status, secret, transcript)


def _chain(secrets: Sequence[int], free_pads: Sequence[int]
           ) -> list[tuple[int, int]]:
    """The chained pairs (secret_j xor the pads before j, pad_j) for
    j < q - 1, where the pads are free_pads and then the last secret xor
    every free pad."""
    last = secrets[-1]
    for pad in free_pads:
        last ^= pad
    pairs, prefix = [], 0
    for secret, pad in zip(secrets, [*free_pads, last]):
        pairs.append((secret ^ prefix, pad))
        prefix ^= pad
    return pairs


def chain_1_of_q(secrets: Sequence[int], m: int,
                 rng: Stream) -> list[tuple[int, int]]:
    """Pair list for the 1-of-q chaining of q m-bit packed secrets.

    Pads r_0 .. r_{q-2} are uniform subject to their sum being the last
    secret (r_0 .. r_{q-3} are drawn in order); pair j is
    (secret_j xor pads_before_j, pad_j).  Learning the first element of
    pair j costs the pad r_j and with it every later secret.
    """
    q = len(secrets)
    if q < 2 or (q & (q - 1)) != 0:
        raise ValueError(f"need a power-of-two count of secrets, got {q}")
    if any(s >> m for s in secrets):  # also true for a negative int
        raise ValueError(f"secrets must be ints in 0..2^{m} - 1")
    return _chain(secrets, [random_bits(rng, m) for _ in range(q - 2)])


def chain_access_audit(q: int, m: int) -> dict[tuple, tuple]:
    """Which secrets each access pattern can pin down, exhaustively.

    A pattern chooses the first (0) or second (1) element of each of the
    q - 1 chained pairs.  Enumerating every assignment of secrets and
    free pads, a secret index counts as recoverable under a pattern only
    when its value is constant on every equivalence class of views.
    Returns pattern -> ascending tuple of recoverable secret indices.
    The honest pattern for index i (first at pair i, second elsewhere)
    recovers exactly {i}; no pattern recovers two.
    """
    if q < 2 or (q & (q - 1)) != 0:
        raise ValueError(f"need a power-of-two secret count, got {q}")
    check_budget(1 << (2 * q - 2) * m, DEFAULT_ENUM_LIMIT,
                 f"2^{(2 * q - 2) * m} worlds")
    space = range(1 << m)
    worlds = [(secrets, _chain(secrets, free))
              for secrets in itertools.product(space, repeat=q)
              for free in itertools.product(space, repeat=q - 2)]
    results: dict[tuple, tuple] = {}
    for pattern in itertools.product((0, 1), repeat=q - 1):
        classes: dict[tuple, list] = {}
        for secrets, pairs in worlds:
            view = tuple(pair[bit] for pair, bit in zip(pairs, pattern))
            classes.setdefault(view, []).append(secrets)
        recoverable = []
        for i in range(q):
            if all(len({s[i] for s in group}) == 1
                   for group in classes.values()):
                recoverable.append(i)
        results[pattern] = tuple(recoverable)
    return results


def p0q_run(secrets: Sequence[int], index: int, params: P0Params,
            rng: Stream) -> Session:
    """1-of-q transfer of m-bit packed secrets: q - 1 chained sessions,
    honest access pattern.

    Bob asks for the first element only at pair `index` (never, when he
    wants the last secret) and recombines with the pads he collected.
    The transcript lists the inner sessions' transcripts under "inner".
    """
    q = len(secrets)
    if not 0 <= index < q:
        raise ValueError(f"index must be in 0..{q - 1}")
    pairs = chain_1_of_q(secrets, params.secret_bits, rng)
    sessions = [p0_run(first, second, j == index, params, rng)
                for j, (first, second) in enumerate(pairs)]
    worst = next((s.status for s in sessions if s.status != "ok"), "ok")

    def transcript() -> dict:
        return {"inner": [s.transcript() for s in sessions]}
    needed = sessions[:index + 1]  # all q - 1 when index is the last
    if any(s.output is None for s in needed):
        return Session(worst if worst != "ok" else "decode_failure", None,
                       transcript)
    acc = 0
    for s in needed:
        acc ^= s.output
    return Session(worst, acc, transcript)
