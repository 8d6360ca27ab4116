"""Binary symmetric channel simulation and the duplication reduction.

Sending each bit twice through a BSC(phi) and post-processing the pair
(mismatch means "erased", match keeps the common value) turns the channel
into an erasure-plus-error channel: erasure probability
eps = 2*phi*(1 - phi), and a surviving symbol is wrong with probability
p = phi^2 / (1 - eps).  The pair (eps, p) is derived from phi everywhere.
Bit vectors are packed ints, bit i being entry i: random_bits draws
one, the sent word goes in as one, and a folded word comes out as two,
the mask of clean positions and the values under it; the transcripts
alone spell them out, with "*" for an erasure.

All randomness flows through one stream type, `Stream`: numpy's PCG64
bit generator (O'Neill 2014) written in Python, seeded as numpy's
SeedSequence seeds it.  derive_rng builds independent, reproducible
streams from a master seed and an index path, so per-trial and per-round
streams never overlap; every draw equals the same draw from
np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key)) bit
for bit and comes back as Python ints, so a session never imports numpy.
The attack campaigns, which need numpy's bulk draws, continue a stream
in numpy through `Stream.numpy_generator()`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import numpy as np

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's LCG multiplier
_TWICE = (1 << 64) + 1  # x * _TWICE >> r & _M64 rotates 64-bit x right by r
# SeedSequence's hash constants and pool size (32-bit words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_POOL_MIXES = [(src, dst) for src in range(_POOL) for dst in range(_POOL)
               if src != dst]
_LAST_WORD_MIXES = [(_POOL, dst) for dst in range(_POOL)]


def _words(value: int) -> list[int]:
    """A non-negative int as 32-bit words, least significant first."""
    if value < 0:
        raise ValueError(f"seeds and keys must be non-negative, got {value}")
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _hash_into(cells: list[int], const: int, pairs) -> int:
    """For each (src, dst): hash cells[src] and mix it into cells[dst].
    Each hash advances the multiplicative constant; returns the last."""
    for src, dst in pairs:
        value = cells[src] ^ const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        value = (_MIX_L * cells[dst] - _MIX_R * (value ^ value >> 16)) & _M32
        cells[dst] = value ^ value >> 16
    return const


def _entropy_pool(entropy: list[int]) -> list[int]:
    """SeedSequence's mixed pool for the entropy words.  Each pool word
    starts as the hash of its entropy word (0 past the end); then every
    pool word is mixed into every other, and each entropy word past the
    pool into every pool word."""
    cells = entropy[:_POOL] + [0] * (_POOL - len(entropy))
    const = _INIT_A
    for i in range(_POOL):
        value = cells[i] ^ const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        cells[i] = value ^ value >> 16
    const = _hash_into(cells, const, _POOL_MIXES)
    for word in entropy[_POOL:]:
        cells.append(word)
        const = _hash_into(cells, const, _LAST_WORD_MIXES)
        cells.pop()
    return cells


def _seed_state(entropy: list[int]) -> tuple[int, int]:
    """PCG64's 128-bit seed and stream selector from the entropy words:
    SeedSequence.generate_state(4, uint64), eight hashes cycling through
    the pool read in pairs as little-endian 64-bit words."""
    pool = _entropy_pool(entropy)
    const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    u64 = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
    return u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]


class Stream:
    """numpy's PCG64 stream in pure Python, with Generator's draws.

    state and inc are the 128-bit LCG state and odd increment; the
    bounded draws consume 32-bit halves, low half first, and keep the
    spare high half (has_uint32, uinteger) across calls, as numpy's
    bit generator does.  integers is numpy's buffered Lemire rejection
    (Lemire 2019) for ranges up to 2^32, random is (x >> 11) 2^-53 of
    one 64-bit output x, and permutation is the Fisher-Yates shuffle
    with masked-rejection indices (numpy's random_interval).
    """

    __slots__ = ("state", "inc", "has_uint32", "uinteger")

    def __init__(self, seed: int, selector: int):
        # pcg_setseq_128_srandom_r: one step from 0, add the seed, step
        self.inc = (selector << 1 | 1) & _M128
        self.state = ((self.inc + seed) * _PCG_MULT + self.inc) & _M128
        self.has_uint32 = 0
        self.uinteger = 0

    def random_raw(self, size: int) -> list[int]:
        """size raw 64-bit outputs (XSL-RR of each stepped state); the
        spare 32-bit half is left as it is."""
        out = [0] * size
        s, inc = self.state, self.inc
        for i in range(size):
            s = (s * _PCG_MULT + inc) & _M128
            out[i] = ((s >> 64 ^ s) & _M64) * _TWICE >> (s >> 122) & _M64
        self.state = s
        return out

    def random(self, size: Optional[int] = None):
        """A uniform float in [0, 1), or a list of size of them."""
        if size is None:
            return (self.random_raw(1)[0] >> 11) * 2.0 ** -53
        return [(x >> 11) * 2.0 ** -53 for x in self.random_raw(size)]

    def integers(self, low: int, high: Optional[int] = None,
                 size: Optional[int] = None):
        """Uniform ints in [low, high) ([0, low) when high is None): one
        int, or a list of size of them."""
        if high is None:
            low, high = 0, low
        span = high - low
        if not 0 < span <= 1 << 32:
            raise ValueError(
                f"integers draws ranges of 1 to 2^32 values, got [{low}, "
                f"{high})")
        if size is None:
            return self.integers(low, high, 1)[0]
        out = [low] * size
        if span == 1 or not size:
            return out
        # a 32-bit draw u gives (u span) >> 32 unless its low word falls
        # below 2^32 mod span, which is redrawn
        threshold = (1 << 32) % span
        i = 0
        if self.has_uint32:
            self.has_uint32 = 0
            m = self.uinteger * span
            if m & _M32 >= threshold:
                out[0] += m >> 32
                i = 1
        s, inc = self.state, self.inc
        while i < size:
            s = (s * _PCG_MULT + inc) & _M128
            x = ((s >> 64 ^ s) & _M64) * _TWICE >> (s >> 122) & _M64
            m = (x & _M32) * span
            if m & _M32 >= threshold:
                out[i] += m >> 32
                i += 1
                if i == size:
                    self.has_uint32 = 1
                    self.uinteger = x >> 32
                    break
            m = (x >> 32) * span
            if m & _M32 >= threshold:
                out[i] += m >> 32
                i += 1
        self.state = s
        return out

    def permutation(self, n: int) -> list[int]:
        """A uniform permutation of range(n): for i = n - 1 down to 1,
        swap i with a draw j <= i, each draw a 32-bit half masked to the
        bits of i and redrawn while above i."""
        if n > 1 << 32:
            raise ValueError(f"permutation draws up to 2^32 items, got {n}")
        out = list(range(n))
        if n < 2:
            return out
        mask = (1 << (n - 1).bit_length()) - 1
        s, inc = self.state, self.inc
        has, spare = self.has_uint32, self.uinteger
        for i in range(n - 1, 0, -1):
            if i <= mask >> 1:
                mask >>= 1
            while True:
                if has:
                    has = 0
                    j = spare & mask
                else:
                    s = (s * _PCG_MULT + inc) & _M128
                    x = ((s >> 64 ^ s) & _M64) * _TWICE >> (s >> 122) & _M64
                    has, spare = 1, x >> 32
                    j = x & mask
                if j <= i:
                    break
            out[i], out[j] = out[j], out[i]
        self.state = s
        self.has_uint32, self.uinteger = has, spare
        return out

    def numpy_generator(self) -> np.random.Generator:
        """A numpy Generator that continues this stream from its current
        position (the stream itself does not advance with it)."""
        import numpy as np
        bit_generator = np.random.PCG64(0)
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": self.state, "inc": self.inc},
            "has_uint32": self.has_uint32, "uinteger": self.uinteger}
        return np.random.Generator(bit_generator)


def derive_rng(master_seed: int, *key: int) -> Stream:
    """Deterministic child stream for (master_seed, key path): the stream
    of np.random.default_rng(np.random.SeedSequence(master_seed,
    spawn_key=key))."""
    entropy = _words(master_seed)
    spawn = [word for part in key for word in _words(part)]
    if spawn and len(entropy) < _POOL:
        entropy += [0] * (_POOL - len(entropy))
    return Stream(*_seed_state(entropy + spawn))


def random_bits(rng: Stream, m: int) -> int:
    """m uniform bits from one rng.integers draw, packed: bit i is draw i."""
    return _mask(rng.integers(0, 2, size=m))


class BscParams:
    """Crossover probability and the derived duplication-channel numbers
    (immutable)."""

    __slots__ = ("crossover",)

    def __init__(self, crossover: float):
        if not 0.0 <= crossover < 0.5:
            raise ValueError(
                f"crossover must be in [0, 1/2), got {crossover}")
        object.__setattr__(self, "crossover", crossover)

    def __setattr__(self, name, value):
        raise AttributeError("BscParams is immutable")

    @property
    def erasure_rate(self) -> float:
        """eps = 2 phi (1 - phi): chance a duplicated bit erases."""
        phi = self.crossover
        return 2.0 * phi * (1.0 - phi)

    @property
    def residual_error(self) -> float:
        """p = phi^2 / (1 - eps): error rate of surviving symbols."""
        phi = self.crossover
        return phi * phi / (1.0 - self.erasure_rate)


def _mask(flags: list) -> int:
    """The int with bit i set where flags[i] is true, read from a binary
    string in time linear in the length (OR-ing bit by bit is quadratic)."""
    return int("".join(["1" if f else "0" for f in reversed(flags)]) or "0", 2)


def duplicate_round_trip(bits: int, n: int, phi: float,
                         rng: Stream) -> tuple[int, int]:
    """Send the n-bit packed word `bits` twice through BSC(phi) and fold
    the pairs.

    Returns the received word as two ints (clean, values): bit i of clean
    is set when the two copies of bit i matched, and bit i of values is
    then their common value (0 where the pair was erased).  The flips are
    one draw of 2 n uniforms, two per bit in order; uniform (x >> 11)
    2^-53 falls below phi exactly when x >> 11 < phi 2^53, that is when
    x < ceil(phi 2^53) 2^11 (phi 2^53 is exact), which compares ints with
    no rounding.
    """
    if not 0.0 <= phi < 0.5:
        raise ValueError(f"crossover must be in [0, 1/2), got {phi}")
    if bits >> n:  # also true for a negative int
        raise ValueError(f"sent word has a bit outside 0..{n - 1}")
    limit = math.ceil(phi * 2.0 ** 53) << 11
    raw = rng.random_raw(2 * n)
    first = _mask([x < limit for x in raw[::2]])
    clean = ~(first ^ _mask([y < limit for y in raw[1::2]])) & (1 << n) - 1
    return clean, (bits ^ first) & clean
