"""Channel-level reference for Alice's false pairs.

adversary.simulate_unerased_counts draws the unerased count as two
binomials; these functions send the bits through the channel one by one
instead, so the tests can check the shortcut against them.
"""

from tuple_reference import ERASED


def bsc_transmit(bits, phi, rng):
    """Each bit flips independently with probability phi."""
    if not 0.0 <= phi < 0.5:
        raise ValueError(f"crossover must be in [0, 1/2), got {phi}")
    flips = [u < phi for u in rng.random(len(bits))]
    return tuple(int(b) ^ int(f) for b, f in zip(bits, flips))


def transmit_with_false_pairs(bits, corrupt, phi, rng):
    """The duplicating channel, except that positions in `corrupt` carry
    (1 - b, b) instead of (b, b); after noise such a pair is read as a
    value only when the copies collide.  Returns the folded word as a
    tuple over {0, 1, ERASED}."""
    corrupt_set = set(corrupt)
    doubled = []
    for i, b in enumerate(bits):
        doubled.extend((b ^ 1, b) if i in corrupt_set else (b, b))
    received = bsc_transmit(tuple(doubled), phi, rng)
    return tuple(a if a == b else ERASED
                 for a, b in zip(received[::2], received[1::2]))
