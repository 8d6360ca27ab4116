"""Binary symmetric channel simulation and the duplication reduction.

Sending each bit twice through a BSC(phi) and post-processing the pair
(mismatch means "erased", match keeps the common value) turns the channel
into an erasure-plus-error channel: erasure probability
eps = 2*phi*(1 - phi), and a surviving symbol is wrong with probability
p = phi^2 / (1 - eps).  The pair (eps, p) is derived from phi everywhere.

All randomness flows through numpy Generators.  derive_rng builds
independent, reproducible streams from a master seed and an index path,
so per-trial and per-round streams never overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

ERASED = 2


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic child stream for (master_seed, key path)."""
    import numpy as np
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=tuple(key)))


def random_bits(rng: np.random.Generator, m: int) -> tuple:
    """m uniform bits from one rng.integers draw."""
    return tuple(rng.integers(0, 2, size=m).tolist())


@dataclass(frozen=True)
class BscParams:
    """Crossover probability and the derived duplication-channel numbers."""

    crossover: float

    def __post_init__(self):
        if not 0.0 <= self.crossover < 0.5:
            raise ValueError(
                f"crossover must be in [0, 1/2), got {self.crossover}")

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


@dataclass(frozen=True)
class TernaryWord:
    """A received word over {0, 1, erased}."""

    symbols: tuple

    def __post_init__(self):
        for s in self.symbols:
            if s not in (0, 1, ERASED):
                raise ValueError(f"bad ternary symbol {s!r}")

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def erased_count(self) -> int:
        return sum(1 for s in self.symbols if s == ERASED)

    @property
    def unerased_count(self) -> int:
        return len(self.symbols) - self.erased_count

    def non_erased_indices(self) -> tuple:
        return tuple(i for i, s in enumerate(self.symbols) if s != ERASED)

    def trace(self) -> str:
        return "".join("*" if s == ERASED else str(s) for s in self.symbols)


def duplicate_round_trip(bits: Sequence[int], phi: float,
                         rng: np.random.Generator) -> TernaryWord:
    """Send every bit twice through BSC(phi) and fold pairs to ternary.

    Matching received pairs keep their common value; mismatching pairs
    become erasures.  Flip draws are a single (len, 2) block so the
    consumption order is fixed.
    """
    import numpy as np
    if not 0.0 <= phi < 0.5:
        raise ValueError(f"crossover must be in [0, 1/2), got {phi}")
    flips = rng.random((len(bits), 2)) < phi
    f1, f2 = flips[:, 0], flips[:, 1]
    sent = np.asarray(bits, dtype=np.int64)
    return TernaryWord(tuple(np.where(f1 == f2, sent ^ f1, ERASED).tolist()))
