"""Shared plumbing: deterministic seed derivation, seeded shuffles and
Bernoulli rows, capacity errors, trial loops.

Every randomized operation in this package takes an explicit integer seed and
derives per-trial / per-query seeds through a fixed 64-bit mixer, so results
are reproducible across platforms.
"""

from __future__ import annotations

import math
import random
from typing import Callable, MutableSequence, Sequence, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1

T = TypeVar("T")


class CapExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its configured capacity."""


def derive_seed(base: int, *path: int) -> int:
    """Derive a child seed from a base seed and an index path.

    Uses a splitmix64-style finalizer per path component; collision-free in
    practice and stable across platforms (unlike hash()-based seeding).
    """
    x = base & _MASK64
    for p in path:
        x = (x + 0x9E3779B97F4A7C15 + (p & _MASK64)) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        x = x ^ (x >> 31)
    return x


def run_seeded_trials(trial: Callable[[int], T], trials: int, seed: int) -> list[T]:
    """[trial(derive_seed(seed, index)) for index in range(trials)], in order."""
    if trials < 0:
        raise ValueError("trials must be >= 0")
    return [trial(derive_seed(seed, i)) for i in range(trials)]


def shuffle(rng: random.Random, x: MutableSequence) -> None:
    """Shuffle x in place exactly as rng.shuffle(x) does for a random.Random.

    CPython's Random.shuffle draws j = getrandbits((i + 1).bit_length()),
    redrawn while j > i, for i from len(x) - 1 down to 1. This makes the same
    calls in the same order, so the permutation and rng's state afterwards
    are identical, without a Python frame per drawn element.
    """
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        m = i + 1
        k = m.bit_length()
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


# rows drawn per block, which bounds the temporaries of bernoulli_rows
_DRAW_ROWS = 16


def _random_keys(rng: random.Random, m: int) -> np.ndarray:
    """The 53-bit integers k with k * 2**-53 equal to the next m rng.random().

    CPython's random() is ((w0 >> 5) * 2**26 + (w1 >> 6)) * 2**-53 for two
    consecutive Mersenne Twister outputs w0, w1, and getrandbits(64 * m)
    holds the next 2 * m outputs, the first one least significant. So one
    call draws m values and leaves rng where m calls of random() would.
    numpy.random is not used: importing it adds about 6 MB to the process.
    """
    pairs = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"), "<u8")
    return (pairs & 0xFFFFFFFF) >> 5 << 26 | pairs >> 38


def bernoulli_rows(rng: random.Random, rows: int, width: int, p: float) -> list[int]:
    """rows masks of width bits; bit j of row i is set when the (i*width + j)-th
    next rng.random() is below p. For 0 <= p <= 1 the masks, and rng's state
    afterwards, are exactly those of making that many random() calls."""
    # k * 2**-53 < p exactly when the integer k is below p * 2**53 rounded up
    threshold = math.ceil(p * 2**53)
    masks = []
    for start in range(0, rows, _DRAW_ROWS):
        block = min(_DRAW_ROWS, rows - start)
        draws = _random_keys(rng, block * width).reshape(block, width) < threshold
        packed = np.packbits(draws, axis=1, bitorder="little")
        masks.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return masks


def mask_from_members(members: Sequence[int]) -> int:
    mask = 0
    for v in members:
        mask |= 1 << v
    return mask


def iter_bits(mask: int):
    """Yield set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
