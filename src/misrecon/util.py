"""Shared plumbing: deterministic seed derivation, keyed hash ranks, seeded
shuffles and Bernoulli rows, the int-mask / bit-row codec, capacity errors,
trial loops and their sample statistics.

Every randomized operation in this package takes an explicit integer seed and
derives per-trial seeds through a fixed 64-bit mixer and per-query ranks
through SHAKE-128, so results are reproducible across platforms.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Callable, Iterable, MutableSequence, Sequence, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1

T = TypeVar("T")


class CapExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its configured capacity."""


def derive_seed(base: int, *path: int) -> int:
    """Derive a child seed from a base seed and an index path.

    Uses a splitmix64-style finalizer per path component, stable across
    platforms (unlike hash()-based seeding). The components are not kept
    apart: each adds its value to the running state before it is mixed, so
    for a one-component path the child depends only on base + p, and
    derive_seed(5, i + 1) == derive_seed(6, i).
    """
    x = base & _MASK64
    for p in path:
        x = (x + 0x9E3779B97F4A7C15 + (p & _MASK64)) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        x = x ^ (x >> 31)
    return x


def keyed_ranks(seed: int, indices: Iterable[int], counts: Iterable[int]) -> np.ndarray:
    """For each (index, count) pair in turn, count pseudo-random 64-bit ranks
    keyed by (seed, index), joined into one uint64 array: the little-endian
    unsigned 64-bit words of SHAKE-128 (FIPS 202) over two 8-byte
    little-endian fields, seed mod 2^64 and then index mod 2^64."""
    low = seed & _MASK64
    keys = [(low | (index & _MASK64) << 64).to_bytes(16, "little") for index in indices]
    stream = b"".join([hashlib.shake_128(k).digest(8 * c) for k, c in zip(keys, counts)])
    return np.frombuffer(stream, "<u8")


def run_seeded_trials(trial: Callable[[int], T], trials: int, seed: int) -> list[T]:
    """[trial(derive_seed(seed, index)) for index in range(trials)], in order;
    the one refusal of a trial count below 1."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    return [trial(derive_seed(seed, i)) for i in range(trials)]


def mean_var_stderr(xs: Sequence[float]) -> tuple[float, float, float]:
    """The mean of xs, their population variance, and the standard error of the mean."""
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    return mean, var, math.sqrt(var / len(xs))


def rate_stderr(hits: int, samples: int) -> tuple[float, float]:
    """The rate p = hits / samples of 0/1 samples and its Bernoulli standard
    error sqrt(p (1 - p) / samples), in that closed form."""
    p = hits / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


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


# rows per block and elements per getrandbits call, which bound the
# temporaries of bernoulli_rows to about 24 MiB (24 bytes an element)
_DRAW_ROWS = 16
_DRAW_ELEMENTS = 1 << 20

# bits one bernoulli_rows call may draw, each row counted as at least 64 for
# its int object: 2^30 bits are 128 MiB of masks, 50 times the largest
# default draw (the n=200 CFF family, 200 sets over 101,711 elements)
DRAW_CAP_BITS = 1 << 30


def check_draw_cap(rows: int, width: int) -> None:
    """CapExceededError when rows * max(width, 64) exceeds DRAW_CAP_BITS: the
    refusal of bernoulli_rows, which a caller can make first."""
    if rows * max(width, 64) > DRAW_CAP_BITS:
        raise CapExceededError(
            f"random draw of {rows} rows of {width} bits exceeds cap {DRAW_CAP_BITS} bits"
        )


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
    afterwards, are exactly those of making that many random() calls.
    CapExceededError, before any draw, when check_draw_cap refuses."""
    check_draw_cap(rows, width)
    # k * 2**-53 < p exactly when the integer k is below p * 2**53 rounded up
    threshold = math.ceil(p * 2**53)
    block = min(_DRAW_ROWS, max(1, _DRAW_ELEMENTS // max(width, 1)))
    span = max(1, min(width, _DRAW_ELEMENTS))
    masks = []
    for start in range(0, rows, block):
        count = min(block, rows - start)
        # a row wider than span (then count is 1) is drawn in pieces, low bits
        # first: consecutive draws continue one stream
        row_masks = [0] * count
        for low in range(0, width, span):
            keys = _random_keys(rng, count * min(span, width - low)).reshape(count, -1)
            pieces = bits_to_masks(keys < threshold)
            row_masks = [m | b << low for m, b in zip(row_masks, pieces)]
        masks.extend(row_masks)
    return masks


def masks_to_bits(masks: Sequence[int], width: int) -> np.ndarray:
    """len(masks) x width uint8 rows of 0/1, [i, j] being bit j of masks[i] (each
    mask fits in width bits); with bits_to_masks, the one mask-to-row codec."""
    size = (width + 7) // 8
    packed = np.frombuffer(b"".join([m.to_bytes(size, "little") for m in masks]), np.uint8)
    return np.unpackbits(
        packed.reshape(len(masks), size), axis=1, count=width, bitorder="little"
    )


def bits_to_masks(bits: np.ndarray) -> list[int]:
    """The int mask of each row of a 2-d array of 0/1 or booleans, bit j from column j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    rows, size = packed.shape
    if not size:
        return [0] * rows
    # slices of one bytes object: a row view of the array per mask is slower
    stream = packed.tobytes()
    return [int.from_bytes(stream[i : i + size], "little") for i in range(0, rows * size, size)]


# bytes of ground elements per block, which bounds the temporaries of
# transpose_masks to len(masks) * 8 * _TRANSPOSE_BYTES bytes
_TRANSPOSE_BYTES = 1024


def transpose_masks(masks: Sequence[int], width: int) -> list[int]:
    """For each x < width, the mask of the indices i with bit x set in masks[i].

    The incidence matrix is transposed a block of ground elements at a time,
    so each mask is shifted once per block rather than walked bit by bit.
    """
    step = 8 * _TRANSPOSE_BYTES
    out = []
    for start in range(0, width, step):
        span = min(step, width - start)
        low = (1 << span) - 1
        out.extend(bits_to_masks(masks_to_bits([m >> start & low for m in masks], span).T))
    return out


def mask_from_members(n: int, members: Iterable[int]) -> int:
    """The mask of members, a subset of {0, .., n-1}; the one checked
    conversion of a member list. ValueError names the first member outside
    the universe, and then a negative n."""
    mask = 0
    for v in members:
        if not 0 <= v < n:
            raise ValueError(f"member {v} outside universe of size {n}")
        mask |= 1 << v
    if n < 0:
        raise ValueError("universe size must be >= 0")
    return mask


def iter_bits(mask: int):
    """Yield set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def member_tuple(mask: int) -> tuple[int, ...]:
    """The set bit positions of mask in ascending order, as a tuple."""
    # made at its final size through a list: a tuple built from an iterator is
    # resized, and CPython's per-size tuple free lists then hoard the results
    # (about 3 MB more peak RSS over a run of n=200 transcripts' views)
    return tuple(list(iter_bits(mask)))
