"""Keyed pseudorandom predicates over huge address spaces.

Corruption experiments need a deterministic per-address coin that can
be evaluated lazily at any of ~10^26 addresses and in bulk over numpy
arrays.  A chained splitmix64 over the 64-bit limbs of the address
provides that; the same chain with a different salt supplies the
replacement symbol.
"""

from __future__ import annotations

import numpy as np

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def chain(seed: int, *parts: int) -> int:
    """Hash a tuple of nonnegative ints, splitting each into 64-bit limbs."""
    h = mix64(seed ^ _GOLDEN)
    for part in parts:
        if part < 0:
            raise ValueError("hash inputs must be nonnegative")
        while True:
            h = mix64(h ^ (part & _M64) ^ _GOLDEN)
            part >>= 64
            if part == 0:
                break
    return h


def mix64_vec(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def chain_vec(seed: int, last: np.ndarray) -> np.ndarray:
    """Vectorized chain(seed, v) for one-limb values v (v < 2^64).

    Agrees exactly with the scalar chain on every element.
    """
    pre = mix64(seed ^ _GOLDEN)
    return mix64_vec(
        np.uint64(pre) ^ last.astype(np.uint64) ^ np.uint64(_GOLDEN)
    )


def threshold_of(rate: float) -> int:
    """Inclusion threshold so that P[hash < threshold] = rate.

    Rate 1 gives 2^64, above every 64-bit hash: compare hashes with this
    Python int, not with a ``np.uint64`` of it, which cannot hold 2^64.
    """
    if not 0 <= rate <= 1:
        raise ValueError("rate must lie in [0, 1]")
    return int(round(rate * float(1 << 64)))
