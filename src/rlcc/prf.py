"""Keyed pseudorandom predicates over huge address spaces.

Corruption experiments need a deterministic per-address coin that can
be evaluated lazily at any of ~10^26 addresses and in bulk over numpy
arrays.  A chained splitmix64 over the 64-bit limbs of the address
provides that; the same chain with a different salt supplies the
replacement symbol.  ``KeyedNoise`` is the one corruption model built
from the two: every adversary in the package selects and replaces
symbols through it.
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
    """mix64 of every element of a uint64 array, in place; returns x."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def chain_vec(seed: int, last: np.ndarray) -> np.ndarray:
    """Vectorized chain(seed, v) for one-limb values v (v < 2^64).

    Agrees exactly with the scalar chain on every element.
    """
    x = last.astype(np.uint64)
    x ^= np.uint64(mix64(seed ^ _GOLDEN) ^ _GOLDEN)
    return mix64_vec(x)


def threshold_of(rate: float) -> int:
    """Inclusion threshold so that P[hash < threshold] = rate.

    Rate 1 gives 2^64, above every 64-bit hash: compare hashes with this
    Python int, not with a ``np.uint64`` of it, which cannot hold 2^64.
    """
    if not 0 <= rate <= 1:
        raise ValueError("rate must lie in [0, 1]")
    return int(round(rate * float(1 << 64)))


# addresses per numpy pass of KeyedNoise.count and .apply: a pass holds a
# few CHUNK-element uint64 temporaries (about 25 MB at this size; one pass
# over a whole S1 grid would take about 580 MB), and passes of 2^20 were
# no slower than passes of 4 * 10^6
CHUNK = 1 << 20


class KeyedNoise:
    """Keyed pseudorandom corruption of an n-symbol address space.

    Address a is hit when chain(prefix, a) < threshold_of(rate); a hit
    replaces the base symbol b by (b + 1 + chain(salt, a) % (n - 1)) % n,
    which is uniform among the other n - 1 symbols and never equals b.
    """

    def __init__(self, prefix: int, salt: int, rate: float, n: int):
        self.prefix = prefix
        self.salt = salt
        self.rate = rate
        self.n = n
        self.threshold = threshold_of(rate)

    def hit(self, addr: int) -> bool:
        return chain(self.prefix, addr) < self.threshold

    def hit_mask(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized hit for one-limb addresses; agrees with ``hit``."""
        return chain_vec(self.prefix, addrs) < self.threshold

    def range_mask(self, lo: int, hi: int) -> np.ndarray:
        """hit(a) for every a in [lo, hi), addresses of any width.

        The low limb is hashed vectorized and each higher limb, constant
        between multiples of 2^64, is folded in after it, as ``chain``
        does; a range that crosses such a multiple is split there.
        """
        out = np.empty(hi - lo, dtype=bool)
        start = lo
        while start < hi:
            top = start >> 64
            stop = min(hi, (top + 1) << 64)
            low = np.arange(stop - start, dtype=np.uint64)
            low += np.uint64(start & _M64)
            h = chain_vec(self.prefix, low)
            while top:
                h ^= np.uint64((top & _M64) ^ _GOLDEN)
                mix64_vec(h)
                top >>= 64
            out[start - lo : stop - lo] = h < self.threshold
            start = stop
        return out

    def replacement(self, addr: int, base: int) -> int:
        """The symbol a hit at addr reads instead of base."""
        return (base + 1 + chain(self.salt, addr) % (self.n - 1)) % self.n

    def count(self, lo: int, hi: int) -> int:
        """Number of hits in the address range [lo, hi)."""
        return sum(
            int(self.range_mask(start, stop).sum()) for start, stop in _chunks(lo, hi)
        )

    def apply(self, lo: int, hi: int, word: np.ndarray) -> int:
        """Replace word[a] at every hit a in [lo, hi), in place; returns
        the hit count."""
        total = 0
        for start, stop in _chunks(lo, hi):
            idx = start + np.flatnonzero(self.range_mask(start, stop))
            shift = 1 + chain_vec(self.salt, idx) % np.uint64(self.n - 1)
            word[idx] = (word[idx] + shift.astype(np.int64)) % self.n
            total += idx.size
        return total


def _chunks(lo: int, hi: int):
    """The range [lo, hi) as (start, stop) pieces of at most CHUNK addresses."""
    for start in range(lo, hi, CHUNK):
        yield start, min(start + CHUNK, hi)
