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

from .gf import scratch

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


def mix64_vec(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """mix64 of every element of a uint64 array, in place; returns x.

    tmp, a uint64 array of x's shape, takes the shifted copies, so the
    mix allocates nothing.
    """
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(x, np.uint64(shift), out=tmp)
        x ^= tmp
        x *= np.uint64(mult)
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp
    return x


def chain_vec(seed: int, last: np.ndarray, tmp=None) -> np.ndarray:
    """Vectorized chain(seed, v) for one-limb values v (v < 2^64).

    Agrees exactly with the scalar chain on every element.  Given tmp,
    a uint64 array of last's shape, last must be uint64 as well: it is
    hashed in place, with tmp as mix64_vec's scratch, and nothing is
    allocated.
    """
    x = last.astype(np.uint64) if tmp is None else last
    x ^= np.uint64(mix64(seed ^ _GOLDEN) ^ _GOLDEN)
    return mix64_vec(x, np.empty_like(x) if tmp is None else tmp)


def threshold_of(rate: float) -> int:
    """Inclusion threshold so that P[hash < threshold] = rate.

    Rate 1 gives 2^64, above every 64-bit hash: compare hashes with this
    Python int, not with a ``np.uint64`` of it, which cannot hold 2^64.
    """
    if not 0 <= rate <= 1:
        raise ValueError("rate must lie in [0, 1]")
    return int(round(rate * float(1 << 64)))


# addresses per numpy pass of KeyedNoise.count, .apply and .range_mask.
# A call allocates its few CHUNK-element buffers once (about 1.6 MB at
# this size, inside L2) and every pass reuses them.  Counting the hits
# of one S1 grid (24 million addresses) took about 0.6 s in passes of
# 2^20 that allocated fresh 8 MB temporaries, 0.12 s in passes of 2^15
# and 0.10 s in passes of 2^16 with reused buffers (2-vCPU VM)
CHUNK = 1 << 16


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
        """Vectorized hit for one-limb addresses; agrees with ``hit``.
        The addresses are hashed in a scratch copy, never in place."""
        x = scratch("hash", np.shape(addrs), np.uint64)
        np.copyto(x, addrs, casting="unsafe")
        tmp = scratch("hash_tmp", x.shape, np.uint64)
        return chain_vec(self.prefix, x, tmp) < self.threshold

    def _passes(self, lo: int, hi: int):
        """hit(a) for a in [lo, hi), addresses of any width, one pass of
        at most CHUNK addresses at a time: yields (start, mask), where
        mask is a view of a buffer that the next pass overwrites.

        The low limb is hashed vectorized and each higher limb, constant
        between multiples of 2^64, is folded in after it, as ``chain``
        does; a pass never crosses such a multiple.
        """
        size = min(CHUNK, hi - lo)
        ramp = np.arange(size, dtype=np.uint64)
        h, tmp = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
        mask = np.empty(size, dtype=bool)
        start = lo
        while start < hi:
            top = start >> 64
            stop = min(hi, start + CHUNK, (top + 1) << 64)
            k = stop - start
            hk, tk = h[:k], tmp[:k]
            np.add(ramp[:k], np.uint64(start & _M64), out=hk)
            chain_vec(self.prefix, hk, tk)
            while top:
                hk ^= np.uint64((top & _M64) ^ _GOLDEN)
                mix64_vec(hk, tk)
                top >>= 64
            yield start, np.less(hk, self.threshold, out=mask[:k])
            start = stop

    def range_mask(self, lo: int, hi: int) -> np.ndarray:
        """hit(a) for every a in [lo, hi), addresses of any width."""
        out = np.empty(hi - lo, dtype=bool)
        for start, mask in self._passes(lo, hi):
            out[start - lo : start - lo + mask.size] = mask
        return out

    def replacement(self, addr: int, base: int) -> int:
        """The symbol a hit at addr reads instead of base."""
        return (base + 1 + chain(self.salt, addr) % (self.n - 1)) % self.n

    def count(self, lo: int, hi: int) -> int:
        """Number of hits in the address range [lo, hi)."""
        return sum(np.count_nonzero(mask) for _, mask in self._passes(lo, hi))

    def apply(self, lo: int, hi: int, word: np.ndarray) -> int:
        """Replace word[a] at every hit a in [lo, hi), in place; returns
        the hit count.  Addresses are word indices, so one limb wide."""
        total = 0
        for start, mask in self._passes(lo, hi):
            idx = np.flatnonzero(mask)
            idx += start
            shift = chain_vec(self.salt, idx)
            shift %= np.uint64(self.n - 1)
            shift += np.uint64(1)
            word[idx] = (word[idx] + shift.astype(np.int64)) % self.n
            total += idx.size
        return total
