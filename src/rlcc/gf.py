"""Arithmetic for the prime field GF(p) and its degree-m extension GF(p^m).

Elements of F = GF(p^m) are residue classes of GF(p)[X] modulo a monic
irreducible polynomial of degree m.  An element is identified by its
integer code sum(c_i * p**i), where (c_0, ..., c_{m-1}) are the
coefficients of its representative, low degree first.  Codes run over
[0, n) with n = p^m, and the code order is the canonical element order
used for every enumeration and every "uniformly random element" draw.

The subfield H = GF(p) embeds as the constant polynomials, so the code
of an embedded scalar equals the scalar itself and membership in the
embedded H is exactly ``code < p``.

All arithmetic goes through log/antilog tables over a fixed primitive
element, built with the field from schoolbook products.  A field past
n = 2**20 elements still gives its size and codecs, but arithmetic on
it raises one ValueError that names the limit.

Every sum of field elements, of arrays or of single codes, adds them as
integers: LaneLayout packs their base-p digits in unsigned lanes wide
enough for a known largest lane sum, in int64 or float64 words, and
reads the sums back to codes.  It is the package's one such format.
For one element at a time, Field.scalar_tables holds every code's
lanes as Python ints and reads a sum back by one lookup per field, so
Field.add and geometry's point arithmetic cost a few subscripts.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from math import prod

import numpy as np

_TABLE_LIMIT = 1 << 20
# divisors of degree m // 2 that an irreducibility test may try
_SEARCH_LIMIT = 10**6


# the package's one workspace: arrays by role (distinct in every module),
# kept across calls so that hot vector paths make no large temporaries
# (fresh ones cost page faults: glibc unmaps large freed blocks).  One
# above _SCRATCH_LIMIT elements is fresh and not kept.  Callers write a
# scratch array fully before reading it, and one returned is valid until
# the next call; no two calls overlap, as the package runs no threads.
_SCRATCH: dict = {}
_SCRATCH_LIMIT = 1 << 17


def scratch(role: str, shape, dtype) -> np.ndarray:
    size = prod(shape)
    if size > _SCRATCH_LIMIT:
        return np.empty(shape, dtype)
    buf = _SCRATCH.get(role)
    if buf is None or buf.dtype != dtype or buf.size < size:
        buf = _SCRATCH[role] = np.empty(_SCRATCH_LIMIT, dtype)
    return buf[:size].reshape(shape)


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    d = 2
    while d * d <= x:
        if x % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# GF(p)[X] helpers for locating / validating the reduction polynomial.
# Polynomials are coefficient lists, low degree first, trimmed or not.


def _poly_mod(a, f, p):
    a = list(a)
    m = len(f) - 1
    while len(a) > m:
        lead = a[-1]
        if lead:
            off = len(a) - 1 - m
            for i, c in enumerate(f):
                a[off + i] = (a[off + i] - lead * c) % p
        a.pop()
    return a


def _poly_divides(g, f, p):
    return all(c == 0 for c in _poly_mod(f, g, p))


def is_irreducible(coeffs, p: int) -> bool:
    """Trial division of a monic polynomial by all lower-degree monic factors.

    For degree <= 3 this degenerates to a root check, which is enough.
    """
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        return False
    for deg in range(1, m // 2 + 1):
        for low in product(range(p), repeat=deg):
            if _poly_divides(list(low) + [1], coeffs, p):
                return False
    return True


def find_irreducible(p: int, m: int):
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    Candidates are ordered by the integer code of their low-degree part,
    so the choice is deterministic across runs.
    """
    for code in range(p**m):
        low, c = [], code
        for _ in range(m):
            low.append(c % p)
            c //= p
        cand = low + [1]
        if is_irreducible(cand, p):
            return tuple(cand)
    raise ValueError(f"no irreducible of degree {m} over GF({p})")


class Field:
    """The tower GF(p) inside GF(p^m), with integer-coded elements.

    Immutable after construction; safe to share across workers.  All
    element-level operations take and return integer codes.
    """

    def __init__(self, p: int, m: int, irreducible=None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 2:
            raise ValueError(f"extension degree m = {m} must be >= 2")
        if p ** (m // 2) > _SEARCH_LIMIT:
            raise ValueError(f"GF({p}^{m}): its irreducibility test tries {p}^{m // 2} divisors")
        if irreducible is None:
            irreducible = find_irreducible(p, m)
        else:
            irreducible = tuple(int(c) % p for c in irreducible)
            if len(irreducible) != m + 1 or irreducible[-1] != 1:
                raise ValueError("reduction polynomial must be monic of degree m")
            if not is_irreducible(irreducible, p):
                raise ValueError(f"{irreducible} is reducible over GF({p})")
        self.p = p
        self.m = m
        self.irreducible = irreducible
        self.n = p**m
        self._pw = [p**i for i in range(m)]
        # X^(m+j) mod f for j in [0, m-1), used by schoolbook reduction
        self._red = []
        tail = [(-c) % p for c in irreducible[:-1]]
        cur = list(tail)
        for _ in range(m - 1):
            self._red.append(tuple(cur))
            cur = [0] + cur
            lead = cur.pop()
            if lead:
                cur = [(cur[i] + lead * tail[i]) % p for i in range(m)]
        # eagerly, so that no timed first operation pays for them
        if self.n <= _TABLE_LIMIT:
            self._build_tables()
        else:
            self._log = self._exp = _NoLogTables(self)

    # -- codecs -------------------------------------------------------------

    def coeffs_of(self, a: int):
        """Integer code -> length-m coefficient tuple, low degree first."""
        out, c = [], a
        for _ in range(self.m):
            out.append(c % self.p)
            c //= self.p
        return tuple(out)

    def code_of(self, coeffs) -> int:
        if len(coeffs) != self.m:
            raise ValueError("coefficient vector must have length m")
        code = 0
        for c, w in zip(coeffs, self._pw):
            if not 0 <= c < self.p:
                raise ValueError("coefficient out of range")
            code += c * w
        return code

    @property
    def descriptor(self) -> str:
        return f"{self.p}^{self.m}/" + ",".join(str(c) for c in self.irreducible)

    # -- arithmetic -----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        _, _, put, _, read = self.scalar_tables
        return read[put[a] + put[b]]

    def sub(self, a: int, b: int) -> int:
        if not b:
            return a
        # -b = antilog(log b + log(-1)), and -1 is the code p - 1
        log, _, put, prod, read = self.scalar_tables
        return read[put[a] + prod[log[b] + log[self.p - 1]]]

    def _mul_schoolbook(self, a: int, b: int) -> int:
        ca, cb = self.coeffs_of(a), self.coeffs_of(b)
        m, p = self.m, self.p
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        acc = prod[:m]
        for j, red in enumerate(self._red):
            hi = prod[m + j]
            if hi:
                acc = [(acc[i] + hi * red[i]) % p for i in range(m)]
        return self.code_of(acc)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self._exp[self.n - 1 - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.n - 1)]

    def rand_element(self, rng) -> int:
        return rng.randrange(self.n)

    # -- log/antilog tables ---------------------------------------------------

    def _build_tables(self):
        n = self.n
        order_facs = _prime_factors(n - 1)
        for g in range(2, n):
            if all(self._pow_schoolbook(g, (n - 1) // q) != 1 for q in order_facs):
                break
        else:  # pragma: no cover - every finite field has a generator
            raise RuntimeError("no primitive element found")
        exp = [1] * (2 * (n - 1))
        log = [0] * n
        cur = 1
        for i in range(n - 1):
            exp[i] = cur
            log[cur] = i
            cur = self._mul_schoolbook(cur, g)
        for i in range(n - 1, 2 * (n - 1)):
            exp[i] = exp[i - (n - 1)]
        self._exp, self._log = exp, log

    def _pow_schoolbook(self, a: int, e: int) -> int:
        out, base = 1, a
        while e:
            if e & 1:
                out = self._mul_schoolbook(out, base)
            base = self._mul_schoolbook(base, base)
            e >>= 1
        return out

    # -- vectorized views -------------------------------------------------------

    @cached_property
    def tables(self):
        """Numpy views used by the vectorized fast paths.

        Returns (exp, log, digits): the antilog of every sum of two logs,
        over 2(n-1) entries with the last one 0, and the log, which sends
        0 to that entry, past every sum of two nonzero logs, so that a
        product read with mode="clip" is 0 for a zero factor; and the
        n x m matrix of every code's base-p digits.
        """
        exp = np.array(self._exp, dtype=np.int64)
        exp[-1] = 0
        log = np.array(self._log, dtype=np.int64)
        log[0] = len(exp) - 1
        digits = np.empty((self.n, self.m), dtype=np.int32)
        rem = np.arange(self.n, dtype=np.int64)
        for i in range(self.m):
            digits[:, i] = rem % self.p
            rem //= self.p
        return exp, log, digits

    @cached_property
    def scalar_tables(self):
        """The tables of arithmetic on one element at a time: (log, exp,
        put, prod, read).  log and exp are the log and antilog lists
        (log[0] is not a log: check for zero first); put, prod and read
        are LaneLayout.scalar for sums of three elements, so that
        a + t*u + s*v, per coordinate of a point, is
        read[put[a] + prod[log t + log u] + prod[log s + log v]] over the
        nonzero products."""
        return (self._log, self._exp, *LaneLayout(self, 3 * (self.p - 1)).scalar)

    def __repr__(self):
        return f"Field({self.p}^{self.m}, X-poly {list(self.irreducible)})"

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.m, self.irreducible)
            == (other.p, other.m, other.irreducible)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.irreducible))


class _NoLogTables:
    """The log tables of a field past _TABLE_LIMIT, which has no
    arithmetic: any read, by index or by numpy, raises one ValueError."""

    def __init__(self, ctx: Field):
        limit = f"the {_TABLE_LIMIT}-entry log-table limit"
        self.error = f"GF({ctx.p}^{ctx.m}) has no arithmetic past {limit}"

    def _refuse(self, *args, **kwargs):
        raise ValueError(self.error)

    __getitem__ = __array__ = _refuse


def _prime_factors(x: int):
    out, d = set(), 2
    while d * d <= x:
        while x % d == 0:
            out.add(d)
            x //= d
        d += 1
    if x > 1:
        out.add(x)
    return out


# entries of one LaneLayout.reduce table (512 KB as int32)
_REDUCE_LIMIT = 1 << 17


# one layout per (field, top, carrier), for the 64 last used
@lru_cache(maxsize=64)
class LaneLayout:
    """The one digit-lane codec: codes' base-p digits in integer lanes
    that add up without carries, and the read-back of the lane sums.

    A lane sum lies in [0, top], so its radix R is top + 1.  Lanes
    spread evenly over the fewest fields of `group` lanes with
    R^group <= 2^17, so that one `reduce` lookup reads a field.  Fields
    are `width` bits wide, `per` to a carrier word (63 bits of an int64,
    53 of a float64's mantissa): digit i is lane i % group of field
    f = i // group, in bit field f % per of word f // per.  A code takes
    `words` words.
    """

    def __init__(self, ctx: Field, top: int, carrier=np.int64):
        m, self.ctx = ctx.m, ctx
        # a sum over no elements still takes a lane
        radix = self.radix = max(2, top + 1)
        group = 1
        while group < m and radix ** (group + 1) <= _REDUCE_LIMIT:
            group += 1
        self.fields = -(-m // group)
        self.group = -(-m // self.fields)
        self.width = (radix**self.group - 1).bit_length()
        self.mask = (1 << self.width) - 1
        self.per = (53 if carrier is np.float64 else 63) // self.width
        assert self.per, "a lane sum does not fit the carrier word"
        self.words = -(-self.fields // self.per)
        used = min(self.fields, self.per) * self.width
        self._dtype = np.int32 if carrier is np.int64 and used < 32 else carrier
        # (word, shift, lane weight, code weight) of each digit
        self._digits = [
            (f // self.per, f % self.per * self.width, radix**t, ctx.p**i)
            for i, (f, t) in enumerate(divmod(i, self.group) for i in range(m))
        ]
        self._ends = {}

    def place(self, slot: int):
        """(word, shift) of code `slot` of several packed side by side: as
        many to a word as its fields allow, else `words` words each."""
        slots = max(1, self.per // self.fields)
        return slot // slots * self.words, slot % slots * self.fields * self.width

    def _pack(self, codes: np.ndarray) -> np.ndarray:
        out = np.zeros((self.words, len(codes)), dtype=self._dtype)
        for row, (w, shift, lane, _) in zip(self.ctx.tables[2].T, self._digits):
            out[w] += row[codes] * self._dtype(lane << shift)
        return out

    @cached_property
    def packed(self) -> np.ndarray:
        """words x n: the lanes of every code (int32 when they fit)."""
        return self._pack(np.arange(self.ctx.n))

    def zero_ended(self, s: int):
        """(log, table) for sums of s >= 2 logs, as Field.tables' (exp,
        log) for two: table (words x s(n-1)) holds the lanes of each such
        sum's antilog and 0 at its last entry, where log sends 0."""
        if s not in self._ends:
            exp_t, log_t, _ = self.ctx.tables
            # int32 beside an int32 table, so that small tables stay small
            log = log_t.astype(np.int32 if self._dtype is np.int32 else np.int64)
            log[0] = s * (self.ctx.n - 1) - 1
            exp = exp_t[np.arange(log[0] + 1) % (self.ctx.n - 1)]
            exp[-1] = 0
            self._ends[s] = log, self._pack(exp)
        return self._ends[s]

    @cached_property
    def reduce(self):
        """Codes of field values, each lane taken mod p (R^group int32
        entries, built by outer sums so no temporary outgrows the table),
        or None past the table limit, where a lane is read mod p."""
        if self.radix**self.group > _REDUCE_LIMIT:
            return None
        lane = np.arange(self.radix, dtype=np.int32) % self.ctx.p
        table = lane
        for t in range(1, self.group):
            table = (table + (lane * self.ctx.p**t)[:, None]).reshape(-1)
        return table

    @cached_property
    def _weighted(self):
        """Per field f, its code weight p^(group f) and the reduce table
        times that weight (int32: codes are below n <= 2^20; field 0's is
        reduce itself), or None past the table limit."""
        weights = [self.ctx.p ** (self.group * f) for f in range(self.fields)]
        if self.reduce is None:
            return [(w, None) for w in weights]
        return [(w, self.reduce * w if f else self.reduce) for f, w in enumerate(weights)]

    def codes(self, sums, slot: int = 0, out=None) -> np.ndarray:
        """Codes of the sums of code `slot` (place) in sums, an integer
        array or a sequence of arrays, indexed by word first, into out if
        given.  A field costs one pass: a shift, a mask and a lookup in
        its weighted reduce table (past the table limit, the lane mod p
        times its weight), added up in int32.  The work arrays are
        scratch arrays."""
        word, shift = self.place(slot) if slot else (0, 0)
        shape = np.shape(sums[word])
        field = scratch("lane_field", shape, np.int64)
        # int32 rows: the total and, from two fields on, a later field's part
        work = scratch("lane_digits", (min(2, self.fields), *shape), np.int32)
        total, digit = work[0], work[-1]
        for f, (weight, table) in enumerate(self._weighted):
            at = shift + f % self.per * self.width
            lanes = sums[word + f // self.per]
            if at:
                lanes = np.right_shift(lanes, at, out=field)
            np.bitwise_and(lanes, self.mask, out=field)
            value = digit if f else total
            if table is None:
                field %= self.ctx.p
                np.multiply(field, weight, out=value, casting="unsafe")
            else:
                table.take(field, mode="clip", out=value)
            if f:
                total += digit
        if out is None:
            return total.astype(np.int64)
        np.copyto(out, total)
        return out

    @cached_property
    def scalar(self):
        """(put, prod, read) for codes one at a time, as Python ints, on a
        one-word layout with a reduce table (every layout for sums of three
        elements of a field with log tables): put[c] is the lanes of code
        c, prod[e] those of the antilog of e, a sum of two logs of nonzero
        elements, and read[s] the code of a lane sum s.  read is the
        reduce table itself for one field, else a _FieldSum.  A table
        longer than n is a memoryview of the numpy one, not a list: a list
        costs about 36 bytes an entry."""
        assert self.words == 1 and self.reduce is not None
        tables = [memoryview(table) for _, table in self._weighted]
        read = tables[0] if self.fields == 1 else _FieldSum(tables, self.width, self.mask)
        return self.packed[0].tolist(), memoryview(self.zero_ended(2)[1][0]), read

    def code(self, sums) -> int:
        """The code read of one sum of code 0, given as Python ints, one
        per word: for one value they read faster than numpy."""
        p, radix, mask = self.ctx.p, self.radix, self.mask
        return sum(
            (sums[w] >> shift & mask) // lane % radix % p * weight
            for w, shift, lane, weight in self._digits
        )


class _FieldSum:
    """read[s] of a lane sum s of several fields: each field's lookup in
    its weighted reduce table, added up."""

    __slots__ = ("tables", "width", "mask")

    def __init__(self, tables, width: int, mask: int):
        self.tables, self.width, self.mask = tables, width, mask

    def __getitem__(self, s: int) -> int:
        width, mask = self.width, self.mask
        return sum(table[s >> f * width & mask] for f, table in enumerate(self.tables))


def parse_descriptor(text: str) -> Field:
    """Parse a field descriptor like ``2^3/1,1,0,1``."""
    head, _, tail = text.partition("/")
    ps, _, ms = head.partition("^")
    p, m = int(ps), int(ms)
    irr = tuple(int(c) for c in tail.split(",")) if tail else None
    return Field(p, m, irr)

