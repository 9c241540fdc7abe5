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

Multiplication and inversion go through log/antilog tables over a fixed
primitive element whenever the field is small enough to cache them
(n <= 2**20); schoolbook polynomial arithmetic is kept as the fallback
and as the reference the tables are cross-checked against.
"""

from __future__ import annotations

from itertools import product

import numpy as np

_TABLE_LIMIT = 1 << 20


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
        self._log = None
        self._exp = None
        if self.n <= _TABLE_LIMIT:
            self._build_tables()
        self._np = None
        self._packed = None
        self._exp_ext = None

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
    def reduction(self):
        """X^(m+j) mod f for j in [0, m-1), as coefficient tuples low
        degree first: folds a degree-(2m-2) digit product back to m
        digits."""
        return tuple(self._red)

    @property
    def descriptor(self) -> str:
        return f"{self.p}^{self.m}/" + ",".join(str(c) for c in self.irreducible)

    # -- arithmetic -----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        out, x, y = 0, a, b
        for w in self._pw:
            out += ((x + y) % p) * w
            x //= p
            y //= p
        return out

    def sub(self, a: int, b: int) -> int:
        p = self.p
        out, x, y = 0, a, b
        for w in self._pw:
            out += ((x - y) % p) * w
            x //= p
            y //= p
        return out

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
        if self._log is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_schoolbook(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        if self._log is not None:
            return self._exp[self.n - 1 - self._log[a]]
        return self.pow(a, self.n - 2)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 1 if e == 0 else 0
        e %= self.n - 1
        if self._log is not None:
            return self._exp[(self._log[a] * e) % (self.n - 1)]
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

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
        self._exp = exp
        self._log = log

    def _pow_schoolbook(self, a: int, e: int) -> int:
        out, base = 1, a
        while e:
            if e & 1:
                out = self._mul_schoolbook(out, base)
            base = self._mul_schoolbook(base, base)
            e >>= 1
        return out

    # -- vectorized views -------------------------------------------------------

    @property
    def tables(self):
        """Numpy views used by the vectorized fast paths.

        Returns (exp, log, digits, weights): antilog of length 2(n-1),
        log with log[0] = 0 (callers must mask zeros), the n x m digit
        matrix and the length-m vector of powers of p.
        """
        if self._np is None:
            if self._log is None:
                raise ValueError("field too large for cached tables")
            n, m, p = self.n, self.m, self.p
            codes = np.arange(n, dtype=np.int64)
            digits = np.empty((n, m), dtype=np.int32)
            rem = codes.copy()
            for i in range(m):
                digits[:, i] = rem % p
                rem //= p
            self._np = (
                np.array(self._exp, dtype=np.int64),
                np.array(self._log, dtype=np.int64),
                digits,
                np.array(self._pw, dtype=np.int64),
            )
        return self._np

    def exp_extended(self, needed: int) -> np.ndarray:
        """Antilog table covering exponents [0, needed): avoids a modulo
        pass on large exponent arrays."""
        if self._exp_ext is None or len(self._exp_ext) < needed:
            q = self.n - 1
            reps = -(-max(needed, 2 * q) // q)
            base = np.array(self._exp[:q], dtype=np.int64)
            self._exp_ext = np.tile(base, reps)
        return self._exp_ext

    def sum_elements(self, arr: np.ndarray, axis: int) -> np.ndarray:
        """Sum field elements (codes) along an axis of an int array.

        Uses 21-bit packed digit lanes when m <= 3 and the lane sums
        cannot overflow; otherwise falls back to per-digit sums.
        """
        _, _, digits, weights = self.tables
        # the per-digit fallback appends a digit axis, so a negative axis
        # must be resolved against the input's own dimensions
        axis %= arr.ndim
        count = arr.shape[axis]
        if self.m <= 3 and count * (self.p - 1) < (1 << 21):
            if self._packed is None:
                lanes = np.zeros(self.n, dtype=np.int64)
                for i in range(self.m):
                    lanes += digits[:, i].astype(np.int64) << (21 * i)
                self._packed = lanes
            s = self._packed[arr].sum(axis=axis)
            out = np.zeros(s.shape, dtype=np.int64)
            for i in range(self.m):
                out += (((s >> (21 * i)) & 0x1FFFFF) % self.p) * self._pw[i]
            return out
        return (digits[arr].sum(axis=axis) % self.p) @ weights

    def vec_add(self, a, b):
        _, _, digits, w = self.tables
        return ((digits[a] + digits[b]) % self.p) @ w

    def vec_mul(self, a, b):
        exp, log, _, _ = self.tables
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = exp[log[a] + log[b]]
        return np.where((a == 0) | (b == 0), 0, out)

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


def parse_descriptor(text: str) -> Field:
    """Parse a field descriptor like ``2^3/1,1,0,1``."""
    head, _, tail = text.partition("/")
    ps, _, ms = head.partition("^")
    p, m = int(ps), int(ms)
    irr = tuple(int(c) for c in tail.split(",")) if tail else None
    return Field(p, m, irr)


# ---------------------------------------------------------------------------
# F^m points as matrices over H


def matrix_rep(ctx: Field, point):
    """Represent a point of F^m as an m x m matrix over GF(p).

    Row i is the coefficient vector of coordinate i, so the map is a
    bijection between F^m and the full matrix space.
    """
    if len(point) != ctx.m:
        raise ValueError("point must have m coordinates")
    return tuple(ctx.coeffs_of(c) for c in point)


def point_from_matrix(ctx: Field, rows):
    return tuple(ctx.code_of(row) for row in rows)
