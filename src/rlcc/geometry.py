"""Points, lines, and planes in F^m with canonical enumerations.

A point is a tuple of m integer element codes.  Its point code is
sum(code(coord_i) * n**i), i.e., lexicographic by per-coordinate code,
coordinate 0 least significant.  Lines and planes enumerate their points
by the element-code order of their parameters: position j of a line is
anchor + elem(j) * dir, and position (j, k) of a plane, row-major, is
anchor + elem(j) * dir1 + elem(k) * dir2.  Every restriction index in
the package uses this one grid order.  A plane's anchor line, its grid
column k = 0, is the line anchor + elem(j) * dir1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import Field, scratch

Point = tuple

# entries of one lane_tables reduce table (512 KB as int32)
_REDUCE_LIMIT = 1 << 17


def point_code(ctx: Field, point) -> int:
    code = 0
    for c in reversed(point):
        code = code * ctx.n + c
    return code


def point_from_code(ctx: Field, code: int):
    out = []
    for _ in range(ctx.m):
        out.append(code % ctx.n)
        # not in place, so a code array passed in is left as it was
        code = code // ctx.n
    return tuple(out)


def add_points(ctx: Field, a, b):
    return tuple(ctx.add(x, y) for x, y in zip(a, b))


def scale_point(ctx: Field, t: int, a):
    return tuple(ctx.mul(t, x) for x in a)


def is_zero(point) -> bool:
    return all(c == 0 for c in point)


def is_colinear(ctx: Field, base, other) -> bool:
    """Whether other lies in F * base; base must be nonzero."""
    if is_zero(base):
        raise ValueError("colinearity test needs a nonzero base vector")
    if is_zero(other):
        return True
    j = next(i for i, c in enumerate(base) if c)
    lam = ctx.mul(other[j], ctx.inv(base[j]))
    return all(ctx.mul(lam, b) == o for b, o in zip(base, other))


def spans_plane(ctx: Field, u, v) -> bool:
    """Whether directions u and v are both nonzero and independent."""
    return not (is_zero(u) or is_zero(v) or is_colinear(ctx, u, v))


@dataclass(frozen=True)
class PlaneRep:
    anchor: Point
    dir1: Point
    dir2: Point

    @staticmethod
    def make(ctx: Field, anchor, dir1, dir2) -> "PlaneRep":
        if is_zero(dir1) or is_zero(dir2):
            raise ValueError("plane directions must be nonzero")
        if is_colinear(ctx, dir1, dir2):
            raise ValueError("plane directions must be independent")
        return PlaneRep(tuple(anchor), tuple(dir1), tuple(dir2))


def plane_point_at(ctx: Field, plane: PlaneRep, j: int, k: int):
    pt = add_points(ctx, plane.anchor, scale_point(ctx, j, plane.dir1))
    return add_points(ctx, pt, scale_point(ctx, k, plane.dir2))


@lru_cache(maxsize=None)
def lane_tables(ctx: Field):
    """Integer tables that add up to three field elements without carries.

    A code's base-p digits are packed into mixed-radix lanes, digit i in
    lane i, with radix R = 3(p-1)+1: the lanes of an anchor and of two
    products then sum lane-wise, each lane below R.  Returns (log,
    lanes, reduce, group):

    - log: the log table with log(0) = 2(n-1)-1, past every sum of two
      nonzero logs;
    - lanes[e]: the lanes of antilog(e) for e < 2(n-1)-1, and 0 at the
      last entry, so lanes[log[a]] packs a, and a sum of two logs read
      with mode="clip" gives 0 when either factor is zero;
    - reduce[s]: the code of a value s of `group` lanes, each lane taken
      mod p.  The lanes split into equal groups of at most 2^17 reduce
      entries, so the table stays small however large m is.

    lanes is int32 when R^m fits, and R^m < 2^63 for every field with
    cached tables.
    """
    exp_t, log_t, digits, _ = ctx.tables
    n, m, p = ctx.n, ctx.m, ctx.p
    radix = 3 * (p - 1) + 1
    dtype = np.int32 if radix**m <= 1 << 31 else np.int64
    zero = 2 * (n - 1) - 1
    log = np.array(log_t, dtype=np.int32)
    log[0] = zero
    packed = np.zeros(n, dtype=dtype)
    for i in range(m):
        packed += digits[:, i] * dtype(radix**i)
    lanes = np.zeros(zero + 1, dtype=dtype)
    lanes[:zero] = packed[exp_t[:zero]]
    group = 1
    while group < m and radix ** (group + 1) <= _REDUCE_LIMIT:
        group += 1
    # the fewest groups, then lanes spread evenly over them
    group = -(-m // -(-m // group))
    # outer sums of length-R lane vectors: no temporary outgrows the table
    lane = np.arange(radix, dtype=np.int32) % p
    reduce = lane
    for i in range(1, group):
        reduce = (reduce + (lane * p**i)[:, None]).reshape(-1)
    return log, lanes, reduce, group


def _lane_codes(ctx: Field, s) -> np.ndarray:
    """Codes of lane sums s: one reduce lookup per group of lanes, the
    top group first."""
    _, _, reduce, group = lane_tables(ctx)
    lows = []
    for _ in range(-(-ctx.m // group) - 1):
        s, low = np.divmod(s, len(reduce))
        lows.append(low)
    code = reduce[s]
    for low in reversed(lows):
        code = code * ctx.p**group + reduce[low]
    return code


def points_at(ctx: Field, anchor, dirs, params) -> np.ndarray:
    """Coordinates of anchor + sum of elem(t) * u over (u, t) in
    zip(dirs, params), vectorized: the numpy form of plane_point_at.
    Anchor and direction coordinates and parameters are codes or code
    arrays that broadcast together; the result is a (len(anchor),
    *shape) code array.  Each coordinate is the lane sum
    of the anchor and at most two products, read from lane_tables and
    reduced to codes once."""
    if len(dirs) > 2:
        raise ValueError("points_at adds at most two products to the anchor")
    log, lanes, _, _ = lane_tables(ctx)
    logs = [log[t] for t in params]
    coords = []
    for i, a in enumerate(anchor):
        s = lanes[log[a]]
        for u, lt in zip(dirs, logs):
            s = s + np.take(lanes, log[u[i]] + lt, mode="clip")
        coords.append(_lane_codes(ctx, s))
    return np.stack(np.broadcast_arrays(*coords), dtype=np.int64)


# codes_of's int64 point codes are exact only below this
CODE_LIMIT = 1 << 63


def codes_of(ctx: Field, coords) -> np.ndarray:
    """Point codes of a sequence of coordinate arrays, the numpy form of
    point_code; they wrap once n^m reaches CODE_LIMIT."""
    code = np.zeros((), dtype=np.int64)
    for c in reversed(coords):
        code = code * ctx.n + c
    return code


def plane_codes_at(ctx: Field, plane: PlaneRep, jj, kk) -> np.ndarray:
    """Point codes of plane grid positions (jj, kk), vectorized; jj and
    kk are codes or code arrays that broadcast together.  The result is
    a scratch array, valid until the next call.

    Coordinate c's lanes take bit field c % per of int64 word c // per.
    The anchor (times elem(1)) and each scalar product fold into one
    packed constant; each direction u with an array parameter becomes a
    table of the packed lanes of elem(t) * u over t, the first one plus
    the constant.  A position costs a gather per table, then per
    coordinate a shift, a mask and a reduce lookup."""
    log, lanes, reduce, group = lane_tables(ctx)
    _, log0, _, _ = ctx.tables  # log 0 = 0, not past every sum
    n, dim = ctx.n, len(plane.anchor)
    width = ((3 * (ctx.p - 1) + 1) ** ctx.m - 1).bit_length()
    per = 63 // width
    words = -(-dim // per)
    const, params = np.zeros((words, 1), dtype=np.int64), []
    for u, t in ((plane.anchor, 1), (plane.dir1, jj), (plane.dir2, kk)):
        if np.ndim(t):
            params.append((u, t))
            continue
        for c, e in enumerate(log[list(u)] + log[t]):
            const[c // per] += int(lanes[min(e, len(lanes) - 1)]) << width * (c % per)
    shape = np.broadcast_shapes(*(np.shape(t) for _, t in params))
    acc = scratch("plane_words", (words, *shape), np.int64)
    part = scratch("plane_part", shape, np.int64)
    if not params:
        acc[:] = const[:, 0]
    for i, (u, t) in enumerate(params):
        # by log t first, where coordinate c's lanes are a window of lanes
        base = const if i == 0 else 0
        by_log = scratch("plane_by_log", (words, n - 1), np.int64)
        by_log[:] = base
        wide = scratch("plane_wide", (n - 1,), np.int64)
        for c, x in enumerate(u):
            if x:
                # widened by a copy: a casting ufunc allocates a buffer
                np.copyto(wide, lanes[log0[x] : log0[x] + n - 1])
                wide <<= width * (c % per)
                by_log[c // per] += wide
        table = scratch("plane_table", (words, n), np.int64)
        np.take(by_log, log0, axis=1, mode="clip", out=table)
        table[:, :1] = base  # elem(0) * u = 0
        if np.shape(t) != shape:  # take copies this read-only view
            t = np.broadcast_to(t, shape)
        for w in range(words):
            np.take(table[w], t, mode="clip", out=part if i else acc[w])
            if i:
                acc[w] += part
    code = scratch("plane_codes", shape, np.int64)
    digit = scratch("plane_digit", shape, reduce.dtype)
    for c in reversed(range(dim)):
        np.right_shift(acc[c // per], width * (c % per), out=part)
        part &= (1 << width) - 1
        if group == ctx.m:
            np.take(reduce, part, mode="clip", out=digit)
            np.copyto(part, digit)
        else:
            part[...] = _lane_codes(ctx, part)
        if c == dim - 1:
            code[...] = part
        else:
            code *= n
            code += part
    return code


def sample_point(ctx: Field, rng):
    return tuple(rng.randrange(ctx.n) for _ in range(ctx.m))


def sample_h_direction(ctx: Field, rng):
    """Uniform nonzero vector of the embedded H^m (rejection-free): the
    coefficients of a uniform nonzero element code of F."""
    return ctx.coeffs_of(rng.randrange(1, ctx.p**ctx.m))


def normalize_direction(ctx: Field, direction):
    """Projective representative with first nonzero coordinate 1."""
    if is_zero(direction):
        raise ValueError("cannot normalize the zero direction")
    inv = ctx.inv(next(c for c in direction if c))
    return tuple(ctx.mul(inv, c) for c in direction)


# number of projective representatives: (n^m - 1) / (n - 1)
def projective_count(ctx: Field) -> int:
    return (ctx.n**ctx.m - 1) // (ctx.n - 1)


def projective_rank(ctx: Field, normalized) -> int:
    """Index of a normalized direction in the canonical enumeration.

    Representatives are grouped by the position of their leading 1
    (lowest coordinate index first); within a group the free upper
    coordinates count lexicographically.  O(m), no table needed.
    """
    j = next(i for i, c in enumerate(normalized) if c)
    if normalized[j] != 1:
        raise ValueError("direction is not normalized")
    base = sum(ctx.n ** (ctx.m - 1 - jj) for jj in range(j))
    suffix = 0
    for c in reversed(normalized[j + 1 :]):
        suffix = suffix * ctx.n + c
    return base + suffix


def projective_unrank(ctx: Field, rank: int):
    j = 0
    while rank >= ctx.n ** (ctx.m - 1 - j):
        rank -= ctx.n ** (ctx.m - 1 - j)
        j += 1
    coords = [0] * j + [1]
    for _ in range(ctx.m - j - 1):
        coords.append(rank % ctx.n)
        rank //= ctx.n
    return tuple(coords)
