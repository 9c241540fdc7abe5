"""Points, lines, and planes in F^m with canonical enumerations.

A point is a tuple of m integer element codes.  Its point code is
sum(code(coord_i) * n**i), i.e., lexicographic by per-coordinate code,
coordinate 0 least significant.  Lines and planes enumerate their points
by the element-code order of their parameters: position j of a line is
anchor + elem(j) * dir, and position (j, k) of a plane, row-major, is
anchor + elem(j) * dir1 + elem(k) * dir2.  Every restriction index in
the package uses this one grid order.  A plane's anchor line, its grid
column k = 0, is the line anchor + elem(j) * dir1.  The vectorized maps
(points_at, plane_codes_at) add an anchor and two products in the
lanes of gf.LaneLayout, and so does plane_point_at, one point at a time
on Python ints (Field.scalar_tables); is_colinear works on logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import Field, LaneLayout, scratch

Point = tuple


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


def is_zero(point) -> bool:
    return not any(point)


def is_colinear(ctx: Field, base, other) -> bool:
    """Whether other lies in F * base; base must be nonzero: whether
    both have their zeros at the same coordinates and log o - log b is
    one value mod n - 1 over the others."""
    if is_zero(base):
        raise ValueError("colinearity test needs a nonzero base vector")
    if is_zero(other):
        return True
    log, order = ctx.scalar_tables[0], ctx.n - 1
    ratio = None
    for b, o in zip(base, other):
        if not (b and o):
            if b or o:
                return False
        elif ratio is None:
            ratio = (log[o] - log[b]) % order
        elif (log[o] - log[b]) % order != ratio:
            return False
    return True


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
    """anchor + elem(j) * dir1 + elem(k) * dir2.  Each coordinate is one
    lane sum of the anchor and the nonzero products, read back once."""
    log, _, put, prod, read = ctx.scalar_tables
    lj, lk = log[j], log[k]
    out = []
    for a, u, v in zip(plane.anchor, plane.dir1, plane.dir2):
        s = put[a]
        if j and u:
            s += prod[lj + log[u]]
        if k and v:
            s += prod[lk + log[v]]
        out.append(read[s])
    return tuple(out)


def points_at(ctx: Field, anchor, dirs, params) -> np.ndarray:
    """Coordinates of anchor + sum of elem(t) * u over (u, t) in
    zip(dirs, params), vectorized: the numpy form of plane_point_at.
    Anchor and direction coordinates and parameters are codes or code
    arrays that broadcast together; the result is a (len(anchor),
    *shape) code array.  Each coordinate is the lane sum of the anchor
    and at most two products, in a LaneLayout for sums of three
    elements, read back to codes once."""
    if len(dirs) > 2:
        raise ValueError("points_at adds at most two products to the anchor")
    lanes = LaneLayout(ctx, 3 * (ctx.p - 1))
    log, table = lanes.zero_ended(2)
    logs = [log[t] for t in params]
    coords = []
    for i, a in enumerate(anchor):
        s = np.take(table, log[a], axis=1)
        for u, lt in zip(dirs, logs):
            s = s + np.take(table, log[u[i]] + lt, axis=1, mode="clip")
        coords.append(lanes.codes(s))
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

    Coordinate c's lanes take place c of points_at's LaneLayout (at S1
    one int64 of three 17-bit fields).  The anchor (times elem(1)) and
    each scalar product fold into one packed constant; each direction u
    with an array parameter becomes a table of the packed lanes of
    elem(t) * u over t, the first one plus the constant.  A position
    costs a gather per table, then per coordinate a LaneLayout.codes
    read (at S1 a shift, a mask and one lookup)."""
    lanes = LaneLayout(ctx, 3 * (ctx.p - 1))
    # one word holds a sum of three elements of every field with log
    # tables; Field.tables' log (int64, as take wants its indices) is the
    # zero-ended one for sums of two logs
    lane_table = lanes.zero_ended(2)[1][0]
    _, log, _ = ctx.tables
    n, dim = ctx.n, len(plane.anchor)
    places = [lanes.place(c) for c in range(dim)]
    words = places[-1][0] + 1
    const, params = np.zeros((words, 1), dtype=np.int64), []
    for u, t in ((plane.anchor, 1), (plane.dir1, jj), (plane.dir2, kk)):
        if np.ndim(t):
            params.append((u, t))
            continue
        for (w, shift), e in zip(places, log[list(u)] + log[t]):
            const[w] += int(lane_table[min(e, len(lane_table) - 1)]) << shift
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
        for (w, shift), x in zip(places, u):
            if x:
                # widened by a copy: a casting ufunc allocates a buffer
                np.copyto(wide, lane_table[log[x] : log[x] + n - 1])
                wide <<= shift
                by_log[w] += wide
        table = scratch("plane_table", (words, n), np.int64)
        np.take(by_log, log, axis=1, mode="clip", out=table)
        table[:, :1] = base  # elem(0) * u = 0
        if np.shape(t) != shape:  # take copies this read-only view
            t = np.broadcast_to(t, shape)
        for w in range(words):
            np.take(table[w], t, mode="clip", out=part if i else acc[w])
            if i:
                acc[w] += part
    code = scratch("plane_codes", shape, np.int64)
    for c in reversed(range(dim)):
        lanes.codes(acc, c, out=part)
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
