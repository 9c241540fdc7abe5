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

import numpy as np

from .gf import Field

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


def line_points(ctx: Field, anchor, direction):
    """All n points of the line, position j = anchor + elem(j) * dir."""
    if is_zero(direction):
        raise ValueError("line direction must be nonzero")
    return [
        add_points(ctx, anchor, scale_point(ctx, j, direction)) for j in range(ctx.n)
    ]


def plane_point_at(ctx: Field, plane: PlaneRep, j: int, k: int):
    pt = add_points(ctx, plane.anchor, scale_point(ctx, j, plane.dir1))
    return add_points(ctx, pt, scale_point(ctx, k, plane.dir2))


def points_at(ctx: Field, anchor, dirs, params) -> np.ndarray:
    """Coordinates of anchor + sum of elem(t) * u over (u, t) in
    zip(dirs, params), vectorized: the numpy form of line_points and
    plane_point_at.  Anchor and direction coordinates and parameters
    are codes or code arrays that broadcast together; the result is a
    (len(anchor), *shape) code array.  Each coordinate's terms are
    summed in one field sum."""
    coords = []
    for i, a in enumerate(anchor):
        terms = [ctx.vec_mul(u[i], t) for u, t in zip(dirs, params)]
        terms = np.stack(np.broadcast_arrays(a, *terms))
        coords.append(ctx.sum_elements(terms, axis=0))
    return np.stack(np.broadcast_arrays(*coords))


def codes_of(ctx: Field, coords) -> np.ndarray:
    """Point codes of a sequence of coordinate arrays, the numpy form of
    point_code."""
    code = np.zeros((), dtype=np.int64)
    for c in reversed(coords):
        code = code * ctx.n + c
    return code


def plane_codes_at(ctx: Field, plane: PlaneRep, jj, kk) -> np.ndarray:
    """Point codes of plane grid positions (jj, kk), vectorized."""
    return codes_of(
        ctx, points_at(ctx, plane.anchor, (plane.dir1, plane.dir2), (jj, kk))
    )


def plane_points(ctx: Field, plane: PlaneRep):
    """All n^2 plane points in row-major (j, k) grid order."""
    rows = [
        add_points(ctx, plane.anchor, scale_point(ctx, j, plane.dir1))
        for j in range(ctx.n)
    ]
    cols = [scale_point(ctx, k, plane.dir2) for k in range(ctx.n)]
    return [add_points(ctx, r, c) for r in rows for c in cols]


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
