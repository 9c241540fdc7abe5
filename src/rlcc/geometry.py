"""Points, lines, and planes in F^m with canonical enumerations.

A point is a tuple of m integer element codes.  Its point code is
sum(code(coord_i) * n**i), i.e., lexicographic by per-coordinate code,
coordinate 0 least significant.  Lines and planes enumerate their points
by the element-code order of their parameters: position j of a line is
anchor + elem(j) * dir, and position (j, k) of a plane, row-major, is
anchor + elem(j) * dir1 + elem(k) * dir2.  Every restriction index in
the package uses this one grid order.

A plane whose both directions lie in the embedded H^m is an H-plane;
the flags recording that are carried on the representation because walk
planes after the first step have their first direction in F^m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        code //= ctx.n
    return tuple(out)


def add_points(ctx: Field, a, b):
    return tuple(ctx.add(x, y) for x, y in zip(a, b))


def sub_points(ctx: Field, a, b):
    return tuple(ctx.sub(x, y) for x, y in zip(a, b))


def scale_point(ctx: Field, t: int, a):
    return tuple(ctx.mul(t, x) for x in a)


def zero_point(ctx: Field):
    return (0,) * ctx.m


def is_zero(point) -> bool:
    return all(c == 0 for c in point)


def is_h_vector(ctx: Field, point) -> bool:
    """True when every coordinate lies in the embedded GF(p)."""
    return all(c < ctx.p for c in point)


def is_colinear(ctx: Field, base, other) -> bool:
    """Whether other lies in F * base; base must be nonzero."""
    if is_zero(base):
        raise ValueError("colinearity test needs a nonzero base vector")
    if is_zero(other):
        return True
    j = next(i for i, c in enumerate(base) if c)
    lam = ctx.mul(other[j], ctx.inv(base[j]))
    return all(ctx.mul(lam, base[i]) == other[i] for i in range(ctx.m))


def spans_plane(ctx: Field, u, v) -> bool:
    """Whether directions u and v are both nonzero and independent."""
    return not (is_zero(u) or is_zero(v) or is_colinear(ctx, u, v))


@dataclass(frozen=True)
class LineRep:
    anchor: Point
    direction: Point

    def validate(self, ctx: Field):
        if is_zero(self.direction):
            raise ValueError("line direction must be nonzero")
        return self


@dataclass(frozen=True)
class PlaneRep:
    anchor: Point
    dir1: Point
    dir2: Point
    h_flags: tuple = field(default=(False, False))

    @staticmethod
    def make(ctx: Field, anchor, dir1, dir2) -> "PlaneRep":
        if is_zero(dir1) or is_zero(dir2):
            raise ValueError("plane directions must be nonzero")
        if is_colinear(ctx, dir1, dir2):
            raise ValueError("plane directions must be independent")
        flags = (is_h_vector(ctx, dir1), is_h_vector(ctx, dir2))
        return PlaneRep(tuple(anchor), tuple(dir1), tuple(dir2), flags)

    @property
    def is_h_plane(self) -> bool:
        return self.h_flags[0] and self.h_flags[1]

    def anchor_line(self) -> LineRep:
        return LineRep(self.anchor, self.dir1)


def line_point_at(ctx: Field, line: LineRep, j: int):
    return add_points(ctx, line.anchor, scale_point(ctx, j, line.direction))


def line_points(ctx: Field, line: LineRep):
    """All n points of the line, position j = anchor + elem(j) * dir."""
    line.validate(ctx)
    return [line_point_at(ctx, line, j) for j in range(ctx.n)]


def plane_point_at(ctx: Field, plane: PlaneRep, j: int, k: int):
    pt = add_points(ctx, plane.anchor, scale_point(ctx, j, plane.dir1))
    return add_points(ctx, pt, scale_point(ctx, k, plane.dir2))


def plane_coords_at(ctx: Field, plane: PlaneRep, jj, kk) -> np.ndarray:
    """Coordinates of plane grid positions (jj, kk), vectorized: an
    (m, *jj.shape) code array, the numpy form of plane_point_at."""
    jj = np.asarray(jj, dtype=np.int64)
    kk = np.asarray(kk, dtype=np.int64)
    return np.stack(
        [
            ctx.vec_add(
                ctx.vec_add(a, ctx.vec_scale(u, jj)), ctx.vec_scale(v, kk)
            )
            for a, u, v in zip(plane.anchor, plane.dir1, plane.dir2)
        ]
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
    """Uniform nonzero vector of the embedded H^m (rejection-free)."""
    idx = rng.randrange(1, ctx.p**ctx.m)
    out = []
    for _ in range(ctx.m):
        out.append(idx % ctx.p)
        idx //= ctx.p
    return tuple(out)


def h_vector_index(ctx: Field, point) -> int:
    """Rank of an H^m vector inside [0, p^m), inverse of the sampler order."""
    idx = 0
    for c in reversed(point):
        if c >= ctx.p:
            raise ValueError("not an H^m vector")
        idx = idx * ctx.p + c
    return idx


def h_vector_from_index(ctx: Field, idx: int):
    out = []
    for _ in range(ctx.m):
        out.append(idx % ctx.p)
        idx //= ctx.p
    return tuple(out)


def normalize_direction(ctx: Field, direction):
    """Projective representative with first nonzero coordinate 1.

    Returns (normalized, lam) with direction = lam * normalized, so a
    caller can translate coordinates expressed against the original
    direction into the normalized frame.
    """
    if is_zero(direction):
        raise ValueError("cannot normalize the zero direction")
    lam = next(c for c in direction if c)
    inv = ctx.inv(lam)
    return tuple(ctx.mul(inv, c) for c in direction), lam


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


REGION_POINT = "point-proof"
REGION_LINE = "line-proof"


@dataclass(frozen=True)
class PlaneKey:
    """Canonical address of a plane predicate.

    Point-proof keys keep the raw sampled directions (the walk draws
    them directly from H^m, so every raw pair owns a block).  Line-proof
    keys carry dir1 normalized projectively, which deduplicates the
    Line(x, u) = Line(x, c*u) representations.
    """

    region: str
    anchor: Point
    dir1: Point
    dir2: Point


def canonical_plane_key(ctx: Field, plane: PlaneRep, region: str):
    """Key for a plane plus the scalar that rescaled dir1 (1 if untouched)."""
    if region == REGION_POINT:
        return PlaneKey(region, plane.anchor, plane.dir1, plane.dir2), 1
    if region == REGION_LINE:
        norm, lam = normalize_direction(ctx, plane.dir1)
        return PlaneKey(region, plane.anchor, norm, plane.dir2), lam
    raise ValueError(f"unknown proof region {region!r}")


def serialize_point(point) -> str:
    return ",".join(str(c) for c in point)


def serialize_plane(plane: PlaneRep) -> str:
    return "|".join(
        serialize_point(p) for p in (plane.anchor, plane.dir1, plane.dir2)
    )
