"""Scalar references the tests check the package's vector paths against.

Nothing in the package calls these: they enumerate points one field
operation at a time, map points to matrices over H and decide walk
predicates by brute force, so they only suit tiny fields.
"""

import numpy as np

from rlcc.ctrw import PredicateBound, RobustVerdict
from rlcc.geometry import add_points, is_zero, plane_point_at, point_code, scale_point
from rlcc.rm import (
    ENUM_BUDGET,
    dist_weighted,
    enumerate_codewords,
    evaluate,
    interpolate_lattice,
    monomial_basis,
)


def line_points(ctx, anchor, direction):
    """All n points of the line, position j = anchor + elem(j) * dir."""
    if is_zero(direction):
        raise ValueError("line direction must be nonzero")
    return [
        add_points(ctx, anchor, scale_point(ctx, j, direction)) for j in range(ctx.n)
    ]


def plane_points(ctx, plane):
    """All n^2 plane points in row-major (j, k) grid order."""
    rows = [
        add_points(ctx, plane.anchor, scale_point(ctx, j, plane.dir1))
        for j in range(ctx.n)
    ]
    cols = [scale_point(ctx, k, plane.dir2) for k in range(ctx.n)]
    return [add_points(ctx, r, c) for r in rows for c in cols]


def matrix_rep(ctx, point):
    """Represent a point of F^m as an m x m matrix over GF(p).

    Row i is the coefficient vector of coordinate i, so the map is a
    bijection between F^m and the full matrix space.
    """
    if len(point) != ctx.m:
        raise ValueError("point must have m coordinates")
    return tuple(ctx.coeffs_of(c) for c in point)


def point_from_matrix(ctx, rows):
    return tuple(ctx.code_of(row) for row in rows)


def exact_predicate_distance(params2d, values, a_indices):
    """Weighted distance from values to the nearest bivariate codeword."""
    best = None
    for _, table in enumerate_codewords(params2d):
        dist = dist_weighted(values, table, a_indices)
        if best is None or dist < best:
            best = dist
    return best


def violation_check_exact(params, word, transcript, alpha):
    """Brute-force verdict on a materialized word; needs the 2-D
    enumeration budget."""
    params2d = params.bivariate()
    if params.ctx.n ** params2d.k > ENUM_BUDGET:
        raise ValueError("2-D enumeration budget exceeded; use the planted path")
    ctx, n = params.ctx, params.ctx.n
    bounds = []
    witness = None
    for i, plane in enumerate(transcript.planes):
        values = [int(word[point_code(ctx, pt)]) for pt in plane_points(ctx, plane)]
        a_idx = [0] if i == 0 else [t * n for t in range(n)]
        d = exact_predicate_distance(params2d, values, a_idx)
        bounds.append(PredicateBound(i, d, d, True))
        if witness is None and d >= alpha:
            witness = i
    return RobustVerdict(witness is not None, witness, bounds)


def restriction(params, coeffs, plane):
    """Triangle (a tuple) of a polynomial's restriction to a plane: scalar
    rm.evaluate at the k_2 plane points (e_a, e_b), a + b <= d, then
    interpolate_lattice on that lattice."""
    ctx = params.ctx
    coeffs = np.array(coeffs, dtype=np.int64)
    values = [
        evaluate(params, coeffs, plane_point_at(ctx, plane, a, b))
        for a, b in monomial_basis(2, params.d)
    ]
    return tuple(interpolate_lattice(params.bivariate(), np.array(values)).tolist())
