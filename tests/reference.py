"""Scalar references the tests check the package against.

Nothing in the package calls these.  Field arithmetic here works on
digit vectors (coeffs_of / code_of): sums digit by digit mod p, products
as polynomials reduced mod the field's irreducible polynomial, so it
shares no table with gf.  Points, lines and planes are built from that
arithmetic one coordinate at a time; points map to matrices over H, walk
predicates are decided by brute force, and words are compared by exact
distances to every codeword, so most of these only suit tiny fields.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from rlcc.ctrw import PredicateBound, RobustVerdict
from rlcc.geometry import is_zero, plane_point_at, point_code
from rlcc.pcpp import build_proof
from rlcc.rm import (
    ENUM_BUDGET,
    LINE_KIND,
    POINT_KIND,
    eval_table,
    evaluate,
    interpolate_lattice,
    is_low_degree_on_plane,
    monomial_basis,
)


# ---------------------------------------------------------------------------
# Field and point arithmetic from digit vectors


def add_ref(ctx, a, b):
    return ctx.code_of([(x + y) % ctx.p for x, y in zip(ctx.coeffs_of(a), ctx.coeffs_of(b))])


def sub_ref(ctx, a, b):
    return ctx.code_of([(x - y) % ctx.p for x, y in zip(ctx.coeffs_of(a), ctx.coeffs_of(b))])


def mul_ref(ctx, a, b):
    """The product of the digit vectors as polynomials over GF(p), with
    each term of degree >= m cancelled by a multiple of the monic
    irreducible polynomial, top degree first."""
    p, m = ctx.p, ctx.m
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(ctx.coeffs_of(a)):
        for j, y in enumerate(ctx.coeffs_of(b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * m - 2, m - 1, -1):
        lead = prod[top]
        for i, c in enumerate(ctx.irreducible):
            prod[top - m + i] = (prod[top - m + i] - lead * c) % p
    return ctx.code_of(prod[:m])


def pow_ref(ctx, a, e):
    """a^e by square and multiply over mul_ref, e >= 0."""
    out = 1
    while e:
        if e & 1:
            out = mul_ref(ctx, out, a)
        a = mul_ref(ctx, a, a)
        e >>= 1
    return out


def add_points_ref(ctx, a, b):
    return tuple(add_ref(ctx, x, y) for x, y in zip(a, b))


def scale_point_ref(ctx, t, a):
    return tuple(mul_ref(ctx, t, x) for x in a)


def plane_point_ref(ctx, plane, j, k):
    """anchor + elem(j) * dir1 + elem(k) * dir2."""
    pt = add_points_ref(ctx, plane.anchor, scale_point_ref(ctx, j, plane.dir1))
    return add_points_ref(ctx, pt, scale_point_ref(ctx, k, plane.dir2))


def colinear_ref(ctx, base, other):
    """Whether other lies in F * base (base nonzero): whether every 2 x 2
    minor b_i o_j - b_j o_i of the two rows vanishes."""
    if is_zero(base):
        raise ValueError("colinearity test needs a nonzero base vector")
    return all(
        sub_ref(ctx, mul_ref(ctx, base[i], other[j]), mul_ref(ctx, base[j], other[i])) == 0
        for i in range(len(base))
        for j in range(i)
    )


def line_points(ctx, anchor, direction):
    """All n points of the line, position j = anchor + elem(j) * dir."""
    if is_zero(direction):
        raise ValueError("line direction must be nonzero")
    return [
        add_points_ref(ctx, anchor, scale_point_ref(ctx, j, direction))
        for j in range(ctx.n)
    ]


def plane_points(ctx, plane):
    """All n^2 plane points in row-major (j, k) grid order."""
    rows = [
        add_points_ref(ctx, plane.anchor, scale_point_ref(ctx, j, plane.dir1))
        for j in range(ctx.n)
    ]
    cols = [scale_point_ref(ctx, k, plane.dir2) for k in range(ctx.n)]
    return [add_points_ref(ctx, r, c) for r in rows for c in cols]


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


# ---------------------------------------------------------------------------
# Distances


def dist_plain(x, y):
    if len(x) != len(y):
        raise ValueError("words must have equal length")
    diff = sum(1 for a, b in zip(x, y) if a != b)
    return Fraction(diff, len(x))


def dist_weighted(x, y, a_set):
    """Half the disagreement rate inside A plus half the global rate."""
    if len(x) != len(y):
        raise ValueError("words must have equal length")
    idx = sorted(set(a_set))
    if not idx:
        raise ValueError("weighted distance needs a nonempty index set")
    in_a = sum(1 for i in idx if x[i] != y[i])
    total = sum(1 for a, b in zip(x, y) if a != b)
    return Fraction(in_a, 2 * len(idx)) + Fraction(total, 2 * len(x))


# ---------------------------------------------------------------------------
# Augmented words: plane word followed by n^2 repeated symbols


class AugmentedWord:
    """Virtual view w|P followed by repetitions of w(x) or of w on a line.

    Base positions [0, n^2) are the plane grid; tail positions resolve
    to base positions, so no symbols are copied.  Point kind repeats the
    value at grid position (jx, kx); line kind repeats the anchor-line
    column (t, 0), n copies of n values.
    """

    def __init__(self, n, base_read, kind, selector=(0, 0)):
        if kind not in (POINT_KIND, LINE_KIND):
            raise ValueError(f"unknown augmentation kind {kind!r}")
        self.n = n
        self.kind = kind
        self._read = base_read
        if kind == POINT_KIND:
            jx, kx = selector
            if not (0 <= jx < n and 0 <= kx < n):
                raise ValueError("selector point outside the plane grid")
            self.selector = (jx, kx)
        else:
            self.selector = None

    @property
    def length(self):
        return 2 * self.n * self.n

    def resolve(self, i):
        """Map any coordinate to the base-grid coordinate that backs it."""
        nn = self.n * self.n
        if not 0 <= i < 2 * nn:
            raise IndexError("augmented coordinate out of range")
        if i < nn:
            return i
        if self.kind == POINT_KIND:
            jx, kx = self.selector
            return jx * self.n + kx
        t = (i - nn) % self.n
        return t * self.n + 0

    def read(self, i):
        return self._read(self.resolve(i))

    def materialize(self):
        return [self.read(i) for i in range(self.length)]


def augment(ctx, values, kind, selector=(0, 0)):
    """Wrap an n^2 plane word (sequence) into its augmented view."""
    n = ctx.n
    if len(values) != n * n:
        raise ValueError("plane word must have n^2 symbols")
    return AugmentedWord(n, lambda i: values[i], kind, selector)


# ---------------------------------------------------------------------------
# Brute-force oracles (independent of the interpolation path)


def enumerate_codewords(params2d):
    """Yield (coeffs, table) over every bivariate codeword; budget-guarded."""
    count = params2d.ctx.n**params2d.k
    if count > ENUM_BUDGET or count * params2d.length > 10 * ENUM_BUDGET:
        raise ValueError("codeword enumeration exceeds the budget")
    for coeffs in product(range(params2d.ctx.n), repeat=params2d.k):
        yield coeffs, eval_table(params2d, coeffs)


def nearest_codeword_bruteforce(params2d, values):
    """Exact nearest bivariate codeword under the plain metric.

    Returns (coeffs, distance).  The minimizer with the smallest
    coefficient tuple breaks ties, which keeps the result deterministic.
    """
    best = None
    values = list(values)
    for coeffs, table in enumerate_codewords(params2d):
        dist = dist_plain(values, table)
        if best is None or dist < best[1]:
            best = (coeffs, dist)
    return best


def nearest_augmented_bruteforce(params2d, aug):
    """Exact plain-metric distance to the augmented language RM^(sel)."""
    word = aug.materialize()
    best = None
    for coeffs, table in enumerate_codewords(params2d):
        cand = AugmentedWord(
            params2d.ctx.n, lambda i, t=table: t[i], aug.kind,
            aug.selector if aug.kind == POINT_KIND else (0, 0),
        )
        dist = dist_plain(word, cand.materialize())
        if best is None or dist < best[1]:
            best = (coeffs, dist)
    return best


# ---------------------------------------------------------------------------
# Canonical proofs (the composed oracle builds its proofs from restrictions)


def canonical_proof(params2d, pcpp, member):
    """Canonical proof of a language member: R copies of its coefficients.

    Interpolates the base word and verifies membership exactly (every
    base point and every tail coordinate), so feeding a non-member
    raises.  The composed-code oracle builds proofs straight from the
    restriction of its polynomial instead, where membership holds by
    construction.
    """
    n = params2d.ctx.n
    base = [member.read(i) for i in range(n * n)]
    ok, tri = is_low_degree_on_plane(params2d, base)
    if not ok:
        raise ValueError("base word is not a low-degree evaluation")
    for i in range(n * n, 2 * n * n):
        if member.read(i) != base[member.resolve(i)]:
            raise ValueError("tail is inconsistent with the base word")
    return build_proof(params2d, pcpp, tri)


# ---------------------------------------------------------------------------
# Walk predicates and restrictions


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
    interpolate_lattice on that lattice.  The points come from
    geometry.plane_point_at, which the tests check against
    plane_point_ref, as that is slow over the 5,151 lattice points at
    d = 100."""
    ctx = params.ctx
    coeffs = np.array(coeffs, dtype=np.int64)
    values = [
        evaluate(params, coeffs, plane_point_at(ctx, plane, a, b))
        for a, b in monomial_basis(2, params.d)
    ]
    return tuple(interpolate_lattice(params.bivariate(), np.array(values)).tolist())
