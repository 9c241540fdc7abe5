"""The code RM_F(dim, d): evaluations of total-degree-<=d polynomials.

Codewords are evaluation tables over F^dim in canonical point order.
Coefficient vectors are ordered by graded-lexicographic monomial order
on exponent tuples (degree first, then plain tuple comparison), and the
message-to-coefficient map is the identity.  Distances are exact
rationals throughout; thresholds like rho/8 are compared exactly.

Interpolation always uses the first d+1 field elements in code order as
nodes, one fixed inverse operator per (field, d).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

import numpy as np

from .gf import _TABLE_LIMIT, Field
from .geometry import PlaneRep, plane_coords_at

ENUM_BUDGET = 10**7


@lru_cache(maxsize=None)
def monomial_basis(dim: int, d: int):
    """Exponent tuples of total degree <= d in graded-lex order."""
    if dim < 1 or d < 0:
        raise ValueError("need dim >= 1 and d >= 0")
    tuples = [t for t in product(range(d + 1), repeat=dim) if sum(t) <= d]
    tuples.sort(key=lambda t: (sum(t), t))
    return tuple(tuples)


@dataclass(frozen=True)
class RmParams:
    """Parameters of RM_F(dim, d); dim is 2 for plane-local languages."""

    ctx: Field
    dim: int
    d: int

    def __post_init__(self):
        if not 0 <= self.d < self.ctx.n:
            raise ValueError("degree must satisfy 0 <= d < |F|")

    @property
    def k(self) -> int:
        return comb(self.d + self.dim, self.dim)

    @property
    def rho(self) -> Fraction:
        return 1 - Fraction(self.d, self.ctx.n)

    @property
    def basis(self):
        return monomial_basis(self.dim, self.d)

    def bivariate(self) -> "RmParams":
        return RmParams(self.ctx, 2, self.d)

    @property
    def length(self) -> int:
        return self.ctx.n**self.dim


def encode(params: RmParams, message):
    """Message -> coefficient vector (identity onto graded-lex coefficients)."""
    if len(message) != params.k:
        raise ValueError(f"message length must be {params.k}")
    if any(not 0 <= c < params.ctx.n for c in message):
        raise ValueError("message symbol out of range")
    return tuple(message)


# from this degree on, the log-domain monomial sum beats the per-monomial loop
_BULK_DEGREE = 8


def evaluate(params: RmParams, coeffs, point) -> int:
    """Value of the polynomial at one point of F^dim.

    Low degrees, and fields too large for log tables, use the
    per-monomial loop; higher degrees sum every monomial at once in the
    log domain.
    """
    ctx = params.ctx
    if params.d >= _BULK_DEGREE and ctx.n <= _TABLE_LIMIT:
        column = np.asarray(point, dtype=np.int64).reshape(-1, 1)
        return int(_monomial_sum(params, coeffs, column)[0])
    acc = 0
    for c, exps in zip(coeffs, params.basis):
        if c == 0:
            continue
        term = c
        for x, e in zip(point, exps):
            if e:
                term = ctx.mul(term, ctx.pow(x, e))
                if term == 0:
                    break
        acc = ctx.add(acc, term)
    return acc


@lru_cache(maxsize=64)
def _exponent_matrix(dim: int, d: int):
    return np.array(monomial_basis(dim, d), dtype=np.int64)


def _monomial_sum(params: RmParams, coeffs, coords) -> np.ndarray:
    """Log-domain evaluation term by term: each live monomial's value is
    exp[E @ logs] with zero coordinates masked out, then the terms are
    summed digit-wise mod p."""
    ctx = params.ctx
    _, log_t, _, _ = ctx.tables
    npts = coords.shape[1]
    E = _exponent_matrix(params.dim, params.d)
    cvec = np.asarray(coeffs, dtype=np.int64)
    live = np.flatnonzero(cvec)
    if live.size == 0:
        return np.zeros(npts, dtype=np.int64)
    El = E[live]
    logs = log_t[coords]
    sums = El @ logs + log_t[cvec[live]][:, None]
    vals = ctx.exp_extended(params.dim * params.d * (ctx.n - 2) + ctx.n)[sums]
    zcols = np.flatnonzero((coords == 0).any(axis=0))
    if zcols.size:
        # a zero coordinate kills every monomial with a positive exponent there
        killed = (El > 0) @ (coords[:, zcols] == 0)
        vals[np.ix_(np.arange(live.size), zcols)] *= ~killed
    return ctx.sum_elements(vals, axis=0)


@lru_cache(maxsize=64)
def _horner_layout(dim: int, d: int):
    """Where each graded-lex coefficient sits in the (d+1) x rest matrix
    of evaluate_many: (rows = last-coordinate exponents, columns = index
    of the other coordinates' monomial), plus those monomials' exponents."""
    rest = monomial_basis(dim - 1, d)
    col = {t: i for i, t in enumerate(rest)}
    basis = monomial_basis(dim, d)
    rows = np.array([t[-1] for t in basis], dtype=np.int64)
    cols = np.array([col[t[:-1]] for t in basis], dtype=np.int64)
    return rows, cols, np.array(rest, dtype=np.int64)


def evaluate_many(params: RmParams, coeffs, coords) -> np.ndarray:
    """Evaluate at many points at once; coords is a dim x NP code array.

    Horner form on the last coordinate: one fmatmul of the (d+1) x rest
    coefficient matrix (row = last-coordinate exponent) with the table
    of the other coordinates' monomials at every point, then the sum of
    those rows times the powers of the last coordinate.  When there are
    too few other monomials for fmatmul's digit-plane path, the (d+1)
    times larger Horner product loses to summing every monomial
    directly, which is what runs then.  Cross-checked against a
    brute-force evaluator in the tests.
    """
    ctx = params.ctx
    d = params.d
    coords = np.asarray(coords, dtype=np.int64)
    # monomials of degree <= d in the other dim - 1 coordinates
    if comb(d + params.dim - 1, d) < _DIGIT_INNER:
        return _monomial_sum(params, coeffs, coords)
    rows, cols, rest = _horner_layout(params.dim, d)
    _, log_t, _, _ = ctx.tables
    exp_t = ctx.exp_extended((d + 1) * (ctx.n - 1))
    cmat = np.zeros((d + 1, len(rest)), dtype=np.int64)
    cmat[rows, cols] = np.asarray(coeffs, dtype=np.int64)
    head, last = coords[:-1], coords[-1]
    table = exp_t[rest @ log_t[head]]
    zcols = np.flatnonzero((head == 0).any(axis=0))
    if zcols.size:
        # a zero coordinate kills every monomial with a positive exponent there
        killed = (rest > 0).astype(np.int64) @ (head[:, zcols] == 0)
        table[:, zcols] *= killed == 0
    partial = fmatmul(ctx, cmat, table)
    # partial[e] * last^e, summed over e; a zero last coordinate keeps e = 0
    expo = np.arange(d + 1, dtype=np.int64)[:, None]
    vals = exp_t[log_t[partial] + expo * log_t[last]]
    vals[(partial == 0) | ((last == 0) & (expo > 0))] = 0
    return ctx.sum_elements(vals, axis=0)


def eval_table(params: RmParams, coeffs):
    """Full evaluation table in canonical point order (guarded by budget)."""
    if params.length > ENUM_BUDGET:
        raise ValueError("evaluation table exceeds the enumeration budget")
    n = params.ctx.n
    grids = np.meshgrid(
        *[np.arange(n, dtype=np.int64)] * params.dim, indexing="ij"
    )
    # canonical point code is sum(coord_i * n**i): coordinate 0 varies fastest
    coords = np.stack([g.reshape(-1) for g in grids])
    order = sum(coords[i] * n**i for i in range(params.dim))
    out = np.empty(params.length, dtype=np.int64)
    out[order] = evaluate_many(params, coeffs, coords)
    return out


def grid_table(params2d: RmParams, coeffs):
    """Bivariate evaluation in plane-grid order: index j*n + k holds Q(j, k).

    Note this differs from eval_table's point-code order, where the
    first coordinate varies fastest.
    """
    n = params2d.ctx.n
    idx = np.arange(n * n, dtype=np.int64)
    return evaluate_many(params2d, coeffs, np.stack([idx // n, idx % n]))


# ---------------------------------------------------------------------------
# Interpolation on the fixed (d+1)-node axis grid


@lru_cache(maxsize=None)
def _inverse_vandermonde(ctx: Field, d: int):
    """Inverse of V[i][j] = node_i^j over the first d+1 elements."""
    if d + 1 > ctx.n:
        raise ValueError("not enough interpolation nodes: d + 1 > |F|")
    size = d + 1
    a = [[ctx.pow(i, j) for j in range(size)] for i in range(size)]
    inv = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for col in range(size):
        piv = next(r for r in range(col, size) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        s = ctx.inv(a[col][col])
        a[col] = [ctx.mul(s, v) for v in a[col]]
        inv[col] = [ctx.mul(s, v) for v in inv[col]]
        for r in range(size):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [ctx.sub(v, ctx.mul(f, w)) for v, w in zip(a[r], a[col])]
                inv[r] = [
                    ctx.sub(v, ctx.mul(f, w)) for v, w in zip(inv[r], inv[col])
                ]
    return np.array(inv, dtype=np.int64)


# from this inner dimension on, fmatmul multiplies base-p digit planes
# through BLAS; below it the log-domain broadcast is faster
_DIGIT_INNER = 16


def fmatmul(ctx: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over F of integer-code matrices; like ``a @ b``, it
    broadcasts over leading batch axes."""
    if a.shape[-1] >= _DIGIT_INNER:
        return _fmatmul_digits(ctx, a, b)
    exp_t, log_t, _, _ = ctx.tables
    a = a[..., :, :, None]
    b = b[..., None, :, :]
    # the antilog table spans 2(n-1) entries, so summed logs need no modulo
    prod = exp_t[log_t[a] + log_t[b]]
    prod[(a == 0) | (b == 0)] = 0
    return ctx.sum_elements(prod, axis=-2)


def _fmatmul_digits(ctx: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """fmatmul through the m^2 float64 products of the operands' base-p
    digit matrices, then the digit polynomial reduced by the irreducible.

    Exact: each product entry is an integer below inner * m * (p-1)^2.
    """
    _, _, digits, weights = ctx.tables
    m, p = ctx.m, ctx.p
    rows, inner = a.shape[-2:]
    assert inner * m * (p - 1) ** 2 < 2**53, "digit products would not be exact"
    planes = digits.T.astype(np.float64)
    # digit i of a stacked row-wise, so one product per digit of b gives
    # the blocks (i, j) for every i
    da = np.concatenate([plane[a] for plane in planes], axis=-2)
    conv = [0.0] * (2 * m - 1)
    for j, plane in enumerate(planes):
        prod = da @ plane[b]
        for i in range(m):
            conv[i + j] = conv[i + j] + prod[..., i * rows : (i + 1) * rows, :]
    conv = [c.astype(np.int64) % p for c in conv]
    out = 0
    for lo in range(m):
        digit = conv[lo] + sum(
            conv[m + t] * red[lo] for t, red in enumerate(ctx.reduction) if red[lo]
        )
        out = out + digit % p * weights[lo]
    return out


def interpolate_grid(params2d: RmParams, grids: np.ndarray) -> np.ndarray:
    """(..., d+1, d+1) subgrid values -> coefficient grids c[..., a, b].

    c[a][b] multiplies t^a s^b where t indexes rows (dir1 axis).
    """
    ctx = params2d.ctx
    minv = _inverse_vandermonde(ctx, params2d.d)
    return fmatmul(ctx, fmatmul(ctx, minv, grids), minv.T)


def coeff_grid_to_triangle(params2d: RmParams, cgrids: np.ndarray):
    """(..., d+1, d+1) coefficient grids -> (..., k) graded-lex triangle
    vectors, and a (...) mask that is False where a grid has mass off
    the degree triangle."""
    size = params2d.d + 1
    rows, cols = np.indices((size, size))
    inside = ~cgrids[..., rows + cols > params2d.d].any(axis=-1)
    a, b = np.array(params2d.basis, dtype=np.int64).T
    return cgrids[..., a, b], inside


def restriction_triangles(params2d: RmParams, grids: np.ndarray) -> np.ndarray:
    """Triangle vectors of plane restrictions of a low-degree polynomial,
    from their (..., d+1, d+1) subgrid values."""
    tris, inside = coeff_grid_to_triangle(params2d, interpolate_grid(params2d, grids))
    assert inside.all(), "restriction of a low-degree polynomial must be low-degree"
    return tris


def restrict_to_plane(params: RmParams, coeffs, plane: PlaneRep):
    """Bivariate triangle vector of the restriction to a rank-2 plane.

    Evaluates on the (d+1)x(d+1) plane-local subgrid, then applies the
    precomputed inverse interpolation along both axes.
    """
    d = params.d
    if d + 1 > params.ctx.n:
        raise ValueError("not enough interpolation nodes: d + 1 > |F|")
    size = d + 1
    jj, kk = np.divmod(np.arange(size * size, dtype=np.int64), size)
    coords = plane_coords_at(params.ctx, plane, jj, kk)
    vals = evaluate_many(params, coeffs, coords).reshape(size, size)
    return tuple(restriction_triangles(params.bivariate(), vals).tolist())


def is_low_degree_on_plane(params2d: RmParams, values, mode="exact", rng=None):
    """Membership of an n^2 plane word in the bivariate code.

    Exact mode fits the subgrid, rejects off-triangle coefficients, and
    verifies all n^2 points.  Sampled mode ("sampled", q) verifies q
    uniform points instead: one-sided, may wrongly accept.
    Returns (ok, triangle-or-None).
    """
    ctx = params2d.ctx
    n, d = ctx.n, params2d.d
    values = np.asarray(values, dtype=np.int64)
    if values.shape != (n * n,):
        raise ValueError("plane word must have n^2 symbols in grid order")
    grid = values.reshape(n, n)[: d + 1, : d + 1]
    tri, inside = coeff_grid_to_triangle(params2d, interpolate_grid(params2d, grid))
    if not inside:
        return False, None
    tri = tuple(tri.tolist())
    if mode == "exact":
        jj, kk = np.divmod(np.arange(n * n, dtype=np.int64), n)
        expect = evaluate_many(params2d, tri, np.stack([jj, kk]))
        ok = bool(np.array_equal(expect, values))
    else:
        tag, q = mode
        if tag != "sampled":
            raise ValueError(f"unknown mode {mode!r}")
        ok = True
        for _ in range(q):
            j, k = rng.randrange(n), rng.randrange(n)
            if evaluate(params2d, tri, (j, k)) != values[j * n + k]:
                ok = False
                break
    return (ok, tri if ok else None)


# ---------------------------------------------------------------------------
# Distances


def dist_plain(x, y) -> Fraction:
    if len(x) != len(y):
        raise ValueError("words must have equal length")
    diff = sum(1 for a, b in zip(x, y) if a != b)
    return Fraction(diff, len(x))


def dist_weighted(x, y, a_set) -> Fraction:
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


POINT_KIND = "point"
LINE_KIND = "line"


class AugmentedWord:
    """Virtual view w|P followed by repetitions of w(x) or of w on a line.

    Base positions [0, n^2) are the plane grid; tail positions resolve
    to base positions, so no symbols are copied.  Point kind repeats the
    value at grid position (jx, kx); line kind repeats the anchor-line
    column (t, 0), n copies of n values.
    """

    def __init__(self, n: int, base_read, kind: str, selector=(0, 0)):
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
    def length(self) -> int:
        return 2 * self.n * self.n

    def resolve(self, i: int) -> int:
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

    def read(self, i: int) -> int:
        return self._read(self.resolve(i))

    def materialize(self):
        return [self.read(i) for i in range(self.length)]


def augment(ctx: Field, values, kind: str, selector=(0, 0)) -> AugmentedWord:
    """Wrap an n^2 plane word (sequence) into its augmented view."""
    n = ctx.n
    if len(values) != n * n:
        raise ValueError("plane word must have n^2 symbols")
    return AugmentedWord(n, lambda i: values[i], kind, selector)


# ---------------------------------------------------------------------------
# Brute-force oracles (independent of the interpolation path)


def enumerate_codewords(params2d: RmParams):
    """Yield (coeffs, table) over every bivariate codeword; budget-guarded."""
    count = params2d.ctx.n**params2d.k
    if count > ENUM_BUDGET or count * params2d.length > 10 * ENUM_BUDGET:
        raise ValueError("codeword enumeration exceeds the budget")
    for coeffs in product(range(params2d.ctx.n), repeat=params2d.k):
        yield coeffs, eval_table(params2d, coeffs)


def nearest_codeword_bruteforce(params2d: RmParams, values, a_set=None):
    """Exact nearest bivariate codeword under plain or dist_A metric.

    Returns (coeffs, distance).  The minimizer with the smallest
    coefficient tuple breaks ties, which keeps the result deterministic.
    """
    best = None
    values = list(values)
    for coeffs, table in enumerate_codewords(params2d):
        dist = (
            dist_plain(values, table)
            if a_set is None
            else dist_weighted(values, table, a_set)
        )
        if best is None or dist < best[1]:
            best = (coeffs, dist)
    return best


def nearest_augmented_bruteforce(params2d: RmParams, aug: AugmentedWord):
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


def min_nonzero_weight(params: RmParams) -> int:
    """Exhaustive minimum Hamming weight over all nonzero codewords."""
    total = params.ctx.n**params.k
    if total > ENUM_BUDGET:
        raise ValueError("weight enumeration exceeds the budget")
    n = params.ctx.n
    grids = np.meshgrid(*[np.arange(n, dtype=np.int64)] * params.dim, indexing="ij")
    coords = np.stack([g.reshape(-1) for g in grids])
    best = None
    for coeffs in product(range(n), repeat=params.k):
        if all(c == 0 for c in coeffs):
            continue
        w = int(np.count_nonzero(evaluate_many(params, coeffs, coords)))
        if best is None or w < best:
            best = w
    return best
