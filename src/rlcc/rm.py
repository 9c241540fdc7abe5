"""The code RM_F(dim, d): evaluations of total-degree-<=d polynomials.

Codewords are evaluation tables over F^dim in canonical point order.
Coefficient vectors are ordered by graded-lexicographic monomial order
on exponent tuples (degree first, then plain tuple comparison), and the
message-to-coefficient map is the identity.  rho is an exact rational,
so thresholds like rho/8 are compared exactly.

A bivariate polynomial is interpolated in one way: from its values at
the degree lattice (e_a, e_b), a + b <= d, where the nodes e_0..e_d are
the first d+1 field elements in code order, through one pair of Newton
operators per (field, d): divided differences and the Newton-to-monomial
map.

Whole grids are evaluated in one way too: grid_values contracts every
axis of the coefficient tensor with the Vandermonde matrix, and from
d = 3 on one point by one float64 product of exponents and logs.  A
polynomial is restricted to a plane in one way, by partial evaluation
(PlaneRestrictor; restrict_to_plane for one plane): its slices in two
pivot coordinates are evaluated on the lattice once per message and
pivot pair, a plane sums them times powers of the other coordinates'
affine forms, and a bivariate affine change of variables takes the
interpolated result to the plane's own parameters.  Field sums and
digit products go through gf.LaneLayout: integer lanes for evaluate
and the restriction's sums, float64 lanes for fmatmul, which pairs
a's base-p digits with the lanes of X^i b, both gathered from tables
built once per field and inner dimension (_digit_tables).  Every lane
sum is read back by LaneLayout.codes, one pass per field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import combinations, product
from math import comb

import numpy as np

from .gf import Field, LaneLayout, scratch
from .geometry import PlaneRep, points_at

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

    @cached_property
    def _point_tables(self):
        """evaluate's (exps, lam, lanes, log, table), kept here so that a
        call hashes nothing: float64 exponents and logs, (d+2)(n-1) at 0,
        and the lanes for k digits with their zero-ended log and table."""
        lanes = LaneLayout(self.ctx, self.k * (self.ctx.p - 1))
        log, table = lanes.zero_ended(2)
        lam = log.astype(np.float64)
        lam[0] = (self.d + 2) * (self.ctx.n - 1)
        return _exponent_matrix(self.dim, self.d, np.float64), lam, lanes, log, table


def encode(params: RmParams, message):
    """Message -> coefficient vector (identity onto graded-lex coefficients)."""
    if len(message) != params.k:
        raise ValueError(f"message length must be {params.k}")
    if any(not 0 <= c < params.ctx.n for c in message):
        raise ValueError("message symbol out of range")
    return tuple(message)


# from this degree on, the log-domain sum beats the per-monomial loop;
# T1 and T2 (d = 1) keep the loop.  µs per point, loop/sum at d = 1..4
# (best of 7 x 200 points, none with a zero coordinate, 2-vCPU VM):
#   dim 2, GF(8)      3.1/7.8   6.0/7.5   9.5/7.5  14.5/7.8
#   dim 2, GF(17^3)   4.0/7.9   7.2/8.1  12.4/8.1  19.0/7.7
#   dim 3, GF(8)      4.5/8.1  10.4/8.2  21.3/8.0  37.4/8.0
#   dim 3, GF(17^3)   4.7/7.5  11.9/7.6  25.3/7.2  46.0/8.2
_BULK_DEGREE = 3


def evaluate(params: RmParams, coeffs, point) -> int:
    """Value of the polynomial at one point of F^dim.

    Low degrees use the per-monomial loop.  From d = 3 on, the origin
    reads the constant coefficient, and term i of another point is
    antilog(log c_i + (E_i . lambda mod n-1)), E the float64 exponent
    matrix and lambda the coordinates' logs: one matrix-vector product,
    exact, as every partial sum is an integer below 2^53, then a floor
    division.  A zero coordinate's lambda is (d+2)(n-1), so the other
    quotients stay below d, and capped at d, a term with a positive
    exponent there keeps a remainder past the zero-ended lane table,
    where a zero coefficient's log lands too.  The terms' digits add up
    in a LaneLayout for k digits.  Hot callers hold int64 coefficient
    arrays: anything else is converted on every call.
    """
    ctx, d = params.ctx, params.d
    if d >= _BULK_DEGREE:
        if not any(point):
            return int(coeffs[0])
        exps, lam, lanes, log, table = params._point_tables
        logs = np.dot(exps, lam.take(point)).astype(np.int64)
        wraps = logs // (ctx.n - 1)
        if 0 in point:
            np.minimum(wraps, d, out=wraps)
        wraps *= ctx.n - 1
        logs -= wraps
        logs += log[np.asarray(coeffs, dtype=np.int64)]
        # np.add.reduce: ndarray.sum's Python wrapper costs about 0.3 µs
        terms = table.take(logs, axis=1, mode="clip")
        return lanes.code(np.add.reduce(terms, axis=1).tolist())
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
def _exponent_matrix(dim: int, d: int, dtype=np.int64):
    return np.array(monomial_basis(dim, d), dtype=dtype)


@lru_cache(maxsize=64)
def _log_powers(ctx: Field, d: int, zero: int) -> np.ndarray:
    """(d+1) x n int32: e * log x mod (n-1) at [e, x] for every code x,
    and `zero` at x = 0 < e (x^0 = 1 even at 0)."""
    out = np.arange(d + 1)[:, None] * ctx.tables[1] % (ctx.n - 1)
    out[1:, 0] = zero
    return out.astype(np.int32)


def eval_table(params: RmParams, coeffs):
    """Full evaluation table in canonical point order (guarded by budget)."""
    if params.length > ENUM_BUDGET:
        raise ValueError("evaluation table exceeds the enumeration budget")
    # point codes run with the first coordinate fastest
    return grid_values(params, coeffs).T.reshape(-1)


# ---------------------------------------------------------------------------
# Tensor contractions: interpolation on the (d+1)-node grid, whole grids


@lru_cache(maxsize=None)
def _newton_operators(ctx: Field, d: int):
    """(D, C) over the nodes e_j = code j, j <= d.  D maps node values
    to divided differences, D[a][j] = 1 / prod_{i <= a, i != j} (e_j - e_i),
    so row a reads nodes j <= a only; column a of C holds the monomial
    coefficients of the Newton polynomial prod_{i < a} (x - e_i)."""
    size = d + 1
    diff = np.zeros((size, size), dtype=np.int64)
    newton = np.zeros((size, size), dtype=np.int64)
    w, col = [], [1] + [0] * d
    for a in range(size):
        # w[j] = prod_{i <= a, i != j} (e_j - e_i); col is N_a
        w = [ctx.mul(wj, ctx.sub(j, a)) for j, wj in enumerate(w)]
        w.append(reduce(ctx.mul, (ctx.sub(a, i) for i in range(a)), 1))
        diff[a, : a + 1] = [ctx.inv(x) for x in w]
        newton[:, a] = col
        col = [ctx.sub(col[i - 1] if i else 0, ctx.mul(a, col[i])) for i in range(size)]
    return diff, newton


# from this inner dimension on, fmatmul multiplies base-p digits through
# BLAS; below it the log-domain broadcast.  Square products, log/digit
# path in µs (median of three runs of best of 31 x 50 calls, one BLAS
# thread, 2-vCPU VM), at inner 2, 5, 9, 15, 16 and 33:
#   GF(8)     14/11  16/11  20/12  34/14  38/14  326/33
#   GF(27)    14/11  26/14  27/26  39/18  45/29  402/37
#   GF(125)   15/14  15/14  20/18  38/21  43/21  344/37
#   GF(17^3)  22/16  19/17  24/20  37/21  42/21  366/58
# With its tables built once, the digit path wins from 5 on (and on
# 5 x 2,000 and 9 x 2,000 outputs, 2-8x); T2's products (inner <= 2)
# keep the log path, and 3-4 are not measured
_DIGIT_INNER = 5


def fmatmul(ctx: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over F of integer-code matrices; like ``a @ b``, it
    broadcasts over leading batch axes."""
    if a.shape[-1] >= _DIGIT_INNER:
        return _fmatmul_digits(ctx, a, b)
    exp_t, log_t, _ = ctx.tables
    a = a[..., :, :, None]
    b = b[..., None, :, :]
    # the antilog table spans 2(n-1) entries, so summed logs need no modulo
    prod = np.take(exp_t, log_t[a] + log_t[b], mode="clip")
    return ctx.sum_elements(prod, axis=-2)


@lru_cache(maxsize=16)
def _digit_tables(ctx: Field, inner: int):
    """(lanes, digits, times) of fmatmul's digit path at this inner
    dimension: its unsigned float64 LaneLayout (a lane sums m * inner
    products of two digits below p), every code's m base-p digits, and
    per word the packed lanes of X^i c for every code c and i < m.  A
    code's m float64 entries are one void item of digits and of each
    word of times, so that one take gathers them all, and a float64
    view lays them side by side."""
    exp_t, log_t, digits = ctx.tables
    lanes = LaneLayout(ctx, ctx.m * inner * (ctx.p - 1) ** 2, np.float64)
    # X^i has code p^i
    times = np.take(exp_t, log_t[:, None] + log_t[ctx.p ** np.arange(ctx.m)], mode="clip")
    item = np.dtype((np.void, 8 * ctx.m))
    return (
        lanes,
        digits.astype(np.float64).view(item)[:, 0],
        [np.ascontiguousarray(word).view(item)[:, 0] for word in lanes.packed[:, times]],
    )


def _fmatmul_digits(ctx: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """fmatmul through float64 products over base-p digits: with
    a = sum_i a_i X^i for digit matrices a_i over GF(p), a b is
    sum_i a_i (X^i b), and a matrix over GF(p) acts on each digit of
    X^i b alone.  So entry (j, i) of the inner axis pairs digit i of
    a's column j with the lanes of X^i b's row j, both gathered from
    _digit_tables, and one product per word of the unsigned float64
    LaneLayout adds every digit's lane; at S1 that is one product in
    all.  Exact: every partial sum is an integer below 2^53.
    """
    lanes, digits, times = _digit_tables(ctx, a.shape[-1])
    da = digits.take(a).view(np.float64)
    # gathered by b's columns: each word's lanes are a transposed,
    # contiguous operand
    bt = b.swapaxes(-1, -2)
    return lanes.codes([
        np.matmul(da, word.take(bt).view(np.float64).swapaxes(-1, -2)).astype(np.int64)
        for word in times
    ])


def _contract(ctx: Field, op: np.ndarray, tensor: np.ndarray, axes: int) -> np.ndarray:
    """op applied along each of the first `axes` axes of tensor, one 2-D
    product per axis over all the other entries: op acts on the first
    axis, which then moves behind the other contracted ones, so after
    `axes` products every axis is back in place.  Later axes (keys) are
    carried along as columns."""
    # a transpose: np.moveaxis costs about 4 µs a call, an S1 33 x 33
    # product about 32
    order = (*range(1, axes), 0, *range(axes, tensor.ndim))
    for _ in range(axes):
        out = fmatmul(ctx, op, tensor.reshape(len(tensor), -1))
        tensor = out.reshape((len(op),) + tensor.shape[1:]).transpose(order)
    return tensor


@lru_cache(maxsize=64)
def _vandermonde(ctx: Field, d: int, size: int) -> np.ndarray:
    """size x (d+1): x^e at [x, e] for the codes x < size, with 0^0 = 1;
    the log of 0 is the antilog table's last entry, 0.  Whole grids take
    every code; the restriction's slices only the d+1 nodes, so that a
    walk keeps no n-row table."""
    exp_t = ctx.tables[0]
    return np.take(exp_t, _log_powers(ctx, d, len(exp_t) - 1)[:, :size].T, mode="clip")


def grid_values(params: RmParams, coeffs) -> np.ndarray:
    """Values at every point of F^dim, as an n x ... x n tensor whose
    axis i is coordinate i: the coefficients placed at their exponents
    in a (d+1)^dim tensor, with every axis contracted by the Vandermonde
    matrix."""
    ctx, d, dim = params.ctx, params.d, params.dim
    tensor = np.zeros((d + 1,) * dim, dtype=np.int64)
    tensor[tuple(_exponent_matrix(dim, d).T)] = coeffs
    return _contract(ctx, _vandermonde(ctx, d, ctx.n), tensor, dim)


def interpolate_lattice(params2d: RmParams, values: np.ndarray) -> np.ndarray:
    """Graded-lex triangles of the polynomials of total degree <= d with
    the given values at the lattice points (e_a, e_b), (a, b) in
    monomial_basis(2, d) order.  values has shape (..., k_2), one lattice
    per leading index, and so has the result.

    The tensor divided difference at (a, b) reads only the points
    (e_j, e_k) with j <= a and k <= b, all on the lattice, so the Newton
    coefficients on the triangle come out of a grid that is zero off it;
    the ones off it are zero for such a polynomial.
    """
    ctx, d = params2d.ctx, params2d.d
    diff, newton = _newton_operators(ctx, d)
    a, b = _exponent_matrix(2, d).T
    # keys on the last axis: a leading one makes each product a batch of
    # small ones, and T2 materialize's 69 chunks took 0.27 s, not 0.08 s
    grid = np.zeros((d + 1, d + 1, values.size // len(a)), dtype=np.int64)
    grid[a, b] = values.reshape(-1, len(a)).T
    grid[a, b] = _contract(ctx, diff, grid, 2)[a, b]
    return _contract(ctx, newton, grid, 2)[a, b].T.reshape(values.shape)


def is_low_degree_on_plane(params2d: RmParams, values):
    """Membership of an n^2 plane word in the bivariate code.

    Fits the degree lattice, then verifies all n^2 points.  Returns
    (ok, triangle-or-None).
    """
    n = params2d.ctx.n
    values = np.asarray(values, dtype=np.int64)
    if values.shape != (n * n,):
        raise ValueError("plane word must have n^2 symbols in grid order")
    a, b = _exponent_matrix(2, params2d.d).T
    tri = tuple(interpolate_lattice(params2d, values.reshape(n, n)[a, b]).tolist())
    ok = bool(np.array_equal(grid_values(params2d, tri).reshape(-1), values))
    return (ok, tri if ok else None)


# ---------------------------------------------------------------------------
# Restriction to a plane: per-message lattice slices, then a bivariate
# change of variables


def _pivots(ctx: Field, u, v):
    """(p1, p2, minor): the first coordinate pair p1 < p2 whose direction
    minor u_p1 v_p2 - v_p1 u_p2 is invertible.  ValueError if there is
    none, as when u and v do not span a plane."""
    for p1, p2 in combinations(range(len(u)), 2):
        minor = ctx.sub(ctx.mul(u[p1], v[p2]), ctx.mul(v[p1], u[p2]))
        if minor:
            return p1, p2, minor
    raise ValueError("plane directions do not span a plane")


@lru_cache(maxsize=64)
def _binomials(ctx: Field, d: int):
    """(logs, gaps, antilogs) for exponents up to d: the antilogs of
    sums of up to three logs, whose last entry is 0; log C(i, f) mod p
    at [f, i], or that entry's index where it is 0 (f > i, or p divides
    it), past every sum of nonzero logs; and i - f clipped to 0."""
    exp_t, log_t, _ = ctx.tables
    antilogs = exp_t[np.arange(3 * (ctx.n - 1)) % (ctx.n - 1)]
    antilogs[-1] = 0
    size = d + 1
    binom = np.array([[comb(i, f) % ctx.p for i in range(size)] for f in range(size)])
    logs = np.where(binom > 0, log_t[binom], len(antilogs) - 1)
    f, i = np.indices((size, size))
    return logs, np.maximum(i - f, 0), antilogs


def _substitution(ctx: Field, d: int, c: int, r: int = 1) -> np.ndarray:
    """The map of coefficient vectors (exponents up to d) from f(x) to
    f(r x + c): C(i, f) c^(i-f) r^f at [f, i], upper triangular, read
    in one gather from the sum of the three factors' logs (two when
    r = 1)."""
    logs, gaps, antilogs = _binomials(ctx, d)
    log_t, steps = ctx.tables[1], np.arange(d + 1)

    def power_logs(x: int) -> np.ndarray:
        # the logs of x^e; 0^e = 0 for e > 0
        return steps * log_t[x] % (ctx.n - 1) if x else np.where(steps, len(antilogs) - 1, 0)

    total = logs + power_logs(c)[gaps]
    if r != 1:
        total += power_logs(r)[:, None]
    return antilogs.take(total, mode="clip")


# slices per Vandermonde contraction.  The work arrays of a contraction
# stay resident in gf.scratch, so wider blocks cost memory for good: 24
# at S1 (the most within the scratch limit) raised s1-alg2-walk's peak
# RSS by about 2.5 MB against 4
_SLICE_BLOCK = 4


class PlaneRestrictor:
    """Restrictions of one polynomial P to planes.

    On the plane a + s u + t v, pick the first pivots q1 < q2 whose
    direction minor is invertible (_pivots).  Every other coordinate is
    then affine in the pivots, y_c = gamma_c + alpha_c y_q1 + beta_c y_q2,
    so P on the plane is R(y_q1, y_q2) = sum over the exponents e of the
    other coordinates of C_e(y_q1, y_q2) * prod_c l_c^(e_c), where the
    slice C_e gathers P's monomials with those exponents and l_c is
    coordinate c's affine form.

    The slices depend on the message and the pivots only: their values
    on the degree lattice (e_a, e_b) are cached per pivot pair, the
    first time a plane needs them, as Vandermonde contractions of
    _SLICE_BLOCK slices at a time.
    A plane then costs, per lattice point, one sum over the slices
    (33 terms at S1, where P has 6,545 monomials) in the log domain, read
    in the digit lanes of a LaneLayout.  Each l_c comes from points_at,
    and its powers' logs are gathered from a cached table (_log_powers).
    interpolate_lattice gives R's triangle, and a bivariate change of
    variables (_substitution) turns it into
    Q(s, t) = R(a_q1 + u_q1 s + v_q1 t, a_q2 + u_q2 s + v_q2 t).
    """

    def __init__(self, params: RmParams, coeffs):
        self.params = params
        # a copy: the cached slices must not follow a caller's array
        self.coeffs = np.array(coeffs, dtype=np.int64)
        if self.coeffs.shape != (params.k,):
            raise ValueError(f"coefficient vector must have length {params.k}")
        self._cache = {}

    def _slices(self, q1: int, q2: int):
        """(logs, others, lanes, table) of pivots (q1, q2): the zero-ended
        logs of every slice's values on the lattice (slices x k_2), the
        other coordinates' exponents of each slice ((dim - 2) x slices),
        and the LaneLayout and zero-ended table that add up their terms.
        A term is the product of dim - 1 factors (at least two are
        taken), so a zero factor's log lands past every sum of nonzero
        ones."""
        if (q1, q2) not in self._cache:
            ctx, dim, d = self.params.ctx, self.params.dim, self.params.d
            basis = _exponent_matrix(dim, d)
            rest = [c for c in range(dim) if c not in (q1, q2)]
            radix = (d + 1) ** np.arange(len(rest))
            keys, slot = np.unique(basis[:, rest] @ radix, return_inverse=True)
            a, b = _exponent_matrix(2, d).T
            values = np.empty((len(keys), len(a)), dtype=np.int64)
            vander = _vandermonde(ctx, d, d + 1)
            # the monomials by slice, and where each block of slices starts
            order = np.argsort(slot, kind="stable")
            blocks = range(0, len(keys) + _SLICE_BLOCK, _SLICE_BLOCK)
            starts = np.searchsorted(slot, blocks, sorter=order)
            for lo, first, last in zip(blocks, starts, starts[1:]):
                hi = min(lo + _SLICE_BLOCK, len(keys))
                mine = order[first:last]
                tensor = np.zeros((d + 1, d + 1, hi - lo), dtype=np.int64)
                tensor[basis[mine, q1], basis[mine, q2], slot[mine] - lo] = self.coeffs[mine]
                values[lo:hi] = _contract(ctx, vander, tensor, 2)[a, b].T
            lanes = LaneLayout(ctx, len(keys) * (ctx.p - 1))
            log, table = lanes.zero_ended(max(2, dim - 1))
            self._cache[q1, q2] = (log[values], keys // radix[:, None] % (d + 1), lanes, table)
        return self._cache[q1, q2]

    def restrict(self, plane: PlaneRep) -> np.ndarray:
        """The int64 graded-lex triangle of the restriction to a plane."""
        ctx, dim, d = self.params.ctx, self.params.dim, self.params.d
        anchor, u, v = plane.anchor, plane.dir1, plane.dir2
        q1, q2, minor = _pivots(ctx, u, v)
        inv = ctx.inv(minor)
        rest = [c for c in range(dim) if c not in (q1, q2)]
        alpha = [ctx.mul(inv, ctx.sub(ctx.mul(u[c], v[q2]), ctx.mul(v[c], u[q2]))) for c in rest]
        beta = [ctx.mul(inv, ctx.sub(ctx.mul(u[q1], v[c]), ctx.mul(v[q1], u[c]))) for c in rest]
        gamma = [
            ctx.sub(anchor[c], ctx.add(ctx.mul(al, anchor[q1]), ctx.mul(be, anchor[q2])))
            for c, al, be in zip(rest, alpha, beta)
        ]
        logs, others, lanes, table = self._slices(q1, q2)
        a, b = _exponent_matrix(2, d).T
        total = logs
        if rest:
            # each l_c at the lattice
            coords = points_at(ctx, gamma, (alpha, beta), (a, b))
            # the logs of their powers, gathered by exponent; a power of 0
            # takes the zero-ended table's log of 0
            powers = _log_powers(ctx, d, len(table[0]) - 1)
            at = scratch("slice_powers", (d + 1, len(a)), np.int32)
            term = scratch("slice_term", logs.shape, np.int32)
            work = scratch("slice_logs", logs.shape, np.int64)
            for x, col in zip(coords, others):
                np.take(powers, x, axis=1, out=at).take(col, axis=0, out=term)
                total = np.add(total, term, out=work)
        terms = scratch("slice_lanes", (len(table),) + logs.shape, table.dtype)
        np.take(table, total, axis=1, out=terms, mode="clip")
        # a lane sums at most one digit per slice, so no word outgrows
        # the table's dtype
        sums = terms.sum(axis=1, dtype=table.dtype)
        tri = interpolate_lattice(self.params.bivariate(), lanes.codes(sums))
        grid = np.zeros((d + 1, d + 1), dtype=np.int64)
        grid[a, b] = tri
        # R(a_p1 + u_p1 s + v_p1 t, a_p2 + u_p2 s + v_p2 t) with u_p1 != 0,
        # taking the pivots in the other order (R transposed) if need be
        p1, p2 = q1, q2
        if u[q1] == 0:
            grid, p1, p2 = grid.T, q2, q1
        lam = ctx.mul(v[p1], ctx.inv(u[p1]))
        mu = ctx.sub(v[p2], ctx.mul(u[p2], lam))
        # x -> u_p1 x + a_p1 and y -> y + a_p2, one axis each
        grid = fmatmul(ctx, _substitution(ctx, d, anchor[p1], u[p1]), grid)
        grid = fmatmul(ctx, grid, _substitution(ctx, d, anchor[p2]).T)
        # then y -> mu t + u_p2 x and x -> s + lam t, which keep the total
        # degree D: on the (y exponent, D) and (x exponent, D) grids each
        # is a univariate substitution applied to every column
        degree = a + b
        graded = np.zeros_like(grid)
        graded[b, degree] = grid[a, b]
        grid[a, b] = fmatmul(ctx, _substitution(ctx, d, u[p2], mu), graded)[b, degree]
        graded[a, degree] = grid[a, b]
        return fmatmul(ctx, _substitution(ctx, d, lam), graded)[a, degree]


def restrict_to_plane(params: RmParams, coeffs, plane: PlaneRep):
    """Bivariate triangle vector (graded-lex, a tuple) of the restriction
    of a polynomial to a plane, whose directions must span one
    (ValueError otherwise).  A one-off PlaneRestrictor: callers that
    restrict one polynomial to many planes keep their own, which keeps
    the slices."""
    return tuple(PlaneRestrictor(params, coeffs).restrict(plane).tolist())


# the two augmentation kinds of a plane language (pcpp)
POINT_KIND = "point"
LINE_KIND = "line"


def min_nonzero_weight(params: RmParams) -> int:
    """Exhaustive minimum Hamming weight over all nonzero codewords."""
    total = params.ctx.n**params.k
    if total > ENUM_BUDGET:
        raise ValueError("weight enumeration exceeds the budget")
    best = None
    for coeffs in product(range(params.ctx.n), repeat=params.k):
        if all(c == 0 for c in coeffs):
            continue
        w = int(np.count_nonzero(grid_values(params, coeffs)))
        if best is None or w < best:
            best = w
    return best
