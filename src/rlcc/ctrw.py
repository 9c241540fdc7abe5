"""The m-step plane-line consistency-test random walk and its diagnostics.

A walk always takes m = [F:H] steps, the walk the paper's soundness
bound is stated for.  It starts at the queried point on a plane with
both directions in the embedded H^m, then repeatedly picks a random
point and a random line of the current plane and erects the next plane
over that line with a fresh H^m second direction.  Each plane carries
a low-degree predicate.  A walk is its list of planes: the line drawn
at step i is the anchor line of plane i, its grid column k = 0.

The paper-idealized sampler never excludes degenerate draws; a zero
direction or a rank-deficient plane makes the predicate ill-formed, so
the sampler here rejects and resamples those cases and the transcript
records how often each step resampled.  Loop-step resampling occurs with
probability O(1/|F|) per step, which the tests bound at 3/|F|.

Soundness experiments measure distances against the planted close
codeword: differences on a line are counted exactly, plane densities
are exact whenever the plane is small enough to enumerate and otherwise
come with certified Hoeffding intervals.  A predicate is reported
alpha-far only when its certified lower bound clears alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .gf import Field
from .geometry import (
    PlaneRep,
    add_points,
    codes_of,
    is_colinear,
    is_zero,
    plane_codes_at,
    plane_point_at,
    point_code,
    points_at,
    sample_h_direction,
    sample_point,
    scale_point,
)
from .prf import KeyedNoise, chain
from .rm import (
    ENUM_BUDGET,
    RmParams,
    dist_weighted,
    enumerate_codewords,
    is_low_degree_on_plane,
)
from .stats import (
    DensityBound,
    check_fields,
    chi_square_pvalue,
    freq_meets_ceiling,
    stderr,
    wilson_interval,
)

PLANE_EXACT_LIMIT = 200_000
DEFAULT_PLANE_SAMPLES = 20_000

ACCEPT = "ACCEPT"
REJECT = "REJECT"


@dataclass
class WalkTranscript:
    """The planes of one walk: planes[0] is anchored at the start, and
    planes[i]'s anchor line is the line of step i."""

    planes: list
    resamples_steps: list


def walk_sample(params: RmParams, x, rng) -> WalkTranscript:
    """Run the walk sampler for its m steps."""
    ctx = params.ctx
    h0 = sample_h_direction(ctx, rng)
    hp0 = sample_h_direction(ctx, rng)
    while is_colinear(ctx, h0, hp0):
        hp0 = sample_h_direction(ctx, rng)
    planes = [PlaneRep.make(ctx, x, h0, hp0)]
    step_resamples = []
    for _ in range(ctx.m):
        prev = planes[-1]
        rs = 0
        s, sp = ctx.rand_element(rng), ctx.rand_element(rng)
        xi = plane_point_at(ctx, prev, s, sp)
        while True:
            t, tp = ctx.rand_element(rng), ctx.rand_element(rng)
            hi = add_points(
                ctx, scale_point(ctx, t, prev.dir1), scale_point(ctx, tp, prev.dir2)
            )
            if not is_zero(hi):
                break
            rs += 1
        while True:
            hpi = sample_h_direction(ctx, rng)
            if not is_colinear(ctx, hi, hpi):
                break
            rs += 1
        planes.append(PlaneRep.make(ctx, xi, hi, hpi))
        step_resamples.append(rs)
    return WalkTranscript(planes, step_resamples)


# ---------------------------------------------------------------------------
# Point codes of a whole plane


def plane_codes(params: RmParams, plane: PlaneRep) -> np.ndarray:
    """Point codes of all n^2 plane points in row-major grid order."""
    js = np.arange(params.ctx.n, dtype=np.int64)
    return plane_codes_at(params.ctx, plane, js[:, None], js).reshape(-1)


# ---------------------------------------------------------------------------
# RM-word adversaries for the walk experiments


class PointCorruption:
    """Deterministic corruption pattern over F^m point codes.

    Combines keyed noise at the given density with targeted point
    flips.  The support is exactly the set of points whose read differs
    from the base word, because a corrupted read never equals the base
    symbol.
    """

    def __init__(self, params: RmParams, seed: int, density: float = 0.0):
        self.params = params
        self.density = density
        self._noise = KeyedNoise(
            chain(seed, 0xC0), chain(seed, 0xA5), density, params.ctx.n
        )
        self._targets = {}

    def target_point(self, point, delta: int = 1):
        """Force a difference of delta (mod-n shift, nonzero) at a point."""
        if delta % self.params.ctx.n == 0:
            raise ValueError("targeted delta must be nonzero")
        self._targets[point_code(self.params.ctx, point)] = delta

    def is_corrupt_code(self, code: int) -> bool:
        return code in self._targets or self._noise.hit(code)

    def corrupt_mask(self, codes: np.ndarray) -> np.ndarray:
        mask = self._noise.hit_mask(codes)
        for c in self._targets:
            mask |= codes == c
        return mask

    def read(self, base: int, code: int) -> int:
        """Word symbol at a point given the honest base symbol."""
        if code in self._targets:
            return (base + self._targets[code]) % self.params.ctx.n
        if self._noise.hit(code):
            return self._noise.replacement(code, base)
        return base


# ---------------------------------------------------------------------------
# The accept/reject test (Algorithm 1 end-to-end)


def ctrw_accept(params: RmParams, word, x, rng) -> str:
    """ACCEPT iff the restriction to every walk plane is low-degree.

    word is an evaluation table indexed by point code (sequence or
    numpy array).  Whole planes are read, so it is meant for
    materializable words.
    """
    word = np.asarray(word, dtype=np.int64)
    for plane in walk_sample(params, x, rng).planes:
        values = word[plane_codes(params, plane)]
        ok, _ = is_low_degree_on_plane(params.bivariate(), values)
        if not ok:
            return REJECT
    return ACCEPT


# ---------------------------------------------------------------------------
# Robust-soundness verdicts


@dataclass
class PredicateBound:
    """Certified interval for one predicate's weighted distance."""

    index: int
    lower: Fraction
    upper: Fraction
    certified: bool
    line_count: int | None = None
    plane_bound: DensityBound | None = None


@dataclass
class RobustVerdict:
    violated: bool
    witness: int | None
    distances: list


def _exact_predicate_distance(params2d: RmParams, values, a_indices) -> Fraction:
    best = None
    for _, table in enumerate_codewords(params2d):
        dist = dist_weighted(values, table, a_indices)
        if best is None or dist < best:
            best = dist
    return best


def violation_check_exact(params: RmParams, word, transcript, alpha) -> RobustVerdict:
    """Brute-force verdict; needs the 2-D enumeration budget."""
    params2d = params.bivariate()
    if params.ctx.n ** params2d.k > ENUM_BUDGET:
        raise ValueError("2-D enumeration budget exceeded; use the planted path")
    word = np.asarray(word, dtype=np.int64)
    n = params.ctx.n
    bounds = []
    witness = None
    for i, plane in enumerate(transcript.planes):
        values = word[plane_codes(params, plane)].tolist()
        a_idx = [0] if i == 0 else [t * n for t in range(n)]
        d = _exact_predicate_distance(params2d, values, a_idx)
        bounds.append(PredicateBound(i, d, d, True))
        if witness is None and d >= alpha:
            witness = i
    return RobustVerdict(witness is not None, witness, bounds)


def _plane_density(params, corruption, plane, rng) -> DensityBound:
    n = params.ctx.n
    if n * n <= PLANE_EXACT_LIMIT:
        codes = plane_codes(params, plane)
        return DensityBound.from_exact(
            int(corruption.corrupt_mask(codes).sum()), n * n
        )
    samples = DEFAULT_PLANE_SAMPLES
    npr = np.random.Generator(np.random.PCG64(rng.randrange(2**63)))
    jj = npr.integers(0, n, size=samples)
    kk = npr.integers(0, n, size=samples)
    codes = plane_codes_at(params.ctx, plane, jj, kk)
    return DensityBound.from_sample(int(corruption.corrupt_mask(codes).sum()), samples)


def violation_check_planted(
    params: RmParams,
    corruption: PointCorruption,
    transcript: WalkTranscript,
    alpha: Fraction,
    rng,
) -> RobustVerdict:
    """Certified verdict against the planted close codeword.

    Planes larger than PLANE_EXACT_LIMIT points are estimated from
    DEFAULT_PLANE_SAMPLES uniform grid positions.

    For the point predicate with a corrupted start, the distance is at
    least min(1/2, (rho - eta)/2); for a line predicate it is at least
    min(line-rate/2 + eta_lo/2, (rho - eta_hi)/2).  Upper bounds come
    from the distance to the planted codeword's own restriction.
    """
    ctx = params.ctx
    n = ctx.n
    rho = params.rho
    bounds = []
    witness = None
    for i, plane in enumerate(transcript.planes):
        pb = _plane_density(params, corruption, plane, rng)
        eta_lo, eta_hi = pb.as_fractions()
        if i == 0:
            hit = 1 if corruption.is_corrupt_code(point_code(ctx, plane.anchor)) else 0
            a_rate = Fraction(hit, 1)
            cnt = hit
        else:
            # the line of step i is plane i's anchor line, grid column 0
            codes = plane_codes_at(ctx, plane, np.arange(n), 0)
            cnt = int(corruption.corrupt_mask(codes).sum())
            a_rate = Fraction(cnt, n)
        lower = min(a_rate / 2 + eta_lo / 2, (rho - eta_hi) / 2)
        upper = a_rate / 2 + eta_hi / 2
        bounds.append(PredicateBound(i, lower, upper, pb.exact, cnt, pb))
        if witness is None and lower >= alpha:
            witness = i
    return RobustVerdict(witness is not None, witness, bounds)


# ---------------------------------------------------------------------------
# Event bookkeeping (diagnostic counters for the peeling analysis)


@dataclass
class StepEvents:
    """Per-step nonzero bookkeeping of one trial."""

    line_counts: list
    line_heavy: list  # True when the line has >= 2 alpha n nonzeros
    plane_dense: list  # True when the plane has >= (rho - 2 alpha) n^2 nonzeros
    p0_dense: bool
    e_flags: list
    f_flags: list


def step_events(params: RmParams, verdict: RobustVerdict, alpha: Fraction) -> StepEvents:
    """Bookkeeping read off a planted verdict's own measurements: each
    plane's density bound and each line's count, so the events and the
    verdict agree on every plane."""
    n = params.ctx.n
    thresh = params.rho - 2 * alpha
    dense = []
    for bound in verdict.distances:
        lo, hi = bound.plane_bound.as_fractions()
        dense.append(True if lo >= thresh else False if hi < thresh else None)
    counts = [bound.line_count for bound in verdict.distances[1:]]
    heavy = [Fraction(cnt, n) >= 2 * alpha for cnt in counts]
    e_flags = [h and d is False for h, d in zip(heavy, dense[1:])]
    f_flags = [h and d is True for h, d in zip(heavy, dense[1:])]
    return StepEvents(counts, heavy, dense[1:], dense[0] is True, e_flags, f_flags)


class PeelingTally:
    """The peeling argument's counters, summed over trials.  A step's
    prefix holds when F held at every earlier step.  Per step: ``eps``
    counts E under the prefix, ``prefix`` the prefix, and ``sparse`` a
    line that is not heavy under the prefix.  ``f_all`` counts trials
    with F at every step, ``p0_dense`` a certified dense start plane."""

    def __init__(self, steps: int):
        self.eps = [0] * steps
        self.prefix = [0] * steps
        self.sparse = [0] * steps
        self.f_all = 0
        self.p0_dense = 0

    def add(self, events: StepEvents):
        holds = True
        for s, (e, f, heavy) in enumerate(
            zip(events.e_flags, events.f_flags, events.line_heavy)
        ):
            if holds:
                self.eps[s] += e
                self.prefix[s] += 1
                self.sparse[s] += not heavy
            holds = holds and f
        self.f_all += holds
        self.p0_dense += events.p0_dense


# ---------------------------------------------------------------------------
# Mixing experiment (endpoint distribution of the walk)


def mixing_exp(params: RmParams, corruption: PointCorruption, trials: int, rng):
    """Estimate P[endpoint corrupted] against density + 2/|H|."""
    ctx = params.ctx
    hits = 0
    resample_total = 0
    for _ in range(trials):
        tr = walk_sample(params, sample_point(ctx, rng), rng)
        s, sp = ctx.rand_element(rng), ctx.rand_element(rng)
        z = plane_point_at(ctx, tr.planes[-1], s, sp)
        if corruption.is_corrupt_code(point_code(ctx, z)):
            hits += 1
        resample_total += sum(tr.resamples_steps)
    est = hits / trials
    bound = corruption.density + 2.0 / ctx.p
    lo, hi = wilson_interval(hits, trials)
    return {
        "trials": trials,
        "hits": hits,
        "estimate": est,
        "bound": bound,
        "stderr": stderr(est, trials),
        "wilson": [lo, hi],
        **check_fields(freq_meets_ceiling(hits, trials, bound)),
        "step_resamples": resample_total,
    }


# ---------------------------------------------------------------------------
# The two small standalone lemma experiments


def _mat_mul(a, b, p, m):
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(m)) % p for j in range(m))
        for i in range(m)
    )


def _mat_invertible(a, p, m):
    mat = [list(row) for row in a]
    for col in range(m):
        piv = next((r for r in range(col, m) if mat[r][col] % p), None)
        if piv is None:
            return False
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = pow(mat[col][col], p - 2, p)
        mat[col] = [(v * inv) % p for v in mat[col]]
        for r in range(m):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(v - f * w) % p for v, w in zip(mat[r], mat[col])]
    return True


def _all_matrices(p, m):
    cells = m * m
    for flat in product(range(p), repeat=cells):
        yield tuple(tuple(flat[i * m : (i + 1) * m]) for i in range(m))


def matrix_product_check(p: int, m: int, mode="exhaustive", trials=0, rng=None):
    """Distribution of H*T for uniform H, T over GF(p)^{m x m}.

    Exhaustive mode verifies that, conditioned on H invertible, the
    product is exactly uniform, and reports the exact singular fraction
    next to the two upper bounds.
    """
    total = p ** (m * m)
    sum_bound = Fraction(
        sum(Fraction(1, p**i) for i in range(1, m + 1))
    )
    gl_order = 1
    for i in range(m):
        gl_order *= p**m - p**i
    exact_singular = 1 - Fraction(gl_order, total)
    report = {
        "p": p,
        "m": m,
        "mode": mode,
        "sum_bound": sum_bound,
        "claim_bound": Fraction(2, p),
        "exact_singular_formula": exact_singular,
    }
    if mode == "exhaustive":
        if p ** (2 * m * m) > ENUM_BUDGET:
            raise ValueError("exhaustive matrix check exceeds the budget")
        invertible = [h for h in _all_matrices(p, m) if _mat_invertible(h, p, m)]
        hist = {}
        for h in invertible:
            for t in _all_matrices(p, m):
                prod_m = _mat_mul(h, t, p, m)
                hist[prod_m] = hist.get(prod_m, 0) + 1
        counts = list(hist.values())
        report.update(
            {
                "singular_fraction": Fraction(total - len(invertible), total),
                "invertible_count": len(invertible),
                "pairs": len(invertible) * total,
                "product_support": len(hist),
                "uniform_exact": len(hist) == total and len(set(counts)) == 1,
                "hits_per_product": counts[0] if counts else 0,
            }
        )
    else:
        hist = {}
        singular = 0
        for _ in range(trials):
            h = tuple(tuple(rng.randrange(p) for _ in range(m)) for _ in range(m))
            t = tuple(tuple(rng.randrange(p) for _ in range(m)) for _ in range(m))
            if not _mat_invertible(h, p, m):
                singular += 1
                continue
            prod_m = _mat_mul(h, t, p, m)
            hist[prod_m] = hist.get(prod_m, 0) + 1
        pval = chi_square_pvalue(list(hist.values()), total)
        report.update(
            {
                "singular_fraction": Fraction(singular, trials),
                "conditional_draws": sum(hist.values()),
                "chi2_pvalue": pval,
                "uniform_ok": pval >= 1e-3,
            }
        )
    report["singular_ok"] = report["singular_fraction"] <= min(
        sum_bound, Fraction(2, p)
    )
    return report


def line_sampling_exp(ctx: Field, a_codes, eps_list, mode="exhaustive", trials=0, rng=None):
    """Tail of the line-sample density against mu / (|F| eps^2).

    The statistic counts parameters t with x + t*y in A (multiset
    convention, so y = 0 contributes |F| copies of x), matching the
    averaging argument that the bound comes from.
    """
    n = ctx.n
    a_mask = np.zeros(n * n, dtype=bool)
    for c in a_codes:
        a_mask[c] = True
    mu = Fraction(int(a_mask.sum()), n * n)
    if mode == "exhaustive":
        if n > 16:
            raise ValueError("exhaustive line sampling is limited to |F| <= 16")
        space = [(a, b) for a in range(n) for b in range(n)]
        lines = [(x, y) for x in space for y in space]
    else:
        lines = []
        for _ in range(trials):
            x = (ctx.rand_element(rng), ctx.rand_element(rng))
            y = (ctx.rand_element(rng), ctx.rand_element(rng))
            lines.append((x, y))
    ts = np.arange(n, dtype=np.int64)
    pairs = []
    # chunks of about a million line points bound the temporaries
    step = max(1, (1 << 20) // n)
    for lo in range(0, len(lines), step):
        chunk = np.array(lines[lo : lo + step], dtype=np.int64)
        # anchor and direction coordinates as (2, lines, 1), against every t
        x, y = chunk.transpose(1, 2, 0)[..., None]
        codes = codes_of(ctx, points_at(ctx, x, (y,), (ts,)))
        pairs += a_mask[codes].sum(axis=1).tolist()
    total = len(pairs)
    rows = []
    all_ok = True
    for eps in eps_list:
        eps = Fraction(eps)
        tail = sum(1 for c in pairs if abs(Fraction(c, n) - mu) > eps)
        bound = Fraction(1, n) * mu / (eps * eps)
        ok = Fraction(tail, total) <= min(bound, 1)
        all_ok = all_ok and ok
        rows.append(
            {
                "eps": eps,
                "tail_fraction": Fraction(tail, total),
                "bound": bound,
                "ok": ok,
            }
        )
    return {"mu": mu, "pairs": total, "rows": rows, "ok": all_ok, "mode": mode}
