"""The m-step plane-line consistency-test random walk and its diagnostics.

The walk starts at the queried point on a plane with both directions in
the embedded H^m, then repeatedly picks a random point and a random line
of the current plane and erects the next plane over that line with a
fresh H^m second direction.  Each plane carries a low-degree predicate.

The paper-idealized sampler never excludes degenerate draws; a zero
direction or a rank-deficient plane makes the predicate ill-formed, so
the sampler here rejects and resamples those cases and the transcript
records how often that happened.  Loop-step resampling occurs with
probability O(1/|F|) per step, which the tests bound at 3/|F|.

Soundness experiments measure distances against the planted close
codeword: differences on a line are counted exactly, plane densities
are exact whenever the plane is small enough to enumerate and otherwise
come with certified Hoeffding intervals.  A predicate is reported
alpha-far only when its certified lower bound clears alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .gf import Field
from .geometry import (
    LineRep,
    PlaneRep,
    add_points,
    is_colinear,
    is_zero,
    plane_coords_at,
    point_code,
    sample_h_direction,
    sample_point,
    scale_point,
)
from .prf import chain, chain_vec, threshold_of
from .rm import (
    ENUM_BUDGET,
    RmParams,
    dist_weighted,
    enumerate_codewords,
    is_low_degree_on_plane,
)
from .stats import DensityBound, freq_meets_ceiling, stderr, wilson_interval

PLANE_EXACT_LIMIT = 200_000
DEFAULT_PLANE_SAMPLES = 20_000

ACCEPT = "ACCEPT"
REJECT = "REJECT"


@dataclass
class WalkTranscript:
    """Planes, lines, and scalars of one walk; xs[0] is the start."""

    xs: list
    planes: list
    lines: list
    h: list
    hp: list
    s_scalars: list
    sp_scalars: list
    t_scalars: list
    tp_scalars: list
    resamples_init: int = 0
    resamples_steps: list = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.lines)


def walk_sample(params: RmParams, x, steps=None, rng=None) -> WalkTranscript:
    """Run the walk sampler for the given number of steps (default m)."""
    ctx = params.ctx
    if steps is None:
        steps = ctx.m
    resamples_init = 0
    h0 = sample_h_direction(ctx, rng)
    hp0 = sample_h_direction(ctx, rng)
    while is_colinear(ctx, h0, hp0):
        hp0 = sample_h_direction(ctx, rng)
        resamples_init += 1
    xs = [tuple(x)]
    h, hp = [h0], [hp0]
    planes = [PlaneRep.make(ctx, x, h0, hp0)]
    lines = []
    s_l, sp_l, t_l, tp_l = [], [], [], []
    step_resamples = []
    for _ in range(steps):
        rs = 0
        s, sp = ctx.rand_element(rng), ctx.rand_element(rng)
        xi = add_points(
            ctx,
            xs[-1],
            add_points(
                ctx, scale_point(ctx, s, h[-1]), scale_point(ctx, sp, hp[-1])
            ),
        )
        while True:
            t, tp = ctx.rand_element(rng), ctx.rand_element(rng)
            hi = add_points(
                ctx, scale_point(ctx, t, h[-1]), scale_point(ctx, tp, hp[-1])
            )
            if not is_zero(hi):
                break
            rs += 1
        while True:
            hpi = sample_h_direction(ctx, rng)
            if not is_colinear(ctx, hi, hpi):
                break
            rs += 1
        xs.append(xi)
        h.append(hi)
        hp.append(hpi)
        lines.append(LineRep(xi, hi))
        planes.append(PlaneRep.make(ctx, xi, hi, hpi))
        s_l.append(s)
        sp_l.append(sp)
        t_l.append(t)
        tp_l.append(tp)
        step_resamples.append(rs)
    return WalkTranscript(
        xs, planes, lines, h, hp, s_l, sp_l, t_l, tp_l,
        resamples_init, step_resamples,
    )


# ---------------------------------------------------------------------------
# Vectorized plane/line address helpers


def line_codes(params: RmParams, line: LineRep) -> np.ndarray:
    """Point codes of all n line points, position order."""
    ctx = params.ctx
    n = ctx.n
    js = np.arange(n, dtype=np.int64)
    code = np.zeros(n, dtype=np.int64)
    w = 1
    for i in range(ctx.m):
        coord = ctx.vec_add(
            np.full(n, line.anchor[i], dtype=np.int64),
            ctx.vec_scale(line.direction[i], js),
        )
        code += coord * w
        w *= n
    return code


def plane_codes_at(params: RmParams, plane: PlaneRep, jj, kk) -> np.ndarray:
    """Point codes of plane grid positions (jj, kk), vectorized."""
    n = params.ctx.n
    coords = plane_coords_at(params.ctx, plane, jj, kk)
    code = np.zeros(coords.shape[1:], dtype=np.int64)
    for coord in coords[::-1]:
        code = code * n + coord
    return code


def plane_codes(params: RmParams, plane: PlaneRep) -> np.ndarray:
    n = params.ctx.n
    idx = np.arange(n * n, dtype=np.int64)
    return plane_codes_at(params, plane, idx // n, idx % n)


# ---------------------------------------------------------------------------
# RM-word adversaries for the walk experiments


class PointCorruption:
    """Deterministic corruption pattern over F^m point codes.

    Combines a keyed pseudorandom density-delta selector, targeted point
    flips, and optional full-plane blots.  The support is exactly the
    set of points whose read differs from the base word, because the
    replacement symbol is never equal to the base symbol.
    """

    def __init__(self, params: RmParams, seed: int, density: float = 0.0):
        self.params = params
        self.seed = seed
        self.density = density
        self._threshold = threshold_of(density)
        self._prefix = chain(seed, 0xC0)
        self._targets = {}
        self._blot_codes = None
        self._blot_prefix = chain(seed, 0xB1)

    def target_point(self, point, delta: int = 1):
        """Force a difference of delta (mod-n shift, nonzero) at a point."""
        if delta % self.params.ctx.n == 0:
            raise ValueError("targeted delta must be nonzero")
        self._targets[point_code(self.params.ctx, point)] = delta

    def blot_plane(self, plane: PlaneRep):
        codes = plane_codes(self.params, plane)
        self._blot_codes = dict(
            zip(codes.tolist(), range(len(codes)))
        )

    def is_corrupt_code(self, code: int) -> bool:
        if code in self._targets:
            return True
        if self._blot_codes is not None and code in self._blot_codes:
            return True
        return chain(self._prefix, code) < self._threshold

    def corrupt_mask(self, codes: np.ndarray) -> np.ndarray:
        mask = chain_vec(self._prefix, codes) < self._threshold
        if self._targets:
            for c in self._targets:
                mask |= codes == c
        if self._blot_codes is not None:
            extra = np.fromiter(
                (c in self._blot_codes for c in codes.tolist()),
                dtype=bool,
                count=len(codes),
            )
            mask |= extra
        return mask

    def read(self, base: int, code: int) -> int:
        """Word symbol at a point given the honest base symbol."""
        n = self.params.ctx.n
        if code in self._targets:
            return (base + self._targets[code]) % n
        if self._blot_codes is not None and code in self._blot_codes:
            return (base + 1 + chain(self._blot_prefix, code) % (n - 1)) % n
        h = chain(self._prefix, code)
        if h < self._threshold:
            return (base + 1 + chain(self._prefix, code, 0xA5) % (n - 1)) % n
        return base


# ---------------------------------------------------------------------------
# The accept/reject test (Algorithm 1 end-to-end)


def ctrw_accept(params: RmParams, word, x, rng, mode="exact", steps=None):
    """ACCEPT iff the restriction to every walk plane is low-degree.

    word is an evaluation table indexed by point code (sequence or
    numpy array).  Exact mode reads whole planes, so it is meant for
    materializable words.
    """
    word = np.asarray(word, dtype=np.int64)
    transcript = walk_sample(params, x, steps, rng)
    for plane in transcript.planes:
        values = word[plane_codes(params, plane)]
        ok, _ = is_low_degree_on_plane(params.bivariate(), values, mode, rng)
        if not ok:
            return REJECT, transcript
    return ACCEPT, transcript


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


def _plane_density(params, corruption, plane, rng, samples) -> DensityBound:
    n = params.ctx.n
    if n * n <= PLANE_EXACT_LIMIT:
        codes = plane_codes(params, plane)
        return DensityBound.from_exact(
            int(corruption.corrupt_mask(codes).sum()), n * n
        )
    npr = np.random.Generator(np.random.PCG64(rng.randrange(2**63)))
    jj = npr.integers(0, n, size=samples)
    kk = npr.integers(0, n, size=samples)
    codes = plane_codes_at(params, plane, jj, kk)
    return DensityBound.from_sample(int(corruption.corrupt_mask(codes).sum()), samples)


def violation_check_planted(
    params: RmParams,
    corruption: PointCorruption,
    transcript: WalkTranscript,
    alpha: Fraction,
    rng,
    plane_samples: int = DEFAULT_PLANE_SAMPLES,
) -> RobustVerdict:
    """Certified verdict against the planted close codeword.

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
        pb = _plane_density(params, corruption, plane, rng, plane_samples)
        eta_lo, eta_hi = pb.as_fractions()
        if i == 0:
            hit = 1 if corruption.is_corrupt_code(point_code(ctx, transcript.xs[0])) else 0
            a_rate = Fraction(hit, 1)
            cnt = hit
        else:
            codes = line_codes(params, transcript.lines[i - 1])
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
    plane_dense: list  # True when the plane has >= (rho - 2 alpha) n^2 nonzeros
    p0_dense: bool
    e_flags: list
    f_flags: list


def step_events(
    params: RmParams,
    corruption: PointCorruption,
    transcript: WalkTranscript,
    alpha: Fraction,
    rng,
    plane_samples: int = DEFAULT_PLANE_SAMPLES,
) -> StepEvents:
    n = params.ctx.n
    rho = params.rho
    thresh = rho - 2 * alpha
    dense = []
    for plane in transcript.planes:
        pb = _plane_density(params, corruption, plane, rng, plane_samples)
        lo, hi = pb.as_fractions()
        if lo >= thresh:
            dense.append(True)
        elif hi < thresh:
            dense.append(False)
        else:
            dense.append(None)
    counts, e_flags, f_flags = [], [], []
    for i, line in enumerate(transcript.lines, start=1):
        cnt = int(corruption.corrupt_mask(line_codes(params, line)).sum())
        counts.append(cnt)
        line_heavy = Fraction(cnt, n) >= 2 * alpha
        e_flags.append(line_heavy and dense[i] is False)
        f_flags.append(line_heavy and dense[i] is True)
    return StepEvents(counts, dense[1:], dense[0] is True, e_flags, f_flags)


# ---------------------------------------------------------------------------
# Mixing experiment (endpoint distribution of the walk)


def mixing_exp(
    params: RmParams,
    corruption: PointCorruption,
    trials: int,
    rng,
    steps=None,
    start=None,
):
    """Estimate P[endpoint corrupted] against density + 2/|H|."""
    ctx = params.ctx
    hits = 0
    resample_total = 0
    for _ in range(trials):
        x = tuple(start) if start is not None else sample_point(ctx, rng)
        tr = walk_sample(params, x, steps, rng)
        s, sp = ctx.rand_element(rng), ctx.rand_element(rng)
        z = add_points(
            ctx,
            tr.xs[-1],
            add_points(
                ctx, scale_point(ctx, s, tr.h[-1]), scale_point(ctx, sp, tr.hp[-1])
            ),
        )
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
        "ok": freq_meets_ceiling(hits, trials, bound)[0],
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
        from .stats import chi_square_pvalue

        hist = {}
        singular = 0
        draws = 0
        while draws < trials:
            h = tuple(
                tuple(rng.randrange(p) for _ in range(m)) for _ in range(m)
            )
            t = tuple(
                tuple(rng.randrange(p) for _ in range(m)) for _ in range(m)
            )
            draws += 1
            if not _mat_invertible(h, p, m):
                singular += 1
                continue
            prod_m = _mat_mul(h, t, p, m)
            hist[prod_m] = hist.get(prod_m, 0) + 1
        kept = sum(hist.values())
        counts = [hist.get(a, 0) for a in _all_matrices(p, m)]
        pval = chi_square_pvalue(counts, [kept / total] * total)
        report.update(
            {
                "singular_fraction": Fraction(singular, draws),
                "conditional_draws": kept,
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
    pairs = []
    if mode == "exhaustive":
        if n > 16:
            raise ValueError("exhaustive line sampling is limited to |F| <= 16")
        space = [(a, b) for a in range(n) for b in range(n)]
        for x in space:
            for y in space:
                cnt = 0
                for t in range(n):
                    px = ctx.add(x[0], ctx.mul(t, y[0]))
                    py = ctx.add(x[1], ctx.mul(t, y[1]))
                    if a_mask[px + py * n]:
                        cnt += 1
                pairs.append(cnt)
    else:
        for _ in range(trials):
            x = (ctx.rand_element(rng), ctx.rand_element(rng))
            y = (ctx.rand_element(rng), ctx.rand_element(rng))
            cnt = 0
            for t in range(n):
                px = ctx.add(x[0], ctx.mul(t, y[0]))
                py = ctx.add(x[1], ctx.mul(t, y[1]))
                if a_mask[px + py * n]:
                    cnt += 1
            pairs.append(cnt)
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
