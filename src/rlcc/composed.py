"""The composed code: repeated RM evaluations plus two proof regions.

Layout.  Addresses [0, r * n^m) hold r copies of the RM evaluation
table.  Next comes one proof block of length L per point-proof key
(anchor in F^m, dir1 and dir2 raw vectors of the embedded H^m), then
one block per line-proof key (anchor in F^m, dir1 a normalized
projective representative of F^m, dir2 raw in H^m).  Each block is the
canonical proof of the restriction of the message polynomial to the
keyed plane: R copies of its bivariate coefficient vector.

Keys whose directions are zero or dependent do not describe a plane;
their blocks exist (the enumeration is the full product space, which is
what the predicate-count accounting assumes) and hold zeros.  The walk
never queries them because its sampler resamples degenerate draws, and
the proof corrector returns the fixed content for them directly since
those coordinates do not depend on the message.

The honest codeword is a function, never a table, above tiny sizes;
corruption is an overlay predicate, so the distance to the codeword is
controlled by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import comb, log

import numpy as np

from .gf import Field
from .geometry import (
    PlaneKey,
    PlaneRep,
    REGION_LINE,
    REGION_POINT,
    canonical_plane_key,
    h_vector_from_index,
    h_vector_index,
    plane_point_at,
    point_code,
    point_from_code,
    projective_count,
    projective_rank,
    projective_unrank,
    spans_plane,
)
from .pcpp import (
    BOT,
    PcppParams,
    QueryCounter,
    build_proof,
    correct_proof_symbol,
    verify_proximity,
)
from .prf import chain, chain_vec, threshold_of
from .rm import (
    LINE_KIND,
    POINT_KIND,
    RmParams,
    eval_table,
    evaluate,
    restrict_to_plane,
    restriction_triangles,
)
from .ctrw import walk_sample

MATERIALIZE_LIMIT = 50_000_000
# the lazy oracle tabulates the RM region up to this many points
TABLE_POINTS = 1_000_000
# LRU bounds of the lazy oracle's memos; an S1 proof block is about 20 kB
POINT_MEMO = 1 << 16
PROOF_MEMO = 4096

RM_REGION = "rm"
POINT_REGION = "point"
LINE_REGION = "line"


@dataclass(frozen=True)
class ComposedLayout:
    rm: RmParams
    pcpp: PcppParams

    def __post_init__(self):
        if self.rm.dim != self.rm.ctx.m:
            raise ValueError("composed code needs RM dimension equal to [F:H]")

    # -- sizes ---------------------------------------------------------------

    @property
    def ctx(self) -> Field:
        return self.rm.ctx

    @cached_property
    def coeff_len(self) -> int:
        return comb(self.rm.d + 2, 2)

    @cached_property
    def proof_len(self) -> int:
        return self.pcpp.repetitions * self.coeff_len

    @cached_property
    def rm_points(self) -> int:
        return self.ctx.n**self.ctx.m

    @cached_property
    def h_count(self) -> int:
        return self.ctx.p**self.ctx.m

    @cached_property
    def point_keys(self) -> int:
        return self.rm_points * self.h_count**2

    @cached_property
    def line_keys(self) -> int:
        return self.rm_points * projective_count(self.ctx) * self.h_count

    @cached_property
    def predicate_count(self) -> int:
        return self.point_keys + self.line_keys

    @property
    def paper_predicate_bound(self) -> int:
        return 2 * self.rm_points * self.h_count**2 * self.ctx.n**2

    @cached_property
    def repetitions(self) -> int:
        return max(1, -(-self.predicate_count * self.proof_len // self.rm_points))

    @cached_property
    def rm_length(self) -> int:
        return self.repetitions * self.rm_points

    @cached_property
    def point_region_base(self) -> int:
        return self.rm_length

    @cached_property
    def line_region_base(self) -> int:
        return self.rm_length + self.point_keys * self.proof_len

    @cached_property
    def length(self) -> int:
        return self.line_region_base + self.line_keys * self.proof_len

    @property
    def paper_length_bound(self) -> int:
        return self.rm_points + 2 * self.paper_predicate_bound * self.proof_len

    # -- address codecs --------------------------------------------------------

    def rm_address(self, copy: int, pcode: int) -> int:
        return copy * self.rm_points + pcode

    def point_key_index(self, anchor_code: int, d1_idx: int, d2_idx: int) -> int:
        return (anchor_code * self.h_count + d1_idx) * self.h_count + d2_idx

    def line_key_index(self, anchor_code: int, rank: int, d2_idx: int) -> int:
        return (
            anchor_code * projective_count(self.ctx) + rank
        ) * self.h_count + d2_idx

    def decode(self, addr: int):
        """Address -> (region, ...); bijective over [0, N)."""
        if not 0 <= addr < self.length:
            raise IndexError("address out of range")
        if addr < self.rm_length:
            return (RM_REGION, addr // self.rm_points, addr % self.rm_points)
        if addr < self.line_region_base:
            off = addr - self.point_region_base
            return (POINT_REGION, off // self.proof_len, off % self.proof_len)
        off = addr - self.line_region_base
        return (LINE_REGION, off // self.proof_len, off % self.proof_len)

    def point_key_fields(self, key_idx: int):
        d2 = key_idx % self.h_count
        key_idx //= self.h_count
        d1 = key_idx % self.h_count
        return key_idx // self.h_count, d1, d2

    def line_key_fields(self, key_idx: int):
        d2 = key_idx % self.h_count
        key_idx //= self.h_count
        proj = projective_count(self.ctx)
        return key_idx // proj, key_idx % proj, d2

    # -- key geometry ------------------------------------------------------------

    def point_key_plane(self, key_idx: int):
        """(plane-or-None, anchor); None when the key is degenerate."""
        ctx = self.ctx
        a, d1, d2 = self.point_key_fields(key_idx)
        return _key_plane(
            ctx, a, h_vector_from_index(ctx, d1), h_vector_from_index(ctx, d2)
        )

    def line_key_plane(self, key_idx: int):
        ctx = self.ctx
        a, rank, d2 = self.line_key_fields(key_idx)
        return _key_plane(
            ctx, a, projective_unrank(ctx, rank), h_vector_from_index(ctx, d2)
        )

    def point_key_index_of(self, plane: PlaneRep) -> int:
        """Index of the raw point-proof key of an H-plane."""
        if not plane.is_h_plane:
            raise ValueError("point-proof keys require an H-plane")
        ctx = self.ctx
        return self.point_key_index(
            point_code(ctx, plane.anchor),
            h_vector_index(ctx, plane.dir1),
            h_vector_index(ctx, plane.dir2),
        )

    def line_key_index_of(self, key: PlaneKey) -> int:
        ctx = self.ctx
        return self.line_key_index(
            point_code(ctx, key.anchor),
            projective_rank(ctx, key.dir1),
            h_vector_index(ctx, key.dir2),
        )


def _key_plane(ctx: Field, anchor_code: int, u, v):
    anchor = point_from_code(ctx, anchor_code)
    if not spans_plane(ctx, u, v):
        return None, anchor
    return PlaneRep.make(ctx, anchor, u, v), anchor


# ---------------------------------------------------------------------------
# Oracles


def _point_value(layout: ComposedLayout, coeffs, pcode: int) -> int:
    return evaluate(layout.rm, coeffs, point_from_code(layout.ctx, pcode))


def _proof_block(layout: ComposedLayout, coeffs, region: str, key_idx: int):
    plane, _ = (
        layout.point_key_plane(key_idx)
        if region == POINT_REGION
        else layout.line_key_plane(key_idx)
    )
    if plane is None:
        return np.zeros(layout.proof_len, dtype=np.int32)
    tri = restrict_to_plane(layout.rm, coeffs, plane)
    return np.array(
        build_proof(layout.rm.bivariate(), layout.pcpp, tri), dtype=np.int32
    )


class CanonicalOracle:
    """Lazy honest codeword of a message: reads compute symbols on demand.

    Point values (when the RM table is not built) and proof blocks are
    kept in bounded LRU memos; both are pure functions of their key, so
    an evicted entry recomputes to the same value.
    """

    def __init__(self, layout: ComposedLayout, message):
        self.layout = layout
        self.coeffs = tuple(message)
        if len(self.coeffs) != layout.rm.k:
            raise ValueError(f"message length must be {layout.rm.k}")
        self._table = None
        if layout.rm_points <= TABLE_POINTS:
            self._table = eval_table(layout.rm, self.coeffs)
        # the memos hold the layout and the message, not the oracle: a
        # bound method would make a cycle that keeps a dropped oracle
        # and its message alive until the cyclic collector runs
        self._points = lru_cache(maxsize=POINT_MEMO)(
            partial(_point_value, layout, self.coeffs)
        )
        self._proofs = lru_cache(maxsize=PROOF_MEMO)(
            partial(_proof_block, layout, self.coeffs)
        )

    def point_value(self, pcode: int) -> int:
        if self._table is not None:
            return int(self._table[pcode])
        return self._points(pcode)

    def proof_block(self, region: str, key_idx: int):
        return self._proofs(region, key_idx)

    def read(self, addr: int) -> int:
        region, a, b = self.layout.decode(addr)
        if region == RM_REGION:
            return self.point_value(b)
        return int(self.proof_block(region, a)[b])


def materialize(layout: ComposedLayout, message) -> np.ndarray:
    """Full codeword as an int16 array (tiny layouts only)."""
    if layout.length > MATERIALIZE_LIMIT:
        raise ValueError("layout too large to materialize")
    rm_tab = eval_table(layout.rm, tuple(message))
    out = np.empty(layout.length, dtype=np.int16)
    # broadcast assignments into views of out: no tiled temporaries
    out[: layout.rm_length].reshape(layout.repetitions, -1)[:] = rm_tab
    for region, base in (
        (POINT_REGION, layout.point_region_base),
        (LINE_REGION, layout.line_region_base),
    ):
        tris = _batched_proofs(layout, rm_tab, region)
        blocks = out[base : base + len(tris) * layout.proof_len]
        blocks.reshape(len(tris), -1, layout.coeff_len)[:] = tris[:, None, :]
    return out


def _batched_proofs(layout, rm_tab, region) -> np.ndarray:
    """Coefficient triangles of every key in a region, degenerate keys zero.

    Vectorized: gathers each live key's (d+1)^2 subgrid from the RM table
    and interpolates all keys at once.
    """
    live, codes = key_subgrids(layout, region)
    tris = np.zeros((live.size, layout.coeff_len), dtype=np.int64)
    if codes.size:
        grids = np.asarray(rm_tab, dtype=np.int64)[codes]
        tris[live] = restriction_triangles(layout.rm.bivariate(), grids)
    return tris


def key_subgrids(layout: ComposedLayout, region: str):
    """Live mask over every key of a proof region, and the point codes of
    each live key's (d+1)^2 subgrid, shape (live, d+1, d+1).

    The numpy form of point_key_plane / line_key_plane followed by
    point_code(plane_point_at(plane, j, k)) for j, k <= d.
    """
    ctx = layout.ctx
    dir2 = [h_vector_from_index(ctx, i) for i in range(layout.h_count)]
    if region == POINT_REGION:
        dir1 = dir2
    else:
        dir1 = [projective_unrank(ctx, r) for r in range(projective_count(ctx))]
    spans = np.array([[spans_plane(ctx, u, v) for v in dir2] for u in dir1])
    count = layout.rm_points * spans.size
    rest, d2 = np.divmod(np.arange(count, dtype=np.int64), len(dir2))
    anchor, d1 = np.divmod(rest, len(dir1))
    live = spans[d1, d2]
    anchor, d1, d2 = anchor[live], d1[live], d2[live]
    size = layout.rm.d + 1

    def multiples(dirs):
        # (m, len(dirs), d+1): coordinate i of elem(j) * u for j <= d
        dirs = np.array(dirs, dtype=np.int64).T
        return ctx.vec_mul(dirs[:, :, None], np.arange(size, dtype=np.int64))

    mult1, mult2 = multiples(dir1), multiples(dir2)
    codes = np.zeros((anchor.size, size, size), dtype=np.int64)
    # one coordinate at a time keeps the digit temporaries small
    for i in range(ctx.m):
        weight = ctx.n**i
        row = ctx.vec_add((anchor // weight % ctx.n)[:, None], mult1[i][d1])
        codes += ctx.vec_add(row[:, :, None], mult2[i][d2][:, None, :]) * weight
    return live, codes


# ---------------------------------------------------------------------------
# Corruption overlays


class Overlay:
    """Deterministic adversary over composed addresses.

    Rules, in precedence order: targeted point flips (optionally in
    every RM copy), then a keyed pseudorandom per-address selector with
    a per-region inclusion rate.  Replacement symbols are uniform among
    the other field values, so the support is exactly the set of
    addresses whose read differs from the base oracle.
    """

    def __init__(self, layout: ComposedLayout, seed: int):
        self.layout = layout
        self.seed = seed
        self._prefix = chain(seed, 0x0C)
        self._salt = chain(seed, 0x5A)
        self._rates = {}
        self._targets = {}
        self._target_all = {}

    def add_region_random(self, rate: float, regions=(RM_REGION, POINT_REGION, LINE_REGION)):
        for r in regions:
            self._rates[r] = threshold_of(rate), rate
        return self

    def add_targeted_point(self, point, delta: int = 1, copies="all"):
        pcode = point_code(self.layout.ctx, point)
        if delta % self.layout.ctx.n == 0:
            raise ValueError("targeted delta must be nonzero")
        if copies == "all":
            self._target_all[pcode] = delta
        else:
            self._targets[self.layout.rm_address(copies, pcode)] = delta
        return self

    def replacement(self, addr: int, base: int) -> int | None:
        """Corrupted symbol at addr, or None when the address is clean."""
        n = self.layout.ctx.n
        if addr in self._targets:
            return (base + self._targets[addr]) % n
        region, _, b = self.layout.decode(addr)
        if region == RM_REGION and self._target_all and b in self._target_all:
            return (base + self._target_all[b]) % n
        rate = self._rates.get(region)
        if rate is not None and chain(self._prefix, addr) < rate[0]:
            return (base + 1 + chain(self._salt, addr) % (n - 1)) % n
        return None

    def expected_fraction(self) -> float:
        """Expected corrupted fraction of the whole word."""
        layout = self.layout
        sizes = {
            RM_REGION: layout.rm_length,
            POINT_REGION: layout.point_keys * layout.proof_len,
            LINE_REGION: layout.line_keys * layout.proof_len,
        }
        total = sum(
            sizes[r] * rate for r, (_, rate) in self._rates.items()
        )
        total += len(self._targets) + len(self._target_all) * layout.repetitions
        return total / layout.length

    def apply_to_array(self, word: np.ndarray) -> dict:
        """Corrupt a materialized word in place; returns exact counts."""
        layout = self.layout
        n = layout.ctx.n
        counts = {}
        for region, base, size in (
            (RM_REGION, 0, layout.rm_length),
            (POINT_REGION, layout.point_region_base, layout.point_keys * layout.proof_len),
            (LINE_REGION, layout.line_region_base, layout.line_keys * layout.proof_len),
        ):
            rate = self._rates.get(region)
            if rate is None or size == 0:
                continue
            hit_total = 0
            for lo in range(base, base + size, 4_000_000):
                hi = min(lo + 4_000_000, base + size)
                addrs = np.arange(lo, hi, dtype=np.int64)
                mask = chain_vec(self._prefix, addrs) < rate[0]
                idx = addrs[mask]
                shift = 1 + chain_vec(self._salt, idx) % np.uint64(n - 1)
                word[idx] = (word[idx] + shift.astype(np.int64)) % n
                hit_total += int(mask.sum())
            counts[region] = hit_total
        for addr, delta in self._targets.items():
            word[addr] = (word[addr] + delta) % n
        for pcode, delta in self._target_all.items():
            idx = np.arange(layout.repetitions, dtype=np.int64) * layout.rm_points + pcode
            word[idx] = (word[idx] + delta) % n
        counts["targeted"] = len(self._targets) + len(self._target_all) * layout.repetitions
        return counts


class OverlayOracle:
    def __init__(self, base: CanonicalOracle, overlay: Overlay):
        self.base = base
        self.overlay = overlay

    def read(self, addr: int) -> int:
        symbol = self.base.read(addr)
        repl = self.overlay.replacement(addr, symbol)
        return symbol if repl is None else repl


# ---------------------------------------------------------------------------
# Algorithm 2: correcting an RM-region symbol


def correct_rm(layout: ComposedLayout, read, addr: int, rng, counter=None):
    """Walk from the queried point and gate the answer on every proof.

    Returns the sampled copy's value at the point when the point proof
    of the first plane and the line proofs of every walk plane all
    verify, BOT otherwise.  Never returns anything else.
    """
    region, _, pcode = layout.decode(addr)
    if region != RM_REGION:
        raise ValueError("address is not in the RM region")
    ctx = layout.ctx
    if counter is None:
        counter = QueryCounter()
    copy = rng.randrange(layout.repetitions)
    x = point_from_code(ctx, pcode)
    transcript = walk_sample(layout.rm, x, ctx.m, rng)
    if not _verify_walk(layout, read, copy, transcript, rng, counter):
        return BOT
    counter.word += 1
    return read(layout.rm_address(copy, pcode))


def _plane_word_reader(layout, read, copy, plane):
    ctx = layout.ctx
    n = ctx.n
    cache = {}

    def word_read(i):
        got = cache.get(i)
        if got is None:
            pt = plane_point_at(ctx, plane, i // n, i % n)
            got = read(layout.rm_address(copy, point_code(ctx, pt)))
            cache[i] = got
        return got

    return word_read


def _verify_walk(layout, read, copy, transcript, rng, counter) -> bool:
    """The m+1 proof verifications of Algorithm 2's walk."""
    ctx = layout.ctx
    params2d = layout.rm.bivariate()
    p0 = transcript.planes[0]
    key_idx = layout.point_key_index_of(p0)
    base = layout.point_region_base + key_idx * layout.proof_len
    ok = verify_proximity(
        params2d,
        layout.pcpp,
        _plane_word_reader(layout, read, copy, p0),
        _block_reader(read, base),
        POINT_KIND,
        rng,
        selector=(0, 0),
        counter=counter,
    )
    if not ok:
        return False
    for plane in transcript.planes[1:]:
        key, _ = canonical_plane_key(ctx, plane, REGION_LINE)
        canon = PlaneRep.make(ctx, key.anchor, key.dir1, key.dir2)
        key_idx = layout.line_key_index_of(key)
        base = layout.line_region_base + key_idx * layout.proof_len
        ok = verify_proximity(
            params2d,
            layout.pcpp,
            _plane_word_reader(layout, read, copy, canon),
            _block_reader(read, base),
            LINE_KIND,
            rng,
            counter=counter,
        )
        if not ok:
            return False
    return True


def _block_reader(read, base):
    def proof_read(off):
        return read(base + off)

    return proof_read


# ---------------------------------------------------------------------------
# Algorithm 3: correcting a proof-region symbol


def correct_proof(layout: ComposedLayout, read, addr: int, rng, counter=None):
    """Verify the owning proof, re-run the walk from inside its plane,
    then repair the symbol by majority across copies."""
    region, key_idx, offset = layout.decode(addr)
    if region == RM_REGION:
        raise ValueError("address is not in a proof region")
    ctx = layout.ctx
    params2d = layout.rm.bivariate()
    if counter is None:
        counter = QueryCounter()
    if region == POINT_REGION:
        plane, _ = layout.point_key_plane(key_idx)
        kind = POINT_KIND
        block = layout.point_region_base + key_idx * layout.proof_len
    else:
        plane, _ = layout.line_key_plane(key_idx)
        kind = LINE_KIND
        block = layout.line_region_base + key_idx * layout.proof_len
    if plane is None:
        # degenerate-key blocks are fixed all-zero filler, independent of
        # the message, so the honest symbol is known without any query
        return 0
    copy = rng.randrange(layout.repetitions)
    word_read = _plane_word_reader(layout, read, copy, plane)
    proof_read = _block_reader(read, block)
    if not verify_proximity(
        params2d, layout.pcpp, word_read, proof_read, kind, rng,
        selector=(0, 0), counter=counter,
    ):
        return BOT
    n = ctx.n
    j, k = rng.randrange(n), rng.randrange(n)
    x0 = plane_point_at(ctx, plane, j, k)
    transcript = walk_sample(layout.rm, x0, ctx.m, rng)
    if not _verify_walk(layout, read, copy, transcript, rng, counter):
        return BOT
    return correct_proof_symbol(
        params2d, layout.pcpp, word_read, proof_read, offset, kind, rng,
        selector=(0, 0), counter=counter,
    )


# ---------------------------------------------------------------------------
# Accounting reports


def block_length_report(layout: ComposedLayout) -> dict:
    rm = layout.rm
    k = rm.k
    n_total = layout.length
    rate = Fraction(k, n_total)
    return {
        "field": layout.ctx.descriptor,
        "m": layout.ctx.m,
        "d": rm.d,
        "k": k,
        "proof_len": layout.proof_len,
        "repetitions": layout.repetitions,
        "point_keys": layout.point_keys,
        "line_keys": layout.line_keys,
        "B_actual": layout.predicate_count,
        "B_paper": layout.paper_predicate_bound,
        "N": n_total,
        "N_paper_bound": layout.paper_length_bound,
        "rate": rate,
        "distance_lower_bound": rm.rho / 2,
        "exponent_actual": log(n_total) / log(k) if k > 1 else float("inf"),
        "exponent_paper": log(layout.paper_length_bound) / log(k)
        if k > 1
        else float("inf"),
        "query_paper_form": f"(m+3)*q_pcpp = {layout.ctx.m + 3}*q_pcpp",
        "verifier_word_queries": 2 * layout.pcpp.q_v,
        "verifier_proof_queries": layout.pcpp.q_v * (2 + layout.coeff_len),
    }


def sweep_report(entries) -> list:
    """entries: iterable of (Field, d, PcppParams); tabulates the bounds."""
    rows = []
    for ctx, d, pcpp in entries:
        layout = ComposedLayout(RmParams(ctx, ctx.m, d), pcpp)
        rows.append(block_length_report(layout))
    return rows
