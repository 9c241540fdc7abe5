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

The honest codeword is a function, never a table, above tiny sizes:
``CanonicalOracle`` computes each symbol on demand, one RM point or one
whole proof block at a time.  Corruption is an overlay predicate
(``Overlay``: keyed noise per region plus point flips in every RM copy),
so the distance to the codeword is controlled by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial, partialmethod
from math import log
from typing import Callable, NamedTuple

import numpy as np

from .gf import Field
from .geometry import (
    PlaneRep,
    codes_of,
    normalize_direction,
    plane_point_at,
    point_code,
    point_from_code,
    points_at,
    projective_count,
    projective_rank,
    projective_unrank,
    spans_plane,
)
from .pcpp import (
    BOT,
    PcppParams,
    QueryCounter,
    correct_proof_symbol,
    query_budget,
    verify_proximity,
)
from .prf import KeyedNoise, chain
from .rm import (
    LINE_KIND,
    POINT_KIND,
    PlaneRestrictor,
    RmParams,
    eval_table,
    evaluate,
    interpolate_lattice,
)
from .ctrw import walk_sample

MATERIALIZE_LIMIT = 50_000_000
# proof keys per chunk of materialize's (dir1, dir2) pairs
CHUNK = 1 << 12
# LRU bounds of the lazy oracle's memos.  A correction rereads only the
# m + 2 or fewer proof blocks it touches, and independent corrections at
# S1 share almost none, so 32 blocks (about 0.6 MB at S1, 20 kB a block)
# lose no hit that 256 would keep: 600 s1-alg2-walk trials hit the same
# 25,986 times with 16, 32 or 256, and 256 held 4.4 MB more at the end.
# 2^15 points hold all of T3's 19,683; at S1 points rarely repeat, and
# 1,500 s1-alg2-walk trials hit 2,927 times with 2^15 or 2^16 alike
POINT_MEMO = 1 << 15
PROOF_MEMO = 32

RM_REGION = "rm"
# a proof region is named by the kind of the plane language its blocks
# prove, so the region is also the verifier's kind
POINT_REGION = POINT_KIND
LINE_REGION = LINE_KIND


class KeyTable(NamedTuple):
    """Where a proof region's blocks start, and its dir1 table."""

    base: int
    dir1_count: int
    dir1_of: Callable  # index -> vector
    dir1_index: Callable  # vector -> index


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
    def proof_len(self) -> int:
        return self.pcpp.proof_length(self.rm.bivariate())

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

    def block_address(self, region: str, key_idx: int) -> int:
        """First address of a proof key's block."""
        return self.key_tables[region].base + key_idx * self.proof_len

    # -- proof keys --------------------------------------------------------------

    @cached_property
    def key_tables(self):
        """The KeyTable of each proof region.  dir2 is an H^m vector,
        indexed by the code of the element of F with those coefficients.
        Point keys draw dir1 from H^m too; line keys from the projective
        representatives of F^m."""
        ctx = self.ctx
        return {
            POINT_REGION: KeyTable(
                self.point_region_base, self.h_count, ctx.coeffs_of, ctx.code_of
            ),
            LINE_REGION: KeyTable(
                self.line_region_base,
                projective_count(ctx),
                partial(projective_unrank, ctx),
                partial(projective_rank, ctx),
            ),
        }

    def key_index(self, region: str, anchor_code: int, d1: int, d2: int) -> int:
        """Pack (anchor code, dir1 index, dir2 index) into a key index."""
        dir1_count = self.key_tables[region].dir1_count
        return (anchor_code * dir1_count + d1) * self.h_count + d2

    def key_fields(self, region: str, key_idx: int):
        """Key index (or index array) -> (anchor code, dir1, dir2 index)."""
        rest, d2 = divmod(key_idx, self.h_count)
        anchor, d1 = divmod(rest, self.key_tables[region].dir1_count)
        return anchor, d1, d2

    def key_plane(self, region: str, key_idx: int):
        """(plane-or-None, anchor); None when the key is degenerate."""
        ctx = self.ctx
        a, d1, d2 = self.key_fields(region, key_idx)
        u = self.key_tables[region].dir1_of(d1)
        v = ctx.coeffs_of(d2)
        anchor = point_from_code(ctx, a)
        if not spans_plane(ctx, u, v):
            return None, anchor
        return PlaneRep.make(ctx, anchor, u, v), anchor

    def key_of(self, region: str, plane: PlaneRep):
        """(key index, key plane) of a walk plane.  Point keys keep the
        raw H^m directions; line keys normalize dir1 projectively, so
        the planes over Line(x, u) and Line(x, c*u) share one key.  A
        direction outside the region's table raises ValueError."""
        ctx = self.ctx
        if region == LINE_REGION:
            dir1 = normalize_direction(ctx, plane.dir1)
            plane = PlaneRep.make(ctx, plane.anchor, dir1, plane.dir2)
        key_idx = self.key_index(
            region,
            point_code(ctx, plane.anchor),
            self.key_tables[region].dir1_index(plane.dir1),
            ctx.code_of(plane.dir2),
        )
        return key_idx, plane

    # the benchmark's S1 encode workload draws point keys by these names
    point_key_index = partialmethod(key_index, POINT_REGION)
    point_key_plane = partialmethod(key_plane, POINT_REGION)


# ---------------------------------------------------------------------------
# Oracles


def _point_value(layout: ComposedLayout, coeffs, pcode: int) -> int:
    return int(evaluate(layout.rm, coeffs, point_from_code(layout.ctx, pcode)))


def _proof_block(layout: ComposedLayout, restrictor, region: str, key_idx: int):
    """build_proof of the key plane's restriction, R copies of the
    triangle, tiled as int32."""
    plane, _ = layout.key_plane(region, key_idx)
    if plane is None:
        block = np.zeros(layout.proof_len, dtype=np.int32)
    else:
        tri = restrictor.restrict(plane).astype(np.int32)
        block = np.tile(tri, layout.pcpp.repetitions)
    # read_span hands out views of the memoized block
    block.flags.writeable = False
    return block


class CanonicalOracle:
    """Lazy honest codeword of a message: reads compute symbols on demand.

    The message is held as an int64 coefficient array, and copied once
    more by the rm.PlaneRestrictor that builds its proof blocks, which
    also keeps the message's slices.  Point values and proof blocks are
    kept in bounded LRU memos; both are pure functions of their key, so
    an evicted entry recomputes to the same value.  The point memo holds
    every point of the T1-T3 codes.
    """

    def __init__(self, layout: ComposedLayout, message):
        self.layout = layout
        coeffs = np.array(message, dtype=np.int64)
        if coeffs.shape != (layout.rm.k,):
            raise ValueError(f"message length must be {layout.rm.k}")
        # the memos hold the layout and the message, not the oracle: a
        # bound method would make a cycle that keeps a dropped oracle
        # and its message alive until the cyclic collector runs
        self._points = lru_cache(maxsize=POINT_MEMO)(
            partial(_point_value, layout, coeffs)
        )
        # the restrictor's slices fill on first use, not here
        self._proofs = lru_cache(maxsize=PROOF_MEMO)(
            partial(_proof_block, layout, PlaneRestrictor(layout.rm, coeffs))
        )

    def point_value(self, pcode: int) -> int:
        return self._points(pcode)

    def proof_block(self, region: str, key_idx: int):
        return self._proofs(region, key_idx)

    def read(self, addr: int) -> int:
        region, a, b = self.layout.decode(addr)
        if region == RM_REGION:
            return self.point_value(b)
        return int(self.proof_block(region, a)[b])

    def read_span(self, lo: int, hi: int) -> np.ndarray:
        """Symbols at [lo, hi), a read-only view of one memoized proof
        block.  A span that leaves one proof block raises ValueError."""
        region, a, b = self.layout.decode(lo)
        if region == RM_REGION or not b < b + hi - lo <= self.layout.proof_len:
            raise ValueError("a span must lie inside one proof block")
        return self.proof_block(region, a)[b : b + hi - lo]


def materialize(layout: ComposedLayout, message) -> np.ndarray:
    """Full codeword as an int16 array (tiny layouts only)."""
    if layout.length > MATERIALIZE_LIMIT:
        raise ValueError("layout too large to materialize")
    rm_tab = eval_table(layout.rm, tuple(message))
    out = np.empty(layout.length, dtype=np.int16)
    # broadcast assignments into views of out: no tiled temporaries
    out[: layout.rm_length].reshape(layout.repetitions, -1)[:] = rm_tab
    step = max(1, CHUNK // layout.rm_points)
    for region in (POINT_REGION, LINE_REGION):
        pairs = layout.key_tables[region].dir1_count * layout.h_count
        # key i < pairs is (dir1, dir2) pair i at anchor 0
        planes = [layout.key_plane(region, i)[0] for i in range(pairs)]
        live = [i for i, plane in enumerate(planes) if plane is not None]
        lo = layout.block_address(region, 0)
        blocks = out[lo : lo + layout.rm_points * pairs * layout.proof_len]
        blocks = blocks.reshape(layout.rm_points, pairs, layout.proof_len)
        for i in range(0, len(live), step):
            chunk = live[i : i + step]
            values = rm_tab[lattice_codes(layout, [planes[j] for j in chunk])]
            tris = interpolate_lattice(layout.rm.bivariate(), values)
            # side by side, not broadcast: a broadcast copy's inner loop
            # is one k_2-symbol copy, and at T2 took 3x as long
            blocks[:, chunk] = np.tile(tris, layout.pcpp.repetitions)
        blocks[:, [plane is None for plane in planes]] = 0
    return out


def lattice_codes(layout: ComposedLayout, planes) -> np.ndarray:
    """Point codes of the k_2 degree-lattice points of the planes with
    the given planes' directions through every anchor, shape
    (rm_points, len(planes), k_2): point_code(plane_point_at(..., j, k))
    for (j, k) in monomial_basis(2, d) order, which interpolate_lattice
    reads.  The anchors run over F^m in point-code order, so coordinate
    c of lattice point (j, k) is an n-entry row x -> x + w_c from
    points_at, and the m rows add up to point codes as an outer sum."""
    ctx, n = layout.ctx, layout.ctx.n
    u = np.array([plane.dir1 for plane in planes]).T[..., None]
    v = np.array([plane.dir2 for plane in planes]).T[..., None]
    js, ks = np.array(layout.rm.bivariate().basis).T
    rows = points_at(ctx, (np.arange(n)[:, None, None],) * ctx.m, (u, v), (js, ks))
    # coordinate c on anchor axis -3 - c: codes run with coordinate 0 fastest
    axes = [r.reshape((n,) + (1,) * c + r.shape[1:]) for c, r in enumerate(rows)]
    return codes_of(ctx, axes).reshape(layout.rm_points, len(planes), -1)


# ---------------------------------------------------------------------------
# Corruption overlays


class Overlay:
    """Deterministic adversary over composed addresses.

    Rules, in precedence order: targeted point flips in every RM copy,
    then keyed noise (``prf.KeyedNoise``, one key for every region) at a
    per-region rate.  The support is exactly the set of addresses whose
    read differs from the base oracle.
    """

    def __init__(self, layout: ComposedLayout, seed: int):
        self.layout = layout
        self._prefix = chain(seed, 0x0C)
        self._salt = chain(seed, 0x5A)
        self._noise = {}
        self._flips = {}  # point code -> shift, in every RM copy

    def add_region_random(self, rate: float, regions=(RM_REGION, POINT_REGION, LINE_REGION)):
        noise = KeyedNoise(self._prefix, self._salt, rate, self.layout.ctx.n)
        for r in regions:
            self._noise[r] = noise
        return self

    def add_targeted_point(self, point, delta: int = 1):
        """Shift the point's symbol by delta (mod n) in every RM copy."""
        if delta % self.layout.ctx.n == 0:
            raise ValueError("targeted delta must be nonzero")
        self._flips[point_code(self.layout.ctx, point)] = delta
        return self

    def replacement(self, addr: int, base: int) -> int | None:
        """Corrupted symbol at addr, or None when the address is clean."""
        region, _, b = self.layout.decode(addr)
        if region == RM_REGION and b in self._flips:
            return (base + self._flips[b]) % self.layout.ctx.n
        noise = self._noise.get(region)
        if noise is not None and noise.hit(addr):
            return noise.replacement(addr, base)
        return None

    def replace_span(self, lo: int, symbols: np.ndarray) -> np.ndarray:
        """The symbols of the proof-region span starting at lo, as read
        through the overlay: the same array when nothing in it is hit,
        else a copy.  Targeted flips lie in the RM region, so only the
        region's keyed noise can hit a proof span."""
        noise = self._noise.get(self.layout.decode(lo)[0])
        if noise is None:
            return symbols
        hits = np.flatnonzero(noise.range_mask(lo, lo + len(symbols))).tolist()
        if not hits:
            return symbols
        out = symbols.copy()
        for i in hits:
            out[i] = noise.replacement(lo + i, int(out[i]))
        return out

    def _spans(self):
        """(region, first address, size) of each region."""
        layout = self.layout
        return (
            (RM_REGION, 0, layout.rm_length),
            (POINT_REGION, layout.point_region_base, layout.point_keys * layout.proof_len),
            (LINE_REGION, layout.line_region_base, layout.line_keys * layout.proof_len),
        )

    def expected_fraction(self) -> float:
        """Expected corrupted fraction of the whole word."""
        layout = self.layout
        sizes = {region: size for region, _, size in self._spans()}
        total = sum(sizes[r] * noise.rate for r, noise in self._noise.items())
        total += len(self._flips) * layout.repetitions
        return total / layout.length

    def apply_to_array(self, word: np.ndarray) -> dict:
        """Corrupt a materialized word in place; returns exact counts."""
        layout = self.layout
        counts = {}
        for region, base, size in self._spans():
            noise = self._noise.get(region)
            if noise is not None and size:
                counts[region] = noise.apply(base, base + size, word)
        for pcode, delta in self._flips.items():
            idx = np.arange(layout.repetitions, dtype=np.int64) * layout.rm_points + pcode
            word[idx] = (word[idx] + delta) % layout.ctx.n
        counts["targeted"] = len(self._flips) * layout.repetitions
        return counts


class OverlayOracle:
    def __init__(self, base: CanonicalOracle, overlay: Overlay):
        self.base = base
        self.overlay = overlay

    def read(self, addr: int) -> int:
        symbol = self.base.read(addr)
        repl = self.overlay.replacement(addr, symbol)
        return symbol if repl is None else repl

    def read_span(self, lo: int, hi: int) -> np.ndarray:
        """Symbols at [lo, hi) inside one proof block, overlay applied."""
        return self.overlay.replace_span(lo, self.base.read_span(lo, hi))


def span_reader(read, base: int):
    """(lo, hi) -> the symbols at [base + lo, base + hi), from a symbol
    reader.

    The bound ``read`` of a word that also serves spans reads through
    its ``read_span``; any other reader is called once per symbol.
    """
    word = getattr(read, "__self__", None)
    if hasattr(word, "read_span") and read == word.read:
        return lambda lo, hi: word.read_span(base + lo, base + hi)
    return lambda lo, hi: list(map(read, range(base + lo, base + hi)))


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
    transcript = walk_sample(layout.rm, x, rng)
    if not _verify_walk(layout, read, copy, transcript, rng, counter):
        return BOT
    counter.word += 1
    return read(layout.rm_address(copy, pcode))


def _verify_walk(layout, read, copy, transcript, rng, counter) -> bool:
    """The m+1 proof verifications of Algorithm 2's walk: the point
    proof of the first plane, then the line proof of every walk plane."""
    for i, plane in enumerate(transcript.planes):
        region = LINE_REGION if i else POINT_REGION
        key_idx, plane = layout.key_of(region, plane)
        if _verify_plane(layout, read, copy, region, key_idx, plane, rng, counter) is None:
            return False
    return True


def _verify_plane(layout, read, copy, region, key_idx, plane, rng, counter):
    """Run the verifier on a key's proof block against the key plane's
    points in RM copy ``copy``.  Returns the (word_read, proof_read)
    pair it read through when it accepts, None when it rejects."""
    ctx = layout.ctx
    n = ctx.n
    cache = {}
    proof_read = span_reader(read, layout.block_address(region, key_idx))

    def word_read(i):
        got = cache.get(i)
        if got is None:
            pt = plane_point_at(ctx, plane, i // n, i % n)
            got = read(layout.rm_address(copy, point_code(ctx, pt)))
            cache[i] = got
        return got

    if not verify_proximity(
        layout.rm.bivariate(), layout.pcpp, word_read, proof_read, region, rng,
        counter=counter,
    ):
        return None
    return word_read, proof_read


# ---------------------------------------------------------------------------
# Algorithm 3: correcting a proof-region symbol


def correct_proof(layout: ComposedLayout, read, addr: int, rng, counter=None):
    """Verify the owning proof, re-run the walk from inside its plane,
    then repair the symbol by majority across copies."""
    region, key_idx, offset = layout.decode(addr)
    if region == RM_REGION:
        raise ValueError("address is not in a proof region")
    ctx = layout.ctx
    if counter is None:
        counter = QueryCounter()
    plane, _ = layout.key_plane(region, key_idx)
    if plane is None:
        # degenerate-key blocks are fixed all-zero filler, independent of
        # the message, so the honest symbol is known without any query
        return 0
    copy = rng.randrange(layout.repetitions)
    readers = _verify_plane(layout, read, copy, region, key_idx, plane, rng, counter)
    if readers is None:
        return BOT
    n = ctx.n
    j, k = rng.randrange(n), rng.randrange(n)
    x0 = plane_point_at(ctx, plane, j, k)
    transcript = walk_sample(layout.rm, x0, rng)
    if not _verify_walk(layout, read, copy, transcript, rng, counter):
        return BOT
    return correct_proof_symbol(
        layout.rm.bivariate(), layout.pcpp, *readers, offset, region, rng,
        counter=counter,
    )


# ---------------------------------------------------------------------------
# Accounting reports


def block_length_report(layout: ComposedLayout) -> dict:
    rm = layout.rm
    k = rm.k
    n_total = layout.length
    rate = Fraction(k, n_total)
    word_queries, proof_queries = query_budget(rm.bivariate(), layout.pcpp)
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
        "verifier_word_queries": word_queries,
        "verifier_proof_queries": proof_queries,
    }
