"""A concrete, correctable canonical proof system for plane languages.

The languages are the augmented bivariate codes: a plane word followed
by repetitions of its value at a point, or of its restriction to the
anchor line.  The canonical proof for a member is R identical copies of
the graded-lex coefficient vector of the unique underlying polynomial;
the verifier spot-checks copy consistency and word/polynomial agreement,
and the local corrector repairs a proof symbol by majority over the
other copies.

This replaces the black-box proof systems the construction is usually
composed with.  Its query complexity grows with d^2 instead of being
constant; every report carries the measured counts next to the
idealized ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .rm import (
    AugmentedWord,
    LINE_KIND,
    POINT_KIND,
    RmParams,
    evaluate,
    is_low_degree_on_plane,
)


class _Bottom:
    """Abort sentinel, distinct from every field symbol (rendered '!')."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BOT"


BOT = _Bottom()


@dataclass(frozen=True)
class PcppParams:
    """q_v spot-check rounds over R = 9 repeated coefficient blocks."""

    q_v: int
    rho_prox: Fraction = Fraction(1, 8)
    repetitions: ClassVar[int] = 9

    def __post_init__(self):
        if self.q_v < 1:
            raise ValueError("q_v must be >= 1")
        if not 0 < self.rho_prox < 1:
            raise ValueError("proximity parameter must lie in (0, 1)")

    def proof_length(self, params2d: RmParams) -> int:
        return self.repetitions * params2d.k


def canonical_proof(params2d: RmParams, pcpp: PcppParams, member: AugmentedWord):
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


def build_proof(params2d: RmParams, pcpp: PcppParams, tri):
    if len(tri) != params2d.k:
        raise ValueError("coefficient vector has the wrong length")
    return tuple(tri) * pcpp.repetitions


class QueryCounter:
    __slots__ = ("word", "proof")

    def __init__(self):
        self.word = 0
        self.proof = 0


def verify_proximity(
    params2d: RmParams,
    pcpp: PcppParams,
    word_read,
    proof_read,
    kind: str,
    rng,
    counter: QueryCounter | None = None,
) -> bool:
    """q_v rounds of copy cross-checks plus base and tail spot checks.

    word_read(i) reads one symbol of the plane grid [0, n^2), which
    backs every tail coordinate too.  proof_read(lo, hi) returns the
    proof symbols at [lo, hi) of [0, R*K): check (b) reads its whole
    coefficient copy as one span, checks (a) read spans of length 1.
    The counter still counts every symbol read.  Accepts iff every check
    in every round passes.  Canonical pairs pass every possible check, so
    completeness is exact.
    """
    if kind not in (POINT_KIND, LINE_KIND):
        raise ValueError(f"unknown augmentation kind {kind!r}")
    n = params2d.ctx.n
    k = params2d.k
    rep = pcpp.repetitions
    if counter is None:
        counter = QueryCounter()
    for _ in range(pcpp.q_v):
        # (a) one coefficient position across two distinct copies
        pos = rng.randrange(k)
        ca = rng.randrange(rep)
        cb = (ca + 1 + rng.randrange(rep - 1)) % rep
        counter.proof += 2
        a, b = ca * k + pos, cb * k + pos
        if proof_read(a, a + 1)[0] != proof_read(b, b + 1)[0]:
            return False
        # (b) one base point against one copy's polynomial
        u = rng.randrange(rep)
        copy_u = proof_read(u * k, (u + 1) * k)
        counter.proof += k
        j, s = rng.randrange(n), rng.randrange(n)
        counter.word += 1
        if word_read(j * n + s) != evaluate(params2d, copy_u, (j, s)):
            return False
        # (c) one tail coordinate against the same copy's implied value;
        # the tail repeats (0, 0) for the point kind, the anchor line (t, 0)
        # for the line kind
        tail = rng.randrange(n * n)
        t = tail % n if kind == LINE_KIND else 0
        counter.word += 1
        if word_read(t * n) != evaluate(params2d, copy_u, (t, 0)):
            return False
    return True


def correct_proof_symbol(
    params2d: RmParams,
    pcpp: PcppParams,
    word_read,
    proof_read,
    offset: int,
    kind: str,
    rng,
    counter: QueryCounter | None = None,
):
    """Repair one proof symbol: majority over the other copies, gated
    by one verifier run.  The readers are verify_proximity's.  Returns
    the symbol or BOT."""
    k = params2d.k
    rep = pcpp.repetitions
    if not 0 <= offset < rep * k:
        raise ValueError("proof offset out of range")
    own = offset // k
    pos = offset % k
    votes = {}
    if counter is None:
        counter = QueryCounter()
    for c in range(rep):
        if c == own:
            continue
        v = int(proof_read(c * k + pos, c * k + pos + 1)[0])
        counter.proof += 1
        votes[v] = votes.get(v, 0) + 1
    best_val, best_cnt = max(votes.items(), key=lambda kv: (kv[1], -kv[0]))
    strict = sum(votes.values()) - best_cnt < best_cnt
    ok = verify_proximity(params2d, pcpp, word_read, proof_read, kind, rng, counter)
    if ok and strict:
        return best_val
    return BOT


def query_budget(params2d: RmParams, pcpp: PcppParams):
    """Worst-case (word, proof) reads of one verifier call."""
    return 2 * pcpp.q_v, pcpp.q_v * (2 + params2d.k)
