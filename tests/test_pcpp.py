import random
from fractions import Fraction
from itertools import product

import pytest

from rlcc import rm
from rlcc.gf import Field
from rlcc.pcpp import (
    BOT,
    PcppParams,
    build_proof,
    canonical_proof,
    correct_proof_symbol,
    query_budget,
    verify_proximity,
    QueryCounter,
)


def spans(proof):
    """verify_proximity's proof reader over a proof sequence."""
    return lambda lo, hi: proof[lo:hi]


def make_member(params2d, coeffs, kind, selector=(0, 0)):
    table = rm.grid_table(params2d, coeffs).tolist()
    return rm.augment(params2d.ctx, table, kind, selector), table


def test_params_validation():
    with pytest.raises(ValueError):
        PcppParams(0)
    # R = 9 is a constant, not a parameter
    assert PcppParams(2).repetitions == 9
    with pytest.raises(TypeError):
        PcppParams(2, repetitions=9)
    with pytest.raises(ValueError):
        PcppParams(2, rho_prox=Fraction(3, 2))


def test_proof_length(gf8):
    params2d = rm.RmParams(gf8, 2, 1)
    pcpp = PcppParams(3)
    assert pcpp.proof_length(params2d) == 9 * 3


def test_canonical_proof_zero_and_roundtrip(gf4, rng):
    params2d = rm.RmParams(gf4, 2, 1)
    pcpp = PcppParams(4)
    member, _ = make_member(params2d, (0, 0, 0), rm.POINT_KIND)
    proof = canonical_proof(params2d, pcpp, member)
    assert proof == (0,) * 27
    coeffs = (1, 2, 3)
    member, table = make_member(params2d, coeffs, rm.POINT_KIND)
    proof = canonical_proof(params2d, pcpp, member)
    for c in range(pcpp.repetitions):
        copy = proof[c * 3 : (c + 1) * 3]
        assert copy == coeffs
        assert rm.grid_table(params2d, copy).tolist() == table


def test_canonical_proof_rejects_non_members(gf4):
    params2d = rm.RmParams(gf4, 2, 1)
    pcpp = PcppParams(4)
    bad = [1] + [0] * 15  # not low-degree
    ok, _ = rm.is_low_degree_on_plane(params2d, bad)
    assert not ok
    with pytest.raises(ValueError):
        canonical_proof(params2d, pcpp, rm.augment(gf4, bad, rm.POINT_KIND))
    # low-degree base but inconsistent tail
    table = rm.eval_table(params2d, (1, 0, 2)).tolist()
    view = rm.augment(gf4, table, rm.POINT_KIND)
    broken = rm.AugmentedWord(
        gf4.n, lambda i: table[i], rm.POINT_KIND, (0, 0)
    )
    broken.read = lambda i: (view.read(i) + 1) % 4 if i >= 16 else view.read(i)
    with pytest.raises(ValueError):
        canonical_proof(params2d, pcpp, broken)


def test_canonical_completeness_exhaustive_gf4():
    # every language member over GF(4), d=1: distinct proofs, verifier
    # identities hold for every possible check of every round
    ctx = Field(2, 2)
    params2d = rm.RmParams(ctx, 2, 1)
    pcpp = PcppParams(2)
    proofs = set()
    for coeffs in product(range(4), repeat=3):
        for kind in (rm.POINT_KIND, rm.LINE_KIND):
            member, table = make_member(params2d, coeffs, kind)
            proof = canonical_proof(params2d, pcpp, member)
            proofs.add((kind, proof))
            # direct check identities: copies equal, word agrees with the
            # polynomial everywhere, tails resolve consistently
            k = 3
            copies = [proof[c * k : (c + 1) * k] for c in range(pcpp.repetitions)]
            assert all(c == copies[0] for c in copies)
            for j in range(4):
                for s in range(4):
                    assert table[j * 4 + s] == rm.evaluate(
                        params2d, copies[0], (j, s)
                    )
            for rounds in range(5):
                rng = random.Random(rounds)
                assert verify_proximity(
                    params2d, pcpp, member.read, spans(proof), kind, rng
                )
    assert len(proofs) == 2 * 64  # distinct members get distinct proofs


def test_verifier_rejects_wrong_tail(gf4, rng):
    params2d = rm.RmParams(gf4, 2, 1)
    pcpp = PcppParams(1)
    coeffs = (1, 2, 0)
    member, table = make_member(params2d, coeffs, rm.POINT_KIND)
    proof = canonical_proof(params2d, pcpp, member)
    # flip the proved point: every tail check must now fail
    flipped = list(table)
    flipped[0] = (flipped[0] + 1) % 4
    view = rm.augment(gf4, flipped, rm.POINT_KIND)
    rejected = sum(
        not verify_proximity(
            params2d, pcpp, view.read, spans(proof), rm.POINT_KIND,
            random.Random(i),
        )
        for i in range(40)
    )
    assert rejected == 40


def test_verifier_catches_copy_corruption(gf4):
    params2d = rm.RmParams(gf4, 2, 1)
    pcpp = PcppParams(6)
    coeffs = (3, 1, 2)
    member, _ = make_member(params2d, coeffs, rm.LINE_KIND)
    proof = list(canonical_proof(params2d, pcpp, member))
    proof[0 * 3 : 1 * 3] = [(c + 1) % 4 for c in coeffs]  # one corrupted copy
    hits = 0
    runs = 400
    for i in range(runs):
        if not verify_proximity(
            params2d, pcpp, member.read, spans(proof), rm.LINE_KIND,
            random.Random(i),
        ):
            hits += 1
    # a corrupted copy is caught whenever a round touches it:
    # rejection rate is at least 1 - (1 - 1/R)^{q_v} minus slack
    floor = 1 - (1 - 1 / pcpp.repetitions) ** pcpp.q_v
    assert hits / runs >= floor - 3 * (floor * (1 - floor) / runs) ** 0.5 - 0.05


def test_query_accounting(gf8, rng):
    params2d = rm.RmParams(gf8, 2, 1)
    pcpp = PcppParams(5)
    coeffs = (1, 1, 1)
    member, _ = make_member(params2d, coeffs, rm.POINT_KIND)
    proof = canonical_proof(params2d, pcpp, member)
    counter = QueryCounter()
    assert verify_proximity(
        params2d, pcpp, member.read, spans(proof), rm.POINT_KIND, rng,
        counter=counter,
    )
    max_word, max_proof = query_budget(params2d, pcpp)
    assert counter.word == max_word == 2 * pcpp.q_v
    assert counter.proof <= max_proof


def test_verifier_rejects_unknown_kind(gf4, rng):
    params2d = rm.RmParams(gf4, 2, 1)
    with pytest.raises(ValueError, match="unknown augmentation kind"):
        verify_proximity(
            params2d, PcppParams(1), lambda i: 0, spans([0]), "plane", rng
        )


def test_correct_proof_symbol_honest(gf4, rng):
    params2d = rm.RmParams(gf4, 2, 1)
    pcpp = PcppParams(3)
    coeffs = (2, 0, 1)
    member, _ = make_member(params2d, coeffs, rm.POINT_KIND)
    proof = canonical_proof(params2d, pcpp, member)
    for offset in range(len(proof)):
        got = correct_proof_symbol(
            params2d, pcpp, member.read, spans(proof), offset,
            rm.POINT_KIND, rng,
        )
        assert got == proof[offset]


def test_correct_proof_symbol_majority_beats_one_bad_copy(gf4):
    params2d = rm.RmParams(gf4, 2, 1)
    pcpp = PcppParams(3)
    coeffs = (2, 3, 1)
    member, _ = make_member(params2d, coeffs, rm.POINT_KIND)
    proof = list(canonical_proof(params2d, pcpp, member))
    proof[4 * 3 + 1] = (proof[4 * 3 + 1] + 2) % 4  # corrupt copy 4, position 1
    # querying the same position in another copy: the majority over the
    # other 8 copies is right, so the output is the true symbol whenever
    # the verifier does not (legitimately) flag the corrupted copy
    outputs = [
        correct_proof_symbol(
            params2d, pcpp, member.read, spans(proof), 0 * 3 + 1,
            rm.POINT_KIND, random.Random(i),
        )
        for i in range(100)
    ]
    assert all(o is BOT or o == coeffs[1] for o in outputs)
    assert sum(o == coeffs[1] for o in outputs) >= 30


def test_correct_proof_symbol_aborts_on_far_word(gf4):
    params2d = rm.RmParams(gf4, 2, 1)
    pcpp = PcppParams(8)
    coeffs = (2, 3, 1)
    member, table = make_member(params2d, coeffs, rm.POINT_KIND)
    proof = canonical_proof(params2d, pcpp, member)
    garbage = [(v + 1 + i % 3) % 4 for i, v in enumerate(table)]
    view = rm.augment(params2d.ctx, garbage, rm.POINT_KIND)
    bots = sum(
        correct_proof_symbol(
            params2d, pcpp, view.read, spans(proof), 5, rm.POINT_KIND,
            random.Random(i),
        )
        is BOT
        for i in range(60)
    )
    assert bots >= 55
