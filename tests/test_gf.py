import random
import time
from itertools import product

import numpy as np
import pytest

from rlcc.geometry import PlaneRep, plane_point_at, points_at
from rlcc.gf import Field, find_irreducible, is_irreducible, parse_descriptor

from reference import matrix_rep, point_from_matrix


def test_smallest_irreducibles():
    assert find_irreducible(2, 2) == (1, 1, 1)
    assert find_irreducible(2, 3) == (1, 1, 0, 1)
    assert find_irreducible(3, 3) == (1, 2, 0, 1)
    assert find_irreducible(2, 4) == (1, 1, 0, 0, 1)


def test_reducible_rejected():
    # X^2 + 1 = (X + 1)^2 over GF(2)
    with pytest.raises(ValueError):
        Field(2, 2, (1, 0, 1))
    with pytest.raises(ValueError):
        Field(4, 2)  # not prime
    with pytest.raises(ValueError):
        Field(2, 2, (1, 1, 1, 1))  # wrong degree


def test_gf4_multiplication_table():
    f = Field(2, 2)
    # codes 0,1,2,3 stand for 0, 1, w, w+1
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    for a in range(4):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 3)])
def test_field_axioms_exhaustive(p, m):
    f = Field(p, m)
    n = f.n
    for a, b in product(range(n), repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    for a, b, c in product(range(n), repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(1, n):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 3)])
def test_frobenius_additive(p, m):
    f = Field(p, m)
    for a, b in product(range(f.n), repeat=2):
        lhs = f.pow(f.add(a, b), p)
        rhs = f.add(f.pow(a, p), f.pow(b, p))
        assert lhs == rhs


def test_codec_roundtrip_all_elements(gf27):
    for a in range(gf27.n):
        assert gf27.code_of(gf27.coeffs_of(a)) == a
        assert all(0 <= c < gf27.p for c in gf27.coeffs_of(a))


def test_embedding_is_subring(gf8):
    # H = GF(p) is the codes [0, p): closed under + and *, and the
    # products are the products mod p
    h = list(range(gf8.p))
    for a in h:
        for b in h:
            assert gf8.add(a, b) in h
            assert gf8.mul(a, b) in h
            assert gf8.mul(a, b) == (a * b) % gf8.p
    for x in range(gf8.n):
        assert gf8.mul(1, x) == x


def test_embed_characteristic_two(gf4):
    assert gf4.add(1, 1) == 0


def test_schoolbook_matches_tables():
    f = Field(3, 3)
    rng = random.Random(7)
    for _ in range(500):
        a, b = rng.randrange(f.n), rng.randrange(f.n)
        assert f.mul(a, b) == f._mul_schoolbook(a, b)


def test_matrix_rep_roundtrip(gf4):
    rng = random.Random(1)
    assert matrix_rep(gf4, (0, 0)) == ((0, 0), (0, 0))
    # x = (w, 1): rows are the coefficient vectors (0,1) and (1,0)
    assert matrix_rep(gf4, (2, 1)) == ((0, 1), (1, 0))
    for _ in range(1000):
        pt = tuple(rng.randrange(gf4.n) for _ in range(gf4.m))
        assert point_from_matrix(gf4, matrix_rep(gf4, pt)) == pt


def test_descriptor_roundtrip(gf8):
    assert parse_descriptor(gf8.descriptor) == gf8
    assert parse_descriptor("2^3/1,1,0,1").irreducible == (1, 1, 0, 1)


def test_vector_ops_match_scalar():
    # the vector sums and products are points_at on one coordinate:
    # a + elem(b) * 1 and 0 + elem(b) * a
    f = Field(17, 3)
    rng = random.Random(3)
    a = np.array([rng.randrange(f.n) for _ in range(400)], dtype=np.int64)
    b = np.array([rng.randrange(f.n) for _ in range(400)], dtype=np.int64)
    a[:20], b[10:30] = 0, 0
    (va,) = points_at(f, (a,), ((1,),), (b,))
    (vm,) = points_at(f, (0,), ((a,),), (b,))
    for i in range(400):
        assert va[i] == f.add(int(a[i]), int(b[i]))
        assert vm[i] == f.mul(int(a[i]), int(b[i]))
    t = rng.randrange(1, f.n)
    (vsc,) = points_at(f, (0,), ((t,),), (a,))
    for i in range(400):
        assert vsc[i] == f.mul(t, int(a[i]))


def test_sum_elements_matches_scalar():
    f = Field(17, 3)
    rng = random.Random(4)
    arr = np.array(
        [[rng.randrange(f.n) for _ in range(50)] for _ in range(30)], dtype=np.int64
    )
    out = f.sum_elements(arr, axis=0)
    for j in range(50):
        acc = 0
        for i in range(30):
            acc = f.add(acc, int(arr[i, j]))
        assert out[j] == acc
    # worst magnitude: every summand n - 1, so every lane sum is its top,
    # at the most summands whose lanes fit 17 bits and one reduce table,
    # and one more, whose 18-bit lanes are read mod p; adding c copies of
    # an element is multiplying it by the subfield scalar c mod p
    for f in (Field(17, 3), Field(13, 4), Field(2, 10)):
        boundary = ((1 << 17) - 1) // (f.p - 1)
        for count in (boundary, boundary + 1):
            arr = np.full((count, 2), f.n - 1, dtype=np.int64)
            want = f.mul(count % f.p, f.n - 1)
            assert f.sum_elements(arr, axis=0).tolist() == [want, want]
    # a negative axis sums the same axis at m = 3 and m = 4
    for f in (Field(3, 3), Field(2, 4)):
        arr = np.array(
            [[[rng.randrange(f.n) for _ in range(4)] for _ in range(3)] for _ in range(2)],
            dtype=np.int64,
        )
        for axis in (-1, -2, -3):
            want = np.zeros(np.delete(arr.shape, axis), dtype=np.int64)
            for idx in np.ndindex(arr.shape):
                rest = tuple(np.delete(idx, axis))
                want[rest] = f.add(int(want[rest]), int(arr[idx]))
            assert np.array_equal(f.sum_elements(arr, axis=axis), want)


def test_irreducibility_checker_agrees_with_known_counts():
    # 30 monic irreducible cubics over GF(5): (5^3 - 5) / 3
    count = sum(
        1
        for c0 in range(5)
        for c1 in range(5)
        for c2 in range(5)
        if is_irreducible((c0, c1, c2, 1), 5)
    )
    assert count == (5**3 - 5) // 3


def test_field_past_the_table_limit_has_codecs_but_no_arithmetic():
    start = time.monotonic()
    f = Field(2, 21)
    assert time.monotonic() - start < 1
    assert f.n == 1 << 21
    assert parse_descriptor(f.descriptor) == f
    assert f.code_of(f.coeffs_of(12345)) == 12345
    plane = PlaneRep((1, 2), (1, 0), (0, 1))
    calls = [
        lambda: f.add(3, 5),
        lambda: f.sub(3, 5),
        lambda: f.mul(3, 5),
        lambda: f.inv(3),
        lambda: f.pow(3, 5),
        lambda: f.tables,
        lambda: f.scalar_tables,
        lambda: plane_point_at(f, plane, 1, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="1048576-entry log-table limit"):
            call()


def test_irreducible_search_is_refused_past_its_budget():
    # both paths: the search and a given reduction polynomial; GF(17^8)
    # tries 17^4 divisors and builds
    for args in ((17, 10), (17, 21), (17, 10, (3,) + (0,) * 9 + (1,))):
        start = time.monotonic()
        with pytest.raises(ValueError, match=r"17\^\d+ divisors"):
            Field(*args)
        assert time.monotonic() - start < 1
    assert Field(17, 8).n == 17**8
