import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlcc import composed, ctrw, harness, prf, rm
from rlcc.gf import Field
from rlcc.pcpp import PcppParams
from rlcc.prf import KeyedNoise

# length of the S1 composed word, about 1.4 * 10^26 addresses (87 bits)
S1_LENGTH = composed.ComposedLayout(
    harness.make_config(preset="S1").rm, PcppParams(4)
).length


@pytest.mark.parametrize("rate", [0.0, 0.37, 1.0])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    prefix=st.integers(0, 2**64 - 1),
    salt=st.integers(0, 2**64 - 1),
    n=st.sampled_from((2, 3, 8, 17, 4913)),
    lo=st.integers(0, 2000),
    size=st.integers(0, 300),
    far=st.integers(0, 2**63 - 301),
    wide=st.integers(2**63, S1_LENGTH),
    crossing=st.integers(1, 2**23),
    chunk=st.integers(1, 64),
)
def test_keyed_noise_paths_agree(
    rate, prefix, salt, n, lo, size, far, wide, crossing, chunk
):
    noise = KeyedNoise(prefix, salt, rate, n)
    hi = lo + size
    for start in (lo, far):
        addrs = np.arange(start, start + size, dtype=np.int64)
        assert noise.hit_mask(addrs).tolist() == [noise.hit(a) for a in addrs.tolist()]
    # the range mask at any width: S1-sized addresses, and a range that
    # straddles a multiple of 2^64
    for start in (lo, far, wide, (crossing << 64) - size // 2):
        assert noise.range_mask(start, start + size).tolist() == [
            noise.hit(a) for a in range(start, start + size)
        ]
    base = (np.arange(hi, dtype=np.int64) ** 2 + 3) % n
    word = base.copy()
    hits = noise.apply(lo, hi, word)
    assert hits == noise.count(lo, hi)
    assert hits == sum(noise.hit(a) for a in range(lo, hi))
    for a in range(hi):
        b = int(base[a])
        if lo <= a and noise.hit(a):
            assert int(word[a]) == noise.replacement(a, b) != b
        else:
            assert int(word[a]) == b
    # no replacement symbol ever equals its base symbol
    for a in (lo, far):
        assert all(noise.replacement(a, b) != b for b in range(min(n, 64)))
    # a range that crosses chunk boundaries gives the same hits and symbols
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prf, "CHUNK", chunk)
        chunked = base.copy()
        assert noise.apply(lo, hi, chunked) == hits
        assert noise.count(lo, hi) == hits
    assert (chunked == word).all()


@settings(derandomize=True, max_examples=6, deadline=None)
@given(
    prefix=st.integers(0, 2**64 - 1),
    rate=st.sampled_from((0.0, 0.37, 1.0)),
    wide=st.integers(2**64, S1_LENGTH - 2 * prf.CHUNK),
    crossing=st.integers(1, 2**23),
    size=st.integers(prf.CHUNK + 1, 2 * prf.CHUNK),
    back=st.integers(0, 2 * prf.CHUNK),
)
def test_keyed_noise_count_matches_scalar_hit(prefix, rate, wide, crossing, size, back):
    # whole passes of the real CHUNK at S1-sized addresses, and a range
    # that starts up to back addresses before a multiple of 2^64
    noise = KeyedNoise(prefix, 0, rate, 17)
    for start in (wide, max(0, (crossing << 64) - min(back, size))):
        want = sum(noise.hit(a) for a in range(start, start + size))
        assert noise.count(start, start + size) == want


def test_keyed_noise_apply_over_several_passes():
    noise = KeyedNoise(2024, 77, 0.3, 4913)
    lo, hi = 5, 5 + 2 * prf.CHUNK + 123
    base = np.arange(hi, dtype=np.int64) * 7 % 4913
    word = base.copy()
    hits = [a for a in range(lo, hi) if noise.hit(a)]
    assert noise.apply(lo, hi, word) == len(hits) == noise.count(lo, hi)
    want = base.copy()
    for a in hits:
        want[a] = noise.replacement(a, int(base[a]))
    assert (word == want).all()


# Values recorded before Overlay, PointCorruption and the calibration's
# noisy-base family were built on KeyedNoise: every selected address and
# every Overlay symbol must stay the same.


def _t2_layout():
    return composed.ComposedLayout(rm.RmParams(Field(2, 3), 3, 1), PcppParams(4))


def test_overlay_symbols_pinned():
    layout = _t2_layout()
    pinned = [
        (1, 0, None), (1, 12345, 7), (1, 8957959, 6), (1, 9842787, None),
        (1, 17915903, None), (903, 0, None), (903, 12345, None),
        (903, 8957959, None), (903, 9842787, 6), (903, 17915903, 0),
        (2**62 + 5, 0, None), (2**62 + 5, 12345, None), (2**62 + 5, 8957959, None),
        (2**62 + 5, 9842787, 4), (2**62 + 5, 17915903, 6),
    ]
    for seed, addr, want in pinned:
        overlay = composed.Overlay(layout, seed).add_region_random(0.5)
        assert overlay.replacement(addr, addr % 8) == want, (seed, addr)
    # the c09 proof-region noise, plus RM-region noise at another rate
    overlay = composed.Overlay(layout, seed=903)
    overlay.add_region_random(0.05, regions=(composed.POINT_REGION, composed.LINE_REGION))
    overlay.add_region_random(0.1, regions=(composed.RM_REGION,))
    word = np.zeros(layout.length, dtype=np.int16)
    counts = overlay.apply_to_array(word)
    assert counts == {
        composed.RM_REGION: 895940,
        composed.POINT_REGION: 44439,
        composed.LINE_REGION: 403389,
        "targeted": 0,
    }
    assert hashlib.sha256(word.tobytes()).hexdigest()[:16] == "455c07702b8fc546"
    assert overlay.expected_fraction() == 0.075


def test_point_corruption_selection_pinned(gf8):
    params = rm.RmParams(gf8, 3, 1)
    codes = np.arange(gf8.n**3, dtype=np.int64)
    for seed, density, popcount, digest in (
        (7, 0.25, 129, "f7a8172f9aaa545a"),
        (11, 0.1, 55, "d9d8df96cdb9e101"),
    ):
        mask = ctrw.PointCorruption(params, seed, density).corrupt_mask(codes)
        assert int(mask.sum()) == popcount
        assert hashlib.sha256(np.packbits(mask).tobytes()).hexdigest()[:16] == digest


def test_noisy_base_family_pinned(monkeypatch):
    counted = []
    count = KeyedNoise.count

    def spy(self, lo, hi):
        counted.append(count(self, lo, hi))
        return counted[-1]

    monkeypatch.setattr(KeyedNoise, "count", spy)
    cfg = harness.make_config(preset="S1", kind="calibrate", seed=3)
    rm2d = cfg.rm.bivariate()
    families = harness._far_families(
        rm2d, PcppParams(1, rho_prox=cfg.alpha), harness.trial_rng(3, "calibrate", 0)
    )
    assert counted == [11987474]  # eta_count of the S1 grid, 24,137,569 points
    (name, noisy, _), _, (honest_name, base, _) = families[:3]
    assert (name, honest_name) == ("noisy-base/honest-proof", "honest-word/mixed-proof")
    n = rm2d.ctx.n
    positions = [1, 2, 3, 4, 5, 6, 7, 8, 1000, 4913, 123456, n * n - 1]
    shifts = [(noisy(i) - base(i)) % n for i in positions]
    assert shifts == [3184, 2308, 1321, 4686, 940, 3300, 1611, 0, 2351, 0, 0, 1477]
