"""Assertion helpers shared across test modules."""

import zlib

import numpy as np


def seeded_rng(*key) -> np.random.Generator:
    """The one way tests obtain randomness.

    Every test that needs random data calls ``seeded_rng(...)`` with an
    explicit key instead of ``np.random.default_rng`` / module-level
    ``np.random`` functions, so no test depends on global RNG state and
    every data draw is replayable from the key alone.  A single int key
    yields the exact same stream as ``np.random.default_rng(key)`` (so
    historical seeds keep their data); strings are folded in via CRC32,
    letting tests use self-describing keys like
    ``seeded_rng("cache-thread", tid)``.
    """
    if not key:
        raise TypeError("seeded_rng requires an explicit key")
    words = [
        k if isinstance(k, (int, np.integer)) else zlib.crc32(str(k).encode())
        for k in key
    ]
    if len(words) == 1:
        return np.random.default_rng(words[0])
    return np.random.default_rng(np.random.SeedSequence(words))


#: The largest magnitude that fits an FLE outlier of ``k`` bytes, per ``k``.
_OUTLIER_MAX = {1: 0xFF, 2: 0xFFFF, 3: 0xFFFFFF, 4: (1 << 31) - 1}


def fle_signature_blocks(block: int, copies: int = 1, seed: int = 0):
    """Delta blocks covering every signature CUSZP2-O can emit at
    ``block``: Plain-FLE at every ``fl`` 0..31 (``fl`` 0 is the all-zero
    block) and every reachable Outlier-FLE ``(fl, outlier width)`` pair
    (``fl`` 0 is an outlier-only block), ``copies`` of each, shuffled and
    randomly signed.  Returns the ``(n, block)`` int64 blocks and the set of
    offset bytes they must encode to."""
    rng = seeded_rng("fle-signatures", block, seed)
    sign_bytes = block // 8
    blocks, expect = [], set()
    for f in range(32):
        plain = np.full(block, (1 << f) - 1, dtype=np.int64)  # no outlier gain
        blocks.append(plain)
        expect.add(f)
        for k, omax in _OUTLIER_MAX.items():
            # Outlier-FLE wins exactly when its planes save more than the
            # outlier bytes cost: sign_bytes * (bitlen(outlier) - f) > k
            if omax.bit_length() > f and sign_bytes * (omax.bit_length() - f) > k:
                outlier = plain.copy()
                outlier[0] = omax
                blocks.append(outlier)
                expect.add(0x80 | (k - 1) << 5 | f)
    dblocks = np.repeat(np.stack(blocks), copies, axis=0)[rng.permutation(len(blocks) * copies)]
    return dblocks * rng.choice(np.array([-1, 1], dtype=np.int64), size=dblocks.shape), expect


def value_range(data: np.ndarray) -> float:
    return float(data.max() - data.min())


def assert_error_bounded(original: np.ndarray, recon: np.ndarray, eb_abs: float):
    """Max pointwise error must not exceed the bound.

    The codec's guarantee (like the CUDA original, which reconstructs with a
    floating multiply) is ``eb + half-ULP of the reconstructed value``: the
    quantization lattice point nearest to ``x`` can round to a representable
    float half an ULP further away.  We allow exactly that slack.
    """
    err = np.abs(recon.astype(np.float64) - original.astype(np.float64)).max()
    half_ulp = 0.5 * float(np.spacing(np.abs(recon).max()))
    limit = eb_abs * (1 + 1e-12) + half_ulp
    assert err <= limit, f"error {err} exceeds bound {eb_abs} (+{half_ulp} ULP slack)"
