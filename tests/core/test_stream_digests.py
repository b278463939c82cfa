"""Pinned SHA-256 digests of the codec's streams and decoded arrays.

Every kernel rewrite must leave the encoder's bytes and the decoder's
output unchanged.  The kernel oracle pins individual kernels against their
reference implementations; this table pins the whole pipeline end to end,
over block sizes, bounds, modes, dtypes, Lorenzo tiles, chunking, checksum
grouping, every bit-plane count, partial tails and denormals.

Inputs are built only from ``PCG64.random_raw`` plus exact arithmetic
(shifts, power-of-two scaling, sequential cumulative sums), never from
``Generator`` distributions or transcendental functions, so the digests do
not depend on the numpy version or on the CPU's SIMD code path.

A deliberate stream-format change regenerates the table with
``PYTHONPATH=src python -m tests.core.test_stream_digests``.
"""

import hashlib
from typing import Callable, Dict, Tuple

import numpy as np
import pytest

from repro.core import CuSZp2, ErrorBound, compress, decompress


def _uniform(seed: int, n: int) -> np.ndarray:
    """``n`` doubles in [0, 1): the top 53 bits of PCG64's raw output
    scaled by 2**-53, exactly."""
    raw = np.random.PCG64(seed).random_raw(n) >> np.uint64(11)
    return raw.astype(np.float64) * 2.0**-53


def _walk(seed: int, shape) -> np.ndarray:
    """A smooth field: centred uniforms cumulatively summed along each axis."""
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    x = (_uniform(seed, int(np.prod(shape))) - 0.5).reshape(shape)
    for axis in range(x.ndim):
        x = np.cumsum(x, axis=axis)
    return x


def _spiky(seed: int, n: int) -> np.ndarray:
    """A walk with exact spikes every 97 elements, so Outlier-FLE matters."""
    x = _walk(seed, n)
    x[::97] += 48.0
    return x


def _planes(fl: int) -> np.ndarray:
    """Quant codes alternating 0 and 2**fl - 1 under ``abs=1.0``: every
    block's deltas have bit length exactly ``fl``."""
    return 2.0 * np.tile([0, (1 << fl) - 1], 40).astype(np.float64)


def _denormals(dtype) -> np.ndarray:
    tiny = float(np.finfo(dtype).tiny)
    x = ((_uniform(9, 640) - 0.5) * (8.0 * tiny)).astype(dtype)
    x[::7] = np.array(tiny, dtype=dtype) / 4  # true denormals
    return x


#: case id -> (input factory, compress kwargs, chunk_blocks or None)
Case = Tuple[Callable[[], np.ndarray], dict, object]


def _cases() -> Dict[str, Case]:
    cases: Dict[str, Case] = {}
    bounds = {"rel1e-3": {"rel": 1e-3}, "rel1e-5": {"rel": 1e-5}, "abs0.05": {"abs": 0.05}}
    for dt in ("f32", "f64"):
        dtype = np.float32 if dt == "f32" else np.float64
        for mode in ("plain", "outlier"):
            for block in (8, 16, 32, 64, 128):
                for bname, bound in bounds.items():
                    cases[f"1d/{dt}/{mode}/b{block}/{bname}"] = (
                        lambda dtype=dtype: _spiky(1, 3001).astype(dtype),
                        dict(bound, mode=mode, block=block),
                        None,
                    )
            cases[f"2d/{dt}/{mode}/8x8"] = (
                lambda dtype=dtype: _walk(2, (20, 36)).astype(dtype),
                dict(rel=1e-3, mode=mode, block=64, predictor_ndim=2),
                None,
            )
            cases[f"3d/{dt}/{mode}/4x4x4"] = (
                lambda dtype=dtype: _walk(3, (10, 9, 7)).astype(dtype),
                dict(rel=1e-3, mode=mode, block=64, predictor_ndim=3),
                None,
            )
        cases[f"denormal/{dt}/abs"] = (
            lambda dtype=dtype: _denormals(dtype),
            dict(abs=float(np.finfo(dtype).tiny) / 16),
            None,
        )
        cases[f"denormal/{dt}/rel"] = (lambda dtype=dtype: _denormals(dtype), dict(rel=1e-3), None)
    for chunk_blocks in (1, 3, 64):
        cases[f"chunk_blocks/{chunk_blocks}"] = (
            lambda: _walk(11, 2000).astype(np.float32), dict(rel=1e-3), chunk_blocks,
        )
    for group_blocks in (1, 16):
        cases[f"group_blocks/{group_blocks}"] = (
            lambda: _walk(12, 2000).astype(np.float32),
            dict(rel=1e-3, group_blocks=group_blocks),
            None,
        )
    for mode in ("plain", "outlier"):
        for fl in range(32):
            cases[f"planes/{mode}/fl{fl}"] = (
                lambda fl=fl: _planes(fl), dict(abs=1.0, mode=mode), None,
            )
        for n in (1, 2, 31, 32, 33, 63, 65, 257):
            cases[f"tail/{mode}/n{n}"] = (
                lambda n=n: _walk(n, n).astype(np.float32),
                dict(rel=1e-3, mode=mode, block=32),
                None,
            )
    return cases


CASES = _cases()


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _digests(case: Case) -> Tuple[str, str]:
    """``(stream digest, decoded-array digest)`` of one case; with
    ``chunk_blocks`` set, both the encode and the decode run chunked."""
    make, kwargs, chunk_blocks = case
    data = make()
    if chunk_blocks is None:
        buf = compress(data, **kwargs)
        out = decompress(buf)
    else:
        buf = CuSZp2(ErrorBound.relative(kwargs["rel"]), chunk_blocks=chunk_blocks).compress(data)
        out = decompress(buf, chunk_blocks=chunk_blocks)
    assert out.shape == data.shape and out.dtype == data.dtype
    return _sha(buf), _sha(out)


#: case id -> (SHA-256 of the stream, SHA-256 of the decoded array)
DIGESTS = {
    "1d/f32/outlier/b128/abs0.05": ("7a6e33d2f2b5e0a3e972a6c2db6c68f743db2ea4bcca6ef8ebefaf39ef2231ae", "154bb421e7499af8dbccaee2b7ea6ba53b5117e8245d5b0b36b9aba5b9fd9e87"),
    "1d/f32/outlier/b128/rel1e-3": ("852b825e4480c71f251efc16c8f5a3f218ee4d7223801166eff8840f226c5b07", "bca0bb30695b7682b3fa4c4cd45c73b0a7bd5420e1502a8966503a1c644a8b75"),
    "1d/f32/outlier/b128/rel1e-5": ("0ff64083a6778d42a544faf5f64642be347f73f81694f79e6d9c748349fdab13", "fc1809e41340caf2726eda743b1618a4313e65015f7d4a657ad047c73c16d944"),
    "1d/f32/outlier/b16/abs0.05": ("543cd296080bc2928a64de20cf310f54ba28e8dcf0c22007ce27df4c198ce4b0", "154bb421e7499af8dbccaee2b7ea6ba53b5117e8245d5b0b36b9aba5b9fd9e87"),
    "1d/f32/outlier/b16/rel1e-3": ("20b9de215b425411d68bff5636e3db9ce7a5c8f0cac7270bbff6cc99728e9ccc", "bca0bb30695b7682b3fa4c4cd45c73b0a7bd5420e1502a8966503a1c644a8b75"),
    "1d/f32/outlier/b16/rel1e-5": ("03a7657e3abd1ff7fb842ee00f9ddbd8dba36eea66d111e5545cd738c8f38667", "fc1809e41340caf2726eda743b1618a4313e65015f7d4a657ad047c73c16d944"),
    "1d/f32/outlier/b32/abs0.05": ("7cc8deb927aac3a0b65f1465a6040834c659b9ce0071ca37f360074795511d03", "154bb421e7499af8dbccaee2b7ea6ba53b5117e8245d5b0b36b9aba5b9fd9e87"),
    "1d/f32/outlier/b32/rel1e-3": ("d03021d18692220f7fe3b8fcdecaafc536d910ceed9169082e4340cccbffa417", "bca0bb30695b7682b3fa4c4cd45c73b0a7bd5420e1502a8966503a1c644a8b75"),
    "1d/f32/outlier/b32/rel1e-5": ("cd0a5b1fc10d16e98899fb4575900bdd84046aafe2ae68ec371c7e39d39cff67", "fc1809e41340caf2726eda743b1618a4313e65015f7d4a657ad047c73c16d944"),
    "1d/f32/outlier/b64/abs0.05": ("5cbc4cd19d38408903058d9477fa261fb0ec5d144404045f97b96ebab0edee69", "154bb421e7499af8dbccaee2b7ea6ba53b5117e8245d5b0b36b9aba5b9fd9e87"),
    "1d/f32/outlier/b64/rel1e-3": ("997a6703cfa13c9403b691310a6df9c71706aa62e769870ad4852efafe9b7008", "bca0bb30695b7682b3fa4c4cd45c73b0a7bd5420e1502a8966503a1c644a8b75"),
    "1d/f32/outlier/b64/rel1e-5": ("5eac0bcd69db126e6a92228584d7a6929307a1ef03082cf35991d96cbec6799f", "fc1809e41340caf2726eda743b1618a4313e65015f7d4a657ad047c73c16d944"),
    "1d/f32/outlier/b8/abs0.05": ("d9bc7a6798b487a36ae8809691170ee9af246c8786eca67e7db62c7ce0105ffa", "154bb421e7499af8dbccaee2b7ea6ba53b5117e8245d5b0b36b9aba5b9fd9e87"),
    "1d/f32/outlier/b8/rel1e-3": ("13d29da653a2fcbde8475a228058170a619df56094d68902ae23226d4e93455b", "bca0bb30695b7682b3fa4c4cd45c73b0a7bd5420e1502a8966503a1c644a8b75"),
    "1d/f32/outlier/b8/rel1e-5": ("fe0eb914b501c960d8bc2b058d0a3d0caefc56e0b27a678e95dc9794320d95f9", "fc1809e41340caf2726eda743b1618a4313e65015f7d4a657ad047c73c16d944"),
    "1d/f32/plain/b128/abs0.05": ("848aae8d3f2a13872f67e905c0e4f240cb1585934360667ce64f6a1e9df650a2", "154bb421e7499af8dbccaee2b7ea6ba53b5117e8245d5b0b36b9aba5b9fd9e87"),
    "1d/f32/plain/b128/rel1e-3": ("0a9a3a30da729a8b07c52dbbbab9bb532e6fac43365378c3495ddbbc7ad5a0c2", "bca0bb30695b7682b3fa4c4cd45c73b0a7bd5420e1502a8966503a1c644a8b75"),
    "1d/f32/plain/b128/rel1e-5": ("11738dd25141ee9ca73b4402e87b6e32901be7eb3c98c681260e979cec6f347f", "fc1809e41340caf2726eda743b1618a4313e65015f7d4a657ad047c73c16d944"),
    "1d/f32/plain/b16/abs0.05": ("be5723e0c5ec8aa27b8e945a49bf242761839c2ed2b880e48716f75cd3dcf277", "154bb421e7499af8dbccaee2b7ea6ba53b5117e8245d5b0b36b9aba5b9fd9e87"),
    "1d/f32/plain/b16/rel1e-3": ("cd1ec7979537dd73d4eb7a975df28e6114bc9b4b9bb883dfca519033a58983fa", "bca0bb30695b7682b3fa4c4cd45c73b0a7bd5420e1502a8966503a1c644a8b75"),
    "1d/f32/plain/b16/rel1e-5": ("f0d5c4fa73ce07c02a6fa78cd82c5ce0f35c683e6c287a59afbc438b8f324da7", "fc1809e41340caf2726eda743b1618a4313e65015f7d4a657ad047c73c16d944"),
    "1d/f32/plain/b32/abs0.05": ("718da6ec36709e95312170cc8d99739daf0802753d74042c38c300a5592b6daf", "154bb421e7499af8dbccaee2b7ea6ba53b5117e8245d5b0b36b9aba5b9fd9e87"),
    "1d/f32/plain/b32/rel1e-3": ("1ace1d0eb5d93713f55b5e0b53f8c9e1eb2167c272906a1b15d6ab513c2b5ff7", "bca0bb30695b7682b3fa4c4cd45c73b0a7bd5420e1502a8966503a1c644a8b75"),
    "1d/f32/plain/b32/rel1e-5": ("f06c6b7af48eb7cd9805dced79f70fc835b718daa34ff6d66fbcd2307d9da3b5", "fc1809e41340caf2726eda743b1618a4313e65015f7d4a657ad047c73c16d944"),
    "1d/f32/plain/b64/abs0.05": ("af1d12b422e53a4d25e6e619dd5b4d8dedb5a330d5c565388778b256a251e417", "154bb421e7499af8dbccaee2b7ea6ba53b5117e8245d5b0b36b9aba5b9fd9e87"),
    "1d/f32/plain/b64/rel1e-3": ("4976ae61a76cffd7b967a91f2bc2f0a950af8cc9363fcc2f17213cf6bd5f3730", "bca0bb30695b7682b3fa4c4cd45c73b0a7bd5420e1502a8966503a1c644a8b75"),
    "1d/f32/plain/b64/rel1e-5": ("d8c634d24486d512fde2881d49dad027ae282e5c7f7145c3617344367b340c93", "fc1809e41340caf2726eda743b1618a4313e65015f7d4a657ad047c73c16d944"),
    "1d/f32/plain/b8/abs0.05": ("b566809f8a28ed72765cc6c1c232e1b1255d77b3bab2e4383017f7ecfa28be8a", "154bb421e7499af8dbccaee2b7ea6ba53b5117e8245d5b0b36b9aba5b9fd9e87"),
    "1d/f32/plain/b8/rel1e-3": ("01d7dcd0e3d9a81ea6f1d4650093e79af96e26f5bf9197a2c6c30c78343a2abd", "bca0bb30695b7682b3fa4c4cd45c73b0a7bd5420e1502a8966503a1c644a8b75"),
    "1d/f32/plain/b8/rel1e-5": ("1237c2a72dc111135f672660fc9b38d1b7ccaea34b214a2acfbc5372eaa3d38f", "fc1809e41340caf2726eda743b1618a4313e65015f7d4a657ad047c73c16d944"),
    "1d/f64/outlier/b128/abs0.05": ("3abb53fe214f28352fd41721de7c34731f721e10665c6a3d8646275f0fe507d8", "c5004348ff3f6e21132a43957346b05a00bbe803bdc88b6f94efe7e8ab38f16b"),
    "1d/f64/outlier/b128/rel1e-3": ("645b8d801b334aa5fab4ebdf15825bb234824c0248b7ddf8739f14c993f4a461", "aaeef4af1bb6bf640c4985447d206a8db094307ec77625fb99c166dede8086c8"),
    "1d/f64/outlier/b128/rel1e-5": ("c4268b5f50d553db1d8a13748972b0dd591e4f0ece82874e0d4435bfd71a6153", "4ecfb5d524fec128f509b577741d713db022944cdc38b873ffdc2bc05cd92b7a"),
    "1d/f64/outlier/b16/abs0.05": ("e3277606162303bc97cfe64d206505f651c3163a3f2c2f1857fa6ee54f91fd85", "c5004348ff3f6e21132a43957346b05a00bbe803bdc88b6f94efe7e8ab38f16b"),
    "1d/f64/outlier/b16/rel1e-3": ("b5d24938baa0955e60becbee0d0bc2a64c421371d8453bef00ac2770d1d5a1bd", "aaeef4af1bb6bf640c4985447d206a8db094307ec77625fb99c166dede8086c8"),
    "1d/f64/outlier/b16/rel1e-5": ("bf422fedd0138af4b8e127c6acd4e7b420185e31af9a59634223a846998cb0ff", "4ecfb5d524fec128f509b577741d713db022944cdc38b873ffdc2bc05cd92b7a"),
    "1d/f64/outlier/b32/abs0.05": ("384f788c989d8789e13974c89a067e590af3712b34c47ca41ba1c93b7b1e908d", "c5004348ff3f6e21132a43957346b05a00bbe803bdc88b6f94efe7e8ab38f16b"),
    "1d/f64/outlier/b32/rel1e-3": ("cf28277d6c743dd90ea1c64c72ef60240c4d88c7a7cd6b7c89d183e9d173a387", "aaeef4af1bb6bf640c4985447d206a8db094307ec77625fb99c166dede8086c8"),
    "1d/f64/outlier/b32/rel1e-5": ("be120eb7cff9a4576b071cf0c51b06a21df05225058e242a199610781f87abae", "4ecfb5d524fec128f509b577741d713db022944cdc38b873ffdc2bc05cd92b7a"),
    "1d/f64/outlier/b64/abs0.05": ("e5c4df04420a40d4371c32c5a089bc96d9f2d504c0f60c9e44d4c3bc040afdbf", "c5004348ff3f6e21132a43957346b05a00bbe803bdc88b6f94efe7e8ab38f16b"),
    "1d/f64/outlier/b64/rel1e-3": ("8da52fa6ca0e899d011bc9753e615d9c9fb0922b1eec57957c9302d9a23e9179", "aaeef4af1bb6bf640c4985447d206a8db094307ec77625fb99c166dede8086c8"),
    "1d/f64/outlier/b64/rel1e-5": ("d84718daf00a65820d93c103b954f9b75fadeec44284afc2f0774a9fd3bbc72d", "4ecfb5d524fec128f509b577741d713db022944cdc38b873ffdc2bc05cd92b7a"),
    "1d/f64/outlier/b8/abs0.05": ("ba70e05b0a4babfcb3a6de5d5802aca929b1d67eb3a3cde12b4535a9dfd91350", "c5004348ff3f6e21132a43957346b05a00bbe803bdc88b6f94efe7e8ab38f16b"),
    "1d/f64/outlier/b8/rel1e-3": ("cb0bce0a3ff10630c0c2dd8de377a305532e0d984685d2b4cd621eae18f038a4", "aaeef4af1bb6bf640c4985447d206a8db094307ec77625fb99c166dede8086c8"),
    "1d/f64/outlier/b8/rel1e-5": ("265d181af9d2424f458b565020fd6602137840bc1e29e9b647ee158b75ea9185", "4ecfb5d524fec128f509b577741d713db022944cdc38b873ffdc2bc05cd92b7a"),
    "1d/f64/plain/b128/abs0.05": ("2457291f315422cfa42ba04ba18d99aadc4867d3e7a520b18f31ebc3ecc44620", "c5004348ff3f6e21132a43957346b05a00bbe803bdc88b6f94efe7e8ab38f16b"),
    "1d/f64/plain/b128/rel1e-3": ("03c644f16f6150b4a0ec256a7f53397db40f55a419614dca628dd36c2cdc1919", "aaeef4af1bb6bf640c4985447d206a8db094307ec77625fb99c166dede8086c8"),
    "1d/f64/plain/b128/rel1e-5": ("00932e6a9575c6e3cc82fc7b35acac87c5a6b3b4fc90a80650e06ae0ac024d26", "4ecfb5d524fec128f509b577741d713db022944cdc38b873ffdc2bc05cd92b7a"),
    "1d/f64/plain/b16/abs0.05": ("ad723c23ab5896668ca0fcad7902132e9bfb0b29ea65df817dc0270061bcb6ca", "c5004348ff3f6e21132a43957346b05a00bbe803bdc88b6f94efe7e8ab38f16b"),
    "1d/f64/plain/b16/rel1e-3": ("524a15213eb6a2234f3d75e91fdc7dbbb41044941296f112dc60c350397822fa", "aaeef4af1bb6bf640c4985447d206a8db094307ec77625fb99c166dede8086c8"),
    "1d/f64/plain/b16/rel1e-5": ("7c3f4f7a79b9b2db2bb3c7af75f284f5f40923cd02b3091b4df246b2d6c80ad4", "4ecfb5d524fec128f509b577741d713db022944cdc38b873ffdc2bc05cd92b7a"),
    "1d/f64/plain/b32/abs0.05": ("0f45986f59edab07c49ac28edfec892334643b920fd276ff6f4f1b266fa16ba1", "c5004348ff3f6e21132a43957346b05a00bbe803bdc88b6f94efe7e8ab38f16b"),
    "1d/f64/plain/b32/rel1e-3": ("4f69dd7dfd8ca3c4ea11b7bf490291a02aff802c874c973add165b7eb4ec40b2", "aaeef4af1bb6bf640c4985447d206a8db094307ec77625fb99c166dede8086c8"),
    "1d/f64/plain/b32/rel1e-5": ("e7060354f467195765aa2bba5bdcfd215faf4de439cff9d93e0bd016d1f5b4ae", "4ecfb5d524fec128f509b577741d713db022944cdc38b873ffdc2bc05cd92b7a"),
    "1d/f64/plain/b64/abs0.05": ("1be1971b9ed773cbdc88f58e62940a93f323dde67ea7d4ce41ec9debb810bf16", "c5004348ff3f6e21132a43957346b05a00bbe803bdc88b6f94efe7e8ab38f16b"),
    "1d/f64/plain/b64/rel1e-3": ("5e55d82c6631614158cb6a2ef8d8cc8e2954ba69f5c0d041148f64d3038bd615", "aaeef4af1bb6bf640c4985447d206a8db094307ec77625fb99c166dede8086c8"),
    "1d/f64/plain/b64/rel1e-5": ("2f47f3bf57c00847f3c0a7407dd611f990f6999d7a1f4a806124e194cbcff676", "4ecfb5d524fec128f509b577741d713db022944cdc38b873ffdc2bc05cd92b7a"),
    "1d/f64/plain/b8/abs0.05": ("8b6a6842618477c4a6def47d70665be8026f26ce5ad83f076acc426f0690b1a3", "c5004348ff3f6e21132a43957346b05a00bbe803bdc88b6f94efe7e8ab38f16b"),
    "1d/f64/plain/b8/rel1e-3": ("89db1145434cc83fe43b1b6c28084528175fb580177c21c39a82cac38f56ae50", "aaeef4af1bb6bf640c4985447d206a8db094307ec77625fb99c166dede8086c8"),
    "1d/f64/plain/b8/rel1e-5": ("c9b081e10727edaa3f3d91ae53633cf8e127307ad2966f362a5324dfb7dc8a46", "4ecfb5d524fec128f509b577741d713db022944cdc38b873ffdc2bc05cd92b7a"),
    "2d/f32/outlier/8x8": ("2c5ba89bc157d1ae8f40b924260d66416392813cb2339d854c462df631dbc19b", "ee811d85a216134af60e4ac20c9257226940d883f82e573808e610a2c5cefe8c"),
    "2d/f32/plain/8x8": ("84f9d8499e0310c4d2b93088ff63dac2572f395d14b12e2f4a458ac095982173", "ee811d85a216134af60e4ac20c9257226940d883f82e573808e610a2c5cefe8c"),
    "2d/f64/outlier/8x8": ("924069132a2567038328069daa4dd7e384fd4f6531281612a538a2a877290d06", "7e234ebdcd703ddd7f1a00793770d0792cc1525f9b5e8cceedff94697c22eff7"),
    "2d/f64/plain/8x8": ("f63ddf7708b23ac2d9f076e209d66245323090a43782d99e43db4c217a898889", "7e234ebdcd703ddd7f1a00793770d0792cc1525f9b5e8cceedff94697c22eff7"),
    "3d/f32/outlier/4x4x4": ("52f97a8819a87faa8824ad1d09da0eba2e086eccf537edd90ebf9800082dac8c", "4af5b793db9ddefcbb817bf8a2cd508a5c35cc5ca0073a9bf2f7b6e714fe16e4"),
    "3d/f32/plain/4x4x4": ("fc4c194cf7bb3b343dfef32b1977ac955f5314442166ad34769fa0c1c6e50c2a", "4af5b793db9ddefcbb817bf8a2cd508a5c35cc5ca0073a9bf2f7b6e714fe16e4"),
    "3d/f64/outlier/4x4x4": ("780da71e4be4dc1cbd93d34e424240f97c0790377a5260e96178ae712515cd49", "399418940d2a149d1abb5146e1774d04176667836a2168299fc5d4262a5c6c90"),
    "3d/f64/plain/4x4x4": ("d87805c369a950ad9216007338ba6fe4204c1fd1f94a72081c768c7dc41ec0f8", "399418940d2a149d1abb5146e1774d04176667836a2168299fc5d4262a5c6c90"),
    "chunk_blocks/1": ("fded493eaa3334f75589c95cad00b7666542abd0bc5b2e70d3d048e0ae078776", "578ee8664ed916e62b7f28bbaa5366d6629fbcd540b8189a35ac3de3c3103f96"),
    "chunk_blocks/3": ("fded493eaa3334f75589c95cad00b7666542abd0bc5b2e70d3d048e0ae078776", "578ee8664ed916e62b7f28bbaa5366d6629fbcd540b8189a35ac3de3c3103f96"),
    "chunk_blocks/64": ("fded493eaa3334f75589c95cad00b7666542abd0bc5b2e70d3d048e0ae078776", "578ee8664ed916e62b7f28bbaa5366d6629fbcd540b8189a35ac3de3c3103f96"),
    "denormal/f32/abs": ("6e5ccec986499e97ad82f45db78aa99b1431610b884211140bcc7719b70d12c7", "975f59edf22502a61ca7add598baedd90014e044d322aa8cd3221da8d2b688ba"),
    "denormal/f32/rel": ("b26f02d72d212e3f3663dc30ef177ebdf1921c69dcdfa7ff680a00f1fd190940", "09cc2040ebff7c9e20f1018c071c178060f71b42e9f4fb67a08ec21740c5959f"),
    "denormal/f64/abs": ("600b7e9078957db42afc595fd7e51c2cd9627a2bc9ea5d2c972b8b182ab7241b", "002cfae8047d7e92e1429c3872f75ae31e9de0e48d16a7f3e6ebb41958f1987e"),
    "denormal/f64/rel": ("d688619b89eec858b4b28dffb0f0aa08826e2417a171a1e6f82a184c02d15413", "e855af25406b32f7185d6f92d2309789c378239dbbc5750bce2ac00a1eefb797"),
    "group_blocks/1": ("22366dcf1e92081f078b9539b83445d006ae53f7af8cb73930e322320ca19122", "812971c48e07d162d713d5cdb1ea27e7eca424af8d9b7999a311faed492706e4"),
    "group_blocks/16": ("1deca36ebe9db2ad0b5288bc401e9382fc3b04a5250ca63e279c10355d7fb3b8", "812971c48e07d162d713d5cdb1ea27e7eca424af8d9b7999a311faed492706e4"),
    "planes/outlier/fl0": ("ed96766ba2d38747177990d2bf5b039b305e93bd890b43d5fb5ae3384bfab9ce", "9e132485d5107211de325a45e7917cbe3e4b5b9cde3e4ee91d7d2102317759ee"),
    "planes/outlier/fl1": ("01a2c1e072ebf67265fac074caa033c4a3fb3de0da854885e470a14b5ee67a08", "379c07f65d069f67eed2d6faf946c69dd19e3bfd8587bc0a8ae39d9c3776f100"),
    "planes/outlier/fl10": ("a28ebe17052b252fdf96a0eedc203b443fdf7c9eed8bb7029f061fb274b0ed46", "b87b55db3aabda10e19053b891a40e14b7c1adedcca55c12ad78e17b45d9267a"),
    "planes/outlier/fl11": ("7b2c44f005ebcab886ba346d5e11623e638c125aa50b6ce2307532a6b9745d8d", "162699c5e83e391d390fdd4f224c927f601009b488ee62c6f70a71689e4392b2"),
    "planes/outlier/fl12": ("7788afe92a5241842df6caec2993273d6718a6dcb84d6d39d2fb61407db96ff0", "538dd1cfe5fed217a18b6524001a893abeb0602c3117f7e084e90e074ab26c0d"),
    "planes/outlier/fl13": ("af23a533b616cbd629c50199fa877cf74a57d32773b11224db7cfdddfb941b5c", "b253664ad8b7528e85eb61072ce813723a53b9d2ed8dbb2b16ebee7d2a475442"),
    "planes/outlier/fl14": ("5c88d0a33793b5bee97b906abdfbff2d414b085d77afe47bd0d7b5f5cc96c937", "cf2a198b3ced82efef7be3b9112bd3e8084c635e24c2ce2339a3ec9da43ad56e"),
    "planes/outlier/fl15": ("ff15714c784fb6f5e9edc802056223a28a39e8b338539b5e28509479bbdbe23b", "45f8fc22d3c11729db6b4effc55cad62418f6aded7af4f6a275ea675facc8c62"),
    "planes/outlier/fl16": ("f7a6560f459160fd156a38a9d4e1873fb95b93fa6878dfa3d57097612f1caab5", "e2fc23ed1a5d7e8c13c140e4ccc24a62496df367b4b47ed8919243916877c5be"),
    "planes/outlier/fl17": ("b592eb5e18ef4e8bfe8903c50fa906b4b41137681cac121b7c1e36f9cdb04164", "c92592c71149e1eca26579fbf5ca8d99156f323bc29a5978f562faf48d75906e"),
    "planes/outlier/fl18": ("a59200340bc9396c77000c91966ee2bba6788a16c0ed157ace05b1f5feef45ba", "85ba4b52cbce3b6e590daeac0aeb56bd3bcceff2de91cfcf0a5886f1691912c9"),
    "planes/outlier/fl19": ("958bb8e43f08257eebadc62bc3b1afebe9c9cffbf99daf50179cec63ad974176", "4ea669884d27e43d6511f76c99b9c8cc770051e9bd3d37cd931befd46604622f"),
    "planes/outlier/fl2": ("4d1bbf9951f47b922c3d6e18f353d7b403a819987c2ab3bdf128efa63752b5e9", "9220ebd38f518de8b506b5e369ac86b3081da167a5a39b1312233cd89ff46eb4"),
    "planes/outlier/fl20": ("d8ecff5ac65488d0d1186c045c712b706c3820226d12664e2a2e3b174f40049b", "2efed8268c143e9b7bd68e8148fcfad5b0f30fa3c4856837d55a25f3cc809620"),
    "planes/outlier/fl21": ("2fcbbc1c9a99ed40140c777c732133d6b7e55f94427c0148a27b6a8503195955", "cd0e96cf89d9da72827e58875da7daf7fe6191963fbcb352969abd1f3923e391"),
    "planes/outlier/fl22": ("3573c953586eb3df7053569569775bbfb4dbc5eba44d424f3b34c6251c0f2917", "19a18da1f68caf8adad4f90ee8394e17d253bf2f1c4240e971d60794032b53ee"),
    "planes/outlier/fl23": ("6f08c3ddc77513ed00d780d5e21ddb13241f24988d7b52ee301d245fc166b0f3", "8b3393b05dd9bcaab6f6471e5417240ff354958620fd19707572ad1670c584ec"),
    "planes/outlier/fl24": ("b14ce4941f45fd997f023ceccb84d31a7845dcc1ebdf0be534a721488dadadc1", "245a8788d813833309185be407ba50d6ee69daa8e8292dd370c8dbb09fb5883f"),
    "planes/outlier/fl25": ("8b9692ee09c42ce2e78ef9b23f3e523d207684f0c3ed20ca23fa3ebf395d3d93", "ad7bb2f1d646dbe8aecfe7dc83e749b0b8eaf927ee555bda40779790cbc3f264"),
    "planes/outlier/fl26": ("749ba178488a96605b3a562a4224c6b1567457c14ad36a3b7d47d136368181db", "33e57e1ebbd041e39e0e2005c984ad2d28ebae26eb2d0babb644659a8a210852"),
    "planes/outlier/fl27": ("e35669569290ec677b30a8841c974442d37ec85a6556decbbf00ee3f7c6a382a", "f23c13206c846e6f0ecc04266eec0c8af41907599c4d3843bc8a9df118705f26"),
    "planes/outlier/fl28": ("f96cb31473ecca27d66a5db5eaa37d5df04c14b5bc58c9ff7c235459b0c70516", "8ea0f8c199224cf3b474bd778b4c505d158f10c1ac513d6594d02743bf347a78"),
    "planes/outlier/fl29": ("ff65edbf95473bffdd23dfe138712a6170f37c6ea6351d90f20c282b523e330d", "0f56554eb8bd2a6a97036ce038868a9f5dd37745a6e700df7b9c5e26a0c7f0c8"),
    "planes/outlier/fl3": ("eb0e32f34cca103673c2e985569d4d494afc77b51031dfc7c26aac483da17959", "5fe6f51b870b83865885035bc5e75eff722c91973753459f0be778a30f05103e"),
    "planes/outlier/fl30": ("2c88abb7ed20677daebc5bb1e4c5cc43e6f5615f90a729ea39e6e75d1caca2e4", "eb8ed9ce26cf7c2f2438ea397b822078b0c2f49fbef4dd41a84e2819ffd5a231"),
    "planes/outlier/fl31": ("1bf77e3481aacb615057111460544244261cf109d03438bf2e0bd137a4b3e4d6", "a55f60c48bc1210193d4e71b495ef3af85864969af96fc17455238654766034c"),
    "planes/outlier/fl4": ("d443ebc37d17775e446a8096711203a868e5306decaa79675a7fa099d49706f9", "1e68dc0e4f46b91508e21ef3a136136fb257bf613336e000e8581cf19e95bcf1"),
    "planes/outlier/fl5": ("68c66dbad1550ec2174c90679ccbb92fd975dd7c588c9056aa30411b15754fbe", "748451e51537cfd11093d454e6bed2225e0cc7608af57e0609b9f29edb3478cb"),
    "planes/outlier/fl6": ("426f723991b808ae3c224654a0d0aea2db284c45f1adc48d959a36ce434b3f2b", "b8a54f1e54a1083c291ae902b702b534e1ff671f4c5799039b5cf000e89d3ea5"),
    "planes/outlier/fl7": ("45f25a6c9742cadf4ccde1dad5d42711989935238d5090a9604ac4a4b162a323", "1cac1dadea582d34f74eca89213bdd91b51a8ba8f0128d7161e72951aabbf68b"),
    "planes/outlier/fl8": ("18dafb9ea443dea2317cbbbe0949577ecb9f35a4c07cb91bfcdf244f4f279744", "95d5e361ac7d3563ca1509138201fbd1e408ef10715be9bdb88e932936fe1ed5"),
    "planes/outlier/fl9": ("eea3139374ad93003c8fe4baed4d5cb1a3d03db6e4783d9f605c67b437e8bc14", "0d283e257c9b7f8105fc996671d0bebd2fb24f93e0dd51f6dc3dc1b349ca51a7"),
    "planes/plain/fl0": ("504ece598445e014d187bf24df011e35e513dcea47918e7c32642e5c12135f89", "9e132485d5107211de325a45e7917cbe3e4b5b9cde3e4ee91d7d2102317759ee"),
    "planes/plain/fl1": ("6e18b97caa4913cb327632ef667da9bbbe70e32225e95ce5dcc8736fd7597389", "379c07f65d069f67eed2d6faf946c69dd19e3bfd8587bc0a8ae39d9c3776f100"),
    "planes/plain/fl10": ("b29fcec9a7f8f7ddb0a65a53a693b0f46c1ae5cdb5140d8e54c78c448f33a08b", "b87b55db3aabda10e19053b891a40e14b7c1adedcca55c12ad78e17b45d9267a"),
    "planes/plain/fl11": ("a55512757e9c6297fc67a26b9fb3ab292914ec7e543ed875b34f16b9eb94704d", "162699c5e83e391d390fdd4f224c927f601009b488ee62c6f70a71689e4392b2"),
    "planes/plain/fl12": ("d49ea13c79384cac9054d184e1b7093c3aa88fb20b761ac62b9cf2ff7626fa80", "538dd1cfe5fed217a18b6524001a893abeb0602c3117f7e084e90e074ab26c0d"),
    "planes/plain/fl13": ("7ac60dfaa1147b2d4a0f7b836ebde1ffb8423d20636acaec99a83fb35b652995", "b253664ad8b7528e85eb61072ce813723a53b9d2ed8dbb2b16ebee7d2a475442"),
    "planes/plain/fl14": ("40cb86f368c714a8492352a5895a815da745c25f851041db4d7b7ecb5129315f", "cf2a198b3ced82efef7be3b9112bd3e8084c635e24c2ce2339a3ec9da43ad56e"),
    "planes/plain/fl15": ("bb72de0b8663acb80507372b9c11a6c77e05be2592d90f8f8404813f8a8b05ea", "45f8fc22d3c11729db6b4effc55cad62418f6aded7af4f6a275ea675facc8c62"),
    "planes/plain/fl16": ("22970abdaf7ce0461df439aef26ace4e026d9a66069e15d280a204ae672476d5", "e2fc23ed1a5d7e8c13c140e4ccc24a62496df367b4b47ed8919243916877c5be"),
    "planes/plain/fl17": ("8b15aace61b0d185a4dd5846905d6e61c00672085c982cd3a773004d3e5ab067", "c92592c71149e1eca26579fbf5ca8d99156f323bc29a5978f562faf48d75906e"),
    "planes/plain/fl18": ("b69e324604c80fe1562fc02c2776e529360f7cd2e4e1bd91f3f698f0fbd40073", "85ba4b52cbce3b6e590daeac0aeb56bd3bcceff2de91cfcf0a5886f1691912c9"),
    "planes/plain/fl19": ("5684cc2b8641bfe6d07c83f0ce4275b4d1972c3ebb0a8c79b353a23c9db61353", "4ea669884d27e43d6511f76c99b9c8cc770051e9bd3d37cd931befd46604622f"),
    "planes/plain/fl2": ("18028d4d42a5512e1f2508732729751825d9aaf6b01557ea4d638eff9b146ea3", "9220ebd38f518de8b506b5e369ac86b3081da167a5a39b1312233cd89ff46eb4"),
    "planes/plain/fl20": ("f01c4497eae7e8bcddd42ecd47226f7adb7f25ff7ac58ff79f504ec740db5083", "2efed8268c143e9b7bd68e8148fcfad5b0f30fa3c4856837d55a25f3cc809620"),
    "planes/plain/fl21": ("e55d176559a98d02ba5544c797e97c9d97cf2e1deb44a5ef770600b9216d5439", "cd0e96cf89d9da72827e58875da7daf7fe6191963fbcb352969abd1f3923e391"),
    "planes/plain/fl22": ("61893ce60390a5889061bdfe7a792596fe03d72086b571ac7a536e90c4a05f5d", "19a18da1f68caf8adad4f90ee8394e17d253bf2f1c4240e971d60794032b53ee"),
    "planes/plain/fl23": ("0bc72ac46f22f3f57142be12297cfa68022f33d3856d694f78bb1a163004afc5", "8b3393b05dd9bcaab6f6471e5417240ff354958620fd19707572ad1670c584ec"),
    "planes/plain/fl24": ("3f33d2a31661d82af28d54c7e3a052a55d2a2b4c554d1c526c184ab5da3b5d88", "245a8788d813833309185be407ba50d6ee69daa8e8292dd370c8dbb09fb5883f"),
    "planes/plain/fl25": ("e0572b3e8bd5af81903d7be2258e2101549f57057948beda042304233b14c494", "ad7bb2f1d646dbe8aecfe7dc83e749b0b8eaf927ee555bda40779790cbc3f264"),
    "planes/plain/fl26": ("82379a146483ed220d584d29221de777e3c28b3e1f5b7908ad6b3122feea7945", "33e57e1ebbd041e39e0e2005c984ad2d28ebae26eb2d0babb644659a8a210852"),
    "planes/plain/fl27": ("50040223f38afa411fde448f0ba9c399afc092c11f292875252e608442541ec2", "f23c13206c846e6f0ecc04266eec0c8af41907599c4d3843bc8a9df118705f26"),
    "planes/plain/fl28": ("f9f9f9a19eed4f8be8fec2d5d99cd95e29fdb9cd686e4598e58353386f549783", "8ea0f8c199224cf3b474bd778b4c505d158f10c1ac513d6594d02743bf347a78"),
    "planes/plain/fl29": ("bb55dfb7af2563b96945a8cbf22885f864700a1fac62622fb4eab7fb20188d05", "0f56554eb8bd2a6a97036ce038868a9f5dd37745a6e700df7b9c5e26a0c7f0c8"),
    "planes/plain/fl3": ("69d6e7d0453cc88407019d3bfd12a6b00216fce1502b0a9800e275fa35424300", "5fe6f51b870b83865885035bc5e75eff722c91973753459f0be778a30f05103e"),
    "planes/plain/fl30": ("4cba24e7b33f61b2a9db9eea6390a1ef2bfd915a05d5f333e83e435ff99d28f3", "eb8ed9ce26cf7c2f2438ea397b822078b0c2f49fbef4dd41a84e2819ffd5a231"),
    "planes/plain/fl31": ("000e9b55f4887fae1f988ad6115f082a4dd35cbfc3d2d06f5a5e68cd8885d7f7", "a55f60c48bc1210193d4e71b495ef3af85864969af96fc17455238654766034c"),
    "planes/plain/fl4": ("1f1c985ec6352d2e8b38ee50c9bf7e54e6565c7d2a25f1a84dea5795c84b6f99", "1e68dc0e4f46b91508e21ef3a136136fb257bf613336e000e8581cf19e95bcf1"),
    "planes/plain/fl5": ("6884fac30cb168ca7f1f82f7fc6361603cf5cb2b661eb476f58b74a7c2aad96a", "748451e51537cfd11093d454e6bed2225e0cc7608af57e0609b9f29edb3478cb"),
    "planes/plain/fl6": ("b0983d33efdd367c0cedd18482850a3ea24699656b68f82de81dfbad0c8eb013", "b8a54f1e54a1083c291ae902b702b534e1ff671f4c5799039b5cf000e89d3ea5"),
    "planes/plain/fl7": ("6a21618a59142381821da76dff99d1432cee1e25493196355f3171d3367002ec", "1cac1dadea582d34f74eca89213bdd91b51a8ba8f0128d7161e72951aabbf68b"),
    "planes/plain/fl8": ("038ff9fd5d8bcb2313addbf8cb24e6147856adf7706ce395eced7391939b758a", "95d5e361ac7d3563ca1509138201fbd1e408ef10715be9bdb88e932936fe1ed5"),
    "planes/plain/fl9": ("ba64e60398eef79f96e3c0ea3ac412f7a4c9ff587a5e65b54ef8a7cf31d44460", "0d283e257c9b7f8105fc996671d0bebd2fb24f93e0dd51f6dc3dc1b349ca51a7"),
    "tail/outlier/n1": ("5672b316604330460c3f7d7b6a609e08fafaf66d9b72a7afbc3dc1540df3c10a", "0f15a60dca097ddb8d5ff26cc800a9ea61e98405086f227eae8b187661ad6de6"),
    "tail/outlier/n2": ("b3b65f1405eae3532265736965ce5e3d7a8ac6b025dfd9b97cfdfc928bedc939", "17879aa32ea51c91b6c73d2c00a64a4c638e6ae893e1a1a0a27facce99e4971a"),
    "tail/outlier/n257": ("5c16b1e86385ea5cc3ce1db06dd5ce17051488d2174ddb5032602a1b70ae7c51", "41dc19b51095aa12db025f36cdf821453b9bc092e4ac9cf39c9c64befe757e10"),
    "tail/outlier/n31": ("242a132265f33d0d00ee54b4462ec074d2eaf42ace0b1fe24b5ce051adb6b053", "b48b635406441a0356c13031bde3a5692cc1977051041ec9e52947102b72bc14"),
    "tail/outlier/n32": ("16e5c99a7d6509d8dae6c7019a54f0dda40a0a5d386d03aa208e46893643fac1", "dff1d7f2c4a006b6350db8546aaac906205a3281e80d44f2a9102cf6dbe52d1f"),
    "tail/outlier/n33": ("5bae8247469f62d7d09a1ebdb20365f854b5fd3c8460860740146085c993c506", "4d5b825e1875603f6adcebd73f9f25e3f1ed2f01caf7c20dbef28a20904297b5"),
    "tail/outlier/n63": ("a1d692cf3bca952a5053bfc761d7e266b382c97f441c1fbd2c696ae2e8fb7269", "43795977922d368f119b7b879385e7a2d5b5c45cec440485f8c3b9c499fab165"),
    "tail/outlier/n65": ("68b0332f29e31e820791056d3eee066825bdd0f54cfed49a3bc1d6b39901e84a", "f2172cdb289c22d22022228ffc29bfbc59303741098ce72fd50cc673a6805ebb"),
    "tail/plain/n1": ("8975ee382a546924e3dc5d47b046aaa4c962b76b28b43bee82a8a88c862bebcf", "0f15a60dca097ddb8d5ff26cc800a9ea61e98405086f227eae8b187661ad6de6"),
    "tail/plain/n2": ("139c5c053cab9baf5bdccc46ddedb5085092bed671f072c9fae716168995bafa", "17879aa32ea51c91b6c73d2c00a64a4c638e6ae893e1a1a0a27facce99e4971a"),
    "tail/plain/n257": ("18b1da3aa72bec9f4964b841d39f90d060defed2280f0655a5c9ba4efeaac703", "41dc19b51095aa12db025f36cdf821453b9bc092e4ac9cf39c9c64befe757e10"),
    "tail/plain/n31": ("c911073cf575bbd5791c54ac9394ab3bac56aa5971426a2d69a97a4539a415f2", "b48b635406441a0356c13031bde3a5692cc1977051041ec9e52947102b72bc14"),
    "tail/plain/n32": ("2e45214b4fb699eb1f9e42f89f4b1d6551dcd0eddde3804eb66956d5c7d883e6", "dff1d7f2c4a006b6350db8546aaac906205a3281e80d44f2a9102cf6dbe52d1f"),
    "tail/plain/n33": ("b908c33edde394fb591deccfa02d69bad56114f8ce0c2d890af83b6deb1c27d5", "4d5b825e1875603f6adcebd73f9f25e3f1ed2f01caf7c20dbef28a20904297b5"),
    "tail/plain/n63": ("3a6321e2c7fba3da957ffd7aaf5c5657be1e0a2fc53f32dd6d24705ce08d19d9", "43795977922d368f119b7b879385e7a2d5b5c45cec440485f8c3b9c499fab165"),
    "tail/plain/n65": ("337f83995afea03f6a65eb36301ff32952b51d5c87c26c643b86824b36c45085", "f2172cdb289c22d22022228ffc29bfbc59303741098ce72fd50cc673a6805ebb"),
}


def test_table_covers_every_case():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_digest(case_id):
    assert _digests(CASES[case_id]) == DIGESTS[case_id]


if __name__ == "__main__":
    print("DIGESTS = {")
    for case_id in sorted(CASES):
        print(f'    "{case_id}": {_digests(CASES[case_id])!r},'.replace("'", '"'))
    print("}")
