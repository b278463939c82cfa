"""The cuSZp2 codec: the paper's primary contribution.

Public surface: :func:`compress`, :func:`decompress`, :class:`CuSZp2`,
:class:`ErrorBound`, :class:`RandomAccessor`.
"""

from .compressor import (
    DEFAULT_BLOCK,
    CompressorConfig,
    CuSZp2,
    compress,
    compression_ratio,
    decompress,
    validate_chunk_blocks,
)
from .errors import (
    CuSZp2Error,
    ErrorBoundError,
    IntegrityError,
    InvalidInputError,
    QuantizationOverflowError,
    RandomAccessError,
    StreamFormatError,
)
from .quantize import ErrorBound
from .archive import DatasetArchive, pack, pack_dataset
from .integrity import CorruptionReport, recover as recover_stream, verify as verify_stream
from .random_access import RandomAccessor
from .tile_access import TileAccessor
from .verify import VerificationReport, verify
from .stream import DEFAULT_GROUP_BLOCKS, HEADER_SIZE, StreamHeader

__all__ = [
    "CuSZp2",
    "CompressorConfig",
    "validate_chunk_blocks",
    "ErrorBound",
    "RandomAccessor",
    "TileAccessor",
    "DatasetArchive",
    "pack",
    "pack_dataset",
    "verify",
    "VerificationReport",
    "StreamHeader",
    "HEADER_SIZE",
    "DEFAULT_BLOCK",
    "DEFAULT_GROUP_BLOCKS",
    "compress",
    "decompress",
    "compression_ratio",
    "CorruptionReport",
    "verify_stream",
    "recover_stream",
    "CuSZp2Error",
    "ErrorBoundError",
    "IntegrityError",
    "InvalidInputError",
    "QuantizationOverflowError",
    "RandomAccessError",
    "StreamFormatError",
]
