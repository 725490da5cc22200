"""Low-level utilities shared by the PHY, channel, and CoS layers.

The helpers here deliberately avoid any domain knowledge: they deal with
bits, bytes, checksums, and reproducible randomness only.
"""

from repro.utils.bitops import (
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    int_to_bits,
    pad_bits,
    random_bits,
)
from repro.utils.crc import crc32, append_fcs, check_fcs
from repro.utils.rng import make_rng, named_rng

__all__ = [
    "bits_to_bytes",
    "bits_to_int",
    "bytes_to_bits",
    "int_to_bits",
    "pad_bits",
    "random_bits",
    "crc32",
    "append_fcs",
    "check_fcs",
    "make_rng",
    "named_rng",
]
