"""CRC-32 as used for the IEEE 802.11 frame check sequence (FCS).

The FCS is the standard CRC-32/ISO-HDLC (polynomial 0x04C11DB7, reflected
as 0xEDB88320, initial value and final XOR 0xFFFFFFFF), which is exactly
what the standard library's ``zlib.crc32`` computes; every frame goes
through it once per transmit and once per receive.
"""

from __future__ import annotations

import zlib

__all__ = ["crc32", "append_fcs", "check_fcs", "FCS_LEN"]

FCS_LEN = 4


def crc32(data: bytes | bytearray | memoryview) -> int:
    """Compute the CRC-32 of ``data`` (the 802.11 FCS, via ``zlib.crc32``)."""
    return zlib.crc32(data)


def append_fcs(payload: bytes) -> bytes:
    """Return ``payload`` with its 4-byte little-endian FCS appended."""
    return payload + crc32(payload).to_bytes(FCS_LEN, "little")


def check_fcs(frame: bytes) -> bool:
    """Validate a frame produced by :func:`append_fcs`.

    Returns ``False`` for frames too short to carry an FCS.
    """
    if len(frame) < FCS_LEN:
        return False
    payload, fcs = frame[:-FCS_LEN], frame[-FCS_LEN:]
    return crc32(payload).to_bytes(FCS_LEN, "little") == fcs
