"""Unit tests for repro.utils.crc."""

from repro.utils.crc import FCS_LEN, append_fcs, check_fcs, crc32


def _crc32_bitwise(data) -> int:
    """Independent oracle: bit-serial CRC-32 over the reflected polynomial."""
    crc = 0xFFFFFFFF
    for byte in bytes(data):
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


class TestCrc32:
    def test_matches_bitwise_reference(self):
        for data in (b"", b"a", b"hello world", bytes(range(256)) * 3):
            assert crc32(data) == _crc32_bitwise(data)

    def test_accepts_byte_like_inputs(self):
        data = bytes(range(7, 250, 3))
        expected = _crc32_bitwise(data)
        for view in (data, bytearray(data), memoryview(data)):
            assert crc32(view) == expected
        assert crc32(memoryview(data)[5:20]) == _crc32_bitwise(data[5:20])

    def test_known_value(self):
        # CRC-32 of "123456789" is the classic check value 0xCBF43926.
        assert crc32(b"123456789") == 0xCBF43926
        assert crc32(b"") == 0

    def test_sensitive_to_single_bit(self):
        assert crc32(b"\x00") != crc32(b"\x01")


class TestFcs:
    def test_append_and_check(self):
        frame = append_fcs(b"payload")
        assert len(frame) == 7 + FCS_LEN
        assert check_fcs(frame)

    def test_corruption_detected(self):
        frame = bytearray(append_fcs(b"payload"))
        frame[0] ^= 0x01
        assert not check_fcs(bytes(frame))

    def test_corrupted_fcs_detected(self):
        frame = bytearray(append_fcs(b"payload"))
        frame[-1] ^= 0x80
        assert not check_fcs(bytes(frame))

    def test_too_short_frames(self):
        assert not check_fcs(b"")
        assert not check_fcs(b"abc")

    def test_every_byte_position_matters(self):
        base = append_fcs(bytes(range(32)))
        for i in range(len(base)):
            corrupted = bytearray(base)
            corrupted[i] ^= 0xFF
            assert not check_fcs(bytes(corrupted)), f"corruption at byte {i} missed"
