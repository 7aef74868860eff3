"""Tests for physical address decoding."""

import random

import pytest

from repro.errors import ConfigError
from repro.memctrl.address_map import AddressMap
from repro.utils.units import parse_size


@pytest.fixture
def amap():
    return AddressMap(
        n_channels=2, banks_per_channel=4, row_bytes=1024,
        size_bytes=parse_size("16MB"),
    )


class TestDecode:
    def test_block_zero(self, amap):
        d = amap.decode_block(0)
        assert (d.channel, d.bank, d.row, d.column) == (0, 0, 0, 0)

    def test_channel_interleaving_at_block_granularity(self, amap):
        assert amap.decode_block(0).channel == 0
        assert amap.decode_block(1).channel == 1
        assert amap.decode_block(2).channel == 0

    def test_column_advances_within_row(self, amap):
        # Same channel: blocks 0, 2, 4 ... are consecutive columns.
        d0 = amap.decode_block(0)
        d2 = amap.decode_block(2)
        assert d2.column == d0.column + 1
        assert (d2.bank, d2.row) == (d0.bank, d0.row)

    def test_bank_advances_after_row_fills(self, amap):
        blocks_per_row = amap.blocks_per_row
        first_of_next = amap.decode_block(blocks_per_row * amap.n_channels)
        assert first_of_next.bank == 1
        assert first_of_next.column == 0

    def test_row_advances_after_banks_cycle(self, amap):
        stride = amap.blocks_per_row * amap.n_channels * amap.banks_per_channel
        d = amap.decode_block(stride)
        assert d.row == 1
        assert d.bank == 0

    def test_byte_address_decode(self, amap):
        assert amap.decode(128).block == 2

    def test_out_of_range_rejected(self, amap):
        with pytest.raises(ConfigError):
            amap.decode_block(amap.n_blocks)
        with pytest.raises(ConfigError):
            amap.decode(-1)

    def test_channel_of_block_fast_path(self, amap):
        for block in (0, 1, 17, 12345):
            assert amap.channel_of_block(block) == amap.decode_block(block).channel


class TestLocateBlock:
    """``locate_block`` is the one bit-slicing routine; ``decode_block``
    wraps it."""

    def test_agrees_with_decode_block_on_random_blocks(self, amap):
        rng = random.Random(7)
        for block in [0, amap.n_blocks - 1] + [
            rng.randrange(amap.n_blocks) for _ in range(500)
        ]:
            d = amap.decode_block(block)
            assert amap.locate_block(block) == (d.channel, d.bank, d.row, d.column)

    def test_out_of_range_rejected(self, amap):
        for block in (-1, amap.n_blocks, amap.n_blocks + 1000):
            with pytest.raises(ConfigError):
                amap.locate_block(block)


class TestEncodeRoundtrip:
    @pytest.mark.parametrize("block", [0, 1, 63, 64, 1000, 262143])
    def test_roundtrip(self, amap, block):
        d = amap.decode_block(block)
        assert amap.encode(d.channel, d.bank, d.row, d.column) == block

    def test_encode_validates_ranges(self, amap):
        with pytest.raises(ConfigError):
            amap.encode(2, 0, 0, 0)
        with pytest.raises(ConfigError):
            amap.encode(0, 4, 0, 0)
        with pytest.raises(ConfigError):
            amap.encode(0, 0, 0, amap.blocks_per_row)


class TestBijectivity:
    def test_all_blocks_unique_coordinates(self):
        amap = AddressMap(
            n_channels=2, banks_per_channel=2, row_bytes=256, size_bytes=64 * 1024
        )
        seen = set()
        for block in range(amap.n_blocks):
            d = amap.decode_block(block)
            key = (d.channel, d.bank, d.row, d.column)
            assert key not in seen
            seen.add(key)
        assert len(seen) == amap.n_blocks


class TestValidation:
    def test_non_power_of_two_channels(self):
        with pytest.raises(ConfigError):
            AddressMap(3, 4, 1024, 1 << 20)

    def test_row_not_multiple_of_block(self):
        with pytest.raises(ConfigError):
            AddressMap(2, 4, 1000, 1 << 20)

    def test_size_not_whole_rows(self):
        with pytest.raises(ConfigError):
            AddressMap(2, 4, 1024, (1 << 20) + 64)

    def test_rows_per_bank(self, amap):
        expected = parse_size("16MB") // 1024 // 8
        assert amap.rows_per_bank == expected
