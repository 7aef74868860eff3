"""Physical address decoding.

The controller interleaves 64-byte blocks across channels (so sequential
blocks spread over all channels), fills rows within a bank, and then
interleaves rows across banks. This is the conventional open-page friendly
layout: a 4KB region maps to a handful of (channel, bank, row) tuples,
giving hot regions row-buffer locality without serialising them on one
bank.

Layout of a block index (low bits to high bits)::

    | channel | column-within-row | bank | row |
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigError
from repro.pcm.device import BLOCK_BYTES
from repro.utils.mathx import log2_int


@dataclass(slots=True)
class DecodedAddress:
    """A physical block address decoded into device coordinates."""

    block: int
    channel: int
    bank: int
    row: int
    column: int


@dataclass(frozen=True)
class AddressMap:
    """Decodes byte addresses / block indices into (channel, bank, row, col).

    All dimensions must be powers of two so decoding is pure bit slicing,
    as in real controllers.
    """

    n_channels: int
    banks_per_channel: int
    row_bytes: int
    size_bytes: int

    def __post_init__(self) -> None:
        for name in ("n_channels", "banks_per_channel"):
            log2_int(getattr(self, name))  # raises ConfigError if not 2^k
        if self.row_bytes % BLOCK_BYTES:
            raise ConfigError("row size must be a multiple of the block size")
        log2_int(self.row_bytes // BLOCK_BYTES)
        if self.size_bytes % (self.row_bytes * self.n_channels * self.banks_per_channel):
            raise ConfigError(
                "device size must be a whole number of rows per bank per channel"
            )
        # Precompute the bit-slicing constants.
        object.__setattr__(self, "_ch_bits", log2_int(self.n_channels))
        object.__setattr__(self, "_ch_mask", self.n_channels - 1)
        object.__setattr__(self, "_col_bits", log2_int(self.blocks_per_row))
        object.__setattr__(self, "_col_mask", self.blocks_per_row - 1)
        object.__setattr__(self, "_bank_bits", log2_int(self.banks_per_channel))
        object.__setattr__(self, "_bank_mask", self.banks_per_channel - 1)
        object.__setattr__(self, "_n_blocks", self.size_bytes // BLOCK_BYTES)

    @property
    def blocks_per_row(self) -> int:
        return self.row_bytes // BLOCK_BYTES

    @property
    def n_blocks(self) -> int:
        return self.size_bytes // BLOCK_BYTES

    @property
    def rows_per_bank(self) -> int:
        return self.n_blocks // (self.n_channels * self.banks_per_channel * self.blocks_per_row)

    def locate_block(self, block: int) -> Tuple[int, int, int, int]:
        """``(channel, bank, row, column)`` of a block index.

        The bit-slicing routine behind :meth:`decode_block`.
        ``MemoryController.enqueue`` repeats its range check and slicing
        inline, once per request; a layout change must change both.
        """
        if not 0 <= block < self._n_blocks:
            raise ConfigError(
                f"block {block} out of range for {self._n_blocks}-block device"
            )
        remainder = block >> self._ch_bits
        column = remainder & self._col_mask
        remainder >>= self._col_bits
        return (
            block & self._ch_mask,
            remainder & self._bank_mask,
            remainder >> self._bank_bits,
            column,
        )

    def decode_block(self, block: int) -> DecodedAddress:
        """Decode a block index (byte address >> 6)."""
        return DecodedAddress(block, *self.locate_block(block))

    def channel_of_block(self, block: int) -> int:
        """Channel of a block index (cheap path for queue admission)."""
        return block & self._ch_mask

    def decode(self, byte_address: int) -> DecodedAddress:
        """Decode a byte address."""
        if byte_address < 0:
            raise ConfigError(f"negative address: {byte_address}")
        return self.decode_block(byte_address // BLOCK_BYTES)

    def encode(self, channel: int, bank: int, row: int, column: int) -> int:
        """Inverse of :meth:`decode_block`; returns the block index."""
        if not 0 <= channel < self.n_channels:
            raise ConfigError(f"channel {channel} out of range")
        if not 0 <= bank < self.banks_per_channel:
            raise ConfigError(f"bank {bank} out of range")
        if not 0 <= column < self.blocks_per_row:
            raise ConfigError(f"column {column} out of range")
        if not 0 <= row < self.rows_per_bank:
            raise ConfigError(f"row {row} out of range")
        block = row
        block = (block << log2_int(self.banks_per_channel)) | bank
        block = (block << log2_int(self.blocks_per_row)) | column
        block = (block << log2_int(self.n_channels)) | channel
        return block
