"""Unit tests for the BlockRAM model."""

import pytest

from repro.arch.bram import (
    BRAM_CONFIGS,
    VIRTEX2_BRAM_BITS,
    BlockRam,
    BramConfig,
)
from repro.arch.memblock import VIRTEX2_BRAM


class TestBramConfig:
    def test_all_virtex2_ratios_present(self):
        names = {c.name for c in BRAM_CONFIGS}
        assert names == {"512x36", "1Kx18", "2Kx9", "4Kx4", "8Kx2", "16Kx1"}

    def test_capacity_matches_data_sheet(self):
        # Ratios with parity (x9/x18/x36) expose the full 18 Kbit; the
        # x1/x2/x4 ratios expose only the 16-Kbit data array.
        for config in BRAM_CONFIGS:
            if config.width % 9 == 0:
                assert config.total_bits == VIRTEX2_BRAM_BITS
            else:
                assert config.total_bits == 16 * 1024
            assert config.total_bits <= VIRTEX2_BRAM_BITS

    def test_addr_bits(self):
        assert BramConfig(512, 36).addr_bits == 9
        assert BramConfig(16384, 1).addr_bits == 14

    def test_depth_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            BramConfig(600, 36)

    def test_positive_dimensions(self):
        with pytest.raises(ValueError):
            BramConfig(0, 1)
        with pytest.raises(ValueError):
            BramConfig(512, 0)

    def test_name_for_shallow_config(self):
        assert BramConfig(512, 36).name == "512x36"
        assert BramConfig(2048, 9).name == "2Kx9"


class TestSelectConfig:
    """The Virtex-II record picks the single block for a demand."""

    def test_prefers_widest_fitting(self):
        assert VIRTEX2_BRAM.select_config(9, 20) == BramConfig(512, 36)

    def test_respects_address_demand(self):
        config = VIRTEX2_BRAM.select_config(12, 4)
        assert config is not None
        assert config.addr_bits >= 12
        assert config.width >= 4

    def test_none_when_no_fit(self):
        # 12 address bits and 9 data bits cannot coexist in one block.
        assert VIRTEX2_BRAM.select_config(12, 9) is None

    def test_deepest_config(self):
        assert VIRTEX2_BRAM.select_config(14, 1) == BramConfig(16384, 1)

    def test_zero_demand(self):
        assert VIRTEX2_BRAM.select_config(0, 1) == BramConfig(512, 36)


class TestBlockRam:
    def test_initial_output_latch(self):
        ram = BlockRam(BramConfig(512, 36), init_output=0)
        assert ram.output == 0

    def test_contents_initialisation(self):
        ram = BlockRam(BramConfig(512, 36), contents=[7, 5])
        assert ram.peek(0) == 7
        assert ram.peek(1) == 5
        assert ram.peek(2) == 0

    def test_contents_too_long_rejected(self):
        with pytest.raises(ValueError):
            BlockRam(BramConfig(512, 36), contents=[0] * 513)

    def test_word_width_checked(self):
        with pytest.raises(ValueError):
            BlockRam(BramConfig(512, 4), contents=[16])

    def test_clock_reads_into_latch(self):
        ram = BlockRam(BramConfig(512, 8), contents=[3, 9])
        assert ram.clock(1) == 9
        assert ram.output == 9

    def test_disabled_clock_freezes_latch(self):
        ram = BlockRam(BramConfig(512, 8), contents=[3, 9])
        ram.clock(0)
        frozen = ram.clock(1, enable=False)
        assert frozen == 3
        assert ram.output == 3

    def test_reset_restores_init(self):
        ram = BlockRam(BramConfig(512, 8), contents=[3, 9], init_output=0)
        ram.clock(1)
        ram.reset()
        assert ram.output == 0

    def test_address_bounds_checked(self):
        ram = BlockRam(BramConfig(512, 8))
        with pytest.raises(ValueError):
            ram.clock(512)
        with pytest.raises(ValueError):
            ram.peek(-1)

    def test_write_updates_word(self):
        ram = BlockRam(BramConfig(512, 8))
        ram.write(5, 0xAB)
        assert ram.peek(5) == 0xAB

    def test_write_width_checked(self):
        ram = BlockRam(BramConfig(512, 4))
        with pytest.raises(ValueError):
            ram.write(0, 16)

    def test_load_replaces_and_pads(self):
        ram = BlockRam(BramConfig(512, 8), contents=[1] * 512)
        ram.load([5, 6])
        assert ram.peek(0) == 5
        assert ram.peek(2) == 0

    def test_enable_statistics(self):
        ram = BlockRam(BramConfig(512, 8))
        ram.clock(0, enable=True)
        ram.clock(0, enable=False)
        ram.clock(0, enable=True)
        ram.clock(0, enable=False)
        assert ram.total_edges == 4
        assert ram.enabled_edges == 2
        assert ram.enable_duty() == pytest.approx(0.5)

    def test_enable_duty_defaults_to_one(self):
        assert BlockRam(BramConfig(512, 8)).enable_duty() == 1.0

    def test_used_words_and_bits(self):
        ram = BlockRam(BramConfig(512, 8), contents=[0, 3, 0, 12])
        assert ram.used_words() == 2
        assert ram.used_bits() == 4  # 12 = 0b1100

    def test_words_copy_is_defensive(self):
        ram = BlockRam(BramConfig(512, 8), contents=[1])
        words = ram.words
        words[0] = 99
        assert ram.peek(0) == 1
