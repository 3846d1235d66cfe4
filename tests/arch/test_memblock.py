"""Unit tests for the Virtex-II memory-block parameter record."""

import pytest

from repro.arch.bram import BRAM_CONFIGS, BramConfig
from repro.arch.memblock import VIRTEX2_BRAM, Virtex2BramModel
from repro.arch.timing import TimingModel


class TestVirtex2Parity:
    """The record must agree with the bram module and timing defaults."""

    def test_configs_are_the_bram_configs(self):
        assert VIRTEX2_BRAM.configs == BRAM_CONFIGS
        assert VIRTEX2_BRAM.max_addr_bits == 14
        assert VIRTEX2_BRAM.max_data_bits == 36
        assert VIRTEX2_BRAM.max_series == 8
        assert VIRTEX2_BRAM.volatile

    def test_timing_model_equals_historical_defaults(self):
        assert VIRTEX2_BRAM.timing_model() == TimingModel()


class TestLegality:
    def test_validate_shape_accepts_legal(self):
        assert VIRTEX2_BRAM.validate_shape(512, 36) == BramConfig(512, 36)
        assert VIRTEX2_BRAM.validate_shape(256, 20) == BramConfig(512, 36)

    def test_validate_shape_rejects_non_power_of_two_depth(self):
        with pytest.raises(ValueError, match="power of two"):
            VIRTEX2_BRAM.validate_shape(600, 8)

    def test_validate_shape_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            VIRTEX2_BRAM.validate_shape(0, 8)
        with pytest.raises(ValueError, match="positive"):
            VIRTEX2_BRAM.validate_shape(512, -1)

    def test_validate_shape_rejects_over_wide(self):
        with pytest.raises(ValueError, match="widest data port"):
            VIRTEX2_BRAM.validate_shape(512, 37)

    def test_validate_shape_rejects_over_deep(self):
        with pytest.raises(ValueError, match="address"):
            VIRTEX2_BRAM.validate_shape(32768, 1)

    def test_validate_shape_rejects_unoffered_ratio(self):
        with pytest.raises(ValueError, match="no aspect ratio"):
            VIRTEX2_BRAM.validate_shape(16384, 2)

    def test_series_for_within_depth(self):
        assert VIRTEX2_BRAM.series_for(9) == (1, 9)
        assert VIRTEX2_BRAM.series_for(14) == (1, 14)

    def test_series_for_doubles_per_extra_bit(self):
        assert VIRTEX2_BRAM.series_for(15) == (2, 14)
        assert VIRTEX2_BRAM.series_for(16) == (4, 14)
        assert VIRTEX2_BRAM.series_for(17) == (8, 14)

    def test_series_ceiling(self):
        assert VIRTEX2_BRAM.legal_series(1)
        assert VIRTEX2_BRAM.legal_series(8)
        assert not VIRTEX2_BRAM.legal_series(16)
        assert not VIRTEX2_BRAM.legal_series(0)

    def test_widest_config(self):
        assert VIRTEX2_BRAM.widest_config(9) == BramConfig(512, 36)
        assert VIRTEX2_BRAM.widest_config(11) == BramConfig(2048, 9)
        assert VIRTEX2_BRAM.widest_config(20) is None


class TestFingerprints:
    def test_reparameterized_backend_digests_differently(self):
        from repro.pipeline.artifact import fingerprint

        tweaked = Virtex2BramModel(clk_to_out_ns=1.80)
        assert fingerprint(tweaked) != fingerprint(VIRTEX2_BRAM)
