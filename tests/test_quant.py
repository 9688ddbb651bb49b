import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epursim.model import NumericError
from epursim.quant import (DequantTable, QuantConfig, QuantRangeError,
                           calibrate_alpha, quantize)

CFG = QuantConfig(n_bits=8, alpha=20.0)
TABLE = DequantTable(CFG)


class TestQuantize:
    def test_zero_maps_to_zero(self):
        assert quantize(0.0, CFG) == 0

    def test_alpha_maps_to_max_code(self):
        # beta * alpha = 2^(n-1) - 1 by construction
        assert quantize(20.0, CFG) == 127
        assert quantize(-20.0, CFG) == -127

    def test_unit_value_n8_alpha20(self):
        # beta = 127/20 = 6.35; round(6.35) = 6 half-away-from-zero
        assert quantize(1.0, CFG) == 6
        assert quantize(-1.0, CFG) == -6

    def test_half_away_from_zero(self):
        cfg = QuantConfig(n_bits=8, alpha=127.0)  # beta = 1
        assert quantize(0.5, cfg) == 1
        assert quantize(-0.5, cfg) == -1
        assert quantize(1.5, cfg) == 2

    def test_saturation_beyond_alpha(self):
        assert quantize(25.0, CFG) == 127
        assert quantize(-1e9, CFG) == -127

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            quantize(np.nan, CFG)
        with pytest.raises(NumericError):
            quantize(np.array([0.0, np.inf]), CFG)

    @pytest.mark.parametrize("n_bits", [2, 8, 16])
    def test_array_matches_scalar_path(self, n_bits):
        # the array path works in place; element for element it gives the
        # codes of the 0-d path, on rounding ties, signed zeros, saturation
        # and extreme magnitudes, for float64 and float32 partials
        cfg = QuantConfig(n_bits=n_bits, alpha=20.0)
        beta = cfg.beta
        edge = np.array([0.0, -0.0, 0.5 / beta, -0.5 / beta, 1.5 / beta, -1.5 / beta,
                         cfg.alpha, -cfg.alpha, 1.5 * cfg.alpha, -1e9,
                         float(np.float32(1e-45)), -float(np.float32(1e-45)),
                         3.4e38, -3.4e38])
        for arr in (edge, edge.astype(np.float32)):
            got = quantize(arr, cfg)
            assert got.dtype == np.int32
            want = [quantize(float(x), cfg) for x in arr]
            assert all(type(code) is int for code in want)
            assert got.tolist() == want

    def test_beta_definition(self):
        for n in (2, 4, 8, 12, 16):
            cfg = QuantConfig(n_bits=n, alpha=7.3)
            assert cfg.beta == (2 ** (n - 1) - 1) / 7.3

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            QuantConfig(n_bits=1, alpha=1.0)
        with pytest.raises(ValueError):
            QuantConfig(n_bits=17, alpha=1.0)
        with pytest.raises(ValueError):
            QuantConfig(n_bits=8, alpha=0.0)


class TestDequantize:
    def test_zero(self):
        assert TABLE.lookup(0) == 0.0

    def test_max_code_is_alpha(self):
        got = TABLE.lookup(127)
        assert got == pytest.approx(20.0, abs=np.spacing(np.float32(20.0)))

    def test_table_size(self):
        for n in (2, 3, 8, 16):
            assert len(DequantTable(QuantConfig(n_bits=n, alpha=1.0))) == 2**n - 1

    def test_out_of_range_code(self):
        with pytest.raises(QuantRangeError):
            TABLE.lookup(128)
        with pytest.raises(QuantRangeError):
            TABLE.lookup(-128)

    def test_round_trip_of_zero(self):
        assert TABLE.lookup(quantize(0.0, CFG)) == 0.0


class TestRoundTrip:
    def test_all_codes_round_trip_exactly(self):
        codes = np.arange(-CFG.max_code, CFG.max_code + 1)
        values = TABLE.lookup(codes)
        back = quantize(values, CFG)
        assert np.array_equal(back, codes)

    def test_dense_sweep_error_bound(self):
        # 10^5 points across the representable range
        o = np.linspace(-CFG.alpha, CFG.alpha, 100_001)
        rt = TABLE.lookup(quantize(o, CFG))
        bound = CFG.step / 2 + np.spacing(np.float32(CFG.alpha))
        assert np.max(np.abs(rt - o)) <= bound

    def test_max_error_is_half_step(self):
        # over every code's cell the worst error is half a quantization step
        o = np.linspace(-CFG.alpha, CFG.alpha, 2 * (2**8 - 1) + 1)
        rt = TABLE.lookup(quantize(o, CFG))
        worst = np.max(np.abs(rt - o))
        assert worst <= CFG.step / 2 + 1e-12
        assert worst >= CFG.step / 2 * 0.99  # the bound is tight


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(-60, 60), st.floats(-60, 60))
    def test_monotonic(self, a, b):
        lo, hi = sorted((a, b))
        assert quantize(lo, CFG) <= quantize(hi, CFG)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-20, 20))
    def test_symmetric(self, o):
        assert quantize(-o, CFG) == -quantize(o, CFG)

    def test_monotonic_exhaustive_grid(self):
        o = np.linspace(-30, 30, 4001)
        q = quantize(o, CFG)
        assert np.all(np.diff(q) >= 0)


class TestCalibration:
    def test_rounds_up_to_one_decimal(self):
        assert calibrate_alpha(1.23) == pytest.approx(1.3)
        assert calibrate_alpha(2.0) == pytest.approx(2.0)

    def test_floor_for_degenerate_runs(self):
        assert calibrate_alpha(0.0) == pytest.approx(0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            calibrate_alpha(float("nan"))

    def test_storage_bytes(self):
        assert QuantConfig(8, 1.0).storage_bytes == 1
        assert QuantConfig(16, 1.0).storage_bytes == 2
        assert QuantConfig(4, 1.0).storage_bytes == 1
        assert QuantConfig(12, 1.0).storage_bytes == 2
