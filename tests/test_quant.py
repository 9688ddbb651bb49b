import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import F32, reference_readback, reference_table
from epursim.model import NumericError
from epursim.quant import QuantConfig, calibrate_alpha, quantize

CFG = QuantConfig(n_bits=8, alpha=20.0)
TABLE = reference_table(8, 20.0)


def readback(values, cfg=CFG) -> np.ndarray:
    """``quantize`` on an fp32 copy of ``values``."""
    return quantize(np.array(values, dtype=F32), cfg)


def bits(arr) -> list[int]:
    return np.asarray(arr, dtype=F32).view(np.uint32).tolist()


class TestQuantize:
    def test_zero_maps_to_zero(self):
        assert bits(readback([0.0, -0.0])) == [0, 0]

    def test_alpha_maps_to_max_code(self):
        # beta * alpha = 2^(n-1) - 1 by construction
        assert bits(readback([20.0, -20.0])) == bits([TABLE[-1], TABLE[0]])

    def test_unit_value_n8_alpha20(self):
        # beta = 127/20 = 6.35; round(6.35) = 6 half-away-from-zero
        assert bits(readback([1.0, -1.0])) == bits([6 / 6.35, -6 / 6.35])

    def test_half_away_from_zero(self):
        cfg = QuantConfig(n_bits=8, alpha=127.0)  # beta = 1
        assert readback([0.5, -0.5, 1.5, 2.5, -2.5], cfg).tolist() == [1, -1, 2, 3, -3]

    def test_saturation_beyond_alpha(self):
        assert bits(readback([25.0, -1e9, 3.4e38])) == bits([TABLE[-1], TABLE[0], TABLE[-1]])
        # beta * value overflows float64 to inf, which saturates too
        cfg = QuantConfig(n_bits=16, alpha=1e-300)
        assert np.isinf(cfg.beta * 3.4e38)
        assert bits(readback([3.4e38, -3.4e38], cfg)) == bits(reference_readback(
            [3.4e38, -3.4e38], 16, 1e-300))

    def test_negative_value_rounding_to_code_0_reads_back_as_positive_zero(self):
        assert bits(readback([-0.5 / CFG.beta, -1e-45])) == [0x00000000, 0x00000000]

    def test_writes_into_its_argument(self):
        partials = np.array([[1.0, -30.0], [0.2, 7.0]], dtype=F32).T  # F-ordered
        assert quantize(partials, CFG) is partials
        assert bits(partials.T) == bits(reference_readback([[1.0, -30.0], [0.2, 7.0]],
                                                           8, 20.0))

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            readback([np.nan])
        with pytest.raises(NumericError):
            readback([0.0, np.inf])

    def test_beta_definition(self):
        for n in (2, 4, 8, 12, 16):
            cfg = QuantConfig(n_bits=n, alpha=7.3)
            assert cfg.beta == (2 ** (n - 1) - 1) / 7.3

    def test_invalid_config(self):
        # the last two: beta = max_code / alpha overflows to inf
        for n_bits, alpha in [(1, 1.0), (17, 1.0), (8, 0.0), (8, -1.0), (8, np.nan),
                              (8, np.inf), (8, 1e-310), (2, 1e-309)]:
            with pytest.raises(ValueError):
                QuantConfig(n_bits=n_bits, alpha=alpha)


class TestReference:
    @pytest.mark.parametrize("n_bits", [2, 8, 16])
    def test_edge_values_match_reference(self, n_bits):
        # rounding ties, signed zeros, saturation and extreme magnitudes
        cfg = QuantConfig(n_bits=n_bits, alpha=20.0)
        beta = cfg.beta
        edge = [0.0, -0.0, 0.5 / beta, -0.5 / beta, 1.5 / beta, -1.5 / beta, cfg.alpha,
                -cfg.alpha, 1.5 * cfg.alpha, -1e9, 1e-45, -1e-45, 3.4e38, -3.4e38]
        assert bits(readback(edge, cfg)) == bits(reference_readback(edge, n_bits, 20.0))

    @settings(max_examples=300, deadline=None)
    @given(n_bits=st.integers(2, 16),
           alpha=st.sampled_from([1e-300, 1e-46, 1e-3, 0.1, 0.7, 3.3, 20.0, 127.0, 1e30]),
           codes=st.lists(st.integers(-2**15 - 2, 2**15 + 2), max_size=8),
           others=st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                           max_size=8))
    @example(n_bits=8, alpha=20.0, codes=[0, -1, 127, -128], others=[-0.0, 0.0, 3.4e38])
    def test_matches_reference_bit_for_bit(self, n_bits, alpha, codes, others):
        # halfway points between codes (and their fp32 neighbours), values
        # past alpha, signed zeros and arbitrary fp32 values
        beta = (2 ** (n_bits - 1) - 1) / alpha
        halves = np.array([(c + 0.5) / beta for c in codes], dtype=np.float64)
        with np.errstate(over="ignore"):
            values = np.concatenate([halves, -halves, np.nextafter(halves, 0), others]
                                    ).astype(F32)
        values = values[np.isfinite(values)]
        want = reference_readback(values, n_bits, alpha)
        assert bits(quantize(values.copy(), QuantConfig(n_bits, alpha))) == bits(want)


class TestDequantize:
    def test_zero(self):
        assert bits(readback([0.5 / CFG.beta - 1e-6])) == [0]

    def test_max_code_is_alpha(self):
        got = readback([20.0])[0]
        assert got == pytest.approx(20.0, abs=np.spacing(F32(20.0)))

    def test_table_size(self):
        # a sweep past +-alpha reads back every table entry and nothing else
        for n in (2, 3, 8, 12):
            cfg = QuantConfig(n_bits=n, alpha=1.0)
            sweep = np.linspace(-1.5, 1.5, 40 * 2**n, dtype=F32)
            got = np.unique(quantize(sweep, cfg))
            assert got.size == 2**n - 1
            assert np.array_equal(got, reference_table(n, 1.0))

    def test_round_trip_of_zero(self):
        assert readback([0.0])[0] == 0.0


class TestRoundTrip:
    def test_all_codes_round_trip_exactly(self):
        assert bits(readback(TABLE)) == bits(TABLE)

    def test_dense_sweep_error_bound(self):
        # 10^5 points across the representable range
        o = np.linspace(-CFG.alpha, CFG.alpha, 100_001, dtype=F32)
        rt = readback(o)
        bound = CFG.step / 2 + np.spacing(F32(CFG.alpha))
        assert np.max(np.abs(rt.astype(np.float64) - o)) <= bound

    def test_max_error_is_half_step(self):
        # over every code's cell the worst error is half a quantization step
        o = np.linspace(-CFG.alpha, CFG.alpha, 2 * (2**8 - 1) + 1, dtype=F32)
        worst = np.max(np.abs(readback(o).astype(np.float64) - o))
        assert worst <= CFG.step / 2 + np.spacing(F32(CFG.alpha))
        assert worst >= CFG.step / 2 * 0.99  # the bound is tight


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(-60, 60, width=32), st.floats(-60, 60, width=32))
    def test_monotonic(self, a, b):
        lo, hi = readback(sorted((a, b)))
        assert lo <= hi

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-20, 20, width=32))
    def test_symmetric(self, o):
        pos, neg = readback([o, -o])
        assert pos == -neg

    def test_monotonic_exhaustive_grid(self):
        q = readback(np.linspace(-30, 30, 4001))
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
