"""Linear quantization of partial gate outputs.

Partial sums produced while the forward connections are evaluated ahead of
time are stored as n-bit integers: code = round(beta * value) with
beta = (2^(n-1) - 1) / alpha, saturated to the symmetric range
[-(2^(n-1)-1), 2^(n-1)-1].  Rounding is half-away-from-zero so the mapping
is odd-symmetric and bit-stable across platforms.  The recurrent phase reads
each code back through a 2^n - 1 entry table of code / beta in fp32; the
model computes that read-back value directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NumericError


@dataclass(frozen=True)
class QuantConfig:
    n_bits: int = 8
    alpha: float = 20.0

    def __post_init__(self):
        if not 2 <= self.n_bits <= 16:
            raise ValueError(f"n_bits must be in [2, 16], got {self.n_bits}")
        if not (self.alpha > 0 and np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError(f"alpha must be positive and finite, with a finite "
                             f"beta = {self.max_code}/alpha, got {self.alpha}")

    @property
    def max_code(self) -> int:
        return 2 ** (self.n_bits - 1) - 1

    @property
    def beta(self) -> float:
        return self.max_code / self.alpha

    @property
    def step(self) -> float:
        """Value difference between adjacent codes (1/beta)."""
        return 1.0 / self.beta

    @property
    def storage_bytes(self) -> int:
        """Bytes one stored code occupies (byte-aligned)."""
        return (self.n_bits + 7) // 8


def quantize(values: np.ndarray, cfg: QuantConfig) -> np.ndarray:
    """Store the fp32 array ``values`` as codes and read them back, in place.

    Each element's code is round(beta * value) in float64, half away from
    zero, saturated to +-max_code; the element becomes code / beta rounded
    to fp32, the dequantization table's entry (+0.0 for code 0).  Returns
    ``values``.
    """
    if not np.all(np.isfinite(values)):
        raise NumericError("cannot quantize non-finite values")
    # one float64 array, updated in place: the code's magnitude, then the code
    with np.errstate(over="ignore"):  # an overflow to inf saturates below
        code = np.multiply(values, cfg.beta, dtype=np.float64)
    np.abs(code, out=code)
    np.add(code, 0.5, out=code)
    np.floor(code, out=code)
    np.minimum(code, cfg.max_code, out=code)
    np.copysign(code, values, out=code)
    code += 0.0  # code 0 is +0.0, as in the table, not copysign's -0.0
    return np.divide(code, cfg.beta, out=values)


def calibrate_alpha(max_abs_partial: float) -> float:
    """Turn an observed maximum |partial output| into a clamp magnitude.

    Rounds up to one decimal so the stored config stays readable; a floor of
    0.1 keeps beta finite for degenerate all-zero calibration runs.
    """
    if not np.isfinite(max_abs_partial):
        raise NumericError("calibration saw a non-finite partial output")
    return max(float(np.ceil(max_abs_partial * 10.0) / 10.0), 0.1)
