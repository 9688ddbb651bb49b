"""Linear quantization of partial gate outputs and table-based dequantization.

Partial sums produced while the forward connections are evaluated ahead of
time are stored as n-bit integers: code = round(beta * value) with
beta = (2^(n-1) - 1) / alpha, saturated to the symmetric range
[-(2^(n-1)-1), 2^(n-1)-1].  Rounding is half-away-from-zero so the mapping
is odd-symmetric and bit-stable across platforms.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import NumericError


class QuantRangeError(NumericError):
    """Integer code outside the representable range (exit 6 at the CLI)."""


@dataclass(frozen=True)
class QuantConfig:
    n_bits: int = 8
    alpha: float = 20.0

    def __post_init__(self):
        if not 2 <= self.n_bits <= 16:
            raise ValueError(f"n_bits must be in [2, 16], got {self.n_bits}")
        if not (self.alpha > 0 and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")

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

    def to_json(self) -> dict:
        return {"n_bits": self.n_bits, "alpha": self.alpha}


def quantize(value, cfg: QuantConfig):
    """Map a real (or array of reals) to its integer code.

    round(beta * value), half away from zero, saturated to +-max_code.
    """
    scaled = np.array(value, dtype=np.float64)
    if not np.all(np.isfinite(scaled)):
        raise NumericError("cannot quantize non-finite values")
    # two float64 arrays, updated in place: the scaled value and its magnitude
    np.multiply(scaled, cfg.beta, out=scaled)
    mag = np.abs(scaled, out=np.empty_like(scaled))
    np.add(mag, 0.5, out=mag)
    np.floor(mag, out=mag)
    np.minimum(mag, cfg.max_code, out=mag)
    codes = np.copysign(mag, scaled, out=mag).astype(np.int32)
    if codes.ndim == 0:
        return int(codes)
    return codes


@dataclass
class DequantTable:
    """Lookup table mapping every representable code to code/beta."""

    cfg: QuantConfig
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        codes = np.arange(-self.cfg.max_code, self.cfg.max_code + 1, dtype=np.int32)
        self.values = (codes.astype(np.float64) / self.cfg.beta).astype(np.float32)

    def __len__(self) -> int:
        return len(self.values)

    def lookup(self, code):
        codes = np.asarray(code)
        if np.any(codes > self.cfg.max_code) or np.any(codes < -self.cfg.max_code):
            raise QuantRangeError(
                f"code outside [-{self.cfg.max_code}, {self.cfg.max_code}]"
            )
        # widened to numpy's index type in the same pass as the offset:
        # numpy gathers with int32 indices at about half the speed
        out = self.values[np.add(codes, self.cfg.max_code, dtype=np.intp)]
        if np.ndim(code) == 0:
            return float(out)
        return out


def calibrate_alpha(max_abs_partial: float) -> float:
    """Turn an observed maximum |partial output| into a clamp magnitude.

    Rounds up to one decimal so the stored config stays readable; a floor of
    0.1 keeps beta finite for degenerate all-zero calibration runs.
    """
    if not np.isfinite(max_abs_partial):
        raise NumericError("calibration saw a non-finite partial output")
    return max(float(np.ceil(max_abs_partial * 10.0) / 10.0), 0.1)
