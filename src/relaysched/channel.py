"""Path-loss and instantaneous achievable-rate models for the two link classes.

V2I links run over the cellular downlink, V2V links over short-range radio;
each class has its own log-distance path-loss model, per-resource-block
transmit power and per-resource-block noise floor.  Rates are normalized:
one unit is (bit/s/Hz) x (one resource block), i.e. no bandwidth factor is
applied.  Multiply by a resource-block bandwidth in Hz to get bit/s.

Default numbers (see `default_radio_config`):

* V2I path loss  128.1 + 37.6*log10(d_km)   dB
* V2V path loss   43.9 + 27.5*log10(d_m)    dB
* cellular downlink: 222 RBs (40 MHz / 180 kHz), 52 dBm total transmit power
  split evenly across RBs
* short-range: 25 RBs (5 MHz / 200 kHz), 20 dBm per RB
* V2V noise: -112 dBm per RB (thermal floor for ~200 kHz plus a 9 dB noise
  figure; short-range links are noise-limited)
* V2I noise-plus-interference: -96 dBm per RB (the thermal floor plus ~16 dB
  of co-channel interference, typical for a reuse-1 cellular downlink at the
  cell edge; without that margin cell-edge SINR would exceed 20 dB, which no
  deployed downlink achieves)

All of these are plain config fields; the comparisons this package produces
are ratio-based, so absolute power/noise levels mostly shift curves rather
than orderings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PathLossModel:
    """Affine log-distance attenuation: loss(d) = reference_loss + slope*log10(d/divisor).

    Distances below `min_distance` are clamped before the logarithm; the
    model diverges as d -> 0 and antennas are never co-located in practice.
    """

    reference_loss: float  # dB at d == distance_divisor
    slope: float  # dB per decade (10 * path-loss exponent)
    distance_divisor: float = 1.0  # meters; 1000 for the km-referenced model
    min_distance: float = 1.0  # meters

    def __post_init__(self):
        for name in ("reference_loss", "slope", "distance_divisor", "min_distance"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"path-loss {name} must be finite, got {value}")
            if name != "reference_loss" and value <= 0:
                raise ValueError(f"path-loss {name} must be positive, got {value}")


#: Cellular downlink attenuation, distance referenced in kilometers.
LTE_PATH_LOSS = PathLossModel(reference_loss=128.1, slope=37.6, distance_divisor=1000.0)

#: Short-range V2V attenuation, distance referenced in meters.
DSRC_PATH_LOSS = PathLossModel(reference_loss=43.9, slope=27.5, distance_divisor=1.0)


@dataclass(frozen=True)
class RadioConfig:
    """Per-link-class radio parameters; powers and noise are per resource block, in dBm."""

    k_lte: int
    k_dsrc: int
    p_bs_per_rb: float
    p_vn_per_rb: float
    noise_v2i_per_rb: float
    noise_v2v_per_rb: float
    v2i_model: PathLossModel = LTE_PATH_LOSS
    v2v_model: PathLossModel = DSRC_PATH_LOSS

    def __post_init__(self):
        if self.k_lte < 1 or self.k_dsrc < 1:
            raise ValueError("resource-block counts must be >= 1")
        for name in ("p_bs_per_rb", "p_vn_per_rb", "noise_v2i_per_rb", "noise_v2v_per_rb"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite radio parameter {name}")


def default_radio_config(
    k_lte: int = 222,
    k_dsrc: int = 25,
    p_bs_total_dbm: float = 52.0,
    p_vn_per_rb_dbm: float = 20.0,
    noise_v2i_per_rb_dbm: float = -96.0,
    noise_v2v_per_rb_dbm: float = -112.0,
) -> RadioConfig:
    """Default radios: the BS total power is split evenly over its RBs."""
    if k_lte < 1:  # before the logarithm below; RadioConfig checks both counts
        raise ValueError("resource-block counts must be >= 1")
    return RadioConfig(
        k_lte=k_lte,
        k_dsrc=k_dsrc,
        p_bs_per_rb=p_bs_total_dbm - 10.0 * math.log10(k_lte),
        p_vn_per_rb=p_vn_per_rb_dbm,
        noise_v2i_per_rb=noise_v2i_per_rb_dbm,
        noise_v2v_per_rb=noise_v2v_per_rb_dbm,
    )


def _loss_db(model: PathLossModel, d) -> np.ndarray:
    """Attenuation in dB at `d`, computed in one new float array (0-d for a scalar `d`).

    Each step writes into that array, in the order of
    reference_loss + slope * log10(max(d, min_distance) / distance_divisor).
    """
    x = np.maximum(d, model.min_distance, out=np.empty(np.shape(d)))
    np.divide(x, model.distance_divisor, out=x)
    np.log10(x, out=x)
    np.multiply(model.slope, x, out=x)
    return np.add(model.reference_loss, x, out=x)


def path_loss(model: PathLossModel, d):
    """Attenuation in dB at distance `d` (meters, scalar or array)."""
    d = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(d)):
        raise ValueError("non-finite distance")
    return _loss_db(model, d)[()]


def unit_rate(model: PathLossModel, p_tx_dbm: float, noise_dbm: float, d):
    """Per-RB rate log2(1+SNR) at distance `d` (meters, scalar or array); no RB share applied.

    Every rate and service amount in the package is computed here, in place
    in the array `_loss_db` returns, with the bits of
    log2(1 + 10 ** ((p_tx_dbm - noise_dbm - loss) / 10)).  Distances are not
    checked: callers derive them from validated vehicle states.
    """
    x = _loss_db(model, d)
    np.subtract(p_tx_dbm - noise_dbm, x, out=x)
    np.divide(x, 10.0, out=x)
    np.power(10.0, x, out=x)
    np.add(1.0, x, out=x)
    return np.log2(x, out=x)[()]


def rb_share(total_rbs: int, users: int) -> int:
    """Equal-split resource blocks per user; 0 when there are more users than RBs."""
    if users < 1:
        raise ValueError(f"user count must be >= 1, got {users}")
    return total_rbs // users


def rate_two_hop(rate_relay_hop, rate_direct_hop):
    """Decode-and-forward end-to-end rate: the weaker of the two hops."""
    return np.minimum(rate_relay_hop, rate_direct_hop)[()]
