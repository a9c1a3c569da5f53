"""Path-loss and instantaneous achievable-rate models for the two link classes.

V2I links run over the cellular downlink, V2V links over short-range radio;
each class has its own log-distance path-loss model, per-resource-block
transmit power and per-resource-block noise floor.  Rates are normalized:
one unit is (bit/s/Hz) x (one resource block), i.e. no bandwidth factor is
applied.  Multiply by a resource-block bandwidth in Hz to get bit/s.

dB is the parameter format: the models, powers and noise floors below, and
the config format, are all given in dB.  Squared distance is the evaluation
form: `unit_rate` takes d**2, which straight-line motion gives without a
square root, and evaluates the same SNR through exp and ln.

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


def unit_rate(model: PathLossModel, p_tx_dbm: float, noise_dbm: float, d2, out=None):
    """Per-RB rate log2(1+SNR) at squared distance `d2` (m**2, scalar or array); no RB share applied.

    Every rate and service amount in the package is computed here.  The
    model is given in dB, but the SNR 10**((p_tx - noise - loss(d)) / 10) is
    evaluated as exp(c + k*ln(max(d2, min_distance**2))), with k = -slope/20
    and c = (p_tx - noise - reference_loss)*ln(10)/10
    + (slope/20)*ln(distance_divisor**2), in place in one array, so callers
    never take a square root.  That array is a new one, or `out`, a float
    array of d2's shape, which may be `d2` itself.  Distances are not
    checked: callers derive them from validated vehicle states.
    """
    k = -model.slope / 20.0
    c = ((p_tx_dbm - noise_dbm - model.reference_loss) * (math.log(10.0) / 10.0)
         - k * math.log(model.distance_divisor**2))
    x = np.maximum(d2, model.min_distance**2, out=np.empty(np.shape(d2)) if out is None else out)
    np.log(x, out=x)
    np.multiply(k, x, out=x)
    np.add(c, x, out=x)
    np.exp(x, out=x)
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
