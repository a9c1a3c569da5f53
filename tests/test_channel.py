from __future__ import annotations

import math

import numpy as np
import pytest
from oracles import Vehicle, rate_v2i, rate_v2v

from relaysched.channel import (
    DSRC_PATH_LOSS,
    LTE_PATH_LOSS,
    PathLossModel,
    RadioConfig,
    default_radio_config,
    path_loss,
    rate_two_hop,
    unit_rate,
)


def still_vehicle(x, y=0.0):
    return Vehicle(id=0, x=x, y=y, speed=0.0, heading=0.0)


class TestPathLoss:
    def test_lte_reference_distance(self):
        assert path_loss(LTE_PATH_LOSS, 1000.0) == pytest.approx(128.1, abs=1e-12)

    def test_dsrc_reference_distance(self):
        assert path_loss(DSRC_PATH_LOSS, 1.0) == pytest.approx(43.9, abs=1e-12)

    def test_lte_one_decade_below_reference(self):
        assert path_loss(LTE_PATH_LOSS, 100.0) == pytest.approx(128.1 - 37.6, abs=1e-12)

    def test_clamps_below_min_distance(self):
        assert path_loss(DSRC_PATH_LOSS, 0.01) == path_loss(DSRC_PATH_LOSS, 1.0)

    def test_rejects_nonfinite_distance(self):
        with pytest.raises(ValueError):
            path_loss(LTE_PATH_LOSS, float("nan"))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            PathLossModel(reference_loss=100.0, slope=-1.0)
        with pytest.raises(ValueError):
            PathLossModel(reference_loss=100.0, slope=20.0, min_distance=0.0)

    @pytest.mark.parametrize("name", ["reference_loss", "slope", "distance_divisor", "min_distance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fields(self, name, value):
        fields = {"reference_loss": 100.0, "slope": 20.0, name: value}
        with pytest.raises(ValueError, match=f"path-loss {name} must be finite"):
            PathLossModel(**fields)

    @pytest.mark.parametrize("divisor", [0.0, -1000.0])
    def test_rejects_non_positive_divisor(self, divisor):
        with pytest.raises(ValueError, match="path-loss distance_divisor must be positive"):
            PathLossModel(reference_loss=100.0, slope=20.0, distance_divisor=divisor)


def expression_rate(model, p_tx_dbm, noise_dbm, d):
    """The rate formula written as one expression, each step in a new array."""
    loss = model.reference_loss + model.slope * np.log10(
        np.maximum(d, model.min_distance) / model.distance_divisor
    )
    return np.log2(1.0 + 10.0 ** ((p_tx_dbm - noise_dbm - loss) / 10.0))


class TestUnitRate:
    @pytest.mark.parametrize("model, p_tx, noise", [
        (DSRC_PATH_LOSS, 20.0, -112.0),
        (LTE_PATH_LOSS, default_radio_config().p_bs_per_rb, -96.0),
    ], ids=["v2v", "v2i"])
    def test_bits_of_the_expression(self, model, p_tx, noise):
        # in place, step by step, it must give the expression's bits: on both
        # sides of the clamp, at it, for a 2-d array and for a scalar
        gen = np.random.default_rng(5)
        d = np.concatenate([[0.0, 0.5, 1.0, 1.0 + 1e-12], gen.uniform(0.0, 2.0, 500),
                            gen.uniform(2.0, 2000.0, 500)])
        got = unit_rate(model, p_tx, noise, d)
        assert got.shape == d.shape
        assert got.tobytes() == expression_rate(model, p_tx, noise, d).tobytes()
        grid = d[:1000].reshape(40, 25)
        assert unit_rate(model, p_tx, noise, grid).tobytes() == got[:1000].tobytes()
        for x in (0.25, 37.5, 1234.0):
            scalar = unit_rate(model, p_tx, noise, x)
            assert isinstance(scalar, np.float64) and np.ndim(scalar) == 0
            assert scalar.tobytes() == expression_rate(model, p_tx, noise, x).tobytes()

    def test_scalar_rates_stay_scalar(self, bs, cfg):
        v = still_vehicle(300.0)
        assert np.ndim(rate_v2i(v, bs, cfg, 10, 0.0)) == 0
        assert np.ndim(rate_v2v(v, still_vehicle(310.0), cfg, 2, 0.0)) == 0
        assert rate_v2v(v, still_vehicle(310.0), cfg, 2, np.array([0.0, 1.0])).shape == (2,)


def snr_one_config(k_lte=200, k_dsrc=25):
    # transmit powers chosen so that the SNR is exactly 1 at the reference distances
    return RadioConfig(
        k_lte=k_lte,
        k_dsrc=k_dsrc,
        p_bs_per_rb=128.1 + (-112.0),
        p_vn_per_rb=43.9 + (-112.0),
        noise_v2i_per_rb=-112.0,
        noise_v2v_per_rb=-112.0,
    )


class TestRates:
    def test_v2i_unit_snr(self, bs):
        cfg = snr_one_config(k_lte=200)
        # place the vehicle exactly 1 km from the BS
        v = Vehicle(id=0, x=math.sqrt(1000.0**2 - 15.0**2), y=0.0, speed=0.0, heading=0.0)
        d = math.hypot(v.x - bs.x, v.y - bs.y)
        assert d == pytest.approx(1000.0, abs=1e-9)
        assert rate_v2i(v, bs, cfg, 100, 0.0) == pytest.approx(2.0 * math.log2(2.0), rel=1e-9)

    def test_v2i_zero_share(self, bs):
        cfg = snr_one_config(k_lte=10)
        assert rate_v2i(still_vehicle(100.0), bs, cfg, 11, 0.0) == 0.0

    def test_v2i_hand_arithmetic(self, bs):
        cfg = RadioConfig(k_lte=222, k_dsrc=25, p_bs_per_rb=29.0, p_vn_per_rb=20.0,
                          noise_v2i_per_rb=-112.0, noise_v2v_per_rb=-112.0)
        v = Vehicle(id=0, x=math.sqrt(1000.0**2 - 15.0**2), y=0.0, speed=0.0, heading=0.0)
        expected = 11 * math.log2(1 + 10 ** ((29 - 128.1 + 112) / 10))  # = 47.93186900678895
        assert rate_v2i(v, bs, cfg, 20, 0.0) == pytest.approx(expected, rel=1e-9)

    def test_v2v_unit_snr(self):
        cfg = snr_one_config()
        tx = still_vehicle(0.0)
        rx = Vehicle(id=1, x=1.0, y=0.0, speed=0.0, heading=0.0)
        assert rate_v2v(tx, rx, cfg, 5, 0.0) == pytest.approx(5.0 * math.log2(2.0), rel=1e-9)

    def test_v2v_zero_share(self):
        cfg = snr_one_config(k_dsrc=25)
        rx = Vehicle(id=1, x=10.0, y=0.0, speed=0.0, heading=0.0)
        assert rate_v2v(still_vehicle(0.0), rx, cfg, 26, 0.0) == 0.0

    def test_v2v_hand_arithmetic(self):
        cfg = RadioConfig(k_lte=222, k_dsrc=25, p_bs_per_rb=29.0, p_vn_per_rb=20.0,
                          noise_v2i_per_rb=-112.0, noise_v2v_per_rb=-112.0)
        tx = still_vehicle(0.0)
        rx = Vehicle(id=1, x=10.0, y=0.0, speed=0.0, heading=0.0)
        expected = 5 * math.log2(1 + 10 ** ((20 - (43.9 + 27.5) + 112) / 10))  # = 100.65442755775861
        assert rate_v2v(tx, rx, cfg, 5, 0.0) == pytest.approx(expected, rel=1e-9)

    def test_rejects_bad_user_count(self, bs, cfg):
        with pytest.raises(ValueError):
            rate_v2i(still_vehicle(10.0), bs, cfg, 0, 0.0)


class TestTwoHop:
    @pytest.mark.parametrize("a,b,want", [(3.0, 5.0, 3.0), (0.0, 7.0, 0.0), (7.2, 7.2, 7.2)])
    def test_min_rule(self, a, b, want):
        assert rate_two_hop(a, b) == want
        assert rate_two_hop(b, a) == want


class TestProperties:
    def test_v2i_monotone_in_distance(self, bs, cfg):
        rates = [
            float(rate_v2i(still_vehicle(x), bs, cfg, 10, 0.0))
            for x in (5.0, 20.0, 80.0, 200.0, 490.0)
        ]
        assert all(r0 >= r1 for r0, r1 in zip(rates, rates[1:]))
        assert all(r > 0 for r in rates)

    def test_rates_nonnegative_over_time(self, bs, cfg):
        v = Vehicle(id=0, x=-400.0, y=1.75, speed=35.0, heading=0.0)
        t = np.linspace(0.0, 30.0, 301)
        assert np.all(rate_v2i(v, bs, cfg, 100, t) >= 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RadioConfig(k_lte=0, k_dsrc=25, p_bs_per_rb=10, p_vn_per_rb=10,
                        noise_v2i_per_rb=-112, noise_v2v_per_rb=-112)
        with pytest.raises(ValueError):
            RadioConfig(k_lte=222, k_dsrc=25, p_bs_per_rb=float("nan"), p_vn_per_rb=10,
                        noise_v2i_per_rb=-112, noise_v2v_per_rb=-112)

    def test_default_config_power_split(self):
        cfg = default_radio_config()
        assert cfg.p_bs_per_rb == pytest.approx(52.0 - 10 * math.log10(222), rel=1e-12)
        assert cfg.k_lte == 222 and cfg.k_dsrc == 25
