import numpy as np
import pytest

from pilotcov import (
    BandLimited,
    ScenarioConfig,
    Uniform,
    generate_covariance_set,
    genie_covariances,
)
from pilotcov.scenario import _bandlimited_column


def _config(M=8, K=4, **kw):
    defaults = dict(M=M, K=K, Ttr=2, sigma_v2=0.1, num_cells=2, seed=0)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestScenarioConfig:
    def test_users_per_cell_derived(self):
        cfg = _config(K=6, num_cells=3)
        assert cfg.users_per_cell == 2

    @pytest.mark.parametrize(
        "kw",
        [
            dict(M=0),
            dict(K=1, num_cells=1),
            dict(Ttr=0),
            dict(Ttr=9),
            dict(sigma_v2=-1.0),
            dict(sigma_v2=0.0),
            dict(sigma_v2=np.nan),
            dict(sigma_v2=np.inf),
            dict(num_cells=3),           # 4 users not divisible by 3 cells
            dict(users_per_cell=3),      # 2 * 3 != 4
            dict(num_cells=0),
            dict(sigma_v2=1e-300),       # its weights 1/sigma_v2**2 overflow
            dict(seed=-3),               # refused in code as in a config file
        ],
    )
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(ValueError):
            _config(**kw)


class TestUniformProfile:
    def test_constant_profile(self):
        rng = np.random.default_rng(0)
        out = generate_covariance_set(_config(M=4, K=2), Uniform(power=1.0), rng)
        np.testing.assert_array_equal(out, np.ones((4, 2)))

    def test_zero_power_rejected(self):
        # an all-zero truth leaves the relative cov_rmse undefined
        with pytest.raises(ValueError, match="power must be finite and > 0"):
            Uniform(0.0)

    def test_overflowing_norm_rejected(self):
        # each power is finite, but the norm of the truth overflows; numpy's
        # overflow warning would be an error in this suite
        with pytest.raises(ValueError, match="norm inf"):
            generate_covariance_set(_config(), Uniform(power=1e300),
                                    np.random.default_rng(0))


def test_unknown_profile_rejected():
    # a profile is one of the two kinds; anything else names itself
    with pytest.raises(ValueError, match="unknown profile kind: 'flat'"):
        generate_covariance_set(_config(), "flat", np.random.default_rng(0))


class TestBandLimitedProfile:
    def test_full_width_covers_all_antennas(self):
        cfg = _config(M=8, K=4)
        rng = np.random.default_rng(1)
        out = generate_covariance_set(
            cfg, BandLimited(width=8, power=2.0, dynamic_range_db=0.0), rng
        )
        assert np.all(out > 0)
        np.testing.assert_allclose(out.sum(axis=0), 2.0, rtol=1e-9)

    def test_column_power_within_dynamic_range(self):
        cfg = _config(M=16, K=40, num_cells=4)
        rng = np.random.default_rng(3)
        out = generate_covariance_set(
            cfg, BandLimited(width=6, power=1.0, dynamic_range_db=20.0), rng
        )
        sums = out.sum(axis=0)
        assert np.all(sums <= 1.0 + 1e-9)
        assert np.all(sums >= 0.01 - 1e-9)

    def test_support_wraps_around_edge(self):
        support = np.flatnonzero(_bandlimited_column(8, 4, 0, 1.0))
        assert set(support) == {0, 1, 6, 7}

    @pytest.mark.parametrize("M, width, center", [
        (8, 4, 7), (8, 3, 0), (8, 1, 3), (16, 5, 8), (16, 6, 2), (5, 5, 4),
    ], ids=["even-right-edge", "odd-left-edge", "single-antenna", "odd-inside",
            "even-inside", "full-array"])
    def test_column_is_a_positive_band_of_width_antennas(self, M, width, center):
        col = _bandlimited_column(M, width, center, 2.5)
        band = {(center - width // 2 + j) % M for j in range(width)}
        assert set(np.flatnonzero(col)) == band
        assert np.all(col[sorted(band)] > 0)
        np.testing.assert_allclose(col.sum(), 2.5, rtol=1e-12)

    def test_centers_drawn_over_every_antenna(self):
        out = generate_covariance_set(_config(M=8, K=64, num_cells=1),
                                      BandLimited(width=1), np.random.default_rng(5))
        assert set(np.flatnonzero(out.sum(axis=1))) == set(range(8))

    def test_power_scales_the_draw(self):
        # power is the top of the dynamic range; the rng draws do not depend on it
        cfg = _config(M=12, K=6, num_cells=2)
        low = generate_covariance_set(cfg, BandLimited(width=4, power=1.0),
                                      np.random.default_rng(6))
        high = generate_covariance_set(cfg, BandLimited(width=4, power=3.0),
                                       np.random.default_rng(6))
        np.testing.assert_allclose(high, 3.0 * low, rtol=1e-12)

    def test_width_exceeding_array_rejected(self):
        with pytest.raises(ValueError, match=r"width must be in \[1, M=4\]"):
            generate_covariance_set(
                _config(M=4, K=2), BandLimited(width=5), np.random.default_rng(0)
            )

    @pytest.mark.parametrize("width", [4.5, 4.0, np.float64(4), np.nan, "4"],
                             ids=["width-4.5", "width-4.0", "width-float64", "width-nan",
                                  "width-str"])
    def test_non_integer_width_refused_when_built(self, width):
        # it indexes the antennas: the draw would die with IndexError
        with pytest.raises(ValueError, match="width must be an integer"):
            BandLimited(width=width)

    def test_numpy_integer_width_accepted(self):
        profile = BandLimited(width=np.int64(4), dynamic_range_db=0.0)
        out = generate_covariance_set(_config(M=8), profile, np.random.default_rng(4))
        assert np.count_nonzero(out, axis=0).tolist() == [4] * 4


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cls, kw, field", [
    (Uniform, {}, "power"),
    (BandLimited, {"width": 4}, "power"),
    (BandLimited, {"width": 4}, "dynamic_range_db"),
], ids=["uniform-power", "bandlimited-power", "bandlimited-dynamic_range_db"])
def test_non_finite_profile_field_refused_when_built(cls, kw, field, value):
    # refused by the profile itself, before any draw: an infinite dynamic
    # range would otherwise overflow rng.uniform at the first unit's draw
    with pytest.raises(ValueError, match=field):
        cls(**{**kw, field: value})


@pytest.mark.parametrize("cls, kw, named", [
    (Uniform, {"power": -1.0}, "power must be finite and > 0"),
    (BandLimited, {"width": 4, "power": 0.0}, "power must be finite and > 0"),
    (BandLimited, {"width": 4, "power": -1.0}, "power must be finite and > 0"),
    (BandLimited, {"width": 4, "dynamic_range_db": -1.0},
     "dynamic_range_db must be finite and >= 0"),
    (BandLimited, {"width": 0}, "width must be an integer >= 1"),
    (BandLimited, {"width": -3}, "width must be an integer >= 1"),
], ids=["uniform-power-negative", "bandlimited-power-zero", "bandlimited-power-negative",
        "bandlimited-dynamic_range_db-negative", "bandlimited-width-0",
        "bandlimited-width-negative"])
def test_out_of_range_profile_field_refused_when_built(cls, kw, named):
    with pytest.raises(ValueError, match=named):
        cls(**kw)


def test_generation_deterministic_given_seed():
    cfg = _config(M=12, K=6, num_cells=2)
    profile = BandLimited(width=4)
    a = generate_covariance_set(cfg, profile, np.random.default_rng(42))
    b = generate_covariance_set(cfg, profile, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


class TestGenie:
    def test_identity(self):
        C = np.random.default_rng(0).random((5, 3))
        out = genie_covariances(C)
        np.testing.assert_array_equal(out, C)

    def test_zero_matrix(self):
        out = genie_covariances(np.zeros((2, 2)))
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_output_is_independent_copy(self):
        C = np.ones((2, 2))
        out = genie_covariances(C)
        assert out is not C
        np.testing.assert_array_equal(out, C)
