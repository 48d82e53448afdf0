import numpy as np
import pytest

from pilotcov import (
    BandLimited,
    InvalidProfileError,
    RandomSparse,
    ScenarioConfig,
    Uniform,
    generate_covariance_set,
    genie_covariances,
)


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
        with pytest.raises(InvalidProfileError, match="power must be finite and > 0"):
            Uniform(0.0)

    def test_overflowing_norm_rejected(self):
        # each power is finite, but the norm of the truth overflows; numpy's
        # overflow warning would be an error in this suite
        with pytest.raises(InvalidProfileError, match="norm inf"):
            generate_covariance_set(_config(), Uniform(power=1e300),
                                    np.random.default_rng(0))


def test_unknown_profile_rejected():
    # a profile is one of the three kinds; anything else names itself
    with pytest.raises(InvalidProfileError, match="unknown profile kind: 'flat'"):
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

    def test_fixed_center_columns_identical(self):
        cfg = _config(M=16, K=3, num_cells=1)
        rng = np.random.default_rng(2)
        out = generate_covariance_set(
            cfg, BandLimited(width=5, center=4, dynamic_range_db=0.0), rng
        )
        for k in range(1, 3):
            np.testing.assert_allclose(out[:, k], out[:, 0])
        assert np.count_nonzero(out[:, 0]) == 5

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
        cfg = ScenarioConfig(M=8, K=2, Ttr=2, sigma_v2=0.1, num_cells=1, seed=0)
        rng = np.random.default_rng(4)
        out = generate_covariance_set(
            cfg, BandLimited(width=4, center=0, dynamic_range_db=0.0), rng
        )
        support = np.flatnonzero(out[:, 0])
        assert set(support) == {0, 1, 6, 7}

    def test_width_exceeding_array_rejected(self):
        with pytest.raises(InvalidProfileError):
            generate_covariance_set(
                _config(M=4, K=2), BandLimited(width=5), np.random.default_rng(0)
            )

    @pytest.mark.parametrize("kwargs, field", [
        (dict(width=4.5), "width"), (dict(width=4.0), "width"),
        (dict(width=4, center=2.5), "center"), (dict(width=4, center=np.float64(2)), "center"),
    ], ids=["width-4.5", "width-4.0", "center-2.5", "center-float64"])
    def test_non_integer_width_or_center_refused_when_built(self, kwargs, field):
        # both index the antennas: the draw would die with IndexError
        with pytest.raises(InvalidProfileError, match=f"{field} must be an integer"):
            BandLimited(**kwargs)

    def test_numpy_integer_width_and_center_accepted(self):
        profile = BandLimited(width=np.int64(4), center=np.int32(2), dynamic_range_db=0.0)
        out = generate_covariance_set(_config(M=8), profile, np.random.default_rng(4))
        assert set(np.flatnonzero(out[:, 0])) == {0, 1, 2, 3}

    def test_negative_center_refused_when_built(self):
        with pytest.raises(InvalidProfileError, match="center must be >= 0"):
            BandLimited(width=4, center=-5)

    def test_center_outside_array_rejected(self):
        # the support wraps modulo M, so center = M would silently mean antenna 0
        with pytest.raises(InvalidProfileError, match=r"center must be in \[0, M=8\)"):
            generate_covariance_set(
                _config(M=8), BandLimited(width=4, center=8), np.random.default_rng(0)
            )


class TestRandomSparseProfile:
    def test_support_count_and_power(self):
        cfg = _config(M=8, K=4)
        rng = np.random.default_rng(5)
        out = generate_covariance_set(cfg, RandomSparse(0.25, total_power=4.0), rng)
        for k in range(4):
            assert np.count_nonzero(out[:, k]) == 2
        np.testing.assert_allclose(out.sum(axis=0), 4.0, rtol=1e-9)

    @pytest.mark.parametrize("fraction", [0.0, -0.2, 1.5])
    def test_invalid_fraction_rejected(self, fraction):
        with pytest.raises(InvalidProfileError):
            generate_covariance_set(
                _config(), RandomSparse(fraction), np.random.default_rng(0)
            )


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cls, kw, field", [
    (Uniform, {}, "power"),
    (BandLimited, {"width": 4}, "power"),
    (BandLimited, {"width": 4}, "dynamic_range_db"),
    (RandomSparse, {"support_fraction": 0.5}, "support_fraction"),
    (RandomSparse, {"support_fraction": 0.5}, "total_power"),
], ids=["uniform-power", "bandlimited-power", "bandlimited-dynamic_range_db",
        "random_sparse-support_fraction", "random_sparse-total_power"])
def test_non_finite_profile_field_refused_when_built(cls, kw, field, value):
    # refused by the profile itself, before any draw: an infinite dynamic
    # range would otherwise overflow rng.uniform at the first unit's draw
    with pytest.raises(InvalidProfileError, match=field):
        cls(**{**kw, field: value})


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
