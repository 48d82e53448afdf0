import numpy as np
import pytest
import scipy.linalg

from pilotcov import (
    draw_channels,
    ls_channel_estimate,
    mmse_channel_estimate,
    observe,
    rzf_filter,
    uplink_sum_rate,
)


def mmse_channel_estimate_full(obs_col, C_h, C_phi):
    """Oracle: general matrix form C_h C_phi^{-1} phi (no diagonal shortcut)."""
    return C_h @ np.linalg.solve(C_phi, obs_col)


def rzf_filter_full(H_hat, sigma_v2):
    """Oracle: one draw, the M x M form (H H^H + K sigma_v2 I)^{-1} H."""
    M, K_served = H_hat.shape
    G = H_hat @ H_hat.conj().T + (K_served * sigma_v2) * np.eye(M)
    return scipy.linalg.solve(G, H_hat, assume_a="pos")


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestMMSEChannelEstimate:
    def test_lone_user_no_noise_passthrough(self):
        rng = np.random.default_rng(0)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c = np.array([1.0, 0.5, 2.0, 0.1])
        np.testing.assert_allclose(mmse_channel_estimate(phi, c, c), phi)

    def test_scalar_wiener_shrinkage(self):
        phi = np.array([2.0 + 1.0j, -1.0j])
        c, s2 = 1.5, 0.5
        out = mmse_channel_estimate(phi, np.full(2, c), np.full(2, c + s2))
        np.testing.assert_allclose(out, c / (c + s2) * phi)

    def test_shared_pilot_shrinkage_matches_matrix_oracle(self):
        rng = np.random.default_rng(1)
        M = 6
        c1 = rng.uniform(0.2, 2.0, size=M)
        c2 = rng.uniform(0.2, 2.0, size=M)
        s2 = 0.3
        phi = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        fast = mmse_channel_estimate(phi, c1, c1 + c2 + s2)
        full = mmse_channel_estimate_full(
            phi, np.diag(c1), np.diag(c1 + c2 + s2)
        )
        np.testing.assert_allclose(fast, full, atol=1e-12)
        np.testing.assert_allclose(fast, c1 / (c1 + c2 + s2) * phi)

    def test_nonpositive_slot_variance_rejected(self):
        with pytest.raises(ValueError):
            mmse_channel_estimate(np.ones(2), np.ones(2), np.array([1.0, 0.0]))

    def test_nan_slot_variance_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            mmse_channel_estimate(np.ones(2), np.ones(2), np.array([1.0, np.nan]))

    def test_mse_dominates_ls_with_true_statistics(self):
        # Wiener estimate cannot lose to the raw observation when the
        # statistics are correct; checked per user over paired draws
        rng_master = np.random.default_rng(2)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            M = 8
            c1 = rng_master.uniform(0.2, 2.0, size=M)
            c2 = rng_master.uniform(0.2, 2.0, size=M)
            s2 = 0.4
            cov = np.stack([c1, c2], axis=1)
            alloc = np.eye(1)[[0, 0]]
            se_mmse = se_ls = 0.0
            for _ in range(200):
                chan = draw_channels(cov, rng)
                phi = observe(chan, alloc, s2, rng)[:, 0]
                h = chan[:, 0]
                hm = mmse_channel_estimate(phi, c1, c1 + c2 + s2)
                se_mmse += np.sum(np.abs(hm - h) ** 2)
                se_ls += np.sum(np.abs(ls_channel_estimate(phi) - h) ** 2)
            assert se_mmse <= se_ls


class TestLSChannelEstimate:
    def test_identity(self):
        phi = np.array([1.0 + 2.0j, 3.0])
        np.testing.assert_array_equal(ls_channel_estimate(phi), phi)

    def test_zero(self):
        np.testing.assert_array_equal(
            ls_channel_estimate(np.zeros(3, dtype=complex)), np.zeros(3)
        )

    def test_noise_free_lone_user_is_exact(self):
        rng = np.random.default_rng(3)
        cov = np.ones((4, 1))
        chan = draw_channels(cov, rng)
        phi = observe(chan, np.ones((1, 1)), 0.0, rng)[:, 0]
        np.testing.assert_allclose(ls_channel_estimate(phi), chan[:, 0])


class TestRZFFilter:
    def test_orthogonal_columns_give_matched_filter_directions(self):
        H = np.zeros((6, 2), dtype=complex)
        H[0, 0] = 2.0
        H[3, 1] = 2.0
        W = rzf_filter(H, 0.3)
        for k in range(2):
            ratio = W[:, k][np.abs(H[:, k]) > 0] / H[:, k][np.abs(H[:, k]) > 0]
            np.testing.assert_allclose(W[:, k], ratio[0] * H[:, k], atol=1e-12)

    def test_zero_estimate_gives_zero_filter(self):
        W = rzf_filter(np.zeros((4, 2), dtype=complex), 0.5)
        np.testing.assert_array_equal(W, np.zeros((4, 2)))

    def test_residual_oracle(self):
        rng = np.random.default_rng(4)
        H = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        s2 = 0.7
        W = rzf_filter(H, s2)
        G = H @ H.conj().T + 3 * s2 * np.eye(8)
        np.testing.assert_allclose(G @ W, H, atol=1e-10)

    @pytest.mark.parametrize("sigma_v2", [0.0, -0.1])
    def test_nonpositive_noise_power_rejected(self, sigma_v2):
        with pytest.raises(ValueError, match="sigma_v2 must be > 0"):
            rzf_filter(np.ones((4, 2), dtype=complex), sigma_v2)

    @pytest.mark.parametrize("M, K_served, sigma_v2, kind", [
        (8, 3, 0.7, "random"),
        (4, 9, 0.3, "random"),
        (6, 4, 0.2, "rank_deficient"),
        (5, 3, 0.4, "zero"),
    ], ids=["K<M", "K>M", "rank-deficient", "zero"])
    def test_stacked_push_through_matches_full_oracle(self, M, K_served, sigma_v2, kind):
        rng = np.random.default_rng(8)
        H = _complex_normal(rng, (2, 3, M, K_served))
        if kind == "rank_deficient":
            # small integers keep H^H H and H H^H exact; two repeated
            # columns leave both Gram matrices singular before noise loading
            H = np.round(4 * H)
            H[..., 2] = H[..., 0]
            H[..., 3] = H[..., 1]
        elif kind == "zero":
            H = np.zeros_like(H)
        W = rzf_filter(H, sigma_v2)
        assert W.shape == H.shape
        for idx in np.ndindex(H.shape[:-2]):
            np.testing.assert_allclose(
                W[idx], rzf_filter_full(H[idx], sigma_v2), rtol=1e-10, atol=0
            )


class TestUplinkSumRate:
    def test_stacked_rates_equal_per_draw_calls(self):
        rng = np.random.default_rng(9)
        H = _complex_normal(rng, (5, 8, 6))
        served = np.array([4, 1, 2])
        W = rzf_filter(H[..., served], 0.3)
        rates = uplink_sum_rate(W, H, 0.3, served=served, overhead=0.9)
        assert rates.shape == (5,)
        for e in range(5):
            single = uplink_sum_rate(W[e], H[e], 0.3, served=served, overhead=0.9)
            assert type(single) is float
            np.testing.assert_allclose(rates[e], single, rtol=1e-12)

    def test_served_of_wrong_length_rejected(self):
        W = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError, match="one served-user index per filter column"):
            uplink_sum_rate(W, np.ones((4, 5), dtype=complex), 0.3, served=[0, 1, 2])

    def test_zero_channels_zero_rate(self):
        W = np.ones((4, 2), dtype=complex)
        assert uplink_sum_rate(W, np.zeros((4, 5), dtype=complex), 0.3) == 0.0

    def test_single_user_matched_filter_closed_form(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        w = h / np.linalg.norm(h)
        s2 = 0.4
        overhead = 1.0 - 5 / 200
        rate = uplink_sum_rate(
            w[:, None], h[:, None], s2, overhead=overhead
        )
        expected = overhead * np.log2(1.0 + np.linalg.norm(h) ** 2 / s2)
        assert rate == pytest.approx(expected, rel=1e-12)

    def test_invariant_to_common_filter_scaling(self):
        rng = np.random.default_rng(6)
        H = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        W = rzf_filter(H[:, :2], 0.5)
        base = uplink_sum_rate(W, H, 0.5)
        scaled = uplink_sum_rate(2.0 * W, H, 0.5)
        assert scaled == base

    def test_interference_reduces_rate(self):
        rng = np.random.default_rng(7)
        H = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        W = rzf_filter(H[:, :1], 0.2)
        lone = uplink_sum_rate(W, H[:, :1], 0.2)
        contested = uplink_sum_rate(W, H, 0.2)
        assert contested < lone
