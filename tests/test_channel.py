import numpy as np
import pytest

from pilotcov import (
    draw_channels,
    make_example_schedule_442,
    observe,
    squared_rows,
)


class TestDrawChannels:
    def test_zero_variance_gives_zero_channel(self):
        cov = np.zeros((4, 3))
        chan = draw_channels(cov, np.random.default_rng(0))
        np.testing.assert_array_equal(chan, np.zeros((4, 3)))

    def test_sample_variance_matches_target(self):
        rng = np.random.default_rng(1)
        cov = np.ones((1, 1))
        draws = np.array([draw_channels(cov, rng)[0, 0] for _ in range(100_000)])
        var = np.mean(np.abs(draws) ** 2)
        assert 0.98 <= var <= 1.02
        assert abs(draws.mean()) < 0.02

    def test_real_imag_parts_balanced(self):
        rng = np.random.default_rng(2)
        cov = np.full((1, 1), 4.0)
        draws = np.array([draw_channels(cov, rng)[0, 0] for _ in range(50_000)])
        assert abs(np.var(draws.real) - 2.0) < 0.1
        assert abs(np.var(draws.imag) - 2.0) < 0.1


class TestObserve:
    def test_noise_free_single_user_passthrough(self):
        rng = np.random.default_rng(3)
        cov = np.ones((5, 1))
        chan = draw_channels(cov, rng)
        alloc = np.ones((1, 1))
        block = observe(chan, alloc, 0.0, rng)
        np.testing.assert_array_equal(block[:, 0], chan[:, 0])

    def test_noise_free_contamination_sums_channels(self):
        rng = np.random.default_rng(4)
        cov = np.ones((3, 4))
        chan = draw_channels(cov, rng)
        alloc = make_example_schedule_442().allocations[0]
        block = observe(chan, alloc, 0.0, rng)
        np.testing.assert_allclose(block[:, 0], chan[:, 0] + chan[:, 1])
        np.testing.assert_allclose(block[:, 1], chan[:, 2] + chan[:, 3])

    def test_slot_variance_matches_shared_power_plus_noise(self):
        rng = np.random.default_rng(5)
        C = np.array([[0.8, 1.5, 0.3]])
        alloc = np.eye(2)[[0, 0, 1]]
        sigma_v2 = 0.25
        samples = np.empty((100_000, 2), dtype=complex)
        for t in range(samples.shape[0]):
            chan = draw_channels(C, rng)
            samples[t] = observe(chan, alloc, sigma_v2, rng)[0]
        measured = np.mean(np.abs(samples) ** 2, axis=0)
        expected = np.array([0.8 + 1.5 + sigma_v2, 0.3 + sigma_v2])
        np.testing.assert_allclose(measured, expected, rtol=0.03)

    def test_intervals_mutually_independent(self):
        rng = np.random.default_rng(6)
        cov = np.ones((1, 2))
        alloc = np.eye(1)[[0, 0]]
        obs = np.array(
            [observe(draw_channels(cov, rng), alloc, 0.1, rng)[0, 0]
             for _ in range(100_000)]
        )
        # block fading: successive intervals decorrelated within 3 sigma
        n = obs.size - 1
        cross = np.mean(obs[1:] * np.conj(obs[:-1]))
        power = np.mean(np.abs(obs) ** 2)
        assert abs(cross) < 3.0 * power / np.sqrt(n)

    def test_dimension_mismatch_rejected(self):
        chan = draw_channels(np.ones((2, 3)), np.random.default_rng(0))
        alloc = np.eye(2)
        with pytest.raises(ValueError):
            observe(chan, alloc, 0.1, np.random.default_rng(0))


class TestSquaredRows:
    def test_zero_blocks(self):
        blocks = [np.zeros((2, 3), dtype=complex) for _ in range(2)]
        out = squared_rows(blocks)
        np.testing.assert_array_equal(out, np.zeros((2, 6)))

    def test_single_entry_magnitude(self):
        block = np.array([[3.0 + 4.0j]])
        out = squared_rows([block])
        np.testing.assert_allclose(out, [[25.0]])

    def test_recomputation_oracle(self):
        rng = np.random.default_rng(7)
        phis = [rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
                for _ in range(3)]
        out = squared_rows(phis)
        expected = np.hstack([p.real**2 + p.imag**2 for p in phis])
        np.testing.assert_allclose(out, expected, rtol=1e-12)
        assert out.shape == (4, 6)

    def test_mixed_antenna_counts_rejected(self):
        blocks = [
            np.zeros((2, 1), dtype=complex),
            np.zeros((3, 1), dtype=complex),
        ]
        with pytest.raises(ValueError):
            squared_rows(blocks)


def test_same_interval_slots_uncorrelated():
    # one pilot per user means two slots of one interval never share a
    # user, so their cross-correlation vanishes
    rng = np.random.default_rng(8)
    cov = np.ones((1, 2))
    alloc = np.eye(2)[[0, 1]]
    n = 50_000
    obs = np.empty((n, 2), dtype=complex)
    for t in range(n):
        obs[t] = observe(draw_channels(cov, rng), alloc, 0.1, rng)[0]
    cross = np.mean(obs[:, 0] * np.conj(obs[:, 1]))
    power = np.sqrt(np.mean(np.abs(obs[:, 0]) ** 2) * np.mean(np.abs(obs[:, 1]) ** 2))
    assert abs(cross) < 3.0 * power / np.sqrt(n)
