import tracemalloc

import numpy as np
import pytest

from pilotcov import (
    draw_channels,
    observe,
    squared_rows,
)

from training import example442


def _draw_channels_one_shot(C, rng):
    """draw_channels as one whole-array draw: every normal of C at once,
    then the real and imaginary parts copied out and scaled."""
    z = rng.standard_normal((*C.shape[:-2], 2, *C.shape[-2:]))
    out = np.empty(C.shape, dtype=complex)
    out.real = z[..., 0, :, :]
    out.imag = z[..., 1, :, :]
    out *= np.sqrt(C / 2.0)
    return out


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

    def test_window_prefix_is_shared(self):
        # a window of t intervals is the first t intervals of a longer one,
        # so sweep points of one trial along T share their training data
        var = np.random.default_rng(12).random((6, 3, 2))
        long = draw_channels(var, np.random.default_rng(13))
        short = draw_channels(var[:4], np.random.default_rng(13))
        np.testing.assert_array_equal(short, long[:4])

    @pytest.mark.parametrize("shape", [(5, 3), (7, 5, 3), "broadcast"])
    def test_same_bits_as_one_shot_draw(self, shape):
        # a broadcast (T/N, N, M, Ttr) stack of one pass of slot variances,
        # as a training window is drawn, against its materialized copy
        rng = np.random.default_rng(14)
        if shape == "broadcast":
            var = np.broadcast_to(rng.random((3, 5, 2)), (4, 3, 5, 2))
        else:
            var = rng.random(shape)
        got = draw_channels(var, np.random.default_rng(15))
        want = _draw_channels_one_shot(np.array(var), np.random.default_rng(15))
        assert got.shape == var.shape
        np.testing.assert_array_equal(got.view(float), want.view(float))
        if var.ndim > 2:
            prefix = draw_channels(var[:2], np.random.default_rng(15))
            np.testing.assert_array_equal(prefix.view(float), want[:2].view(float))

    def test_window_draw_makes_no_window_sized_temporary(self):
        # a linkeval-sized training window, T=70 intervals of M=100 antennas
        # and Ttr=14 pilots under a 7-allocation schedule, drawn from one
        # pass of slot variances: the whole-array draw peaked at 2.5 times
        # its output
        tracemalloc.start()
        try:
            slot_var = np.random.default_rng(16).random((7, 100, 14))
            window = draw_channels(np.broadcast_to(slot_var, (10, 7, 100, 14)),
                                   np.random.default_rng(17))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * window.nbytes, peak / window.nbytes


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
        alloc = example442().allocations[0]
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

    def test_nan_noise_power_rejected(self):
        chan = draw_channels(np.ones((2, 2)), np.random.default_rng(0))
        with pytest.raises(ValueError, match="sigma_v2"):
            observe(chan, np.eye(2), np.nan, np.random.default_rng(0))


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

    def test_single_block_without_stack_axis_rejected(self):
        with pytest.raises(ValueError, match="stack of equal blocks"):
            squared_rows(np.zeros((2, 3), dtype=complex))

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


class TestSlotLaw:
    """Each training slot y_p[m] is CN(0, v) with v = (C A)[m,p] + sigma_v2,
    so |y_p[m]|^2 is exponential: mean v, second moment 2 v^2, variances v^2
    and 20 v^4.  Drawing the slot from that law directly and forming H A + V
    must agree with it, within 5 standard errors over 20k draws."""

    C = np.array([[0.8, 1.5, 0.3, 2.0],
                  [0.1, 0.4, 1.2, 0.6]])
    A = np.eye(2)[[0, 0, 0, 1]]  # users 0-2 share pilot 0, user 3 is alone
    SIGMA_V2 = 0.25
    N_DRAWS = 20_000

    def _check_exponential(self, power, v):
        n = power.shape[0]
        np.testing.assert_array_less(
            np.abs(power.mean(axis=0) - v), 5.0 * v / np.sqrt(n))
        np.testing.assert_array_less(
            np.abs(np.mean(power**2, axis=0) - 2.0 * v**2),
            5.0 * np.sqrt(20.0) * v**2 / np.sqrt(n))

    def test_direct_slot_draw(self):
        v = self.C @ self.A + self.SIGMA_V2
        stacked = np.broadcast_to(v, (self.N_DRAWS, *v.shape))
        power = np.abs(draw_channels(stacked, np.random.default_rng(9))) ** 2
        self._check_exponential(power, v)

    def test_observe_of_channel_draw(self):
        rng = np.random.default_rng(10)
        v = self.C @ self.A + self.SIGMA_V2
        power = np.empty((self.N_DRAWS, *v.shape))
        for t in range(self.N_DRAWS):
            H = draw_channels(self.C, rng)
            power[t] = np.abs(observe(H, self.A, self.SIGMA_V2, rng)) ** 2
        self._check_exponential(power, v)

    def test_stacked_interval_variances(self):
        # the (T, M, Ttr) slot variances of a cycled schedule, as a sweep
        # draws its training window
        sched = example442()
        slot_var = self.C @ sched.allocations + self.SIGMA_V2
        assert slot_var.shape == (sched.N, 2, sched.Ttr)
        T = self.N_DRAWS
        draws = draw_channels(slot_var[np.arange(T) % sched.N],
                              np.random.default_rng(11))
        assert draws.shape == (T, 2, sched.Ttr)
        power = np.abs(draws) ** 2
        for n in range(sched.N):
            np.testing.assert_array_less(
                np.abs(power[n::sched.N].mean(axis=0) - slot_var[n]),
                5.0 * slot_var[n] / np.sqrt(T // sched.N))
        B = squared_rows(draws)
        assert B.shape == (2, T * sched.Ttr)
        np.testing.assert_array_equal(B[:, sched.Ttr:2 * sched.Ttr], power[1])
