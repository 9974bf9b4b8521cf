import numpy as np
import pytest
from numpy.testing import assert_allclose

from fdmud.channel import (
    BinChannel,
    ChannelConfig,
    ChannelRealization,
    draw_channel,
    to_bin_channels,
)

from conftest import build_circulant, crandn, dft_matrix


def small_config(**overrides):
    base = dict(
        num_antennas=4,
        num_users=2,
        frame_len=32,
        channel_len=5,
        decay_samples=2.0,
        seed=7,
    )
    base.update(overrides)
    return ChannelConfig(**base)


def circular_convolve(h, s):
    """Direct O(N^2) circular convolution; the oracle for circulant products."""
    n = len(s)
    padded = np.zeros(n, dtype=complex)
    padded[: len(h)] = h
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i] += padded[(i - j) % n] * s[j]
    return out


class TestBuildCirculant:
    def test_single_tap_is_identity(self):
        assert_allclose(build_circulant([1.0], 3), np.eye(3))

    def test_two_tap_columns(self):
        c = build_circulant([1.0, 2.0], 3)
        assert_allclose(c[:, 0], [1, 2, 0])
        assert_allclose(c[:, 1], [0, 1, 2])
        assert_allclose(c[:, 2], [2, 0, 1])

    def test_columns_are_rotations(self, rng):
        h = crandn(rng, 4)
        c = build_circulant(h, 9)
        for j in range(9):
            assert_allclose(c[:, j], np.roll(c[:, 0], j))

    def test_product_is_circular_convolution(self, rng):
        h = crandn(rng, 5)
        s = crandn(rng, 16)
        assert np.abs(build_circulant(h, 16) @ s - circular_convolve(h, s)).max() <= 1e-12

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            build_circulant(np.ones(5), 4)

    def test_eigenvalues_match_unnormalized_dft(self, rng):
        # dense eigendecomposition as the independent oracle
        h = crandn(rng, 3)
        eigs = np.linalg.eigvals(build_circulant(h, 8))
        expected = dft_matrix(8, unitary=False) @ np.concatenate([h, np.zeros(5)])
        key = lambda v: np.lexsort((np.round(v.imag, 9), np.round(v.real, 9)))
        assert_allclose(eigs[key(eigs)], expected[key(expected)], atol=1e-10)

    @pytest.mark.parametrize("n", [4, 12, 32])
    def test_dft_diagonalizes_circulant(self, rng, n):
        h = crandn(rng, min(4, n))
        f = dft_matrix(n)
        diag = f @ build_circulant(h, n) @ f.conj().T
        off = diag - np.diag(np.diag(diag))
        assert np.abs(off).max() <= 1e-10
        padded = np.zeros(n, dtype=complex)
        padded[: h.size] = h
        assert_allclose(np.diag(diag), dft_matrix(n, unitary=False) @ padded, atol=1e-10)


class TestDrawChannel:
    def test_unit_average_power_per_user(self):
        cfg = ChannelConfig(
            num_antennas=64,
            num_users=14,
            frame_len=2048,
            channel_len=130,
            decay_samples=25.0,
            power_spread=(0.1, 1.9),
            seed=3,
        )
        taps = draw_channel(cfg).taps
        avg = (np.abs(taps) ** 2).sum(axis=2).mean(axis=0)
        assert np.abs(avg - 1.0).max() <= 1e-12

    def test_deterministic_given_seed(self):
        cfg = small_config(seed=11)
        assert np.array_equal(draw_channel(cfg).taps, draw_channel(cfg).taps)

    def test_seed_changes_realization(self):
        a = draw_channel(small_config(seed=1)).taps
        b = draw_channel(small_config(seed=2)).taps
        assert not np.array_equal(a, b)

    def test_single_tap_channel_has_flat_spectrum(self):
        cfg = small_config(channel_len=1)
        bins = to_bin_channels(draw_channel(cfg))
        mags = np.abs(bins.a)
        assert np.abs(mags - mags[0]).max() <= 1e-12

    def test_per_antenna_power_within_rescaled_spread(self):
        cfg = small_config(num_antennas=16, num_users=3, seed=5)
        taps = draw_channel(cfg).taps
        power = (np.abs(taps) ** 2).sum(axis=2)
        low, high = cfg.power_spread
        # the per-user rescale keeps the mean at 1, so bounds stretch by it
        scale = 1.0 / power.mean(axis=0)  # == 1, by the invariant above
        assert np.all(power >= low * 0.25) and np.all(power <= high * 4.0)
        assert_allclose(scale, 1.0, atol=1e-12)

    def test_exponential_profile_monte_carlo(self):
        # ratio of mean tap powers against the configured decay; normalizing
        # every vector to its exact drawn power biases the ensemble ratio
        # upward (3.4% at lag 50 for 130 taps), which stays inside the 5%
        # budget once the sampling noise is small enough
        draws = 60_000
        cfg_base = dict(
            num_antennas=2,
            num_users=1,
            frame_len=130,
            channel_len=130,
            decay_samples=25.0,
        )
        acc = np.zeros(130)
        for i in range(draws):
            taps = draw_channel(ChannelConfig(**cfg_base, seed=i)).taps
            acc += (np.abs(taps[:, 0]) ** 2).sum(axis=0)
        for lag in (0, 25, 50):
            ratio = acc[lag] / acc[0]
            target = np.exp(-lag / 25.0)
            assert ratio == pytest.approx(target, rel=0.05)

    def test_entry_statistics_unit_variance(self):
        cfg = ChannelConfig(
            num_antennas=16,
            num_users=4,
            frame_len=256,
            channel_len=64,
            decay_samples=25.0,
            seed=9,
        )
        a = to_bin_channels(draw_channel(cfg)).a
        assert np.var(a) == pytest.approx(1.0, rel=0.05)


class TestConfigValidation:
    def test_users_must_be_fewer_than_antennas(self):
        with pytest.raises(ValueError):
            small_config(num_users=4, num_antennas=4)

    def test_channel_longer_than_frame_rejected(self):
        with pytest.raises(ValueError):
            small_config(channel_len=64, frame_len=32)

    def test_decay_positive(self):
        with pytest.raises(ValueError):
            small_config(decay_samples=0.0)

    def test_power_spread_ordering(self):
        with pytest.raises(ValueError):
            small_config(power_spread=(1.9, 0.1))
        with pytest.raises(ValueError):
            small_config(power_spread=(0.0, 1.9))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            small_config(seed=-1)


class TestToBinChannels:
    def test_identity_channel_all_ones(self):
        cfg = small_config(channel_len=1)
        taps = np.zeros((4, 2, 1), dtype=complex)
        taps[:, :, 0] = 1.0
        bins = to_bin_channels(ChannelRealization(taps=taps, config=cfg))
        assert_allclose(bins.a, np.ones((32, 4, 2)))

    def test_matches_unnormalized_dft_exactly(self, rng):
        cfg = small_config()
        realization = draw_channel(cfg)
        bins = to_bin_channels(realization)
        for m in range(cfg.num_antennas):
            for k in range(cfg.num_users):
                padded = np.zeros(cfg.frame_len, dtype=complex)
                padded[: cfg.channel_len] = realization.taps[m, k]
                assert np.array_equal(bins.a[:, m, k], np.fft.fft(padded))

    def test_against_dense_diagonalization_oracle(self):
        h = np.array([1.0, 0.5, 0.25])
        taps = np.zeros((2, 1, 3), dtype=complex)
        taps[0, 0] = h
        taps[1, 0] = h
        cfg = ChannelConfig(
            num_antennas=2, num_users=1, frame_len=8, channel_len=3, decay_samples=1.0
        )
        bins = to_bin_channels(ChannelRealization(taps=taps, config=cfg))
        f = dft_matrix(8)
        expected = np.diag(f @ build_circulant(h, 8) @ f.conj().T)
        assert np.abs(bins.a[:, 0, 0] - expected).max() <= 1e-10
        # identical responses on both antennas give identical rows
        assert np.array_equal(bins.a[:, 0, 0], bins.a[:, 1, 0])

    def test_energy_relation(self):
        cfg = small_config()
        realization = draw_channel(cfg)
        bins = to_bin_channels(realization)
        fd_energy = (np.abs(bins.a) ** 2).sum(axis=0)
        td_energy = cfg.frame_len * (np.abs(realization.taps) ** 2).sum(axis=2)
        assert_allclose(fd_energy, td_energy, rtol=1e-10)

