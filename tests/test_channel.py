import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fdmud.channel import (
    BinChannel,
    ChannelConfig,
    ChannelRealization,
    _tap_statistics,
    draw_channel,
    to_bin_channels,
)

from fdmud.detect import _gram_and_matched

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



@st.composite
def gram_shapes(draw):
    """Random (M, K, N, L) with 1 <= K < M and 1 <= L <= N, so 2L - 1 may exceed N."""
    m_ant = draw(st.integers(2, 9))
    k_usr = draw(st.integers(1, m_ant - 1))
    frame_len = draw(st.integers(1, 80))
    return m_ant, k_usr, frame_len, draw(st.integers(1, frame_len))


def assert_statistics_agree(realization, signal):
    """The tap statistics against ``A^H A`` and ``A^H y``, ``y`` the unitary DFT of ``signal``."""
    a = to_bin_channels(realization).a
    expected = _gram_and_matched(a, np.fft.fft(signal, axis=1, norm="ortho").T)
    for got, want in zip(_tap_statistics(realization.taps, signal), expected):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestTapStatistics:
    """``A_n^H A_n`` and ``A_n^H y_n`` from the taps, against the products over ``A``."""

    @seed(20261019)
    @settings(max_examples=80, deadline=None)
    @given(gram_shapes(), st.integers(0, 2**32))
    @example((4, 2, 8, 1), 0)  # L = 1: every bin holds the same Gram
    @example((5, 3, 9, 9), 1)  # 2L - 1 = 17 > N: lags fold modulo N
    @example((6, 3, 1, 1), 2)  # N = 1
    def test_equal_the_products_over_the_bin_channels(self, shape, rng_seed):
        m_ant, k_usr, frame_len, length = shape
        realization = draw_channel(
            ChannelConfig(m_ant, k_usr, frame_len, length, decay_samples=3.0, seed=rng_seed)
        )
        signal = crandn(np.random.default_rng(rng_seed), m_ant, frame_len)
        assert_statistics_agree(realization, signal)

    # The kernel adds blocks of 16 antennas: M not a multiple of 16,
    # 2L - 1 > N, and K = M - 1 over two blocks.
    @pytest.mark.parametrize(
        "m_ant, k_usr, frame_len, length",
        [(37, 5, 300, 20), (40, 6, 64, 40), (17, 16, 128, 30)],
    )
    def test_blocks_of_antennas_add_up(self, m_ant, k_usr, frame_len, length):
        realization = draw_channel(
            ChannelConfig(m_ant, k_usr, frame_len, length, decay_samples=10.0, seed=m_ant)
        )
        signal = crandn(np.random.default_rng(length), m_ant, frame_len)
        assert_statistics_agree(realization, signal)

    def test_memory_stays_near_the_outputs(self):
        # No M x P spectrum and no segments of the whole signal: at
        # 256 x 8 x 1024, L = 130, the (N, K, K) and (N, K) outputs take
        # 1.2 MB, and the (P, M, K) spectrum alone would take 8.7 MB.
        realization = draw_channel(ChannelConfig(256, 8, 1024, 130, decay_samples=25.0, seed=1))
        signal = crandn(np.random.default_rng(2), 256, 1024)
        _tap_statistics(realization.taps, signal)  # one-time allocations out of the way
        tracemalloc.start()
        try:
            gram, matched = _tap_statistics(realization.taps, signal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * (gram.nbytes + matched.nbytes)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tap_named_as_the_channel(self, value):
        realization = draw_channel(small_config())
        realization.taps[1, 0, 2] = value
        with pytest.raises(ValueError, match=r"^bin 0: channel entries must be finite$"):
            _tap_statistics(realization.taps, np.ones((4, 32), dtype=complex))

    @pytest.mark.filterwarnings("error")
    def test_finite_taps_whose_gram_overflows(self):
        realization = draw_channel(small_config())
        realization.taps[1] *= 1e160  # finite taps; their squares are not
        with pytest.raises(ValueError, match=r"^bin 0: the channel's A\^H A overflows$"):
            _tap_statistics(realization.taps, np.ones((4, 32), dtype=complex))

    @pytest.mark.filterwarnings("error")
    def test_matched_overflow_names_the_first_bin(self):
        realization = draw_channel(small_config(frame_len=8, channel_len=2))
        realization.taps[...] *= 1e150  # a finite Gram of about 1e300
        signal = np.zeros((4, 8), dtype=complex)
        signal[:, 5] = 1e200  # a finite signal whose A^H y is not
        with pytest.raises(ValueError, match=r"^bin 0: the matched-filter output A\^H y overflows$"):
            _tap_statistics(realization.taps, signal)
