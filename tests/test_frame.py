import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fdmud.channel import (
    ChannelConfig,
    ChannelRealization,
    _tap_statistics,
    draw_channel,
    to_bin_channels,
)
from fdmud.detect import _gram_and_matched
from fdmud.frame import (
    FrameConfig,
    ReceivedFrame,
    SymbolFrame,
    _awgn,
    _next_fast_len,
    bin_vector,
    constellation_points,
    generate_symbols,
    to_frequency_domain,
    transmit,
    transmit_bins,
)

from conftest import build_circulant, crandn


def identity_realization(num_antennas, num_users, frame_len):
    """Handmade single-tap channel routing user k to antenna k."""
    cfg = ChannelConfig(
        num_antennas=num_antennas,
        num_users=num_users,
        frame_len=frame_len,
        channel_len=1,
        decay_samples=1.0,
    )
    taps = np.zeros((num_antennas, num_users, 1), dtype=complex)
    for k in range(num_users):
        taps[k, k, 0] = 1.0
    return ChannelRealization(taps=taps, config=cfg)


class TestGenerateSymbols:
    def test_qpsk_points(self):
        rng = np.random.default_rng(0)
        sf = generate_symbols(1, 4, "qpsk", rng)
        expected = constellation_points("qpsk")
        for s in sf.symbols.ravel():
            assert np.min(np.abs(s - expected)) <= 1e-15
        assert_allclose(np.abs(sf.symbols), 1.0)

    @pytest.mark.parametrize("name", ["qpsk", "16qam"])
    def test_mean_power(self, name):
        rng = np.random.default_rng(1)
        sf = generate_symbols(4, 25_000, name, rng)  # 1e5 symbols
        assert np.mean(np.abs(sf.symbols) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_deterministic(self):
        a = generate_symbols(2, 16, "qpsk", np.random.default_rng(5)).symbols
        b = generate_symbols(2, 16, "qpsk", np.random.default_rng(5)).symbols
        assert np.array_equal(a, b)

    def test_unknown_constellation(self):
        with pytest.raises(ValueError, match="unknown constellation"):
            generate_symbols(1, 4, "513qam", np.random.default_rng(0))

    def test_constellations_unit_energy(self):
        for name in ("qpsk", "16qam"):
            points = constellation_points(name)
            assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestTransmit:
    def test_identity_channel_no_noise(self):
        rng = np.random.default_rng(2)
        ch = identity_realization(3, 1, 16)
        sf = generate_symbols(1, 16, "qpsk", rng)
        fc = FrameConfig(frame_len=16, cp_len=4, snr_db=np.inf)
        rf = transmit(sf, ch, fc, rng)
        assert rf.domain == "time"
        assert np.abs(rf.samples[0] - sf.symbols[0]).max() <= 1e-15

    def test_against_circulant_oracle(self, rng):
        # noise-free output equals the sum of circulant-matrix products
        n, l_h, k_usr, m_ant = 16, 4, 2, 3
        cfg = ChannelConfig(
            num_antennas=m_ant, num_users=k_usr, frame_len=n, channel_len=l_h, decay_samples=2.0, seed=4
        )
        ch = draw_channel(cfg)
        sf = SymbolFrame(symbols=crandn(rng, k_usr, n))
        fc = FrameConfig(frame_len=n, cp_len=l_h + 1, snr_db=np.inf)
        rf = transmit(sf, ch, fc, rng)
        for m in range(m_ant):
            expected = sum(
                build_circulant(ch.taps[m, k], n) @ sf.symbols[k] for k in range(k_usr)
            )
            assert np.abs(rf.samples[m] - expected).max() <= 1e-12

    def test_noise_floor(self):
        rng = np.random.default_rng(6)
        ch = identity_realization(4, 2, 12_500)
        sf = SymbolFrame(symbols=np.zeros((2, 12_500), dtype=complex))
        fc = FrameConfig(frame_len=12_500, cp_len=2, snr_db=7.0)
        rf = transmit(sf, ch, fc, rng)  # 5e4 noise-only samples
        measured = np.mean(np.abs(rf.samples) ** 2)
        assert measured == pytest.approx(fc.sigma_w2, rel=0.03)

    def test_cp_too_short_rejected(self, rng):
        cfg = ChannelConfig(
            num_antennas=3, num_users=2, frame_len=16, channel_len=4, decay_samples=2.0
        )
        ch = draw_channel(cfg)
        sf = generate_symbols(2, 16, "qpsk", rng)
        with pytest.raises(ValueError, match="cyclic prefix too short"):
            transmit(sf, ch, FrameConfig(frame_len=16, cp_len=4, snr_db=10.0), rng)

    def test_dimension_mismatch_rejected(self, rng):
        ch = identity_realization(3, 2, 16)
        sf = generate_symbols(1, 16, "qpsk", rng)
        with pytest.raises(ValueError, match="user count"):
            transmit(sf, ch, FrameConfig(frame_len=16, cp_len=4), rng)


class TestNextFastLen:
    def test_matches_scipy_for_complex_input(self):
        from scipy.fft import next_fast_len

        for target in range(1, 20_001):
            assert _next_fast_len(target) == next_fast_len(target), target

    @pytest.mark.parametrize("frame_len, expected", [(2048, 2352), (512, 792), (256, 539)])
    def test_benchmark_shapes(self, frame_len, expected):
        # frame, 144-sample prefix and 130-tap channel, as transmit pads them
        assert _next_fast_len(frame_len + 144 + 130 - 1) == expected


@st.composite
def cp_scenarios(draw):
    """Random (M, K, N, L, cp) with L < cp <= N, a constellation and a seed."""
    m_ant = draw(st.integers(2, 8))
    k_usr = draw(st.integers(1, m_ant - 1))
    frame_len = draw(st.integers(2, 96))
    length = draw(st.integers(1, frame_len - 1))
    cp_len = draw(st.integers(length + 1, frame_len))
    channel = ChannelConfig(
        num_antennas=m_ant,
        num_users=k_usr,
        frame_len=frame_len,
        channel_len=length,
        decay_samples=draw(st.floats(0.5, 20.0)),
        seed=draw(st.integers(0, 2**32)),
    )
    fc = FrameConfig(
        frame_len=frame_len,
        cp_len=cp_len,
        constellation=draw(st.sampled_from(["qpsk", "16qam"])),
        snr_db=draw(st.floats(-20.0, 40.0)),
    )
    return channel, fc, draw(st.integers(0, 2**32))


class TestTransmitBins:
    @seed(20240601)
    @settings(max_examples=60, deadline=None)
    @given(cp_scenarios())
    def test_equals_transmit_then_dft(self, scenario):
        # same symbols, same noise draws: the two paths differ by rounding,
        # and leave the generator in the same state
        channel, fc, rng_seed = scenario
        ch = draw_channel(channel)
        sym_rng = np.random.default_rng(rng_seed)
        sf = generate_symbols(channel.num_users, fc.frame_len, fc.constellation, sym_rng)
        rng_time, rng_bins = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
        oracle = to_frequency_domain(transmit(sf, ch, fc, rng_time))
        model = transmit_bins(sf, to_bin_channels(ch), fc, rng_bins)
        assert model.domain == "frequency"
        scale = max(np.abs(oracle.samples).max(), np.abs(model.samples).max())
        assert np.abs(model.samples - oracle.samples).max() <= 1e-12 * scale
        assert np.array_equal(rng_time.standard_normal(4), rng_bins.standard_normal(4))

    def test_bin_count_mismatch_rejected(self, rng):
        ch = identity_realization(3, 2, 16)
        sf = generate_symbols(2, 8, "qpsk", rng)
        with pytest.raises(ValueError, match="bin count"):
            transmit_bins(sf, to_bin_channels(ch), FrameConfig(frame_len=8, cp_len=4), rng)

    def test_user_count_mismatch_rejected(self, rng):
        ch = identity_realization(3, 2, 16)
        sf = generate_symbols(1, 16, "qpsk", rng)
        with pytest.raises(ValueError, match="user count"):
            transmit_bins(sf, to_bin_channels(ch), FrameConfig(frame_len=16, cp_len=4), rng)


class TestAwgn:
    @pytest.mark.parametrize("rng_seed", range(5))
    def test_bytes_of_the_complex_expression(self, rng_seed):
        # Written part by part into one array, the noise keeps the bytes of
        # sigma * (x + 1j * y) and leaves the generator where it did.
        sigma_w2 = 10.0 ** (rng_seed - 2)
        rng, old = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
        noise = _awgn(8, 64, sigma_w2, rng)
        sigma = np.sqrt(sigma_w2 / 2.0)
        expected = sigma * (old.standard_normal((8, 64)) + 1j * old.standard_normal((8, 64)))
        assert noise.tobytes() == expected.tobytes()
        assert np.array_equal(rng.standard_normal(4), old.standard_normal(4))


class TestTapStatisticsOfReceivedFrames:
    """The tap-domain statistics of a received time-domain frame, with no ``A``."""

    @seed(20261019)
    @settings(max_examples=60, deadline=None)
    @given(cp_scenarios())
    def test_equal_the_products_over_the_received_bins(self, scenario):
        channel, fc, rng_seed = scenario
        realization = draw_channel(channel)
        sf = generate_symbols(
            channel.num_users, fc.frame_len, fc.constellation, np.random.default_rng(rng_seed)
        )
        rf = transmit(sf, realization, fc, np.random.default_rng(rng_seed + 1))
        gram, matched = _tap_statistics(realization.taps, rf.samples)
        expected = _gram_and_matched(
            to_bin_channels(realization).a, to_frequency_domain(rf).samples.T
        )
        for got, want in zip((gram, matched), expected):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestToFrequencyDomain:
    def test_impulse_row_is_flat(self):
        samples = np.zeros((1, 8), dtype=complex)
        samples[0, 0] = 1.0
        fd = to_frequency_domain(ReceivedFrame(samples=samples))
        assert fd.domain == "frequency"
        assert_allclose(fd.samples[0], np.full(8, 1 / np.sqrt(8)), atol=1e-15)

    def test_round_trip(self, rng):
        samples = crandn(rng, 3, 16)
        fd = to_frequency_domain(ReceivedFrame(samples=samples))
        back = np.fft.ifft(fd.samples, axis=1, norm="ortho")
        assert np.abs(back - samples).max() <= 1e-12

    def test_double_transform_rejected(self, rng):
        fd = to_frequency_domain(ReceivedFrame(samples=crandn(rng, 2, 8)))
        with pytest.raises(ValueError, match="already"):
            to_frequency_domain(fd)

    def test_single_user_identity_channel_model(self):
        # noise-free compose: FD received row equals the per-bin channel
        # gains times the FD symbols
        rng = np.random.default_rng(8)
        ch = identity_realization(2, 1, 16)
        sf = generate_symbols(1, 16, "qpsk", rng)
        fc = FrameConfig(frame_len=16, cp_len=4, snr_db=np.inf)
        fd = to_frequency_domain(transmit(sf, ch, fc, rng))
        s_fd = np.fft.fft(sf.symbols[0], norm="ortho")
        assert np.abs(fd.samples[0] - s_fd).max() <= 1e-12
        assert np.abs(fd.samples[1]).max() <= 1e-12


class TestBinVector:
    def test_scalar_case(self, rng):
        fd = to_frequency_domain(ReceivedFrame(samples=crandn(rng, 1, 8)))
        assert bin_vector(fd, 3).shape == (1,)
        assert bin_vector(fd, 3)[0] == fd.samples[0, 3]

    def test_partition_reconstructs_frame(self, rng):
        fd = to_frequency_domain(ReceivedFrame(samples=crandn(rng, 3, 8)))
        stacked = np.stack([bin_vector(fd, n) for n in range(8)], axis=1)
        assert np.array_equal(stacked, fd.samples)

    def test_noise_free_matches_per_bin_model(self, rng):
        cfg = ChannelConfig(
            num_antennas=4, num_users=2, frame_len=16, channel_len=3, decay_samples=2.0, seed=10
        )
        ch = draw_channel(cfg)
        bins = to_bin_channels(ch)
        sf = generate_symbols(2, 16, "qpsk", rng)
        fc = FrameConfig(frame_len=16, cp_len=4, snr_db=np.inf)
        fd = to_frequency_domain(transmit(sf, ch, fc, rng))
        s_fd = np.fft.fft(sf.symbols, axis=1, norm="ortho")
        for n in range(16):
            assert np.abs(bin_vector(fd, n) - bins.a[n] @ s_fd[:, n]).max() <= 1e-10

    def test_requires_frequency_domain(self, rng):
        with pytest.raises(ValueError, match="frequency"):
            bin_vector(ReceivedFrame(samples=crandn(rng, 2, 8)), 0)

    def test_out_of_range(self, rng):
        fd = to_frequency_domain(ReceivedFrame(samples=crandn(rng, 2, 8)))
        with pytest.raises(ValueError, match="out of range"):
            bin_vector(fd, 8)


class TestFrameInvariants:
    @pytest.mark.parametrize("frame_len", [8, 16, 64])
    def test_cp_makes_convolution_circular(self, frame_len):
        # the whole premise: noise-free transmit equals per-bin multiplication
        rng = np.random.default_rng(frame_len)
        l_h = min(4, frame_len // 2)
        cfg = ChannelConfig(
            num_antennas=3,
            num_users=2,
            frame_len=frame_len,
            channel_len=l_h,
            decay_samples=3.0,
            seed=frame_len,
        )
        ch = draw_channel(cfg)
        bins = to_bin_channels(ch)
        sf = generate_symbols(2, frame_len, "qpsk", rng)
        fc = FrameConfig(frame_len=frame_len, cp_len=l_h + 1, snr_db=np.inf)
        fd = to_frequency_domain(transmit(sf, ch, fc, rng))
        s_fd = np.fft.fft(sf.symbols, axis=1, norm="ortho")
        predicted = np.einsum("nmk,kn->mn", bins.a, s_fd)
        assert np.abs(fd.samples - predicted).max() <= 1e-10

    def test_fd_noise_covariance_stays_white(self):
        # empirical covariance of the FD noise across many frames is
        # sigma_w2 * I: the unitary transform does not color or rescale it
        rng = np.random.default_rng(123)
        m_ant, frame_len, n_frames = 2, 8, 10_000
        ch = identity_realization(m_ant, 1, frame_len)
        fc = FrameConfig(frame_len=frame_len, cp_len=2, snr_db=3.0)
        zeros = SymbolFrame(symbols=np.zeros((1, frame_len), dtype=complex))
        cov = np.zeros((m_ant, m_ant), dtype=complex)
        count = 0
        for _ in range(n_frames):
            fd = to_frequency_domain(transmit(zeros, ch, fc, rng))
            cov += fd.samples @ fd.samples.conj().T
            count += frame_len
        cov /= count
        sigma_w2 = fc.sigma_w2
        assert np.abs(cov[0, 0] - sigma_w2) <= 0.05 * sigma_w2
        assert np.abs(cov[1, 1] - sigma_w2) <= 0.05 * sigma_w2
        assert np.abs(cov[0, 1]) <= 0.05 * sigma_w2

    def test_energy_conserved_through_transform(self, rng):
        samples = crandn(rng, 3, 32)
        fd = to_frequency_domain(ReceivedFrame(samples=samples))
        assert np.linalg.norm(fd.samples) == pytest.approx(np.linalg.norm(samples), rel=1e-12)


class TestFrameConfig:
    def test_sigma_from_snr(self):
        assert FrameConfig(frame_len=8, cp_len=2, snr_db=10.0).sigma_w2 == pytest.approx(0.1)
        assert FrameConfig(frame_len=8, cp_len=2, snr_db=np.inf).sigma_w2 == 0.0

    def test_nan_snr_rejected(self):
        # inf stays valid: it is the noise-free path
        with pytest.raises(ValueError, match="nan"):
            FrameConfig(frame_len=8, cp_len=2, snr_db=float("nan"))

    def test_minus_inf_snr_rejected(self):
        # infinite noise would pass the detectors' sigma_w2 > 0 check
        with pytest.raises(ValueError, match="-inf"):
            FrameConfig(frame_len=8, cp_len=2, snr_db=-np.inf)

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            FrameConfig(frame_len=0, cp_len=0)
        with pytest.raises(ValueError):
            FrameConfig(frame_len=8, cp_len=9)

    def test_bad_constellation(self):
        with pytest.raises(ValueError):
            FrameConfig(frame_len=8, cp_len=2, constellation="pi/4-dqpsk")
