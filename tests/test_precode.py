import numpy as np
import pytest

from fdmud.channel import BinChannel, ChannelConfig, draw_channel, to_bin_channels
from fdmud.detect import DetectorKind, InverseCache, detect_frame
from fdmud.frame import FrameConfig, SymbolFrame, generate_symbols, to_frequency_domain, transmit
from fdmud.numerics import DegenerateScaleError, SingularMatrixError, invert_hpd
from fdmud.precode import precode_frame

from conftest import crandn


def ul_cache(a_stack, sigma_w2):
    """Uplink-style cache built from the per-bin regularized Gram inverses."""
    n, _, k = a_stack.shape
    inv = np.stack([invert_hpd(a_stack[i].conj().T @ a_stack[i] + sigma_w2 * np.eye(k)) for i in range(n)])
    return InverseCache(inv=inv, sigma_w2=sigma_w2)


def precode_bin(a_n, s_n, sigma_w2):
    """One bin through ``precode_frame`` as the N = 1 frame: its M transmit samples.

    A length-1 unitary DFT is the identity, so the symbols are the bin's own.
    """
    sf = SymbolFrame(symbols=np.asarray(s_n)[:, np.newaxis])
    return precode_frame(sf, BinChannel(a=np.asarray(a_n)[np.newaxis]), sigma_w2).x[:, 0]


def precode_oracle(a_n, s_n, sigma_w2):
    """Independently coded per-bin MMSE precoder: x = A^* (A^T A^* + s I)^-1 (beta o s)."""
    k = a_n.shape[1]
    gram_dl = a_n.T @ a_n.conj()
    dl_inv = np.linalg.inv(gram_dl + sigma_w2 * np.eye(k))
    beta = 1.0 / np.diag(gram_dl @ dl_inv).real
    return a_n.conj() @ (dl_inv @ (beta * s_n))


class TestMmsePrecodeBin:
    """``precode_frame`` on one bin, the N = 1 frame."""

    def test_scalar_identity(self):
        a = np.array([[1.0 + 0j]])
        x = precode_bin(a, np.array([1.0 + 0j]), 0.0)
        assert x[0] == pytest.approx(1.0)
        assert (a.T @ x)[0] == pytest.approx(1.0)

    def test_zf_limit(self, rng):
        sigma_w2 = 1e-10
        a = crandn(rng, 4, 2)
        s = crandn(rng, 2)
        x = precode_bin(a, s, sigma_w2)
        assert np.abs(a.T @ x - s).max() <= 1e-5

    def test_unit_gain_with_noise(self, rng):
        # the unbiasing convention: unit diagonal end-to-end gain at any noise level
        a = crandn(rng, 5, 3)
        sigma_w2 = 0.7
        for k in range(3):
            probe = np.zeros(3, dtype=complex)
            probe[k] = 1.0
            x = precode_bin(a, probe, sigma_w2)
            assert (a.T @ x)[k] == pytest.approx(1.0, abs=1e-10)

    def test_shape_validation(self, rng):
        a = crandn(rng, 4, 2)
        with pytest.raises(ValueError):
            precode_bin(a, crandn(rng, 3), 0.1)


class TestPrecodeFrame:
    def scenario(self, seed=0):
        cfg = ChannelConfig(
            num_antennas=6, num_users=3, frame_len=32, channel_len=4, decay_samples=2.0, seed=seed
        )
        ch = draw_channel(cfg)
        bins = to_bin_channels(ch)
        fc = FrameConfig(frame_len=32, cp_len=8, snr_db=3.0)
        return ch, bins, fc

    def test_identity_channel_routes_symbols(self):
        # square identity channel: each antenna transmits its own user's
        # (frequency-domain) symbols in the vanishing-noise limit
        num = 3
        a = np.tile(np.eye(num, dtype=complex), (16, 1, 1))
        bins = BinChannel(a=a)
        rng = np.random.default_rng(0)
        sf = generate_symbols(num, 16, "qpsk", rng)
        result = precode_frame(sf, bins, 1e-12)
        s_fd = np.fft.fft(sf.symbols, axis=1, norm="ortho")
        assert np.abs(result.x - s_fd).max() <= 1e-9

    def test_all_zero_symbols_give_zero_output(self):
        _, bins, fc = self.scenario()
        sf = SymbolFrame(symbols=np.zeros((3, 32), dtype=complex))
        result = precode_frame(sf, bins, fc.sigma_w2)
        assert np.abs(result.x).max() == 0.0

    def test_cache_path_matches_direct_path(self):
        ch, bins, fc = self.scenario(seed=3)
        rng = np.random.default_rng(3)
        ul_sf = generate_symbols(3, 32, "qpsk", rng)
        rf = to_frequency_domain(transmit(ul_sf, ch, fc, rng))
        cache = detect_frame(rf, bins, fc.sigma_w2, DetectorKind.MRC_MMSE).cache

        dl_sf = generate_symbols(3, 32, "qpsk", rng)
        with_cache = precode_frame(dl_sf, bins, fc.sigma_w2, cache=cache)
        direct = precode_frame(dl_sf, bins, fc.sigma_w2)
        assert np.abs(with_cache.x - direct.x).max() <= 1e-10
        assert np.abs(with_cache.beta_used - direct.beta_used).max() <= 1e-10

    @pytest.mark.parametrize("snr_db", [-30.0, -7.0, 0.0, 10.0])
    def test_cache_path_matches_direct_path_across_the_sweep(self, snr_db):
        # the crosscheck benchmark's shape, SNR cycle and relative 1e-10 gate
        cfg = ChannelConfig(
            num_antennas=64, num_users=14, frame_len=256, channel_len=130, decay_samples=25.0, seed=1
        )
        ch = draw_channel(cfg)
        bins = to_bin_channels(ch)
        fc = FrameConfig(frame_len=256, cp_len=144, snr_db=snr_db)
        rng = np.random.default_rng(2)
        sf = generate_symbols(14, 256, "qpsk", rng)
        rf = to_frequency_domain(transmit(sf, ch, fc, rng))
        cache = detect_frame(rf, bins, fc.sigma_w2, DetectorKind.MRC_MMSE).cache
        with_cache = precode_frame(sf, bins, fc.sigma_w2, cache=cache)
        direct = precode_frame(sf, bins, fc.sigma_w2)
        for got, want in ((with_cache.x, direct.x), (with_cache.beta_used, direct.beta_used)):
            assert np.abs(got - want).max() <= 1e-10 * max(np.abs(got).max(), np.abs(want).max())

    def test_matches_per_bin_operation(self):
        _, bins, fc = self.scenario(seed=5)
        rng = np.random.default_rng(5)
        sf = generate_symbols(3, 32, "qpsk", rng)
        result = precode_frame(sf, bins, fc.sigma_w2)
        s_fd = np.fft.fft(sf.symbols, axis=1, norm="ortho")
        for n in range(32):
            x_n = precode_oracle(bins.a[n], s_fd[:, n], fc.sigma_w2)
            assert np.abs(result.x[:, n] - x_n).max() <= 1e-12

    def test_beta_positive_and_real(self):
        _, bins, fc = self.scenario(seed=7)
        rng = np.random.default_rng(7)
        sf = generate_symbols(3, 32, "qpsk", rng)
        result = precode_frame(sf, bins, fc.sigma_w2)
        assert result.beta_used.dtype.kind == "f"
        assert np.all(result.beta_used > 0)

    def test_cache_without_unbias_matches_direct_path(self):
        # a cache holding inverses alone makes the precoder form the Gram
        _, bins, fc = self.scenario(seed=4)
        rng = np.random.default_rng(4)
        sf = generate_symbols(3, 32, "qpsk", rng)
        cache = ul_cache(bins.a, fc.sigma_w2)
        assert cache.unbias is None
        with_cache = precode_frame(sf, bins, fc.sigma_w2, cache=cache)
        direct = precode_frame(sf, bins, fc.sigma_w2)
        assert np.abs(with_cache.x - direct.x).max() <= 1e-10
        assert np.abs(with_cache.beta_used - direct.beta_used).max() <= 1e-10

    def test_cache_path_uses_uplink_unbias(self):
        ch, bins, fc = self.scenario(seed=6)
        rng = np.random.default_rng(6)
        sf = generate_symbols(3, 32, "qpsk", rng)
        rf = to_frequency_domain(transmit(sf, ch, fc, rng))
        cache = detect_frame(rf, bins, fc.sigma_w2, DetectorKind.MRC_MMSE).cache
        result = precode_frame(sf, bins, fc.sigma_w2, cache=cache)
        assert np.array_equal(result.beta_used, cache.unbias.T)

    def test_direct_path_singular_bin_error_names_the_bin(self, rng):
        a = np.tile(crandn(rng, 4, 2), (8, 1, 1))
        a[6, :, 1] = 0.0  # dead user column at bin 6: exactly singular Gram
        sf = SymbolFrame(symbols=crandn(rng, 2, 8))
        with pytest.raises(SingularMatrixError, match="bin 6"):
            precode_frame(sf, BinChannel(a=a), 0.0)

    def test_direct_path_zero_power_column_error_names_the_bin(self, rng):
        a = np.tile(crandn(rng, 4, 2), (8, 1, 1))
        a[3, :, 0] = 0.0  # the regularized Gram stays invertible; the unbiasing gain vanishes
        sf = SymbolFrame(symbols=crandn(rng, 2, 8))
        with pytest.raises(DegenerateScaleError, match="bin 3"):
            precode_frame(sf, BinChannel(a=a), 0.1)

    @pytest.mark.parametrize("sigma_w2", [-0.05, np.inf, np.nan])
    def test_negative_or_non_finite_sigma_rejected(self, sigma_w2):
        _, bins, _ = self.scenario()
        sf = SymbolFrame(symbols=np.ones((3, 32), dtype=complex))
        with pytest.raises(ValueError, match="sigma_w2 must be finite and non-negative"):
            precode_frame(sf, bins, sigma_w2)

    def test_cache_noise_mismatch_rejected(self):
        ch, bins, fc = self.scenario(seed=9)
        rng = np.random.default_rng(9)
        sf = generate_symbols(3, 32, "qpsk", rng)
        rf = to_frequency_domain(transmit(sf, ch, fc, rng))
        cache = detect_frame(rf, bins, fc.sigma_w2, DetectorKind.MRC_MMSE).cache
        with pytest.raises(ValueError, match="sigma_w2"):
            precode_frame(sf, bins, fc.sigma_w2 * 2, cache=cache)

    def test_cache_at_a_tiny_neighbouring_sigma_rejected(self):
        # 1e-9 and 1e-8 differ tenfold; an absolute floor of 1e-8 called
        # them equal and let the cache feed a wrong precoder
        ch, bins, _ = self.scenario(seed=9)
        rng = np.random.default_rng(9)
        sf = generate_symbols(3, 32, "qpsk", rng)
        fc = FrameConfig(frame_len=32, cp_len=8, snr_db=90.0)  # sigma_w2 = 1e-9
        rf = to_frequency_domain(transmit(sf, ch, fc, rng))
        cache = detect_frame(rf, bins, fc.sigma_w2, DetectorKind.MRC_MMSE).cache
        with pytest.raises(ValueError, match="sigma_w2"):
            precode_frame(sf, bins, 1e-8, cache=cache)
        same = precode_frame(sf, bins, fc.sigma_w2, cache=cache)
        direct = precode_frame(sf, bins, fc.sigma_w2)
        assert np.abs(same.x - direct.x).max() <= 1e-10 * np.abs(direct.x).max()

    def test_precoding_forms_agree(self, rng):
        # the K x K-inverse form equals the M x M-inverse form as matrices
        for _ in range(20):
            m = int(rng.integers(2, 8))
            k = int(rng.integers(1, m))
            sigma_w2 = float(10.0 ** rng.uniform(-2, 2))
            a = crandn(rng, m, k)
            small = a.conj() @ invert_hpd(a.T @ a.conj() + sigma_w2 * np.eye(k))
            big = invert_hpd(a.conj() @ a.T + sigma_w2 * np.eye(m)) @ a.conj()
            assert np.abs(small - big).max() <= 1e-10
