import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fdmud.channel import BinChannel, ChannelConfig, draw_channel, to_bin_channels
from fdmud.detect import (
    DetectorKind,
    InverseCache,
    _Matched,
    _unbias,
    detect_frame,
    mmse_bin,
    mrc_bin,
    mrcmmse_bin,
)
from fdmud.frame import (
    FrameConfig,
    ReceivedFrame,
    SymbolFrame,
    generate_symbols,
    to_frequency_domain,
    transmit,
)
from fdmud.numerics import DegenerateScaleError, SingularMatrixError
from fdmud.precode import precode_frame

from conftest import build_circulant, crandn, detect_bin, frame_statistics


def normal_equations_oracle(a, y, sigma_w2):
    """Independently coded unbiased MMSE: solve the K x K normal equations."""
    k = a.shape[1]
    gram = a.conj().T @ a
    raw = np.linalg.solve(gram + sigma_w2 * np.eye(k), a.conj().T @ y)
    gain = np.diag(np.linalg.solve(gram + sigma_w2 * np.eye(k), gram))
    return raw / gain


def per_bin_oracle(kind, a, y, sigma_w2):
    """Independently coded per-bin estimates for the K x K detector kinds."""
    gram = a.conj().T @ a
    matched = a.conj().T @ y
    if kind is DetectorKind.MRC_MMSE:
        return normal_equations_oracle(a, y, sigma_w2)
    if kind is DetectorKind.HIGH_SNR_ZF:
        return np.linalg.solve(gram, matched)
    if kind is DetectorKind.MMSE:
        # the M x M receive-side solve, unbiased by the diagonal of W^H A
        w = np.linalg.solve(a @ a.conj().T + sigma_w2 * np.eye(a.shape[0]), a)
        return (w.conj().T @ y) / np.diag(w.conj().T @ a).real
    return matched / np.diag(gram).real  # TR-MRC and low-SNR: diagonally unbiased


K_BY_K = [
    DetectorKind.MRC_MMSE,
    DetectorKind.TR_MRC,
    DetectorKind.LOW_SNR,
    DetectorKind.HIGH_SNR_ZF,
]


def small_scenario(seed=0, frame_len=16, m_ant=4, k_usr=2, l_h=3, snr_db=3.0):
    cfg = ChannelConfig(
        num_antennas=m_ant,
        num_users=k_usr,
        frame_len=frame_len,
        channel_len=l_h,
        decay_samples=2.0,
        seed=seed,
    )
    ch = draw_channel(cfg)
    bins = to_bin_channels(ch)
    fc = FrameConfig(frame_len=frame_len, cp_len=l_h + 1, snr_db=snr_db)
    rng = np.random.default_rng(seed + 1000)
    sf = generate_symbols(k_usr, frame_len, "qpsk", rng)
    rf = to_frequency_domain(transmit(sf, ch, fc, rng))
    return ch, bins, fc, sf, rf


class TestMmseBin:
    def test_scalar_case(self):
        est = mmse_bin(np.array([[1.0]]), np.array([0.5]), 1.0)
        assert est[0] == pytest.approx(0.5, abs=1e-14)

    def test_zf_limit_consistency(self, rng):
        a = crandn(rng, 4, 2)
        s = crandn(rng, 2)
        est = mmse_bin(a, a @ s, 1e-12)
        assert np.abs(est - s).max() <= 1e-6

    def test_against_normal_equations_oracle(self, rng):
        for _ in range(20):
            a = crandn(rng, 4, 2)
            y = crandn(rng, 4)
            sigma_w2 = float(10.0 ** rng.uniform(-2, 1))
            assert np.abs(mmse_bin(a, y, sigma_w2) - normal_equations_oracle(a, y, sigma_w2)).max() <= 1e-10

    def test_unit_diagonal_gain(self, rng):
        a = crandn(rng, 5, 3)
        for col in range(3):
            probe = np.zeros(3, dtype=complex)
            probe[col] = 1.0
            assert mmse_bin(a, a @ probe, 0.7)[col] == pytest.approx(1.0, abs=1e-10)

    def test_zero_sigma_rejected(self, rng):
        a, y = crandn(rng, 4, 2), crandn(rng, 4)
        for sigma_w2 in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match=rf"positive and finite, got {sigma_w2}; .*HIGH_SNR_ZF"):
                mmse_bin(a, y, sigma_w2)

    def test_wide_matrix_rejected(self, rng):
        with pytest.raises(ValueError):
            mmse_bin(crandn(rng, 2, 4), crandn(rng, 2), 1.0)


class TestMrcBin:
    def test_identity_channel(self, rng):
        y = crandn(rng, 3)
        assert_allclose(mrc_bin(np.eye(3), y), y / 3)

    def test_hand_computation(self):
        a = np.array([[1.0], [1j]])
        y = np.array([1.0, 1.0])
        assert mrc_bin(a, y)[0] == pytest.approx((1 - 1j) / 2)

    def test_time_domain_matched_filter_oracle(self, rng):
        # matched filtering with the time-reversed conjugate channel in the
        # time domain, averaged over antennas, equals the per-bin statistic
        n, l_h, m_ant, k_usr = 8, 3, 3, 2
        cfg = ChannelConfig(
            num_antennas=m_ant, num_users=k_usr, frame_len=n, channel_len=l_h, decay_samples=2.0, seed=3
        )
        ch = draw_channel(cfg)
        bins = to_bin_channels(ch)
        y_time = crandn(rng, m_ant, n)
        r_time = np.zeros((k_usr, n), dtype=complex)
        for k in range(k_usr):
            for m in range(m_ant):
                r_time[k] += build_circulant(ch.taps[m, k], n).conj().T @ y_time[m]
        r_time /= m_ant
        y_fd = np.fft.fft(y_time, axis=1, norm="ortho")
        r_fd = np.stack([mrc_bin(bins.a[n_], y_fd[:, n_]) for n_ in range(n)], axis=1)
        assert np.abs(np.fft.fft(r_time, axis=1, norm="ortho") - r_fd).max() <= 1e-12


class TestMrcMmseBin:
    def test_scalar_equivalence(self):
        a = np.array([[1.0]])
        y = np.array([0.5])
        est, inv = mrcmmse_bin(a, mrc_bin(a, y), 1.0)
        assert est[0] == pytest.approx(0.5, abs=1e-14)
        assert inv[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_matches_mmse(self, rng):
        a = crandn(rng, 8, 3)
        y = crandn(rng, 8)
        est, _ = mrcmmse_bin(a, mrc_bin(a, y), 0.1)
        assert np.abs(est - mmse_bin(a, y, 0.1)).max() <= 1e-10

    def test_converges_to_lowsnr(self, rng):
        a = crandn(rng, 6, 3)
        y = crandn(rng, 6)
        est, _ = mrcmmse_bin(a, mrc_bin(a, y), 1e6)
        ref = detect_bin(a, y, DetectorKind.LOW_SNR)
        assert np.abs(est - ref).max() <= 1e-4 * np.abs(ref).max()

    def test_returns_kxk_inverse(self, rng):
        a = crandn(rng, 8, 3)
        sigma_w2 = 0.3
        _, inv = mrcmmse_bin(a, mrc_bin(a, crandn(rng, 8)), sigma_w2)
        assert inv.shape == (3, 3)
        gram = a.conj().T @ a
        assert np.abs(inv @ (gram + sigma_w2 * np.eye(3)) - np.eye(3)).max() <= 1e-9

    def test_zero_sigma_rejected(self, rng):
        a = crandn(rng, 4, 2)
        r = mrc_bin(a, crandn(rng, 4))
        for sigma_w2 in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match=rf"positive and finite, got {sigma_w2}; .*HIGH_SNR_ZF"):
                mrcmmse_bin(a, r, sigma_w2)


# Each single-bin entry point with the name of its second argument.
BIN_CALLS = {
    "mmse_bin": (lambda a_n, v: mmse_bin(a_n, v, 0.1), "y_n"),
    "mrc_bin": (mrc_bin, "y_n"),
    "mrcmmse_bin": (lambda a_n, v: mrcmmse_bin(a_n, v, 0.1), "r_n"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize(
    "name, arg",
    [(name, arg) for name, (_, second) in BIN_CALLS.items() for arg in ("a_n", second)],
)
def test_single_bin_non_finite_input_named(rng, name, arg, value):
    call, second = BIN_CALLS[name]
    a_n = crandn(rng, 6, 3)
    v = crandn(rng, 3 if second == "r_n" else 6)
    (a_n if arg == "a_n" else v)[1] = value
    with pytest.raises(ValueError, match=rf"^{arg} must have finite entries$"):
        call(a_n, v)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["mmse_bin", "mrcmmse_bin"])
def test_single_bin_gram_overflow_named(rng, name):
    # Finite entries whose squares are not: named as detect_frame names it.
    call, second = BIN_CALLS[name]
    a_n = crandn(rng, 6, 3)
    a_n[1] *= 1e160
    v = crandn(rng, 3 if second == "r_n" else 6)
    with pytest.raises(ValueError, match=r"^bin 0: the channel's A\^H A overflows$"):
        call(a_n, v)


class TestLowSnrBin:
    """``LOW_SNR`` (the TR-MRC kernel) on one bin."""

    def test_orthogonal_columns_exact(self):
        a = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]], dtype=complex)
        s = np.array([1.0 + 1j, 2.0 - 1j])
        assert np.abs(detect_bin(a, a @ s, DetectorKind.LOW_SNR) - s).max() <= 1e-14

    def test_scalar(self):
        est = detect_bin(np.array([[2.0]]), np.array([4.0]), DetectorKind.LOW_SNR)
        assert est[0] == pytest.approx(2.0)

    def test_zero_column_rejected(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateScaleError):
            detect_bin(a, np.array([1.0, 1.0]), DetectorKind.LOW_SNR)


class TestHighSnrBin:
    """``HIGH_SNR_ZF`` on one bin."""

    def test_noise_free_recovery(self, rng):
        a = crandn(rng, 5, 3)
        s = crandn(rng, 3)
        assert np.abs(detect_bin(a, a @ s, DetectorKind.HIGH_SNR_ZF) - s).max() <= 1e-10

    def test_scalar(self):
        est = detect_bin(np.array([[2.0]]), np.array([4.0]), DetectorKind.HIGH_SNR_ZF)
        assert est[0] == pytest.approx(2.0)

    def test_mmse_limit(self, rng):
        a = crandn(rng, 5, 2)
        y = crandn(rng, 5)
        ref = detect_bin(a, y, DetectorKind.HIGH_SNR_ZF)
        assert np.abs(mmse_bin(a, y, 1e-10) - ref).max() <= 1e-5 * np.abs(ref).max()

    def test_rank_deficient_rejected(self):
        a = np.ones((4, 2), dtype=complex)  # identical columns
        with pytest.raises(SingularMatrixError):
            detect_bin(a, np.ones(4, dtype=complex), DetectorKind.HIGH_SNR_ZF)


class TestDetectFrame:
    @pytest.mark.parametrize(
        "kind", [DetectorKind.MMSE, DetectorKind.MRC_MMSE, DetectorKind.HIGH_SNR_ZF]
    )
    def test_identity_channel_noise_free(self, kind):
        from test_frame import identity_realization

        rng = np.random.default_rng(17)
        ch = identity_realization(3, 2, 16)
        bins = to_bin_channels(ch)
        sf = generate_symbols(2, 16, "qpsk", rng)
        fc = FrameConfig(frame_len=16, cp_len=4, snr_db=np.inf)
        rf = to_frequency_domain(transmit(sf, ch, fc, rng))
        sigma_w2 = 0.5 if kind is not DetectorKind.HIGH_SNR_ZF else 0.0
        result = detect_frame(rf, bins, sigma_w2, kind)
        assert np.abs(result.s_hat_time - sf.symbols).max() <= 1e-10
        assert result.kind is kind

    def test_mmse_equals_mrcmmse_at_frame_scale(self):
        _, bins, fc, _, rf = small_scenario(seed=21, snr_db=-3.0)
        mmse = detect_frame(rf, bins, fc.sigma_w2, DetectorKind.MMSE)
        mrcmmse = detect_frame(rf, bins, fc.sigma_w2, DetectorKind.MRC_MMSE)
        scale = np.abs(mmse.s_hat_time).max()
        assert np.abs(mmse.s_hat_time - mrcmmse.s_hat_time).max() <= 1e-9 * scale

    @pytest.mark.parametrize("snr_db", [-20.0, 0.0, 20.0])
    def test_mmse_equals_mrcmmse_at_reference_scale(self, snr_db):
        # full-size scenario: 64 antennas, 14 users, 2048 bins
        _, bins, fc, _, rf = small_scenario(
            seed=64, frame_len=2048, m_ant=64, k_usr=14, l_h=130, snr_db=snr_db
        )
        mmse = detect_frame(rf, bins, fc.sigma_w2, DetectorKind.MMSE)
        mrcmmse = detect_frame(rf, bins, fc.sigma_w2, DetectorKind.MRC_MMSE)
        scale = np.abs(mmse.s_hat_time).max()
        assert np.abs(mmse.s_hat_time - mrcmmse.s_hat_time).max() <= 1e-9 * scale

    @pytest.mark.parametrize(
        "kind",
        [
            DetectorKind.MRC_MMSE,
            DetectorKind.TR_MRC,
            DetectorKind.LOW_SNR,
            DetectorKind.HIGH_SNR_ZF,
        ],
    )
    def test_batched_frame_matches_per_bin_loop(self, kind):
        # the batched frame path must be observationally identical to a loop
        # of independently coded per-bin estimates
        _, bins, fc, _, rf = small_scenario(seed=33)
        sigma_w2 = fc.sigma_w2
        result = detect_frame(rf, bins, sigma_w2, kind)
        n = rf.samples.shape[1]
        est = np.empty((bins.a.shape[2], n), dtype=complex)
        for idx in range(n):
            est[:, idx] = per_bin_oracle(kind, bins.a[idx], rf.samples[:, idx], sigma_w2)
        expected = np.fft.ifft(est, axis=1, norm="ortho")
        assert np.abs(result.s_hat_time - expected).max() <= 1e-12

    def test_mmse_matches_per_bin_solve_at_128_antennas(self):
        # 128 x 16 x 128: the M x M reference runs in several chunks of bins
        _, bins, fc, _, rf = small_scenario(seed=12, frame_len=128, m_ant=128, k_usr=16, l_h=16)
        result = detect_frame(rf, bins, fc.sigma_w2, DetectorKind.MMSE)
        est = np.stack(
            [
                per_bin_oracle(DetectorKind.MMSE, bins.a[idx], rf.samples[:, idx], fc.sigma_w2)
                for idx in range(128)
            ],
            axis=1,
        )
        expected = np.fft.ifft(est, axis=1, norm="ortho")
        assert np.abs(result.s_hat_time - expected).max() <= 1e-12

    def test_tr_mrc_equals_unbiased_mrc(self):
        _, bins, fc, _, rf = small_scenario(seed=5)
        tr = detect_frame(rf, bins, fc.sigma_w2, DetectorKind.TR_MRC)
        low = detect_frame(rf, bins, fc.sigma_w2, DetectorKind.LOW_SNR)
        # one kernel serves both kinds
        assert np.array_equal(tr.s_hat_time, low.s_hat_time)

    def test_mrcmmse_populates_cache(self):
        _, bins, fc, _, rf = small_scenario(seed=9)
        result = detect_frame(rf, bins, fc.sigma_w2, DetectorKind.MRC_MMSE)
        cache = result.cache
        assert cache is not None
        assert cache.sigma_w2 == fc.sigma_w2
        n, _, k = bins.a.shape
        assert cache.inv.shape == (n, k, k)
        eye = np.eye(k)
        for idx in range(n):
            inv = cache.inv[idx]
            assert np.abs(inv - inv.conj().T).max() <= 1e-10 * max(np.abs(inv).max(), 1.0)
            gram = bins.a[idx].conj().T @ bins.a[idx]
            assert np.abs(inv @ (gram + fc.sigma_w2 * eye) - eye).max() <= 1e-9

    def test_cache_unbias_matches_per_bin_oracle(self):
        _, bins, fc, _, rf = small_scenario(seed=13, snr_db=-6.0)
        cache = detect_frame(rf, bins, fc.sigma_w2, DetectorKind.MRC_MMSE).cache
        n, _, k = bins.a.shape
        assert cache.unbias.shape == (n, k)
        assert cache.unbias.dtype.kind == "f"
        for idx in range(n):
            gram = bins.a[idx].conj().T @ bins.a[idx]
            inv = np.linalg.inv(gram + fc.sigma_w2 * np.eye(k))
            expected = 1.0 / np.diag(inv @ gram)
            assert np.abs(cache.unbias[idx] - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_cache_unbias_shape_checked(self):
        with pytest.raises(ValueError, match="unbias"):
            InverseCache(inv=np.tile(np.eye(2), (3, 1, 1)), sigma_w2=0.1, unbias=np.ones((3, 3)))

    def test_other_kinds_have_no_cache(self):
        _, bins, fc, _, rf = small_scenario(seed=9)
        assert detect_frame(rf, bins, fc.sigma_w2, DetectorKind.TR_MRC).cache is None
        assert detect_frame(rf, bins, fc.sigma_w2, DetectorKind.MMSE).cache is None

    def test_requires_frequency_domain(self, rng):
        _, bins, fc, _, _ = small_scenario(seed=2)
        rf_time = ReceivedFrame(samples=crandn(rng, 4, 16), domain="time")
        with pytest.raises(ValueError, match="frequency"):
            detect_frame(rf_time, bins, fc.sigma_w2, DetectorKind.MMSE)

    def test_singular_bin_error_names_the_bin(self, rng):
        from fdmud.channel import BinChannel

        a = np.tile(crandn(rng, 4, 2), (8, 1, 1))
        a[5, :, 1] = 0.0  # dead user column at bin 5: exactly singular Gram
        rf = ReceivedFrame(samples=crandn(rng, 4, 8), domain="frequency")
        with pytest.raises(SingularMatrixError, match="bin 5"):
            detect_frame(rf, BinChannel(a=a), 0.0, DetectorKind.HIGH_SNR_ZF)

    @pytest.mark.parametrize(
        "kind",
        [DetectorKind.MMSE, DetectorKind.MRC_MMSE, DetectorKind.TR_MRC, DetectorKind.LOW_SNR],
    )
    def test_zero_power_column_error_names_the_bin(self, rng, kind):
        from fdmud.channel import BinChannel

        a = np.tile(crandn(rng, 4, 2), (8, 1, 1))
        a[3, :, 0] = 0.0
        rf = ReceivedFrame(samples=crandn(rng, 4, 8), domain="frequency")
        with pytest.raises(DegenerateScaleError, match="bin 3"):
            detect_frame(rf, BinChannel(a=a), 0.1, kind)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", list(DetectorKind))
    def test_non_finite_sample_rejected_naming_the_bin(self, rng, kind, value):
        from fdmud.channel import BinChannel

        y = crandn(rng, 4, 8)
        y[2, 5] = value
        rf = ReceivedFrame(samples=y, domain="frequency")
        with pytest.raises(ValueError, match=r"^bin 5: received samples must be finite"):
            detect_frame(rf, BinChannel(a=crandn(rng, 8, 4, 2)), 0.1, kind)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", list(DetectorKind))
    def test_non_finite_channel_rejected_naming_the_bin(self, rng, kind, value):
        from fdmud.channel import BinChannel

        a = crandn(rng, 8, 4, 2)
        a[5, 2, 1] = value
        rf = ReceivedFrame(samples=crandn(rng, 4, 8), domain="frequency")
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=r"^bin 5: ") as info:
            detect_frame(rf, BinChannel(a=a), 0.1, kind)
        assert not isinstance(info.value, DegenerateScaleError)

    # Each K x K kind from the received frame and from its statistics; the
    # direct precoder forms the downlink Gram A^T A^* under the same check.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "kind, value, route",
        [
            pytest.param(kind, value, route, id=f"{kind}-{value}-{route}")
            for kind in K_BY_K
            for value in (np.nan, np.inf)
            for route in ("frame", "statistics")
        ]
        + [pytest.param(None, np.nan, "precode", id="precode-nan")],
    )
    def test_non_finite_channel_named_as_the_channel(self, rng, kind, value, route):
        a = crandn(rng, 32, 8, 3)
        a[5, 2, 1] = value
        bins = BinChannel(a=a)
        rf = ReceivedFrame(samples=crandn(rng, 8, 32), domain="frequency")
        with pytest.raises(ValueError, match=r"^bin 5: channel entries must be finite$"):
            if route == "precode":
                precode_frame(SymbolFrame(symbols=crandn(rng, 3, 32)), bins, 0.1)
            else:
                detect_frame(frame_statistics(rf, bins) if route == "statistics" else rf, bins, 0.1, kind)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "kind, route",
        [
            pytest.param(kind, route, id=f"{kind}-{route}")
            for kind in K_BY_K
            for route in ("frame", "statistics")
        ]
        + [pytest.param(None, "precode", id="precode")],
    )
    def test_finite_channel_whose_gram_overflows(self, rng, kind, route):
        a = crandn(rng, 32, 8, 3)
        a[5] *= 1e160  # finite entries; their squares are not
        bins = BinChannel(a=a)
        rf = ReceivedFrame(samples=crandn(rng, 8, 32), domain="frequency")
        with pytest.raises(ValueError, match=r"^bin 5: the channel's A\^H A overflows$"):
            if route == "precode":
                precode_frame(SymbolFrame(symbols=crandn(rng, 3, 32)), bins, 0.1)
            else:
                detect_frame(frame_statistics(rf, bins) if route == "statistics" else rf, bins, 0.1, kind)

    @pytest.mark.filterwarnings("error")
    def test_finite_channel_whose_gram_overflows_in_the_reference(self, rng):
        a = crandn(rng, 32, 8, 3)
        a[5] *= 1e160
        rf = ReceivedFrame(samples=crandn(rng, 8, 32), domain="frequency")
        with pytest.raises(ValueError, match=r"^bin 5: the channel's A\^H A overflows$"):
            detect_frame(rf, BinChannel(a=a), 0.1, DetectorKind.MMSE)

    def test_statistics_checked_against_the_channel(self, rng):
        bins = BinChannel(a=crandn(rng, 8, 4, 2))
        rf = ReceivedFrame(samples=crandn(rng, 4, 8), domain="frequency")
        matched = frame_statistics(rf, bins)
        with pytest.raises(ValueError, match="do not match bin channels"):
            detect_frame(matched, BinChannel(a=bins.a[:7]), 0.1, DetectorKind.MRC_MMSE)
        short = _Matched(gram=matched.gram, matched=matched.matched[:7])
        with pytest.raises(ValueError, match="do not match bin channels"):
            detect_frame(short, bins, 0.1, DetectorKind.TR_MRC)
        with pytest.raises(ValueError, match="needs the received frame"):
            detect_frame(matched, bins, 0.1, DetectorKind.MMSE)

    def test_mrc_mmse_from_the_frame_holds_one_k_by_k_stack(self, rng):
        # The inverse cache takes the buffer of the frame's own Gram, so at
        # 64 x 14 x 2048 the call holds one (N, K, K) stack, 6.4 MB, beside
        # chunk-sized work: 9.2 MB in all.  A whole Gram beside a separate
        # cache peaks at 18.7 MB.
        bins = BinChannel(a=crandn(rng, 2048, 64, 14))
        rf = ReceivedFrame(samples=crandn(rng, 64, 2048), domain="frequency")
        detect_frame(rf, bins, 0.1, DetectorKind.MRC_MMSE)  # one-time allocations out of the way
        tracemalloc.start()
        try:
            result = detect_frame(rf, bins, 0.1, DetectorKind.MRC_MMSE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * result.cache.inv.nbytes

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_gain_named_apart_from_a_vanishing_one(self, value):
        gain = np.ones((4, 3))
        gain[2, 1] = value
        gain[3, 0] = 0.0  # a later vanishing gain does not mask the first bad one
        with pytest.raises(ValueError, match=r"^bin 2: user 1 has a non-finite unbiasing gain") as info:
            _unbias(gain)
        assert not isinstance(info.value, DegenerateScaleError)

    def test_zero_sigma_rejected_for_mmse_kinds(self):
        _, bins, fc, _, rf = small_scenario(seed=2)
        for kind in (DetectorKind.MMSE, DetectorKind.MRC_MMSE):
            for sigma_w2 in (0.0, np.inf, np.nan):
                with pytest.raises(ValueError, match=rf"positive and finite, got {sigma_w2}; .*HIGH_SNR_ZF"):
                    detect_frame(rf, bins, sigma_w2, kind)
