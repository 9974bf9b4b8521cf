import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fdmud import detect, harness, numerics
from fdmud.channel import ChannelConfig, draw_channel, to_bin_channels
from fdmud.detect import DetectionResult, DetectorKind
from fdmud.frame import FrameConfig, SymbolFrame
from fdmud.harness import (
    SCENARIO_TABLE,
    ScenarioConfig,
    build_scenario,
    complexity_sweep,
    count_mults_mmse,
    count_mults_mrcmmse,
    measure_sinr,
    run_monte_carlo,
    theoretical_gains,
)
from fdmud.numerics import DegenerateScaleError

from conftest import edit_sweep_statistics, frame_statistics, kill_column


def conditional_error(kind, gram, sigma_w2):
    """Per-bin, per-user error variance of ``kind``'s unbiased estimate, given G = A^H A.

    Unit-power symbols and noise of variance ``sigma_w2`` per antenna: MRC-MMSE
    errs by (1 - d) / d with d = 1 - sigma^2 [(G + sigma^2 I)^-1]_kk, ZF by
    sigma^2 [G^-1]_kk, and TR-MRC by (sum_{j != k} |G_kj|^2 + sigma^2 G_kk) / G_kk^2.
    """
    diag = np.diagonal(gram, axis1=1, axis2=2).real
    if kind is DetectorKind.HIGH_SNR_ZF:
        return sigma_w2 * np.diagonal(np.linalg.inv(gram), axis1=1, axis2=2).real
    if kind is DetectorKind.TR_MRC:
        cross = np.sum(np.abs(gram) ** 2, axis=2) - diag**2
        return (cross + sigma_w2 * diag) / diag**2
    inv = np.linalg.inv(gram + sigma_w2 * np.eye(gram.shape[-1]))
    d = 1.0 - sigma_w2 * np.diagonal(inv, axis1=1, axis2=2).real
    return (1.0 - d) / d


def itemized_mmse(m, k):
    """The six per-bin operations of the M x M formulation, summed directly."""
    return sum([k * m * m, m**3, k * m * m, k * m, k * m, k])


def itemized_mrcmmse(m, k):
    return sum([k * k * m, k**3, k * k * m, k * m, k * m, k])


class TestComplexityCounts:
    def test_unit_size(self):
        assert count_mults_mmse(1, 1) == 6
        assert count_mults_mrcmmse(1, 1) == 6

    def test_reference_point(self):
        assert count_mults_mmse(64, 14) == 378638
        assert count_mults_mrcmmse(64, 14) == 29638

    def test_reference_point_matches_itemized_sum(self):
        assert itemized_mmse(64, 14) == 378638
        assert itemized_mrcmmse(64, 14) == 29638

    def test_closed_form_equals_itemized_sum_exhaustively(self):
        for m in range(1, 129):
            for k in range(1, m + 1):
                assert count_mults_mmse(m, k) == itemized_mmse(m, k)
                assert count_mults_mrcmmse(m, k) == itemized_mrcmmse(m, k)

    def test_ratio_large_when_many_antennas(self):
        assert count_mults_mmse(128, 8) / count_mults_mrcmmse(128, 8) > 10

    def test_counts_coincide_when_square(self):
        # the two formulations cost the same once K == M, so the cheaper-or-
        # equal relation holds for every M >= K
        for size in (1, 7, 64):
            assert count_mults_mmse(size, size) == count_mults_mrcmmse(size, size)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            count_mults_mmse(0, 1)
        with pytest.raises(ValueError):
            count_mults_mrcmmse(1, 0)


class TestComplexitySweep:
    def test_reference_grid_shape(self):
        report = complexity_sweep([32, 64, 128], 30)
        assert len(report.rows) == 90

    def test_mrcmmse_cheaper_everywhere(self):
        for m, k, mmse, mrcmmse in complexity_sweep([32, 64, 128], 30).rows:
            assert m > k
            assert mmse > mrcmmse

    def test_single_row_matches_counts(self):
        ((m, k, mmse, mrcmmse),) = complexity_sweep([2], 1).rows
        assert (m, k) == (2, 1)
        assert mmse == count_mults_mmse(2, 1)
        assert mrcmmse == count_mults_mrcmmse(2, 1)

    def test_k_capped_by_antenna_count(self):
        rows = complexity_sweep([4], 30).rows
        assert [r[1] for r in rows] == [1, 2, 3]

    def test_csv_format(self):
        lines = complexity_sweep([4], 2).to_csv().strip().splitlines()
        assert lines[0] == "M,K,mults_mmse,mults_mrcmmse"
        assert len(lines) == 3

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            complexity_sweep([], 3)
        with pytest.raises(ValueError):
            complexity_sweep([4], 0)
        with pytest.raises(ValueError, match=r"^k_max must be an integer, got 2\.5$"):
            complexity_sweep([4], 2.5)
        with pytest.raises(ValueError, match=r"^k_max must be an integer, got True$"):
            complexity_sweep([4], True)
        for m_list, bad in (([1], 1), ([0, -5, 3], 0), ([4, -5], -5)):
            with pytest.raises(ValueError, match=rf"at least 2 to serve one user, got {bad}$"):
                complexity_sweep(m_list, 3)
        with pytest.raises(ValueError, match=r"^each M in m_list must be an integer, got 4\.5 at item 1$"):
            complexity_sweep([4, 4.5], 3)
        with pytest.raises(ValueError, match=r"^M=4 is repeated in m_list, at item 2$"):
            complexity_sweep([4, 8, 4], 3)


class TestMeasureSinr:
    def _result(self, estimates):
        return DetectionResult(s_hat_time=estimates, kind=DetectorKind.MMSE)

    def test_exact_estimate_gives_inf_sentinel(self, rng):
        truth = SymbolFrame(symbols=(rng.standard_normal((2, 8)) + 0j))
        with pytest.warns(UserWarning, match="zero error power"):
            sinr = measure_sinr(self._result(truth.symbols.copy()), truth)
        assert np.all(np.isinf(sinr))

    def test_constructed_error_power(self, rng):
        n = 100_000
        truth = SymbolFrame(symbols=np.zeros((1, n), dtype=complex))
        err = np.sqrt(0.1 / 2) * (rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n)))
        sinr = measure_sinr(self._result(truth.symbols + err), truth)
        assert sinr[0] == pytest.approx(10.0, rel=0.05)

    @pytest.mark.parametrize("shape", [(1, 16), (4, 1), (16, 4)])
    def test_estimate_of_another_shape_rejected(self, shape):
        # (1, N) and (K, 1) would broadcast against the (K, N) truth
        truth = SymbolFrame(symbols=np.zeros((4, 16), dtype=complex))
        estimate = np.full(shape, 0.1 + 0j)
        message = f"estimate shape {shape} does not match truth shape (4, 16)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            measure_sinr(self._result(estimate), truth)

    def test_single_user_flat_channel_hits_array_gain_bound(self):
        # matched-filter bound: measured SINR ~= M / sigma_w2 within 0.5 dB
        m_ant, snr_db = 8, 10.0
        channel = ChannelConfig(
            num_antennas=m_ant,
            num_users=1,
            frame_len=2048,
            channel_len=1,
            decay_samples=1.0,
            seed=42,
        )
        fc = FrameConfig(frame_len=2048, cp_len=4, snr_db=snr_db)
        cfg = ScenarioConfig(
            channel=channel,
            frame=fc,
            detectors=(DetectorKind.MRC_MMSE,),
            snr_sweep_db=(snr_db,),
            frames_per_point=3,
        )
        report = run_monte_carlo(cfg)
        expected_db = 10 * np.log10(m_ant / fc.sigma_w2)
        assert report.rows[0].mean_output_sinr_db == pytest.approx(expected_db, abs=0.5)


class TestTheoreticalGains:
    def test_reference_scenario(self):
        low, high = theoretical_gains(64, 14)
        assert (low, high) == (64.0, 50.0)
        assert 10 * np.log10(low) == pytest.approx(18.0618, abs=1e-3)
        assert 10 * np.log10(high) == pytest.approx(16.9897, abs=1e-3)

    def test_single_user(self):
        assert theoretical_gains(16, 1) == (16.0, 15.0)

    def test_high_below_low(self):
        for m, k in [(4, 1), (64, 14), (128, 30)]:
            low, high = theoretical_gains(m, k)
            assert high < low

    def test_requires_more_antennas_than_users(self):
        with pytest.raises(ValueError):
            theoretical_gains(4, 4)


def tiny_scenario(**overrides):
    channel = ChannelConfig(
        num_antennas=4,
        num_users=2,
        frame_len=32,
        channel_len=3,
        decay_samples=2.0,
        seed=5,
    )
    fc = FrameConfig(frame_len=32, cp_len=4)
    base = dict(
        channel=channel,
        frame=fc,
        detectors=(DetectorKind.MRC_MMSE, DetectorKind.TR_MRC),
        snr_sweep_db=(-10.0, 0.0),
        frames_per_point=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestRunMonteCarlo:
    def test_report_structure(self):
        cfg = tiny_scenario()
        report = run_monte_carlo(cfg)
        assert len(report.rows) == 4  # 2 sweep points x 2 detectors
        for row in report.rows:
            assert row.n_frames == 3
            assert row.n_failures == 0
            assert row.gain_db == pytest.approx(row.mean_output_sinr_db - row.input_snr_db)
            assert row.gain_low_db == pytest.approx(10 * np.log10(4))
            assert row.gain_high_db == pytest.approx(10 * np.log10(2))

    def test_holds_one_frame_at_a_time(self, monkeypatch):
        # Small chunks keep each stage's temporaries below a frame's arrays,
        # so a frame still held while the next is built would raise the peak.
        monkeypatch.setattr(numerics, "_MIN_CHUNK", 1024)
        channel = ChannelConfig(
            num_antennas=16, num_users=4, frame_len=256, channel_len=8, decay_samples=3.0, seed=3
        )

        def peak_bytes(frames):
            cfg = tiny_scenario(
                channel=channel,
                frame=FrameConfig(frame_len=256, cp_len=9),
                snr_sweep_db=(0.0,),
                frames_per_point=frames,
            )
            tracemalloc.start()
            try:
                run_monte_carlo(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(1)  # one-time allocations out of the way
        assert peak_bytes(3) <= 1.03 * peak_bytes(1)

    def test_deterministic_csv(self):
        assert run_monte_carlo(tiny_scenario()).to_csv() == run_monte_carlo(tiny_scenario()).to_csv()

    def test_csv_columns(self):
        text = run_monte_carlo(tiny_scenario()).to_csv()
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == [
            "input_snr_db",
            "detector",
            "mean_output_sinr_db",
            "gain_db",
            "gain_low_db",
            "gain_high_db",
            "n_frames",
            "n_failures",
        ]
        assert len(lines) == 1 + 4
        assert all(line.endswith(",3,0") for line in lines[1:])

    def test_degenerate_frame_counted_not_raised(self, monkeypatch):
        # a zero-power column fails TR-MRC on every frame; the sweep goes on
        original = harness.detect_frame

        def detect_frame(rf, bins, sigma_w2, kind):
            if kind is DetectorKind.TR_MRC:
                raise DegenerateScaleError("bin 0: zero-power channel column")
            return original(rf, bins, sigma_w2, kind)

        monkeypatch.setattr(harness, "detect_frame", detect_frame)
        report = run_monte_carlo(tiny_scenario())
        for row in report.rows:
            if row.detector is DetectorKind.TR_MRC:
                assert (row.n_frames, row.n_failures) == (0, 3)
                assert np.isnan(row.mean_output_sinr_db)
            else:
                assert (row.n_frames, row.n_failures) == (3, 0)
        lines = [l for l in report.to_csv().splitlines() if not l.startswith("#")]
        assert sorted(l.split(",")[-1] for l in lines[1:]) == ["0", "0", "3", "3"]

    def test_partly_failing_detector_averages_its_detected_frames(self, monkeypatch):
        # TR-MRC fails on every second of its six frames: 2 of 3 are detected
        # at the first point and 1 of 3 at the second
        original_detect, original_sinr = harness.detect_frame, harness.measure_sinr
        tr_mrc_calls = []
        detected = {kind: [] for kind in DetectorKind}

        def detect_frame(rf, bins, sigma_w2, kind):
            if kind is DetectorKind.TR_MRC:
                tr_mrc_calls.append(kind)
                if len(tr_mrc_calls) % 2 == 0:
                    raise DegenerateScaleError("bin 0: zero-power channel column")
            return original_detect(rf, bins, sigma_w2, kind)

        def measure_sinr(result, truth):
            sinr = original_sinr(result, truth)
            detected[result.kind].append(sinr)
            return sinr

        monkeypatch.setattr(harness, "detect_frame", detect_frame)
        monkeypatch.setattr(harness, "measure_sinr", measure_sinr)
        report = run_monte_carlo(tiny_scenario())
        expected = {DetectorKind.TR_MRC: [(2, 1), (1, 2)], DetectorKind.MRC_MMSE: [(3, 0), (3, 0)]}
        for kind, counts in expected.items():
            rows = [row for row in report.rows if row.detector is kind]
            assert [(row.n_frames, row.n_failures) for row in rows] == counts
            first = counts[0][0]
            for row, frames in zip(rows, (detected[kind][:first], detected[kind][first:])):
                mean_db = 10.0 * np.log10(np.concatenate(frames).mean())
                assert row.mean_output_sinr_db == pytest.approx(mean_db, rel=1e-12)

    def test_zero_power_column_counts_as_mrc_mmse_failure(self, monkeypatch, recwarn):
        # a dead user column at bin 3 fails MRC-MMSE on every frame instead
        # of feeding a nan SINR into the average
        edit_sweep_statistics(monkeypatch, lambda g, z: kill_column(g, z, 3, 0))
        report = run_monte_carlo(tiny_scenario(detectors=(DetectorKind.MRC_MMSE,)))
        for row in report.rows:
            assert (row.n_frames, row.n_failures) == (0, 3)
        assert not [w for w in recwarn if "SINR" in str(w.message)]

    def test_gram_formed_once_per_frame(self, monkeypatch):
        formed = []
        original = harness._lag_gram

        def spy(lags, length, n_bins):
            formed.append(n_bins)
            return original(lags, length, n_bins)

        def from_a(a, y):
            raise AssertionError("the sweep formed A^H A from A")

        monkeypatch.setattr(harness, "_lag_gram", spy)
        monkeypatch.setattr(detect, "_gram_and_matched", from_a)
        report = run_monte_carlo(tiny_scenario(detectors=tuple(DetectorKind)))
        assert all(row.n_failures == 0 for row in report.rows)
        # 2 sweep points x 3 frames of 32 bins, each bin formed once for all
        # four K x K kinds
        assert sum(formed) == 6 * 32

    def test_statistics_are_those_of_the_reference_frame(self, monkeypatch):
        # A^H A and A^H y = G s + A^H w, formed from the taps and the noise
        # over two blocks of antennas, against the products over the bins of
        # the frame that transmit sends with the same noise for the M x M kind.
        seen = {}
        original = harness.detect_frame

        def detect_frame(rf, bins, sigma_w2, kind):
            seen[kind] = rf, bins
            return original(rf, bins, sigma_w2, kind)

        monkeypatch.setattr(harness, "detect_frame", detect_frame)
        channel = ChannelConfig(
            num_antennas=20, num_users=3, frame_len=64, channel_len=5, decay_samples=2.0, seed=9
        )
        run_monte_carlo(
            tiny_scenario(
                channel=channel,
                frame=FrameConfig(frame_len=64, cp_len=6),
                detectors=(DetectorKind.MMSE, DetectorKind.MRC_MMSE),
                snr_sweep_db=(0.0,),
                frames_per_point=1,
            )
        )
        statistics, _ = seen[DetectorKind.MRC_MMSE]
        expected = frame_statistics(*seen[DetectorKind.MMSE])
        for got, want in ((statistics.gram, expected.gram), (statistics.matched, expected.matched)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("reference", [False, True], ids=["k-by-k", "with-mmse"])
    def test_builds_the_bin_channels_only_for_the_reference(self, monkeypatch, reference):
        built, channels = [], []
        for name in ("to_bin_channels", "transmit"):
            original = getattr(harness, name)

            def spy(*args, _name=name, _original=original):
                built.append(_name)
                return _original(*args)

            monkeypatch.setattr(harness, name, spy)
        original_detect = harness.detect_frame

        def detect_frame(rf, bins, sigma_w2, kind):
            channels.append(bins.a)
            return original_detect(rf, bins, sigma_w2, kind)

        monkeypatch.setattr(harness, "detect_frame", detect_frame)
        kinds = (DetectorKind.MRC_MMSE, DetectorKind.TR_MRC)
        if reference:
            kinds += (DetectorKind.MMSE,)
        report = run_monte_carlo(tiny_scenario(detectors=kinds, frames_per_point=1))
        assert all(row.n_frames == 1 for row in report.rows)
        assert built == ["to_bin_channels", "transmit"] * 2 * reference
        assert all(a.shape == (32, 4, 2) for a in channels)
        # Without the reference, detection sees a read-only, zero-stride view.
        shape_only = [a.strides == (0, 0, 0) and not a.flags.writeable for a in channels]
        assert shape_only == [not reference] * len(channels)

    def test_builds_no_inverse_cache(self, monkeypatch):
        # The sweep never precodes, so MRC-MMSE keeps no (N, K, K) inverses.
        built = []
        original = detect.InverseCache

        def spy(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(detect, "InverseCache", spy)
        cfg = tiny_scenario()
        assert DetectorKind.MRC_MMSE in cfg.detectors
        report = run_monte_carlo(cfg)
        assert all(row.n_frames == 3 for row in report.rows)
        assert built == []

    def test_equal_columns_fail_only_zero_forcing(self, monkeypatch):
        # Two all-ones columns at bin 3 give the exactly singular Gram
        # 4 * ones((2, 2)) and equal matched outputs; adding sigma_w2 I or
        # taking its diagonal is fine.
        def equal_columns(gram, matched):
            gram[3] = 4.0
            matched[3] = matched[3, 0]

        edit_sweep_statistics(monkeypatch, equal_columns)
        kinds = (DetectorKind.MRC_MMSE, DetectorKind.TR_MRC, DetectorKind.HIGH_SNR_ZF)
        report = run_monte_carlo(
            tiny_scenario(detectors=kinds, snr_sweep_db=(0.0,), frames_per_point=1)
        )
        counts = {row.detector: (row.n_frames, row.n_failures) for row in report.rows}
        assert counts == {
            DetectorKind.MRC_MMSE: (1, 0),
            DetectorKind.TR_MRC: (1, 0),
            DetectorKind.HIGH_SNR_ZF: (0, 1),
        }

    def test_mmse_and_mrcmmse_rows_indistinguishable(self):
        cfg = tiny_scenario(detectors=(DetectorKind.MMSE, DetectorKind.MRC_MMSE))
        report = run_monte_carlo(cfg)
        by_kind = {}
        for row in report.rows:
            by_kind.setdefault(row.detector, []).append(row.mean_output_sinr_db)
        for a, b in zip(by_kind[DetectorKind.MMSE], by_kind[DetectorKind.MRC_MMSE]):
            assert a == pytest.approx(b, rel=1e-6)  # >= 6 significant figures

    @pytest.mark.parametrize(
        "kind", [DetectorKind.MRC_MMSE, DetectorKind.HIGH_SNR_ZF, DetectorKind.TR_MRC]
    )
    def test_kxk_rows_match_the_conditional_sinr_of_their_channels(self, kind):
        # Given a frame's channel, user k's unbiased estimate at bin n errs
        # with the variance e_kn of conditional_error.  The unitary IDFT
        # keeps the mean over bins, so the user's conditional SINR is
        # 1 / mean_n(e_kn); a row averages it over users and frames, as the
        # sweep averages the measured SINR.  One oracle for the noise
        # scaling, the statistics, the unbiasing and measure_sinr together.
        #
        # The bound, derived: each bin's error is close to complex Gaussian
        # (the DFT of N symbols, plus noise), so a user's measured error
        # power, a mean over N bins, has a relative standard deviation of
        # about 1 / sqrt(N), and a row, a mean over K users and F frames,
        # about 1 / sqrt(N K F): 10 / ln(10) = 4.34 dB / sqrt(N K F).  The
        # reciprocal of a mean adds a bias of about 1 / N relative, 4.34 dB
        # / N.  A row may differ by that bias plus five standard errors,
        # 0.017 + 0.240 dB here; a correct sweep exceeds five standard
        # errors about once in two million rows.
        m_ant, k_usr, n_bins, frames = 16, 4, 256, 8
        cfg = ScenarioConfig(
            channel=ChannelConfig(
                num_antennas=m_ant,
                num_users=k_usr,
                frame_len=n_bins,
                channel_len=16,
                decay_samples=4.0,
                seed=11,
            ),
            frame=FrameConfig(frame_len=n_bins, cp_len=32),
            detectors=(kind,),
            snr_sweep_db=(-10.0, 0.0, 10.0),
            frames_per_point=frames,
        )
        db = 10.0 / np.log(10.0)
        bound = db / n_bins + 5.0 * db / np.sqrt(n_bins * k_usr * frames)
        report = run_monte_carlo(cfg)
        assert len(report.rows) == len(cfg.snr_sweep_db)
        for p_idx, row in enumerate(report.rows):
            assert (row.n_frames, row.n_failures) == (frames, 0)
            sigma_w2 = replace(cfg.frame, snr_db=row.input_snr_db).sigma_w2
            sinr = []
            for f_idx in range(frames):
                seed = harness._stream_seed(cfg.channel.seed, p_idx, f_idx, 0)
                a = to_bin_channels(draw_channel(replace(cfg.channel, seed=seed))).a
                gram = a.conj().transpose(0, 2, 1) @ a
                sinr.append(1.0 / np.mean(conditional_error(kind, gram, sigma_w2), axis=0))
            expected_db = 10.0 * np.log10(np.mean(sinr)) - row.input_snr_db
            assert abs(row.gain_db - expected_db) <= bound, (row.input_snr_db, row.gain_db, expected_db)

    # Each rejected where the scenario is built, before a frame is drawn.
    @pytest.mark.parametrize("overrides, message", [
        (dict(frames_per_point=0), r"^frames_per_point must be at least 1$"),
        (dict(frames_per_point=2.5), r"^frames_per_point must be an integer, got 2\.5$"),
        (dict(frames_per_point=True), r"^frames_per_point must be an integer, got True$"),
        (dict(snr_sweep_db=()), r"^snr_sweep_db must be nonempty$"),
        (dict(detectors=()), r"^at least one detector kind is required$"),
        (dict(detectors=(DetectorKind.TR_MRC, "mrc_mmse")),
         r"^detector 1 is not a DetectorKind: 'mrc_mmse'$"),
    ])
    def test_validation(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            tiny_scenario(**overrides)

    def test_repeated_detector_kind_rejected(self):
        kinds = (DetectorKind.MRC_MMSE, DetectorKind.TR_MRC, DetectorKind.MRC_MMSE)
        with pytest.raises(ValueError, match=r"^detector kind 'mrc_mmse' is repeated$"):
            tiny_scenario(detectors=kinds)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sweep_point_rejected(self, bad):
        with pytest.raises(ValueError, match=r"point 1 \((nan|inf|-inf) dB\)"):
            tiny_scenario(snr_sweep_db=(0.0, bad))

    # The SNRs closest to 0 dB whose noise variance 10**(-snr/10) underflows
    # to 0 and overflows; the next float towards 0 dB is accepted.
    @pytest.mark.parametrize("snr_db", [3236.0724533877983, -3082.5471555991676])
    def test_sweep_point_with_unusable_noise_variance_rejected(self, snr_db):
        tiny_scenario(snr_sweep_db=(0.0, float(np.nextafter(snr_db, 0.0))))
        with pytest.raises(
            ValueError, match=rf"^SNR sweep point 1 \({snr_db} dB\) gives no positive finite noise"
        ):
            tiny_scenario(snr_sweep_db=(0.0, snr_db))

    def test_mismatched_frame_lengths_rejected(self):
        # caught where the scenario is built, before any channel is drawn
        short = FrameConfig(frame_len=8, cp_len=4)
        with pytest.raises(ValueError, match=r"channel frame_len 32 .* frame frame_len 8"):
            tiny_scenario(frame=short)

    def test_short_cyclic_prefix_rejected_before_drawing(self, monkeypatch):
        # the sweep's tap statistics assume the channel circulant, which only
        # a long enough prefix justifies; transmit would see it only after a draw
        def no_draw(config):
            raise AssertionError("drew a channel for an invalid scenario")

        monkeypatch.setattr(harness, "draw_channel", no_draw)
        with pytest.raises(ValueError, match=r"cyclic prefix too short: .* L=3, cp=3"):
            tiny_scenario(frame=FrameConfig(frame_len=32, cp_len=3))

    def test_csv_header_names_the_rng_layout(self):
        lines = run_monte_carlo(tiny_scenario()).to_csv().splitlines()
        assert lines[1] == f"# rng_layout={harness.RNG_LAYOUT}"

    def test_field_defaults_are_the_table_defaults(self):
        table = build_scenario({key: row[0] for key, row in SCENARIO_TABLE.items()})
        bare = ScenarioConfig(channel=table.channel, frame=table.frame)
        assert bare.detectors == table.detectors
        assert bare.snr_sweep_db == table.snr_sweep_db
        assert bare.frames_per_point == table.frames_per_point
        channel = ChannelConfig(
            num_antennas=2, num_users=1, frame_len=8, channel_len=1, decay_samples=1.0
        )
        assert channel.power_spread == table.channel.power_spread
        assert FrameConfig(frame_len=8, cp_len=2).constellation == table.frame.constellation
