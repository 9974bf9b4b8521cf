"""Acceptance suite: every exit criterion at its stated tolerance.

Each numbered test prints one PASS line once its assertions hold, so a
verbose run doubles as the acceptance report.  The ``verify`` checks take only
a seed; their tolerances are pinned by value in
``test_verify_tolerances_pinned`` and their trial and bin counts are asserted
from each detail line.  The Monte-Carlo sweep (criteria 5 and 9) runs once
per session and is shared.
"""

import numpy as np
import pytest

from fdmud.channel import ChannelConfig, draw_channel, to_bin_channels
from fdmud.detect import DetectorKind, detect_frame
from fdmud.frame import FrameConfig, generate_symbols, to_frequency_domain, transmit
from fdmud.harness import (
    ScenarioConfig,
    complexity_sweep,
    count_mults_mmse,
    count_mults_mrcmmse,
    run_monte_carlo,
)
from fdmud.verify import (
    TOLERANCES,
    check_cache_conjugate_reuse,
    check_cp_circularity,
    check_detector_equivalence,
    check_noise_gain_trace,
    check_precoder_forms_agree,
    check_precoder_zf_limit,
    check_pushthrough_identity,
    check_unbias_coefficients_match,
)

GAIN_LOW_DB = 10 * np.log10(64)  # 18.0618
GAIN_HIGH_DB = 10 * np.log10(50)  # 16.9897


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


@pytest.fixture(scope="module")
def reference_sweep():
    """Desk-scale reproduction sweep: M=64, K=14, N=2048, 20 frames/point."""
    channel = ChannelConfig(
        num_antennas=64,
        num_users=14,
        frame_len=2048,
        channel_len=130,
        decay_samples=25.0,
        power_spread=(0.1, 1.9),
        seed=1,
    )
    frame = FrameConfig(frame_len=2048, cp_len=144, constellation="qpsk")
    cfg = ScenarioConfig(
        channel=channel,
        frame=frame,
        detectors=(DetectorKind.MRC_MMSE, DetectorKind.TR_MRC),
        snr_sweep_db=(-30.0, -7.0, 0.0, 10.0),
        frames_per_point=20,
    )
    report_obj = run_monte_carlo(cfg)
    return {(row.detector, row.input_snr_db): row for row in report_obj.rows}


def test_criterion_1_detector_equivalence():
    result = check_detector_equivalence(seed=101)
    assert result.passed, result.detail
    assert "over 1000 trials" in result.detail
    report(1, result.detail)


def test_criterion_2_matrix_identity_and_unbias_match():
    identity = check_pushthrough_identity(seed=102)
    assert identity.passed, identity.detail
    assert "over 100 trials" in identity.detail
    coeffs = check_unbias_coefficients_match(seed=103)
    assert coeffs.passed, coeffs.detail
    assert "over 100 trials" in coeffs.detail
    report(2, f"{identity.detail}; {coeffs.detail}")


def test_criterion_3_block_oracle_equivalence():
    # dense time-domain joint MMSE over the stacked block system, solved with
    # plain LU routines and no transform anywhere, against the per-bin path
    frame_len, l_h, l_cp, m_ant, k_usr = 16, 4, 5, 4, 2
    sigma_w2 = 0.5
    cfg = ChannelConfig(
        num_antennas=m_ant,
        num_users=k_usr,
        frame_len=frame_len,
        channel_len=l_h,
        decay_samples=3.0,
        seed=104,
    )
    ch = draw_channel(cfg)
    fc = FrameConfig(frame_len=frame_len, cp_len=l_cp, snr_db=-10 * np.log10(sigma_w2))
    assert fc.sigma_w2 == pytest.approx(sigma_w2, rel=1e-12)
    rng = np.random.default_rng(105)
    sf = generate_symbols(k_usr, frame_len, "qpsk", rng)
    received = transmit(sf, ch, fc, rng)

    # per-bin frequency-domain detection
    fd_result = detect_frame(
        to_frequency_domain(received), to_bin_channels(ch), sigma_w2, DetectorKind.MMSE
    )

    # stacked dense system: block (m, k) is the circulant of taps[m, k]
    blocks = np.zeros((m_ant * frame_len, k_usr * frame_len), dtype=complex)
    for m in range(m_ant):
        for k in range(k_usr):
            first_col = np.zeros(frame_len, dtype=complex)
            first_col[:l_h] = ch.taps[m, k]
            for j in range(frame_len):
                blocks[m * frame_len : (m + 1) * frame_len, k * frame_len + j] = np.roll(
                    first_col, j
                )
    y_stacked = received.samples.reshape(-1)
    normal = blocks.conj().T @ blocks + sigma_w2 * np.eye(k_usr * frame_len)
    filt = np.linalg.solve(normal, blocks.conj().T)
    raw = filt @ y_stacked
    end_to_end = filt @ blocks
    # unbiasing: normalize each user's end-to-end self-response to identity
    oracle = np.zeros((k_usr, frame_len), dtype=complex)
    for k in range(k_usr):
        rows = slice(k * frame_len, (k + 1) * frame_len)
        oracle[k] = np.linalg.solve(end_to_end[rows, rows], raw[rows])

    worst = np.abs(fd_result.s_hat_time - oracle).max()
    assert worst <= 1e-8
    report(3, f"max |per-bin FD MMSE - dense block MMSE| = {worst:.3e} (tol 1e-8)")


def test_criterion_4_complexity_counts(tmp_path):
    assert count_mults_mmse(64, 14) == 378638
    assert count_mults_mrcmmse(64, 14) == 29638
    # independently summed itemized operation lists
    m, k = 64, 14
    assert sum([k * m * m, m**3, k * m * m, k * m, k * m, k]) == count_mults_mmse(m, k)
    assert sum([k * k * m, k**3, k * k * m, k * m, k * m, k]) == count_mults_mrcmmse(m, k)

    sweep = complexity_sweep([32, 64, 128], 30)
    assert len(sweep.rows) == 90
    for m, k, mmse, mrcmmse in sweep.rows:
        assert mmse == sum([k * m * m, m**3, k * m * m, k * m, k * m, k])
        assert mrcmmse == sum([k * k * m, k**3, k * k * m, k * m, k * m, k])
        assert mmse > mrcmmse
    path = tmp_path / "complexity.csv"
    sweep.to_csv(path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "M,K,mults_mmse,mults_mrcmmse"
    assert len(lines) == 91
    report(4, "counts 378638/29638 exact; 90-row grid regenerated, K x K form cheaper everywhere")


def test_criterion_5a_low_snr_gain(reference_sweep):
    row = reference_sweep[(DetectorKind.MRC_MMSE, -30.0)]
    assert row.gain_db == pytest.approx(GAIN_LOW_DB, abs=1.0)
    report(
        "5a", f"gain at -30 dB input = {row.gain_db:.2f} dB vs {GAIN_LOW_DB:.2f} dB (tol 1.0)"
    )


def test_criterion_5b_high_snr_gain(reference_sweep):
    row = reference_sweep[(DetectorKind.MRC_MMSE, 10.0)]
    assert row.gain_db == pytest.approx(GAIN_HIGH_DB, abs=1.0)
    report(
        "5b", f"gain at +10 dB input = {row.gain_db:.2f} dB vs {GAIN_HIGH_DB:.2f} dB (tol 1.0)"
    )


def test_criterion_5c_operating_point(reference_sweep):
    row = reference_sweep[(DetectorKind.MRC_MMSE, -7.0)]
    assert row.mean_output_sinr_db == pytest.approx(10.0, abs=1.0)
    report("5c", f"output SINR at -7 dB input = {row.mean_output_sinr_db:.2f} dB vs 10 dB (tol 1.0)")


def test_criterion_6_noise_gain_trace():
    result = check_noise_gain_trace(seed=106)
    assert result.passed, result.detail
    assert "vs expected 0.020000" in result.detail  # 1 / (64 - 14)
    report(6, result.detail)


def test_criterion_7_cp_property():
    result = check_cp_circularity(seed=107)
    assert result.passed, result.detail
    assert "at sizes (8, 16, 64)" in result.detail
    report(7, result.detail)


def test_criterion_8_precoder_reuse():
    reuse = check_cache_conjugate_reuse(seed=108)
    assert reuse.passed, reuse.detail
    assert "over 2048 bins" in reuse.detail
    forms = check_precoder_forms_agree(seed=109)
    assert forms.passed, forms.detail
    assert "over 100 trials" in forms.detail
    zf = check_precoder_zf_limit(seed=110)
    assert zf.passed, zf.detail
    assert "at sigma_w2=1e-10" in zf.detail
    report(8, f"{reuse.detail}; {forms.detail}; {zf.detail}")


def test_verify_tolerances_pinned():
    assert TOLERANCES == {
        "detector-equivalence": 1e-9,
        "pushthrough-identity": 1e-10,
        "unbias-coefficients-match": 1e-10,
        "end-to-end-unit-gain": 1e-10,
        "noise-gain-trace": 0.02,
        "cp-circularity": 1e-10,
        "precoder-forms-agree": 1e-10,
        "cache-conjugate-reuse": 1e-10,
        "precoder-zf-limit": 1e-5,
        "precode-frame-paths": 1e-10,
    }


def test_criterion_9_tr_mrc_separation(reference_sweep):
    combined = reference_sweep[(DetectorKind.MRC_MMSE, 10.0)]
    baseline = reference_sweep[(DetectorKind.TR_MRC, 10.0)]
    separation = combined.gain_db - baseline.gain_db
    assert separation >= 10.0
    report(9, f"TR-MRC gain sits {separation:.1f} dB below MRC-MMSE at +10 dB input (min 10)")


class TestSweepProperties:
    """Qualitative properties of the reference sweep (not numbered criteria)."""

    def test_mrc_mmse_gain_monotone_non_increasing(self, reference_sweep):
        gains = [
            reference_sweep[(DetectorKind.MRC_MMSE, snr)].gain_db
            for snr in (-30.0, -7.0, 0.0, 10.0)
        ]
        for earlier, later in zip(gains, gains[1:]):
            assert later <= earlier + 0.3  # statistical slack

    def test_mrc_mmse_gain_between_asymptotes(self, reference_sweep):
        for snr in (-30.0, -7.0, 0.0, 10.0):
            gain = reference_sweep[(DetectorKind.MRC_MMSE, snr)].gain_db
            assert GAIN_HIGH_DB - 1.0 <= gain <= GAIN_LOW_DB + 1.0

    def test_tr_mrc_saturates(self, reference_sweep):
        at_zero = reference_sweep[(DetectorKind.TR_MRC, 0.0)].mean_output_sinr_db
        at_ten = reference_sweep[(DetectorKind.TR_MRC, 10.0)].mean_output_sinr_db
        assert at_ten - at_zero < 0.5  # < 0.5 dB per 10 dB of input

    def test_mrc_mmse_keeps_tracking(self, reference_sweep):
        at_zero = reference_sweep[(DetectorKind.MRC_MMSE, 0.0)].mean_output_sinr_db
        at_ten = reference_sweep[(DetectorKind.MRC_MMSE, 10.0)].mean_output_sinr_db
        assert at_ten - at_zero > 9.0
