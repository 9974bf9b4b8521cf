"""Randomized identity and property checks behind the ``verify`` CLI commands.

Each check draws seeded random instances, evaluates one algebraic identity or
statistical property of the detectors/precoder, and reports the worst
deviation against its tolerance.  The same functions back the acceptance
test suite, which pins the tolerances explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelConfig, draw_channel, to_bin_channels
from .detect import DetectorKind, detect_frame, mmse_bin, mrc_bin, mrcmmse_bin
from .frame import FrameConfig, generate_symbols, to_frequency_domain, transmit
from .harness import SCENARIO_TABLE
from .numerics import diag_of_product, invert_hpd
from .precode import PowerAllocation, mmse_precode_bin, precode_frame

__all__ = [
    "CheckResult",
    "check_detector_equivalence",
    "check_pushthrough_identity",
    "check_unbias_coefficients_match",
    "check_end_to_end_unit_gain",
    "check_noise_gain_trace",
    "check_cp_circularity",
    "check_precoder_forms_agree",
    "check_cache_conjugate_reuse",
    "check_precoder_zf_limit",
    "check_precode_frame_paths",
    "run_detector_checks",
    "run_precoder_checks",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _crandn(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _max_rel_diff(x: np.ndarray, y: np.ndarray) -> float:
    """Largest element-wise difference relative to the pair's magnitude scale.

    Scaling per element instead would divide rounding noise (which is
    proportional to the vector scale) by arbitrarily small entries and report
    condition-number artifacts rather than disagreement between the routes.
    """
    scale = max(np.abs(x).max(), np.abs(y).max(), 1e-300)
    return float(np.abs(x - y).max() / scale)


def check_detector_equivalence(
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
    m_choices: tuple[int, ...] = (4, 16, 64),
    sigma2_range: tuple[float, float] = (1e-4, 1e2),
) -> CheckResult:
    """Per-bin MMSE and MRC-MMSE estimates agree element-wise."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    lo, hi = np.log10(sigma2_range[0]), np.log10(sigma2_range[1])
    for _ in range(trials):
        m = int(rng.choice(m_choices))
        k = int(rng.integers(1, m))
        sigma_w2 = float(10.0 ** rng.uniform(lo, hi))
        a = _crandn(rng, m, k)
        y = _crandn(rng, m)
        direct = mmse_bin(a, y, sigma_w2)
        via_mrc, _ = mrcmmse_bin(a, mrc_bin(a, y), sigma_w2)
        worst = max(worst, _max_rel_diff(direct, via_mrc))
    return CheckResult(
        name="detector-equivalence",
        passed=worst <= tol,
        detail=f"max relative difference {worst:.3e} over {trials} trials (tol {tol:g})",
    )


def check_pushthrough_identity(trials: int = 100, seed: int = 1, tol: float = 1e-10) -> CheckResult:
    """A^H (A A^H + s I)^-1 A equals (A^H A + s I)^-1 A^H A as matrices."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        m = int(rng.choice([4, 16, 64]))
        k = int(rng.integers(1, m))
        sigma_w2 = float(10.0 ** rng.uniform(-2, 2))
        a = _crandn(rng, m, k)
        big = a.conj().T @ (invert_hpd(a @ a.conj().T + sigma_w2 * np.eye(m)) @ a)
        gram = a.conj().T @ a
        small = invert_hpd(gram + sigma_w2 * np.eye(k)) @ gram
        worst = max(worst, float(np.abs(big - small).max()))
    return CheckResult(
        name="pushthrough-identity",
        passed=worst <= tol,
        detail=f"max matrix deviation {worst:.3e} over {trials} trials (tol {tol:g})",
    )


def check_unbias_coefficients_match(trials: int = 100, seed: int = 2, tol: float = 1e-10) -> CheckResult:
    """The M-side and K-side unbiasing coefficient vectors coincide."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        m = int(rng.choice([4, 16, 64]))
        k = int(rng.integers(1, m))
        sigma_w2 = float(10.0 ** rng.uniform(-2, 2))
        a = _crandn(rng, m, k)
        filt = a.conj().T @ invert_hpd(a @ a.conj().T + sigma_w2 * np.eye(m))
        coeff_m = 1.0 / diag_of_product(filt, a)
        gram = a.conj().T @ a
        coeff_k = 1.0 / diag_of_product(invert_hpd(gram + sigma_w2 * np.eye(k)), gram)
        worst = max(worst, float(np.abs(coeff_m - coeff_k).max()))
    return CheckResult(
        name="unbias-coefficients-match",
        passed=worst <= tol,
        detail=f"max coefficient deviation {worst:.3e} over {trials} trials (tol {tol:g})",
    )


def check_end_to_end_unit_gain(trials: int = 50, seed: int = 3, tol: float = 1e-10) -> CheckResult:
    """Detector-after-channel has unit diagonal gain for both MMSE forms."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        m = int(rng.choice([4, 16]))
        k = int(rng.integers(1, m))
        sigma_w2 = float(10.0 ** rng.uniform(-2, 2))
        a = _crandn(rng, m, k)
        for col in range(k):
            probe = np.zeros(k, dtype=complex)
            probe[col] = 1.0
            y = a @ probe
            worst = max(worst, abs(mmse_bin(a, y, sigma_w2)[col] - 1.0))
            est, _ = mrcmmse_bin(a, mrc_bin(a, y), sigma_w2)
            worst = max(worst, abs(est[col] - 1.0))
    return CheckResult(
        name="end-to-end-unit-gain",
        passed=worst <= tol,
        detail=f"max |diag gain - 1| = {worst:.3e} over {trials} trials (tol {tol:g})",
    )


def check_noise_gain_trace(
    num_antennas: int = 64,
    num_users: int = 14,
    draws: int = 10_000,
    seed: int = 4,
    rel_tol: float = 0.02,
) -> CheckResult:
    """E[tr((A^H A)^-1)] / K equals 1 / (M - K) for i.i.d. Gaussian entries."""
    rng = np.random.default_rng(seed)
    total = 0.0
    chunk = 1000
    done = 0
    while done < draws:
        size = min(chunk, draws - done)
        a = (rng.standard_normal((size, num_antennas, num_users))
             + 1j * rng.standard_normal((size, num_antennas, num_users))) / np.sqrt(2.0)
        gram = np.matmul(a.conj().transpose(0, 2, 1), a)
        total += np.trace(np.linalg.inv(gram), axis1=1, axis2=2).real.sum()
        done += size
    measured = total / draws / num_users
    expected = 1.0 / (num_antennas - num_users)
    rel_err = abs(measured / expected - 1.0)
    return CheckResult(
        name="noise-gain-trace",
        passed=rel_err <= rel_tol,
        detail=(
            f"per-user noise gain {measured:.6f} vs expected {expected:.6f} "
            f"({rel_err * 100:.2f}% off, tol {rel_tol * 100:g}%)"
        ),
    )


def check_cp_circularity(
    sizes: tuple[int, ...] = (8, 16, 64), seed: int = 5, tol: float = 1e-10
) -> CheckResult:
    """The noise-free transmit path equals per-bin channel-matrix multiplication."""
    worst = 0.0
    rng = np.random.default_rng(seed)
    for frame_len in sizes:
        length = min(4, frame_len - 1)
        cfg = ChannelConfig(
            num_antennas=3,
            num_users=2,
            frame_len=frame_len,
            channel_len=length,
            decay_samples=3.0,
            seed=seed,
        )
        realization = draw_channel(cfg)
        bins = to_bin_channels(realization)
        fc = FrameConfig(frame_len=frame_len, cp_len=length + 1, snr_db=np.inf)
        sf = generate_symbols(2, frame_len, "qpsk", rng)
        rf = to_frequency_domain(transmit(sf, realization, fc, rng))
        s_fd = np.fft.fft(sf.symbols, axis=1, norm="ortho")
        predicted = np.matmul(bins.a, s_fd.T[:, :, np.newaxis])[..., 0].T
        worst = max(worst, float(np.abs(rf.samples - predicted).max()))
    return CheckResult(
        name="cp-circularity",
        passed=worst <= tol,
        detail=f"max |transmit - per-bin model| = {worst:.3e} at sizes {sizes} (tol {tol:g})",
    )


def check_precoder_forms_agree(trials: int = 100, seed: int = 6, tol: float = 1e-10) -> CheckResult:
    """A^*(A^T A^* + s I_K)^-1 equals (A^* A^T + s I_M)^-1 A^* as matrices."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        m = int(rng.choice([4, 8, 16]))
        k = int(rng.integers(1, m))
        sigma_w2 = float(10.0 ** rng.uniform(-2, 2))
        a = _crandn(rng, m, k)
        small = a.conj() @ invert_hpd(a.T @ a.conj() + sigma_w2 * np.eye(k))
        big = invert_hpd(a.conj() @ a.T + sigma_w2 * np.eye(m)) @ a.conj()
        worst = max(worst, float(np.abs(small - big).max()))
    return CheckResult(
        name="precoder-forms-agree",
        passed=worst <= tol,
        detail=f"max matrix deviation {worst:.3e} over {trials} trials (tol {tol:g})",
    )


def _default_scenario() -> tuple[ChannelConfig, FrameConfig]:
    """The ``simulate`` default geometry at seed 11 and 0 dB."""
    default = {key: row[0] for key, row in SCENARIO_TABLE.items()}
    channel = ChannelConfig(
        num_antennas=default["m"],
        num_users=default["k"],
        frame_len=default["n"],
        channel_len=default["l_h"],
        decay_samples=default["decay_samples"],
        power_spread=(default["power_low"], default["power_high"]),
        seed=11,
    )
    frame = FrameConfig(frame_len=default["n"], cp_len=default["l_cp"], snr_db=0.0)
    return channel, frame


def check_cache_conjugate_reuse(seed: int = 7, tol: float = 1e-10) -> CheckResult:
    """Conjugated uplink inverses equal independently computed downlink ones."""
    channel_cfg, fc = _default_scenario()
    channel_cfg = replace(channel_cfg, seed=seed)
    realization = draw_channel(channel_cfg)
    bins = to_bin_channels(realization)
    rng = np.random.default_rng(seed)
    sf = generate_symbols(channel_cfg.num_users, fc.frame_len, fc.constellation, rng)
    rf = to_frequency_domain(transmit(sf, realization, fc, rng))
    result = detect_frame(rf, bins, fc.sigma_w2, DetectorKind.MRC_MMSE)
    cache = result.cache

    worst = 0.0
    eye = fc.sigma_w2 * np.eye(channel_cfg.num_users)
    for n in range(0, fc.frame_len):
        a_n = bins.a[n]
        direct = invert_hpd(a_n.T @ a_n.conj() + eye)
        worst = max(worst, float(np.abs(np.conj(cache.inv[n]) - direct).max()))
    return CheckResult(
        name="cache-conjugate-reuse",
        passed=worst <= tol,
        detail=f"max |conj(UL inverse) - DL inverse| = {worst:.3e} over {fc.frame_len} bins (tol {tol:g})",
    )


def check_precoder_zf_limit(
    trials: int = 50, seed: int = 8, tol: float = 1e-5, sigma_w2: float = 1e-10
) -> CheckResult:
    """With vanishing noise the precoded signal inverts the downlink channel."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        m, k = 4, 2
        a = _crandn(rng, m, k)
        s = _crandn(rng, k)
        dl_inv = invert_hpd(a.T @ a.conj() + sigma_w2 * np.eye(k))
        x = mmse_precode_bin(a, s, sigma_w2, PowerAllocation.uniform(k), dl_inv)
        worst = max(worst, float(np.abs(a.T @ x - s).max()))
    return CheckResult(
        name="precoder-zf-limit",
        passed=worst <= tol,
        detail=f"max |A^T x - s| = {worst:.3e} at sigma_w2={sigma_w2:g} (tol {tol:g})",
    )


def check_precode_frame_paths(seed: int = 9, tol: float = 1e-10) -> CheckResult:
    """Cache-fed and directly-computed frame precoding agree."""
    channel_cfg = ChannelConfig(
        num_antennas=6, num_users=3, frame_len=32, channel_len=4, decay_samples=2.0, seed=seed
    )
    fc = FrameConfig(frame_len=32, cp_len=8, snr_db=3.0)
    realization = draw_channel(channel_cfg)
    bins = to_bin_channels(realization)
    rng = np.random.default_rng(seed)
    sf = generate_symbols(channel_cfg.num_users, fc.frame_len, fc.constellation, rng)
    rf = to_frequency_domain(transmit(sf, realization, fc, rng))
    cache = detect_frame(rf, bins, fc.sigma_w2, DetectorKind.MRC_MMSE).cache

    dl_sf = generate_symbols(channel_cfg.num_users, fc.frame_len, fc.constellation, rng)
    from_cache = precode_frame(dl_sf, bins, fc.sigma_w2, cache=cache)
    direct = precode_frame(dl_sf, bins, fc.sigma_w2)
    worst = float(np.abs(from_cache.x - direct.x).max())
    return CheckResult(
        name="precode-frame-paths",
        passed=worst <= tol,
        detail=f"max |cache path - direct path| = {worst:.3e} (tol {tol:g})",
    )


def run_detector_checks(seed: int = 0) -> list[CheckResult]:
    """The detector-side identity/property suite, seeded."""
    return [
        check_detector_equivalence(seed=seed),
        check_pushthrough_identity(seed=seed + 1),
        check_unbias_coefficients_match(seed=seed + 2),
        check_end_to_end_unit_gain(seed=seed + 3),
        check_noise_gain_trace(seed=seed + 4),
        check_cp_circularity(seed=seed + 5),
    ]


def run_precoder_checks(seed: int = 0) -> list[CheckResult]:
    """The precoder-side self-consistency suite, seeded."""
    return [
        check_precoder_forms_agree(seed=seed + 6),
        check_cache_conjugate_reuse(seed=seed + 7),
        check_precoder_zf_limit(seed=seed + 8),
        check_precode_frame_paths(seed=seed + 9),
    ]
