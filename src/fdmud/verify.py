"""Randomized identity and property checks behind the ``verify`` CLI commands.

Each check takes only a seed.  It draws seeded random instances of fixed
count and shape, evaluates one algebraic identity or statistical property of
the detectors/precoder, and reports the worst deviation against its entry in
``TOLERANCES``.  The same functions back the acceptance test suite, which
pins that table by value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BinChannel, ChannelConfig, draw_channel, to_bin_channels
from .detect import DetectorKind, detect_frame, mmse_bin, mrc_bin, mrcmmse_bin
from .frame import (
    FrameConfig,
    SymbolFrame,
    generate_symbols,
    to_frequency_domain,
    transmit,
    transmit_bins,
)
from .harness import SCENARIO_TABLE, build_scenario
from .numerics import _split, diag_of_product, invert_hpd
from .precode import precode_frame

__all__ = [
    "CheckResult",
    "TOLERANCES",
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

# Largest deviation each check accepts.  ``noise-gain-trace`` is a relative
# error; every other entry bounds the deviation its detail line reports.
TOLERANCES = {
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, worst: float, detail: str) -> CheckResult:
    # The checks fold deviations with np.maximum, which keeps a nan where
    # Python's max drops it, so a route returning nan fails here.
    tol = TOLERANCES[name]
    return CheckResult(name=name, passed=bool(worst <= tol), detail=f"{detail} (tol {tol:g})")


def _crandn(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _instances(seed: int, trials: int, m_choices: tuple[int, ...], log_sigma2=(-2.0, 2.0)):
    """Yield ``(rng, a, sigma_w2)``: M from ``m_choices``, 1 <= K < M,
    log-uniform noise, Gaussian ``M x K`` channel, drawn in that order."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        m = int(rng.choice(m_choices))
        k = int(rng.integers(1, m))
        sigma_w2 = float(10.0 ** rng.uniform(*log_sigma2))
        yield rng, _crandn(rng, m, k), sigma_w2


def _max_rel_diff(x: np.ndarray, y: np.ndarray) -> float:
    """Largest element-wise difference relative to the pair's magnitude scale.

    Scaling per element instead would divide rounding noise (which is
    proportional to the vector scale) by arbitrarily small entries and report
    condition-number artifacts rather than disagreement between the routes.
    """
    scale = max(np.abs(x).max(), np.abs(y).max(), 1e-300)
    return float(np.abs(x - y).max() / scale)


def _uplink_cache(channel: ChannelConfig, frame: FrameConfig):
    """Bin channels, MRC-MMSE inverse cache and symbol/noise RNG of one
    uplink frame; the RNG is seeded with the channel seed."""
    realization = draw_channel(channel)
    bins = to_bin_channels(realization)
    rng = np.random.default_rng(channel.seed)
    sf = generate_symbols(channel.num_users, frame.frame_len, frame.constellation, rng)
    rf = to_frequency_domain(transmit(sf, realization, frame, rng))
    return bins, detect_frame(rf, bins, frame.sigma_w2, DetectorKind.MRC_MMSE).cache, rng


def check_detector_equivalence(seed: int = 0) -> CheckResult:
    """Per-bin MMSE and MRC-MMSE estimates agree element-wise."""
    trials = 1000
    cases = [
        (a, _crandn(rng, a.shape[0]), sigma_w2)
        for rng, a, sigma_w2 in _instances(seed, trials, (4, 16, 64), log_sigma2=(-4.0, 2.0))
    ]
    # One route over every case, then the other: mmse_bin's BLAS calls are all
    # SciPy's and the MRC route's all NumPy's, and on a 2-core host their two
    # OpenBLAS thread pools contend whenever calls alternate between them.
    direct = [mmse_bin(a, y, sigma_w2) for a, y, sigma_w2 in cases]
    via_mrc = [mrcmmse_bin(a, mrc_bin(a, y), sigma_w2)[0] for a, y, sigma_w2 in cases]
    worst = 0.0
    for x, y in zip(direct, via_mrc):
        worst = np.maximum(worst, _max_rel_diff(x, y))
    return _result("detector-equivalence", worst, f"max relative difference {worst:.3e} over {trials} trials")


def check_pushthrough_identity(seed: int = 1) -> CheckResult:
    """A^H (A A^H + s I)^-1 A equals (A^H A + s I)^-1 A^H A as matrices."""
    trials = 100
    worst = 0.0
    for _, a, sigma_w2 in _instances(seed, trials, (4, 16, 64)):
        m, k = a.shape
        big = a.conj().T @ (invert_hpd(a @ a.conj().T + sigma_w2 * np.eye(m)) @ a)
        gram = a.conj().T @ a
        small = invert_hpd(gram + sigma_w2 * np.eye(k)) @ gram
        worst = np.maximum(worst, float(np.abs(big - small).max()))
    return _result("pushthrough-identity", worst, f"max matrix deviation {worst:.3e} over {trials} trials")


def check_unbias_coefficients_match(seed: int = 2) -> CheckResult:
    """The M-side and K-side unbiasing coefficient vectors coincide."""
    trials = 100
    worst = 0.0
    for _, a, sigma_w2 in _instances(seed, trials, (4, 16, 64)):
        m, k = a.shape
        filt = a.conj().T @ invert_hpd(a @ a.conj().T + sigma_w2 * np.eye(m))
        coeff_m = 1.0 / diag_of_product(filt, a)
        gram = a.conj().T @ a
        coeff_k = 1.0 / diag_of_product(invert_hpd(gram + sigma_w2 * np.eye(k)), gram)
        worst = np.maximum(worst, float(np.abs(coeff_m - coeff_k).max()))
    return _result(
        "unbias-coefficients-match", worst, f"max coefficient deviation {worst:.3e} over {trials} trials"
    )


def check_end_to_end_unit_gain(seed: int = 3) -> CheckResult:
    """Detector-after-channel has unit diagonal gain for both MMSE forms."""
    trials = 50
    worst = 0.0
    for _, a, sigma_w2 in _instances(seed, trials, (4, 16)):
        for col, probe in enumerate(np.eye(a.shape[1], dtype=complex)):
            y = a @ probe
            worst = np.maximum(worst, abs(mmse_bin(a, y, sigma_w2)[col] - 1.0))
            est, _ = mrcmmse_bin(a, mrc_bin(a, y), sigma_w2)
            worst = np.maximum(worst, abs(est[col] - 1.0))
    return _result("end-to-end-unit-gain", worst, f"max |diag gain - 1| = {worst:.3e} over {trials} trials")


def check_noise_gain_trace(seed: int = 4) -> CheckResult:
    """E[tr((A^H A)^-1)] / K equals 1 / (M - K) for i.i.d. Gaussian entries."""
    num_antennas, num_users, draws, chunk = 64, 14, 10_000, 1000
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(draws // chunk):
        a = _crandn(rng, chunk, num_antennas, num_users) / np.sqrt(2.0)
        gram = np.matmul(a.conj().transpose(0, 2, 1), a)
        total += np.trace(np.linalg.inv(gram), axis1=1, axis2=2).real.sum()
    measured = total / draws / num_users
    expected = 1.0 / (num_antennas - num_users)
    rel_err = abs(measured / expected - 1.0)
    tol = TOLERANCES["noise-gain-trace"]
    return CheckResult(
        name="noise-gain-trace",
        passed=bool(rel_err <= tol),
        detail=(
            f"per-user noise gain {measured:.6f} vs expected {expected:.6f} "
            f"({rel_err * 100:.2f}% off, tol {tol * 100:g}%)"
        ),
    )


def check_cp_circularity(seed: int = 5) -> CheckResult:
    """The noise-free transmit path equals the per-bin model ``transmit_bins``."""
    sizes = (8, 16, 64)
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
        fc = FrameConfig(frame_len=frame_len, cp_len=length + 1, snr_db=np.inf)
        sf = generate_symbols(2, frame_len, "qpsk", rng)
        rf = to_frequency_domain(transmit(sf, realization, fc, rng))
        model = transmit_bins(sf, to_bin_channels(realization), fc, rng)
        worst = np.maximum(worst, float(np.abs(rf.samples - model.samples).max()))
    return _result("cp-circularity", worst, f"max |transmit - per-bin model| = {worst:.3e} at sizes {sizes}")


def check_precoder_forms_agree(seed: int = 6) -> CheckResult:
    """A^*(A^T A^* + s I_K)^-1 equals (A^* A^T + s I_M)^-1 A^* as matrices."""
    trials = 100
    worst = 0.0
    for _, a, sigma_w2 in _instances(seed, trials, (4, 8, 16)):
        m, k = a.shape
        small = a.conj() @ invert_hpd(a.T @ a.conj() + sigma_w2 * np.eye(k))
        big = invert_hpd(a.conj() @ a.T + sigma_w2 * np.eye(m)) @ a.conj()
        worst = np.maximum(worst, float(np.abs(small - big).max()))
    return _result("precoder-forms-agree", worst, f"max matrix deviation {worst:.3e} over {trials} trials")


def check_cache_conjugate_reuse(seed: int = 7) -> CheckResult:
    """Conjugated uplink inverses equal independently computed downlink ones."""
    scenario = build_scenario({key: row[0] for key, row in SCENARIO_TABLE.items()} | {"seed": seed})
    bins, cache, _ = _uplink_cache(scenario.channel, scenario.frame)
    n_bins, _, k_usr = bins.a.shape
    eye = scenario.frame.sigma_w2 * np.eye(k_usr)
    direct = np.empty((n_bins, k_usr, k_usr), dtype=np.complex128)

    def run(lo: int, hi: int) -> None:
        a = bins.a[lo:hi]
        direct[lo:hi] = invert_hpd(np.swapaxes(a, 1, 2) @ a.conj() + eye)

    _split(n_bins, run, direct.size)
    worst = float(np.abs(np.conj(cache.inv) - direct).max())
    return _result(
        "cache-conjugate-reuse",
        worst,
        f"max |conj(UL inverse) - DL inverse| = {worst:.3e} over {len(bins.a)} bins",
    )


def check_precoder_zf_limit(seed: int = 8) -> CheckResult:
    """With vanishing noise the precoded signal inverts the downlink channel."""
    trials, m, k, sigma_w2 = 50, 4, 2, 1e-10
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        a = _crandn(rng, m, k)
        s = _crandn(rng, k)
        x = precode_frame(SymbolFrame(s[:, None]), BinChannel(a[None]), sigma_w2).x[:, 0]
        worst = np.maximum(worst, float(np.abs(a.T @ x - s).max()))
    return _result("precoder-zf-limit", worst, f"max |A^T x - s| = {worst:.3e} at sigma_w2={sigma_w2:g}")


def check_precode_frame_paths(seed: int = 9) -> CheckResult:
    """Cache-fed and directly-computed frame precoding agree."""
    channel = ChannelConfig(
        num_antennas=6, num_users=3, frame_len=32, channel_len=4, decay_samples=2.0, seed=seed
    )
    frame = FrameConfig(frame_len=32, cp_len=8, snr_db=3.0)
    bins, cache, rng = _uplink_cache(channel, frame)
    dl_sf = generate_symbols(channel.num_users, frame.frame_len, frame.constellation, rng)
    from_cache = precode_frame(dl_sf, bins, frame.sigma_w2, cache=cache)
    direct = precode_frame(dl_sf, bins, frame.sigma_w2)
    worst = float(np.abs(from_cache.x - direct.x).max())
    return _result("precode-frame-paths", worst, f"max |cache path - direct path| = {worst:.3e}")


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
