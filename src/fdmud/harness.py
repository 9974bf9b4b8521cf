"""Scenario table and builder, complexity model, SINR metrology, Monte-Carlo
runner and CSV reports.

The complexity model counts complex multiplies per frequency bin for the two
MMSE formulations under the standard costing rules: a P x P inversion is P^3
multiplies, a matrix product costs outer-times-inner, and extracting the
diagonal of a product costs inner-times-outer.  These counts are a model;
the repository benchmark (``benchmarks/run.py --trace 1``) reports the
measured MMSE / MRC-MMSE wall-time ratio beside them as
``detect.ratio_measured.<M>x<K>``.

SINR is measured genie-aided: the detectors are unbiased, the transmitted
symbols have unit energy, so per-user SINR is the reciprocal of the mean
squared error against the known truth.  Reported values average linear SINR
across users and frames first, then convert to dB.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    BinChannel,
    ChannelConfig,
    _check_matched,
    _tap_statistics,
    draw_channel,
    to_bin_channels,
)
from .detect import DetectionResult, DetectorKind, _Matched, detect_frame
from .frame import FrameConfig, SymbolFrame, _awgn, _check_cp, _transmit_bins, generate_symbols

# Unused here, but benchmarks/workloads.py wraps both on this module.
from .frame import to_frequency_domain, transmit  # noqa: F401
from .numerics import DegenerateScaleError, SingularMatrixError

__all__ = [
    "ScenarioConfig",
    "ComplexityReport",
    "SinrRow",
    "SinrReport",
    "count_mults_mmse",
    "count_mults_mrcmmse",
    "complexity_sweep",
    "measure_sinr",
    "theoretical_gains",
    "run_monte_carlo",
]


def count_mults_mmse(num_antennas: int, num_users: int) -> int:
    """Complex multiplies per bin for the M x M-inverse MMSE formulation."""
    if num_antennas < 1 or num_users < 1:
        raise ValueError("antenna and user counts must be at least 1")
    m, k = num_antennas, num_users
    return k + 2 * k * m + 2 * k * m * m + m**3


def count_mults_mrcmmse(num_antennas: int, num_users: int) -> int:
    """Complex multiplies per bin for the K x K-inverse MRC-MMSE formulation."""
    if num_antennas < 1 or num_users < 1:
        raise ValueError("antenna and user counts must be at least 1")
    m, k = num_antennas, num_users
    return k + 2 * k * m + k**3 + 2 * k * k * m


@dataclass(frozen=True)
class ComplexityReport:
    """Rows of (M, K, mults_mmse, mults_mrcmmse)."""

    rows: tuple[tuple[int, int, int, int], ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["M", "K", "mults_mmse", "mults_mrcmmse"])
        writer.writerows(self.rows)
        return buf.getvalue()


def complexity_sweep(m_list, k_max: int) -> ComplexityReport:
    """Per-bin multiply counts over a grid of antenna counts and user counts.

    For each M in ``m_list`` the user count runs from 1 to
    ``min(k_max, M - 1)``.
    """
    m_list = list(m_list)
    if not m_list or k_max < 1:
        raise ValueError("m_list must be nonempty and k_max >= 1")
    rows = []
    for m in m_list:
        for k in range(1, min(k_max, m - 1) + 1):
            rows.append((m, k, count_mults_mmse(m, k), count_mults_mrcmmse(m, k)))
    return ComplexityReport(rows=tuple(rows))


def measure_sinr(result: DetectionResult, truth: SymbolFrame) -> np.ndarray:
    """Per-user output SINR (linear) from the known-truth error vectors.

    With unit-energy symbols and an unbiased detector, per-user SINR is
    ``1 / mean(|s_hat - s|^2)`` over the frame.  A user with exactly zero
    error power gets an ``inf`` sentinel and a warning; callers exclude such
    values from dB averaging.
    """
    s_hat = np.asarray(result.s_hat_time)
    symbols = np.asarray(truth.symbols)
    if symbols.ndim != 2:
        raise ValueError(f"truth symbols must be K x N, got shape {symbols.shape}")
    if s_hat.shape != symbols.shape:
        raise ValueError(f"estimate shape {s_hat.shape} does not match truth shape {symbols.shape}")
    err = s_hat - symbols
    err_power = np.mean(np.abs(err) ** 2, axis=1)
    if np.any(err_power == 0):
        warnings.warn("zero error power: reporting inf SINR sentinel", stacklevel=2)
    with np.errstate(divide="ignore"):
        return 1.0 / err_power


def theoretical_gains(num_antennas: int, num_users: int) -> tuple[float, float]:
    """(low-SNR, high-SNR) array-gain bounds, linear: (M, M - K)."""
    if not num_antennas > num_users:
        raise ValueError("need num_antennas > num_users")
    return float(num_antennas), float(num_antennas - num_users)


# The scenario that ``fdmud simulate`` runs, and the file it writes, one row
# per key: (default, type, help).  Config-file keys, their casts and the
# command-line flags (``--l-h`` for ``l_h``) are all derived from this table.
SCENARIO_TABLE = {
    "m": (64, int, "base-station antenna count"),
    "k": (14, int, "user count"),
    "n": (2048, int, "samples per frame"),
    "l_h": (130, int, "impulse-response length"),
    "l_cp": (144, int, "cyclic-prefix length"),
    "decay_samples": (25.0, float, "exponential profile constant"),
    "power_low": (0.1, float, "lower per-antenna power bound"),
    "power_high": (1.9, float, "upper per-antenna power bound"),
    "constellation": ("qpsk", str, "qpsk or 16qam"),
    "snr_sweep": ("-30:10:2", str, "input SNR points: start:stop:step or comma list (dB)"),
    "frames_per_point": (20, int, "Monte-Carlo frames per sweep point"),
    "detectors": (
        "mrc_mmse,tr_mrc",
        str,
        "comma list: mmse, mrc_mmse, tr_mrc, low_snr, high_snr_zf",
    ),
    "seed": (1, int, "master RNG seed (default 1)"),
    "output": ("sinr.csv", str, "CSV output path"),
}


def parse_sweep(text: str) -> tuple[float, ...]:
    """Parse ``start:stop:step`` (inclusive) or a comma-separated dB list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"sweep range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        for name, value in (("start", start), ("stop", stop), ("step", step)):
            if not np.isfinite(value):
                raise ValueError(f"sweep {name} must be finite, got {value}")
        if step <= 0:
            raise ValueError("sweep step must be positive")
        count = int(round((stop - start) / step)) + 1
        points = tuple(start + i * step for i in range(max(count, 0)) if start + i * step <= stop + 1e-9)
        if not points:
            raise ValueError(f"empty sweep range {text!r}")
        return points
    return tuple(float(p) for p in text.split(","))


def parse_detectors(text: str) -> tuple[DetectorKind, ...]:
    kinds = []
    for token in text.split(","):
        token = token.strip()
        try:
            kinds.append(DetectorKind(token))
        except ValueError:
            known = ", ".join(k.value for k in DetectorKind)
            raise ValueError(f"unknown detector {token!r}; known: {known}") from None
    return tuple(kinds)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything the Monte-Carlo runner needs for one sweep."""

    channel: ChannelConfig
    frame: FrameConfig
    detectors: tuple[DetectorKind, ...] = parse_detectors(SCENARIO_TABLE["detectors"][0])
    snr_sweep_db: tuple[float, ...] = parse_sweep(SCENARIO_TABLE["snr_sweep"][0])
    frames_per_point: int = SCENARIO_TABLE["frames_per_point"][0]

    def __post_init__(self):
        if self.channel.frame_len != self.frame.frame_len:
            raise ValueError(
                f"channel frame_len {self.channel.frame_len} does not match "
                f"frame frame_len {self.frame.frame_len}"
            )
        # The sweep builds frames per bin, which assumes a prefix this long.
        _check_cp(self.channel.channel_len, self.frame.cp_len)
        if self.frames_per_point < 1:
            raise ValueError("frames_per_point must be at least 1")
        if len(self.snr_sweep_db) == 0:
            raise ValueError("snr_sweep_db must be nonempty")
        for idx, snr_db in enumerate(self.snr_sweep_db):
            try:  # the noise variance the sweep detects with, 10**(-snr_db / 10)
                sigma_w2 = replace(self.frame, snr_db=float(snr_db)).sigma_w2
            except (ValueError, OverflowError):  # nan or -inf dB; or below about -3082.5 dB
                sigma_w2 = np.nan
            if not 0 < sigma_w2 < np.inf:
                raise ValueError(f"SNR sweep point {idx} ({snr_db} dB) gives no positive finite noise variance")
        if len(self.detectors) == 0:
            raise ValueError("at least one detector kind is required")
        for idx, kind in enumerate(self.detectors):
            if kind in self.detectors[:idx]:
                raise ValueError(f"detector kind {kind.value!r} is repeated")


def build_scenario(values: dict) -> ScenarioConfig:
    """The scenario for one value per ``SCENARIO_TABLE`` key.

    ``output`` is not part of it: where the CSV goes is the CLI's business.
    """
    channel = ChannelConfig(
        num_antennas=values["m"],
        num_users=values["k"],
        frame_len=values["n"],
        channel_len=values["l_h"],
        decay_samples=values["decay_samples"],
        power_spread=(values["power_low"], values["power_high"]),
        seed=values["seed"],
    )
    frame = FrameConfig(
        frame_len=values["n"],
        cp_len=values["l_cp"],
        constellation=values["constellation"],
    )
    return ScenarioConfig(
        channel=channel,
        frame=frame,
        detectors=parse_detectors(values["detectors"]),
        snr_sweep_db=parse_sweep(values["snr_sweep"]),
        frames_per_point=values["frames_per_point"],
    )


# Version of the way a sweep turns its seed into channels, symbols and noise.
# Same seed, same layout and same NumPy give byte-identical CSV; any change
# to what a frame draws, or in which order, bumps it.
RNG_LAYOUT = 2


@dataclass(frozen=True)
class SinrRow:
    input_snr_db: float
    detector: DetectorKind
    mean_output_sinr_db: float
    gain_db: float
    gain_low_db: float
    gain_high_db: float
    n_frames: int
    n_failures: int = 0


@dataclass(frozen=True)
class SinrReport:
    """Measured SINR gains per sweep point and detector."""

    rows: tuple[SinrRow, ...]
    seed: int
    frames_per_point: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# seed={self.seed}\n")
        buf.write(f"# rng_layout={RNG_LAYOUT}\n")
        buf.write(f"# frames_per_point={self.frames_per_point}\n")
        buf.write("# averaging=mean-linear-sinr-over-users-and-frames-then-db\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "input_snr_db",
                "detector",
                "mean_output_sinr_db",
                "gain_db",
                "gain_low_db",
                "gain_high_db",
                "n_frames",
                "n_failures",
            ]
        )
        for r in self.rows:
            writer.writerow(
                [
                    f"{r.input_snr_db:.6g}",
                    r.detector.value,
                    f"{r.mean_output_sinr_db:.6f}",
                    f"{r.gain_db:.6f}",
                    f"{r.gain_low_db:.6f}",
                    f"{r.gain_high_db:.6f}",
                    r.n_frames,
                    r.n_failures,
                ]
            )
        return buf.getvalue()


def _stream_seed(seed: int, point: int, frame: int, tag: int) -> int:
    """Derived 64-bit seed for one per-frame stream; order-independent."""
    return int(np.random.SeedSequence((seed, point, frame, tag)).generate_state(1, np.uint64)[0])


def _run_frame(cfg: ScenarioConfig, fc: FrameConfig, p_idx: int, f_idx: int) -> dict:
    """Per-user SINR of each detector that detected the frame; a failed one is left out.

    A function of its own so that a frame's channel and statistics are freed
    before the next frame draws its own.  Every ``K x K`` kind reads the
    same ``A^H A`` and ``A^H y``, so they are formed once per frame, with no
    (N, M, K) stack ``A``: one pass of ``_tap_statistics`` over the channel
    taps and the frame's noise draw gives ``G = A^H A`` and ``A^H w``, and
    ``A^H y = G s + A^H w``.  Only the ``M x M`` reference builds ``A`` and
    the received samples, from the same noise draw.  Each kind still makes
    its own ``detect_frame`` call, and so fails on its own.
    """
    seed = cfg.channel.seed
    realization = draw_channel(replace(cfg.channel, seed=_stream_seed(seed, p_idx, f_idx, 0)))
    sym_rng = np.random.default_rng([seed, p_idx, f_idx, 1])
    noise_rng = np.random.default_rng([seed, p_idx, f_idx, 2])
    sf = generate_symbols(cfg.channel.num_users, fc.frame_len, fc.constellation, sym_rng)
    m_ant, k_usr, _ = realization.taps.shape
    noise = _awgn(m_ant, fc.frame_len, fc.sigma_w2, noise_rng)
    rf = matched = None
    if DetectorKind.MMSE in cfg.detectors:
        bins = to_bin_channels(realization)
        rf = _transmit_bins(sf, bins, fc, noise)
    else:
        # Detection from the statistics checks them against this shape and
        # reads nothing else of it; mc-sweep's traced run counts bins from it.
        bins = BinChannel(a=np.broadcast_to(np.complex128(0), (fc.frame_len, m_ant, k_usr)))
    if any(kind is not DetectorKind.MMSE for kind in cfg.detectors):
        gram, noise_matched = _tap_statistics(realization.taps, noise)
        s_fd = np.fft.fft(sf.symbols, axis=1, norm="ortho").T[:, :, np.newaxis]  # (N, K, 1)
        # The check below reports a non-finite A^H y, so NumPy need not warn.
        with np.errstate(invalid="ignore", over="ignore"):
            matched = np.matmul(gram, s_fd)[..., 0]
            matched += noise_matched
        _check_matched(matched)
        matched = _Matched(gram, matched)
    del realization, noise
    sinr = {}
    for kind in cfg.detectors:
        data = rf if kind is DetectorKind.MMSE else matched
        try:
            sinr[kind] = measure_sinr(detect_frame(data, bins, fc.sigma_w2, kind), sf)
        except (SingularMatrixError, DegenerateScaleError):
            pass  # the sweep counts the frames a kind did not detect
    return sinr


def run_monte_carlo(cfg: ScenarioConfig) -> SinrReport:
    """Sweep input SNR, measuring output SINR per detector.

    Per sweep point and frame: draw a fresh channel, generate symbols and
    noise, and run each requested detector on the same frame: the ``K x K``
    ones on its ``A^H A`` and ``A^H y``, formed once from the channel taps,
    and the ``M x M`` reference on the received bins ``A_n s_n + w_n`` that
    ``transmit_bins`` builds from the same noise.  All randomness is
    keyed by (seed, point index, frame index), so identical configs produce
    byte-identical CSV output under one ``RNG_LAYOUT``, regardless of
    execution order.  Frames on which a detector fails (a singular bin, or a
    zero-power channel column) are excluded from that detector's average and
    counted in its ``n_failures``; the sweep goes on.
    """
    gain_low, gain_high = theoretical_gains(cfg.channel.num_antennas, cfg.channel.num_users)
    gain_low_db = 10.0 * np.log10(gain_low)
    gain_high_db = 10.0 * np.log10(gain_high)

    rows = []
    for p_idx, snr_db in enumerate(cfg.snr_sweep_db):
        fc = replace(cfg.frame, snr_db=float(snr_db))
        sinr_acc = {kind: [] for kind in cfg.detectors}
        for f_idx in range(cfg.frames_per_point):
            for kind, sinr in _run_frame(cfg, fc, p_idx, f_idx).items():
                sinr_acc[kind].append(sinr)
        for kind in cfg.detectors:
            n_frames = len(sinr_acc[kind])
            per_user = np.concatenate(sinr_acc[kind]) if n_frames else np.array([])
            finite = per_user[np.isfinite(per_user)]
            if finite.size < per_user.size:
                warnings.warn(
                    f"{per_user.size - finite.size} infinite SINR values excluded "
                    f"({kind.value} at {snr_db} dB)",
                    stacklevel=2,
                )
            mean_db = 10.0 * np.log10(finite.mean()) if finite.size else float("nan")
            rows.append(
                SinrRow(
                    input_snr_db=float(snr_db),
                    detector=kind,
                    mean_output_sinr_db=float(mean_db),
                    gain_db=float(mean_db - snr_db),
                    gain_low_db=float(gain_low_db),
                    gain_high_db=float(gain_high_db),
                    n_frames=n_frames,
                    n_failures=cfg.frames_per_point - n_frames,
                )
            )

    return SinrReport(rows=tuple(rows), seed=cfg.channel.seed, frames_per_point=cfg.frames_per_point)
