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

The Monte-Carlo runner has one transmitter, ``frame.transmit``: the ``M x M``
MMSE reference detects the prefixed frame it sends, and the ``K x K`` kinds
read statistics formed from the same taps and noise.
"""

from __future__ import annotations

import csv
import io
import numbers
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import (
    BinChannel,
    ChannelConfig,
    _correlation_outputs,
    _lag_gram,
    _tap_correlations,
    draw_channel,
    to_bin_channels,
)
from .detect import DetectionResult, DetectorKind, _Matched, detect_frame
from .frame import (
    FrameConfig,
    SymbolFrame,
    _awgn,
    _check_cp,
    generate_symbols,
    to_frequency_domain,
    transmit,
)
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
    ``min(k_max, M - 1)``, so every M must be at least 2, and no M may
    repeat.
    """
    m_list = list(m_list)
    if not m_list or k_max < 1:
        raise ValueError("m_list must be nonempty and k_max >= 1")
    for idx, m in enumerate(m_list):
        if not isinstance(m, numbers.Integral):
            raise ValueError(f"each M in m_list must be an integer, got {m!r} at item {idx}")
        if m < 2:
            raise ValueError(f"each M in m_list must be at least 2 to serve one user, got {m}")
        if m in m_list[:idx]:
            raise ValueError(f"M={m} is repeated in m_list, at item {idx}")
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
# A default that a config class holds is read from that class.
SCENARIO_TABLE = {
    "m": (64, int, "base-station antenna count"),
    "k": (14, int, "user count"),
    "n": (2048, int, "samples per frame"),
    "l_h": (130, int, "impulse-response length"),
    "l_cp": (144, int, "cyclic-prefix length"),
    "decay_samples": (25.0, float, "exponential profile constant"),
    "power_low": (ChannelConfig.power_spread[0], float, "lower per-antenna power bound"),
    "power_high": (ChannelConfig.power_spread[1], float, "upper per-antenna power bound"),
    "constellation": (FrameConfig.constellation, str, "qpsk or 16qam"),
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


# Most points a sweep range may give; the default gives 21.  The count is
# checked before any point is built, so a range too fine to enumerate fails
# cleanly rather than exhausting memory.
_MAX_SWEEP_POINTS = 10**5


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
        span = max((stop - start) / step, -1.0)  # a reversed range is empty
        if span == np.inf:
            raise ValueError(f"sweep range {text!r} has too many points to count")
        count = int(round(span)) + 1
        if count > _MAX_SWEEP_POINTS:
            raise ValueError(f"sweep range {text!r} has {count} points, more than {_MAX_SWEEP_POINTS}")
        points = tuple(start + i * step for i in range(max(count, 0)) if start + i * step <= stop + 1e-9)
        if not points:
            raise ValueError(f"empty sweep range {text!r}")
        return points
    points = []
    for idx, item in enumerate(text.split(",")):
        try:
            points.append(float(item))
        except ValueError:
            raise ValueError(f"sweep item {idx} is not a number: {item!r}") from None
    return tuple(points)


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
        # Before a sweep draws anything: the K x K statistics assume the
        # channel circulant, which only a prefix this long makes it.
        _check_cp(self.channel.channel_len, self.frame.cp_len)
        if not isinstance(self.frames_per_point, numbers.Integral):
            raise ValueError(f"frames_per_point must be an integer, got {self.frames_per_point!r}")
        if self.frames_per_point < 1:
            raise ValueError("frames_per_point must be at least 1")
        if len(self.snr_sweep_db) == 0:
            raise ValueError("snr_sweep_db must be nonempty")
        for idx, snr_db in enumerate(self.snr_sweep_db):
            try:  # FrameConfig rejects a point whose noise variance is not finite
                sigma_w2 = replace(self.frame, snr_db=float(snr_db)).sigma_w2
            except ValueError:
                sigma_w2 = np.nan
            if not sigma_w2 > 0:  # above about 3236.07 dB, 10**(-snr_db / 10) underflows to 0
                raise ValueError(f"SNR sweep point {idx} ({snr_db} dB) gives no positive finite noise variance")
        if len(self.detectors) == 0:
            raise ValueError("at least one detector kind is required")
        for idx, kind in enumerate(self.detectors):
            if not isinstance(kind, DetectorKind):
                raise ValueError(f"detector {idx} is not a DetectorKind: {kind!r}")
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
        writer.writerow(f.name for f in fields(SinrRow))
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
    (N, M, K) stack ``A``, in two steps: ``_tap_correlations`` takes the
    channel taps and the frame's noise draw to the taps' lags and ``A^H w``,
    and ``_lag_gram`` the lags to ``G = A^H A``; then ``A^H y = G s + A^H w``.
    Only the ``M x M`` reference builds ``A`` and a received frame: it sends
    the symbols through the taps with ``transmit``, which draws the same
    noise from its own generator on the same stream, and detects the frame's
    unitary DFT.  So the reference hears the prefixed frame, linearly
    convolved, while the statistics assume the channel circulant.  Each
    kind still makes its own ``detect_frame`` call, and so fails on its own.

    The arrays that live to detection (the symbols, their DFT and the
    correlations' outputs) are allocated before the taps and the noise,
    which are freed before the Gram is formed, so the Gram takes their
    space and the frame's heap peaks at about one Gram above those arrays.
    That peak stays below glibc's trim threshold, so the heap the frame
    frees is kept for the next one rather than returned to the kernel and
    faulted in again (README, "Per-frame memory").  Each stream is keyed by
    (seed, point, frame, tag), so the order of the draws moves no byte.
    """
    seed = cfg.channel.seed
    m_ant, k_usr, length = cfg.channel.num_antennas, cfg.channel.num_users, cfg.channel.channel_len
    sym_rng = np.random.default_rng([seed, p_idx, f_idx, 1])
    noise_key = [seed, p_idx, f_idx, 2]  # the reference and the statistics hear one noise draw
    sf = generate_symbols(k_usr, fc.frame_len, fc.constellation, sym_rng)
    k_by_k = any(kind is not DetectorKind.MMSE for kind in cfg.detectors)
    if k_by_k:
        s_fd = np.fft.fft(sf.symbols, axis=1, norm="ortho").T[:, :, np.newaxis]  # (N, K, 1)
        lags, matched = _correlation_outputs(k_usr, length, fc.frame_len)
    realization = draw_channel(replace(cfg.channel, seed=_stream_seed(seed, p_idx, f_idx, 0)))
    rf = statistics = None
    if DetectorKind.MMSE in cfg.detectors:
        bins = to_bin_channels(realization)
        rf = to_frequency_domain(transmit(sf, realization, fc, np.random.default_rng(noise_key)))
    else:
        # Detection from the statistics checks them against this shape and
        # reads nothing else of it; mc-sweep's traced run counts bins from it.
        bins = BinChannel(a=np.broadcast_to(np.complex128(0), (fc.frame_len, m_ant, k_usr)))
    if k_by_k:
        noise = _awgn(m_ant, fc.frame_len, fc.sigma_w2, np.random.default_rng(noise_key))
        _tap_correlations(realization.taps, noise, lags, matched)
        del noise
    del realization
    if k_by_k:
        gram = _lag_gram(lags, length, fc.frame_len)
        del lags
        # _Matched reports a non-finite A^H y, so NumPy need not warn; A^H w
        # not finite makes A^H y not finite.
        with np.errstate(invalid="ignore", over="ignore"):
            matched += np.matmul(gram, s_fd)[..., 0]
        statistics = _Matched(gram, matched)
    sinr = {}
    for kind in cfg.detectors:
        data = rf if kind is DetectorKind.MMSE else statistics
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
    and the ``M x M`` reference on the received frame that ``transmit``
    sends through the same taps with the same noise.  All randomness is
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
