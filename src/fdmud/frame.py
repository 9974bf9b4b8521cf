"""Symbol generation, cyclic-prefix transmission and frequency-domain framing.

Two functions make a received frame from the same symbols and noise draws.
``transmit`` is a true transmitter emulation and assumes nothing about the
channel: the cyclic prefix is prepended, the frame is linearly convolved with
each impulse response, user contributions are summed, white Gaussian noise is
added, and the prefix is discarded.  ``transmit_bins`` assumes the cyclic
prefix makes every channel circulant, and builds each frequency bin directly
as ``y_n = A_n s_n + w_n``; the Monte-Carlo sweep uses it for the M x M MMSE
reference.  The assumption is proved, not trusted:
``verify.check_cp_circularity`` compares the two paths, and the test suite
checks that they agree to rounding and leave the generator in the same state.

The sweep's K x K detectors read only ``A_n^H A_n`` and ``A_n^H y_n``.  It
forms the second as ``A_n^H A_n s_n + A_n^H w_n``, both terms from
``channel._tap_statistics`` of the taps and the same noise draw, with no
(N, M, K) stack ``A`` and no received frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BinChannel, ChannelRealization, _next_fast_len
from .numerics import _split

__all__ = [
    "FrameConfig",
    "SymbolFrame",
    "ReceivedFrame",
    "constellation_points",
    "generate_symbols",
    "transmit",
    "transmit_bins",
    "to_frequency_domain",
    "bin_vector",
]

TIME = "time"
FREQUENCY = "frequency"


def _qpsk() -> np.ndarray:
    re, im = np.meshgrid([-1.0, 1.0], [-1.0, 1.0])
    return ((re + 1j * im) / np.sqrt(2.0)).ravel()


def _qam16() -> np.ndarray:
    levels = np.array([-3.0, -1.0, 1.0, 3.0])
    re, im = np.meshgrid(levels, levels)
    return ((re + 1j * im) / np.sqrt(10.0)).ravel()


_CONSTELLATIONS = {
    "qpsk": _qpsk(),
    "16qam": _qam16(),
}


def constellation_points(name: str) -> np.ndarray:
    """Unit-average-energy constellation for a known identifier."""
    try:
        return _CONSTELLATIONS[name].copy()
    except KeyError:
        raise ValueError(
            f"unknown constellation {name!r}; known: {sorted(_CONSTELLATIONS)}"
        ) from None


@dataclass(frozen=True)
class FrameConfig:
    """Frame shape, modulation and input SNR.

    ``snr_db`` is the input SNR under unit average channel power, so the
    noise variance per received sample is ``10**(-snr_db / 10)``.  Use
    ``snr_db=inf`` for a noise-free path; ``nan`` and ``-inf`` (infinite
    noise) are rejected.
    """

    frame_len: int
    cp_len: int
    constellation: str = "qpsk"
    snr_db: float = 0.0

    def __post_init__(self):
        if np.isnan(self.snr_db) or self.snr_db == -np.inf:
            raise ValueError(f"snr_db must be finite or +inf, got {self.snr_db}")
        if self.frame_len <= 0:
            raise ValueError("frame_len must be positive")
        if not 0 <= self.cp_len <= self.frame_len:
            raise ValueError("cp_len must lie in [0, frame_len]")
        constellation_points(self.constellation)

    @property
    def sigma_w2(self) -> float:
        """Noise variance per sample implied by the input SNR."""
        return float(10.0 ** (-self.snr_db / 10.0))


@dataclass(frozen=True)
class SymbolFrame:
    """K x N transmitted symbols, unit average energy per symbol."""

    symbols: np.ndarray


@dataclass(frozen=True)
class ReceivedFrame:
    """M x N received samples, tagged with their current domain."""

    samples: np.ndarray
    domain: str = TIME


def generate_symbols(num_users: int, frame_len: int, constellation: str, rng) -> SymbolFrame:
    """Draw i.i.d. uniform symbols from the unit-energy constellation."""
    if num_users <= 0 or frame_len <= 0:
        raise ValueError("num_users and frame_len must be positive")
    points = constellation_points(constellation)
    idx = rng.integers(0, points.size, size=(num_users, frame_len))
    return SymbolFrame(symbols=points[idx])


def _check_cp(channel_len: int, cp_len: int) -> None:
    """Reject a cyclic prefix too short to absorb the channel memory."""
    if channel_len > cp_len - 1:
        raise ValueError(
            "cyclic prefix too short: need channel_len <= cp_len - 1, "
            f"got L={channel_len}, cp={cp_len}"
        )


def _awgn(num_antennas: int, frame_len: int, sigma_w2: float, rng) -> np.ndarray:
    """Time-domain noise of both transmit paths: one draw order, one stream."""
    sigma = np.sqrt(sigma_w2 / 2.0)
    # The bytes of ``sigma * (x + 1j * y)``, written into one array with no
    # complex temporaries.
    noise = np.empty((num_antennas, frame_len), dtype=np.complex128)
    np.multiply(sigma, rng.standard_normal((num_antennas, frame_len)), out=noise.real)
    np.multiply(sigma, rng.standard_normal((num_antennas, frame_len)), out=noise.imag)
    return noise


def _check_frame(symbols: np.ndarray, num_users: int, fc: FrameConfig) -> None:
    sent_users, frame_len = symbols.shape
    if sent_users != num_users:
        raise ValueError(f"user count mismatch: frame has {sent_users}, channel has {num_users}")
    if frame_len != fc.frame_len:
        raise ValueError(f"frame length mismatch: frame has {frame_len}, config has {fc.frame_len}")


def transmit(
    sf: SymbolFrame, ch: ChannelRealization, fc: FrameConfig, rng
) -> ReceivedFrame:
    """Send a symbol frame through the multipath channel with AWGN.

    Per antenna: prepend the cyclic prefix (the last ``cp_len`` symbols of
    each user's frame), linearly convolve with the impulse response, sum over
    users, add circularly-symmetric complex Gaussian noise of variance
    ``sigma_w2`` per sample, and keep the N samples following the prefix.

    Requires ``channel_len <= cp_len - 1`` so the prefix fully absorbs the
    channel memory.
    """
    symbols = np.asarray(sf.symbols)
    m_ant, k_usr, length = ch.taps.shape
    _check_frame(symbols, k_usr, fc)
    _check_cp(length, fc.cp_len)
    frame_len = fc.frame_len

    with_cp = np.concatenate([symbols[:, frame_len - fc.cp_len :], symbols], axis=1)
    nfft = _next_fast_len(frame_len + fc.cp_len + length - 1)
    sig_fd = np.fft.fft(with_cp, n=nfft, axis=1)[np.newaxis, :, :]
    noise = _awgn(m_ant, frame_len, fc.sigma_w2, rng)
    samples = np.empty((m_ant, frame_len), dtype=np.complex128)

    def antennas_run(lo: int, hi: int) -> None:
        taps_fd = np.fft.fft(ch.taps[lo:hi], n=nfft, axis=2)
        mixed = np.fft.ifft((sig_fd * taps_fd).sum(axis=1), axis=1)
        np.add(mixed[:, fc.cp_len : fc.cp_len + frame_len], noise[lo:hi], out=samples[lo:hi])

    # Sized by the (M, K, nfft) tap spectrum, which whole would be the largest array.
    _split(m_ant, antennas_run, m_ant * k_usr * nfft)
    return ReceivedFrame(samples=samples, domain=TIME)


def transmit_bins(sf: SymbolFrame, bins: BinChannel, fc: FrameConfig, rng) -> ReceivedFrame:
    """The frequency-domain frame ``transmit`` would give, built per bin.

    Bin n is ``A_n s_n + w_n``, with ``s`` and ``w`` the unitary DFTs of the
    symbols and of the same noise ``transmit`` draws from ``rng``, so one
    generator state gives ``to_frequency_domain(transmit(...))`` to rounding
    and leaves the generator where ``transmit`` leaves it.  It assumes the
    cyclic prefix covers the channel, which the bin channels cannot show:
    the caller checks it (``ScenarioConfig`` does, before a sweep draws
    anything).
    """
    noise = _awgn(bins.a.shape[1], fc.frame_len, fc.sigma_w2, rng)
    return _transmit_bins(sf, bins, fc, noise)


def _transmit_bins(sf: SymbolFrame, bins: BinChannel, fc: FrameConfig, noise) -> ReceivedFrame:
    """:func:`transmit_bins` with its time-domain noise (M, N) already drawn."""
    symbols = np.asarray(sf.symbols)
    n_bins, m_ant, k_usr = bins.a.shape
    _check_frame(symbols, k_usr, fc)
    if n_bins != fc.frame_len:
        raise ValueError(f"bin count mismatch: channel has {n_bins}, config has {fc.frame_len}")

    s_fd = np.fft.fft(symbols, axis=1, norm="ortho").T[:, :, np.newaxis]  # (N, K, 1)
    signal = np.empty((n_bins, m_ant, 1), dtype=np.complex128)

    def bins_run(lo: int, hi: int) -> None:
        np.matmul(bins.a[lo:hi], s_fd[lo:hi], out=signal[lo:hi])

    _split(n_bins, bins_run, bins.a.size + s_fd.size)
    signal = signal[..., 0].T  # (M, N)
    samples = np.empty((m_ant, n_bins), dtype=np.complex128)

    def antennas_run(lo: int, hi: int) -> None:
        np.add(signal[lo:hi], np.fft.fft(noise[lo:hi], axis=1, norm="ortho"), out=samples[lo:hi])

    _split(m_ant, antennas_run, signal.size + noise.size)
    return ReceivedFrame(samples=samples, domain=FREQUENCY)


def to_frequency_domain(rf: ReceivedFrame) -> ReceivedFrame:
    """Unitary DFT of every antenna row; noise variance is preserved."""
    if rf.domain != TIME:
        raise ValueError("frame is already in the frequency domain")
    # Unitary (1/sqrt(N) both ways), unlike the unnormalized channel DFT: it
    # keeps the per-sample noise variance across the domain change, and its
    # inverse is its Hermitian transpose.
    return ReceivedFrame(samples=np.fft.fft(rf.samples, axis=1, norm="ortho"), domain=FREQUENCY)


def bin_vector(rf: ReceivedFrame, n: int) -> np.ndarray:
    """The M x 1 received vector at frequency bin n."""
    if rf.domain != FREQUENCY:
        raise ValueError("bin_vector requires a frequency-domain frame")
    if not 0 <= n < rf.samples.shape[1]:
        raise ValueError(f"bin index {n} out of range [0, {rf.samples.shape[1]})")
    return rf.samples[:, n].copy()
