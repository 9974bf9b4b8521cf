"""Symbol generation, cyclic-prefix transmission and frequency-domain framing.

The transmit path is a true transmitter emulation: the cyclic prefix is
prepended, the frame is linearly convolved with each impulse response, user
contributions are summed, white Gaussian noise is added, and the prefix is
discarded.  That the result equals per-bin multiplication by the channel's
eigenvalue matrices is a verified property, never an assumption baked into
this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .channel import ChannelRealization

__all__ = [
    "FrameConfig",
    "SymbolFrame",
    "ReceivedFrame",
    "constellation_points",
    "generate_symbols",
    "transmit",
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
    ``snr_db=inf`` for a noise-free path.
    """

    frame_len: int
    cp_len: int
    constellation: str = "qpsk"
    snr_db: float = 0.0

    def __post_init__(self):
        if np.isnan(self.snr_db):
            raise ValueError("snr_db must not be nan")
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
    num_users, frame_len = symbols.shape
    m_ant, k_usr, length = ch.taps.shape
    if k_usr != num_users:
        raise ValueError(f"user count mismatch: frame has {num_users}, channel has {k_usr}")
    if frame_len != fc.frame_len:
        raise ValueError(f"frame length mismatch: frame has {frame_len}, config has {fc.frame_len}")
    if length > fc.cp_len - 1:
        raise ValueError(
            f"cyclic prefix too short: need channel_len <= cp_len - 1, got L={length}, cp={fc.cp_len}"
        )

    with_cp = np.concatenate([symbols[:, frame_len - fc.cp_len :], symbols], axis=1)
    nfft = scipy.fft.next_fast_len(frame_len + fc.cp_len + length - 1)
    sig_fd = np.fft.fft(with_cp, n=nfft, axis=1)
    taps_fd = np.fft.fft(ch.taps, n=nfft, axis=2)
    mixed = np.fft.ifft((sig_fd[np.newaxis, :, :] * taps_fd).sum(axis=1), axis=1)
    received = mixed[:, fc.cp_len : fc.cp_len + frame_len]

    sigma = np.sqrt(fc.sigma_w2 / 2.0)
    noise = sigma * (
        rng.standard_normal((m_ant, frame_len)) + 1j * rng.standard_normal((m_ant, frame_len))
    )
    return ReceivedFrame(samples=received + noise, domain=TIME)


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
