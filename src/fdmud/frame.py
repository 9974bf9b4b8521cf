"""Symbol generation, cyclic-prefix transmission and frequency-domain framing.

``transmit`` is the library's one transmitter emulation, and it assumes
nothing about the channel: the cyclic prefix is prepended, the frame is
linearly convolved with each impulse response, user contributions are
summed, white Gaussian noise is added, and the prefix is discarded.  It
convolves by overlap-save on the P-point layout that
``channel._tap_correlations`` correlates on, so one layout serves the
channel and its adjoint.  The Monte-Carlo sweep's M x M MMSE reference
detects ``to_frequency_domain`` of its output.

The sweep's K x K detectors read only ``A_n^H A_n`` and ``A_n^H y_n``.  It
forms the second as ``A_n^H A_n s_n + A_n^H w_n``, both terms from the
taps and the same noise draw (``channel._tap_correlations`` and
``channel._lag_gram``), with no (N, M, K) stack ``A`` and no received
frame.  Those statistics assume that the cyclic prefix makes every channel
circulant, which ``transmit`` does not.  The assumption is proved, not
trusted: ``verify.check_cp_circularity`` compares ``transmit`` with the
per-bin model ``A_n s_n + w_n``, and the test suite checks the statistics
against those of the frame ``transmit`` sends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _BLOCK_ANTENNAS, ChannelRealization, _check_integer, _overlap_save

__all__ = [
    "FrameConfig",
    "SymbolFrame",
    "ReceivedFrame",
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
    noise variance per received sample is ``10**(-snr_db / 10)``: 0 for a
    noise-free path at ``snr_db=inf`` (or above about 3236.07 dB), and an
    SNR whose variance is not finite (``nan``, ``-inf``, or at or below
    about -3082.5 dB) is rejected.
    """

    frame_len: int
    cp_len: int
    constellation: str = "qpsk"
    snr_db: float = 0.0

    def __post_init__(self):
        _check_integer("frame_len", self.frame_len)
        _check_integer("cp_len", self.cp_len)
        if not self.sigma_w2 < np.inf:
            raise ValueError(f"snr_db={self.snr_db} gives no finite noise variance")
        if self.frame_len <= 0:
            raise ValueError("frame_len must be positive")
        if not 0 <= self.cp_len <= self.frame_len:
            raise ValueError("cp_len must lie in [0, frame_len]")
        constellation_points(self.constellation)

    @property
    def sigma_w2(self) -> float:
        """Noise variance per sample implied by the input SNR."""
        try:  # Python floats, which raise where the variance overflows
            return 10.0 ** (-float(self.snr_db) / 10.0)
        except OverflowError:
            return np.inf


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
    """Time-domain noise of ``transmit`` and the sweep's statistics: one draw order, one stream."""
    sigma = np.sqrt(sigma_w2 / 2.0)
    # The bytes of ``sigma * (x + 1j * y)``, written into one array with no
    # complex temporaries.
    noise = np.empty((num_antennas, frame_len), dtype=np.complex128)
    np.multiply(sigma, rng.standard_normal((num_antennas, frame_len)), out=noise.real)
    np.multiply(sigma, rng.standard_normal((num_antennas, frame_len)), out=noise.imag)
    return noise


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

    The convolution is overlap-save at ``P = _next_fast_len(2L - 1)``
    points (``channel._overlap_save``): windows of P samples of the
    prefix-extended frame, ``P - L + 1`` apart and read as zeros past its
    end, take one FFT; each block of antennas multiplies its taps' P-point
    spectra by them, one K-column product per point, and keeps all but the
    first ``L - 1`` outputs of each window's inverse FFT.  No index wraps,
    so nothing here assumes the channel circular.
    """
    symbols = np.asarray(sf.symbols)
    m_ant, k_usr, length = ch.taps.shape
    sent_users, frame_len = symbols.shape
    if sent_users != k_usr:
        raise ValueError(f"user count mismatch: frame has {sent_users}, channel has {k_usr}")
    if frame_len != fc.frame_len:
        raise ValueError(f"frame length mismatch: frame has {frame_len}, config has {fc.frame_len}")
    _check_cp(length, fc.cp_len)
    cp_len = fc.cp_len

    p, step, n_segments = _overlap_save(length, frame_len)
    # Window j starts L - 1 samples before output j * step, inside the
    # prefix since cp >= L + 1; past the frame's end it reads zeros.
    start = cp_len - (length - 1)
    with_cp = np.zeros((k_usr, cp_len + n_segments * step), dtype=np.complex128)
    with_cp[:, :cp_len] = symbols[:, frame_len - cp_len :]
    with_cp[:, cp_len : cp_len + frame_len] = symbols
    index = start + np.arange(p)[:, np.newaxis] + step * np.arange(n_segments)
    windows = np.fft.fft(with_cp.T[index].transpose(0, 2, 1), axis=0)  # (P, K, segments)
    noise = _awgn(m_ant, frame_len, fc.sigma_w2, rng)
    samples = np.empty((m_ant, frame_len), dtype=np.complex128)
    for lo in range(0, m_ant, _BLOCK_ANTENNAS):
        hi = min(lo + _BLOCK_ANTENNAS, m_ant)
        # Entry p is this block's (hi - lo) x K channel at the p-th point.
        spectra = np.zeros((p, hi - lo, k_usr), dtype=np.complex128)
        spectra[:length] = ch.taps[lo:hi].transpose(2, 0, 1)
        np.fft.fft(spectra, axis=0, out=spectra)
        mixed = np.fft.ifft(np.matmul(spectra, windows), axis=0)[length - 1 :]
        mixed = mixed.transpose(1, 2, 0).reshape(hi - lo, n_segments * step)[:, :frame_len]
        np.add(mixed, noise[lo:hi], out=samples[lo:hi])
    return ReceivedFrame(samples=samples, domain=TIME)


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
