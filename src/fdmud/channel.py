"""Random multipath channel generation and per-bin eigenvalue matrices.

Channels follow an exponential power delay profile with a per-antenna power
spread: each antenna/user pair draws its own total power uniformly from the
configured interval, and the set of per-antenna powers for a user is then
rescaled multiplicatively so the average over antennas is exactly one.  Tap
vectors are scaled to carry exactly their assigned power, which makes both
normalization invariants hold to rounding rather than only in expectation.

One generator, seeded with the config's seed, makes each draw: first every
tap of every antenna/user pair, then every pair's power.  Identical configs
reproduce bit-identical realizations; the Monte-Carlo runner keeps frames
order-independent by deriving each frame's seed from (seed, point, frame).

Because the cyclic prefix makes every channel circulant, bin n's Gram
``A_n^H A_n`` is the DFT of the channel's K x K autocorrelation, which has
only ``2L - 1`` lags, and ``A_n^H y_n`` the DFT of the taps' correlation
with the time-domain signal.  ``_tap_correlations`` forms the lags and
``A^H y`` for all N bins from one FFT of the taps, in one pass over blocks
of antennas, and ``_lag_gram`` takes the lags to the N Grams, so the
Monte-Carlo sweep never builds the (N, M, K) stack ``A`` that
``to_bin_channels`` returns: at 256 x 16 x 4096 that stack alone is 268 MB.
The two are separate steps so that the sweep can free the taps and the
signal between them, and the Gram, the largest array of a sweep frame,
takes their space.
``frame.transmit`` applies the channel itself by overlap-save on the same
P-point layout (``_overlap_save``) and the same blocks of antennas, so one
layout serves the channel and its adjoint.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .numerics import _split

__all__ = [
    "ChannelConfig",
    "ChannelRealization",
    "BinChannel",
    "draw_channel",
    "to_bin_channels",
]


def _check_integer(name: str, value) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is an integer, not a ``bool``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ChannelConfig:
    """Scenario parameters for one uplink channel draw.

    Attributes
    ----------
    num_antennas : int
        Base-station antenna count M.
    num_users : int
        Simultaneous user count K; must satisfy ``1 <= K < M`` so the per-bin
        channel matrices are tall.
    frame_len : int
        Samples per frame N (also the DFT size for the per-bin matrices).
    channel_len : int
        Impulse-response length in samples; at most ``frame_len``.
    decay_samples : float
        Exponential profile constant: tap l carries power proportional to
        ``exp(-l / decay_samples)``.
    power_spread : tuple of float
        (low, high) bounds of the uniform per-antenna power draw, linear.
    seed : int
        Non-negative 64-bit seed of the draw's one generator.
    """

    num_antennas: int
    num_users: int
    frame_len: int
    channel_len: int
    decay_samples: float
    power_spread: tuple[float, float] = (0.1, 1.9)
    seed: int = 0

    def __post_init__(self):
        for name in ("num_antennas", "num_users", "frame_len", "channel_len", "seed"):
            _check_integer(name, getattr(self, name))
        if not 1 <= self.num_users < self.num_antennas:
            raise ValueError(
                f"need 1 <= num_users < num_antennas, got K={self.num_users}, M={self.num_antennas}"
            )
        if not 1 <= self.channel_len <= self.frame_len:
            raise ValueError(
                f"need 1 <= channel_len <= frame_len, got L={self.channel_len}, N={self.frame_len}"
            )
        if not self.decay_samples > 0:
            raise ValueError("decay_samples must be positive")
        low, high = self.power_spread
        if not 0 < low < high < np.inf:
            raise ValueError(f"power_spread must satisfy 0 < low < high < inf, got {self.power_spread}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class ChannelRealization:
    """All M*K impulse responses of one draw.

    ``taps`` has shape (M, K, L) with ``taps[m, k]`` the impulse response
    between antenna m and user k.
    """

    taps: np.ndarray
    config: ChannelConfig


@dataclass(frozen=True)
class BinChannel:
    """Per-bin channel coefficient matrices.

    ``a`` has shape (N, M, K); ``a[n]`` is the M x K matrix whose (m, k)
    entry is bin n of the unnormalized DFT of the zero-padded impulse
    response between antenna m and user k.
    """

    a: np.ndarray


def draw_channel(config: ChannelConfig) -> ChannelRealization:
    """Draw one channel realization.

    Each tap vector is a circularly-symmetric complex Gaussian with the
    exponential profile, normalized so its realized power equals the uniform
    per-antenna draw exactly; the final per-user rescale makes the average
    power over antennas exactly one.
    """
    m_ant, k_usr, length = config.num_antennas, config.num_users, config.channel_len
    rng = np.random.default_rng(config.seed)
    # Real and imaginary parts interleaved in one buffer, viewed in place as
    # complex taps; every scaling below writes into it.
    taps = rng.standard_normal((m_ant, k_usr, length, 2)).view(np.complex128)[..., 0]
    powers = rng.uniform(*config.power_spread, size=(m_ant, k_usr))

    taps *= np.sqrt(np.exp(-np.arange(length) / config.decay_samples))
    # Each vector carries exactly its drawn power, then the per-user
    # multiplicative rescale makes the average antenna power exactly 1.
    scale = np.sqrt(powers * (m_ant / powers.sum(axis=0))) / np.linalg.norm(taps, axis=2)
    taps *= scale[:, :, np.newaxis]
    return ChannelRealization(taps=taps, config=config)


def to_bin_channels(realization: ChannelRealization) -> BinChannel:
    """Transform a realization into its N per-bin coefficient matrices."""
    n = realization.config.frame_len
    taps = realization.taps
    m_ant, k_usr, _ = taps.shape
    a = np.empty((n, m_ant, k_usr), dtype=np.complex128)

    def run(lo: int, hi: int) -> None:
        # Unnormalized DFT, unlike the unitary one used for signal and noise:
        # the DFT of a zero-padded impulse response is exactly the eigenvalue
        # set of its circulant channel matrix.
        a[:, lo:hi] = np.fft.fft(taps[lo:hi], n=n, axis=2).transpose(2, 0, 1)

    # Over antennas, each writing its own column of every bin; the FFT reads
    # each tap row zero-padded to n.
    _split(m_ant, run, a.size)
    return BinChannel(a=a)


def _next_fast_len(target: int) -> int:
    """The smallest FFT length ``>= target >= 1`` with no prime factor above 11.

    These are the lengths pocketfft transforms fastest, and the one
    ``scipy.fft.next_fast_len`` returns for complex input.
    """
    n = target
    while True:
        rest = n
        for prime in (2, 3, 5, 7, 11):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return n
        n += 1


def _check_power(power: np.ndarray, channel_finite) -> None:
    """Raise ``ValueError`` naming the first bin of ``power`` (N, K) that is not finite.

    ``power`` holds each bin's column powers, the diagonal of ``A^H A``.
    Only they need checking: a non-finite channel entry makes its column's
    power non-finite, and finite powers bound the rest of the Gram,
    ``|G_ij| <= sqrt(G_ii G_jj)``.  ``channel_finite(n)`` tells whether bin
    n's channel entries are finite, which tells the two faults apart.
    """
    finite = np.isfinite(power).all(axis=1)
    if not finite.all():
        n = np.flatnonzero(~finite)[0]
        if channel_finite(n):
            raise ValueError(f"bin {n}: the channel's A^H A overflows")
        raise ValueError(f"bin {n}: channel entries must be finite")


def _check_matched(matched: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first bin of ``matched`` (N, K) that is not finite.

    ``matched`` holds each bin's ``A^H y``; from finite taps and a finite
    signal it is non-finite only by overflow.
    """
    finite = np.isfinite(matched).all(axis=1)
    if not finite.all():
        raise ValueError(f"bin {np.flatnonzero(~finite)[0]}: the matched-filter output A^H y overflows")


def _overlap_save(length: int, n_out: int) -> tuple[int, int, int]:
    """``(P, step, segments)``: the overlap-save layout of an L-tap channel.

    Both directions of the channel use it: ``frame.transmit`` convolves
    with the taps and ``_tap_correlations`` correlates with them.  Filtering
    a P-sample window by the product of P-point spectra,
    ``P = _next_fast_len(2L - 1)``, wraps ``L - 1`` of its outputs (the
    first of a convolution, the last of a correlation) and leaves the other
    ``step = P - L + 1`` exact, so ``segments`` windows, ``step`` samples
    apart, give ``n_out`` outputs.
    """
    p = _next_fast_len(2 * length - 1)
    step = p - length + 1
    return p, step, -(-n_out // step)


# Antennas per pass of ``_tap_correlations`` and ``frame.transmit``.  A fixed
# count, not a chunk size from ``numerics``, so that no chunk setting
# reaches their bytes.  From 64 x 14 x 2048 to 256 x 16 x 4096, 16 ran
# fastest or near it, 4 and 8 slower, and whole-M blocks held M x P spectra
# and segments again.
_BLOCK_ANTENNAS = 16


def _correlation_outputs(k_usr: int, length: int, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialised ``lags`` (P, K, K) and ``matched`` (N, K) for :func:`_tap_correlations`.

    A function of their own so that a caller can allocate them before it
    draws the taps and the signal, and the Gram can take those arrays'
    space once they are freed.
    """
    lags = np.empty((_overlap_save(length, n_bins)[0], k_usr, k_usr), dtype=np.complex128)
    return lags, np.empty((n_bins, k_usr), dtype=np.complex128)


def _tap_correlations(
    taps: np.ndarray, signal: np.ndarray, lags: np.ndarray, matched: np.ndarray
) -> None:
    """The taps' lags and ``A_n^H y_n``: the first step of the statistics, with no ``A``.

    ``A`` is ``to_bin_channels`` of the (M, K, L) ``taps`` at the N bins of
    ``signal``, any time-domain (M, N) frame, and ``y`` its unitary DFT.
    Fills ``lags`` (P, K, K), ``P = _next_fast_len(2L - 1)``, with the
    taps' K x K autocorrelation, which :func:`_lag_gram` takes to the bins,
    and ``matched`` (N, K) with ``A^H y``.  Both come from the taps' DFTs
    at P points, where the product of two spectra holds the ``2L - 1`` lags
    of a correlation without wrapping.  With ``R(d) = sum_m sum_l
    conj(h[m, :, l])^T h[m, :, l + d]`` the K x K autocorrelation at lag d,
    ``lags`` holds ``R(0) .. R(L - 1)`` first and ``R(1 - L) .. R(-1)``
    last, from a stacked K x K Gram of the spectra and an inverse FFT.
    ``A_n^H y_n`` is the unitary DFT of each user's circular
    cross-correlation ``c_k[t] = sum_m sum_l conj(h[m, k, l]) y_m[t + l]``,
    formed by overlap-save: the signal is cut into cyclic segments of P
    samples that overlap by L - 1, and each point sums a K x M by
    M x (segments) product over the antennas.

    The caller allocates both outputs (:func:`_correlation_outputs`), so
    that they can sit below the taps and the signal, whose space the Gram
    then takes.  One loop over fixed
    blocks of antennas adds each block's two products into the (P, K, K)
    and (P, K, segments) spectra, so no array here has M x P entries.  The
    results agree with the products over ``A`` to rounding, not bytes.  A
    non-finite tap raises ``ValueError`` naming bin 0; the caller checks
    ``matched`` (:func:`_check_matched`) once it has checked the Gram.
    """
    m_ant, k_usr, length = taps.shape
    n_bins = signal.shape[1]
    # A non-finite tap makes every bin's A^H A non-finite, bin 0 first; it
    # is named here, as the Gram is formed once the taps are gone.
    if not np.isfinite(taps).all():
        raise ValueError("bin 0: channel entries must be finite")
    p, step, n_segments = _overlap_save(length, n_bins)
    starts = (np.arange(p)[:, np.newaxis] + step * np.arange(n_segments)) % n_bins
    lags[...] = 0
    corr_spectra = np.zeros((p, k_usr, n_segments), dtype=np.complex128)
    # The callers' checks report non-finite results, so NumPy need not warn.
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, m_ant, _BLOCK_ANTENNAS):
            hi = min(lo + _BLOCK_ANTENNAS, m_ant)
            # Entry p is this block's K x (hi - lo) part of A^H at the p-th point.
            spectra = np.zeros((p, k_usr, hi - lo), dtype=np.complex128)
            spectra[:length] = taps[lo:hi].transpose(2, 1, 0)
            np.fft.fft(spectra, axis=0, out=spectra)
            np.conjugate(spectra, out=spectra)
            lags += np.matmul(spectra, spectra.conj().transpose(0, 2, 1))
            segments = signal[lo:hi].T[starts]  # (P, segments, hi - lo)
            np.fft.fft(segments, axis=0, out=segments)
            corr_spectra += np.matmul(spectra, segments.transpose(0, 2, 1))
        # The last block's arrays go before the transforms below copy.
        del spectra, segments
        corr = np.fft.ifft(corr_spectra, axis=0, out=corr_spectra)[:step]
        corr = corr.transpose(1, 2, 0).reshape(k_usr, n_segments * step)[:, :n_bins]
        np.fft.fft(corr, axis=1, norm="ortho", out=matched.T)
        np.fft.ifft(lags, axis=0, out=lags)


def _lag_gram(lags: np.ndarray, length: int, n_bins: int) -> np.ndarray:
    """``A_n^H A_n`` (N, K, K) from the (P, K, K) ``lags`` of :func:`_tap_correlations`.

    ``A_n^H A_n`` is ``sum_d R(d) exp(-2j pi n d / N)`` over the ``2L - 1``
    lags: they are folded modulo N (which matters when ``2L - 1 > N``), and
    one FFT takes them to the N bins.  A non-finite Gram raises
    ``ValueError`` naming its bin (see :func:`_check_power`); from the
    finite taps that the correlations admit, it is non-finite only by
    overflow.
    """
    p, k_usr, _ = lags.shape
    gram = np.zeros((n_bins, k_usr, k_usr), dtype=np.complex128)
    # The check below reports a non-finite Gram, so NumPy need not warn.
    with np.errstate(invalid="ignore", over="ignore"):
        gram[:length] = lags[:length]
        gram[np.arange(1 - length, 0) % n_bins] += lags[p + 1 - length :]
        np.fft.fft(gram, axis=0, out=gram)
    _check_power(gram.diagonal(axis1=1, axis2=2), lambda _: True)
    return gram
