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
"""

from __future__ import annotations

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
        if not 0 < low < high:
            raise ValueError(f"power_spread must satisfy 0 < low < high, got {self.power_spread}")
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
