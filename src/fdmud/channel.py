"""Random multipath channel generation and per-bin eigenvalue matrices.

Channels follow an exponential power delay profile with a per-antenna power
spread: each antenna/user pair draws its own total power uniformly from the
configured interval, and the set of per-antenna powers for a user is then
rescaled multiplicatively so the average over antennas is exactly one.  Tap
vectors are scaled to carry exactly their assigned power, which makes both
normalization invariants hold to rounding rather than only in expectation.

Generation is keyed per (seed, antenna, user), so draws are order-independent
and identical configs reproduce bit-identical realizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelConfig",
    "ChannelRealization",
    "BinChannel",
    "draw_channel",
    "to_bin_channels",
    "build_circulant",
    "dump_taps",
    "load_taps",
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
        Non-negative 64-bit seed keying every per-pair stream.
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
    profile = np.exp(-np.arange(length) / config.decay_samples)
    profile /= profile.sum()
    root_profile = np.sqrt(profile / 2.0)
    low, high = config.power_spread

    taps = np.empty((m_ant, k_usr, length), dtype=np.complex128)
    powers = np.empty((m_ant, k_usr))
    for m in range(m_ant):
        for k in range(k_usr):
            rng = np.random.default_rng([config.seed, m, k])
            z = root_profile * (rng.standard_normal(length) + 1j * rng.standard_normal(length))
            powers[m, k] = rng.uniform(low, high)
            taps[m, k] = z * np.sqrt(powers[m, k]) / np.linalg.norm(z)

    # Per-user multiplicative rescale: average antenna power becomes exactly 1.
    taps *= np.sqrt(m_ant / powers.sum(axis=0))[np.newaxis, :, np.newaxis]
    return ChannelRealization(taps=taps, config=config)


def to_bin_channels(realization: ChannelRealization) -> BinChannel:
    """Transform a realization into its N per-bin coefficient matrices."""
    n = realization.config.frame_len
    # Unnormalized DFT, unlike the unitary one used for signal and noise: the
    # DFT of a zero-padded impulse response is exactly the eigenvalue set of
    # its circulant channel matrix.
    spectra = np.fft.fft(realization.taps, n=n, axis=2)
    return BinChannel(a=np.ascontiguousarray(spectra.transpose(2, 0, 1)))


def build_circulant(h, n: int) -> np.ndarray:
    """Dense circulant matrix whose first column is ``h`` zero-padded to n.

    Column j is the zero-padded ``h`` cyclically shifted down j positions, so
    multiplying by the result performs circular convolution with ``h``.
    """
    h = np.asarray(h)
    if h.ndim != 1:
        raise ValueError("h must be 1-D")
    if h.size > n:
        raise ValueError(f"impulse response longer than matrix size: {h.size} > {n}")
    col = np.zeros(n, dtype=np.result_type(h.dtype, np.complex128))
    col[: h.size] = h
    shifts = (np.arange(n)[:, np.newaxis] - np.arange(n)[np.newaxis, :]) % n
    return col[shifts]


def dump_taps(realization: ChannelRealization, path) -> None:
    """Write taps as a binary table of (m, k, l, re, im) rows.

    Each row is five little-endian 64-bit floats; antenna, user and lag
    indices are stored as exact small integers in float form.  Intended for
    reproducibility audits, not as a primary storage format.
    """
    m_ant, k_usr, length = realization.taps.shape
    m_idx, k_idx, l_idx = np.meshgrid(
        np.arange(m_ant), np.arange(k_usr), np.arange(length), indexing="ij"
    )
    table = np.column_stack(
        [
            m_idx.ravel().astype(np.float64),
            k_idx.ravel().astype(np.float64),
            l_idx.ravel().astype(np.float64),
            realization.taps.real.ravel(),
            realization.taps.imag.ravel(),
        ]
    )
    table.astype("<f8").tofile(path)


def load_taps(path) -> np.ndarray:
    """Read a tap table written by :func:`dump_taps` back into (M, K, L) form.

    Every (m, k, l) index must be a finite non-negative integer, and the rows
    must cover the index grid exactly once; a dump that breaks this is
    rejected rather than loaded with taps silently overwritten or zeroed.
    """
    raw = np.fromfile(path, dtype="<f8")
    if raw.size == 0 or raw.size % 5 != 0:
        raise ValueError("malformed tap dump: row count not a multiple of 5 floats")
    table = raw.reshape(-1, 5)
    rows = table.shape[0]
    index = table[:, :3]
    if not np.all(np.isfinite(index)):
        raise ValueError("malformed tap dump: non-finite index")
    if np.any(index != np.floor(index)):
        raise ValueError("malformed tap dump: fractional index")
    if np.any(index < 0):
        raise ValueError("malformed tap dump: negative index")
    # Checked before the integer cast, which a huge value would overflow; no
    # dimension of a complete grid can exceed the row count anyway.
    if np.any(index >= rows):
        raise ValueError("malformed tap dump: index out of range for the row count")
    m_i, k_i, l_i = index.astype(np.int64).T
    m_ant, k_usr, length = int(m_i.max()) + 1, int(k_i.max()) + 1, int(l_i.max()) + 1
    if rows != m_ant * k_usr * length:
        raise ValueError("malformed tap dump: incomplete index grid")
    flat = np.ravel_multi_index((m_i, k_i, l_i), (m_ant, k_usr, length))
    if np.unique(flat).size != rows:
        raise ValueError("malformed tap dump: duplicate index")
    taps = np.zeros((m_ant, k_usr, length), dtype=np.complex128)
    taps[m_i, k_i, l_i] = table[:, 3] + 1j * table[:, 4]
    return taps
