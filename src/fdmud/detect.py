"""Uplink detectors, each written once on (N, M, K) bin stacks.

The detectors share the per-bin signal model ``y_n = A_n s_n + w_n``:

* ``MMSE``: unbiased MMSE using the M x M receive-side solve.
* ``MRC_MMSE``: unbiased MMSE applied to the K matched-filter /
  ratio-combined statistics ``A^H y``, needing only a K x K inverse.
  Algebraically identical to ``MMSE``; the equality is enforced by the test
  suite, not assumed at runtime, so the two stay separate code.
* ``TR_MRC`` and ``LOW_SNR``: the diagonally-unbiased matched filter
  ``A^H y / diag(A^H A)``, independent of the noise variance.  It is the
  time-reversal MRC baseline and also the noise-dominated limit of unbiased
  MMSE, so both kinds run the one kernel.
* ``HIGH_SNR_ZF``: the zero-forcing limit.

Each estimator is one private kernel over a stack of bins.  ``detect_frame``
runs it on all N bins and returns time-domain estimates; ``mmse_bin``,
``mrc_bin`` and ``mrcmmse_bin`` are the single-bin entry points, the first
and last running their kernel as the N = 1 stack.  Only the M x M MMSE
kernel loops over bins.  Every unbiasing reciprocal goes through one guard
that names the first bin whose gain vanishes.  The MRC-MMSE kernel also
returns its per-bin regularized Gram inverses and per-user unbiasing
coefficients so the downlink precoder can reuse both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import BinChannel
from .frame import FREQUENCY, ReceivedFrame
from .numerics import (
    DegenerateScaleError,
    SingularMatrixError,
    _split,
    diag_of_product,
    invert_hpd,
    solve_hpd,
)

__all__ = [
    "DetectorKind",
    "InverseCache",
    "DetectionResult",
    "mmse_bin",
    "mrc_bin",
    "mrcmmse_bin",
    "detect_frame",
]

# Unbiasing gains at or below this magnitude are refused, not inverted.
_GAIN_FLOOR = 1e-300


class DetectorKind(enum.Enum):
    MMSE = "mmse"
    MRC_MMSE = "mrc_mmse"
    TR_MRC = "tr_mrc"
    LOW_SNR = "low_snr"
    HIGH_SNR_ZF = "high_snr_zf"


@dataclass(frozen=True)
class InverseCache:
    """Per-bin regularized Gram inverses, shared between uplink and downlink.

    ``inv`` has shape (N, K, K); ``inv[n]`` is the inverse of
    ``A_n^H A_n + sigma_w2 I``.

    ``unbias`` has shape (N, K) and is real: ``unbias[n, k]`` is the uplink
    MRC-MMSE unbiasing coefficient ``1 / diag(inv[n] A_n^H A_n)[k]``.  The
    downlink precoder uses it as its own unbiasing scalar, since
    ``diag(conj(G) conj(inv)) = conj(diag(inv G))`` when ``inv`` commutes
    with ``G``.  It is ``None`` for a cache built from inverses alone, in
    which case the precoder forms the downlink Gram to obtain it.
    """

    inv: np.ndarray
    sigma_w2: float
    unbias: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.unbias is not None and np.shape(self.unbias) != np.shape(self.inv)[:-1]:
            raise ValueError(
                f"unbias shape {np.shape(self.unbias)} does not match inverses {np.shape(self.inv)}"
            )


@dataclass(frozen=True)
class DetectionResult:
    """K x N time-domain symbol estimates plus the detector that made them."""

    s_hat_time: np.ndarray
    kind: DetectorKind
    cache: Optional[InverseCache] = None


def _unbias(gain: np.ndarray) -> np.ndarray:
    """``1 / gain`` for an (N, K) stack of per-user end-to-end gains.

    Raises :class:`~fdmud.numerics.DegenerateScaleError` naming the first bin
    whose gain vanishes (or is not a number), as a zero-power channel column
    makes it.
    """
    bad = ~(np.abs(gain) > _GAIN_FLOOR)
    if bad.any():
        n, k = np.argwhere(bad)[0]
        raise DegenerateScaleError(
            f"bin {n}: user {k} has a vanishing unbiasing gain (zero-power channel column)"
        )
    return 1.0 / gain


def _check_sigma(sigma_w2: float) -> None:
    if not sigma_w2 > 0:
        raise ValueError(
            "sigma_w2 must be positive; use DetectorKind.HIGH_SNR_ZF for the noise-free limit"
        )


def _matched(a_h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``A_n^H y_n`` for every bin, from ``a_h`` (N, K, M) and ``y`` (N, M)."""
    return np.matmul(a_h, y[:, :, np.newaxis])[..., 0]


def _mmse(a: np.ndarray, y: np.ndarray, sigma_w2: float) -> np.ndarray:
    """:func:`mmse_bin` for every bin of ``a`` (N, M, K) and ``y`` (N, M)."""
    _check_sigma(sigma_w2)
    n_bins, m_ant, k_usr = a.shape
    shift = sigma_w2 * np.eye(m_ant)
    gain = np.empty((n_bins, k_usr), dtype=np.complex128)
    raw = np.empty((n_bins, k_usr), dtype=np.complex128)
    # Per bin on purpose.  At 256 bins of 64 x 14 on a 2-core host (median of
    # 7 runs over four SNRs) this loop takes 65 ms; a stacked Cholesky with
    # one batched solve on [A | y] takes 84 ms, and SciPy's batched cho_solve
    # 175 ms.
    for idx in range(n_bins):
        a_n = a[idx]
        try:
            # Solving with A as the right-hand side stays in the well-conditioned
            # range subspace of the covariance, unlike forming its M x M inverse.
            filt = solve_hpd(a_n @ a_n.conj().T + shift, a_n).conj().T
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"bin {idx}: {exc}", index=idx) from exc
        gain[idx] = diag_of_product(filt, a_n)
        raw[idx] = filt @ y[idx]
    return _unbias(gain) * raw


def _mrc_mmse(a, a_h, matched, sigma_w2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`mrcmmse_bin` for every bin, from ``matched`` = ``A^H y``.

    Returns the estimates, the regularized Gram inverses and the unbiasing
    coefficients, the last two for an :class:`InverseCache`.
    """
    _check_sigma(sigma_w2)
    gram = np.matmul(a_h, a)  # (N, K, K)
    inverses = invert_hpd(gram + sigma_w2 * np.eye(gram.shape[-1]))
    # diag(inv G) = diag(I - sigma_w2 inv) is real; the imaginary part is rounding.
    unbias = _unbias(diag_of_product(inverses, gram).real)
    est = unbias * np.matmul(inverses, matched[:, :, np.newaxis])[..., 0]
    return est, inverses, unbias


def _low_snr(a, a_h, matched) -> np.ndarray:
    """TR-MRC, which is also the noise-dominated limit: ``inv(diag(A^H A)) A^H y``.

    TR-MRC's ``(1/M) A^H y`` scaled per user by ``M / diag(A^H A)`` is the
    same estimator; the diagonal unbias splits its error cleanly into
    interference plus noise.
    """
    return _unbias(diag_of_product(a_h, a).real) * matched


def _zf(a, a_h, matched) -> np.ndarray:
    """The zero-forcing limit ``(A^H A)^-1 A^H y``."""
    inverses = invert_hpd(np.matmul(a_h, a))
    return np.matmul(inverses, matched[:, :, np.newaxis])[..., 0]


def _check_bin_args(a_n, y_n, tall: bool = False):
    a_n = np.asarray(a_n)
    y_n = np.asarray(y_n)
    if a_n.ndim != 2:
        raise ValueError(f"a_n must be 2-D, got shape {a_n.shape}")
    if y_n.shape != (a_n.shape[0],):
        raise ValueError(f"y_n shape {y_n.shape} does not match a_n shape {a_n.shape}")
    if tall and a_n.shape[0] < a_n.shape[1]:
        raise ValueError(f"a_n must have at least as many rows as columns, got {a_n.shape}")
    return a_n, y_n


def mmse_bin(a_n, y_n, sigma_w2: float) -> np.ndarray:
    """Unbiased per-bin MMSE estimate via the M x M receive-side solve.

    Computes ``a o A^H (A A^H + sigma_w2 I)^-1 y`` where the coefficient
    vector ``a`` is the element-wise inverse of the diagonal of the
    end-to-end map, making each user's estimate unbiased.

    ``sigma_w2`` must be strictly positive; for the noise-free limit use
    ``DetectorKind.HIGH_SNR_ZF``, the same estimator without regularization.
    """
    a_n, y_n = _check_bin_args(a_n, y_n, tall=True)
    return _mmse(a_n[np.newaxis], y_n[np.newaxis], sigma_w2)[0]


def mrc_bin(a_n, y_n) -> np.ndarray:
    """Matched-filter / ratio-combined statistic ``(1/M) A^H y`` (length K)."""
    a_n, y_n = _check_bin_args(a_n, y_n)
    a_h = a_n[np.newaxis].conj().transpose(0, 2, 1)
    return _matched(a_h, y_n[np.newaxis])[0] / a_n.shape[0]


def mrcmmse_bin(a_n, r_n, sigma_w2: float) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased MMSE estimate from the combined statistics of :func:`mrc_bin`.

    Parameters
    ----------
    a_n : array_like
        M x K per-bin channel matrix (the same one used to form ``r_n``).
    r_n : array_like
        Length-K output of :func:`mrc_bin` for this bin.
    sigma_w2 : float
        Noise variance; strictly positive.

    Returns
    -------
    (estimate, inverse)
        The K unbiased symbol estimates and the K x K inverse of
        ``A^H A + sigma_w2 I``, returned for caching.  Only this K x K
        inversion is performed.
    """
    a_n = np.asarray(a_n)
    r_n = np.asarray(r_n)
    if a_n.ndim != 2 or r_n.shape != (a_n.shape[1],):
        raise ValueError(f"r_n shape {r_n.shape} does not match a_n shape {a_n.shape}")
    a = a_n[np.newaxis]
    matched = (a_n.shape[0] * r_n)[np.newaxis]
    est, inverses, _ = _mrc_mmse(a, a.conj().transpose(0, 2, 1), matched, sigma_w2)
    return est[0], inverses[0]


def detect_frame(
    rf: ReceivedFrame, bc: BinChannel, sigma_w2: float, kind: DetectorKind
) -> DetectionResult:
    """Run one detector over all N bins and return time-domain estimates.

    The received frame must already be in the frequency domain.  Bins are
    processed independently; ``TR_MRC`` and ``LOW_SNR`` run the same kernel.
    For ``DetectorKind.MRC_MMSE`` the per-bin K x K inverses and unbiasing
    coefficients are collected into an :class:`InverseCache` on the result.
    A singular bin raises :class:`~fdmud.numerics.SingularMatrixError` and a
    zero-power channel column :class:`~fdmud.numerics.DegenerateScaleError`,
    each naming the first offending bin.
    """
    if rf.domain != FREQUENCY:
        raise ValueError("detect_frame requires a frequency-domain frame")
    a = np.asarray(bc.a)
    y = np.asarray(rf.samples)
    n_bins, m_ant, k_usr = a.shape
    if y.shape != (m_ant, n_bins):
        raise ValueError(f"frame shape {y.shape} does not match bin channels {a.shape}")
    y = y.T  # (N, M)

    if kind is DetectorKind.MMSE:
        est = _mmse(a, y, sigma_w2)
        cache = None
    else:
        if not isinstance(kind, DetectorKind):
            raise ValueError(f"unknown detector kind: {kind!r}")
        est = np.empty((n_bins, k_usr), dtype=np.complex128)
        if kind is DetectorKind.MRC_MMSE:
            cache = InverseCache(
                inv=np.empty((n_bins, k_usr, k_usr), dtype=np.complex128),
                sigma_w2=float(sigma_w2),
                unbias=np.empty((n_bins, k_usr)),
            )
        else:
            cache = None

        def run(lo: int, hi: int) -> None:
            a_c = a[lo:hi]
            a_h = a_c.conj().transpose(0, 2, 1)  # (n, K, M)
            matched = _matched(a_h, y[lo:hi])
            if cache is not None:
                est[lo:hi], cache.inv[lo:hi], cache.unbias[lo:hi] = _mrc_mmse(
                    a_c, a_h, matched, sigma_w2
                )
            elif kind is DetectorKind.HIGH_SNR_ZF:
                est[lo:hi] = _zf(a_c, a_h, matched)
            else:
                est[lo:hi] = _low_snr(a_c, a_h, matched)

        _split(n_bins, run, a.size + y.size)

    s_hat_time = np.fft.ifft(est.T, axis=1, norm="ortho")
    return DetectionResult(s_hat_time=s_hat_time, kind=kind, cache=cache)
