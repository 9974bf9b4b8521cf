"""Per-bin uplink detectors and frame-level orchestration.

The detectors share the per-bin signal model ``y_n = A_n s_n + w_n``:

* ``mmse_bin``: unbiased MMSE using the M x M receive-side inverse.
* ``mrcmmse_bin``: unbiased MMSE applied to the K matched-filter /
  ratio-combined statistics of ``mrc_bin``, needing only a K x K inverse.
  Algebraically identical to ``mmse_bin``; the equality is enforced by the
  test suite, not assumed at runtime.
* ``lowsnr_bin``: the noise-dominated limit, a diagonally-unbiased matched
  filter independent of the noise variance.
* ``highsnr_bin``: the zero-forcing limit.

Frame-level detection applies one detector kind (including the plain TR-MRC
baseline) to all N bins and returns time-domain symbol estimates.  Every
K x K path works on the whole (N, K, K) Gram stack at once, with one stacked
:func:`~fdmud.numerics.invert_hpd` call and no Python loop over bins; only
the M x M MMSE path still loops, per bin, over ``mmse_bin``.  The MRC-MMSE
path also captures the per-bin regularized Gram inverses and its per-user
unbiasing coefficients so the downlink precoder can reuse both.
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
    diag_of_product,
    elem_inverse,
    hadamard,
    hermitian,
    invert_hpd,
    matmul,
    solve_hpd,
)

__all__ = [
    "DetectorKind",
    "InverseCache",
    "DetectionResult",
    "mmse_bin",
    "mrc_bin",
    "mrcmmse_bin",
    "lowsnr_bin",
    "highsnr_bin",
    "detect_frame",
]


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
    """Unbiased per-bin MMSE estimate via the M x M receive-side inverse.

    Computes ``a o A^H (A A^H + sigma_w2 I)^-1 y`` where the coefficient
    vector ``a`` is the element-wise inverse of the diagonal of the
    end-to-end map, making each user's estimate unbiased.

    ``sigma_w2`` must be strictly positive; for the noise-free limit use
    :func:`highsnr_bin`, which is the same estimator without regularization.
    """
    a_n, y_n = _check_bin_args(a_n, y_n, tall=True)
    if not sigma_w2 > 0:
        raise ValueError("sigma_w2 must be positive; use highsnr_bin for the noise-free limit")
    m = a_n.shape[0]
    cov = matmul(a_n, hermitian(a_n)) + sigma_w2 * np.eye(m)
    # Solving with A as the right-hand side stays in the well-conditioned
    # range subspace of cov, unlike forming the explicit M x M inverse.
    filt = hermitian(solve_hpd(cov, a_n))
    unbias = elem_inverse(diag_of_product(filt, a_n))
    return hadamard(unbias, matmul(filt, y_n))


def mrc_bin(a_n, y_n) -> np.ndarray:
    """Matched-filter / ratio-combined statistic ``(1/M) A^H y`` (length K)."""
    a_n, y_n = _check_bin_args(a_n, y_n)
    return matmul(hermitian(a_n), y_n) / a_n.shape[0]


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
    if not sigma_w2 > 0:
        raise ValueError("sigma_w2 must be positive; use highsnr_bin for the noise-free limit")
    m, k = a_n.shape
    gram = matmul(hermitian(a_n), a_n)
    inverse = invert_hpd(gram + sigma_w2 * np.eye(k))
    unbias = elem_inverse(diag_of_product(inverse, gram))
    estimate = hadamard(unbias, m * matmul(inverse, r_n))
    return estimate, inverse


def lowsnr_bin(a_n, y_n) -> np.ndarray:
    """Noise-dominated limit: diagonally-unbiased matched filter.

    Computes ``inv(diag(A^H A)) A^H y``; no noise variance is needed.  A
    vanishing diagonal entry (an all-zero channel column) raises
    :class:`~fdmud.numerics.DegenerateScaleError`.
    """
    a_n, y_n = _check_bin_args(a_n, y_n)
    column_power = diag_of_product(hermitian(a_n), a_n)
    return hadamard(elem_inverse(column_power), matmul(hermitian(a_n), y_n))


def highsnr_bin(a_n, y_n) -> np.ndarray:
    """Zero-forcing limit ``(A^H A)^-1 A^H y``; exact on noise-free input.

    Raises :class:`~fdmud.numerics.SingularMatrixError` when ``a_n`` is not
    full column rank.
    """
    a_n, y_n = _check_bin_args(a_n, y_n, tall=True)
    gram = matmul(hermitian(a_n), a_n)
    return solve_hpd(gram, matmul(hermitian(a_n), y_n))


def _invert_gram_stack(gram: np.ndarray, shift: float) -> np.ndarray:
    """Invert every (K x K) slice of ``gram + shift I``, naming a failing bin."""
    try:
        return invert_hpd(gram + shift * np.eye(gram.shape[-1]))
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"bin {exc.index}: Cholesky factorization failed (not positive definite)",
            index=exc.index,
        ) from exc


def _column_power_stack(a_h: np.ndarray, a: np.ndarray) -> np.ndarray:
    """diag(A_n^H A_n) for every bin from ``a_h`` and ``a``: shape (N, K), real."""
    power = diag_of_product(a_h, a).real
    if np.any(power <= 0):
        bad = int(np.argwhere(power <= 0)[0][0])
        raise DegenerateScaleError(f"bin {bad}: zero-power channel column")
    return power


def detect_frame(
    rf: ReceivedFrame, bc: BinChannel, sigma_w2: float, kind: DetectorKind
) -> DetectionResult:
    """Run one detector over all N bins and return time-domain estimates.

    The received frame must already be in the frequency domain.  Bins are
    processed independently (the implementation batches them for speed, which
    is observationally identical to a per-bin loop).  For
    ``DetectorKind.MRC_MMSE`` the per-bin K x K inverses and unbiasing
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

    a_h = a.conj().transpose(0, 2, 1)  # (N, K, M)
    matched = np.matmul(a_h, y.T[:, :, np.newaxis])[..., 0]  # (N, K): A^H y per bin
    cache = None

    if kind is DetectorKind.MMSE:
        if not sigma_w2 > 0:
            raise ValueError("sigma_w2 must be positive for the MMSE detector")
        # Per bin on purpose: at N = 256, M = 64 on a 2-core host NumPy's
        # stacked M x M Cholesky alone takes about 30 ms of this loop's
        # 43-48 ms, so a stacked factor-and-solve would not pay.
        est = np.empty((n_bins, k_usr), dtype=np.complex128)
        for idx in range(n_bins):
            try:
                est[idx] = mmse_bin(a[idx], y[:, idx], sigma_w2)
            except SingularMatrixError as exc:
                raise SingularMatrixError(f"bin {idx}: {exc}", index=idx) from exc
    elif kind is DetectorKind.MRC_MMSE:
        if not sigma_w2 > 0:
            raise ValueError("sigma_w2 must be positive for the MRC-MMSE detector")
        gram = np.matmul(a_h, a)  # (N, K, K)
        inverses = _invert_gram_stack(gram, sigma_w2)
        raw = np.matmul(inverses, matched[:, :, np.newaxis])[..., 0]
        # diag(inv G) = diag(I - sigma_w2 inv) is real; the imaginary part is rounding.
        unbias = 1.0 / diag_of_product(inverses, gram).real
        est = unbias * raw
        cache = InverseCache(inv=inverses, sigma_w2=float(sigma_w2), unbias=unbias)
    elif kind is DetectorKind.TR_MRC:
        # Combined statistic scaled per user by M / diag(A^H A): the
        # diagonal unbias that makes its error split cleanly into
        # interference plus noise.
        combined = matched / m_ant
        est = combined * (m_ant / _column_power_stack(a_h, a))
    elif kind is DetectorKind.LOW_SNR:
        est = matched / _column_power_stack(a_h, a)
    elif kind is DetectorKind.HIGH_SNR_ZF:
        gram = np.matmul(a_h, a)
        inverses = _invert_gram_stack(gram, 0.0)
        est = np.matmul(inverses, matched[:, :, np.newaxis])[..., 0]
    else:
        raise ValueError(f"unknown detector kind: {kind!r}")

    s_hat_time = np.fft.ifft(est.T, axis=1, norm="ortho")
    return DetectionResult(s_hat_time=s_hat_time, kind=kind, cache=cache)
