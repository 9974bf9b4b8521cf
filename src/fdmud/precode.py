"""Downlink MMSE precoder with uplink matrix-inverse reuse.

In a TDD system the downlink per-bin inverse ``(A^T A^* + sigma_w2 I)^-1`` is
the entry-wise complex conjugate of the uplink inverse already computed by
the MRC-MMSE detector.  Per-user unbiasing scalars mirror the uplink
convention: the noiseless end-to-end gain of each user is unity before the
per-user amplitude allocation is applied, and they equal the uplink
MRC-MMSE unbiasing coefficients.  So precoding from an
:class:`~fdmud.detect.InverseCache` costs a conjugation and forms no
downlink Gram at all.  The direct path forms its own Gram stack and inverts
it with one stacked call; its agreement with the cache path is the
cross-check the test suite runs.

The precoder algebra is written once, over a whole stack of bins, in
``precode_frame``; one bin is the N = 1 frame (a length-1 unitary DFT is the
identity).  End-to-end downlink performance evaluation is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import BinChannel
from .detect import InverseCache, _unbias
from .frame import SymbolFrame
from .numerics import _split, diag_of_product, invert_hpd

__all__ = [
    "PowerAllocation",
    "PrecodeResult",
    "precode_frame",
]


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user amplitude scalars (the diagonal of the power-allocation root).

    The all-ones default transmits equal power toward every user.
    """

    p_sqrt: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p_sqrt, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p_sqrt must be a nonempty 1-D vector")
        if not np.all(p > 0):
            raise ValueError("p_sqrt entries must be positive")
        object.__setattr__(self, "p_sqrt", p)

    @classmethod
    def uniform(cls, num_users: int) -> "PowerAllocation":
        return cls(p_sqrt=np.ones(num_users))


@dataclass(frozen=True)
class PrecodeResult:
    """M x N frequency-domain transmit samples and the K x N unbiasing scalars."""

    x: np.ndarray
    beta_used: np.ndarray

    @property
    def transmit_power(self) -> float:
        """Total radiated power across antennas and bins (diagnostic; no
        sum-power normalization is applied by the precoder)."""
        return float(np.sum(np.abs(self.x) ** 2))


def precode_frame(
    sf: SymbolFrame,
    bc: BinChannel,
    sigma_w2: float,
    power: Optional[PowerAllocation] = None,
    cache: Optional[InverseCache] = None,
) -> PrecodeResult:
    """Precode a whole symbol frame into M frequency-domain transmit streams.

    Symbols are transformed per user with the unitary DFT and each bin is
    precoded independently as ``x_n = A_n^* dl_inv_n P^(1/2) (beta_n o s_n)``,
    with ``beta`` the per-user scale making the noiseless end-to-end downlink
    gain unity.  When ``cache`` is given, the downlink inverses are its
    conjugated entries and the unbiasing scalars its ``unbias``; otherwise
    both are computed directly from the downlink Gram
    ``A^T A^* + sigma_w2 I``.  Both paths agree to rounding, which the test
    suite checks.  ``sigma_w2`` must be finite and non-negative; zero gives
    the zero-forcing precoder.  On the direct path a singular bin raises
    :class:`~fdmud.numerics.SingularMatrixError` and a zero-power channel
    column :class:`~fdmud.numerics.DegenerateScaleError`, each naming the
    first offending bin.

    No transmit sum-power renormalization is applied; callers wanting a power
    diagnostic can take ``norm(x)**2`` themselves.
    """
    if not (np.isfinite(sigma_w2) and sigma_w2 >= 0):
        raise ValueError(f"sigma_w2 must be finite and non-negative, got {sigma_w2}")
    symbols = np.asarray(sf.symbols)
    a = np.asarray(bc.a)
    n_bins, m_ant, k_usr = a.shape
    if symbols.shape != (k_usr, n_bins):
        raise ValueError(f"symbol frame {symbols.shape} does not match bin channels {a.shape}")
    if power is None:
        power = PowerAllocation.uniform(k_usr)
    if power.p_sqrt.shape != (k_usr,):
        raise ValueError(f"power allocation has {power.p_sqrt.size} entries, need {k_usr}")

    s_fd = np.fft.fft(symbols, axis=1, norm="ortho").T  # (N, K)

    if cache is not None:
        if cache.inv.shape != (n_bins, k_usr, k_usr):
            raise ValueError(f"cache shape {cache.inv.shape} does not match {(n_bins, k_usr, k_usr)}")
        # Relative only: an absolute floor would equate any two tiny variances.
        if not np.isclose(cache.sigma_w2, sigma_w2, rtol=1e-12, atol=0.0):
            raise ValueError(
                f"cache was built for sigma_w2={cache.sigma_w2}, precoder asked for {sigma_w2}"
            )
    x = np.empty((n_bins, m_ant), dtype=np.complex128)
    cached_beta = cache is not None and cache.unbias is not None
    beta = cache.unbias if cached_beta else np.empty((n_bins, k_usr))

    def run(lo: int, hi: int) -> None:
        a_c = a[lo:hi]
        dl_inv = None if cache is None else np.conj(cache.inv[lo:hi])
        if not cached_beta:
            gram_dl = np.matmul(a_c.transpose(0, 2, 1), a_c.conj())  # (n, K, K): A^T A^*
            if dl_inv is None:
                dl_inv = invert_hpd(gram_dl + sigma_w2 * np.eye(k_usr))
            beta[lo:hi] = _unbias(diag_of_product(gram_dl, dl_inv).real)
        v = np.matmul(dl_inv, (power.p_sqrt * beta[lo:hi] * s_fd[lo:hi])[:, :, np.newaxis])
        # A^* v as conj(A conj(v)): the same products, without a conjugated copy of A.
        x[lo:hi] = np.matmul(a_c, v.conj()).conj()[..., 0]

    _split(n_bins, run, a.size + s_fd.size)
    return PrecodeResult(x=x.T, beta_used=beta.T)
