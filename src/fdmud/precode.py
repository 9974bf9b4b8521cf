"""Downlink MMSE precoder with uplink matrix-inverse reuse.

In a TDD system the downlink per-bin inverse ``(A^T A^* + sigma_w2 I)^-1``
is the entry-wise complex conjugate of the uplink inverse already computed
by the MRC-MMSE detector.  Per-user unbiasing scalars mirror the uplink
convention: the noiseless end-to-end gain of each user is unity, and they
equal the uplink MRC-MMSE unbiasing coefficients.  So precoding from an
:class:`~fdmud.detect.InverseCache` forms no downlink Gram and no inverse:
every path steers the whole frame in one product from the conjugated
inverses, the layout the cache holds, which it reads as they are.  The
direct path fills that layout in one level of chunks of bins sized by the
``(n, K, K)`` stack: each chunk forms its Gram with the uplink's checked
``detect._gram``, as ``A^T A^* = (A^*)^H A^*``, and inverts it.  Its
agreement with the cache path is the cross-check the test suite runs.

The precoder algebra is written once, over a whole stack of bins, in
``precode_frame``; one bin is the N = 1 frame (a length-1 unitary DFT is the
identity).  End-to-end downlink performance evaluation is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import BinChannel
from .detect import InverseCache, _gram, _unbias
from .frame import SymbolFrame
from .numerics import _split, diag_of_product, invert_hpd

__all__ = [
    "PrecodeResult",
    "precode_frame",
]


@dataclass(frozen=True)
class PrecodeResult:
    """M x N frequency-domain transmit samples and the K x N unbiasing scalars."""

    x: np.ndarray
    beta_used: np.ndarray


def precode_frame(
    sf: SymbolFrame,
    bc: BinChannel,
    sigma_w2: float,
    cache: Optional[InverseCache] = None,
) -> PrecodeResult:
    """Precode a whole symbol frame into M frequency-domain transmit streams.

    Symbols are transformed per user with the unitary DFT and each bin is
    precoded independently as ``x_n = A_n^* dl_inv_n (beta_n o s_n)``,
    with ``beta`` the per-user scale making the noiseless end-to-end downlink
    gain unity.  When ``cache`` is given, the downlink inverses are its
    conjugated entries and the unbiasing scalars its ``unbias``; otherwise
    both are computed directly from the downlink Gram
    ``A^T A^* + sigma_w2 I``.  Both paths agree to rounding, which the test
    suite checks.  ``sigma_w2`` must be finite and non-negative; zero gives
    the zero-forcing precoder.  On the direct path a singular bin raises
    :class:`~fdmud.numerics.SingularMatrixError`, a zero-power channel
    column :class:`~fdmud.numerics.DegenerateScaleError` and a channel whose
    Gram is not finite, ``ValueError``, each naming the first offending bin.

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

    s_fd = np.fft.fft(symbols, axis=1, norm="ortho").T  # (N, K)

    if cache is not None:
        if cache.inv.shape != (n_bins, k_usr, k_usr):
            raise ValueError(f"cache shape {cache.inv.shape} does not match {(n_bins, k_usr, k_usr)}")
        # Relative only: an absolute floor would equate any two tiny variances.
        if not np.isclose(cache.sigma_w2, sigma_w2, rtol=1e-12, atol=0.0):
            raise ValueError(
                f"cache was built for sigma_w2={cache.sigma_w2}, precoder asked for {sigma_w2}"
            )
    # One level of chunks, sized by the (n, K, K) stack: each chunk forms
    # its A^T A^*, inverts it (or conjugates the cache's inverses), takes
    # beta and keeps its inverses conjugated, as the cache holds them.
    inv_conj, beta = (None, None) if cache is None else (cache.inv, cache.unbias)
    if beta is None:
        if cache is None:
            inv_conj = np.empty((n_bins, k_usr, k_usr), dtype=np.complex128)
        beta = np.empty((n_bins, k_usr))
        reg = sigma_w2 * np.eye(k_usr)

        def run(lo: int, hi: int) -> None:
            gram_dl = _gram(a[lo:hi].conj(), a[lo:hi].transpose(0, 2, 1))  # A^T A^*
            dl_inv = invert_hpd(gram_dl + reg) if cache is None else np.conj(cache.inv[lo:hi])
            beta[lo:hi] = _unbias(diag_of_product(gram_dl, dl_inv).real)
            if cache is None:
                np.conj(dl_inv, out=inv_conj[lo:hi])

        _split(n_bins, run, n_bins * k_usr * k_usr)

    # x_n = A_n^* dl_inv_n (beta_n o s_n) as conj(A_n inv_n conj(beta_n o s_n)),
    # inv_n the conjugated inverse: the same products, steering the whole
    # frame at once, with no conjugated copy of A or of the stack.
    v = np.matmul(inv_conj, np.conj(beta * s_fd)[:, :, np.newaxis])
    x = np.matmul(a, v).conj()[..., 0]
    return PrecodeResult(x=x.T, beta_used=beta.T)
