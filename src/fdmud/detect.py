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
  MMSE, so both kinds run the same code.
* ``HIGH_SNR_ZF``: the zero-forcing limit.

Each estimator is one private kernel over a stack of bins.  ``detect_frame``
runs it on all N bins and returns time-domain estimates; ``mmse_bin``,
``mrc_bin`` and ``mrcmmse_bin`` are the single-bin entry points, sharing one
argument check, the first and last running their kernel as the N = 1 stack.
Only the Cholesky solve of the M x M MMSE kernel loops over bins.  Every
unbiasing reciprocal goes through one guard that names the first bin whose
gain vanishes.  The MRC-MMSE kernel also returns its per-bin regularized
Gram inverses and per-user unbiasing coefficients so the downlink precoder
can reuse both.  ``detect_frame`` collects them into an ``InverseCache``, in
the buffer of the frame's own Gram, only when it detects from the received
frame, the TDD path that precodes next; from the shared statistics below,
which only the Monte-Carlo sweep passes, it returns no cache.

Every K x K kind reads only ``A^H A``, ``A^H y`` and the noise variance.
Given the received frame, ``detect_frame`` forms both for the whole frame
in chunks of bins sized by ``A``, then runs the kind on chunks sized by the
(n, K, K) stack, since ``invert_hpd`` costs a fixed amount per call, at
three entries per stack entry, which bounds the inverse's temporaries: 21
chunks of about 98 bins at 64 x 14 x 2048, and 6 inverse calls at
128 x 16 x 512 where chunks sized by ``A`` would make 19.  A caller running
several K x K kinds on one frame forms the statistics once, as a
``_Matched``, and passes them in place of the received frame; they are
read, never written.  The Monte-Carlo sweep forms them from the channel
taps and its noise draw, in one pass over blocks of antennas
(``channel._tap_correlations``) and one FFT of the lags
(``channel._lag_gram``), without building ``A`` at all, and passes a
shape-only ``BinChannel`` whose ``a`` the statistics path never reads.  The
M x M MMSE kernel runs on chunks sized by its (n, M, M) covariance stack:
18 chunks of 14 or 15 bins at 64 x 14 x 256.  Every kernel that reads
``A``, and the direct precoder, rejects a channel whose Gram is not finite,
naming the bin and whether an entry is not finite or the finite entries
overflow; all but the M x M kernel form it with one checked ``_gram``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import BinChannel, _check_power
from .frame import FREQUENCY, ReceivedFrame
from .numerics import (
    DegenerateScaleError,
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

    Names the first bin and user whose gain is bad: a vanishing gain, as a
    zero-power channel column makes it, raises
    :class:`~fdmud.numerics.DegenerateScaleError`, and a gain that is not
    finite a ``ValueError``.
    """
    mag = np.abs(gain)
    bad = ~((mag > _GAIN_FLOOR) & (mag < np.inf))
    if bad.any():
        n, k = np.argwhere(bad)[0]
        if not np.isfinite(gain[n, k]):
            raise ValueError(f"bin {n}: user {k} has a non-finite unbiasing gain ({gain[n, k]})")
        raise DegenerateScaleError(
            f"bin {n}: user {k} has a vanishing unbiasing gain (zero-power channel column)"
        )
    return 1.0 / gain


def _check_sigma(sigma_w2: float) -> None:
    if not 0 < sigma_w2 < np.inf:
        raise ValueError(
            f"sigma_w2 must be positive and finite, got {sigma_w2}; "
            "use DetectorKind.HIGH_SNR_ZF for the noise-free limit"
        )


def _matched(a_h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``A_n^H y_n`` for every bin, from ``a_h`` (N, K, M) and ``y`` (N, M)."""
    return np.matmul(a_h, y[:, :, np.newaxis])[..., 0]


def _mmse(a: np.ndarray, y: np.ndarray, sigma_w2: float) -> np.ndarray:
    """:func:`mmse_bin` for every bin of ``a`` (N, M, K) and ``y`` (N, M).

    With ``A A^H + sigma_w2 I = L L^H`` and ``[B | c] = L^-1 [A | y]``, the
    filter output ``A^H (A A^H + sigma_w2 I)^-1 y`` is ``B^H c`` and the
    per-user gain ``diag(B^H B)``, the squared column norms of ``B``.
    Solving with ``A`` as the right-hand side stays in the well-conditioned
    range subspace of the covariance, unlike forming its M x M inverse.
    """
    _check_sigma(sigma_w2)
    n_bins, m_ant, k_usr = a.shape
    gain = np.empty((n_bins, k_usr))
    raw = np.empty((n_bins, k_usr), dtype=np.complex128)

    # Batched per chunk on purpose, with every BLAS call in SciPy.  NumPy and
    # SciPy each run their own OpenBLAS thread pool, and on a 2-core host the
    # pools contend whenever calls alternate between them.  solve_hpd forms
    # each covariance with SciPy's herk, and the gains and outputs below use
    # einsum, which calls no BLAS, so the pools do not alternate at all.
    # With NumPy forming the covariance stack they alternated twice per
    # chunk: at 128 x 16 x 128 (chunks of 3 or 4 bins) this kernel took
    # 0.50 s that way and 58 ms now, and 50 against 36 ms at 64 x 14 x 256
    # (medians of 9, default threads).  A NumPy-only stacked solve
    # (np.linalg.solve on the covariance stack) drops SciPy but made the
    # crosscheck benchmark op 13% slower, though its peak RSS was 21% lower.
    def run(lo: int, hi: int) -> None:
        a_c = a[lo:hi]
        # Named as the K x K kinds name it: left to the solve, a channel
        # whose A^H A overflows fails it in several ways, or not at all.
        with np.errstate(invalid="ignore", over="ignore"):
            power = np.square(np.abs(a_c)).sum(axis=1)
        _check_power(power, lambda n: np.isfinite(a_c[n]).all())
        solved = solve_hpd(a_c, sigma_w2, np.concatenate([a_c, y[lo:hi, :, np.newaxis]], axis=2))
        b_h = solved[..., :k_usr].conj().transpose(0, 2, 1)  # (n, K, M)
        gain[lo:hi] = diag_of_product(b_h, solved[..., :k_usr]).real
        raw[lo:hi] = np.einsum("nkm,nm->nk", b_h, solved[..., k_usr])

    _split(n_bins, run, n_bins * m_ant * m_ant)
    return _unbias(gain) * raw


def _gram(a: np.ndarray, a_h: np.ndarray) -> np.ndarray:
    """``A_n^H A_n`` for every bin of ``a`` (N, M, K), given ``a_h`` (N, K, M).

    A Gram that is not finite raises ``ValueError`` naming its bin and
    whether a channel entry is not finite or the finite entries overflow.
    """
    # The check below reports a non-finite Gram, so NumPy need not warn.
    with np.errstate(invalid="ignore", over="ignore"):
        gram = np.matmul(a_h, a)
    _check_power(gram.diagonal(axis1=1, axis2=2), lambda n: np.isfinite(a[n]).all())
    return gram


def _gram_and_matched(a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``A_n^H A_n`` (N, K, K) and ``A_n^H y_n`` (N, K) for every bin of ``a`` and ``y``.

    Formed in chunks sized by ``a``, which the products read, each checked
    by :func:`_gram`; a failing chunk reruns whole, so the error names the
    frame's bin.
    """
    n_bins, _, k_usr = a.shape
    gram = np.empty((n_bins, k_usr, k_usr), dtype=np.complex128)
    matched = np.empty((n_bins, k_usr), dtype=np.complex128)

    def run(lo: int, hi: int) -> None:
        a_h = a[lo:hi].conj().transpose(0, 2, 1)  # (n, K, M)
        gram[lo:hi] = _gram(a[lo:hi], a_h)
        matched[lo:hi] = _matched(a_h, y[lo:hi])

    _split(n_bins, run, a.size + y.size)
    return gram, matched


@dataclass(frozen=True)
class _Matched:
    """A frame's ``A_n^H A_n`` (N, K, K) and ``A_n^H y_n`` (N, K).

    Every K x K detector is a function of these and the noise variance, so a
    caller running several K x K kinds on one frame forms them once and
    hands them to :func:`detect_frame` in place of the received frame.  The
    Monte-Carlo sweep forms them from the channel taps and its noise draw
    (``channel._tap_correlations`` and ``channel._lag_gram`` give
    ``A^H A`` and ``A^H w``, and ``A^H y = A^H A s + A^H w``), never
    building ``A``;
    ``_gram_and_matched`` forms them from ``A`` and ``y``.
    """

    gram: np.ndarray
    matched: np.ndarray


def _received(rf: ReceivedFrame, a: np.ndarray) -> np.ndarray:
    """The samples of ``rf`` as an (N, M) stack, checked against the (N, M, K) channel ``a``."""
    if rf.domain != FREQUENCY:
        raise ValueError("detect_frame requires a frequency-domain frame")
    y = np.asarray(rf.samples)
    n_bins, m_ant, _ = a.shape
    if y.shape != (m_ant, n_bins):
        raise ValueError(f"frame shape {y.shape} does not match bin channels {a.shape}")
    finite = np.isfinite(y).all(axis=0)
    if not finite.all():
        raise ValueError(f"bin {np.flatnonzero(~finite)[0]}: received samples must be finite")
    return y.T


def _mrc_mmse(gram, matched, sigma_w2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`mrcmmse_bin` for every bin, from ``gram`` = ``A^H A`` and ``matched`` = ``A^H y``.

    Returns the estimates, the regularized Gram inverses and the unbiasing
    coefficients, the last two for an :class:`InverseCache`.
    """
    _check_sigma(sigma_w2)
    inverses = invert_hpd(gram + sigma_w2 * np.eye(gram.shape[-1]))
    # diag(inv G) = diag(I - sigma_w2 inv) is real; the imaginary part is rounding.
    unbias = _unbias(diag_of_product(inverses, gram).real)
    est = unbias * np.matmul(inverses, matched[:, :, np.newaxis])[..., 0]
    return est, inverses, unbias


def _zf(gram, matched) -> np.ndarray:
    """The zero-forcing limit ``(A^H A)^-1 A^H y``."""
    return np.matmul(invert_hpd(gram), matched[:, :, np.newaxis])[..., 0]


def _check_bin_args(a_n, v_n, name: str, axis: int):
    """``a_n`` (M, K) and ``v_n`` (``a_n.shape[axis]``) as arrays, or ``ValueError`` naming the bad one."""
    a_n = np.asarray(a_n)
    v_n = np.asarray(v_n)
    if a_n.ndim != 2:
        raise ValueError(f"a_n must be 2-D, got shape {a_n.shape}")
    if v_n.shape != (a_n.shape[axis],):
        raise ValueError(f"{name} shape {v_n.shape} does not match a_n shape {a_n.shape}")
    for arg, x in (("a_n", a_n), (name, v_n)):
        if not np.isfinite(x).all():
            raise ValueError(f"{arg} must have finite entries")
    return a_n, v_n


def mmse_bin(a_n, y_n, sigma_w2: float) -> np.ndarray:
    """Unbiased per-bin MMSE estimate via the M x M receive-side solve.

    Computes ``a o A^H (A A^H + sigma_w2 I)^-1 y`` where the coefficient
    vector ``a`` is the element-wise inverse of the diagonal of the
    end-to-end map, making each user's estimate unbiased.

    ``sigma_w2`` must be positive and finite; for the noise-free limit use
    ``DetectorKind.HIGH_SNR_ZF``, the same estimator without regularization.
    """
    a_n, y_n = _check_bin_args(a_n, y_n, "y_n", 0)
    if a_n.shape[0] < a_n.shape[1]:
        raise ValueError(f"a_n must have at least as many rows as columns, got {a_n.shape}")
    return _mmse(a_n[np.newaxis], y_n[np.newaxis], sigma_w2)[0]


def mrc_bin(a_n, y_n) -> np.ndarray:
    """Matched-filter / ratio-combined statistic ``(1/M) A^H y`` (length K)."""
    a_n, y_n = _check_bin_args(a_n, y_n, "y_n", 0)
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
        Noise variance; positive and finite.

    Returns
    -------
    (estimate, inverse)
        The K unbiased symbol estimates and the K x K inverse of
        ``A^H A + sigma_w2 I``, returned for caching.  Only this K x K
        inversion is performed.
    """
    a_n, r_n = _check_bin_args(a_n, r_n, "r_n", 1)
    a = a_n[np.newaxis]
    gram = _gram(a, a.conj().transpose(0, 2, 1))
    matched = (a_n.shape[0] * r_n)[np.newaxis]
    est, inverses, _ = _mrc_mmse(gram, matched, sigma_w2)
    return est[0], inverses[0]


def detect_frame(
    rf: ReceivedFrame | _Matched, bc: BinChannel, sigma_w2: float, kind: DetectorKind
) -> DetectionResult:
    """Run one detector over all N bins and return time-domain estimates.

    ``rf`` is the received frame, in the frequency domain.  For the K x K
    kinds it may instead be the frame's statistics, a ``_Matched``, which a
    caller running several of them on one frame forms once; statistics
    formed by ``_gram_and_matched`` give the same bytes, they are never
    written, and only the shape of ``bc.a`` is read.  Bins are processed
    independently; ``TR_MRC`` and ``LOW_SNR`` are the same estimator.
    For ``DetectorKind.MRC_MMSE`` from the received frame, the per-bin
    K x K inverses and unbiasing coefficients are collected into an
    :class:`InverseCache` on the result, for the downlink precoder.  From
    the statistics the estimates are the same bytes but ``cache`` is
    ``None``: the cache comes with detection from the received frame.
    A singular bin raises :class:`~fdmud.numerics.SingularMatrixError`, a
    zero-power channel column :class:`~fdmud.numerics.DegenerateScaleError`
    and a non-finite received sample or channel entry, or a channel whose
    ``A^H A`` overflows, ``ValueError``, each naming the first offending bin.
    """
    if not isinstance(kind, DetectorKind):
        raise ValueError(f"unknown detector kind: {kind!r}")
    a = np.asarray(bc.a)
    n_bins, _, k_usr = a.shape
    cache = None
    if isinstance(rf, _Matched):
        if kind is DetectorKind.MMSE:
            raise ValueError("the MMSE detector needs the received frame, not its statistics")
        if rf.gram.shape != (n_bins, k_usr, k_usr) or rf.matched.shape != (n_bins, k_usr):
            raise ValueError(
                f"statistics shapes {rf.gram.shape} and {rf.matched.shape} "
                f"do not match bin channels {a.shape}"
            )
        gram, matched = rf.gram, rf.matched
    else:
        y = _received(rf, a)
        if kind is not DetectorKind.MMSE:
            gram, matched = _gram_and_matched(a, y)
        if kind is DetectorKind.MRC_MMSE:
            # The TDD path keeps the inverses, each chunk's in its Gram once
            # read.  A chunk that raises writes nothing, so the rerun that
            # names its bin meets that bin's Gram.
            cache = InverseCache(inv=gram, sigma_w2=float(sigma_w2), unbias=np.empty(matched.shape))

    if kind is DetectorKind.MMSE:
        est = _mmse(a, y, sigma_w2)
    else:
        est = np.empty((n_bins, k_usr), dtype=np.complex128)

        def run(lo: int, hi: int) -> None:
            g, z = gram[lo:hi], matched[lo:hi]
            if kind is DetectorKind.MRC_MMSE:
                est[lo:hi], inverses, unbias = _mrc_mmse(g, z, sigma_w2)
                if cache is not None:
                    cache.inv[lo:hi], cache.unbias[lo:hi] = inverses, unbias
            elif kind is DetectorKind.HIGH_SNR_ZF:
                est[lo:hi] = _zf(g, z)
            else:
                # TR-MRC, ``(1/M) A^H y`` scaled per user by ``M / diag(A^H A)``,
                # which is also the noise-dominated limit of unbiased MMSE.
                est[lo:hi] = _unbias(np.diagonal(g, axis1=1, axis2=2).real) * z

        # Sized at three entries per stack entry, a third of a chunk sized
        # by the stack: a chunk's inverse holds about four (n, K, K)
        # temporaries at once.  At 64 x 14 x 2048 that cut the call's peak
        # above its inputs from 5.2 to 2.1 MB (``tracemalloc``), and with it
        # the sweep frame's heap peak below glibc's trim threshold (README,
        # "Per-frame memory").
        _split(n_bins, run, 3 * n_bins * k_usr * k_usr)

    s_hat_time = np.fft.ifft(est.T, axis=1, norm="ortho")
    return DetectionResult(s_hat_time=s_hat_time, kind=kind, cache=cache)
