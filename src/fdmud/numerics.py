"""Hermitian positive-definite linear algebra and the errors the detectors raise.

``invert_hpd`` and ``solve_hpd`` factorize via Cholesky and reject input that
is not finite and Hermitian; ``diag_of_product`` takes the diagonal of a
product without forming it.  A stack holds one matrix per bin, so the errors
name the first failing matrix ``bin i`` and callers pass them on unchanged.
Everything else the algebra needs is plain NumPy (``@``, ``.conj()``,
``np.fft``).

All operations are pure functions on immutable inputs and are safe to call
concurrently.  ``_split`` runs each frame stage, ``invert_hpd`` included, on
cache-sized contiguous chunks of bins (or of antennas).  Scalars are double
precision throughout.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "SingularMatrixError",
    "DegenerateScaleError",
    "invert_hpd",
    "solve_hpd",
    "diag_of_product",
]

# Relative element-wise tolerance for accepting a matrix as Hermitian.
HERMITIAN_TOL = 1e-10


class SingularMatrixError(np.linalg.LinAlgError):
    """Hermitian factorization hit a non-positive pivot.

    ``index`` is the flat position of the failing bin in the stack that was
    factorized (0 for a single matrix).
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class DegenerateScaleError(ValueError):
    """An unbiasing gain vanished, as a zero-power channel column makes it."""


def _as_matrix(a, name: str = "a") -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D matrix, got shape {a.shape}")
    return a


def _check_hermitian(m) -> np.ndarray:
    """Validate a square matrix, or a stack of them, as finite and Hermitian.

    Each bin is held to ``HERMITIAN_TOL`` relative to its own largest
    magnitude entry, so a large bin cannot mask a small one's asymmetry.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.size == 0:
        raise ValueError(f"m must be a nonempty matrix or stack of matrices, got shape {m.shape}")
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"m must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("m must have finite entries")
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    skew = np.abs(m - np.swapaxes(m, -2, -1).conj()).max(axis=(-2, -1))
    bad = np.flatnonzero(skew > HERMITIAN_TOL * scale)
    if bad.size:
        raise ValueError(f"bin {bad[0]}: m is not Hermitian within tolerance")
    return m


def solve_hpd(m, b) -> np.ndarray:
    """Solve ``m @ x = b`` for one Hermitian positive-definite ``m`` via Cholesky.

    Substantially more accurate than multiplying by :func:`invert_hpd` when
    ``m`` is near-singular but ``b`` lies in its well-conditioned range.
    Raises the same errors as :func:`invert_hpd`.
    """
    m = _check_hermitian(_as_matrix(m, "m"))
    try:
        factor = scipy.linalg.cho_factor(m, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"Cholesky factorization failed: {exc}") from exc
    return scipy.linalg.cho_solve(factor, np.asarray(b), check_finite=False)


def invert_hpd(m) -> np.ndarray:
    """Invert Hermitian positive-definite matrices via Cholesky factorization.

    Parameters
    ----------
    m : array_like
        A square matrix, or a stack of them with shape ``(..., P, P)``; a
        2-D input is the one-bin case.  Each bin must be Hermitian within
        ``HERMITIAN_TOL`` relative to its own largest magnitude entry.

    Returns
    -------
    numpy.ndarray
        The inverses, same shape as ``m``, re-symmetrized so each is exactly
        Hermitian.

    Raises
    ------
    ValueError
        If the input is not square/finite/Hermitian; the message names the
        first offending bin.
    SingularMatrixError
        If a factorization fails (bin not positive definite).  ``index``
        holds the flat position of the first failing bin, which the message
        names as ``bin i``.
    """
    m = _check_hermitian(m)
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        # Cold path: the stacked call does not say which bin failed.
        for idx, piece in enumerate(m.reshape(-1, *m.shape[-2:])):
            try:
                np.linalg.cholesky(piece)
            except np.linalg.LinAlgError:
                raise SingularMatrixError(
                    f"bin {idx}: Cholesky factorization failed (not positive definite)",
                    index=idx,
                ) from exc
        raise
    low_inv = np.linalg.inv(low)
    inv = np.swapaxes(low_inv, -2, -1).conj() @ low_inv  # L^-H L^-1
    # The product is Hermitian only to rounding; make it exact.
    return 0.5 * (inv + np.swapaxes(inv, -2, -1).conj())


def diag_of_product(a, b) -> np.ndarray:
    """Diagonal of ``a @ b`` computed without forming the full product.

    ``a`` must be (..., p, q) and ``b`` (..., q, p) with the same leading
    shape; the result has shape (..., p) and
    ``diag_of_product(a, b)[..., i] == (a @ b)[..., i, i]``.  Operands are
    not copied, so passing a transposed view costs no memory.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or a.shape[:-2] != b.shape[:-2] or a.shape[-2:] != b.shape[:-3:-1]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    return np.einsum("...ij,...ji->...i", a, b)


# Fewest array entries a chunk reads: those of 64 bins of 64 x 14.  Chunks
# this size stay in cache, so a stack runs faster in chunks than whole: at
# 64 x 14 x 2048 (2-core host, medians of 20 interleaved calls) MRC-MMSE took
# 101 ms whole and 68 ms in 64-bin chunks.
_MIN_CHUNK = 64 * 64 * 14


def _split(n: int, fn, size: int) -> None:
    """Run ``fn(lo, hi)`` over contiguous chunks of ``range(n)``, in order.

    ``size`` counts the array entries the whole call reads; the range is cut
    into chunks of at least ``_MIN_CHUNK`` entries each, and a call too small
    for two chunks runs whole.  ``fn`` must write only its ``lo:hi`` part of
    preallocated outputs.  If a chunk raises, ``fn`` reruns once on the whole
    range, so an error names the first failing item of ``range(n)``.  Every
    item goes through the same operations whichever chunk holds it, so
    outputs do not depend on the number of chunks.

    Chunks run on the calling thread.  Shared with a pool thread on a second
    core they ran faster on an idle host, but their speed then followed the
    host's load: on a 2-vCPU virtual machine, where the hypervisor stole
    20-40% of the time of a busy second vCPU, mc-sweep ran 6.2-9.2 ops/s
    across four 20 s benchmark runs, against 7.0-7.1 on one thread.
    """
    chunks = min(n, size // _MIN_CHUNK)
    if chunks < 2:
        fn(0, n)
        return
    edges = [n * c // chunks for c in range(chunks + 1)]
    try:
        for lo, hi in zip(edges[:-1], edges[1:]):
            fn(lo, hi)
    except Exception:
        fn(0, n)
