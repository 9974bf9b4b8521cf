"""Hermitian positive-definite linear algebra and the errors the detectors raise.

``invert_hpd`` and ``solve_hpd`` factorize via Cholesky and reject input
that is not finite (or, given to ``invert_hpd``, not Hermitian);
``diag_of_product`` takes the diagonal of a product without forming it.  A
stack holds one matrix per bin, so the errors name the first failing matrix
``bin i`` and callers pass them on unchanged.
Everything else the algebra needs is plain NumPy (``@``, ``.conj()``,
``np.fft``), so ``import fdmud`` loads NumPy alone.  SciPy serves only
``solve_hpd``, the ``M x M`` MMSE reference, and is imported on its first
call.

``solve_hpd`` takes a stack of ``A`` and loops over its bins calling nothing
but SciPy's ``herk`` and ``trsm`` (BLAS) and ``potrf`` (LAPACK), so the
``M x M`` reference makes no NumPy BLAS call.  SciPy and NumPy each bring an
OpenBLAS with its own thread pool, and on a 2-core host the two pools
contend whenever calls alternate between them.  Forming each covariance
``A A^H + sigma_w2 I`` with NumPy outside the loop alternated twice per
chunk of bins; at 128 x 16 x 128, whose chunks hold 3 or 4 bins, the
reference took 0.50 s that way and 58 ms with ``herk`` in the loop.  A
NumPy-only stacked solve, which needs no SciPy, made the crosscheck
benchmark op 13% slower, though it cut peak RSS by 21%.

The loop runs on one thread of SciPy's OpenBLAS, set with its
``openblas_set_num_threads_local`` and restored when the loop ends or
raises, so other calls keep the library default.  OpenBLAS threads
``potrf`` from ``n = 64``, and at the benchmark's sizes a second thread
slowed each call and kept spinning into the NumPy code after it: on 2 vCPUs (medians of
15 alternating calls in each of two processes) one thread against the
default two took 256 bins at ``M = 64``, ``K = 14`` in 24-26 against
31-33 ms and 64 bins at ``M = 128``, ``K = 30`` in 27-28 against 30 ms.
Two threads won 4 bins at ``M = 512`` (27-29 against 32-39 ms), a size no
benchmark runs; the loop stays on one thread there too, so the
reference's bytes do not depend on the host's core count at any ``M``.  A
SciPy whose OpenBLAS lacks the setter runs the loop with its default
threads.  The setter is thread-local only in OpenMP builds; in the pthreads
build that SciPy's wheels ship it sets the count for the whole process.  So
a pinned loop holds a lock, concurrent calls run one at a time, and SciPy
calls that other threads make meanwhile also run on one thread.

All operations are pure functions on immutable inputs and are safe to call
concurrently.  ``_split`` runs each frame stage on one level of
cache-sized contiguous chunks of bins (or of antennas), sized by the arrays
the stage reads; the ``K x K`` stages that call ``invert_hpd``, whose
triangular inverse costs a fixed amount per call, size theirs by their
``(n, K, K)`` stacks (the detectors at three entries per stack entry, for
the inverse's temporaries: 21 chunks at 64 x 14 x 2048 and 6 at
128 x 16 x 512; the direct precoder, whose chunks also form their Grams
from ``A``, at one: 7 and 2 chunks), and the ``M x M`` reference by its
``(n, M, M)`` covariance stack, 18 chunks at 64 x 14 x 256.  Scalars are
double precision throughout.
"""

from __future__ import annotations

import ctypes
import functools
import threading

import numpy as np

__all__ = [
    "SingularMatrixError",
    "DegenerateScaleError",
    "invert_hpd",
    "solve_hpd",
    "diag_of_product",
]

# Relative element-wise tolerance for accepting a matrix as Hermitian.
HERMITIAN_TOL = 1e-10

# Held across each pinned loop: where the setter acts process-wide, two
# threads pinning and restoring at once would unpin one loop midway and
# could leave the count at one.
_PIN_LOCK = threading.Lock()


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
    # The largest magnitude is finite exactly when every entry is.
    peak = np.abs(m).max(axis=(-2, -1))
    finite = np.isfinite(peak)
    if not finite.all():
        raise ValueError(f"bin {np.flatnonzero(~finite)[0]}: m must have finite entries")
    scale = np.maximum(peak, 1.0)
    # m^H - m from a contiguous copy of the transpose, in place: a fourth of
    # the time of ``m - m^H`` through the strided view at 14 bins of 64 x 64.
    diff = np.swapaxes(m, -2, -1).copy()
    np.conjugate(diff, out=diff)
    diff -= m
    skew = np.abs(diff).max(axis=(-2, -1))
    bad = np.flatnonzero(skew > HERMITIAN_TOL * scale)
    if bad.size:
        raise ValueError(f"bin {bad[0]}: m is not Hermitian within tolerance")
    return m


@functools.cache
def _scipy_thread_setter():
    """SciPy's OpenBLAS ``openblas_set_num_threads_local``, or ``None`` where it has none.

    It sets the thread count and returns the one it replaces.  The lookup
    goes through ``scipy.linalg``'s BLAS extension, whose dependencies hold
    SciPy's OpenBLAS, not NumPy's.  That OpenBLAS exports its entry points
    with a ``scipy_`` prefix, except, in SciPy 1.17.1, this one; both names
    are tried.
    """
    import scipy.linalg

    try:
        lib = ctypes.CDLL(scipy.linalg._fblas.__file__)
    except OSError:
        return None
    for name in ("scipy_openblas_set_num_threads_local", "openblas_set_num_threads_local"):
        setter = getattr(lib, name, None)
        if setter is not None:
            break
    else:
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


def solve_hpd(a, sigma_w2: float, b) -> np.ndarray:
    """``L^-1 b`` for each bin, where ``A A^H + sigma_w2 I = L L^H`` is its Cholesky factorization.

    ``a`` is an ``(N, P, K)`` stack, ``sigma_w2`` a finite non-negative
    scalar and ``b`` an ``(N, P, R)`` stack of right-hand sides; the result
    is complex, shaped like ``b``.  Half of a Cholesky solve of
    ``(A A^H + sigma_w2 I) x = b``: a caller that needs
    ``b1^H (A A^H + sigma_w2 I)^-1 b2`` takes it as ``(L^-1 b1)^H (L^-1 b2)``,
    which stays in the well-conditioned range of the covariance where
    multiplying by :func:`invert_hpd` would not.  Each bin runs on its own,
    so its result does not depend on the stack around it.

    Raises ``ValueError`` naming the first bin of ``a`` or ``b`` with a
    non-finite entry, and :class:`SingularMatrixError` naming the first bin
    whose covariance is not positive definite.
    """
    # Complex double throughout: BLAS has no real herk, and single-precision
    # input would select single-precision routines.
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 3 or b.ndim != 3 or a.shape[1] == 0 or b.shape[:2] != a.shape[:2]:
        raise ValueError(f"dimension mismatch: a {a.shape}, b {b.shape}")
    if not 0.0 <= sigma_w2 < np.inf:
        raise ValueError(f"sigma_w2 must be finite and non-negative, got {sigma_w2}")
    for name, x in (("a", a), ("b", b)):
        finite = np.isfinite(x).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"bin {np.flatnonzero(~finite)[0]}: {name} must have finite entries")
    setter = _scipy_thread_setter()
    if setter is None:
        return _solve_bins(a, sigma_w2, b)
    with _PIN_LOCK:
        previous = setter(1)
        try:
            return _solve_bins(a, sigma_w2, b)
        finally:
            setter(previous)


def _solve_bins(a: np.ndarray, sigma_w2: float, b: np.ndarray) -> np.ndarray:
    """:func:`solve_hpd` on checked complex-double stacks, one bin at a time."""
    # Imported here, not at module level: only the M x M MMSE reference solves
    # this way, and importing scipy.linalg costs about 0.33 s and 28 MB of RSS
    # that runs without it would pay for nothing.
    import scipy.linalg

    # herk fills the lower triangle of A A^H, which is all potrf reads, and
    # is Hermitian by construction, so only finiteness needs checking.  BLAS
    # trsm, not LAPACK trtrs: the same bytes, since trtrs only adds a check
    # for a zero pivot that a successful potrf rules out, but through trtrs
    # the single-bin calls contended more.
    herk, trsm = scipy.linalg.get_blas_funcs(("herk", "trsm"), (a, b))
    (potrf,) = scipy.linalg.get_lapack_funcs(("potrf",), (a, b))
    diag = np.arange(a.shape[1])
    out = np.empty_like(b)
    for idx in range(len(a)):
        cov = herk(1.0, a[idx], lower=1)
        cov[diag, diag] += sigma_w2
        low, info = potrf(cov, lower=1, clean=0, overwrite_a=1)
        if info > 0:
            raise SingularMatrixError(
                f"bin {idx}: Cholesky factorization failed (not positive definite)", index=idx
            )
        if info < 0:
            raise ValueError(f"bin {idx}: potrf rejected argument {-info}")
        out[idx] = trsm(1.0, low, b[idx], lower=1)
    return out


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
    low_inv = _invert_lower(low)
    inv = np.swapaxes(low_inv, -2, -1).conj() @ low_inv  # L^-H L^-1
    # The product is Hermitian only to rounding; make it exact.  In place, as
    # NumPy lays ``inv + inv^H`` out column-major from 84 bins of 14 x 14, and
    # products with the inverses would then round by the chunk size.
    inv += np.swapaxes(inv, -2, -1).conj()
    inv *= 0.5
    return inv


def _invert_lower(low: np.ndarray) -> np.ndarray:
    """Inverses of a stack of Cholesky factors, by forward substitution.

    ``L X = I`` is solved as the unit lower-triangular ``(D^-1 L) X = D^-1``,
    ``D = diag(L)``, with the bins on the last axis, so each of the ``P - 1``
    steps is one element-wise update of every bin; a bin's result does not
    depend on the stack size.  On a 2-core host it took 0.75 ms for 292 bins
    of 14 x 14 and 1.0 ms for 256 of 16 x 16, against 2.2 and 2.4 ms for
    ``np.linalg.inv`` (an LU solve that ignores the triangle), but 0.05 ms
    for one 14 x 14 factor against 0.01 ms: callers pass many bins at once.
    """
    p = low.shape[-1]
    diag = np.arange(p)
    unit = np.empty((p, p, low.size // (p * p)), dtype=low.dtype)
    unit[...] = low.reshape(-1, p, p).transpose(1, 2, 0)
    scale = 1.0 / unit[diag, diag].real  # Cholesky pivots are real and positive
    unit *= scale[:, np.newaxis]
    x = np.zeros_like(unit)
    x[diag, diag] = scale
    for j in range(p - 1):
        # Row j of X is final; only its first j + 1 columns are nonzero.
        x[j + 1 :, : j + 1] -= unit[j + 1 :, j, np.newaxis] * x[j, np.newaxis, : j + 1]
    return np.ascontiguousarray(x.transpose(2, 0, 1)).reshape(low.shape)


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
# 64 x 14 x 2048 MRC-MMSE detect_frame from a received frame took 49-52 ms
# whole and 35-37 ms in chunks (2 vCPUs, medians of 21 alternating calls in
# each of two processes).
_MIN_CHUNK = 64 * 64 * 14


def _split(n: int, fn, size: int) -> None:
    """Run ``fn(lo, hi)`` over contiguous chunks of ``range(n)``, in order.

    ``size`` counts the array entries the whole call reads; the range is cut
    into chunks of at least ``_MIN_CHUNK`` entries each, and a call too small
    for two chunks runs whole.  ``fn`` must write only its ``lo:hi`` part of
    preallocated outputs.  If a chunk raises a ``ValueError`` or
    ``LinAlgError``, which name an item, ``fn`` reruns once on the whole range
    so that the error names the first failing item of ``range(n)``; other
    errors, such as ``MemoryError``, are not retried.  Every item goes through
    the same operations whichever chunk holds it, so outputs do not depend on
    the number of chunks.

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
    except (ValueError, np.linalg.LinAlgError):
        fn(0, n)
