"""Shared helpers: independent oracles used across test modules."""

import numpy as np
import pytest

from fdmud import harness
from fdmud.channel import (
    BinChannel,
    _check_matched,
    _correlation_outputs,
    _lag_gram,
    _tap_correlations,
)
from fdmud.detect import _gram_and_matched, _Matched, detect_frame
from fdmud.frame import ReceivedFrame


def crandn(rng, *shape):
    """Circularly-symmetric complex Gaussian with unit variance per entry."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def dft_matrix(n, unitary=True):
    """Explicitly constructed DFT matrix; independent of any FFT routine."""
    grid = np.outer(np.arange(n), np.arange(n))
    mat = np.exp(-2j * np.pi * grid / n)
    return mat / np.sqrt(n) if unitary else mat


def build_circulant(h, n):
    """Dense circulant matrix whose first column is ``h`` zero-padded to n.

    Column j is the zero-padded ``h`` cyclically shifted down j positions, so
    multiplying by the result performs circular convolution with ``h``: the
    dense oracle for the per-bin (FFT) channel model.
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


def detect_bin(a_n, y_n, kind, sigma_w2=0.0):
    """One bin through ``detect_frame`` as the N = 1 frame: its K estimates.

    A length-1 unitary inverse DFT is the identity, so ``s_hat_time[:, 0]``
    is the bin estimate itself.
    """
    rf = ReceivedFrame(samples=np.asarray(y_n)[:, np.newaxis], domain="frequency")
    bins = BinChannel(a=np.asarray(a_n)[np.newaxis])
    return detect_frame(rf, bins, sigma_w2, kind).s_hat_time[:, 0]


def frame_statistics(rf, bins):
    """The ``A^H A`` and ``A^H y`` of a frequency-domain frame, formed from ``A``."""
    return _Matched(*_gram_and_matched(np.asarray(bins.a), rf.samples.T))


def tap_statistics(taps, signal):
    """``A^H A`` and ``A^H y`` from the taps by the sweep's two steps, ``y`` the unitary DFT of ``signal``.

    The correlations fill outputs allocated first, the Gram step takes their
    lags to the bins, and ``A^H y`` is checked last, as the sweep checks it.
    """
    _, k_usr, length = taps.shape
    n_bins = signal.shape[1]
    lags, matched = _correlation_outputs(k_usr, length, n_bins)
    _tap_correlations(taps, signal, lags, matched)
    gram = _lag_gram(lags, length, n_bins)
    _check_matched(matched)
    return gram, matched


def edit_sweep_statistics(monkeypatch, edit):
    """Have the sweep detect from statistics that ``edit(gram, matched)`` changed in place.

    The sweep forms each frame's ``A^H A`` and ``A^H y`` from the taps and
    the noise and hands them to detection as a ``_Matched``, so a channel
    fault is injected there: a dead user column ``k`` at bin ``n`` zeroes
    ``gram[n, k, :]``, ``gram[n, :, k]`` and the sweep's ``A^H y`` at
    ``[n, k]``.
    """

    def statistics(gram, matched):
        edit(gram, matched)
        return _Matched(gram, matched)

    monkeypatch.setattr(harness, "_Matched", statistics)


def kill_column(gram, matched, n, k):
    """Make user ``k`` at bin ``n`` a zero-power channel column."""
    gram[n, k, :] = 0.0
    gram[n, :, k] = 0.0
    matched[n, k] = 0.0


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
