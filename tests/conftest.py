"""Shared helpers: independent oracles used across test modules."""

import numpy as np
import pytest

from fdmud.channel import BinChannel
from fdmud.detect import detect_frame
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


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
