import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fdmud import numerics
from fdmud.channel import BinChannel, ChannelConfig, ChannelRealization, to_bin_channels
from fdmud.detect import DetectorKind, detect_frame
from fdmud.frame import ReceivedFrame, to_frequency_domain
from fdmud.numerics import SingularMatrixError, _split, diag_of_product, invert_hpd, solve_hpd

from conftest import crandn, dft_matrix, run_fresh

# The package's two DFT conventions, pinned on the functions that apply them:
# to_frequency_domain (unitary) and to_bin_channels (unnormalized).


def unitary_dft(v):
    """One antenna row through ``to_frequency_domain``."""
    return to_frequency_domain(ReceivedFrame(samples=np.atleast_2d(v))).samples[0]


def bin_spectrum(h, n):
    """One impulse response through ``to_bin_channels``: its n per-bin coefficients."""
    h = np.asarray(h, dtype=complex)
    cfg = ChannelConfig(num_antennas=2, num_users=1, frame_len=n, channel_len=h.size, decay_samples=1.0)
    taps = np.zeros((2, 1, h.size), dtype=complex)
    taps[0, 0] = h
    return to_bin_channels(ChannelRealization(taps=taps, config=cfg)).a[:, 0, 0]


class TestDftUnitary:
    def test_impulse(self):
        assert_allclose(unitary_dft([1, 0, 0, 0]), [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_constant_maps_to_dc(self):
        assert_allclose(unitary_dft([1, 1, 1, 1]), [2, 0, 0, 0], atol=1e-15)

    def test_round_trip_length_8(self, rng):
        # the inverse is the Hermitian transpose of the transform matrix
        v = crandn(rng, 8)
        back = dft_matrix(8).conj().T @ unitary_dft(v)
        assert np.abs(back - v).max() <= 1e-12 * np.abs(v).max()

    @pytest.mark.parametrize("n", [1, 5, 8, 12, 17, 2048])
    def test_matches_explicit_matrix(self, rng, n):
        # mixed-radix and prime sizes must work, not only powers of two
        v = crandn(rng, n)
        assert_allclose(unitary_dft(v), dft_matrix(n) @ v, atol=1e-10 * n)

    @pytest.mark.parametrize("n", [3, 12, 64])
    def test_unitarity_property(self, rng, n):
        for _ in range(5):
            v = crandn(rng, n)
            err = np.abs(dft_matrix(n).conj().T @ unitary_dft(v) - v).max()
            assert err <= 1e-12 * np.abs(v).max()

    @pytest.mark.parametrize("n", [4, 12, 101])
    def test_parseval(self, rng, n):
        v = crandn(rng, n)
        assert np.linalg.norm(unitary_dft(v)) == pytest.approx(np.linalg.norm(v), rel=1e-12)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            unitary_dft(np.zeros((1, 0), dtype=complex))


class TestDftUnnormalized:
    def test_identity_channel_has_unit_eigenvalues(self):
        assert_allclose(bin_spectrum([1], 4), [1, 1, 1, 1], atol=1e-15)

    def test_unit_delay_twiddles(self):
        assert_allclose(bin_spectrum([0, 1], 4), [1, -1j, -1, 1j], atol=1e-15)

    def test_is_scaled_unitary_transform(self, rng):
        h = crandn(rng, 5)
        padded = np.concatenate([h, np.zeros(7)])
        assert_allclose(bin_spectrum(h, 12), np.sqrt(12) * unitary_dft(padded), atol=1e-13)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            bin_spectrum([], 4)


class TestInvertHpd:
    def test_identity(self):
        assert_allclose(invert_hpd(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        assert_allclose(invert_hpd(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-14)

    def test_against_lu_oracle(self, rng):
        a = crandn(rng, 4, 2)
        gram = a.conj().T @ a + np.eye(2)
        assert np.abs(invert_hpd(gram) - np.linalg.inv(gram)).max() <= 1e-10

    @pytest.mark.parametrize("dim", [1, 2, 5, 32, 128])
    def test_inverse_property(self, rng, dim):
        a = crandn(rng, dim + 4, dim)
        x = a.conj().T @ a + np.eye(dim)  # well conditioned HPD
        residual = np.abs(x @ invert_hpd(x) - np.eye(dim)).max()
        assert residual <= 1e-10

    def test_result_exactly_hermitian(self, rng):
        a = crandn(rng, 6, 4)
        inv = invert_hpd(a.conj().T @ a + 0.5 * np.eye(4))
        assert np.array_equal(inv, inv.conj().T)

    def test_indefinite_rejected(self):
        with pytest.raises(SingularMatrixError):
            invert_hpd(np.diag([1.0, -1.0]))

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            invert_hpd(np.zeros((2, 2)))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            invert_hpd(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            invert_hpd(np.ones((2, 3)))

    def test_nan_rejected(self):
        m = np.eye(2)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            invert_hpd(m)


def hpd_stack(rng, *lead, dim=5):
    """Well-conditioned HPD matrices of shape (*lead, dim, dim), scales 1e-3..1e3."""
    a = crandn(rng, *lead, dim + 3, dim)
    gram = np.swapaxes(a, -2, -1).conj() @ a + np.eye(dim)
    return gram * 10.0 ** rng.uniform(-3, 3, size=(*lead, 1, 1))


def conditioned_stack(rng, batch, dim, log_kappa):
    """``batch`` HPD matrices of ``dim`` x ``dim`` sharing the condition number ``kappa``.

    Eigenvalues spread evenly in log from 1/kappa to 1 under a random
    unitary, times a per-bin scale of 1e-3..1e3.  Returns the stack and kappa.
    """
    q, _ = np.linalg.qr(crandn(rng, batch, dim, dim))
    eig = rng.permuted(np.logspace(-log_kappa, 0.0, dim)[np.newaxis].repeat(batch, 0), axis=1)
    scale = 10.0 ** rng.uniform(-3, 3, size=(batch, 1, 1))
    gram = scale * (q * eig[:, np.newaxis, :]) @ np.swapaxes(q, -2, -1).conj()
    gram = 0.5 * (gram + np.swapaxes(gram, -2, -1).conj())
    return gram, eig.max() / eig.min()


class TestInvertHpdStack:
    @pytest.mark.parametrize("lead", [(1,), (7,), (3, 4)])
    def test_matches_per_slice(self, rng, lead):
        stack = hpd_stack(rng, *lead)
        inv = invert_hpd(stack)
        assert inv.shape == stack.shape
        for idx in np.ndindex(*lead):
            single = invert_hpd(stack[idx])
            assert np.abs(inv[idx] - single).max() <= 1e-12 * np.abs(single).max()
            oracle = np.linalg.inv(stack[idx])
            assert np.abs(inv[idx] - oracle).max() <= 1e-10 * np.abs(oracle).max()

    # P up to 64 covers the M x M matrices verify inverts.
    @seed(20261019)
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 64),
        batch=st.integers(1, 70),
        log_kappa=st.floats(0.0, 8.0),
        draw=st.integers(0, 2**32 - 1),
    )
    def test_matches_lu_up_to_ill_conditioning(self, dim, batch, log_kappa, draw):
        gram, kappa = conditioned_stack(np.random.default_rng(draw), batch, dim, log_kappa)
        inv = invert_hpd(gram)
        # Any inverse loses up to kappa * eps of relative accuracy, so the
        # existing 1e-10 bound applies per unit of condition number.
        oracle = np.linalg.inv(gram)
        peak = np.abs(oracle).max(axis=(-2, -1))
        assert np.all(np.abs(inv - oracle).max(axis=(-2, -1)) <= 1e-10 * kappa * peak)
        residual = np.abs(gram @ inv - np.eye(dim)).max(axis=(-2, -1))
        assert np.all(residual <= 1e-10 * kappa)

    def test_slices_exactly_hermitian(self, rng):
        inv = invert_hpd(hpd_stack(rng, 6))
        assert np.array_equal(inv, np.swapaxes(inv, -2, -1).conj())

    @pytest.mark.parametrize("bad", [0, 3, 5])
    def test_singular_slice_named(self, rng, bad):
        stack = hpd_stack(rng, 6)
        stack[bad] = np.diag([1.0, 1.0, 0.0, 1.0, 1.0])
        with pytest.raises(SingularMatrixError, match=f"bin {bad}") as info:
            invert_hpd(stack)
        assert info.value.index == bad

    def test_first_of_several_singular_slices_named(self, rng):
        stack = hpd_stack(rng, 6)
        stack[[2, 4]] = -np.eye(5)
        with pytest.raises(SingularMatrixError, match="bin 2"):
            invert_hpd(stack)

    def test_non_hermitian_slice_rejected_at_its_own_scale(self, rng):
        # bin 2 is tiny: its asymmetry would pass a tolerance scaled by
        # the stack's largest entry, but not one scaled by its own
        stack = hpd_stack(rng, 4)
        stack[0] *= 1e6
        stack[2] = np.eye(5)
        stack[2, 0, 1] += 1e-8
        with pytest.raises(ValueError, match="bin 2"):
            invert_hpd(stack)

    def test_non_finite_slice_rejected(self, rng):
        stack = hpd_stack(rng, 3)
        stack[1, 0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            invert_hpd(stack)

    def test_non_finite_slice_named(self, rng):
        stack = hpd_stack(rng, 5)
        stack[3, 2, 1] = np.nan
        with pytest.raises(ValueError, match=r"^bin 3: m must have finite entries"):
            invert_hpd(stack)


# The M x M MMSE reference solves covariance stacks of up to 64 x 64 with the
# K + 1 columns of [A | y] as right-hand sides.
SOLVE_CASES = dict(
    dim=st.integers(1, 64),
    batch=st.integers(1, 12),
    rhs=st.integers(1, 16),
    log_kappa=st.floats(0.0, 8.0),
    draw=st.integers(0, 2**32 - 1),
)


def solve_case(dim, batch, rhs, log_kappa, draw):
    """``a``, ``sigma_w2`` and ``b`` whose covariances ``A A^H + sigma_w2 I`` have condition number ``kappa``.

    The covariances are :func:`conditioned_stack`'s.  ``sigma_w2`` is half
    the smallest eigenvalue in the stack and ``a`` a dense square root of
    the rest: its Cholesky factor times a random unitary.
    """
    rng = np.random.default_rng(draw)
    cov, kappa = conditioned_stack(rng, batch, dim, log_kappa)
    sigma_w2 = 0.5 * np.linalg.eigvalsh(cov).min()
    root = np.linalg.cholesky(cov - sigma_w2 * np.eye(dim))
    spin, _ = np.linalg.qr(crandn(rng, batch, dim, dim))
    return root @ spin, sigma_w2, crandn(rng, batch, dim, rhs), kappa


class TestSolveHpdStack:
    @seed(20261020)
    @settings(max_examples=60, deadline=None)
    @given(**SOLVE_CASES)
    def test_solves_with_the_cholesky_factor(self, **case):
        a, sigma_w2, b, kappa = solve_case(**case)
        x = solve_hpd(a, sigma_w2, b)
        cov = a @ np.swapaxes(a, -2, -1).conj() + sigma_w2 * np.eye(a.shape[1])
        low = np.linalg.cholesky(cov)
        # The two factorizations may round apart by up to kappa * eps relative
        # to the factor, so the existing 1e-10 bound applies per unit of
        # condition number, relative to |L| |x|.
        residual = np.abs(low @ x - b).max(axis=(-2, -1))
        size = np.abs(low).max(axis=(-2, -1)) * np.abs(x).max(axis=(-2, -1))
        assert np.all(residual <= 1e-10 * kappa * size)

    @seed(20261021)
    @settings(max_examples=60, deadline=None)
    @given(**SOLVE_CASES)
    def test_bin_alone_matches_bin_in_stack(self, **case):
        a, sigma_w2, b, _ = solve_case(**case)
        whole = solve_hpd(a, sigma_w2, b)
        pick = case["draw"] % len(a)
        alone = solve_hpd(a[pick : pick + 1], sigma_w2, b[pick : pick + 1])
        assert np.array_equal(alone[0], whole[pick])

    @pytest.mark.parametrize("bad", [0, 3])
    def test_singular_slice_named(self, rng, bad):
        # Seven columns give the other bins full rank.  A zero row of A gives
        # A A^H a zero row and column, so with no regularization the
        # Cholesky meets an exact zero pivot.
        a = crandn(rng, 5, 5, 7)
        a[bad, 2] = 0.0
        with pytest.raises(SingularMatrixError, match=rf"^bin {bad}: ") as info:
            solve_hpd(a, 0.0, crandn(rng, 5, 5, 2))
        assert info.value.index == bad

    @pytest.mark.parametrize("name", ["a", "b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_slice_named(self, rng, name, value):
        args = {"a": crandn(rng, 5, 4, 3), "b": crandn(rng, 5, 4, 2)}
        args[name][3, 1, 0] = value
        with pytest.raises(ValueError, match=rf"^bin 3: {name} must have finite entries"):
            solve_hpd(args["a"], 0.5, args["b"])

    @pytest.mark.parametrize("sigma_w2", [-1.0, np.inf, np.nan])
    def test_negative_or_non_finite_sigma_rejected(self, rng, sigma_w2):
        with pytest.raises(ValueError, match="sigma_w2 must be finite and non-negative"):
            solve_hpd(crandn(rng, 2, 4, 3), sigma_w2, crandn(rng, 2, 4, 1))


class RecordingSetter:
    """Stands in for OpenBLAS's thread-local setter: records each count and returns the one it replaces."""

    def __init__(self, current):
        self.current = current
        self.calls = []

    def __call__(self, threads):
        self.calls.append(threads)
        previous, self.current = self.current, threads
        return previous


# MMSE estimates of a 64 x 14 x 256 frame from a 16-tap channel, hashed.
MMSE_DIGEST = """
import hashlib
import numpy as np
from fdmud.channel import ChannelConfig, draw_channel, to_bin_channels
from fdmud.detect import DetectorKind, detect_frame
from fdmud.frame import FrameConfig, generate_symbols, to_frequency_domain, transmit

realization = draw_channel(ChannelConfig(64, 14, 256, 16, decay_samples=4.0, seed=1))
fc = FrameConfig(frame_len=256, cp_len=32, snr_db=5.0)
rng = np.random.default_rng(2)
rf = to_frequency_domain(transmit(generate_symbols(14, 256, "qpsk", rng), realization, fc, rng))
est = detect_frame(rf, to_bin_channels(realization), fc.sigma_w2, DetectorKind.MMSE).s_hat_time
print(hashlib.sha256(est.tobytes()).hexdigest())
"""


class TestSolveHpdThreads:
    """The per-bin loop runs on one OpenBLAS thread."""

    def test_mmse_bytes_do_not_follow_the_blas_thread_count(self):
        # Without the setter the loop runs on the default threads and its
        # bytes follow them; CI asserts that the pinned SciPy has it.
        if run_fresh("from fdmud import numerics; print(numerics._scipy_thread_setter() is None)") == "True":
            pytest.skip("this SciPy's OpenBLAS has no thread-local setter")
        # OpenBLAS reads the variable once, as it loads, so each count needs
        # its own interpreter.
        one, two = (run_fresh(MMSE_DIGEST, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
        assert one == two

    @pytest.mark.parametrize("m_ant", [8, 256])
    def test_loop_runs_on_one_thread_and_restores_the_count(self, rng, monkeypatch, m_ant):
        setter = RecordingSetter(3)
        monkeypatch.setattr(numerics, "_scipy_thread_setter", lambda: setter)
        solve_hpd(crandn(rng, 3, m_ant, 2), 0.1, crandn(rng, 3, m_ant, 1))
        assert setter.calls == [1, 3]

    def test_setter_found_under_either_name(self, monkeypatch):
        # SciPy's OpenBLAS prefixes its entry points with scipy_; a build whose
        # prefixing covers this setter too must still be found, prefixed first.
        def named(name):
            def setter(threads):
                return threads

            setter.__name__ = name
            return setter

        bare, prefixed = "openblas_set_num_threads_local", "scipy_openblas_set_num_threads_local"
        lookup = numerics._scipy_thread_setter.__wrapped__  # uncached
        for names, found in (([bare], bare), ([bare, prefixed], prefixed), ([], None)):
            lib = types.SimpleNamespace(**{name: named(name) for name in names})
            monkeypatch.setattr(numerics.ctypes, "CDLL", lambda path: lib)
            setter = lookup()
            assert (setter and setter.__name__) == found

    def test_count_restored_when_the_loop_raises(self, rng, monkeypatch):
        setter = RecordingSetter(3)
        monkeypatch.setattr(numerics, "_scipy_thread_setter", lambda: setter)
        a = crandn(rng, 3, 5, 7)
        a[1, 2] = 0.0  # a zero row of A: singular with no regularization
        with pytest.raises(SingularMatrixError, match="^bin 1: "):
            solve_hpd(a, 0.0, crandn(rng, 3, 5, 1))
        assert setter.calls == [1, 3]

    def test_concurrent_loops_stay_pinned_and_restore_the_count(self, rng, monkeypatch):
        # A process-wide setter, as in the pthreads OpenBLAS of SciPy's wheels:
        # every loop must run at one thread and the count end where it began.
        setter = RecordingSetter(3)
        monkeypatch.setattr(numerics, "_scipy_thread_setter", lambda: setter)
        solve_bins = numerics._solve_bins
        seen = []

        def observed(*args):
            seen.append(setter.current)
            out = solve_bins(*args)
            seen.append(setter.current)
            return out

        monkeypatch.setattr(numerics, "_solve_bins", observed)
        a, b = crandn(rng, 4, 16, 4), crandn(rng, 4, 16, 1)
        workers = [
            threading.Thread(target=lambda: [solve_hpd(a, 0.1, b) for _ in range(25)]) for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert seen == [1] * 200
        assert setter.current == 3

    def test_missing_setter_runs_with_the_default_count(self, rng, monkeypatch):
        a = crandn(rng, 8, 64, 14)
        rf = ReceivedFrame(samples=crandn(rng, 64, 8), domain="frequency")
        pinned = detect_frame(rf, BinChannel(a=a), 0.1, DetectorKind.MMSE).s_hat_time
        monkeypatch.setattr(numerics, "_scipy_thread_setter", lambda: None)
        free = detect_frame(rf, BinChannel(a=a), 0.1, DetectorKind.MMSE).s_hat_time
        assert np.abs(free - pinned).max() <= 1e-12 * np.abs(pinned).max()


class TestElementwiseOps:
    def test_diag_of_product_identity(self):
        assert_allclose(diag_of_product(np.eye(2), np.eye(2)), [1, 1])

    def test_diag_of_product_against_full_product(self, rng):
        a = crandn(rng, 5, 3)
        b = crandn(rng, 3, 5)
        assert np.abs(diag_of_product(a, b) - np.diag(a @ b)).max() <= 1e-13

    def test_diag_of_product_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            diag_of_product(crandn(rng, 5, 3), crandn(rng, 4, 5))
        with pytest.raises(ValueError):
            diag_of_product(crandn(rng, 2, 5, 3), crandn(rng, 3, 3, 5))

    def test_diag_of_product_stack(self, rng):
        a = crandn(rng, 4, 5, 3)
        b = crandn(rng, 4, 3, 5)
        full = a @ b
        expected = np.stack([np.diag(full[n]) for n in range(4)])
        assert np.abs(diag_of_product(a, b) - expected).max() <= 1e-13
        # transposed and conjugated views work as they are
        assert np.abs(
            diag_of_product(np.swapaxes(a, -2, -1).conj(), a)
            - np.stack([np.diag(a[n].conj().T @ a[n]) for n in range(4)])
        ).max() <= 1e-13


def second_chunk_raises(error):
    """A chunk function that raises ``error`` on its second call, and its calls."""
    calls = []

    def fn(lo, hi):
        calls.append((lo, hi))
        if len(calls) == 2:
            raise error

    return fn, calls


class TestSplit:
    # 12 items in four chunks of three

    def test_memory_error_is_not_rerun_on_the_whole_range(self):
        fn, calls = second_chunk_raises(MemoryError())
        with pytest.raises(MemoryError):
            _split(12, fn, 4 * numerics._MIN_CHUNK)
        assert calls == [(0, 3), (3, 6)]

    @pytest.mark.parametrize(
        "error", [ValueError("bin 4: "), SingularMatrixError("bin 4: ", 4)], ids=["value", "singular"]
    )
    def test_error_naming_an_item_reruns_the_whole_range(self, error):
        fn, calls = second_chunk_raises(error)
        _split(12, fn, 4 * numerics._MIN_CHUNK)
        assert calls == [(0, 3), (3, 6), (0, 12)]
