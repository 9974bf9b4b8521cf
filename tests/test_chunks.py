"""Frames split into chunks of bins: same bytes, same errors.

Every test here sets the minimum chunk size directly, so that small inputs
split as large frames do.
"""

import numpy as np
import pytest

from fdmud import detect, numerics, precode
from fdmud.channel import (
    BinChannel,
    ChannelConfig,
    draw_channel,
    to_bin_channels,
)
from fdmud.detect import DetectorKind, detect_frame
from fdmud.frame import (
    FrameConfig,
    ReceivedFrame,
    SymbolFrame,
    _awgn,
    generate_symbols,
    to_frequency_domain,
    transmit,
)
from fdmud.harness import ScenarioConfig, run_monte_carlo
from fdmud.numerics import DegenerateScaleError, SingularMatrixError
from fdmud.precode import precode_frame

from conftest import crandn, edit_sweep_statistics, frame_statistics, kill_column, tap_statistics

N_BINS = 32  # not a multiple of 3: three chunks differ in size
WHOLE = 10**9  # a minimum chunk size no test input reaches


@pytest.fixture
def split(monkeypatch):
    """Set the entries a chunk reads at least."""

    def set_split(min_chunk):
        monkeypatch.setattr(numerics, "_MIN_CHUNK", min_chunk)

    return set_split


def every_output():
    """Every split stage run once on one scenario, as named arrays."""
    cfg = ChannelConfig(
        num_antennas=6, num_users=3, frame_len=N_BINS, channel_len=4, decay_samples=2.0, seed=21
    )
    realization = draw_channel(cfg)
    bins = to_bin_channels(realization)
    fc = FrameConfig(frame_len=N_BINS, cp_len=5, snr_db=3.0)
    rng = np.random.default_rng(22)
    sf = generate_symbols(3, N_BINS, "qpsk", rng)
    rf = to_frequency_domain(transmit(sf, realization, fc, rng))
    out = {"bins": bins.a, "received": rf.samples, "next_draw": rng.standard_normal(4)}
    noise = _awgn(6, N_BINS, fc.sigma_w2, np.random.default_rng(24))
    out["statistics.gram"], out["statistics.matched"] = tap_statistics(realization.taps, noise)
    results = {kind: detect_frame(rf, bins, fc.sigma_w2, kind) for kind in DetectorKind}
    out.update({kind.value: result.s_hat_time for kind, result in results.items()})
    cache = results[DetectorKind.MRC_MMSE].cache
    out["cache.inv"] = cache.inv
    out["cache.unbias"] = cache.unbias
    for path, use in (("cache", cache), ("direct", None)):
        result = precode_frame(sf, bins, fc.sigma_w2, cache=use)
        out[f"precode.{path}.x"] = result.x
        out[f"precode.{path}.beta"] = result.beta_used
    return out


# Detection at N_BINS reads 768 entries: a minimum of 256 makes three chunks
# (10, 11 and 11 bins) and a minimum of 1 one chunk per bin.  ``transmit``
# and the sweep's tap-domain statistics take no chunks; they are compared so
# that no chunk size ever reaches their bytes.
@pytest.mark.parametrize("min_chunk", [256, 1])
def test_outputs_do_not_depend_on_chunks(split, min_chunk):
    split(WHOLE)
    expected = every_output()
    split(min_chunk)
    for name, value in every_output().items():
        assert np.array_equal(value, expected[name]), f"{name} differs"


def dead_column_frame(rng, bad_bins, m_ant=4, k_usr=2, n_bins=12):
    """A frame whose user-1 column is zero at ``bad_bins`` and nowhere else."""
    a = np.tile(crandn(rng, m_ant, k_usr), (n_bins, 1, 1))
    a[list(bad_bins), :, 1] = 0.0
    rf = ReceivedFrame(samples=crandn(rng, m_ant, n_bins), domain="frequency")
    sf = SymbolFrame(symbols=crandn(rng, k_usr, n_bins))
    return BinChannel(a=a), rf, sf


# Each stage runs on one level of chunks: the K x K stages on chunks sized
# by their (n, K, K) stacks, and the products that read A (the Gram and
# matched-filter products) on chunks sized by A; the direct precoder forms
# each chunk's A^T A^* beside its inverse, in chunks sized by the stack, and
# steers the whole frame in one product.  At 32 x 14 x 200 the K x K stack
# has 39,200 entries, A and y 96,000 and A alone 89,600, so a minimum of 100
# bins of 14 x 14 makes two chunks of 100 bins for the precoder, six of 33
# or 34 for the K x K detectors, which count three entries per stack entry,
# and four chunks of 50 for every stage that reads A.  From 84 bins of
# 14 x 14 up, NumPy lays out ``inv + inv^H`` column-major unless told
# otherwise, so one-bin chunks are compared as well.
STAGED = dict(m_ant=32, k_usr=14, n_bins=200)
STAGED_MIN = 100 * 14 * 14


@pytest.fixture
def chunk_log(monkeypatch):
    """``(n, [chunk lengths])`` for every split ``detect`` and ``precode`` run."""
    log = []
    for module in (detect, precode):

        def spy(n, fn, size, original=module._split):
            lengths = []
            log.append((n, lengths))
            original(n, lambda lo, hi: (lengths.append(hi - lo), fn(lo, hi)), size)

        monkeypatch.setattr(module, "_split", spy)
    return log


def k_by_k_outputs(bins, rf, sf):
    """The outputs of every stage with a K x K inverse, as named arrays."""
    uplink = detect_frame(rf, bins, 0.1, DetectorKind.MRC_MMSE)
    direct = precode_frame(sf, bins, 0.1)
    return {
        "mrc_mmse": uplink.s_hat_time,
        "cache.inv": uplink.cache.inv,
        "cache.unbias": uplink.cache.unbias,
        "high_snr_zf": detect_frame(rf, bins, 0.0, DetectorKind.HIGH_SNR_ZF).s_hat_time,
        "precode.direct.x": direct.x,
        "precode.direct.beta": direct.beta_used,
    }


@pytest.mark.parametrize("min_chunk", [STAGED_MIN, 1])
def test_k_by_k_stages_do_not_depend_on_chunks(split, rng, chunk_log, min_chunk):
    frame = (
        BinChannel(a=crandn(rng, 200, 32, 14)),
        ReceivedFrame(samples=crandn(rng, 32, 200), domain="frequency"),
        SymbolFrame(symbols=crandn(rng, 14, 200)),
    )
    split(WHOLE)
    expected = k_by_k_outputs(*frame)
    split(min_chunk)
    del chunk_log[:]
    for name, value in k_by_k_outputs(*frame).items():
        assert np.array_equal(value, expected[name]), f"{name} differs"
    if min_chunk == STAGED_MIN:
        # MRC-MMSE and ZF form A^H A and A^H y, then detect; the precoder
        # forms and inverts A^T A^* chunk by chunk, then steers through A
        # unsplit.  Every split stage splits the whole frame, and none inside
        # another's chunk.
        quarters, halves = (200, [50] * 4), (200, [100, 100])
        detection = [quarters, (200, [33, 33, 34] * 2)]
        assert chunk_log == detection + [halves] + detection


@pytest.mark.parametrize("min_chunk", [None, STAGED_MIN, 1], ids=["default", "staged", "one-bin"])
def test_statistics_give_the_bytes_of_the_received_frame(split, rng, min_chunk):
    if min_chunk is not None:
        split(min_chunk)
    bins = BinChannel(a=crandn(rng, 200, 32, 14))
    rf = ReceivedFrame(samples=crandn(rng, 32, 200), domain="frequency")
    matched = frame_statistics(rf, bins)
    gram_before, matched_before = matched.gram.copy(), matched.matched.copy()
    for kind in (
        DetectorKind.MRC_MMSE,
        DetectorKind.TR_MRC,
        DetectorKind.HIGH_SNR_ZF,
    ):
        expected = detect_frame(rf, bins, 0.1, kind)
        result = detect_frame(matched, bins, 0.1, kind)
        assert np.array_equal(result.s_hat_time, expected.s_hat_time), kind
        # The inverse cache comes with detection from the received frame,
        # the path that precodes; the statistics serve the sweep, which does not.
        assert result.cache is None, kind
        assert (expected.cache is not None) == (kind is DetectorKind.MRC_MMSE), kind
    # That cache takes the buffer of the frame's own Gram; statistics handed
    # in belong to the caller and are never written.
    assert matched.gram.tobytes() == gram_before.tobytes()
    assert matched.matched.tobytes() == matched_before.tobytes()


@pytest.mark.parametrize("min_chunk", [None, 1], ids=["default", "one-bin"])
def test_statistics_read_only_the_shape_of_the_bin_channels(split, rng, min_chunk):
    # The sweep passes a shape-only view in place of A; NaN everywhere shows
    # that no entry of it is read.
    if min_chunk is not None:
        split(min_chunk)
    bins = BinChannel(a=crandn(rng, 200, 32, 14))
    rf = ReceivedFrame(samples=crandn(rng, 32, 200), domain="frequency")
    matched = frame_statistics(rf, bins)
    shape_only = BinChannel(a=np.broadcast_to(np.complex128(np.nan), bins.a.shape))
    for kind in (
        DetectorKind.MRC_MMSE,
        DetectorKind.TR_MRC,
        DetectorKind.HIGH_SNR_ZF,
    ):
        expected = detect_frame(matched, bins, 0.1, kind).s_hat_time
        assert np.array_equal(detect_frame(matched, shape_only, 0.1, kind).s_hat_time, expected)


class TestStagedErrorsNameTheGlobalBin:
    """Bin 170 sits in the last K x K detector chunk, the precoder's second
    chunk and the fourth chunk sized by A."""

    def test_zero_power_column_in_mrc_mmse(self, split, rng):
        split(STAGED_MIN)
        bins, rf, _ = dead_column_frame(rng, (170,), **STAGED)
        with pytest.raises(DegenerateScaleError, match=r"^bin 170: "):
            detect_frame(rf, bins, 0.1, DetectorKind.MRC_MMSE)

    def test_singular_gram_in_zero_forcing(self, split, rng):
        split(STAGED_MIN)
        bins, rf, _ = dead_column_frame(rng, (170,), **STAGED)
        with pytest.raises(SingularMatrixError, match=r"^bin 170: ") as info:
            detect_frame(rf, bins, 0.0, DetectorKind.HIGH_SNR_ZF)
        assert info.value.index == 170

    def test_singular_gram_in_direct_precoder(self, split, rng):
        split(STAGED_MIN)
        bins, _, sf = dead_column_frame(rng, (170,), **STAGED)
        with pytest.raises(SingularMatrixError, match=r"^bin 170: ") as info:
            precode_frame(sf, bins, 0.0)
        assert info.value.index == 170


# Detection reads 144 entries of a 12-bin frame, so a minimum of 40 makes
# three chunks, [0, 4), [4, 8) and [8, 12): bin 10 sits in the last, and
# bins 5 and 10 in two different chunks, neither the first.  The precoder's
# 48-entry stack runs whole; the staged class above splits it.
@pytest.mark.parametrize("bad_bins, named", [((10,), 10), ((10, 5), 5)])
class TestErrorsNameTheGlobalBin:
    @pytest.mark.parametrize(
        "kind",
        [DetectorKind.MMSE, DetectorKind.MRC_MMSE, DetectorKind.TR_MRC],
    )
    def test_zero_power_column(self, split, rng, bad_bins, named, kind):
        split(40)
        bins, rf, _ = dead_column_frame(rng, bad_bins)
        with pytest.raises(DegenerateScaleError, match=rf"^bin {named}: "):
            detect_frame(rf, bins, 0.1, kind)

    def test_singular_gram_in_zero_forcing(self, split, rng, bad_bins, named):
        split(40)
        bins, rf, _ = dead_column_frame(rng, bad_bins)
        with pytest.raises(SingularMatrixError, match=rf"^bin {named}: ") as info:
            detect_frame(rf, bins, 0.0, DetectorKind.HIGH_SNR_ZF)
        assert info.value.index == named

    def test_direct_precoder(self, split, rng, bad_bins, named):
        split(40)
        bins, _, sf = dead_column_frame(rng, bad_bins)
        with pytest.raises(SingularMatrixError, match=rf"^bin {named}: ") as info:
            precode_frame(sf, bins, 0.0)
        assert info.value.index == named
        with pytest.raises(DegenerateScaleError, match=rf"^bin {named}: "):
            precode_frame(sf, bins, 0.1)


def test_zero_pivot_in_mmse_names_the_global_bin(split, rng):
    # Bin 7's four columns all equal 2**60, so A A^H = 2**122 ones absorbs
    # sigma_w2 = 1 and the Cholesky meets an exact zero second pivot.  The
    # covariance stack has 12 bins of 6 x 6: chunks [0, 4), [4, 8), [8, 12).
    split(4 * 6 * 6)
    a = crandn(rng, 12, 6, 4)
    a[7] = 2.0**60
    rf = ReceivedFrame(samples=crandn(rng, 6, 12), domain="frequency")
    with pytest.raises(SingularMatrixError, match=r"^bin 7: ") as info:
        detect_frame(rf, BinChannel(a=a), 1.0, DetectorKind.MMSE)
    assert info.value.index == 7


def test_a_failing_last_chunk_counts_as_a_failed_frame(split, monkeypatch):
    split(1)
    edit_sweep_statistics(monkeypatch, lambda g, z: kill_column(g, z, -1, 0))
    channel = ChannelConfig(
        num_antennas=4, num_users=2, frame_len=32, channel_len=3, decay_samples=2.0, seed=5
    )
    report = run_monte_carlo(
        ScenarioConfig(
            channel=channel,
            frame=FrameConfig(frame_len=32, cp_len=4),
            detectors=(DetectorKind.MRC_MMSE, DetectorKind.TR_MRC),
            snr_sweep_db=(0.0,),
            frames_per_point=3,
        )
    )
    for row in report.rows:
        assert (row.n_frames, row.n_failures) == (0, 3)

