"""Frames split into chunks of bins: same bytes, same errors.

Every test here sets the minimum chunk size directly, so that small inputs
split as large frames do.
"""

import numpy as np
import pytest

from fdmud import harness, numerics
from fdmud.channel import BinChannel, ChannelConfig, draw_channel, to_bin_channels
from fdmud.detect import DetectorKind, detect_frame
from fdmud.frame import FrameConfig, ReceivedFrame, SymbolFrame, generate_symbols, transmit_bins
from fdmud.harness import ScenarioConfig, run_monte_carlo
from fdmud.numerics import DegenerateScaleError, SingularMatrixError
from fdmud.precode import precode_frame

from conftest import crandn

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
    bins = to_bin_channels(draw_channel(cfg))
    fc = FrameConfig(frame_len=N_BINS, cp_len=5, snr_db=3.0)
    rng = np.random.default_rng(22)
    sf = generate_symbols(3, N_BINS, "qpsk", rng)
    rf = transmit_bins(sf, bins, fc, rng)
    out = {"bins": bins.a, "received": rf.samples, "next_draw": rng.standard_normal(4)}
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
# (10, 11 and 11 bins) and a minimum of 1 one chunk per bin.
@pytest.mark.parametrize("min_chunk", [256, 1])
def test_outputs_do_not_depend_on_chunks(split, min_chunk):
    split(WHOLE)
    expected = every_output()
    split(min_chunk)
    for name, value in every_output().items():
        assert np.array_equal(value, expected[name]), f"{name} differs"


def dead_column_frame(rng, bad_bins, m_ant=4, k_usr=2):
    """A frame whose user-1 column is zero at ``bad_bins`` and nowhere else."""
    a = np.tile(crandn(rng, m_ant, k_usr), (12, 1, 1))
    a[list(bad_bins), :, 1] = 0.0
    rf = ReceivedFrame(samples=crandn(rng, m_ant, 12), domain="frequency")
    sf = SymbolFrame(symbols=crandn(rng, k_usr, 12))
    return BinChannel(a=a), rf, sf


# Detection reads 144 entries of a 12-bin frame and the precoder 120, so a
# minimum of 40 makes three chunks, [0, 4), [4, 8) and [8, 12): bin 10 sits
# in the last, and bins 5 and 10 in two different chunks, neither the first.
@pytest.mark.parametrize("bad_bins, named", [((10,), 10), ((10, 5), 5)])
class TestErrorsNameTheGlobalBin:
    @pytest.mark.parametrize(
        "kind",
        [DetectorKind.MMSE, DetectorKind.MRC_MMSE, DetectorKind.TR_MRC, DetectorKind.LOW_SNR],
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


def test_a_failing_last_chunk_counts_as_a_failed_frame(split, monkeypatch):
    split(1)
    original = harness.to_bin_channels

    def dead_last_bin(realization):
        a = original(realization).a.copy()
        a[-1, :, 0] = 0.0
        return BinChannel(a=a)

    monkeypatch.setattr(harness, "to_bin_channels", dead_last_bin)
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

