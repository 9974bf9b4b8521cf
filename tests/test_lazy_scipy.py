"""SciPy is loaded only by the M x M MMSE reference.

Each check runs in a fresh interpreter, since this test process may already
hold SciPy.
"""

import json

from conftest import run_fresh

PRELUDE = """
import json, sys
import numpy as np
from fdmud import harness
from fdmud.channel import ChannelConfig, draw_channel, to_bin_channels
from fdmud.detect import DetectorKind, detect_frame
from fdmud.frame import FrameConfig, generate_symbols, to_frequency_domain, transmit
from fdmud.precode import precode_frame

CHANNEL = ChannelConfig(
    num_antennas=6, num_users=2, frame_len=16, channel_len=3, decay_samples=2.0, seed=1
)
FRAME = FrameConfig(frame_len=16, cp_len=4)

def sweep(*kinds):
    harness.run_monte_carlo(
        harness.ScenarioConfig(
            channel=CHANNEL, frame=FRAME, detectors=kinds, snr_sweep_db=(0.0,), frames_per_point=1
        )
    )

def precode_both_paths():
    rng = np.random.default_rng(2)
    realization = draw_channel(CHANNEL)
    bins = to_bin_channels(realization)
    sent = generate_symbols(2, 16, "qpsk", rng)
    rf = to_frequency_domain(transmit(sent, realization, FRAME, rng))
    cache = detect_frame(rf, bins, FRAME.sigma_w2, DetectorKind.MRC_MMSE).cache
    precode_frame(sent, bins, FRAME.sigma_w2, cache=cache)
    precode_frame(sent, bins, FRAME.sigma_w2)
"""

REPORT = 'print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))'


def scipy_loaded_by(body: str) -> list[str]:
    """The ``scipy`` modules a fresh interpreter holds after running ``body``."""
    return json.loads(run_fresh("\n".join([PRELUDE, body, REPORT])))


def test_import_loads_no_scipy():
    assert scipy_loaded_by("") == []


def test_efficient_path_and_precoder_load_no_scipy():
    body = """
sweep(DetectorKind.MRC_MMSE, DetectorKind.TR_MRC, DetectorKind.HIGH_SNR_ZF)
precode_both_paths()
"""
    assert scipy_loaded_by(body) == []


def test_default_simulate_loads_no_scipy(tmp_path):
    # The CLI's default detectors on a short frame, with numeric warnings as
    # errors, as pytest runs this suite.
    body = f"""
import warnings
from fdmud.cli import main
warnings.simplefilter("error", RuntimeWarning)
args = ["--n", "256", "--l-h", "16", "--l-cp", "32", "--frames-per-point", "1", "--snr-sweep=-10:10:10"]
assert main(["simulate", *args, "--output", {str(tmp_path / "sinr.csv")!r}]) == 0
"""
    assert scipy_loaded_by(body) == []


def test_mmse_loads_scipy_linalg():
    assert "scipy.linalg" in scipy_loaded_by("sweep(DetectorKind.MMSE)")
