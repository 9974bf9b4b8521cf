"""Print every output whose bytes a change must keep, one line each.

    PYTHONPATH=src python -W error::RuntimeWarning tests/byte_manifest.py

In one process this prints

- the md5 of each ``simulate`` CSV in ``CSV_CASES``;
- the sha256 of the TDD path's arrays: MRC-MMSE and MMSE estimates from
  the frame ``transmit`` sends, the MRC-MMSE inverse cache and both
  precoder paths, at 128x16x512 and 64x14x2048;
- the sha256 of ``transmit``'s time-domain samples through the benchmark's
  130-tap channel and 144-sample prefix, at the same two shapes;
- the stdout of ``verify`` and ``precode-check`` at seeds 1, 2 and 3,

and exits 1 if any check prints ``FAIL``.  Run it against a change's
parent and against the change and diff the two outputs: every line must
match.

Lines that start with ``~`` follow the BLAS thread count at rounding level
(OpenBLAS splits a routine differently at each thread count; with one to
four threads no other line moved), so they match only between runs with the
same threads.  Every other line must also
match between an unpinned run and one under ``taskset -c 0``.  The CSVs
print dB to six decimals and depend only on the NumPy and SciPy releases,
so tier-1 pins their digests below; the raw-array digests and ``verify``'s
error figures can differ between CPUs and BLAS builds and are compared
only run against run.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from fdmud.channel import ChannelConfig, draw_channel, to_bin_channels
from fdmud.cli import main
from fdmud.detect import DetectorKind, detect_frame
from fdmud.frame import FrameConfig, generate_symbols, to_frequency_domain, transmit
from fdmud.precode import precode_frame

_SWEEP = ["--frames-per-point", "2", "--snr-sweep=-10:10:10"]

# (name, simulate arguments, md5 of the CSV) under the NumPy 2.4.6 and
# SciPy 1.17.1 that CI installs.  A change to how a frame consumes random
# numbers must bump harness.RNG_LAYOUT and these digests.
CSV_CASES = (
    # All five kinds, the M x M reference among them.
    ("five-kind", ["--n", "256", "--l-h", "16", "--l-cp", "32", *_SWEEP,
                   "--detectors", "mmse,mrc_mmse,tr_mrc,low_snr,high_snr_zf"],
     "e74c55007e51388db1dbfe24b06729dd"),
    # The K x K kinds at the default 64 x 14 x 2048, whose shared statistics
    # span several chunks of bins.
    ("four-kind", [*_SWEEP, "--detectors", "mrc_mmse,tr_mrc,low_snr,high_snr_zf"],
     "cd85873dd096ec61767d6d0970f01147"),
    # At M = 128 the M x M reference solves chunks of 3 or 4 bins.
    ("m128", ["--m", "128", "--k", "16", "--n", "128", "--l-h", "16", "--l-cp", "32", *_SWEEP,
              "--detectors", "mmse,mrc_mmse,high_snr_zf"],
     "d5a32ce520dda6eb028d53382e4a2c7e"),
)

# verify checks whose detail line follows the BLAS thread count.  The
# M x M reference solves on one thread, so detector-equivalence does not.
THREAD_DEPENDENT = ("pushthrough-identity", "unbias-coefficients-match")


def simulate_csv(args, directory) -> bytes:
    """The CSV that ``fdmud simulate`` writes for ``args``; its table is discarded."""
    out = Path(directory) / "sinr.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["simulate", *args, "--output", str(out)])
    if rc != 0:
        raise RuntimeError(f"simulate {' '.join(args)} exited {rc}")
    return out.read_bytes()


def tdd_lines():
    """The TDD path from a sent frame: MRC-MMSE, its inverse cache, both precoder paths and MMSE."""
    for m, k, n in ((128, 16, 512), (64, 14, 2048)):
        realization = draw_channel(ChannelConfig(m, k, n, 16, decay_samples=4.0, seed=1))
        bins = to_bin_channels(realization)
        fc = FrameConfig(frame_len=n, cp_len=32, snr_db=5.0)
        rng = np.random.default_rng(2)
        sf = generate_symbols(k, n, "qpsk", rng)
        rf = to_frequency_domain(transmit(sf, realization, fc, rng))
        up = detect_frame(rf, bins, fc.sigma_w2, DetectorKind.MRC_MMSE)
        outputs = {
            "mrc_mmse": up.s_hat_time,
            "cache.inv": up.cache.inv,
            "precode.cache": precode_frame(sf, bins, fc.sigma_w2, cache=up.cache).x,
            "precode.direct": precode_frame(sf, bins, fc.sigma_w2).x,
            "mmse": detect_frame(rf, bins, fc.sigma_w2, DetectorKind.MMSE).s_hat_time,
        }
        for name, x in outputs.items():
            yield f"tdd {m}x{k}x{n} {name} {hashlib.sha256(x.tobytes()).hexdigest()}"


def transmit_lines():
    """The time-domain oracle: overlap-save windows, antenna blocks and BLAS products."""
    for m, k, n in ((128, 16, 512), (64, 14, 2048)):
        realization = draw_channel(ChannelConfig(m, k, n, 130, decay_samples=25.0, seed=1))
        fc = FrameConfig(frame_len=n, cp_len=144, snr_db=5.0)
        rng = np.random.default_rng(2)
        samples = transmit(generate_symbols(k, n, "qpsk", rng), realization, fc, rng).samples
        yield f"transmit {m}x{k}x{n} {hashlib.sha256(samples.tobytes()).hexdigest()}"


def check_lines(command: str, seed: int):
    """``fdmud <command> --seed <seed>`` stdout, one line per check, and its exit status."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main([command, "--seed", str(seed)])
    lines = []
    for line in buf.getvalue().splitlines():
        mark = "~" if line.split()[1].rstrip(":") in THREAD_DEPENDENT else ""
        lines.append(f"{mark}{command} {seed} {line}")
    return lines, rc


def manifest() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, args, _ in CSV_CASES:
            print(f"simulate {name} {hashlib.md5(simulate_csv(args, tmp)).hexdigest()}")
    for line in (*tdd_lines(), *transmit_lines()):
        print(line)
    failed = False
    for seed in (1, 2, 3):
        for command in ("verify", "precode-check"):
            lines, rc = check_lines(command, seed)
            for line in lines:
                print(line)
            failed |= rc != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(manifest())
