"""A sweep frame reuses the heap the frame before it freed.

glibc gives freed heap back to the kernel once the free space at its top
exceeds the trim threshold, twice the largest block it has freed from
``mmap``: in the default sweep that block is the frame's ``A^H A``, so a frame
whose heap peaks above two Grams' worth returns it all, and the next frame
faults it in again, page by page.  The check runs in a fresh interpreter,
so that no allocation of this test process moves the heap.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import fdmud

SRC = Path(fdmud.__file__).resolve().parent.parent

# Minor page faults per frame that a frame reusing the heap stays far below:
# one that re-faults it takes about 3,600 or 4,600 at 64 x 14 x 2048.
MAX_FAULTS_PER_FRAME = 1000

SWEEP = """
import json, resource
from fdmud import harness

values = {key: row[0] for key, row in harness.SCENARIO_TABLE.items()}
values.update(snr_sweep="0", frames_per_point=2)
cfg = harness.build_scenario(values)

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

harness.run_monte_carlo(cfg)  # one-time allocations and the trim threshold set
before = faults()
harness.run_monte_carlo(cfg)
print(json.dumps({"frames": cfg.frames_per_point, "faults": faults() - before}))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the trim threshold is glibc's",
)
def test_default_sweep_frames_reuse_the_heap():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SWEEP], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    run = json.loads(done.stdout.splitlines()[-1])
    per_frame = run["faults"] / run["frames"]
    assert per_frame < MAX_FAULTS_PER_FRAME, (
        f"{per_frame:.0f} minor page faults per 64 x 14 x 2048 sweep frame: the frame's heap "
        "peaks above glibc's trim threshold (twice the A^H A stack), so each frame returns "
        "its heap to the kernel and the next faults it in again"
    )
