"""Tests of the benchmark's own code: gates fire on corrupted output, spans tile ops.

Run from the repository root with ``python -m pytest benchmarks``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

from fdmud import detect, harness  # noqa: E402
from fdmud.detect import DetectionResult, DetectorKind, InverseCache  # noqa: E402
from fdmud.numerics import SingularMatrixError  # noqa: E402
from run import Tally, layer_metrics, run_op, run_paired  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def workloads():
    built = {}
    for name, cls in WORKLOADS.items():
        built[name] = cls()
        built[name].setup(seed=3)
    return built


def failed_ops(wl, ops=1) -> Tally:
    tally = Tally()
    for i in range(ops):
        run_op(wl, i, NullTracer(), tally)
    return tally


def corrupting(original, kind, change):
    """``detect_frame`` whose output for ``kind`` passes through ``change``."""

    def detect_frame(rf, bc, sigma_w2, k):
        result = original(rf, bc, sigma_w2, k)
        return change(result) if k is kind else result

    return detect_frame


def shifted(offset):
    return lambda r: DetectionResult(r.s_hat_time + offset, r.kind, r.cache)


def halved(r):
    """Biased estimates: the gain leaves the acceptance band at every SNR."""
    return DetectionResult(r.s_hat_time * 0.5, r.kind, r.cache)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_clean_ops_pass(workloads, name):
    tally = failed_ops(workloads[name], ops=2)
    assert (tally.attempted, tally.failed) == (2, 0), tally.errors


def test_mc_sweep_gain_gate(workloads, monkeypatch):
    original = harness.detect_frame
    monkeypatch.setattr(
        harness, "detect_frame", corrupting(original, DetectorKind.MRC_MMSE, halved)
    )
    tally = failed_ops(workloads["mc-sweep"])
    assert tally.failed == 1 and "gain" in tally.errors[0]


def test_mc_sweep_failure_count_gate(workloads, monkeypatch):
    original = harness.detect_frame

    def singular(result):
        raise SingularMatrixError("bin 0: injected")

    monkeypatch.setattr(
        harness, "detect_frame", corrupting(original, DetectorKind.TR_MRC, singular)
    )
    tally = failed_ops(workloads["mc-sweep"])
    assert tally.failed == 1 and "1 failures" in tally.errors[0]


def test_tdd_gain_gate(workloads, monkeypatch):
    original = detect.detect_frame
    monkeypatch.setattr(
        detect, "detect_frame", corrupting(original, DetectorKind.MRC_MMSE, halved)
    )
    tally = failed_ops(workloads["tdd-massive"])
    assert tally.failed == 1 and "gain" in tally.errors[0]


def test_crosscheck_equivalence_gate(workloads, monkeypatch):
    original = detect.detect_frame
    monkeypatch.setattr(
        detect, "detect_frame", corrupting(original, DetectorKind.MMSE, shifted(1e-7))
    )
    tally = failed_ops(workloads["crosscheck"])
    assert tally.failed == 1 and "MMSE vs MRC-MMSE frame" in tally.errors[0]


def test_crosscheck_precoder_gate(workloads, monkeypatch):
    # A cache inverse off by 1e-8 must show as cache path != direct path.
    def bad_cache(r):
        return DetectionResult(
            r.s_hat_time, r.kind, InverseCache(r.cache.inv * (1 + 1e-8), r.cache.sigma_w2)
        )

    original = detect.detect_frame
    monkeypatch.setattr(
        detect, "detect_frame", corrupting(original, DetectorKind.MRC_MMSE, bad_cache)
    )
    tally = failed_ops(workloads["crosscheck"])
    assert tally.failed == 1 and "precoder cache vs direct" in tally.errors[0]


def test_crosscheck_single_bin_gate(workloads, monkeypatch):
    original = detect.mrcmmse_bin

    def off(a_n, r_n, sigma_w2):
        estimate, inverse = original(a_n, r_n, sigma_w2)
        return estimate * (1 + 1e-7), inverse

    monkeypatch.setattr(detect, "mrcmmse_bin", off)
    tally = failed_ops(workloads["crosscheck"])
    assert tally.failed == 1 and "mrcmmse_bin vs MRC-MMSE frame" in tally.errors[0]


def test_raising_op_counts_as_failed(workloads, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(detect, "detect_frame", broken)
    tally = failed_ops(workloads["tdd-massive"])
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "ValueError" in tally.errors[0]


def test_self_times_tile_the_op_and_patches_are_undone(workloads):
    wl = workloads["crosscheck"]
    originals = (detect.invert_hpd, detect.solve_hpd)
    tracer = Tracer()
    wl.patch(tracer)
    try:
        tally = Tally()
        run_op(wl, 0, tracer, tally)
    finally:
        tracer.restore()
    assert (detect.invert_hpd, detect.solve_hpd) == originals
    assert tally.failed == 0
    rows = tracer.per_name()
    assert sum(row["self"] for row in rows.values()) == rows["op"]["incl"]
    n = wl.shape.n
    # MRC-MMSE and ZF frames, the direct precoder, and one per single-bin pair.
    assert rows["numerics.invert_hpd"]["calls"] == 3 * n + wl.probes
    assert rows["numerics.solve_hpd"]["calls"] == n + wl.probes
    assert tracer.counts["bins.mmse"] == n + wl.probes


def traced_pair(wl):
    tracer = Tracer()
    untraced, traced = run_paired(wl, 0.0, tracer)
    return traced, layer_metrics(wl, tracer, traced, untraced)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_metrics_survive_ops_that_raise(workloads, monkeypatch, name):
    _, clean = traced_pair(workloads[name])

    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(detect, "detect_frame", broken)
    monkeypatch.setattr(harness, "detect_frame", broken)
    traced, metrics = traced_pair(workloads[name])
    assert (traced.attempted, traced.failed) == (1, 1)
    assert metrics.keys() == clean.keys()
