"""The benchmark workloads: inputs made from the seed, one op, and its gates.

Every workload is a closed loop with one client: the runner starts op ``i + 1``
only after op ``i`` and its gates have finished.  Workloads reach fdmud only
through its public functions, looked up on their modules at call time, so
the traced run can wrap them where the calling module looks them up.

``gate(out)`` returns the list of problems with one op's output; an empty
list means the output is correct.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from fdmud import channel, detect, frame, harness, precode
from fdmud.detect import DetectorKind

# Margin of the acceptance suite's gain criteria, in dB.
GAIN_MARGIN_DB = 1.0
# Agreement the identity checks demand (relative to the pair's magnitude).
EQUIVALENCE_TOL = 1e-9
PRECODER_TOL = 1e-10
SNR_CYCLE_DB = (-30.0, -7.0, 0.0, 10.0)


def derive_seed(*key: int) -> int:
    """A 64-bit seed for one input stream, keyed by the workload seed."""
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


def max_rel_diff(x, y) -> float:
    """Largest element-wise difference over the pair's magnitude scale."""
    x, y = np.asarray(x), np.asarray(y)
    scale = max(np.abs(x).max(), np.abs(y).max(), 1e-300)
    return float(np.abs(x - y).max() / scale)


def gain_bounds_db(m: int, k: int) -> tuple[float, float]:
    """The acceptance band: ``10log10(M-K) - margin`` to ``10log10(M) + margin``."""
    low_snr_gain, high_snr_gain = harness.theoretical_gains(m, k)
    return (
        10.0 * np.log10(high_snr_gain) - GAIN_MARGIN_DB,
        10.0 * np.log10(low_snr_gain) + GAIN_MARGIN_DB,
    )


@dataclass(frozen=True)
class Shape:
    m: int
    k: int
    n: int
    l_h: int = 130
    cp: int = 144
    decay: float = 25.0

    def channel_config(self, seed: int) -> channel.ChannelConfig:
        return channel.ChannelConfig(
            num_antennas=self.m,
            num_users=self.k,
            frame_len=self.n,
            channel_len=self.l_h,
            decay_samples=self.decay,
            seed=seed,
        )

    def frame_config(self, snr_db: float) -> frame.FrameConfig:
        return frame.FrameConfig(frame_len=self.n, cp_len=self.cp, snr_db=snr_db)


@dataclass(frozen=True)
class Inputs:
    """One synthesised uplink frame and its channel."""

    bins: channel.BinChannel
    received: frame.ReceivedFrame
    sent: frame.SymbolFrame
    snr_db: float
    sigma_w2: float
    probe_bins: np.ndarray  # bins the single-bin API is called on


def synthesise(shape: Shape, seed: int, index: int, snr_db: float, probes: int = 0) -> Inputs:
    realization = channel.draw_channel(shape.channel_config(derive_seed(seed, index, 0)))
    rng = np.random.default_rng(derive_seed(seed, index, 1))
    fc = shape.frame_config(snr_db)
    sent = frame.generate_symbols(shape.k, shape.n, fc.constellation, rng)
    received = frame.to_frequency_domain(frame.transmit(sent, realization, fc, rng))
    probe_bins = np.sort(rng.choice(shape.n, size=probes, replace=False))
    return Inputs(
        channel.to_bin_channels(realization), received, sent, snr_db, fc.sigma_w2, probe_bins
    )


class Workload:
    """What the runner needs from a workload.

    The ``layer_*`` maps name the per-layer metrics: metric name to span name
    for self time per op (``_ms``), self time per call (``_us``) and calls
    per op (``_calls``); metric name to count key for counts per op.
    """

    name: str
    shape: Shape
    layer_ms: dict[str, str] = {}
    layer_us: dict[str, str] = {}
    layer_calls: dict[str, str] = {}
    layer_counts: dict[str, str] = {}

    def setup(self, seed: int) -> None:
        """Make the inputs from the seed; run again, it replaces them."""
        raise NotImplementedError

    def patch(self, tracer) -> None:
        """Wrap the module functions the ops reach only from inside fdmud."""
        raise NotImplementedError

    def op(self, i: int, tr):
        """Run op ``i``, opening spans through ``tr``; return its output."""
        raise NotImplementedError

    def gate(self, out) -> list[str]:
        """Problems with one op's output; empty when it is correct."""
        raise NotImplementedError


class McSweep(Workload):
    """One Monte-Carlo frame of the acceptance reference scenario per op.

    This is what ``fdmud simulate`` and the acceptance sweep do, and the only
    workload whose ops draw channels and synthesise frames, so changes to
    ``channel`` and ``frame`` show here and nowhere else.
    """

    name = "mc-sweep"
    shape = Shape(m=64, k=14, n=2048)
    detectors = (DetectorKind.MRC_MMSE, DetectorKind.TR_MRC)

    layer_ms = {
        "channel.draw_channel_ms": "channel.draw_channel",
        "channel.to_bin_channels_ms": "channel.to_bin_channels",
        "frame.generate_symbols_ms": "frame.generate_symbols",
        "frame.transmit_ms": "frame.transmit",
        "frame.to_frequency_domain_ms": "frame.to_frequency_domain",
        "detect.mrc_mmse_ms": "detect.mrc_mmse",
        "detect.tr_mrc_ms": "detect.tr_mrc",
        "numerics.invert_hpd_ms": "numerics.invert_hpd",
        "harness.measure_sinr_ms": "harness.measure_sinr",
        "harness.run_monte_carlo_self_ms": "harness.run_monte_carlo",
    }
    layer_calls = {"numerics.invert_hpd_calls": "numerics.invert_hpd"}
    layer_counts = {"channel.taps_per_op": "channel.taps", "frame.samples_per_op": "frame.samples"}

    def setup(self, seed: int) -> None:
        self.seed = seed

    def patch(self, tracer) -> None:
        tracer.patch(
            harness, "draw_channel", "channel.draw_channel",
            count=lambda args, out: ("channel.taps", out.taps.size),
        )
        tracer.patch(harness, "to_bin_channels", "channel.to_bin_channels")
        tracer.patch(harness, "generate_symbols", "frame.generate_symbols")
        tracer.patch(
            harness, "transmit", "frame.transmit",
            count=lambda args, out: ("frame.samples", out.samples.size),
        )
        tracer.patch(harness, "to_frequency_domain", "frame.to_frequency_domain")
        tracer.patch(
            harness, "detect_frame", lambda args: f"detect.{args[3].value}",
            count=lambda args, out: (f"bins.{args[3].value}", args[1].a.shape[0]),
        )
        tracer.patch(harness, "measure_sinr", "harness.measure_sinr")
        tracer.patch(detect, "invert_hpd", "numerics.invert_hpd")

    def op(self, i: int, tr):
        cfg = harness.ScenarioConfig(
            channel=self.shape.channel_config(derive_seed(self.seed, i)),
            frame=self.shape.frame_config(0.0),  # the sweep point sets the SNR
            detectors=self.detectors,
            snr_sweep_db=(SNR_CYCLE_DB[i % len(SNR_CYCLE_DB)],),
            frames_per_point=1,
        )
        with tr.span("harness.run_monte_carlo"):
            return harness.run_monte_carlo(cfg)

    def gate(self, report) -> list[str]:
        low, high = gain_bounds_db(self.shape.m, self.shape.k)
        problems = []
        if sorted(r.detector.value for r in report.rows) != sorted(d.value for d in self.detectors):
            problems.append(f"rows for {[r.detector.value for r in report.rows]}")
        for row in report.rows:
            if row.n_failures != 0 or row.n_frames != 1:
                problems.append(
                    f"{row.detector.value}: {row.n_failures} failures, {row.n_frames} frames"
                )
            if row.detector is DetectorKind.MRC_MMSE and not low <= row.gain_db <= high:
                problems.append(
                    f"MRC-MMSE gain {row.gain_db:.3f} dB at {row.input_snr_db:g} dB "
                    f"outside [{low:.3f}, {high:.3f}]"
                )
        return problems


class _FrameSet(Workload):
    """Workloads that cycle through frames synthesised during setup."""

    frames_per_set = 8
    probes = 0

    def setup(self, seed: int) -> None:
        self.frames = None  # release the previous set before building the next
        self.frames = [
            synthesise(self.shape, seed, f, SNR_CYCLE_DB[f % len(SNR_CYCLE_DB)], self.probes)
            for f in range(self.frames_per_set)
        ]

    def patch(self, tracer) -> None:
        tracer.patch(detect, "invert_hpd", "numerics.invert_hpd")
        tracer.patch(detect, "solve_hpd", "numerics.solve_hpd")
        tracer.patch(precode, "invert_hpd", "numerics.invert_hpd")

    def _detect(self, inp: Inputs, kind: DetectorKind, tr):
        with tr.span(f"detect.{kind.value}"):
            result = detect.detect_frame(inp.received, inp.bins, inp.sigma_w2, kind)
        tr.count(f"bins.{kind.value}", self.shape.n)
        return result


class TddMassive(_FrameSet):
    """One TDD receive-and-respond per op in the M >> K regime.

    The K x K path and the inverse reuse do all the timed work; frames are
    made during set-up, so a synthesis change must read flat here.
    """

    name = "tdd-massive"
    shape = Shape(m=128, k=16, n=512)

    layer_ms = {
        "detect.mrc_mmse_ms": "detect.mrc_mmse",
        "precode.cache_ms": "precode.cache",
        "numerics.invert_hpd_ms": "numerics.invert_hpd",
    }
    layer_calls = {"numerics.invert_hpd_calls": "numerics.invert_hpd"}

    def op(self, i: int, tr):
        inp = self.frames[i % len(self.frames)]
        uplink = self._detect(inp, DetectorKind.MRC_MMSE, tr)
        with tr.span("precode.cache"):
            downlink = precode.precode_frame(inp.sent, inp.bins, inp.sigma_w2, cache=uplink.cache)
        return inp, uplink, downlink

    def gate(self, out) -> list[str]:
        inp, uplink, downlink = out
        low, high = gain_bounds_db(self.shape.m, self.shape.k)
        gain = 10.0 * np.log10(np.mean(harness.measure_sinr(uplink, inp.sent))) - inp.snr_db
        problems = []
        if not low <= gain <= high:
            problems.append(
                f"MRC-MMSE gain {gain:.3f} dB at {inp.snr_db:g} dB outside [{low:.3f}, {high:.3f}]"
            )
        if downlink.x.shape != (self.shape.m, self.shape.n) or not np.all(
            np.isfinite(downlink.x)
        ):
            problems.append("precoder output has the wrong shape or non-finite entries")
        return problems


class Crosscheck(_FrameSet):
    """Every detector, both precoder paths and the single-bin API per op.

    The only workload on the M x M MMSE path, ZF, low-SNR, the direct
    precoder and the single-bin functions.  The single-bin calls are small,
    so Python overhead dominates them: a change that speeds batched frames
    but slows single-bin calls shows here.
    """

    name = "crosscheck"
    shape = Shape(m=64, k=14, n=256)
    probes = 16

    layer_ms = {
        "detect.mmse_ms": "detect.mmse",
        "detect.mrc_mmse_ms": "detect.mrc_mmse",
        "detect.tr_mrc_ms": "detect.tr_mrc",
        "detect.low_snr_ms": "detect.low_snr",
        "detect.high_snr_zf_ms": "detect.high_snr_zf",
        "precode.cache_ms": "precode.cache",
        "precode.direct_ms": "precode.direct",
        "numerics.invert_hpd_ms": "numerics.invert_hpd",
        "numerics.solve_hpd_ms": "numerics.solve_hpd",
    }
    layer_us = {
        "detect.mmse_bin_us": "detect.mmse_bin",
        "detect.mrcmmse_bin_us": "detect.mrcmmse_bin",
        "detect.mrc_bin_us": "detect.mrc_bin",
    }
    layer_calls = {
        "numerics.invert_hpd_calls": "numerics.invert_hpd",
        "numerics.solve_hpd_calls": "numerics.solve_hpd",
    }

    def op(self, i: int, tr):
        inp = self.frames[i % len(self.frames)]
        results = {kind: self._detect(inp, kind, tr) for kind in DetectorKind}
        with tr.span("precode.cache"):
            cached = precode.precode_frame(
                inp.sent, inp.bins, inp.sigma_w2, cache=results[DetectorKind.MRC_MMSE].cache
            )
        with tr.span("precode.direct"):
            direct = precode.precode_frame(inp.sent, inp.bins, inp.sigma_w2)
        singles = []
        for n in inp.probe_bins:
            a_n = inp.bins.a[n]
            y_n = frame.bin_vector(inp.received, int(n))
            with tr.span("detect.mmse_bin"):
                via_mmse = detect.mmse_bin(a_n, y_n, inp.sigma_w2)
            with tr.span("detect.mrc_bin"):
                combined = detect.mrc_bin(a_n, y_n)
            with tr.span("detect.mrcmmse_bin"):
                via_mrc, _ = detect.mrcmmse_bin(a_n, combined, inp.sigma_w2)
            singles.append((int(n), via_mmse, via_mrc))
        tr.count("bins.mmse", len(singles))
        tr.count("bins.mrc_mmse", len(singles))
        return results, cached, direct, singles

    def gate(self, out) -> list[str]:
        results, cached, direct, singles = out
        problems = []
        for kind, result in results.items():
            if result.s_hat_time.shape != (self.shape.k, self.shape.n) or not np.all(
                np.isfinite(result.s_hat_time)
            ):
                problems.append(f"{kind.value}: wrong shape or non-finite estimates")
        if problems:
            return problems

        def agree(what: str, x, y, tol: float) -> None:
            diff = max_rel_diff(x, y)
            if not diff <= tol:
                problems.append(f"{what}: relative difference {diff:.3e} > {tol:g}")

        mmse = results[DetectorKind.MMSE].s_hat_time
        mrc_mmse = results[DetectorKind.MRC_MMSE].s_hat_time
        agree("MMSE vs MRC-MMSE frame", mmse, mrc_mmse, EQUIVALENCE_TOL)
        agree("precoder cache vs direct x", cached.x, direct.x, PRECODER_TOL)
        agree("precoder cache vs direct beta", cached.beta_used, direct.beta_used, PRECODER_TOL)
        mmse_bins = np.fft.fft(mmse, axis=1, norm="ortho")
        mrc_mmse_bins = np.fft.fft(mrc_mmse, axis=1, norm="ortho")
        for n, via_mmse, via_mrc in singles:
            agree(f"bin {n}: mmse_bin vs mrcmmse_bin", via_mmse, via_mrc, EQUIVALENCE_TOL)
            agree(f"bin {n}: mmse_bin vs MMSE frame", via_mmse, mmse_bins[:, n], EQUIVALENCE_TOL)
            agree(
                f"bin {n}: mrcmmse_bin vs MRC-MMSE frame",
                via_mrc,
                mrc_mmse_bins[:, n],
                EQUIVALENCE_TOL,
            )
        return problems


WORKLOADS = {wl.name: wl for wl in (McSweep, TddMassive, Crosscheck)}

# Measured-complexity grid: (M, K) at one N, MMSE and MRC-MMSE frame detection.
GRID = ((16, 4), (64, 14), (128, 8), (128, 30))
GRID_N = 64
GRID_REPEATS = 5


def complexity_grid(seed: int) -> dict[str, float]:
    """Measured MMSE / MRC-MMSE wall-time ratio beside the modelled one."""
    metrics = {}
    for m, k in GRID:
        inp = synthesise(Shape(m=m, k=k, n=GRID_N, l_h=16, cp=32), seed, m * 1000 + k, 0.0)
        times = {DetectorKind.MMSE: [], DetectorKind.MRC_MMSE: []}
        for _ in range(GRID_REPEATS):
            for kind, samples in times.items():
                start = time.perf_counter()
                detect.detect_frame(inp.received, inp.bins, inp.sigma_w2, kind)
                samples.append(time.perf_counter() - start)
        measured = np.median(times[DetectorKind.MMSE]) / np.median(times[DetectorKind.MRC_MMSE])
        modelled = harness.count_mults_mmse(m, k) / harness.count_mults_mrcmmse(m, k)
        metrics[f"detect.ratio_measured.{m}x{k}"] = float(measured)
        metrics[f"detect.ratio_modelled.{m}x{k}"] = float(modelled)
    return metrics
