"""fdmud benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload mc-sweep --seed 1 --seconds 30 --trace 0

Workloads (one op in brackets; see ``workloads.py`` for why each exists):

* ``mc-sweep`` [one Monte-Carlo frame of the 64x14x2048 reference scenario]
* ``tdd-massive`` [MRC-MMSE detection plus cache-fed precoding, 128x16x512]
* ``crosscheck`` [all detectors, both precoder paths and 16 single-bin
  pairs at 64x14x256, cross-checked against each other]

With ``--trace 0`` the named workload runs untraced: set-up (input synthesis
and one warm-up op) is repeated, and ``setup_s`` is the import time plus the
median set-up.  Then ops run back to back for ``--seconds``.

With ``--trace 1`` every workload runs, for a third of ``--seconds`` each, so
that every per-layer metric is present in every traced run.  Each op runs
once untraced and then once traced on the same input; after each
workload's loop its spans are written to ``benchmarks/out/spans.csv``.  The
measured-complexity grid follows.  BLAS threads are left at the library default
and only recorded.

Each op's output passes through the workload's correctness gates; an op that
raises or fails a gate counts as failed.  Gates run outside the op's timed
span, so ``ops_per_s`` is timed ops over the seconds those ops took.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it print every metric with its
unit, plus ``failed_frac``, ``op_ms_p90`` (runs of at least 100 ops) and the
run's provenance.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import NullTracer, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
P90_MIN_OPS = 100
MAX_ERRORS_SHOWN = 5
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}


@dataclass
class Tally:
    """Latencies of timed ops and the count of ops attempted and failed."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    @property
    def p50(self) -> float:
        return statistics.median(self.latencies)

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


def run_op(wl, i: int, tr, tally: Tally, timed: bool = True) -> None:
    """Run op ``i`` and its gates; a raise or a failed gate counts as failed."""
    start = time.perf_counter()
    tr.op = i
    try:
        with tr.span("op"):
            out = wl.op(i, tr)
        latency = time.perf_counter() - start
        tr.op = -1
        problems = wl.gate(out)
    except Exception as exc:  # one failed op must not end the run
        latency = time.perf_counter() - start
        problems = [f"raised {type(exc).__name__}: {exc}"]
    finally:
        tr.op = -1
    tally.attempted += 1
    if timed:
        tally.latencies.append(latency)
    if problems:
        tally.failed += 1
        tally.errors.append(f"{wl.name} op {i}: {'; '.join(problems)}")


def run_loop(wl, seconds: float, tr) -> Tally:
    """Closed loop, one client: ops back to back until ``seconds`` have passed."""
    tally = Tally()
    start = time.perf_counter()
    i = 0
    while True:
        run_op(wl, i, tr, tally)
        i += 1
        if time.perf_counter() - start >= seconds:
            return tally


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports; read here, never set."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = getter()
                break
    return found


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "git_commit": git_commit(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
        ),
        "seed": seed,
    }


def layer_metrics(wl, tracer: Tracer, traced: Tally, untraced: Tally) -> dict[str, float]:
    """Per-op self times, per-call costs, counts and ratios of one traced loop."""
    from fdmud.harness import count_mults_mmse, count_mults_mrcmmse

    ops = len(traced.latencies)
    rows = tracer.per_name()
    empty = {"self": 0, "incl": 0, "calls": 0}  # a span no op reached, e.g. all raised
    out = {}
    for metric, span in wl.layer_ms.items():
        out[metric] = rows.get(span, empty)["self"] / ops / 1e6
    for metric, span in wl.layer_us.items():
        row = rows.get(span, empty)
        out[metric] = row["self"] / max(row["calls"], 1) / 1e3
    for metric, span in wl.layer_calls.items():
        out[metric] = rows.get(span, empty)["calls"] / ops
    for metric, key in wl.layer_counts.items():
        out[metric] = tracer.counts[key] / ops

    m, k, n = wl.shape.m, wl.shape.k, wl.shape.n
    bins = {key[5:]: v / ops for key, v in tracer.counts.items() if key.startswith("bins.")}
    out["detect.bins_per_op"] = sum(bins.values())
    out["detect.mults_mrcmmse"] = count_mults_mrcmmse(m, k) * bins.get("mrc_mmse", 0)
    frame_mrc = rows.get("detect.mrc_mmse", empty)
    out["detect.mrc_mmse_gmults_per_s"] = (
        count_mults_mrcmmse(m, k) * n * frame_mrc["calls"] / max(frame_mrc["incl"], 1)
    )
    if "detect.mmse" in wl.layer_ms.values():
        out["detect.mults_mmse"] = count_mults_mmse(m, k) * bins.get("mmse", 0)
        out["detect.ratio_measured"] = (
            rows.get("detect.mmse", empty)["incl"] / max(frame_mrc["incl"], 1)
        )
        out["detect.ratio_modelled"] = count_mults_mmse(m, k) / count_mults_mrcmmse(m, k)

    out["trace.untraced_ops_per_s"] = untraced.ops_per_s
    out["trace.traced_ops_per_s"] = traced.ops_per_s
    # Self times of every layer span, op glue left out, over the same op untraced.
    accounted = [
        ns / 1e9 / untraced.latencies[op]
        for op, ns in tracer.self_ns_by_op(exclude="op").items()
    ]
    out["trace.accounted_frac"] = statistics.median(accounted) if accounted else 0.0
    return {f"{wl.name}.{metric}": value for metric, value in out.items()}


def untraced_run(workload: str, seed: int, seconds: float, import_s: float):
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]()
    warm = Tally()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup(seed)
        run_op(wl, 0, NullTracer(), warm, timed=False)
        setup_times.append(time.perf_counter() - start)
    timed = run_loop(wl, seconds, NullTracer())
    timed.absorb(warm)

    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "ops_per_s": timed.ops_per_s,
        "op_ms_p50": timed.p50 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"failed_frac": (timed.failed / timed.attempted, "fraction")}
    if len(timed.latencies) >= P90_MIN_OPS:
        extra["op_ms_p90"] = (statistics.quantiles(timed.latencies, n=10)[-1] * 1e3, "ms")
    print(f"workload {workload}: {len(timed.latencies)} timed ops in a closed loop, 1 client")
    for name, value in metrics.items():
        print(f"  {name:<14} {value:.6g} {END_TO_END_UNITS[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name:<14} {value:.6g} {unit}")
    if "op_ms_p90" not in extra:
        print(f"  {'op_ms_p90':<14} not reported: fewer than {P90_MIN_OPS} ops")
    return timed, {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in metrics.items()}


def run_paired(wl, seconds: float, tracer: Tracer) -> tuple[Tally, Tally]:
    """Closed loop that runs every op twice, untraced then traced.

    Pairing the two on the same input, moments apart, keeps drift in the
    machine's speed out of the tracing overhead and the accounting check.
    """
    untraced, traced = Tally(), Tally()
    start = time.perf_counter()
    i = 0
    while True:
        run_op(wl, i, NullTracer(), untraced)
        wl.patch(tracer)
        try:
            run_op(wl, i, tracer, traced)
        finally:
            tracer.restore()
        i += 1
        if time.perf_counter() - start >= seconds:
            return untraced, traced


def traced_run(seed: int, seconds: float):
    from workloads import WORKLOADS, complexity_grid

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / "spans.csv"
    total = Tally()
    values: dict[str, float] = {}
    for index, cls in enumerate(WORKLOADS.values()):
        wl = cls()
        wl.setup(seed)
        run_op(wl, 0, NullTracer(), total, timed=False)
        tracer = Tracer()
        untraced, traced = run_paired(wl, seconds / len(WORKLOADS), tracer)
        total.absorb(untraced)
        total.absorb(traced)
        values.update(layer_metrics(wl, tracer, traced, untraced))
        tracer.write_csv(spans_path, wl.name, mode="w" if index == 0 else "a")
        print(f"workload {wl.name}: {len(traced.latencies)} ops, each run untraced and traced")
    values.update(complexity_grid(seed))
    metrics = {name: {"value": v, "unit": metric_unit(name)} for name, v in values.items()}
    for name, metric in metrics.items():
        print(f"  {name:<50} {metric['value']:.6g} {metric['unit']}")
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return total, metrics


def metric_unit(name: str) -> str:
    for suffix, unit in (
        ("_ms", "ms"),
        ("_us", "us"),
        ("_ops_per_s", "1/s"),
        ("_gmults_per_s", "Gmult/s"),
        ("_calls", "count"),
        ("_per_op", "count"),
    ):
        if name.endswith(suffix):
            return unit
    if ".mults_" in name:
        return "count"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "fdmud" / "__init__.py").is_file():
        print(f"error: no fdmud sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import fdmud

    import_s = time.perf_counter() - start
    if Path(fdmud.__file__).resolve().parent != SRC / "fdmud":
        print(f"error: imported fdmud from {fdmud.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    if args.trace:
        tally, metrics = traced_run(args.seed, args.seconds)
    else:
        tally, metrics = untraced_run(args.workload, args.seed, args.seconds, import_s)
    for line in tally.errors[:MAX_ERRORS_SHOWN]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
