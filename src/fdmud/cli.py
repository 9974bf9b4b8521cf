"""Command-line interface.

Subcommands
-----------
simulate
    Monte-Carlo SNR sweep producing a per-detector SINR gain table (CSV).
complexity
    Per-bin complex-multiply counts over an (M, K) grid (CSV).
verify
    Randomized detector identity/property suite; nonzero exit on violation.
precode-check
    Precoder self-consistency suite; nonzero exit on violation.

Scenario parameters come from built-in defaults (``harness.SCENARIO_TABLE``,
which also gives each flag its type and help), overridden by an optional
``key=value`` config file (one pair per line, ``#`` comments), overridden in
turn by command-line flags of the same name.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    SCENARIO_TABLE,
    build_scenario,
    complexity_sweep,
    run_monte_carlo,
)
from .verify import run_detector_checks, run_precoder_checks


def parse_config_file(path: str) -> dict:
    """Read ``key=value`` lines, ignoring blanks and ``#`` comments; a bad line raises naming it."""
    values, seen_at = {}, {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line.strip()!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in SCENARIO_TABLE:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen_at:
                raise ValueError(f"{path}:{lineno}: key {key!r} was already given on line {seen_at[key]}")
            cast, raw = SCENARIO_TABLE[key][1], raw.strip()
            try:
                values[key] = cast(raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key}={raw!r} is not a valid {cast.__name__}") from None
            seen_at[key] = lineno
    return values


def _resolve_values(args: argparse.Namespace) -> dict:
    values = {key: row[0] for key, row in SCENARIO_TABLE.items()}
    if args.config:
        values.update(parse_config_file(args.config))
    for key in SCENARIO_TABLE:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    return values


def _write_csv(path: str, text: str) -> None:
    """The one place the package writes a file."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _print_checks(checks) -> int:
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status}  {check.name}: {check.detail}")
        failed += 0 if check.passed else 1
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
    return 1 if failed else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    values = _resolve_values(args)
    scenario = build_scenario(values)
    # Fail on an unwritable output before the sweep, not after it.  Appending
    # truncates nothing, so an existing file keeps its contents until then.
    with open(values["output"], "a", encoding="utf-8"):
        pass
    report = run_monte_carlo(scenario)
    _write_csv(values["output"], report.to_csv())
    print(f"{'snr_db':>8} {'detector':>12} {'out_sinr_db':>12} {'gain_db':>9} "
          f"{'low_db':>8} {'high_db':>8} {'frames':>7} {'failed':>7}")
    for row in report.rows:
        print(
            f"{row.input_snr_db:8.1f} {row.detector.value:>12} {row.mean_output_sinr_db:12.3f} "
            f"{row.gain_db:9.3f} {row.gain_low_db:8.3f} {row.gain_high_db:8.3f} {row.n_frames:7d} "
            f"{row.n_failures:7d}"
        )
    print(f"wrote {values['output']}")
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    m_list = [int(v) for v in args.m_list.split(",")]
    report = complexity_sweep(m_list, args.k_max)
    text = report.to_csv()
    if args.output is not None:
        _write_csv(args.output, text)
        print(f"wrote {args.output} ({len(report.rows)} rows)")
    else:
        print(text, end="")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    return _print_checks(run_detector_checks(seed=args.seed))


def _cmd_precode_check(args: argparse.Namespace) -> int:
    return _print_checks(run_precoder_checks(seed=args.seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fdmud",
        description="Frequency-domain multi-user detection for cyclic-prefix single-carrier massive MIMO",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the Monte-Carlo SNR sweep")
    sim.add_argument("--config", help="key=value scenario file; flags override it")
    for key, (_, cast, text) in SCENARIO_TABLE.items():
        sim.add_argument("--" + key.replace("_", "-"), dest=key, type=cast, help=text)
    sim.set_defaults(func=_cmd_simulate)

    comp = sub.add_parser("complexity", help="emit per-bin complex-multiply counts")
    comp.add_argument("--m-list", dest="m_list", default="32,64,128",
                      help="comma list of antenna counts")
    comp.add_argument("--k-max", dest="k_max", type=int, default=30, help="largest user count")
    comp.add_argument("--output", default=None, help="CSV output path (default: stdout)")
    comp.set_defaults(func=_cmd_complexity)

    ver = sub.add_parser("verify", help="run the detector identity/property suite")
    ver.add_argument("--seed", type=int, default=1, help="suite RNG seed (default 1)")
    ver.set_defaults(func=_cmd_verify)

    pre = sub.add_parser("precode-check", help="run the precoder self-consistency suite")
    pre.add_argument("--seed", type=int, default=1, help="suite RNG seed (default 1)")
    pre.set_defaults(func=_cmd_precode_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
