import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from byte_manifest import CSV_CASES, check_lines, simulate_csv
from fdmud import cli, numerics, verify
from fdmud.cli import main, parse_config_file
from fdmud.detect import DetectorKind
from fdmud.harness import (
    SCENARIO_TABLE,
    SinrReport,
    build_scenario,
    complexity_sweep,
    parse_detectors,
    parse_sweep,
)


FAST_ARGS = [
    "--m", "4", "--k", "2", "--n", "32", "--l-h", "3", "--l-cp", "4",
    "--snr-sweep", "0", "--frames-per-point", "2", "--seed", "3",
]


class TestParsing:
    def test_sweep_range(self):
        assert parse_sweep("-30:10:2") == tuple(float(v) for v in range(-30, 12, 2))

    def test_sweep_list(self):
        assert parse_sweep("-30,-7,10") == (-30.0, -7.0, 10.0)

    def test_sweep_bad_range(self):
        with pytest.raises(ValueError):
            parse_sweep("0:10:0")
        with pytest.raises(ValueError):
            parse_sweep("0:10")
        # a span of -inf points is an empty range, not a count that overflows
        with pytest.raises(ValueError, match=r"^empty sweep range '1e308:-1e308:1'$"):
            parse_sweep("1e308:-1e308:1")
        # 1,000,001 points, ten times the bound, refused before any is built:
        # a finer step would ask for more points than memory holds
        with pytest.raises(
            ValueError, match=r"^sweep range '0:1:1e-6' has 1000001 points, more than 100000$"
        ):
            parse_sweep("0:1:1e-6")

    @seed(20261018)
    @settings(max_examples=200, deadline=None)
    @given(
        start=st.floats(-100.0, 100.0),
        span=st.floats(0.0, 50.0),
        step=st.floats(0.01, 10.0),
    )
    def test_sweep_range_fractional_steps(self, start, span, step):
        stop = start + span
        points = parse_sweep(f"{start!r}:{stop!r}:{step!r}")
        assert points[0] == start
        assert all(abs((b - a) - step) <= 1e-9 for a, b in zip(points, points[1:]))
        assert points[-1] <= stop + 1e-9
        assert points[-1] + step > stop + 1e-9

    @pytest.mark.parametrize(
        "sweep, field", [("0:inf:1", "stop"), ("-inf:0:1", "start"), ("0:1:nan", "step")]
    )
    def test_non_finite_sweep_range_fails_cleanly(self, sweep, field, capsys):
        assert main(["simulate", *FAST_ARGS, f"--snr-sweep={sweep}"]) == 2
        assert f"error: sweep {field} must be finite" in capsys.readouterr().err

    # Finite bounds whose point count overflows: the span, or span / step.
    @pytest.mark.parametrize("sweep", ["-1e308:1e308:1", "1:2:5e-324"])
    def test_uncountable_sweep_range_fails_cleanly(self, sweep, capsys):
        assert main(["simulate", *FAST_ARGS, f"--snr-sweep={sweep}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: sweep range {sweep!r} has too many points to count\n"

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ("0,,10", "sweep item 1 is not a number: ''"),
            ("", "sweep item 0 is not a number: ''"),
            ("0,10,x5", "sweep item 2 is not a number: 'x5'"),
        ],
    )
    def test_bad_sweep_list_fails_cleanly(self, sweep, message, capsys):
        assert main(["simulate", *FAST_ARGS, f"--snr-sweep={sweep}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_detectors(self):
        assert parse_detectors("mrc_mmse,tr_mrc") == (DetectorKind.MRC_MMSE, DetectorKind.TR_MRC)

    def test_unknown_detector(self):
        with pytest.raises(ValueError, match="unknown detector"):
            parse_detectors("sphere")

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("# comment\nm=8\nk=3\nsnr_sweep=-10:0:5  # inline comment\n")
        values = parse_config_file(str(cfg))
        assert values == {"m": 8, "k": 3, "snr_sweep": "-10:0:5"}

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("antennas=8\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(str(cfg))

    @pytest.mark.parametrize("key", list(SCENARIO_TABLE))
    def test_every_table_key_is_a_config_key_and_a_flag(self, key, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # simulate writes its CSV to output
        default, cast, _ = SCENARIO_TABLE[key]
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"{key}={default}\n")
        values = parse_config_file(str(cfg))
        assert values == {key: default} and type(values[key]) is cast

        seen = []

        def fake_run(scenario):
            seen.append(scenario)
            return SinrReport(rows=(), seed=scenario.channel.seed, frames_per_point=1)

        monkeypatch.setattr(cli, "run_monte_carlo", fake_run)
        flag = "--" + key.replace("_", "-")
        assert main(["simulate", f"{flag}={default}"]) == 0
        assert seen == [build_scenario({k: row[0] for k, row in SCENARIO_TABLE.items()})]

    def test_config_file_bad_line(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("m 8\n")
        with pytest.raises(ValueError, match="key=value"):
            parse_config_file(str(cfg))

    def test_config_file_bad_value_names_the_line_key_and_value(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("k=3\nm=abc\n")
        with pytest.raises(ValueError, match=r":2: m='abc' is not a valid int$"):
            parse_config_file(str(cfg))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert f"error: {cfg}:2: m='abc'" in capsys.readouterr().err

    def test_config_file_repeated_key_names_both_lines(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("m=8\n# more antennas\nm=16\n")
        with pytest.raises(ValueError, match=r":3: key 'm' was already given on line 1$"):
            parse_config_file(str(cfg))

    def test_readme_config_block_shows_every_default(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert block.startswith("# scenario.cfg -- defaults shown\n")
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(block)
        assert parse_config_file(str(cfg)) == {key: row[0] for key, row in SCENARIO_TABLE.items()}


class TestSimulate:
    def test_writes_csv_and_prints_table(self, tmp_path, capsys):
        out = tmp_path / "sinr.csv"
        rc = main(["simulate", *FAST_ARGS, "--output", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "mrc_mmse" in captured
        assert out.exists()
        lines = out.read_text(encoding="utf-8").splitlines()
        assert any(line.startswith("input_snr_db") for line in lines)

    def test_output_file_is_the_report_csv(self, tmp_path, monkeypatch):
        original, reports = cli.run_monte_carlo, []

        def run_and_keep(scenario):
            reports.append(original(scenario))
            return reports[-1]

        monkeypatch.setattr(cli, "run_monte_carlo", run_and_keep)
        out = tmp_path / "sinr.csv"
        assert main(["simulate", *FAST_ARGS, "--output", str(out)]) == 0
        assert out.read_bytes() == reports[0].to_csv().encode("utf-8")

    def test_readme_example_sweep(self, tmp_path, capsys):
        # the README's comma-list sweep; "--snr-sweep -30,..." would read as a flag
        out = tmp_path / "sinr.csv"
        tiny = ["--m", "4", "--k", "2", "--n", "32", "--l-h", "3", "--l-cp", "4"]
        argv = ["simulate", "--snr-sweep=-30,-7,10", "--frames-per-point", "2", "--output", str(out)]
        assert main([*argv, *tiny]) == 0
        lines = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        assert sorted((r[1], r[0]) for r in rows) == [
            (kind, snr) for kind in ("mrc_mmse", "tr_mrc") for snr in ("-30", "-7", "10")
        ]

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        out = tmp_path / "sinr.csv"
        cfg.write_text(
            "m=4\nk=2\nn=32\nl_h=3\nl_cp=4\nsnr_sweep=0\nframes_per_point=2\n"
            f"seed=3\noutput={out}\ndetectors=tr_mrc\n"
        )
        rc = main(["simulate", "--config", str(cfg), "--detectors", "mrc_mmse"])
        assert rc == 0
        text = out.read_text(encoding="utf-8")
        assert "mrc_mmse" in text and "tr_mrc" not in text

    def test_flags_reproducible(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["simulate", *FAST_ARGS, "--output", str(out_a)]) == 0
        assert main(["simulate", *FAST_ARGS, "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_invalid_scenario_fails_cleanly(self, capsys):
        rc = main(["simulate", "--m", "2", "--k", "2"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_output_fails_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        def no_sweep(scenario):
            pytest.fail("the sweep ran before the output path was checked")

        monkeypatch.setattr(cli, "run_monte_carlo", no_sweep)
        rc = main(["simulate", *FAST_ARGS, "--output", str(tmp_path / "missing" / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_repeated_detector_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "sinr.csv"
        rc = main(["simulate", *FAST_ARGS, "--detectors", "mrc_mmse,mrc_mmse", "--output", str(out)])
        assert rc == 2
        assert "error: detector kind 'mrc_mmse' is repeated" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_sweep_point_fails_cleanly(self, capsys):
        rc = main(["simulate", *FAST_ARGS, "--snr-sweep", "0,nan"])
        assert rc == 2
        assert "error: SNR sweep point 1" in capsys.readouterr().err


class TestDeterminism:
    # The CSVs of the byte manifest, pinned: same seed, same rng_layout and
    # the NumPy and SciPy that CI installs give these exact bytes.
    @pytest.mark.parametrize("args, md5", [case[1:] for case in CSV_CASES],
                             ids=[case[0] for case in CSV_CASES])
    def test_csv_bytes_pinned(self, args, md5, tmp_path):
        data = simulate_csv(args, tmp_path)
        assert b"# rng_layout=2\n" in data
        assert hashlib.md5(data).hexdigest() == md5

    def test_five_kind_csv_bytes_pinned_on_one_bin_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(numerics, "_MIN_CHUNK", 1)
        name, args, md5 = CSV_CASES[0]
        assert name == "five-kind"
        assert hashlib.md5(simulate_csv(args, tmp_path)).hexdigest() == md5

    def test_manifest_prefixes_check_lines_and_reports_a_failure(self, monkeypatch):
        checks = [verify.CheckResult(name, passed, "detail")
                  for name, passed in (("pushthrough-identity", True), ("detector-equivalence", True),
                                       ("cp-circularity", False))]
        monkeypatch.setattr(cli, "run_detector_checks", lambda seed: checks)
        lines, rc = check_lines("verify", 4)
        assert lines == ["verify 4 PASS  pushthrough-identity: detail",
                         "verify 4 PASS  detector-equivalence: detail",
                         "verify 4 FAIL  cp-circularity: detail"]
        assert rc == 1

    def test_short_cyclic_prefix_fails_cleanly(self, capsys):
        # the default 130-tap channel needs a prefix of at least 131
        rc = main(["simulate", "--l-cp", "100"])
        assert rc == 2
        assert "error: cyclic prefix too short" in capsys.readouterr().err


class TestComplexity:
    def test_stdout(self, capsys):
        rc = main(["complexity", "--m-list", "4,8", "--k-max", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "M,K,mults_mmse,mults_mrcmmse"
        assert len(out.strip().splitlines()) == 5

    def test_antenna_count_below_two_fails_cleanly(self, capsys):
        assert main(["complexity", "--m-list", "0,-5,3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: each M in m_list must be at least 2 to serve one user, got 0\n"

    @pytest.mark.parametrize(
        "m_list, message",
        [
            ("", "--m-list item 0 is not an integer: ''"),
            ("8,,16", "--m-list item 1 is not an integer: ''"),
            ("8,16,x4", "--m-list item 2 is not an integer: 'x4'"),
            ("4,4", "M=4 is repeated in m_list, at item 1"),
            ("8,4, 8", "M=8 is repeated in m_list, at item 2"),
        ],
    )
    def test_bad_m_list_fails_cleanly(self, capsys, m_list, message):
        assert main(["complexity", "--m-list", m_list, "--k-max", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_file_output(self, tmp_path, capsys):
        # The CLI writes every file through one helper; the file holds the
        # bytes the same command prints to stdout.
        assert main(["complexity"]) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "complexity.csv"
        rc = main(["complexity", "--output", str(out)])
        assert rc == 0
        assert out.read_bytes() == stdout.encode("utf-8")
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 91  # header + 3 x 30 grid
        assert out.read_bytes() == complexity_sweep([32, 64, 128], 30).to_csv().encode("utf-8")


class TestVerifySuites:
    def test_verify_passes(self, capsys):
        rc = main(["verify", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0, out
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 6
        assert all(l.startswith("PASS") for l in lines)
        counts = [l.split(" over ")[-1].split(" (")[0] for l in lines if " over " in l]
        assert counts == ["1000 trials", "100 trials", "100 trials", "50 trials"]

    def test_verify_reports_a_failing_check(self, capsys, monkeypatch):
        # an MRC-MMSE estimate off by 1e-7 breaks both checks that use it
        exact = verify.mrcmmse_bin

        def skewed(a, z, sigma_w2):
            est, gain = exact(a, z, sigma_w2)
            return est * (1 + 1e-7), gain

        monkeypatch.setattr(verify, "mrcmmse_bin", skewed)
        rc = main(["verify", "--seed", "2"])
        captured = capsys.readouterr()
        assert rc == 1
        failed = [l.split(":")[0] for l in captured.out.splitlines() if l.startswith("FAIL")]
        assert failed == ["FAIL  detector-equivalence", "FAIL  end-to-end-unit-gain"]
        assert captured.err == "2 check(s) failed\n"

    @pytest.mark.parametrize(
        "check, call", [(verify.check_detector_equivalence, 500), (verify.check_end_to_end_unit_gain, 50)]
    )
    def test_nan_deviation_fails_the_check(self, monkeypatch, check, call):
        # one nan estimate, well after the first trial, must not be folded away
        exact = verify.mrcmmse_bin
        calls = []

        def nan_once(a, z, sigma_w2):
            est, inv = exact(a, z, sigma_w2)
            calls.append(None)
            return (est * np.nan if len(calls) == call else est), inv

        monkeypatch.setattr(verify, "mrcmmse_bin", nan_once)
        result = check(seed=2)
        assert len(calls) > call
        assert result.passed is False
        assert " nan " in result.detail

    def test_precode_check_passes(self, capsys):
        rc = main(["precode-check", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0, out
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 4
        assert all(l.startswith("PASS") for l in lines)
        assert "over 2048 bins" in lines[1]
