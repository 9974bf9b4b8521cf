import hashlib

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

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
    # The five-kind run CI makes.  Same seed, same rng_layout and the NumPy
    # and SciPy that CI pins give these exact bytes; a change to how a frame
    # consumes random numbers must bump harness.RNG_LAYOUT and this digest.
    FIVE_KIND_ARGS = [
        "--n", "256", "--l-h", "16", "--l-cp", "32", "--frames-per-point", "2",
        "--snr-sweep=-10:10:10", "--detectors", "mmse,mrc_mmse,tr_mrc,low_snr,high_snr_zf",
    ]
    FIVE_KIND_MD5 = "e74c55007e51388db1dbfe24b06729dd"

    def test_five_kind_csv_bytes_pinned(self, tmp_path, capsys):
        out = tmp_path / "sinr.csv"
        assert main(["simulate", *self.FIVE_KIND_ARGS, "--output", str(out)]) == 0
        data = out.read_bytes()
        assert b"# rng_layout=2\n" in data
        assert hashlib.md5(data).hexdigest() == self.FIVE_KIND_MD5

    def test_five_kind_csv_bytes_pinned_on_one_bin_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(numerics, "_MIN_CHUNK", 1)
        out = tmp_path / "sinr.csv"
        assert main(["simulate", *self.FIVE_KIND_ARGS, "--output", str(out)]) == 0
        assert hashlib.md5(out.read_bytes()).hexdigest() == self.FIVE_KIND_MD5

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

    def test_file_output(self, tmp_path, capsys):
        out = tmp_path / "complexity.csv"
        rc = main(["complexity", "--output", str(out)])
        assert rc == 0
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
