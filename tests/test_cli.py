"""Tests for the command-line interface and config handling."""

import dataclasses

import pytest

from qkdrates.cli import (
    SWEEP_HEADER,
    ConfigError,
    RunConfig,
    config_scenario,
    load_config,
    main,
)

FIG1_CONFIG = """\
[protocol]
name = bb84

[source]
kind = single-photon

[link]
attenuation_db_per_km = 0.2
length_km = 100
e_x_sq = 0.01

[detector]
dark_count_prob = 1e-6
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.protocol == "bb84"
        assert cfg.attenuation_db_per_km == 0.2
        assert cfg.dark_count_prob == 1e-6
        assert cfg.e_x_sq == 0.01
        assert cfg.mean_photon_number == 0.5

    def test_round_trip(self):
        cfg = RunConfig(
            protocol="pbc00",
            source_kind="poissonian",
            mean_photon_number=0.7,
            mu_values=(0.05, 0.2, 0.7),
            length_km=123.5,
            e_x_sq=0.02,
            dark_count_prob=2e-7,
            n_pulses=12345,
            seed=99,
            eve="intercept-resend",
        )
        assert load_config(cfg.to_ini(), from_path=False) == cfg

    def test_round_trip_with_analytic_override(self):
        cfg = RunConfig(analytic_dark_count_prob=3e-5)
        assert load_config(cfg.to_ini(), from_path=False) == cfg

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(FIG1_CONFIG)
        cfg = load_config(str(path))
        assert cfg.protocol == "bb84"
        assert cfg.length_km == 100.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config("[link]\nwavelength_nm = 1550\n", from_path=False)

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            load_config("[detector]\ndark_count_prob = tiny\n", from_path=False)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/run.ini")

    def test_scenario_validation(self):
        cfg = RunConfig(protocol="b92")
        with pytest.raises(ConfigError, match="protocol"):
            config_scenario(cfg)


class TestRateCommand:
    def test_error_free_single_photon(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "rate",
            "--length-km", "0",
            "--e-x-sq", "0",
            "--dark-count-prob", "0",
        )
        assert code == 0
        values = {
            line.split()[0]: line.split()[-1] for line in out.strip().splitlines()
        }
        assert float(values["p_c"]) == 1.0
        for key in ("rate_shor_preskill", "rate_gllp", "rate_bob",
                    "rate_alice", "rate_improved"):
            assert float(values[key]) == pytest.approx(1.0, abs=1e-12)

    def test_improved_at_least_gllp(self, capsys, tmp_path):
        path = tmp_path / "fig1.ini"
        path.write_text(FIG1_CONFIG)
        code, out, _ = run_cli(capsys, "rate", "--config", str(path))
        assert code == 0
        values = {
            line.split()[0]: float(line.split()[-1])
            for line in out.strip().splitlines()
            if line.startswith("rate_")
        }
        assert values["rate_improved"] >= values["rate_gllp"]

    def test_past_threshold_all_rates_nonpositive(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "rate",
            "--protocol", "pbc00",
            "--e-x-sq", "0.1",
            "--length-km", "300",
        )
        assert code == 0
        for line in out.strip().splitlines():
            if line.startswith("rate_"):
                assert float(line.split()[-1]) <= 0.0, line

    def test_bad_protocol_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--protocol", "b92")
        assert code == 2
        assert "protocol" in err


class TestThresholdCommand:
    def test_default_table(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--protocol", "bb84")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "protocol,e_x_sq,threshold"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["bb84"] * 3
        # first zero crossing of the normalized rate along the dark sweep
        assert float(rows[0][2]) == pytest.approx(0.5, abs=5e-3)
        assert float(rows[1][2]) == pytest.approx(0.44298, abs=5e-4)
        assert float(rows[2][2]) == pytest.approx(0.13570, abs=5e-4)

    def test_no_positive_rate_literal(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--protocol", "pbc00", "0.1")
        assert code == 0
        assert out.strip().splitlines()[1] == "pbc00,0.1,none"

    def test_six_state_zero(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--protocol", "six-state", "0")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[2]) == pytest.approx(
            0.5, abs=5e-3
        )

    def test_bad_protocol(self, capsys):
        code, _, err = run_cli(capsys, "threshold", "--protocol", "e91")
        assert code == 2
        assert "protocol" in err


class TestSweepCommand:
    def test_header_and_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--length-min-km", "50",
            "--length-max-km", "50",
            "--length-step-km", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("50,")

    def test_fig1_ordering(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--length-min-km", "0",
            "--length-max-km", "400",
            "--length-step-km", "20",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        last_old = max(float(r[0]) for r in rows if float(r[9]) > 0.0)
        last_new = max(float(r[0]) for r in rows if float(r[10]) > 0.0)
        assert last_new > last_old

    def test_poisson_ordering(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--source-kind", "poissonian",
            "--mean-photon-number", "0.5",
            "--length-min-km", "0",
            "--length-max-km", "300",
            "--length-step-km", "30",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert all(float(r[10]) >= float(r[9]) for r in rows)

    def test_invalid_range_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep",
            "--length-min-km", "100",
            "--length-max-km", "50",
        )
        assert code == 2
        assert "length range" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize(
        "flag", ["--length-min-km", "--length-max-km", "--length-step-km", "--length-km"]
    )
    def test_non_finite_exits_2(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "sweep", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_out_file_byte_stable(self, capsys, tmp_path):
        args = (
            "sweep",
            "--length-min-km", "0",
            "--length-max-km", "100",
            "--length-step-km", "25",
        )
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        assert main([*args, "--out", str(path_a)]) == 0
        assert main([*args, "--out", str(path_b)]) == 0
        assert path_a.read_bytes() == path_b.read_bytes()
        assert b"\r" not in path_a.read_bytes()


class TestMeanPhotonNumber:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["rate", "simulate", "sweep", "decoy"])
    def test_non_finite_exits_2(self, capsys, command, value):
        code, out, err = run_cli(
            capsys, command, "--source-kind", "poissonian",
            f"--mean-photon-number={value}",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "mean photon number" in err
        assert "Traceback" not in err


class TestSimulateCommand:
    ARGS = (
        "simulate",
        "--length-km", "50",
        "--e-x-sq", "0.05",
        "--dark-count-prob", "0",
        "--n-pulses", "100000",
        "--seed", "12",
    )

    def test_agreement_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        assert "PASS" in out

    def test_mismatch_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys, *self.ARGS, "--analytic-dark-count-prob", "1e-3"
        )
        assert code == 1
        assert "FAIL" in out

    def test_report_bytes_reproducible(self, tmp_path):
        path_a = tmp_path / "a.txt"
        path_b = tmp_path / "b.txt"
        assert main([*self.ARGS, "--out", str(path_a)]) == 0
        assert main([*self.ARGS, "--out", str(path_b)]) == 0
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_tally_csv_dump(self, tmp_path, capsys):
        tally = tmp_path / "tally.csv"
        code, _, _ = run_cli(capsys, *self.ARGS, "--tally-out", str(tally))
        assert code == 0
        lines = tally.read_text().splitlines()
        assert lines[0] == "category,count,bit_errors"
        assert len(lines) == 5


class TestDecoyCommand:
    def test_recovery_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "decoy",
            "--source-kind", "poissonian",
            "--mean-photon-number", "0.5",
            "--mu-values", "0.1,0.5",
            "--length-km", "50",
            "--e-x-sq", "0.01",
            "--n-pulses", "500000",
            "--seed", "3",
        )
        assert code == 0
        assert "p_sq" in out and "e_x_sq" in out

    def test_infeasible_inputs_exit_1(self, capsys):
        # opaque channel: no single-photon-pulse conclusive results at all,
        # which puts the estimate below the dark-count floor
        code, out, _ = run_cli(
            capsys,
            "decoy",
            "--source-kind", "poissonian",
            "--mean-photon-number", "0.5",
            "--mu-values", "0.5",
            "--length-km", "1500",
            "--dark-count-prob", "1e-6",
            "--n-pulses", "20000",
            "--seed", "5",
        )
        assert code == 1
        assert "decoy inversion failed" in out


class TestFlagPrecedence:
    def test_flags_override_config(self, capsys, tmp_path):
        path = tmp_path / "base.ini"
        path.write_text(FIG1_CONFIG)
        code, out, _ = run_cli(
            capsys, "rate", "--config", str(path), "--length-km", "0",
            "--dark-count-prob", "0", "--e-x-sq", "0",
        )
        assert code == 0
        values = {
            line.split()[0]: line.split()[-1] for line in out.strip().splitlines()
        }
        assert float(values["eta"]) == 1.0

    def test_config_replaces_defaults(self):
        cfg = load_config("[link]\nlength_km = 7\n", from_path=False)
        assert cfg == dataclasses.replace(RunConfig(), length_km=7.0)
