"""Tests for the command-line interface and config handling."""

import argparse
import contextlib
import hashlib
import io
import re
import time
import warnings
from pathlib import Path
from unittest import mock

import pytest
from conftest import subcommand_flags
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdrates.cli import (
    _OPTIONS,
    SWEEP_HEADER,
    ConfigError,
    RunConfig,
    _build_parser,
    _flag,
    _resolve_config,
    _scan,
    config_scenario,
    load_config,
    main,
)
from qkdrates.decoy import recover_single_photon_rates
from qkdrates.keyrate import rate_gllp, rate_improved
from qkdrates.protocols import BB84, PBC00
from qkdrates.scenario import EveKind, SourceKind, breakdown, transmittance
from qkdrates.simulator import run_simulation

FIELDS = _OPTIONS

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


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.protocol == BB84
        assert cfg.attenuation_db_per_km == 0.2
        assert cfg.dark_count_prob == 1e-6
        assert cfg.e_x_sq == 0.01
        assert cfg.mean_photon_number == 0.5

    def test_round_trip(self, tmp_path):
        # every field in one file
        lines = []
        for section in dict.fromkeys(f.section for f in FIELDS):
            lines.append(f"[{section}]")
            for f in FIELDS:
                if f.section == section:
                    lines.append(f"{f.key} = {SAMPLES[f.name][0]}")
        cfg = load_config(write_config(tmp_path, "\n".join(lines) + "\n"))
        assert cfg == RunConfig(**{name: value for name, (_, value) in SAMPLES.items()})

    def test_file_parsing(self, tmp_path):
        cfg = load_config(write_config(tmp_path, FIG1_CONFIG))
        assert cfg.protocol == BB84
        assert cfg.length_km == 100.0

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(write_config(tmp_path, "[link]\nwavelength_nm = 1550\n"))

    def test_bad_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="bad value"):
            load_config(write_config(tmp_path, "[detector]\ndark_count_prob = tiny\n"))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/run.ini")

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        assert ";" in block
        assert load_config(write_config(tmp_path, block)) == RunConfig()

    def test_scenario_validation(self, tmp_path):
        # a protocol name is checked once, when the config is read
        with pytest.raises(ConfigError, match="protocol: .*unknown protocol 'b92'"):
            load_config(write_config(tmp_path, "[protocol]\nname = b92\n"))

    def test_percent_reaches_the_field_parser(self, capsys, tmp_path):
        # "%" is plain text, not the start of an interpolation
        path = write_config(tmp_path, "[link]\ne_x_sq = 1%\n")
        code, out, err = run_cli(capsys, "rate", "--config", path)
        assert (code, out) == (2, "")
        assert err == (
            "error: e_x_sq: bad value for [link] e_x_sq: '1%' "
            "(could not convert string to float: '1%')\n"
        )


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


# sha256 of stdout for the benchmark's threshold grid (e_x_sq = i/1000, i in
# 0..200) and for rate with its defaults.  Both commands compute on floats
# through libm and never load numpy, so a kernel change that moves a
# printed byte fails here and has to update the digests on purpose.
# Sweeps are left out: numpy's SIMD log2 may differ in the last bit
# between machines.
THRESHOLD_GRID_SHA256 = {
    "bb84": "9fe44bcec34216282f6e77e30979abac67e464e6b4e7b0548cd9aa2d01a36209",
    "six-state": "50da99763745918a601eb78448f558c4bdfb480dcf298af991740da7ad533b7a",
    "pbc00": "eb76485a4eaef263e9967c0e6888a11d9d014735b3549d51ccac516b1f15ff25",
}
RATE_DEFAULTS_SHA256 = {
    ("bb84", "single-photon"): (
        "958104ecbe229c16d679a70f59111c4163afeffc476bf3b253aed2ef124a9a72"
    ),
    ("bb84", "poissonian"): (
        "3aa000761fbac47329e153285b54a2e2384a234fcf284596b85f7255b624bbe7"
    ),
    ("six-state", "single-photon"): (
        "6b396e6f6de9e3396e7ae5403707f36fc6e50fe11b400fd41b409ff459705c1c"
    ),
    ("six-state", "poissonian"): (
        "eba13a3d9671663e5a8f8dced2567b3488d6ead2a4900f1f87f71d1d79bf32e1"
    ),
    ("pbc00", "single-photon"): (
        "73220bfec67546a99e5567b45ac61a9e96833ffcc7051cf0b572656359956434"
    ),
    ("pbc00", "poissonian"): (
        "455a396e2bdecd7384176298ca0d7dfae93c4b2fca64e774a2eaf84e8f466756"
    ),
}


def stdout_sha256(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    return hashlib.sha256(out.encode()).hexdigest()


class TestPinnedBytes:
    @pytest.mark.parametrize("protocol", THRESHOLD_GRID_SHA256)
    def test_threshold_grid(self, capsys, protocol):
        grid = [repr(i / 1000) for i in range(201)]
        digest = stdout_sha256(capsys, "threshold", "--protocol", protocol, *grid)
        assert digest == THRESHOLD_GRID_SHA256[protocol]

    @pytest.mark.parametrize("protocol, source", RATE_DEFAULTS_SHA256)
    def test_rate_defaults(self, capsys, protocol, source):
        argv = ["rate", "--protocol", protocol, "--source-kind", source]
        digest = stdout_sha256(capsys, *argv)
        assert digest == RATE_DEFAULTS_SHA256[protocol, source]


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

    @pytest.mark.parametrize("source", ["single-photon", "poissonian"])
    @pytest.mark.parametrize("protocol", ["bb84", "six-state", "pbc00"])
    def test_csv_matches_scalar_rows(self, capsys, protocol, source):
        argv = (
            "--protocol", protocol, "--source-kind", source,
            "--length-min-km", "0", "--length-max-km", "400",
            "--length-step-km", "12.5",
        )  # fmt: skip
        code, out, _ = run_cli(capsys, "sweep", *argv)
        assert code == 0
        cfg = _resolve_config(vars(_build_parser().parse_args(["sweep", *argv])))
        scn = config_scenario(cfg)
        lines = [SWEEP_HEADER]
        for i in range(33):
            point = scn.at_length(0.0 + i * 12.5)
            b = breakdown(point)
            values = (
                point.link.length_km, transmittance(point.link),
                b.p_c, b.p_sq, b.p_mq, b.p_dk, b.omega0, b.omega1, b.e_x,
                max(rate_gllp(b, scn.protocol), 0.0),
                max(rate_improved(b, scn.protocol), 0.0),
            )  # fmt: skip
            lines.append(",".join(f"{v:.10g}" for v in values))
        assert out == "\n".join(lines) + "\n"

    def test_invalid_range_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep",
            "--length-min-km", "100",
            "--length-max-km", "50",
        )
        assert code == 2
        assert "length range" in err

    def test_length_km_key_not_read(self, capsys, tmp_path):
        # the grid replaces the length, so even an invalid one changes nothing
        base = "[link]\nlength_step_km = 50\n"
        runs = [
            run_cli(capsys, "sweep", "--config", write_config(tmp_path, base + extra))
            for extra in ("", "length_km = -1\n")
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][1]

    def test_negative_length_min_is_a_range_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--length-min-km", "-1")
        assert (code, out) == (2, "")
        assert err == "error: length range: need 0 <= l_min <= l_max\n"

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize(
        "flag", ["--length-min-km", "--length-max-km", "--length-step-km"]
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


def poissonian(command):
    """Flags that select a Poissonian source; ``decoy`` always uses one."""
    return () if command == "decoy" else ("--source-kind", "poissonian")


class TestMeanPhotonNumber:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["rate", "simulate", "sweep", "decoy"])
    def test_non_finite_exits_2(self, capsys, command, value):
        code, out, err = run_cli(
            capsys, command, *poissonian(command), f"--mean-photon-number={value}"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: mean_photon_number: bad value for --mean-photon-number: "
            f"{value!r} (must be finite and > 0)\n"
        )

    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    @pytest.mark.parametrize("command", ["rate", "sweep", "simulate"])
    def test_bad_value_exits_2_for_a_single_photon_source(
        self, capsys, tmp_path, command, value
    ):
        # the value is checked even where the source does not read it
        path = write_config(tmp_path, f"[source]\nmean_photon_number = {value}\n")
        small = ["--n-pulses", "1000"] if command == "simulate" else []
        for extra, where in (
            (["--mean-photon-number", value], "--mean-photon-number"),
            (["--config", path], "[source] mean_photon_number"),
        ):
            code, out, err = run_cli(capsys, command, *small, *extra)
            assert (code, out) == (2, ""), extra
            assert err == (
                f"error: mean_photon_number: bad value for {where}: {value!r} "
                "(must be finite and > 0)\n"
            )

    @pytest.mark.parametrize(
        ("argv", "want"),
        [
            (("simulate", "--mean-photon-number", "1e18", "--n-pulses", "1000"), 0),
            (("decoy", "--mean-photon-number", "1e18", "--n-pulses", "1000"), 1),
            (("rate", "--mean-photon-number", "1e30"), 0),
            (("sweep", "--mean-photon-number", "1e30"), 0),
            # the simulator draws photon classes, so it has no mean limit
            *(
                ((command, "--mean-photon-number", mu, "--n-pulses", "1000"), want)
                for mu in ("1e30", "1e300")
                for command, want in (("simulate", 0), ("decoy", 1))
            ),
        ],
    )
    def test_huge_mean_runs(self, capsys, argv, want):
        code, out, err = run_cli(capsys, *argv, *poissonian(argv[0]))
        assert code == want
        assert out and err == ""


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

    def test_intercept_resend_exit_0(self, capsys):
        # the analytic side models the eavesdropper: with no dark counts,
        # e_x is the bb84 qubit error 0.05 + 0.25 * (1 - 2 * 0.05)
        code, out, _ = run_cli(capsys, *self.ARGS, "--eve", "intercept-resend")
        assert code == 0
        assert "PASS" in out
        rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
        assert float(rows["e_x"][1]) == 0.275

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
        assert len(lines) == 4

    def test_report_layout(self, capsys):
        # perfbench/checks.py parses these rows by name, p_emp included
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[0] for line in lines[2:-1]] == [
            "p_sq", "p_mq", "p_emp", "p_dk", "e_x",
        ]  # fmt: skip
        assert lines[4] == "p_emp      0.000000e+00   0.000000e+00          0"

    @pytest.mark.parametrize(
        "flags",
        [
            ("--mean-photon-number", "1e-300", "--dark-count-prob", "1e-3"),
            ("--mean-photon-number", "1e-300", "--dark-count-prob", "0.999999"),
            ("--mean-photon-number", "0.5", "--dark-count-prob", "0.999999"),
        ],
    )
    def test_table_edges_run_clean(self, capsys, flags):
        # the dark events draw lost-photon counts from a table whose tail
        # underflows past k = 1 at the tiny mean; it must end there, without
        # a 0/0 continuation probability
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "simulate", "--source-kind", "poissonian", *flags,
                "--n-pulses", "20000", "--seed", "5",
            )  # fmt: skip
        assert code in (0, 1)
        assert "nan" not in out.lower() and "nan" not in err.lower()
        assert "Warning" not in err

    def test_too_many_pulses_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--n-pulses", str(2**62 + 1))
        assert (code, out) == (2, "")
        assert err == f"error: n_pulses must be <= 2**62, got {2**62 + 1}\n"


class TestDecoyCommand:
    def test_recovery_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "decoy",
            "--mean-photon-number", "0.5",
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
            "--mean-photon-number", "0.5",
            "--length-km", "1500",
            "--dark-count-prob", "1e-6",
            "--n-pulses", "20000",
            "--seed", "5",
        )
        assert code == 1
        assert "decoy inversion failed" in out

    @pytest.mark.parametrize("dark", ["1e-6", "0"])
    def test_zero_transmittance_exits_1(self, capsys, dark):
        # 1e5 km at 0.2 dB/km: the transmittance underflows to exactly 0
        code, out, err = run_cli(
            capsys,
            "decoy",
            "--length-km", "1e5",
            "--dark-count-prob", dark,
            "--n-pulses", "20000",
        )  # fmt: skip
        assert code == 1
        assert err == ""
        assert out.startswith("decoy inversion failed: transmittance is 0")

    def test_no_single_photon_signal_exits_1_whatever_the_seed(self, capsys):
        # eta is about 1e-40: the run expects 3e-35 single-photon arrivals, so
        # the cause is named before the dark counts' noise reaches the inversion
        outs = set()
        for seed in range(1, 7):
            code, out, err = run_cli(
                capsys, "decoy", "--length-km", "2000", "--seed", str(seed)
            )
            assert (code, err) == (1, "")
            outs.add(out)
        assert outs == {
            "decoy inversion failed: the run expects 3.03e-35 single-photon "
            "arrivals (n_pulses * mu * exp(-mu) * eta), fewer than 1, so it "
            "holds no single-photon signal to recover\n"
        }

    @pytest.mark.parametrize(
        ("seed", "conclusive"), [("1", 7), ("2", 10), ("3", 4), ("4", 7)]
    )
    def test_too_few_errors_name_the_counts(self, capsys, seed, conclusive):
        # about 6 single-photon arrivals at a 1% error rate: no error is the
        # likeliest tally, fewer than the dark counts alone are expected to make
        code, out, err = run_cli(
            capsys, "decoy", "--length-km", "200", "--n-pulses", "200000",
            "--seed", seed,
        )  # fmt: skip
        assert (code, err) == (1, "")
        assert out == (
            f"decoy inversion failed: the run's {conclusive} single-pulse "
            "conclusive results hold 0 errors, fewer than the 0.0606 the dark "
            "counts alone are expected to make: too few to resolve e_x_sq\n"
        )

    def test_report_is_one_run_recovered(self, capsys, monkeypatch):
        argv = ("--length-km", "30", "--e-x-sq", "0.02", "--n-pulses", "100000",
                "--seed", "6")  # fmt: skip
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return run_simulation(*args, **kwargs)

        monkeypatch.setattr("qkdrates.simulator.run_simulation", counting)
        code, out, _ = run_cli(capsys, "decoy", *argv)
        assert code == 0
        assert len(calls) == 1
        cfg = _resolve_config(vars(_build_parser().parse_args(["decoy", *argv])))
        scn = config_scenario(cfg._replace(source_kind=SourceKind.POISSONIAN))
        stats = run_simulation(scn, EveKind.NONE, 100_000, 6)
        got, truth = recover_single_photon_rates(stats, scn), breakdown(scn)
        lines = out.splitlines()
        assert lines[0] == "decoy run: signal mu 0.5  pulses 100000"
        assert lines[2:] == [
            f"{'p_sq':8} {got.p_sq:14.6e} {got.p_sq_se:12.4e} {truth.p_sq:14.6e}",
            f"{'e_x_sq':8} {got.e_x_sq:14.6e} {got.e_x_sq_se:12.4e} "
            f"{truth.e_x_sq:14.6e}",
        ]


class TestWorkers:
    @pytest.mark.parametrize("command", ["simulate", "decoy"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_below_one_exits_2(self, capsys, tmp_path, command, value):
        code, out, err = run_cli(capsys, command, "--workers", value)
        assert (code, out) == (2, "")
        assert "--workers" in err
        path = tmp_path / "workers.ini"
        path.write_text(f"[simulation]\nworkers = {value}\n")
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert (code, out) == (2, "")
        assert "[simulation] workers" in err


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

    def test_config_replaces_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "[link]\nlength_km = 7\n"))
        assert cfg == RunConfig()._replace(length_km=7.0)


# Config text for every RunConfig field and the value it parses to, each
# different from the field's default.
SAMPLES = {
    "protocol": ("pbc00", PBC00),
    "source_kind": ("poissonian", SourceKind.POISSONIAN),
    "mean_photon_number": ("0.7", 0.7),
    "attenuation_db_per_km": ("0.25", 0.25),
    "length_km": ("123.5", 123.5),
    "length_min_km": ("5", 5.0),
    "length_max_km": ("250", 250.0),
    "length_step_km": ("0.5", 0.5),
    "e_x_sq": ("0.02", 0.02),
    "dark_count_prob": ("2e-7", 2e-7),
    "n_pulses": ("12345", 12345),
    "workers": ("2", 2),
    "seed": ("99", 99),
    "eve": ("intercept-resend", EveKind.INTERCEPT_RESEND),
}

# A bad value for every field whose parser does not take a float, and the
# reason that parser gives; any other field gets BAD_FLOAT.
BAD_FLOAT = ("tiny", "could not convert string to float: 'tiny'")
BAD_VALUES = {
    "protocol": (
        "b92", "unknown protocol 'b92'; expected one of: bb84, six-state, pbc00"
    ),
    "source_kind": ("laser", "must be 'single-photon' or 'poissonian'"),
    "n_pulses": ("tiny", "invalid literal for int() with base 10: 'tiny'"),
    "workers": ("0", "must be >= 1"),
    "seed": ("tiny", "invalid literal for int() with base 10: 'tiny'"),
    "eve": ("alice", "must be 'none' or 'intercept-resend'"),
}

# Each subcommand's flags, frozen so that an edit to the field table cannot
# add or drop one unnoticed.
MODEL_FLAGS = {
    "--protocol", "--mean-photon-number", "--attenuation-db-per-km", "--e-x-sq",
    "--dark-count-prob",
}  # fmt: skip
COMMON_FLAGS = {"-h", "--help", "--config", "--out"}
SIMULATION_FLAGS = {"--n-pulses", "--seed", "--workers"}
COMMAND_FLAGS = {
    "rate": COMMON_FLAGS | MODEL_FLAGS | {"--source-kind", "--length-km"},
    "threshold": COMMON_FLAGS | {"--protocol"},
    "sweep": COMMON_FLAGS
    | MODEL_FLAGS
    | {"--source-kind", "--length-min-km", "--length-max-km", "--length-step-km"},
    "simulate": COMMON_FLAGS
    | MODEL_FLAGS
    | SIMULATION_FLAGS
    | {"--source-kind", "--length-km", "--eve", "--tally-out"},
    "decoy": COMMON_FLAGS | MODEL_FLAGS | SIMULATION_FLAGS | {"--length-km"},
}


class TestFieldTable:
    def test_samples_cover_every_field(self):
        assert set(SAMPLES) == {f.name for f in FIELDS}
        assert all(SAMPLES[f.name][1] != f.default for f in FIELDS)

    def test_flag_sets_per_subcommand(self):
        assert subcommand_flags() == COMMAND_FLAGS

    @pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
    def test_ini_round_trip(self, tmp_path, f):
        text, value = SAMPLES[f.name]
        section, key = f.section, f.key
        cfg = load_config(write_config(tmp_path, f"[{section}]\n{key} = {text}\n"))
        assert cfg == RunConfig()._replace(**{f.name: value})

    @pytest.mark.parametrize(
        "f, command",
        [(f, command) for f in FIELDS for command in f.commands],
        ids=lambda v: getattr(v, "name", v),
    )
    def test_flag_round_trip(self, f, command):
        text, value = SAMPLES[f.name]
        args = _build_parser().parse_args([command, f"{_flag(f)}={text}"])
        cfg = _resolve_config(vars(args))
        assert cfg == RunConfig()._replace(**{f.name: value})

    @pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
    def test_bad_value_exits_2_from_flag_and_file(self, capsys, tmp_path, f):
        bad, reason = BAD_VALUES.get(f.name, BAD_FLOAT)
        command = f.commands[0]
        section, key = f.section, f.key
        path = write_config(tmp_path, f"[{section}]\n{key} = {bad}\n")
        for argv, where in (
            ([command, f"{_flag(f)}={bad}"], _flag(f)),
            ([command, "--config", path], f"[{section}] {key}"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            want = f"error: {f.name}: bad value for {where}: {bad!r} ({reason})\n"
            assert err == want

    @pytest.mark.parametrize(
        "argv",
        [["rate"], ["threshold", "0.05"], ["sweep", "--length-step-km", "100"]],
        ids=lambda a: a[0],
    )
    def test_seed_key_read_without_flag(self, capsys, tmp_path, argv):
        # the commands that draw nothing take no --seed, but read the key
        path = write_config(tmp_path, "[simulation]\nseed = 5\n")
        code, out, err = run_cli(capsys, *argv, "--config", path)
        assert code == 0 and out and err == ""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "decoy"])
    def test_negative_seed(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--seed", "-1")
        assert code == 2
        assert "seed must be >= 0" in err

    @pytest.mark.parametrize(
        "f, command",
        [(f, command) for f in FIELDS for command in f.commands],
        ids=lambda v: getattr(v, "name", v),
    )
    def test_every_flag_changes_the_output(self, capsys, tmp_path, f, command):
        # a Poissonian source, so that the mean photon number counts; the
        # first line is skipped, as the simulate and decoy headers echo flags
        base = "[source]\nkind = poissonian\n[simulation]\nn_pulses = 20000\n"
        value = "single-photon" if f.name == "source_kind" else SAMPLES[f.name][0]
        argv = [command, "--config", write_config(tmp_path, base)]
        results = []
        for extra in ([], [f"{_flag(f)}={value}"]):
            code, out, _ = run_cli(capsys, *argv, *extra)
            results.append((code, out.splitlines()[1:]))
        # --workers is still read, but has no effect
        assert (results[0] == results[1]) == (f.name == "workers")


class TestRemovedInputs:
    """Inputs that changed no result are gone, and naming one is an error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["decoy", "--mu-values", "0.1,0.5"],
            ["decoy", "--source-kind", "single-photon"],
            ["sweep", "--length-km", "5"],
            ["simulate", "--analytic-dark-count-prob", "1e-3"],
        ],
        ids=lambda argv: "".join(argv[:2]),
    )
    def test_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, section, key",
        [("decoy", "source", "mu_values"),
         ("simulate", "detector", "analytic_dark_count_prob")],
        ids=lambda v: v,
    )  # fmt: skip
    def test_config_key_exits_2(self, capsys, tmp_path, command, section, key):
        path = write_config(tmp_path, f"[{section}]\n{key} = 0.1\n")
        code, out, err = run_cli(capsys, command, "--config", path)
        assert (code, out) == (2, "")
        assert err == f"error: unknown config key [{section}] {key}\n"


class TestParserPerCommand:
    """A plain call is read by ``_scan`` and builds no parser; any other call
    goes to the full parser, so help and errors are exactly its own."""

    @pytest.mark.parametrize(
        "argv",
        [["--help"], *([name, "--help"] for name in COMMAND_FLAGS), [], ["bogus"],
         ["rate", "--seed", "1"], *([name, "--bogus"] for name in COMMAND_FLAGS),
         ["threshold", "--prot", "bb84", "--bogus"], ["sweep", "--length-m", "5"],
         ["rate", "--protocol=bb84", "--bogus=1"], ["rate", "--protocol"],
         ["simulate", "--tally-out"], ["threshold", "-0.05", "abc"],
         ["threshold", "-0.05", "--bogus"]],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )  # fmt: skip
    def test_help_and_errors_match_the_full_parser(self, capsys, argv):
        def exit_of(call):
            with pytest.raises(SystemExit) as exc:
                call(list(argv))
            return exc.value.code, *capsys.readouterr()

        assert exit_of(main) == exit_of(_build_parser().parse_args)

    @pytest.mark.parametrize(
        "argv",
        [["rate"], ["threshold", "0.05"], ["sweep", "--length-step-km", "100"],
         ["simulate", "--n-pulses", "20000"], ["decoy", "--n-pulses", "20000"]],
        ids=lambda argv: argv[0],
    )  # fmt: skip
    def test_valid_call_builds_no_parser(self, capsys, argv):
        built = AssertionError("a parser was built")
        with mock.patch.object(argparse.ArgumentParser, "__init__", side_effect=built):
            first = run_cli(capsys, *argv)
            assert first[0] == 0
            assert run_cli(capsys, *argv) == first
        # and the scanner reads every flag the subcommand takes
        for flag in COMMAND_FLAGS[argv[0]] - {"-h", "--help"}:
            assert _scan(argv[0], [flag, "x"]) is not None, flag


def outcome(argv):
    """Exit code, stdout and stderr of ``main(argv)``, which may exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestSharedParser:
    """Many calls of one subcommand share a process, so no call may leave
    state that a later call reads.  No parser is shared or cached; the name
    is kept so that the suite's test ids stay stable."""

    THRESHOLD_DEFAULTS = (
        "protocol,e_x_sq,threshold\n"
        "bb84,0,0.5\nbb84,0.01,0.4429798178\nbb84,0.1,0.1356976692\n"
    )

    @pytest.mark.parametrize(
        "calls", [[["threshold", "0.05"], ["threshold"]],
                  [["threshold"], ["threshold", "0.05"], ["threshold"]]],
        ids=["values-then-defaults", "defaults-values-defaults"],
    )  # fmt: skip
    def test_threshold_defaults_survive_given_values(self, calls):
        for argv in calls:
            code, out, err = outcome(argv)
            assert (code, err) == (0, "")
            if argv == ["threshold"]:
                assert out == self.THRESHOLD_DEFAULTS
            else:
                assert out.splitlines()[1:] == ["bb84,0.05,0.2864463475"]

    def test_tally_out_is_not_carried_to_the_next_call(self, tmp_path):
        tally = tmp_path / "tally.csv"
        argv = ["simulate", "--n-pulses", "1000"]
        assert outcome([*argv, "--tally-out", str(tally)])[0] == 0
        tally.unlink()
        assert outcome(argv)[0] == 0
        assert not tally.exists()

    def test_rejected_call_leaves_the_parser_as_built(self):
        code, out, err = outcome(["rate", "--protocol"])
        assert (code, out) == (2, "")
        assert "expected one argument" in err
        after = outcome(["rate"])
        assert after == outcome(["rate"])


class TestNoConclusiveResults:
    @pytest.mark.parametrize(
        "argv",
        [["rate", "--length-km", "100000"],
         ["simulate", "--n-pulses", "1000", "--length-km", "100000"],
         ["sweep", "--attenuation-db-per-km", "1e300", "--length-min-km", "1",
          "--length-max-km", "2"]],
        ids=lambda a: a[0],
    )  # fmt: skip
    def test_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--dark-count-prob", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: no conclusive results: ")
        assert "Traceback" not in err


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--out"],
            ["sweep", "--length-max-km", "10", "--out"],
            ["simulate", "--n-pulses", "1000", "--tally-out"],
        ],
        ids=lambda a: a[0],
    )
    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_exits_2_naming_the_path(self, capsys, tmp_path, argv, target):
        path = str(tmp_path if target == "directory" else tmp_path / "no" / "x")
        code, out, err = run_cli(capsys, *argv, path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and path in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c, flags in sorted(COMMAND_FLAGS.items()) for f in sorted(flags)
     if f not in ("-h", "--help")],
)  # fmt: skip
def test_dash_dash_value_exits_2(capsys, command, flag):
    # argparse reads "--flag=--" as the value [] rather than a string
    code, out, err = run_cli(capsys, command, f"{flag}=--")
    assert (code, out) == (2, "")
    assert err == f"error: {flag}: expected one value\n"


def test_sweep_tiny_step_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sweep", "--length-step-km", "1e-12")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: length range:")


FUZZ_EDGES = st.sampled_from(
    ["0", "-1", "1e300", "inf", "-inf", "nan", "1e-320", "", "abc", "0x10",
     "1,2", "bb84", "poissonian", "intercept-resend", "--", "--x"]
)  # fmt: skip
FUZZ_VALUES = st.one_of(
    FUZZ_EDGES,
    st.floats().map(repr),
    st.floats(0.0, 1.0).map(repr),
    st.text(max_size=6),
)
FUZZ_PULSES = st.integers(-10, 10_000).map(str) | FUZZ_EDGES


@st.composite
def cli_calls(draw):
    """A subcommand and a few of its table flags, ``--n-pulses`` capped at
    1e4 so that every simulation stays small."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    fields = [f for f in FIELDS if command in f.commands]
    chosen = draw(st.lists(st.sampled_from(fields), max_size=4, unique=True))
    argv = [command]
    for f in fields:
        if f.name == "n_pulses":
            argv.append(f"--n-pulses={draw(FUZZ_PULSES)}")
        elif f in chosen:
            argv.append(f"{_flag(f)}={draw(FUZZ_VALUES)}")
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_calls())
# no conclusive results: zero dark counts and a transmittance of exactly 0,
# a pair that random draws rarely hit together
@example(["rate", "--length-km=1e300", "--dark-count-prob=0"])
@example(["simulate", "--n-pulses=100", "--attenuation-db-per-km=1e300",
          "--dark-count-prob=0"])  # fmt: skip
# a subnormal analytic dark-count rate, whose binomial variance underflows
@example(["simulate", "--dark-count-prob=5e-324", "--n-pulses=4"])
# a flip probability so small that numpy's Geometric gap saturates
@example(["simulate", "--e-x-sq=1e-300", "--n-pulses=1000"])
def test_fuzzed_flags_exit_cleanly(argv):
    # a small sweep limit keeps every example fast; the limit path is
    # exercised all the same
    with (
        mock.patch("qkdrates.scenario.MAX_SWEEP_ROWS", 500),
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
    assert code in (0, 1, 2), argv


@settings(max_examples=100, deadline=None)
@given(cli_calls())
def test_scanner_answers_like_the_full_parser(argv):
    with mock.patch("qkdrates.scenario.MAX_SWEEP_ROWS", 500):
        scanned = outcome(argv)
        with mock.patch("qkdrates.cli._scan", return_value=None):
            assert outcome(argv) == scanned


# Values a plain call may hold, and tokens that may end one: values that
# start with "-", "--", help, and abbreviated or foreign flags.
PLAIN_VALUES = ["0.05", "1e-3", "nan", "inf", "1_0", " 2 ", "", "abc", "a=b", "bb84"]
ODD_VALUES = ["-1", "-1e-3", "-inf", "-", "--", "--x", "-h", "--help"]
ODD_FLAGS = ["--prot", "--length", "--n-p", "--tally", "--e", "--", "-h", "--help"]
ODD_FLAGS += sorted(set().union(*COMMAND_FLAGS.values()))


@st.composite
def scan_calls(draw):
    """A plain call of a subcommand: its own flags, as ``--flag value`` or
    ``--flag=value``, and for ``threshold`` runs of bare values; then, in
    about half the examples, one more token put in anywhere, which may end
    the plain call or change what it means."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flag = st.sampled_from(sorted(COMMAND_FLAGS[command] - {"-h", "--help"}))
    value = st.sampled_from(PLAIN_VALUES)
    joined = st.builds("{}={}".format, flag, value)
    items = [st.tuples(flag, value), st.tuples(joined)]
    if command == "threshold":
        items.append(st.lists(value, min_size=1, max_size=3).map(tuple))
    argv = [t for item in draw(st.lists(st.one_of(items), max_size=5)) for t in item]
    if draw(st.booleans()):
        odd_value = st.sampled_from(ODD_VALUES + PLAIN_VALUES)
        odd = st.one_of(
            odd_value,
            st.sampled_from(ODD_FLAGS),
            st.builds("{}={}".format, flag | st.sampled_from(ODD_FLAGS), odd_value),
        )
        argv.insert(draw(st.integers(0, len(argv))), draw(odd))
    return [command, *argv]


@settings(max_examples=500, deadline=None)
@given(scan_calls())
@example(["threshold"])
@example(["threshold", "--protocol", "pbc00", "nan", "inf", "1_0"])
@example(["threshold", "0.1", "--protocol", "bb84", "0.2"])
@example(["rate", "--out=", "--e-x-sq", "0.02", "--e-x-sq=0.03"])
@example(["simulate", "--tally-out", "t.csv", "--seed", "3"])
@example(["sweep", "--length", "5"])  # an ambiguous abbreviation
def test_scan_gives_what_the_full_parser_gives(argv):
    scanned = _scan(argv[0], argv[1:])
    if scanned is not None:
        full = vars(_build_parser().parse_args(argv))
        del full["command"]
        # by repr, as nan != nan
        assert repr(scanned) == repr(full)
