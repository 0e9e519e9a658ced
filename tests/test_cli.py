"""CLI tests: subcommand output schemas, determinism of emitted rows,
config-file precedence, and preset behavior."""

import hashlib
import json

import numpy as np
import pytest

from weylcdma.cli import main, run_preset


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def data_rows(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header, rows = lines[0].split(","), [l.split(",") for l in lines[1:]]
    return header, rows


class TestGenerate:
    def test_weyl_chips(self, capsys):
        code, out, _ = run_cli(
            capsys, ["generate", "--family", "weyl", "--rho", "0.5", "--n", "4"]
        )
        assert code == 0
        header, rows = data_rows(out)
        assert header == ["n", "re", "im"]
        assert [round(float(r[1])) for r in rows] == [-1, 1, -1, 1]

    def test_gold_chips_are_signs(self, capsys):
        code, out, _ = run_cli(
            capsys, ["generate", "--family", "gold", "--degree", "5", "--index", "7"]
        )
        assert code == 0
        _, rows = data_rows(out)
        assert len(rows) == 31
        assert {round(float(r[1])) for r in rows} <= {-1, 1}

    def test_fzc_r_none(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["generate", "--family", "fzc", "--mk", "1", "--p", "2", "--q", "1",
             "--r", "none", "--n", "3"],
        )
        assert code == 0
        _, rows = data_rows(out)
        assert len(rows) == 3

    def test_invalid_parameters_exit_nonzero(self, capsys):
        code, _, err = run_cli(
            capsys, ["generate", "--family", "weyl", "--rho", "1.5", "--n", "4"]
        )
        assert code == 1
        assert "rho" in err


class TestCorrelate:
    def test_antipodal_bound_column_is_one(self, capsys):
        code, out, _ = run_cli(
            capsys, ["correlate", "--rho-i", "0.2", "--rho-k", "0.7", "--n", "31"]
        )
        assert code == 0
        header, rows = data_rows(out)
        assert header == ["lag", "abs_c", "abs_theta", "abs_theta_hat", "bound"]
        assert len(rows) == 31
        assert all(float(r[4]) == 1.0 for r in rows)
        for r in rows:
            assert float(r[1]) <= float(r[4]) + 1e-9

    def test_degenerate_pair_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            capsys, ["correlate", "--rho-i", "0.3", "--rho-k", "0.3", "--n", "8"]
        )
        assert code == 1
        assert "coincide" in err


class TestSolve:
    def test_k7_report(self, capsys):
        code, out, _ = run_cli(capsys, ["solve", "--k", "7", "--samples", "2000"])
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(fields["kkt_residual"]) < 1e-9
        assert fields["optimum_beaten"] == "False"
        rhos = [float(v) for v in fields["rho_star"].split(",")]
        assert len(rhos) == 7
        assert np.allclose(np.diff(rhos), 1 / 7)

    def test_nonfinite_gamma_rejected(self, capsys):
        for gamma in ("nan", "inf"):
            code, out, err = run_cli(capsys, ["solve", "--k", "3", "--gamma", gamma])
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and "gamma" in err


class TestSnr:
    def test_table_shape_and_bound(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["snr", "--n", "31", "--k", "31", "--gamma", "0.0161", "--ebn0-db", "25"],
        )
        assert code == 0
        header, rows = data_rows(out)
        assert header == ["sigma", "gamma", "snr", "lower_bound"]
        assert len(rows) == 31
        for r in rows:
            assert float(r[3]) <= float(r[2]) + 1e-9

    def test_out_of_range_ebn0_rejected(self, capsys):
        code, out, err = run_cli(capsys, ["snr", "--n", "31", "--k", "31", "--ebn0-db=4000"])
        assert code == 1 and out == ""
        assert "ebn0_db" in err

    def test_nonfinite_gamma_rejected(self, capsys):
        for gamma in ("nan", "inf"):
            code, out, err = run_cli(
                capsys, ["snr", "--n", "31", "--k", "4", "--gamma", gamma, "--ebn0-db", "25"]
            )
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and "gamma" in err

    def test_more_users_than_chips_rejected(self, capsys):
        code, out, err = run_cli(capsys, ["snr", "--n", "31", "--k", "40", "--ebn0-db", "10"])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "n_users" in err


class TestBerSweep:
    ARGS = [
        "ber-sweep", "--axis", "users", "--values", "2,3", "--family", "weyl",
        "--gamma", "0.03125", "--kmax", "16", "--policy", "random", "--n", "16",
        "--k", "2", "--ebn0-db", "20", "--trials", "400", "--seed", "7",
    ]

    def test_schema_and_determinism(self, capsys):
        code, out1, _ = run_cli(capsys, self.ARGS)
        assert code == 0
        code, out2, _ = run_cli(capsys, self.ARGS)
        assert code == 0
        assert out1 == out2  # byte-identical rerun
        header, rows = data_rows(out1)
        assert header == [
            "axis_value", "family", "policy", "gamma", "kmax",
            "mean_ber", "wilson_lo", "wilson_hi", "bits",
        ]
        assert [r[0] for r in rows] == ["2", "3"]
        assert all(r[1] == "weyl" for r in rows)

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = dict(axis="users", values="2", family="weyl", gamma=0.03125, kmax=16,
                   policy="random", n=16, k=2, ebn0_db=20.0, trials=200, seed=7)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, ["ber-sweep", "--config", str(path)])
        assert code == 0
        _, rows = data_rows(out)
        assert len(rows) == 1
        # a negative leading value and a null (the default) both pass through
        path.write_text(json.dumps(dict(cfg, axis="ebn0", values="-5,0", kmax=None)))
        code, out, _ = run_cli(capsys, ["ber-sweep", "--config", str(path)])
        assert code == 0
        _, rows = data_rows(out)
        assert [r[0] for r in rows] == ["-5", "0"] and rows[0][4] == "16"

    def test_cli_flags_override_config_file(self, tmp_path, capsys):
        cfg = dict(axis="users", values="2", family="weyl", gamma=0.03125, kmax=16,
                   policy="random", n=16, k=2, ebn0_db=20.0, trials=200, seed=7)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(
            capsys, ["ber-sweep", "--config", str(path), "--values", "2,3,4"]
        )
        assert code == 0
        _, rows = data_rows(out)
        assert [r[0] for r in rows] == ["2", "3", "4"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict(values="2", sigma_mod="fixed")))
        code, out, err = run_cli(capsys, ["ber-sweep", "--config", str(path)])
        assert code == 1 and out == ""
        assert "sigma_mod" in err

    def test_config_values_checked_like_flags(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict(values=[2, 3])))
        code, out, err = run_cli(capsys, ["ber-sweep", "--config", str(path)])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "'values'" in err
        # argparse checks file values as it checks flags: usage, then one error line
        for cfg, flag in ((dict(values="2", n=31.5), "--n"),
                          (dict(values="2", sigma_mode="perTrial"), "--sigma-mode")):
            path.write_text(json.dumps(cfg))
            with pytest.raises(SystemExit) as exc:
                main(["ber-sweep", "--config", str(path)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err and flag in err.splitlines()[-1]

    def test_missing_values_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["ber-sweep", "--axis", "users"])

    def test_fractional_users_rejected(self, capsys):
        args = list(self.ARGS)
        args[args.index("2,3")] = "2.5,3.9"
        code, out, err = run_cli(capsys, args)
        assert code == 1 and out == ""
        assert "whole numbers" in err

    def test_nan_ebn0_rejected(self, capsys):
        args = list(self.ARGS)
        args[args.index("users")] = "ebn0"
        for value in ("nan", "4000", "-4000"):  # 10**400 overflows, 10**-400 underflows
            argv = list(args)
            argv[argv.index("--values"):argv.index("2,3") + 1] = [f"--values={value}"]
            code, out, err = run_cli(capsys, argv)
            assert code == 1 and out == ""
            assert "ebn0_db" in err

    def test_nonfinite_gamma_rejected(self, capsys):
        for axis in ("users", "ebn0"):
            for gamma in ("nan", "inf", "-inf"):
                code, out, err = run_cli(capsys, ["ber-sweep", "--axis", axis, "--values", "2",
                                                  f"--gamma={gamma}"])
                assert code == 1 and out == ""
                assert err.count("\n") == 1 and "gamma must be finite" in err

    def test_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(capsys, self.ARGS + ["--out", str(out_path)])
        assert code == 0
        header, rows = data_rows(out_path.read_text())
        assert len(rows) == 2


class TestPreset:
    def test_unknown_preset_exits_nonzero(self, capsys):
        code, _, err = run_cli(capsys, ["preset", "fig9", "--out-dir", "/tmp/x"])
        assert code == 2
        assert "unknown preset" in err

    def test_unwritable_out_dir_exits_nonzero(self, capsys):
        code = main(["preset", "fig3", "--out-dir", "/proc/definitely/not/writable",
                     "--trials", "10"])
        assert code != 0

    def test_fig3_writes_two_curves(self, tmp_path):
        written = run_preset("fig3", str(tmp_path), trials=30, seed=5)
        names = sorted(p.name for p in written)
        assert names == ["fig3_weyl_random_sigma.csv", "fig3_weyl_vdc_sigma.csv"]
        header, rows = data_rows(written[0].read_text())
        assert len(rows) == 31  # users 2..32
        text = written[0].read_text()
        assert "# preset=fig3" in text and "# trials=30" in text

    def test_fig1_caps_fzc_users_at_family_capacity(self, tmp_path):
        written = run_preset("fig1", str(tmp_path), trials=2, seed=5)
        by_name = {p.name: p for p in written}
        _, fzc_rows = data_rows(by_name["fig1_fzc_1_1_1.275.csv"].read_text())
        assert float(fzc_rows[-1][0]) == 30.0  # phi(31) = 30 < 31
        _, gold_rows = data_rows(by_name["fig1_gold.csv"].read_text())
        assert float(gold_rows[-1][0]) == 31.0
        _, optimal_rows = data_rows(by_name["fig1_optimal.csv"].read_text())
        assert float(optimal_rows[-1][0]) == 31.0  # capacity follows K

    def test_presets_match_pinned_digest(self, tmp_path):
        # sha256 of the `sha256sum * | sha256sum` listing of fig1..fig4 at 300 trials,
        # seed 7; a declared change to the CSV bytes updates this pin
        for name in ("fig1", "fig2", "fig3", "fig4"):
            run_preset(name, str(tmp_path), trials=300, seed=7)
        listing = "".join(
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
            for path in sorted(tmp_path.iterdir(), key=lambda path: path.name)
        )
        assert hashlib.sha256(listing.encode()).hexdigest() == (
            "3af357c1b1507b1b10c4a4b5c85f420ef27ea1e7d6ff879d6dbae37c07def5fa"
        )

    def test_preset_names_cover_figures(self, tmp_path):
        for name in ("fig1", "fig2", "fig3", "fig4"):
            from weylcdma.cli import _preset_curves

            axis, values, base, curves = _preset_curves(name)
            assert axis in ("users", "ebn0") and len(values) > 0 and len(curves) >= 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
