import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from siqrng import cli
from siqrng.cli import main
from siqrng.detector_model import detector_set
from siqrng.entropy_engine import (entropy_report_from_taus, measurement_taus,
                                   prior_autocorrelation)
from siqrng.finite_size import RateScenario, hmin_with_tau_uncertainty


def run(argv):
    return main(argv)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# siqrng csv=1 command=")
    header = lines[1].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    return lines[0], header, rows


class TestAutocorr:
    def test_analytic_sweep(self, tmp_path):
        assert run(["autocorr", "--out-dir", str(tmp_path), "--points", "6"]) == 0
        meta, header, rows = read_csv(tmp_path / "autocorr.csv")
        assert header == ["p_hat_i", "a_prior"]
        assert len(rows) == 6
        assert rows[0][0] == 0.0 and rows[0][1] == pytest.approx(0.0, abs=1e-15)
        values = [r[1] for r in rows]
        assert values == sorted(values)          # increasing, positive trend
        assert (tmp_path / "manifest.json").exists()

    def test_mc_columns(self, tmp_path):
        assert run(["autocorr", "--out-dir", str(tmp_path), "--points", "3",
                    "--mc", "--pulses", "200000", "--seed", "5"]) == 0
        _, header, rows = read_csv(tmp_path / "autocorr.csv")
        assert header == ["p_hat_i", "a_prior", "a_mc", "a_mc_stderr"]
        for p_i, a_th, a_mc, se in rows:
            assert abs(a_mc - a_th) <= 4.0 * se or abs(a_mc - a_th) < 5e-3

    @pytest.mark.parametrize("argv, message", [
        # the lag-1 not-fired afterpulse probability p_hat/(1-p_hat)*p_b
        # exceeds 1 at p_hat = 0.96
        (["--p-hat", "0.96"], "not-fired afterpulse probability is 1.1705075096865751"),
        # at p_hat = 0.9 only the fired one, p_hat/(1-p_hat)*p_b + p_hat_1*(1-p_b),
        # does, from the row p_hat_1 = 0.675 on
        (["--p-hat", "0.9", "--points", "5"],
         "fired afterpulse probability is 1.0810197924225313"),
    ], ids=["not_fired", "fired"])
    def test_too_large_p_hat_is_named(self, tmp_path, capsys, argv, message):
        assert run(["autocorr", *argv, "--out-dir", str(tmp_path)]) == 2
        p_hat = argv[1]
        assert capsys.readouterr().err == (
            f"siqrng: error: afterpulse rate p_hat = {p_hat} is too large: the lag-1 "
            f"{message} > 1\n")
        assert not (tmp_path / "autocorr.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["autocorr", "--points", "1"], "autocorr needs points >= 2, got 1"),
        (["hmin", "--points", "1"], "hmin needs points >= 2, got 1"),
        (["rates", "--points", "1"], "rates needs points >= 2, got 1"),
        (["finite-sampling", "--points", "0"], "finite-sampling needs points >= 2, got 0"),
        (["autocorr", "--p-hat", "-0.1"], "autocorr needs 0 <= p_hat < 1, got -0.1"),
        (["autocorr", "--p-hat", "1"], "autocorr needs 0 <= p_hat < 1, got 1.0"),
        (["autocorr", "--lag", "0"], "autocorr needs lag >= 1, got 0"),
    ], ids=["points", "hmin_points", "rates_points", "finite_sampling_points",
            "negative_p_hat", "unit_p_hat", "lag"])
    def test_bad_setting_names_its_key(self, tmp_path, capsys, argv, message):
        assert run([*argv, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"siqrng: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [-1, 2**64 - 2])
    def test_mc_seed_range_covers_every_point(self, tmp_path, capsys, seed):
        # point i draws with seed + i, so 3 points reach seed + 2 < 2^64
        argv = ["autocorr", "--mc", "--points", "3", "--pulses", "1000",
                "--out-dir", str(tmp_path)]
        assert run(argv + ["--seed", str(seed)]) == 2
        assert capsys.readouterr().err == (
            "siqrng: error: autocorr --mc draws point i with seed + i, so seed must lie "
            f"in [0, 2^64 - points]; got seed {seed} for 3 points\n")
        assert list(tmp_path.iterdir()) == []
        assert run(argv + ["--seed", str(2**64 - 3)]) == 0

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_mc_point_without_clicks_is_named(self, tmp_path, capsys, threads):
        # 10 pulses at nu = 1 and eta = 0.1 leave a constant Z-window bit sequence
        assert run(["autocorr", "--points", "3", "--mc", "--pulses", "10", "--seed", "7",
                    "--threads", threads, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "siqrng: error: point p_hat_i=0, seed=7: constant sequence has undefined "
            "autocorrelation; raise --pulses\n")
        assert list(tmp_path.iterdir()) == []


class TestHmin:
    def test_afterpulse_sweep_ordering(self, tmp_path):
        assert run(["hmin", "--out-dir", str(tmp_path), "--points", "9"]) == 0
        _, header, rows = read_csv(tmp_path / "hmin_afterpulse.csv")
        assert header == ["p_hat", "hmin_a_np", "hmin_a_ip", "hmin_a_fp"]
        np_col = [r[1] for r in rows]
        assert max(np_col) - min(np_col) < 1e-12      # flat reference line
        for p_hat, h_np, h_ip, h_fp in rows[1:]:
            assert h_ip < h_fp < h_np

    def test_efficiency_sweep(self, tmp_path):
        assert run(["hmin", "--sweep", "efficiency", "--out-dir", str(tmp_path),
                    "--points", "11", "--ratio-min", "0.5", "--ratio-max",
                    "1.5"]) == 0
        _, header, rows = read_csv(tmp_path / "hmin_efficiency.csv")
        assert header == ["eta_ratio", "hmin_a_no_ap", "hmin_a_ap"]
        peak = max(rows, key=lambda r: r[1])
        assert peak[0] == pytest.approx(1.0, abs=0.06)
        for _, h0, h1 in rows:
            assert h1 < h0

    @pytest.mark.parametrize("argv, message", [
        (["--p-hat-max", "1.2"], "first_order_rate must lie in [0, 1), got 1.02"),
        (["--eta", "1.02"], "efficiency must lie in [0, 1], got 1.02"),
        (["--eta", "1.5"], "efficiency must lie in [0, 1], got 1.5"),
        (["--e-d", "1"], "dark_rate must lie in [0, 1), got 1.0"),
        # the first row whose eta_1 = ratio * eta leaves [0, 1] names the fault
        (["--sweep", "efficiency", "--ratio-max", "15"],
         "efficiency must lie in [0, 1], got 1.02875"),
        (["--sweep", "efficiency", "--ratio-max", "25"],
         "efficiency must lie in [0, 1], got 1.03"),
        (["--sweep", "efficiency", "--ratio-min", "-1"],
         "efficiency must lie in [0, 1], got -0.1"),
        # a nonzero afterpulse rate needs a decay to shape its profile
        (["--omega", "0", "--points", "3"], "decay must be > 0, got 0.0"),
        (["--omega", "-0.5"], "decay must be > 0, got -0.5"),
        (["--sweep", "efficiency", "--omega", "0"], "decay must be > 0, got 0.0"),
        # exp(-decay) rounds to 1, which first_order_rate divides by 1 minus
        (["--omega", "1e-17"], "decay must be large enough that exp(-decay) < 1, got 1e-17"),
        (["--fp-windows", "-1"], "fp_windows must be >= 0, got -1"),
    ], ids=lambda v: "_".join(v).replace("-", "") if isinstance(v, list) else "")
    def test_first_faulty_row_is_named(self, tmp_path, capsys, argv, message):
        assert run(["hmin", "--out-dir", str(tmp_path)] + argv) == 2
        assert capsys.readouterr().err == f"siqrng: error: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestRates:
    def test_default_sweep_small(self, tmp_path):
        assert run(["rates", "--out-dir", str(tmp_path), "--points", "11"]) == 0
        _, header, rows = read_csv(tmp_path / "rates.csv")
        assert header[:7] == ["loss_db", "bits_rs", "bits_ei", "bits_il",
                              "bits_rs_ap", "bits_ei_ap", "bits_il_ap"]
        for row in rows:
            loss, rs, ei, il, rs_a, ei_a, il_a = row[:7]
            assert il >= ei >= rs
            assert rs >= rs_a and ei >= ei_a and il >= il_a
            assert row[7] == pytest.approx(rs / 1e10, rel=1e-12)

    def test_sweep_spec_config(self, tmp_path):
        spec = {"sweep_var": "voa_loss_db", "from": 1.0, "to": 2.0, "points": 4,
                "params": {"N": 1e9, "eta_det": 0.8}}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(spec))
        assert run(["rates", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        _, _, rows = read_csv(tmp_path / "rates.csv")
        assert len(rows) == 4
        assert rows[0][0] == 1.0 and rows[-1][0] == 2.0

    def test_negative_afterpulse_rate_rejected(self, tmp_path, capsys):
        assert run(["rates", "--out-dir", str(tmp_path), "--points", "3",
                    "--p-hat-ap", "-0.1"]) == 2
        assert "first_order_rate must lie in [0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "rates.csv").exists()

    @pytest.mark.parametrize("spec, message", [
        ({"sweep_var": "nu"}, "unsupported sweep variable 'nu'"),
        ({"sweep_var": "voa_loss_db", "from": 2.0, "to": 1.0},
         "sweep range is empty: from 2.0 to 1.0"),
        ({"sweep_var": "voa_loss_db", "from": 0, "to": 2, "pionts": 3,
          "method": "entropy_inequality", "params": {"nu": 10}},
         "unknown sweep specification keys: ['method', 'pionts']"),
        ({"sweep_var": "voa_loss_db", "params": 5},
         "sweep specification key 'params' must be an object, got 5"),
    ], ids=["bad_sweep_var", "empty_range", "unknown_key", "params_not_object"])
    def test_bad_sweep_spec_rejected(self, tmp_path, capsys, spec, message):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert run(["rates", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"siqrng: error: {message}\n"
        assert list(out.glob("*")) == []


class TestFiniteSampling:
    def test_gap_shrinks(self, tmp_path):
        assert run(["finite-sampling", "--out-dir", str(tmp_path), "--points",
                    "4", "--grid-points", "17"]) == 0
        _, header, rows = read_csv(tmp_path / "finite_sampling.csv")
        assert header == ["n_samples", "delta_d", "hmin_fs", "hmin_il",
                          "hmin_fs_ap", "hmin_il_ap"]
        for row in rows:
            assert row[2] <= row[3] + 1e-12
            assert row[4] <= row[5] + 1e-12
        gaps = [r[3] - r[2] for r in rows]
        assert gaps[-1] < gaps[0]

    @pytest.mark.parametrize("grid_points", ["0", "1"])
    def test_fewer_than_two_grid_points_rejected(self, tmp_path, capsys, grid_points):
        assert run(["finite-sampling", "--out-dir", str(tmp_path), "--points", "2",
                    "--grid-points", grid_points]) == 2
        assert "grid_points must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "finite_sampling.csv").exists()

    @pytest.mark.parametrize("flag", ["--length-min=0", "--length-min=-5",
                                      "--length-max=-1"])
    def test_nonpositive_length_rejected(self, tmp_path, capsys, flag):
        assert run(["finite-sampling", "--out-dir", str(tmp_path), "--points", "2",
                    flag]) == 2
        assert "length_min and length_max must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "finite_sampling.csv").exists()

    def test_degenerate_row_is_named(self, tmp_path, capsys):
        args = ["finite-sampling", "--eta", "0.3", "--nu", "20", "--points", "2"]
        assert run(args + ["--out-dir", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert "row n_samples=100, delta_d=0.420419" in err
        assert "single-click probability vanishes" in err
        assert "raise --length-min" in err
        assert not (tmp_path / "a" / "finite_sampling.csv").exists()
        assert run(args + ["--length-min", "1e4", "--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "finite_sampling.csv").exists()


def per_row_taus(monkeypatch):
    """Reference: every row goes through the scalar chain on its own.  Every
    detector set and every scenario computes its own vacuum probabilities,
    ignoring the TauSet it is handed, and ``rates`` ignores the report cell
    it is handed."""
    seen = {}
    real_scenario_taus = RateScenario.taus
    real_rates = RateScenario.rates

    def recording_taus(source, dets, misalignment=0.0):
        seen["source"], seen["dets"], seen["e_q"] = source, dets, misalignment
        return measurement_taus(source, dets, misalignment)

    def own_taus(dets):
        return measurement_taus(seen["source"], dets, misalignment=seen["e_q"])

    def per_row_report(dets, taus):
        return entropy_report_from_taus(dets, own_taus(dets))

    def per_row_hmin(dets, taus, delta, grid_points=64):
        return hmin_with_tau_uncertainty(dets, own_taus(dets), delta, grid_points)

    def per_row_autocorrelation(det_0, tau_0, det_1, tau_1, lag):
        own = own_taus((det_0, det_1, det_0, det_1))    # only tau_0 and tau_1 are read
        return prior_autocorrelation(det_0, own.tau_0, det_1, own.tau_1, lag)

    def per_row_hmin_a(e_d, specs, taus):
        # one row per spec, or one per eta_1 of the measured detectors with a
        # single spec
        eta, eta_1 = seen["dets"][0].efficiency, seen["dets"][1].efficiency
        rows = ([(spec, None) for spec in specs] if np.ndim(eta_1) == 0
                else [(specs[0], e) for e in eta_1.tolist()])
        return np.array([per_row_report(detector_set(eta, e_d, spec, e), taus).hmin_a
                         for spec, e in rows])

    def recording_scenario_taus(self, loss_db):
        seen["losses"] = np.ravel(loss_db).tolist()
        return real_scenario_taus(self, loss_db)

    def per_row_rates(self, report):
        # each scenario asks for its rows in loss order
        losses = seen.setdefault(id(self), iter(seen["losses"]))
        return real_rates(self, self.entropy(real_scenario_taus(self, next(losses))))

    monkeypatch.setattr(cli, "measurement_taus", recording_taus)
    monkeypatch.setattr(cli, "entropy_report_from_taus", per_row_report)
    monkeypatch.setattr(cli, "hmin_with_tau_uncertainty", per_row_hmin)
    monkeypatch.setattr(cli, "prior_autocorrelation", per_row_autocorrelation)
    monkeypatch.setattr(cli, "_hmin_a", per_row_hmin_a)
    monkeypatch.setattr(RateScenario, "taus", recording_scenario_taus)
    monkeypatch.setattr(RateScenario, "rates", per_row_rates)


class TestSharedTaus:
    @pytest.mark.parametrize("argv", [
        ["rates", "--points", "25"],
        ["rates", "--points", "5", "--p-hat-ap", "0.6"],
        ["rates", "--nu", "0"],
        ["hmin", "--sweep", "afterpulse", "--points", "41"],
        ["hmin", "--sweep", "afterpulse", "--p-hat-max", "0.9"],
        ["hmin", "--sweep", "efficiency", "--points", "41"],
        ["autocorr", "--points", "6"],
        ["finite-sampling", "--points", "4"],
    ], ids=lambda argv: "_".join(argv).replace("-", ""))
    def test_bytes_match_per_row_taus(self, tmp_path, monkeypatch, argv):
        shared, own = tmp_path / "shared", tmp_path / "own"
        assert run(argv + ["--out-dir", str(shared)]) == 0
        per_row_taus(monkeypatch)
        assert run(argv + ["--out-dir", str(own)]) == 0
        names = sorted(p.name for p in shared.iterdir())
        assert names == sorted(p.name for p in own.iterdir())
        for name in names:
            if name == "manifest.json":
                a, b = (json.loads((d / name).read_text()) for d in (shared, own))
                a.pop("duration_s"), b.pop("duration_s")
                assert a == b
            else:
                assert (shared / name).read_bytes() == (own / name).read_bytes(), name


class TestSimulateCommand:
    def test_outputs_and_reproducibility(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--pulses", "20000", "--seed", "11", "--p-hat",
                "0.02", "--window-depth", "2"]
        assert run(args + ["--out-dir", str(out_a)]) == 0
        assert run(args + ["--out-dir", str(out_b), "--threads", "3"]) == 0
        for name in ("clicks.csv", "bits.bin", "bits.json", "extracted.bin"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        sidecar = json.loads((out_a / "bits.json").read_text())
        assert sidecar["seed"] == 11
        assert sidecar["bit_count"] == sidecar["n_single"] + sidecar["n_double"]
        lines = (out_a / "clicks.csv").read_text().splitlines()
        assert lines[1] == "index,basis,d0,d1,ap0,ap1"
        assert len(lines) == 2 + 20000

    def test_million_pulse_run_is_quick_and_accurate(self, tmp_path):
        import math
        import time

        from siqrng import poisson_distribution
        from siqrng.entropy_engine import (
            measurement_taus,
            stationary_click_prob,
            x_basis_error,
        )
        from conftest import make_detectors

        started = time.monotonic()
        assert run(["simulate", "--pulses", "1000000", "--seed", "3",
                    "--out-dir", str(tmp_path)]) == 0
        assert time.monotonic() - started < 60.0
        sidecar = json.loads((tmp_path / "bits.json").read_text())
        # default config: nu=1, eta=0.1, e_d=6e-7, e_q=0.02, no afterpulse
        dets = make_detectors()
        taus = measurement_taus(poisson_distribution(1.0), dets, misalignment=0.02)
        _, _, detp, detm = dets
        eq = x_basis_error(p_plus=stationary_click_prob(detp, taus.tau_plus),
                           p_minus=stationary_click_prob(detm, taus.tau_minus))
        n_x = sidecar["x_windows"]
        assert abs(sidecar["eq_empirical"] - eq) <= 3.0 * math.sqrt(eq / n_x)

    def test_window_depth_zero_means_no_afterpulse(self, tmp_path):
        args = ["simulate", "--pulses", "5000", "--seed", "4"]
        assert run(args + ["--p-hat", "0.05", "--window-depth", "0",
                           "--out-dir", str(tmp_path / "d0")]) == 0
        assert run(args + ["--p-hat", "0", "--out-dir", str(tmp_path / "ref")]) == 0
        rows = (tmp_path / "d0" / "clicks.csv").read_text().splitlines()[2:]
        assert len(rows) == 5000
        assert all(row.endswith(",0,0") for row in rows)     # ap0, ap1
        # zero history windows draw exactly the afterpulse-free clicks and bits
        ref = (tmp_path / "ref" / "clicks.csv").read_text().splitlines()[2:]
        assert rows == ref
        for name in ("bits.bin", "extracted.bin"):
            assert ((tmp_path / "d0" / name).read_bytes()
                    == (tmp_path / "ref" / name).read_bytes())

    @pytest.mark.parametrize("argv, message", [
        (["--p-hat", "0", "--window-depth", "-1"], "window_depth must be >= 0, got -1"),
        (["--p-hat", "0.05", "--omega", "0"], "decay must be > 0, got 0.0"),
        # the extraction is checked before any file is written
        (["--pulses", "1000", "--extract-bits", "100000"],
         "output_len 100000 exceeds input length 79"),
    ], ids=["negative_depth", "zero_decay", "extract_too_long"])
    def test_rejected_run_writes_nothing(self, tmp_path, capsys, argv, message):
        assert run(["simulate", *argv, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"siqrng: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad, good", [(-1, 2**64 - 1), (2**64, 0)])
    def test_seed_outside_philox_key_range_rejected(self, tmp_path, capsys, bad, good):
        # both seeds of each pair used to draw the same Philox streams
        argv = ["simulate", "--pulses", "1000"]
        assert run([*argv, "--seed", str(bad), "--out-dir", str(tmp_path / "bad")]) == 2
        assert capsys.readouterr().err == (
            f"siqrng: error: seed must lie in [0, 2^64), got {bad}\n")
        assert list((tmp_path / "bad").iterdir()) == []
        assert run([*argv, "--seed", str(good), "--out-dir", str(tmp_path / "good")]) == 0

    @pytest.mark.parametrize("flags", [["--pulses", "1000", "--q-x", "0"],
                                       ["--pulses", "1"]])
    def test_no_x_windows_writes_strict_json(self, tmp_path, flags):
        assert run(["simulate", *flags, "--out-dir", str(tmp_path)]) == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        sidecar = json.loads((tmp_path / "bits.json").read_text(),
                             parse_constant=reject)
        assert sidecar["x_windows"] == 0
        assert sidecar["eq_empirical"] is None

    def test_output_symlink_is_replaced_not_written_through(self, tmp_path):
        args = ["simulate", "--pulses", "2000", "--seed", "6"]
        assert run(args + ["--out-dir", str(tmp_path / "ref")]) == 0
        out = tmp_path / "out"
        out.mkdir()
        sentinel = tmp_path / "sentinel"
        sentinel.write_bytes(b"keep me\n")
        (out / "clicks.csv").symlink_to(sentinel)
        for _ in range(2):          # into the linked directory, then a rerun
            assert run(args + ["--out-dir", str(out)]) == 0
            assert sentinel.read_bytes() == b"keep me\n"
            assert not (out / "clicks.csv").is_symlink()
            for name in ("clicks.csv", "bits.bin", "bits.json", "extracted.bin"):
                assert (out / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_manifest_hash_links_outputs(self, tmp_path):
        assert run(["simulate", "--pulses", "5000", "--out-dir",
                    str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        first_line = (tmp_path / "clicks.csv").read_text().splitlines()[0]
        assert manifest["manifest_hash"] in first_line
        assert set(manifest["outputs"]) == {"clicks.csv", "bits.bin",
                                            "bits.json", "extracted.bin"}


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nu": 2.0, "points": 4}))
        assert run(["autocorr", "--config", str(cfg), "--out-dir",
                    str(tmp_path), "--points", "3"]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["nu"] == 2.0
        assert manifest["config"]["points"] == 3    # flag wins

    def test_points_flag_only_where_the_command_has_points(self, tmp_path, capsys):
        # simulate has no points setting; the flag used to change its hash
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--pulses", "2000", "--points", "5", "--out-dir",
                 str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --points 5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_help_lists_every_command_and_its_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        listing = capsys.readouterr().out
        for command, defaults in cli._DEFAULTS.items():
            assert f"    {command} " in listing
            with pytest.raises(SystemExit) as exc:
                run([command, "--help"])
            assert exc.value.code == 0
            options = capsys.readouterr().out
            for key in [*defaults, "config", "out_dir", "threads"]:
                assert f"--{key.replace('_', '-')}" in options

    @pytest.mark.parametrize("command", ["hmin", "rates", "finite-sampling"])
    def test_seed_flag_only_where_the_command_has_a_seed(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run([command, "--points", "3", "--seed", "5", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # every command keeps --threads
        assert run([command, "--points", "3", "--threads", "1", "--out-dir",
                    str(tmp_path)]) == 0

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(["autocorr", "--config", str(cfg), "--out-dir",
                    str(tmp_path)]) == 2

    @pytest.mark.parametrize("command, config, message", [
        ("hmin", {"nu": "abc"}, "config key 'nu' must be float, got \"abc\""),
        ("simulate", {"pulses": 2.5}, "config key 'pulses' must be int, got 2.5"),
        ("autocorr", {"mc": 1, "points": 2, "pulses": 1000}, "config key 'mc' must be bool, got 1"),
        ("hmin", {"points": True}, "config key 'points' must be int, got true"),
    ], ids=["str_for_float", "fraction_for_int", "int_for_bool", "bool_for_int"])
    def test_wrong_json_type_rejected(self, tmp_path, capsys, command, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"siqrng: error: {message}\n"
        assert list(out.glob("*")) == []

    def test_integral_float_for_int_key_kept_as_parsed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 3.0}))
        assert run(["hmin", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert repr(manifest["config"]["points"]) == "3.0"

    def test_import_leaves_scipy_stats_and_signal_out(self):
        import os
        import subprocess
        import sys
        from pathlib import Path
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        code = ("import sys, siqrng.cli; "
                "print(sorted({'scipy.stats', 'scipy.signal'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=60, env=env)
        assert done.stdout == "[]\n"

    # simulate at 100,000 pulses makes about 9,300 raw bits, so extraction
    # takes the FFT path; --t-z thins the source and autocorr --mc simulates.
    NO_SCIPY_ARGVS = ["rates", "hmin", "finite-sampling", "simulate --pulses 100000",
                      "hmin --sweep efficiency --points 3",
                      "autocorr --points 3 --mc --pulses 20000",
                      "simulate --pulses 20000 --t-z 0.5 --t-x 0.3"]

    def run_no_scipy_argvs(self, tmp_path, prelude=""):
        """Run every argv of NO_SCIPY_ARGVS in one fresh interpreter after
        ``prelude``, each required to exit 0; the last line printed names the
        SciPy modules loaded."""
        import os
        import subprocess
        import sys
        from pathlib import Path
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        code = (prelude + "import sys, siqrng.cli\n"
                "for argv in sys.argv[2:]:\n"
                "    assert siqrng.cli.main([*argv.split(), '--out-dir', sys.argv[1]]) == 0, argv\n"
                "print(sorted(m for m, module in sys.modules.items()\n"
                "             if m.split('.')[0] == 'scipy' and module is not None))")
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path), *self.NO_SCIPY_ARGVS],
                              capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]

    def test_commands_load_no_scipy(self, tmp_path):
        assert self.run_no_scipy_argvs(tmp_path) == "[]"

    def test_commands_run_where_scipy_cannot_be_imported(self, tmp_path):
        assert self.run_no_scipy_argvs(tmp_path, "import sys; sys.modules['scipy'] = None\n") == "[]"

    def test_invalid_parameter_exit_code(self, tmp_path):
        assert run(["autocorr", "--out-dir", str(tmp_path), "--points", "1"]) == 2
        assert run(["hmin", "--sweep", "bogus", "--out-dir", str(tmp_path)]) == 2

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIQRNG_THREADS", "2")
        assert run(["hmin", "--out-dir", str(tmp_path), "--points", "5"]) == 0
        monkeypatch.setenv("SIQRNG_THREADS", "0")
        assert run(["hmin", "--out-dir", str(tmp_path), "--points", "5"]) == 2

    @pytest.mark.parametrize("value, message", [
        ("abc", "SIQRNG_THREADS must be an integer, got 'abc'"),
        ("0", "SIQRNG_THREADS must be >= 1, got 0"),
    ])
    def test_bad_threads_env_is_named(self, tmp_path, capsys, monkeypatch, value, message):
        monkeypatch.setenv("SIQRNG_THREADS", value)
        assert run(["hmin", "--out-dir", str(tmp_path), "--points", "3"]) == 2
        assert capsys.readouterr().err == f"siqrng: error: {message}\n"
        assert not (tmp_path / "hmin_afterpulse.csv").exists()

    def test_bad_threads_flag_message_unchanged(self, tmp_path, capsys):
        assert run(["hmin", "--out-dir", str(tmp_path), "--points", "3",
                    "--threads", "0"]) == 2
        assert capsys.readouterr().err == "siqrng: error: threads must be >= 1, got 0\n"

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["rates", "--out-dir", str(out), "--points", "5"]) == 0
        assert ((out_a / "rates.csv").read_bytes()
                == (out_b / "rates.csv").read_bytes())

    def test_thread_count_does_not_change_output(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["hmin", "--out-dir", str(out_a), "--points", "7",
                    "--threads", "1"]) == 0
        assert run(["hmin", "--out-dir", str(out_b), "--points", "7",
                    "--threads", "4"]) == 0
        assert ((out_a / "hmin_afterpulse.csv").read_bytes()
                == (out_b / "hmin_afterpulse.csv").read_bytes())

    def test_full_precision_output(self, tmp_path):
        assert run(["hmin", "--out-dir", str(tmp_path), "--points", "5"]) == 0
        lines = (tmp_path / "hmin_afterpulse.csv").read_text().splitlines()
        value = lines[2].split(",")[1]
        assert float(value) == pytest.approx(0.4116161068536443, rel=1e-15)

    @pytest.mark.parametrize("argv, key", [
        (["rates", "--nu", "inf"], "nu"),
        (["rates", "--N", "nan"], "N"),
        (["rates", "--N", "inf"], "N"),
        (["rates", "--to", "inf"], "to"),
        (["finite-sampling", "--length-max", "inf"], "length_max"),
        (["rates", "--v", "nan"], "v"),
    ])
    def test_non_finite_setting_exits_2_and_names_the_key(self, tmp_path, capsys, argv, key):
        out = tmp_path / "out"
        assert run([*argv, "--points", "3", "--out-dir", str(out)]) == 2
        value = argv[-1]
        assert capsys.readouterr().err == (
            f"siqrng: error: config key {key!r} must be finite, got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"nu": NaN}', '{"eta": Infinity}', '{"e_d": -Infinity}'])
    def test_non_finite_config_file_value_rejected(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run(["hmin", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rates", "simulate", "finite-sampling"])
    def test_large_nu_is_named(self, tmp_path, capsys, command):
        # the Poisson pmf of mean 2300 sums to 1 + 1.1e-12
        out = tmp_path / "out"
        assert run([command, "--nu", "2300", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "siqrng: error: Poisson probabilities of mean nu = 2300.0 sum to "
            "1.0000000000011235, more than 1e-12 above 1: the pmf loses accuracy "
            "at this nu\n")
        assert list(out.iterdir()) == []

    def test_nu_whose_pmf_sums_short_of_one_is_named(self, tmp_path, capsys):
        # the Poisson pmf of mean 6000 sums to 1 - 6.2e-12, with a tail below 2^-107
        out = tmp_path / "out"
        assert run(["rates", "--nu", "6000", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "siqrng: error: Poisson probabilities of mean nu = 6000.0 sum to "
            "0.9999999999937795, more than 1e-12 below 1 with a tail below 2^-107: "
            "the pmf loses accuracy at this nu\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["--q-x", "5e-324"], "N = 1e+10 and q_x = 4.94066e-324 leave n_x = 4.94066e-314"),
        (["--N", "10"], "N = 10 and q_x = 0.02 leave n_x = 0.2"),
        (["--v", "-5"], "z_rate must be >= 0, got -5.0"),
    ])
    def test_security_parameters_rates_cannot_use_exit_2(self, tmp_path, capsys, argv,
                                                          message):
        assert run(["rates", *argv, "--points", "3", "--out-dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err


OUTPUT_DIGESTS = json.loads((Path(__file__).parent / "output_digests.json").read_text())


class TestOutputDigests:
    """CSV bytes of commands the benchmark references do not cover.  Each key
    is the CSV name and then the argv that writes it.  The ``rates --points
    50`` keys are edge settings: zero rows, infeasible theta (N = 60, 100)
    and the theta floor (eps_e = 0.5); their digests were made before the
    theta search was reworked.  The others pass detectors and vacuum
    probabilities through every entropy path (autocorr with and without
    Monte Carlo, finite-sampling, rates, the efficiency sweep); their
    digests were made before those paths took one detector tuple and one
    TauSet.  The ``simulate`` keys at ``--nu 50``, ``--e-q 0.7 --q-x 0.5``
    and ``--e-q 0`` reach the Monte Carlo's binomial paths that no reference
    run takes (NumPy's BTPE, p > 1/2, p = 0); their digests were made with
    ``Generator.binomial`` and ``searchsorted`` drawing every split, flip and
    photon count, before those became table lookups."""

    @pytest.mark.parametrize("key", sorted(OUTPUT_DIGESTS))
    def test_bytes_unchanged(self, tmp_path, key):
        csv_name, *argv = key.split()
        assert run([*argv, "--out-dir", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / csv_name).read_bytes()).hexdigest()
        assert digest == OUTPUT_DIGESTS[key]


class TestWriteCsv:
    VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1,
              -1.0 / 3.0, 2.0**-1074 * 3]

    def _rows(self, tmp_path, rows):
        path = tmp_path / "out.csv"
        cli._write_csv(path, "rates", "abc", "h", rows)
        return path.read_text(encoding="utf-8").splitlines()[2:]

    def test_float_rows_match_cell_formatting(self, tmp_path):
        rows = [self.VALUES, self.VALUES[::-1], [1.0]]
        assert self._rows(tmp_path, rows) == [
            ",".join(f"{v:.17g}" for v in row) for row in rows]

    @pytest.mark.parametrize("argv", [
        ["hmin", "--points", "3"],
        ["hmin", "--sweep", "efficiency", "--points", "3"],
        ["rates", "--points", "3"],
        ["rates", "--points", "3", "--p-hat-ap", "0.6"],
        ["finite-sampling", "--points", "3"],
        ["autocorr", "--points", "3"],
        ["autocorr", "--points", "3", "--mc", "--pulses", "2000"],
    ], ids=lambda v: "_".join(v).replace("-", ""))
    def test_every_command_writes_python_floats(self, tmp_path, monkeypatch, argv):
        # "%.17g" writes a float as f"{v:.17g}" does, but an int of 18 digits
        # or a bool otherwise
        cells = []
        write = cli._write_csv

        def spy(path, command, manifest_hash, header, rows):
            cells.extend(v for row in rows for v in row)
            write(path, command, manifest_hash, header, rows)

        monkeypatch.setattr(cli, "_write_csv", spy)
        assert run([*argv, "--out-dir", str(tmp_path)]) == 0
        assert cells and {type(v) for v in cells} == {float}
