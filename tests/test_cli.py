import json

import numpy as np
import pytest

from siqrng import cli
from siqrng.cli import main
from siqrng.detector_model import detector_set
from siqrng.entropy_engine import entropy_report_from_taus, measurement_taus
from siqrng.finite_size import RateScenario


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
        (["--eta", "1.5"], "xi must lie in [0, 1], got 1.47"),
        (["--e-d", "1"], "dark_rate must lie in [0, 1), got 1.0"),
        # the first row whose eta_1 = ratio * eta leaves [0, 1] names the fault
        (["--sweep", "efficiency", "--ratio-max", "15"],
         "efficiency must lie in [0, 1], got 1.02875"),
        (["--sweep", "efficiency", "--ratio-max", "25"],
         "efficiency must lie in [0, 1], got 1.03"),
        (["--sweep", "efficiency", "--ratio-min", "-1"], "xi must lie in [0, 1], got -0.05"),
        # a nonzero afterpulse rate needs a decay to shape its profile
        (["--omega", "0", "--points", "3"], "decay must be > 0, got 0.0"),
        (["--omega", "-0.5"], "decay must be > 0, got -0.5"),
        (["--sweep", "efficiency", "--omega", "0"], "decay must be > 0, got 0.0"),
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
    ], ids=["bad_sweep_var", "empty_range", "unknown_key"])
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
    real_taus, real_scenario_taus = cli._taus, RateScenario.taus
    real_rates = RateScenario.rates

    def recording_taus(source, eta, e_q, eta_1=None):
        seen["source"], seen["e_q"] = source, e_q
        return real_taus(source, eta, e_q, eta_1)

    def per_row_arms(dets, taus):
        own = measurement_taus(seen["source"], eta_0=dets[0].efficiency,
                               eta_1=dets[1].efficiency, eta_plus=dets[2].efficiency,
                               eta_minus=dets[3].efficiency, misalignment=seen["e_q"])
        return [value for pair in zip(dets, own) for value in pair]

    def per_row_hmin_a(eta, e_d, specs, taus, eta_1=None):
        # one row per spec, or one per eta_1 with a single spec
        rows = ([(spec, None) for spec in specs] if eta_1 is None
                else [(specs[0], e) for e in eta_1.tolist()])
        return np.array([
            entropy_report_from_taus(*per_row_arms(detector_set(eta, e_d, spec, e),
                                                   taus)).hmin_a
            for spec, e in rows])

    def recording_scenario_taus(self, loss_db):
        seen["losses"] = np.ravel(loss_db).tolist()
        return real_scenario_taus(self, loss_db)

    def per_row_rates(self, report):
        # each scenario asks for its rows in loss order
        losses = seen.setdefault(id(self), iter(seen["losses"]))
        return real_rates(self, self.entropy(real_scenario_taus(self, next(losses))))

    monkeypatch.setattr(cli, "_taus", recording_taus)
    monkeypatch.setattr(cli, "_arms", per_row_arms)
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
        taus = measurement_taus(poisson_distribution(1.0), eta_0=0.1, eta_1=0.1,
                                eta_plus=0.1, eta_minus=0.1, misalignment=0.02)
        _, _, detp, detm = make_detectors()
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

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(["autocorr", "--config", str(cfg), "--out-dir",
                    str(tmp_path)]) == 2

    def test_invalid_parameter_exit_code(self, tmp_path):
        assert run(["autocorr", "--out-dir", str(tmp_path), "--points", "1"]) == 2
        assert run(["hmin", "--sweep", "bogus", "--out-dir", str(tmp_path)]) == 2

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIQRNG_THREADS", "2")
        assert run(["hmin", "--out-dir", str(tmp_path), "--points", "5"]) == 0
        monkeypatch.setenv("SIQRNG_THREADS", "0")
        assert run(["hmin", "--out-dir", str(tmp_path), "--points", "5"]) == 2

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
