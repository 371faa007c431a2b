import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siqrng import cli, finite_size, poisson_distribution, simulator
from siqrng.cli import main
from siqrng.detector_model import AfterpulseSpec, detector_set
from siqrng.entropy_engine import (ArmState, entropy_report_from_taus,
                                   make_entropy_report, measurement_taus,
                                   prior_autocorrelation, worst_afterpulse)
from siqrng.finite_size import RateScenario, hmin_with_tau_uncertainty

from cli_failures import FAILURES


def run(argv):
    return main(argv)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# siqrng csv=1 command=")
    header = lines[1].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    return lines[0], header, rows


@pytest.mark.parametrize("row", FAILURES, ids=lambda row: row.label())
def test_failing_command_line(tmp_path, capsys, monkeypatch, row):
    """The row's status, nothing on stdout, one stderr line that is the prefix
    and the row's text (so no traceback), and no ``--out-dir``, which a failed
    run must not make."""
    for key, value in (row.env or {}).items():
        monkeypatch.setenv(key, value)
    argv = row.argv_in(tmp_path)
    out_dir = Path(argv[argv.index("--out-dir") + 1])
    assert run(argv) == row.status
    prefix = "siqrng: i/o error: " if row.status == 1 else "siqrng: error: "
    out, err = capsys.readouterr()
    assert err == prefix + row.message.replace("{tmp}", str(tmp_path)) + "\n"
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("out_dir, message", [
    ("{tmp}/cfg.json/out", "[Errno 20] Not a directory: '{tmp}/cfg.json/out'"),
    ("{tmp}/cfg.json", "[Errno 17] File exists: '{tmp}/cfg.json'"),
], ids=["under_a_file", "a_file"])
def test_out_dir_that_cannot_be_made_fails_before_the_command(tmp_path, capsys, monkeypatch,
                                                              out_dir, message):
    """The error that making the directory gives, before the command computes."""
    entered = []
    monkeypatch.setitem(cli._COMMANDS, "hmin", lambda *args: entered.append(args))
    (tmp_path / "cfg.json").write_text("{}")
    assert run(["hmin", "--points", "3", "--out-dir",
                out_dir.replace("{tmp}", str(tmp_path))]) == 1
    assert capsys.readouterr().err == (
        "siqrng: i/o error: " + message.replace("{tmp}", str(tmp_path)) + "\n")
    assert entered == []
    assert (tmp_path / "cfg.json").read_text() == "{}"


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

    def test_mc_threads_write_the_same_bytes(self, tmp_path):
        """The points' simulate runs on two threads each draw from their own
        generators."""
        for threads in ("1", "2"):
            assert run(["autocorr", "--mc", "--points", "3", "--pulses", "20000", "--seed", "3",
                        "--threads", threads, "--out-dir", str(tmp_path / threads)]) == 0
        assert ((tmp_path / "1" / "autocorr.csv").read_bytes()
                == (tmp_path / "2" / "autocorr.csv").read_bytes())

    def test_default_mc_settings_given_explicitly_keep_the_hash(self, tmp_path):
        assert run(["autocorr", "--seed", "1", "--pulses", "10000000",
                    "--out-dir", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["manifest_hash"] == (
            "80e10757626090db")

    def test_mc_stops_at_the_first_failed_point(self, tmp_path, capsys, monkeypatch):
        """Point 0 fails, so no later point simulates, and the error line is
        the failure table's."""
        (row,) = [row for row in FAILURES
                  if row.argv == "autocorr --points 3 --mc --pulses 10 --seed 7 --threads 1"]
        seeds = []
        simulate = simulator.simulate

        def spy(cfg, threads=1):
            seeds.append(cfg.seed)
            return simulate(cfg, threads=threads)

        monkeypatch.setattr(simulator, "simulate", spy)
        assert run(row.argv_in(tmp_path)) == row.status
        assert seeds == [7]
        assert capsys.readouterr().err == f"siqrng: error: {row.message}\n"

    def test_mc_seed_range_ends_at_2_64_minus_points(self, tmp_path):
        # point i draws with seed + i, so 3 points reach seed + 2 = 2^64 - 1
        assert run(["autocorr", "--mc", "--points", "3", "--pulses", "1000",
                    "--seed", str(2**64 - 3), "--out-dir", str(tmp_path)]) == 0


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

    def test_afterpulse_sweep_builds_no_spec_per_point(self, tmp_path, monkeypatch):
        calls = []
        total = AfterpulseSpec.worst_case_total

        def counted(spec):
            calls.append(spec)
            return total(spec)

        monkeypatch.setattr(AfterpulseSpec, "worst_case_total", counted)
        assert run(["hmin", "--points", "2001", "--out-dir", str(tmp_path)]) == 0
        assert len(calls) <= 4

    def test_eq_above_half_cells_are_the_bracket_at_zero_theta(self, tmp_path):
        # e_q = 1 routes every check-basis photon to "-", so EQ is about 0.95
        assert run(["hmin", "--e-q", "1", "--eta", "0.6", "--nu", "5", "--points", "2",
                    "--out-dir", str(tmp_path)]) == 0
        _, _, rows = read_csv(tmp_path / "hmin_afterpulse.csv")
        e_d = 6e-7
        taus = measurement_taus(poisson_distribution(5.0),
                                detector_set(0.6, e_d, AfterpulseSpec.none()), 1.0)
        for p_hat, *cells in rows:
            totals = [0.0] + [worst_afterpulse(AfterpulseSpec.exponential_from_rate(
                p_hat, 0.001, depth)) for depth in (None, 1000)]
            for cell, w in zip(cells, totals):
                report = make_entropy_report(
                    ArmState.from_totals(taus.tau_0, e_d, w, taus.tau_1, e_d, w),
                    ArmState.from_totals(taus.tau_plus, e_d, w, taus.tau_minus, e_d, w))
                assert report.eq > 0.5
                assert cell == finite_size._bracket(report, 0.0)

    @pytest.mark.parametrize("omega", ["0", "-1", "1000"])
    def test_zero_rate_sweep_ignores_the_decay(self, tmp_path, omega):
        # p_hat = 0 builds AfterpulseSpec.none() at every row, whatever omega
        assert run(["hmin", "--p-hat-max", "0", "--omega", omega, "--points", "3",
                    "--out-dir", str(tmp_path)]) == 0
        _, _, rows = read_csv(tmp_path / "hmin_afterpulse.csv")
        assert all(row[1] == row[2] == row[3] for row in rows)


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

    @pytest.mark.parametrize("text", [
        json.dumps({"sweep_var": "voa_loss_db", "from": 1.0, "to": 2.0, "points": 4,
                    "params": {"N": 1e9, "eta_det": 0.8}}),
        None,
    ], ids=["inline", "readme"])
    def test_sweep_spec_config(self, tmp_path, text):
        if text is None:    # README's example, its one ```json block
            readme = Path(__file__).resolve().parent.parent / "README.md"
            text = readme.read_text(encoding="utf-8").split("```json\n", 1)[1].split("```", 1)[0]
        spec = json.loads(text)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(text)
        assert run(["rates", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        _, _, rows = read_csv(tmp_path / "rates.csv")
        assert len(rows) == spec["points"]
        assert rows[0][0] == spec["from"] and rows[-1][0] == spec["to"]


def rates_columns(out_dir, *flags):
    """The columns of ``rates --points 60 --to 30`` with ``flags``, by name."""
    assert run(["rates", "--points", "60", "--to", "30", *flags, "--out-dir", str(out_dir)]) == 0
    _, header, rows = read_csv(out_dir / "rates.csv")
    return {name: np.array(column) for name, column in zip(header, zip(*rows))}


_BITS = ["bits_rs", "bits_ei", "bits_il", "bits_rs_ap", "bits_ei_ap", "bits_il_ap"]


class TestRatesOrderings:
    """Directions that the physics gives the analytic rates, on every row of
    60 losses from 0 to 30 dB, with one setting moved at a time over the
    range where ROADMAP item 21 measured them; each range holds the default."""

    @pytest.mark.parametrize("flag, values, columns, sign", [
        # afterpulses are clicks whose cause the adversary may know
        ("--p-hat-ap", ["0", "0.05", "0.2", "0.45"], _BITS[3:], -1),
        # misalignment raises the check-basis error, so theta and h(EQ)
        ("--e-q", ["0", "0.02", "0.1", "0.2"], _BITS, -1),
        # a looser budget needs a smaller deviation theta
        ("--eps-e", ["1e-30", "8.881784197001252e-16", "1e-6", "0.1"], ["bits_rs"], 1),
        # more rounds, a smaller deviation per pulse
        ("--N", ["1e6", "1e8", "1e10", "1e12"],
         ["per_pulse_rs", "per_pulse_rs_ap", "per_pulse_ei"], 1),
    ], ids=["p_hat_ap", "e_q", "eps_e", "N"])
    def test_orderings(self, tmp_path, flag, values, columns, sign):
        runs = [rates_columns(tmp_path / value, flag, value) for value in values]
        for c in runs:
            # afterpulsing never adds bits, and neither finite-size route
            # exceeds the infinite-length count
            for name in _BITS[:3]:
                assert np.all(c[name + "_ap"] <= c[name])
            for suffix in ("", "_ap"):
                assert np.all(c["bits_rs" + suffix] <= c["bits_il" + suffix])
                assert np.all(c["bits_ei" + suffix] <= c["bits_il" + suffix])
        for before, after in zip(runs, runs[1:]):
            for name in columns:
                assert np.all(sign * (after[name] - before[name]) >= 0.0), (flag, name)

    def test_dark_count_direction_is_recorded(self, tmp_path, record_property):
        """Not asserted: the bracket credits a dark click with the pair's
        hmin_z, so on high-loss rows the bits rise with --e-d.  Whether that
        credit is sound is ROADMAP item 8's question."""
        low, high = (rates_columns(tmp_path / v, "--e-d", v)["bits_rs"] for v in ("0", "1e-4"))
        record_property("bits_rs_rows_rising_with_e_d", int(np.count_nonzero(high > low)))
        record_property("bits_rs_rows_falling_with_e_d", int(np.count_nonzero(high < low)))


def sweep_columns(out_dir, argv, csv_name):
    """The columns of ``argv``'s ``csv_name``, by name, or None where the run
    exits 2: a drawn setting may leave a monitor box with a vanishing
    single-click probability."""
    status = run([*argv, "--out-dir", str(out_dir)])
    assert status in (0, 2)
    if status:
        return None
    _, header, rows = read_csv(out_dir / csv_name)
    return {name: np.array(column) for name, column in zip(header, zip(*rows))}


class TestEntropyOrderings:
    """Directions that the model gives the monitored and the afterpulsed
    min-entropy, at drawn settings.

    - ``hmin_fs`` is the least bracket over a Hoeffding box that holds the
      exact vacuum probabilities, with the worst EQ of the box, so it is at
      most ``hmin_il``, the bracket at the exact ones.  More samples give a
      smaller box, nested in the last, so it does not fall.
    - Afterpulsing adds clicks whose cause the adversary may know, so every
      afterpulsed column is at most its afterpulse-free one, and a larger
      p_hat, with a larger worst-case total, does not raise it.

    Not asserted: ``hmin_a_ip`` against ``hmin_a_fp`` (see
    ``test_finite_window_direction_is_recorded``) and the e_d direction of
    ``TestRatesOrderings``.
    """

    @settings(max_examples=150, deadline=None)
    @given(nu=st.floats(1.0, 10.0), eta=st.floats(0.1, 0.5), e_d=st.floats(0.0, 1e-3),
           e_q=st.floats(0.0, 0.25), omega=st.floats(1e-4, 1.0), p_hat=st.floats(1e-3, 0.3),
           fp_windows=st.integers(0, 3000), length_min=st.floats(1e4, 1e6),
           decades=st.floats(0.5, 4.0))
    def test_orderings(self, nu, eta, e_d, e_q, omega, p_hat, fp_windows, length_min,
                       decades):
        common = ["--nu", repr(nu), "--eta", repr(eta), "--e-d", repr(e_d), "--e-q", repr(e_q),
                  "--omega", repr(omega)]
        with tempfile.TemporaryDirectory() as tmp:
            fs = sweep_columns(Path(tmp) / "fs", [
                "finite-sampling", *common, "--p-hat-ap", repr(p_hat),
                "--length-min", repr(length_min), "--length-max", repr(length_min * 10**decades),
                "--points", "5", "--grid-points", "17"], "finite_sampling.csv")
            hmin = sweep_columns(Path(tmp) / "hmin", [
                "hmin", *common, "--p-hat-max", repr(p_hat), "--fp-windows", str(fp_windows),
                "--points", "6"], "hmin_afterpulse.csv")
        assume(fs is not None and hmin is not None)
        for suffix in ("", "_ap"):
            assert np.all(fs["hmin_fs" + suffix] <= fs["hmin_il" + suffix])
            assert np.all(np.diff(fs["hmin_fs" + suffix]) >= 0.0)
        for name in ("hmin_fs", "hmin_il"):
            assert np.all(fs[name + "_ap"] <= fs[name])
        for name in ("hmin_a_ip", "hmin_a_fp"):
            assert np.all(hmin[name] <= hmin["hmin_a_np"])
            assert np.all(np.diff(hmin[name]) <= 0.0)

    def test_finite_window_direction_is_recorded(self, tmp_path, record_property):
        """Not asserted: a window of ``--fp-windows`` lags sums fewer terms
        than the infinite one, so hmin_a_fp >= hmin_a_ip in exact
        arithmetic.  But where the window outlasts the decay, both totals
        are the same number by two float paths, and either can round
        higher: here hmin_a_ip exceeds hmin_a_fp on 2 of 6 rows, by at most
        5.6e-16, as it did on 132 of 400 drawn settings of this kind."""
        cols = sweep_columns(tmp_path, ["hmin", "--p-hat-max", "0.26", "--omega", "0.11",
                                        "--fp-windows", "2759", "--points", "6"],
                             "hmin_afterpulse.csv")
        excess = cols["hmin_a_ip"] - cols["hmin_a_fp"]
        record_property("hmin_a_ip_above_fp_rows", int(np.count_nonzero(excess > 0.0)))
        record_property("hmin_a_ip_above_fp_max", float(excess.max()))


class TestFiniteSampling:
    def test_eq_above_half_monitored_value_tends_to_the_exact_one(self, tmp_path):
        # EQ is about 0.95, where h(EQ) < h(1/2) = 1
        assert run(["finite-sampling", "--e-q", "1", "--eta", "0.6", "--nu", "5",
                    "--length-min", "1e5", "--length-max", "1e9",
                    "--out-dir", str(tmp_path)]) == 0
        _, _, rows = read_csv(tmp_path / "finite_sampling.csv")
        for _, _, h_fs, h_il, h_fs_ap, h_il_ap in rows:
            assert h_fs <= h_il and h_fs_ap <= h_il_ap
        # and the monitored value tends to the exact one as the samples grow
        assert 0.0 < rows[-1][3] - rows[-1][2] < 1e-3
        assert 0.0 < rows[-1][5] - rows[-1][4] < 1e-3

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

    def test_raised_length_min_clears_the_degenerate_row(self, tmp_path):
        # at --length-min 100 the first row's box reaches a vanishing
        # single-click probability, and the error says to raise --length-min
        assert run(["finite-sampling", "--eta", "0.3", "--nu", "20", "--points", "2",
                    "--length-min", "1e4", "--out-dir", str(tmp_path)]) == 0

    def test_exact_log2_at_few_cells_per_grid(self, tmp_path, monkeypatch):
        """Default ``finite-sampling --points 10`` takes an exact math.log2
        at no more than 8 of the 4,096 cells of each of its 20 grids."""
        log2, ratios, per_grid = math.log2, [], []

        def counting_log2(x):
            # guessing ratios lie in [1/2, 1]; the binary-entropy arguments
            # of this run (EQ, about 0.01) stay below 1/2
            if 0.5 <= x <= 1.0:
                ratios.append(x)
            return log2(x)

        grid = finite_size._min_bracket_over_taus

        def counted_grid(*args, **kwargs):
            start = len(ratios)
            result = grid(*args, **kwargs)
            per_grid.append(len(ratios) - start)
            return result

        monkeypatch.setattr(math, "log2", counting_log2)
        monkeypatch.setattr(finite_size, "_min_bracket_over_taus", counted_grid)
        assert run(["finite-sampling", "--points", "10", "--out-dir", str(tmp_path)]) == 0
        assert len(per_grid) == 20
        assert all(1 <= n <= 8 for n in per_grid), per_grid
        assert len(ratios) == sum(per_grid) + 2    # the two hmin_il reports

    def test_same_bytes_with_the_baseline_log2_kernel(self, tmp_path):
        """The grid minimum's screen holds under both of NumPy's float64
        log2 kernels: with the AVX-512 kernels disabled, a fresh interpreter
        writes the same CSV as this one."""
        import os
        import subprocess
        import sys
        from numpy.lib.introspect import opt_func_info
        kernels = opt_func_info(func_name="log2", signature="float64").get("log2", {})
        if not any(k["current"] == "X86_V4" for k in kernels.values()):
            pytest.skip("NumPy's float64 log2 has no X86_V4 kernel here")
        argv = ["finite-sampling", "--points", "10"]
        assert run([*argv, "--out-dir", str(tmp_path / "here")]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
               "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}
        code = ("import sys\n"
                "from numpy.lib.introspect import opt_func_info\n"
                "import siqrng.cli\n"
                "info = opt_func_info(func_name='log2', signature='float64')['log2']\n"
                "assert all(k['current'] != 'X86_V4' for k in info.values()), info\n"
                "sys.exit(siqrng.cli.main(sys.argv[1:]))\n")
        done = subprocess.run([sys.executable, "-c", code, *argv, "--out-dir",
                               str(tmp_path / "baseline")],
                              capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        assert ((tmp_path / "baseline" / "finite_sampling.csv").read_bytes()
                == (tmp_path / "here" / "finite_sampling.csv").read_bytes())


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

    def per_spec_totals(rates, decay, depth):
        return np.array([worst_afterpulse(AfterpulseSpec.exponential_from_rate(
            rate, decay, depth)) for rate in rates.tolist()])

    def per_row_hmin_a(e_d, worst, taus):
        # one row per total, or one per eta_1 of the measured detectors with a
        # single total
        eta, eta_1 = seen["dets"][0].efficiency, seen["dets"][1].efficiency
        rows = ([(w, None) for w in worst.tolist()] if np.ndim(eta_1) == 0
                else [(worst, e) for e in eta_1.tolist()])

        def row_hmin_a(w, e):
            own = own_taus(detector_set(eta, e_d, AfterpulseSpec.none(), e))
            return make_entropy_report(
                ArmState.from_totals(own.tau_0, e_d, w, own.tau_1, e_d, w),
                ArmState.from_totals(own.tau_plus, e_d, w, own.tau_minus, e_d, w)).hmin_a

        return np.array([row_hmin_a(w, e) for w, e in rows])

    def recording_scenario_taus(self, loss_db):
        seen["losses"] = np.ravel(loss_db).tolist()
        return real_scenario_taus(self, loss_db)

    def per_row_rates(self, report, walked=None):
        # each scenario asks for its rows in loss order; theta bisects alone
        losses = seen.setdefault(id(self), iter(seen["losses"]))
        return real_rates(self, self.entropy(real_scenario_taus(self, next(losses))))

    monkeypatch.setattr(cli, "measurement_taus", recording_taus)
    monkeypatch.setattr(cli, "entropy_report_from_taus", per_row_report)
    monkeypatch.setattr(cli, "hmin_with_tau_uncertainty", per_row_hmin)
    monkeypatch.setattr(cli, "prior_autocorrelation", per_row_autocorrelation)
    monkeypatch.setattr(cli, "_hmin_a", per_row_hmin_a)
    monkeypatch.setattr(cli, "worst_afterpulse_exponential", per_spec_totals)
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


SEEDED_FILES = ("clicks.csv", "bits.bin", "bits.json", "extracted.bin")


def seeded_digests(out_dir):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in SEEDED_FILES}


class TestInProcessReuse:
    """The binomial tables and the parsers are kept for the process; a run
    writes the bytes of a fresh interpreter whatever ran before it.  B draws
    more photons than A at another misalignment, so it grows the p = 1/2
    table that A then reads, and both runs span two chunks.  The fresh
    interpreter draws B's two chunks with ``--threads 2``, in a pool that
    starts from empty tables."""

    A = ["simulate", "--pulses", "300000", "--nu", "1", "--e-q", "0.02",
         "--window-depth", "2", "--p-hat", "0.05", "--q-x", "0.1", "--seed", "5"]
    B = ["simulate", "--pulses", "300000", "--nu", "6", "--e-q", "0.3",
         "--window-depth", "40", "--p-hat", "0.05", "--q-x", "0.1", "--seed", "5"]

    @staticmethod
    def fresh_digests(argv, out_dir):
        import os
        import subprocess
        import sys
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "siqrng.cli", *argv, "--out-dir",
                               str(out_dir)], capture_output=True, text=True, timeout=120,
                              env=env)
        assert done.returncode == 0, done.stderr
        return seeded_digests(out_dir)

    def test_runs_in_one_process_match_fresh_interpreters(self, tmp_path):
        want = {"A": self.fresh_digests(self.A, tmp_path / "fresh_A"),
                "B": self.fresh_digests(self.B + ["--threads", "2"], tmp_path / "fresh_B")}
        for i, name in enumerate("ABA"):
            out = tmp_path / f"{i}_{name}"
            assert run(getattr(self, name) + ["--out-dir", str(out)]) == 0
            assert seeded_digests(out) == want[name], (i, name)

    def test_two_threads_after_one_write_the_same_bytes(self, tmp_path):
        for threads in ("1", "2"):
            assert run(self.B + ["--threads", threads, "--out-dir", str(tmp_path / threads)]) == 0
        assert seeded_digests(tmp_path / "1") == seeded_digests(tmp_path / "2")

    def test_good_run_after_rejected_ones(self, tmp_path, capsys):
        assert run(self.A + ["--out-dir", str(tmp_path / "before")]) == 0
        with pytest.raises(SystemExit) as exc:      # argparse rejects the flag's value
            run(["simulate", "--pulses", "many", "--out-dir", str(tmp_path / "bad")])
        assert exc.value.code == 2
        assert run(["simulate", "--seed", "-1", "--out-dir", str(tmp_path / "bad")]) == 2
        assert run(self.A + ["--out-dir", str(tmp_path / "after")]) == 0
        assert seeded_digests(tmp_path / "after") == seeded_digests(tmp_path / "before")
        capsys.readouterr()


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

    def test_lost_precision_exits_1_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        """An extraction whose float convolution no longer rounds to the exact
        one is an internal failure, not a bad setting: exit 1, one line."""
        irfft = np.fft.irfft

        def off_by_three_tenths(*args, **kwargs):
            out = irfft(*args, **kwargs)
            out.flat[7] += 0.3
            return out

        monkeypatch.setattr(np.fft, "irfft", off_by_three_tenths)
        assert run(["simulate", "--pulses", "20000", "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "siqrng: error: FFT convolution lost integer precision\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_run(self, tmp_path, seed):
        assert run(["simulate", "--pulses", "1000", "--seed", str(seed),
                    "--out-dir", str(tmp_path)]) == 0

    # no X windows (--q-x 0, or one pulse) leave EQ undefined; --q-x 1 is a
    # basis threshold of 2^53 and leaves no Z windows; --e-q 0.7 flips each
    # check-basis photon with p > 1/2
    @pytest.mark.parametrize("flags, no_x_windows", [
        (["--pulses", "1000", "--q-x", "0"], True), (["--pulses", "1"], True),
        (["--pulses", "20000", "--q-x", "1"], False),
        (["--pulses", "20000", "--e-q", "0.7"], False)])
    def test_json_outputs_are_strict(self, tmp_path, flags, no_x_windows):
        assert run(["simulate", *flags, "--out-dir", str(tmp_path)]) == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        sidecar, _ = (json.loads((tmp_path / name).read_text(), parse_constant=reject)
                      for name in ("bits.json", "manifest.json"))
        assert (sidecar["x_windows"] == 0) is no_x_windows
        assert (sidecar["eq_empirical"] is None) is no_x_windows

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



class TestRunRecord:
    # (argv, config file or None); a config file's float for an int key is
    # recorded as written, which once gave simulate two hashes per run
    RUNS = [
        (["autocorr", "--points", "3"], None),
        (["autocorr"], {"points": 3.0}),
        (["hmin", "--points", "3"], None),
        (["hmin"], {"points": 3.0}),
        (["rates", "--points", "3"], None),
        (["rates"], {"points": 3.0}),
        (["finite-sampling", "--points", "3"], None),
        (["finite-sampling"], {"points": 3.0}),
        (["simulate", "--pulses", "2000"], None),
        (["simulate", "--pulses", "2000"], {"seed": 3.0}),
    ]

    @pytest.mark.parametrize("argv, file_cfg", RUNS, ids=lambda v: (
        "_".join(v).replace("-", "") if isinstance(v, list) else "config" if v else "flags"))
    def test_manifest_hash_links_outputs(self, tmp_path, argv, file_cfg):
        out = tmp_path / "out"
        if file_cfg is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(file_cfg))
            argv = argv + ["--config", str(tmp_path / "cfg.json")]
        assert run(argv + ["--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        mhash = manifest["manifest_hash"]
        assert mhash == cli._manifest_hash(manifest["command"], manifest["config"],
                                           manifest["seed"])
        assert sorted(manifest["outputs"]) == sorted(
            p.name for p in out.iterdir() if p.name != "manifest.json")
        linked = 0
        for name in manifest["outputs"]:
            if name.endswith(".csv"):
                first_line = (out / name).read_text().splitlines()[0]
                assert first_line == (f"# siqrng csv=1 command={argv[0]} "
                                      f"manifest={mhash}")
                linked += 1
            elif name == "bits.json":
                assert json.loads((out / name).read_text())["manifest_hash"] == mhash
                linked += 1
        assert linked == (2 if argv[0] == "simulate" else 1)

    def test_float_seed_draws_the_int_seeds_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3.0}))
        argv = ["simulate", "--pulses", "2000"]
        assert run(argv + ["--config", str(cfg), "--out-dir", str(tmp_path / "f")]) == 0
        assert run(argv + ["--seed", "3", "--out-dir", str(tmp_path / "i")]) == 0
        hashes = [json.loads((tmp_path / d / "manifest.json").read_text())["manifest_hash"]
                  for d in ("f", "i")]
        # values are recorded as written, so the two runs differ in hash only
        assert hashes[0] == "0a7262e33f13706e" and hashes[1] != hashes[0]
        for name in ("bits.bin", "extracted.bin"):
            assert (tmp_path / "f" / name).read_bytes() == (tmp_path / "i" / name).read_bytes()
        clicks = [(tmp_path / d / "clicks.csv").read_bytes().split(b"\n", 1)[1]
                  for d in ("f", "i")]
        assert clicks[0] == clicks[1]

    # measured before the run record moved into main; a change to the hashed
    # blob (command, config, seed, version) moves them
    @pytest.mark.parametrize("argv, mhash", [
        (["autocorr"], "80e10757626090db"),
        (["hmin"], "4e956bb477813a17"),
        (["rates"], "7475560ef404e8f8"),
        (["finite-sampling"], "bee38b2838b7c5b5"),
        (["simulate", "--pulses", "2000"], "9dccc0625bb98ad5"),
    ], ids=lambda v: "_".join(v).replace("-", "") if isinstance(v, list) else None)
    def test_default_manifest_hashes_are_pinned(self, tmp_path, argv, mhash):
        assert run(argv + ["--out-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["manifest_hash"] == mhash
        # recorded to tell hosts apart, outside the hash like duration_s
        assert manifest["numpy"] == np.__version__

    def test_bits_json_describes_bits_bin(self, tmp_path, monkeypatch):
        runs = []
        simulate = simulator.simulate

        def spy(cfg, threads=1):
            runs.append((cfg, simulate(cfg, threads=threads)))
            return runs[-1][1]

        # cmd_simulate imports simulate from the simulator when it runs
        monkeypatch.setattr(simulator, "simulate", spy)
        assert run(["simulate", "--pulses", "2000", "--seed", "19",
                    "--out-dir", str(tmp_path)]) == 0
        ((sim_cfg, result),) = runs
        record = json.loads((tmp_path / "bits.json").read_text())
        assert record["config_hash"] == sim_cfg.config_hash()
        assert record["seed"] == 19
        packed = (tmp_path / "bits.bin").read_bytes()
        bit_count = record["bit_count"]
        assert bit_count == len(result.bits) > 0
        assert len(packed) == math.ceil(bit_count / 8)
        bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))
        assert np.array_equal(bits[:bit_count], result.bits.bits)
        assert not bits[bit_count:].any()
        assert bit_count == record["n_single"] + record["n_double"]
        assert record["z_windows"] + record["x_windows"] == 2000


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

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIQRNG_THREADS", "2")
        assert run(["hmin", "--out-dir", str(tmp_path), "--points", "5"]) == 0

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


# The small run of each command, and of each sweep of hmin and autocorr, that
# every key perturbation starts from.  finite-sampling starts at 631 samples,
# whose row minimum is <= 0: only such rows depend on grid_points (ROADMAP
# item 2).  simulate's dark counts, and the afterpulses of a decay of 1, are
# common enough that 20000 pulses show e_d and p_hat.
KEY_VARIANTS = {
    "autocorr": ("autocorr", {"points": 3}),
    "autocorr --mc": ("autocorr", {"mc": True, "points": 3, "pulses": 20000}),
    "hmin": ("hmin", {"points": 3}),
    "hmin --sweep efficiency": ("hmin", {"sweep": "efficiency", "points": 3}),
    "rates": ("rates", {"points": 3}),
    "finite-sampling": ("finite-sampling", {"points": 3, "length_min": 631.0}),
    "simulate": ("simulate", {"pulses": 20000, "e_d": 0.01, "omega": 1.0}),
}

# Keys that move no output cell of their variant, each with the reason.
INERT_KEYS = {
    ("simulate", "omega"): "at the default p_hat 0 the detectors have no afterpulsing, "
                           "so the decay has nothing to shape",
    ("simulate", "window_depth"): "at the default p_hat 0 no window has an afterpulse "
                                  "history to reach back into",
    **{(variant, "omega"): "the unlimited-history worst case p_hat/(1 - p_hat) does not "
                           "depend on the decay; omega moves the afterpulsed columns only "
                           "in their last digits, through the amplitude's rounding"
       for variant in ("hmin --sweep efficiency", "rates", "finite-sampling")},
}

# Every (variant, key) but autocorr's flip to --mc, which would run the Monte
# Carlo at its default 10^7 pulses: the --mc variant flips mc back instead.
KEY_CASES = [(variant, key) for variant, (command, _) in KEY_VARIANTS.items()
             for key in cli._DEFAULTS[command] if (variant, key) != ("autocorr", "mc")]


def _perturbed(value):
    """A value near ``value`` of the same type, which keeps every range of
    the variants: a float times 0.9 (0.01 for 0), an int plus a tenth of it
    (at least 1), the other bool or hmin sweep, and 100 for ``None``, which
    only ``extract_bits`` takes."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + max(1, value // 10)
    if isinstance(value, float):
        return 0.9 * value if value else 0.01
    if value is None:
        return 100
    return {"afterpulse": "efficiency", "efficiency": "afterpulse"}[value]


def _outputs(out_dir):
    """{file name: (text, cells)} of a run's outputs without their hash lines
    and hash fields, the text to compare exactly and the float cells to
    1e-12 relative: a CSV's header and rows (clicks.csv, whose basis letters
    make its rows text), bits.json's keys and values, a binary file's bytes.
    manifest.json holds the config and the hash alone."""
    outputs = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".csv":
            lines = [line for line in path.read_text().splitlines() if line[0] != "#"]
            try:
                outputs[path.name] = (lines[0], np.array(
                    [[float(v) for v in line.split(",")] for line in lines[1:]]))
            except ValueError:
                outputs[path.name] = (lines, np.empty(0))
        elif path.name == "bits.json":
            record = json.loads(path.read_text())
            del record["config_hash"], record["manifest_hash"]
            outputs[path.name] = (sorted(record), np.array(
                [math.nan if v is None else v for _, v in sorted(record.items())], dtype=float))
        elif path.name != "manifest.json":
            outputs[path.name] = (path.read_bytes(), np.empty(0))
    return outputs


def _moved(a, b):
    """Whether two runs' :func:`_outputs` differ: in a file, a text, or a
    cell by more than 1e-12 relative."""
    if a.keys() != b.keys():
        return True
    for (text_a, x), (text_b, y) in zip(a.values(), b.values()):
        if text_a != text_b or x.shape != y.shape:
            return True
        with np.errstate(invalid="ignore"):
            far = np.abs(x - y) > 1e-12 * np.maximum(np.abs(x), np.abs(y))
        if np.any(far | (np.isnan(x) != np.isnan(y))):
            return True
    return False


@pytest.fixture(scope="module")
def key_run(tmp_path_factory):
    """Runs a command on a config: ("exit", status, stderr lines) where it
    fails, else its :func:`_outputs`; each base run once."""
    tmp = tmp_path_factory.mktemp("keys")
    bases = {}

    def run_config(command, config):
        out_dir = Path(tempfile.mkdtemp(dir=tmp))
        cfg = out_dir / "cfg.json"
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = run([command, "--config", str(cfg), "--out-dir", str(out_dir / "out")])
        if status:
            return ("exit", status, err.getvalue().splitlines())
        return _outputs(out_dir / "out")

    def key_run(variant, key=None):
        command, base = KEY_VARIANTS[variant]
        if key is None:
            if variant not in bases:
                bases[variant] = run_config(command, base)
            return bases[variant]
        value = base.get(key, cli._DEFAULTS[command][key])
        return run_config(command, {**base, key: _perturbed(value)})
    return key_run


class TestEveryKeyTakesEffect:
    """ROADMAP item 22: each config key of each command, perturbed alone,
    moves some output cell by more than 1e-12 relative or exits 2 with one
    error line, unless INERT_KEYS names it with its reason."""

    @pytest.mark.parametrize("variant, key", KEY_CASES, ids=[" ".join(c) for c in KEY_CASES])
    def test_key_moves_an_output_or_is_refused(self, key_run, variant, key):
        base, got = key_run(variant), key_run(variant, key)
        assert isinstance(base, dict), base
        if isinstance(got, tuple):
            assert (variant, key) not in INERT_KEYS, "an inert key is refused"
            assert got[1] == 2 and len(got[2]) == 1, got
            return
        if (variant, key) in INERT_KEYS:
            assert not _moved(base, got), f"{variant} {key} is listed as inert but moves"
        else:
            assert _moved(base, got), f"{variant} {key} moves no output cell"

    def test_inert_keys_are_cases(self):
        assert set(INERT_KEYS) <= set(KEY_CASES)


OUTPUT_DIGESTS = json.loads((Path(__file__).parent / "output_digests.json").read_text())


class TestOutputDigests:
    """Output bytes of commands the benchmark references do not cover.  Each
    key is the output file's name and then the argv that writes it.  The
    ``rates --points 50`` keys are edge settings: zero rows, infeasible theta
    (N = 60, 100) and the theta floor (eps_e = 0.5); their digests were made
    before the theta search was reworked.  The others pass detectors and
    vacuum probabilities through every entropy path (autocorr with and
    without Monte Carlo, finite-sampling, rates, the efficiency sweep); their
    digests were made before those paths took one detector tuple and one
    TauSet.  The ``simulate`` keys at ``--nu 50``, ``--e-q 0.7 --q-x 0.5``
    and ``--e-q 0`` reach the Monte Carlo's binomial paths that no reference
    run takes (NumPy's BTPE, p > 1/2, p = 0); their digests were made with
    ``Generator.binomial`` and ``searchsorted`` drawing every split, flip and
    photon count, before those became table lookups.  The ``extracted.bin``
    keys pin extraction at sizes no reference reaches: 1,237,932 raw bits
    (``--pulses 2000000``) and a short output of 1,000 bits; their digests
    were made with three length-N real FFTs, before the four-step grid."""

    @pytest.mark.parametrize("key", sorted(OUTPUT_DIGESTS))
    def test_bytes_unchanged(self, tmp_path, key):
        name, *argv = key.split()
        assert run([*argv, "--out-dir", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
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
            rows = list(rows)    # a generator of rows is read once
            cells.extend(v for row in rows for v in row)
            write(path, command, manifest_hash, header, rows)

        monkeypatch.setattr(cli, "_write_csv", spy)
        assert run([*argv, "--out-dir", str(tmp_path)]) == 0
        assert cells and {type(v) for v in cells} == {float}


class TestWhatASweepHolds:
    def test_sweeps_load_neither_the_simulator_nor_a_thread_pool(self, tmp_path):
        import os
        import subprocess
        import sys
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        code = ("import sys, siqrng.cli\n"
                "for argv in sys.argv[2:]:\n"
                "    assert siqrng.cli.main([*argv.split(), '--out-dir', sys.argv[1]]) == 0, argv\n"
                "print(sorted({'siqrng.simulator', 'concurrent.futures'} & set(sys.modules)))")
        argvs = ["hmin --points 3", "hmin --sweep efficiency --points 3", "rates --points 3",
                 "finite-sampling --points 3"]
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path), *argvs],
                              capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_rates_traced_peak_is_bounded(self, tmp_path):
        """rates keeps its CSV as text blocks, not as rows, lines, one string
        and its encoding: the traced peak of 4000 points fell from 5.67 MB to
        about 2.1 MB."""
        import tracemalloc
        argv = ["rates", "--points", "4000", "--out-dir", str(tmp_path)]
        assert run(argv) == 0    # the imports, the parser and the tables
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6
