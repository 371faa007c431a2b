"""Every command line that must fail, with its exit status and its one stderr line.

``tests/test_cli.py::test_failing_command_line`` runs each row through
``siqrng.cli.main`` and requires the row's exit status, nothing on stdout,
exactly one stderr line, ``siqrng: error: `` (status 2) or
``siqrng: i/o error: `` (status 1) followed by the row's text, and no
``--out-dir``: a failed run makes none.  ``tests/test_reachability.py`` runs
every row too, as command lines that reach the package's checks.  This table
is the one list of command-line failures: add a row here, not a test or a CI
line.

A row's argv is split on spaces.  ``{tmp}``, in the argv or the text, stands
for the test's scratch directory.  ``env`` sets environment variables for
the run.  ``config`` is the payload of ``--config {tmp}/cfg.json``: a dict
is written as JSON, a string as it is.  A run whose argv names no
``--out-dir`` writes to ``{tmp}/out``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Union


class Failure(NamedTuple):
    argv: str
    message: str
    status: int = 2
    env: Optional[Dict[str, str]] = None
    config: Union[None, dict, str] = None

    def label(self) -> str:
        """The row as a user would type it, for the test id."""
        words = [f"{key}={value}" for key, value in (self.env or {}).items()]
        words.append(self.argv)
        if self.config is not None:
            payload = self.config if isinstance(self.config, str) else json.dumps(self.config)
            words.append(f"--config {payload}")
        return " ".join(words)

    def argv_in(self, tmp: Path) -> List[str]:
        """The row's argv with ``{tmp}`` standing for ``tmp``: the config file
        written there, and ``--out-dir {tmp}/out`` where the row names none."""
        argv = self.argv.replace("{tmp}", str(tmp)).split()
        if self.config is not None:
            cfg = tmp / "cfg.json"
            cfg.write_text(self.config if isinstance(self.config, str)
                           else json.dumps(self.config))
            argv += ["--config", str(cfg)]
        if "--out-dir" not in argv:
            argv += ["--out-dir", str(tmp / "out")]
        return argv


F = Failure

FAILURES = [
    # --- settings read before any command runs --------------------------------
    F("hmin --points 3 --threads 0", "threads must be >= 1, got 0"),
    F("hmin --points 3", "SIQRNG_THREADS must be an integer, got 'abc'",
      env={"SIQRNG_THREADS": "abc"}),
    F("hmin --points 3", "SIQRNG_THREADS must be >= 1, got 0", env={"SIQRNG_THREADS": "0"}),
    # flags and JSON (NaN, Infinity) both parse non-finite floats
    F("rates --nu inf", "config key 'nu' must be finite, got inf"),
    F("rates --N nan --points 3", "config key 'N' must be finite, got nan"),
    F("rates --N inf --points 3", "config key 'N' must be finite, got inf"),
    F("rates --to inf --points 3", "config key 'to' must be finite, got inf"),
    F("finite-sampling --length-max inf --points 3",
      "config key 'length_max' must be finite, got inf"),
    F("rates --v nan --points 3", "config key 'v' must be finite, got nan"),
    F("hmin", "config key 'nu' must be finite, got nan", config='{"nu": NaN}'),
    F("hmin", "config key 'eta' must be finite, got inf", config='{"eta": Infinity}'),
    F("hmin", "config key 'e_d' must be finite, got -inf", config='{"e_d": -Infinity}'),
    # --- config files -------------------------------------------------------
    F("autocorr", "unknown config keys: ['bogus']", config={"bogus": 1}),
    F("hmin", "config key 'nu' must be float, got \"abc\"", config={"nu": "abc"}),
    F("simulate", "config key 'pulses' must be int, got 2.5", config={"pulses": 2.5}),
    F("autocorr", "config key 'mc' must be bool, got 1",
      config={"mc": 1, "points": 2, "pulses": 1000}),
    F("hmin", "config key 'points' must be int, got true", config={"points": True}),
    F("hmin", "config file {tmp}/cfg.json is not valid JSON: Expecting property name "
      "enclosed in double quotes: line 1 column 2 (char 1)", config="{"),
    F("hmin", "config file must hold a JSON object, got a number", config="5"),
    F("hmin", "config file must hold a JSON object, got an array", config="[1, 2]"),
    F("rates", "unsupported sweep variable 'nu'", config={"sweep_var": "nu"}),
    F("rates", "unknown sweep specification keys: ['method', 'pionts']",
      config={"sweep_var": "voa_loss_db", "from": 0, "to": 2, "pionts": 3,
              "method": "entropy_inequality", "params": {"nu": 10}}),
    F("rates", "sweep specification key 'params' must be an object, got 5",
      config={"sweep_var": "voa_loss_db", "params": 5}),
    F("rates", "unknown config keys: ['bogus']",
      config={"sweep_var": "voa_loss_db", "params": {"bogus": 1}}),
    F("hmin", "sweep specifications apply to the rates command",
      config={"sweep_var": "voa_loss_db", "from": 0.0, "to": 1.0, "points": 3}),
    # --- files that cannot be read or written (exit 1) ---------------------
    F("hmin --points 3 --config {tmp}/missing.json",
      "[Errno 2] No such file or directory: '{tmp}/missing.json'", status=1),
    # the config file stands in for any regular file
    F("hmin --points 3 --out-dir {tmp}/cfg.json/out",
      "[Errno 20] Not a directory: '{tmp}/cfg.json/out'", status=1, config={}),
    # --- each command checks its own settings ---------------------------------
    F("autocorr --points 1", "autocorr needs points >= 2, got 1"),
    F("hmin --points 1", "hmin needs points >= 2, got 1"),
    F("rates --points 1", "rates needs points >= 2, got 1"),
    F("finite-sampling --points 0", "finite-sampling needs points >= 2, got 0"),
    F("rates", "sweep range is empty: from 2.0 to 1.0",
      config={"sweep_var": "voa_loss_db", "from": 2.0, "to": 1.0}),
    # --- autocorr -------------------------------------------------------------
    F("autocorr --p-hat -0.1", "autocorr needs 0 <= p_hat < 1, got -0.1"),
    F("autocorr --p-hat 1", "autocorr needs 0 <= p_hat < 1, got 1.0"),
    F("autocorr --lag 0", "autocorr needs lag >= 1, got 0"),
    # the lag-1 not-fired afterpulse probability p_hat/(1-p_hat)*p_b exceeds
    # 1 at p_hat = 0.96; at p_hat = 0.9 only the fired one,
    # p_hat/(1-p_hat)*p_b + p_hat_1*(1-p_b), does, from the row p_hat_1 = 0.675 on
    F("autocorr --p-hat 0.96",
      "afterpulse rate p_hat = 0.96 is too large: the lag-1 not-fired afterpulse "
      "probability is 1.1705075096865751 > 1"),
    F("autocorr --p-hat 0.9 --points 5",
      "afterpulse rate p_hat = 0.9 is too large: the lag-1 fired afterpulse "
      "probability is 1.0810197924225313 > 1"),
    # only the Monte Carlo columns read lag, pulses and seed (the prior does not
    # depend on the lag), so without --mc a value other than the default would
    # change the run hash and nothing else
    F("autocorr --points 3 --lag 4",
      "autocorr lag, pulses and seed take effect only with --mc; got lag=4"),
    F("autocorr --points 3 --seed 5",
      "autocorr lag, pulses and seed take effect only with --mc; got seed=5"),
    F("autocorr --points 3 --pulses 20000",
      "autocorr lag, pulses and seed take effect only with --mc; got pulses=20000"),
    F("autocorr --points 3 --seed -1 --pulses 7",
      "autocorr lag, pulses and seed take effect only with --mc; got pulses=7, seed=-1"),
    F("autocorr --points 3", "autocorr lag, pulses and seed take effect only with --mc; got seed=3",
      config={"seed": 3}),
    F("autocorr --points 3",
      "autocorr lag, pulses and seed take effect only with --mc; got pulses=1000",
      config={"pulses": 1000, "points": 4}),
    # point i draws with seed + i, so 3 points reach seed + 2 < 2^64
    F("autocorr --mc --points 3 --pulses 1000 --seed -1",
      "autocorr --mc draws point i with seed + i, so seed must lie in [0, 2^64 - points]; "
      "got seed -1 for 3 points"),
    F("autocorr --mc --points 3 --pulses 1000 --seed 18446744073709551614",
      "autocorr --mc draws point i with seed + i, so seed must lie in [0, 2^64 - points]; "
      "got seed 18446744073709551614 for 3 points"),
    # no detector can click, so the raw bit's expectation is undefined
    F("autocorr --eta 0 --e-d 0", "no single-click events: k is undefined"),
    # 1 pulse leaves one Z window, too few for a lag-1 pair
    F("autocorr --mc --points 2 --pulses 1",
      "point p_hat_i=0, seed=1: sequence of length 1 too short for lag 1; raise --pulses"),
    # 10 pulses at nu = 1 and eta = 0.1 leave a constant Z-window bit sequence
    F("autocorr --points 3 --mc --pulses 10",
      "point p_hat_i=0, seed=1: constant sequence has undefined autocorrelation; "
      "raise --pulses"),
    F("autocorr --points 3 --mc --pulses 10 --seed 7 --threads 1",
      "point p_hat_i=0, seed=7: constant sequence has undefined autocorrelation; "
      "raise --pulses"),
    F("autocorr --points 3 --mc --pulses 10 --seed 7 --threads 2",
      "point p_hat_i=0, seed=7: constant sequence has undefined autocorrelation; "
      "raise --pulses"),
    # with seed 3 the 10 pulses leave no single-click Z window
    F("autocorr --points 2 --mc --pulses 10 --seed 3",
      "point p_hat_i=0, seed=3: mask selects no entries; raise --pulses"),
    # --- hmin -----------------------------------------------------------------
    F("hmin --sweep bogus", "unknown hmin sweep 'bogus'"),
    F("hmin --nu -1", "mean photon number must be finite and >= 0, got -1.0"),
    F("hmin --p-hat-max 1.2", "first_order_rate must lie in [0, 1), got 1.02"),
    F("hmin --eta 1.02", "efficiency must lie in [0, 1], got 1.02"),
    F("hmin --eta 1.5", "efficiency must lie in [0, 1], got 1.5"),
    F("hmin --e-d 1", "dark_rate must lie in [0, 1), got 1.0"),
    # the end of the ratio grid whose eta_1 = ratio * eta leaves [0, 1] names
    # the fault, with the flags that set it; at the default ratio_max 1.5 that
    # is any eta above 2/3
    F("hmin --sweep efficiency --ratio-max 15",
      '--ratio-max 15.0 times --eta 0.1 gives detector "1" the efficiency 1.5, '
      "outside [0, 1]"),
    F("hmin --sweep efficiency --ratio-max 25",
      '--ratio-max 25.0 times --eta 0.1 gives detector "1" the efficiency 2.5, '
      "outside [0, 1]"),
    F("hmin --sweep efficiency --ratio-min -1",
      '--ratio-min -1.0 times --eta 0.1 gives detector "1" the efficiency -0.1, '
      "outside [0, 1]"),
    F("hmin --sweep efficiency --eta 0.9 --points 3",
      '--ratio-max 1.5 times --eta 0.9 gives detector "1" the efficiency 1.35, '
      "outside [0, 1]"),
    # a nonzero afterpulse rate needs a decay to shape its profile
    F("hmin --omega 0 --points 3", "decay must be > 0, got 0.0"),
    F("hmin --omega -0.5", "decay must be > 0, got -0.5"),
    F("hmin --sweep efficiency --omega 0", "decay must be > 0, got 0.0"),
    # exp(-decay) rounds to 1, which first_order_rate divides by 1 minus
    F("hmin --omega 1e-17", "decay must be large enough that exp(-decay) < 1, got 1e-17"),
    F("hmin --fp-windows -1", "fp_windows must be >= 0, got -1"),
    # each sweep refuses the other sweep's keys, from a flag or a config file
    F("hmin --sweep afterpulse --points 5 --ratio-min 0.1 --ratio-max 1.5 --p-hat-ap 0.2",
      "hmin p_hat_ap, ratio_min and ratio_max take effect only with --sweep efficiency; "
      "got p_hat_ap=0.2, ratio_min=0.1"),
    F("hmin --ratio-max 2", "hmin p_hat_ap, ratio_min and ratio_max take effect only with "
      "--sweep efficiency; got ratio_max=2.0"),
    F("hmin --sweep efficiency --points 5 --p-hat-max 0.3 --fp-windows 7",
      "hmin p_hat_max and fp_windows take effect only with --sweep afterpulse; "
      "got p_hat_max=0.3, fp_windows=7"),
    F("hmin --sweep efficiency", "hmin p_hat_max and fp_windows take effect only with "
      "--sweep afterpulse; got fp_windows=0", config={"fp_windows": 0}),
    # --- rates ----------------------------------------------------------------
    F("rates --points 3 --p-hat-ap -0.1", "first_order_rate must lie in [0, 1), got -0.1"),
    F("rates --from -1 --points 2", "loss must be >= 0 dB, got -1.0"),
    F("rates --q-x 5e-324 --points 3",
      "N = 1e+10 and q_x = 4.94066e-324 leave n_x = 4.94066e-314 and n_z = 1e+10 pulses; "
      "both must be >= 1"),
    F("rates --N 10 --points 3",
      "N = 10 and q_x = 0.02 leave n_x = 0.2 and n_z = 9.8 pulses; both must be >= 1"),
    F("rates --v -5 --points 3", "z_rate must be >= 0, got -5.0"),
    F("rates --N 0 --points 2", "total_pulses must be >= 1, got 0.0"),
    F("rates --q-x 1", "x_fraction must lie in (0, 1), got 1.0"),
    F("rates --eps-all 1", "eps_all must lie in (0, 1), got 1.0"),
    F("rates --t-e 0", "t_e must be >= 1, got 0"),
    F("rates --e-q 1.5", "misalignment must lie in [0, 1], got 1.5"),
    F("rates --nu -1", "nu must be >= 0, got -1.0"),
    F("rates --eta-bs 1 --points 3",
      "beam-splitter transmittance must lie in (0, 1), got 1.0"),
    F("rates --eta-det 0 --points 3",
      "photodiode efficiency must lie in (0, 1], got 0.0"),
    # --- finite-sampling ------------------------------------------------------
    F("finite-sampling --grid-points 1", "grid_points must be >= 2, got 1"),
    F("finite-sampling --points 2 --grid-points 0", "grid_points must be >= 2, got 0"),
    F("finite-sampling --points 2 --length-min=0",
      "length_min and length_max must be > 0, got 0.0 and 10000000.0"),
    F("finite-sampling --points 2 --length-min=-5",
      "length_min and length_max must be > 0, got -5.0 and 10000000.0"),
    F("finite-sampling --points 2 --length-max=-1",
      "length_min and length_max must be > 0, got 100.0 and -1.0"),
    F("finite-sampling --length-min 0.4",
      "length_min = 0.4 and length_max = 1e+07 give a row of 0.4 monitor samples, which "
      "rounds to 0; --length-min and --length-max must both exceed 0.5"),
    F("finite-sampling --points 2 --length-min 3 --length-max 0.5",
      "length_min = 3 and length_max = 0.5 give a row of 0.5 monitor samples, which "
      "rounds to 0; --length-min and --length-max must both exceed 0.5"),
    F("finite-sampling --eps-d 1 --points 2", "eps_d must lie in (0, 1), got 1.0"),
    F("finite-sampling --eta 0.3 --nu 20 --points 2",
      "row n_samples=100, delta_d=0.420419: single-click probability vanishes in the "
      "worst case; raise --length-min"),
    F("finite-sampling --eta 0 --e-d 0",
      "hmin_il at the exact vacuum probabilities, before any monitor box: "
      "single-click probability vanishes in the worst case"),
    # --- simulate -------------------------------------------------------------
    F("simulate --pulses 0", "pulses must be >= 1, got 0"),
    F("simulate --t-z 2", "t_z must lie in [0, 1], got 2.0"),
    F("simulate --p-hat 0 --window-depth -1", "window_depth must be >= 0, got -1"),
    F("simulate --p-hat 0.05 --omega 0", "decay must be > 0, got 0.0"),
    # the extraction is checked before any file is written
    F("simulate --pulses 1000 --extract-bits 100000",
      "output_len 100000 exceeds input length 79"),
    F("simulate --pulses 1000 --extract-bits -1", "output_len must be >= 0, got -1"),
    # both seeds of each pair -1, 2^64 - 1 and 2^64, 0 used to draw the same
    # Philox streams
    F("simulate --seed -1", "seed must lie in [0, 2^64), got -1"),
    F("simulate --pulses 1000 --seed 18446744073709551616",
      "seed must lie in [0, 2^64), got 18446744073709551616"),
    # --- the source: nu and the afterpulse decay ------------------------------
    # the Poisson pmf of mean 2300 sums to 1 + 1.1e-12
    *(F(f"{command} --nu 2300",
        "Poisson probabilities of mean nu = 2300.0 sum to 1.0000000000011235, more than "
        "1e-12 above 1: the pmf loses accuracy at this nu")
      for command in ("rates", "simulate", "finite-sampling")),
    # the Poisson pmf of mean 6000 sums to 1 - 6.2e-12, with a tail below 2^-107
    F("rates --nu 6000",
      "Poisson probabilities of mean nu = 6000.0 sum to 0.9999999999937795, more than "
      "1e-12 below 1 with a tail below 2^-107: the pmf loses accuracy at this nu"),
    F("rates --nu 1e7", "mean photon number nu = 10000000.0 is above the bound 100000"),
    # e^decay - 1 overflows a float above ln(DBL_MAX), about 709.78
    F("hmin --omega 1000 --points 3", "decay 1000.0 is too large: e^decay - 1 overflows"),
    F("simulate --pulses 1000 --p-hat 0.05 --omega 800",
      "decay 800.0 is too large: e^decay - 1 overflows"),
    F("rates --omega 710 --points 2", "decay 710.0 is too large: e^decay - 1 overflows"),
    F("finite-sampling --omega 710 --points 2",
      "decay 710.0 is too large: e^decay - 1 overflows"),
]
