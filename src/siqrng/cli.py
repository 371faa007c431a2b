"""Command-line front end: sweeps, simulation runs and report emission.

Subcommands
    autocorr         bit-sequence autocorrelation versus lag coefficient
    hmin             min-entropy versus afterpulse rate or efficiency ratio
    rates            certified rates versus variable attenuation
    finite-sampling  monitored min-entropy versus sampling length
    simulate         Monte Carlo run with raw and extracted output files

Every command accepts ``--config FILE`` (JSON) with flags overriding file
values; fully-defaulted runs need no file.  Numeric CSV output carries 17
significant digits, the first line references the run manifest, and seeded
commands rerun byte-identically.

Exit status: 0 success, 2 invalid configuration or parameters, 1 I/O or
internal failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .detector_model import AfterpulseSpec, detector_set
from .entropy_engine import (
    ArmState,
    TauSet,
    autocorrelation_stderr,
    empirical_autocorrelation,
    entropy_report_from_taus,
    make_entropy_report,
    measurement_taus,
    prior_autocorrelation,
    worst_afterpulse,
)
from .errors import DegenerateError, ParameterError, SiqrngError
from .finite_size import (
    DEFAULT_EPS_TERM,
    DEFAULT_ETA_BS,
    DEFAULT_ETA_DET,
    DEFAULT_LOSS_MAX_DB,
    DEFAULT_MISALIGNMENT,
    DEFAULT_T_E,
    DEFAULT_TOTAL_PULSES,
    DEFAULT_X_FRACTION,
    DEFAULT_Z_RATE,
    hmin_with_tau_uncertainty,
    loss_grid,
    scenario_from_params,
    split_sweep_spec,
)
from .source_monitor import hoeffding_delta, poisson_distribution
from .simulator import PulseTrainConfig, extract, simulate, z_window_bits

CSV_FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2

_DEFAULTS: Dict[str, dict] = {
    "autocorr": {
        "nu": 1.0, "eta": 0.1, "e_d": 6e-7, "p_hat": 0.05, "lag": 1,
        "points": 26, "mc": False, "pulses": 10_000_000, "seed": 1,
    },
    "hmin": {
        "sweep": "afterpulse", "nu": 10.0, "eta": 0.1, "e_d": 6e-7,
        "e_q": 0.02, "omega": 0.001, "fp_windows": 1000,
        "p_hat_max": 0.1, "p_hat_ap": 0.05, "ratio_min": 0.5, "ratio_max": 1.5,
        "points": 41,
    },
    "rates": {
        "from": 0.0, "to": DEFAULT_LOSS_MAX_DB, "points": 200, "nu": 50.0,
        "eta": 0.1, "e_d": 6e-7, "e_q": DEFAULT_MISALIGNMENT,
        "N": DEFAULT_TOTAL_PULSES, "q_x": DEFAULT_X_FRACTION,
        "eps_all": 2.0 * DEFAULT_EPS_TERM, "eps_d": DEFAULT_EPS_TERM,
        "eps_e": DEFAULT_EPS_TERM, "t_e": DEFAULT_T_E, "v": DEFAULT_Z_RATE,
        "eta_bs": DEFAULT_ETA_BS, "eta_det": DEFAULT_ETA_DET,
        "p_hat_ap": 0.05, "omega": 0.001,
    },
    "finite-sampling": {
        "nu": 10.0, "eta": 0.1, "e_d": 6e-7, "e_q": 0.02, "eps_d": 2.0**-50,
        "p_hat_ap": 0.05, "omega": 0.001, "length_min": 1e2, "length_max": 1e7,
        "points": 26, "grid_points": 64,
    },
    "simulate": {
        "pulses": 1_000_000, "nu": 1.0, "eta": 0.1, "e_d": 6e-7,
        "p_hat": 0.0, "omega": 0.001, "window_depth": 2, "q_x": 0.02,
        "e_q": 0.02, "t_z": 1.0, "t_x": 1.0, "seed": 1, "extract_bits": None,
    },
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _manifest_hash(command: str, config: dict, seed) -> str:
    blob = json.dumps(
        {"command": command, "config": config, "seed": seed, "version": __version__},
        sort_keys=True, separators=(",", ":"), default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RunManifest:
    """Record of one command invocation.

    The hash covers command, resolved configuration, seed and tool version —
    not the duration — so a rerun of the same manifest reproduces every
    seeded output byte for byte and carries the same hash.
    """

    command: str
    config: dict
    seed: object
    outputs: List[str]
    duration_s: float
    version: str = __version__

    @property
    def manifest_hash(self) -> str:
        return _manifest_hash(self.command, self.config, self.seed)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "version": self.version,
            "seed": self.seed,
            "config": self.config,
            "outputs": self.outputs,
            "manifest_hash": self.manifest_hash,
            "duration_s": self.duration_s,
        }

    def write(self, out_dir: Path) -> Path:
        path = out_dir / "manifest.json"
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8")
        return path


def _write_csv(path: Path, command: str, manifest_hash: str, header: str,
               rows: Sequence[Sequence]) -> None:
    lines = [f"# siqrng csv={CSV_FORMAT_VERSION} command={command} manifest={manifest_hash}",
             header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _taus(source, eta: float, e_q: float, eta_1: Optional[float] = None) -> TauSet:
    """Vacuum probabilities behind ``source`` of the detectors that
    :func:`detector_set` builds from ``eta`` and ``eta_1``; an array of
    ``eta_1`` gives an array of ``tau_1``."""
    return measurement_taus(source, eta_0=eta, eta_1=eta if eta_1 is None else eta_1,
                            eta_plus=eta, eta_minus=eta, misalignment=e_q)


def _arms(dets: Sequence, taus: TauSet) -> list:
    """Each of the four detectors followed by its vacuum probability: the
    argument list of :func:`entropy_report_from_taus`."""
    return [value for pair in zip(dets, taus) for value in pair]


# ---------------------------------------------------------------------------
# autocorr


def _autocorr_spec(p_hat_i: float, p_hat: float, lag: int) -> AfterpulseSpec:
    """Explicit profile: the swept coefficient at ``lag``, the remaining
    first-order rate one window later."""
    coeffs = [0.0] * (lag + 1)
    coeffs[lag - 1] = p_hat_i
    coeffs[lag] = p_hat - p_hat_i
    return AfterpulseSpec.explicit(coeffs)


def cmd_autocorr(config: dict, out_dir: Path, threads: int = 1) -> List[Path]:
    nu, eta, e_d = config["nu"], config["eta"], config["e_d"]
    p_hat, lag = config["p_hat"], int(config["lag"])
    points = int(config["points"])
    if points < 2 or not (0.0 <= p_hat < 1.0) or lag < 1:
        raise ParameterError("autocorr needs points >= 2, 0 <= p_hat < 1, lag >= 1")
    source = poisson_distribution(nu)
    grid = [float(p) for p in np.linspace(0.0, p_hat, points)]
    dets = [detector_set(eta, e_d, _autocorr_spec(p_hat_i, p_hat, lag))
            for p_hat_i in grid]
    taus = _taus(source, eta, 0.0)
    # _arms(...)[:4] is (det_0, tau_0, det_1, tau_1)
    rows: List[List] = [[p_hat_i, prior_autocorrelation(*_arms(d, taus)[:4], lag)]
                        for p_hat_i, d in zip(grid, dets)]
    header = "p_hat_i,a_prior"

    if config["mc"]:
        pulses = int(config["pulses"])
        seed = int(config["seed"])

        def mc_point(idx: int):
            sim_cfg = PulseTrainConfig(pulses=pulses, source=source,
                                       det_0=dets[idx][0], det_1=dets[idx][1],
                                       x_fraction=0.0, seed=seed + idx)
            bits, mask = z_window_bits(simulate(sim_cfg).clicks)
            return (empirical_autocorrelation(bits, lag, mask=mask),
                    autocorrelation_stderr(mask, lag))

        # Each point is a NumPy Monte Carlo run, so worker threads overlap.
        with ThreadPoolExecutor(max_workers=threads) as pool:
            mc = list(pool.map(mc_point, range(points)))
        rows = [row + [a, se] for row, (a, se) in zip(rows, mc)]
        header = "p_hat_i,a_prior,a_mc,a_mc_stderr"

    mhash = _manifest_hash("autocorr", config, config.get("seed"))
    path = out_dir / "autocorr.csv"
    _write_csv(path, "autocorr", mhash, header, rows)
    return [path]


# ---------------------------------------------------------------------------
# hmin


def _hmin_a(eta: float, e_d: float, specs: Sequence[AfterpulseSpec], taus: TauSet,
            eta_1: Optional[np.ndarray] = None) -> np.ndarray:
    """hmin_a of the detectors :func:`detector_set` builds from ``eta``,
    ``e_d`` and each spec of ``specs`` (and ``eta_1``), at the vacuum
    probabilities ``taus``: one broadcast report along ``specs`` and
    ``eta_1``."""
    detector_set(eta, e_d, AfterpulseSpec.none(), eta_1)    # checks eta, e_d and eta_1
    worst = np.array([worst_afterpulse(spec) for spec in specs])
    z_arm = ArmState.from_totals(taus.tau_0, e_d, worst, taus.tau_1, e_d, worst)
    x_arm = ArmState.from_totals(taus.tau_plus, e_d, worst, taus.tau_minus, e_d, worst)
    return make_entropy_report(z_arm, x_arm).hmin_a


def cmd_hmin(config: dict, out_dir: Path, threads: int = 1) -> List[Path]:
    nu, eta, e_d, e_q = config["nu"], config["eta"], config["e_d"], config["e_q"]
    omega = config["omega"]
    points = int(config["points"])
    if points < 2:
        raise ParameterError("hmin needs points >= 2")
    source = poisson_distribution(nu)
    sweep = config["sweep"]

    if sweep == "afterpulse":
        fp_windows = int(config["fp_windows"])
        taus = _taus(source, eta, e_q)
        p_hats = np.linspace(0.0, config["p_hat_max"], points).tolist()
        no_ap = _hmin_a(eta, e_d, [AfterpulseSpec.none()] * points, taus)
        specs = [(AfterpulseSpec.exponential_from_rate(p_hat, omega),
                  AfterpulseSpec.exponential_from_rate(p_hat, omega, fp_windows))
                 for p_hat in p_hats]
        columns = [_hmin_a(eta, e_d, column, taus) for column in zip(*specs)]
        rows = [list(row) for row in zip(p_hats, no_ap.tolist(),
                                         *(c.tolist() for c in columns))]
        header = "p_hat,hmin_a_np,hmin_a_ip,hmin_a_fp"
        path = out_dir / "hmin_afterpulse.csv"
    elif sweep == "efficiency":
        spec_ap = AfterpulseSpec.exponential_from_rate(config["p_hat_ap"], omega)
        ratios = np.linspace(config["ratio_min"], config["ratio_max"], points)
        eta_1 = ratios * eta
        # The rows run in order, so the first eta_1 outside [0, 1] fails:
        # on its tau if its xi = eta_1/2 is out of range too, else on its
        # detector.  Rows after it never run.
        outside = np.flatnonzero(~((eta_1 >= 0.0) & (eta_1 <= 1.0)))
        if outside.size:
            eta_1 = eta_1[:outside[0] + 1]
        taus = _taus(source, eta, e_q, eta_1)
        columns = [_hmin_a(eta, e_d, [spec], taus, eta_1)
                   for spec in (AfterpulseSpec.none(), spec_ap)]
        rows = [list(row) for row in zip(ratios.tolist(), *(c.tolist() for c in columns))]
        header = "eta_ratio,hmin_a_no_ap,hmin_a_ap"
        path = out_dir / "hmin_efficiency.csv"
    else:
        raise ParameterError(f"unknown hmin sweep {sweep!r}")

    mhash = _manifest_hash("hmin", config, None)
    _write_csv(path, "hmin", mhash, header, rows)
    return [path]


# ---------------------------------------------------------------------------
# rates


def cmd_rates(config: dict, out_dir: Path, threads: int = 1) -> List[Path]:
    points = int(config["points"])
    if points < 2:
        raise ParameterError("rates needs points >= 2")
    losses = loss_grid(config["from"], config["to"], points)
    base_params = {k: config[k] for k in
                   ("N", "q_x", "eps_all", "eps_d", "eps_e", "t_e", "e_q", "v",
                    "e_d", "eta", "eta_bs", "eta_det", "nu", "omega")}
    plain = scenario_from_params(base_params)
    withap = scenario_from_params({**base_params, "p_hat": config["p_hat_ap"]})
    n = plain.security.total_pulses
    taus = plain.taus(losses)    # the scenarios differ only in afterpulsing
    cells = [scenario.entropy(taus).cells() for scenario in (plain, withap)]
    rows = []
    for loss, plain_cell, withap_cell in zip(losses.tolist(), *cells):
        a, b = plain.rates(plain_cell), withap.rates(withap_cell)
        bits = [a["random_sampling"], a["entropy_inequality"], a["infinite_length"],
                b["random_sampling"], b["entropy_inequality"], b["infinite_length"]]
        rows.append([loss] + bits + [v / n for v in bits])
    header = ("loss_db,bits_rs,bits_ei,bits_il,bits_rs_ap,bits_ei_ap,bits_il_ap,"
              "per_pulse_rs,per_pulse_ei,per_pulse_il,"
              "per_pulse_rs_ap,per_pulse_ei_ap,per_pulse_il_ap")
    mhash = _manifest_hash("rates", config, None)
    path = out_dir / "rates.csv"
    _write_csv(path, "rates", mhash, header, rows)
    return [path]


# ---------------------------------------------------------------------------
# finite-sampling


def cmd_finite_sampling(config: dict, out_dir: Path, threads: int = 1) -> List[Path]:
    nu, eta, e_d, e_q = config["nu"], config["eta"], config["e_d"], config["e_q"]
    eps_d = config["eps_d"]
    points = int(config["points"])
    if points < 2:
        raise ParameterError("finite-sampling needs points >= 2")
    lo, hi = config["length_min"], config["length_max"]
    if not (lo > 0.0 and hi > 0.0):
        raise ParameterError(f"length_min and length_max must be > 0, got {lo} and {hi}")
    grid_points = int(config["grid_points"])
    lengths = np.logspace(math.log10(lo), math.log10(hi), points)
    source = poisson_distribution(nu)
    variants = []    # (arms, infinite-length hmin_a) without and with afterpulsing
    spec_ap = AfterpulseSpec.exponential_from_rate(config["p_hat_ap"], config["omega"])
    taus = _taus(source, eta, e_q)
    for spec in (AfterpulseSpec.none(), spec_ap):
        arms = _arms(detector_set(eta, e_d, spec), taus)
        variants.append((arms, entropy_report_from_taus(*arms).hmin_a))

    rows = []
    for n_samples in lengths:
        n_s = int(round(float(n_samples)))
        delta = hoeffding_delta(n_s, eps_d)
        row = [float(n_s), delta]
        for arms, h_il in variants:
            try:
                h_fs = hmin_with_tau_uncertainty(*arms, delta, grid_points=grid_points)
            except DegenerateError as exc:
                raise DegenerateError(
                    f"row n_samples={n_s:g}, delta_d={delta:.6g}: {exc}; "
                    "raise --length-min") from exc
            row += [h_fs, h_il]
        rows.append(row)
    header = "n_samples,delta_d,hmin_fs,hmin_il,hmin_fs_ap,hmin_il_ap"
    mhash = _manifest_hash("finite-sampling", config, None)
    path = out_dir / "finite_sampling.csv"
    _write_csv(path, "finite-sampling", mhash, header, rows)
    return [path]


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(config: dict, out_dir: Path, threads: int = 1) -> List[Path]:
    seed = int(config["seed"])
    depth = config["window_depth"]
    spec = AfterpulseSpec.exponential_from_rate(
        float(config["p_hat"]), float(config["omega"]),
        None if depth is None else int(depth))
    det0, det1, detp, detm = detector_set(config["eta"], config["e_d"], spec)
    sim_cfg = PulseTrainConfig(
        pulses=int(config["pulses"]),
        source=poisson_distribution(config["nu"]),
        det_0=det0, det_1=det1, det_plus=detp, det_minus=detm,
        t_z=float(config["t_z"]), t_x=float(config["t_x"]),
        x_fraction=float(config["q_x"]), misalignment=float(config["e_q"]),
        seed=seed,
    )
    result = simulate(sim_cfg, threads=threads)
    extract_bits = config.get("extract_bits")
    if extract_bits is None:
        extract_bits = len(result.bits) // 2   # demonstration default, not an entropy claim
    # Extract before writing, so a rejected length leaves no output files.
    extracted = extract(result.bits, int(extract_bits), seed)
    mhash = _manifest_hash("simulate", config, seed)

    clicks_path = out_dir / "clicks.csv"
    result.clicks.to_csv(clicks_path,
                         header_comment=f"siqrng csv={CSV_FORMAT_VERSION} "
                                        f"command=simulate manifest={mhash}")
    bits_path = out_dir / "bits.bin"
    bits_path.write_bytes(result.bits.packed())
    sidecar = result.bits.sidecar(seed, sim_cfg.config_hash())
    sidecar["manifest_hash"] = mhash
    # no X windows leaves EQ undefined (NaN), which JSON cannot carry
    sidecar["eq_empirical"] = result.eq_empirical if result.bits.x_windows else None
    sidecar_path = out_dir / "bits.json"
    sidecar_path.write_text(
        json.dumps(sidecar, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8")

    extracted_path = out_dir / "extracted.bin"
    extracted_path.write_bytes(np.packbits(extracted).tobytes())
    return [clicks_path, bits_path, sidecar_path, extracted_path]


# ---------------------------------------------------------------------------
# argument handling

_COMMANDS = {
    "autocorr": cmd_autocorr,
    "hmin": cmd_hmin,
    "rates": cmd_rates,
    "finite-sampling": cmd_finite_sampling,
    "simulate": cmd_simulate,
}

_FLAG_TYPES = {
    "nu": float, "eta": float, "e_d": float, "e_q": float, "p_hat": float,
    "p_hat_max": float, "p_hat_ap": float, "omega": float, "lag": int,
    "pulses": int, "fp_windows": int, "ratio_min": float, "ratio_max": float,
    "from": float, "to": float, "N": float, "q_x": float, "eps_all": float,
    "eps_d": float, "eps_e": float, "t_e": int, "v": float, "eta_bs": float,
    "eta_det": float, "length_min": float, "length_max": float,
    "grid_points": int, "window_depth": int, "t_z": float, "t_x": float,
    "extract_bits": int, "sweep": str,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siqrng",
        description="Security modeling and simulation for source-independent "
                    "QRNGs with imperfect detectors.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, defaults in _DEFAULTS.items():
        p = sub.add_parser(name, help=f"{name} command")
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with configuration values")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", type=str, default=".")
        p.add_argument("--threads", type=int, default=None,
                       help="Monte Carlo worker threads (default: "
                            "SIQRNG_THREADS or 1)")
        p.add_argument("--points", type=int, default=None)
        if name == "autocorr":
            p.add_argument("--mc", action="store_true", default=None,
                           help="add Monte Carlo columns")
        for key in defaults:
            if key in ("points", "seed", "mc"):
                continue
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           type=_FLAG_TYPES.get(key, float), default=None)
    return parser


def _resolve_config(command: str, args: argparse.Namespace) -> dict:
    config = dict(_DEFAULTS[command])
    if args.config:
        file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if "sweep_var" in file_cfg:
            if command != "rates":
                raise ParameterError("sweep specifications apply to the rates command")
            params, span = split_sweep_spec(file_cfg)
            file_cfg = {**params, **span}
        unknown = set(file_cfg) - set(config)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        config.update(file_cfg)
    for key in config:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    if getattr(args, "points", None) is not None:
        config["points"] = args.points
    if getattr(args, "seed", None) is not None and "seed" in config:
        config["seed"] = args.seed
    return config


def _thread_count(args: argparse.Namespace) -> int:
    if args.threads is not None:
        threads = args.threads
    else:
        threads = int(os.environ.get("SIQRNG_THREADS", "1"))
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    return threads


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        config = _resolve_config(args.command, args)
        threads = _thread_count(args)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = _COMMANDS[args.command](config, out_dir, threads)
        manifest = RunManifest(command=args.command, config=config,
                               seed=config.get("seed"),
                               outputs=[p.name for p in outputs],
                               duration_s=time.monotonic() - started)
        for path in outputs + [manifest.write(out_dir)]:
            print(path)
        return EXIT_OK
    except (SiqrngError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"siqrng: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"siqrng: i/o error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
