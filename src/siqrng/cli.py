"""Command-line front end: sweeps, simulation runs and report emission.

Subcommands
    autocorr         bit-sequence autocorrelation versus lag coefficient
    hmin             min-entropy versus afterpulse rate or efficiency ratio
    rates            certified rates versus variable attenuation
    finite-sampling  monitored min-entropy versus sampling length
    simulate         Monte Carlo run with raw and extracted output files

Every command accepts ``--config FILE`` (JSON) with flags overriding file
values; fully-defaulted runs need no file.  Numeric CSV output carries 17
significant digits and seeded commands rerun byte-identically.  Each run
writes ``manifest.json``, whose hash of the command, the config as recorded,
the seed and the version heads every CSV and sits in ``bits.json``.

Exit status: 0 success, 2 invalid configuration or parameters, 1 I/O or
internal failure.
"""

from __future__ import annotations

import argparse
import errno
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from . import __version__
from .detector_model import AfterpulseSpec, _check_unit, detector_set
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
    worst_afterpulse_exponential,
)
from .errors import DegenerateError, ParameterError, PrecisionError, SiqrngError
from .files import open_new
from .finite_size import (
    SCENARIO_DEFAULTS,
    hmin_with_tau_uncertainty,
    loss_grid,
    scenario_from_params,
    split_sweep_spec,
)
from .source_monitor import hoeffding_delta, poisson_distribution

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
    # The scenario keys, with the afterpulsed curve's p_hat_ap for p_hat.  v
    # (pulses/s) and eps_d change no output, so cmd_rates refuses any other
    # value; they stay keys so that the manifest hash keeps its bytes.
    "rates": {
        "from": 0.0, "to": 2.5, "points": 200,
        **{key: value for key, value in SCENARIO_DEFAULTS.items() if key != "p_hat"},
        "p_hat_ap": 0.05, "v": 1e6,
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


def _manifest_hash(command: str, config: dict, seed) -> str:
    """The run's identity: command, resolved configuration as recorded, seed
    and tool version, but not the duration, so a rerun of the same manifest
    reproduces every seeded output byte for byte under the same hash."""
    blob = json.dumps(
        {"command": command, "config": config, "seed": seed, "version": __version__},
        sort_keys=True, separators=(",", ":"), default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_json(path: Path, record: dict) -> None:
    """Write ``record`` as strict JSON (a NaN or infinity raises), keys sorted."""
    text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open_new(path) as fh:
        fh.write(text.encode("utf-8"))


def _comment_line(command: str, manifest_hash: str) -> str:
    """The text of the ``# ...`` first line of every CSV a command writes."""
    return f"siqrng csv={CSV_FORMAT_VERSION} command={command} manifest={manifest_hash}"


# Lines per block of CSV text: a 4000-point rates.csv is 16 blocks of about 64 KB
_CSV_BLOCK_LINES = 256


def _write_csv(path: Path, command: str, manifest_hash: str, header: str,
               rows: Iterable[Sequence]) -> None:
    """Write the comment line, ``header`` and ``rows`` of floats, each cell
    with 17 significant digits: a command's first write, which makes the directory.

    ``rows`` may be a generator.  Each row is formatted as it comes, and its
    line joins a block of ``_CSV_BLOCK_LINES`` lines of text, so the rows
    themselves are not kept.  Every row is formatted before the directory is
    made, so a row that raises leaves none; then each block is encoded as it
    is written.
    """
    blocks, lines = [], [f"# {_comment_line(command, manifest_hash)}\n{header}\n"]
    width = None
    for row in rows:
        if len(row) != width:
            width = len(row)
            line_format = ",".join(["%.17g"] * width) + "\n"
        lines.append(line_format % tuple(row))
        if len(lines) == _CSV_BLOCK_LINES:
            blocks.append("".join(lines))
            lines = []
    blocks.append("".join(lines))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open_new(path) as fh:
        for block in blocks:
            fh.write(block.encode("utf-8"))


# ---------------------------------------------------------------------------
# autocorr


def _refuse_unused(command: str, config: dict, keys: Sequence[str], why: str) -> None:
    """Raise where one of ``keys``, which this run does not read for the
    reason ``why`` states, differs from its default."""
    stray = [f"{key}={config[key]}" for key in keys if config[key] != _DEFAULTS[command][key]]
    if stray:
        raise ParameterError(f"{command} {', '.join(keys[:-1])} and {keys[-1]} {why}; "
                             f"got {', '.join(stray)}")


def _autocorr_spec(p_hat_i: float, p_hat: float, lag: int) -> AfterpulseSpec:
    """Explicit profile: the swept coefficient at ``lag``, the remaining
    first-order rate one window later."""
    coeffs = [0.0] * (lag + 1)
    coeffs[lag - 1] = p_hat_i
    coeffs[lag] = p_hat - p_hat_i
    return AfterpulseSpec.explicit(coeffs)


def cmd_autocorr(config: dict, out_dir: Path, manifest_hash: str,
                 threads: int = 1) -> List[Path]:
    nu, eta, e_d = config["nu"], config["eta"], config["e_d"]
    p_hat, lag = config["p_hat"], int(config["lag"])
    points = int(config["points"])
    if points < 2:
        raise ParameterError(f"autocorr needs points >= 2, got {points}")
    if not (0.0 <= p_hat < 1.0):
        raise ParameterError(f"autocorr needs 0 <= p_hat < 1, got {p_hat}")
    if lag < 1:
        raise ParameterError(f"autocorr needs lag >= 1, got {lag}")
    if not config["mc"]:
        _refuse_unused("autocorr", config, ("lag", "pulses", "seed"),
                       "take effect only with --mc")
    source = poisson_distribution(nu)
    grid = [float(p) for p in np.linspace(0.0, p_hat, points)]
    dets = [detector_set(eta, e_d, _autocorr_spec(p_hat_i, p_hat, lag))
            for p_hat_i in grid]
    taus = measurement_taus(source, dets[0])
    rows: List[List] = [
        [p_hat_i, prior_autocorrelation(d[0], taus.tau_0, d[1], taus.tau_1, lag)]
        for p_hat_i, d in zip(grid, dets)]
    header = "p_hat_i,a_prior"

    if config["mc"]:
        from .simulator import SEED_LIMIT, PulseTrainConfig, simulate, z_window_bits
        pulses = int(config["pulses"])
        seed = int(config["seed"])
        if not 0 <= seed <= SEED_LIMIT - points:
            raise ParameterError(f"autocorr --mc draws point i with seed + i, so seed must "
                                 f"lie in [0, 2^64 - points]; got seed {seed} for "
                                 f"{points} points")

        # failed[i]: point i raised.  Each entry has one writer, so no update
        # is lost; a point after a failed one is skipped, as the map raises
        # at the failed point before it reads the skipped one.
        failed = [False] * points

        def mc_point(idx: int):
            if any(failed[:idx]):
                return None
            sim_cfg = PulseTrainConfig(pulses=pulses, source=source, dets=dets[idx],
                                       x_fraction=0.0, seed=seed + idx)
            bits, mask = z_window_bits(simulate(sim_cfg).clicks)
            try:
                return (empirical_autocorrelation(bits, lag, mask=mask),
                        autocorrelation_stderr(mask, lag))
            except SiqrngError as exc:
                failed[idx] = True
                raise type(exc)(f"point p_hat_i={grid[idx]:.6g}, seed={seed + idx}: "
                                f"{exc}; raise --pulses") from exc

        from concurrent.futures import ThreadPoolExecutor
        # Each point is a NumPy Monte Carlo run, so worker threads overlap.
        with ThreadPoolExecutor(max_workers=threads) as pool:
            mc = list(pool.map(mc_point, range(points)))
        rows = [row + [a, se] for row, (a, se) in zip(rows, mc)]
        header = "p_hat_i,a_prior,a_mc,a_mc_stderr"

    path = out_dir / "autocorr.csv"
    _write_csv(path, "autocorr", manifest_hash, header, rows)
    return [path]


# ---------------------------------------------------------------------------
# hmin


def _hmin_a(e_d: float, worst: float, taus: TauSet) -> np.ndarray:
    """hmin_a of four detectors of dark-count probability ``e_d`` with the
    clamped worst-case afterpulse totals ``worst``, at the vacuum
    probabilities ``taus``: one broadcast report along ``worst`` and ``taus``."""
    z_arm = ArmState.from_totals(taus.tau_0, e_d, worst, taus.tau_1, e_d, worst)
    x_arm = ArmState.from_totals(taus.tau_plus, e_d, worst, taus.tau_minus, e_d, worst)
    return make_entropy_report(z_arm, x_arm).hmin_a


def cmd_hmin(config: dict, out_dir: Path, manifest_hash: str,
             threads: int = 1) -> List[Path]:
    nu, eta, e_d, e_q = config["nu"], config["eta"], config["e_d"], config["e_q"]
    omega = config["omega"]
    points = int(config["points"])
    if points < 2:
        raise ParameterError(f"hmin needs points >= 2, got {points}")
    source = poisson_distribution(nu)
    sweep = config["sweep"]

    if sweep == "afterpulse":
        _refuse_unused("hmin", config, ("p_hat_ap", "ratio_min", "ratio_max"),
                       "take effect only with --sweep efficiency")
        fp_windows = int(config["fp_windows"])
        if fp_windows < 0:
            raise ParameterError(f"fp_windows must be >= 0, got {fp_windows}")
        taus = measurement_taus(source, detector_set(eta, e_d, AfterpulseSpec.none()), e_q)
        p_hats = np.linspace(0.0, config["p_hat_max"], points)
        grid = p_hats.tolist()
        depths = (None, fp_windows)
        # Every check of a spec is monotone in p_hat, so the specs of the last
        # row cover all rows; where they fail, the first faulty row is named.
        try:
            for depth in depths:
                AfterpulseSpec.exponential_from_rate(grid[-1], omega, depth)
        except SiqrngError:
            for p_hat in grid:
                for depth in depths:
                    AfterpulseSpec.exponential_from_rate(p_hat, omega, depth)
            raise
        columns = [_hmin_a(e_d, np.zeros(points), taus)] + [
            _hmin_a(e_d, worst_afterpulse_exponential(p_hats, omega, depth), taus)
            for depth in depths]
        rows = zip(grid, *(c.tolist() for c in columns))
        header = "p_hat,hmin_a_np,hmin_a_ip,hmin_a_fp"
        path = out_dir / "hmin_afterpulse.csv"
    elif sweep == "efficiency":
        _refuse_unused("hmin", config, ("p_hat_max", "fp_windows"),
                       "take effect only with --sweep afterpulse")
        spec_ap = AfterpulseSpec.exponential_from_rate(config["p_hat_ap"], omega)
        _check_unit("efficiency", eta)
        for key in ("ratio_min", "ratio_max"):    # the grid's ends bound eta_1 = ratio * eta
            if not 0.0 <= config[key] * eta <= 1.0:
                raise ParameterError(
                    f"--{key.replace('_', '-')} {config[key]} times --eta {eta} gives "
                    f"detector \"1\" the efficiency {config[key] * eta}, outside [0, 1]")
        ratios = np.linspace(config["ratio_min"], config["ratio_max"], points)
        dets = detector_set(eta, e_d, AfterpulseSpec.none(), ratios * eta)
        taus = measurement_taus(source, dets, e_q)
        columns = [_hmin_a(e_d, worst, taus) for worst in (0.0, worst_afterpulse(spec_ap))]
        rows = zip(ratios.tolist(), *(c.tolist() for c in columns))
        header = "eta_ratio,hmin_a_no_ap,hmin_a_ap"
        path = out_dir / "hmin_efficiency.csv"
    else:
        raise ParameterError(f"unknown hmin sweep {sweep!r}")

    _write_csv(path, "hmin", manifest_hash, header, rows)
    return [path]


# ---------------------------------------------------------------------------
# rates


def cmd_rates(config: dict, out_dir: Path, manifest_hash: str,
              threads: int = 1) -> List[Path]:
    _refuse_unused("rates", config, ("v", "eps_d"), "change no rates output")
    points = int(config["points"])
    if points < 2:
        raise ParameterError(f"rates needs points >= 2, got {points}")
    losses = loss_grid(config["from"], config["to"], points)
    base_params = {k: config[k] for k in SCENARIO_DEFAULTS if k != "p_hat"}
    plain = scenario_from_params(base_params)
    withap = scenario_from_params({**base_params, "p_hat": config["p_hat_ap"]})
    n = plain.security.total_pulses
    taus = plain.taus(losses)    # the scenarios differ only in afterpulsing
    reports = [scenario.entropy(taus) for scenario in (plain, withap)]
    # theta's Newton windows and walked bisections: one NumPy pass per
    # variant, each theta certified cell by cell
    thetas = [scenario.thetas(report.eq) for scenario, report in zip((plain, withap), reports)]

    def rows():
        for loss, plain_cell, withap_cell, plain_theta, withap_theta in zip(
                losses.tolist(), *(report.cells() for report in reports), *thetas):
            a = plain.rates(plain_cell, plain_theta)
            b = withap.rates(withap_cell, withap_theta)
            bits = (a["random_sampling"], a["entropy_inequality"], a["infinite_length"],
                    b["random_sampling"], b["entropy_inequality"], b["infinite_length"])
            yield (loss, *bits, *(v / n for v in bits))

    header = ("loss_db,bits_rs,bits_ei,bits_il,bits_rs_ap,bits_ei_ap,bits_il_ap,"
              "per_pulse_rs,per_pulse_ei,per_pulse_il,"
              "per_pulse_rs_ap,per_pulse_ei_ap,per_pulse_il_ap")
    path = out_dir / "rates.csv"
    _write_csv(path, "rates", manifest_hash, header, rows())
    return [path]


# ---------------------------------------------------------------------------
# finite-sampling


def cmd_finite_sampling(config: dict, out_dir: Path, manifest_hash: str,
                        threads: int = 1) -> List[Path]:
    nu, eta, e_d, e_q = config["nu"], config["eta"], config["e_d"], config["e_q"]
    eps_d = config["eps_d"]
    points = int(config["points"])
    if points < 2:
        raise ParameterError(f"finite-sampling needs points >= 2, got {points}")
    lo, hi = config["length_min"], config["length_max"]
    if not (lo > 0.0 and hi > 0.0):
        raise ParameterError(f"length_min and length_max must be > 0, got {lo} and {hi}")
    grid_points = int(config["grid_points"])
    lengths = np.logspace(math.log10(lo), math.log10(hi), points).tolist()
    counts = [int(round(n_samples)) for n_samples in lengths]
    if min(counts) < 1:
        raise ParameterError(
            f"length_min = {lo:g} and length_max = {hi:g} give a row of "
            f"{min(lengths):.6g} monitor samples, which rounds to 0; "
            "--length-min and --length-max must both exceed 0.5")
    source = poisson_distribution(nu)
    spec_ap = AfterpulseSpec.exponential_from_rate(config["p_hat_ap"], config["omega"])
    det_sets = [detector_set(eta, e_d, spec) for spec in (AfterpulseSpec.none(), spec_ap)]
    taus = measurement_taus(source, det_sets[0], e_q)    # the sets differ in afterpulsing only
    # (detectors, infinite-length hmin_a) without and with afterpulsing
    try:
        variants = [(dets, entropy_report_from_taus(dets, taus).hmin_a) for dets in det_sets]
    except DegenerateError as exc:
        raise DegenerateError(
            f"hmin_il at the exact vacuum probabilities, before any monitor box: "
            f"{exc}") from exc

    rows = []
    for n_s in counts:
        delta = hoeffding_delta(n_s, eps_d)
        row = [float(n_s), delta]
        for dets, h_il in variants:
            try:
                h_fs = hmin_with_tau_uncertainty(dets, taus, delta, grid_points=grid_points)
            except DegenerateError as exc:
                raise DegenerateError(
                    f"row n_samples={n_s:g}, delta_d={delta:.6g}: {exc}; "
                    "raise --length-min") from exc
            row += [h_fs, h_il]
        rows.append(row)
    header = "n_samples,delta_d,hmin_fs,hmin_il,hmin_fs_ap,hmin_il_ap"
    path = out_dir / "finite_sampling.csv"
    _write_csv(path, "finite-sampling", manifest_hash, header, rows)
    return [path]


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(config: dict, out_dir: Path, manifest_hash: str,
                 threads: int = 1) -> List[Path]:
    from .simulator import PulseTrainConfig, extract, simulate
    seed = int(config["seed"])
    spec = AfterpulseSpec.exponential_from_rate(
        float(config["p_hat"]), float(config["omega"]), int(config["window_depth"]))
    dets = detector_set(config["eta"], config["e_d"], spec)
    sim_cfg = PulseTrainConfig(
        pulses=int(config["pulses"]),
        source=poisson_distribution(config["nu"]),
        dets=dets,
        t_z=float(config["t_z"]), t_x=float(config["t_x"]),
        x_fraction=float(config["q_x"]), misalignment=float(config["e_q"]),
        seed=seed,
    )
    clicks, stream, eq_empirical = simulate(sim_cfg, threads=threads)
    # Only the raw bits, their packed bytes and the counts outlive the bit
    # stream, so its fill flags and window indices are freed before extraction.
    bits, packed = stream.bits, stream.packed()
    counts = {"bit_count": len(stream), **{key: int(getattr(stream, key)) for key in (
        "n_single", "n_double", "z_windows", "x_windows")}}
    del stream
    extract_bits = config.get("extract_bits")
    if extract_bits is None:
        extract_bits = counts["bit_count"] // 2   # demonstration default, not an entropy claim
    # Extract before writing, so a rejected length leaves no output directory.
    extracted = extract(bits, int(extract_bits), seed)

    out_dir.mkdir(parents=True, exist_ok=True)
    clicks_path = out_dir / "clicks.csv"
    clicks.to_csv(clicks_path, header_comment=_comment_line("simulate", manifest_hash))
    bits_path = out_dir / "bits.bin"
    with open_new(bits_path) as fh:
        fh.write(packed)
    sidecar_path = out_dir / "bits.json"
    _write_json(sidecar_path, {
        "seed": seed,
        "config_hash": sim_cfg.config_hash(),
        "manifest_hash": manifest_hash,
        **counts,
        # no X windows leaves EQ undefined (NaN), which JSON cannot carry
        "eq_empirical": eq_empirical if counts["x_windows"] else None,
    })

    extracted_path = out_dir / "extracted.bin"
    with open_new(extracted_path) as fh:
        fh.write(np.packbits(extracted).tobytes())
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

def _key_type(command: str, key: str) -> type:
    """The flag type of a config key: its default's, except ``extract_bits``,
    an int whose default ``None`` stands for half the raw bits."""
    return int if key == "extract_bits" else type(_DEFAULTS[command][key])


def _check_config_types(file_cfg: dict, command: str) -> None:
    """Reject a config file value whose JSON type does not fit the key's flag
    type.  Float keys take any number and int keys an integral one (``1e6``
    included); values are kept as parsed.  ``null`` fits only a key whose
    default is ``None``."""
    for key, value in file_cfg.items():
        kind = _key_type(command, key)
        if value is None and _DEFAULTS[command][key] is None:
            continue
        if kind in (float, int):
            fits = isinstance(value, (int, float)) and not isinstance(value, bool) and (
                kind is float or float(value).is_integer())
        else:
            fits = isinstance(value, kind)
        if not fits:
            raise ParameterError(f"config key {key!r} must be {kind.__name__}, "
                                 f"got {json.dumps(value)}")


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser of every command, with the options of the one ``argv`` names.

    All commands are registered, so ``siqrng --help`` lists them and an
    unknown command is named, but only the invoked one gets its options:
    adding all of them costs a few milliseconds per run.  The command is the
    first token of ``argv`` that names one, since no top-level option takes
    a value.  Each command's parser is built on its first use and then kept,
    so a process that runs many commands builds at most six parsers.
    """
    return _command_parser(next((token for token in argv if token in _DEFAULTS), None))


@functools.lru_cache(maxsize=None)
def _command_parser(command: Optional[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siqrng",
        description="Security modeling and simulation for source-independent "
                    "QRNGs with imperfect detectors.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, defaults in _DEFAULTS.items():
        p = sub.add_parser(name, help=f"{name} command")
        if name != command:
            continue
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with configuration values")
        p.add_argument("--out-dir", type=str, default=".")
        p.add_argument("--threads", type=int, default=None,
                       help="Monte Carlo worker threads (default: "
                            "SIQRNG_THREADS or 1)")
        if name == "autocorr":
            p.add_argument("--mc", action="store_true", default=None,
                           help="add Monte Carlo columns")
        for key in defaults:
            if key == "mc":
                continue
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           type=_key_type(name, key), default=None)
    return parser


# What a config file holds instead of an object, named without its content.
_JSON_KINDS = {list: "an array", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


def _resolve_config(command: str, args: argparse.Namespace) -> dict:
    config = dict(_DEFAULTS[command])
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ParameterError(f"config file must hold a JSON object, got "
                                 f"{_JSON_KINDS[type(file_cfg)]}")
        if "sweep_var" in file_cfg:
            if command != "rates":
                raise ParameterError("sweep specifications apply to the rates command")
            params, span = split_sweep_spec(file_cfg)
            file_cfg = {**params, **span}
        unknown = set(file_cfg) - set(config)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        _check_config_types(file_cfg, command)
        config.update(file_cfg)
    for key in config:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    # Flags and JSON (NaN, Infinity) both parse non-finite floats.
    for key, value in config.items():
        if _key_type(command, key) is float and not (-math.inf < value < math.inf):
            raise ParameterError(f"config key {key!r} must be finite, got {value}")
    return config


def _thread_count(args: argparse.Namespace) -> int:
    """``--threads``, else ``SIQRNG_THREADS``, else 1; an error names its source."""
    if args.threads is not None:
        threads, source = args.threads, "threads"
    else:
        value = os.environ.get("SIQRNG_THREADS", "1")
        source = "SIQRNG_THREADS"
        try:
            threads = int(value)
        except ValueError:
            raise ParameterError(f"{source} must be an integer, got {value!r}") from None
    if threads < 1:
        raise ParameterError(f"{source} must be >= 1, got {threads}")
    return threads


def _check_out_dir(out_dir: Path) -> None:
    """Raise the error that making ``out_dir`` would raise where a file stands
    in its place or on its path, so that the command fails before it computes."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                code = errno.EEXIST if path == out_dir else errno.ENOTDIR
                raise OSError(code, os.strerror(code), str(out_dir))
            return


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    started = time.monotonic()
    try:
        config = _resolve_config(args.command, args)
        threads = _thread_count(args)
        out_dir = Path(args.out_dir)    # made by the first write: a failed run makes none
        _check_out_dir(out_dir)
        seed = config.get("seed")
        manifest_hash = _manifest_hash(args.command, config, seed)
        outputs = _COMMANDS[args.command](config, out_dir, manifest_hash, threads)
        manifest_path = out_dir / "manifest.json"
        _write_json(manifest_path, {
            "command": args.command,
            "version": __version__,
            "seed": seed,
            "config": config,
            "outputs": [path.name for path in outputs],
            "manifest_hash": manifest_hash,
            "duration_s": time.monotonic() - started,
            # Seeded bytes rest on NumPy's Philox words and binomial
            # algorithm, so the version that drew them is recorded, unhashed.
            "numpy": np.__version__,
        })
        for path in outputs + [manifest_path]:
            print(path)
        return EXIT_OK
    except PrecisionError as exc:       # no setting is wrong
        print(f"siqrng: error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (SiqrngError, ValueError, KeyError) as exc:
        print(f"siqrng: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"siqrng: i/o error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
