"""Workload definitions and the output checks that decide whether an
operation passed.

An operation is one ``siqrng.cli.main(argv)`` invocation plus the check of
the files it wrote.  A nonzero exit status, an exception or a failed check
counts the operation as failed.

Monte Carlo workloads (``mc_*``) are checked two ways:

* for every seed, the counters in ``bits.json`` must agree with each other,
  with the rows of ``clicks.csv`` and with the sizes of ``bits.bin`` and
  ``extracted.bin``;
* for seeds listed in ``reference/<workload>.json`` the sha256 digest of
  every seeded output file must match the stored one.

Sweep workloads (``sweep_*``) are seedless; every CSV cell is compared with
``reference/<file>.gz`` within ``SWEEP_RTOL`` relative (``SWEEP_ATOL``
absolute) tolerance, and the comment and header lines must match exactly.

This module uses only the standard library so that the benchmark driver can
import it without numpy.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

SWEEP_RTOL = 1e-9
SWEEP_ATOL = 1e-12

# Files a simulate run writes whose bytes depend only on arguments and seed.
SEEDED_FILES = ("clicks.csv", "bits.bin", "bits.json", "extracted.bin")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its arguments (without ``--out-dir``/``--threads``),
    how many work items it covers and how its output is checked."""

    argv: Tuple[str, ...]
    items: int
    kind: str                    # "mc" or "sweep"
    csv_name: Optional[str] = None


def _simulate(pulses: int, *flags: str):
    def ops(seed: int) -> List[Op]:
        return [Op(("simulate", "--pulses", str(pulses), *flags, "--seed", str(seed)),
                   pulses, "mc")]
    return ops


@dataclass(frozen=True)
class Workload:
    """A named list of invocations.  Only ``simulate`` takes the seed; the
    sweeps are seedless, so their ops ignore it."""

    name: str
    why: str
    ops: Callable[[int], List[Op]]

    @property
    def seeded(self) -> bool:
        return self.ops(1)[0].kind == "mc"

    @property
    def items(self) -> int:
        return sum(op.items for op in self.ops(1))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("mc_shallow",
             "5e5 pulses at nu 10, depth-2 afterpulsing: mostly the clicks.csv writer, "
             "then simulate and Toeplitz extraction; the largest arrays and peak RSS",
             _simulate(500_000, "--nu", "10", "--p-hat", "0.05", "--window-depth", "2")),
    Workload("mc_deep",
             "5e4 pulses at nu 1, depth-1000 afterpulsing: mostly the O(depth) "
             "afterpulse fixed point in simulate, with few fires per window",
             _simulate(50_000, "--p-hat", "0.05", "--window-depth", "1000")),
    Workload("sweep_monitored",
             "finite-sampling at 10 lengths x 2 variants x 64x64 tau grid: about 82k "
             "ArmState builds; no theta bisection, no simulator",
             lambda seed: [Op(("finite-sampling", "--points", "10"), 10, "sweep",
                              "finite_sampling.csv")]),
    Workload("sweep_analytic",
             "rates at 4000 points then hmin afterpulse at 2001 points: theta "
             "bisection and one scalar entropy report per point, no grid",
             lambda seed: [Op(("rates", "--points", "4000"), 4000, "sweep", "rates.csv"),
                           Op(("hmin", "--sweep", "afterpulse", "--points", "2001"), 2001,
                              "sweep", "hmin_afterpulse.csv")]),
)}


# ---------------------------------------------------------------------------
# Monte Carlo checks


def file_digests(out_dir: Path) -> Dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in SEEDED_FILES}


def _pulses(op: Op) -> int:
    return int(op.argv[op.argv.index("--pulses") + 1])


def check_mc(op: Op, seed: int, out_dir: Path,
             reference: Optional[Dict[str, str]]) -> List[str]:
    """Return the list of problems found in a simulate run's outputs."""
    problems: List[str] = []
    sidecar = json.loads((out_dir / "bits.json").read_text(encoding="utf-8"))
    pulses = _pulses(op)
    bit_count = sidecar["bit_count"]
    if sidecar["seed"] != seed:
        problems.append(f"bits.json seed {sidecar['seed']} != {seed}")
    if bit_count != sidecar["n_single"] + sidecar["n_double"]:
        problems.append("bit_count != n_single + n_double")
    if sidecar["z_windows"] + sidecar["x_windows"] != pulses:
        problems.append("z_windows + x_windows != pulses")

    clicks = (out_dir / "clicks.csv").read_bytes()
    lines = clicks[:256].split(b"\n", 2)
    expected_comment = ("# siqrng csv=1 command=simulate manifest="
                        f"{sidecar['manifest_hash']}").encode()
    if lines[0] != expected_comment:
        problems.append("clicks.csv comment line does not carry the manifest hash")
    if len(lines) < 2 or lines[1] != b"index,basis,d0,d1,ap0,ap1":
        problems.append("clicks.csv header line differs")
    if clicks.count(b"\n") != pulses + 2 or not clicks.endswith(b"\n"):
        problems.append("clicks.csv row count != pulses")
    # Rows are "index,basis,d0,d1,ap0,ap1"; the sidecar counts Z windows.
    if (clicks.count(b",Z,") != sidecar["z_windows"]
            or clicks.count(b",X,") != sidecar["x_windows"]):
        problems.append("clicks.csv basis counts != z_windows, x_windows")
    if clicks.count(b",Z,1,1,") != sidecar["n_double"]:
        problems.append("clicks.csv Z double clicks != n_double")
    if clicks.count(b",Z,1,0,") + clicks.count(b",Z,0,1,") != sidecar["n_single"]:
        problems.append("clicks.csv Z single clicks != n_single")

    if (out_dir / "bits.bin").stat().st_size != math.ceil(bit_count / 8):
        problems.append("bits.bin length != ceil(bit_count / 8)")
    if (out_dir / "extracted.bin").stat().st_size != math.ceil((bit_count // 2) / 8):
        problems.append("extracted.bin length != ceil((bit_count // 2) / 8)")

    if reference is not None:
        digests = file_digests(out_dir)
        problems.extend(f"{name} sha256 differs from reference"
                        for name in SEEDED_FILES if digests[name] != reference[name])
    return problems


def mc_reference(workload: str, seed: int) -> Optional[Dict[str, str]]:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed))


# ---------------------------------------------------------------------------
# Sweep checks


def reference_csv(csv_name: str) -> str:
    with gzip.open(REFERENCE_DIR / f"{csv_name}.gz", "rt", encoding="utf-8") as fh:
        return fh.read()


def compare_csv(text: str, reference: str) -> List[str]:
    """Compare a sweep CSV with its reference cell by cell."""
    got, ref = text.splitlines(), reference.splitlines()
    problems: List[str] = []
    if got[:2] != ref[:2]:
        problems.append("comment or header line differs")
    if len(got) != len(ref):
        return problems + [f"{len(got) - 2} rows, reference has {len(ref) - 2}"]
    for row, (g_line, r_line) in enumerate(zip(got[2:], ref[2:])):
        g_cells, r_cells = g_line.split(","), r_line.split(",")
        if len(g_cells) != len(r_cells):
            problems.append(f"row {row}: {len(g_cells)} cells, reference has {len(r_cells)}")
            continue
        for col, (g, r) in enumerate(zip(g_cells, r_cells)):
            a, b = float(g), float(r)
            if not (abs(a - b) <= SWEEP_RTOL * abs(b) + SWEEP_ATOL
                    or (math.isnan(a) and math.isnan(b))):
                problems.append(f"row {row} col {col}: {g} vs reference {r}")
    return problems


def check_sweep(op: Op, out_dir: Path, reference: str) -> List[str]:
    return compare_csv((out_dir / op.csv_name).read_text(encoding="utf-8"), reference)
