"""Tests of the benchmark itself: its checks must count broken outputs as
failed, its tracer must see the layers, and BENCHMARK.json must agree with
``metrics.py`` and ``workloads.py``.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from siqrng import cli  # noqa: E402

SMALL_MC = wl.Op(("simulate", "--pulses", "20000", "--p-hat", "0.05", "--window-depth", "3",
                  "--seed", "5"), 20000, "mc")
HMIN = wl.WORKLOADS["sweep_analytic"].ops(0)[1]


class FaultyCli:
    """Stands in for ``siqrng.cli``: runs the real command, then applies
    ``fault(out_dir)`` to what it wrote, or returns ``status`` instead."""

    def __init__(self, fault=None, status=None):
        self.fault, self.status = fault, status

    def main(self, argv):
        if self.status is not None:
            return self.status
        code = cli.main(argv)
        if self.fault is not None:
            self.fault(Path(argv[argv.index("--out-dir") + 1]))
        return code


def _runner(tmp_path, workload, fake, seed=5):
    runner = worker.Runner(fake, wl.WORKLOADS[workload], seed, tmp_path)
    runner.mc_ref = None
    return runner


def _flip_byte(name, offset=-2):
    def fault(out_dir):
        path = out_dir / name
        data = bytearray(path.read_bytes())
        data[offset] ^= 0x01
        path.write_bytes(bytes(data))
    return fault


@pytest.mark.parametrize("name", ["clicks.csv", "bits.bin", "extracted.bin"])
def test_corrupted_output_byte_is_a_failure(tmp_path, name):
    runner = _runner(tmp_path, "mc_deep", FaultyCli())
    runner.invoke(SMALL_MC)
    assert runner.failures == []
    runner.cli = FaultyCli(_flip_byte(name))
    runner.invoke(SMALL_MC)
    assert runner.attempted == 2 and len(runner.failures) == 1


def test_corrupted_byte_fails_the_reference_digest(tmp_path):
    cli.main(list(SMALL_MC.argv) + ["--threads", "1", "--out-dir", str(tmp_path)])
    reference = wl.file_digests(tmp_path)
    assert wl.check_mc(SMALL_MC, 5, tmp_path, reference) == []
    _flip_byte("bits.bin", 0)(tmp_path)
    assert wl.check_mc(SMALL_MC, 5, tmp_path, reference) == [
        "bits.bin sha256 differs from reference"]


def _drop_last_row(out_dir):
    path = out_dir / "clicks.csv"
    path.write_bytes(path.read_bytes().rsplit(b"\n", 2)[0] + b"\n")


def _bump_counter(out_dir):
    path = out_dir / "bits.json"
    data = json.loads(path.read_text())
    data["n_double"] += 1
    path.write_text(json.dumps(data))


def _truncate_extracted(out_dir):
    path = out_dir / "extracted.bin"
    path.write_bytes(path.read_bytes()[:-1])


def _double_to_single(out_dir):
    path = out_dir / "clicks.csv"
    path.write_bytes(path.read_bytes().replace(b",Z,1,1,", b",Z,1,0,", 1))


@pytest.mark.parametrize("fault", [_drop_last_row, _bump_counter, _truncate_extracted,
                                   _double_to_single])
def test_inconsistent_outputs_fail_without_a_reference(tmp_path, fault):
    cli.main(list(SMALL_MC.argv) + ["--threads", "1", "--out-dir", str(tmp_path)])
    assert wl.check_mc(SMALL_MC, 5, tmp_path, None) == []
    fault(tmp_path)
    assert wl.check_mc(SMALL_MC, 5, tmp_path, None) != []


def test_shifted_sweep_cell_is_a_failure(tmp_path):
    def shift_cell(out_dir):
        path = out_dir / HMIN.csv_name
        lines = path.read_text().splitlines()
        cells = lines[500].split(",")
        cells[2] = repr(float(cells[2]) * (1 + 1e-6))
        lines[500] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    runner = _runner(tmp_path, "sweep_analytic", FaultyCli())
    runner.invoke(HMIN)
    assert runner.failures == []
    runner.cli = FaultyCli(shift_cell)
    runner.invoke(HMIN)
    assert len(runner.failures) == 1
    assert "row 498 col 2" in runner.failures[0]["problems"][0]


def test_cells_within_tolerance_pass():
    ref = "# c\na,b\n1.0,0\n"
    assert wl.compare_csv(f"# c\na,b\n{1.0 + 1e-12!r},1e-14\n", ref) == []
    assert wl.compare_csv("# c\na,b\n0,1.0\n", ref) != []
    assert wl.compare_csv("# c\na,b\n1.0,0\n1.0,0\n", ref) != []


@pytest.mark.parametrize("fake", [FaultyCli(status=2), FaultyCli(status=1)])
def test_nonzero_exit_is_a_failure(tmp_path, fake):
    runner = _runner(tmp_path, "sweep_analytic", fake)
    runner.invoke(HMIN)
    assert runner.attempted == 1 and len(runner.failures) == 1


def test_exception_is_a_failure(tmp_path):
    def boom(out_dir):
        raise RuntimeError("disk full")

    runner = _runner(tmp_path, "mc_deep", FaultyCli(boom))
    runner.invoke(SMALL_MC)
    assert len(runner.failures) == 1


def test_tracer_sees_every_layer_through_cli(tmp_path):
    tracer = tr.Tracer()
    tr.install(tracer, worker._observers())
    tracer.begin_invocation()
    assert cli.main(list(SMALL_MC.argv) + ["--out-dir", str(tmp_path)]) == 0
    tracer.begin_invocation()
    assert cli.main(["rates", "--points", "3", "--out-dir", str(tmp_path)]) == 0
    stats = tracer.aggregate()
    assert stats["cli.main"]["calls"] == 2
    assert set(tracer.children_of("cli.cmd_simulate")) >= {
        "simulator.simulate", "simulator.to_csv", "simulator.extract",
        "source_monitor.poisson_distribution"}
    assert stats["finite_size.RateScenario.rates"]["calls"] == 6
    assert stats["finite_size.theta_random_sampling"]["calls"] == 6
    for s in stats.values():
        assert -1e-9 <= s["self_s"] <= s["busy_s"] + 1e-9 or s["calls"] == 0
    assert tracer.observed["extract.bits_in"] == json.loads(
        (tmp_path / "bits.json").read_text())["bit_count"]
    path = tmp_path / "spans.npz"
    tracer.write(path)
    import numpy as np
    spans = np.load(path)
    assert set(np.unique(spans["invocation"])) == {0, 1}
    assert spans["parent"][0] == -1


def test_benchmark_json_matches_metrics_and_workloads():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        w.name: w.why for w in wl.WORKLOADS.values()}
    assert bench["end_to_end"] == [m._asdict() for m in metrics.END_TO_END]
    assert bench["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better}
                                  for m in metrics.PER_LAYER]


def test_per_layer_metrics_are_all_reported():
    stats = {}
    values = worker._per_layer(stats, {}, {}, 1.0, 1.0)
    assert sorted(values) == sorted(m.name for m in metrics.PER_LAYER)


@pytest.mark.parametrize("workload,seed", [("mc_deep", 1), ("mc_shallow", 7)])
def test_simulate_outputs_match_a_plain_cli_run(tmp_path, workload, seed):
    """Reference digests equal those of a plain ``siqrng simulate`` run."""
    op = wl.WORKLOADS[workload].ops(seed)[0]
    subprocess.run([sys.executable, "-m", "siqrng.cli", *op.argv, "--out-dir", str(tmp_path)],
                   check=True, capture_output=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert wl.file_digests(tmp_path) == wl.mc_reference(workload, seed)
