"""Every benchmark reference output, byte for byte.

The benchmark checks the seeds that one run reaches and compares sweep
cells within ``SWEEP_RTOL``.  These cases run every seed of
``perfbench/reference/mc_*.json``, the first three of each again with
``--threads 2``, and every sweep op, and require the same bytes.  The argv
of each op, the seeded files, the digests and the reference paths all come
from ``perfbench/workloads.py``, which is imported, not edited.  As the
benchmark's worker does, each op runs through ``siqrng.cli.main`` in
process.

The bytes depend on NumPy's SIMD kernels.  With the kernels of a CPU
without AVX-512, every ``bits.json`` digest (its ``config_hash`` takes the
bytes of the Poisson pmf) and the ``rates.csv`` and ``hmin_afterpulse.csv``
bytes differ from the references.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

from siqrng import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

MC_SEEDS = {name: sorted(json.loads((workloads.REFERENCE_DIR / f"{name}.json").read_text()),
                         key=int)
            for name, workload in workloads.WORKLOADS.items() if workload.seeded}
SWEEP_OPS = [op for workload in workloads.WORKLOADS.values() if not workload.seeded
             for op in workload.ops(1)]


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    # One directory, emptied before each run: 41 mc_shallow runs would
    # otherwise leave about 0.35 GB of clicks.csv behind.
    return tmp_path_factory.mktemp("reference_run")


def run(op, out, threads):
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*op.argv, "--threads", str(threads), "--out-dir", str(out)]) == 0


def mc_case(name, seed, out, threads):
    (op,) = workloads.WORKLOADS[name].ops(int(seed))
    run(op, out, threads)
    digests = workloads.file_digests(out)
    reference = workloads.mc_reference(name, int(seed))
    moved = [f for f in workloads.SEEDED_FILES if digests[f] != reference[f]]
    assert not moved, (f"{name} seed {seed} with --threads {threads}: "
                       f"{', '.join(moved)} differ from perfbench/reference/{name}.json")


def csv_change(text, reference):
    """Which columns of a sweep CSV differ from the reference, in how many
    cells and by what largest relative change."""
    got, ref = text.splitlines(), reference.splitlines()
    if got[:2] != ref[:2] or len(got) != len(ref):
        return "the comment line, the header or the row count differs"
    header = ref[1].split(",")
    moved = [(name, float(g), float(r))
             for g_row, r_row in zip(got[2:], ref[2:])
             for name, g, r in zip(header, g_row.split(","), r_row.split(",")) if g != r]
    names = {name for name, _, _ in moved}
    columns = ", ".join(name for name in header if name in names)
    largest = max((abs(a - b) / abs(b) if b else abs(a) for _, a, b in moved), default=0.0)
    return (f"{len(moved)} cells differ in columns {columns}; "
            f"largest relative change {largest:.3g}")


@pytest.mark.parametrize("name, seed", [(name, seed) for name, seeds in MC_SEEDS.items()
                                        for seed in seeds])
def test_mc_outputs_match_every_reference_seed(name, seed, out_dir):
    mc_case(name, seed, out_dir, threads=1)


# With one thread simulate draws the chunks in order; with two it draws
# chunks ahead in a thread pool.
@pytest.mark.parametrize("name, seed", [(name, seed) for name, seeds in MC_SEEDS.items()
                                        for seed in seeds[:3]])
def test_mc_outputs_match_with_two_threads(name, seed, out_dir):
    mc_case(name, seed, out_dir, threads=2)


@pytest.mark.parametrize("op", SWEEP_OPS, ids=lambda op: op.csv_name)
def test_sweep_csv_is_byte_identical(op, out_dir):
    run(op, out_dir, threads=1)
    text = (out_dir / op.csv_name).read_text(encoding="utf-8")
    reference = workloads.reference_csv(op.csv_name)
    if text != reference:    # pytest's own diff of two whole CSVs would take minutes
        pytest.fail(f"{op.csv_name}: {csv_change(text, reference)}")
