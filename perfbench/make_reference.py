"""Regenerate the reference outputs the benchmark checks against.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py [--seeds 0 1 2 ...]

Writes ``perfbench/reference/<mc workload>.json`` (sha256 of every seeded
output file, per seed) and ``perfbench/reference/<csv>.gz`` (the sweep CSVs).
Run it only when a change is meant to alter these outputs, and say which
bytes changed and why.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from siqrng import cli  # noqa: E402


def _invoke(op: wl.Op, out_dir: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(op.argv) + ["--threads", "1", "--out-dir", str(out_dir)])
    if code != 0:
        raise SystemExit(f"{' '.join(op.argv)} exited with status {code}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(41)))
    args = p.parse_args(argv)
    out_dir = HERE.parent / ".bench_out" / "reference"
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in wl.WORKLOADS.values():
        if workload.seeded:
            digests = {}
            for seed in args.seeds:
                shutil.rmtree(out_dir, ignore_errors=True)
                for op in workload.ops(seed):
                    _invoke(op, out_dir)
                    digests[str(seed)] = wl.file_digests(out_dir)
            path = wl.REFERENCE_DIR / f"{workload.name}.json"
            path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
        else:
            for op in workload.ops(0):
                shutil.rmtree(out_dir, ignore_errors=True)
                _invoke(op, out_dir)
                data = (out_dir / op.csv_name).read_bytes()
                with gzip.GzipFile(wl.REFERENCE_DIR / f"{op.csv_name}.gz", "wb",
                                   mtime=0) as fh:
                    fh.write(data)
        print(f"{workload.name}: reference written")
    shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
