"""siqrng benchmark: one run of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc_shallow --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  A run starts fresh interpreters:
two that only import ``siqrng.cli`` and one (``worker.py``) that imports it
and then drives ``siqrng.cli.main(argv)`` in a closed loop — one client, one
invocation at a time, ``--threads 1`` — for ``--seconds`` seconds, checking
the output files of every invocation.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics:

``setup_s``        median over the three interpreters of the time from
                   process start to the first possible ``cli.main`` call
                   (the import of ``siqrng.cli``), in seconds
``wall_norm``      median over passes of the pass wall time divided by the
                   wall time of ``worker.reference_loop`` measured around it;
                   a pass is one run of the workload's invocations
``items_per_ref``  median over passes of work items / ``wall_norm``: pulses
                   on ``mc_*``, sweep points on ``sweep_*``
``peak_rss_mb``    ``ru_maxrss`` of the worker process

Times are normalized because the host's speed drifts between runs by more
than the bounds a regression gate can use (see ``reference_loop``); the raw
``wall_s`` and pulses_per_s / points_per_s are printed above the JSON line.

``attempted`` counts operations (one invocation plus its output check) and
``failed`` those that exited nonzero, raised or failed a check, so
failed_ratio = failed / attempted.

With ``--trace 1`` the worker also makes one traced pass (``tracer.py``) and
the last line carries the per-layer metrics instead.  Spans are written to
``.bench_out/<workload>/trace/spans.npz`` and a summary with the environment
record to ``.bench_out/<workload>/trace/summary.json``.

Exit status is 0 when the run completed (``correct`` tells whether every
operation passed) and 2 when it could not run, e.g. outside a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from metrics import PER_LAYER  # noqa: E402

SETUP_PROBES = 2          # import-only interpreters, besides the worker itself
WORKER_TIMEOUT_S = 170


def _parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _worker(env, extra) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"), "--spawned-at", repr(time.time())]
    return subprocess.run(cmd + extra, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "siqrng" / "cli.py").is_file():
        return _fail(f"no siqrng sources under {ROOT / 'src'}; run from a checkout")
    workload = wl.WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out_dir = ROOT / ".bench_out" / workload.name
    result_path = ROOT / ".bench_out" / f"{workload.name}.result.json"
    result_path.parent.mkdir(exist_ok=True)
    result_path.unlink(missing_ok=True)

    setups = []
    for _ in range(SETUP_PROBES):
        probe = _worker(env, ["--setup-only"])
        if probe.returncode != 0:
            return _fail(f"import of siqrng.cli failed:\n{probe.stderr}")
        setups.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])

    proc = _worker(env, ["--workload", workload.name, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--out-dir", str(out_dir), "--result", str(result_path)])
    if proc.returncode != 0 or not result_path.is_file():
        return _fail(f"worker exited with status {proc.returncode}:\n{proc.stderr}")
    res = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(out_dir / "outputs", ignore_errors=True)
    setups.append(res["setup_s"])

    walls = res["walls"]
    attempted, failed = res["attempted"], len(res["failures"])
    item = "pulses" if workload.seeded else "points"
    print(f"workload {workload.name} seed {args.seed}: {len(walls)} untraced passes, "
          f"{attempted} operations, {failed} failed (failed_ratio {failed / attempted:g})")
    for failure in res["failures"][:5]:
        print(f"  FAILED {' '.join(failure['argv'])}: {'; '.join(failure['problems'])}")

    if args.trace:
        metrics = {m.name: {"value": res["per_layer"][m.name], "unit": m.unit}
                   for m in PER_LAYER}
        for name, m in metrics.items():
            print(f"  {name:52s} {m['value']:<14.6g} {m['unit']}")
        print("  design: " + json.dumps(res["design"]))
        print("  environment: " + json.dumps(res["environment"]))
    else:
        wall = statistics.median(walls)
        # A pass in units of the reference loop timed just before and after it.
        norm = [w / ((r0 + r1) / 2) for w, r0, r1 in zip(walls, res["refs"], res["refs"][1:])]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_norm": {"value": statistics.median(norm), "unit": "ref"},
            "items_per_ref": {"value": statistics.median(workload.items / n for n in norm),
                              "unit": "1/ref"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"  setup_s        {metrics['setup_s']['value']:.4f} s   "
              f"(median of {len(setups)} fresh imports)")
        print(f"  wall_norm      {metrics['wall_norm']['value']:.4f} ref "
              f"(median of {len(walls)} passes of {workload.items} {item}; "
              f"reference loop median {statistics.median(res['refs']):.4f} s)")
        print(f"  items_per_ref  {metrics['items_per_ref']['value']:.6g} 1/ref")
        print(f"  peak_rss_mb    {res['peak_rss_mb']:.1f} MB")
        print(f"  raw, drifts with the host: wall_s {wall:.4f} s, "
              f"{item}_per_s {statistics.median(workload.items / w for w in walls):.6g} 1/s")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
