"""Run the benchmark several times and summarise each metric.

Usage, from the root of a checkout::

    python3 perfbench/repeat.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads mc_deep ...]
                                [--trace 0] [--out summary.json]

Each run is ``run.py --workload W --seed S --seconds <run_seconds>`` with
``run_seconds`` from BENCHMARK.json.  For every workload and metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, i.e. the distance between the quartiles as a share of the median,
next to the metric's bound.  ``--out`` saves the same as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from metrics import END_TO_END  # noqa: E402


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", default=list(wl.WORKLOADS))
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    bounds = {m.name: m.bound for m in END_TO_END}
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()
                if k in bounds or args.trace), flush=True)
        summary[workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {name: dict(summarise([r["metrics"][name]["value"] for r in runs]),
                                   unit=runs[0]["metrics"][name]["unit"])
                        for name in runs[0]["metrics"]},
        }
        for name, s in summary[workload]["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f"  bound {bound:g}" + ("" if s["spread"] < bound / 3 else "  SPREAD >= bound/3"))
            print(f"  {workload:16s} {name:52s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
