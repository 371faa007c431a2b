"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script; it is not meant to be run by hand.  It times
the import of ``siqrng.cli`` (the set-up a user pays on every command), then
calls ``siqrng.cli.main(argv)`` in a closed loop — one client, one invocation
at a time, ``--threads 1`` — until ``--seconds`` have passed, checking the
outputs of every invocation.  It writes its measurements as JSON to
``--result``.

Every pass is preceded and followed by ``reference_loop``.  With
``--trace 1`` the loop runs untraced for half the time, then makes one
more pass over the workload's invocations with the layer spans installed
(see ``tracer.py``); end-to-end figures are never taken from traced calls.
With ``--setup-only`` it only times the import and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402  (stdlib only, cheap to import)


def _parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.time() of the parent just before it started this process")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out-dir")
    p.add_argument("--result")
    return p.parse_args(argv)


class Runner:
    """Invokes the CLI for one workload and checks each invocation."""

    def __init__(self, cli, workload: wl.Workload, seed: int, out_dir: Path):
        self.cli = cli
        self.seed = seed
        self.ops = workload.ops(seed)
        self.out_dir = out_dir
        self.attempted = 0
        self.failures = []
        self.digests = {}     # first digests seen per op, for the determinism check
        self.sweep_refs = {op.csv_name: wl.reference_csv(op.csv_name)
                           for op in self.ops if op.kind == "sweep"}
        self.mc_ref = (wl.mc_reference(workload.name, seed) if workload.seeded else None)

    def invoke(self, op: wl.Op) -> float:
        """Run one operation; return its wall time in seconds."""
        argv = list(op.argv) + ["--threads", "1", "--out-dir", str(self.out_dir)]
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception as exc:  # noqa: BLE001  every exception is a failed operation
            code = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        problems = [f"exit status {code}: {sink.getvalue().strip()[-300:]}"] if code != 0 else []
        if not problems:
            problems = self.check(op)
        if problems:
            self.failures.append({"argv": argv, "problems": problems[:5]})
        return wall

    def check(self, op: wl.Op):
        try:
            if op.kind == "sweep":
                return wl.check_sweep(op, self.out_dir, self.sweep_refs[op.csv_name])
            problems = wl.check_mc(op, self.seed, self.out_dir, self.mc_ref)
            digests = wl.file_digests(self.out_dir)
            first = self.digests.setdefault(op.argv, digests)
            if digests != first:
                problems.append("outputs differ from this run's first invocation")
            return problems
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"check failed: {type(exc).__name__}: {exc}"]

    def iteration(self) -> float:
        return sum(self.invoke(op) for op in self.ops)


def reference_loop() -> float:
    """Time a fixed piece of work that does not use siqrng; return seconds.

    The speed of a shared host drifts between runs and from second to
    second: on a 2-vCPU VM, ten runs of ``mc_shallow`` had median pass times
    from 1.1 to 2.0 s for identical work.  Each pass is bracketed by this
    loop and expressed in units of its time (``wall_norm``), which removes
    the share of that drift the two have in common; the spread between
    runs fell from 0.20-0.46 to 0.03-0.11 of the median.  The loop mixes
    what the workloads spend their time on: interpreted float arithmetic,
    formatting numpy scalars into CSV text, and small numpy kernels.
    Changing it changes every normalized figure, so compare only runs that
    share it.
    """
    import numpy as np
    start = time.perf_counter()
    acc = 0.0
    for i in range(200_000):
        acc += (i * 1.000001) % 7.0
    # Small buffers, reused, so the loop does not raise the run's peak RSS.
    flags = (np.arange(4_000) & 1).astype(np.uint8)
    for _ in range(10):
        "".join(f"{i},{flags[i]},{i % 5}\n" for i in range(4_000))
    a = np.arange(20_000, dtype=np.float64)
    for _ in range(200):
        int((np.sqrt(a * 1.0001) < 300.0).sum())
    return time.perf_counter() - start


def _observers():
    """Values the per-layer metrics need beyond span times."""
    def simulate(obs, args, kwargs, result):
        arrays = [getattr(result.clicks, c) for c in ("basis_is_x", "d0", "d1", "ap0", "ap1")]
        arrays += [result.bits.bits, result.bits.fill_mask, result.bits.window_index]
        obs["simulate.pulses"] = obs.get("simulate.pulses", 0) + len(result.clicks)
        obs["simulate.result_bytes"] = sum(a.nbytes for a in arrays)

    def to_csv(obs, args, kwargs, result):
        obs["to_csv.bytes"] = obs.get("to_csv.bytes", 0) + Path(args[1]).stat().st_size

    def extract(obs, args, kwargs, result):
        obs["extract.bits_in"] = obs.get("extract.bits_in", 0) + len(args[0])
        obs["extract.bits_out"] = obs.get("extract.bits_out", 0) + len(result)

    return {"simulator.simulate": simulate, "simulator.to_csv": to_csv,
            "simulator.extract": extract}


def _environment(workload: wl.Workload, tracer_obs: dict, ops, out_dir: Path) -> dict:
    import numpy
    import scipy
    env = {"nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "cpu_model": None, "caches": {}}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            env["caches"][f"L{level}_{kind}"] = (idx / "size").read_text().strip()
    if workload.seeded:
        computed = tracer_obs.get("simulate.result_bytes", 0)
        what = "SimulationResult arrays (clicks + bit stream), computed from nbytes"
    else:
        # The sweeps work on scalars; their largest buffer is the CSV text.
        computed = sum((out_dir / op.csv_name).stat().st_size for op in ops)
        what = "CSV text built in memory before the write, computed from file size"
    env["working_set"] = {"bytes": computed, "what": what,
                          "last_level_cache": env["caches"].get("L3_Unified")}
    return env


def _per_layer(stats: dict, obs: dict, sidecar: dict, traced_wall: float,
               untraced_wall: float) -> dict:
    def s(name, key):
        return stats.get(name, {}).get(key, 0)

    sim_busy = s("simulator.simulate", "busy_s")
    csv_busy = s("simulator.to_csv", "busy_s")
    pulses = obs.get("simulate.pulses", 0)
    raw_bits = sidecar.get("bit_count", 0)
    m = {
        "cli.cmd_simulate.self_s": s("cli.cmd_simulate", "self_s"),
        "cli.cmd_rates.self_s": s("cli.cmd_rates", "self_s"),
        "cli.cmd_hmin.self_s": s("cli.cmd_hmin", "self_s"),
        "cli.cmd_finite_sampling.self_s": s("cli.cmd_finite_sampling", "self_s"),
        "simulator.simulate.busy_s": sim_busy,
        "simulator.simulate.ns_per_pulse": sim_busy / pulses * 1e9 if pulses else 0.0,
        "simulator.to_csv.busy_s": csv_busy,
        "simulator.to_csv.mb_per_s": (obs.get("to_csv.bytes", 0) / 1e6 / csv_busy
                                      if csv_busy else 0.0),
        "simulator.extract.busy_s": s("simulator.extract", "busy_s"),
        "simulator.extract.bits_in": obs.get("extract.bits_in", 0),
        "simulator.extract.bits_out": obs.get("extract.bits_out", 0),
        "simulator.result_mb": obs.get("simulate.result_bytes", 0) / 1e6,
        "simulator.raw_bits": raw_bits,
        "simulator.fill_ratio": sidecar.get("n_double", 0) / raw_bits if raw_bits else 0.0,
        "finite_size.theta_random_sampling.infeasible":
            s("finite_size.theta_random_sampling", "raised.InfeasibleError"),
    }
    for name in ("finite_size.hmin_with_tau_uncertainty", "finite_size.theta_random_sampling",
                 "finite_size.RateScenario.rates", "entropy_engine.ArmState.from_detectors",
                 "entropy_engine.make_entropy_report", "entropy_engine.entropy_report_from_taus",
                 "entropy_engine.measurement_taus", "source_monitor.vacuum_probability",
                 "detector_model.AfterpulseSpec.worst_case_total"):
        m[f"{name}.calls"] = s(name, "calls")
        m[f"{name}.busy_s"] = s(name, "busy_s")
    m["finite_size.RateScenario.rates.self_s"] = s("finite_size.RateScenario.rates", "self_s")
    m["source_monitor.poisson_distribution.busy_s"] = s("source_monitor.poisson_distribution",
                                                        "busy_s")
    m["trace.overhead_ratio"] = traced_wall / untraced_wall
    return m


def _design_checks(tracer, stats: dict) -> dict:
    """Span facts the workload design rests on (printed, not gated)."""
    def largest_child(parent):
        children = tracer.children_of(parent)
        return max(children, key=children.get) if children else None

    def share(part, whole):
        w = stats.get(whole, {}).get("busy_s", 0)
        return stats.get(part, {}).get("busy_s", 0) / w if w else 0.0

    return {
        "cli.cmd_simulate.largest_child": largest_child("cli.cmd_simulate"),
        "hmin_with_tau_uncertainty/cmd_finite_sampling":
            share("finite_size.hmin_with_tau_uncertainty", "cli.cmd_finite_sampling"),
        "theta_random_sampling/RateScenario.rates":
            share("finite_size.theta_random_sampling", "finite_size.RateScenario.rates"),
        "theta_random_sampling.calls":
            stats.get("finite_size.theta_random_sampling", {}).get("calls", 0),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    import siqrng.cli as cli
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload = wl.WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    ops_dir = out_dir / "outputs"
    ops_dir.mkdir(parents=True)
    runner = Runner(cli, workload, args.seed, ops_dir)

    budget = args.seconds / 2 if args.trace else args.seconds
    walls, refs = [], [reference_loop()]
    started = time.perf_counter()
    # Start another pass only if it should end within the budget.
    while not walls or time.perf_counter() - started + walls[-1] + refs[-1] <= budget:
        walls.append(runner.iteration())
        refs.append(reference_loop())

    result = {"setup_s": setup_s, "walls": walls, "refs": refs,
              "attempted": runner.attempted, "failures": runner.failures,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    if args.trace:
        import tracer as tr
        tracer = tr.Tracer()
        tr.install(tracer, _observers())
        traced_wall = 0.0
        for op in runner.ops:
            tracer.begin_invocation()
            traced_wall += runner.invoke(op)
        result["attempted"] = runner.attempted
        trace_dir = out_dir / "trace"
        trace_dir.mkdir()
        tracer.write(trace_dir / "spans.npz")
        stats = tracer.aggregate()
        sidecar = {}
        if workload.seeded:
            sidecar = json.loads((ops_dir / "bits.json").read_text(encoding="utf-8"))
        result["per_layer"] = _per_layer(stats, tracer.observed, sidecar, traced_wall,
                                         statistics.median(walls))
        result["spans"] = stats
        result["design"] = _design_checks(tracer, stats)
        result["environment"] = _environment(workload, tracer.observed, runner.ops, ops_dir)
        (trace_dir / "summary.json").write_text(json.dumps(result, indent=1, sort_keys=True))

    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
