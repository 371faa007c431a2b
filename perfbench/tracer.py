"""Span tracing of the six siqrng layers from outside the package.

``install`` wraps the public functions and methods named in ``SPANS`` and
rebinds each wrapped name wherever the package looks it up: module globals
(``cli`` imports ``simulate`` by value), dict values (``cli._COMMANDS``) and
class attributes.  The package source is not edited.

``SPANS`` holds the layer boundaries the benchmark's per-layer metrics name,
not every public function: wrapping the hot detector helpers too (about
7.7 million calls per ``finite-sampling`` run) made the traced run 3.3 times
slower than the untraced one and left the parent spans mostly wrapper time.

A span is (name, start, end, parent); spans are appended to flat arrays in
call order, so each invocation owns a contiguous index range, and they stay
in memory until ``write`` saves them.  Self time is a span's duration minus
the durations of its direct children; calls run on one thread, so child
spans never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional

# Dotted paths under ``siqrng``, one or more per layer module.
SPANS = (
    "cli.main", "cli.cmd_autocorr", "cli.cmd_hmin", "cli.cmd_rates",
    "cli.cmd_finite_sampling", "cli.cmd_simulate",
    "simulator.simulate", "simulator.ClickRecords.to_csv", "simulator.extract",
    "finite_size.scenario_from_params", "finite_size.RateScenario.rates",
    "finite_size.theta_random_sampling", "finite_size.hmin_with_tau_uncertainty",
    "entropy_engine.measurement_taus", "entropy_engine.entropy_report_from_taus",
    "entropy_engine.make_entropy_report", "entropy_engine.ArmState.from_detectors",
    "source_monitor.poisson_distribution", "source_monitor.vacuum_probability",
    "detector_model.AfterpulseSpec.worst_case_total",
)

# Span names that read better without the class, as the metrics name them.
ALIASES = {"simulator.ClickRecords.to_csv": "simulator.to_csv"}


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.codes = array("i")
        self.parents = array("i")
        self.errors: Dict[int, str] = {}
        self.invocations: List[int] = []   # first span index of each invocation
        self.observed: Dict[str, float] = {}
        self._stack: List[int] = []

    def begin_invocation(self) -> None:
        self.invocations.append(len(self.starts))

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        code = len(self.names)
        self.names.append(name)
        starts, ends, codes, parents = self.starts, self.ends, self.codes, self.parents
        errors, stack, clock = self.errors, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            parents.append(stack[-1] if stack else -1)
            codes.append(code)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[i] = type(exc).__name__
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(self.observed, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def arrays(self):
        """The spans as numpy arrays: start, end, name code, parent index and
        invocation number."""
        import numpy as np
        n = len(self.starts)
        invocation = np.zeros(n, dtype=np.int32)
        for inv, first in enumerate(self.invocations):
            invocation[first:] = inv
        return (np.frombuffer(self.starts, dtype=np.float64),
                np.frombuffer(self.ends, dtype=np.float64),
                np.frombuffer(self.codes, dtype=np.int32),
                np.frombuffer(self.parents, dtype=np.int32), invocation)

    def write(self, path: Path) -> None:
        """Save the spans to ``path`` (numpy ``.npz``): arrays ``start``,
        ``end`` (``time.perf_counter`` seconds), ``name`` (index into
        ``names``), ``parent`` (span index, -1 for a root), ``invocation``
        and ``error`` (exception name or empty, per span)."""
        import numpy as np
        start, end, code, parent, invocation = self.arrays()
        error = np.full(len(start), "", dtype=object)
        for i, exc in self.errors.items():
            error[i] = exc
        np.savez(path, names=np.array(self.names), start=start, end=end, name=code,
                 parent=parent, invocation=invocation, error=error.astype(str))

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``busy_s``, ``self_s`` and the
        number of calls that raised, keyed ``raised.<exception name>``.

        ``busy_s`` sums only the outermost span of a name on each call path,
        so recursion is not counted twice; ``self_s`` is span time minus the
        time of direct child spans."""
        import numpy as np
        start, end, code, parent, _ = self.arrays()
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=len(start))
        nested = np.zeros(len(start), dtype=bool)
        ancestor = parent.copy()
        while np.any(ancestor >= 0):
            live = ancestor >= 0
            nested[live] |= code[ancestor[live]] == code[live]
            ancestor[live] = parent[ancestor[live]]
        k = len(self.names)
        calls = np.bincount(code, minlength=k)
        busy = np.bincount(code[~nested], weights=duration[~nested], minlength=k)
        own = np.bincount(code, weights=duration - child, minlength=k)
        stats = {name: {"calls": int(calls[c]), "busy_s": float(busy[c]),
                        "self_s": float(own[c])} for c, name in enumerate(self.names)}
        for i, exc in self.errors.items():
            s = stats[self.names[self.codes[i]]]
            s["raised." + exc] = s.get("raised." + exc, 0) + 1
        return stats

    def children_of(self, parent_name: str) -> Dict[str, float]:
        """Inclusive time of the direct children of spans named
        ``parent_name``, summed per child name."""
        import numpy as np
        start, end, code, parent, _ = self.arrays()
        target = self.names.index(parent_name) if parent_name in self.names else -1
        mask = (parent >= 0)
        mask[mask] = code[parent[mask]] == target
        sums = np.bincount(code[mask], weights=(end - start)[mask],
                           minlength=len(self.names))
        return {self.names[c]: float(sums[c]) for c in np.flatnonzero(sums)}


def install(tracer: Tracer, observers: Optional[Dict[str, Callable]] = None) -> None:
    """Wrap the functions and methods named in ``SPANS``.  ``observers``
    maps a span name to a callback that receives ``(observed, args, kwargs,
    result)`` after each successful call."""
    observers = observers or {}
    replaced: Dict[int, Callable] = {}
    for path in SPANS:
        layer, *classes, attr = path.split(".")
        owner = importlib.import_module(f"siqrng.{layer}")
        for cls in classes:
            owner = getattr(owner, cls)
        name = ALIASES.get(path, path)
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__,
                                                         observers.get(name))))
        else:
            wrapped = tracer.wrap(name, raw, observers.get(name))
            setattr(owner, attr, wrapped)
            replaced[id(raw)] = wrapped
    # Rebind names imported by value, in every loaded siqrng module.
    for module_name, module in list(sys.modules.items()):
        if module_name != "siqrng" and not module_name.startswith("siqrng."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replaced and inspect.isfunction(value):
                setattr(module, attr, replaced[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replaced and inspect.isfunction(item):
                        value[key] = replaced[id(item)]
