"""Every function and every ``raise`` in ``src/siqrng`` runs under some call.

The command lines of ``ARGVS``, the failing rows of ``cli_failures.FAILURES``
and the calls of ``LIBRARY`` run in one process under one trace hook:
``sys.settrace`` on this thread and ``threading.settrace`` on the worker
threads that ``--threads 2`` starts (``coverage`` is not a test dependency).
The hook keeps the code object of every call event, and for frames of the
package the line of every exception event, which fires where a ``raise``
runs even when the same function catches it.  It turns line events off, so
its cost grows with the calls, not with the lines, that run.

A ``def`` of the package, nested ones included, that no command line enters
fails unless ``ALLOWED`` names it with its reason; so does a ``raise`` that
none of the three sources reaches.  An ``ALLOWED`` entry that is reached or
gone fails too, and so does a ``LIBRARY`` call that does not raise its error.
"""

import ast
import contextlib
import io
import json
import math
import os
import sys
import threading
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest

import siqrng
from siqrng import (AfterpulseSpec, BitStream, ClickRecords, ConvergenceError,
                    DetectorParams, EntropyReport, InfeasibleError, ParameterError,
                    PhotonDistribution, PulseTrainConfig, RateScenario,
                    afterpulse_coeff, bernoulli_transform, cli, detector_set,
                    empirical_autocorrelation, extract, hoeffding_delta,
                    poisson_distribution, response_prob_no_afterpulse, simulate,
                    theta_entropy_inequality,
                    theta_random_sampling, total_afterpulse_finite, vacuum_probability)

from cli_failures import FAILURES

SRC = Path(siqrng.__file__).resolve().parent
ROOT = SRC.parent.parent

# The sweep specification of README's command-line section, its one ```json block.
README = ROOT / "README.md"

SHORT = ["simulate", "--pulses", "20000"]
ARGVS = [
    ["autocorr"],
    ["autocorr", "--mc", "--points", "3", "--pulses", "20000"],
    ["autocorr", "--mc", "--points", "3", "--pulses", "20000", "--threads", "2"],
    ["hmin"],
    ["hmin", "--sweep", "efficiency"],
    ["rates"],
    ["rates", "--points", "5", "--p-hat-ap", "0.6"],
    # 1000 pulses admit no random-sampling theta: a zero rate, not an error
    ["rates", "--N", "1000", "--points", "2"],
    # at 10^5 pulses theta's windows fail their checks, so no theta is walked
    # and each point checks its window in math
    ["rates", "--N", "1e5", "--points", "2"],
    ["finite-sampling"],
    ["simulate"],
    SHORT + ["--p-hat", "0.05", "--window-depth", "0"],
    SHORT + ["--nu", "10", "--p-hat", "0.05", "--window-depth", "2"],
    SHORT + ["--p-hat", "0.05", "--window-depth", "1000"],
    SHORT + ["--t-z", "0.5", "--t-x", "0.3"],
    SHORT + ["--nu", "50"],
    SHORT + ["--e-q", "0.7", "--q-x", "0.5"],
    SHORT + ["--e-q", "0"],
    SHORT + ["--q-x", "0"],
    SHORT + ["--threads", "2"],
    SHORT + ["--config", "{seed_config}"],
    ["rates", "--config", "{sweep_spec}"],
    # branches that only these lines take; test_edge_lines_write_their_branch_output
    # checks what each wrote
    SHORT + ["--extract-bits", "0"],
    SHORT + ["--nu", "0"],
    SHORT + ["--config", "{null_config}"],
]

DETS = detector_set(0.1, 6e-7, AfterpulseSpec.none())
SOURCE = poisson_distribution(1.0)
SCENARIO = RateScenario(DETS)

# (error, message, call): one call of a name that ``siqrng`` exports, and the
# error it must raise.  These are the library's input checks that the command
# lines cannot reach, because the commands check the same settings first or
# never pass such a value.
LIBRARY = [
    # --- the package ----------------------------------------------------------
    (AttributeError, "module 'siqrng' has no attribute 'no_such_name'",
     lambda: siqrng.no_such_name),
    # --- detector model -------------------------------------------------------
    (ParameterError, "lag must be >= 1, got 0", lambda: afterpulse_coeff(0.1, 0.5, 0)),
    (ParameterError, "amplitude must be >= 0, got -0.1",
     lambda: total_afterpulse_finite(-0.1, 0.5, 3)),
    (ParameterError, "decay must be > 0, got 0.0", lambda: total_afterpulse_finite(0.1, 0.0, 3)),
    (ParameterError, "windows must be >= 0, got -1",
     lambda: total_afterpulse_finite(0.1, 0.5, -1)),
    (ParameterError, "unknown afterpulse mode 'gaussian'",
     lambda: AfterpulseSpec(mode="gaussian")),
    (ParameterError, "window_depth must be None or an integer >= 0, got -1",
     lambda: AfterpulseSpec(mode="explicit", window_depth=-1)),
    (ParameterError, "coefficient p_hat_2 = 1.0 outside [0, 1)",
     lambda: AfterpulseSpec.explicit([0.1, 1.0])),
    (ParameterError, "exponential mode takes no coefficient list",
     lambda: AfterpulseSpec(mode="exponential", coefficients=(0.1,))),
    (ParameterError, "amplitude must be >= 0, got -0.1",
     lambda: AfterpulseSpec.exponential(-0.1, 0.5)),
    (ParameterError, "decay must be > 0, got 0.0", lambda: AfterpulseSpec.exponential(0.1, 0.0)),
    (ConvergenceError, "unlimited history requires decay > ln(1+amplitude); got decay=0.5, "
                       "ln(1+A)=0.6931471805599453",
     lambda: AfterpulseSpec.exponential(1.0, 0.5)),
    (ParameterError, "overall first-order rate must be < 1, got 1.2",
     lambda: AfterpulseSpec.explicit([0.6, 0.6])),
    (ParameterError, "lag must be >= 1, got 0", lambda: AfterpulseSpec.none().coefficient(0)),
    (ParameterError, "label must be one of ('0', '1', '+', '-'), got '2'",
     lambda: DetectorParams(0.1, 6e-7, label="2")),
    # an array names its first entry outside [0, 1]
    (ParameterError, "tau must lie in [0, 1], got 1.5",
     lambda: response_prob_no_afterpulse(np.array([0.5, 1.5, -0.1]), 6e-7)),
    # --- entropy engine -------------------------------------------------------
    (ParameterError, "bit sequence must be one-dimensional",
     lambda: empirical_autocorrelation([[0, 1], [1, 0]], 1)),
    (ParameterError, "lag must be >= 1, got 0", lambda: empirical_autocorrelation([0, 1, 0], 0)),
    (ParameterError, "mask must have the same shape as the bit sequence",
     lambda: empirical_autocorrelation([0, 1, 0], 1, mask=[True, False])),
    (ParameterError, "Q_single + Q_double exceeds 1",
     lambda: EntropyReport(hmin_z=1.0, hmin_a=0.0, q_single=0.6, q_double=0.6, eq=0.0)),
    # --- finite-size bounds ---------------------------------------------------
    (ParameterError, "EQ must lie in (0, 0.5), got 0.5",
     lambda: theta_random_sampling(0.5, 0.02, 1e10, 2.0**-50)),
    (ParameterError, "q_x must lie in (0, 1), got 1.0",
     lambda: theta_random_sampling(0.01, 1.0, 1e10, 2.0**-50)),
    (ParameterError, "N must be >= 1, got 0.5",
     lambda: theta_random_sampling(0.01, 0.02, 0.5, 2.0**-50)),
    (ParameterError, "eps_e must lie in (0, 1), got 1.0",
     lambda: theta_random_sampling(0.01, 0.02, 1e10, 1.0)),
    (ParameterError, "q_x(1-q_x) EQ(1-EQ) N underflows to 0.0 (EQ=1e-300, q_x=1e-300, N=1.0)",
     lambda: theta_random_sampling(1e-300, 1e-300, 1.0, 0.5)),
    (InfeasibleError, "no admissible theta below 0.5 - EQ for EQ = 0.499999999999999",
     lambda: theta_random_sampling(0.5 - 1e-15, 0.02, 1e10, 2.0**-50)),
    (ParameterError, "basis counts must be >= 1, got n_z=0.5, n_x=100.0",
     lambda: theta_entropy_inequality(0.5, 100.0, 0.01)),
    (ParameterError, "eps_e must lie in (0, 1), got 1.0",
     lambda: theta_entropy_inequality(100.0, 100.0, 1.0)),
    (ParameterError, "delta_d must be >= 0, got -1.0",
     lambda: SCENARIO.monitored(SCENARIO.taus(0.0), -1.0)),
    # --- simulator ------------------------------------------------------------
    (ParameterError, "chunk_size must be >= 1, got 0",
     lambda: PulseTrainConfig(10, SOURCE, DETS, chunk_size=0)),
    (ParameterError, "dets must hold 4 detectors, got 3",
     lambda: PulseTrainConfig(10, SOURCE, DETS[:3])),
    (ParameterError, "simulation requires a finite afterpulse window_depth "
                     "(detector '0' has unlimited history)",
     lambda: PulseTrainConfig(10, SOURCE, detector_set(0.1, 6e-7,
                                                       AfterpulseSpec(mode="explicit")))),
    (ParameterError, "threads must be >= 1, got 0",
     lambda: simulate(PulseTrainConfig(10, SOURCE, DETS), threads=0)),
    (ParameterError, "click codes must be a 1-d array of values in [0, 32)",
     lambda: ClickRecords([0, 32])),
    (ParameterError, "bit-stream columns must have equal length",
     lambda: BitStream([1], [], [0], z_windows=1, x_windows=0, n_single=1, n_double=0)),
    (ParameterError, "bit count must equal singles plus doubles",
     lambda: BitStream([1], [False], [0], z_windows=1, x_windows=0, n_single=0, n_double=0)),
    (ParameterError, "bit input must be one-dimensional", lambda: extract([[0, 1]], 1, 0)),
    (ParameterError, "bit input must be 0/1 valued", lambda: extract([0, 2], 1, 0)),
    # --- source and monitor ---------------------------------------------------
    (ParameterError, "probs must be a non-empty 1-d vector",
     lambda: PhotonDistribution(probs=[])),
    (ParameterError, "probabilities must be non-negative",
     lambda: PhotonDistribution(probs=[1.2, -0.2])),
    (ParameterError, "tail_mass must be >= 0, got -0.1",
     lambda: PhotonDistribution(probs=[1.0], tail_mass=-0.1)),
    (ParameterError, "probabilities plus tail must sum to 1 within 1e-12, got 0.9",
     lambda: PhotonDistribution(probs=[0.5, 0.4])),
    (ParameterError, "xi must lie in [0, 1], got 1.5", lambda: bernoulli_transform(SOURCE, 1.5)),
    (ParameterError, "xi must lie in [0, 1], got 1.5",
     lambda: vacuum_probability(SOURCE, [0.5, 1.5])),
    (ParameterError, "n_samples must be >= 1, got 0", lambda: hoeffding_delta(0, 0.01)),
]

# Functions no command line reaches, and raises nothing reaches, each with
# the reason it stays.
ALLOWED = {
    "__init__.__getattr__": "a library lookup of a package attribute, which no command "
                            "line makes; LIBRARY's siqrng.no_such_name enters it",
    "finite_size.RateScenario.monitored": "ROADMAP item 3 gives it a command",
    "cli.cmd_hmin: raise": "the loop above it re-raises at grid[-1] at the latest",
    'simulator.extract: raise PrecisionError("FFT convolution lost integer precision")':
        "no input loses the precision; a test reaches it by patching the FFT",
}


def defined_names():
    """({(file, first line): "module.qualname"} of every ``def`` under ``SRC``,
    {(file, line): "module.qualname: raise ..."} of every ``raise``).

    A decorated function's code starts at its first decorator; a ``raise``
    is named by its function and its first source line."""
    functions, raises = {}, {}

    def visit(path, lines, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                functions[(str(path), line)] = f"{path.stem}.{name}"
                visit(path, lines, child, name + ".<locals>.")
                continue
            if isinstance(child, ast.Raise):
                owner = prefix.removesuffix(".<locals>.") or "<module>"
                raises[(str(path), child.lineno)] = (
                    f"{path.stem}.{owner}: {lines[child.lineno - 1].strip()}")
            visit(path, lines, child,
                  prefix + child.name + "." if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        visit(path, text.splitlines(), ast.parse(text), "")
    return functions, raises


@lru_cache(maxsize=None)
def _resolved(filename):
    return str(Path(filename).resolve())


def run_traced(calls):
    """(results of ``calls``, code objects entered, {(file, line)} of the
    exception events in frames of the package).

    Memoized functions of the package forget what earlier tests cached, so
    their bodies run again here.
    """
    for name, module in list(sys.modules.items()):
        if name.startswith("siqrng."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    entered, raised = set(), set()
    package = str(SRC) + os.sep

    def local(frame, event, arg):
        if event == "exception":
            raised.add((_resolved(frame.f_code.co_filename), frame.f_lineno))
        return local

    def hook(frame, event, arg):      # the call event of each new frame
        entered.add(frame.f_code)
        if _resolved(frame.f_code.co_filename).startswith(package):
            frame.f_trace_lines = False
            return local
        return None

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        results = [call() for call in calls]
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return results, entered, raised


def _library_outcome(error, message, call):
    """None if ``call`` raises ``error`` with ``message``, else what went wrong."""
    try:
        call()
    except Exception as exc:       # any other error is reported, not raised
        if type(exc) is error and str(exc) == message:
            return None
        return f"raised {type(exc).__name__}({str(exc)!r})"
    return "raised nothing"


def _run_row(row, tmp):
    """Exit status of the ``FAILURES`` row ``row``, run in the directory ``tmp``."""
    with pytest.MonkeyPatch.context() as patch:
        for key, value in (row.env or {}).items():
            patch.setenv(key, value)
        return cli.main(row.argv_in(tmp))


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """Every command line and library call, run once under the trace hook."""
    tmp = tmp_path_factory.mktemp("reach")
    seed_config, sweep_spec = tmp / "seed.json", tmp / "sweep.json"
    null_config = tmp / "null.json"
    seed_config.write_text(json.dumps({"seed": 3.0}))
    null_config.write_text(json.dumps({"extract_bits": None}))
    sweep_spec.write_text(README.read_text().split("```json\n", 1)[1].split("```", 1)[0])
    commands = []    # (label, expected exit status, call)
    for i, argv in enumerate(ARGVS):
        argv = [arg.format(seed_config=seed_config, sweep_spec=sweep_spec,
                           null_config=null_config) for arg in argv]
        commands.append((" ".join(argv), 0,
                         partial(cli.main, argv + ["--out-dir", str(tmp / f"ok{i}")])))
    for i, row in enumerate(FAILURES):
        (tmp / f"row{i}").mkdir()
        commands.append((row.label(), row.status, partial(_run_row, row, tmp / f"row{i}")))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        statuses, entered, raised = run_traced([call for _, _, call in commands])
    outcomes, _, library_raised = run_traced(
        [partial(_library_outcome, *entry) for entry in LIBRARY])
    return {
        "out": {tuple(argv): tmp / f"ok{i}" for i, argv in enumerate(ARGVS)},
        "wrong_status": [f"{label}: exit {got}, expected {want}"
                         for (label, want, _), got in zip(commands, statuses) if got != want],
        "entered": {(_resolved(c.co_filename), c.co_firstlineno) for c in entered},
        "raised": raised | library_raised,
        "library": [f"{_where(call)}: {outcome}, expected {error.__name__}({message!r})"
                    for (error, message, call), outcome in zip(LIBRARY, outcomes) if outcome],
    }


def _where(call):
    """``file:line`` of a ``LIBRARY`` call, relative to the repository."""
    code = call.__code__
    return f"{Path(code.co_filename).resolve().relative_to(ROOT)}:{code.co_firstlineno}"


def _unreached(names, reached):
    """The entries of ``names`` that ``reached`` misses and ``ALLOWED`` does not
    name, as ``file:line: name``, and the ``ALLOWED`` names among ``names``
    that ``reached`` holds."""
    missing = sorted(f"{Path(path).relative_to(ROOT)}:{line}: {name}"
                     for (path, line), name in names.items()
                     if (path, line) not in reached and name not in ALLOWED)
    stale = sorted(name for key, name in names.items() if key in reached and name in ALLOWED)
    return missing, stale


def test_command_lines_exit_as_listed(reach):
    assert not reach["wrong_status"], "\n".join(reach["wrong_status"])


def test_edge_lines_write_their_branch_output(reach):
    """``extract``'s empty return, the nu = 0 source and a ``null`` config value."""
    no_extract = reach["out"][tuple(SHORT + ["--extract-bits", "0"])]
    assert (no_extract / "extracted.bin").read_bytes() == b""
    assert (no_extract / "bits.bin").read_bytes()
    dark = reach["out"][tuple(SHORT + ["--nu", "0"])]
    record = json.loads((dark / "bits.json").read_text())
    assert (record["bit_count"], record["z_windows"] + record["x_windows"]) == (0, 20000)
    assert (dark / "bits.bin").read_bytes() == (dark / "extracted.bin").read_bytes() == b""
    null = reach["out"][tuple(SHORT + ["--config", "{null_config}"])]
    assert json.loads((null / "manifest.json").read_text())["config"]["extract_bits"] is None
    bit_count = json.loads((null / "bits.json").read_text())["bit_count"]
    # the default output length: half the raw bits
    assert len((null / "extracted.bin").read_bytes()) == math.ceil(bit_count // 2 / 8) > 0


def test_every_function_runs_under_a_command(reach):
    missing, stale = _unreached(defined_names()[0], reach["entered"])
    assert not missing, "no command line reaches:\n" + "\n".join(missing)
    assert not stale, f"allow-listed but reached: {', '.join(stale)}"


def test_every_raise_runs_under_a_command_or_library_call(reach):
    missing, stale = _unreached(defined_names()[1], reach["raised"])
    assert not missing, "no command line or library call reaches:\n" + "\n".join(missing)
    assert not stale, f"allow-listed but reached: {', '.join(stale)}"


def test_every_library_call_raises_its_error(reach):
    assert not reach["library"], "\n".join(reach["library"])


def test_allow_list_names_what_exists():
    functions, raises = defined_names()
    gone = sorted(set(ALLOWED) - set(functions.values()) - set(raises.values()))
    assert not gone, f"allow-listed but gone: {', '.join(gone)}"
